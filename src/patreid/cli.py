"""Command-line entry point.

Subcommands: synth, build-vocab, query, evaluate.  Every run is a
pure function of its flags plus input files; re-running never mutates
inputs.  Exit codes: 0 success, 1 I/O or numeric failure, 2 usage or
validation error (bad flags, missing artifacts, insufficient data).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .encode import TrainingParams, train_vocabulary
from .geometry import GeometryError, GeometryParams
from .ingest import (
    ManifestError,
    PatfError,
    load_entry_features,
    load_manifest,
    parse_feature_file,
)
from .reid import (
    RULES,
    CombineParams,
    ReidError,
    evaluate,
    fork_map,
    load_images,
    query_database,
    write_per_query_csv,
)
from .synth import SynthConfig, generate_benchmark
from .vocab import VocabError, load_vocabulary, save_vocabulary

RULE_TOKENS = {
    "app": "appearance_only",
    "geom": "geometry_only",
    "poly": "polynomial",
    "exp": "exponential",
}

# SynthConfig field -> flag, for validation messages that name the flag.
SYNTH_FLAGS = {
    "seed": "--seed",
    "n_individuals": "--individuals",
    "views_per_individual": "--views",
    "points_per_individual": "--points",
    "descriptor_dim": "--descriptor-dim",
    "descriptor_noise_sigma": "--noise",
    "dropout_rate": "--dropout",
    "clutter_rate": "--clutter",
    "max_perspective": "--max-perspective",
}
TRAINING_FLAGS = {"alpha": "--alpha", "kpca_dim": "--kpca-dim", "seed": "--seed",
                  "gmm_k": "--gmm-k", "pca_dim": "--pca-dim"}
COMBINE_FLAGS = {"rule": "--rule", "a": "--a", "shortlist_size": "--shortlist"}
GEOMETRY_FLAGS = {
    "inlier_threshold": "--inlier-thresh",
    "max_distance": "--max-desc-dist",
    "ratio": "--ratio",
}


class UsageError(Exception):
    """Bad arguments, missing artifacts, or insufficient data (exit 2)."""


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _validated(config, flags):
    """config, once its validate() passes; else a UsageError naming the flag.

    validate() messages start with the offending field's name, which is
    rewritten to the flag that sets it.
    """
    try:
        config.validate()
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise UsageError(f"{flags.get(field, field)} {rest}") from None
    return config


def _combine_params(args, rule: str) -> CombineParams:
    return _validated(
        CombineParams(rule=rule, a=args.a, shortlist_size=args.shortlist), COMBINE_FLAGS
    )


def _geometry_params(args) -> GeometryParams:
    return _validated(
        GeometryParams(
            inlier_threshold=args.inlier_thresh,
            mutual=args.mutual,
            max_distance=args.max_desc_dist,
            ratio=args.ratio,
        ),
        GEOMETRY_FLAGS,
    )


def _topk(args) -> int:
    if args.topk < 1:
        raise UsageError(f"--topk must be >= 1, got {args.topk}")
    return args.topk


def cmd_synth(args) -> int:
    config = SynthConfig(
        seed=args.seed,
        n_individuals=args.individuals,
        views_per_individual=args.views,
        points_per_individual=args.points,
        descriptor_dim=args.descriptor_dim,
        descriptor_noise_sigma=args.noise,
        dropout_rate=args.dropout,
        clutter_rate=args.clutter,
        max_perspective=args.max_perspective,
    )
    generate_benchmark(_validated(config, SYNTH_FLAGS), args.out)
    print(Path(args.out) / "manifest.csv")
    return 0


def cmd_build_vocab(args) -> int:
    params = TrainingParams(alpha=args.alpha, kpca_dim=args.kpca_dim, seed=args.seed,
                            gmm_k=args.gmm_k, pca_dim=args.pca_dim)
    _validated(params, TRAINING_FLAGS)
    manifest = load_manifest(_require_file(args.manifest, "manifest"))
    db_entries = manifest.with_role("database")
    if not db_entries:
        raise UsageError("no database entries in manifest")

    def parse(part: slice) -> list:
        return [load_entry_features(manifest, e) for e in db_entries[part]]

    slices = fork_map(len(db_entries), parse, what="database files")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vocabulary = train_vocabulary(
                [features for part in slices for features in part],
                gmm_k=args.gmm_k,
                pca_dim=args.pca_dim,
                kpca_dim=args.kpca_dim or None,
                alpha=args.alpha,
                whiten=args.whiten,
                seed=args.seed,
            )
    except VocabError as exc:
        raise UsageError(f"cannot train the vocabulary: {exc}") from None
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    save_vocabulary(vocabulary, args.out)
    print(args.out)
    return 0


def cmd_query(args) -> int:
    params = _combine_params(args, RULE_TOKENS[args.rule])
    geometry_params = _geometry_params(args)
    topk = _topk(args)
    manifest = load_manifest(_require_file(args.manifest, "manifest"))
    with load_vocabulary(_require_file(args.vocab, "vocabulary")) as vocabulary:
        query_features = parse_feature_file(_require_file(args.features, "feature file"))
        db_entries = manifest.with_role("database")
        if not db_entries:
            raise UsageError("no database entries in manifest")
        db = load_images(manifest, db_entries, vocabulary)
        try:
            result = query_database(db, vocabulary, query_features, params, geometry_params)
        except ReidError as exc:
            raise UsageError(str(exc)) from None

    c = result.candidates
    best = {}
    for k, individual in enumerate(c.individual_ids):
        best.setdefault(individual, k)
    print(f"{'rank':>4}  {'individual':<16} {'db_image':<20} "
          f"{'d_L':>10} {'n':>5} {'omega':>8} {'d_C':>12}")
    for rank, individual in enumerate(result.individuals[:topk], start=1):
        k = best[individual]
        print(
            f"{rank:>4}  {individual:<16} {c.image_ids[k]:<20} "
            f"{c.d_L[k]:>10.6f} {c.n[k]:>5} {c.omega[k]:>8.4f} {c.d_C[k]:>12.6g}"
        )
    return 0


def cmd_evaluate(args) -> int:
    rule_params = [_combine_params(args, rule) for rule in RULES]
    geometry_params = _geometry_params(args)
    topk = _topk(args)
    manifest = load_manifest(_require_file(args.manifest, "manifest"))
    protocol = "split" if args.protocol == "split" else "leave_one_out"
    with load_vocabulary(_require_file(args.vocab, "vocabulary")) as vocabulary:
        try:
            reports = evaluate(
                manifest,
                vocabulary,
                rule_params,
                protocol,
                k_max=topk,
                geometry_params=geometry_params,
            )
        except ReidError as exc:
            raise UsageError(str(exc)) from None

    first = next(iter(reports.values()))
    header = "".join(f"  top-{k:<4}" for k in range(1, topk + 1))
    print(f"{'rule':<16}{header}")
    for rule, report in reports.items():
        cells = "".join(f"  {acc:<8.4f}" for acc in report.accuracies)
        print(f"{rule:<16}{cells}")
    print(f"queries: {first.n_queries}   excluded: {len(first.excluded)}")
    for image_id, reason in first.excluded:
        print(f"  excluded {image_id}: {reason}")

    if args.per_query_csv:
        write_per_query_csv(reports, args.per_query_csv)
        print(args.per_query_csv)
    return 0


def _add_combine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=2.0,
                   help="polynomial rule exponent")
    p.add_argument("--inlier-thresh", type=float, default=0.1,
                   help="verification inlier threshold in normalized coordinates")
    p.add_argument("--shortlist", type=int, default=50,
                   help="entries geometrically verified per query (0 = all)")
    p.add_argument("--mutual", action=argparse.BooleanOptionalAction, default=True,
                   help="require mutual nearest-neighbor matches")
    p.add_argument("--max-desc-dist", type=float, default=0.9,
                   help="descriptor cosine-distance cutoff for matches")
    p.add_argument("--ratio", type=float, default=None,
                   help="Lowe-style nearest/second-nearest ratio cutoff (off by default)")
    p.add_argument("--topk", type=int, default=5, help="ranks to report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patreid",
        description="Pattern-based animal re-identification engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--individuals", type=int, required=True)
    p.add_argument("--views", type=int, required=True)
    p.add_argument("--points", type=int, default=80)
    p.add_argument("--descriptor-dim", type=int, default=128)
    p.add_argument("--noise", type=float, default=0.05,
                   help="descriptor Gaussian noise sigma")
    p.add_argument("--dropout", type=float, default=0.2,
                   help="per-point dropout probability in query views")
    p.add_argument("--clutter", type=float, default=0.2,
                   help="clutter points as a fraction of true points")
    p.add_argument("--max-perspective", type=float, default=0.15,
                   help="bound on homography distortion")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-vocab", help="train the appearance vocabulary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True,
                   help="model file to write: the vocabulary and the database index")
    p.add_argument("--gmm-k", type=int, default=16)
    p.add_argument("--pca-dim", type=int, default=64)
    p.add_argument("--kpca-dim", type=int, default=0,
                   help="kernel-PCA dimension (0 = min(N_db - 1, 512))")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="power-normalization exponent")
    p.add_argument("--whiten", action=argparse.BooleanOptionalAction, default=True,
                   help="whiten PCA projections")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("query", help="rank database individuals for one image")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True, help="query PATF file")
    p.add_argument("--rule", choices=sorted(RULE_TOKENS), default="exp")
    _add_combine_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", help="run all rules under a protocol")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--protocol", choices=("split", "loo"), default="split")
    p.add_argument("--per-query-csv", default=None)
    _add_combine_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PatfError, ManifestError, VocabError, GeometryError, ReidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
