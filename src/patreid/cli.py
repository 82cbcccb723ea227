"""Command-line entry point.

Subcommands: synth, build-vocab, query, evaluate.  Every run is a
pure function of its flags plus input files; re-running never mutates
inputs.  Exit codes: 0 success, 1 I/O or numeric failure, 2 usage or
validation error (bad flags, missing artifacts, insufficient data).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

from .encode import TrainingParams, embed_image, train_vocabulary
from .geometry import GeometryError, GeometryParams
from .ingest import (
    ManifestError,
    PatfError,
    load_entry_features,
    load_manifest,
    parse_feature_file,
)
from .reid import (
    CombineParams,
    Images,
    ReidError,
    evaluate,
    hit_rates,
    load_images,
    rank_queries,
    write_per_query_csv,
)
from .vocab import ModelFile, VocabError, load_vocabulary, save_vocabulary

RULE_TOKENS = {
    "app": "appearance_only",
    "geom": "geometry_only",
    "poly": "polynomial",
    "exp": "exponential",
}


class UsageError(Exception):
    """Bad arguments, missing artifacts, or insufficient data (exit 2)."""


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _flagged(exc: ValueError, flags) -> str:
    """exc's message with its leading field name, if flags has it, rewritten
    to the flag that sets that field."""
    field, _, rest = str(exc).partition(" ")
    return f"{flags.get(field, field)} {rest}"


def _params(config, args):
    """config built from the fields its subcommand's flags set; the ValueError
    of a bad one, which starts with the field's name, names its flag instead."""
    values = {f.name: getattr(args, f.name) for f in fields(config) if f.name in args.flags}
    try:
        return config(**values)
    except ValueError as exc:
        raise UsageError(_flagged(exc, args.flags)) from None


def _topk(args) -> int:
    if args.topk < 1:
        raise UsageError(f"--topk must be >= 1, got {args.topk}")
    return args.topk


def cmd_synth(args) -> int:
    from .synth import SynthConfig, SynthError, generate_benchmark

    try:
        generate_benchmark(_params(SynthConfig, args), args.out)
    except SynthError as exc:
        raise UsageError(_flagged(exc, args.flags)) from None
    print(Path(args.out) / "manifest.csv")
    return 0


def cmd_build_vocab(args) -> int:
    params = _params(TrainingParams, args)
    if not Path(args.out).parent.is_dir():
        raise UsageError(f"--out directory not found: {Path(args.out).parent}")
    manifest = load_manifest(_require_file(args.manifest, "manifest"))
    db_entries = manifest.with_role("database")
    if not db_entries:
        raise UsageError("no database entries in manifest")
    # The model file is renamed over --out: that directory entry must not be
    # an input's.  A symlink there is replaced, not written through.
    out = Path(args.out).parent.resolve() / Path(args.out).name
    inputs = [(args.manifest, "the manifest")] + [
        (manifest.entry_path(e), f"the feature file of {e.image_id!r}") for e in manifest.entries
    ]
    for path, what in inputs:
        if Path(path).resolve() == out:
            raise UsageError(f"--out {args.out} is {what}, which the model file would replace")
    # Each file's features go into the model file as they are parsed, and
    # training reads them back from there: none stays in memory.
    with ModelFile(args.out) as model:
        for entry in db_entries:
            model.append(load_entry_features(manifest, entry))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                vocabulary = train_vocabulary(model, params)
        except VocabError as exc:
            raise UsageError(f"cannot train the vocabulary: {_flagged(exc, args.flags)}") from None
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        save_vocabulary(vocabulary, model)
    print(args.out)
    return 0


def cmd_query(args) -> int:
    params = _params(CombineParams, args)
    geometry_params = _params(GeometryParams, args)
    topk = _topk(args)
    manifest = load_manifest(_require_file(args.manifest, "manifest"))
    with load_vocabulary(_require_file(args.vocab, "vocabulary")) as vocabulary:
        query_features = parse_feature_file(_require_file(args.features, "feature file"))
        db_entries = manifest.with_role("database")
        if not db_entries:
            raise UsageError("no database entries in manifest")
        db = load_images(manifest, db_entries, vocabulary)
        embedding = embed_image(query_features, vocabulary)
        query = Images([query_features.image_id], [None], embedding[None], lambda _: query_features)
        rule = RULE_TOKENS[args.rule]
        ranking = rank_queries(db, query, [rule], params, geometry_params)[rule]

    rows, d_l, n, omega, d_c = (a[0].tolist() for a in ranking)  # its one query
    best = {}  # each individual's first ranked row, in rank order
    for k, row in enumerate(rows):
        best.setdefault(db.individual_ids[row], k)
    lines = [f"{'rank':>4}  {'individual':<16} {'db_image':<20} "
             f"{'d_L':>10} {'n':>5} {'omega':>8} {'d_C':>12}"]
    for rank, (individual, k) in enumerate(list(best.items())[:topk], start=1):
        lines.append(
            f"{rank:>4}  {individual:<16} {db.image_ids[rows[k]]:<20} "
            f"{d_l[k]:>10.6f} {n[k]:>5} {omega[k]:>8.4f} {d_c[k]:>12.6g}"
        )
    print("\n".join(lines))
    return 0


def cmd_evaluate(args) -> int:
    params = _params(CombineParams, args)
    geometry_params = _params(GeometryParams, args)
    topk = _topk(args)
    csv = args.per_query_csv
    manifest = load_manifest(_require_file(args.manifest, "manifest"))
    if csv and os.path.exists(csv):  # written through links, so an input's file is refused
        inputs = [("--manifest file", args.manifest), ("--vocab file", args.vocab)] + [
            (f"feature file of {e.image_id!r}", manifest.entry_path(e)) for e in manifest.entries
        ]
        for what, path in inputs:
            if os.path.exists(path) and os.path.samefile(csv, path):
                raise UsageError(f"--per-query-csv {csv} is the {what}, which it would overwrite")
    protocol = "split" if args.protocol == "split" else "leave_one_out"
    with load_vocabulary(_require_file(args.vocab, "vocabulary")) as vocabulary:
        evaluation = evaluate(manifest, vocabulary, params, protocol, geometry_params)
    if args.per_query_csv:  # written first, so a failed write prints no table
        write_per_query_csv(evaluation, topk, args.per_query_csv)

    header = "".join(f"  top-{k:<4}" for k in range(1, topk + 1))
    print(f"{'rule':<16}{header}")
    for rule, (ranks, _) in evaluation.results.items():
        cells = "".join(f"  {acc:<8.4f}" for acc in hit_rates(ranks, topk))
        print(f"{rule:<16}{cells}")
    print(f"queries: {len(evaluation.truths)}   excluded: {len(evaluation.excluded)}")
    for image_id, reason in evaluation.excluded:
        print(f"  excluded {image_id}: {reason}")

    if args.per_query_csv:
        print(args.per_query_csv)
    return 0


def _add_setting(p: argparse.ArgumentParser, config, flag: str, field: str = "", **kw) -> None:
    """Add flag to p as the flag that sets config's field, by default the one
    named after the flag.  Its default is the field's, where the field has one
    (a dataclass keeps it as the class attribute), and its metavar is named
    after the flag, as argparse would name it.
    """
    name = flag.lstrip("-").replace("-", "_")
    field = field or name
    default = getattr(config, field, MISSING)
    if default is not MISSING:
        kw["default"] = default
    if "action" not in kw:
        kw["metavar"] = name.upper()
    p.add_argument(flag, dest=field, **kw)
    p.get_default("flags")[field] = flag


def _add_combine_flags(p: argparse.ArgumentParser) -> None:
    _add_setting(p, CombineParams, "--a", type=float, help="polynomial rule exponent")
    _add_setting(p, GeometryParams, "--inlier-thresh", "inlier_threshold", type=float,
                 help="verification inlier threshold in normalized coordinates")
    _add_setting(p, CombineParams, "--shortlist", "shortlist_size", type=int,
                 help="entries geometrically verified per query (0 = all)")
    _add_setting(p, GeometryParams, "--mutual", action=argparse.BooleanOptionalAction,
                 help="require mutual nearest-neighbor matches")
    _add_setting(p, GeometryParams, "--max-desc-dist", "max_distance", type=float,
                 help="descriptor cosine-distance cutoff for matches")
    _add_setting(p, GeometryParams, "--ratio", type=float,
                 help="Lowe-style nearest/second-nearest ratio cutoff (off by default)")
    p.add_argument("--topk", type=int, default=5, help="ranks to report")


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    from .synth import SynthConfig  # only synth loads synth (and hashlib)

    _add_setting(p, SynthConfig, "--seed", type=int, default=0)
    _add_setting(p, SynthConfig, "--individuals", "n_individuals", type=int, required=True)
    _add_setting(p, SynthConfig, "--views", "views_per_individual", type=int, required=True)
    _add_setting(p, SynthConfig, "--points", "points_per_individual", type=int)
    _add_setting(p, SynthConfig, "--descriptor-dim", type=int)
    _add_setting(p, SynthConfig, "--noise", "descriptor_noise_sigma", type=float,
                 help="descriptor Gaussian noise sigma")
    _add_setting(p, SynthConfig, "--dropout", "dropout_rate", type=float,
                 help="per-point dropout probability in query views")
    _add_setting(p, SynthConfig, "--clutter", "clutter_rate", type=float,
                 help="clutter points as a fraction of true points")
    _add_setting(p, SynthConfig, "--max-perspective", type=float,
                 help="bound on homography distortion")
    p.add_argument("--out", required=True, help="output directory")


def _build_vocab_arguments(p: argparse.ArgumentParser) -> None:
    _add_setting(p, TrainingParams, "--seed", type=int)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True,
                   help="model file to write: the vocabulary and the database index")
    _add_setting(p, TrainingParams, "--gmm-k", type=int)
    _add_setting(p, TrainingParams, "--pca-dim", type=int)
    _add_setting(p, TrainingParams, "--kpca-dim", type=int,
                 help="kernel-PCA dimension (0 = min(N_db - 1, 512))")
    _add_setting(p, TrainingParams, "--alpha", type=float, help="power-normalization exponent")
    _add_setting(p, TrainingParams, "--whiten", action=argparse.BooleanOptionalAction,
                 help="whiten PCA projections")


def _query_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True, help="query PATF file")
    p.add_argument("--rule", choices=sorted(RULE_TOKENS), default="exp")
    _add_combine_flags(p)


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--protocol", choices=("split", "loo"), default="split")
    p.add_argument("--per-query-csv", default=None)
    _add_combine_flags(p)


# name: (help line, function run, what adds its arguments), in usage order.
SUBCOMMANDS = {
    "synth": ("generate a synthetic benchmark", cmd_synth, _synth_arguments),
    "build-vocab": ("train the appearance vocabulary", cmd_build_vocab, _build_vocab_arguments),
    "query": ("rank database individuals for one image", cmd_query, _query_arguments),
    "evaluate": ("run all rules under a protocol", cmd_evaluate, _evaluate_arguments),
}


def build_parser(commands=SUBCOMMANDS) -> argparse.ArgumentParser:
    """The parser of the named subcommands, by default all of them.  Its usage
    line, which errors such as unrecognized arguments print, lists all four."""
    parser = argparse.ArgumentParser(
        prog="patreid",
        description="Pattern-based animal re-identification engine.",
    )
    # Built whole, argparse writes this text itself, and its errors about the
    # choice name the argument "command", which a set metavar would replace.
    listed = None if len(commands) == len(SUBCOMMANDS) else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name in commands:
        help, func, add_arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, flags={})  # flags: field -> its flag, for _params
        add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call runs one subcommand, so only its parser is built; without one
    # (no arguments, --help, an unknown name) every subcommand is.
    commands = argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    args = build_parser(commands).parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ReidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PatfError, ManifestError, VocabError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
