"""Final ranking: combine appearance and geometric similarity, evaluate.

Database search runs in two stages: a fast cosine scan over embeddings, then
geometric verification of a shortlist whose inlier statistics modulate the
distance (polynomial or exponential rule).  The rules re-rank the same
pairs, so one search embeds each image once, verifies each shortlisted pair
once and sorts per rule.  Evaluation reports top-k accuracy over distinct
individuals under a database/query split or a leave-one-out protocol.
"""

from __future__ import annotations

import functools
import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .encode import cosine_distance, embed_image
from .geometry import GeometryParams
from .ingest import ImageFeatures, Manifest, ManifestEntry, load_entry_features
from .vocab import Vocabulary

RULES = ("appearance_only", "geometry_only", "polynomial", "exponential")
GEOMETRY_RULES = ("geometry_only", "polynomial", "exponential")


class ReidError(ValueError):
    """Invalid search/evaluation configuration or data."""


@dataclass
class CombineParams:
    rule: str = "exponential"
    a: float = 2.0
    shortlist_size: int = 50

    def validate(self) -> None:
        """Raise ReidError naming the offending field."""
        if self.rule not in RULES:
            raise ReidError(f"rule must be one of {RULES}, got {self.rule!r}")
        if not 0 <= self.a < np.inf:
            raise ReidError(f"a must be finite and >= 0, got {self.a}")
        if self.shortlist_size < 0:
            raise ReidError(f"shortlist_size must be >= 0, got {self.shortlist_size}")


class Candidates(NamedTuple):
    """A query's database images in rank order: item k of each field belongs
    to the k-th image.  An unverified pair has n = 0, omega = 0, d_C = d_L."""

    image_ids: List[str]
    individual_ids: List[str]
    d_L: np.ndarray
    n: np.ndarray
    omega: np.ndarray
    d_C: np.ndarray
    verified: np.ndarray


@dataclass
class RankedResult:
    query_image_id: str
    candidates: Candidates
    individuals: List[str]


class Images(NamedTuple):
    """Labelled images: row i is image image_ids[i] of individual_ids[i],
    embeddings[i] is its (m,) embedding, unit norm or zero for a degenerate
    image, and features(i) returns its ImageFeatures (see load_images for
    when they are read)."""

    image_ids: List[str]
    individual_ids: List[Optional[str]]
    embeddings: np.ndarray
    features: Callable[[int], ImageFeatures]

    @classmethod
    def of(cls, features: Sequence[ImageFeatures], embeddings: np.ndarray) -> Images:
        """Images of labelled features already in memory."""
        features = list(features)
        return cls(
            [f.image_id for f in features],
            [f.individual_id for f in features],
            embeddings,
            features.__getitem__,
        )


@dataclass
class PerQueryRecord:
    query_image_id: str
    truth: str
    rank_of_truth: int
    d_L: float
    n: int
    omega: float
    d_C: float


@dataclass
class EvalReport:
    protocol: str
    accuracies: List[float]
    records: List[PerQueryRecord]
    excluded: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return len(self.records)


def combine_polynomial(d_l: float, omega: float, a: float) -> float:
    """d_C = d_L (1 - omega)^a: inlier ratio polynomially discounts distance."""
    return d_l * (1.0 - omega) ** a


def combine_exponential(d_l: float, n: int, epsilon: float = 1e-9) -> float:
    """d_C = clamp(d_L, epsilon, 1)^n: inlier count exponentiates distance.

    n = 0 yields exactly 1; the clamp keeps the base inside (0, 1] where the
    rule's assumption d_L <= 1 holds.
    """
    return min(max(d_l, epsilon), 1.0) ** n


def _combine(params: CombineParams, d_l: float, n: int, omega: float) -> float:
    if params.rule == "appearance_only":
        return d_l
    if params.rule == "geometry_only":
        return float(-n)
    if params.rule == "polynomial":
        return combine_polynomial(d_l, omega, params.a)
    return combine_exponential(d_l, n)


def load_images(
    manifest: Manifest,
    entries: Sequence[ManifestEntry],
    vocabulary: Vocabulary,
    forked: bool = False,
) -> Images:
    """Manifest rows' labelled images, each taken from the vocabulary's index
    when the index has a row of its image_id.

    The index is a snapshot of the database as build-vocab saw it, so an
    indexed row's PATF file is never opened: after editing one, rerun
    build-vocab.  An indexed row's features are read on the first features(i)
    call for it, so a search reads only the rows it verifies, each once.  A
    row the index lacks is parsed and embedded here, as a query is: in
    fork_map slices when forked, else in this process.
    """
    index = vocabulary.index
    rows = {image_id: k for k, image_id in enumerate(index.image_ids)}
    missing = [e for e in entries if e.image_id not in rows]

    def parse(part: slice) -> List[Tuple[ImageFeatures, np.ndarray]]:
        # Each file is embedded before the next is parsed: the first error wins.
        loaded = (load_entry_features(manifest, e) for e in missing[part])
        return [(features, embed_image(features, vocabulary)) for features in loaded]

    slices = fork_map(len(missing), parse, what="images") if forked else [parse(slice(None))]
    parsed = iter([image for part in slices for image in part])
    read_row = functools.cache(vocabulary.read_row)
    sources, embeddings = [], []  # per entry: its index row, or its parsed features
    for entry in entries:
        k = rows.get(entry.image_id)
        source, embedding = next(parsed) if k is None else (k, index.embeddings[k])
        sources.append(source)
        embeddings.append(embedding)
    return Images(
        [e.image_id for e in entries],
        [e.individual_id for e in entries],
        np.reshape(embeddings, (len(entries), vocabulary.kpca.out_dim)),
        lambda i: read_row(sources[i]) if isinstance(sources[i], int) else sources[i],
    )


def _shortlist_size(params: CombineParams, rows: int) -> int:
    """How many of a query's first stage-1 rows params' rule verifies."""
    if params.rule not in GEOMETRY_RULES:
        return 0
    if params.shortlist_size == 0:
        return rows
    return min(params.shortlist_size, rows)


def rank_queries(
    db: Images,
    queries: Images,
    rule_params: Sequence[CombineParams],
    geometry_params: GeometryParams = GeometryParams(),
    self_rows: Optional[Sequence[int]] = None,
) -> Dict[str, List[RankedResult]]:
    """Every query's ranking of the database under every rule, in one pass.

    Stage 1 orders a query's database images by (d_L, image_id), and a
    geometry rule verifies the first shortlist_size of them (all when 0).
    Each (query, image) pair is verified at most once, whichever rules
    shortlist it, in one geometry.verify_shortlist call per query.  A
    rule's final order is ascending (not verified, d_C, d_L, image_id), so
    entries outside its shortlist keep d_C = d_L and rank after every
    verified entry.  self_rows[q], when given, is the database row of query
    q itself, which its ranking leaves out.  Only the verified pairs'
    features are asked for, in stage-1 order.
    """
    for params in rule_params:
        params.validate()
    ids = db.image_ids
    if not ids:
        raise ReidError("database is empty")
    for image_id, individual_id in zip(ids, db.individual_ids):
        if not individual_id:
            raise ReidError(f"database image {image_id!r} has no individual_id")
    if len(set(ids)) != len(ids):
        duplicate = next(i for i in ids if ids.count(i) > 1)
        raise ReidError(f"duplicate database image_id {duplicate!r}")
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    distances = cosine_distance(queries.embeddings[:, None], db.embeddings[None])

    results: Dict[str, List[RankedResult]] = {params.rule: [] for params in rule_params}
    for q in range(len(queries.image_ids)):
        rows = np.arange(len(ids))
        if self_rows is not None:
            rows = np.delete(rows, self_rows[q])
        d_l = distances[q, rows]
        stage1 = np.lexsort((id_rank[rows], d_l))
        rows, d_l = rows[stage1], d_l[stage1]

        shortlists = [_shortlist_size(params, len(rows)) for params in rule_params]
        shortlist = rows[: max(shortlists, default=0)]
        verdicts = geometry.verify_shortlist(
            queries.features(q), [db.features(j) for j in shortlist], geometry_params
        ) if len(shortlist) else []
        for params, k in zip(rule_params, shortlists):
            n, omega, d_c = np.zeros(len(rows), dtype=int), np.zeros(len(rows)), d_l.copy()
            for i, v in enumerate(verdicts[:k]):
                n[i], omega[i] = v.n, v.omega
                d_c[i] = _combine(params, float(d_l[i]), v.n, v.omega)
            is_verified = np.arange(len(rows)) < k
            order = np.lexsort((id_rank[rows], d_l, d_c, ~is_verified))
            ranked = rows[order]
            individual_ids = [db.individual_ids[j] for j in ranked]
            candidates = Candidates(
                image_ids=[ids[j] for j in ranked],
                individual_ids=individual_ids,
                d_L=d_l[order],
                n=n[order],
                omega=omega[order],
                d_C=d_c[order],
                verified=is_verified[order],
            )
            results[params.rule].append(
                RankedResult(
                    queries.image_ids[q], candidates, list(dict.fromkeys(individual_ids))
                )
            )
    return results


def query_database(
    db: Images,
    vocabulary: Vocabulary,
    query_features: ImageFeatures,
    params: CombineParams,
    geometry_params: GeometryParams = GeometryParams(),
) -> RankedResult:
    """One query image's ranking under one rule: rank_queries with Q = 1."""
    query = Images.of([query_features], embed_image(query_features, vocabulary)[None])
    return rank_queries(db, query, [params], geometry_params)[params.rule][0]


def topk_accuracy(
    results: Sequence[RankedResult], truths: Dict[str, str], k: int
) -> float:
    """Fraction of queries whose truth is among the first k distinct individuals."""
    if not results:
        raise ReidError("no results to score")
    hits = 0
    for r in results:
        if r.query_image_id not in truths:
            raise ReidError(f"missing truth label for query {r.query_image_id!r}")
        if truths[r.query_image_id] in r.individuals[:k]:
            hits += 1
    return hits / len(results)


def _report(
    protocol: str,
    results: List[RankedResult],
    truths: Dict[str, str],
    excluded: List[Tuple[str, str]],
    k_max: int,
) -> EvalReport:
    records = []
    for r in results:
        truth = truths[r.query_image_id]
        rank = r.individuals.index(truth) + 1 if truth in r.individuals else 0
        top = r.candidates
        records.append(
            PerQueryRecord(
                query_image_id=r.query_image_id,
                truth=truth,
                rank_of_truth=rank,
                d_L=float(top.d_L[0]),
                n=int(top.n[0]),
                omega=float(top.omega[0]),
                d_C=float(top.d_C[0]),
            )
        )
    accuracies = [topk_accuracy(results, truths, k) for k in range(1, k_max + 1)]
    return EvalReport(
        protocol=protocol, accuracies=accuracies, records=records, excluded=excluded
    )


def _split_search(manifest: Manifest, vocabulary: Vocabulary):
    """Database/query split: the database roles against the query roles.

    Queries with no label, or whose individual is absent from the database,
    are excluded and reported rather than counted as misses.
    """
    db_entries = manifest.with_role("database")
    query_entries = manifest.with_role("query")
    if not db_entries:
        raise ReidError("manifest has no database entries")
    if not query_entries:
        raise ReidError("manifest has no query entries")
    db = load_images(manifest, db_entries, vocabulary, forked=True)
    known = set(db.individual_ids)

    kept = []
    excluded = []
    for entry in query_entries:
        if entry.individual_id is None:
            excluded.append((entry.image_id, "unlabeled"))
        elif entry.individual_id not in known:
            excluded.append((entry.image_id, "no_database_match"))
        else:
            kept.append(entry)
    if not kept:
        raise ReidError("all split queries were excluded")
    truths = {e.image_id: e.individual_id for e in kept}
    return db, lambda part: load_images(manifest, kept[part], vocabulary), truths, excluded, None


def _loo_identity_unit(entries) -> bool:
    """Viewpoint-qualified identities when every labeled entry has a viewpoint."""
    labeled = [e for e in entries if e.individual_id is not None]
    return bool(labeled) and all(e.viewpoint is not None for e in labeled)


def _leave_one_out_search(manifest: Manifest, vocabulary: Vocabulary):
    """Leave-one-out: each image queried against all other images.

    All roles are pooled.  The identity unit is individual_id, qualified by
    viewpoint when every labeled image carries one.  Unlabeled images and
    identity singletons are excluded and reported.
    """
    entries = list(manifest.entries)
    if len(entries) < 2:
        raise ReidError("leave-one-out needs at least 2 images")
    use_viewpoint = _loo_identity_unit(entries)

    labeled = []
    excluded = []
    for e in entries:
        if e.individual_id is None:
            excluded.append((e.image_id, "unlabeled"))
            continue
        unit = f"{e.individual_id}|{e.viewpoint}" if use_viewpoint else e.individual_id
        labeled.append(replace(e, individual_id=unit))

    unit_counts: Dict[str, int] = {}
    for e in labeled:
        unit_counts[e.individual_id] = unit_counts.get(e.individual_id, 0) + 1

    db = load_images(manifest, labeled, vocabulary, forked=True)
    truths = {}
    self_rows = []
    for row, e in enumerate(labeled):
        if unit_counts[e.individual_id] < 2:
            excluded.append((e.image_id, "singleton_identity"))
            continue
        truths[e.image_id] = e.individual_id
        self_rows.append(row)
    if not self_rows:
        raise ReidError("all leave-one-out queries were excluded")

    def queries(part: slice) -> Images:
        rows = self_rows[part]
        ids, individuals = [db.image_ids[r] for r in rows], [db.individual_ids[r] for r in rows]
        return Images(ids, individuals, db.embeddings[rows], lambda q: db.features(rows[q]))

    return db, queries, truths, excluded, self_rows


# A protocol gives (database, queries(part) loading the slice part of its
# queries, truths by query id in query order, excluded, self_rows or None).
_PROTOCOLS = {"split": _split_search, "leave_one_out": _leave_one_out_search}


def fork_map(n: int, *steps: Callable, what: str) -> list:
    """Run steps over range(n) in contiguous slices, one per CPU this process
    may use, and return the last step's output of each slice, in slice order.

    Slice 0 runs here and each other slice in a forked child that pickles its
    outcome back over a pipe.  A slice runs steps[0](part), then each next
    step on (part, the previous step's output); no step may call fork_map.
    Every child is reaped before this returns or raises the error of the
    earliest step, then slice: the one a single process that ran each step
    over all n items would raise.  A child that ends without a result is an
    OSError naming its slice of what.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(n, cpus))
    parts = [slice(n * w // workers, n * (w + 1) // workers) for w in range(workers)]

    def run(part: slice):
        # (len(steps), output), or (index of the failed step, its error).
        output = None
        for k, step in enumerate(steps):
            try:
                output = step(part) if k == 0 else step(part, output)
            except Exception as exc:
                return k, exc
        return len(steps), output

    children = []  # (pid, read end of its pipe)
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns, flushes nothing, runs no atexit
                try:
                    for fd in [r] + [fd for _, fd in children]:
                        os.close(fd)
                    with open(w, "wb") as out:
                        out.write(pickle.dumps(run(part)))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        outcomes = [run(parts[0])]
        for (_, r), part in zip(children, parts[1:]):
            try:
                with open(r, "rb", closefd=False) as fh:
                    outcomes.append(pickle.load(fh))
            except (EOFError, pickle.UnpicklingError):
                message = f"{what} {part.start + 1}-{part.stop}: worker ended without a result"
                outcomes.append((0, OSError(message)))
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    step, value = min(outcomes, key=lambda outcome: outcome[0])
    if step < len(steps):
        raise value
    return [output for _, output in outcomes]


def evaluate(
    manifest: Manifest,
    vocabulary: Vocabulary,
    rule_params: Sequence[CombineParams],
    protocol: str = "split",
    k_max: int = 5,
    geometry_params: GeometryParams = GeometryParams(),
) -> Dict[str, EvalReport]:
    """Each rule's report under protocol ("split" or "leave_one_out").

    Every image is read and embedded once (indexed rows from the model file,
    see load_images) and every rule ranks the same search, see rank_queries.
    Queries are loaded and ranked in fork_map slices, one per usable CPU.
    """
    db, load, truths, excluded, self_rows = _PROTOCOLS[protocol](manifest, vocabulary)

    def rank(part: slice, queries: Images) -> Dict[str, List[RankedResult]]:
        rows = None if self_rows is None else self_rows[part]
        return rank_queries(db, queries, rule_params, geometry_params, rows)

    slices = fork_map(len(truths), load, rank, what="queries")
    return {
        rule: _report(protocol, [r for ranked in slices for r in ranked[rule]], truths,
                      excluded, k_max)
        for rule in slices[0]
    }


def write_per_query_csv(reports: Dict[str, EvalReport], path) -> None:
    """Per-query rows for every rule, plus a trailing commented summary block.

    The output is a pure function of the reports, so identical evaluations
    produce byte-identical files.
    """
    path = Path(path)
    lines = ["rule,query_id,truth,rank_of_truth,d_L,n,omega,d_C"]
    for rule, report in reports.items():
        for r in report.records:
            lines.append(
                f"{rule},{r.query_image_id},{r.truth},{r.rank_of_truth},"
                f"{repr(float(r.d_L))},{r.n},{repr(float(r.omega))},{repr(float(r.d_C))}"
            )
    first = next(iter(reports.values()))
    lines.append(f"# protocol,{first.protocol}")
    lines.append(f"# queries,{first.n_queries}")
    for image_id, reason in first.excluded:
        lines.append(f"# excluded,{image_id},{reason}")
    for rule, report in reports.items():
        for k, acc in enumerate(report.accuracies, start=1):
            lines.append(f"# topk,{rule},{k},{repr(float(acc))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
