"""Final ranking: combine appearance and geometric similarity, evaluate.

Database search runs in two stages: a fast cosine scan over embeddings, then
geometric verification of a shortlist whose inlier statistics modulate the
distance (polynomial or exponential rule).  The rules re-rank the same
pairs, so one search embeds each image once, verifies each shortlisted pair
once and sorts per rule.  A search gives one Ranking per rule: (Q, N')
arrays of every query's database rows in rank order, with their d_L, n,
omega and d_C.  An Evaluation holds each query's rank of truth among
distinct individuals, taken from integer labels of those rows, under a
database/query split or a leave-one-out protocol; hit_rates turns ranks into
top-k accuracy.
"""

from __future__ import annotations

import csv
import functools
import os
import pickle
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .encode import cosine_distance, embed_image
from .geometry import GeometryParams
from .ingest import ImageFeatures, Manifest, ManifestEntry, load_entry_features
from .vocab import Vocabulary

RULES = ("appearance_only", "geometry_only", "polynomial", "exponential")
GEOMETRY_RULES = ("geometry_only", "polynomial", "exponential")
# The exponential rule's base never falls below this, so d_C stays above 0.
EXPONENTIAL_FLOOR = 1e-9


class ReidError(ValueError):
    """Invalid search/evaluation configuration or data."""


@dataclass(frozen=True)
class CombineParams:
    """The settings every rule shares; the caller names the rule."""

    a: float = 2.0
    shortlist_size: int = 50

    def __post_init__(self) -> None:
        """Raise ReidError naming the offending field."""
        if not 0 <= self.a < np.inf:
            raise ReidError(f"a must be finite and >= 0, got {self.a}")
        if self.shortlist_size < 0:
            raise ReidError(f"shortlist_size must be >= 0, got {self.shortlist_size}")


class Ranking(NamedTuple):
    """Each query's database rows in rank order: row q of every (Q, N') array
    is query q, and column k holds its k-th ranked database row, rows[q, k].
    A geometry rule verified exactly its first min(shortlist_size or N', N')
    columns, and appearance_only none; an unverified pair has n = 0,
    omega = 0, d_C = d_L."""

    rows: np.ndarray
    d_L: np.ndarray
    n: np.ndarray
    omega: np.ndarray
    d_C: np.ndarray


class Images(NamedTuple):
    """Labelled images: row i is image image_ids[i] of individual_ids[i],
    embeddings[i] is its (m,) embedding, unit norm or zero for a degenerate
    image, and features(i) returns its ImageFeatures (see load_images for
    when they are read)."""

    image_ids: List[str]
    individual_ids: List[Optional[str]]
    embeddings: np.ndarray
    features: Callable[[int], ImageFeatures]


class Evaluation(NamedTuple):
    """Every rule's evaluation of one search under protocol.  Query q is the
    q-th key of truths, which maps each query image id to its individual;
    excluded lists (image id, reason) of the queries left out.  results[rule]
    is (ranks, top), in RULES order: ranks[q] is the truth's rank among
    distinct individuals (0: absent), and top holds query q's first-ranked
    row, as a Ranking of (Q, 1) arrays."""

    protocol: str
    truths: Dict[str, str]
    excluded: List[Tuple[str, str]]
    results: Dict[str, Tuple[np.ndarray, Ranking]]


def combine_polynomial(d_l, omega, a):
    """d_C = d_L (1 - omega)^a: inlier ratio polynomially discounts distance."""
    return d_l * np.float_power(1.0 - omega, a)


def combine_exponential(d_l, n):
    """d_C = clamp(d_L, EXPONENTIAL_FLOOR, 1)^n: inlier count exponentiates
    distance.

    n = 0 yields exactly 1; the clamp keeps the base inside (0, 1] where the
    rule's assumption d_L <= 1 holds.
    """
    return np.float_power(np.clip(d_l, EXPONENTIAL_FLOOR, 1.0), n)


def _combine(rule: str, a: float, d_l, n, omega):
    # Floats or arrays: np.float_power rounds as float ** does; np.power does not.
    if rule == "appearance_only":
        return d_l
    if rule == "geometry_only":
        return np.float64(-n)
    if rule == "polynomial":
        return combine_polynomial(d_l, omega, a)
    return combine_exponential(d_l, n)


def load_images(
    manifest: Manifest, entries: Sequence[ManifestEntry], vocabulary: Vocabulary
) -> Images:
    """Manifest rows' labelled images, each taken from the vocabulary's index
    when the index has a row of its image_id.

    The index is a snapshot of the database as build-vocab saw it, so an
    indexed row's PATF file is never opened: after editing one, rerun
    build-vocab.  An indexed row's features are read on the first features(i)
    call for it, so a search reads only the rows it verifies, each once.  The
    rows the index lacks are parsed and embedded here, in this process and in
    manifest order, as a query is.
    """
    index = vocabulary.index
    rows = {image_id: k for k, image_id in enumerate(index.image_ids)}
    at = np.array([rows.get(e.image_id, -1) for e in entries], dtype=np.intp)  # -1: not indexed
    indexed = at >= 0
    embeddings = np.empty((len(entries), vocabulary.kpca.out_dim))
    embeddings[indexed] = index.embeddings[at[indexed]]
    parsed = {}
    for i in np.flatnonzero(~indexed).tolist():
        # Each file is embedded before the next is parsed: the first error wins.
        parsed[i] = load_entry_features(manifest, entries[i])
        embeddings[i] = embed_image(parsed[i], vocabulary)
    read_row = functools.cache(vocabulary.read_row)
    return Images(
        [e.image_id for e in entries],
        [e.individual_id for e in entries],
        embeddings,
        lambda i: parsed[i] if at[i] < 0 else read_row(int(at[i])),
    )


def rank_queries(
    db: Images,
    queries: Images,
    rules: Sequence[str],
    params: CombineParams = CombineParams(),
    geometry_params: GeometryParams = GeometryParams(),
    self_rows: Optional[Sequence[int]] = None,
) -> Dict[str, Ranking]:
    """Every query's ranking of the database under every rule, in one pass.

    Stage 1 orders each query's database rows by (d_L, image_id).  When rules
    has a geometry rule, the first shortlist_size of them (all when 0) are
    verified in one geometry.verify_shortlist call per query, which every
    geometry rule shares.  A rule's d_C is one array call of its rule
    function, and its final order is ascending (not verified, d_C, d_L,
    image_id), so rows outside its shortlist keep d_C = d_L and rank after
    every verified row.  self_rows[q], when given, is the database row of
    query q itself, which its ranking leaves out, so N' is N - 1 rather than
    N.  Only the verified pairs' features are asked for, in stage-1 order.
    """
    for rule in rules:
        if rule not in RULES:
            raise ReidError(f"rule must be one of {RULES}, got {rule!r}")
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

    # A query's own row sorts last on a leading key, and is dropped.
    n_queries, size = distances.shape
    own = np.zeros(distances.shape, dtype=bool)
    if self_rows is not None:
        own[np.arange(n_queries), self_rows] = True
        size -= 1
    rows = np.lexsort((np.broadcast_to(id_rank, own.shape), distances, own), axis=-1)[:, :size]
    d_l = np.take_along_axis(distances, rows, -1)

    verifies = any(rule in GEOMETRY_RULES for rule in rules)
    k = min(params.shortlist_size or size, size) if verifies else 0
    n, omega = np.zeros(rows.shape, dtype=int), np.zeros(rows.shape)
    for q in range(n_queries if k else 0):
        verdicts = geometry.verify_shortlist(
            queries.features(q), [db.features(j) for j in rows[q, :k]], geometry_params
        )
        n[q, :k], omega[q, :k] = [v.n for v in verdicts], [v.omega for v in verdicts]

    rankings = {}
    for rule in rules:
        # Outside a geometry rule's first k columns, n and omega are 0.
        k_rule = k if rule in GEOMETRY_RULES else 0
        verified = np.broadcast_to(np.arange(size) < k_rule, rows.shape)
        d_c = np.where(verified, _combine(rule, params.a, d_l, n, omega), d_l)
        # The columns are in stage-1 (d_L, image_id) order and lexsort is
        # stable, so those two keys break the ties of (unverified, d_C).
        order = np.lexsort((d_c, ~verified), axis=-1)
        columns = (rows, d_l, n * verified, omega * verified, d_c)
        rankings[rule] = Ranking(*(np.take_along_axis(a, order, -1) for a in columns))
    return rankings


def ranks_of_truth(labels: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Each query's rank of its truth among the distinct individuals of its
    ranking, from 1, or 0 where the truth is absent.

    labels[q, k] is the integer label (>= 0) of query q's k-th ranked row and
    truths[q] the label of query q's individual.  An individual ranks at its
    first row, so a truth's rank counts the labels whose first row precedes
    its own.
    """
    n_queries, size = labels.shape
    first = np.full((n_queries, max(labels.max(initial=0), truths.max(initial=0)) + 1), size)
    np.minimum.at(first, (np.arange(n_queries)[:, None], labels), np.arange(size))
    truth_first = first[np.arange(n_queries), truths]
    return np.where(truth_first < size, (first < truth_first[:, None]).sum(axis=1) + 1, 0)


def hit_rates(ranks: np.ndarray, topk: int) -> List[float]:
    """Top-k accuracy for k = 1 .. topk: the share of ranks in 1 .. k."""
    return [float(np.mean((0 < ranks) & (ranks <= k))) for k in range(1, topk + 1)]


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
    db = load_images(manifest, db_entries, vocabulary)
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
    viewpoint as "individual_id|viewpoint" (each with \\ and | escaped by a
    \\) when every labeled image carries one.  Unlabeled images and identity
    singletons are excluded and reported.
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
        unit = e.individual_id
        if use_viewpoint:  # \ and | escaped, so distinct pairs give distinct units
            unit = "|".join(p.replace("\\", r"\\").replace("|", r"\|") for p in (unit, e.viewpoint))
        labeled.append(replace(e, individual_id=unit))

    unit_counts = Counter(e.individual_id for e in labeled)

    db = load_images(manifest, labeled, vocabulary)
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


def fork_map(n: int, *steps: Callable) -> list:
    """Run steps over n queries in contiguous slices, one per CPU this process
    may use, and return the last step's output of each slice, in slice order;
    evaluate's (load, rank) slices are its one use.

    Slice 0 runs here and each other slice in a forked child that pickles its
    outcome back over a pipe.  A slice runs steps[0](part), then each next
    step on (part, the previous step's output); no step may call fork_map.
    Every child is reaped before this returns or raises the error of the
    earliest step, then slice: the one a single process that ran each step
    over all n queries would raise.  A child that ends without a result is an
    OSError naming its slice of the queries.
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
                message = f"queries {part.start + 1}-{part.stop}: worker ended without a result"
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
    params: CombineParams = CombineParams(),
    protocol: str = "split",
    geometry_params: GeometryParams = GeometryParams(),
) -> Evaluation:
    """Every rule's ranks of truth and first-ranked rows under protocol
    ("split" or "leave_one_out").

    Every image is read and embedded once (indexed rows from the model file,
    see load_images) and every rule ranks the same search, see rank_queries.
    The protocol's database is loaded in this process (under leave-one-out,
    the pooled images, so the query-role files are parsed here).  Then the
    queries are loaded and ranked in fork_map slices, one per usable CPU, and
    each slice sends back only its ranks of truth and first-ranked rows.
    """
    if protocol not in _PROTOCOLS:
        raise ReidError(f"protocol must be one of {tuple(_PROTOCOLS)}, got {protocol!r}")
    db, load, truths, excluded, self_rows = _PROTOCOLS[protocol](manifest, vocabulary)
    codes: Dict[str, int] = {}
    labels = np.array([codes.setdefault(i, len(codes)) for i in db.individual_ids])
    truth_labels = np.array([codes[truth] for truth in truths.values()])

    def rank(part: slice, queries: Images) -> Dict[str, Tuple[np.ndarray, Ranking]]:
        # Each rule's ranks of truth and first-ranked rows: all evaluate keeps.
        rows = None if self_rows is None else self_rows[part]
        rankings = rank_queries(db, queries, RULES, params, geometry_params, rows)
        return {
            rule: (ranks_of_truth(labels[r.rows], truth_labels[part]),
                   Ranking(*(a[:, :1] for a in r)))
            for rule, r in rankings.items()
        }

    slices = fork_map(len(truths), load, rank)
    results = {}
    for rule in RULES:
        ranks = np.concatenate([part[rule][0] for part in slices])
        top = Ranking(*map(np.concatenate, zip(*(part[rule][1] for part in slices))))
        results[rule] = ranks, top
    return Evaluation(protocol, truths, excluded, results)


def write_per_query_csv(evaluation: Evaluation, topk: int, path) -> None:
    """Per-query rows for every rule, plus a trailing commented summary block
    that ends in each rule's top-1 to top-topk accuracy.

    The output is a pure function of its arguments, so identical evaluations
    produce byte-identical files.  Fields are quoted only where csv needs it,
    so an id with a comma or quote reads back whole through csv.reader.
    """
    truths = evaluation.truths
    rows = [["rule", "query_id", "truth", "rank_of_truth", "d_L", "n", "omega", "d_C"]]
    for rule, (ranks, top) in evaluation.results.items():
        rows += [
            [rule, query_id, truth, rank, repr(d_l), n, repr(omega), repr(d_c)]
            for query_id, truth, rank, d_l, n, omega, d_c in zip(
                truths, truths.values(), ranks.tolist(),
                *(a[:, 0].tolist() for a in (top.d_L, top.n, top.omega, top.d_C)))
        ]
    rows.append(["# protocol", evaluation.protocol])
    rows.append(["# queries", len(truths)])
    rows += [["# excluded", image_id, reason] for image_id, reason in evaluation.excluded]
    for rule, (ranks, _) in evaluation.results.items():
        rows += [["# topk", rule, k, repr(acc)]
                 for k, acc in enumerate(hit_rates(ranks, topk), start=1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
