"""Final ranking: combine appearance and geometric similarity, evaluate.

Database search runs in two stages: a fast cosine scan over embeddings, then
geometric verification of a shortlist whose inlier statistics modulate the
distance (polynomial or exponential rule).  Evaluation reports top-k
accuracy over distinct individuals under a database/query split or a
leave-one-out protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .encode import cosine_distance, embed_image
from .geometry import GeometryParams
from .ingest import ImageFeatures, Manifest, load_entry_features
from .vocab import Embedding, Vocabulary

RULES = ("appearance_only", "geometry_only", "polynomial", "exponential")
GEOMETRY_RULES = ("geometry_only", "polynomial", "exponential")


class ReidError(ValueError):
    """Invalid search/evaluation configuration or data."""


@dataclass
class CombineParams:
    rule: str = "exponential"
    a: float = 2.0
    shortlist_size: int = 50
    epsilon: float = 1e-9

    def validate(self) -> None:
        """Raise ReidError naming the offending field."""
        if self.rule not in RULES:
            raise ReidError(f"rule must be one of {RULES}, got {self.rule!r}")
        if not 0 <= self.a < np.inf:
            raise ReidError(f"a must be finite and >= 0, got {self.a}")
        if self.shortlist_size < 0:
            raise ReidError(f"shortlist_size must be >= 0, got {self.shortlist_size}")


@dataclass
class MatchCandidate:
    db_image_id: str
    individual_id: str
    d_L: float
    n: int
    omega: float
    d_C: float
    verified: bool = False


@dataclass
class RankedResult:
    query_image_id: str
    candidates: List[MatchCandidate]
    individuals: List[str]


@dataclass
class DbEntry:
    image_id: str
    individual_id: str
    embedding: Embedding
    # None until verification first needs the features; loader parses them.
    features: Optional[ImageFeatures] = None
    loader: Optional[Callable[[], ImageFeatures]] = None

    def verified_features(self) -> ImageFeatures:
        """The entry's features, parsed by loader the first time they are needed."""
        if self.features is None:
            self.features = self.loader()
        return self.features


@dataclass
class ReidDatabase:
    vocabulary: Vocabulary
    entries: List[DbEntry]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.image_id in seen:
                raise ReidError(f"duplicate database image_id {e.image_id!r}")
            seen.add(e.image_id)
            if not e.individual_id:
                raise ReidError(f"database image {e.image_id!r} has no individual_id")


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
    return combine_exponential(d_l, n, params.epsilon)


def _pair_geometry(
    query_features: ImageFeatures,
    entry: DbEntry,
    geometry_params: GeometryParams,
    cache: Optional[Dict[Tuple[str, str], Tuple[int, float]]],
) -> Tuple[int, float]:
    """Inlier statistics for one pair, memoized across combination rules.

    geometry.geometric_similarity's verdict depends only on the two images
    and the geometry settings, never on the rule, so a shared cache returns
    bit-identical results.
    """
    key = (query_features.image_id, entry.image_id)
    if cache is not None and key in cache:
        return cache[key]
    verdict = geometry.geometric_similarity(
        query_features, entry.verified_features(), params=geometry_params
    )
    stats = (verdict.n, verdict.omega)
    if cache is not None:
        cache[key] = stats
    return stats


def build_database(
    vocabulary: Vocabulary, feature_sets: Sequence[ImageFeatures]
) -> ReidDatabase:
    """Embed labeled images into a searchable database."""
    entries = [
        DbEntry(
            image_id=features.image_id,
            individual_id=features.individual_id,
            embedding=embed_image(features, vocabulary),
            features=features,
        )
        for features in feature_sets
    ]
    return ReidDatabase(vocabulary=vocabulary, entries=entries)


def score_pair(
    query_features: ImageFeatures,
    d_l: float,
    entry: DbEntry,
    params: CombineParams,
    geometry_params: GeometryParams = GeometryParams(),
    geometry_cache: Optional[Dict[Tuple[str, str], Tuple[int, float]]] = None,
) -> MatchCandidate:
    """Full appearance + geometry score of one (query, database) pair.

    d_l is the pair's appearance distance, as stage 1 of query_database
    computed it.
    """
    use_geometry = params.rule in GEOMETRY_RULES
    n, omega = 0, 0.0
    if use_geometry:
        n, omega = _pair_geometry(
            query_features, entry, geometry_params, geometry_cache
        )
    return MatchCandidate(
        db_image_id=entry.image_id,
        individual_id=entry.individual_id,
        d_L=d_l,
        n=n,
        omega=omega,
        d_C=_combine(params, d_l, n, omega),
        verified=use_geometry,
    )


def query_database(
    db: ReidDatabase,
    query_features: ImageFeatures,
    params: CombineParams,
    geometry_params: GeometryParams = GeometryParams(),
    geometry_cache: Optional[Dict[Tuple[str, str], Tuple[int, float]]] = None,
) -> RankedResult:
    """Two-stage search: cosine ranking, then shortlist verification.

    Stage 1 orders all entries by d_L; stage 2 verifies the top
    shortlist_size entries (all of them when 0) and applies the combination
    rule.  Entries outside the shortlist keep d_C = d_L but rank strictly
    after every verified entry under geometry-using rules.  Final order is
    ascending (d_C, d_L, db_image_id).
    """
    params.validate()
    if not db.entries:
        raise ReidError("database is empty")
    query_embedding = embed_image(query_features, db.vocabulary)

    stage1 = [
        (cosine_distance(query_embedding, e.embedding), e.image_id, e)
        for e in db.entries
    ]
    stage1.sort(key=lambda t: (t[0], t[1]))

    use_geometry = params.rule in GEOMETRY_RULES
    if not use_geometry or params.shortlist_size == 0:
        cutoff = len(stage1)
    else:
        cutoff = min(params.shortlist_size, len(stage1))

    candidates = []
    for rank, (d_l, _, entry) in enumerate(stage1):
        if use_geometry and rank < cutoff:
            candidates.append(
                score_pair(
                    query_features,
                    d_l,
                    entry,
                    params,
                    geometry_params=geometry_params,
                    geometry_cache=geometry_cache,
                )
            )
        else:
            candidates.append(
                MatchCandidate(
                    db_image_id=entry.image_id,
                    individual_id=entry.individual_id,
                    d_L=d_l,
                    n=0,
                    omega=0.0,
                    d_C=d_l,
                    verified=False,
                )
            )
    if use_geometry:
        candidates.sort(key=lambda c: (not c.verified, c.d_C, c.d_L, c.db_image_id))
    else:
        candidates.sort(key=lambda c: (c.d_C, c.d_L, c.db_image_id))

    individuals = []
    seen = set()
    for c in candidates:
        if c.individual_id not in seen:
            seen.add(c.individual_id)
            individuals.append(c.individual_id)
    return RankedResult(
        query_image_id=query_features.image_id,
        candidates=candidates,
        individuals=individuals,
    )


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
        top = r.candidates[0]
        records.append(
            PerQueryRecord(
                query_image_id=r.query_image_id,
                truth=truth,
                rank_of_truth=rank,
                d_L=top.d_L,
                n=top.n,
                omega=top.omega,
                d_C=top.d_C,
            )
        )
    accuracies = [topk_accuracy(results, truths, k) for k in range(1, k_max + 1)]
    return EvalReport(
        protocol=protocol, accuracies=accuracies, records=records, excluded=excluded
    )


def _load_features(
    manifest: Manifest, entry, cache: Optional[Dict[str, ImageFeatures]]
) -> ImageFeatures:
    if cache is not None and entry.image_id in cache:
        return cache[entry.image_id]
    features = load_entry_features(manifest, entry)
    if cache is not None:
        cache[entry.image_id] = features
    return features


def evaluate_split(
    manifest: Manifest,
    vocabulary: Vocabulary,
    params: CombineParams,
    k_max: int = 5,
    geometry_params: GeometryParams = GeometryParams(),
    geometry_cache: Optional[Dict[Tuple[str, str], Tuple[int, float]]] = None,
    feature_cache: Optional[Dict[str, ImageFeatures]] = None,
) -> EvalReport:
    """Database/query-split protocol over a manifest.

    Queries with no label, or whose individual is absent from the database,
    are excluded and reported rather than counted as misses.  The optional
    caches only memoize work that is identical across combination rules.
    """
    db_entries = manifest.with_role("database")
    query_entries = manifest.with_role("query")
    if not db_entries:
        raise ReidError("manifest has no database entries")
    if not query_entries:
        raise ReidError("manifest has no query entries")
    db_features = [_load_features(manifest, e, feature_cache) for e in db_entries]
    db = build_database(vocabulary, db_features)
    known = {e.individual_id for e in db.entries}

    results = []
    truths = {}
    excluded = []
    for entry in query_entries:
        if entry.individual_id is None:
            excluded.append((entry.image_id, "unlabeled"))
            continue
        if entry.individual_id not in known:
            excluded.append((entry.image_id, "no_database_match"))
            continue
        features = _load_features(manifest, entry, feature_cache)
        truths[entry.image_id] = entry.individual_id
        results.append(
            query_database(
                db,
                features,
                params,
                geometry_params=geometry_params,
                geometry_cache=geometry_cache,
            )
        )
    if not results:
        raise ReidError("all split queries were excluded")
    return _report("split", results, truths, excluded, k_max)


def _loo_identity_unit(entries) -> bool:
    """Viewpoint-qualified identities when every labeled entry has a viewpoint."""
    labeled = [e for e in entries if e.individual_id is not None]
    return bool(labeled) and all(e.viewpoint is not None for e in labeled)


def evaluate_leave_one_out(
    manifest: Manifest,
    vocabulary: Vocabulary,
    params: CombineParams,
    k_max: int = 5,
    geometry_params: GeometryParams = GeometryParams(),
    geometry_cache: Optional[Dict[Tuple[str, str], Tuple[int, float]]] = None,
    feature_cache: Optional[Dict[str, ImageFeatures]] = None,
) -> EvalReport:
    """Leave-one-out protocol: each image queried against all other images.

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
        labeled.append((e, unit))

    unit_counts: Dict[str, int] = {}
    for _, unit in labeled:
        unit_counts[unit] = unit_counts.get(unit, 0) + 1

    embedded = []
    for e, unit in labeled:
        features = _load_features(manifest, e, feature_cache)
        relabeled = replace(features, individual_id=unit)
        embedded.append(
            DbEntry(
                image_id=e.image_id,
                individual_id=unit,
                embedding=embed_image(relabeled, vocabulary),
                features=relabeled,
            )
        )

    results = []
    truths = {}
    for i, (entry, unit) in enumerate(labeled):
        if unit_counts[unit] < 2:
            excluded.append((entry.image_id, "singleton_identity"))
            continue
        db = ReidDatabase(
            vocabulary=vocabulary,
            entries=embedded[:i] + embedded[i + 1 :],
        )
        truths[entry.image_id] = unit
        results.append(
            query_database(
                db,
                embedded[i].features,
                params,
                geometry_params=geometry_params,
                geometry_cache=geometry_cache,
            )
        )
    if not results:
        raise ReidError("all leave-one-out queries were excluded")
    return _report("leave_one_out", results, truths, excluded, k_max)


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
