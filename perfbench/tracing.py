"""Spans recorded around the package's public functions, from outside it.

Modules import functions by name (``from .encode import embed_image``), so a
function is wrapped at every module attribute it is looked up through, not
only where it is defined.  Spans stay in memory; ``dump`` writes them once
the measured work is over.  Per-layer metrics are derived from the spans
after the fact, so the wrappers do as little as possible while timing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from time import perf_counter

# (module, attribute) lookup sites -> span name.  A span name is
# "<layer>.<function>"; the layer is the patreid module that defines it.
WRAP_SITES = (
    ("patreid.cli", "main", "cli.main"),
    ("patreid.cli", "parse_feature_file", "ingest.parse_feature_file"),
    ("patreid.ingest", "parse_feature_file", "ingest.parse_feature_file"),
    ("patreid.cli", "load_vocabulary", "vocab.load_vocabulary"),
    ("patreid.cli", "save_vocabulary", "vocab.save_vocabulary"),
    ("patreid.encode", "fit_pca", "vocab.fit_pca"),
    ("patreid.encode", "fit_gmm", "vocab.fit_gmm"),
    ("patreid.encode", "fit_kpca", "vocab.fit_kpca"),
    ("patreid.cli", "train_vocabulary", "encode.train_vocabulary"),
    ("patreid.encode", "fisher_encode", "encode.fisher_encode"),
    ("patreid.cli", "embed_image", "encode.embed_image"),
    ("patreid.reid", "embed_image", "encode.embed_image"),
    ("patreid.reid", "cosine_distance", "encode.cosine_distance"),
    ("patreid.geometry", "geometric_similarity", "geometry.geometric_similarity"),
    ("patreid.geometry", "match_descriptors", "geometry.match_descriptors"),
    ("patreid.geometry", "ransac_homography", "geometry.ransac_homography"),
    ("patreid.cli", "evaluate_split", "reid.evaluate_split"),
    ("patreid.reid", "build_database", "reid.build_database"),
    ("patreid.reid", "query_database", "reid.query_database"),
    ("patreid.cli", "query_database", "reid.query_database"),
    ("patreid.reid", "score_pair", "reid.score_pair"),
)

GEOMETRY_RULES = ("geometry_only", "polynomial", "exponential")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Facts a span keeps about its call.  They are read after the span's end
# time is taken, so they cost the parent span's time, not this one's.
def _note_pair(args, kwargs, result):
    query, db = _arg(args, kwargs, 0, "query"), _arg(args, kwargs, 1, "db")
    return {"query": query.image_id, "db": db.image_id, "inliers": int(result.n)}


def _note_matches(args, kwargs, result):
    return {"matches": len(result)}


def _note_gmm(args, kwargs, result):
    return {"iters": int(len(result.log_likelihoods))}


def _note_vocab_file(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _note_score(args, kwargs, result):
    params = _arg(args, kwargs, 3, "params")
    return {"geometry": params.rule in GEOMETRY_RULES}


def _note_query(args, kwargs, result):
    params = _arg(args, kwargs, 2, "params")
    verified = sorted({c.db_image_id for c in result.candidates if c.verified})
    return {
        "query": result.query_image_id,
        "geometry": params.rule in GEOMETRY_RULES,
        "verified": verified,
    }


NOTES = {
    "geometry.geometric_similarity": _note_pair,
    "geometry.match_descriptors": _note_matches,
    "vocab.fit_gmm": _note_gmm,
    "vocab.load_vocabulary": _note_vocab_file,
    "reid.score_pair": _note_score,
    "reid.query_database": _note_query,
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, request.

    Spans are lists ``[name, start, end, parent_index, request_id, note]``;
    ``parent_index`` is -1 for a root span.  Single-threaded by design: the
    benchmark is one closed-loop client.
    """

    def __init__(self):
        self.spans = []
        self.request_id = None
        self.missing = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        for module_name, attr, span_name in WRAP_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, name):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    span[5] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # signature changed: the span keeps its time, loses its note
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request", "note"],
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def setup_metrics(spans):
    """Per-layer metrics of one traced ``build-vocab``, in s or count."""
    own = self_times(spans)

    def total(name):
        return sum(t for s, t in zip(spans, own) if s[0] == name)

    return {
        "vocab.fit_pca_s": total("vocab.fit_pca"),
        "vocab.fit_gmm_s": total("vocab.fit_gmm"),
        "vocab.gmm_iters": sum(s[5]["iters"] for s in spans if s[0] == "vocab.fit_gmm" and s[5]),
        "vocab.fit_kpca_s": total("vocab.fit_kpca"),
        "vocab.save_s": total("vocab.save_vocabulary"),
    }


def loop_metrics(spans, images, truth):
    """Per-layer metrics of the traced request loop.

    Times and counts named ``/query`` are divided by ``images``, the query
    images the loop answered, so runs of different length compare.
    ``truth`` maps image id to individual id and labels each verified pair
    genuine (same individual) or impostor.
    """
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def noted(name):
        return [(i, spans[i][5]) for i in idx(name) if spans[i][5] is not None]

    def self_s(name):
        return sum(own[i] for i in idx(name))

    def per_image(x):
        return x / images

    pairs = idx("geometry.geometric_similarity")
    genuine = {i: truth[n["query"]] == truth[n["db"]] for i, n in noted("geometry.geometric_similarity")}
    inliers = {True: [], False: []}
    for i, n in noted("geometry.geometric_similarity"):
        inliers[genuine[i]].append(n["inliers"])
    ransac = {True: [], False: []}
    for i in idx("geometry.ransac_homography"):
        parent = spans[i][3]
        if parent in genuine:
            ransac[genuine[parent]].append(spans[i][2] - spans[i][1])

    parses = idx("ingest.parse_feature_file")
    geometry_scores = sum(n["geometry"] for _, n in noted("reid.score_pair"))
    recall_hits = [
        any(truth[db] == truth[n["query"]] for db in n["verified"])
        for _, n in noted("reid.query_database")
        if n["geometry"]
    ]
    loads = noted("vocab.load_vocabulary")
    return {
        "ingest.parse_s": per_image(self_s("ingest.parse_feature_file")),
        "ingest.files_parsed": per_image(len(parses)),
        "ingest.parse_ms_per_file": 1000.0 * self_s("ingest.parse_feature_file") / max(1, len(parses)),
        "vocab.load_s": per_image(self_s("vocab.load_vocabulary")),
        "vocab.file_bytes": loads[-1][1]["bytes"] if loads else 0,
        "encode.fisher_s": per_image(self_s("encode.fisher_encode")),
        "encode.embed_s": per_image(self_s("encode.embed_image")),
        "encode.embed_calls": per_image(len(idx("encode.embed_image"))),
        "encode.cosine_s": per_image(self_s("encode.cosine_distance")),
        "encode.cosine_calls": per_image(len(idx("encode.cosine_distance"))),
        "geometry.pairs_verified": per_image(len(pairs)),
        "geometry.match_s": per_image(self_s("geometry.match_descriptors")),
        "geometry.matches_per_pair": _mean([n["matches"] for _, n in noted("geometry.match_descriptors")]),
        "geometry.ransac_s": per_image(self_s("geometry.ransac_homography")),
        "geometry.ransac_ms_genuine": 1000.0 * _mean(ransac[True]),
        "geometry.ransac_ms_impostor": 1000.0 * _mean(ransac[False]),
        "geometry.inliers_genuine": _mean(inliers[True]),
        "geometry.inliers_impostor": _mean(inliers[False]),
        "geometry.genuine_share": len(inliers[True]) / max(1, len(pairs)),
        "reid.query_self_s": per_image(self_s("reid.query_database")),
        "reid.build_db_s": per_image(sum(spans[i][2] - spans[i][1] for i in idx("reid.build_database"))),
        "reid.geometry_cache_hits": per_image(geometry_scores - len(pairs)),
        "reid.shortlist_recall": _mean(recall_hits),
        "cli.self_s": per_image(self_s("cli.main")),
    }
