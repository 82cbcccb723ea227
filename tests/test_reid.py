"""Combination rules, ranked retrieval, and evaluation protocol tests."""

import numpy as np
import pytest

from patreid.encode import cosine_distance, embed_image, train_vocabulary
from patreid.ingest import (
    ImageFeatures,
    Manifest,
    ManifestEntry,
    load_entry_features,
    write_feature_file,
)
from patreid.reid import (
    RULES,
    CombineParams,
    DbEntry,
    EvalReport,
    MatchCandidate,
    PerQueryRecord,
    RankedResult,
    ReidDatabase,
    ReidError,
    build_database,
    combine_exponential,
    combine_polynomial,
    evaluate_leave_one_out,
    evaluate_split,
    query_database,
    score_pair,
    topk_accuracy,
    write_per_query_csv,
)
from patreid.synth import SynthConfig, generate_benchmark, generate_individual, render_observation
from patreid.vocab import Embedding


class TestCombinePolynomial:
    def test_no_geometry_leaves_appearance(self):
        assert combine_polynomial(0.37, 0.0, 2.0) == 0.37

    def test_full_consensus_zeroes(self):
        assert combine_polynomial(0.37, 1.0, 2.0) == 0.0

    def test_table_example(self):
        assert abs(combine_polynomial(0.8, 0.5, 2.0) - 0.2) < 1e-12

    def test_a_zero_ignores_geometry(self):
        assert combine_polynomial(0.6, 0.9, 0.0) == 0.6


class TestCombineExponential:
    def test_zero_inliers_is_one(self):
        assert combine_exponential(0.42, 0) == 1.0
        assert combine_exponential(1.7, 0) == 1.0

    def test_d_one_stays_one(self):
        assert combine_exponential(1.0, 25) == 1.0

    def test_forced_example(self):
        assert abs(combine_exponential(0.9, 10) - 0.34867844010000015) < 1e-12

    def test_clamps_above_one(self):
        assert combine_exponential(1.8, 3) == 1.0

    def test_clamps_below_epsilon(self):
        assert combine_exponential(0.0, 2, epsilon=1e-9) == 1e-18

    def test_more_inliers_smaller_distance(self):
        values = [combine_exponential(0.9, n) for n in range(0, 30, 5)]
        assert values == sorted(values, reverse=True)


class TestCombineParams:
    def test_defaults_valid(self):
        CombineParams().validate()

    @pytest.mark.parametrize(
        "kwargs, pattern",
        [
            ({"rule": "both"}, "rule"),
            ({"a": -1.0}, "a must"),
            ({"a": float("nan")}, "a must"),
            ({"a": float("inf")}, "a must"),
            ({"shortlist_size": -2}, "shortlist"),
        ],
    )
    def test_invalid(self, kwargs, pattern):
        with pytest.raises(ReidError, match=pattern):
            CombineParams(**kwargs).validate()


class TestTopkAccuracy:
    def _result(self, query_id, individuals):
        return RankedResult(query_image_id=query_id, candidates=[], individuals=individuals)

    def test_all_rank_one(self):
        results = [self._result("q1", ["A", "B"]), self._result("q2", ["B", "A"])]
        truths = {"q1": "A", "q2": "B"}
        assert topk_accuracy(results, truths, 1) == 1.0

    def test_distinct_individual_counting(self):
        # Individuals list is already deduplicated, so [B, A] at k=1 misses
        # truth A and at k=2 hits it, regardless of how many images of B
        # ranked ahead.
        results = [self._result("q1", ["B", "A"])]
        truths = {"q1": "A"}
        assert topk_accuracy(results, truths, 1) == 0.0
        assert topk_accuracy(results, truths, 2) == 1.0

    def test_empty_results_rejected(self):
        with pytest.raises(ReidError):
            topk_accuracy([], {}, 1)

    def test_missing_truth_rejected(self):
        with pytest.raises(ReidError, match="truth"):
            topk_accuracy([self._result("q1", ["A"])], {}, 1)


def synth_setup(seed=21, n_individuals=4, views=3, **overrides):
    """Small benchmark: per-individual clean database view + noisy queries."""
    cfg = SynthConfig(
        seed=seed, n_individuals=n_individuals, views_per_individual=views, **overrides
    )
    constellations = [generate_individual(cfg, i) for i in range(n_individuals)]
    db_features = [render_observation(c, cfg, 0)[0] for c in constellations]
    queries = [
        render_observation(c, cfg, v)[0]
        for c in constellations
        for v in range(1, views)
    ]
    vocabulary = train_vocabulary(db_features, gmm_k=4, pca_dim=16)
    return cfg, db_features, queries, vocabulary


@pytest.fixture(scope="module")
def small_world():
    cfg, db_features, queries, vocabulary = synth_setup()
    db = build_database(vocabulary, db_features)
    return cfg, db, queries, vocabulary


class TestQueryDatabase:
    def test_database_image_ranks_itself_first(self, small_world):
        _, db, _, _ = small_world
        result = query_database(db, db.entries[0].features, CombineParams(), seed=0)
        assert result.candidates[0].db_image_id == db.entries[0].image_id
        assert result.individuals[0] == db.entries[0].individual_id

    def test_true_individual_ranks_first(self, small_world):
        _, db, queries, _ = small_world
        for rule in RULES:
            params = CombineParams(rule=rule)
            for query in queries:
                result = query_database(db, query, params, seed=0)
                assert result.individuals[0] == query.individual_id, rule

    def test_individuals_deduplicated(self, small_world):
        cfg, db, queries, vocabulary = small_world
        # Duplicate every individual's database image under a new image_id:
        # candidate list doubles, individual list must not.
        doubled = []
        for entry in db.entries:
            doubled.append(entry.features)
        import dataclasses
        for entry in db.entries:
            doubled.append(
                dataclasses.replace(entry.features, image_id=entry.image_id + "_copy")
            )
        db2 = build_database(vocabulary, doubled)
        result = query_database(db2, queries[0], CombineParams(), seed=0)
        assert len(result.candidates) == 2 * len(db.entries)
        assert sorted(result.individuals) == sorted(e.individual_id for e in db.entries)

    def test_shortlist_equivalence_when_covering(self, small_world):
        _, db, queries, _ = small_world
        full = query_database(
            db, queries[0], CombineParams(shortlist_size=0), seed=0
        )
        covering = query_database(
            db, queries[0], CombineParams(shortlist_size=len(db.entries)), seed=0
        )
        assert full.individuals == covering.individuals
        for a, b in zip(full.candidates, covering.candidates):
            assert (a.db_image_id, a.d_C, a.n, a.omega) == (b.db_image_id, b.d_C, b.n, b.omega)

    def test_unverified_rank_after_verified(self, small_world):
        _, db, queries, _ = small_world
        params = CombineParams(rule="exponential", shortlist_size=1)
        result = query_database(db, queries[0], params, seed=0)
        verified_flags = [c.verified for c in result.candidates]
        assert verified_flags[0] is True
        assert sum(verified_flags) == 1
        assert all(not v for v in verified_flags[1:])

    def test_appearance_only_skips_geometry(self, small_world):
        _, db, queries, _ = small_world
        result = query_database(
            db, queries[0], CombineParams(rule="appearance_only"), seed=0
        )
        for c in result.candidates:
            assert c.n == 0 and c.omega == 0.0
            assert c.d_C == c.d_L

    def test_geometry_only_scores_negative_inliers(self, small_world):
        _, db, queries, _ = small_world
        result = query_database(
            db, queries[0], CombineParams(rule="geometry_only"), seed=0
        )
        for c in result.candidates:
            if c.verified:
                assert c.d_C == -c.n

    def test_empty_database_rejected(self, small_world):
        _, db, queries, vocabulary = small_world
        with pytest.raises(ReidError, match="empty"):
            query_database(
                ReidDatabase(vocabulary=vocabulary, entries=[]),
                queries[0],
                CombineParams(),
            )

    def test_geometry_cache_reused_across_rules(self, small_world):
        _, db, queries, _ = small_world
        cache = {}
        a = query_database(
            db, queries[0], CombineParams(rule="polynomial"), seed=0, geometry_cache=cache
        )
        cached = dict(cache)
        b = query_database(
            db, queries[0], CombineParams(rule="exponential"), seed=0, geometry_cache=cache
        )
        assert cache == cached  # same pairs, no recomputation
        by_id_a = {c.db_image_id: (c.n, c.omega) for c in a.candidates}
        by_id_b = {c.db_image_id: (c.n, c.omega) for c in b.candidates}
        assert by_id_a == by_id_b


class TestScorePair:
    def test_degenerate_embedding_still_verified_geometrically(self, small_world):
        _, db, queries, _ = small_world
        entry = db.entries[0]
        truth_query = next(
            q for q in queries if q.individual_id == entry.individual_id
        )
        hobbled = DbEntry(
            image_id=entry.image_id,
            individual_id=entry.individual_id,
            viewpoint=None,
            embedding=Embedding(
                values=np.zeros(entry.embedding.values.shape), degenerate=True
            ),
            features=entry.features,
        )
        query_embedding = Embedding(values=np.zeros(2), degenerate=True)
        d_l = cosine_distance(query_embedding, hobbled.embedding)
        candidate = score_pair(
            truth_query, d_l, hobbled, CombineParams(rule="exponential")
        )
        assert candidate.d_L == 2.0
        assert candidate.n > 0  # geometry ran despite the appearance blackout


class TestBuildDatabase:
    def test_requires_labels(self, small_world):
        _, db, _, vocabulary = small_world
        import dataclasses
        unlabeled = dataclasses.replace(db.entries[0].features, individual_id=None)
        with pytest.raises(ReidError, match="individual_id"):
            build_database(vocabulary, [unlabeled])

    def test_rejects_duplicate_ids(self, small_world):
        _, db, _, vocabulary = small_world
        f = db.entries[0].features
        with pytest.raises(ReidError, match="duplicate"):
            build_database(vocabulary, [f, f])


def write_benchmark_manifest(tmp_path, cfg_seed=31, n_individuals=3, views=3):
    cfg = SynthConfig(
        seed=cfg_seed, n_individuals=n_individuals, views_per_individual=views
    )
    return cfg, generate_benchmark(cfg, tmp_path / "bench")


class TestEvaluateSplit:
    def test_report_shape_and_monotone_accuracy(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path)
        feature_sets = [
            load_entry_features(manifest, e) for e in manifest.with_role("database")
        ]
        vocabulary = train_vocabulary(feature_sets, gmm_k=4, pca_dim=16)
        report = evaluate_split(manifest, vocabulary, CombineParams(), k_max=3)
        assert report.protocol == "split"
        assert len(report.records) == len(manifest.with_role("query"))
        assert len(report.accuracies) == 3
        assert all(b >= a for a, b in zip(report.accuracies, report.accuracies[1:]))
        assert report.excluded == []

    def test_exclusions_reported_not_counted(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path)
        # Unlabel one query and point another at an individual absent from
        # the database.
        entries = list(manifest.entries)
        queries = [e for e in entries if e.role == "query"]
        queries[0].individual_id = None
        queries[1].individual_id = "stranger"
        feature_sets = [
            load_entry_features(manifest, e) for e in manifest.with_role("database")
        ]
        vocabulary = train_vocabulary(feature_sets, gmm_k=4, pca_dim=16)
        report = evaluate_split(manifest, vocabulary, CombineParams(), k_max=2)
        assert (queries[0].image_id, "unlabeled") in report.excluded
        assert (queries[1].image_id, "no_database_match") in report.excluded
        assert len(report.records) == len(queries) - 2

    def test_missing_role_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path)
        db_only = Manifest(
            entries=manifest.with_role("database"), base_dir=manifest.base_dir
        )
        vocabulary = train_vocabulary(
            [load_entry_features(manifest, e) for e in manifest.with_role("database")],
            gmm_k=4,
            pca_dim=16,
        )
        with pytest.raises(ReidError, match="query"):
            evaluate_split(db_only, vocabulary, CombineParams())


class TestEvaluateLeaveOneOut:
    def _vocabulary_for(self, manifest):
        return train_vocabulary(
            [load_entry_features(manifest, e) for e in manifest.with_role("database")],
            gmm_k=4,
            pca_dim=16,
        )

    def test_two_images_one_individual(self, tmp_path):
        cfg = SynthConfig(seed=5, n_individuals=2, views_per_individual=2)
        manifest = generate_benchmark(cfg, tmp_path / "bench")
        vocabulary = self._vocabulary_for(manifest)
        solo = Manifest(
            entries=[e for e in manifest.entries if e.individual_id == "ind000"],
            base_dir=manifest.base_dir,
        )
        report = evaluate_leave_one_out(solo, vocabulary, CombineParams(), k_max=1)
        assert report.protocol == "leave_one_out"
        assert len(report.records) == 2  # both roles pooled
        assert report.accuracies[0] == 1.0

    def test_singleton_excluded(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=3, views=3)
        # Drop all but one image of ind002: it becomes a singleton identity.
        keep = [
            e
            for e in manifest.entries
            if e.individual_id != "ind002" or e.image_id.endswith("_v0")
        ]
        pruned = Manifest(entries=keep, base_dir=manifest.base_dir)
        vocabulary = self._vocabulary_for(manifest)
        report = evaluate_leave_one_out(pruned, vocabulary, CombineParams(), k_max=2)
        assert ("ind002_v0", "singleton_identity") in report.excluded
        assert len(report.records) == len(keep) - 1

    def test_viewpoint_qualifies_identity_unit(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=4)
        # Fully viewpoint-labeled manifest: left for v0/v1, right for v2/v3.
        for e in manifest.entries:
            e.viewpoint = "left" if e.image_id[-1] in "01" else "right"
        vocabulary = self._vocabulary_for(manifest)
        report = evaluate_leave_one_out(manifest, vocabulary, CombineParams(), k_max=1)
        # Each (individual, viewpoint) unit has exactly 2 images, so nothing
        # is singleton and every query's truth unit is present once.
        assert report.excluded == []
        assert len(report.records) == 8
        assert all("|" in r.truth for r in report.records)

    def test_all_excluded_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        for e in manifest.entries:
            e.individual_id = None
        with pytest.raises(ReidError, match="excluded"):
            evaluate_leave_one_out(manifest, vocabulary, CombineParams())

    def test_split_all_excluded_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        queries = manifest.with_role("query")
        queries[0].individual_id = None
        for e in queries[1:]:
            e.individual_id = "stranger"
        with pytest.raises(ReidError, match="excluded"):
            evaluate_split(manifest, vocabulary, CombineParams())

    def test_too_few_images(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        solo = Manifest(entries=manifest.entries[:1], base_dir=manifest.base_dir)
        with pytest.raises(ReidError, match="at least 2"):
            evaluate_leave_one_out(solo, vocabulary, CombineParams())


class TestPerQueryCsv:
    def _report(self, protocol="split"):
        records = [
            PerQueryRecord(
                query_image_id="q1",
                truth="A",
                rank_of_truth=1,
                d_L=0.25,
                n=12,
                omega=0.5,
                d_C=0.0625,
            )
        ]
        return EvalReport(
            protocol=protocol,
            accuracies=[1.0, 1.0],
            records=records,
            excluded=[("q9", "unlabeled")],
        )

    def test_structure(self, tmp_path):
        path = tmp_path / "per_query.csv"
        write_per_query_csv({"polynomial": self._report()}, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rule,query_id,truth,rank_of_truth,d_L,n,omega,d_C"
        assert lines[1].startswith("polynomial,q1,A,1,0.25,12,0.5,")
        assert any(line.startswith("# protocol,split") for line in lines)
        assert any(line.startswith("# excluded,q9,unlabeled") for line in lines)
        assert any(line.startswith("# topk,polynomial,1,1.0") for line in lines)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        reports = {"exponential": self._report(), "polynomial": self._report()}
        write_per_query_csv(reports, a)
        write_per_query_csv(reports, b)
        assert a.read_bytes() == b.read_bytes()
