"""Combination rules, ranked retrieval, and evaluation protocol tests."""

import numpy as np
import pytest
from oracles import embedded_images, ranking_oracle

import patreid.geometry
from patreid.cli import main
from patreid.encode import train_vocabulary
from patreid.ingest import (
    ImageFeatures,
    Manifest,
    ManifestEntry,
    load_entry_features,
    load_manifest,
    write_feature_file,
)
from patreid.reid import (
    RULES,
    CombineParams,
    EvalReport,
    Images,
    PerQueryRecord,
    RankedResult,
    ReidError,
    combine_exponential,
    combine_polynomial,
    evaluate,
    query_database,
    rank_queries,
    topk_accuracy,
    write_per_query_csv,
)
from patreid.synth import SynthConfig, generate_benchmark, generate_individual, render_observation
from patreid.vocab import load_vocabulary


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
    db = embedded_images(vocabulary, db_features)
    return cfg, db, queries, vocabulary


class TestQueryDatabase:
    def test_database_image_ranks_itself_first(self, small_world):
        _, db, _, vocabulary = small_world
        first = db.features(0)
        result = query_database(db, vocabulary, first, CombineParams())
        assert result.candidates.image_ids[0] == first.image_id
        assert result.individuals[0] == first.individual_id

    def test_true_individual_ranks_first(self, small_world):
        _, db, queries, vocabulary = small_world
        for rule in RULES:
            params = CombineParams(rule=rule)
            for query in queries:
                result = query_database(db, vocabulary, query, params)
                assert result.individuals[0] == query.individual_id, rule

    def test_individuals_deduplicated(self, small_world):
        cfg, db, queries, vocabulary = small_world
        # Duplicate every individual's database image under a new image_id:
        # candidate list doubles, individual list must not.
        import dataclasses
        features = [db.features(i) for i in range(len(db.image_ids))]
        doubled = features + [
            dataclasses.replace(f, image_id=f.image_id + "_copy") for f in features
        ]
        db2 = embedded_images(vocabulary, doubled)
        result = query_database(db2, vocabulary, queries[0], CombineParams())
        assert len(result.candidates.image_ids) == 2 * len(features)
        assert sorted(result.individuals) == sorted(db.individual_ids)

    def test_shortlist_equivalence_when_covering(self, small_world):
        _, db, queries, vocabulary = small_world
        full = query_database(
            db, vocabulary, queries[0], CombineParams(shortlist_size=0)
        )
        covering = query_database(
            db, vocabulary, queries[0], CombineParams(shortlist_size=len(db.image_ids))
        )
        assert full.individuals == covering.individuals
        for name in ("image_ids", "d_C", "n", "omega"):
            assert list(getattr(full.candidates, name)) == list(getattr(covering.candidates, name))

    def test_unverified_rank_after_verified(self, small_world):
        _, db, queries, vocabulary = small_world
        params = CombineParams(rule="exponential", shortlist_size=1)
        result = query_database(db, vocabulary, queries[0], params)
        verified_flags = result.candidates.verified.tolist()
        assert verified_flags[0] is True
        assert sum(verified_flags) == 1
        assert all(not v for v in verified_flags[1:])

    def test_appearance_only_skips_geometry(self, small_world):
        _, db, queries, vocabulary = small_world
        result = query_database(
            db, vocabulary, queries[0], CombineParams(rule="appearance_only")
        )
        c = result.candidates
        assert (c.n == 0).all() and (c.omega == 0.0).all()
        assert (c.d_C == c.d_L).all()

    def test_geometry_only_scores_negative_inliers(self, small_world):
        _, db, queries, vocabulary = small_world
        result = query_database(
            db, vocabulary, queries[0], CombineParams(rule="geometry_only")
        )
        c = result.candidates
        assert (c.d_C[c.verified] == -c.n[c.verified]).all()

    def test_empty_database_rejected(self, small_world):
        _, db, queries, vocabulary = small_world
        with pytest.raises(ReidError, match="empty"):
            query_database(
                Images.of([], np.zeros((0, vocabulary.kpca.out_dim))),
                vocabulary,
                queries[0],
                CombineParams(),
            )

    def test_geometry_cache_reused_across_rules(self, small_world, monkeypatch):
        _, db, queries, vocabulary = small_world
        calls = []
        verify = patreid.geometry.verify_shortlist
        monkeypatch.setattr(
            patreid.geometry,
            "verify_shortlist",
            lambda q, dbs, params: calls.append([d.image_id for d in dbs]) or verify(q, dbs, params),
        )
        query = embedded_images(vocabulary, queries[:1])
        rules = [CombineParams(rule="polynomial"), CombineParams(rule="exponential")]
        results = rank_queries(db, query, rules)
        assert len(calls) == 1  # one shortlist per query
        assert sorted(calls[0]) == sorted(db.image_ids)  # once per pair
        # In stage-1 order (d_L, image_id), the order rows are read in.
        c = results["polynomial"][0].candidates
        assert calls[0] == [i for _, i in sorted(zip(c.d_L.tolist(), c.image_ids))]
        a, b = (results[p.rule][0].candidates for p in rules)
        by_id_a = dict(zip(a.image_ids, zip(a.n.tolist(), a.omega.tolist())))
        by_id_b = dict(zip(b.image_ids, zip(b.n.tolist(), b.omega.tolist())))
        assert by_id_a == by_id_b


class TestScorePair:
    def test_degenerate_embedding_still_verified_geometrically(self, small_world):
        _, db, queries, _ = small_world
        entry = db.features(0)
        truth_query = next(
            q for q in queries if q.individual_id == entry.individual_id
        )
        # Zero embeddings on both sides: degenerate images.
        hobbled = Images.of([entry], np.zeros((1, db.embeddings.shape[1])))
        candidate = rank_queries(
            hobbled,
            Images.of([truth_query], np.zeros((1, db.embeddings.shape[1]))),
            [CombineParams(rule="exponential")],
        )["exponential"][0].candidates
        assert candidate.d_L[0] == 2.0
        assert candidate.n[0] > 0  # geometry ran despite the appearance blackout


class TestBuildDatabase:
    def test_requires_labels(self, small_world):
        _, db, queries, vocabulary = small_world
        import dataclasses
        unlabeled = dataclasses.replace(db.features(0), individual_id=None)
        with pytest.raises(ReidError, match="individual_id"):
            query_database(
                embedded_images(vocabulary, [unlabeled]), vocabulary, queries[0], CombineParams()
            )

    def test_rejects_duplicate_ids(self, small_world):
        _, db, queries, vocabulary = small_world
        f = db.features(0)
        with pytest.raises(ReidError, match="duplicate"):
            query_database(
                embedded_images(vocabulary, [f, f]), vocabulary, queries[0], CombineParams()
            )


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
        report = evaluate(
            manifest, vocabulary, [CombineParams()], "split", k_max=3
        )["exponential"]
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
        report = evaluate(
            manifest, vocabulary, [CombineParams()], "split", k_max=2
        )["exponential"]
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
            evaluate(db_only, vocabulary, [CombineParams()], "split")


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
        report = evaluate(
            solo, vocabulary, [CombineParams()], "leave_one_out", k_max=1
        )["exponential"]
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
        report = evaluate(
            pruned, vocabulary, [CombineParams()], "leave_one_out", k_max=2
        )["exponential"]
        assert ("ind002_v0", "singleton_identity") in report.excluded
        assert len(report.records) == len(keep) - 1

    def test_viewpoint_qualifies_identity_unit(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=4)
        # Fully viewpoint-labeled manifest: left for v0/v1, right for v2/v3.
        for e in manifest.entries:
            e.viewpoint = "left" if e.image_id[-1] in "01" else "right"
        vocabulary = self._vocabulary_for(manifest)
        report = evaluate(
            manifest, vocabulary, [CombineParams()], "leave_one_out", k_max=1
        )["exponential"]
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
            evaluate(manifest, vocabulary, [CombineParams()], "leave_one_out")

    def test_split_all_excluded_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        queries = manifest.with_role("query")
        queries[0].individual_id = None
        for e in queries[1:]:
            e.individual_id = "stranger"
        with pytest.raises(ReidError, match="excluded"):
            evaluate(manifest, vocabulary, [CombineParams()], "split")

    def test_too_few_images(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        solo = Manifest(entries=manifest.entries[:1], base_dir=manifest.base_dir)
        with pytest.raises(ReidError, match="at least 2"):
            evaluate(solo, vocabulary, [CombineParams()], "leave_one_out")


@pytest.fixture(scope="module")
def noisy_world(tmp_path_factory):
    """A small noisy benchmark with imperfect rankings, and its indexed model.

    Three empty images of individual "blank" have degenerate embeddings, so
    every d_L from or to them is 2: their rankings are decided by image id.
    """
    root = tmp_path_factory.mktemp("noisy")
    bench, model = root / "bench", root / "model.bin"
    assert main(["synth", "--seed", "11", "--individuals", "5", "--views", "3",
                 "--points", "25", "--noise", "0.3", "--dropout", "0.6", "--clutter", "1.0",
                 "--max-perspective", "0.3", "--out", str(bench)]) == 0
    rows = []
    for image_id, role in (("blank_a", "database"), ("blank_b", "database"), ("blank_q", "query")):
        write_feature_file(
            ImageFeatures(image_id, np.zeros((0, 6)), np.zeros((0, 128))), bench / f"{image_id}.patf"
        )
        rows.append(f"{image_id},blank,,{role},{image_id}.patf\n")
    with open(bench / "manifest.csv", "a", encoding="utf-8") as fh:
        fh.writelines(rows)
    # The two empty database images share one Fisher vector: kernel rank 5.
    assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"), "--out", str(model),
                 "--gmm-k", "4", "--pca-dim", "16", "--kpca-dim", "5"]) == 0
    with load_vocabulary(model) as vocabulary:
        yield load_manifest(bench / "manifest.csv"), vocabulary


class TestRankingOracle:
    @pytest.mark.parametrize("protocol", ["split", "leave_one_out"])
    @pytest.mark.parametrize("shortlist", [0, 3, 20])
    def test_evaluate_matches_oracle(self, noisy_world, protocol, shortlist):
        manifest, vocabulary = noisy_world
        assert 20 > len(manifest.entries)  # the last shortlist covers every image
        reports = evaluate(
            manifest,
            vocabulary,
            [CombineParams(rule=rule, shortlist_size=shortlist) for rule in RULES],
            protocol,
        )
        for rule in RULES:
            records = [
                (r.query_image_id, r.truth, r.rank_of_truth, r.d_L, r.n, r.omega, r.d_C)
                for r in reports[rule].records
            ]
            assert records == ranking_oracle(manifest, vocabulary, rule, shortlist, protocol)


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
