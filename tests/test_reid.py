"""Combination rules, ranked retrieval, and evaluation protocol tests."""

import csv

import numpy as np
import pytest
from oracles import embedded_images, individual_of, ranking_oracle

import patreid.geometry
from patreid.cli import main
from patreid.encode import TrainingParams, train_vocabulary
from patreid.ingest import (
    ImageFeatures,
    Manifest,
    load_entry_features,
    load_manifest,
    write_feature_file,
)
from patreid.reid import (
    RULES,
    CombineParams,
    Evaluation,
    Images,
    Ranking,
    ReidError,
    _combine,
    combine_exponential,
    combine_polynomial,
    evaluate,
    hit_rates,
    load_images,
    rank_queries,
    ranks_of_truth,
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
        assert combine_exponential(0.0, 2) == 1e-18

    def test_more_inliers_smaller_distance(self):
        values = [combine_exponential(0.9, n) for n in range(0, 30, 5)]
        assert values == sorted(values, reverse=True)


class TestRulesOnArrays:
    """rank_queries combines every pair in one array call per rule, so that
    call must give, element by element and bit for bit, what Python float
    arithmetic gives one pair at a time: np.power rounds some powers
    differently, which would move the per-query CSV's bytes."""

    @pytest.fixture(scope="class")
    def draws(self):
        """200,000 (d_L, n, omega) with d_L in [0, 2], n in 0 .. 2000 and
        omega = k / M, 0 <= k <= M <= 2000; the first d_L are edge values."""
        rng = np.random.default_rng(20240)
        size = 200_000
        d_l = rng.uniform(0.0, 2.0, size)
        d_l[:6] = 0.0, 5e-10, 1e-9, 0.5, 1.0, 2.0
        matches = rng.integers(1, 2001, size)
        return d_l, rng.integers(0, 2001, size), rng.integers(0, matches + 1) / matches

    @pytest.mark.parametrize("rule, a", [
        ("appearance_only", 2.0),
        ("geometry_only", 2.0),
        ("exponential", 2.0),
        *(("polynomial", a) for a in (0.0, 0.5, 2.0, 3.7, 123.456)),
    ])
    def test_array_call_equals_float_arithmetic(self, draws, rule, a):
        d_l, n, omega = draws
        one_pair = {
            "appearance_only": lambda d, k, w: d,
            "geometry_only": lambda d, k, w: float(-k),
            "polynomial": lambda d, k, w: d * (1.0 - w) ** a,
            "exponential": lambda d, k, w: min(max(d, 1e-9), 1.0) ** k,
        }[rule]
        want = np.array([one_pair(*x) for x in zip(d_l.tolist(), n.tolist(), omega.tolist())])
        got = _combine(rule, a, d_l, n, omega)
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"{differ.size} of {want.size} differ; first d_L={d_l[differ[0]]!r} n={n[differ[0]]} "
            f"omega={omega[differ[0]]!r}: {got[differ[0]]!r} != {want[differ[0]]!r}"
        )


class TestCombineParams:
    def test_defaults_valid(self):
        CombineParams()

    @pytest.mark.parametrize(
        "kwargs, pattern",
        [
            ({"shortlist_size": -1}, "shortlist"),
            ({"a": -1.0}, "a must"),
            ({"a": float("nan")}, "a must"),
            ({"a": float("inf")}, "a must"),
            ({"shortlist_size": -2}, "shortlist"),
        ],
    )
    def test_invalid(self, kwargs, pattern):
        with pytest.raises(ReidError, match=pattern):
            CombineParams(**kwargs)


class TestTopkAccuracy:
    """Top-k accuracy from each query's rank of truth, which ranks_of_truth
    takes from integer individual labels of the ranked rows."""

    def test_all_rank_one(self):
        ranks = ranks_of_truth(np.array([[0, 1], [1, 0]]), np.array([0, 1]))
        assert ranks.tolist() == [1, 1]
        assert hit_rates(ranks, 1) == [1.0]

    def test_distinct_individual_counting(self):
        # Two images of B (label 1) rank ahead of one of A (label 0): A is
        # the second distinct individual, however many images of B precede it.
        ranks = ranks_of_truth(np.array([[1, 1, 0]]), np.array([0]))
        assert ranks.tolist() == [2]
        assert hit_rates(ranks, 2) == [0.0, 1.0]

    def test_absent_truth_ranks_zero(self):
        ranks = ranks_of_truth(np.array([[1, 1, 0], [0, 1, 1]]), np.array([2, 1]))
        assert ranks.tolist() == [0, 2]
        assert hit_rates(ranks, 3) == [0.0, 0.5, 0.5]


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
    vocabulary = train_vocabulary(db_features, TrainingParams(gmm_k=4, pca_dim=16))
    return cfg, db_features, queries, vocabulary


def individuals(db, ranking):
    """The distinct individuals of a one-query ranking of db, in rank order."""
    return list(dict.fromkeys(db.individual_ids[j] for j in ranking.rows[0]))


@pytest.fixture(scope="module")
def small_world():
    cfg, db_features, queries, vocabulary = synth_setup()
    db = embedded_images(vocabulary, db_features)
    return cfg, db, queries, vocabulary


class TestQueryDatabase:
    def test_database_image_ranks_itself_first(self, small_world):
        _, db, _, vocabulary = small_world
        first = db.features(0)
        query = embedded_images(vocabulary, [first])
        result = rank_queries(db, query, ["exponential"])["exponential"]
        assert db.image_ids[result.rows[0, 0]] == first.image_id
        assert individuals(db, result)[0] == individual_of(first)

    def test_true_individual_ranks_first(self, small_world):
        _, db, queries, vocabulary = small_world
        for rule in RULES:
            for query in queries:
                result = rank_queries(db, embedded_images(vocabulary, [query]), [rule])[rule]
                assert individuals(db, result)[0] == individual_of(query), rule

    def test_individuals_deduplicated(self, small_world):
        cfg, db, queries, vocabulary = small_world
        # Duplicate every individual's database image under a new image_id:
        # the ranked rows double, the distinct individuals must not.
        import dataclasses
        features = [db.features(i) for i in range(len(db.image_ids))]
        doubled = features + [
            dataclasses.replace(f, image_id=f.image_id + "_copy") for f in features
        ]
        db2 = embedded_images(vocabulary, doubled)
        query = embedded_images(vocabulary, queries[:1])
        result = rank_queries(db2, query, ["exponential"])["exponential"]
        assert result.rows.shape == (1, 2 * len(features))
        assert sorted(individuals(db2, result)) == sorted(db.individual_ids)
        labels = np.array([db.individual_ids.index(i) for i in db2.individual_ids])
        truth = np.array([db.individual_ids.index(individual_of(queries[0]))])
        assert ranks_of_truth(labels[result.rows], truth).tolist() == [1]

    def test_shortlist_equivalence_when_covering(self, small_world):
        _, db, queries, vocabulary = small_world
        query = embedded_images(vocabulary, queries[:1])
        full = rank_queries(db, query, ["exponential"], CombineParams(shortlist_size=0))
        covering = rank_queries(
            db, query, ["exponential"], CombineParams(shortlist_size=len(db.image_ids))
        )
        full, covering = full["exponential"], covering["exponential"]
        assert individuals(db, full) == individuals(db, covering)
        for name in ("rows", "d_C", "n", "omega"):
            assert getattr(full, name).tolist() == getattr(covering, name).tolist()

    def test_unverified_rank_after_verified(self, small_world):
        # A shortlist of 1 verifies the stage-1 first row alone: it ranks
        # first, and the rest keep n = 0, omega = 0 and d_C = d_L.
        _, db, queries, vocabulary = small_world
        params = CombineParams(shortlist_size=1)
        query = embedded_images(vocabulary, queries[:1])
        results = rank_queries(db, query, ["appearance_only", "exponential"], params)
        stage1, result = results["appearance_only"], results["exponential"]
        assert result.rows[0, 0] == stage1.rows[0, 0]
        assert result.n[0, 0] > 0
        assert (result.n[0, 1:] == 0).all() and (result.omega[0, 1:] == 0).all()
        assert (result.d_C[0, 1:] == result.d_L[0, 1:]).all()

    def test_appearance_only_skips_geometry(self, small_world):
        _, db, queries, vocabulary = small_world
        query = embedded_images(vocabulary, queries[:1])
        c = rank_queries(db, query, ["appearance_only"])["appearance_only"]
        assert (c.n == 0).all() and (c.omega == 0.0).all()
        assert (c.d_C == c.d_L).all()

    def test_geometry_only_scores_negative_inliers(self, small_world):
        _, db, queries, vocabulary = small_world
        query = embedded_images(vocabulary, queries[:1])
        c = rank_queries(db, query, ["geometry_only"])["geometry_only"]
        k = min(CombineParams().shortlist_size, c.rows.shape[1])  # the verified columns
        assert (c.d_C[:, :k] == -c.n[:, :k]).all()

    def test_empty_database_rejected(self, small_world):
        _, db, queries, vocabulary = small_world
        with pytest.raises(ReidError, match="empty"):
            rank_queries(
                embedded_images(vocabulary, []),
                embedded_images(vocabulary, queries[:1]),
                ["exponential"],
            )

    def test_unknown_rule_rejected(self, small_world):
        _, db, queries, vocabulary = small_world
        with pytest.raises(ReidError, match="rule must be one of"):
            rank_queries(db, embedded_images(vocabulary, queries[:1]), ["exponential", "both"])

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
        rules = ["polynomial", "exponential"]
        results = rank_queries(db, query, rules)
        assert len(calls) == 1  # one shortlist per query
        assert sorted(calls[0]) == sorted(db.image_ids)  # once per pair
        # In stage-1 order (d_L, image_id), the order rows are read in.
        c = results["polynomial"]
        image_ids = [db.image_ids[j] for j in c.rows[0]]
        assert calls[0] == [i for _, i in sorted(zip(c.d_L[0].tolist(), image_ids))]
        a, b = (results[rule] for rule in rules)
        by_row_a = dict(zip(a.rows[0].tolist(), zip(a.n[0].tolist(), a.omega[0].tolist())))
        by_row_b = dict(zip(b.rows[0].tolist(), zip(b.n[0].tolist(), b.omega[0].tolist())))
        assert by_row_a == by_row_b

    def test_default_shortlist_verifies_fifty_rows(self, small_world, monkeypatch):
        # CombineParams() is what evaluate and query use without --shortlist:
        # of 60 database rows, a geometry rule verifies the first 50.
        _, db, queries, vocabulary = small_world
        rows = [db.features(j % len(db.image_ids)) for j in range(60)]
        embeddings = np.random.default_rng(3).standard_normal((60, db.embeddings.shape[1]))
        embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
        big = Images([f"img{j}" for j in range(60)], [f"ind{j}" for j in range(60)], embeddings,
                     rows.__getitem__)
        sizes = []
        verify = patreid.geometry.verify_shortlist
        monkeypatch.setattr(
            patreid.geometry,
            "verify_shortlist",
            lambda q, dbs, params: sizes.append(len(dbs)) or verify(q, dbs, params),
        )
        rank_queries(big, embedded_images(vocabulary, queries[:1]), ["exponential"])
        assert sizes == [50]


class TestScorePair:
    def test_degenerate_embedding_still_verified_geometrically(self, small_world):
        _, db, queries, _ = small_world
        entry = db.features(0)
        truth_query = next(q for q in queries if individual_of(q) == individual_of(entry))
        # Zero embeddings on both sides: degenerate images.
        zero = np.zeros((1, db.embeddings.shape[1]))
        hobbled = Images([entry.image_id], [individual_of(entry)], zero, lambda _: entry)
        candidate = rank_queries(
            hobbled,
            Images([truth_query.image_id], [None], zero, lambda _: truth_query),
            ["exponential"],
        )["exponential"]
        assert candidate.d_L[0, 0] == 2.0
        assert candidate.n[0, 0] > 0  # geometry ran despite the appearance blackout


class TestBuildDatabase:
    def test_requires_labels(self, small_world):
        _, db, queries, vocabulary = small_world
        with pytest.raises(ReidError, match="individual_id"):
            rank_queries(
                embedded_images(vocabulary, [db.features(0)], [None]),
                embedded_images(vocabulary, queries[:1]),
                ["exponential"],
            )

    def test_rejects_duplicate_ids(self, small_world):
        _, db, queries, vocabulary = small_world
        f = db.features(0)
        with pytest.raises(ReidError, match="duplicate"):
            rank_queries(
                embedded_images(vocabulary, [f, f]),
                embedded_images(vocabulary, queries[:1]),
                ["exponential"],
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
        vocabulary = train_vocabulary(feature_sets, TrainingParams(gmm_k=4, pca_dim=16))
        evaluation = evaluate(manifest, vocabulary, CombineParams(), "split")
        assert evaluation.protocol == "split"
        assert list(evaluation.results) == list(RULES)
        ranks, top = evaluation.results["exponential"]
        assert len(evaluation.truths) == len(ranks) == len(manifest.with_role("query"))
        assert top.rows.shape == (len(ranks), 1)
        accuracies = hit_rates(ranks, 3)
        assert len(accuracies) == 3
        assert all(b >= a for a, b in zip(accuracies, accuracies[1:]))
        assert evaluation.excluded == []

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
        vocabulary = train_vocabulary(feature_sets, TrainingParams(gmm_k=4, pca_dim=16))
        evaluation = evaluate(manifest, vocabulary, CombineParams(), "split")
        assert (queries[0].image_id, "unlabeled") in evaluation.excluded
        assert (queries[1].image_id, "no_database_match") in evaluation.excluded
        assert len(evaluation.truths) == len(queries) - 2
        assert all(len(ranks) == len(queries) - 2 for ranks, _ in evaluation.results.values())

    def test_missing_role_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path)
        db_only = Manifest(
            entries=manifest.with_role("database"), base_dir=manifest.base_dir
        )
        vocabulary = train_vocabulary(
            [load_entry_features(manifest, e) for e in manifest.with_role("database")],
            TrainingParams(gmm_k=4, pca_dim=16),
        )
        with pytest.raises(ReidError, match="query"):
            evaluate(db_only, vocabulary, CombineParams(), "split")


def test_unknown_protocol_named():
    # The CLI's token is not a protocol name; it is refused before anything is read.
    message = r"^protocol must be one of \('split', 'leave_one_out'\), got 'loo'$"
    with pytest.raises(ReidError, match=message):
        evaluate(Manifest(entries=[]), None, protocol="loo")


class TestEvaluateLeaveOneOut:
    def _vocabulary_for(self, manifest):
        return train_vocabulary(
            [load_entry_features(manifest, e) for e in manifest.with_role("database")],
            TrainingParams(gmm_k=4, pca_dim=16),
        )

    def test_two_images_one_individual(self, tmp_path):
        cfg = SynthConfig(seed=5, n_individuals=2, views_per_individual=2)
        manifest = generate_benchmark(cfg, tmp_path / "bench")
        vocabulary = self._vocabulary_for(manifest)
        solo = Manifest(
            entries=[e for e in manifest.entries if e.individual_id == "ind000"],
            base_dir=manifest.base_dir,
        )
        evaluation = evaluate(solo, vocabulary, CombineParams(), "leave_one_out")
        assert evaluation.protocol == "leave_one_out"
        assert len(evaluation.truths) == 2  # both roles pooled
        assert hit_rates(evaluation.results["exponential"][0], 1) == [1.0]

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
        evaluation = evaluate(pruned, vocabulary, CombineParams(), "leave_one_out")
        assert ("ind002_v0", "singleton_identity") in evaluation.excluded
        assert len(evaluation.truths) == len(keep) - 1

    def test_viewpoint_qualifies_identity_unit(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=4)
        # Fully viewpoint-labeled manifest: left for v0/v1, right for v2/v3.
        for e in manifest.entries:
            e.viewpoint = "left" if e.image_id[-1] in "01" else "right"
        vocabulary = self._vocabulary_for(manifest)
        evaluation = evaluate(manifest, vocabulary, CombineParams(), "leave_one_out")
        # Each (individual, viewpoint) unit has exactly 2 images, so nothing
        # is singleton and every query's truth unit is present once.
        assert evaluation.excluded == []
        assert len(evaluation.truths) == 8
        assert all("|" in truth for truth in evaluation.truths.values())

    def test_identity_units_stay_distinct(self, tmp_path):
        # Individual "x|y" at viewpoint "z" and individual "x" at viewpoint
        # "y|z" are two units: joined by a bare "|", both would be "x|y|z".
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=3, views=2)
        for e in manifest.entries:
            e.viewpoint = "left"
            if e.individual_id == "ind000":
                e.individual_id, e.viewpoint = "x|y", "z"
        manifest.entries[2].individual_id, manifest.entries[2].viewpoint = "x", "y|z"
        assert manifest.entries[2].image_id == "ind001_v0"
        evaluation = evaluate(manifest, self._vocabulary_for(manifest), CombineParams(),
                              "leave_one_out")
        assert evaluation.excluded == [("ind001_v0", "singleton_identity"),
                                       ("ind001_v1", "singleton_identity")]
        # Units print as individual|viewpoint, each part's \ and | escaped by a \.
        assert evaluation.truths == {"ind000_v0": r"x\|y|z", "ind000_v1": r"x\|y|z",
                                     "ind002_v0": "ind002|left", "ind002_v1": "ind002|left"}

    def test_all_excluded_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        for e in manifest.entries:
            e.individual_id = None
        with pytest.raises(ReidError, match="excluded"):
            evaluate(manifest, vocabulary, CombineParams(), "leave_one_out")

    def test_split_all_excluded_rejected(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        queries = manifest.with_role("query")
        queries[0].individual_id = None
        for e in queries[1:]:
            e.individual_id = "stranger"
        with pytest.raises(ReidError, match="excluded"):
            evaluate(manifest, vocabulary, CombineParams(), "split")

    def test_too_few_images(self, tmp_path):
        cfg, manifest = write_benchmark_manifest(tmp_path, n_individuals=2, views=2)
        vocabulary = self._vocabulary_for(manifest)
        solo = Manifest(entries=manifest.entries[:1], base_dir=manifest.base_dir)
        with pytest.raises(ReidError, match="at least 2"):
            evaluate(solo, vocabulary, CombineParams(), "leave_one_out")


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


def searched(manifest, vocabulary, protocol):
    """(database, queries, self_rows) of protocol's search, for a manifest
    whose images are all labeled and none a leave-one-out singleton."""
    if protocol == "split":
        db = load_images(manifest, manifest.with_role("database"), vocabulary)
        return db, load_images(manifest, manifest.with_role("query"), vocabulary), None
    db = load_images(manifest, manifest.entries, vocabulary)
    return db, db, list(range(len(db.image_ids)))


def records(evaluation, rule):
    """(query id, truth, rank of truth, d_L, n, omega, d_C) per query under
    rule, the last four of its first-ranked row, as Python values."""
    ranks, top = evaluation.results[rule]
    truths = evaluation.truths
    return list(zip(truths, truths.values(), ranks.tolist(),
                    *(a[:, 0].tolist() for a in (top.d_L, top.n, top.omega, top.d_C))))


def assert_matches_oracle(manifest, vocabulary, protocol, shortlist):
    """evaluate's records, and rank_queries' whole rankings and their d_C bit
    for bit, columns 2 .. N' too, which evaluate keeps only the first of,
    equal the oracle's under every rule."""
    params = CombineParams(shortlist_size=shortlist)
    evaluation = evaluate(manifest, vocabulary, params, protocol)
    db, queries, self_rows = searched(manifest, vocabulary, protocol)
    rankings = rank_queries(db, queries, RULES, params, self_rows=self_rows)
    for rule in RULES:
        oracle = ranking_oracle(manifest, vocabulary, rule, shortlist, protocol)
        assert records(evaluation, rule) == [record for record, _, _ in oracle]
        assert [record[0] for record, _, _ in oracle] == queries.image_ids
        ranked = [[db.image_ids[j] for j in row] for row in rankings[rule].rows.tolist()]
        assert ranked == [ids for _, ids, _ in oracle], rule
        d_c = np.array([d_cs for _, _, d_cs in oracle])
        np.testing.assert_array_equal(rankings[rule].d_C.view(np.uint64), d_c.view(np.uint64), rule)


class TestRankingOracle:
    @pytest.mark.parametrize("protocol", ["split", "leave_one_out"])
    @pytest.mark.parametrize("shortlist", [0, 3, 20])
    def test_evaluate_matches_oracle(self, noisy_world, protocol, shortlist):
        manifest, vocabulary = noisy_world
        assert 20 > len(manifest.entries)  # the last shortlist covers every image
        assert_matches_oracle(manifest, vocabulary, protocol, shortlist)

    @pytest.mark.parametrize("protocol", ["split", "leave_one_out"])
    def test_database_row_order_changes_nothing(self, noisy_world, protocol):
        """The database rows reversed among their own positions: the blank
        database images swap rows, and their tie at d_L 2 still decides the
        shortlist and the unverified columns by image id, as the oracle
        ranks them."""
        manifest, vocabulary = noisy_world
        entries = list(manifest.entries)
        at = [i for i, e in enumerate(entries) if e.role == "database"]
        for i, j in zip(at, reversed(at)):
            entries[i] = manifest.entries[j]
        assert entries != manifest.entries
        assert_matches_oracle(Manifest(entries, manifest.base_dir), vocabulary, protocol, 3)


class TestRankQueries:
    @pytest.mark.parametrize("protocol", ["split", "leave_one_out"])
    def test_batch_matches_one_query_at_a_time(self, noisy_world, protocol):
        # The blank images' d_L ties are broken by image id in both paths.
        manifest, vocabulary = noisy_world
        db, queries, self_rows = searched(manifest, vocabulary, protocol)
        params = CombineParams(shortlist_size=3)
        together = rank_queries(db, queries, RULES, params, self_rows=self_rows)
        assert len(together["exponential"].rows) == len(queries.image_ids) > 1
        for q, image_id in enumerate(queries.image_ids):
            one = Images([image_id], queries.individual_ids[q:q + 1], queries.embeddings[q:q + 1],
                         lambda _, q=q: queries.features(q))
            alone = rank_queries(db, one, RULES, params,
                                 self_rows=None if self_rows is None else self_rows[q:q + 1])
            for rule in RULES:
                for name, a, b in zip(Ranking._fields, together[rule], alone[rule]):
                    assert a[q].tolist() == b[0].tolist(), (image_id, rule, name)


class TestPerQueryCsv:
    def _evaluation(self, protocol="split", query_id="q1", truth="A",
                    excluded=(("q9", "unlabeled"),), rules=("polynomial",)):
        top = Ranking(*(np.array([[value]]) for value in (0, 0.25, 12, 0.5, 0.0625)))
        return Evaluation(protocol, {query_id: truth}, list(excluded),
                          {rule: (np.array([1]), top) for rule in rules})

    def test_structure(self, tmp_path):
        path = tmp_path / "per_query.csv"
        write_per_query_csv(self._evaluation(), 2, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rule,query_id,truth,rank_of_truth,d_L,n,omega,d_C"
        assert lines[1].startswith("polynomial,q1,A,1,0.25,12,0.5,")
        assert any(line.startswith("# protocol,split") for line in lines)
        assert any(line.startswith("# excluded,q9,unlabeled") for line in lines)
        assert lines[-2:] == ["# topk,polynomial,1,1.0", "# topk,polynomial,2,1.0"]

    def test_ids_with_commas_and_quotes_read_back_whole(self, tmp_path):
        evaluation = self._evaluation(query_id="ind001,v1", truth='ind001 "spotty"',
                                      excluded=[("ind009,v0", "no_database_match")])
        path = tmp_path / "per_query.csv"
        write_per_query_csv(evaluation, 2, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:4] == ["polynomial", "ind001,v1", 'ind001 "spotty"', "1"]
        assert len(rows[1]) == 8
        assert ["# excluded", "ind009,v0", "no_database_match"] in rows

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        evaluation = self._evaluation(rules=("exponential", "polynomial"))
        write_per_query_csv(evaluation, 2, a)
        write_per_query_csv(evaluation, 2, b)
        assert a.read_bytes() == b.read_bytes()
