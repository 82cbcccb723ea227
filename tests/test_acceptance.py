"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` — the verdict lines print
unconditionally (they bypass output capture), so each criterion reports
exactly once.  AC-5 and AC-6 share one full-size benchmark evaluation, which
also checks that a model file's database index changes no byte of its CSV
against parsing and embedding every row; the whole suite is single-threaded.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import dense_kpca_oracle, embedded_images, fisher_fd_oracle, ransac_homography

from patreid.cli import main
from patreid.encode import (
    cosine_distance,
    embed_image,
    fisher_encode,
    power_l2_normalize,
    train_vocabulary,
)
from patreid.geometry import apply_homography, dlt_homography
from patreid.ingest import (
    ImageFeatures,
    Manifest,
    ManifestEntry,
    load_entry_features,
    load_manifest,
    write_feature_file,
    write_manifest,
)
from patreid.reid import (
    RULES,
    Candidates,
    CombineParams,
    RankedResult,
    combine_exponential,
    combine_polynomial,
    evaluate,
    query_database,
    topk_accuracy,
    write_per_query_csv,
)
from patreid.reid import _combine
from patreid.synth import SynthConfig, generate_benchmark, generate_individual, render_observation
from patreid.vocab import (
    DatabaseIndex,
    Gmm,
    PcaModel,
    fit_gmm,
    fit_kpca,
    fit_pca,
    apply_pca,
    load_vocabulary,
    save_vocabulary,
)


def verdict(capsys, label, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}{suffix}"


def features_with(descriptors, image_id="img"):
    descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    m = descriptors.shape[0]
    frames = np.zeros((m, 6))
    frames[:, 0] = np.arange(m, dtype=np.float64)
    frames[:, 2] = 1.0
    frames[:, 5] = 1.0
    return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)


def identity_pca(dim):
    return PcaModel(mean=np.zeros(dim), basis=np.eye(dim), eigenvalues=np.ones(dim))


def test_ac1_fisher_gradient_oracle(capsys):
    """Fisher encoding equals finite differences of the log-likelihood."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 4))
        weights = rng.uniform(0.5, 1.5, 3)
        gmm = Gmm(
            weights=weights / weights.sum(),
            means=rng.standard_normal((3, 4)),
            variances=rng.uniform(0.5, 2.0, (3, 4)),
        )
        fv = fisher_encode(features_with(X), identity_pca(4), gmm)
        fd = fisher_fd_oracle(X, gmm)
        # Relative error with a floor that absorbs finite-difference noise
        # on near-zero components (the oracle's own error is ~1e-9).
        scale = np.maximum(np.abs(fd), 1e-2)
        worst = max(worst, float(np.max(np.abs(fv - fd) / scale)))
    elapsed = time.perf_counter() - t0
    verdict(
        capsys,
        "AC-1 Fisher gradient vs finite differences",
        worst < 1e-5 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_ac2_em_monotonicity_and_k1_recovery(capsys):
    """EM log-likelihood never decreases; K=1 recovers sample moments."""
    worst_drop = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        centers = rng.uniform(-5, 5, (4, 8))
        X = np.vstack([rng.normal(c, rng.uniform(0.5, 1.5), (125, 8)) for c in centers])
        # tol=1e-6 runs EM past the default 1e-3 stop, so longer traces
        # are checked.
        gmm = fit_gmm(X, k=4, seed=seed, tol=1e-6)
        if len(gmm.log_likelihoods) > 1:
            worst_drop = min(worst_drop, float(np.min(np.diff(gmm.log_likelihoods))))

    rng = np.random.default_rng(7)
    X = rng.standard_normal((500, 8)) * 1.3 + 0.4
    single = fit_gmm(X, k=1)
    mean_err = float(np.max(np.abs(single.means[0] - X.mean(axis=0))))
    var_err = float(np.max(np.abs(single.variances[0] - X.var(axis=0))))
    verdict(
        capsys,
        "AC-2 EM monotonicity and K=1 closed form",
        worst_drop >= -1e-9 and mean_err < 1e-10 and var_err < 1e-10,
        f"worst LL step {worst_drop:.2e}, moment errs {mean_err:.1e}/{var_err:.1e}",
    )


def test_ac3_geometry_oracles(capsys):
    """DLT recovers exact homographies; RANSAC isolates planted outliers."""
    t0 = time.perf_counter()
    dlt_ok = True
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        p = rng.uniform(-0.15, 0.15, 8)
        H_true = np.array(
            [[1 + p[0], p[1], p[2]], [p[3], 1 + p[4], p[5]], [p[6], p[7], 1.0]]
        )
        src = rng.uniform(-1, 1, (12, 2))
        H = dlt_homography(src, apply_homography(H_true, src)).matrix
        dlt_ok = dlt_ok and bool(np.max(np.abs(H - H_true)) < 1e-6)

    exact = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-0.15, 0.15, 8)
        H_true = np.array(
            [[1 + p[0], p[1], p[2]], [p[3], 1 + p[4], p[5]], [p[6], p[7], 1.0]]
        )
        src = rng.uniform(-1, 1, (200, 2))
        dst = apply_homography(H_true, src)
        outliers = rng.choice(200, 80, replace=False)
        truth = np.ones(200, dtype=bool)
        truth[outliers] = False
        for i in outliers:
            # Outlier destinations stay at least twice the inlier threshold
            # away from the true projection, so the ground-truth mask is
            # unambiguous.
            while True:
                candidate = rng.uniform(-1, 1, 2)
                if np.linalg.norm(candidate - dst[i]) >= 0.1:
                    dst[i] = candidate
                    break
        result = ransac_homography(src, dst, inlier_threshold=0.05, seed=seed)
        exact += int(np.array_equal(result.inlier_mask, truth))
    elapsed = time.perf_counter() - t0
    verdict(
        capsys,
        "AC-3 DLT and RANSAC oracles",
        dlt_ok and exact >= 95 and elapsed < 10.0,
        f"dlt ok={dlt_ok}, exact mask {exact}/100, {elapsed:.2f}s",
    )


def test_ac4_unit_exactness(capsys):
    """Every definitional encoding/scoring identity holds to 1e-12."""
    checks = []

    # Fisher encoding identities.
    mu = np.array([0.3, -0.7, 1.1])
    gmm1 = Gmm(weights=np.ones(1), means=mu[None, :], variances=np.full((1, 3), 0.8))
    fv = fisher_encode(features_with(np.tile(mu, (7, 1))), identity_pca(3), gmm1)
    checks.append(np.max(np.abs(fv[:3])) < 1e-12)
    checks.append(np.max(np.abs(fv[3:] + 1.0 / np.sqrt(2.0))) < 1e-12)

    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    gmm = fit_gmm(X, k=2, seed=0)
    fv_a = fisher_encode(features_with(X), identity_pca(4), gmm)
    fv_b = fisher_encode(features_with(X[rng.permutation(12)]), identity_pca(4), gmm)
    checks.append(np.max(np.abs(fv_a - fv_b)) < 1e-12)

    # Power/L2 normalization identities.
    out = power_l2_normalize(np.array([4.0, -4.0]))
    checks.append(
        np.max(np.abs(out - [0.7071067811865476, -0.7071067811865476])) < 1e-12
    )
    unit = np.array([0.6, 0.8])
    checks.append(np.max(np.abs(power_l2_normalize(unit, alpha=1.0) - unit)) < 1e-12)
    checks.append(
        abs(np.linalg.norm(power_l2_normalize(rng.standard_normal(9))) - 1.0) < 1e-12
    )

    # Cosine distance identities.
    v = rng.standard_normal(6)
    a = v / np.linalg.norm(v)
    checks.append(abs(cosine_distance(a, a)) < 1e-12)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    e3 = np.array([-1.0, 0.0])
    checks.append(abs(cosine_distance(e1, e2) - 1.0) < 1e-12)
    checks.append(abs(cosine_distance(e1, e3) - 2.0) < 1e-12)

    # Polynomial rule identities.
    checks.append(combine_polynomial(0.37, 0.0, 2.0) == 0.37)
    checks.append(combine_polynomial(0.37, 1.0, 2.0) == 0.0)
    checks.append(abs(combine_polynomial(0.8, 0.5, 2.0) - 0.2) < 1e-12)

    # Exponential rule identities.
    checks.append(combine_exponential(0.42, 0) == 1.0)
    checks.append(combine_exponential(1.0, 25) == 1.0)
    checks.append(abs(combine_exponential(0.9, 10) - 0.34867844010000015) < 1e-12)

    # Rule dispatch identities.
    checks.append(
        _combine(CombineParams(rule="appearance_only"), 0.77, 5, 0.5) == 0.77
    )
    checks.append(_combine(CombineParams(rule="geometry_only"), 0.77, 17, 0.5) == -17.0)

    # Ranked-retrieval identities on a small synthetic world.
    cfg = SynthConfig(seed=21, n_individuals=3, views_per_individual=2)
    constellations = [generate_individual(cfg, i) for i in range(3)]
    db_features = [render_observation(c, cfg, 0)[0] for c in constellations]
    queries = [render_observation(c, cfg, 1)[0] for c in constellations]
    vocabulary = train_vocabulary(db_features, gmm_k=2, pca_dim=8)
    db = embedded_images(vocabulary, db_features)
    self_result = query_database(db, vocabulary, db_features[0], CombineParams())
    checks.append(self_result.candidates.image_ids[0] == db_features[0].image_id)
    checks.append(self_result.candidates.d_C[0] == min(self_result.candidates.d_C))
    full = query_database(db, vocabulary, queries[0], CombineParams(shortlist_size=0))
    covering = query_database(
        db, vocabulary, queries[0], CombineParams(shortlist_size=len(db.image_ids))
    )
    checks.append(full.candidates.image_ids == covering.candidates.image_ids)
    checks.append(full.individuals == covering.individuals)

    # Distinct-individual top-k counting: two images of B ahead of one of A.
    dup = RankedResult(
        query_image_id="q",
        candidates=Candidates(
            image_ids=["b1", "b2", "a1"],
            individual_ids=["B", "B", "A"],
            d_L=np.array([0.1, 0.2, 0.3]),
            n=np.zeros(3, dtype=int),
            omega=np.zeros(3),
            d_C=np.array([0.1, 0.2, 0.3]),
            verified=np.zeros(3, dtype=bool),
        ),
        individuals=["B", "A"],
    )
    checks.append(topk_accuracy([dup], {"q": "A"}, 1) == 0.0)
    checks.append(topk_accuracy([dup], {"q": "A"}, 2) == 1.0)
    both = [
        RankedResult("q1", [], ["A", "B"]),
        RankedResult("q2", [], ["B", "A"]),
    ]
    checks.append(topk_accuracy(both, {"q1": "A", "q2": "B"}, 1) == 1.0)

    verdict(
        capsys,
        "AC-4 unit exactness of encoding and scoring identities",
        all(checks),
        f"{sum(checks)}/{len(checks)} identities",
    )


@pytest.fixture(scope="module")
def table_benchmark(tmp_path_factory):
    """Full-size benchmark evaluated once with every rule, timed."""
    root = tmp_path_factory.mktemp("table")
    config = SynthConfig(seed=42, n_individuals=25, views_per_individual=6)
    vocab_path = root / "vocab.txt"
    manifest_path = root / "bench" / "manifest.csv"

    t0 = time.perf_counter()
    generate_benchmark(config, root / "bench")
    manifest = load_manifest(manifest_path)
    feature_sets = [
        load_entry_features(manifest, e) for e in manifest.with_role("database")
    ]
    vocabulary = train_vocabulary(feature_sets)
    save_vocabulary(vocabulary, vocab_path)

    def run_evaluation(csv_path):
        manifest = load_manifest(manifest_path)
        with load_vocabulary(vocab_path) as vocabulary:
            reports = evaluate(
                manifest,
                vocabulary,
                [CombineParams(rule=rule) for rule in RULES],
                "split",
                k_max=5,
            )
        write_per_query_csv(reports, csv_path)
        return reports

    reports = run_evaluation(root / "run_a.csv")
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        root=root,
        reports=reports,
        elapsed=elapsed,
        run_evaluation=run_evaluation,
        n_queries=len(manifest.with_role("query")),
        gmm_trace=vocabulary.gmm.log_likelihoods,
    )


def test_ac5_benchmark_rule_ordering(capsys, table_benchmark):
    """Geometric verification helps: exponential rule tops the grid."""
    reports = table_benchmark.reports
    top1 = {rule: reports[rule].accuracies[0] for rule in RULES}
    monotone = all(
        all(b >= a for a, b in zip(r.accuracies, r.accuracies[1:]))
        for r in reports.values()
    )
    counted = all(
        len(r.records) == table_benchmark.n_queries for r in reports.values()
    )
    ok = (
        top1["exponential"] >= top1["geometry_only"]
        and top1["exponential"] >= top1["appearance_only"]
        and top1["exponential"] >= 0.90
        and monotone
        and counted
        and table_benchmark.elapsed < 120.0
    )
    detail = (
        f"top-1 app={top1['appearance_only']:.3f} geom={top1['geometry_only']:.3f} "
        f"poly={top1['polynomial']:.3f} exp={top1['exponential']:.3f}, "
        f"{table_benchmark.elapsed:.0f}s"
    )
    verdict(capsys, "AC-5 benchmark rule ordering and accuracy", ok, detail)


def test_ac6_determinism(capsys, table_benchmark):
    """A second identical evaluation reproduces the per-query CSV exactly."""
    second = table_benchmark.root / "run_b.csv"
    table_benchmark.run_evaluation(second)
    a = (table_benchmark.root / "run_a.csv").read_bytes()
    b = second.read_bytes()
    verdict(
        capsys,
        "AC-6 byte-identical repeated evaluation",
        a == b,
        f"{len(a)} bytes",
    )


def test_em_stops_at_convergence(table_benchmark):
    """On the benchmark's database, EM ends on its tol rule, not its cap."""
    trace = table_benchmark.gmm_trace
    assert len(trace) < 200
    assert trace[-1] - trace[-2] < 1e-3


def test_indexed_model_reproduces_benchmark_csv(table_benchmark):
    """AC-5's CSV, whose database rows come from the model file's index, is
    byte for byte the CSV of a model with a zero-row index, which parses and
    embeds every row; build-vocab writes the library's model file."""
    root = table_benchmark.root
    manifest = root / "bench" / "manifest.csv"
    built = root / "built.bin"
    assert main(["build-vocab", "--manifest", str(manifest), "--out", str(built)]) == 0
    assert built.read_bytes() == (root / "vocab.txt").read_bytes()
    with load_vocabulary(built) as vocabulary:
        assert len(vocabulary.index.image_ids) == len(load_manifest(manifest).with_role("database"))
        m = vocabulary.kpca.out_dim
        empty = DatabaseIndex([], np.zeros((0, m)), np.zeros(0, dtype=np.int64))
        save_vocabulary(replace(vocabulary, index=empty), root / "unindexed.bin")
    assert main(["evaluate", "--manifest", str(manifest), "--vocab", str(root / "unindexed.bin"),
                 "--per-query-csv", str(root / "unindexed.csv")]) == 0
    assert (root / "unindexed.csv").read_bytes() == (root / "run_a.csv").read_bytes()


def test_ac7_kpca_oracles(capsys):
    """Kernel PCA matches a dense oracle and linear PCA on a dot kernel."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 24))
    out_dim = 8
    model = fit_kpca(X, out_dim)
    lam, projections = dense_kpca_oracle(X, out_dim)
    eig_err = float(np.max(np.abs(model.eigenvalues - lam)))
    proj_err = 0.0
    for j in range(out_dim):
        col = model.training_projections[:, j]
        ref = projections[:, j]
        proj_err = max(
            proj_err, min(np.max(np.abs(col - ref)), np.max(np.abs(col + ref)))
        )

    pca = fit_pca(X, out_dim)
    Y = apply_pca(pca, X)
    pca_err = 0.0
    for j in range(out_dim):
        col = model.training_projections[:, j]
        ref = Y[:, j]
        pca_err = max(
            pca_err, min(np.max(np.abs(col - ref)), np.max(np.abs(col + ref)))
        )
    verdict(
        capsys,
        "AC-7 kernel PCA vs dense oracle and linear PCA",
        eig_err < 1e-8 and proj_err < 1e-8 and pca_err < 1e-8,
        f"eig {eig_err:.1e}, proj {proj_err:.1e}, pca {pca_err:.1e}",
    )


def test_ac8_leave_one_out_protocol(capsys, tmp_path):
    """Hand-built 5-image pool: the singleton is excluded, the rest score 1."""
    cfg = SynthConfig(seed=77, n_individuals=3, views_per_individual=2)
    constellations = [generate_individual(cfg, i) for i in range(3)]
    images = []  # (image_id, individual, view)
    for c in constellations[:2]:
        for v in range(2):
            images.append((c, v))
    images.append((constellations[2], 0))  # the singleton

    entries = []
    all_features = []
    for i, (constellation, view) in enumerate(images):
        features, _, _ = render_observation(constellation, cfg, view)
        write_feature_file(features, tmp_path / f"{features.image_id}.patf")
        all_features.append(features)
        entries.append(
            ManifestEntry(
                image_id=features.image_id,
                individual_id=constellation.individual_id,
                viewpoint=None,
                # Mixed roles on purpose: the pooled protocol must ignore them.
                role="database" if i % 2 == 0 else "query",
                feature_path=f"{features.image_id}.patf",
            )
        )
    manifest_path = tmp_path / "manifest.csv"
    write_manifest(Manifest(entries=entries, base_dir=tmp_path), manifest_path)
    manifest = load_manifest(manifest_path)

    vocabulary = train_vocabulary(all_features, gmm_k=4, pca_dim=16)
    report = evaluate(
        manifest, vocabulary, [CombineParams()], "leave_one_out", k_max=3
    )["exponential"]

    checks = [
        report.excluded == [("ind002_v0", "singleton_identity")],
        len(report.records) == 4,
        all(r.rank_of_truth == 1 for r in report.records),
        report.accuracies == [1.0, 1.0, 1.0],
        # Each query faces the other 4 images = 3 distinct individuals, and
        # the surviving same-individual view must out-score both strangers.
        all(r.d_C <= 1e-3 for r in report.records),
    ]
    verdict(
        capsys,
        "AC-8 leave-one-out exclusion and scoring",
        all(checks),
        f"excluded={report.excluded}, ranks={[r.rank_of_truth for r in report.records]}",
    )
