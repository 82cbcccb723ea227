"""Descriptor matching, point normalization, DLT, and RANSAC tests."""

import numpy as np
import pytest

from patreid.geometry import (
    COLLINEAR_EPS,
    GeometryError,
    GeometryParams,
    _dlt_matrix,
    _minimal_homographies,
    _minimal_rows,
    _noncollinear,
    apply_homography,
    dlt_homography,
    geometric_similarity,
    homography_jacobian,
    match_descriptors,
    normalize_points,
    ransac_homography,
    reprojection_residuals,
)
from patreid.ingest import ImageFeatures
from patreid.synth import SynthConfig, generate_individual, render_observation


def features_from(points, descriptors, image_id="img"):
    points = np.asarray(points, dtype=np.float64)
    descriptors = np.asarray(descriptors, dtype=np.float64)
    frames = np.zeros((points.shape[0], 6))
    frames[:, :2] = points
    frames[:, 2] = 1.0
    frames[:, 5] = 1.0
    return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)


def unit_rows(rng, m, dim):
    v = rng.standard_normal((m, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def match_distances(query, db, matches):
    """Cosine distance of each (query index, db index) row, as the matcher computes it."""
    dist = 1.0 - query.descriptors @ db.descriptors.T
    return dist[matches[:, 0], matches[:, 1]]


def random_bounded_homography(rng, max_perspective=0.15):
    p = rng.uniform(-max_perspective, max_perspective, 8)
    return np.array(
        [[1 + p[0], p[1], p[2]], [p[3], 1 + p[4], p[5]], [p[6], p[7], 1.0]]
    )


class TestMatchDescriptors:
    def test_identical_sets(self):
        desc = np.eye(3, 8)
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        q, d = features_from(points, desc, "q"), features_from(points, desc, "d")
        matches = match_descriptors(q, d)
        assert matches.tolist() == [[0, 0], [1, 1], [2, 2]]
        np.testing.assert_array_equal(match_distances(q, d, matches), 0.0)

    def test_empty_side(self):
        rng = np.random.default_rng(1)
        full = features_from(np.zeros((2, 2)), unit_rows(rng, 2, 4))
        empty = ImageFeatures("e", np.zeros((0, 6)), np.zeros((0, 4)))
        assert match_descriptors(empty, full).shape == (0, 2)
        assert match_descriptors(full, empty).shape == (0, 2)

    def test_cutoff_inclusive(self):
        # Orthogonal descriptors sit at distance exactly 1.0; a cutoff of
        # 1.0 must keep them, anything lower must drop them.
        q = features_from([[0.0, 0.0]], [[1.0, 0.0]])
        d = features_from([[0.0, 0.0]], [[0.0, 1.0]])
        assert len(match_descriptors(q, d, max_distance=1.0)) == 1
        assert len(match_descriptors(q, d, max_distance=0.999)) == 0

    def test_mutual_filter(self):
        # db descriptor 0 is the NN of both queries, but its own NN is
        # query 0, so query 1's match is dropped under mutual matching.
        q = features_from(
            [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.9486832980505138, 0.31622776601683794]]
        )
        d = features_from([[5.0, 5.0]], [[1.0, 0.0]])
        mutual = match_descriptors(q, d, mutual=True)
        one_way = match_descriptors(q, d, mutual=False)
        assert mutual.tolist() == [[0, 0]]
        assert len(one_way) == 2

    def test_ratio_test_drops_ambiguous(self):
        # Best and second-best db descriptors sit at nearly equal angles
        # from the query, so best/second-best distance is ~0.96 and the
        # default 0.95 ratio cutoff rejects the match.
        q = features_from([[0.0, 0.0]], [[1.0, 0.0, 0.0]])
        d = features_from(
            [[0.0, 0.0], [1.0, 1.0]],
            [
                [np.cos(0.45), np.sin(0.45), 0.0],
                [np.cos(0.46), 0.0, np.sin(0.46)],
            ],
        )
        assert len(match_descriptors(q, d, mutual=False, ratio=0.95)) == 0
        assert len(match_descriptors(q, d, mutual=False)) == 1
        assert len(match_descriptors(q, d, mutual=False, ratio=0.97)) == 1

    def test_noisy_recovery_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        desc = unit_rows(rng, 5, 32)
        noisy = desc + rng.normal(0, 0.05, desc.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        points = rng.random((5, 2))
        matches = match_descriptors(
            features_from(points, desc, "q"), features_from(points, noisy, "d")
        )
        # Oracle: full pairwise distance matrix, mutual argmin by brute force.
        dist = 1.0 - desc @ noisy.T
        assert len(matches) == 5
        for qi, di in matches:
            assert di == int(np.argmin(dist[qi]))
            assert qi == int(np.argmin(dist[:, di]))
            assert qi == di

    def test_sorted_by_distance(self):
        rng = np.random.default_rng(4)
        desc = unit_rows(rng, 10, 16)
        noisy = desc + rng.normal(0, 0.1, desc.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        points = rng.random((10, 2))
        q, d = features_from(points, desc, "q"), features_from(points, noisy, "d")
        matches = match_descriptors(q, d)
        assert np.all(np.diff(match_distances(q, d, matches)) >= 0)
        # The order is by distance, not by index.
        assert not np.all(np.diff(matches[:, 0]) > 0)

    def test_ties_by_query_index(self):
        # Queries 0 and 2 share a descriptor, as do queries 1 and 3; without
        # the mutual check each pair ties on distance.
        q = features_from(
            np.zeros((4, 2)), [[0.6, 0.8], [1.0, 0.0], [0.6, 0.8], [1.0, 0.0]], "q"
        )
        d = features_from(np.zeros((2, 2)), [[1.0, 0.0], [0.8, 0.6]], "d")
        matches = match_descriptors(q, d, mutual=False)
        assert matches.tolist() == [[1, 0], [3, 0], [0, 1], [2, 1]]
        assert np.all(np.diff(match_distances(q, d, matches)) >= 0)


class TestNormalizePoints:
    def test_forced_example(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        np.testing.assert_allclose(
            normalize_points(points), [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], atol=1e-15
        )

    @pytest.mark.parametrize("points", [[[5.0, 7.0]], [[5.0, 7.0]] * 4])
    def test_coincident_points_rejected(self, points):
        with pytest.raises(GeometryError, match="coincident"):
            normalize_points(np.array(points))

    def test_postconditions_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            points = rng.normal(0, 10, (rng.integers(2, 40), 2))
            normalized = normalize_points(points)
            np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-12)
            assert abs(np.max(np.linalg.norm(normalized, axis=1)) - 1.0) < 1e-12
            # A pure shift and scale of the input.
            shifted = points - points.mean(axis=0)
            scale = np.max(np.linalg.norm(shifted, axis=1))
            np.testing.assert_allclose(normalized * scale, shifted, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            normalize_points(np.zeros((0, 2)))


class TestDltHomography:
    def test_identity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        H = dlt_homography(pts, pts).matrix
        np.testing.assert_allclose(H, np.eye(3), atol=1e-9)

    def test_collinear_rejected(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(GeometryError):
            dlt_homography(src, src)

    def test_too_few_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(GeometryError):
            dlt_homography(pts, pts)

    def test_recovers_random_homography_from_12_points(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            H_true = random_bounded_homography(rng)
            src = rng.uniform(-1, 1, (12, 2))
            dst = apply_homography(H_true, src)
            H = dlt_homography(src, dst).matrix
            np.testing.assert_allclose(H, H_true / H_true[2, 2], atol=1e-6)

    def test_h33_one_after_scaling(self):
        rng = np.random.default_rng(9)
        H_true = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (8, 2))
        H = dlt_homography(src, apply_homography(H_true, src))
        assert H.matrix[2, 2] == 1.0
        assert not H.frobenius_scaled


class TestHomographyHelpers:
    def test_apply_identity(self):
        pts = np.random.default_rng(0).random((7, 2))
        np.testing.assert_array_equal(apply_homography(np.eye(3), pts), pts)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        H = random_bounded_homography(rng)
        pts = rng.uniform(-1, 1, (5, 2))
        jac = homography_jacobian(H, pts)
        h = 1e-7
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (apply_homography(H, pts + step) - apply_homography(H, pts - step)) / (2 * h)
            np.testing.assert_allclose(jac[:, :, axis], fd, atol=1e-6)

    def test_residuals_zero_on_exact_data(self):
        rng = np.random.default_rng(2)
        H = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (10, 2))
        res = reprojection_residuals(H, src, apply_homography(H, src))
        np.testing.assert_allclose(res, 0.0, atol=1e-12)


class TestRansacHomography:
    def test_pure_inliers_any_threshold(self):
        rng = np.random.default_rng(0)
        H_true = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (30, 2))
        dst = apply_homography(H_true, src)
        for threshold in (1e-6, 0.05, 0.5):
            verdict = ransac_homography(src, dst, inlier_threshold=threshold, seed=1)
            assert verdict.n == 30
            assert verdict.omega == 1.0
            assert np.all(verdict.inlier_mask)

    def test_three_correspondences(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        verdict = ransac_homography(src, src, 0.05, seed=0)
        assert verdict.n == 0
        assert verdict.omega == 0.0
        assert verdict.homography is None

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        H_true = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (50, 2))
        dst = apply_homography(H_true, src)
        dst[:20] = rng.uniform(-1, 1, (20, 2))
        a = ransac_homography(src, dst, 0.05, seed=7)
        b = ransac_homography(src, dst, 0.05, seed=7)
        assert a.n == b.n and a.omega == b.omega
        np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)
        np.testing.assert_array_equal(a.homography.matrix, b.homography.matrix)

    def test_invariants(self):
        rng = np.random.default_rng(4)
        H_true = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (40, 2))
        dst = apply_homography(H_true, src)
        dst[:15] = rng.uniform(-1, 1, (15, 2))
        verdict = ransac_homography(src, dst, 0.05, seed=2)
        assert verdict.n == int(np.sum(verdict.inlier_mask))
        assert 0.0 <= verdict.omega <= 1.0
        assert round(verdict.omega * len(src)) == verdict.n

    def test_outlier_rejection(self):
        rng = np.random.default_rng(5)
        H_true = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (60, 2))
        dst = apply_homography(H_true, src)
        outliers = np.zeros(60, dtype=bool)
        outliers[:24] = True
        for i in np.flatnonzero(outliers):
            while True:
                candidate = rng.uniform(-1, 1, 2)
                if np.linalg.norm(candidate - dst[i]) >= 0.1:
                    dst[i] = candidate
                    break
        verdict = ransac_homography(src, dst, 0.05, seed=11)
        np.testing.assert_array_equal(verdict.inlier_mask, ~outliers)
        np.testing.assert_allclose(
            verdict.homography.matrix, H_true / H_true[2, 2], atol=1e-6
        )

    @pytest.mark.parametrize("threshold", [0.0, -0.05, float("nan"), float("inf")])
    def test_invalid_threshold_rejected(self, threshold):
        src = np.random.default_rng(6).uniform(-1, 1, (10, 2))
        with pytest.raises(GeometryError, match="inlier_threshold"):
            ransac_homography(src, src, threshold, seed=0)

    def test_mismatched_shapes_rejected(self):
        src = np.random.default_rng(6).uniform(-1, 1, (10, 2))
        with pytest.raises(GeometryError, match="src/dst"):
            ransac_homography(src, src[:9], 0.05, seed=0)


# (x, y) -> (1/x, y/x): h33 = 0, so no h33 = 1 solution exists.
H33_ZERO = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
# Dyadic points keep every DLT entry exact, so the 8x8 system of the first
# four points is singular in floating point too (LU meets an exact zero pivot).
H33_ZERO_SRC = np.array(
    [[1.0, 0.5], [2.0, -1.0], [-1.0, 1.0], [4.0, 2.0], [-2.0, -0.5], [0.5, -2.0], [-4.0, 1.0]]
)


def svd_homographies(src, dst):
    _, _, Vh = np.linalg.svd(_dlt_matrix(src, dst))
    return Vh[:, -1, :].reshape(-1, 3, 3)


def minimal_homographies(src, dst):
    """_minimal_homographies over (B, 4, 2) samples given side by side."""
    src, dst = src.reshape(-1, 2), dst.reshape(-1, 2)
    idx = np.arange(src.shape[0]).reshape(-1, 4)
    return _minimal_homographies(_minimal_rows(src, dst), src, dst, idx)


@pytest.fixture
def solve_failures(monkeypatch):
    """Count the np.linalg.solve calls that raise LinAlgError."""
    solve = np.linalg.solve
    failures = []

    def counting_solve(*args):
        try:
            return solve(*args)
        except np.linalg.LinAlgError:
            failures.append(args)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return failures


def noncollinear_loop(quads):
    """Reference degeneracy test: one (B, 4, 2) side, one triple at a time."""
    ok = np.ones(quads.shape[0], dtype=bool)
    for i, j, k in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        ab = quads[:, j] - quads[:, i]
        ac = quads[:, k] - quads[:, i]
        ok &= np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]) > COLLINEAR_EPS
    return ok


class TestMinimalSolver:
    def test_noncollinear_matches_per_triple_loop(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-1, 1, (4000, 4, 2, 2))
        # Put the fourth point on or next to the line through the first two,
        # on one side or the other, so areas straddle COLLINEAR_EPS.
        near = rng.random(4000) < 0.5
        side = rng.integers(0, 2, 4000)
        t = rng.uniform(-2, 2, 4000)
        offset = rng.choice([0.0, 1e-10, 5e-10, 2e-9, 1e-6], 4000)
        rows = np.flatnonzero(near)
        p0, p1 = samples[rows, 0, side[rows]], samples[rows, 1, side[rows]]
        samples[rows, 3, side[rows]] = p0 + t[rows, None] * (p1 - p0) + offset[rows, None]
        expected = noncollinear_loop(samples[:, :, 0]) & noncollinear_loop(samples[:, :, 1])
        assert 0 < expected.sum() < expected.size
        np.testing.assert_array_equal(_noncollinear(samples), expected)

    def test_solve_equals_svd_null_vector(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(-1, 1, (200, 4, 2))
        dst = np.stack(
            [apply_homography(random_bounded_homography(rng, 0.3), s) for s in src]
        )
        H = minimal_homographies(src, dst)
        np.testing.assert_array_equal(H[:, 2, 2], 1.0)
        H_svd = svd_homographies(src, dst)
        np.testing.assert_allclose(H, H_svd / H_svd[:, 2:3, 2:3], rtol=0, atol=1e-9)

    def test_singular_chunk_falls_back_to_svd(self, solve_failures):
        rng = np.random.default_rng(9)
        singular_src = H33_ZERO_SRC[None, :4]
        singular_dst = apply_homography(H33_ZERO, H33_ZERO_SRC[:4])[None]
        src = np.concatenate([rng.uniform(-1, 1, (5, 4, 2)), singular_src])
        dst = np.concatenate([rng.uniform(-1, 1, (5, 4, 2)), singular_dst])
        H = minimal_homographies(src, dst)
        assert len(solve_failures) == 1
        np.testing.assert_array_equal(H, svd_homographies(src, dst))
        assert H[-1, 2, 2] == pytest.approx(0.0, abs=1e-12)

    def test_ransac_fallback_matches_svd_path(self, solve_failures, monkeypatch):
        rng = np.random.default_rng(10)
        src = np.vstack([H33_ZERO_SRC, rng.uniform(-2, 2, (5, 2))])
        dst = np.vstack(
            [apply_homography(H33_ZERO, H33_ZERO_SRC), rng.uniform(-2, 2, (5, 2))]
        )
        mixed = ransac_homography(src, dst, 0.05, seed=3)
        assert solve_failures

        def singular_solve(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular_solve)
        svd_only = ransac_homography(src, dst, 0.05, seed=3)
        assert mixed.n == svd_only.n >= 7
        np.testing.assert_array_equal(mixed.inlier_mask, svd_only.inlier_mask)


class TestGeometricSimilarity:
    def test_self_match_full_consensus(self):
        cfg = SynthConfig(seed=2, n_individuals=1, views_per_individual=2)
        c = generate_individual(cfg, 0)
        features, _, _ = render_observation(c, cfg, 1)
        verdict = geometric_similarity(features, features, seed=0)
        assert verdict.omega == 1.0
        assert verdict.n == features.count

    def test_deterministic_and_seed_sensitive(self):
        cfg = SynthConfig(seed=2, n_individuals=2, views_per_individual=2)
        a = generate_individual(cfg, 0)
        b = generate_individual(cfg, 1)
        fa, _, _ = render_observation(a, cfg, 1)
        fb, _, _ = render_observation(b, cfg, 0)
        v1 = geometric_similarity(fa, fb, seed=5)
        v2 = geometric_similarity(fa, fb, seed=5)
        assert (v1.n, v1.omega) == (v2.n, v2.omega)

    def test_no_matches_zero_verdict(self):
        q = features_from([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], "q")
        d = features_from([[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [-1.0, 0.0]], "d")
        verdict = geometric_similarity(q, d, seed=0)
        assert verdict.n == 0 and verdict.omega == 0.0
        assert verdict.homography is None

    def test_coincident_points_zero_verdict(self):
        # Four clean matches whose query-side centers all coincide: no scale
        # to normalize by, so the pair gets the n = 0 verdict.
        desc = np.eye(4, 8)
        q = features_from(np.full((4, 2), 3.0), desc, "q")
        d = features_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], desc, "d")
        verdict = geometric_similarity(q, d, seed=0)
        assert verdict.n == 0 and verdict.omega == 0.0
        assert verdict.homography is None
        assert verdict.inlier_mask.shape == (4,)

    def test_same_individual_views_verify(self):
        # Frozen regression on a small benchmark: every same-individual
        # pair keeps at least half its surviving true points as inliers.
        cfg = SynthConfig(seed=11, n_individuals=6, views_per_individual=4)
        for i in range(cfg.n_individuals):
            c = generate_individual(cfg, i)
            db_view, _, _ = render_observation(c, cfg, 0)
            for v in range(1, cfg.views_per_individual):
                query, _, source_index = render_observation(c, cfg, v)
                retained = int(np.sum(source_index >= 0))
                verdict = geometric_similarity(
                    query, db_view, GeometryParams(inlier_threshold=0.1), seed=0
                )
                assert verdict.n >= 0.5 * retained

    def test_different_individual_views_rejected(self):
        # Frozen regression (same benchmark): at inlier threshold 0.05 at
        # least 95% of cross-individual pairs fall below omega 0.2
        # (measured 89/90); at the looser 0.1 threshold spurious consensus
        # is larger (measured 65/90 below 0.2, max 0.250), so only a coarse
        # ceiling is asserted there.
        cfg = SynthConfig(seed=11, n_individuals=6, views_per_individual=4)
        inds = [generate_individual(cfg, i) for i in range(cfg.n_individuals)]
        db = {c.individual_id: render_observation(c, cfg, 0)[0] for c in inds}
        queries = [
            (c.individual_id, render_observation(c, cfg, v)[0])
            for c in inds
            for v in range(1, cfg.views_per_individual)
        ]
        strict_params = GeometryParams(inlier_threshold=0.05)
        loose_params = GeometryParams(inlier_threshold=0.1)
        strict, loose = [], []
        for individual_id, query in queries:
            for other_id, db_view in db.items():
                if other_id == individual_id:
                    continue
                strict.append(
                    geometric_similarity(query, db_view, strict_params, seed=0).omega
                )
                loose.append(
                    geometric_similarity(query, db_view, loose_params, seed=0).omega
                )
        strict, loose = np.array(strict), np.array(loose)
        assert np.mean(strict < 0.2) >= 0.95
        assert np.mean(loose < 0.2) >= 0.60
        assert np.max(loose) < 0.35


class TestGeometryParams:
    def test_defaults_valid(self):
        GeometryParams().validate()

    @pytest.mark.parametrize(
        "kwargs, pattern",
        [
            ({"inlier_threshold": 0.0}, "inlier_threshold"),
            ({"inlier_threshold": -0.1}, "inlier_threshold"),
            ({"inlier_threshold": float("nan")}, "inlier_threshold"),
            ({"inlier_threshold": float("inf")}, "inlier_threshold"),
            ({"max_distance": 0.0}, "max_distance"),
            ({"max_distance": 2.5}, "max_distance"),
            ({"max_distance": float("nan")}, "max_distance"),
            ({"ratio": 0.0}, "ratio"),
            ({"ratio": 1.5}, "ratio"),
            ({"ratio": float("nan")}, "ratio"),
        ],
    )
    def test_invalid(self, kwargs, pattern):
        with pytest.raises(GeometryError, match=f"^{pattern} must"):
            GeometryParams(**kwargs).validate()

    def test_geometric_similarity_validates(self):
        f = features_from(np.zeros((1, 2)), [[1.0, 0.0]])
        with pytest.raises(GeometryError, match="inlier_threshold"):
            geometric_similarity(f, f, GeometryParams(inlier_threshold=float("nan")))


# (n, omega) of geometric_similarity(query, db, seed=0) for every query (views
# 1-2) against every database image (view 0, in individual order) of the
# seed-3 synthetic set with 4 individuals x 3 views, recorded with the SVD
# minimal solver.  A change to RANSAC that moves a verdict must update these
# literals and show the diff.
PINNED_VERDICTS = {
    "ind000_v1": [(64, 0.9411764705882353), (7, 0.175), (9, 0.23076923076923078), (8, 0.18181818181818182)],
    "ind000_v2": [(59, 0.9365079365079365), (7, 0.19444444444444445), (8, 0.20512820512820512), (9, 0.23076923076923078)],
    "ind001_v1": [(7, 0.1891891891891892), (65, 1.0), (7, 0.16666666666666666), (8, 0.18181818181818182)],
    "ind001_v2": [(7, 0.175), (62, 1.0), (9, 0.25), (7, 0.1891891891891892)],
    "ind002_v1": [(7, 0.1794871794871795), (8, 0.17777777777777778), (66, 0.9850746268656716), (6, 0.15384615384615385)],
    "ind002_v2": [(7, 0.18421052631578946), (8, 0.2), (61, 0.9838709677419355), (8, 0.1951219512195122)],
    "ind003_v1": [(8, 0.1702127659574468), (7, 0.1794871794871795), (7, 0.2), (66, 0.9850746268656716)],
    "ind003_v2": [(7, 0.1590909090909091), (7, 0.16279069767441862), (7, 0.175), (64, 0.9846153846153847)],
}


def test_pinned_verdicts():
    cfg = SynthConfig(seed=3, n_individuals=4, views_per_individual=3)
    inds = [generate_individual(cfg, i) for i in range(cfg.n_individuals)]
    db = [render_observation(c, cfg, 0)[0] for c in inds]
    got = {}
    for c in inds:
        for v in range(1, cfg.views_per_individual):
            query = render_observation(c, cfg, v)[0]
            got[query.image_id] = [
                (verdict.n, verdict.omega)
                for verdict in (geometric_similarity(query, d, seed=0) for d in db)
            ]
    assert got == PINNED_VERDICTS
