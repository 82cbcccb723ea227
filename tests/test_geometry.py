"""Descriptor matching, point normalization, DLT, RANSAC oracle and verifier tests."""

import dataclasses

import numpy as np
import pytest
from oracles import (
    COLLINEAR_EPS,
    _minimal_homographies,
    _minimal_rows,
    _noncollinear,
    normalize_points,
    ransac_homography,
    reprojection_residuals,
)

from patreid.geometry import (
    SCORE_BUDGET,
    GeometryError,
    GeometryParams,
    _affine_maps,
    _dlt_matrix,
    _normalized,
    apply_homography,
    dlt_homography,
    homography_jacobian,
    match_descriptors,
    verify_shortlist,
)
from patreid.ingest import ImageFeatures, parse_feature_file, write_feature_file
from patreid.synth import SynthConfig, derive_seed, generate_individual, render_observation


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
        assert len(match_descriptors(q, d, GeometryParams(max_distance=1.0))) == 1
        assert len(match_descriptors(q, d, GeometryParams(max_distance=0.999))) == 0

    def test_mutual_filter(self):
        # db descriptor 0 is the NN of both queries, but its own NN is
        # query 0, so query 1's match is dropped under mutual matching.
        q = features_from(
            [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.9486832980505138, 0.31622776601683794]]
        )
        d = features_from([[5.0, 5.0]], [[1.0, 0.0]])
        mutual = match_descriptors(q, d, GeometryParams(mutual=True))
        one_way = match_descriptors(q, d, GeometryParams(mutual=False))
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
        assert len(match_descriptors(q, d, GeometryParams(mutual=False, ratio=0.95))) == 0
        assert len(match_descriptors(q, d, GeometryParams(mutual=False))) == 1
        assert len(match_descriptors(q, d, GeometryParams(mutual=False, ratio=0.97))) == 1

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
        matches = match_descriptors(q, d, GeometryParams(mutual=False))
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
        H = dlt_homography(pts, pts)
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
            H = dlt_homography(src, dst)
            np.testing.assert_allclose(H, H_true / H_true[2, 2], atol=1e-6)

    @pytest.mark.parametrize("n", [4, 5, 30])
    def test_refit_is_the_full_svd_solution(self, n):
        # A consensus of 4 matches gives an 8-row system, whose reduced SVD
        # lacks the null direction: it must be solved with the full Vh, bit
        # for bit.  From 5 matches on the reduced SVD holds the same row.
        rng = np.random.default_rng(n)
        src = rng.uniform(-1, 1, (n, 2))
        dst = apply_homography(random_bounded_homography(rng), src) + rng.normal(0, 0.01, (n, 2))
        H = np.linalg.svd(_dlt_matrix(src, dst))[2][-1].reshape(3, 3)
        expected = H / H[2, 2]
        if n == 4:
            np.testing.assert_array_equal(dlt_homography(src, dst), expected)
        else:
            np.testing.assert_allclose(dlt_homography(src, dst), expected, rtol=0, atol=1e-12)

    def test_h33_one_after_scaling(self):
        rng = np.random.default_rng(9)
        H_true = random_bounded_homography(rng)
        src = rng.uniform(-1, 1, (8, 2))
        H = dlt_homography(src, apply_homography(H_true, src))
        assert H[2, 2] == 1.0


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
        np.testing.assert_array_equal(a.homography, b.homography)

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
            verdict.homography, H_true / H_true[2, 2], atol=1e-6
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
        verdict = verify_shortlist(features, [features])[0]
        assert verdict.omega == 1.0
        assert verdict.n == features.count

    def test_deterministic(self):
        cfg = SynthConfig(seed=2, n_individuals=2, views_per_individual=2)
        a = generate_individual(cfg, 0)
        b = generate_individual(cfg, 1)
        fa, _, _ = render_observation(a, cfg, 1)
        fb, _, _ = render_observation(b, cfg, 0)
        v1 = verify_shortlist(fa, [fb])[0]
        v2 = verify_shortlist(fa, [fb])[0]
        assert (v1.n, v1.omega) == (v2.n, v2.omega)
        np.testing.assert_array_equal(v1.inlier_mask, v2.inlier_mask)
        np.testing.assert_array_equal(v1.homography, v2.homography)

    def test_no_matches_zero_verdict(self):
        q = features_from([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], "q")
        d = features_from([[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [-1.0, 0.0]], "d")
        verdict = verify_shortlist(q, [d])[0]
        assert verdict.n == 0 and verdict.omega == 0.0
        assert verdict.homography is None

    def test_coincident_points_zero_verdict(self):
        # Four clean matches whose query-side centers all coincide: no scale
        # to normalize by, so the pair gets the n = 0 verdict.
        desc = np.eye(4, 8)
        q = features_from(np.full((4, 2), 3.0), desc, "q")
        d = features_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], desc, "d")
        verdict = verify_shortlist(q, [d])[0]
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
                verdict = verify_shortlist(
                    query, [db_view], GeometryParams(inlier_threshold=0.1)
                )[0]
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
                    verify_shortlist(query, [db_view], strict_params)[0].omega
                )
                loose.append(
                    verify_shortlist(query, [db_view], loose_params)[0].omega
                )
        strict, loose = np.array(strict), np.array(loose)
        assert np.mean(strict < 0.2) >= 0.95
        assert np.mean(loose < 0.2) >= 0.60
        assert np.max(loose) < 0.35


def framed_features(points, frames_2x2, image_id):
    """Features with the given (M, 2, 2) frames and one-hot descriptors.

    One-hot rows make every self-match distance exactly 0, so
    match_descriptors pairs feature i with feature i in index order.
    """
    points = np.asarray(points, dtype=np.float64)
    frames = np.zeros((points.shape[0], 6))
    frames[:, :2] = points
    frames[:, 2:] = np.asarray(frames_2x2, dtype=np.float64).reshape(-1, 4)
    return ImageFeatures(image_id, frames, np.eye(points.shape[0], 64))


def rotation(angle, scale=1.0):
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


class TestAffineVerifier:
    def test_planted_affine_matches_recovered_exactly(self):
        rng = np.random.default_rng(12)
        A, t = np.array([[1.2, 0.3], [-0.2, 0.9]]), np.array([5.0, -3.0])
        planted = rng.random(40) < 0.6
        src = rng.uniform(0, 100, (40, 2))
        dst = src @ A.T + t
        for i in np.flatnonzero(~planted):
            while np.linalg.norm(dst[i] - (A @ src[i] + t)) < 40:
                dst[i] = rng.uniform(0, 100, 2)
        frames_q = rotation(1.0, 3.0) + rng.uniform(-1, 1, (40, 2, 2))
        frames_d = np.where(
            planted[:, None, None], A @ frames_q, rotation(-0.5, 2.0) + rng.uniform(-1, 1, (40, 2, 2))
        )
        # The ground truth is unambiguous: in normalized coordinates every
        # clutter match lies at least twice the threshold off the planted map.
        n_src, n_dst = normalize_points(src), normalize_points(dst)
        fit = np.linalg.lstsq(
            np.column_stack([n_src[planted], np.ones(planted.sum())]), n_dst[planted], rcond=None
        )[0]
        off = np.linalg.norm(np.column_stack([n_src, np.ones(40)]) @ fit - n_dst, axis=1)
        assert np.all(off[~planted] >= 0.2)

        verdict = verify_shortlist(
            framed_features(src, frames_q, "q"), [framed_features(dst, frames_d, "d")]
        )[0]
        np.testing.assert_array_equal(verdict.inlier_mask, planted)
        assert verdict.n == planted.sum() and verdict.omega == planted.mean()
        np.testing.assert_allclose(
            apply_homography(verdict.homography, n_src[planted]), n_dst[planted], atol=1e-9
        )

    def test_three_matches_no_verdict(self):
        points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        frames = np.tile(np.eye(2), (3, 1, 1))
        verdict = verify_shortlist(
            framed_features(points, frames, "q"), [framed_features(points, frames, "d")]
        )[0]
        assert verdict.n == 0 and verdict.omega == 0.0
        assert verdict.homography is None
        np.testing.assert_array_equal(verdict.inlier_mask, np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("first", [0, 1])
    def test_tie_goes_to_first_match(self, first):
        # Two interleaved groups of 5 matches, each consistent under its own
        # affine map and with nothing of the other: their consensus sizes tie.
        rng = np.random.default_rng(13)
        maps = [(np.eye(2), np.zeros(2)), (rotation(np.pi / 2, 1.5), np.array([40.0, -20.0]))]
        group = np.array([first, 1 - first] * 5)
        src = rng.uniform(0, 100, (10, 2))
        frames_q = np.tile(np.eye(2), (10, 1, 1))
        dst = np.array([maps[g][0] @ x + maps[g][1] for g, x in zip(group, src)])
        frames_d = np.array([maps[g][0] for g in group])
        verdict = verify_shortlist(
            framed_features(src, frames_q, "q"), [framed_features(dst, frames_d, "d")]
        )[0]
        np.testing.assert_array_equal(verdict.inlier_mask, group == first)
        assert verdict.n == 5

    def test_collinear_consensus_keeps_the_affine_verdict(self):
        # 5 collinear matches under one affine map, and 3 clutter matches off
        # the line and off the map: the winning consensus is the 5, whose DLT
        # refit is degenerate, so the first local-optimization round stops.
        A, t = rotation(0.3, 1.2), np.array([5.0, -3.0])
        on_line = np.column_stack([np.arange(10.0, 60.0, 10.0)] * 2)
        src = np.vstack([on_line, [[80.0, 10.0], [10.0, 80.0], [90.0, 60.0]]])
        dst = np.vstack([on_line @ A.T + t, [[0.0, 90.0], [95.0, 5.0], [20.0, 20.0]]])
        planted = np.arange(8) < 5
        frames_q = np.tile(np.eye(2), (8, 1, 1))
        frames_d = np.array([A] * 5 + [rotation(-1.0, 2.0)] * 3)
        n_src, n_dst = normalize_points(src), normalize_points(dst)
        with pytest.raises(GeometryError, match="degenerate"):
            dlt_homography(n_src[planted], n_dst[planted])

        verdict = verify_shortlist(
            framed_features(src, frames_q, "q"), [framed_features(dst, frames_d, "d")]
        )[0]
        np.testing.assert_array_equal(verdict.inlier_mask, planted)
        assert verdict.n == 5 and verdict.omega == 5 / 8
        # The first match's affine hypothesis, in normalized coordinates.
        scale = np.linalg.norm(src - src.mean(axis=0), axis=1).max() / np.linalg.norm(
            dst - dst.mean(axis=0), axis=1).max()
        np.testing.assert_allclose(verdict.homography[:2, :2], scale * A, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            verdict.homography[:2, 2], n_dst[0] - scale * A @ n_src[0], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(verdict.homography[2], [0.0, 0.0, 1.0])

    def test_extreme_frames_finite_verdict(self, tmp_path):
        # Frames at the PATF floor |det| = 1e-12 and with entries up to 1e300
        # overflow their hypotheses; those score no inliers and raise no
        # warning, while the ordinary frames still verify every match.
        floor = np.array([[1e-12, 0.0], [0.0, 1.0]])
        huge = np.array([[1e300, 1e300], [0.0, 1e-300]])
        wide = np.array([[1e154, 0.0], [0.0, 1e154]])
        rng = np.random.default_rng(14)
        src = rng.uniform(0, 100, (12, 2))
        frames_q = np.array([floor, huge, wide, np.eye(2)] * 3)
        frames_d = np.array([huge, wide, floor, np.eye(2)] * 3)
        q, d = framed_features(src, frames_q, "q"), framed_features(src, frames_d, "d")
        # Both sides are valid PATF files.
        write_feature_file(q, tmp_path / "q.patf")
        write_feature_file(d, tmp_path / "d.patf")
        q, d = parse_feature_file(tmp_path / "q.patf"), parse_feature_file(tmp_path / "d.patf")

        verdict = verify_shortlist(q, [d])[0]
        assert verdict.n == 12 and verdict.omega == 1.0
        assert np.all(np.isfinite(verdict.homography))

        extreme = framed_features(src[:9], frames_q[[0, 1, 2] * 3], "x")
        verdict = verify_shortlist(extreme, [framed_features(src[:9], frames_d[:9], "y")])[0]
        assert 0 <= verdict.n == verdict.inlier_mask.sum() <= 9
        assert np.isfinite(verdict.omega)


def test_noisy_frames_keep_genuine_pairs_first():
    # Synthetic frames are exact Jacobians.  Multiply both sides' frame
    # entries by 1 + 0.2 N(0, 1): ranked by n alone, each query's genuine
    # database image must still come strictly first, with n of at least 12
    # (measured minimum 14; with random frames in their place it is 2, and 6
    # of the 12 genuine images are not first).
    cfg = SynthConfig(
        seed=5,
        n_individuals=6,
        views_per_individual=3,
        points_per_individual=40,
        descriptor_noise_sigma=0.2,
        dropout_rate=0.5,
        clutter_rate=1.0,
        max_perspective=0.3,
    )
    rng = np.random.default_rng(0)

    def noisy(features):
        frames = features.frames.copy()
        frames[:, 2:] *= 1.0 + 0.2 * rng.standard_normal((frames.shape[0], 4))
        return dataclasses.replace(features, frames=frames)

    inds = [generate_individual(cfg, i) for i in range(cfg.n_individuals)]
    db = [noisy(render_observation(c, cfg, 0)[0]) for c in inds]
    for i, c in enumerate(inds):
        for v in range(1, cfg.views_per_individual):
            query = noisy(render_observation(c, cfg, v)[0])
            n = [verify_shortlist(query, [d])[0].n for d in db]
            assert n[i] > max(n[:i] + n[i + 1 :]), query.image_id
            assert n[i] >= 12, query.image_id


class TestGeometryParams:
    def test_defaults_valid(self):
        GeometryParams()

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
            GeometryParams(**kwargs)

    def test_geometric_similarity_validates(self):
        f = features_from(np.zeros((1, 2)), [[1.0, 0.0]])
        with pytest.raises(GeometryError, match="inlier_threshold"):
            verify_shortlist(f, [f], GeometryParams(inlier_threshold=float("nan")))[0]


# (n, omega) of ransac_homography over the normalized matches of every query
# (views 1-2) against every database image (view 0, in individual order) of
# the seed-3 synthetic set with 4 individuals x 3 views, each pair seeded
# with derive_seed(0, "ransac", query id, database id), recorded with the SVD
# minimal solver.  These were the verifier's verdicts while it ran
# RANSAC.  A change to RANSAC that moves a verdict must update these
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



# (n, omega) of verify_shortlist(query, [db])[0] over the same pairs, from the
# matches' affine frames.  Genuine pairs keep RANSAC's verdicts; impostor
# pairs no longer get a 4-point consensus for free.  A change to the
# verifier that moves a verdict must update these literals and show the diff.
PINNED_AFFINE_VERDICTS = {
    "ind000_v1": [(64, 0.9411764705882353), (2, 0.05), (3, 0.07692307692307693), (5, 0.11363636363636363)],
    "ind000_v2": [(59, 0.9365079365079365), (2, 0.05555555555555555), (3, 0.07692307692307693), (3, 0.07692307692307693)],
    "ind001_v1": [(3, 0.08108108108108109), (65, 1.0), (3, 0.07142857142857142), (4, 0.09090909090909091)],
    "ind001_v2": [(5, 0.125), (62, 1.0), (2, 0.05555555555555555), (3, 0.08108108108108109)],
    "ind002_v1": [(2, 0.05128205128205128), (4, 0.08888888888888889), (66, 0.9850746268656716), (2, 0.05128205128205128)],
    "ind002_v2": [(3, 0.07894736842105263), (2, 0.05), (61, 0.9838709677419355), (5, 0.12195121951219512)],
    "ind003_v1": [(3, 0.06382978723404255), (3, 0.07692307692307693), (2, 0.05714285714285714), (66, 0.9850746268656716)],
    "ind003_v2": [(2, 0.045454545454545456), (3, 0.06976744186046512), (2, 0.05), (64, 0.9846153846153847)],
}


def pinned_pairs():
    """(query, database) features of every pinned pair, in table order."""
    cfg = SynthConfig(seed=3, n_individuals=4, views_per_individual=3)
    inds = [generate_individual(cfg, i) for i in range(cfg.n_individuals)]
    db = [render_observation(c, cfg, 0)[0] for c in inds]
    for c in inds:
        for v in range(1, cfg.views_per_individual):
            query = render_observation(c, cfg, v)[0]
            for d in db:
                yield query, d


def pinned_table(verdict_of):
    got = {}
    for query, d in pinned_pairs():
        verdict = verdict_of(query, d)
        got.setdefault(query.image_id, []).append((verdict.n, verdict.omega))
    return got


def ransac_verdict(query, db):
    """ransac_homography over the pair's normalized matches, seeded per pair."""
    matches = match_descriptors(query, db)
    return ransac_homography(
        normalize_points(query.frames[matches[:, 0], :2]),
        normalize_points(db.frames[matches[:, 1], :2]),
        GeometryParams().inlier_threshold,
        seed=derive_seed(0, "ransac", query.image_id, db.image_id),
    )


def test_pinned_verdicts():
    assert pinned_table(ransac_verdict) == PINNED_VERDICTS


def test_pinned_affine_verdicts():
    assert pinned_table(lambda query, d: verify_shortlist(query, [d])[0]) == PINNED_AFFINE_VERDICTS


def reference_inliers(query, db, threshold=0.1):
    """verify_shortlist's consensus of one pair, one hypothesis at a time.

    Uses np.linalg.inv and Euclidean norms where the verifier uses the
    adjugate and squared distances.
    """
    matches = match_descriptors(query, db)
    q_points, d_points = query.frames[matches[:, 0], :2], db.frames[matches[:, 1], :2]
    src, dst = normalize_points(q_points), normalize_points(d_points)
    scale = np.max(np.linalg.norm(q_points - q_points.mean(axis=0), axis=1)) / np.max(
        np.linalg.norm(d_points - d_points.mean(axis=0), axis=1)
    )
    best = None
    for h, (iq, idb) in enumerate(matches):
        F_q = query.frames[iq, 2:].reshape(2, 2)
        F_d = db.frames[idb, 2:].reshape(2, 2)
        A = scale * F_d @ np.linalg.inv(F_q)
        mask = np.linalg.norm((src - src[h]) @ A.T + dst[h] - dst, axis=1) < threshold
        if best is None or mask.sum() > best.sum():
            best = mask
    for _ in range(2):
        try:
            H = dlt_homography(src[best], dst[best])
        except GeometryError:
            break
        grown = reprojection_residuals(H, src, dst) < threshold
        if grown.sum() <= best.sum():
            break
        best = grown
    return best


def test_verifier_matches_per_hypothesis_reference():
    # The pinned pairs, plus sparse, cluttered, strongly warped pairs where
    # the homography refits change the consensus.
    cfg = SynthConfig(
        seed=11,
        n_individuals=4,
        views_per_individual=3,
        points_per_individual=25,
        descriptor_noise_sigma=0.3,
        dropout_rate=0.6,
        clutter_rate=1.0,
        max_perspective=0.3,
    )
    inds = [generate_individual(cfg, i) for i in range(cfg.n_individuals)]
    db = [render_observation(c, cfg, 0)[0] for c in inds]
    stress = [render_observation(c, cfg, v)[0] for c in inds for v in (1, 2)]
    for query, d in list(pinned_pairs()) + [(q, d) for q in stress for d in db]:
        np.testing.assert_array_equal(
            verify_shortlist(query, [d])[0].inlier_mask, reference_inliers(query, d)
        )
    # Each stress query's database images verified as one shortlist.
    for query in stress:
        for d, verdict in zip(db, verify_shortlist(query, db)):
            assert_same_verdict(verdict, verify_shortlist(query, [d])[0])
            np.testing.assert_array_equal(verdict.inlier_mask, reference_inliers(query, d))


def assert_same_verdict(got, want):
    """n, omega, inlier_mask and homography all equal, to the bit."""
    assert (got.n, got.omega) == (want.n, want.omega)
    np.testing.assert_array_equal(got.inlier_mask, want.inlier_mask)
    if want.homography is None:
        assert got.homography is None
    else:
        np.testing.assert_array_equal(got.homography, want.homography)


def big_planted_pair():
    """(query, db) with 1,500 matches, 60% of them planted on one affine map."""
    rng = np.random.default_rng(8)
    m = 1500
    A, t = np.array([[1.1, 0.2], [-0.1, 0.95]]), np.array([4.0, -2.0])
    planted = rng.random(m) < 0.6
    src = rng.uniform(0, 100, (m, 2))
    dst = np.where(planted[:, None], src @ A.T + t, rng.uniform(0, 100, (m, 2)))
    frames_q = rotation(0.7, 2.0) + rng.uniform(-0.5, 0.5, (m, 2, 2))
    frames_d = np.where(planted[:, None, None], A @ frames_q, rotation(-0.3, 1.5))
    descriptors = unit_rows(rng, m, 64)

    def features(points, frames, image_id):
        return ImageFeatures(
            image_id, np.column_stack([points, frames.reshape(-1, 4)]), descriptors
        )

    return features(src, frames_q, "q"), features(dst, frames_d, "d")


def test_hypothesis_blocks_match_dense_scoring():
    # 1,500 matches are over SCORE_BUDGET, so they score in blocks of
    # SCORE_BUDGET // 1,500 hypotheses.  Most of them are planted on one
    # affine map, so many hypotheses tie for the largest consensus, in
    # different blocks.
    query, db = big_planted_pair()
    m = query.count
    block = SCORE_BUDGET // m
    assert m * m > SCORE_BUDGET and 0 < block < m
    verdict = verify_shortlist(query, [db])[0]

    # Dense reference: every hypothesis in one (M, M) array, first argmax.
    matches = match_descriptors(query, db)
    assert len(matches) == m
    q_frames, d_frames = query.frames[matches[:, 0]], db.frames[matches[:, 1]]
    (n_src,), (s_q,) = _normalized(q_frames[None, :, :2], np.array([m]))
    (n_dst,), (s_d,) = _normalized(d_frames[None, :, :2], np.array([m]))
    maps = _affine_maps(q_frames, d_frames, s_q / s_d)
    residual = (n_src[None] - n_src[:, None]) @ maps.transpose(0, 2, 1)
    residual -= n_dst[None] - n_dst[:, None]
    masks = np.sum(residual * residual, axis=2) < 0.01
    counts = masks.sum(axis=1)
    best = int(np.argmax(counts))
    ties = np.flatnonzero(counts == counts[best]) // block
    assert ties.min() < ties.max()  # the best count recurs in a later block
    mask = masks[best]
    H = np.eye(3)
    H[:2, :2] = maps[best]
    H[:2, 2] = n_dst[best] - maps[best] @ n_src[best]
    for _ in range(2):
        refit = dlt_homography(n_src[mask], n_dst[mask])
        grown = np.sum((apply_homography(refit, n_src) - n_dst) ** 2, axis=1) < 0.01
        if grown.sum() <= mask.sum():
            break
        mask, H = grown, refit

    np.testing.assert_array_equal(verdict.inlier_mask, mask)
    assert verdict.n == mask.sum() and verdict.omega == mask.sum() / m
    np.testing.assert_array_equal(verdict.homography, H)


def test_mixed_shortlist_matches_one_pair_verdicts():
    # One query against a shortlist of every kind of pair: fewer than 4
    # matches, an empty image, coincident points, overflowing frames, the
    # 1,500-match pair scored in hypothesis blocks, and two ordinary pairs
    # that share a score block with a neighbour.
    query, big = big_planted_pair()

    def rows_of(rows, points, frames_2x2, image_id):
        """Features holding the query's descriptors rows, at points with frames."""
        frames = np.column_stack([points, np.reshape(frames_2x2, (-1, 4))])
        return ImageFeatures(image_id, frames, query.descriptors[rows])

    floor = np.array([[1e-12, 0.0], [0.0, 1.0]])
    huge = np.array([[1e300, 1e300], [0.0, 1e-300]])
    wide = np.array([[1e154, 0.0], [0.0, 1e154]])
    overflow_frames = np.array([floor, huge, wide, np.eye(2)] * 3)
    overflow_frames[3::4] = query.frames[21:33:4, 2:].reshape(-1, 2, 2)
    shortlist = [
        rows_of(slice(0, 3), big.frames[:3, :2], big.frames[:3, 2:], "few"),
        rows_of(slice(100, 140), big.frames[100:140, :2], big.frames[100:140, 2:], "ordinary"),
        rows_of(slice(3, 9), np.full((6, 2), 5.0), big.frames[3:9, 2:], "coincident"),
        big,
        ImageFeatures("empty", np.zeros((0, 6)), np.zeros((0, 64))),
        rows_of(slice(21, 33), query.frames[21:33, :2], overflow_frames, "overflow"),
        rows_of(slice(200, 260), big.frames[200:260, :2], big.frames[200:260, 2:], "ordinary2"),
    ]
    verdicts = verify_shortlist(query, shortlist)
    assert [v.n > 0 for v in verdicts] == [False, True, False, True, False, True, True]
    assert [len(v.inlier_mask) for v in verdicts] == [3, 40, 6, 1500, 0, 12, 60]
    assert verdicts[5].n == 12
    for d, verdict in zip(shortlist, verdicts):
        assert_same_verdict(verdict, verify_shortlist(query, [d])[0])
        if verdict.n == 0:
            assert verdict.homography is None and not verdict.inlier_mask.any()
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.testing.assert_array_equal(verdict.inlier_mask, reference_inliers(query, d))


# Seeded small worlds of 5 individuals x 3 views: three at the default
# distortions, three at heavy descriptor noise, dropout, clutter and perspective.
HEAVY = dict(descriptor_noise_sigma=0.3, dropout_rate=0.5, clutter_rate=0.5, max_perspective=0.3)
INVARIANCE_WORLDS = [
    SynthConfig(seed=seed, n_individuals=5, views_per_individual=3, **distortion)
    for seed, distortion in enumerate([{}] * 3 + [HEAVY] * 3, start=1)
]


def invariance_worlds():
    """(queries, database views) of each of INVARIANCE_WORLDS."""
    for cfg in INVARIANCE_WORLDS:
        inds = [generate_individual(cfg, i) for i in range(cfg.n_individuals)]
        views = [[render_observation(c, cfg, v)[0] for c in inds] for v in range(3)]
        yield views[1] + views[2], views[0]


def test_verdicts_invariant_under_query_similarity():
    # A rotation by 0-2pi, a scale of 0.5-3 and a shift of +-50 of the query's
    # centres and frames leave every pair's n and omega as they were.
    rng = np.random.default_rng(5)
    for queries, db in invariance_worlds():
        for query in queries:
            similarity = rotation(rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 3.0))
            frames = query.frames.copy()
            frames[:, :2] = frames[:, :2] @ similarity.T + rng.uniform(-50, 50, 2)
            frames[:, 2:] = (similarity @ frames[:, 2:].reshape(-1, 2, 2)).reshape(-1, 4)
            moved = ImageFeatures(query.image_id, frames, query.descriptors)
            want = [(v.n, v.omega) for v in verify_shortlist(query, db)]
            assert [(v.n, v.omega) for v in verify_shortlist(moved, db)] == want, query.image_id


def inlier_pairs(query, db, verdict, q_rows, d_rows):
    """The verdict's inlier matches as (query row, db row) pairs, each row
    mapped through q_rows and d_rows."""
    matches = match_descriptors(query, db)[verdict.inlier_mask]
    return set(zip(q_rows[matches[:, 0]].tolist(), d_rows[matches[:, 1]].tolist()))


def test_verdicts_invariant_under_row_permutation():
    # Shuffling both images' rows leaves n and omega, and the inlier pairs
    # mapped back through the shuffles are the same set.
    rng = np.random.default_rng(6)

    def shuffled(features):
        rows = rng.permutation(features.count)
        frames, descriptors = features.frames[rows], features.descriptors[rows]
        return ImageFeatures(features.image_id, frames, descriptors), rows

    for queries, db in invariance_worlds():
        shuffled_db = [shuffled(d) for d in db]
        for query in queries:
            shuffled_query, q_rows = shuffled(query)
            want = verify_shortlist(query, db)
            got = verify_shortlist(shuffled_query, [d for d, _ in shuffled_db])
            for d, (e, d_rows), w, g in zip(db, shuffled_db, want, got):
                where = (query.image_id, d.image_id)
                assert (g.n, g.omega) == (w.n, w.omega), where
                original = inlier_pairs(query, d, w, np.arange(query.count), np.arange(d.count))
                assert inlier_pairs(shuffled_query, e, g, q_rows, d_rows) == original, where
