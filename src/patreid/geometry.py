"""Geometric pattern consistency between two images.

Local descriptors are matched into point correspondences and matched
coordinates are normalized per side.  Each match's two affine frames give one
affine hypothesis; the hypothesis with the largest consensus is refined by
homography refits on its inliers.  The inlier count n and inlier ratio omega
summarize how much of the pattern agrees geometrically; the reid module folds
them into the final distance.  verify_shortlist verifies one query against
its whole shortlist: matching runs per pair, while normalization, the affine
maps and hypothesis scoring run over zero- or NaN-padded stacks of all pairs'
matches, elementwise and in cache-sized blocks, so each pair's verdict is
the one it gets alone (geometric_similarity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

# A point set whose max distance from its mean is below this has no scale.
COINCIDENT_EPS = 1e-12
# Homography refits of verify_shortlist's best affine consensus.
LOCAL_OPTIMIZATION_ROUNDS = 2
# (hypothesis, match) residuals verify_shortlist scores at once.  Consecutive
# pairs are scored together while pairs x M_max^2 stays within it, and a pair
# with M^2 above it is scored SCORE_BUDGET // M hypotheses at a time, so a
# block's arrays (128 KB each) stay in cache.
SCORE_BUDGET = 16384


class GeometryError(ValueError):
    """Degenerate geometric configuration."""


@dataclass(frozen=True)
class GeometryParams:
    """Descriptor-matching and verification settings of verify_shortlist.

    inlier_threshold is the strict bound on a match's reprojection distance,
    in normalized coordinates.
    """

    inlier_threshold: float = 0.1
    mutual: bool = True
    max_distance: float = 0.9
    ratio: Optional[float] = None

    def validate(self) -> None:
        """Raise GeometryError naming the offending field."""
        if not 0 < self.inlier_threshold < np.inf:
            raise GeometryError(
                f"inlier_threshold must be finite and positive, got {self.inlier_threshold}"
            )
        if not 0 < self.max_distance <= 2:
            raise GeometryError(f"max_distance must be in (0, 2], got {self.max_distance}")
        if self.ratio is not None and not 0 < self.ratio <= 1:
            raise GeometryError(f"ratio must be in (0, 1], got {self.ratio}")


@dataclass
class Homography:
    """3x3 projective transform, scaled so h33 = 1 when possible.

    When |h33| is numerically zero the matrix is scaled to unit Frobenius
    norm instead and frobenius_scaled is set.
    """

    matrix: np.ndarray
    frobenius_scaled: bool = False


@dataclass
class GeomVerdict:
    """Inlier statistics of a verified pair.

    n is the size of the consensus set inlier_mask and omega is n over the
    correspondences verified.  Both are 0, with no homography, when there
    are fewer than 4 correspondences, a side's points cannot be normalized,
    or no hypothesis is finite.
    """

    n: int
    omega: float
    homography: Optional[Homography]
    inlier_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))


def match_descriptors(
    query,
    db,
    max_distance: float = 0.9,
    mutual: bool = True,
    ratio: Optional[float] = None,
) -> np.ndarray:
    """Match query descriptors to database descriptors by cosine distance.

    Each query descriptor pairs with its nearest database descriptor; a pair
    is kept when its distance is <= max_distance, when (with mutual set) the
    database descriptor's nearest query descriptor closes the cycle, and when
    (with ratio set) it passes a nearest/second-nearest ratio test.  Returns
    an (M, 2) integer array of (query index, db index) rows sorted by
    ascending distance, ties by (query index, db index).
    """
    desc_q = np.asarray(query.descriptors, dtype=np.float64)
    desc_d = np.asarray(db.descriptors, dtype=np.float64)
    if desc_q.shape[0] == 0 or desc_d.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.intp)
    dist = 1.0 - desc_q @ desc_d.T
    nn_of_q = np.argmin(dist, axis=1)
    iq = np.arange(desc_q.shape[0])
    d = dist[iq, nn_of_q]
    keep = d <= max_distance
    if mutual:
        nn_of_d = np.argmin(dist, axis=0)
        keep &= nn_of_d[nn_of_q] == iq
    if ratio is not None and desc_d.shape[0] >= 2:
        second = np.partition(dist, 1, axis=1)[:, 1]
        keep &= d <= ratio * second
    iq, idb, d = iq[keep], nn_of_q[keep], d[keep]
    order = np.lexsort((idb, iq, d))
    return np.stack([iq[order], idb[order]], axis=1)


def normalize_points(points: np.ndarray) -> np.ndarray:
    """Shift points to zero mean and scale the set's max norm to 1.

    A set of coincident points cannot define a scale and raises
    GeometryError, as does an empty or non-(N, 2) input.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 1:
        raise GeometryError(f"expected non-empty (N, 2) points, got {points.shape}")
    normalized, max_norm = _normalized(points[None], np.array([len(points)]))
    if max_norm[0] < COINCIDENT_EPS:
        raise GeometryError("coincident points: no scale to normalize by")
    return normalized[0]


def _normalized(points: np.ndarray, counts: np.ndarray):
    """normalize_points of each set in a zero-padded (P, N, 2) stack, and the
    (P,) max norms it divided by.

    Set p is its first counts[p] rows.  The padding adds only zeros to a
    set's sums, so each set gets the bits it would get alone; padding rows
    come back NaN.  A set whose max norm is below COINCIDENT_EPS comes back
    meaningless, for the caller to reject.
    """
    valid = np.arange(points.shape[1]) < counts[:, None]
    shifted = points - (points.sum(axis=1) / counts[:, None])[:, None]
    shifted[~valid] = np.nan
    max_norm = np.max(np.linalg.norm(shifted, axis=2), axis=1, where=valid, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return shifted / max_norm[:, None, None], max_norm


def _point_pairs(src, dst):
    """src and dst as float64 arrays of the same (N, 2) shape."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise GeometryError(
            f"src/dst must both be (N, 2), got {src.shape} and {dst.shape}"
        )
    return src, dst


def _dlt_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Stack the two DLT constraint rows per correspondence: (..., 2N, 9)."""
    x, y = src[..., 0], src[..., 1]
    u, v = dst[..., 0], dst[..., 1]
    n = src.shape[-2]
    A = np.zeros(src.shape[:-2] + (2 * n, 9), dtype=np.float64)
    A[..., 0::2, 0] = -x
    A[..., 0::2, 1] = -y
    A[..., 0::2, 2] = -1.0
    A[..., 0::2, 6] = u * x
    A[..., 0::2, 7] = u * y
    A[..., 0::2, 8] = u
    A[..., 1::2, 3] = -x
    A[..., 1::2, 4] = -y
    A[..., 1::2, 5] = -1.0
    A[..., 1::2, 6] = v * x
    A[..., 1::2, 7] = v * y
    A[..., 1::2, 8] = v
    return A


def _scale_homography(H: np.ndarray) -> Homography:
    if abs(H[2, 2]) > 1e-9:
        return Homography(matrix=H / H[2, 2])
    return Homography(matrix=H / np.linalg.norm(H), frobenius_scaled=True)


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography from >= 4 point pairs (direct linear transform).

    Expects coordinates already normalized per normalize_points.  The
    solution is the singular direction of the stacked constraint system;
    a configuration that leaves the system rank-deficient (e.g. collinear
    points) raises GeometryError.
    """
    src, dst = _point_pairs(src, dst)
    if src.shape[0] < 4:
        raise GeometryError(f"need at least 4 correspondences, got {src.shape[0]}")
    A = _dlt_matrix(src, dst)
    _, s, Vh = np.linalg.svd(A)
    # A unique solution has exactly one (near-)zero singular value.
    if s[-2] <= 1e-9 * max(s[0], 1e-30):
        raise GeometryError("degenerate correspondences: homography not unique")
    return _scale_homography(Vh[-1].reshape(3, 3))


def apply_homography(H: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map (N, 2) points through H; points sent to infinity come back non-finite."""
    points = np.asarray(points, dtype=np.float64)
    ph = np.column_stack([points, np.ones(points.shape[0])])
    proj = ph @ np.asarray(H, dtype=np.float64).T
    with np.errstate(divide="ignore", invalid="ignore"):
        return proj[:, :2] / proj[:, 2:3]


def homography_jacobian(H: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Local 2x2 Jacobian of the map induced by H at each point: (N, 2, 2).

    This is how a homography warps an infinitesimal patch, used to transport
    affine feature frames between views.
    """
    H = np.asarray(H, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    w = points @ H[2, :2] + H[2, 2]
    uv = apply_homography(H, points)
    J = np.empty((points.shape[0], 2, 2), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        J[:, 0, 0] = (H[0, 0] - uv[:, 0] * H[2, 0]) / w
        J[:, 0, 1] = (H[0, 1] - uv[:, 0] * H[2, 1]) / w
        J[:, 1, 0] = (H[1, 0] - uv[:, 1] * H[2, 0]) / w
        J[:, 1, 1] = (H[1, 1] - uv[:, 1] * H[2, 1]) / w
    return J


def _affine_maps(query_frames: np.ndarray, db_frames: np.ndarray, scale) -> np.ndarray:
    """Linear part of each match's affine map in normalized coordinates:
    (..., 2, 2) from (..., 6) frames.

    A match maps a query patch onto its database patch by F_d F_q^-1 in
    pixels; normalization scales that by scale = s_q / s_d.  F_q^-1 is its
    adjugate over its determinant, so an all-zero padding frame gives NaN.
    """
    a, b, c, d = np.moveaxis(query_frames[..., 2:6], -1, 0)
    adjugate = np.stack([d, -b, -c, a], axis=-1).reshape(a.shape + (2, 2))
    inverse = adjugate / (a * d - b * c)[..., None, None]
    return scale * (db_frames[..., 2:6].reshape(a.shape + (2, 2)) @ inverse)


def _score_blocks(counts: np.ndarray):
    """(pairs, hypotheses, m) blocks that together score every hypothesis of
    every pair against its matches, padded to m matches per pair.

    A block's pairs are a run of consecutive pairs with pairs x m^2 within
    SCORE_BUDGET, m being their largest match count.  A pair alone over the
    budget scores SCORE_BUDGET // m hypotheses per block.  Blocks come in
    pair order, and a pair's hypotheses in ascending order.
    """
    counts, start = counts.tolist(), 0
    while start < len(counts):
        stop, m = start + 1, counts[start]
        while stop < len(counts) and (stop + 1 - start) * max(m, counts[stop]) ** 2 <= SCORE_BUDGET:
            stop, m = stop + 1, max(m, counts[stop])
        step = max(1, SCORE_BUDGET // ((stop - start) * m))
        for h in range(0, m, step):
            yield slice(start, stop), slice(h, h + step), m
        start = stop


def _best_hypotheses(src, dst, A, counts, thr2):
    """Each pair's first hypothesis with the largest consensus: its index,
    its consensus size and its (P, N) inlier mask.

    src, dst and A are NaN-padded (P, N, 2), (P, N, 2) and (P, N, 2, 2)
    stacks, so padding never scores an inlier.  Match m is hypothesis h's
    inlier when A_h src_m + (dst_h - A_h src_h) - dst_m is shorter than
    sqrt(thr2), written out per coordinate.
    """
    t = dst - (A[..., 0] * src[..., None, 0] + A[..., 1] * src[..., None, 1])
    best = np.zeros(len(counts), dtype=np.intp)
    best_count = np.zeros(len(counts), dtype=np.intp)
    best_mask = np.zeros(src.shape[:2], dtype=bool)
    for pairs, hypotheses, m in _score_blocks(counts):
        a, x, y = A[pairs, hypotheses], src[pairs, None, :m, 0], src[pairs, None, :m, 1]
        squared, term = None, None
        for i in range(2):
            r = np.multiply(a[..., i, 0, None], x)
            term = np.multiply(a[..., i, 1, None], y, out=term)
            r += term
            r += t[pairs, hypotheses, i, None]
            r -= dst[pairs, None, :m, i]
            r *= r
            squared = r if squared is None else np.add(squared, r, out=squared)
        masks = squared < thr2
        block_counts = masks.sum(axis=2)
        top = block_counts.argmax(axis=1)
        rows = np.arange(len(top))
        top_count = block_counts[rows, top]
        # Only a strictly larger count replaces the best, so the first best
        # hypothesis wins across blocks as within one.
        better = top_count > best_count[pairs]
        won = np.arange(pairs.start, pairs.stop)[better]
        best[won] = hypotheses.start + top[better]
        best_count[won] = top_count[better]
        best_mask[won, :m] = masks[rows[better], top[better]]
    return best, best_count, best_mask


def verify_shortlist(
    query, dbs: Sequence, params: GeometryParams = GeometryParams()
) -> List[GeomVerdict]:
    """Geometric verification of each (query, db) pair of a shortlist, in order.

    Matches come from match_descriptors, per pair, and their centers are
    normalized per side.  Match h's frames give the affine hypothesis
    x -> A_h (x - src_h) + dst_h, and match m is its inlier when the
    hypothesis maps src_m strictly within inlier_threshold of dst_m.  Every
    hypothesis is scored against all of its pair's matches, the pairs in
    blocks of SCORE_BUDGET residuals, and the first one with the largest
    consensus wins, so ties go to the closest descriptor match.  When that
    consensus has at least 4 matches, up to LOCAL_OPTIMIZATION_ROUNDS rounds
    refit a DLT homography on it and rescore the pair's matches; a round is
    kept only if the consensus grows.  omega's denominator is the number of
    matches.  Nothing is sampled, and a pair's verdict is the same in any
    shortlist: it depends only on the two images and params.
    """
    params.validate()
    matches = [
        match_descriptors(
            query, db, max_distance=params.max_distance, mutual=params.mutual,
            ratio=params.ratio,
        )
        for db in dbs
    ]
    verdicts = [
        GeomVerdict(n=0, omega=0.0, homography=None, inlier_mask=np.zeros(len(m), dtype=bool))
        for m in matches
    ]
    live = [k for k, m in enumerate(matches) if len(m) >= 4]
    if not live:
        return verdicts
    counts = np.array([len(matches[k]) for k in live])
    valid = np.arange(counts.max()) < counts[:, None]
    q_frames = np.zeros(valid.shape + (6,))
    d_frames = np.zeros(valid.shape + (6,))
    q_frames[valid] = query.frames[np.concatenate([matches[k][:, 0] for k in live])]
    d_frames[valid] = np.concatenate([dbs[k].frames[matches[k][:, 1]] for k in live])
    src, s_q = _normalized(q_frames[..., :2], counts)
    dst, s_d = _normalized(d_frames[..., :2], counts)
    # A side whose matched points coincide has no scale: its pair scores nothing.
    src[(s_q < COINCIDENT_EPS) | (s_d < COINCIDENT_EPS)] = np.nan
    thr2 = params.inlier_threshold * params.inlier_threshold

    # Extreme frames overflow to inf or nan residuals, which are never inliers.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A = _affine_maps(q_frames, d_frames, (s_q / s_d)[:, None, None, None])
        best, best_count, best_mask = _best_hypotheses(src, dst, A, counts, thr2)
        for p, k in enumerate(live):
            if best_count[p] == 0:
                continue
            total, h = len(matches[k]), best[p]
            src_p, dst_p, mask = src[p, :total], dst[p, :total], best_mask[p, :total]
            H = np.eye(3)
            H[:2, :2] = A[p, h]
            H[:2, 2] = dst_p[h] - A[p, h] @ src_p[h]
            homography = Homography(matrix=H)
            for _ in range(LOCAL_OPTIMIZATION_ROUNDS if best_count[p] >= 4 else 0):
                try:
                    refit = dlt_homography(src_p[mask], dst_p[mask])
                except GeometryError:
                    break
                grown = np.sum((apply_homography(refit.matrix, src_p) - dst_p) ** 2, axis=1) < thr2
                if grown.sum() <= mask.sum():
                    break
                mask, homography = grown, refit
            n = int(mask.sum())
            verdicts[k] = GeomVerdict(n=n, omega=n / total, homography=homography, inlier_mask=mask)
    return verdicts


def geometric_similarity(query, db, params: GeometryParams = GeometryParams()) -> GeomVerdict:
    """Full geometric verification of one (query, db) image pair: the
    one-pair case of verify_shortlist."""
    return verify_shortlist(query, [db], params)[0]
