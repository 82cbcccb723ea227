"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written the slow, obvious way (explicit
loops, dense matrices, finite differences) so the production code is
verified against a formulation that shares none of its algebra.  It also
holds AC-3's sampling estimator, ransac_homography: a seeded RANSAC over
bare point pairs whose verdicts test_geometry pins, and which no search
uses.
"""

import numpy as np

from patreid.encode import cosine_distance, embed_image
from patreid.geometry import (
    GeometryError,
    GeometryParams,
    GeomVerdict,
    _dlt_matrix,
    _point_pairs,
    _scale_homography,
    apply_homography,
    dlt_homography,
    geometric_similarity,
)
from patreid.ingest import load_entry_features
from patreid.reid import Images
from patreid.vocab import VARIANCE_FLOOR, Gmm, _kmeanspp_centers, average_log_likelihood


def embedded_images(vocabulary, feature_sets):
    """Images of labeled in-memory features, each embedded afresh."""
    return Images.of(
        list(feature_sets),
        np.reshape(
            [embed_image(f, vocabulary) for f in feature_sets],
            (len(feature_sets), vocabulary.kpca.out_dim),
        ),
    )


def fisher_fd_oracle(X, gmm, h=1e-6):
    """Fisher vector via central finite differences of the log-likelihood.

    The per-block scalings 1/(T sqrt(pi_k)) and 1/(T sqrt(2 pi_k)) are
    applied to the raw sum-gradient; in terms of the average log-likelihood
    derivative that sum is d(avg)/d(theta) * T, so T cancels and the
    mean/deviation blocks become sigma/sqrt(pi_k) * d(avg)/d(mu) and
    sigma/sqrt(2 pi_k) * d(avg)/d(sigma).
    """
    K, D = gmm.means.shape
    sigmas = np.sqrt(gmm.variances)

    def avg_ll(means, devs):
        return average_log_likelihood(
            Gmm(weights=gmm.weights, means=means, variances=devs**2), X
        )

    out = np.zeros((K, 2, D))
    for k in range(K):
        for d in range(D):
            m = gmm.means.copy()
            m[k, d] += h
            up = avg_ll(m, sigmas)
            m[k, d] -= 2 * h
            down = avg_ll(m, sigmas)
            out[k, 0, d] = sigmas[k, d] / np.sqrt(gmm.weights[k]) * (up - down) / (2 * h)

            s = sigmas.copy()
            s[k, d] += h
            up = avg_ll(gmm.means, s)
            s[k, d] -= 2 * h
            down = avg_ll(gmm.means, s)
            out[k, 1, d] = (
                sigmas[k, d] / np.sqrt(2 * gmm.weights[k]) * (up - down) / (2 * h)
            )
    return out.reshape(-1)


def em_reference(X, k, seed=0, max_iters=200, tol=1e-3):
    """(weights, means, variances, log_likelihoods) of fit_gmm's EM (k >= 2)
    as it was before X * X left the loop: recomputed in the E step's
    quadratic form and again in the variance update.

    Unlike the oracles above it shares fit_gmm's algebra on purpose, so its
    arrays pin the hoisted loop bit for bit.
    """
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(X, k, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)
    trace = []
    for _ in range(max_iters):
        log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)
        quad = (
            (X * X) @ (1.0 / variances).T
            - 2.0 * (X @ (means / variances).T)
            + np.sum(means * means / variances, axis=1)[None, :]
        )
        log_terms = np.log(weights)[None, :] + log_norm[None, :] - 0.5 * quad
        m = np.max(log_terms, axis=1, keepdims=True)
        lse = np.squeeze(m + np.log(np.sum(np.exp(log_terms - m), axis=1, keepdims=True)), 1)
        trace.append(float(np.mean(lse)))
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            break
        gamma = np.exp(log_terms - lse[:, None])
        nk = gamma.sum(axis=0)
        nk_safe = np.maximum(nk, 1e-10)
        weights = nk / n
        weights = weights / weights.sum()
        means = (gamma.T @ X) / nk_safe[:, None]
        second = (gamma.T @ (X * X)) / nk_safe[:, None]
        variances = np.maximum(second - means**2, VARIANCE_FLOOR)
    return weights, means, variances, np.array(trace)


def dense_kpca_oracle(X, out_dim):
    """Reference kernel PCA: explicit centering matrix, dense eigensolve."""
    n = X.shape[0]
    G = X @ X.T
    J = np.eye(n) - np.ones((n, n)) / n
    centered = J @ G @ J
    eigvals, eigvecs = np.linalg.eigh(centered)
    order = np.argsort(eigvals)[::-1][:out_dim]
    lam = eigvals[order]
    V = eigvecs[:, order]
    return lam, V * np.sqrt(np.maximum(lam, 0.0))


def kernel_row_kpca(X, kpca, v):
    """apply_kpca the way model files up to version 5 computed it: v's kernel
    row against the training vectors X, centered by the Gram matrix's row
    means, its own mean and the Gram matrix's total mean, times the
    coefficients (recovered from fit_kpca's diagnostics as
    training_projections / eigenvalues), then L2-normalized; a zero
    projection stays zero."""
    alphas = kpca.training_projections / kpca.eigenvalues
    gram = X @ X.T
    row_means, total_mean = gram.mean(axis=1), gram.mean()
    k = X @ v
    projection = (k - row_means - k.mean() + total_mean) @ alphas
    norm = np.linalg.norm(projection)
    return np.zeros_like(projection) if norm < 1e-30 else projection / norm


def ranking_oracle(manifest, vocabulary, rule, shortlist, protocol, a=2.0,
                   geometry_params=GeometryParams()):
    """Per-query records (query, truth, rank_of_truth, d_L, n, omega, d_C) of
    one rule under protocol "split" or "leave_one_out".

    Every image is parsed and embedded afresh, and each query is ranked on
    its own: cosine distance to every candidate, stage-1 sort by (d_L, id),
    verification of the first shortlist candidates (all when 0), the rule's
    combination, and a final sort by (not verified, d_C, d_L, id).
    """
    images = [
        (e, load_entry_features(manifest, e))
        for e in manifest.entries
        if e.individual_id is not None
    ]
    if protocol == "split":
        db = [(e.image_id, e.individual_id, f) for e, f in images if e.role == "database"]
        known = {individual for _, individual, _ in db}
        queries = [
            (e.image_id, e.individual_id, f, db)
            for e, f in images
            if e.role == "query" and e.individual_id in known
        ]
    else:
        by_view = all(e.viewpoint is not None for e, _ in images)
        pool = [
            (e.image_id, f"{e.individual_id}|{e.viewpoint}" if by_view else e.individual_id, f)
            for e, f in images
        ]
        queries = [
            (image_id, unit, f, [p for p in pool if p[0] != image_id])
            for image_id, unit, f in pool
            if sum(p[1] == unit for p in pool) > 1
        ]

    records = []
    for query_id, truth, query, candidates in queries:
        q = embed_image(query, vocabulary)
        stage1 = sorted(
            (cosine_distance(q, embed_image(f, vocabulary)), image_id, individual, f)
            for image_id, individual, f in candidates
        )
        ranked = []
        for rank, (d_l, image_id, individual, f) in enumerate(stage1):
            n, omega, d_c, verified = 0, 0.0, d_l, False
            if rule != "appearance_only" and (shortlist == 0 or rank < shortlist):
                verdict = geometric_similarity(query, f, geometry_params)
                n, omega, verified = verdict.n, verdict.omega, True
                d_c = {
                    "geometry_only": float(-n),
                    "polynomial": d_l * (1.0 - omega) ** a,
                    "exponential": min(max(d_l, 1e-9), 1.0) ** n,
                }[rule]
            ranked.append((not verified, d_c, d_l, image_id, individual, n, omega))
        ranked.sort()
        individuals = list(dict.fromkeys(r[4] for r in ranked))
        _, d_c, d_l, _, _, n, omega = ranked[0]
        records.append((query_id, truth, individuals.index(truth) + 1, d_l, n, omega, d_c))
    return records


# Candidate models fitted per vectorized RANSAC round.
RANSAC_CHUNK = 128
# RANSAC stops once it is this confident that an all-inlier sample was drawn,
RANSAC_CONFIDENCE = 0.99
# or after this many candidate models.
RANSAC_MAX_ITERS = 2000
# Triangle areas below this (in normalized coordinates) mark a degenerate sample.
COLLINEAR_EPS = 1e-9
# The four point triples of a 4-point sample.
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def reprojection_residuals(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Euclidean distance between H(src) and dst; non-finite projections give inf."""
    proj = apply_homography(H, np.asarray(src, dtype=np.float64))
    diff = proj - np.asarray(dst, dtype=np.float64)
    res = np.linalg.norm(diff, axis=1)
    res[~np.isfinite(res)] = np.inf
    return res


def _noncollinear(samples: np.ndarray) -> np.ndarray:
    """True where no point triple of a (B, 4, S, 2) sample is (near-)collinear.

    S is the number of sides (query, database); one collinear side suffices.
    """
    t = samples[:, _TRIPLES]
    ab = t[:, :, 1] - t[:, :, 0]
    ac = t[:, :, 2] - t[:, :, 0]
    area2 = np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    return np.all(area2 > COLLINEAR_EPS, axis=(1, 2))


def _minimal_rows(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The two DLT rows of each correspondence with h33 fixed to 1: (N, 2, 8).

    Fixing h33 = 1 moves the ninth DLT column to the right-hand side.  The
    rows are written with both sides negated, so a sample's right-hand side
    is its target coordinates (u, v).
    """
    rows = np.zeros((src.shape[0], 2, 8), dtype=np.float64)
    rows[:, 0, 0:2] = src
    rows[:, 0, 2] = 1.0
    rows[:, 1, 3:5] = src
    rows[:, 1, 5] = 1.0
    rows[:, :, 6:8] = -dst[:, :, None] * src[:, None, :]
    return rows


def _minimal_homographies(
    rows: np.ndarray, src: np.ndarray, dst: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Homographies through the (B, 4) correspondence samples idx: (B, 3, 3).

    The stacked minimal rows of each sample form an 8x8 system; one batched
    solve fits the whole chunk with h33 = 1.  An exactly singular system
    (true h33 = 0) makes the batch raise; the chunk is then fitted by the
    SVD null vectors of its 8x9 DLT matrices instead.
    """
    b = idx.shape[0]
    try:
        h = np.linalg.solve(rows[idx].reshape(b, 8, 8), dst[idx].reshape(b, 8, 1))
    except np.linalg.LinAlgError:
        _, _, Vh = np.linalg.svd(_dlt_matrix(src[idx], dst[idx]))
        return Vh[:, -1, :].reshape(b, 3, 3)
    return np.concatenate([h[:, :, 0], np.ones((b, 1))], axis=1).reshape(b, 3, 3)


def ransac_homography(
    src: np.ndarray, dst: np.ndarray, inlier_threshold: float, seed=None
) -> GeomVerdict:
    """Robust homography fit over normalized (N, 2) point pairs src -> dst.

    Seeded minimal 4-point samples are fitted in vectorized chunks.  Samples
    with a (near-)collinear triple on either side are dropped; the rest are
    fitted with h33 = 1 by one batched solve of their 8x8 DLT systems, and a
    chunk that holds an exactly singular system (true h33 = 0) falls back to
    the SVD null vectors of its 8x9 DLT matrices.  A pair is an inlier when
    its reprojection distance is strictly below inlier_threshold.  The
    iteration budget adapts with the standard (1 - w^4) formula at
    RANSAC_CONFIDENCE, capped at RANSAC_MAX_ITERS.  The final homography is
    refit on the best consensus set; the reported inlier_mask is that
    consensus.  Fewer than 4 pairs, or no valid sample, yield n = 0 with no
    homography.
    """
    if not 0 < inlier_threshold < np.inf:
        raise GeometryError(
            f"inlier_threshold must be finite and positive, got {inlier_threshold}"
        )
    src, dst = _point_pairs(src, dst)
    total = src.shape[0]
    failure = GeomVerdict(
        n=0, omega=0.0, homography=None, inlier_mask=np.zeros(total, dtype=bool)
    )
    if total < 4:
        return failure

    rng = np.random.default_rng(seed)
    pairs = np.stack([src, dst], axis=1)
    rows = _minimal_rows(src, dst)
    src_h = np.vstack([src.T, np.ones(total)])
    thr2 = inlier_threshold * inlier_threshold

    best_count = 0
    best_mask = np.zeros(total, dtype=bool)
    best_H = None
    done = 0
    target = RANSAC_MAX_ITERS
    while done < target:
        chunk = min(RANSAC_CHUNK, target - done)
        done += chunk
        # 4 distinct indices per model: the smallest entries of a random row.
        keys = rng.random((chunk, total))
        idx = np.argpartition(keys, 4, axis=1)[:, :4]
        idx = idx[_noncollinear(pairs[idx])]
        if idx.shape[0] == 0:
            continue
        Hc = _minimal_homographies(rows, src, dst, idx)

        proj = Hc @ src_h
        with np.errstate(divide="ignore", invalid="ignore"):
            xy = proj[:, :2, :] / proj[:, 2:3, :]
        res2 = np.sum((xy - dst.T) ** 2, axis=1)
        res2[~np.isfinite(res2)] = np.inf
        masks = res2 < thr2
        counts = masks.sum(axis=1)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_mask = masks[top].copy()
            best_H = Hc[top]
            # Shrink the iteration budget as the inlier ratio estimate grows.
            w4 = (best_count / total) ** 4
            if w4 >= 1.0 - 1e-15:
                target = done
            else:
                needed = int(np.ceil(np.log1p(-RANSAC_CONFIDENCE) / np.log1p(-w4)))
                target = min(RANSAC_MAX_ITERS, max(needed, 1))

    if best_H is None or best_count < 4:
        return failure
    try:
        homography = dlt_homography(src[best_mask], dst[best_mask])
    except GeometryError:
        homography = _scale_homography(best_H)
    return GeomVerdict(
        n=best_count,
        omega=best_count / total,
        homography=homography,
        inlier_mask=best_mask,
    )
