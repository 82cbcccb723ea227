"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written the slow, obvious way (explicit
loops, dense matrices, finite differences) so the production code is
verified against a formulation that shares none of its algebra.
"""

import numpy as np

from patreid.encode import cosine_distance, embed_image
from patreid.geometry import GeometryParams, geometric_similarity
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


def em_reference(X, k, seed=0, max_iters=200, tol=1e-6):
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
