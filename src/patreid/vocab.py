"""Appearance-encoding model: PCA, diagonal-covariance GMM, and kernel PCA.

The trained Vocabulary holds the three stages used to turn an image's local
descriptors into one fixed-length embedding: PCA decorrelation of raw
descriptors, a GMM visual vocabulary fitted by EM, and a kernel-PCA
compressor fitted on the database images' normalized Fisher vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

VARIANCE_FLOOR = 1e-6
WHITEN_FLOOR = 1e-12
VOCAB_MAGIC = "PATVOCAB"
VOCAB_VERSION = 1


class VocabError(ValueError):
    """Invalid or insufficient training data / malformed vocabulary file."""


@dataclass
class PcaModel:
    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    whiten: bool = False

    @property
    def out_dim(self) -> int:
        return self.basis.shape[0]


@dataclass
class Gmm:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    # Average log-likelihood after each EM iteration (training diagnostic).
    log_likelihoods: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class KpcaModel:
    training_vectors: np.ndarray
    alphas: np.ndarray
    eigenvalues: np.ndarray
    row_means: np.ndarray
    total_mean: float
    training_projections: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.alphas.shape[1]


@dataclass
class Embedding:
    """Final appearance vector of one image; unit norm unless degenerate."""

    values: np.ndarray
    degenerate: bool = False


@dataclass
class Vocabulary:
    pca: PcaModel
    gmm: Gmm
    kpca: KpcaModel
    descriptor_dim: int
    # Power-normalization exponent used when the database Fisher vectors were
    # built; queries must reuse it, so it travels with the model.
    alpha: float = 0.5
    version: int = VOCAB_VERSION


def _sign_fix_rows(basis: np.ndarray) -> np.ndarray:
    """Deterministic sign: each row's largest-magnitude entry made positive."""
    idx = np.argmax(np.abs(basis), axis=1)
    signs = np.sign(basis[np.arange(basis.shape[0]), idx])
    signs[signs == 0] = 1.0
    return basis * signs[:, None]


def fit_pca(descriptors: np.ndarray, out_dim: int, whiten: bool = False) -> PcaModel:
    """Top-out_dim eigenvectors of the biased sample covariance.

    Rows of the returned basis are orthonormal, ordered by non-increasing
    eigenvalue, each row's largest-magnitude entry positive.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2:
        raise VocabError(f"expected (N, D) descriptors, got shape {X.shape}")
    n, d = X.shape
    if out_dim < 1 or out_dim > d:
        raise VocabError(f"out_dim must be in [1, {d}], got {out_dim}")
    if n < out_dim + 1:
        raise VocabError(f"need at least {out_dim + 1} descriptors, got {n}")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:out_dim]
    eigvals = np.maximum(eigvals[order], 0.0)
    basis = _sign_fix_rows(eigvecs[:, order].T)
    return PcaModel(mean=mean, basis=basis, eigenvalues=eigvals, whiten=whiten)


def apply_pca(model: PcaModel, descriptors: np.ndarray) -> np.ndarray:
    """Project onto the PCA basis; whitening divides by sqrt(eigenvalue)."""
    X = np.asarray(descriptors, dtype=np.float64)
    if X.shape[-1] != model.mean.shape[0]:
        raise VocabError(
            f"descriptor dim {X.shape[-1]} != model dim {model.mean.shape[0]}"
        )
    Y = (X - model.mean) @ model.basis.T
    if model.whiten:
        Y = Y / np.sqrt(np.maximum(model.eigenvalues, WHITEN_FLOOR))
    return Y


def _log_gaussian_terms(gmm: Gmm, X: np.ndarray) -> np.ndarray:
    """log(pi_k) + log N(x; mu_k, diag sigma_k^2) for every (point, component)."""
    var = gmm.variances
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * var), axis=1)
    # (N, K): quadratic form of the diagonal Gaussian, expanded to use BLAS.
    x2 = (X * X) @ (1.0 / var).T
    xm = X @ (gmm.means / var).T
    m2 = np.sum(gmm.means * gmm.means / var, axis=1)
    quad = x2 - 2.0 * xm + m2[None, :]
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def average_log_likelihood(gmm: Gmm, X: np.ndarray) -> float:
    """Per-point average log-likelihood of X under the mixture."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return float(np.mean(_logsumexp(_log_gaussian_terms(gmm, X), axis=1)))


def gmm_posteriors(gmm: Gmm, x: np.ndarray) -> np.ndarray:
    """Component posteriors gamma(k), via log-sum-exp; rows sum to 1.

    Accepts one vector (returns (K,)) or a matrix (returns (N, K)).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != gmm.dim:
        raise VocabError(f"input dim {X.shape[1]} != gmm dim {gmm.dim}")
    log_terms = _log_gaussian_terms(gmm, X)
    gamma = np.exp(log_terms - _logsumexp(log_terms, axis=1)[:, None])
    return gamma[0] if single else gamma


def _kmeanspp_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass at already-chosen points: fall back to uniform.
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def fit_gmm(
    vectors: np.ndarray,
    k: int,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> Gmm:
    """Diagonal-covariance GMM by EM with k-means++ seeding.

    Stops when the per-point average log-likelihood improves by less than
    tol, or after max_iters.  The likelihood trace is attached to the model;
    it is non-decreasing up to floating-point slack.  K=1 is the closed-form
    maximum-likelihood Gaussian.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise VocabError(f"expected (N, D) vectors, got shape {X.shape}")
    n, d = X.shape
    if k < 1:
        raise VocabError(f"k must be >= 1, got {k}")
    if n < k:
        raise VocabError(f"need at least k={k} vectors, got {n}")

    if k == 1:
        mean = X.mean(axis=0, keepdims=True)
        var = np.maximum(X.var(axis=0, keepdims=True), VARIANCE_FLOOR)
        gmm = Gmm(weights=np.ones(1), means=mean, variances=var)
        gmm.log_likelihoods = np.array([average_log_likelihood(gmm, X)])
        return gmm

    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(X, k, rng)
    global_var = np.maximum(X.var(axis=0), VARIANCE_FLOOR)
    gmm = Gmm(
        weights=np.full(k, 1.0 / k),
        means=means,
        variances=np.tile(global_var, (k, 1)),
    )

    trace = []
    prev = None
    for _ in range(max_iters):
        log_terms = _log_gaussian_terms(gmm, X)
        lse = _logsumexp(log_terms, axis=1)
        avg_ll = float(np.mean(lse))
        trace.append(avg_ll)
        if prev is not None and avg_ll - prev < tol:
            break
        prev = avg_ll

        gamma = np.exp(log_terms - lse[:, None])
        nk = gamma.sum(axis=0)
        nk_safe = np.maximum(nk, 1e-10)
        weights = nk / n
        gmm.weights = weights / weights.sum()
        gmm.means = (gamma.T @ X) / nk_safe[:, None]
        second = (gamma.T @ (X * X)) / nk_safe[:, None]
        gmm.variances = np.maximum(second - gmm.means**2, VARIANCE_FLOOR)

    gmm.log_likelihoods = np.array(trace)
    return gmm


def fit_kpca(fisher_vectors: np.ndarray, out_dim: int) -> KpcaModel:
    """Dot-product kernel PCA on the double-centered Gram matrix.

    Keeps the top out_dim eigenpairs with positive eigenvalues (reducing
    out_dim with a warning when rank falls short); coefficient columns are
    scaled by 1/sqrt(eigenvalue) so projections carry unit-eigenvalue
    scaling, with the same sign convention as fit_pca.
    """
    X = np.asarray(fisher_vectors, dtype=np.float64)
    if X.ndim != 2:
        raise VocabError(f"expected (N, F) matrix, got shape {X.shape}")
    n = X.shape[0]
    if n < 2:
        raise VocabError(f"need at least 2 vectors, got {n}")
    if out_dim < 1 or out_dim > n - 1:
        raise VocabError(f"out_dim must be in [1, {n - 1}], got {out_dim}")
    gram = X @ X.T
    row_means = gram.mean(axis=1)
    total_mean = float(gram.mean())
    centered = gram - row_means[None, :] - row_means[:, None] + total_mean
    eigvals, eigvecs = np.linalg.eigh(centered)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    positive = eigvals > max(eigvals[0], 0.0) * 1e-12
    n_pos = int(np.count_nonzero(positive[: len(eigvals)]))
    if n_pos == 0:
        raise VocabError("centered kernel matrix has no positive eigenvalues")
    if n_pos < out_dim:
        warnings.warn(
            f"kernel PCA rank {n_pos} below requested {out_dim}; reducing",
            stacklevel=2,
        )
        out_dim = n_pos
    eigvals = eigvals[:out_dim]
    V = _sign_fix_rows(eigvecs[:, :out_dim].T).T
    alphas = V / np.sqrt(eigvals)[None, :]
    projections = V * np.sqrt(eigvals)[None, :]
    return KpcaModel(
        training_vectors=X.copy(),
        alphas=alphas,
        eigenvalues=eigvals,
        row_means=row_means,
        total_mean=total_mean,
        training_projections=projections,
    )


def apply_kpca(model: KpcaModel, fisher_vector: np.ndarray) -> Embedding:
    """Project one normalized Fisher vector through the fitted kernel PCA.

    The kernel row against the training vectors is centered with the stored
    statistics and multiplied by the coefficients; the projection is then
    L2-normalized.  An exactly-zero projection cannot be normalized and is
    returned as a zero vector flagged degenerate.
    """
    v = np.asarray(fisher_vector, dtype=np.float64)
    if v.shape != (model.training_vectors.shape[1],):
        raise VocabError(
            f"expected vector of dim {model.training_vectors.shape[1]}, "
            f"got shape {v.shape}"
        )
    k_row = model.training_vectors @ v
    centered = k_row - model.row_means - k_row.mean() + model.total_mean
    projection = centered @ model.alphas
    norm = float(np.linalg.norm(projection))
    if norm < 1e-30:
        return Embedding(values=np.zeros(model.out_dim), degenerate=True)
    return Embedding(values=projection / norm, degenerate=False)


def _write_matrix(fh, M: np.ndarray) -> None:
    for row in np.atleast_2d(M):
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Persist the vocabulary as a sectioned text file with exact floats."""
    path = Path(path)
    pca, gmm, kpca = vocab.pca, vocab.gmm, vocab.kpca
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_MAGIC} {vocab.version}\n")
        fh.write(f"alpha {repr(float(vocab.alpha))}\n")
        fh.write(f"descriptor_dim {vocab.descriptor_dim}\n")
        fh.write(f"PCA {pca.out_dim} {pca.mean.shape[0]} {int(pca.whiten)}\n")
        _write_matrix(fh, pca.mean)
        _write_matrix(fh, pca.eigenvalues)
        _write_matrix(fh, pca.basis)
        fh.write(
            f"GMM {gmm.n_components} {gmm.dim} {gmm.log_likelihoods.shape[0]}\n"
        )
        _write_matrix(fh, gmm.weights)
        _write_matrix(fh, gmm.means)
        _write_matrix(fh, gmm.variances)
        if gmm.log_likelihoods.shape[0]:
            _write_matrix(fh, gmm.log_likelihoods)
        n, f = kpca.training_vectors.shape
        fh.write(f"KPCA {n} {f} {kpca.out_dim}\n")
        _write_matrix(fh, kpca.eigenvalues)
        _write_matrix(fh, kpca.row_means)
        _write_matrix(fh, np.array([kpca.total_mean]))
        _write_matrix(fh, kpca.alphas)
        _write_matrix(fh, kpca.training_projections)
        _write_matrix(fh, kpca.training_vectors)


class _LineReader:
    def __init__(self, path, lines):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise VocabError(f"{self.path}: truncated file at line {self.pos + 1}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def floats(self, count: int) -> np.ndarray:
        values = np.array(self.next_line().split(), dtype=np.float64)
        if values.shape[0] != count:
            raise VocabError(
                f"{self.path}:{self.pos}: expected {count} values, got {values.shape[0]}"
            )
        return values

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return np.stack([self.floats(cols) for _ in range(rows)]) if rows else np.zeros((0, cols))


def load_vocabulary(path) -> Vocabulary:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    r = _LineReader(path, lines)
    try:
        magic = r.next_line().split()
        if len(magic) != 2 or magic[0] != VOCAB_MAGIC:
            raise VocabError(f"{path}: bad header {lines[0]!r}")
        version = int(magic[1])
        alpha = float(r.next_line().split()[1])
        descriptor_dim = int(r.next_line().split()[1])

        tag, d_pca, d_raw, whiten = r.next_line().split()
        if tag != "PCA":
            raise VocabError(f"{path}: expected PCA section, got {tag!r}")
        d_pca, d_raw = int(d_pca), int(d_raw)
        pca = PcaModel(
            mean=r.floats(d_raw),
            eigenvalues=r.floats(d_pca),
            basis=r.matrix(d_pca, d_raw),
            whiten=bool(int(whiten)),
        )

        tag, k, dim, n_ll = r.next_line().split()
        if tag != "GMM":
            raise VocabError(f"{path}: expected GMM section, got {tag!r}")
        k, dim, n_ll = int(k), int(dim), int(n_ll)
        gmm = Gmm(
            weights=r.floats(k),
            means=r.matrix(k, dim),
            variances=r.matrix(k, dim),
        )
        if n_ll:
            gmm.log_likelihoods = r.floats(n_ll)

        tag, n, f, m = r.next_line().split()
        if tag != "KPCA":
            raise VocabError(f"{path}: expected KPCA section, got {tag!r}")
        n, f, m = int(n), int(f), int(m)
        kpca = KpcaModel(
            eigenvalues=r.floats(m),
            row_means=r.floats(n),
            total_mean=float(r.floats(1)[0]),
            alphas=r.matrix(n, m),
            training_projections=r.matrix(n, m),
            training_vectors=r.matrix(n, f),
        )
    except (ValueError, IndexError) as exc:
        if isinstance(exc, VocabError):
            raise
        raise VocabError(f"{path}: malformed vocabulary file: {exc}") from None
    vocab = Vocabulary(
        pca=pca,
        gmm=gmm,
        kpca=kpca,
        descriptor_dim=descriptor_dim,
        alpha=alpha,
        version=version,
    )
    _check_vocabulary(path, vocab)
    return vocab


def _check_vocabulary(path, vocab: Vocabulary) -> None:
    """Reject shapes and values no trained vocabulary can hold, naming the section."""
    pca, gmm, kpca = vocab.pca, vocab.gmm, vocab.kpca
    k, d = gmm.n_components, gmm.dim
    n, f = kpca.training_vectors.shape
    if pca.mean.shape[0] != vocab.descriptor_dim:
        raise VocabError(
            f"{path}: PCA section input dimension {pca.mean.shape[0]} "
            f"!= descriptor_dim {vocab.descriptor_dim}"
        )
    if d != pca.out_dim:
        raise VocabError(
            f"{path}: GMM section dim {d} != PCA output dimension {pca.out_dim}"
        )
    if f != 2 * k * d:
        raise VocabError(
            f"{path}: KPCA section feature dimension {f} != 2*K*dim = {2 * k * d}"
        )
    if kpca.out_dim > n:
        raise VocabError(
            f"{path}: KPCA section output dimension {kpca.out_dim} > {n} training vectors"
        )
    sections = {
        "alpha": [vocab.alpha],
        "PCA": [pca.mean, pca.eigenvalues, pca.basis],
        "GMM": [gmm.weights, gmm.means, gmm.variances, gmm.log_likelihoods],
        "KPCA": [
            kpca.eigenvalues, kpca.row_means, kpca.total_mean, kpca.alphas,
            kpca.training_projections, kpca.training_vectors,
        ],
    }
    for name, arrays in sections.items():
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise VocabError(f"{path}: non-finite value in {name} section")
    if vocab.alpha <= 0:
        raise VocabError(f"{path}: alpha must be positive, got {vocab.alpha}")
    if np.any(gmm.variances <= 0):
        raise VocabError(f"{path}: GMM variances must be positive")
    if np.any(gmm.weights < 0) or abs(float(gmm.weights.sum()) - 1.0) > 1e-6:
        raise VocabError(f"{path}: GMM weights must be non-negative and sum to 1")
