"""Appearance-encoding model: PCA, diagonal-covariance GMM, and kernel PCA.

The trained Vocabulary holds the three stages used to turn an image's local
descriptors into one fixed-length embedding: PCA decorrelation of raw
descriptors, a GMM visual vocabulary fitted by EM, and a kernel-PCA
compressor fitted on the database images' normalized Fisher vectors.  Its
model file also carries an index of the database images' embeddings and
parsed features, so a search parses and embeds only its queries.
"""

from __future__ import annotations

import warnings
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, NamedTuple

import numpy as np

from .ingest import FRAME_FIELDS, ImageFeatures

VARIANCE_FLOOR = 1e-6
WHITEN_FLOOR = 1e-12
VOCAB_VERSION = 4


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


class IndexRow(NamedTuple):
    """A database image's embedding (unit norm, or zero for a degenerate
    image) and parsed features, and the sha256 of the PATF bytes they came
    from."""

    sha256: str
    embedding: np.ndarray
    features: ImageFeatures


@dataclass
class Vocabulary:
    pca: PcaModel
    gmm: Gmm
    kpca: KpcaModel
    descriptor_dim: int
    # Power-normalization exponent used when the database Fisher vectors were
    # built; queries must reuse it, so it travels with the model.
    alpha: float = 0.5
    # Database image_id -> IndexRow, as build-vocab parsed and embedded it.
    index: Dict[str, IndexRow] = field(default_factory=dict)


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
    basis = np.ascontiguousarray(_sign_fix_rows(eigvecs[:, order].T))
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
    # C order, as a model file loads them: embeddings made at build time are
    # then bit-equal to a query's.
    V = np.ascontiguousarray(_sign_fix_rows(eigvecs[:, :out_dim].T).T)
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


def apply_kpca(model: KpcaModel, fisher_vector: np.ndarray) -> np.ndarray:
    """Project one normalized Fisher vector through the fitted kernel PCA.

    The kernel row against the training vectors is centered with the stored
    statistics and multiplied by the coefficients; the projection is then
    L2-normalized.  An exactly-zero projection cannot be normalized and is
    returned as the zero vector, the degenerate embedding.
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
        return np.zeros(model.out_dim)
    return projection / norm


# The trained stages, stored field by field as "<section>_<field>" arrays.
_SECTIONS = {"pca": PcaModel, "gmm": Gmm, "kpca": KpcaModel}
# Arrays of a model file: name -> (dtype, shape).  Shapes are given in named
# dimensions; a name binds at the first array that has it (or in _FIXED_DIMS)
# and must agree after.  Each section has its own names, so _check_vocabulary
# reports cross-section mismatches in its own words.  "U" is fixed-width
# unicode of any width, since np.load(allow_pickle=False) reads no object
# arrays.  The index's features are concatenated over its rows in index
# order, index_feature_counts[i] of them for row i.
_LAYOUT = {
    "version": ("i8", ()),
    "alpha": ("f8", ()),
    "descriptor_dim": ("i8", ()),
    "pca_whiten": ("?", ()),
    "pca_mean": ("f8", ("pca_in",)),
    "pca_eigenvalues": ("f8", ("pca_out",)),
    "pca_basis": ("f8", ("pca_out", "pca_in")),
    "gmm_weights": ("f8", ("k",)),
    "gmm_means": ("f8", ("k", "gmm_dim")),
    "gmm_variances": ("f8", ("k", "gmm_dim")),
    "gmm_log_likelihoods": ("f8", ("em_iters",)),
    "kpca_eigenvalues": ("f8", ("m",)),
    "kpca_row_means": ("f8", ("n",)),
    "kpca_total_mean": ("f8", ()),
    "kpca_alphas": ("f8", ("n", "m")),
    "kpca_training_projections": ("f8", ("n", "m")),
    "kpca_training_vectors": ("f8", ("n", "f")),
    "index_image_ids": ("U", ("rows",)),
    "index_sha256": ("U", ("rows",)),
    "index_embeddings": ("f8", ("rows", "m")),
    "index_feature_counts": ("i8", ("rows",)),
    "index_frames": ("f8", ("features", "frame_fields")),
    "index_descriptors": ("f8", ("features", "index_dim")),
}
_FIXED_DIMS = {"frame_fields": len(FRAME_FIELDS)}


def _model_arrays(vocab: Vocabulary) -> Dict[str, np.ndarray]:
    """The arrays of vocab's model file by _LAYOUT name, each C-contiguous."""
    rows = list(vocab.index.values())
    features = [row.features for row in rows]
    values = {
        "version": VOCAB_VERSION,
        "alpha": vocab.alpha,
        "descriptor_dim": vocab.descriptor_dim,
        "index_image_ids": list(vocab.index),
        "index_sha256": [row.sha256 for row in rows],
        "index_embeddings": np.reshape(
            [row.embedding for row in rows], (len(rows), vocab.kpca.out_dim)
        ),
        "index_feature_counts": [f.count for f in features],
        "index_frames": np.concatenate(
            [np.zeros((0, len(FRAME_FIELDS)))] + [f.frames for f in features]
        ),
        # An empty image adds no rows, so its descriptor width is not stored.
        "index_descriptors": np.concatenate(
            [np.zeros((0, vocab.descriptor_dim))]
            + [f.descriptors for f in features if f.count]
        ),
    }
    for section in _SECTIONS:
        model = getattr(vocab, section)
        for f in fields(model):
            values[f"{section}_{f.name}"] = getattr(model, f.name)
    return {
        name: np.asarray(values[name], dtype=str if dtype == "U" else dtype, order="C")
        for name, (dtype, _) in _LAYOUT.items()
    }


def _vocabulary_from(arrays: Dict[str, np.ndarray], path) -> Vocabulary:
    """The Vocabulary that model-file arrays hold, once every check passes."""
    dims = dict(_FIXED_DIMS)
    for name, (dtype, shape) in _LAYOUT.items():
        a = arrays.get(name)
        if a is None:
            raise VocabError(f"{path}: missing array {name!r}")
        if not isinstance(a, np.ndarray) or (
            a.dtype.kind != "U" if dtype == "U" else a.dtype != dtype
        ):
            raise VocabError(f"{path}: array {name!r} is not of dtype {dtype}")
        for dim, size in zip(shape, a.shape):
            dims.setdefault(dim, size)
        expected = tuple(dims.get(dim, dim) for dim in shape)
        if a.shape != expected:
            raise VocabError(
                f"{path}: array {name!r} has shape {a.shape}, expected {expected}"
            )
        if dtype == "f8" and not np.isfinite(a).all():
            section = name.split("_")[0]
            section = section.upper() if section in _SECTIONS else section
            raise VocabError(f"{path}: non-finite value in {section} section")
        # version leads _LAYOUT, so an older file is named as such before
        # any array it lacks is reported missing.
        if name == "version" and a.item() != VOCAB_VERSION:
            raise VocabError(
                f"{path}: model file version {a.item()}, expected {VOCAB_VERSION} "
                "(rebuild it with build-vocab)"
            )
    a = {name: x.item() if x.ndim == 0 else x for name, x in arrays.items()}
    ids = a["index_image_ids"].tolist()
    index = {
        image_id: IndexRow(digest, embedding, features)
        for image_id, digest, embedding, features in zip(
            ids, a["index_sha256"].tolist(), a["index_embeddings"], _index_features(path, ids, a)
        )
    }
    if len(index) != len(ids):
        raise VocabError(f"{path}: database index lists an image id twice")
    vocab = Vocabulary(
        **{
            section: cls(**{f.name: a[f"{section}_{f.name}"] for f in fields(cls)})
            for section, cls in _SECTIONS.items()
        },
        descriptor_dim=a["descriptor_dim"],
        alpha=a["alpha"],
        index=index,
    )
    _check_vocabulary(path, vocab)
    return vocab


def _index_features(path, ids, a: Dict[str, np.ndarray]):
    """Each index row's ImageFeatures, once the stored arrays pass the checks
    parse_feature_file makes on a PATF file's rows."""
    counts, frames, descriptors = (
        a["index_feature_counts"], a["index_frames"], a["index_descriptors"]
    )
    total = frames.shape[0]
    if not ((0 <= counts) & (counts <= total)).all() or counts.sum() != total:
        raise VocabError(
            f"{path}: index feature counts must be >= 0 and sum to {total} features"
        )
    if descriptors.shape[1] != a["descriptor_dim"]:
        raise VocabError(
            f"{path}: index descriptor width {descriptors.shape[1]} "
            f"!= descriptor_dim {a['descriptor_dim']}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs(frames[:, 2] * frames[:, 5] - frames[:, 3] * frames[:, 4])
        norms = np.sqrt(np.einsum("ij,ij->i", descriptors, descriptors))
    if not ((1e-12 <= det) & (det < np.inf)).all():
        raise VocabError(f"{path}: index frame with |det| < 1e-12 or overflowing")
    if not (np.abs(norms - 1.0) <= 1e-12).all():
        raise VocabError(f"{path}: index descriptor whose norm is not 1 within 1e-12")
    bounds = np.cumsum(counts)[:-1]
    return [
        ImageFeatures(image_id=image_id, frames=f, descriptors=d)
        for image_id, f, d in zip(ids, np.split(frames, bounds), np.split(descriptors, bounds))
    ]


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write vocab as one model file: an uncompressed zip of .npy arrays.

    Written through an open handle, so path is used as given (np.savez would
    append ".npz"), with fixed member timestamps, so one model gives one byte
    string.
    """
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, array in _model_arrays(vocab).items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(member, "w") as out:
                np.lib.format.write_array(out, array, allow_pickle=False)


def load_vocabulary(path) -> Vocabulary:
    """Read a model file written by save_vocabulary and check every array."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # a zip archive's first local header
            raise VocabError(
                f"{path}: not a model file (a text vocabulary from an older "
                "version must be rebuilt with build-vocab)"
            )
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {
                    name: archive[name] for name in _LAYOUT if name in archive.files
                }
        except Exception as exc:
            # zipfile and np.load fail on damaged bytes with many types
            # (BadZipFile, EOFError, KeyError, RuntimeError, TokenError, ...).
            raise VocabError(f"{path}: unreadable model file: {exc}") from None
    return _vocabulary_from(arrays, path)


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
    if vocab.alpha <= 0:
        raise VocabError(f"{path}: alpha must be positive, got {vocab.alpha}")
    if np.any(gmm.variances <= 0):
        raise VocabError(f"{path}: GMM variances must be positive")
    if np.any(gmm.weights < 0) or abs(float(gmm.weights.sum()) - 1.0) > 1e-6:
        raise VocabError(f"{path}: GMM weights must be non-negative and sum to 1")
    for image_id, row in vocab.index.items():
        norm = float(np.linalg.norm(row.embedding))
        if norm != 0 and abs(norm - 1) > 1e-6:
            raise VocabError(
                f"{path}: index embedding of {image_id!r} has norm {norm}, "
                "expected 1 (or 0 for a degenerate image)"
            )
