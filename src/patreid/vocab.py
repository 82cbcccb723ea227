"""Appearance-encoding model: PCA, diagonal-covariance GMM, and kernel PCA.

The trained Vocabulary holds the three stages used to turn an image's local
descriptors into one fixed-length embedding: PCA decorrelation of raw
descriptors, a GMM visual vocabulary fitted by EM, and a kernel-PCA
compressor fitted on the database images' normalized Fisher vectors.
Training also indexes those images: their embeddings, and their features
read by row.  The model file stores the index with the stages, so a search
parses and embeds only its queries, and reads the features of only the
database images it verifies.
"""

from __future__ import annotations

import contextlib
import operator
import os
import warnings
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from .ingest import FRAME_FIELDS, ImageFeatures

VARIANCE_FLOOR = 1e-6
WHITEN_FLOOR = 1e-12
VOCAB_VERSION = 6


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
    """Kernel PCA as the affine map it applies: a normalized Fisher vector v
    projects to matrix @ v - offset, with matrix (m, f) and offset (m,).  A
    model file stores only the map, not the training vectors it was fitted on."""

    matrix: np.ndarray
    offset: np.ndarray
    # Fit diagnostics, not stored: the kept eigenvalues of the centered Gram
    # matrix and the training vectors' projections.
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))
    training_projections: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class DatabaseIndex:
    """The database images as training saw them: row k is image image_ids[k],
    with embeddings[k] its (m,) embedding (unit norm, or zero for a
    degenerate image) and feature_counts[k] features.

    The index is a snapshot: a search uses a row without opening its PATF
    file, which need not exist, so an edited database file counts only once
    build-vocab is rerun.
    """

    image_ids: List[str]
    embeddings: np.ndarray
    feature_counts: np.ndarray


@dataclass
class Vocabulary:
    pca: PcaModel
    gmm: Gmm
    kpca: KpcaModel
    index: DatabaseIndex
    # read_row(k) returns index row k's features: from memory after training,
    # from the model file (checked on every call) after load_vocabulary.
    read_row: Callable[[int], ImageFeatures] = field(repr=False, compare=False)
    descriptor_dim: int
    # Power-normalization exponent used when the database Fisher vectors were
    # built; queries must reuse it, so it travels with the model.
    alpha: float
    # Closes the model file a loaded vocabulary reads its index rows from.
    close: Callable[[], None] = field(default=lambda: None, repr=False, compare=False)

    def __enter__(self) -> Vocabulary:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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


def _log_gaussian_terms(gmm: Gmm, X: np.ndarray, XX: np.ndarray) -> np.ndarray:
    """log(pi_k) + log N(x; mu_k, diag sigma_k^2) for every (point, component);
    XX is X * X, which EM computes once per fit."""
    var = gmm.variances
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * var), axis=1)
    # (N, K): quadratic form of the diagonal Gaussian, expanded to use BLAS.
    x2 = XX @ (1.0 / var).T
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
    return float(np.mean(_logsumexp(_log_gaussian_terms(gmm, X, X * X), axis=1)))


def gmm_posteriors(gmm: Gmm, x: np.ndarray) -> np.ndarray:
    """Component posteriors gamma(k), via log-sum-exp; rows sum to 1.

    Accepts one vector (returns (K,)) or a matrix (returns (N, K)).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != gmm.dim:
        raise VocabError(f"input dim {X.shape[1]} != gmm dim {gmm.dim}")
    log_terms = _log_gaussian_terms(gmm, X, X * X)
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
    tol: float = 1e-3,
) -> Gmm:
    """Diagonal-covariance GMM by EM with k-means++ seeding.

    Stops once an iteration improves the per-point average log-likelihood
    by less than tol (scikit-learn's GaussianMixture default on the same
    quantity), or after max_iters.  On the benchmark's three datasets the
    tol rule ends EM after 30 to 60 iterations.  The likelihood trace is
    attached to the model; it is non-decreasing up to floating-point slack.
    K=1 is the closed-form maximum-likelihood Gaussian.
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

    XX = X * X
    trace = []
    prev = None
    for _ in range(max_iters):
        log_terms = _log_gaussian_terms(gmm, X, XX)
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
        second = (gamma.T @ XX) / nk_safe[:, None]
        gmm.variances = np.maximum(second - gmm.means**2, VARIANCE_FLOOR)

    gmm.log_likelihoods = np.array(trace)
    return gmm


def fit_kpca(fisher_vectors: np.ndarray, out_dim: int) -> KpcaModel:
    """Dot-product kernel PCA on the double-centered Gram matrix.

    Keeps the top out_dim eigenpairs with positive eigenvalues (reducing
    out_dim with a warning when rank falls short); coefficient columns are
    scaled by 1/sqrt(eigenvalue) so projections carry unit-eigenvalue
    scaling, with the same sign convention as fit_pca.  The result is the
    affine map those coefficients apply to a vector's centered kernel row.
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
    # The centered kernel row of v, X v - row_means - mean(X v) + total_mean, is
    # (X - 1 mean(X)^T) v - (row_means - total_mean), so its product with alphas
    # is affine in v.  matmul returns both parts in C order, as a model file
    # loads them: embeddings made at build time are then bit-equal to a query's.
    return KpcaModel(
        matrix=alphas.T @ (X - X.mean(axis=0)),
        offset=alphas.T @ (row_means - total_mean),
        eigenvalues=eigvals,
        training_projections=np.ascontiguousarray(V * np.sqrt(eigvals)[None, :]),
    )


def apply_kpca(model: KpcaModel, fisher_vector: np.ndarray) -> np.ndarray:
    """Project one normalized Fisher vector through the kernel PCA map,
    matrix @ v - offset, and L2-normalize the projection.  The zero vector
    (the normalized Fisher vector of a degenerate image) and an exactly-zero
    projection, which cannot be normalized, give the zero vector, the
    degenerate embedding.
    """
    v = np.asarray(fisher_vector, dtype=np.float64)
    if v.shape != (model.matrix.shape[1],):
        raise VocabError(f"expected vector of dim {model.matrix.shape[1]}, got shape {v.shape}")
    if not v.any():
        return np.zeros(model.out_dim)
    projection = model.matrix @ v - model.offset
    norm = float(np.linalg.norm(projection))
    if norm < 1e-30:
        return np.zeros(model.out_dim)
    return projection / norm


# The trained stages and the database index, stored field by field as
# "<section>_<field>" arrays; a field _LAYOUT does not name (a fit diagnostic)
# is not stored.
_SECTIONS = {"pca": PcaModel, "gmm": Gmm, "kpca": KpcaModel, "index": DatabaseIndex}
# Arrays of a model file: name -> (dtype, shape).  Shapes are given in named
# dimensions; a name binds at the first array that has it and must agree
# after.  Each section has its own names, so _check_vocabulary reports
# cross-section mismatches in its own words.  "U" is fixed-width unicode of
# any width, since np.load(allow_pickle=False) reads no object arrays.  The
# index arrays hold one entry per database image; its features are members
# of their own (_ROW_MEMBER).
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
    "kpca_matrix": ("f8", ("m", "f")),
    "kpca_offset": ("f8", ("m",)),
    "index_image_ids": ("U", ("rows",)),
    "index_embeddings": ("f8", ("rows", "m")),
    "index_feature_counts": ("i8", ("rows",)),
}
# Member of index row k's features: its (count, 6) frames, then its
# (count, descriptor_dim) unit descriptors, as raw little-endian float64.
_ROW_MEMBER = "index_rows/{}"


def _member(name: str) -> zipfile.ZipInfo:
    """A model-file member with a fixed timestamp, stored uncompressed."""
    return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))


def _model_arrays(vocab: Vocabulary) -> Dict[str, np.ndarray]:
    """The arrays of vocab's model file by _LAYOUT name, each C-contiguous."""
    values = {"version": VOCAB_VERSION, "alpha": vocab.alpha, "descriptor_dim": vocab.descriptor_dim}
    for section in _SECTIONS:
        model = getattr(vocab, section)
        for f in fields(model):
            values[f"{section}_{f.name}"] = getattr(model, f.name)
    return {
        name: np.asarray(values[name], dtype=str if dtype == "U" else dtype, order="C")
        for name, (dtype, _) in _LAYOUT.items()
    }


def _vocabulary_from(arrays: Dict[str, np.ndarray], path, archive) -> Vocabulary:
    """The Vocabulary that model-file arrays hold, once every check passes;
    its index rows are read from archive(), the calling process's archive."""
    dims = {}
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
            section = section.upper() if section in ("pca", "gmm", "kpca") else section
            raise VocabError(f"{path}: non-finite value in {section} section")
        # version leads _LAYOUT, so an older file is named as such before
        # any array it lacks is reported missing.
        if name == "version" and a.item() != VOCAB_VERSION:
            raise VocabError(
                f"{path}: model file version {a.item()}, expected {VOCAB_VERSION} "
                "(rebuild it with build-vocab)"
            )
    # Scalars load as Python values, image ids as a list of str.
    a = {n: x.tolist() if x.ndim == 0 or x.dtype.kind == "U" else x for n, x in arrays.items()}
    ids, counts, dim = a["index_image_ids"], a["index_feature_counts"], a["descriptor_dim"]
    vocab = Vocabulary(
        **{
            section: cls(
                **{f.name: a[f"{section}_{f.name}"] for f in fields(cls)
                   if f"{section}_{f.name}" in _LAYOUT}
            )
            for section, cls in _SECTIONS.items()
        },
        read_row=lambda k: read_index_row(archive(), path, k, ids[k], int(counts[k]), dim),
        descriptor_dim=dim,
        alpha=a["alpha"],
    )
    _check_vocabulary(path, vocab)
    return vocab


def read_index_row(
    archive: zipfile.ZipFile, path, k: int, image_id: str, count: int, dim: int
) -> ImageFeatures:
    """Index row k's features, read from the model file's archive (which
    checks the member's CRC-32) and then checked as parse_feature_file checks
    a PATF file's rows."""
    try:
        data = archive.read(_ROW_MEMBER.format(k))
    except Exception as exc:
        # Damaged bytes fail with many types, as in load_vocabulary.
        raise VocabError(f"{path}: unreadable index row of {image_id!r}: {exc}") from None
    size = 8 * count * (len(FRAME_FIELDS) + dim)
    if len(data) != size:
        raise VocabError(
            f"{path}: index row of {image_id!r} has {len(data)} bytes, "
            f"expected {size} for {count} features"
        )
    values = np.frombuffer(data, dtype="<f8")
    frames = values[: count * len(FRAME_FIELDS)].reshape(count, len(FRAME_FIELDS))
    descriptors = values[frames.size :].reshape(count, dim)
    if not np.isfinite(values).all():
        raise VocabError(f"{path}: non-finite value in index row of {image_id!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs(frames[:, 2] * frames[:, 5] - frames[:, 3] * frames[:, 4])
        norms = np.sqrt(np.einsum("ij,ij->i", descriptors, descriptors))
    if not ((1e-12 <= det) & (det < np.inf)).all():
        raise VocabError(
            f"{path}: index frame with |det| < 1e-12 or overflowing in row of {image_id!r}"
        )
    if not (np.abs(norms - 1.0) <= 1e-12).all():
        raise VocabError(
            f"{path}: index descriptor whose norm is not 1 within 1e-12 "
            f"in row of {image_id!r}"
        )
    return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write vocab as one model file: an uncompressed zip of .npy arrays and
    one member per index row.

    Written through an open handle, so path is used as given (np.savez would
    append ".npz"), with fixed member timestamps, so one model gives one byte
    string.
    """
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, array in _model_arrays(vocab).items():
            with archive.open(_member(f"{name}.npy"), "w") as out:
                np.lib.format.write_array(out, array, allow_pickle=False)
        for k in range(len(vocab.index.image_ids)):
            f = vocab.read_row(k)
            archive.writestr(
                _member(_ROW_MEMBER.format(k)),
                np.ascontiguousarray(f.frames, "<f8").tobytes()
                + np.ascontiguousarray(f.descriptors, "<f8").tobytes(),
            )


def load_vocabulary(path) -> Vocabulary:
    """Read a model file written by save_vocabulary and check every array.

    Index row k's features are read and checked on each read_row(k) call,
    so the file stays open until the vocabulary is closed: use the result
    in a with block.
    """
    path = Path(path)
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "rb"))
        if fh.read(4) != b"PK\x03\x04":  # a zip archive's first local header
            raise VocabError(
                f"{path}: not a model file (a text vocabulary from an older "
                "version must be rebuilt with build-vocab)"
            )
        fh.seek(0)
        try:
            archive = stack.enter_context(np.load(fh, allow_pickle=False))
            arrays = {name: archive[name] for name in _LAYOUT if name in archive.files}
        except Exception as exc:
            # zipfile and np.load fail on damaged bytes with many types
            # (BadZipFile, EOFError, KeyError, RuntimeError, TokenError, ...).
            raise VocabError(f"{path}: unreadable model file: {exc}") from None
        vocab = _vocabulary_from(arrays, path, _process_archive(path, fh, archive.zip))
        vocab.close = stack.pop_all().close
    return vocab


def _process_archive(path, fh, archive: zipfile.ZipFile) -> Callable[[], zipfile.ZipFile]:
    """The model file's archive for the calling process: archive in the
    loader.  Any other process (a forked evaluate worker) opens the file anew
    on its first read, so no two processes share a file offset, and checks
    that it is the file the loader opened."""
    identity = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")
    loaded, archives = identity(os.fstat(fh.fileno())), {os.getpid(): archive}

    def current() -> zipfile.ZipFile:
        if os.getpid() not in archives:
            own = open(path, "rb")
            if identity(os.fstat(own.fileno())) != loaded:
                own.close()
                raise VocabError(f"{path}: model file changed since it was loaded")
            archives[os.getpid()] = zipfile.ZipFile(own)
        return archives[os.getpid()]

    return current


def _check_vocabulary(path, vocab: Vocabulary) -> None:
    """Reject shapes and values no trained vocabulary can hold, naming the section."""
    pca, gmm, kpca = vocab.pca, vocab.gmm, vocab.kpca
    k, d = gmm.n_components, gmm.dim
    f = kpca.matrix.shape[1]
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
    if vocab.alpha <= 0:
        raise VocabError(f"{path}: alpha must be positive, got {vocab.alpha}")
    if np.any(gmm.variances <= 0):
        raise VocabError(f"{path}: GMM variances must be positive")
    if np.any(gmm.weights < 0) or abs(float(gmm.weights.sum()) - 1.0) > 1e-6:
        raise VocabError(f"{path}: GMM weights must be non-negative and sum to 1")
    ids, embeddings = vocab.index.image_ids, vocab.index.embeddings
    if len(set(ids)) != len(ids):
        raise VocabError(f"{path}: database index lists an image id twice")
    if (vocab.index.feature_counts < 0).any():
        raise VocabError(f"{path}: index feature counts must be >= 0")
    # Per-row dot products, bit-identical to np.linalg.norm of each row.
    norms = np.sqrt((embeddings[:, None, :] @ embeddings[:, :, None])[:, 0, 0])
    bad = (norms != 0) & (np.abs(norms - 1) > 1e-6)
    if bad.any():
        k = int(np.argmax(bad))
        raise VocabError(
            f"{path}: index embedding of {ids[k]!r} has norm {float(norms[k])}, "
            "expected 1 (or 0 for a degenerate image)"
        )
