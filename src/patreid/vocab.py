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

import collections.abc
import contextlib
import itertools
import json
import math
import os
import warnings
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from .ingest import FRAME_FIELDS, ImageFeatures, row_dot, row_faults

VARIANCE_FLOOR = 1e-6
WHITEN_FLOOR = 1e-12
VOCAB_VERSION = 9


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
    # read_row(k) returns index row k's features: after training, item k of the
    # sequence it trained on (a list, or the ModelFile build-vocab is writing);
    # after load_vocabulary, from the model file, checked on every call.
    read_row: Callable[[int], ImageFeatures] = field(repr=False, compare=False)
    # Power-normalization exponent used when the database Fisher vectors were
    # built; queries must reuse it, so it travels with the model.
    alpha: float
    # Closes the model file a loaded vocabulary reads its index rows from.
    close: Callable[[], None] = field(default=lambda: None, repr=False, compare=False)

    @property
    def descriptor_dim(self) -> int:
        return self.pca.mean.shape[0]

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


def _project(model: PcaModel, centered: np.ndarray) -> np.ndarray:
    """Centered descriptors onto the basis; whitening divides by
    sqrt(eigenvalue), in place, which gives the bits of a new quotient."""
    Y = centered @ model.basis.T
    if model.whiten:
        Y /= np.sqrt(np.maximum(model.eigenvalues, WHITEN_FLOOR))
    return Y


def fit_pca(X: np.ndarray, out_dim: int, whiten: bool = False) -> Tuple[PcaModel, np.ndarray]:
    """Top-out_dim eigenvectors of the biased sample covariance of the
    float64 (N, D) X, and its rows' projections, bit for bit what apply_pca
    gives them.

    X is scratch space: the fit centers it in place, leaving the bits of
    X - X.mean(axis=0), so a caller who needs X afterwards passes a copy.
    At its peak the fit holds X and the projections.  Rows of the returned
    basis are orthonormal, ordered by non-increasing eigenvalue, each row's
    largest-magnitude entry positive.
    """
    if X.ndim != 2:
        raise VocabError(f"expected (N, D) descriptors, got shape {X.shape}")
    n, d = X.shape
    if out_dim < 1 or out_dim > d:
        raise VocabError(f"out_dim must be in [1, {d}], got {out_dim}")
    if n < out_dim + 1:
        raise VocabError(f"need at least {out_dim + 1} descriptors, got {n}")
    mean = X.mean(axis=0)
    X -= mean  # the bits of X - mean
    cov = (X.T @ X) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:out_dim]
    eigvals = np.maximum(eigvals[order], 0.0)
    basis = np.ascontiguousarray(_sign_fix_rows(eigvecs[:, order].T))
    model = PcaModel(mean=mean, basis=basis, eigenvalues=eigvals, whiten=whiten)
    return model, _project(model, X)


def apply_pca(model: PcaModel, descriptors: np.ndarray) -> np.ndarray:
    """Project onto the PCA basis; whitening divides by sqrt(eigenvalue)."""
    X = np.asarray(descriptors, dtype=np.float64)
    if X.shape[-1] != model.mean.shape[0]:
        raise VocabError(
            f"descriptor dim {X.shape[-1]} != model dim {model.mean.shape[0]}"
        )
    return _project(model, X - model.mean)


def _log_gaussian_terms(gmm: Gmm, X: np.ndarray, XX: np.ndarray) -> np.ndarray:
    """log(pi_k) + log N(x; mu_k, diag sigma_k^2) for every (point, component);
    XX is X * X, which EM computes once per fit and fisher_encode once per image."""
    var = gmm.variances
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * var), axis=1)
    # (N, K): quadratic form of the diagonal Gaussian, expanded to use BLAS
    # and finished in place (a - b is a + -b, bit for bit).
    quad = XX @ (1.0 / var).T
    xm = X @ (gmm.means / var).T
    quad -= np.multiply(xm, 2.0, out=xm)
    quad += np.sum(gmm.means * gmm.means / var, axis=1)
    quad *= -0.5
    quad += np.log(gmm.weights) + log_norm
    return quad


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)), shifted by each row's max; the max is taken
    column by column, which is exact and propagates NaN as np.max does."""
    m = a[:, 0].copy()
    for column in a.T[1:]:
        np.maximum(m, column, out=m)
    shifted = a - m[:, None]
    return m + np.log(np.sum(np.exp(shifted, out=shifted), axis=1))


def _e_step(gmm: Gmm, X: np.ndarray, XX: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The GMM E-step for the rows of the (N, D) X, with XX = X * X: their
    (N, K) component posteriors gamma, rows summing to 1, and their (N,)
    log-likelihoods under the mixture, both via log-sum-exp."""
    log_terms = _log_gaussian_terms(gmm, X, XX)
    lse = _logsumexp(log_terms)
    log_terms -= lse[:, None]
    return np.exp(log_terms, out=log_terms), lse


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
    At K=1 every posterior is exactly 1, so the first M-step gives the
    sample moments and the next one leaves them as they are.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise VocabError(f"expected (N, D) vectors, got shape {X.shape}")
    n, d = X.shape
    if k < 1:
        raise VocabError(f"k must be >= 1, got {k}")
    if n < k:
        raise VocabError(f"need at least k={k} vectors, got {n}")

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
    for _ in range(max_iters):
        gamma, lse = _e_step(gmm, X, XX)
        trace.append(float(np.mean(lse)))
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            break

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
    n_pos = int(np.count_nonzero(positive))
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
# "<section>_<field>"; a field that neither _HEADER_FIELDS nor _LAYOUT names
# (a fit diagnostic) is not stored.
_SECTIONS = {"pca": PcaModel, "gmm": Gmm, "kpca": KpcaModel, "index": DatabaseIndex}
# A model file is, in order: the index rows from byte 0; each _LAYOUT array
# as raw little-endian bytes, in table order; a JSON header (the scalars, the
# image ids, the sizes of _DIMS and each array's CRC-32, by type); the
# header's length as <u8; the header's CRC-32 as <u4; and _MAGIC.
_MAGIC = b"PATMODEL"
_HEADER_FIELDS = {"version": int, "alpha": float, "pca_whiten": bool,
                  "index_image_ids": list, "dims": dict, "array_crc32": list}
# The sizes the header's dims state, each the length of the array named.
_DIMS = {"pca_in": "pca_mean", "pca_out": "pca_eigenvalues", "k": "gmm_weights", "m": "kpca_offset"}
# name -> (dtype, shape in the named sizes): those of _DIMS, "rows" (one per
# database image id) and "f" (2 * k * pca_out, a Fisher vector's length).
# Row k of the index rows is its (count, 6) frames, then its (count, pca_in)
# unit descriptors, as raw little-endian float64, and index_row_crc32[k] is
# the CRC-32 of its bytes.
_LAYOUT = {
    "pca_mean": ("<f8", ("pca_in",)),
    "pca_eigenvalues": ("<f8", ("pca_out",)),
    "pca_basis": ("<f8", ("pca_out", "pca_in")),
    "gmm_weights": ("<f8", ("k",)),
    "gmm_means": ("<f8", ("k", "pca_out")),
    "gmm_variances": ("<f8", ("k", "pca_out")),
    "kpca_matrix": ("<f8", ("m", "f")),
    "kpca_offset": ("<f8", ("m",)),
    "index_embeddings": ("<f8", ("rows", "m")),
    "index_feature_counts": ("<i8", ("rows",)),
    "index_row_crc32": ("<u4", ("rows",)),
}


def _shapes(dims: dict, rows: int) -> dict:
    """Each _LAYOUT array's shape, by name, for the sizes dims states and
    rows database image ids."""
    sizes = {**dims, "rows": rows, "f": 2 * dims["k"] * dims["pca_out"]}
    return {name: tuple(sizes[d] for d in dim_names) for name, (_, dim_names) in _LAYOUT.items()}


def _vocabulary_from(header: dict, end: int, path, fh) -> Vocabulary:
    """The Vocabulary that a model file's header and the bytes of fh before
    byte end (where the header starts) hold, once every check passes; it
    reads index rows from fh."""
    for name, kind in _HEADER_FIELDS.items():
        if type(header.get(name)) is not kind:
            raise VocabError(f"{path}: header field {name!r} is not of type {kind.__name__}")
    if not math.isfinite(header["alpha"]):
        raise VocabError(f"{path}: non-finite value in alpha")
    unknown = sorted(header.keys() - _HEADER_FIELDS.keys())
    if unknown:
        raise VocabError(f"{path}: header has unknown field {unknown[0]!r}")
    values = {name: header[name] for name in _HEADER_FIELDS}
    dims, ids, array_crcs = header["dims"], header["index_image_ids"], header["array_crc32"]
    if not all(type(i) is str for i in ids):
        raise VocabError(f"{path}: header field 'index_image_ids' is not a list of strings")
    if [type(c) for c in array_crcs] != [int] * len(_LAYOUT):
        raise VocabError(f"{path}: header field 'array_crc32' is not {len(_LAYOUT)} integers")
    if not all(type(dims.get(d)) is int and dims[d] >= 0 for d in _DIMS):
        raise VocabError(f"{path}: header dims {', '.join(_DIMS)} are not all counts")
    unknown = sorted(dims.keys() - _DIMS.keys())
    if unknown:
        raise VocabError(f"{path}: header dims has unknown key {unknown[0]!r}")
    shapes = _shapes(dims, len(ids))
    at = sum(np.dtype(dtype).itemsize * math.prod(shapes[n]) for n, (dtype, _) in _LAYOUT.items())
    if at > end:
        raise VocabError(f"{path}: {end} bytes precede the header, whose dims need {at} of arrays")
    block = os.pread(fh.fileno(), at, end - at)
    # at walks back from the header, so with an intact header a wrong-length array is named.
    for (name, (dtype, _)), crc in reversed(list(zip(_LAYOUT.items(), array_crcs))):
        count = math.prod(shapes[name])
        at -= np.dtype(dtype).itemsize * count
        values[name] = np.frombuffer(block, dtype, count, at).reshape(shapes[name])
        if zlib.crc32(values[name]) != crc:
            raise VocabError(f"{path}: unreadable array {name!r}: bad CRC-32")
        if dtype == "<f8" and not np.isfinite(values[name]).all():
            section = name.split("_")[0].upper().replace("INDEX", "index")
            raise VocabError(f"{path}: non-finite value in {section} section")
    vocab = Vocabulary(
        **{
            section: cls(
                **{f.name: values[f"{section}_{f.name}"] for f in fields(cls)
                   if f"{section}_{f.name}" in values}
            )
            for section, cls in _SECTIONS.items()
        },
        read_row=None,
        alpha=header["alpha"],
    )
    _check_vocabulary(path, vocab)
    counts, crcs = values["index_feature_counts"].tolist(), values["index_row_crc32"].tolist()
    dim, width = vocab.descriptor_dim, 8 * (len(FRAME_FIELDS) + vocab.descriptor_dim)
    starts = list(itertools.accumulate((width * c for c in counts), initial=0))
    if starts[-1] != end - len(block):
        raise VocabError(
            f"{path}: index rows have {end - len(block)} bytes, "
            f"expected {starts[-1]} for the feature counts"
        )
    vocab.read_row = lambda k: read_index_row(fh, path, ids[k], starts[k], counts[k], dim, crcs[k])
    return vocab


def read_index_row(fh, path, image_id, at: int, count: int, dim: int, crc: int) -> ImageFeatures:
    """An index row's features, read at byte at of the open model file fh
    and checked against the row's stored CRC-32, then as parse_feature_file
    checks a PATF file's rows.  os.pread moves no file offset, so forked
    processes share the descriptor."""
    size = 8 * count * (len(FRAME_FIELDS) + dim)
    try:
        data = os.pread(fh.fileno(), size, at)
    except (OSError, ValueError) as exc:  # ValueError: fh is closed
        raise VocabError(f"{path}: unreadable index row of {image_id!r}: {exc}") from None
    if len(data) != size:
        raise VocabError(
            f"{path}: index row of {image_id!r} has {len(data)} bytes, "
            f"expected {size} for {count} features"
        )
    if zlib.crc32(data) != crc:
        raise VocabError(f"{path}: unreadable index row of {image_id!r}: bad CRC-32")
    features = _row_features(data, image_id, count, dim)
    faults, norms = row_faults(features.frames, features.descriptors)
    if faults[0].any():
        raise VocabError(f"{path}: non-finite value in index row of {image_id!r}")
    if faults[1:3].any():
        raise VocabError(
            f"{path}: index frame with |det| < 1e-12 or overflowing in row of {image_id!r}"
        )
    if not (np.abs(norms - 1.0) <= 1e-12).all():
        raise VocabError(
            f"{path}: index descriptor whose norm is not 1 within 1e-12 "
            f"in row of {image_id!r}"
        )
    return features


def _row_features(data: bytes, image_id: str, count: int, dim: int) -> ImageFeatures:
    """The features an index row's bytes hold: (count, 6) frames, then
    (count, dim) descriptors."""
    values = np.frombuffer(data, dtype="<f8")
    frames = values[: count * len(FRAME_FIELDS)].reshape(count, len(FRAME_FIELDS))
    return ImageFeatures(image_id, frames, values[frames.size :].reshape(count, dim))


class ModelFile(collections.abc.Sequence):
    """The model file being written for path, beside it as
    "<path>.<pid>.partial": index rows appended one by one, and read back as
    the sequence of the ImageFeatures they hold, then the arrays and header
    that save_vocabulary writes before it renames the file over path.
    Leaving its with block removes the partial file unless save_vocabulary
    renamed it, so an error at any step leaves whatever path held (a reader
    of the old file keeps reading it).
    """

    def __init__(self, path):
        self.path, self.partial = path, f"{os.fspath(path)}.{os.getpid()}.partial"
        self.fh = open(self.partial, "xb+")  # permissions as open(path, "wb") would give
        self.heads, self.crcs, self.starts = [], [], [0]  # heads: (image_id, count, width)

    def __enter__(self) -> ModelFile:
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.partial)

    def append(self, features: ImageFeatures) -> None:
        """Write features as the next index row; only its id, sizes and
        CRC-32 are kept."""
        crc = 0
        for a in (features.frames, features.descriptors):
            a = np.ascontiguousarray(a, "<f8")
            crc = zlib.crc32(a, crc)
            self.fh.write(a)
        self.heads.append((features.image_id, features.count, features.descriptors.shape[1]))
        self.crcs.append(crc)
        self.starts.append(self.fh.tell())

    def __len__(self) -> int:
        return len(self.heads)

    def __getitem__(self, k: int) -> ImageFeatures:
        # This process wrote the row from checked features: it is not checked again.
        k = range(len(self))[k]  # a negative k counts from the end, as in a list
        self.fh.flush()
        data = os.pread(self.fh.fileno(), self.starts[k + 1] - self.starts[k], self.starts[k])
        return _row_features(data, *self.heads[k])


def save_vocabulary(vocab: Vocabulary, model: ModelFile) -> None:
    """Finish model, the ModelFile that holds vocab's index rows: write each
    array and the header after the rows, then rename the file over its path.
    Before that, VocabError names the first row that is not vocab.index's
    entry (image id, feature count and, unless empty, width descriptor_dim),
    or else the first array whose shape disagrees with the header's sizes."""
    dim, path = vocab.descriptor_dim, model.path
    rows = [(i, c, w if c else dim) for i, c, w in model.heads]
    index = zip(vocab.index.image_ids, vocab.index.feature_counts.tolist(), itertools.repeat(dim))
    for k, (row, entry) in enumerate(itertools.zip_longest(rows, index)):
        if row != entry:
            raise VocabError(f"{path}: index row {k} is {row}, expected {entry}")
    values = {"version": VOCAB_VERSION, "alpha": vocab.alpha, "index_row_crc32": model.crcs}
    for section in _SECTIONS:
        part = getattr(vocab, section)
        values.update((f"{section}_{f.name}", getattr(part, f.name)) for f in fields(part))
    arrays = {n: np.ascontiguousarray(values[n], dtype) for n, (dtype, _) in _LAYOUT.items()}
    values["dims"] = {d: len(arrays[name]) for d, name in _DIMS.items()}
    shapes = _shapes(values["dims"], len(vocab.index.image_ids))
    for (name, array), shape in zip(arrays.items(), shapes.values()):
        if array.shape != shape:
            raise VocabError(f"{path}: array {name!r} has shape {array.shape}, expected {shape}")
    values["array_crc32"] = [zlib.crc32(a) for a in arrays.values()]
    with model.fh as fh:
        fh.writelines(arrays.values())
        data = json.dumps({n: kind(values[n]) for n, kind in _HEADER_FIELDS.items()}).encode()
        fh.write(data + len(data).to_bytes(8, "little")
                 + zlib.crc32(data).to_bytes(4, "little") + _MAGIC)
    os.replace(model.partial, model.path)


def load_vocabulary(path) -> Vocabulary:
    """Read a model file written by save_vocabulary and check its header and
    every array.

    Index row k's features are read and checked on each read_row(k) call, by
    offset in the file this opens, so the file stays open until the
    vocabulary is closed: use the result in a with block.  A forked process
    reads rows through the same descriptor, from the file that was loaded.
    """
    path = Path(path)
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "rb"))
        size = os.fstat(fh.fileno()).st_size
        trailer = os.pread(fh.fileno(), 20, max(size - 20, 0))
        if trailer[12:] != _MAGIC:  # such as a text vocabulary or a zip archive
            raise VocabError(
                f"{path}: not a model file of version {VOCAB_VERSION} "
                "(one from an older version must be rebuilt with build-vocab)"
            )
        length = int.from_bytes(trailer[:8], "little")
        end = size - 20 - length  # where the header starts
        if end < 0:
            raise VocabError(f"{path}: header of {length} bytes in a file of {size}")
        data = os.pread(fh.fileno(), length, end)
        if zlib.crc32(data) != int.from_bytes(trailer[8:12], "little"):
            raise VocabError(f"{path}: unreadable header: bad CRC-32")
        try:
            header = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise VocabError(f"{path}: unreadable header: {exc}") from None
        if not isinstance(header, dict):
            raise VocabError(f"{path}: header is not a JSON object")
        # An older file is named as such before anything it lacks.
        if header.get("version") != VOCAB_VERSION:
            raise VocabError(
                f"{path}: model file version {header.get('version')}, "
                f"expected {VOCAB_VERSION} (rebuild it with build-vocab)"
            )
        vocab = _vocabulary_from(header, end, path, fh)
        vocab.close = stack.pop_all().close
    return vocab


def _check_vocabulary(path, vocab: Vocabulary) -> None:
    """Reject values no trained vocabulary can hold, naming the section."""
    gmm = vocab.gmm
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
    norms = np.sqrt(row_dot(embeddings, embeddings))
    bad = (norms != 0) & (np.abs(norms - 1) > 1e-6)
    if bad.any():
        k = int(np.argmax(bad))
        raise VocabError(
            f"{path}: index embedding of {ids[k]!r} has norm {float(norms[k])}, "
            "expected 1 (or 0 for a degenerate image)"
        )
