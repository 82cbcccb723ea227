"""Image-level appearance encoding and comparison.

An image's local descriptors are PCA-projected, aggregated into a Fisher
vector (gradients of the GMM log-likelihood with respect to means and
standard deviations), power- and L2-normalized, compressed by kernel PCA,
and compared with the cosine distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import ImageFeatures, row_dot
from .vocab import (
    DatabaseIndex,
    Gmm,
    PcaModel,
    Vocabulary,
    VocabError,
    _e_step,
    apply_kpca,
    apply_pca,
    fit_gmm,
    fit_kpca,
    fit_pca,
)

MAX_KPCA_DIM = 512


@dataclass(frozen=True)
class TrainingParams:
    """The whole training configuration of train_vocabulary."""

    alpha: float = 0.5
    kpca_dim: int = 0  # 0: min(N_db - 1, MAX_KPCA_DIM)
    seed: int = 0
    gmm_k: int = 16
    pca_dim: int = 64
    whiten: bool = True

    def __post_init__(self) -> None:
        """Raise VocabError naming the offending field, for the bounds that
        hold whatever the database; train_vocabulary checks the others."""
        if not 0 < self.alpha < np.inf:
            raise VocabError(f"alpha must be finite and > 0, got {self.alpha}")
        for name, least in (("kpca_dim", 0), ("seed", 0), ("gmm_k", 1), ("pca_dim", 1)):
            if getattr(self, name) < least:
                raise VocabError(f"{name} must be >= {least}, got {getattr(self, name)}")


def fisher_encode(features: ImageFeatures, pca: PcaModel, gmm: Gmm) -> np.ndarray:
    """Fisher vector of one image: per-component mean and variance gradients.

    With T projected descriptors x_t and posteriors gamma_t(k), each
    component k contributes
        G_mu_k    = 1/(T sqrt(pi_k))   * sum_t gamma_t(k) (x_t - mu_k) / sigma_k
        G_sigma_k = 1/(T sqrt(2 pi_k)) * sum_t gamma_t(k) [((x_t - mu_k)/sigma_k)^2 - 1]
    concatenated as [G_mu_1, G_sigma_1, ..., G_mu_K, G_sigma_K], total
    dimension 2*K*D.  Weight gradients are excluded.  An empty image yields
    the zero vector as the degenerate signal.
    """
    k, d = gmm.n_components, gmm.dim
    if features.count == 0:
        return np.zeros(2 * k * d)
    X = apply_pca(pca, features.descriptors)
    XX = X * X
    t = X.shape[0]
    gamma, _ = _e_step(gmm, X, XX)
    sigma = np.sqrt(gmm.variances)

    # Sufficient statistics; avoids materializing a (T, K, D) tensor.
    nk = gamma.sum(axis=0)
    sx = gamma.T @ X
    sx2 = gamma.T @ XX

    g_mu = (sx - nk[:, None] * gmm.means) / sigma
    g_mu /= (t * np.sqrt(gmm.weights))[:, None]
    g_sigma = (
        sx2 - 2.0 * gmm.means * sx + nk[:, None] * gmm.means**2
    ) / gmm.variances - nk[:, None]
    g_sigma /= (t * np.sqrt(2.0 * gmm.weights))[:, None]

    out = np.empty((k, 2, d))
    out[:, 0, :] = g_mu
    out[:, 1, :] = g_sigma
    return out.reshape(-1)


def power_l2_normalize(v: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Signed power then L2 normalization; the zero vector passes through."""
    v = np.asarray(v, dtype=np.float64)
    p = np.sign(v) * np.abs(v) ** alpha
    norm = float(np.linalg.norm(p))
    return p if norm == 0.0 else p / norm


def embed_image(features: ImageFeatures, vocab: Vocabulary) -> np.ndarray:
    """Full appearance chain: Fisher vector, normalization, kernel PCA.

    Images with no features (or an exactly-zero encoding) are degenerate and
    come back as the zero vector; everything else is unit norm.  Descriptors
    of another width than the model's raise VocabError naming the image.
    """
    width = features.descriptors.shape[1]
    if features.count and width != vocab.descriptor_dim:
        raise VocabError(
            f"image {features.image_id!r} has {width}-dim descriptors, "
            f"expected {vocab.descriptor_dim} as the model has"
        )
    fv = fisher_encode(features, vocab.pca, vocab.gmm)
    return apply_kpca(vocab.kpca, power_l2_normalize(fv, vocab.alpha))


def cosine_distance(a: np.ndarray, b: np.ndarray):
    """d_L = 1 - cos(a, b), in [0, 2], over the last axis of two embedding
    arrays whose leading axes broadcast; a zero vector (a degenerate image)
    scores the maximal 2.  1-D inputs give a scalar."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    norms = np.sqrt(row_dot(a, a)) * np.sqrt(row_dot(b, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 - row_dot(a, b) / norms
    return np.where(norms == 0, 2.0, d)[()]


def train_vocabulary(
    feature_sets: Sequence[ImageFeatures], params: TrainingParams = TrainingParams(),
) -> Vocabulary:
    """Fit the whole appearance model on the database images, and index them.

    feature_sets is any sequence of ImageFeatures: a list, or the ModelFile
    that build-vocab is writing, whose items are read from disk on demand.
    Training reads it in three passes: every image for its id and sizes;
    the non-empty images, whose descriptors go into one preallocated (N, D)
    stack that fit_pca centers in place; every image again, each
    Fisher-encoded once.  The GMM is fitted on fit_pca's projections, and
    the stack and projections are freed before the last pass.  The
    kernel-PCA compressor is fitted on the normalized Fisher vectors, and
    each image's embedding is then its vector's apply_kpca, bit for bit what
    embed_image gives.  At its peak training holds the stack and the
    projections besides feature_sets: 192 float64 values per descriptor row
    at D = 128 and pca_dim 64.  The index rows are feature_sets, in order.
    A VocabError about a setting starts with its field name.
    """
    if len(feature_sets) < 2:
        raise VocabError(f"need at least 2 database images, got {len(feature_sets)}")
    image_ids, counts, widths = map(list, zip(
        *[(f.image_id, f.count, f.descriptors.shape[1]) for f in feature_sets]))
    non_empty = [k for k, count in enumerate(counts) if count > 0]
    if len(set(image_ids)) != len(image_ids):
        repeated = next(i for i in image_ids if image_ids.count(i) > 1)
        raise VocabError(f"database image id {repeated!r} given twice")
    if not non_empty:
        raise VocabError("all database images are empty")
    dim = widths[non_empty[0]]
    for k in non_empty:
        if widths[k] != dim:
            raise VocabError(
                f"image {image_ids[k]!r} has {widths[k]}-dim descriptors, "
                f"expected {dim} as image {image_ids[non_empty[0]]!r} has"
            )
    n, top_kpca = sum(counts), len(image_ids) - 1
    kpca_dim = params.kpca_dim or min(top_kpca, MAX_KPCA_DIM)
    if params.pca_dim > dim:
        raise VocabError(
            f"pca_dim must be in [1, {dim}], the descriptor width, got {params.pca_dim}"
        )
    for name, least in (("pca_dim", params.pca_dim + 1), ("gmm_k", params.gmm_k)):
        if n < least:
            raise VocabError(f"{name} is too large: need at least {least} descriptors, got {n}")
    if kpca_dim > top_kpca:
        raise VocabError(
            f"kpca_dim must be in [0, {top_kpca}], below the image count, got {kpca_dim}"
        )
    stack, at = np.empty((n, dim)), 0
    for k in non_empty:
        stack[at : at + counts[k]] = feature_sets[k].descriptors
        at += counts[k]
    pca, projections = fit_pca(stack, params.pca_dim, params.whiten)
    del stack
    gmm = fit_gmm(projections, params.gmm_k, seed=params.seed)
    del projections

    fvs = [power_l2_normalize(fisher_encode(f, pca, gmm), params.alpha) for f in feature_sets]
    kpca = fit_kpca(np.stack(fvs), kpca_dim)
    return Vocabulary(
        pca=pca,
        gmm=gmm,
        kpca=kpca,
        index=DatabaseIndex(
            image_ids,
            np.stack([apply_kpca(kpca, v) for v in fvs]),
            np.array(counts),
        ),
        read_row=feature_sets.__getitem__,
        alpha=params.alpha,
    )
