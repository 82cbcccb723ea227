"""Image-level appearance encoding and comparison.

An image's local descriptors are PCA-projected, aggregated into a Fisher
vector (gradients of the GMM log-likelihood with respect to means and
standard deviations), power- and L2-normalized, compressed by kernel PCA,
and compared with the cosine distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ingest import ImageFeatures
from .vocab import (
    DatabaseIndex,
    Gmm,
    PcaModel,
    Vocabulary,
    VocabError,
    apply_kpca,
    apply_pca,
    fit_gmm,
    fit_kpca,
    fit_pca,
    gmm_posteriors,
)

DEFAULT_GMM_K = 16
DEFAULT_PCA_DIM = 64
MAX_KPCA_DIM = 512


@dataclass(frozen=True)
class TrainingParams:
    """The training options that no database can make valid."""

    alpha: float = 0.5
    kpca_dim: int = 0  # 0: the default, min(N_db - 1, MAX_KPCA_DIM)
    seed: int = 0
    gmm_k: int = DEFAULT_GMM_K
    pca_dim: int = DEFAULT_PCA_DIM

    def validate(self) -> None:
        """Raise VocabError naming the offending field."""
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
    t = X.shape[0]
    gamma = gmm_posteriors(gmm, X)
    sigma = np.sqrt(gmm.variances)

    # Sufficient statistics; avoids materializing a (T, K, D) tensor.
    nk = gamma.sum(axis=0)
    sx = gamma.T @ X
    sx2 = gamma.T @ (X * X)

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
    come back as the zero vector; everything else is unit norm.
    """
    fv = fisher_encode(features, vocab.pca, vocab.gmm)
    return apply_kpca(vocab.kpca, power_l2_normalize(fv, vocab.alpha))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one vector product per pair: the
    same bits as a 1-D a @ b, whatever the leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def cosine_distance(a: np.ndarray, b: np.ndarray):
    """d_L = 1 - cos(a, b), in [0, 2], over the last axis of two embedding
    arrays whose leading axes broadcast; a zero vector (a degenerate image)
    scores the maximal 2.  1-D inputs give a scalar."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    norms = np.sqrt(_dot(a, a)) * np.sqrt(_dot(b, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 - _dot(a, b) / norms
    return np.where(norms == 0, 2.0, d)[()]


def train_vocabulary(
    feature_sets: Sequence[ImageFeatures],
    gmm_k: int = DEFAULT_GMM_K,
    pca_dim: int = DEFAULT_PCA_DIM,
    kpca_dim: Optional[int] = None,
    alpha: float = 0.5,
    whiten: bool = True,
    seed: int = 0,
) -> Vocabulary:
    """Fit the whole appearance model on the database images, and index them.

    Pools all descriptors for PCA and the GMM, Fisher-encodes each database
    image once, and fits the kernel-PCA compressor on the normalized Fisher
    vectors.  Each image's embedding is then its vector's apply_kpca, bit for
    bit what embed_image gives.  The index rows are feature_sets in order,
    read from memory.  kpca_dim defaults to min(N_db - 1, 512).
    """
    TrainingParams(alpha, kpca_dim or 0, seed, gmm_k, pca_dim).validate()
    feature_sets = list(feature_sets)
    image_ids = [f.image_id for f in feature_sets]
    non_empty = [f for f in feature_sets if f.count > 0]
    if len(feature_sets) < 2:
        raise VocabError(f"need at least 2 database images, got {len(feature_sets)}")
    if len(set(image_ids)) != len(image_ids):
        repeated = next(i for i in image_ids if image_ids.count(i) > 1)
        raise VocabError(f"database image id {repeated!r} given twice")
    if not non_empty:
        raise VocabError("all database images are empty")
    dim = non_empty[0].descriptors.shape[1]
    for f in non_empty:
        if f.descriptors.shape[1] != dim:
            raise VocabError(
                f"image {f.image_id!r} has {f.descriptors.shape[1]}-dim descriptors, "
                f"expected {dim} as image {non_empty[0].image_id!r} has"
            )
    pooled = np.vstack([f.descriptors for f in non_empty])
    pca = fit_pca(pooled, pca_dim, whiten=whiten)
    gmm = fit_gmm(apply_pca(pca, pooled), gmm_k, seed=seed)

    fvs = [power_l2_normalize(fisher_encode(f, pca, gmm), alpha) for f in feature_sets]
    if kpca_dim is None:
        kpca_dim = min(len(feature_sets) - 1, MAX_KPCA_DIM)
    kpca = fit_kpca(np.stack(fvs), kpca_dim)
    return Vocabulary(
        pca=pca,
        gmm=gmm,
        kpca=kpca,
        index=DatabaseIndex(
            image_ids,
            np.stack([apply_kpca(kpca, v) for v in fvs]),
            np.array([f.count for f in feature_sets]),
        ),
        read_row=feature_sets.__getitem__,
        descriptor_dim=dim,
        alpha=alpha,
    )
