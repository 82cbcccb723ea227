"""Synthetic patterned individuals with homography-related observations.

Each individual is a constellation of points in the unit square plus one
unit descriptor per point.  Descriptors are random Fourier features of the
point's local neighborhood geometry under an individual-specific random
basis: the same physical point seen in two views keeps a correlated
descriptor, while different individuals are near-orthogonal in expectation.
Views warp the constellation with a bounded random homography and add
dropout, clutter, and descriptor noise, so the full pipeline can be
exercised with exact ground truth.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from .geometry import apply_homography, homography_jacobian
from .ingest import ImageFeatures, Manifest, ManifestEntry, write_manifest, write_feature_file

# Offsets to this many nearest neighbors form a point's geometric signature.
SIGNATURE_NEIGHBORS = 4
# Gaussian random-feature bandwidth: large enough that distinct points of one
# individual decorrelate, small enough that descriptor noise stays harmless.
SIGNATURE_BANDWIDTH = 20.0
# Minimum pairwise distance between constellation points.
MIN_SEPARATION = 0.02
# Placement gives up after this many draws in a row fall too close to a
# placed point.  Runs that succeed are far shorter (38 at 1,000 points).
MAX_REJECTIONS = 10_000
# Isotropic base scale of synthetic affine frames before warping.
FEATURE_SCALE = 0.02


class SynthError(ValueError):
    """A valid configuration that cannot be generated; the message starts
    with the field to change."""


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_individuals: int
    views_per_individual: int
    points_per_individual: int = 80
    descriptor_dim: int = 128
    descriptor_noise_sigma: float = 0.05
    dropout_rate: float = 0.2
    clutter_rate: float = 0.2
    max_perspective: float = 0.15

    def __post_init__(self) -> None:
        """Raise ValueError naming the offending field."""
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("n_individuals", "views_per_individual", "points_per_individual", "descriptor_dim"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for name in ("clutter_rate", "descriptor_noise_sigma", "max_perspective"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class Constellation:
    individual_id: str
    canonical_points: np.ndarray
    canonical_descriptors: np.ndarray


def derive_seed(*tokens) -> int:
    """Hash a tuple of tokens (ints/strings) into a 64-bit seed, so every work
    item (an individual, a view) draws from its own stream, whatever the order."""
    material = "|".join(str(t) for t in tokens).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big", signed=False)


def derive_rng(*tokens) -> np.random.Generator:
    """Generator seeded from a hashed token tuple."""
    return np.random.default_rng(derive_seed(*tokens))


def _scatter_points(rng: np.random.Generator, n: int, min_separation: float) -> np.ndarray:
    """Uniform points in [0,1]^2 kept pairwise at least min_separation apart.

    A draw closer than that to a placed point is rejected; MAX_REJECTIONS
    rejections in a row raise SynthError.  Only points placed in the draw's
    grid cell, min_separation wide, or the eight around it can be that
    close; their distances round as np.linalg.norm's do.
    """
    placed, cells = [], {}  # cells[i, j]: the points placed in grid cell i, j
    rejections = 0
    while len(placed) < n:
        if rejections == MAX_REJECTIONS:
            raise SynthError(
                f"points_per_individual {n} do not fit {min_separation} apart in the unit "
                f"square: {MAX_REJECTIONS} draws in a row fell too close to a placed point"
            )
        x, y = rng.random(2).tolist()
        i, j = int(x // min_separation), int(y // min_separation)
        if any(
            math.sqrt((px - x) * (px - x) + (py - y) * (py - y)) < min_separation
            for di in (-1, 0, 1) for dj in (-1, 0, 1)
            for px, py in cells.get((i + di, j + dj), ())
        ):
            rejections += 1
            continue
        cells.setdefault((i, j), []).append((x, y))
        placed.append((x, y))
        rejections = 0
    return np.array(placed).reshape(n, 2)


def neighborhood_signatures(points: np.ndarray, k: int = SIGNATURE_NEIGHBORS) -> np.ndarray:
    """Per-point geometric signature: offsets to the k nearest other points.

    Offsets are ordered by increasing distance and flattened to a 2k vector;
    constellations with fewer than k neighbors zero-pad.  The signature is a
    function of the canonical geometry only, so every view of a point shares
    it exactly.
    """
    n = points.shape[0]
    sig = np.zeros((n, 2 * k))
    if n < 2:
        return sig
    diff = points[None, :, :] - points[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    k_eff = min(k, n - 1)
    for j in range(k_eff):
        nearest = order[:, j]
        sig[:, 2 * j : 2 * j + 2] = points[nearest] - points
    return sig


def generate_individual(config: SynthConfig, index: int) -> Constellation:
    """Deterministic constellation + descriptors for one individual."""
    if not 0 <= index < config.n_individuals:
        raise ValueError(f"index {index} out of range [0, {config.n_individuals})")
    individual_id = f"ind{index:03d}"
    point_rng = derive_rng(config.seed, "constellation", index)
    points = _scatter_points(point_rng, config.points_per_individual, MIN_SEPARATION)
    signatures = neighborhood_signatures(points)

    basis_rng = derive_rng(config.seed, "descriptors", index)
    W = basis_rng.standard_normal((config.descriptor_dim, signatures.shape[1]))
    W *= SIGNATURE_BANDWIDTH
    phases = basis_rng.uniform(0.0, 2.0 * np.pi, config.descriptor_dim)
    descriptors = np.cos(signatures @ W.T + phases)
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    return Constellation(
        individual_id=individual_id,
        canonical_points=points,
        canonical_descriptors=descriptors,
    )


def _sample_homography(rng: np.random.Generator, magnitude: float) -> np.ndarray:
    """Perturbation of the identity; magnitude 0 gives the exact identity."""
    p = rng.uniform(-magnitude, magnitude, 8)
    return np.array(
        [
            [1.0 + p[0], p[1], p[2]],
            [p[3], 1.0 + p[4], p[5]],
            [p[6], p[7], 1.0],
        ]
    )


def render_observation(
    constellation: Constellation, config: SynthConfig, view_index: int
) -> Tuple[ImageFeatures, np.ndarray, np.ndarray]:
    """Render one view of an individual.

    Returns (features, homography, source_index).  View 0 is the clean
    database view: no dropout, clutter, or descriptor noise, only the sampled
    homography.  Later views apply the config's distortion rates.  Surviving
    true points keep canonical order and precede clutter; source_index maps
    each feature to its canonical point index, -1 for clutter.  The RNG
    stream (and hence every output) is a pure function of
    (seed, individual_id, view_index).
    """
    rng = derive_rng(config.seed, "view", constellation.individual_id, view_index)
    H = _sample_homography(rng, config.max_perspective)
    points = constellation.canonical_points
    n = points.shape[0]
    clean = view_index == 0
    dropout = 0.0 if clean else config.dropout_rate
    noise = 0.0 if clean else config.descriptor_noise_sigma
    n_clutter = 0 if clean else int(round(config.clutter_rate * n))

    keep = rng.random(n) >= dropout if dropout > 0 else np.ones(n, dtype=bool)
    kept_idx = np.flatnonzero(keep)
    positions = apply_homography(H, points[keep])
    jac = homography_jacobian(H, points[keep])
    descriptors = constellation.canonical_descriptors[keep].copy()
    if noise > 0:
        descriptors += rng.normal(0.0, noise, descriptors.shape)
        descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)

    # With n_clutter 0 these draw no values, which leaves rng's state as it was.
    if positions.shape[0]:
        lo, hi = positions.min(axis=0), positions.max(axis=0)
    else:
        lo, hi = np.zeros(2), np.ones(2)
    clutter_pos = rng.uniform(lo, hi, (n_clutter, 2))
    clutter_desc = rng.standard_normal((n_clutter, config.descriptor_dim))
    clutter_desc /= np.linalg.norm(clutter_desc, axis=1, keepdims=True)

    m = positions.shape[0] + n_clutter
    frames = np.zeros((m, 6))
    frames[: positions.shape[0], 0:2] = positions
    frames[: positions.shape[0], 2] = FEATURE_SCALE * jac[:, 0, 0]
    frames[: positions.shape[0], 3] = FEATURE_SCALE * jac[:, 0, 1]
    frames[: positions.shape[0], 4] = FEATURE_SCALE * jac[:, 1, 0]
    frames[: positions.shape[0], 5] = FEATURE_SCALE * jac[:, 1, 1]
    frames[positions.shape[0] :, 0:2] = clutter_pos
    frames[positions.shape[0] :, 2] = FEATURE_SCALE
    frames[positions.shape[0] :, 5] = FEATURE_SCALE

    features = ImageFeatures(
        image_id=f"{constellation.individual_id}_v{view_index}",
        frames=frames,
        descriptors=np.vstack([descriptors, clutter_desc]),
    )
    source_index = np.concatenate(
        [kept_idx, np.full(n_clutter, -1, dtype=np.int64)]
    )
    return features, H, source_index


def write_homography_sidecar(H: np.ndarray, path) -> None:
    """Ground-truth homography as 9 row-major decimal floats, h33 = 1."""
    H = np.asarray(H, dtype=np.float64)
    H = H / H[2, 2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(repr(float(v)) for v in H.reshape(-1)) + "\n")


def generate_benchmark(config: SynthConfig, out_dir) -> Manifest:
    """Write the full benchmark: PATF files, .h sidecars, and manifest.csv.

    View 0 of each individual becomes the database entry; the remaining
    views become queries.  Regenerating with the same config is
    byte-identical.  Every constellation is placed before out_dir is made,
    so points that cannot be placed (SynthError) leave nothing there.
    """
    constellations = [generate_individual(config, i) for i in range(config.n_individuals)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for constellation in constellations:
        for view in range(config.views_per_individual):
            features, H, _ = render_observation(constellation, config, view)
            feature_name = f"{features.image_id}.patf"
            write_feature_file(features, out_dir / feature_name)
            write_homography_sidecar(H, out_dir / f"{features.image_id}.h")
            entries.append(
                ManifestEntry(
                    image_id=features.image_id,
                    individual_id=constellation.individual_id,
                    viewpoint=None,
                    role="database" if view == 0 else "query",
                    feature_path=feature_name,
                )
            )
    manifest = Manifest(entries=entries, base_dir=out_dir)
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest
