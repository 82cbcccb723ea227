"""Feature-file and manifest I/O.

This is the boundary where external feature extractors' outputs enter the
engine.  Local features travel in PATF files (plain text):

    line 1:        PATF 1
    line 2:        <image_id>
    line 3:        <descriptor_dim> <feature_count>
    lines 4..3+M:  x y a11 a12 a21 a22 d1 ... dD

Dataset splits travel in a manifest CSV with columns
``image_id,individual_id,viewpoint,role,feature_path``.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

PATF_MAGIC = "PATF"
PATF_VERSION = 1
MANIFEST_COLUMNS = ("image_id", "individual_id", "viewpoint", "role", "feature_path")
ROLES = ("database", "query")

# Columns of the per-feature frame array: center + local affine shape matrix.
FRAME_FIELDS = ("x", "y", "a11", "a12", "a21", "a22")


class PatfError(ValueError):
    """Malformed PATF feature file; message carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ManifestError(ValueError):
    """Malformed or inconsistent manifest CSV."""


@dataclass
class ImageFeatures:
    """One image's local pattern features plus identity labels.

    frames is (M, 6) float64 per FRAME_FIELDS; descriptors is (M, D) float64
    with unit-norm rows.  An empty feature set is legal but degenerate.
    """

    image_id: str
    frames: np.ndarray
    descriptors: np.ndarray
    individual_id: Optional[str] = None
    viewpoint: Optional[str] = None

    @property
    def count(self) -> int:
        return self.frames.shape[0]

    @property
    def degenerate(self) -> bool:
        return self.count == 0

    @property
    def points(self) -> np.ndarray:
        """Feature centers, shape (M, 2)."""
        return self.frames[:, :2]


@dataclass
class ManifestEntry:
    image_id: str
    individual_id: Optional[str]
    viewpoint: Optional[str]
    role: str
    feature_path: str


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    base_dir: Union[str, os.PathLike] = ""

    def entry_path(self, entry: ManifestEntry) -> str:
        """Feature path resolved against the manifest's directory."""
        return os.path.join(self.base_dir, entry.feature_path)

    def with_role(self, role: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.role == role]


def _parse_floats(path, line_no: int, tokens: list, expected: int) -> np.ndarray:
    if len(tokens) != expected:
        raise PatfError(
            path, line_no, f"expected {expected} values, found {len(tokens)}"
        )
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise PatfError(path, line_no, f"unparseable number: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise PatfError(path, line_no, "non-finite value")
    return values


def _parse_block(data_lines: list, dim: int):
    """(frames, unit descriptors) of a whole data block, or None if a line is bad.

    One C-level conversion of every line, then the per-line checks of
    parse_feature_file as array operations.  np.loadtxt gives the same doubles
    as float() for every token it accepts; it skips blank lines, which then
    show up as a row-count mismatch.
    """
    if not data_lines:
        # np.loadtxt warns on empty input; an empty image is legal.
        return np.zeros((0, 6)), np.zeros((0, dim))
    try:
        values = np.loadtxt(data_lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(data_lines), 6 + dim) or not np.isfinite(values).all():
        return None
    frames, desc = values[:, :6], values[:, 6:]
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs(frames[:, 2] * frames[:, 5] - frames[:, 3] * frames[:, 4])
        # Per-row dot products, bit-identical to np.linalg.norm of each row
        # (norm(axis=1) and sqrt of summed squares round differently).
        norms = np.sqrt((desc[:, None, :] @ desc[:, :, None])[:, 0, 0])
    # Overflow makes det or norm inf (or det nan), which fails these bounds.
    if not ((1e-12 <= det) & (det < np.inf) & (1e-12 <= norms) & (norms < np.inf)).all():
        return None
    return frames.copy(), desc / norms[:, None]


def parse_feature_file(path) -> ImageFeatures:
    """Parse and validate a PATF file; errors name path and the line.

    Descriptors are re-normalized to unit L2 norm on the way in so downstream
    cosine computations are scale-free.  Feature order is preserved.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise PatfError(path, line_no, f"not UTF-8 text: {exc.reason}") from None
    # Trailing blank lines are tolerated; anything else must line up exactly.
    while lines and not lines[-1].strip():
        lines.pop()

    if not lines:
        raise PatfError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != PATF_MAGIC or header[1] != str(PATF_VERSION):
        raise PatfError(path, 1, f"bad header {lines[0]!r}, expected 'PATF 1'")
    if len(lines) < 3:
        raise PatfError(path, len(lines) + 1, "truncated file: missing id or size line")

    image_id = lines[1].strip()
    if not image_id or len(image_id.split()) != 1:
        raise PatfError(path, 2, f"image_id must be a single token, got {lines[1]!r}")

    size_tokens = lines[2].split()
    if len(size_tokens) != 2:
        raise PatfError(path, 3, "size line must be '<descriptor_dim> <count>'")
    try:
        dim, count = int(size_tokens[0]), int(size_tokens[1])
    except ValueError:
        raise PatfError(path, 3, f"non-integer size line {lines[2]!r}") from None
    if dim < 1 or count < 0:
        raise PatfError(path, 3, f"invalid dimensions dim={dim} count={count}")

    data_lines = lines[3:]
    if len(data_lines) != count:
        raise PatfError(
            path,
            4 + min(len(data_lines), count),
            f"declared {count} features but file has {len(data_lines)} data lines",
        )

    block = _parse_block(data_lines, dim)
    if block is not None:
        frames, descriptors = block
        return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)

    # Some line failed the block path: this loop names the first bad line, and
    # also accepts the tokens float() takes but np.loadtxt does not ("1_0").
    frames = np.zeros((count, 6), dtype=np.float64)
    descriptors = np.zeros((count, dim), dtype=np.float64)
    for i, line in enumerate(data_lines):
        line_no = 4 + i
        values = _parse_floats(path, line_no, line.split(), 6 + dim)
        frame, desc = values[:6], values[6:]
        with np.errstate(over="ignore", invalid="ignore"):
            det = abs(frame[2] * frame[5] - frame[3] * frame[4])
            norm = float(np.linalg.norm(desc))
        if det < 1e-12:
            raise PatfError(path, line_no, "singular affine frame (det = 0)")
        if not det < np.inf:
            raise PatfError(path, line_no, "affine frame det overflows")
        if norm < 1e-12:
            raise PatfError(path, line_no, "zero-norm descriptor")
        if not norm < np.inf:
            raise PatfError(path, line_no, "descriptor norm overflows")
        frames[i] = frame
        descriptors[i] = desc / norm

    return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)


def _fmt(x) -> str:
    # repr of a Python float is the shortest decimal that round-trips exactly.
    return repr(float(x))


def write_feature_file(features: ImageFeatures, path) -> None:
    """Write a PATF file; parse_feature_file(write(f)) reproduces f exactly."""
    path = Path(path)
    descriptors = features.descriptors
    dim = descriptors.shape[1] if descriptors.ndim == 2 and descriptors.shape[1] else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{PATF_MAGIC} {PATF_VERSION}\n")
        fh.write(f"{features.image_id}\n")
        fh.write(f"{dim} {features.count}\n")
        for frame, desc in zip(features.frames, features.descriptors):
            row = [_fmt(v) for v in frame] + [_fmt(v) for v in desc]
            fh.write(" ".join(row) + "\n")


def load_manifest(path) -> Manifest:
    """Load and validate a manifest CSV.

    Rejects duplicate image ids, unknown roles and empty feature paths.  A
    feature_path resolves against the manifest's directory; its file is
    checked where it is read (load_entry_features), so a database row that
    the model file's index holds need not have one.
    """
    path = Path(path)
    manifest = Manifest(entries=[], base_dir=os.path.dirname(path))
    seen: set[str] = set()
    try:
        reader = csv.DictReader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
        fieldnames, rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ManifestError(f"{path}: unreadable CSV: {exc}") from None
    if fieldnames is None or tuple(fieldnames) != MANIFEST_COLUMNS:
        raise ManifestError(
            f"{path}: header must be {','.join(MANIFEST_COLUMNS)}, "
            f"got {fieldnames}"
        )
    for row in rows:
        image_id = (row["image_id"] or "").strip()
        if not image_id:
            raise ManifestError(f"{path}: empty image_id")
        if None in row:  # DictReader files a row's extra values under None
            raise ManifestError(f"{path}: row of {image_id!r} has more fields than the header")
        if None in row.values():  # and gives a short row's missing fields None
            raise ManifestError(f"{path}: row of {image_id!r} has fewer fields than the header")
        if image_id in seen:
            raise ManifestError(f"{path}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        role = row["role"].strip()
        if role not in ROLES:
            raise ManifestError(
                f"{path}: unknown role {role!r} for {image_id!r} "
                f"(expected one of {ROLES})"
            )
        feature_path = row["feature_path"].strip()
        if not feature_path:
            raise ManifestError(f"{path}: empty feature_path for {image_id!r}")
        manifest.entries.append(
            ManifestEntry(
                image_id=image_id,
                individual_id=row["individual_id"].strip() or None,
                viewpoint=row["viewpoint"].strip() or None,
                role=role,
                feature_path=feature_path,
            )
        )
    return manifest


def write_manifest(manifest: Manifest, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for e in manifest.entries:
            writer.writerow(
                [e.image_id, e.individual_id or "", e.viewpoint or "", e.role, e.feature_path]
            )


def load_entry_features(manifest: Manifest, entry: ManifestEntry) -> ImageFeatures:
    """Parse an entry's feature file and attach its manifest labels.

    The file must exist, and its image_id must be the entry's: results are
    keyed by it.
    """
    # Printed through Path(), which normalizes it ("./a" as "a").
    path = Path(manifest.entry_path(entry))
    if not path.is_file():
        raise ManifestError(f"feature file not found for {entry.image_id!r}: {path}")
    features = parse_feature_file(path)
    if features.image_id != entry.image_id:
        raise ManifestError(
            f"{path}: feature file image_id {features.image_id!r} does not match "
            f"manifest image_id {entry.image_id!r}"
        )
    return replace(
        features, individual_id=entry.individual_id, viewpoint=entry.viewpoint
    )
