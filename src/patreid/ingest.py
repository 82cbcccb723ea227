"""Feature-file and manifest I/O.

This is the boundary where external feature extractors' outputs enter the
engine.  Local features travel in PATF files, whose three header lines are
text and end in a newline:

    line 1:        PATF 2
    line 2:        <image_id>
    line 3:        <descriptor_dim> <feature_count>

then M = feature_count rows of 6 + D little-endian float64 values, row after
row (x y a11 a12 a21 a22 d1 ... dD), and nothing after them.  Version 1,
which write_feature_file no longer writes, holds each row as one text line
of decimal numbers instead, and stays readable; "line 4 + i" names row i in
either version.

Dataset splits travel in a manifest CSV with columns
``image_id,individual_id,viewpoint,role,feature_path``.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

PATF_MAGIC = "PATF"
PATF_VERSION = 2  # the version written; versions 1 and 2 are read
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
        self.message = message

    def __reduce__(self):
        # Pickling (an evaluate worker sends its error back) would otherwise
        # call PatfError(str(self)).
        return type(self), (self.path, self.line_no, self.message)


class ManifestError(ValueError):
    """Malformed or inconsistent manifest CSV."""


@dataclass
class ImageFeatures:
    """One image's local pattern features; who it shows is the manifest's.

    frames is (M, 6) float64 per FRAME_FIELDS; descriptors is (M, D) float64
    with unit-norm rows.  An empty feature set is legal but degenerate.
    """

    image_id: str
    frames: np.ndarray
    descriptors: np.ndarray

    @property
    def count(self) -> int:
        return self.frames.shape[0]


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


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one vector product per pair: the
    same bits as a 1-D a @ b, whatever the leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# The rules a feature row can break, in the order a row's fault is reported.
ROW_RULES = (
    "non-finite value",
    "singular affine frame (det = 0)",
    "affine frame det overflows",
    "zero-norm descriptor",
    "descriptor norm overflows",
)


def row_faults(frames: np.ndarray, descriptors: np.ndarray):
    """(faults, norms): faults[r, i] is set when row i breaks ROW_RULES[r];
    norms are the rows' descriptor L2 norms."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs(frames[:, 2] * frames[:, 5] - frames[:, 3] * frames[:, 4])
        norms = np.sqrt(row_dot(descriptors, descriptors))
        finite = np.isfinite(frames).all(axis=1) & np.isfinite(descriptors).all(axis=1)
        # Overflow makes det or norm inf (or det nan), which fails "< inf".
        faults = np.array([~finite, det < 1e-12, ~(det < np.inf), norms < 1e-12, ~(norms < np.inf)])
    return faults, norms


def _convert(path, data_lines: list, width: int):
    """(values, error): the data lines as an (n, width) array, each token
    converted by float(), and for n short of every line the PatfError of
    line 4 + n, the first not converted."""
    rows, error = [], None
    for i, line in enumerate(data_lines):
        tokens = line.split()
        if len(tokens) != width:
            error = PatfError(path, 4 + i, f"expected {width} values, found {len(tokens)}")
            break
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            error = PatfError(path, 4 + i, f"unparseable number: {exc}")
            break
    return np.array(rows, dtype=np.float64).reshape(-1, width), error


def _header(path, id_line: str, size_line: str):
    """(image_id, dim, count) from a PATF file's lines 2 and 3."""
    image_id = id_line.strip()
    if not image_id or len(image_id.split()) != 1:
        raise PatfError(path, 2, f"image_id must be a single token, got {id_line!r}")

    size_tokens = size_line.split()
    if len(size_tokens) != 2:
        raise PatfError(path, 3, "size line must be '<descriptor_dim> <count>'")
    try:
        dim, count = int(size_tokens[0]), int(size_tokens[1])
    except ValueError:
        raise PatfError(path, 3, f"non-integer size line {size_line!r}") from None
    if dim < 1 or count < 0:
        raise PatfError(path, 3, f"invalid dimensions dim={dim} count={count}")
    return image_id, dim, count


def _text_rows(path, data: bytes):
    """(image_id, values, error) of a version-1 file, as _convert gives them."""
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
    if lines[0].split() != [PATF_MAGIC, "1"]:
        raise PatfError(path, 1, f"bad header {lines[0]!r}, expected 'PATF 1' or 'PATF 2'")
    if len(lines) < 3:
        raise PatfError(path, len(lines) + 1, "truncated file: missing id or size line")
    image_id, dim, count = _header(path, lines[1], lines[2])

    data_lines = lines[3:]
    if len(data_lines) != count:
        raise PatfError(
            path,
            4 + min(len(data_lines), count),
            f"declared {count} features but file has {len(data_lines)} data lines",
        )
    return (image_id, *_convert(path, data_lines, len(FRAME_FIELDS) + dim))


def _binary_rows(path, data: bytes):
    """(image_id, values, None) of a version-2 file; only its three header
    lines are decoded."""
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise PatfError(path, len(parts), "truncated file: header line has no newline")
    for line_no in (2, 3):
        try:
            parts[line_no - 1] = parts[line_no - 1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PatfError(path, line_no, f"not UTF-8 text: {exc.reason}") from None
    image_id, dim, count = _header(path, parts[1], parts[2])

    body, width = parts[3], len(FRAME_FIELDS) + dim
    row_bytes = 8 * width
    if len(body) != row_bytes * count:
        raise PatfError(
            path,
            4 + min(len(body) // row_bytes, count),
            f"declared {count} features of {row_bytes} bytes but the rows hold {len(body)} bytes",
        )
    # Aligned and native, as the text rows are, so both versions compute alike.
    values = np.require(np.frombuffer(body, "<f8"), np.float64, "A")
    return image_id, values.reshape(count, width), None


def parse_feature_file(path) -> ImageFeatures:
    """Parse and validate a PATF file of either version; errors name path
    and the line.

    The first line's words pick the version: "PATF 2" reads the rows as raw
    float64, anything else is read as version 1 text, whose header must be
    "PATF 1".  Descriptors are re-normalized to unit L2 norm on the way in
    so downstream cosine computations are scale-free.  Feature order is
    preserved.
    """
    path = Path(path)
    data = path.read_bytes()
    end = data.find(b"\n")
    binary = data[: end if end >= 0 else None].split() == [PATF_MAGIC.encode(), b"2"]
    image_id, values, error = (_binary_rows if binary else _text_rows)(path, data)

    frames, descriptors = values[:, : len(FRAME_FIELDS)], values[:, len(FRAME_FIELDS) :]
    faults, norms = row_faults(frames, descriptors)
    # The first line to break a rule or fail conversion is named.
    broken = faults.any(axis=0)
    if broken.any():
        i = int(np.argmax(broken))
        raise PatfError(path, 4 + i, ROW_RULES[int(np.argmax(faults[:, i]))])
    if error is not None:
        raise error
    return ImageFeatures(
        image_id=image_id, frames=frames.copy(), descriptors=descriptors / norms[:, None]
    )


def write_feature_file(features: ImageFeatures, path) -> None:
    """Write a PATF 2 file; parse_feature_file(write(f)) reproduces f exactly.

    Frames and descriptors that are not one (M, 6) and one (M, D >= 1)
    array, or an image_id that is not one token, raise a PatfError before
    the file is opened.  An image with no features is written with D = 1
    unless its descriptors are (0, D).
    """
    path = Path(path)
    frames, descriptors = np.asarray(features.frames), np.asarray(features.descriptors)
    count = frames.shape[0]
    dim = descriptors.shape[1] if descriptors.ndim == 2 else 0
    if features.image_id.split() != [features.image_id]:
        raise PatfError(path, 2, f"image_id must be a single token, got {features.image_id!r}")
    if count == 0 and descriptors.size == 0:
        dim = dim or 1
    elif frames.shape != (count, len(FRAME_FIELDS)) or descriptors.shape != (count, dim) or not dim:
        raise PatfError(
            path, 3,
            f"frames of shape {frames.shape} and descriptors of shape {descriptors.shape} "
            "are not one row of 6 + D >= 7 values per feature",
        )
    with open(path, "wb") as fh:
        fh.write(f"{PATF_MAGIC} {PATF_VERSION}\n{features.image_id}\n{dim} {count}\n".encode())
        if count:
            fh.write(np.hstack([frames, descriptors]).astype("<f8").tobytes())


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
        rows = list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8-sig"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ManifestError(f"{path}: unreadable CSV: {exc}") from None
    header = rows[0] if rows else None
    if header is None or tuple(header) != MANIFEST_COLUMNS:
        raise ManifestError(f"{path}: header must be {','.join(MANIFEST_COLUMNS)}, got {header}")
    for row in filter(None, rows[1:]):  # blank lines read as []
        image_id = row[0].strip()
        if not image_id:
            raise ManifestError(f"{path}: empty image_id")
        if len(row) != len(MANIFEST_COLUMNS):
            more = "more" if len(row) > len(MANIFEST_COLUMNS) else "fewer"
            raise ManifestError(f"{path}: row of {image_id!r} has {more} fields than the header")
        if image_id in seen:
            raise ManifestError(f"{path}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        _, individual, viewpoint, role, feature_path = map(str.strip, row)
        if role not in ROLES:
            raise ManifestError(
                f"{path}: unknown role {role!r} for {image_id!r} "
                f"(expected one of {ROLES})"
            )
        if not feature_path:
            raise ManifestError(f"{path}: empty feature_path for {image_id!r}")
        entry = ManifestEntry(image_id, individual or None, viewpoint or None, role, feature_path)
        manifest.entries.append(entry)
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
    """Parse an entry's feature file.

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
    return features
