"""Feature-file and manifest I/O tests."""

import warnings

import numpy as np
import pytest

from patreid.ingest import (
    MANIFEST_COLUMNS,
    ImageFeatures,
    Manifest,
    ManifestEntry,
    ManifestError,
    PatfError,
    load_entry_features,
    load_manifest,
    parse_feature_file,
    write_feature_file,
    write_manifest,
)


def make_features(image_id="img0", m=3, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    frames = np.zeros((m, 6))
    frames[:, :2] = rng.random((m, 2))
    frames[:, 2] = 0.02
    frames[:, 5] = 0.02
    desc = rng.standard_normal((m, dim))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    return ImageFeatures(image_id=image_id, frames=frames, descriptors=desc)


def write_patf(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_data_block(data_lines, dim):
    """The one-line-at-a-time parse of a valid data block, as a reference."""
    frames = np.zeros((len(data_lines), 6))
    descriptors = np.zeros((len(data_lines), dim))
    for i, line in enumerate(data_lines):
        values = np.array([float(t) for t in line.split()], dtype=np.float64)
        assert values.shape == (6 + dim,) and np.all(np.isfinite(values))
        norm = float(np.linalg.norm(values[6:]))
        frames[i] = values[:6]
        descriptors[i] = values[6:] / norm
    return frames, descriptors


def random_data_lines(rng, count, dim):
    """Valid data lines in assorted number spellings and spacings."""
    spellings = (
        lambda v: repr(float(v)),
        lambda v: f"{v:.6g}",
        lambda v: f"{v:.3e}",
        lambda v: f"{v:+.17f}",
    )
    lines = []
    for _ in range(count):
        values = np.concatenate([
            rng.uniform(-500, 500, 2),
            [rng.uniform(0.01, 3), rng.uniform(-0.5, 0.5)],
            [rng.uniform(-0.5, 0.5), rng.uniform(0.01, 3)],
            rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4),
        ])
        if rng.random() < 0.3:
            values[6 + rng.integers(dim)] = 0.0
        tokens = [spellings[rng.integers(len(spellings))](v) for v in values]
        separators = rng.choice([" ", "  ", "\t"], size=len(tokens) - 1)
        line = tokens[0] + "".join(sep + tok for sep, tok in zip(separators, tokens[1:]))
        lines.append(line)
    return lines


class TestParseFeatureFile:
    def test_round_trip_exact(self, tmp_path):
        original = make_features(m=5, dim=16, seed=3)
        path = tmp_path / "img0.patf"
        write_feature_file(original, path)
        loaded = parse_feature_file(path)
        assert loaded.image_id == original.image_id
        np.testing.assert_allclose(
            loaded.descriptors, original.descriptors, rtol=0, atol=1e-12
        )
        # Frames are untouched by parsing, so repr serialization makes them
        # bitwise exact; descriptors get re-normalized (1-ulp wiggle at most).
        assert np.array_equal(loaded.frames, original.frames)

    def test_single_identity_frame(self, tmp_path):
        dim = 4
        desc = "1.0 0.0 0.0 0.0"
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", f"{dim} 1", f"3.0 4.0 1.0 0.0 0.0 1.0 {desc}"],
        )
        f = parse_feature_file(path)
        assert f.count == 1
        np.testing.assert_array_equal(f.frames[0], [3.0, 4.0, 1.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(f.descriptors[0], [1.0, 0.0, 0.0, 0.0])

    def test_descriptors_renormalized(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 1", "0.0 0.0 1.0 0.0 0.0 1.0 2.0 0.0 0.0 0.0"],
        )
        f = parse_feature_file(path)
        np.testing.assert_array_equal(f.descriptors[0], [1.0, 0.0, 0.0, 0.0])

    def test_empty_feature_set_is_degenerate(self, tmp_path):
        path = write_patf(tmp_path / "a.patf", ["PATF 1", "imgA", "128 0"])
        f = parse_feature_file(path)
        assert f.count == 0
        assert f.degenerate
        assert f.descriptors.shape == (0, 128)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "a.patf"
        path.write_text("PATF 1\nimgA\n4 1\n0 0 1 0 0 1 1 0 0 0\n\n\n", encoding="utf-8")
        assert parse_feature_file(path).count == 1

    def test_bad_header(self, tmp_path):
        path = write_patf(tmp_path / "a.patf", ["PATX 1", "imgA", "4 0"])
        with pytest.raises(PatfError) as err:
            parse_feature_file(path)
        assert err.value.line_no == 1

    def test_bad_version(self, tmp_path):
        path = write_patf(tmp_path / "a.patf", ["PATF 2", "imgA", "4 0"])
        with pytest.raises(PatfError) as err:
            parse_feature_file(path)
        assert err.value.line_no == 1

    def test_count_mismatch_reports_line(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 2", "0 0 1 0 0 1 1 0 0 0"],
        )
        with pytest.raises(PatfError) as err:
            parse_feature_file(path)
        assert "declared 2" in str(err.value)

    def test_wrong_value_count_reports_line(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 2", "0 0 1 0 0 1 1 0 0 0", "0 0 1 0 0 1 1 0"],
        )
        with pytest.raises(PatfError) as err:
            parse_feature_file(path)
        assert err.value.line_no == 5

    def test_non_finite_value(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 1", "0 0 1 0 0 1 nan 0 0 0"],
        )
        with pytest.raises(PatfError, match="non-finite"):
            parse_feature_file(path)

    def test_unparseable_number(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 1", "0 0 1 0 0 1 oops 0 0 0"],
        )
        with pytest.raises(PatfError, match="unparseable"):
            parse_feature_file(path)

    def test_singular_frame_rejected(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 1", "0 0 1.0 1.0 2.0 2.0 1 0 0 0"],
        )
        with pytest.raises(PatfError, match="singular"):
            parse_feature_file(path)

    def test_zero_norm_descriptor_rejected(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 1", "0 0 1 0 0 1 0 0 0 0"],
        )
        with pytest.raises(PatfError, match="zero-norm"):
            parse_feature_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.patf"
        path.write_text("", encoding="utf-8")
        with pytest.raises(PatfError, match="empty"):
            parse_feature_file(path)

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_per_line_parse(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        count, dim = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        lines = random_data_lines(rng, count, dim)
        path = write_patf(tmp_path / "a.patf", ["PATF 1", "imgA", f"{dim} {count}"] + lines)
        f = parse_feature_file(path)
        frames, descriptors = reference_data_block(lines, dim)
        assert f.frames.tobytes() == frames.tobytes()
        assert f.descriptors.tobytes() == descriptors.tobytes()
        assert f.frames.shape == (count, 6) and f.descriptors.shape == (count, dim)

    def test_tokens_only_float_accepts(self, tmp_path):
        # float() takes digit separators and non-ASCII digits; np.loadtxt does not.
        lines = ["1_0 0 1 0 0 1 1 0 0 0", "0 0 1 0 0 1 0 \uff12 0 0"]
        path = write_patf(tmp_path / "a.patf", ["PATF 1", "imgA", "4 2"] + lines)
        f = parse_feature_file(path)
        np.testing.assert_array_equal(f.frames[:, 0], [10.0, 0.0])
        np.testing.assert_array_equal(f.descriptors, [[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_blank_line_inside_block(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 3", "0 0 1 0 0 1 1 0 0 0", "", "0 0 1 0 0 1 1 0 0 0"],
        )
        with pytest.raises(PatfError, match="expected 10 values, found 0") as err:
            parse_feature_file(path)
        assert err.value.line_no == 5

    def test_first_bad_line_named(self, tmp_path):
        good = "0 0 1 0 0 1 1 0 0 0"
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 4", good, good, "0 0 1 0 0 1 0 0 0 0", "0 0 0 0 0 0 1 0 0 0"],
        )
        with pytest.raises(PatfError, match="zero-norm") as err:
            parse_feature_file(path)
        assert err.value.line_no == 6

    def test_empty_feature_set_no_warning(self, tmp_path):
        path = write_patf(tmp_path / "a.patf", ["PATF 1", "imgA", "8 0"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_feature_file(path)
        assert f.frames.shape == (0, 6) and f.descriptors.shape == (0, 8)

    def test_empty_round_trip(self, tmp_path):
        original = ImageFeatures(
            image_id="empty",
            frames=np.zeros((0, 6)),
            descriptors=np.zeros((0, 128)),
        )
        path = tmp_path / "e.patf"
        write_feature_file(original, path)
        loaded = parse_feature_file(path)
        assert loaded.count == 0
        assert loaded.degenerate


class TestManifest:
    def _write_bench(self, tmp_path, rows):
        for image_id, *_ in rows:
            write_feature_file(make_features(image_id), tmp_path / f"{image_id}.patf")
        lines = [",".join(MANIFEST_COLUMNS)]
        for image_id, individual_id, viewpoint, role in rows:
            lines.append(f"{image_id},{individual_id},{viewpoint},{role},{image_id}.patf")
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_two_roles(self, tmp_path):
        path = self._write_bench(
            tmp_path,
            [("a", "ind0", "", "database"), ("b", "ind0", "", "query")],
        )
        manifest = load_manifest(path)
        assert len(manifest.entries) == 2
        assert [e.image_id for e in manifest.with_role("database")] == ["a"]
        assert [e.image_id for e in manifest.with_role("query")] == ["b"]

    def test_empty_labels_become_none(self, tmp_path):
        path = self._write_bench(tmp_path, [("a", "", "", "database")])
        entry = load_manifest(path).entries[0]
        assert entry.individual_id is None
        assert entry.viewpoint is None

    def test_duplicate_image_id(self, tmp_path):
        path = self._write_bench(
            tmp_path,
            [("a", "ind0", "", "database")],
        )
        text = path.read_text(encoding="utf-8")
        path.write_text(text + "a,ind1,,query,a.patf\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="duplicate.*'a'"):
            load_manifest(path)

    def test_unknown_role(self, tmp_path):
        path = self._write_bench(tmp_path, [("a", "ind0", "", "gallery")])
        with pytest.raises(ManifestError, match="unknown role"):
            load_manifest(path)

    def test_missing_feature_file(self, tmp_path):
        path = self._write_bench(tmp_path, [("a", "ind0", "", "database")])
        (tmp_path / "a.patf").unlink()
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("image,individual,role\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(path)

    def test_write_read_round_trip(self, tmp_path):
        write_feature_file(make_features("a"), tmp_path / "a.patf")
        manifest = Manifest(
            entries=[ManifestEntry("a", "ind0", "left", "database", "a.patf")],
            base_dir=tmp_path,
        )
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.entries == manifest.entries

    def test_load_entry_features_attaches_labels(self, tmp_path):
        write_feature_file(make_features("a"), tmp_path / "a.patf")
        manifest = Manifest(
            entries=[ManifestEntry("a", "ind7", "right", "query", "a.patf")],
            base_dir=tmp_path,
        )
        features = load_entry_features(manifest, manifest.entries[0])
        assert features.individual_id == "ind7"
        assert features.viewpoint == "right"
        assert features.count == 3

    def test_load_entry_features_id_mismatch(self, tmp_path):
        write_feature_file(make_features("b"), tmp_path / "a.patf")
        manifest = Manifest(
            entries=[ManifestEntry("a", "ind7", None, "query", "a.patf")],
            base_dir=tmp_path,
        )
        with pytest.raises(ManifestError, match=r"a\.patf.*'b'.*'a'"):
            load_entry_features(manifest, manifest.entries[0])
