"""Feature-file and manifest I/O tests."""

import warnings

import numpy as np
import pytest
from oracles import read_feature_rows, reference_parse_feature_file, write_text_feature_file

from patreid.ingest import (
    MANIFEST_COLUMNS,
    ImageFeatures,
    Manifest,
    ManifestEntry,
    ManifestError,
    ROW_RULES,
    PatfError,
    load_entry_features,
    load_manifest,
    parse_feature_file,
    row_faults,
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
        path = write_patf(tmp_path / "a.patf", ["PATF 3", "imgA", "4 0"])
        with pytest.raises(PatfError) as err:
            parse_feature_file(path)
        assert err.value.line_no == 1
        assert err.value.message == "bad header 'PATF 3', expected 'PATF 1' or 'PATF 2'"

    @pytest.mark.parametrize(
        "id_line, size_line, line_no, message",
        [("img A", "4 0", 2, "image_id must be a single token, got 'img A'"),
         ("imgA", "0 0", 3, "invalid dimensions dim=0 count=0"),
         ("imgA", "4 -1", 3, "invalid dimensions dim=4 count=-1")],
        ids=["two_token_id", "zero_dim", "negative_count"],
    )
    def test_bad_id_or_size_line(self, tmp_path, id_line, size_line, line_no, message):
        path = write_patf(tmp_path / "a.patf", ["PATF 1", id_line, size_line])
        with pytest.raises(PatfError, match=message) as err:
            parse_feature_file(path)
        assert err.value.line_no == line_no

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

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("0 0 1 0 0 1 1e200 1e200", "descriptor norm overflows"),
            ("0 0 1e200 0 0 1e200 1 0", "affine frame det overflows"),
            ("0 0 1e200 1e200 1e200 1e200 1 0", "affine frame det overflows"),
        ],
        ids=["descriptor", "det_inf", "det_nan"],
    )
    @pytest.mark.parametrize("fallback", [False, True], ids=["block", "per_line"])
    def test_overflow_rejected(self, tmp_path, bad_line, message, fallback):
        # A "1_0" token sends the whole block down the per-line path.
        first = "1_0 0 1 0 0 1 1 0" if fallback else "0 0 1 0 0 1 1 0"
        path = write_patf(tmp_path / "a.patf", ["PATF 1", "imgA", "2 2", first, bad_line])
        with pytest.raises(PatfError, match=message) as err:
            parse_feature_file(path)
        assert err.value.line_no == 5

    def test_large_finite_values_accepted(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf", ["PATF 1", "imgA", "2 1", "0 0 1e150 0 0 1e150 1e150 1e150"]
        )
        np.testing.assert_allclose(parse_feature_file(path).descriptors, [[0.5**0.5] * 2])

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "a.patf"
        path.write_bytes(b"PATF 1\nimgA\n2 1\n0 0 1 0 0 1 \xff 0\n")
        with pytest.raises(PatfError, match="not UTF-8") as err:
            parse_feature_file(path)
        assert err.value.line_no == 4

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
        f, want = parse_feature_file(path), reference_parse_feature_file(path)
        assert f.frames.tobytes() == want.frames.tobytes()
        assert f.descriptors.tobytes() == want.descriptors.tobytes()
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

    def test_row_rule_named_before_later_conversion_error(self, tmp_path):
        path = write_patf(
            tmp_path / "a.patf",
            ["PATF 1", "imgA", "4 3", "0 0 1 0 0 1 1 0 0 0", "0 0 1 0 0 1 0 0 0 0",
             "0 0 1 0 0 1 abc 0 0 0"],
        )
        with pytest.raises(PatfError, match="zero-norm descriptor") as err:
            parse_feature_file(path)
        assert err.value.line_no == 5

    def test_empty_feature_set_no_warning(self, tmp_path):
        path = write_patf(tmp_path / "a.patf", ["PATF 1", "imgA", "8 0"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_feature_file(path)
        assert f.frames.shape == (0, 6) and f.descriptors.shape == (0, 8)

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # -0.0, the smallest subnormal and values near the row rules' limits
        # (det and norm just below overflow) come back with their bits.
        big = 1e154
        frames = np.array([[-0.0, 5e-324, big, -0.0, 0.0, big], [1.7e308, -5e-324, 1.0, 0.0, 0.0, 1.0]])
        descriptors = np.array([[big / 2, -big / 2, 5e-324], [-0.0, 5e-324, 1e-6]])
        original = ImageFeatures("img", frames, descriptors)
        write_feature_file(original, tmp_path / "a.patf")
        assert not row_faults(frames, descriptors)[0].any()
        stored = read_feature_rows(tmp_path / "a.patf")
        assert stored.frames.tobytes() == frames.tobytes()
        assert stored.descriptors.tobytes() == descriptors.tobytes()
        loaded = parse_feature_file(tmp_path / "a.patf")
        assert loaded.frames.tobytes() == frames.tobytes()
        norms = np.sqrt((descriptors**2).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(loaded.descriptors, descriptors / norms, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "frames, descriptors, line_no",
        [((3, 6), (2, 4), 3), ((3, 6), (3, 0), 3), ((3, 5), (3, 4), 3), ((3, 6), (3,), 3)],
        ids=["fewer_descriptors", "no_descriptor_values", "short_frames", "flat_descriptors"],
    )
    def test_writer_refuses_shapes_it_cannot_read_back(self, tmp_path, frames, descriptors,
                                                       line_no):
        features = ImageFeatures("img", np.ones(frames), np.ones(descriptors))
        with pytest.raises(PatfError, match="not one row of 6 \\+ D") as err:
            write_feature_file(features, tmp_path / "a.patf")
        assert err.value.line_no == line_no
        assert not (tmp_path / "a.patf").exists()

    @pytest.mark.parametrize("image_id", ["", "two words", "id\nline", " padded"])
    def test_writer_refuses_id_it_cannot_read_back(self, tmp_path, image_id):
        with pytest.raises(PatfError, match="single token") as err:
            write_feature_file(make_features(image_id), tmp_path / "a.patf")
        assert err.value.line_no == 2
        assert not (tmp_path / "a.patf").exists()

    def test_writes_version_2(self, tmp_path):
        features = make_features(m=4, dim=5)
        write_feature_file(features, tmp_path / "a.patf")
        data = (tmp_path / "a.patf").read_bytes()
        header = b"PATF 2\nimg0\n5 4\n"
        assert data[: len(header)] == header
        rows = np.hstack([features.frames, features.descriptors])
        assert data[len(header) :] == rows.astype("<f8").tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_versions_parse_alike(self, tmp_path, seed):
        # A text copy of a PATF 2 file parses to the same bits.
        rng = np.random.default_rng(seed)
        count, dim = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        frames = np.tile([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], (count, 1)) + rng.normal(size=(count, 6))
        features = ImageFeatures("img", frames, rng.normal(size=(count, dim)) * 3.0)
        write_feature_file(features, tmp_path / "two.patf")
        write_text_feature_file(features, tmp_path / "one.patf")
        two, one = (parse_feature_file(tmp_path / f"{v}.patf") for v in ("two", "one"))
        assert two.frames.tobytes() == one.frames.tobytes()
        assert two.descriptors.tobytes() == one.descriptors.tobytes()
        want = reference_parse_feature_file(tmp_path / "two.patf")
        assert two.descriptors.tobytes() == want.descriptors.tobytes()

    @pytest.mark.parametrize(
        "cut, line_no, size",
        [(-1, 5, 335), (-88, 5, 248), (-336, 4, 0), (8, 6, 344), (168, 6, 504)],
        ids=["last_byte", "second_row", "no_rows", "extra_value", "extra_row"],
    )
    def test_binary_body_length_names_first_missing_or_extra_row(self, tmp_path, cut, line_no,
                                                                  size):
        write_feature_file(make_features(m=2, dim=15), tmp_path / "a.patf")
        data = (tmp_path / "a.patf").read_bytes()
        (tmp_path / "a.patf").write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
        with pytest.raises(PatfError) as err:
            parse_feature_file(tmp_path / "a.patf")
        assert err.value.line_no == line_no
        assert err.value.message == (
            f"declared 2 features of 168 bytes but the rows hold {size} bytes"
        )

    @pytest.mark.parametrize(
        "data, line_no, message",
        [
            (b"PATF 2", 1, "truncated file: header line has no newline"),
            (b"PATF 2\nimg\n4 0", 3, "truncated file: header line has no newline"),
            (b"PATF 2\nim\xffg\n4 0\n", 2, "not UTF-8 text: invalid start byte"),
            (b"PATF 2\nimg\n4 x\n", 3, "non-integer size line '4 x'"),
            (b"PATF 2\nimg\n0 0\n", 3, "invalid dimensions dim=0 count=0"),
        ],
        ids=["no_newline", "open_size_line", "id_not_utf8", "size_word", "zero_dim"],
    )
    def test_binary_header_lines(self, tmp_path, data, line_no, message):
        (tmp_path / "a.patf").write_bytes(data)
        with pytest.raises(PatfError) as err:
            parse_feature_file(tmp_path / "a.patf")
        assert (err.value.line_no, err.value.message) == (line_no, message)

    def test_binary_row_rules_named_by_row(self, tmp_path):
        features = make_features(m=4, dim=3)
        features.descriptors[2] = 0.0
        features.frames[3, 0] = np.nan
        write_feature_file(features, tmp_path / "a.patf")
        with pytest.raises(PatfError) as err:
            parse_feature_file(tmp_path / "a.patf")
        assert (err.value.line_no, err.value.message) == (6, "zero-norm descriptor")

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


def test_row_faults_one_rule_per_row():
    frames = np.tile([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], (6, 1))
    descriptors = np.tile([1.0, 0.0], (6, 1))
    frames[0, 0] = np.nan
    frames[1, 2] = 0.0
    frames[2, [2, 5]] = 1e200
    descriptors[3] = 0.0
    descriptors[4] = 1e200
    faults, norms = row_faults(frames, descriptors)
    # Row r breaks ROW_RULES[r] alone; row 5 breaks none.
    assert faults.shape == (len(ROW_RULES), 6)
    np.testing.assert_array_equal(faults, np.eye(5, 6, dtype=bool))
    np.testing.assert_array_equal(norms, [1, 1, 1, 0, np.inf, 1])


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

    def test_extra_field_rejected(self, tmp_path):
        path = self._write_bench(
            tmp_path, [("a", "ind0", "", "database"), ("b", "ind0", "", "query")]
        )
        text = path.read_text(encoding="utf-8").replace("b.patf", "b.patf,EXTRA")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError, match="'b' has more fields than the header"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "row, message",
        [("b,ind0,,query", "'b' has fewer fields than the header"),
         ("b", "'b' has fewer fields than the header"),
         ("b,ind0,,query,", "empty feature_path for 'b'"),
         ("b,ind0,,query,  ", "empty feature_path for 'b'"),
         (" ,ind0,,query,b.patf", "empty image_id")],
        ids=["four_fields", "one_field", "empty_path", "blank_path", "empty_id"],
    )
    def test_short_row_named(self, tmp_path, row, message):
        # Not reported as a missing feature file at the manifest's directory.
        path = self._write_bench(tmp_path, [("a", "ind0", "", "database")])
        path.write_text(path.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=message):
            load_manifest(path)

    def test_unknown_role(self, tmp_path):
        path = self._write_bench(tmp_path, [("a", "ind0", "", "gallery")])
        with pytest.raises(ManifestError, match="unknown role"):
            load_manifest(path)

    def test_missing_feature_file(self, tmp_path):
        # The manifest loads; the file is missing only where it is read.
        path = self._write_bench(tmp_path, [("a", "ind0", "", "database")])
        (tmp_path / "a.patf").unlink()
        manifest = load_manifest(path)
        with pytest.raises(ManifestError, match="not found"):
            load_entry_features(manifest, manifest.entries[0])

    def test_missing_feature_file_path_normalized(self, tmp_path, monkeypatch):
        path = self._write_bench(tmp_path, [("a", "ind0", "", "database")])
        text = path.read_text(encoding="utf-8").replace("a.patf", "./sub//a.patf")
        path.write_text(text, encoding="utf-8")
        manifest = load_manifest(path)
        with pytest.raises(ManifestError) as err:
            load_entry_features(manifest, manifest.entries[0])
        assert str(err.value) == f"feature file not found for 'a': {tmp_path / 'sub' / 'a.patf'}"
        # A manifest in the working directory names the bare relative path.
        monkeypatch.chdir(tmp_path)
        manifest = load_manifest("manifest.csv")
        with pytest.raises(ManifestError) as err:
            load_entry_features(manifest, manifest.entries[0])
        assert str(err.value) == "feature file not found for 'a': sub/a.patf"

    def test_entry_path_resolves_against_manifest_dir(self, tmp_path, monkeypatch):
        path = self._write_bench(tmp_path, [("a", "ind0", "", "database")])
        manifest = load_manifest(path)
        assert manifest.entry_path(manifest.entries[0]) == str(tmp_path / "a.patf")
        monkeypatch.chdir(tmp_path)
        manifest = load_manifest("manifest.csv")
        assert manifest.entry_path(manifest.entries[0]) == "a.patf"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("image,individual,role\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(path)

    def test_not_utf8(self, tmp_path):
        path = self._write_bench(tmp_path, [("a", "ind0", "", "database")])
        path.write_bytes(path.read_bytes().replace(b"ind0", b"ind\xff"))
        with pytest.raises(ManifestError, match="unreadable CSV"):
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

    def test_load_entry_features_parses_file(self, tmp_path):
        write_feature_file(make_features("a"), tmp_path / "a.patf")
        manifest = Manifest(
            entries=[ManifestEntry("a", "ind7", "right", "query", "a.patf")],
            base_dir=tmp_path,
        )
        features = load_entry_features(manifest, manifest.entries[0])
        assert features.count == 3

    def test_load_entry_features_id_mismatch(self, tmp_path):
        write_feature_file(make_features("b"), tmp_path / "a.patf")
        manifest = Manifest(
            entries=[ManifestEntry("a", "ind7", None, "query", "a.patf")],
            base_dir=tmp_path,
        )
        with pytest.raises(ManifestError, match=r"a\.patf.*'b'.*'a'"):
            load_entry_features(manifest, manifest.entries[0])
