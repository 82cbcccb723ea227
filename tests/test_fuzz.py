"""Fuzz tests of the readers of untrusted files: PATF, model and manifest files.

Every damaged input must give a typed error (PatfError, VocabError) or a
finite result, and the CLI must turn every failure into exit 1 or 2 with an
"error:" line, never a traceback.
"""

import contextlib
import io
import struct
import warnings
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    join_model_file,
    read_feature_rows,
    reference_parse_feature_file,
    split_model_file,
    write_text_feature_file,
)

from patreid.cli import main
from patreid.ingest import ImageFeatures, PatfError, parse_feature_file, write_feature_file
from patreid.vocab import VocabError, load_vocabulary

TOKENS = ["0", "-0", "1", "1e200", "1e-320", "1e309", "nan", "inf", "-inf", "1_0",
          "0x10", "1d5", "１", "abc", "", "1 2", "\t", "\x00", "PATF", "-1"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny benchmark, its model file, and the fuzz seeds: a two-row PATF 2
    file, and PATF 1 text copies of it and of one benchmark file."""
    root = tmp_path_factory.mktemp("fuzz")
    bench, model = root / "bench", root / "model.bin"
    assert main(["synth", "--seed", "2", "--individuals", "3", "--views", "2",
                 "--points", "12", "--descriptor-dim", "8", "--out", str(bench)]) == 0
    assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                 "--out", str(model), "--gmm-k", "2", "--pca-dim", "4"]) == 0
    features = ImageFeatures(
        image_id="img",
        frames=np.array([[0.5, 0.25, 1.0, 0.1, 0.0, 2.0], [0.0, 1.0, 0.5, 0.0, 0.0, 0.5]]),
        descriptors=np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
    )
    write_feature_file(features, root / "seed.patf")
    write_text_feature_file(features, root / "seed-text.patf")
    write_text_feature_file(read_feature_rows(bench / "ind001_v1.patf"), root / "bench-text.patf")
    return root, bench, model


def flipped(data, flips):
    out = bytearray(data)
    for at, value in flips:
        out[at % len(out)] = value
    return bytes(out)


def damaged(data):
    """Strategy: data with a few bytes overwritten, truncated, or both."""
    flips = st.lists(st.tuples(st.integers(0, 1 << 30), st.integers(0, 255)), max_size=4)
    return st.one_of(
        flips.map(lambda f: flipped(data, f)),
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.tuples(flips, st.integers(1, len(data))).map(lambda t: flipped(data, t[0])[: t[1]]),
    )


# Values written into single entries of a model file's index: its feature
# counts, and the frames and descriptors of its rows.
MEMBER_VALUES = {
    "index_feature_counts": [-1, 0, 1, 7, 1 << 62],
    "index_frames": [0.0, -1.0, 1e-13, 1e200, np.nan, np.inf],
    "index_descriptors": [0.0, 1.0, 2.0, 1e200, np.nan, -np.inf],
}


def members_damaged(data):
    """Strategy: a model file with a few entries of its index feature counts
    or of its index rows' frames and descriptors overwritten, each edited
    row's CRC-32 and each array's CRC-32 stored anew."""
    rows_data, arrays, header = split_model_file(data)
    counts = np.frombuffer(arrays["index_feature_counts"], "<i8")
    width = 6 + header["dims"]["pca_in"]
    starts = np.concatenate([[0], np.cumsum(width * counts)])

    def rewrite(edits):
        array, crcs = counts.copy(), np.frombuffer(arrays["index_row_crc32"], "<u4").copy()
        rows = np.frombuffer(rows_data, "<f8").copy()
        for name, k, at, value in edits:
            if name == "index_feature_counts":
                array[at % array.size] = value
                continue
            k %= counts.size
            row = rows[starts[k] : starts[k + 1]]
            part = row[: 6 * counts[k]] if name == "index_frames" else row[6 * counts[k] :]
            if part.size:
                part[at % part.size] = value
            crcs[k] = zlib.crc32(row.tobytes())
        changed = dict(arrays, index_feature_counts=array.tobytes(),
                       index_row_crc32=crcs.tobytes())
        return join_model_file(rows.tobytes(), changed,
                               {**header, "array_crc32": list(map(zlib.crc32, changed.values()))})

    edit = st.sampled_from(sorted(MEMBER_VALUES)).flatmap(
        lambda name: st.tuples(
            st.just(name), st.integers(0, 1 << 30), st.integers(0, 1 << 30),
            st.sampled_from(MEMBER_VALUES[name]),
        )
    )
    return st.lists(edit, min_size=1, max_size=3).map(rewrite)


def tail_damaged(data):
    """Strategy: data with a few of its last 64 bytes, which hold the end of
    the header, its length and the magic, overwritten, or cut among them."""
    flips = st.lists(st.tuples(st.integers(1, 64), st.integers(0, 255)), min_size=1, max_size=4)
    return st.one_of(
        flips.map(lambda f: flipped(data, [(len(data) - at, value) for at, value in f])),
        st.integers(1, 64).map(lambda n: data[:-n]),
    )


def header_damaged(data):
    """Strategy: data with a few bytes of its header XORed with a value below
    8, which keeps most digits and letters digits and letters, so the header
    often stays valid JSON of other values."""
    end = len(data) - 20 - int.from_bytes(data[-20:-12], "little")
    flips = st.lists(st.tuples(st.integers(end, len(data) - 21), st.integers(1, 7)),
                     min_size=1, max_size=4)
    return flips.map(lambda f: flipped(data, [(at, data[at] ^ x) for at, x in f]))


def retokened(text):
    """Strategy: text with some whitespace-separated tokens replaced."""
    words = text.split(" ")
    swaps = st.lists(
        st.tuples(st.integers(0, len(words) - 1), st.sampled_from(TOKENS) | st.text(max_size=4)),
        min_size=1, max_size=3,
    )

    def apply(pairs):
        out = list(words)
        for at, token in pairs:
            out[at] = token
        return " ".join(out)

    return swaps.map(apply)


def check_features(path):
    try:
        features = parse_feature_file(path)
    except PatfError:
        return
    assert np.isfinite(features.frames).all() and np.isfinite(features.descriptors).all()
    norms = np.linalg.norm(features.descriptors, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def cli_fails_cleanly(argv):
    """main's exit code; a failure must be exit 1 or 2 with an "error:" line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")
    return code


def test_patf_bytes(workspace):
    root, _, _ = workspace
    data = (root / "seed-text.patf").read_bytes()

    @given(damaged(data))
    def run(blob):
        (root / "fuzz.patf").write_bytes(blob)
        check_features(root / "fuzz.patf")

    run()


def test_patf_tokens(workspace):
    root, _, _ = workspace
    text = (root / "seed-text.patf").read_text(encoding="utf-8")

    @given(retokened(text))
    def run(fuzzed):
        (root / "fuzz.patf").write_text(fuzzed, encoding="utf-8")
        check_features(root / "fuzz.patf")

    run()


def parse_outcome(parse, path):
    """What parse makes of path: the bytes of its arrays, or its PatfError's
    line and message."""
    try:
        f = parse(path)
    except PatfError as exc:
        return exc.line_no, exc.message
    return f.image_id, [(a.shape, a.tobytes()) for a in (f.frames, f.descriptors)]


def test_patf_matches_reference(workspace):
    root, bench, _ = workspace
    seeds = [(root / "seed-text.patf").read_bytes(), (root / "bench-text.patf").read_bytes()]
    texts = st.sampled_from(seeds).flatmap(
        lambda data: damaged(data) | retokened(data.decode("utf-8")).map(str.encode)
    )

    @given(texts)
    def run(blob):
        (root / "ref.patf").write_bytes(blob)
        got = parse_outcome(parse_feature_file, root / "ref.patf")
        assert got == parse_outcome(reference_parse_feature_file, root / "ref.patf")

    run()


# Values patched into a PATF 2 file's rows: non-finite ones, ones whose det
# or norm overflows, and ones that make a frame singular or a norm zero.
ROW_VALUES = [np.nan, -np.nan, np.inf, -np.inf, 1e200, 1.7e308, 0.0, -0.0, 5e-324, 1e-13]


def binary_damaged(data):
    """Strategy: a PATF 2 file with its rows cut short or extended, one header
    line rewritten or a few header bytes overwritten, or a few values
    patched into its rows."""
    end = data.index(b"\n", data.index(b"\n", data.index(b"\n") + 1) + 1) + 1
    lines = data[:end].split(b"\n")[:3]
    dim, count = map(int, lines[2].split())
    row_bytes = 8 * (6 + dim)
    header_lines = [b"PATF 2", b"PATF 2\r", b" PATF\t2 ", b"PATF 3", b"PATF 1", b"PATF", b"",
                    b"img", b"two words", b"\xff", b"\t", f"{dim} {count + 1}".encode(),
                    f"{dim} {count - 1}".encode(), f"{dim + 1} {count}".encode(),
                    f"{dim} 0".encode(), b"0 0", b"8 -1", b"x 2", b"8"]

    def rewritten(at_line):
        at, line = at_line
        changed = list(lines)
        changed[at] = line
        return b"\n".join(changed) + b"\n" + data[end:]

    def patched(edits):
        out = bytearray(data)
        for at, value in edits:
            struct.pack_into("<d", out, end + 8 * (at % (count * (6 + dim))), value)
        return bytes(out)

    flips = st.lists(st.tuples(st.integers(0, end - 1), st.integers(0, 255)), min_size=1,
                     max_size=3)
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.integers(1, 2 * row_bytes).map(lambda n: data + data[end : end + n]),
        st.tuples(st.integers(0, 2), st.sampled_from(header_lines)).map(rewritten),
        flips.map(lambda f: flipped(data, f)),
        st.lists(st.tuples(st.integers(0, 1 << 30), st.sampled_from(ROW_VALUES)),
                 min_size=1, max_size=3).map(patched),
    )


def test_patf2_matches_reference(workspace):
    # Damaged PATF 2 files give the arrays of the reference, which unpacks
    # one row at a time, or its PatfError line and message.
    root, bench, _ = workspace
    seeds = [(root / "seed.patf").read_bytes(), (bench / "ind001_v1.patf").read_bytes()]

    @given(st.sampled_from(seeds).flatmap(binary_damaged))
    def run(blob):
        (root / "ref.patf").write_bytes(blob)
        check_features(root / "ref.patf")
        got = parse_outcome(parse_feature_file, root / "ref.patf")
        assert got == parse_outcome(reference_parse_feature_file, root / "ref.patf")

    run()


def test_model_bytes(workspace):
    root, _, model = workspace
    data = model.read_bytes()

    models = damaged(data) | members_damaged(data) | tail_damaged(data) | header_damaged(data)

    @given(models)
    def run(blob):
        (root / "fuzz.bin").write_bytes(blob)
        try:
            vocab = load_vocabulary(root / "fuzz.bin")
        except VocabError:
            return
        with vocab:
            assert vocab.alpha > 0 and np.isfinite(vocab.kpca.matrix).all()
            for k, embedding in enumerate(vocab.index.embeddings):
                norm = np.linalg.norm(embedding)
                assert norm == 0 or abs(norm - 1) <= 1e-6
                # Each row is checked where it is read.
                try:
                    features = vocab.read_row(k)
                except VocabError:
                    continue
                frames, descriptors = features.frames, features.descriptors
                assert np.isfinite(frames).all() and np.isfinite(descriptors).all()
                det = frames[:, 2] * frames[:, 5] - frames[:, 3] * frames[:, 4]
                assert (np.abs(det) >= 1e-12).all()
                norms = np.linalg.norm(descriptors, axis=1)
                np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    run()


def stored(vocab):
    """A vocabulary's values beside its index rows, as bytes, and each row's
    features as bytes or the VocabError its read raises."""
    values = [np.asarray(vocab.alpha).tobytes()] + [
        np.asarray(getattr(model, f.name)).tobytes()
        for model in (vocab.pca, vocab.gmm, vocab.kpca, vocab.index) for f in fields(model)
    ]
    rows = []
    for k in range(len(vocab.index.image_ids)):
        try:
            features = vocab.read_row(k)
        except VocabError:
            rows.append(VocabError)
            continue
        rows.append(features.frames.tobytes() + features.descriptors.tobytes())
    return values, rows


def test_model_bytes_load_as_saved(workspace):
    # The header, each array and each index row are under a CRC-32, so
    # overwritten or cut bytes that still load give the saved values, and
    # each row read gives the saved features or fails.
    root, _, model = workspace
    data = model.read_bytes()
    with load_vocabulary(model) as vocab:
        values, rows = stored(vocab)

    @given(damaged(data) | tail_damaged(data) | header_damaged(data))
    def run(blob):
        (root / "fuzz.bin").write_bytes(blob)
        try:
            vocab = load_vocabulary(root / "fuzz.bin")
        except VocabError:
            return
        with vocab:
            got_values, got_rows = stored(vocab)
        assert got_values == values
        assert all(got in (VocabError, row) for got, row in zip(got_rows, rows, strict=True))

    run()


def test_cli_query(workspace):
    root, bench, model = workspace
    query = (bench / "ind001_v1.patf").read_bytes()
    data = model.read_bytes()
    models = damaged(data) | members_damaged(data) | tail_damaged(data) | header_damaged(data)

    @given(damaged(query), models)
    def run(query_blob, model_blob):
        (root / "q.patf").write_bytes(query_blob)
        (root / "fuzz.bin").write_bytes(model_blob)
        cli_fails_cleanly(["query", "--manifest", str(bench / "manifest.csv"),
                           "--vocab", str(root / "fuzz.bin"), "--features", str(root / "q.patf")])

    run()


def test_cli_manifest(workspace, tmp_path):
    _, bench, model = workspace
    data = (bench / "manifest.csv").read_bytes()

    @given(damaged(data))
    def run(blob):
        # Beside the feature files, so the relative paths in it resolve.
        (bench / "fuzz.csv").write_bytes(blob)
        cli_fails_cleanly(["query", "--manifest", str(bench / "fuzz.csv"), "--vocab", str(model),
                           "--features", str(bench / "ind001_v1.patf")])

    run()


def test_cli_build_vocab(workspace, tmp_path):
    _, bench, _ = workspace
    copy = tmp_path / "bench"
    copy.mkdir()
    for p in bench.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    data = (bench / "ind002_v0.patf").read_bytes()

    @given(damaged(data))
    def run(blob):
        (copy / "ind002_v0.patf").write_bytes(blob)
        cli_fails_cleanly(["build-vocab", "--manifest", str(copy / "manifest.csv"),
                           "--out", str(tmp_path / "model.bin"), "--gmm-k", "2", "--pca-dim", "4"])

    run()


def test_cli_build_vocab_integer_flags(tmp_path):
    bench = tmp_path / "bench"
    assert cli_fails_cleanly(["synth", "--seed", "5", "--individuals", "4", "--views", "2",
                              "--out", str(bench)]) == 0
    # Small values and negatives, plus values too large for the bench's 4
    # database images of 80 descriptors of width 128.
    seeds = st.integers(-2, 2) | st.integers(-(1 << 70), 1 << 70)
    gmm_ks = st.integers(-1, 6) | st.just(400)
    pca_dims = st.integers(-1, 8) | st.just(129)
    kpca_dims = st.integers(-1, 4)

    @given(seeds, gmm_ks, pca_dims, kpca_dims)
    def run(seed, gmm_k, pca_dim, kpca_dim):
        flags = ["--seed", seed, "--gmm-k", gmm_k, "--pca-dim", pca_dim, "--kpca-dim", kpca_dim]
        with warnings.catch_warnings():
            # A default kpca_dim above the Fisher vectors' rank is reduced
            # with a warning, by design (see test_vocab).
            warnings.filterwarnings("ignore", "kernel PCA rank", UserWarning)
            code = cli_fails_cleanly(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                                      "--out", str(tmp_path / "model.bin"), *map(str, flags)])
        assert code in (0, 2)

    run()
