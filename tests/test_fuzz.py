"""Fuzz tests of the readers of untrusted files: PATF, model and manifest files.

Every damaged input must give a typed error (PatfError, VocabError) or a
finite result, and the CLI must turn every failure into exit 1 or 2 with an
"error:" line, never a traceback.
"""

import contextlib
import io
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patreid.cli import main
from patreid.ingest import ImageFeatures, PatfError, parse_feature_file, write_feature_file
from patreid.vocab import VocabError, load_vocabulary

TOKENS = ["0", "-0", "1", "1e200", "1e-320", "1e309", "nan", "inf", "-inf", "1_0",
          "0x10", "1d5", "１", "abc", "", "1 2", "\t", "\x00", "PATF", "-1"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny benchmark, its model file, and the bytes of both fuzz seeds."""
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
# counts, and the frames and descriptors of its rows' members.
MEMBER_VALUES = {
    "index_feature_counts": [-1, 0, 1, 7, 1 << 62],
    "index_frames": [0.0, -1.0, 1e-13, 1e200, np.nan, np.inf],
    "index_descriptors": [0.0, 1.0, 2.0, 1e200, np.nan, -np.inf],
}


def members_damaged(data):
    """Strategy: a model file with a few entries of its index feature counts
    or of its index rows' frames and descriptors overwritten, saved again as
    a valid archive."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    counts = np.load(io.BytesIO(members["index_feature_counts.npy"]))
    dim = int(np.load(io.BytesIO(members["descriptor_dim.npy"])))

    def rewrite(edits):
        changed = dict(members)
        for name, k, at, value in edits:
            if name == "index_feature_counts":
                array = counts.copy()
                array[at % array.size] = value
                buffer = io.BytesIO()
                np.save(buffer, array)
                changed["index_feature_counts.npy"] = buffer.getvalue()
                continue
            row = f"index_rows/{k % counts.size}"
            values = np.frombuffer(changed[row], dtype="<f8").copy()
            frames = 6 * counts[k % counts.size]
            part = values[:frames] if name == "index_frames" else values[frames:]
            if part.size:
                part[at % part.size] = value
            changed[row] = values.tobytes()
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as archive:
            for name, blob in changed.items():
                archive.writestr(name, blob)
        return out.getvalue()

    edit = st.sampled_from(sorted(MEMBER_VALUES)).flatmap(
        lambda name: st.tuples(
            st.just(name), st.integers(0, 1 << 30), st.integers(0, 1 << 30),
            st.sampled_from(MEMBER_VALUES[name]),
        )
    )
    return st.lists(edit, min_size=1, max_size=3).map(rewrite)


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
    data = (root / "seed.patf").read_bytes()

    @given(damaged(data))
    def run(blob):
        (root / "fuzz.patf").write_bytes(blob)
        check_features(root / "fuzz.patf")

    run()


def test_patf_tokens(workspace):
    root, _, _ = workspace
    text = (root / "seed.patf").read_text(encoding="utf-8")

    @given(retokened(text))
    def run(fuzzed):
        (root / "fuzz.patf").write_text(fuzzed, encoding="utf-8")
        check_features(root / "fuzz.patf")

    run()


def test_model_bytes(workspace):
    root, _, model = workspace
    data = model.read_bytes()

    @given(damaged(data) | members_damaged(data))
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


def test_cli_query(workspace):
    root, bench, model = workspace
    query = (bench / "ind001_v1.patf").read_bytes()
    data = model.read_bytes()

    @given(damaged(query), damaged(data) | members_damaged(data))
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
