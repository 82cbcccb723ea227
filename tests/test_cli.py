"""Command-line interface tests (exit codes, outputs, determinism)."""

import os
import pickle
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

import patreid.cli
import patreid.encode
import patreid.geometry
import patreid.ingest
import patreid.reid
import patreid.vocab
from patreid.cli import main
from patreid.encode import cosine_distance, embed_image
from patreid.ingest import load_entry_features, load_manifest, parse_feature_file
from patreid.vocab import DatabaseIndex, load_vocabulary, save_vocabulary


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny benchmark plus a trained vocabulary, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    bench = root / "bench"
    vocab = root / "vocab.txt"
    assert main([
        "synth", "--seed", "13", "--individuals", "3", "--views", "3",
        "--out", str(bench),
    ]) == 0
    assert main([
        "build-vocab", "--manifest", str(bench / "manifest.csv"),
        "--out", str(vocab), "--gmm-k", "4", "--pca-dim", "16",
    ]) == 0
    return root, bench, vocab


class TestSynth:
    def test_counts(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main([
            "synth", "--seed", "7", "--individuals", "2", "--views", "2",
            "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out.strip() == str(out / "manifest.csv")
        assert len(list(out.glob("*.patf"))) == 4
        assert len(list(out.glob("*.h"))) == 4
        assert (out / "manifest.csv").is_file()

    def test_repeat_byte_identical(self, tmp_path):
        args = ["synth", "--seed", "7", "--individuals", "2", "--views", "2"]
        main(args + ["--out", str(tmp_path / "one")])
        main(args + ["--out", str(tmp_path / "two")])
        for p in sorted((tmp_path / "one").iterdir()):
            assert p.read_bytes() == (tmp_path / "two" / p.name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--dropout", "1.5"), ("--clutter", "nan"), ("--clutter", "inf"),
         ("--max-perspective", "nan"), ("--max-perspective", "inf"), ("--noise", "nan"),
         ("--noise", "inf"), ("--noise", "-0.1")],
    )
    def test_invalid_value_names_flag(self, tmp_path, capsys, flag, value):
        code = main([
            "synth", "--seed", "1", "--individuals", "2", "--views", "2",
            flag, value, "--out", str(tmp_path / "bench"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "Traceback" not in err
        assert not (tmp_path / "bench").exists()


class TestBuildVocab:
    def test_same_seed_value_identical(self, workspace, tmp_path):
        _, bench, _ = workspace
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["build-vocab", "--manifest", str(bench / "manifest.csv"),
                "--gmm-k", "4", "--pca-dim", "16", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_query_only_manifest(self, workspace, tmp_path, capsys):
        _, bench, _ = workspace
        manifest = load_manifest(bench / "manifest.csv")
        lines = (bench / "manifest.csv").read_text(encoding="utf-8").splitlines()
        header, rows = lines[0], lines[1:]
        query_rows = [r for r in rows if ",query," in r]
        path = tmp_path / "queries.csv"
        path.write_text("\n".join([header] + query_rows) + "\n", encoding="utf-8")
        # Feature paths are relative to the manifest, so link the directory.
        for patf in bench.glob("*.patf"):
            (tmp_path / patf.name).symlink_to(patf)
        code = main([
            "build-vocab", "--manifest", str(path), "--out", str(tmp_path / "v.txt"),
        ])
        assert code == 2
        assert "no database entries" in capsys.readouterr().err

    def test_insufficient_data(self, workspace, tmp_path, capsys):
        _, bench, _ = workspace
        code = main([
            "build-vocab", "--manifest", str(bench / "manifest.csv"),
            "--out", str(tmp_path / "v.txt"), "--gmm-k", "4096",
        ])
        assert code == 2
        assert "need at least" in capsys.readouterr().err

    def test_one_fisher_encode_per_database_image(self, workspace, tmp_path, monkeypatch):
        _, bench, _ = workspace
        calls = []
        encode = patreid.encode.fisher_encode

        def counted(features, pca, gmm):
            calls.append(features.image_id)
            return encode(features, pca, gmm)

        monkeypatch.setattr(patreid.encode, "fisher_encode", counted)
        assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                     "--out", str(tmp_path / "v.bin"), "--gmm-k", "4", "--pca-dim", "16"]) == 0
        db = load_manifest(bench / "manifest.csv").with_role("database")
        assert calls == [e.image_id for e in db]

    def test_mixed_descriptor_widths(self, workspace, tmp_path, capsys):
        _, bench, _ = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        assert main(["synth", "--seed", "13", "--individuals", "3", "--views", "3",
                     "--descriptor-dim", "64", "--out", str(tmp_path / "narrow")]) == 0
        shutil.copy(tmp_path / "narrow" / "ind001_v0.patf", copy / "ind001_v0.patf")
        code = main(["build-vocab", "--manifest", str(copy / "manifest.csv"),
                     "--out", str(tmp_path / "v.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "image 'ind001_v0' has 64-dim descriptors, expected 128 as image 'ind000_v0'" in err
        assert not (tmp_path / "v.bin").exists()

    def test_kernel_pca_rank_warning_line(self, tmp_path, capsys):
        bench, model = tmp_path / "bench", tmp_path / "v.bin"
        assert main(["synth", "--individuals", "4", "--views", "2", "--out", str(bench)]) == 0
        capsys.readouterr()
        code = main(["build-vocab", "--manifest", str(bench / "manifest.csv"), "--out", str(model),
                     "--gmm-k", "1", "--pca-dim", "1"])
        out, err = capsys.readouterr()
        assert code == 0 and out == f"{model}\n"
        assert err == "warning: kernel PCA rank 2 below requested 3; reducing\n"

    def test_missing_manifest(self, tmp_path, capsys):
        code = main([
            "build-vocab", "--manifest", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "v.txt"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--alpha", "-1"), ("--alpha", "0"), ("--alpha", "nan"), ("--alpha", "inf"),
         ("--kpca-dim", "-3"), ("--seed", "-1"), ("--gmm-k", "0"), ("--gmm-k", "-2"),
         ("--pca-dim", "0"), ("--pca-dim", "-5")],
    )
    def test_invalid_value_names_flag(self, tmp_path, capsys, flag, value):
        # Checked before any file is read: the manifest does not exist.
        code = main([
            "build-vocab", "--manifest", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "v.txt"), flag, value,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "not found" not in err
        assert not (tmp_path / "v.txt").exists()


class TestQuery:
    def test_database_image_ranks_itself(self, workspace, capsys):
        _, bench, vocab = workspace
        assert main([
            "query", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--features", str(bench / "ind001_v0.patf"),
            "--rule", "exp",
        ]) == 0
        out = capsys.readouterr().out
        first_row = out.splitlines()[1].split()
        assert first_row[0] == "1"
        assert first_row[1] == "ind001"

    def test_rules_run_and_topk_bounds_rows(self, workspace, capsys):
        _, bench, vocab = workspace
        for rule in ("app", "geom", "poly", "exp"):
            assert main([
                "query", "--manifest", str(bench / "manifest.csv"),
                "--vocab", str(vocab), "--features", str(bench / "ind000_v1.patf"),
                "--rule", rule, "--topk", "2",
            ]) == 0
            out = capsys.readouterr().out
            assert len(out.splitlines()) <= 3  # header + at most topk rows

    def test_missing_vocab(self, workspace, tmp_path, capsys):
        _, bench, _ = workspace
        code = main([
            "query", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(tmp_path / "nope.txt"),
            "--features", str(bench / "ind000_v1.patf"),
        ])
        assert code == 2
        assert "vocabulary not found" in capsys.readouterr().err

    def test_invalid_rule_rejected_by_parser(self, workspace):
        _, bench, vocab = workspace
        with pytest.raises(SystemExit) as exc:
            main(["query", "--manifest", str(bench / "manifest.csv"),
                  "--vocab", str(vocab), "--features", "x.patf",
                  "--rule", "bogus"])
        assert exc.value.code == 2

    def test_malformed_feature_file(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        bad = tmp_path / "bad.patf"
        bad.write_text("PATF 1\nimg\n4 1\n0 0 1 0 0 1 nan 0 0 0\n", encoding="utf-8")
        code = main([
            "query", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--features", str(bad),
        ])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def indexed(tmp_path_factory):
    """Eight database images, so a shortlist of 5 is a true subset, and a model."""
    root = tmp_path_factory.mktemp("indexed")
    bench, model = root / "bench", root / "model.bin"
    assert main(["synth", "--seed", "5", "--individuals", "8", "--views", "2",
                 "--out", str(bench)]) == 0
    assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                 "--out", str(model), "--gmm-k", "4", "--pca-dim", "16"]) == 0
    return bench, model


def _reindexed(model, manifest_path, out):
    """model with every database row of the manifest embedded afresh."""
    manifest = load_manifest(manifest_path)
    rows = [load_entry_features(manifest, e) for e in manifest.with_role("database")]
    with load_vocabulary(model) as vocabulary:
        vocabulary.index = DatabaseIndex(
            [f.image_id for f in rows],
            np.stack([embed_image(f, vocabulary) for f in rows]),
            np.array([f.count for f in rows]),
        )
        vocabulary.read_row = rows.__getitem__
        save_vocabulary(vocabulary, out)
    return out


def _query(capsys, bench, model, features, *flags):
    capsys.readouterr()
    assert main(["query", "--manifest", str(bench / "manifest.csv"), "--vocab", str(model),
                 "--features", str(bench / features), *flags]) == 0
    return capsys.readouterr().out


class Spy:
    """The calls a patched function saw, from every process: each call is
    one line appended to a file, with the caller's pid, so the calls that
    evaluate's forked workers make count too.  A call records one token (a
    file name or an image id) or a pair of them."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def record(self, *values):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(" ".join([str(os.getpid()), *values]) + "\n")

    def clear(self):
        self.path.write_text("", encoding="utf-8")

    def _lines(self):
        for line in self.path.read_text(encoding="utf-8").splitlines():
            pid, *values = line.split()
            yield pid, values[0] if len(values) == 1 else tuple(values)

    def calls(self):
        """Every call, in the order the calls were recorded."""
        return [call for _, call in self._lines()]

    def by_process(self):
        """{pid: that process's calls, in call order}"""
        calls = {}
        for pid, call in self._lines():
            calls.setdefault(pid, []).append(call)
        return calls

    def in_slices(self, expected):
        """Each process's calls in call order, the processes taken in the
        order of their first call in expected: equal to expected when the
        processes made its calls in contiguous slices, each call once."""
        runs = self.by_process().values()
        at = {call: i for i, call in enumerate(expected)}
        return [call for run in sorted(runs, key=lambda run: at.get(run[0], -1)) for call in run]


@pytest.fixture
def parse_calls(monkeypatch, tmp_path):
    """File names of every parse_feature_file call, at both of its lookup sites."""
    spy = Spy(tmp_path / "parse_calls.log")

    def counted(path):
        spy.record(Path(path).name)
        return parse_feature_file(path)

    monkeypatch.setattr(patreid.ingest, "parse_feature_file", counted)
    monkeypatch.setattr(patreid.cli, "parse_feature_file", counted)
    return spy


@pytest.fixture
def embed_calls(monkeypatch, tmp_path):
    """Image ids of every embed_image call a search makes."""
    spy = Spy(tmp_path / "embed_calls.log")

    def counted(features, vocabulary):
        spy.record(features.image_id)
        return embed_image(features, vocabulary)

    monkeypatch.setattr(patreid.reid, "embed_image", counted)
    return spy


@pytest.fixture
def row_reads(monkeypatch, tmp_path):
    """Image ids of every index row read from a model file."""
    spy = Spy(tmp_path / "row_reads.log")
    read = patreid.vocab.read_index_row

    def counted(archive, path, k, image_id, count, dim):
        spy.record(image_id)
        return read(archive, path, k, image_id, count, dim)

    monkeypatch.setattr(patreid.vocab, "read_index_row", counted)
    return spy


@pytest.fixture
def verified_pairs(monkeypatch, tmp_path):
    """(query id, database id) of every pair a search verifies."""
    spy = Spy(tmp_path / "verified_pairs.log")
    verify = patreid.geometry.verify_shortlist

    def counted(query, dbs, params):
        for db in dbs:
            spy.record(query.image_id, db.image_id)
        return verify(query, dbs, params)

    monkeypatch.setattr(patreid.geometry, "verify_shortlist", counted)
    return spy


@pytest.fixture
def cpus(monkeypatch, tmp_path):
    """cpus(n) makes this process's affinity mask n CPUs, so fork_map runs n
    workers; the fixture's list holds one entry per os.fork call.  No worker
    may fork: the test fails if one does."""
    forks, nested = [], tmp_path / "nested_forks.log"
    fork, parent = os.fork, os.getpid()

    def counted():
        if os.getpid() != parent:
            with open(nested, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()
        return forks

    yield set_cpus
    assert not nested.exists(), "a forked worker forked"


def _swap_in_ind002_v0(bench):
    """Rewrite bench's ind001_v0.patf to hold ind002_v0's features under its own id."""
    lines = (bench / "ind002_v0.patf").read_text(encoding="utf-8").splitlines()
    lines[1] = "ind001_v0"
    (bench / "ind001_v0.patf").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _damaged_row(model, out, image_id):
    """A copy of model with one byte flipped in image_id's index row."""
    with load_vocabulary(model) as vocabulary:
        k = vocabulary.index.image_ids.index(image_id)
    with zipfile.ZipFile(model) as archive:
        row = archive.read(f"index_rows/{k}")
    data = bytearray(model.read_bytes())
    data[data.index(row) + 5] ^= 0x40
    out.write_bytes(bytes(data))
    return out


class TestDatabaseIndex:
    @pytest.mark.parametrize(
        "flags, reads",
        [(("--rule", "exp", "--shortlist", "5"), 5), (("--rule", "geom", "--shortlist", "0"), 8),
         (("--rule", "app"), 0)],
        ids=["shortlist-5", "shortlist-all", "appearance"],
    )
    def test_query_reads_only_verified_rows(
        self, indexed, capsys, row_reads, verified_pairs, flags, reads
    ):
        bench, model = indexed
        _query(capsys, bench, model, "ind003_v1.patf", *flags)
        assert len(row_reads.calls()) == reads
        assert row_reads.calls() == [db for _, db in verified_pairs.calls()]

    @pytest.mark.parametrize("protocol", ["split", "loo"])
    @pytest.mark.parametrize("shortlist", ["3", "0"])
    def test_evaluate_reads_each_verified_row_once(
        self, indexed, row_reads, verified_pairs, cpus, protocol, shortlist
    ):
        bench, model = indexed
        cpus(2)
        assert main(["evaluate", "--manifest", str(bench / "manifest.csv"), "--vocab", str(model),
                     "--protocol", protocol, "--shortlist", shortlist]) == 0
        with load_vocabulary(model) as vocabulary:
            indexed_ids = set(vocabulary.index.image_ids)
        pairs = verified_pairs.calls()
        assert len(set(pairs)) == len(pairs)  # each pair once
        # Leave-one-out queries are database rows too, read once as either.
        # Each process reads the rows its own slice of queries verifies, once
        # each, so a row that two slices verify is read once per process.
        pairs, reads = verified_pairs.by_process(), row_reads.by_process()
        assert len(reads) == 2  # this process and its worker
        for pid in set(pairs) | set(reads):
            used = {image_id for pair in pairs.get(pid, []) for image_id in pair} & indexed_ids
            assert sorted(reads.get(pid, [])) == sorted(used)

    def test_damaged_row_read_fails(self, indexed, tmp_path, capsys, row_reads):
        bench, model = indexed
        _query(capsys, bench, model, "ind003_v1.patf", "--shortlist", "5")
        read = row_reads.calls()[2]
        damaged = _damaged_row(model, tmp_path / "damaged.bin", read)
        code = main(["query", "--manifest", str(bench / "manifest.csv"), "--vocab", str(damaged),
                     "--features", str(bench / "ind003_v1.patf"), "--shortlist", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {damaged}: unreadable index row of '{read}'")
        assert "CRC" in err

    @pytest.mark.parametrize("command", ["query", "evaluate"])
    def test_damaged_row_not_read_changes_nothing(self, indexed, tmp_path, capsys, row_reads,
                                                  command):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        # One query, so a shortlist of 2 leaves database rows unread.
        lines = (copy / "manifest.csv").read_text(encoding="utf-8").splitlines()
        lines = [line for line in lines if ",query," not in line or "ind003_v1" in line]
        (copy / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = ["--manifest", str(copy / "manifest.csv"), "--shortlist", "2"]
        if command == "query":
            flags += ["--features", str(copy / "ind003_v1.patf")]
        else:
            flags += ["--per-query-csv", str(tmp_path / "out.csv")]

        def run(vocab):
            capsys.readouterr()
            assert main([command, "--vocab", str(vocab), *flags]) == 0
            csv = tmp_path / "out.csv"
            return capsys.readouterr().out, csv.read_bytes() if csv.exists() else b""

        before = run(model)
        assert len(row_reads.calls()) == 2
        with load_vocabulary(model) as vocabulary:
            unread = next(i for i in vocabulary.index.image_ids if i not in row_reads.calls())
        assert run(_damaged_row(model, tmp_path / "damaged.bin", unread)) == before

    def test_stored_embeddings_bit_equal(self, indexed):
        bench, model = indexed
        manifest = load_manifest(bench / "manifest.csv")
        db = manifest.with_role("database")
        with load_vocabulary(model) as vocabulary:
            assert vocabulary.index.image_ids == [e.image_id for e in db]
            for k, e in enumerate(db):
                stored, read = vocabulary.index.embeddings[k], vocabulary.read_row(k)
                parsed = load_entry_features(manifest, e)
                embedding = embed_image(parsed, vocabulary)
                assert stored.tobytes() == embedding.tobytes()
                assert read.frames.tobytes() == parsed.frames.tobytes()
                assert read.descriptors.tobytes() == parsed.descriptors.tobytes()

    def test_one_cosine_call_equals_pairwise_calls(self, indexed):
        _, model = indexed
        with load_vocabulary(model) as vocabulary:
            stored = list(vocabulary.index.embeddings)
        embeddings = np.vstack(stored + [np.zeros_like(stored[0])])  # last: degenerate
        d = cosine_distance(embeddings[:, None], embeddings[None])
        assert d.shape == (len(embeddings), len(embeddings))
        for i, a in enumerate(embeddings):
            for j, b in enumerate(embeddings):
                assert d[i, j].tobytes() == np.float64(cosine_distance(a, b)).tobytes()
                if i < len(stored) and j < len(stored):
                    # The 1-D formula stage 1 used per pair before it took arrays.
                    plain = 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
                    assert d[i, j].tobytes() == np.float64(plain).tobytes()
        assert (d[-1] == 2.0).all() and (d[:, -1] == 2.0).all()

    @pytest.mark.parametrize(
        "argv",
        [("query", "--rule", "exp", "--shortlist", "5"), ("query", "--rule", "app"),
         ("query", "--rule", "geom", "--shortlist", "0"), ("evaluate", "--protocol", "split"),
         ("evaluate", "--protocol", "loo")],
        ids=["query-exp", "query-app", "query-geom-all", "evaluate-split", "evaluate-loo"],
    )
    def test_indexed_rows_never_parsed_or_embedded(
        self, indexed, capsys, parse_calls, embed_calls, cpus, argv
    ):
        bench, model = indexed
        cpus(2)
        command, *flags = argv
        args = [command, "--manifest", str(bench / "manifest.csv"), "--vocab", str(model)]
        if command == "query":
            args += ["--features", str(bench / "ind003_v1.patf")]
            queries = ["ind003_v1"]
        else:
            queries = [e.image_id for e in load_manifest(bench / "manifest.csv").with_role("query")]
        assert main(args + flags) == 0
        # The database rows all come from the index; only the queries are read.
        expected = [f"{q}.patf" for q in queries]
        assert parse_calls.in_slices(expected) == expected
        assert embed_calls.in_slices(queries) == queries

    @pytest.mark.parametrize(
        "argv",
        [("query", "--rule", "exp"), ("evaluate", "--protocol", "split"),
         ("evaluate", "--protocol", "loo")],
        ids=["query", "evaluate-split", "evaluate-loo"],
    )
    def test_no_database_file_read(self, indexed, tmp_path, capsys, parse_calls, cpus, argv):
        bench, model = indexed
        cpus(2)
        copy = shutil.copytree(bench, tmp_path / "bench")
        command, *flags = argv
        args = [command, "--manifest", str(copy / "manifest.csv"), "--vocab", str(model),
                "--shortlist", "0", *flags]
        manifest = load_manifest(copy / "manifest.csv")
        if command == "query":
            args += ["--features", str(copy / "ind003_v1.patf")]
            queries = ["ind003_v1"]
        else:
            args += ["--per-query-csv", str(tmp_path / "out.csv")]
            queries = [e.image_id for e in manifest.with_role("query")]

        def run():
            capsys.readouterr()
            parse_calls.clear()
            assert main(args) == 0
            csv = tmp_path / "out.csv"
            return capsys.readouterr().out, csv.read_bytes() if csv.exists() else b""

        before = run()
        with load_vocabulary(model) as vocabulary:
            indexed_ids = set(vocabulary.index.image_ids)
        for e in manifest.entries:
            if e.image_id in indexed_ids:
                # Not a PATF file any more; an indexed row's file is never read.
                Path(manifest.entry_path(e)).write_bytes(b"not a PATF file\n")
        assert run() == before
        expected = [f"{q}.patf" for q in queries]
        assert parse_calls.in_slices(expected) == expected

    @pytest.mark.parametrize(
        "argv",
        [("query", "--rule", "exp"), ("evaluate", "--protocol", "split"),
         ("evaluate", "--protocol", "loo")],
        ids=["query", "evaluate-split", "evaluate-loo"],
    )
    def test_deleted_database_file_changes_nothing(self, indexed, tmp_path, capsys, argv):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        command, *flags = argv
        args = [command, "--manifest", str(copy / "manifest.csv"), "--vocab", str(model),
                "--shortlist", "0", *flags]
        if command == "query":
            args += ["--features", str(copy / "ind003_v1.patf")]
        else:
            args += ["--per-query-csv", str(tmp_path / "out.csv")]

        def run():
            capsys.readouterr()
            assert main(args) == 0
            csv = tmp_path / "out.csv"
            return capsys.readouterr().out, csv.read_bytes() if csv.exists() else b""

        before = run()
        # An indexed row is taken from the model file, so its PATF file need not exist.
        (copy / "ind002_v0.patf").unlink()
        assert run() == before

    @pytest.mark.parametrize("protocol", ["split", "loo"])
    def test_rewritten_file_evaluates_as_snapshot(
        self, indexed, tmp_path, parse_calls, embed_calls, cpus, protocol
    ):
        bench, model = indexed
        cpus(2)
        copy = shutil.copytree(bench, tmp_path / "bench")
        queries = [e.image_id for e in load_manifest(copy / "manifest.csv").with_role("query")]

        def run(name, vocab):
            parse_calls.clear()
            embed_calls.clear()
            out = tmp_path / f"{name}.csv"
            assert main(["evaluate", "--manifest", str(copy / "manifest.csv"), "--vocab",
                         str(vocab), "--protocol", protocol, "--per-query-csv", str(out)]) == 0
            return out.read_bytes()

        before = run("before", model)
        _swap_in_ind002_v0(copy)
        stale = run("stale", model)
        # The model is the database as build-vocab saw it: only queries are read.
        expected = [f"{q}.patf" for q in queries]
        assert parse_calls.in_slices(expected) == expected
        assert embed_calls.in_slices(queries) == queries
        assert stale == before
        fresh = _reindexed(model, copy / "manifest.csv", tmp_path / "fresh.bin")
        assert run("fresh", fresh) != stale

    def test_rewritten_file_queries_as_snapshot(self, indexed, tmp_path, capsys, parse_calls):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        before = _query(capsys, copy, model, "ind002_v1.patf", "--rule", "app")
        _swap_in_ind002_v0(copy)
        fresh = _reindexed(model, copy / "manifest.csv", tmp_path / "fresh.bin")
        parse_calls.clear()
        stale = _query(capsys, copy, model, "ind002_v1.patf", "--rule", "app")
        assert parse_calls.calls() == ["ind002_v1.patf"]
        assert stale == before
        assert stale != _query(capsys, copy, fresh, "ind002_v1.patf", "--rule", "app")

    def test_row_missing_from_index_is_embedded(self, indexed, tmp_path, capsys, parse_calls):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = copy / "manifest.csv"
        text = manifest.read_text(encoding="utf-8")
        row = "ind004_v1,ind004,,query,"
        assert row in text
        manifest.write_text(text.replace(row, "ind004_v1,newcomer,,database,"),
                            encoding="utf-8")
        fresh = _reindexed(model, manifest, tmp_path / "fresh.bin")
        parse_calls.clear()
        flags = ("--rule", "app", "--topk", "9")
        out = _query(capsys, copy, model, "ind004_v0.patf", *flags)
        assert parse_calls.calls() == ["ind004_v0.patf", "ind004_v1.patf"]
        assert out.splitlines()[2].split()[1:3] == ["newcomer", "ind004_v1"]
        assert out == _query(capsys, copy, fresh, "ind004_v0.patf", *flags)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _evaluate(capsys, bench, model, *flags):
    """(exit code, stdout, stderr, per-query CSV bytes) of one evaluate run."""
    capsys.readouterr()
    csv = bench / "out.csv"
    csv.unlink(missing_ok=True)
    code = main(["evaluate", "--manifest", str(bench / "manifest.csv"), "--vocab", str(model),
                 "--per-query-csv", str(csv), *flags])
    out, err = capsys.readouterr()
    return code, out, err, csv.read_bytes() if csv.exists() else b""


def _query_ids(bench):
    return [e.image_id for e in load_manifest(bench / "manifest.csv").with_role("query")]


class TestParallelEvaluate:
    """evaluate with two workers (the indexed benchmark's 8 split queries in
    two slices of 4) against one."""

    @pytest.mark.parametrize("protocol", ["split", "loo"])
    @pytest.mark.parametrize("shortlist", ["0", "3"])
    def test_same_bytes_as_one_worker(self, indexed, tmp_path, capsys, cpus, protocol,
                                      shortlist):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        flags = ("--protocol", protocol, "--shortlist", shortlist)
        forks = cpus(1)
        one = _evaluate(capsys, copy, model, *flags)
        assert forks == []
        assert_no_child_left()
        forks = cpus(2)
        two = _evaluate(capsys, copy, model, *flags)
        # Leave-one-out loads the query-role images, which the index lacks,
        # in one fork_map and ranks in a second.
        assert len(forks) == {"split": 1, "loo": 2}[protocol]
        assert_no_child_left()
        assert one[0] == 0 and one[3]
        assert two == one

    def test_malformed_query_in_second_slice(self, indexed, tmp_path, capsys, cpus):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        second = _query_ids(copy)[5]
        (copy / f"{second}.patf").write_text(f"PATF 1\n{second}\n4 1\n0 0 1 0 0 1 nan 0 0 0\n",
                                             encoding="utf-8")
        cpus(1)
        one = _evaluate(capsys, copy, model)
        forks = cpus(2)
        two = _evaluate(capsys, copy, model)
        assert len(forks) == 1
        assert_no_child_left()
        assert one[0] == 1 and one[2].startswith(f"error: {copy / second}.patf:4: ")
        assert two == one
        assert "Traceback" not in two[2]

    def _row_only_worker_reads(self, bench, model, capsys, row_reads, flags):
        """An index row that the worker process reads and this one does not."""
        assert _evaluate(capsys, bench, model, *flags)[0] == 0
        reads = row_reads.by_process()
        assert len(reads) == 2
        mine = set(reads.pop(str(os.getpid())))
        row_reads.clear()
        return next(image_id for image_id in next(iter(reads.values())) if image_id not in mine)

    def test_damaged_row_only_worker_reads(self, indexed, tmp_path, capsys, cpus, row_reads):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        flags = ("--shortlist", "1")
        cpus(2)
        row = self._row_only_worker_reads(copy, model, capsys, row_reads, flags)
        damaged = _damaged_row(model, tmp_path / "damaged.bin", row)
        cpus(1)
        one = _evaluate(capsys, copy, damaged, *flags)
        forks = cpus(2)
        two = _evaluate(capsys, copy, damaged, *flags)
        assert len(forks) == 1
        assert_no_child_left()
        assert one[0] == 1
        assert one[2].startswith(f"error: {damaged}: unreadable index row of '{row}'")
        assert "CRC" in one[2]
        assert two == one

    def test_parse_error_outranks_earlier_slice_row_error(self, indexed, tmp_path, capsys,
                                                          cpus, row_reads):
        # One process parses every query before it reads a row, so a bad
        # query file in the second slice is the error even when the first
        # slice's search reads a damaged row.
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        flags = ("--shortlist", "1")
        cpus(2)
        assert _evaluate(capsys, copy, model, *flags)[0] == 0
        first_read = row_reads.by_process()[str(os.getpid())][0]
        damaged = _damaged_row(model, tmp_path / "damaged.bin", first_read)
        second = _query_ids(copy)[6]
        (copy / f"{second}.patf").write_text("PATF 2\n", encoding="utf-8")
        cpus(1)
        one = _evaluate(capsys, copy, damaged, *flags)
        cpus(2)
        two = _evaluate(capsys, copy, damaged, *flags)
        assert_no_child_left()
        assert one[0] == 1 and one[2].startswith(f"error: {copy / second}.patf:1: bad header")
        assert two == one

    def test_worker_without_result(self, indexed, capsys, cpus, monkeypatch):
        bench, model = indexed
        parent, rank = os.getpid(), patreid.reid.rank_queries

        def rank_or_die(*args):
            if os.getpid() != parent:
                os._exit(3)
            return rank(*args)

        monkeypatch.setattr(patreid.reid, "rank_queries", rank_or_die)
        cpus(2)
        code, out, err, _ = _evaluate(capsys, bench, model)
        assert_no_child_left()
        assert code == 1 and out == ""
        assert err == "error: queries 5-8: worker ended without a result\n"

    def test_worker_rejects_replaced_model_file(self, indexed, tmp_path, cpus):
        bench, model = indexed
        copy = shutil.copy(model, tmp_path / "model.bin")
        manifest = load_manifest(bench / "manifest.csv")
        params = [patreid.reid.CombineParams(shortlist_size=0)]
        cpus(2)
        with load_vocabulary(copy) as vocabulary:
            # Same bytes, another file: the worker must not read rows from it.
            shutil.copy(model, tmp_path / "other.bin")
            os.replace(tmp_path / "other.bin", copy)
            with pytest.raises(patreid.vocab.VocabError,
                               match=f"{copy}: model file changed since it was loaded"):
                patreid.reid.evaluate(manifest, vocabulary, params)
        assert_no_child_left()

    @pytest.mark.parametrize("rule", ["exp", "app"])
    def test_query_never_forks(self, indexed, capsys, cpus, rule):
        bench, model = indexed
        forks = cpus(2)
        _query(capsys, bench, model, "ind003_v1.patf", "--rule", rule, "--shortlist", "0")
        assert forks == []

    def test_loo_loads_in_slices_then_ranks(self, indexed, capsys, cpus, parse_calls,
                                             embed_calls):
        # The pooled set's rows the index lacks (the query-role images) are
        # parsed and embedded in two contiguous slices before any is ranked.
        bench, model = indexed
        forks = cpus(2)
        assert _evaluate(capsys, bench, model, "--protocol", "loo")[0] == 0
        queries = _query_ids(bench)
        expected = [f"{q}.patf" for q in queries]
        assert len(forks) == 2
        assert_no_child_left()
        assert len(parse_calls.by_process()) == 2
        assert parse_calls.in_slices(expected) == expected
        assert embed_calls.in_slices(queries) == queries

    def test_loo_malformed_file_in_second_slice(self, indexed, tmp_path, capsys, cpus):
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        first, second = _query_ids(copy)[5], _query_ids(copy)[6]
        (copy / f"{first}.patf").write_text(f"PATF 1\n{first}\n4 1\n0 0 1 0 0 1 nan 0 0 0\n",
                                            encoding="utf-8")
        (copy / f"{second}.patf").write_text("PATF 2\n", encoding="utf-8")
        cpus(1)
        one = _evaluate(capsys, copy, model, "--protocol", "loo")
        cpus(2)
        two = _evaluate(capsys, copy, model, "--protocol", "loo")
        assert_no_child_left()
        assert one[0] == 1 and one[2].startswith(f"error: {copy / first}.patf:4: ")
        assert two == one


def _build_vocab(capsys, bench, out):
    """(exit code, stdout, stderr) of build-vocab with the indexed model's flags."""
    capsys.readouterr()
    code = main(["build-vocab", "--manifest", str(bench / "manifest.csv"), "--out", str(out),
                 "--gmm-k", "4", "--pca-dim", "16"])
    stdout, stderr = capsys.readouterr()
    return code, stdout, stderr


class TestParallelBuildVocab:
    """build-vocab parses the indexed benchmark's 8 database files in one
    contiguous slice per worker."""

    def test_same_bytes_for_any_worker_count(self, indexed, tmp_path, capsys, cpus, parse_calls):
        bench, model = indexed
        expected = [f"{e.image_id}.patf"
                    for e in load_manifest(bench / "manifest.csv").with_role("database")]
        for n in (1, 2, 3):
            forks = cpus(n)
            parse_calls.clear()
            out = tmp_path / f"model-{n}.bin"
            assert _build_vocab(capsys, bench, out)[0] == 0
            assert len(forks) == n - 1
            assert_no_child_left()
            assert len(parse_calls.by_process()) == n
            assert parse_calls.in_slices(expected) == expected
            assert out.read_bytes() == model.read_bytes()

    def test_first_damaged_file_in_manifest_order(self, indexed, tmp_path, capsys, cpus):
        bench, _ = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        ids = [e.image_id for e in load_manifest(copy / "manifest.csv").with_role("database")]
        # Rows 3 and 6 fall in slices 0 and 1 of two workers, 1 and 2 of three.
        first, second = ids[3], ids[6]
        (copy / f"{first}.patf").write_text(f"PATF 1\n{first}\n4 1\n0 0 1 0 0 1 nan 0 0 0\n",
                                            encoding="utf-8")
        (copy / f"{second}.patf").write_text("PATF 2\n", encoding="utf-8")
        outcomes = []
        for n in (1, 2, 3):
            cpus(n)
            outcomes.append(_build_vocab(capsys, copy, tmp_path / "v.bin"))
            assert_no_child_left()
        code, out, err = outcomes[0]
        assert code == 1 and out == "" and err.startswith(f"error: {copy / first}.patf:4: ")
        assert outcomes == [outcomes[0]] * 3
        assert not (tmp_path / "v.bin").exists()

    def test_worker_without_result(self, indexed, tmp_path, capsys, cpus, monkeypatch):
        bench, _ = indexed
        parent, load = os.getpid(), patreid.cli.load_entry_features

        def load_or_die(manifest, entry):
            if os.getpid() != parent:
                os._exit(3)
            return load(manifest, entry)

        monkeypatch.setattr(patreid.cli, "load_entry_features", load_or_die)
        cpus(2)
        code, out, err = _build_vocab(capsys, bench, tmp_path / "v.bin")
        assert_no_child_left()
        assert code == 1 and out == ""
        assert err == "error: database files 5-8: worker ended without a result\n"
        assert not (tmp_path / "v.bin").exists()


@pytest.mark.parametrize(
    "error",
    [patreid.ingest.PatfError("dir/a.patf", 7, "non-finite value"),
     patreid.ingest.ManifestError("m.csv: duplicate image_id 'a'"),
     patreid.vocab.VocabError("model.bin: unreadable index row of 'a'"),
     patreid.geometry.GeometryError("need at least 4 correspondences"),
     patreid.reid.ReidError("database is empty"),
     FileNotFoundError(2, "No such file or directory", "a.patf")],
    ids=lambda error: type(error).__name__,
)
def test_error_survives_pickle(error):
    # An evaluate worker sends its error back pickled; the error: line and
    # the exit code come from its type and str.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert copy.args == error.args and vars(copy) == vars(error)
    for name in ("path", "line_no", "errno", "strerror", "filename"):
        assert getattr(copy, name, None) == getattr(error, name, None)


class TestEvaluate:
    def test_grid_and_csv(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        csv_path = tmp_path / "per_query.csv"
        assert main([
            "evaluate", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--topk", "3",
            "--per-query-csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        for rule in ("appearance_only", "geometry_only", "polynomial", "exponential"):
            assert rule in out
        assert "top-1" in out and "top-3" in out
        assert csv_path.is_file()
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "rule,query_id,truth,rank_of_truth,d_L,n,omega,d_C"

    def test_two_runs_byte_identical_csv(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["evaluate", "--manifest", str(bench / "manifest.csv"),
                "--vocab", str(vocab), "--topk", "2"]
        assert main(args + ["--per-query-csv", str(a)]) == 0
        assert main(args + ["--per-query-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_topk_one_single_column(self, workspace, capsys):
        _, bench, vocab = workspace
        assert main([
            "evaluate", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--topk", "1",
        ]) == 0
        header_line = capsys.readouterr().out.splitlines()[0]
        assert "top-1" in header_line and "top-2" not in header_line

    def test_loo_protocol_pools_everything(self, workspace, capsys):
        _, bench, vocab = workspace
        assert main([
            "evaluate", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--protocol", "loo", "--topk", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "queries: 9" in out  # 3 individuals x 3 views, all pooled

    def test_feature_file_id_mismatch(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        patf = copy / "ind001_v1.patf"
        lines = patf.read_text(encoding="utf-8").splitlines()
        lines[1] = "renamed"
        patf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "evaluate", "--manifest", str(copy / "manifest.csv"), "--vocab", str(vocab),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'renamed'" in err and "'ind001_v1'" in err

    def test_manifest_row_with_extra_field(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = copy / "manifest.csv"
        text = manifest.read_text(encoding="utf-8")
        text = text.replace("ind000_v0.patf", "ind000_v0.patf,EXTRA")
        manifest.write_text(text, encoding="utf-8")
        code = main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'ind000_v0' has more fields" in err

    @pytest.mark.parametrize(
        "row, message",
        [("ind000_v0,ind000,,database", "row of 'ind000_v0' has fewer fields than the header"),
         ("ind000_v0,ind000,,database,", "empty feature_path for 'ind000_v0'")],
        ids=["short_row", "empty_path"],
    )
    def test_manifest_row_short(self, workspace, tmp_path, capsys, row, message):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = copy / "manifest.csv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines = [row if line.startswith("ind000_v0,") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {manifest}: {message}\n"

    def test_split_all_queries_excluded(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = copy / "manifest.csv"
        rows = manifest.read_text(encoding="utf-8").splitlines()
        rows = [r.replace(",ind", ",stranger", 1) if ",query," in r else r for r in rows]
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "excluded" in err

    def test_invalid_max_desc_dist(self, workspace, capsys):
        _, bench, vocab = workspace
        code = main([
            "evaluate", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--max-desc-dist", "3.0",
        ])
        assert code == 2
        assert "--max-desc-dist" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["query", "evaluate"])
@pytest.mark.parametrize(
    "flag, value",
    [("--a", "nan"), ("--a", "inf"), ("--inlier-thresh", "nan"),
     ("--inlier-thresh", "inf"), ("--topk", "0"), ("--topk", "-3")],
)
def test_invalid_value_names_flag(workspace, capsys, command, flag, value):
    _, bench, vocab = workspace
    args = [command, "--manifest", str(bench / "manifest.csv"), "--vocab", str(vocab)]
    if command == "query":
        args += ["--features", str(bench / "ind000_v1.patf"), "--rule", "poly"]
    assert main(args + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("command", ["query", "evaluate"])
def test_seed_flag_removed(workspace, capsys, command):
    # Verification samples nothing, so only synth and build-vocab take --seed.
    _, bench, vocab = workspace
    args = [command, "--manifest", str(bench / "manifest.csv"), "--vocab", str(vocab)]
    if command == "query":
        args += ["--features", str(bench / "ind000_v1.patf")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
