"""Command-line interface tests (exit codes, outputs, determinism)."""

import os
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    join_model_file,
    read_feature_rows,
    split_model_file,
    write_model_file,
    write_text_feature_file,
)

import patreid.cli
import patreid.encode
import patreid.geometry
import patreid.ingest
import patreid.reid
import patreid.synth
import patreid.vocab
from patreid.cli import main
from patreid.encode import TrainingParams, cosine_distance, embed_image
from patreid.geometry import GeometryParams
from patreid.ingest import (
    ImageFeatures,
    load_entry_features,
    load_manifest,
    parse_feature_file,
    write_feature_file,
)
from patreid.reid import CombineParams
from patreid.synth import SynthConfig
from patreid.vocab import DatabaseIndex, load_vocabulary


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

    def test_points_that_do_not_fit_name_the_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(patreid.synth, "MIN_SEPARATION", 0.5)
        code = main(["synth", "--individuals", "1", "--views", "1", "--points", "12",
                     "--out", str(tmp_path / "bench")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --points 12 do not fit 0.5 apart") and err.count("\n") == 1
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

    def test_peak_memory_per_descriptor_row(self, tmp_path):
        # build-vocab writes each database image's features into the model
        # file as it parses them and keeps none: training reads them back
        # into one stack, which fit_pca centers in place.  At its peak it
        # holds that stack (128 float64 values per descriptor row) and the
        # projections (pca_dim 64), 192 a row; with every parsed image kept
        # as well it was 343.  This is CI's "Training peak memory" data.
        bench, model = tmp_path / "bench", tmp_path / "model.bin"
        assert main(["synth", "--individuals", "60", "--views", "2", "--out", str(bench)]) == 0
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                         "--out", str(model)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        with load_vocabulary(model) as vocabulary:
            rows = int(vocabulary.index.feature_counts.sum())
        assert peak / (8 * rows) < 260

    @pytest.mark.parametrize("damage", ["parse", "train"])
    def test_error_leaves_no_file(self, workspace, tmp_path, capsys, damage):
        # A parse error comes once some rows are in the partial model file,
        # and a training error once all are: either way it is removed.
        _, bench, _ = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        flags = ["--pca-dim", "300"]
        if damage == "parse":
            (copy / "ind002_v0.patf").write_text("PATF 2\n", encoding="utf-8")
            flags = []
        out = tmp_path / "out"
        out.mkdir()
        code = main(["build-vocab", "--manifest", str(copy / "manifest.csv"),
                     "--out", str(out / "v.bin"), *flags])
        assert code == {"parse": 1, "train": 2}[damage]
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.iterdir()) == []

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
        "flag, value, message",
        [("--pca-dim", "300", "--pca-dim must be in [1, 128], the descriptor width, got 300"),
         ("--kpca-dim", "40", "--kpca-dim must be in [0, 2], below the image count, got 40"),
         ("--gmm-k", "4096", "--gmm-k is too large: need at least 4096 descriptors, got ")],
    )
    def test_data_bound_names_flag(self, workspace, tmp_path, capsys, flag, value, message):
        # The bound depends on the database: 3 images of 128-dim descriptors.
        _, bench, _ = workspace
        code = main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                     "--out", str(tmp_path / "v.bin"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot train the vocabulary: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "v.bin").exists()

    def test_out_directory_checked_first(self, workspace, tmp_path, capsys, monkeypatch):
        # Checked before any file is read, so a build is not run to fail at its end.
        _, bench, _ = workspace

        def load_manifest(path):
            raise AssertionError(f"{path} read before --out was checked")

        monkeypatch.setattr(patreid.cli, "load_manifest", load_manifest)
        code = main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                     "--out", str(tmp_path / "missing" / "v.bin")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out directory not found: {tmp_path / 'missing'}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "out, what",
        [("bench/manifest.csv", "the manifest"),
         ("bench/ind001_v0.patf", "the feature file of 'ind001_v0'"),
         ("bench/ind001_v1.patf", "the feature file of 'ind001_v1'"),
         ("linked/manifest.csv", "the manifest")],
        ids=["manifest", "database-file", "query-file", "through-linked-directory"],
    )
    def test_out_that_is_an_input_refused(self, workspace, tmp_path, capsys, out, what):
        _, bench, _ = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        (tmp_path / "linked").symlink_to(copy)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        out = str(tmp_path / out)
        code = main(["build-vocab", "--manifest", str(copy / "manifest.csv"), "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} is {what}, which the model file would replace\n"
        )
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    def test_out_symlink_to_an_input_replaced(self, workspace, tmp_path):
        # The model file is renamed over --out: a symlink there is replaced,
        # not written through, so the manifest it names is not overwritten.
        _, bench, _ = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = (copy / "manifest.csv").read_bytes()
        link = tmp_path / "v.bin"
        link.symlink_to(copy / "manifest.csv")
        assert main(["build-vocab", "--manifest", str(copy / "manifest.csv"),
                     "--out", str(link)]) == 0
        assert not link.is_symlink()
        assert (copy / "manifest.csv").read_bytes() == manifest

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


def _header_changed(change):
    """A change of a model file's bytes: its header replaced by change(header),
    a dict or the bytes written as the header."""

    def damage(data):
        rows, arrays, header = split_model_file(data)
        return join_model_file(rows, arrays, change(header))

    return damage


def _array_flipped(name):
    """A change of a model file's bytes: one byte of array name flipped."""

    def damage(data):
        rows, arrays, header = split_model_file(data)
        flipped = bytearray(arrays[name])
        flipped[len(flipped) // 2] ^= 0x40
        return join_model_file(rows, {**arrays, name: bytes(flipped)}, header)

    return damage


def _header_byte_changed(key):
    """A change of a model file's bytes: the byte after the last occurrence
    of key, in the header, XORed with 1, with the header's length and CRC-32
    kept."""

    def damage(data):
        at = data.rindex(key) + len(key)
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: d[:-20] + (2**64 - 1).to_bytes(8, "little") + d[-12:],
         "header of 18446744073709551615 bytes in a file of "),
        (lambda d: d[:-20] + len(d).to_bytes(8, "little") + d[-12:], "header of .* bytes in a file"),
        (lambda d: d[-19:], "not a model file of version 9 "),
        (_header_changed(lambda h: b'["version", 9]'), "header is not a JSON object"),
        (_header_changed(lambda h: b"[" * 100_000 + b"]" * 100_000),
         "unreadable header: maximum recursion depth exceeded"),
        (_header_changed(lambda h: {**h, "dims": {**h["dims"], "m": 1 << 40}}),
         "[0-9]+ bytes precede the header, whose dims need [0-9]+ of arrays"),
        *[(_array_flipped(name), f"unreadable array '{name}': bad CRC-32")
          for name in patreid.vocab._LAYOUT],
        # alpha 0.5 read as 0.4, and image id ind000_v0 as hnd000_v0.
        (_header_byte_changed(b'"alpha": 0.'), "unreadable header: bad CRC-32"),
        (_header_byte_changed(b'"index_image_ids": ["'), "unreadable header: bad CRC-32"),
    ],
    ids=["header_length_max", "header_past_end", "shorter_than_trailer", "header_not_object",
         "header_nested", "dims_past_end", *(f"flipped_{n}" for n in patreid.vocab._LAYOUT),
         "header_alpha_digit", "header_image_id_char"],
)
def test_damaged_model_file_one_error_line(workspace, tmp_path, capsys, damage, message):
    # Each of these is a traceback (OverflowError, struct.error, MemoryError,
    # RecursionError) or an unnamed array for a reader that trusts the file.
    _, bench, model = workspace
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(damage(model.read_bytes()))
    code = main(["query", "--manifest", str(bench / "manifest.csv"), "--vocab", str(damaged),
                 "--features", str(bench / "ind000_v1.patf")])
    err = capsys.readouterr().err
    assert code == 1
    assert re.match(f"error: {re.escape(str(damaged))}: {message}", err)
    assert err.count("\n") == 1


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

    def test_unlabeled_database_row(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = copy / "manifest.csv"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("ind001_v0,ind001,", "ind001_v0,,"), encoding="utf-8")
        capsys.readouterr()
        code = main(["query", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--features", str(copy / "ind000_v1.patf")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: database image 'ind001_v0' has no individual_id\n"
        assert captured.out == ""

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
        write_model_file(vocabulary, out)
    return out


def _query(capsys, bench, model, features, *flags):
    capsys.readouterr()
    assert main(["query", "--manifest", str(bench / "manifest.csv"), "--vocab", str(model),
                 "--features", str(bench / features), *flags]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("shortlist", ["0", "3"])
@pytest.mark.parametrize("rule", ["app", "geom", "poly", "exp"])
def test_query_agrees_with_evaluate(indexed, tmp_path, capsys, rule, shortlist):
    # evaluate on the database plus one query ranks that query as query does:
    # the same first row (d_L, n, omega, d_C, as query prints them) and the
    # same rank of its individual.  The CSV names no database image, so the
    # first row is matched by its values.
    bench, model = indexed
    query_id, truth = "ind003_v1", "ind003"
    lines = (bench / "manifest.csv").read_text(encoding="utf-8").splitlines()
    kept = [lines[0]] + [
        f"{row.rsplit(',', 1)[0]},{bench / row.rsplit(',', 1)[1]}"
        for row in lines[1:] if ",database," in row or row.startswith(f"{query_id},")
    ]
    manifest = tmp_path / "one_query.csv"
    manifest.write_text("\n".join(kept) + "\n", encoding="utf-8")
    per_query = tmp_path / "per_query.csv"
    flags = ["--manifest", str(manifest), "--vocab", str(model), "--shortlist", shortlist]
    assert main(["evaluate", *flags, "--per-query-csv", str(per_query)]) == 0
    capsys.readouterr()
    assert main(["query", *flags, "--features", str(bench / f"{query_id}.patf"),
                 "--rule", rule, "--topk", "8"]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()]

    full_rule = patreid.cli.RULE_TOKENS[rule]
    (row,) = [r.split(",") for r in per_query.read_text(encoding="utf-8").splitlines()
              if r.startswith(f"{full_rule},{query_id},")]
    _, _, csv_truth, rank, d_l, n, omega, d_c = row
    assert table[0][0] == "rank" and len(table) == 9
    assert csv_truth == truth
    assert table[1][3:] == [f"{float(d_l):.6f}", n, f"{float(omega):.4f}", f"{float(d_c):.6g}"]
    assert [r[1] for r in table[1:]].index(truth) + 1 == int(rank)


def _similarity_mapped(source, target, rng):
    """Write PATF file source to target with its frames mapped by one random
    similarity: a rotation in [0, 2 pi), a scale in [0.5, 3] and a shift in
    [-50, 50] per axis, applied to each center and each 2x2 frame.

    Only the frames change.  The descriptors are written as stored, not as
    parsed: parsing re-normalizes them, and their last bits move d_L.
    """
    angle, scale = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.5, 3.0)
    similarity = scale * np.array([[np.cos(angle), -np.sin(angle)],
                                   [np.sin(angle), np.cos(angle)]])
    shift = rng.uniform(-50.0, 50.0, 2)
    stored = read_feature_rows(source)
    frames = stored.frames.copy()
    for row in frames:
        row[:2] = similarity @ row[:2] + shift
        row[2:] = (similarity @ row[2:].reshape(2, 2)).ravel()
    write_feature_file(ImageFeatures(stored.image_id, frames, stored.descriptors), target)


@pytest.mark.parametrize("shortlist", ["0", "3"])
@pytest.mark.parametrize("seed", [3, 5])
def test_evaluate_invariant_to_query_similarity(tmp_path, capsys, seed, shortlist):
    # Verification compares frames in normalized coordinates, so moving,
    # turning and scaling a query image changes no d_L, n or omega.
    bench, model, moved = tmp_path / "bench", tmp_path / "model.bin", tmp_path / "moved"
    assert main(["synth", "--seed", str(seed), "--individuals", "4", "--views", "3",
                 "--noise", "0.2", "--dropout", "0.4", "--clutter", "0.5",
                 "--out", str(bench)]) == 0
    assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"), "--out", str(model),
                 "--gmm-k", "4", "--pca-dim", "16"]) == 0
    shutil.copytree(bench, moved)
    rng = np.random.default_rng(seed)
    queries = load_manifest(bench / "manifest.csv").with_role("query")
    for entry in queries:
        _similarity_mapped(bench / entry.feature_path, moved / entry.feature_path, rng)
        assert (moved / entry.feature_path).read_bytes() != (bench / entry.feature_path).read_bytes()
    csvs = []
    for root in (bench, moved):
        assert main(["evaluate", "--manifest", str(root / "manifest.csv"), "--vocab", str(model),
                     "--shortlist", shortlist, "--per-query-csv", str(root / "per_query.csv")]) == 0
        csvs.append((root / "per_query.csv").read_bytes())
    assert csvs[0] == csvs[1]
    verified = [row.split(",") for row in csvs[0].decode().splitlines()
                if row.startswith("geometry_only,")]
    assert len(verified) == len(queries) and all(int(row[5]) > 0 for row in verified)


def _version_copy(bench, out, to_text):
    """A copy of bench in which each PATF file that to_text(index, name)
    picks is rewritten as PATF 1 text holding the same stored values."""
    shutil.copytree(bench, out)
    for i, patf in enumerate(sorted(out.glob("*.patf"))):
        if to_text(i, patf.name):
            write_text_feature_file(read_feature_rows(patf), patf)
    return out


def test_text_copies_give_the_same_outputs(tmp_path, capsys):
    # PATF 2 files, PATF 1 copies of them, and a mix of both give the same
    # model file, split and leave-one-out CSVs and stdout, and query table.
    bench = tmp_path / "bench"
    assert main(["synth", "--seed", "21", "--individuals", "4", "--views", "3",
                 "--noise", "0.2", "--clutter", "0.5", "--out", str(bench)]) == 0
    forms = {
        "binary": bench,
        "text": _version_copy(bench, tmp_path / "text", lambda i, name: True),
        "mixed": _version_copy(bench, tmp_path / "mixed", lambda i, name: i % 2),
    }
    headers = {form: {patf.read_bytes()[:7] for patf in root.glob("*.patf")}
               for form, root in forms.items()}
    assert headers == {"binary": {b"PATF 2\n"}, "text": {b"PATF 1\n"},
                       "mixed": {b"PATF 1\n", b"PATF 2\n"}}
    outputs = {}
    for form, root in forms.items():
        model, csv = tmp_path / f"{form}.bin", tmp_path / "out.csv"
        assert main(["build-vocab", "--manifest", str(root / "manifest.csv"), "--out", str(model),
                     "--gmm-k", "4", "--pca-dim", "16"]) == 0
        got = [model.read_bytes()]
        for protocol in ("split", "loo"):
            capsys.readouterr()
            assert main(["evaluate", "--manifest", str(root / "manifest.csv"),
                         "--vocab", str(model), "--protocol", protocol, "--shortlist", "3",
                         "--per-query-csv", str(csv)]) == 0
            got += [capsys.readouterr().out, csv.read_bytes()]
        got.append(_query(capsys, root, model, "ind002_v1.patf", "--topk", "4"))
        outputs[form] = got
    assert outputs["text"] == outputs["binary"]
    assert outputs["mixed"] == outputs["binary"]


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
    monkeypatch.setattr(patreid.cli, "embed_image", counted)
    return spy


@pytest.fixture
def row_reads(monkeypatch, tmp_path):
    """Image ids of every index row read from a model file."""
    spy = Spy(tmp_path / "row_reads.log")
    read = patreid.vocab.read_index_row

    def counted(fh, path, image_id, *row):
        spy.record(image_id)
        return read(fh, path, image_id, *row)

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
    stored = read_feature_rows(bench / "ind002_v0.patf")
    write_feature_file(ImageFeatures("ind001_v0", stored.frames, stored.descriptors),
                       bench / "ind001_v0.patf")


def _damaged_row(model, out, image_id):
    """model, or a copy of it at out, with one byte flipped in image_id's
    index row."""
    with load_vocabulary(model) as vocabulary:
        features = vocabulary.read_row(vocabulary.index.image_ids.index(image_id))
    data = bytearray(model.read_bytes())
    data[data.index(features.frames.tobytes() + features.descriptors.tobytes()) + 5] ^= 0x40
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

    def test_load_images_takes_rows_in_manifest_order(self, indexed, parse_calls, row_reads):
        bench, model = indexed
        manifest = load_manifest(bench / "manifest.csv")
        db = manifest.with_role("database")
        order = np.random.default_rng(0).permutation(len(db))
        assert (order != np.arange(len(db))).any()
        entries = [db[k] for k in order]
        newcomer = replace(manifest.with_role("query")[0], role="database")
        entries.insert(len(entries) // 2, newcomer)
        with load_vocabulary(model) as vocabulary:
            images = patreid.reid.load_images(manifest, entries, vocabulary)
            # Only the row the index lacks is parsed; indexed rows are not read.
            assert parse_calls.calls() == [f"{newcomer.image_id}.patf"]
            assert row_reads.calls() == []
            assert images.image_ids == [e.image_id for e in entries]
            assert images.individual_ids == [e.individual_id for e in entries]
            assert images.embeddings.shape == (len(entries), vocabulary.kpca.out_dim)
            for i, e in enumerate(entries):
                features = images.features(i)
                if e is newcomer:
                    parsed = load_entry_features(manifest, e)
                    expected = embed_image(parsed, vocabulary)
                else:
                    k = vocabulary.index.image_ids.index(e.image_id)
                    parsed, expected = vocabulary.read_row(k), vocabulary.index.embeddings[k]
                assert images.embeddings[i].tobytes() == expected.tobytes()
                assert features.image_id == e.image_id
                assert features.frames.tobytes() == parsed.frames.tobytes()
                assert features.descriptors.tobytes() == parsed.descriptors.tobytes()


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
        # Leave-one-out parses the query-role images, which the index lacks,
        # in this process: under either protocol only the ranking forks.
        assert len(forks) == 1
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

    @staticmethod
    def _after_load(monkeypatch, change):
        """Make the CLI call change(path) on its model file just after loading it."""
        load = patreid.cli.load_vocabulary

        def load_then_change(path):
            vocabulary = load(path)
            change(path)
            return vocabulary

        monkeypatch.setattr(patreid.cli, "load_vocabulary", load_then_change)

    def test_damaged_row_only_worker_reads(self, indexed, tmp_path, capsys, cpus, row_reads,
                                           monkeypatch):
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
        # The same byte flipped in place after the file is loaded fails the
        # same read with the same line, whichever process reads the row.
        at = next(i for i, pair in enumerate(zip(model.read_bytes(), damaged.read_bytes()))
                  if pair[0] != pair[1])

        def flip(path):
            with open(path, "r+b") as fh:
                fh.seek(at)
                byte = fh.read(1)[0]
                fh.seek(at)
                fh.write(bytes([byte ^ 0x40]))

        self._after_load(monkeypatch, flip)
        for n in (1, 2):
            shutil.copy(model, damaged)
            cpus(n)
            assert _evaluate(capsys, copy, damaged, *flags) == one
        assert_no_child_left()

    def test_worker_reads_the_loaded_file(self, indexed, tmp_path, capsys, cpus, row_reads,
                                          monkeypatch):
        # Workers read rows through the descriptor they inherit, so a file
        # renamed over the path after the load is not read, even one whose
        # copy of a row that only the worker reads is damaged.
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        flags = ("--shortlist", "1")
        cpus(2)
        row = self._row_only_worker_reads(copy, model, capsys, row_reads, flags)
        loaded = shutil.copy(model, tmp_path / "model.bin")
        cpus(1)
        one = _evaluate(capsys, copy, loaded, *flags)
        damaged = _damaged_row(model, tmp_path / "damaged.bin", row)
        self._after_load(monkeypatch, lambda path: os.replace(damaged, path))
        forks = cpus(2)
        two = _evaluate(capsys, copy, loaded, *flags)
        assert len(forks) == 1
        assert_no_child_left()
        assert one[0] == 0 and one[3]
        assert two == one
        assert loaded.read_bytes() != model.read_bytes()  # the rename happened

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
        (copy / f"{second}.patf").write_text("PATF 3\n", encoding="utf-8")
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

    @pytest.mark.parametrize("command", ["exp", "app", "build-vocab"])
    def test_query_never_forks(self, indexed, tmp_path, capsys, cpus, command):
        # query (under either rule) and build-vocab run in one process.
        bench, model = indexed
        forks = cpus(2)
        if command == "build-vocab":
            assert _build_vocab(capsys, bench, tmp_path / "v.bin")[0] == 0
        else:
            _query(capsys, bench, model, "ind003_v1.patf", "--rule", command, "--shortlist", "0")
        assert forks == []

    def test_loo_loads_here_then_ranks_in_slices(self, indexed, capsys, cpus, monkeypatch,
                                                 parse_calls, embed_calls):
        # The pooled set's rows the index lacks (the query-role images) are
        # parsed and embedded in this process, each once and in manifest
        # order, before the one fork that ranks.
        bench, model = indexed
        forks, fork = cpus(2), os.fork

        def fork_after_parsing():
            parse_calls.record("fork")
            return fork()

        monkeypatch.setattr(os, "fork", fork_after_parsing)
        assert _evaluate(capsys, bench, model, "--protocol", "loo")[0] == 0
        queries = _query_ids(bench)
        assert len(forks) == 1
        assert_no_child_left()
        here = str(os.getpid())
        assert parse_calls.by_process() == {here: [f"{q}.patf" for q in queries] + ["fork"]}
        assert embed_calls.by_process() == {here: queries}

    def test_loo_embeds_each_file_before_the_next_is_parsed(self, indexed, tmp_path, capsys,
                                                           cpus):
        # A query-role file of another descriptor width, then a malformed
        # one: the first fails its embedding before the second is parsed, at
        # any CPU count.
        bench, model = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        assert main(["synth", "--seed", "5", "--individuals", "8", "--views", "2",
                     "--descriptor-dim", "64", "--out", str(tmp_path / "narrow")]) == 0
        narrow, malformed = _query_ids(copy)[2:4]
        shutil.copy(tmp_path / "narrow" / f"{narrow}.patf", copy / f"{narrow}.patf")
        (copy / f"{malformed}.patf").write_text("PATF 3\n", encoding="utf-8")
        outcomes = []
        for n in (1, 2):
            cpus(n)
            outcomes.append(_evaluate(capsys, copy, model, "--protocol", "loo"))
            assert_no_child_left()
        assert outcomes[0] == (1, "", f"error: image '{narrow}' has 64-dim descriptors, "
                                      "expected 128 as the model has\n", b"")
        assert outcomes[1] == outcomes[0]

    def test_loo_first_malformed_file_in_manifest_order(self, indexed, tmp_path, capsys, cpus):
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


class TestBuildVocabParsesInOneProcess:
    """build-vocab parses the indexed benchmark's 8 database files in this
    process, in manifest order, whatever number of CPUs it may use."""

    def test_same_bytes_for_any_cpu_count(self, indexed, tmp_path, capsys, cpus, parse_calls):
        bench, model = indexed
        expected = [f"{e.image_id}.patf"
                    for e in load_manifest(bench / "manifest.csv").with_role("database")]
        for n in (1, 2, 3):
            forks = cpus(n)
            parse_calls.clear()
            out = tmp_path / f"model-{n}.bin"
            assert _build_vocab(capsys, bench, out)[0] == 0
            assert forks == []
            assert parse_calls.by_process() == {str(os.getpid()): expected}
            assert out.read_bytes() == model.read_bytes()

    def test_first_damaged_file_in_manifest_order(self, indexed, tmp_path, capsys, cpus):
        bench, _ = indexed
        copy = shutil.copytree(bench, tmp_path / "bench")
        ids = [e.image_id for e in load_manifest(copy / "manifest.csv").with_role("database")]
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
        stored = read_feature_rows(patf)
        write_feature_file(ImageFeatures("renamed", stored.frames, stored.descriptors), patf)
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

    def test_manifest_with_bom(self, workspace, tmp_path, capsys):
        # Spreadsheet tools save CSV as UTF-8 with a byte-order mark.
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        bom = copy / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (copy / "manifest.csv").read_bytes())
        outputs, csv = [], tmp_path / "out.csv"
        for manifest in (copy / "manifest.csv", bom):
            assert main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab),
                         "--per-query-csv", str(csv)]) == 0
            outputs.append((capsys.readouterr().out, csv.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [("query",), ("evaluate", "--protocol", "split"), ("evaluate", "--protocol", "loo")],
        ids=["query", "evaluate-split", "evaluate-loo"],
    )
    def test_query_of_other_width_named(self, workspace, tmp_path, capsys, argv):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        assert main(["synth", "--seed", "13", "--individuals", "3", "--views", "3",
                     "--descriptor-dim", "64", "--out", str(tmp_path / "narrow")]) == 0
        shutil.copy(tmp_path / "narrow" / "ind001_v1.patf", copy / "ind001_v1.patf")
        command, *flags = argv
        if command == "query":
            flags = ["--features", str(copy / "ind001_v1.patf")]
        capsys.readouterr()
        code = main([command, "--manifest", str(copy / "manifest.csv"), "--vocab", str(vocab),
                     *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: image 'ind001_v1' has 64-dim descriptors, "
                       "expected 128 as the model has\n")

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

    @pytest.mark.parametrize(
        "command, message",
        [("query", "no database entries in manifest"),
         ("evaluate", "manifest has no database entries")],
    )
    def test_manifest_without_database_rows(self, workspace, tmp_path, capsys, command,
                                            message):
        _, bench, vocab = workspace
        manifest = tmp_path / "manifest.csv"
        text = (bench / "manifest.csv").read_text(encoding="utf-8")
        manifest.write_text(text.replace(",database,", ",query,"), encoding="utf-8")
        capsys.readouterr()
        argv = [command, "--manifest", str(manifest), "--vocab", str(vocab)]
        if command == "query":
            argv += ["--features", str(bench / "ind000_v1.patf")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_excluded_lines_match_csv(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        manifest = copy / "manifest.csv"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("ind002_v2,ind002,", "ind002_v2,,"), encoding="utf-8")
        csv_path = tmp_path / "per_query.csv"
        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--per-query-csv", str(csv_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-3:] == ["queries: 5   excluded: 1", "  excluded ind002_v2: unlabeled",
                            str(csv_path)]
        rows = [line for line in csv_path.read_text(encoding="utf-8").splitlines()
                if line.startswith("# excluded,")]
        assert rows == ["# excluded,ind002_v2,unlabeled"]

    def test_unwritable_csv_prints_no_table(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        capsys.readouterr()
        code = main(["evaluate", "--manifest", str(bench / "manifest.csv"), "--vocab", str(vocab),
                     "--per-query-csv", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("link", ["same-path", "symlink", "hard-link"])
    @pytest.mark.parametrize("flag", ["--manifest", "--vocab"])
    def test_csv_that_is_an_input_refused(self, workspace, tmp_path, capsys, flag, link):
        # The CSV is written through links, so each way of naming an input's
        # file is refused before anything is written.
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        model = shutil.copy(vocab, tmp_path / "model.bin")
        target = copy / "manifest.csv" if flag == "--manifest" else model
        csv = {"same-path": target, "symlink": tmp_path / "s.csv", "hard-link": tmp_path / "h.csv"}
        csv = csv[link]
        if link == "symlink":
            csv.symlink_to(target)
        elif link == "hard-link":
            os.link(target, csv)
        before = target.read_bytes()
        capsys.readouterr()
        code = main(["evaluate", "--manifest", str(copy / "manifest.csv"), "--vocab", str(model),
                     "--per-query-csv", str(csv)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: --per-query-csv {csv} is the {flag} file, which it would overwrite\n"
        )
        assert target.read_bytes() == before

    @pytest.mark.parametrize("link", ["same-path", "symlink"])
    @pytest.mark.parametrize("image_id", ["ind000_v1", "ind001_v0"], ids=["query", "database"])
    def test_csv_that_is_a_feature_file_refused(
        self, workspace, tmp_path, capsys, monkeypatch, image_id, link
    ):
        # Any manifest entry's PATF file is an input too: refused before the
        # model file or any feature file is read, and left as it was.
        _, bench, vocab = workspace
        copy = shutil.copytree(bench, tmp_path / "bench")
        target = copy / f"{image_id}.patf"
        csv = target if link == "same-path" else tmp_path / "s.csv"
        if link == "symlink":
            csv.symlink_to(target)
        before = target.read_bytes()

        def load_vocabulary(path):
            raise AssertionError(f"{path} read before --per-query-csv was checked")

        monkeypatch.setattr(patreid.cli, "load_vocabulary", load_vocabulary)
        capsys.readouterr()
        code = main(["evaluate", "--manifest", str(copy / "manifest.csv"), "--vocab", str(vocab),
                     "--per-query-csv", str(csv)])
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: --per-query-csv {csv} is the feature file of {image_id!r}, "
            "which it would overwrite\n"
        ))
        assert target.read_bytes() == before

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


class TestLibraryDefaults:
    """A subcommand run with only its required flags hands the library the
    parameter objects' own defaults."""

    @pytest.fixture
    def spies(self, monkeypatch):
        seen = {}

        def spy(name, record, module=patreid.cli):
            real = getattr(module, name)

            def spied(*args, **kwargs):
                seen[name] = record(*args, **kwargs)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spied)

        spy("generate_benchmark", lambda config, out: config, patreid.synth)
        spy("train_vocabulary", lambda sets, params=TrainingParams(): params)
        spy("evaluate", lambda manifest, vocabulary, params, protocol, geometry_params:
            (params, geometry_params))
        spy("rank_queries", lambda db, queries, rules, params, geometry_params:
            (rules, params, geometry_params))
        return seen

    def test_synth(self, tmp_path, spies):
        out = str(tmp_path / "bench")
        assert main(["synth", "--individuals", "2", "--views", "2", "--out", out]) == 0
        assert spies["generate_benchmark"] == SynthConfig(
            seed=0, n_individuals=2, views_per_individual=2
        )

    def test_build_vocab(self, workspace, tmp_path, spies):
        _, bench, _ = workspace
        assert main(["build-vocab", "--manifest", str(bench / "manifest.csv"),
                     "--out", str(tmp_path / "v.bin")]) == 0
        assert spies["train_vocabulary"] == TrainingParams()

    def test_query(self, workspace, spies):
        _, bench, vocab = workspace
        assert main(["query", "--manifest", str(bench / "manifest.csv"), "--vocab", str(vocab),
                     "--features", str(bench / "ind000_v1.patf")]) == 0
        assert spies["rank_queries"] == (["exponential"], CombineParams(), GeometryParams())

    def test_evaluate(self, workspace, spies):
        _, bench, vocab = workspace
        assert main(["evaluate", "--manifest", str(bench / "manifest.csv"),
                     "--vocab", str(vocab)]) == 0
        assert spies["evaluate"] == (CombineParams(), GeometryParams())


# argparse's layout changes between Python versions: 3.10's appends
# "(default: True)" to a BooleanOptionalAction's help, and 3.13's wraps usage
# lines differently.  The golden text is the layout of 3.11 and 3.12.
@pytest.mark.skipif(not (3, 11) <= sys.version_info[:2] <= (3, 12),
                    reason="the golden --help text is argparse's layout on Python 3.11-3.12")
def test_help_text_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for command in ([], ["synth"], ["build-vocab"], ["query"], ["evaluate"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert "".join(texts) == (Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")


_QUERY = ["query", "--manifest", "m.csv", "--vocab", "v.bin", "--features", "q.patf"]


# main builds only the subparser that argv[0] names; each of these must be
# answered byte for byte as the parser of every subcommand answers it.  A
# subparser's errors print its usage line, which names each of its arguments.
@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["querx"],
        ["query", "--manifest", "m.csv", "--features", "q.patf"],
        _QUERY + ["--rule", "bad"],
        _QUERY + ["--topk", "x"],
        _QUERY + ["--seed", "0"],  # reported with the top-level usage line
        ["evaluate", "--manifest", "m.csv", "--vocab", "v.bin", "--protocol", "foo"],
        ["synth", "--individuals", "2", "--out", "bench"],
        ["build-vocab", "--manifest", "m.csv", "--out", "v.bin", "--gmm-k", "x"],
    ],
    ids=["none", "help", "typo", "query-no-vocab", "query-rule", "query-topk",
         "query-unrecognized", "evaluate-protocol", "synth-no-views", "build-vocab-gmm-k"],
)
def test_one_subparser_answers_as_all(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def answer(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    assert answer(main) == answer(patreid.cli.build_parser().parse_args)


def test_import_loads_no_synth(tmp_path):
    # Only synth uses the synthetic benchmark's code and its hashlib.
    src = str(Path(patreid.cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "import patreid.cli\n"
        "for command in ('build-vocab', 'query', 'evaluate'):\n"
        "    with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "        patreid.cli.main([command, '--help'])\n"
        "print(sorted({'patreid.synth', '_hashlib'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


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
