"""Command-line interface tests (exit codes, outputs, determinism)."""

import numpy as np
import pytest

from patreid.cli import main
from patreid.ingest import load_manifest


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

    def test_invalid_dropout_names_flag(self, tmp_path, capsys):
        code = main([
            "synth", "--seed", "1", "--individuals", "2", "--views", "2",
            "--dropout", "1.5", "--out", str(tmp_path / "bench"),
        ])
        assert code == 2
        assert "--dropout" in capsys.readouterr().err


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
        assert "insufficient data" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        code = main([
            "build-vocab", "--manifest", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "v.txt"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestEncode:
    def test_writes_stores(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        out = tmp_path / "emb"
        assert main([
            "encode", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(vocab), "--out", str(out),
        ]) == 0
        assert (out / "database.patemb").is_file()
        assert (out / "query.patemb").is_file()

    def test_missing_vocab(self, workspace, tmp_path, capsys):
        _, bench, _ = workspace
        code = main([
            "encode", "--manifest", str(bench / "manifest.csv"),
            "--vocab", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "emb"),
        ])
        assert code == 2


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

    def test_embedding_store_shortcut_matches(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        emb = tmp_path / "emb"
        main(["encode", "--manifest", str(bench / "manifest.csv"),
              "--vocab", str(vocab), "--out", str(emb)])
        capsys.readouterr()
        args = ["query", "--manifest", str(bench / "manifest.csv"),
                "--vocab", str(vocab), "--features", str(bench / "ind002_v1.patf")]
        assert main(args) == 0
        direct = capsys.readouterr().out
        assert main(args + ["--embeddings", str(emb / "database.patemb")]) == 0
        via_store = capsys.readouterr().out
        assert direct == via_store

    def test_embedding_store_from_other_vocabulary(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        other_vocab, emb = tmp_path / "other.txt", tmp_path / "emb"
        manifest = str(bench / "manifest.csv")
        assert main(["build-vocab", "--manifest", manifest, "--out", str(other_vocab),
                     "--gmm-k", "4", "--pca-dim", "16", "--kpca-dim", "1"]) == 0
        assert main(["encode", "--manifest", manifest, "--vocab", str(other_vocab),
                     "--out", str(emb)]) == 0
        capsys.readouterr()
        code = main(["query", "--manifest", manifest, "--vocab", str(vocab),
                     "--features", str(bench / "ind002_v1.patf"),
                     "--embeddings", str(emb / "database.patemb")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dimension 1" in err

    def test_embedding_store_non_finite(self, workspace, tmp_path, capsys):
        _, bench, vocab = workspace
        store = tmp_path / "database.patemb"
        store.write_text("PATEMB 1\nind000_v0 2 nan 1.0\n", encoding="utf-8")
        code = main(["query", "--manifest", str(bench / "manifest.csv"),
                     "--vocab", str(vocab), "--features", str(bench / "ind002_v1.patf"),
                     "--embeddings", str(store)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err

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
