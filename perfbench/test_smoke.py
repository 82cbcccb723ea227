"""Smoke test of the benchmark itself, on tiny configs (about 10 s).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric declared in BENCHMARK.json is emitted with its
unit, that per-layer self times add up to no more than the traced wall
time, and that the output checks can fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402

TINY = {
    "split": bench.Workload(
        "tiny-split", ("--seed", "3", "--individuals", "4", "--views", "3"),
        "split", shortlist=3, block=3, accuracy_images=6,
    ),
    "query": bench.Workload(
        "tiny-query", ("--seed", "5", "--individuals", "4", "--views", "2"),
        "query", shortlist=2, accuracy_images=2,
    ),
}


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def test_declared_metrics_match_the_code(declared):
    assert declared["end_to_end"] == bench.END_TO_END
    assert declared["per_layer"] == bench.PER_LAYER


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_metric_emitted_with_its_unit(kind, tmp_path, declared):
    # Untraced then traced with the same seed and cache: the traced run's
    # outputs are compared with the untraced run's and must not differ.
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, details = bench.run(TINY[kind], seed=1, seconds=1, trace=trace, cache=tmp_path)
        assert line["correct"], details["problems"]
        assert line["failed"] == 0 and line["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        assert emitted == declared[key]
        if trace:
            assert details["span_self_min_s"] >= -1e-9
            assert details["span_self_total_s"] <= details["traced_wall_s"]
            assert details["trace_missing"] == []


def test_checks_reject_wrong_answers():
    truth = {"q1": "a", "d1": "a", "d2": "b"}
    table = "rank individual\n   1 a\n   2 a\n"
    with pytest.raises(ValueError, match="exactly once"):
        bench._parse_query_table(table, "q1", truth, ["a", "b"])
    header = "rule,query_id,truth,rank_of_truth,d_L,n,omega,d_C\n"
    rows = "".join(f"{rule},q1,a,0,0.1,0,0.0,0.1\n" for rule in bench.RULE_METRICS)
    with pytest.raises(ValueError, match="ranked 0"):
        bench._parse_eval_csv(header + rows, ["q1"], truth, 2)


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in ("run.py", "bench.py", "tracing.py", "loop.py"):
        shutil.copy(HERE / name, bare / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "std-split", "--seed", "0",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
