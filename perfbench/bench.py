"""Workloads, inputs, set-up timing and the measured request loop.

The package is driven from outside, through ``patreid.cli.main`` -- the
same entry point a user's shell reaches -- so the benchmark keeps working
when module internals are reorganised.  ``run`` is the whole benchmark for
one workload; the request loop runs in a fresh child process
(``loop.py``) so its peak memory is the loop's own.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
SETUP_REPEATS = 3
# A run must end within 180 s; the request loop is killed at this mark.
RUN_DEADLINE_S = 170.0
RULE_METRICS = {
    "exponential": "top1_exp",
    "polynomial": "top1_poly",
    "geometry_only": "top1_geom",
    "appearance_only": "top1_app",
}
# Every end-to-end metric is reported on every workload (trace 0).
END_TO_END = {
    "setup_s": "s",
    "eval_qps": "1/s",
    "top1_exp": "fraction",
    "top1_poly": "fraction",
    "top1_geom": "fraction",
    "top1_app": "fraction",
    "peak_rss_mb": "MB",
}
# Per-layer metrics (trace 1); "/query" means per query image answered.
PER_LAYER = {
    "ingest.parse_s": "s/query",
    "ingest.files_parsed": "count/query",
    "ingest.parse_ms_per_file": "ms",
    "vocab.fit_pca_s": "s",
    "vocab.fit_gmm_s": "s",
    "vocab.gmm_iters": "count",
    "vocab.fit_kpca_s": "s",
    "vocab.save_s": "s",
    "vocab.load_s": "s/query",
    "vocab.file_bytes": "bytes",
    "encode.fisher_s": "s/query",
    "encode.embed_s": "s/query",
    "encode.embed_calls": "count/query",
    "encode.cosine_s": "s/query",
    "encode.cosine_calls": "count/query",
    "geometry.pairs_verified": "count/query",
    "geometry.match_s": "s/query",
    "geometry.matches_per_pair": "count",
    "geometry.ransac_s": "s/query",
    "geometry.ransac_ms_genuine": "ms",
    "geometry.ransac_ms_impostor": "ms",
    "geometry.inliers_genuine": "count",
    "geometry.inliers_impostor": "count",
    "geometry.genuine_share": "fraction",
    "reid.query_self_s": "s/query",
    "reid.build_db_s": "s/query",
    "reid.geometry_cache_hits": "count/query",
    "reid.shortlist_recall": "fraction",
    "cli.self_s": "s/query",
    "trace.overhead_frac": "fraction",
}


@dataclass(frozen=True)
class Workload:
    """One fixed synthetic benchmark and the request stream sent to it.

    ``kind`` is "split" (closed loop of four-rule ``evaluate`` requests over
    blocks of ``block`` query images) or "query" (closed loop of one-image
    ``query`` calls).  Top-1 accuracy is scored on the first
    ``accuracy_images`` images of the stream (0: all of them).
    """

    name: str
    synth: tuple
    kind: str
    shortlist: int
    block: int = 1
    accuracy_images: int = 0


# README.md gives the reason for each workload and its sizes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "std-split",
            ("--seed", "42", "--individuals", "25", "--views", "6"),
            "split", shortlist=50, block=8, accuracy_images=24,
        ),
        Workload(
            "hard-split",
            ("--seed", "7", "--individuals", "40", "--views", "3", "--noise", "0.2",
             "--dropout", "0.4", "--clutter", "0.5", "--max-perspective", "0.25"),
            "split", shortlist=10, block=40, accuracy_images=0,
        ),
        Workload(
            "wide-query",
            ("--seed", "11", "--individuals", "150", "--views", "2"),
            "query", shortlist=5, accuracy_images=20,
        ),
    )
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def call_cli(argv):
    """Run ``patreid.cli.main`` in-process; return (exit code, stdout, seconds).

    A raised exception counts as a failed call (code -1), like a crash would
    for a user.  The lookup goes through the module so tracing wrappers apply.
    """
    import patreid.cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = patreid.cli.main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a crash is a measured failure
        code = -1
        err.write(f"{type(exc).__name__}: {exc}\n")
    elapsed = perf_counter() - start
    if code != 0:
        sys.stderr.write(f"patreid {argv[0]} exited {code}: {err.getvalue().strip()}\n")
    return code, out.getvalue(), elapsed


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _listing(data):
    """sha256sum-style lines for the manifest and every PATF file."""
    files = [data / "manifest.csv"] + sorted(data.glob("*.patf"))
    return "".join(f"{sha256_file(p)}  {p.name}\n" for p in files)


def prepare_inputs(workload, cache):
    """Generate the workload's benchmark once per checkout, outside timing.

    The directory name carries a hash of the synth flags, and
    ``inputs.sha256`` (written last) lists the sha256 of the manifest and
    every PATF file; a directory whose files no longer match it is rebuilt.
    """
    key = hashlib.sha256(" ".join(workload.synth).encode()).hexdigest()[:12]
    data = cache / "data" / f"{workload.name}-{key}"
    listing = data / "inputs.sha256"
    if listing.is_file() and listing.read_text() == _listing(data):
        return data
    tmp = data.with_name(data.name + ".tmp")
    for d in (data, tmp):
        if d.exists():
            shutil.rmtree(d)
    code, _, _ = call_cli(["synth", *workload.synth, "--out", tmp])
    if code != 0:
        raise BenchError(f"synth exited {code}")
    (tmp / "inputs.sha256").write_text(_listing(tmp))
    tmp.rename(data)
    return data


def read_manifest(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_manifest(path, rows, base):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "feature_path": str(base / row["feature_path"])})


def build_requests(workload, data, seed, run_dir, work_dir, vocab):
    """The seeded request stream plus the untimed accuracy, cross-check and
    tracing-overhead calls.

    The seed shuffles the query images; the dataset itself is the workload's
    fixed benchmark.  Each request is a ``patreid`` argv plus the query
    images it answers.
    """
    rows = read_manifest(data / "manifest.csv")
    db = [r for r in rows if r["role"] == "database"]
    queries = [r for r in rows if r["role"] == "query"]
    random.Random(f"{workload.name}/{seed}").shuffle(queries)
    n_acc = workload.accuracy_images or len(queries)
    n_individuals = len({r["individual_id"] for r in db})
    manifest = data / "manifest.csv"

    def evaluate(rid, block):
        path = run_dir / f"{rid}.csv"
        _write_manifest(path, db + block, data)
        return {
            "id": rid,
            "kind": "evaluate",
            "images": [r["image_id"] for r in block],
            "csv": str(work_dir / f"{rid}.out.csv"),
            "argv": ["evaluate", "--manifest", path, "--vocab", vocab, "--protocol",
                     "split", "--shortlist", workload.shortlist, "--per-query-csv",
                     work_dir / f"{rid}.out.csv"],
        }

    def query(row):
        return {
            "id": row["image_id"],
            "kind": "query",
            "images": [row["image_id"]],
            "argv": ["query", "--manifest", manifest, "--vocab", vocab, "--features",
                     data / row["feature_path"], "--rule", "exp", "--shortlist",
                     workload.shortlist, "--topk", n_individuals],
        }

    if workload.kind == "split":
        k = workload.block
        loop = [evaluate(f"block-{i // k:03d}", queries[i:i + k]) for i in range(0, len(queries), k)]
        accuracy = loop[: -(-n_acc // k)]
        crosscheck = [query(queries[0])]
        overhead = evaluate("overhead", queries[:1])
    else:
        loop = [query(r) for r in queries]
        accuracy = [evaluate("accuracy", queries[:n_acc])]
        crosscheck = []
        overhead = loop[0]
    for req in loop + accuracy + crosscheck + [overhead]:
        req["argv"] = [str(a) for a in req["argv"]]
    truth = {r["image_id"]: r["individual_id"] for r in rows}
    return {
        "loop": loop,
        "accuracy": accuracy,
        "crosscheck": crosscheck,
        "overhead": overhead,
        "truth": truth,
        "individuals": sorted({r["individual_id"] for r in db}),
    }


def time_setup(workload, data, work_dir, trace):
    """``build-vocab`` on the workload's manifest, repeated.

    Returns the seconds of each build, the vocabulary path and its sha256,
    the per-layer metrics of the traced build (or None) and any problems.

    Untraced, it runs ``SETUP_REPEATS`` times.  Traced, one untraced build
    supplies the vocabulary and a second, traced build must write the same
    bytes.
    """
    from tracing import Tracer, setup_metrics

    manifest = data / "manifest.csv"
    times, digests, layer = [], [], None
    repeats = 2 if trace else SETUP_REPEATS
    for i in range(repeats):
        out = work_dir / f"vocab-{i}.txt"
        tracer = Tracer() if trace and i == 1 else None
        with tracer or contextlib.nullcontext():
            code, _, elapsed = call_cli(["build-vocab", "--manifest", manifest, "--out", out])
        if code != 0:
            raise BenchError(f"build-vocab exited {code}")
        times.append(elapsed)
        digests.append(sha256_file(out))
        if tracer is not None:
            layer = setup_metrics(tracer.spans)
            tracer.dump(work_dir / "trace-setup.json")
    problems = [] if len(set(digests)) == 1 else ["build-vocab output differs between repeats"]
    return times, work_dir / "vocab-0.txt", digests[0], layer, problems


# --- request loop (runs in the child process) ---------------------------------


def _parse_eval_csv(text, images, truth, n_individuals):
    """Ranks of truth per rule from a per-query CSV; raises ValueError if wrong."""
    ranks, top1 = {}, {}
    for line in text.splitlines()[1:]:
        if line.startswith("# topk,"):
            _, rule, k, acc = line.split(",")
            if k == "1":
                top1[rule] = float(acc)
            continue
        if line.startswith("#"):
            continue
        rule, qid, t, rank = line.split(",")[:4]
        if truth.get(qid) != t:
            raise ValueError(f"{rule}/{qid}: truth {t!r} is not the manifest's")
        if not 1 <= int(rank) <= n_individuals:
            raise ValueError(f"{rule}/{qid}: truth ranked {rank} of {n_individuals}")
        if qid in ranks.setdefault(rule, {}):
            raise ValueError(f"{rule}/{qid}: answered twice")
        ranks[rule][qid] = int(rank)
    if set(ranks) != set(RULE_METRICS):
        raise ValueError(f"rules {sorted(ranks)} != {sorted(RULE_METRICS)}")
    for rule, by_query in ranks.items():
        if sorted(by_query) != sorted(images):
            raise ValueError(f"{rule}: answered {len(by_query)} of {len(images)} queries")
        hits = sum(r == 1 for r in by_query.values()) / len(by_query)
        if abs(top1.get(rule, -1.0) - hits) > 1e-12:
            raise ValueError(f"{rule}: summary top-1 {top1.get(rule)} != rows {hits}")
    return ranks


def _parse_query_table(text, image, truth, individuals):
    """Rank of truth from a ``query`` table that lists every individual."""
    rows = [line.split() for line in text.splitlines()[1:] if line.strip()]
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError(f"{image}: ranks are not 1..{len(rows)}")
    named = [r[1] for r in rows]
    if len(set(named)) != len(named) or sorted(named) != individuals:
        raise ValueError(f"{image}: ranked list does not name each individual exactly once")
    return {"exponential": {image: named.index(truth[image]) + 1}}


class Loop:
    """Executes requests and checks every answer; collects what it saw."""

    def __init__(self, job):
        self.job = job
        self.truth = job["truth"]
        self.individuals = job["individuals"]
        self.digests = {}
        self.ranks = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, req):
        """Run one request; return its seconds, or None when it failed."""
        self.attempted += 1
        code, out, elapsed = call_cli(req["argv"])
        if code != 0:
            self.failed += 1
            self.problems.append(f"{req['id']}: exit {code}")
            return None
        try:
            if req["kind"] == "evaluate":
                body = Path(req["csv"]).read_bytes()
                ranks = _parse_eval_csv(body.decode(), req["images"], self.truth, len(self.individuals))
            else:
                body = out.encode()
                ranks = _parse_query_table(out, req["images"][0], self.truth, self.individuals)
        except (OSError, ValueError) as exc:
            self.problems.append(f"{req['id']}: {exc}")
            return elapsed
        digest = hashlib.sha256(body).hexdigest()
        seen = self.digests.setdefault(req["id"], digest)
        if seen != digest:
            self.problems.append(f"{req['id']}: output differs from an earlier answer")
        for rule, by_query in ranks.items():
            for qid, rank in by_query.items():
                known = self.ranks.setdefault(rule, {}).setdefault(qid, rank)
                if known != rank:
                    self.problems.append(f"{qid}: {rule} rank {rank} here, {known} elsewhere")
        return elapsed

    def run_for(self, seconds, tracer=None):
        """Closed loop: each request is sent when the previous one returned.

        Returns (seconds, images) of each answered request.
        """
        requests = self.job["loop"]
        samples, start, i = [], perf_counter(), 0
        while i == 0 or perf_counter() - start < seconds:
            req = requests[i % len(requests)]
            i += 1
            if tracer is not None:
                tracer.request_id = req["id"]
            elapsed = self.execute(req)
            if elapsed is not None:
                samples.append((elapsed, len(req["images"])))
        if not samples:
            self.problems.append("no request was answered")
        return samples


def latency(per_image_ms):
    """Median and tail of per-image request times, with the sample count.

    The tail is the highest percentile with at least ten samples beyond it
    (None below eleven samples).
    """
    n = len(per_image_ms)
    ordered = sorted(per_image_ms)
    return {
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[n - 11] if n >= 11 else None,
        "tail_percentile": 100.0 * (n - 10) / n if n >= 11 else None,
        "samples": n,
        "per_image_ms": per_image_ms,
    }


def run_loop(job):
    """The child's work: the timed loop, then untimed accuracy and checks."""
    from tracing import Tracer, loop_metrics, self_times

    loop = Loop(job)
    result = {"metrics": {}}
    if job["trace"]:
        # Overhead: a one-image request traced, between two untraced runs
        # of it, so slow drifts in machine speed mostly cancel.
        first = job["overhead"]
        before = loop.execute(first)
        with Tracer():
            traced = loop.execute(first)
        after = loop.execute(first)
        tracer = Tracer()
        with tracer:
            samples = loop.run_for(job["seconds"], tracer)
        tracer.dump(Path(job["work_dir"]) / "trace-loop.json")
        own = self_times(tracer.spans)
        if samples:
            result["metrics"] = loop_metrics(tracer.spans, sum(n for _, n in samples), loop.truth)
            if before and traced and after:
                result["metrics"]["trace.overhead_frac"] = 2.0 * traced / (before + after) - 1.0
        result.update(
            traced_wall_s=sum(t for t, _ in samples),
            span_self_total_s=sum(own),
            span_self_min_s=min(own, default=0.0),
            trace_missing=tracer.missing,
        )
    else:
        samples = loop.run_for(job["seconds"])
        for req in job["accuracy"]:
            if req["id"] not in loop.digests:
                loop.execute(req)
        if samples:
            result["metrics"]["eval_qps"] = sum(n for _, n in samples) / sum(t for t, _ in samples)
            result["latency"] = latency([1000.0 * t / n for t, n in samples])
        scored = [q for req in job["accuracy"] for q in req["images"]]
        for rule, name in RULE_METRICS.items():
            ranks = loop.ranks.get(rule, {})
            if all(q in ranks for q in scored):
                result["metrics"][name] = sum(ranks[q] == 1 for q in scored) / len(scored)
    for req in job["crosscheck"]:
        loop.execute(req)
    if not job["trace"]:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = peak_kb / 1024.0
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems,
        requests=len(samples),
        images=sum(n for _, n in samples),
        digests=loop.digests,
    )
    return result


# --- orchestration (parent process) -------------------------------------------

# Pinned to one thread before numpy loads: extra OpenBLAS threads only add
# user time on these small matrices, and one thread makes runs comparable.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2.0 prints its config instead
        blas = {}
    src = sorted((SRC / "patreid").glob("*.py"))
    fingerprint = hashlib.sha256()
    for p in src:
        fingerprint.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": fingerprint.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def _compare_with_earlier(record_path, record, problems):
    """Outputs must match an earlier run of the same source, inputs and requests."""
    if record_path.is_file():
        earlier = json.loads(record_path.read_text())
        for key, digest in record.items():
            if key in earlier and earlier[key] != digest:
                problems.append(f"{key}: output differs from an earlier run with this seed")
        record = {**record, **earlier}
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))


def run(workload, seed, seconds, trace, cache=CACHE):
    """The whole benchmark for one workload; returns (result line, details)."""
    import patreid

    if SRC not in Path(patreid.__file__).resolve().parents:
        raise BenchError(f"patreid imported from {patreid.__file__}, not from {SRC}")
    started = perf_counter()
    env = environment()
    data = prepare_inputs(workload, cache)
    work_dir = cache / "work" / workload.name
    run_dir = cache / "runs" / workload.name / f"seed-{seed}"
    for d in (work_dir, run_dir):
        d.mkdir(parents=True, exist_ok=True)

    times, vocab, vocab_digest, layer, problems = time_setup(workload, data, work_dir, trace)
    job = build_requests(workload, data, seed, run_dir, work_dir, vocab)
    job.update(seconds=seconds, trace=trace, work_dir=str(work_dir))
    job_path = work_dir / "job.json"
    job_path.write_text(json.dumps(job))
    out_path = work_dir / "loop-result.json"
    if out_path.exists():
        out_path.unlink()
    budget = max(30.0, RUN_DEADLINE_S - (perf_counter() - started))
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "loop.py"), str(job_path), str(out_path)],
            timeout=budget, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"request loop did not end within {budget:.0f} s") from None
    if child.returncode != 0 or not out_path.is_file():
        raise BenchError(f"request loop exited {child.returncode}")
    loop = json.loads(out_path.read_text())

    problems += loop["problems"]
    record = {"vocabulary": vocab_digest, **loop["digests"]}
    inputs_digest = sha256_file(data / "inputs.sha256")
    requests = json.dumps([job[k] for k in ("loop", "accuracy", "crosscheck", "overhead")])
    key = hashlib.sha256((env["src_sha256"] + inputs_digest + requests).encode()).hexdigest()[:16]
    _compare_with_earlier(run_dir / f"outputs-{key}.json", record, problems)

    metrics = dict(loop["metrics"])
    if trace:
        metrics.update(layer)
        wanted = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(times)
        wanted = END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    attempted = loop["attempted"] + len(times)
    line = {
        "correct": not problems and loop["failed"] == 0,
        "attempted": attempted,
        "failed": loop["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items()
            if name in metrics
        },
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "inputs_sha256": inputs_digest,
        "outputs": record,
        "setup_runs_s": times,
        "requests_timed": loop["requests"],
        "images_timed": loop["images"],
        "error_rate": loop["failed"] / max(1, loop["attempted"]),
        "problems": problems,
    }
    for key in (
        "latency", "traced_wall_s", "span_self_total_s", "span_self_min_s",
        "trace_missing",
    ):
        if key in loop:
            details[key] = loop[key]
    return line, details
