"""Runs one benchmark workload in this process and prints its result as JSON.

Started by run.py in a fresh interpreter with the BLAS thread variables
pinned to 1.  It drives hsangle only through ``hsangle.cli.main`` and
``hsangle.sharpness_scan``, imported from ``src/`` of the checkout this file
sits in, and checks every output.

    python3 perfbench/worker.py --workload verify_small --seed 3 --seconds 10 --trace 0
    python3 perfbench/worker.py --capture-goldens
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hsangle  # noqa: E402
from hsangle import cli  # noqa: E402

from spans import SpanRecorder, write as write_spans  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ALL_DIMS, IDS, KINDS, SCAN_ITERATIONS, SCAN_TARGETS, WORKLOADS, Workload, run_seed,
)

GOLDENS = HERE / "goldens.json"
OUT = ROOT / ".perfbench"


@dataclass
class Call:
    """One hsangle call of a run and what its check found."""

    ops: int
    failed: int
    # (start, end) perf_counter seconds, or None when the call raised or its
    # output was rejected as a whole; such a call is left out of ops_per_s.
    interval: tuple | None
    sha256: str


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _strict_json(line: str):
    return json.loads(line, parse_constant=_reject_constant)


def call_cli(argv, rec=None):
    """Run ``hsangle.cli.main(argv)``; returns (exit code, stdout, (start, end))."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    span = rec.begin("cli.main") if rec is not None else None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    finally:
        if span is not None:
            rec.finish(span)
    return code, buf.getvalue(), (t0, time.perf_counter())


def verify_failures(out: str, trials: int) -> int:
    """Failed registry trials in one ``verify`` stdout of ``trials`` per id.

    A trial fails if it is a violation.  A line with the wrong id or trial
    count or a non-finite worst_slack fails all its trials; output that is
    not one strict JSON line per id fails every trial.
    """
    lines = out.splitlines()
    every = trials * len(IDS)
    if len(lines) != len(IDS):
        return every
    try:
        reports = [_strict_json(line) for line in lines]
    except ValueError:
        return every
    failed = 0
    for rep, iid in zip(reports, IDS):
        violations = rep.get("violations")
        slack = rep.get("worst_slack")
        if (rep.get("id") != iid or rep.get("trials") != trials
                or not isinstance(violations, int) or not 0 <= violations <= trials
                or not isinstance(slack, (int, float)) or not math.isfinite(slack)):
            failed += trials
        else:
            failed += violations
    return failed


def scan_ok(result, iid: str) -> bool:
    """Criterion-5 band: 0.999 target <= best_ratio <= target (1 + 1e-9)."""
    target = SCAN_TARGETS[iid]
    r = result.best_ratio
    return math.isfinite(r) and 0.999 * target <= r <= target * (1.0 + 1e-9)


def run_verify(w: Workload, trials: int, seed: int, rec=None) -> list:
    """One ``verify`` call of `trials` per id over the whole registry."""
    argv = w.argv(trials, seed)
    ops = trials * len(IDS)
    try:
        code, out, interval = call_cli(argv, rec)
    except (Exception, SystemExit) as exc:
        print(f"verify raised {exc!r}", file=sys.stderr)
        return [Call(ops, ops, None, "")]
    failed = ops if code not in (0, 1) else verify_failures(out, trials)
    # Violations are counted trials of a completed call; a call whose output
    # fails as a whole did not do the work it is timed for.
    if failed == ops:
        interval = None
    return [Call(ops, failed, interval, hashlib.sha256(out.encode()).hexdigest())]


def run_scans(w: Workload, seed: int, rec=None) -> list:
    """T37 then T36 at the workload's dim, the criterion-5 order."""
    calls = []
    for iid in SCAN_TARGETS:
        ops = SCAN_ITERATIONS
        t0 = time.perf_counter()
        span = rec.begin("random_lab.scan", iid) if rec is not None else None
        try:
            result = hsangle.sharpness_scan(iid, w.dims[0], ops, seed)
        except Exception as exc:
            print(f"sharpness_scan raised {exc!r}", file=sys.stderr)
            calls.append(Call(ops, ops, None, ""))
            continue
        finally:
            if span is not None:
                rec.finish(span)
        interval = (t0, time.perf_counter())
        try:
            payload = json.dumps(result.to_json_dict(), allow_nan=False)
        except ValueError:
            calls.append(Call(ops, ops, None, ""))
            continue
        ok = scan_ok(result, iid)
        calls.append(Call(ops, 0 if ok else ops, interval if ok else None,
                          hashlib.sha256(payload.encode()).hexdigest()))
    return calls


def run_workload(name: str, seed: int, seconds: int, rec=None) -> list:
    """The calls of one run; their sizes depend only on the workload and `seconds`."""
    w = WORKLOADS[name]
    if w.kind == "verify":
        return run_verify(w, w.trials(seconds), run_seed(name, seed), rec)
    return run_scans(w, run_seed(name, seed), rec)


def golden_check(name: str) -> dict:
    """sha256 of the workload's fixed CLI call against the stored golden.

    A mismatch is reported, not counted as a failure: a deliberate
    re-baseline changes the last bits of the output on purpose.
    """
    argv = WORKLOADS[name].golden_argv()
    code, out, _ = call_cli(argv)
    sha = hashlib.sha256(out.encode()).hexdigest()
    key = " ".join(argv)
    expect = json.loads(GOLDENS.read_text()).get(key) if GOLDENS.is_file() else None
    return {"argv": key, "exit": code, "sha256": sha, "golden": expect,
            "match": None if expect is None else sha == expect}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = sorted(k for k in os.environ if k.endswith("_NUM_THREADS"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in thread_vars},
    }


def tracing_overhead(name: str, pairs: int = 3) -> float:
    """1 - untraced / traced wall time of the workload's golden call, from the
    median of `pairs` alternating runs.  Traced output must equal untraced."""
    argv = WORKLOADS[name].golden_argv()
    plain, traced = [], []
    for _ in range(pairs):
        _, out, (t0, t1) = call_cli(argv)
        plain.append(t1 - t0)
        rec = SpanRecorder()
        with Tracer(rec):
            _, traced_out, (t0, t1) = call_cli(argv, rec)
        traced.append(t1 - t0)
        if traced_out != out:
            raise RuntimeError("tracing changed the output of " + " ".join(argv))
    return 1.0 - statistics.median(plain) / statistics.median(traced)


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the workload once and summarize it.

    Untraced, ops_per_s is the operations of the calls that completed over
    their time, each interval normalized by the machine speed sampled while
    it ran (speed.py).  Traced, the calls run under the tracer, which gives
    the per-layer numbers; the tracing overhead comes from the golden call
    run both ways.
    """
    golden = golden_check(name)
    result = {"workload": name, "seed": seed, "golden": golden, "env": environment()}
    if trace:
        overhead = tracing_overhead(name)
        rec = SpanRecorder()
        t0 = time.perf_counter_ns()
        with Tracer(rec):
            calls = run_workload(name, seed, seconds, rec)
        wall = time.perf_counter_ns() - t0
        layers = layer_metrics(rec, sum(c.ops for c in calls), wall, ALL_DIMS, KINDS, IDS)
        layers["trace.overhead_frac"] = overhead
        result.update(layers=layers, spans=len(rec))
        OUT.mkdir(exist_ok=True)
        write_spans(rec, OUT / f"spans-{name}.tsv.gz")
    else:
        with SpeedSampler(WORKLOADS[name].kernel) as sampler:
            calls = run_workload(name, seed, seconds)
        timed = [c for c in calls if c.interval is not None]
        ops = sum(c.ops for c in timed)
        nominal = sum(sampler.normalized(*c.interval) for c in timed)
        wall = sum(c.interval[1] - c.interval[0] for c in timed)
        result.update(
            ops_per_s=ops / nominal if timed else 0.0,
            raw_ops_per_s=ops / wall if timed else 0.0,
            wall_s=wall,
            speed_samples=len(sampler.dur),
            speed_median_s=statistics.median(sampler.dur),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result.update(
        calls=len(calls),
        attempted=sum(c.ops for c in calls),
        failed=sum(c.failed for c in calls),
        call_sha256=[c.sha256 for c in calls],
    )
    return result


def capture_goldens() -> None:
    """Rewrite goldens.json from this checkout's output (a deliberate re-baseline)."""
    goldens = {}
    for name in WORKLOADS:
        g = golden_check(name)
        goldens[g["argv"]] = g["sha256"]
    GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-goldens", action="store_true")
    args = p.parse_args(argv)
    if Path(hsangle.__file__).resolve().parent != SRC / "hsangle":
        print(f"hsangle imported from {hsangle.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.capture_goldens:
        capture_goldens()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
