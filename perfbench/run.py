"""hsangle benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 10 --trace 0

The workloads (verify_small, verify_large, scan_sharp) are defined in
workloads.py; NOTES.md says why each exists.

--trace 0 prints the end-to-end metrics (setup_s, ops_per_s, peak_rss_mib,
pass_frac); --trace 1 prints the per-layer metrics of a traced run.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Every process started here runs with the BLAS thread variables
pinned to 1.  Uses only the standard library; the workload itself runs in
worker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# Each set-up probe is timed between two runs of a reference interpreter that
# only imports numpy and scipy.optimize: the same loader work that most of
# hsangle's set-up is, in code outside the repository.  A slow phase of a
# shared host stretches both alike, so setup_s is the probe's time over the
# mean of its two references, times the reference's time on the build
# machine (NOTES.md).  A change to hsangle's set-up shows in full.
REFERENCE = ("-c", "import numpy, scipy.optimize")
REFERENCE_NOMINAL_S = 0.85
IMPORT_PROBES = 3
# Modules whose cumulative import time `-X importtime` reports as set-up layers.
IMPORT_LAYERS = {"numpy": "numpy", "scipy.optimize": "scipy_optimize", "hsangle": "hsangle"}
# Budget for one worker process; the whole run must end within 180 s.
WORKER_TIMEOUT_S = 150


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_python(args, env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc


def wall_seconds(args, env: dict) -> float:
    t0 = time.perf_counter()
    run_python(args, env)
    return time.perf_counter() - t0


def setup_probes(workload: str, env: dict) -> tuple:
    """(probe seconds, reference seconds) of SETUP_PROBES fresh interpreters
    that import hsangle and make the workload's first call, each between two
    reference interpreters."""
    probe = (str(HERE / "probe.py"), workload)
    refs, probes = [wall_seconds(REFERENCE, env)], []
    for _ in range(SETUP_PROBES):
        probes.append(wall_seconds(probe, env))
        refs.append(wall_seconds(REFERENCE, env))
    return probes, refs


def setup_seconds(probes: list, refs: list) -> float:
    """Median probe time over the mean of its neighbouring references, at the
    reference's nominal time."""
    return REFERENCE_NOMINAL_S * statistics.median(
        p / ((refs[i] + refs[i + 1]) / 2) for i, p in enumerate(probes))


def import_seconds(stderr: str) -> dict:
    """Cumulative import seconds of IMPORT_LAYERS from `-X importtime` output.

    hsangle's figure excludes numpy and scipy.optimize, which it imports.
    """
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(3) in IMPORT_LAYERS:
            cumulative[m.group(3)] = int(m.group(2)) * 1e-6
    out = {f"setup.import.{IMPORT_LAYERS[k]}_s": cumulative.get(k, 0.0) for k in IMPORT_LAYERS}
    out["setup.import.hsangle_s"] -= out["setup.import.numpy_s"] + out["setup.import.scipy_optimize_s"]
    return out


def import_layers(workload: str, env: dict) -> dict:
    args = ("-X", "importtime", str(HERE / "probe.py"), workload)
    probes = [import_seconds(run_python(args, env).stderr) for _ in range(IMPORT_PROBES)]
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hsangle benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hsangle" / "__init__.py").is_file():
        print(f"perfbench: no hsangle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = pinned_env()
    try:
        if args.trace:
            imports = import_layers(args.workload, env)
            res = run_worker(args, env)
        else:
            probes, refs = setup_probes(args.workload, env)
            res = run_worker(args, env)
            res.update(setup_probes_s=probes, setup_reference_s=refs)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        values = dict(res["layers"], **imports)
    else:
        values = {
            "setup_s": setup_seconds(probes, refs),
            "ops_per_s": res["ops_per_s"],
            "peak_rss_mib": res["peak_rss_mib"],
            "pass_frac": 1.0 - failed / attempted,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"calls={res['calls']} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print("golden " + json.dumps(res["golden"], sort_keys=True))
    print("call_sha256 " + " ".join(res["call_sha256"]))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    record = dict(res, metrics=metrics, seconds=args.seconds, trace=args.trace)
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
