"""sha256 pins of the CLI's stdout, of generate's bits and of the points a
one-restart scan charges, and the ratio calls of three scans, computed at
one pinned dispatch level.

numpy's SIMD loops (AVX2 or AVX-512) and OpenBLAS's kernels decide the last
bits of the results, so the pins are defined with both pinned: numpy
dispatches no further than X86_V3, OpenBLAS runs its Haswell kernels on one
thread.  pinned_digests() computes every pin in one subprocess at that
level, with RuntimeWarnings as errors as in the test run.  Run as a
script, this prints the digests as one JSON object:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 NPY_ENABLE_CPU_FEATURES=X86_V3 \
        OPENBLAS_CORETYPE=Haswell python tests/pins.py
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "NPY_ENABLE_CPU_FEATURES": "X86_V3",
    "OPENBLAS_CORETYPE": "Haswell",
}
# numpy refuses to import when asked to enable a feature the CPU lacks, with
# this in its message.
UNSUPPORTED = "not supported by your machine"

CLI_PINS = (
    ("verify", "--trials", "30", "--dims", "1..8", "--seed", "7"),
    ("verify", "--trials", "2", "--dims", "32,64", "--seed", "7"),
    ("scan", "--id", "T37", "--dim", "2", "--iters", "4000", "--seed", "42"),
    ("scan", "--id", "R33", "--dim", "2", "--iters", "3000", "--seed", "3"),
    ("repro",),
    ("scan", "--id", "T36", "--dim", "2", "--iters", "4000", "--seed", "42"),
    ("scan", "--id", "C32", "--dim", "2", "--iters", "4000", "--seed", "42"),
    ("scan", "--id", "T37", "--dim", "3", "--iters", "3000", "--seed", "5"),
    ("scan", "--id", "T37", "--dim", "2", "--iters", "37", "--seed", "1"),
    ("scan", "--id", "T36", "--dim", "2", "--iters", "1001", "--seed", "9"),
    ("scan", "--id", "R33", "--dim", "2", "--iters", "2500", "--seed", "11"),
)
GENERATE = "generate"
# One-restart scans whose charged points are those that scipy's Nelder-Mead
# evaluates from the same start point, as (id, dim, budget, seed, m): scipy
# evaluates the first m of them.  _digests keys their sha256 by the case
# joined after "scan-parity".
SCAN_PARITY = (("T37", 2, 1500, 4, 1500), ("R33", 1, 900, 4, 680))
# Scans whose ratio calls and valued points are counted, as (id, dim,
# budget, seed).  _digests keys [calls, points] by the case joined after
# "scan-structure".  Both counts follow the Nelder-Mead path, which the last
# bits of the values decide, so they too are taken at the pinned level.
SCAN_STRUCTURE = (("T37", 2, 20_000, 21), ("T36", 2, 20_000, 21), ("T37", 3, 6_000, 21))


def charged_points(iid: str, dim: int, n: int, seed: int) -> list:
    """The parameter rows that sharpness_scan(iid, dim, n, seed) with one
    restart charges to its budget, in order."""
    from hsangle import scan

    rows, charge, space = [], scan._Budget.charge, scan._search_space

    def recording_charge(budget, points, f=None):
        rows.extend(points[: budget.left])
        return charge(budget, points, f)

    def one_restart(inequality_id, d):
        decode, n, _, polish = space(inequality_id, d)
        return decode, n, 1, polish

    scan._Budget.charge, scan._search_space = recording_charge, one_restart
    try:
        scan.sharpness_scan(iid, dim, n, seed)
    finally:
        scan._Budget.charge, scan._search_space = charge, space
    return rows


def ratio_sizes(iid: str, dim: int, n: int, seed: int) -> list:
    """The number of points of each ratio call that sharpness_scan(iid,
    dim, n, seed) makes, in order."""
    from hsangle import scan

    sizes, ratio_for = [], scan._ratio_for

    def counting_ratio_for(inequality_id):
        ratio = ratio_for(inequality_id)

        def counted(x, y):
            sizes.append(len(x))
            return ratio(x, y)

        return counted

    scan._ratio_for = counting_ratio_for
    try:
        scan.sharpness_scan(iid, dim, n, seed)
    finally:
        scan._ratio_for = ratio_for
    return sizes


def _digests() -> dict:
    """sha256 of each CLI_PINS run's stdout, keyed by its joined argv, of
    the bits of generate over every ensemble, keyed GENERATE, and of the
    first m charged points of each SCAN_PARITY case; and the ratio calls
    and valued points of each SCAN_STRUCTURE case."""
    from hsangle import ENSEMBLE_KINDS, GeneratorSpec, cli, generate

    out = {}
    for argv in CLI_PINS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        out[" ".join(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    h = hashlib.sha256()
    for kind in ENSEMBLE_KINDS:
        for dim in (1, 2, 3, 4, 5, 6, 7, 8, 17, 32, 64):
            for seed in (0, 1, 2**64 - 1):
                h.update(generate(GeneratorSpec(kind, dim, seed)).a.tobytes())
    out[GENERATE] = h.hexdigest()
    for *case, m in SCAN_PARITY:
        rows = charged_points(*case)[:m]
        key = " ".join(map(str, ("scan-parity", *case, m)))
        out[key] = hashlib.sha256(b"".join(r.tobytes() for r in rows)).hexdigest()
    for case in SCAN_STRUCTURE:
        sizes = ratio_sizes(*case)
        out[" ".join(map(str, ("scan-structure", *case)))] = [len(sizes), sum(sizes)]
    return out


@functools.cache
def pinned_digests():
    """The digests at the pinned dispatch level, or None on a machine that
    cannot enable X86_V3."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(PINNED_ENV)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", __file__],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0 and UNSUPPORTED in proc.stderr:
        return None
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=1))
