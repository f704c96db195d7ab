"""Every pin, as one table: sha256 pins of the CLI's stdout, of generate's
bits and of the points a one-restart scan charges, and the ratio calls of
three scans, computed at one pinned dispatch level.

numpy's SIMD loops (AVX2 or AVX-512) and OpenBLAS's kernels decide the last
bits of the results, so the pins are defined with both pinned: numpy
dispatches no further than X86_V3, OpenBLAS runs its Haswell kernels on one
thread.  pinned_digests() computes every pin in one subprocess at that
level, with RuntimeWarnings as errors as in the test run, and
tests/test_pins.py compares each with PINNED.  A change that moves any
pinned bit re-baselines the values of PINS on purpose, and states the
largest drift.  Run as a script, this prints the digests as one JSON object
keyed as PINNED is:

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

# Each pin as (kind, case, value); _DIGESTS computes a kind's value from its
# case.
PINS = (
    # "cli": sha256 of the stdout of the argv.
    ("cli", ("verify", "--trials", "30", "--dims", "1..8", "--seed", "7"),
     "da3b2a595fafb10e9281fd9b844902882db19d38b8271f9872a5dca20372534e"),
    ("cli", ("verify", "--trials", "2", "--dims", "32,64", "--seed", "7"),
     "99bf8ae8fb81c5398eb64f47221602be046c1f467f406470d07662d4ac0320a6"),
    ("cli", ("scan", "--id", "T37", "--dim", "2", "--iters", "4000", "--seed", "42"),
     "736beaa96836ffa889dcc30f6a1682c925de8c89f3eb4a75905757c681a26dfb"),
    # The normal-pair decoder and the C32/R33 degenerate-denominator guard.
    ("cli", ("scan", "--id", "R33", "--dim", "2", "--iters", "3000", "--seed", "3"),
     "3979841d87628675ca3a5a52c5b6e12694c851fe505e9fd3cab872530cb97850"),
    ("cli", ("repro",), "c236f8898cdac2a43b06ea18982a20d261a8a39758b26cc87a79083fff901191"),
    # The adjoint moduli (T36), the raw-pair guard (C32) and a 3x3 scan,
    # whose moduli come from the SVD.
    ("cli", ("scan", "--id", "T36", "--dim", "2", "--iters", "4000", "--seed", "42"),
     "b06668536d0be34fe9db77232899c3282e2fa6dbb2d0aeeb6d7008d343994ae6"),
    ("cli", ("scan", "--id", "C32", "--dim", "2", "--iters", "4000", "--seed", "42"),
     "07d289fc170406157f79ce6ae6014e9fed6c9e775ccc8d1ba9a5483d36466b05"),
    ("cli", ("scan", "--id", "T37", "--dim", "3", "--iters", "3000", "--seed", "5"),
     "1583630db1d2ab906e5f51f3350d52f91b7e3faa5522daf3d1d41845126b6e33"),
    # The budget's edges: it ends inside the initial simplices, then in
    # mid-step; and an R33 scan, whose points decode through the QR of
    # _normal_pair.
    ("cli", ("scan", "--id", "T37", "--dim", "2", "--iters", "37", "--seed", "1"),
     "928f82d4f97fa429fb066f470677774ff1c58a1b02fae469a0bedd83d3c47870"),
    ("cli", ("scan", "--id", "T36", "--dim", "2", "--iters", "1001", "--seed", "9"),
     "ad313c5932339e2c226f6eed50527e53be1b4b9d16f626cde16ed7f2543e80f2"),
    ("cli", ("scan", "--id", "R33", "--dim", "2", "--iters", "2500", "--seed", "11"),
     "8adcd5cd2314a9e42c6e6c443c073362ca8c9f9e2240bd50a83b9c72bcfb15a2"),
    # "generate": sha256 of the bits of every ensemble's draws at dims 1-8,
    # 17, 32 and 64, seeds 0, 1 and 2^64 - 1; a change to any ensemble's
    # bits moves this and the verify digests.
    ("generate", (), "dbbebaee36095a34bd1c4279dde547a294821c7bfca3fda77e610a46ac7f1d1e"),
    # "scan-parity", (id, dim, budget, seed, m): sha256 of the first m points
    # that a one-restart scan charges.  They are the points that scipy
    # 1.17.1's Nelder-Mead evaluates from the same start point, in
    # test_one_restart_evaluates_the_points_of_scipy_nelder_mead, so the
    # parity is checked where scipy is absent.  T37's budget stays within
    # its first polish of 750 evaluations; R33 at dim 1 meets the stop
    # rules after 680 of the 900 evaluations.
    ("scan-parity", ("T37", 2, 748, 4, 748),
     "f812233fdd55bf120f6ce972adde737164fa4539a839c00af54555aaeb202a5b"),
    ("scan-parity", ("R33", 1, 900, 4, 680),
     "40a4b6048ee74c4917fd56398c5183923eb2ef02f2bf4d8d6e1e12939064e0f7"),
    # "scan-structure", (id, dim, budget, seed): the ratio calls and the
    # points they value, which the pins of bits do not see.  A step at dim 2
    # values its reflections and the three points that may follow each in
    # one stack (28 points for T37 and T36, whose 7 restarts search the
    # slice at 20 000 evaluations), and a step at dim 3 values only the
    # points it charges.
    # Splitting the dim-2 stack, or looking ahead at dim 3, moves these
    # counts and no bit.  The Nelder-Mead path they follow rests on the last
    # bits of the values, so they too are taken at the pinned level.
    ("scan-structure", ("T37", 2, 20_000, 21), [1939, 53103]),
    ("scan-structure", ("T36", 2, 20_000, 21), [1992, 55524]),
    ("scan-structure", ("T37", 3, 6_000, 21), [1055, 6000]),
)


def pin_id(kind: str, case: tuple) -> str:
    """A pin's name: a CLI argv without its flags ("scan-T37-2-4000-42"),
    or the kind and its case, joined by "-"."""
    if kind == "cli":
        return "-".join(a for a in case if not a.startswith("--"))
    return "-".join(map(str, (kind, *case)))


PINNED = {pin_id(kind, case): value for kind, case, value in PINS}


def charged_points(iid: str, dim: int, n: int, seed: int) -> list:
    """The parameter rows that sharpness_scan(iid, dim, n, seed) with one
    restart charges to its budget, in order."""
    from hsangle import scan

    rows, charge, space = [], scan._Budget.charge, scan._search_space

    def recording_charge(budget, points, f=None):
        rows.extend(points[: budget.left])
        return charge(budget, points, f)

    def one_restart(inequality_id, d, budget):
        decode, n, _, polish = space(inequality_id, d, budget)
        return decode, n, 1, polish

    scan._Budget.charge, scan._search_space = recording_charge, one_restart
    try:
        scan.sharpness_scan(iid, dim, n, seed)
    finally:
        scan._Budget.charge, scan._search_space = charge, space
    return rows


def _scan_structure(iid: str, dim: int, n: int, seed: int) -> list:
    """The number of ratio calls that sharpness_scan(iid, dim, n, seed)
    makes, and of the points they value."""
    from hsangle import scan

    sizes, ratio_for = [], scan._ratio_for

    def counting_ratio_for(inequality_id):
        ratio = ratio_for(inequality_id)

        def counted(xy):
            sizes.append(xy.shape[1])
            return ratio(xy)

        return counted

    scan._ratio_for = counting_ratio_for
    try:
        scan.sharpness_scan(iid, dim, n, seed)
    finally:
        scan._ratio_for = ratio_for
    return [len(sizes), sum(sizes)]


def _cli(*argv) -> str:
    from hsangle import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _generate() -> str:
    from hsangle import ENSEMBLE_KINDS, GeneratorSpec, generate

    h = hashlib.sha256()
    for kind in ENSEMBLE_KINDS:
        for dim in (1, 2, 3, 4, 5, 6, 7, 8, 17, 32, 64):
            for seed in (0, 1, 2**64 - 1):
                h.update(generate(GeneratorSpec(kind, dim, seed)).a.tobytes())
    return h.hexdigest()


def _scan_parity(iid: str, dim: int, n: int, seed: int, m: int) -> str:
    rows = charged_points(iid, dim, n, seed)[:m]
    return hashlib.sha256(b"".join(r.tobytes() for r in rows)).hexdigest()


_DIGESTS = {"cli": _cli, "generate": _generate, "scan-parity": _scan_parity,
            "scan-structure": _scan_structure}


@functools.cache
def pinned_digests():
    """Each pin's value at the pinned dispatch level, keyed as PINNED, or
    None on a machine that cannot enable X86_V3."""
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
    digests = {pin_id(kind, case): _DIGESTS[kind](*case) for kind, case, _ in PINS}
    print(json.dumps(digests, indent=1))
