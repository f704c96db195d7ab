"""The search quality of the sharpness scanner at dim 2: T37 and T36, each
scanned with --evaluations evaluations (100 000 by default, the benchmark's
budget) from every seed of two sets, the benchmark's twelve
(run_seed("scan_sharp", 0..11) of perfbench/workloads.py) with 3000-3059,
and 1000-1299.  Prints one JSON object: per id and seed set, and over both
sets ("all"), the worst best/target and its seed, the mean shortfall
1 - best/target, the count of scans below the band (0.9999, or 0.999 below
100 000 evaluations) and the count above target * (1 + 1e-9); and per id,
the evaluations per second of all its scans in this process, so that one
run shows what a change of width or of kernel costs as well as what it
buys.  Runs the scanner of the checkout it sits in, on one core for about
6 minutes at the default budget and 3 at 20 000 or 4 000 (a shared 2-vCPU
Xeon host, Python 3.11):

    OPENBLAS_NUM_THREADS=1 python tests/scan_quality.py [--evaluations N]
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import run_seed  # noqa: E402

from hsangle import sharpness_scan  # noqa: E402

EVALUATIONS, DIM, OVER = 100_000, 2, 1e-9
SEED_SETS = {
    "bench+3000-3059": [run_seed("scan_sharp", i) for i in range(12)] + list(range(3000, 3060)),
    "1000-1299": list(range(1000, 1300)),
}


def band(evaluations: int) -> float:
    """The best/target a scan of that many evaluations is counted against:
    0.9999 at the benchmark's budget and above, 0.999 (criterion 5) below."""
    return 0.9999 if evaluations >= EVALUATIONS else 0.999


def summary(fractions: dict, floor: float) -> dict:
    """The quality figures of scans, given as {seed: best/target}."""
    worst = min(fractions, key=fractions.get)
    return {
        "scans": len(fractions),
        "worst": fractions[worst],
        "worst_seed": worst,
        "mean_shortfall": sum(1.0 - f for f in fractions.values()) / len(fractions),
        "band": floor,
        "below_band": sum(f < floor for f in fractions.values()),
        "above_target": sum(f > 1.0 + OVER for f in fractions.values()),
    }


def main(evaluations: int = EVALUATIONS) -> dict:
    out, floor = {"evaluations": evaluations}, band(evaluations)
    for iid in ("T37", "T36"):
        every, out[iid], t0 = {}, {}, time.perf_counter()
        for name, seeds in SEED_SETS.items():
            fractions = {}
            for seed in seeds:
                result = sharpness_scan(iid, DIM, evaluations, seed)
                fractions[seed] = result.best_ratio / result.target
            out[iid][name] = summary(fractions, floor)
            every.update(fractions)
        out[iid]["all"] = summary(every, floor)
        out[iid]["evaluations_per_s"] = len(every) * evaluations / (time.perf_counter() - t0)
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--evaluations", type=int, default=EVALUATIONS,
                        help=f"evaluations per scan (default {EVALUATIONS})")
    print(json.dumps(main(parser.parse_args().evaluations), indent=1))
