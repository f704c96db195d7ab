"""The search quality of the sharpness scanner at dim 2: T37 and T36, each
scanned with 100 000 evaluations from every seed of two sets, the
benchmark's twelve (run_seed("scan_sharp", 0..11) of perfbench/workloads.py)
with 3000-3059, and 1000-1299.  Prints one JSON object: per id and seed
set, and over both sets ("all"), the worst best/target and its seed, the mean
shortfall 1 - best/target, the count of scans below 0.9999 and the count
above target * (1 + 1e-9).  Runs the scanner of the checkout it sits in,
on one core for about 8 minutes (a shared 2-vCPU Xeon host, Python 3.11):

    OPENBLAS_NUM_THREADS=1 python tests/scan_quality.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import run_seed  # noqa: E402

from hsangle import sharpness_scan  # noqa: E402

EVALUATIONS, DIM, BAND, OVER = 100_000, 2, 0.9999, 1e-9
SEED_SETS = {
    "bench+3000-3059": [run_seed("scan_sharp", i) for i in range(12)] + list(range(3000, 3060)),
    "1000-1299": list(range(1000, 1300)),
}


def summary(fractions: dict) -> dict:
    """The quality figures of scans, given as {seed: best/target}."""
    worst = min(fractions, key=fractions.get)
    return {
        "scans": len(fractions),
        "worst": fractions[worst],
        "worst_seed": worst,
        "mean_shortfall": sum(1.0 - f for f in fractions.values()) / len(fractions),
        "below_band": sum(f < BAND for f in fractions.values()),
        "above_target": sum(f > 1.0 + OVER for f in fractions.values()),
    }


def main() -> dict:
    out = {}
    for iid in ("T37", "T36"):
        every, out[iid] = {}, {}
        for name, seeds in SEED_SETS.items():
            fractions = {}
            for seed in seeds:
                result = sharpness_scan(iid, DIM, EVALUATIONS, seed)
                fractions[seed] = result.best_ratio / result.target
            out[iid][name] = summary(fractions)
            every.update(fractions)
        out[iid]["all"] = summary(every)
    return out


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
