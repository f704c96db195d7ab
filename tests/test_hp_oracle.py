"""check against the 50-digit reference of tests/hp_oracle.py: for every
registry id, the float64 slack/scale is within ORACLE_TOL of the one the
reference computes from the same operands; and the witnesses of the pinned
scans obey their inequality at 50 digits, with the reported ratio."""

import pytest
from mpmath import mp

from hp_oracle import DIGITS, registry_sides, relative_slack
from hsangle import ENSEMBLE_KINDS, INEQUALITY_IDS, GeneratorSpec, check, generate, sharpness_scan
from hsangle.random_lab import NORMAL_ENSEMBLE_KINDS

# A bound on the float64 forward error of slack/scale, far above what these
# pairs show and far below the check tolerance 1e-9.
ORACLE_TOL = 1e-12


def oracle_deviations(kind, dims=(1, 2, 3), seeds=(0, 1)):
    """|check - oracle| of slack/scale per (id, dim, seed) for pairs of the
    ensemble; R33 only where the ensemble is normal."""
    ids = [i for i in INEQUALITY_IDS if i != "R33" or kind in NORMAL_ENSEMBLE_KINDS]
    out = {}
    for dim in dims:
        for seed in seeds:
            x, y = (generate(GeneratorSpec(kind, dim, 2 * seed + k)) for k in (0, 1))
            sides = registry_sides(x.a, y.a)
            for iid in ids:
                rep = check(iid, x, y)
                out[iid, dim, seed] = abs(rep.slack / rep.scale - relative_slack(*sides[iid]))
    return out


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_check_matches_the_50_digit_oracle(kind):
    deviations = oracle_deviations(kind)
    worst = max(deviations, key=deviations.get)
    assert deviations[worst] <= ORACLE_TOL, worst


# The scans of the CLI pins in tests/pins.py, as (id, dim, iterations, seed).
PINNED_SCANS = [("T37", 2, 4000, 42), ("T36", 2, 4000, 42), ("C32", 2, 4000, 42), ("T37", 3, 3000, 5)]


@pytest.mark.parametrize("iid, dim, n, seed", PINNED_SCANS)
def test_scan_witness_holds_at_50_digits(iid, dim, n, seed):
    # The witness of a scan obeys its inequality in the 50-digit reference,
    # and the best ratio the scan reports is that reference's
    # target * lhs / rhs, with the target as the scan rounds it, to about
    # a float64 rounding of each side.
    result = sharpness_scan(iid, dim, n, seed)
    lhs, rhs = registry_sides(result.witness_x.a, result.witness_y.a)[iid]
    assert lhs <= rhs
    with mp.workdps(DIGITS):
        ratio = mp.mpf(result.target) * lhs / rhs
        assert abs(result.best_ratio - ratio) <= 1e-13 * ratio
