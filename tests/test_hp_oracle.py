"""check against the 50-digit reference of tests/hp_oracle.py: for every
registry id, the float64 slack/scale is within ORACLE_TOL of the one the
reference computes from the same operands."""

import pytest

from hp_oracle import registry_sides, relative_slack
from hsangle import ENSEMBLE_KINDS, INEQUALITY_IDS, GeneratorSpec, check, generate
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
