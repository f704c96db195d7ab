"""The registry record of each id: its degree checked numerically, the
tables derived from the records, and the one unknown-id check that every
consumer goes through."""

import numpy as np
import pytest

from hsangle import (
    ENSEMBLE_KINDS,
    INEQUALITY_IDS,
    GeneratorSpec,
    UnknownInequalityError,
    applicable_specs,
    run_property_suite,
    sharpness_scan,
)
from hsangle.inequality_suite import (
    _REGISTRY,
    ANGLE_IDS,
    NORMAL_ONLY_IDS,
    SQRT2,
    SUM_SHARP_CONSTANT,
    _OperandStack,
    _sides,
)
from hsangle.random_lab import _draw, derive_seed
from hsangle.scan import SCAN_TARGETS, _ratio_for

KNOWN = "known: " + ", ".join(INEQUALITY_IDS)


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_degree_matches_power_of_two_scaling(inequality_id):
    # dim 2 takes the closed-form moduli, dim 3 the SVD.
    degree = _REGISTRY[inequality_id].degree
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in (2, 3)]
    for spec in applicable_specs(inequality_id, specs):
        seeds = [[derive_seed(7, f"{label}:{spec.kind}", i) for i in range(4)] for label in "xy"]
        xy = _draw(spec.kind, spec.dim, np.array(seeds, dtype=np.uint64))
        base = _sides(inequality_id, _OperandStack(xy))
        for k in (-3, -1, 1, 2, 5):
            scaled_pair = _OperandStack(np.ldexp(1.0, k) * xy)
            for side, scaled in zip(base, _sides(inequality_id, scaled_pair)):
                np.testing.assert_array_equal(scaled, np.ldexp(side, degree * k))


def test_derived_tables_keep_their_values():
    assert INEQUALITY_IDS == (
        "CS_21", "T213", "T214i", "T214ii", "T214iii", "T31", "C32",
        "R33", "T34", "T35", "L31", "T36", "L32", "T37",
    )
    assert ANGLE_IDS == frozenset({"T214i", "T214ii", "T214iii", "L31", "L32"})
    assert NORMAL_ONLY_IDS == frozenset({"R33"})
    assert isinstance(ANGLE_IDS, frozenset) and isinstance(NORMAL_ONLY_IDS, frozenset)
    assert SCAN_TARGETS == {"T36": SQRT2, "T37": SUM_SHARP_CONSTANT, "C32": SQRT2, "R33": 1.0}


def test_applicable_specs_rejects_unknown_id():
    with pytest.raises(UnknownInequalityError, match=KNOWN):
        applicable_specs("BOGUS", [GeneratorSpec("ginibre", 2)])


def test_run_property_suite_names_the_known_ids():
    with pytest.raises(UnknownInequalityError, match=KNOWN):
        run_property_suite(["BOGUS"], [GeneratorSpec("ginibre", 2)], 3)


def test_sharpness_scan_rejects_unknown_id():
    with pytest.raises(UnknownInequalityError, match=KNOWN):
        sharpness_scan("BOGUS", 2, 10)
    with pytest.raises(UnknownInequalityError, match=KNOWN):
        _ratio_for("BOGUS")


def test_known_id_without_target_is_not_scannable():
    with pytest.raises(ValueError, match="no scannable ratio form") as info:
        sharpness_scan("T31", 2, 10)
    assert not isinstance(info.value, UnknownInequalityError)
