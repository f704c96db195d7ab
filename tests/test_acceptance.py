"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS line on success (visible with pytest -s / in the
captured output); scales and tolerances are pinned, not configurable.
"""

import functools
import math
import time

import numpy as np
import pytest

from hsangle import (
    ComplexMatrix,
    ENSEMBLE_KINDS,
    GeneratorSpec,
    INEQUALITY_IDS,
    SUM_SHARP_CONSTANT,
    abs_adjoint,
    abs_op,
    angle_triangle_slack,
    adjoint_link_residual,
    check,
    commutation_identity_residual,
    cos_angle,
    derive_seed,
    franca_abs_2x2,
    generate,
    hs_inner,
    hs_norm,
    polar,
    polar_identity_residuals,
    reproduce_witnesses,
    run_property_suite,
    scale,
    sharpness_scan,
    sin_angle,
    t213_equality_holds,
)

MASTER_SEED = 20260811
NORMAL_KINDS = ("hermitian", "normal", "psd", "unitary")


def _pair(label, index, kind, dims):
    seed = derive_seed(MASTER_SEED, label, index)
    dim = dims[seed % len(dims)]
    x = generate(GeneratorSpec(kind, dim, derive_seed(seed, "x", 0)))
    y = generate(GeneratorSpec(kind, dim, derive_seed(seed, "y", 0)))
    return x, y


def _triple(label, index, kind, dims):
    seed = derive_seed(MASTER_SEED, label, index)
    dim = dims[seed % len(dims)]
    mats = tuple(
        generate(GeneratorSpec(kind, dim, derive_seed(seed, tag, 0))) for tag in ("x", "y", "z")
    )
    return mats


def test_criterion_1_sharp_witness_reproduction():
    t0 = time.perf_counter()
    report = reproduce_witnesses()
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c for c in report.checks}
    assert by_name["norm(|X*|+|Y*|)"].deviation <= 1e-12
    assert by_name["sqrt(2)*norm(|X|+|Y|)"].deviation <= 1e-12
    assert by_name["norm(X+Z)"].deviation <= 1e-9
    assert by_name["sum_sharp_constant*norm(|X|+|Z|)"].deviation <= 1e-9
    assert report.passed
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 (witness reproduction, {elapsed * 1e3:.0f} ms): PASS")


@functools.cache
def _suite_reports(kind):
    """The criterion-2 reports of every id that admits the ensemble, by id,
    from one run: an id's report is the one a run of it alone gives."""
    ids = [i for i in INEQUALITY_IDS if kind in NORMAL_KINDS or i != "R33"]
    specs = [GeneratorSpec(kind, dim) for dim in range(1, 9)]
    reports = run_property_suite(ids, specs, 10_000, 1e-9, MASTER_SEED)
    return {r.inequality_id: r for r in reports}


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_criterion_2_inequality_suite(inequality_id):
    kinds = NORMAL_KINDS if inequality_id == "R33" else ENSEMBLE_KINDS
    for kind in kinds:
        report = _suite_reports(kind)[inequality_id]
        assert report.violations == 0, (
            f"{inequality_id}/{kind}: {report.violations} violations, "
            f"worst {report.worst_slack} at seed {report.worst_seed}"
        )
    print(f"ACCEPTANCE 2 ({inequality_id}: 1e4 trials x {len(kinds)} ensembles): PASS")


def test_criterion_3_identity_residuals():
    dims = tuple(range(1, 7))
    for i in range(10_000):
        x, y, z = _triple("identity-triple", i, "ginibre", dims)
        assert commutation_identity_residual(x, y, z) <= 1e-12
        try:
            assert adjoint_link_residual(x, y, z) <= 1e-12
        except ValueError:
            pass  # degenerate product: identity not applicable
    for i in range(10_000):
        seed = derive_seed(MASTER_SEED, "weiss", i)
        dim = dims[seed % len(dims)]
        kind = NORMAL_KINDS[seed % len(NORMAL_KINDS)]
        x = generate(GeneratorSpec(kind, dim, derive_seed(seed, "x", 0)))
        y = generate(GeneratorSpec(kind, dim, derive_seed(seed, "y", 0)))
        z = generate(GeneratorSpec("ginibre", dim, derive_seed(seed, "z", 0)))
        lhs = hs_norm(ComplexMatrix(x.a @ z.a - z.a @ y.a))
        rhs = hs_norm(ComplexMatrix(x.a.conj().T @ z.a - z.a @ y.a.conj().T))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + lhs)
    print("ACCEPTANCE 3 (identity residuals, 2x1e4 triples): PASS")


def test_criterion_4_spectral_correctness():
    for kind in ENSEMBLE_KINDS:
        for dim in range(1, 9):
            for i in range(25):
                x = generate(
                    GeneratorSpec(kind, dim, derive_seed(MASTER_SEED, f"abs-{kind}-{dim}", i))
                )
                p = abs_op(x)
                residual = hs_norm(ComplexMatrix(p.a @ p.a - x.a.conj().T @ x.a))
                assert residual <= 1e-10 * (1.0 + hs_norm(x) ** 2)
                parts = polar(x)
                for name, value in polar_identity_residuals(x, parts).items():
                    assert value <= 1e-10, f"{kind}/{dim}: {name} = {value}"
    # abs_op takes the closed form for 2x2 too; the reference is V S V*
    # from numpy's SVD, formed here.
    for i in range(10_000):
        seed = derive_seed(MASTER_SEED, "franca", i)
        a = generate(GeneratorSpec("ginibre", 2, seed))
        _, s, vh = np.linalg.svd(a.a)
        dev = hs_norm(ComplexMatrix(franca_abs_2x2(a).a - (vh.conj().T * s) @ vh))
        assert dev <= 1e-10 * (1.0 + hs_norm(a))
    print("ACCEPTANCE 4 (spectral: abs/polar/closed-form 2x2): PASS")


def test_criterion_5_sharpness_scans():
    t0 = time.perf_counter()
    r37 = sharpness_scan("T37", 2, 100_000, MASTER_SEED)
    t37 = time.perf_counter() - t0
    assert t37 < 60.0
    assert r37.best_ratio >= 0.999 * SUM_SHARP_CONSTANT
    assert r37.best_ratio <= SUM_SHARP_CONSTANT * (1.0 + 1e-9)

    t0 = time.perf_counter()
    r36 = sharpness_scan("T36", 2, 100_000, MASTER_SEED)
    t36 = time.perf_counter() - t0
    assert t36 < 60.0
    assert r36.best_ratio >= 0.999 * math.sqrt(2.0)
    assert r36.best_ratio <= math.sqrt(2.0) * (1.0 + 1e-9)
    print(
        f"ACCEPTANCE 5 (scans: T37 {r37.best_ratio / r37.target:.6f} of target in {t37:.0f}s, "
        f"T36 {r36.best_ratio / r36.target:.6f} in {t36:.0f}s): PASS"
    )


def test_criterion_6_equality_conditions():
    for i in range(50):
        x = generate(GeneratorSpec("ginibre", 4, derive_seed(MASTER_SEED, "eq-self", i)))
        assert t213_equality_holds(x, x)
        rep = check("T213", x, x)
        assert abs(rep.slack) <= 1e-9 * rep.scale
    x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
    y = ComplexMatrix.from_rows([[0, 0], [0, 1]])
    assert t213_equality_holds(x, y)
    rep = check("T213", x, y)
    assert rep.lhs == 0.0
    assert abs(rep.rhs) <= 1e-14
    print("ACCEPTANCE 6 (equality conditions): PASS")


def test_criterion_7_angle_axioms():
    dims = tuple(range(1, 7))
    rng = np.random.default_rng(MASTER_SEED)
    for i in range(10_000):
        x, y, z = _triple("angle-axioms", i, "ginibre", dims)
        inner = hs_inner(x, y)
        bound = hs_norm(x) * hs_norm(y)
        tol = 1e-10 * (bound + 1.0)
        chain = [-bound, -abs(inner), inner.real, abs(inner), bound]
        for lo, hi in zip(chain, chain[1:]):
            assert hi - lo >= -tol
        c, s = cos_angle(x, y), sin_angle(x, y)
        assert abs(c * c + s * s - 1.0) <= 1e-10
        gamma = complex(rng.normal(), rng.normal())
        if abs(gamma) > 1e-3:
            assert abs(cos_angle(scale(gamma, x), scale(gamma, y)) - c) <= 1e-10
        al, be = rng.normal(), rng.normal()
        if min(abs(al), abs(be)) > 1e-3:
            expected = math.copysign(1.0, al * be) * c
            assert abs(cos_angle(scale(al, x), scale(be, y)) - expected) <= 1e-10
        sin_slack, theta_slack = angle_triangle_slack(x, y, z)
        assert sin_slack >= -1e-10
        assert theta_slack >= -1e-10
    print("ACCEPTANCE 7 (angle axioms, 1e4 triples): PASS")


def test_criterion_8_constructed_consequences():
    rng = np.random.default_rng(MASTER_SEED + 1)
    # Pythagoras on exactly orthogonal supports
    for _ in range(100):
        a, b = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        x = ComplexMatrix(np.array([[a, 0], [0, 0]]))
        y = ComplexMatrix(np.array([[0, 0], [0, b]]))
        total = hs_norm(ComplexMatrix(x.a + y.a)) ** 2
        assert abs(total - (abs(a) ** 2 + abs(b) ** 2)) <= 1e-10 * (total + 1.0)
    # parallel norm collapse, both signs
    for _ in range(100):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = ComplexMatrix(g)
        lam = rng.normal()
        if abs(lam) < 1e-3:
            continue
        y = scale(lam, x)
        total = hs_norm(ComplexMatrix(x.a + y.a))
        expected = abs(hs_norm(x) + math.copysign(1.0, lam) * hs_norm(y))
        assert abs(total - expected) <= 1e-10 * (1.0 + expected)
    # disjoint moduli force weak orthogonality
    for _ in range(100):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = ComplexMatrix(np.outer(u, np.array([1, 0, 0])))
        y = ComplexMatrix(np.outer(v, np.array([0, 1, 0])))
        assert abs(hs_inner(abs_op(x), abs_op(y)).real) <= 1e-12
        assert abs(cos_angle(x, y)) <= 1e-10
    # real multiples have parallel moduli
    for _ in range(100):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = ComplexMatrix(g)
        lam = rng.normal()
        if abs(lam) < 1e-3:
            continue
        y = scale(lam, x)
        assert sin_angle(abs_adjoint(x), abs_adjoint(y)) <= 1e-8
        assert sin_angle(abs_op(x), abs_op(y)) <= 1e-8
    print("ACCEPTANCE 8 (orthogonality/parallelism consequences): PASS")
