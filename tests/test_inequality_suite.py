import json
import math
import warnings

import numpy as np
import pytest

from hsangle import (
    ComplexMatrix,
    DegenerateIdentityError,
    GeneratorSpec,
    INEQUALITY_IDS,
    NotNormalError,
    ShapeError,
    UnknownInequalityError,
    ValidationError,
    adjoint,
    adjoint_link_residual,
    angle_triangle_slack,
    check,
    commutation_identity_residual,
    cos_angle,
    generate,
    hs_inner,
    hs_norm,
    identity,
    is_normal,
    scale,
    sin_angle,
    t213_equality_holds,
    witness_triple,
    zeros,
    abs_op,
    abs_adjoint,
)
from hsangle.cli import main


# A sharpness_scan("C32", 2, 3000, 1) witness rounded to three decimals: a
# non-normal pair whose norm(|X| - |Y|) / norm(X - Y) is 1.356, so R33's
# sides at it read as a violation.
R33_NON_NORMAL = (
    [[0.419 + 0.06j, 1.6 - 0.209j], [-0.529 + 0.895j, -0.566 + 3.326j]],
    [[0.402 + 0.835j, 1.35 - 0.441j], [-1.846 + 0.27j, 0.023 + 2.862j]],
)


def random_matrix(rng, n):
    return ComplexMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


class TestRegistry:
    def test_all_ids_present(self):
        assert INEQUALITY_IDS == (
            "CS_21", "T213", "T214i", "T214ii", "T214iii", "T31", "C32",
            "R33", "T34", "T35", "L31", "T36", "L32", "T37",
        )

    def test_t36_sharp_witness(self):
        x, y, _ = witness_triple()
        rep = check("T36", x, y)
        assert abs(rep.lhs - 2.0) <= 1e-12
        assert abs(rep.rhs - 2.0) <= 1e-12
        assert abs(rep.slack) <= 1e-12 * rep.scale
        assert rep.holds

    def test_t37_sharp_witness(self):
        x, _, z = witness_triple()
        rep = check("T37", x, z)
        assert abs(rep.lhs - 8.0**0.25) <= 1e-9
        assert abs(rep.rhs - 8.0**0.25) <= 1e-9
        assert abs(rep.slack) <= 1e-9 * rep.scale
        assert rep.holds

    @pytest.mark.parametrize("iid", ["T214i", "T214ii", "T214iii", "L31", "L32"])
    def test_angle_ids_hold_on_tiny_operands(self, iid):
        # norm(X) norm(Y) ~ 1e-400 underflows; the cosines must not divide by it.
        x, y, z = witness_triple()
        rng = np.random.default_rng(8)
        pairs = [(identity(2), identity(2)), (x, y), (x, z)]
        pairs += [(random_matrix(rng, 3), random_matrix(rng, 3)) for _ in range(5)]
        for a, b in pairs:
            assert check(iid, scale(1e-200, a), scale(1e-200, b)).holds

    def test_t213_self_pair_equality(self):
        rng = np.random.default_rng(60)
        x = random_matrix(rng, 4)
        rep = check("T213", x, x)
        n4 = hs_norm(x) ** 4
        assert abs(rep.lhs - n4) <= 1e-10 * n4
        assert abs(rep.rhs - n4) <= 1e-10 * n4
        assert abs(rep.slack) <= 1e-9 * rep.scale

    def test_cs21_self_pair(self):
        rng = np.random.default_rng(61)
        x = random_matrix(rng, 3)
        rep = check("CS_21", x, x)
        assert abs(rep.slack) <= 1e-12 * rep.scale

    @pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
    def test_random_pairs_hold(self, inequality_id):
        kind = "normal" if inequality_id == "R33" else "ginibre"
        for seed in range(200):
            x = generate(GeneratorSpec(kind, 1 + seed % 5, 3 * seed))
            y = generate(GeneratorSpec(kind, 1 + seed % 5, 3 * seed + 1))
            rep = check(inequality_id, x, y)
            assert rep.holds, f"{inequality_id} violated: {rep}"

    @pytest.mark.parametrize("inequality_id", sorted({"T214i", "T214ii", "T214iii", "L31", "L32"}))
    def test_zero_operand_trivially_holds(self, inequality_id):
        rep = check(inequality_id, zeros(2, 2), identity(2))
        assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_zero_operands_on_norm_ids(self):
        z, e = zeros(2, 2), identity(2)
        for inequality_id in ("CS_21", "T213", "T31", "C32", "T34", "T35", "T36", "T37"):
            assert check(inequality_id, z, e).holds
            assert check(inequality_id, z, z).holds

    def test_r33_rejects_non_normal(self):
        non_normal = ComplexMatrix.from_rows([[0, 1], [0, 0]])
        assert not is_normal(non_normal)
        with pytest.raises(NotNormalError):
            check("R33", non_normal, identity(2))

    @pytest.mark.parametrize("k", [-1000, -100, -30, -20, 0, 20, 1000])
    def test_r33_rejects_a_non_normal_pair_at_every_scale(self, k):
        # Normality is decided relative to norm(X)^2, so scaling cannot
        # change it; an absolute floor took this pair for normal at 2^-20
        # and below, and R33 then reported a violation.
        x, y = (scale(2.0**k, ComplexMatrix.from_rows(m)) for m in R33_NON_NORMAL)
        assert not is_normal(x) and not is_normal(y)
        with pytest.raises(NotNormalError):
            check("R33", x, y)

    def test_r33_check_on_a_tiny_non_normal_pair_exits_2(self, tmp_path, capsys):
        paths = [str(tmp_path / "x.json"), str(tmp_path / "y.json")]
        for path, rows in zip(paths, R33_NON_NORMAL):
            m = scale(1e-6, ComplexMatrix.from_rows(rows))
            with open(path, "w") as f:
                json.dump(m.to_json_dict(), f)
        assert main(["check", "--id", "R33", *paths]) == 2
        assert "requires normal operands" in capsys.readouterr().err

    def test_r33_on_normal_pairs(self):
        for seed in range(100):
            x = generate(GeneratorSpec("normal", 4, seed))
            y = generate(GeneratorSpec("normal", 4, 50_000 + seed))
            rep = check("R33", x, y)
            assert rep.holds

    @pytest.mark.parametrize("k", [500, 700, 900])
    def test_normal_operands_stay_normal_at_large_scale(self, k):
        # Unscaled, the commutator XX* - X*X or its norm overflows at these scales.
        for dim in (1, 2, 3, 5, 8):
            for seed in range(5):
                x = generate(GeneratorSpec("normal", dim, seed))
                assert is_normal(scale(2.0**k, x))

    def test_is_normal_requires_a_square_matrix(self):
        with pytest.raises(ShapeError, match="2x3"):
            is_normal(ComplexMatrix(np.ones((2, 3), dtype=complex)))

    def test_subnormal_operands_stay_normal(self):
        # 2^-e near the largest entry overflows when that entry is subnormal.
        assert is_normal(ComplexMatrix.from_rows([[1e-310 + 2e-310j]]))
        assert is_normal(scale(2.0**-1030, generate(GeneratorSpec("normal", 3, 0))))

    def test_unknown_id(self):
        with pytest.raises(UnknownInequalityError):
            check("T99", identity(2), identity(2))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, tol):
        # A NaN tol would report every pair violated, and an infinite one
        # would hide every violation.
        with pytest.raises(ValidationError, match=f"tol must be finite and positive, got {tol!r}"):
            check("CS_21", identity(2), identity(2), tol)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            check("CS_21", identity(2), identity(3))
        with pytest.raises(ShapeError):
            check("CS_21", ComplexMatrix(np.ones((2, 3), dtype=complex)),
                  ComplexMatrix(np.ones((2, 3), dtype=complex)))

    @pytest.mark.parametrize("inequality_id", ["T36", "T34"])
    def test_a_side_outside_float64_is_refused_without_a_warning(self, inequality_id):
        # T36: for X = a [[1, 0], [1, 0]], a = 1.7e308, |X| = diag(sqrt(2) a,
        # 0) and the sides at (X, X), about 5e308 and 7e308, are outside
        # float64.  T34: at 1e160-scaled normal 3x3 operands norm(X+Y)^2 is
        # about 1e321.  Under the test run's RuntimeWarning-as-error filter,
        # numpy's overflow warning would be raised in place of the error.
        if inequality_id == "T36":
            x = y = ComplexMatrix(1.7e308 * np.array([[1, 0], [1, 0]], dtype=complex))
        else:
            x, y = (scale(1e160, generate(GeneratorSpec("normal", 3, s))) for s in (0, 1))
        with pytest.raises(ValidationError, match=f"outside float64 .* the lhs of {inequality_id}"):
            check(inequality_id, x, y)

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(62)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        rep = check("T31", x, y)
        assert rep.scale == max(abs(rep.lhs), abs(rep.rhs), 1.0)
        assert rep.slack == rep.rhs - rep.lhs
        assert rep.holds == (rep.slack >= -1e-9 * rep.scale)
        assert len(rep.operands_digest) == 16
        d = rep.to_json_dict()
        assert set(d) == {"id", "lhs", "rhs", "slack", "holds", "scale", "operands_digest"}


class TestSlackCrossChecks:
    def test_t213_normalization_bounds_t214i(self):
        # cos^2 uses only the real part of the inner product, so the T214i
        # slack dominates the T213 slack divided by the squared norms.
        rng = np.random.default_rng(63)
        for _ in range(60):
            x, y = random_matrix(rng, 4), random_matrix(rng, 4)
            r213 = check("T213", x, y)
            r214i = check("T214i", x, y)
            r214ii = check("T214ii", x, y)
            assert r213.holds and r214i.holds and r214ii.holds
            norms_sq = (hs_norm(x) * hs_norm(y)) ** 2
            assert r214i.slack >= r213.slack / norms_sq - 1e-10 * r214i.scale


class TestCommutationIdentity:
    def test_zero_z(self):
        rng = np.random.default_rng(64)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        assert commutation_identity_residual(x, y, zeros(3, 3)) == 0.0

    def test_random_triples(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            x, y, z = (random_matrix(rng, 6) for _ in range(3))
            assert commutation_identity_residual(x, y, z) <= 1e-12

    def test_large_operands(self):
        # Squared norms of the products of X = 1e160 I overflow unless the
        # products are scaled first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = commutation_identity_residual(scale(1e160, identity(2)), identity(2), identity(2))
        assert residual <= 1e-12

    def test_in_range_residual_is_the_unscaled_formula(self):
        # The power-of-two scaling is exact: the residual keeps its bits.
        rng = np.random.default_rng(63)
        for _ in range(20):
            x, y, z = (random_matrix(rng, 4) for _ in range(3))
            xz, zy, xsz, zys = x.a @ z.a, z.a @ y.a, x.a.conj().T @ z.a, z.a @ y.a.conj().T
            n = np.linalg.norm
            lhs = n(xz - zy) ** 2 + n(xsz) ** 2 + n(zys) ** 2
            rhs = n(xz) ** 2 + n(zy) ** 2 + n(xsz - zys) ** 2
            assert commutation_identity_residual(x, y, z) == abs(lhs - rhs) / (1.0 + lhs)

    def test_normal_pair_norm_transfer(self):
        rng = np.random.default_rng(66)
        for seed in range(40):
            x = generate(GeneratorSpec("normal", 4, seed))
            y = generate(GeneratorSpec("normal", 4, 90_000 + seed))
            z = random_matrix(rng, 4)
            lhs = hs_norm(ComplexMatrix(x.a @ z.a - z.a @ y.a))
            rhs = hs_norm(ComplexMatrix(x.a.conj().T @ z.a - z.a @ y.a.conj().T))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + lhs)


class TestAdjointLink:
    def test_hermitian_with_identity_bridge(self):
        rng = np.random.default_rng(67)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = ComplexMatrix((g + g.conj().T) / 2)
        assert adjoint_link_residual(x, x, identity(3)) <= 1e-13

    def test_random_triples(self):
        rng = np.random.default_rng(68)
        for _ in range(60):
            x, y, z = (random_matrix(rng, 5) for _ in range(3))
            assert adjoint_link_residual(x, y, z) <= 1e-12

    def test_unitary_pair(self):
        rng = np.random.default_rng(69)
        for seed in range(20):
            u = generate(GeneratorSpec("unitary", 4, seed))
            z = random_matrix(rng, 4)
            assert adjoint_link_residual(u, u, z) <= 1e-12

    def test_degenerate_product(self):
        with pytest.raises(DegenerateIdentityError):
            adjoint_link_residual(zeros(2, 2), identity(2), identity(2))

    def test_tiny_products_are_not_zero(self):
        # norm(1e-170 I) underflows in np.linalg.norm's sum of squares, but
        # the product is nonzero and the identity holds.
        tiny = scale(1e-170, identity(2))
        assert adjoint_link_residual(tiny, identity(2), identity(2)) <= 1e-13
        assert adjoint_link_residual(identity(2), tiny, identity(2)) <= 1e-13


class TestAngleTriangle:
    def test_bridge_equals_endpoint(self):
        rng = np.random.default_rng(70)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        sin_slack, theta_slack = angle_triangle_slack(x, y, x)
        assert abs(sin_slack) <= 1e-12
        # theta(X,X) by atan2(sin, cos) is 0 to roundoff: 0.0 here, and at
        # most 4.4e-16 over the bridges of seeds 0-199.
        assert -1e-12 <= theta_slack <= 1e-14

    @pytest.mark.parametrize("a, b", [(2, 3), (3, 2), (0.5, 7), (5, 1.25)])
    def test_collinear_triples_have_zero_theta_slack(self, a, b):
        # Every angle among X, aX and bX is 0 for positive a and b.  acos
        # of a cosine rounded near 1 keeps only half the digits: it read
        # theta-slacks down to -2.6e-8, a false violation of the triangle
        # inequality; atan2 reads at most 1.5e-16 in magnitude.
        for seed in range(50):
            x = generate(GeneratorSpec("ginibre", 3, seed))
            sin_slack, theta_slack = angle_triangle_slack(x, scale(b, x), scale(a, x))
            assert abs(sin_slack) <= 1e-14
            assert abs(theta_slack) <= 1e-14

    def test_symmetric_bridge(self):
        x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
        y = ComplexMatrix.from_rows([[0, 0], [0, 1]])
        mid = ComplexMatrix((x.a + y.a) / math.sqrt(2))
        sin_slack, _ = angle_triangle_slack(x, y, mid)
        assert abs(sin_slack - (math.sqrt(2) - 1.0)) <= 1e-12

    def test_random_triples_nonnegative(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            x, y, z = (random_matrix(rng, 4) for _ in range(3))
            sin_slack, theta_slack = angle_triangle_slack(x, y, z)
            assert sin_slack >= -1e-10
            assert theta_slack >= -1e-10


class TestShapeRefusals:
    def test_t213_equality_requires_equal_shapes(self):
        with pytest.raises(ShapeError, match="t213_equality_holds requires square matrices"):
            t213_equality_holds(identity(2), identity(3))

    @pytest.mark.parametrize("residual", [commutation_identity_residual, adjoint_link_residual])
    def test_identity_residuals_require_conformable_operands(self, residual):
        # XZ is 2x2 and ZY would be 2x2 times 3x3.
        with pytest.raises(ShapeError, match=f"{residual.__name__} requires conformable"):
            residual(identity(2), identity(3), identity(2))


class TestT213Equality:
    def test_self_pair(self):
        rng = np.random.default_rng(72)
        x = random_matrix(rng, 4)
        assert t213_equality_holds(x, x)

    def test_disjoint_supports_trace_zero(self):
        x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
        y = ComplexMatrix.from_rows([[0, 0], [0, 1]])
        assert t213_equality_holds(x, y)
        rep = check("T213", x, y)
        assert rep.lhs == 0.0 and abs(rep.rhs) <= 1e-14

    def test_constructed_equality_pair(self):
        # Y = X (X*X + I): then Y*X = (X*X + I) X*X is PSD and commutes.
        rng = np.random.default_rng(73)
        for _ in range(20):
            x = random_matrix(rng, 3)
            h = x.a.conj().T @ x.a
            y = ComplexMatrix(x.a @ (h + np.eye(3)))
            assert t213_equality_holds(x, y)
            rep = check("T213", x, y)
            assert abs(rep.slack) <= 1e-9 * rep.scale

    def test_generic_pair_is_strict(self):
        x = identity(2)
        y = ComplexMatrix.from_rows([[1, 1], [0, 1]])
        assert not t213_equality_holds(x, y)
        rep = check("T213", x, y)
        assert rep.slack > 1e-3 * rep.scale


class TestCorollaries:
    def test_parallel_transitivity(self):
        rng = np.random.default_rng(74)
        x = random_matrix(rng, 3)
        z = scale(-3.0, x)
        y = scale(0.5, z)
        assert sin_angle(x, z) <= 1e-8
        assert sin_angle(z, y) <= 1e-8
        assert sin_angle(x, y) <= 1e-8

    def test_orthogonal_parallel_mixing(self):
        rng = np.random.default_rng(75)
        gamma = complex(rng.normal(), rng.normal())
        delta = complex(rng.normal(), rng.normal())
        x = ComplexMatrix(gamma * np.array([[1, 0], [0, 0]], dtype=complex))
        y = ComplexMatrix(delta * np.array([[0, 0], [0, 1]], dtype=complex))
        z = scale(2.5, y)
        assert abs(cos_angle(x, y)) <= 1e-12
        assert sin_angle(z, y) <= 1e-8
        assert abs(cos_angle(x, z)) <= 1e-12

    def test_disjoint_moduli_force_orthogonality(self):
        # |X|, |Y| have disjoint supports -> the pair is weak orthogonal.
        rng = np.random.default_rng(76)
        for _ in range(20):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            x = ComplexMatrix(np.outer(u, np.array([1, 0, 0])))
            y = ComplexMatrix(np.outer(v, np.array([0, 1, 0])))
            assert abs(hs_inner(abs_op(x), abs_op(y)).real) <= 1e-12
            assert abs(cos_angle(x, y)) <= 1e-10

    def test_parallel_pair_has_parallel_moduli(self):
        rng = np.random.default_rng(77)
        for lam in (2.0, -0.7):
            x = random_matrix(rng, 3)
            y = scale(lam, x)
            assert sin_angle(abs_adjoint(x), abs_adjoint(y)) <= 1e-8
            assert sin_angle(abs_op(x), abs_op(y)) <= 1e-8

    def test_parallel_norm_collapse(self):
        rng = np.random.default_rng(78)
        for lam in (1.5, -0.25):
            x = random_matrix(rng, 4)
            y = scale(lam, x)
            total = hs_norm(ComplexMatrix(x.a + y.a))
            expected = abs(hs_norm(x) + math.copysign(1.0, lam) * hs_norm(y))
            assert abs(total - expected) <= 1e-10 * (1.0 + expected)
