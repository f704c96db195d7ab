import math

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

    def test_r33_on_normal_pairs(self):
        for seed in range(100):
            x = generate(GeneratorSpec("normal", 4, seed))
            y = generate(GeneratorSpec("normal", 4, 50_000 + seed))
            rep = check("R33", x, y)
            assert rep.holds

    def test_unknown_id(self):
        with pytest.raises(UnknownInequalityError):
            check("T99", identity(2), identity(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            check("CS_21", identity(2), identity(3))
        with pytest.raises(ShapeError):
            check("CS_21", ComplexMatrix(np.ones((2, 3), dtype=complex)),
                  ComplexMatrix(np.ones((2, 3), dtype=complex)))

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


class TestAngleTriangle:
    def test_bridge_equals_endpoint(self):
        rng = np.random.default_rng(70)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        sin_slack, theta_slack = angle_triangle_slack(x, y, x)
        assert abs(sin_slack) <= 1e-12
        # theta(X,X) is acos-limited: 0 up to ~sqrt(eps)
        assert -1e-12 <= theta_slack <= 1e-7

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
