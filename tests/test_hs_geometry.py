import math

import numpy as np
import pytest

from hp_oracle import norm as oracle_norm
from hsangle import (
    ComplexMatrix,
    ComplexVector,
    GeneratorSpec,
    ShapeError,
    ZeroOperandError,
    adjoint,
    angle_report,
    check,
    cos_angle,
    cosine_expansion,
    generate,
    hs_inner,
    hs_norm,
    identity,
    is_weak_orthogonal,
    is_weak_parallel,
    rank_one,
    scale,
    sin_angle,
    vec_inner,
    witness_triple,
    zeros,
)


from hsangle import hs_geometry
from hsangle.hs_geometry import _PairStack, _unit
from hsangle.random_lab import _draw


def random_matrix(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return ComplexMatrix(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))


def random_vector(rng, dim):
    return ComplexVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def entrywise_inner(x, y):
    """Independent oracle: sum of X[i][j] * conj(Y[i][j])."""
    return complex(np.sum(x.a * np.conj(y.a)))


class TestInner:
    def test_self_inner_is_squared_norm(self):
        rng = np.random.default_rng(40)
        x = random_matrix(rng, 4)
        val = hs_inner(x, x)
        assert abs(val.imag) <= 1e-13 * abs(val)
        assert abs(val.real - hs_norm(x) ** 2) <= 1e-12 * abs(val)

    def test_rank_one_factorization(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            xv, yv, zv = (random_vector(rng, 4) for _ in range(3))
            lhs = hs_inner(rank_one(xv, zv), rank_one(yv, zv))
            rhs = np.linalg.norm(zv.v) ** 2 * vec_inner(xv, yv)
            assert abs(lhs - rhs) <= 1e-12 * (abs(rhs) + 1.0)

    def test_trace_form_matches_entrywise_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, y = random_matrix(rng, 6), random_matrix(rng, 6)
            got = hs_inner(x, y)
            want = entrywise_inner(x, y)
            assert abs(got - want) <= 1e-13 * (abs(want) + 1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(43)
        x, y = random_matrix(rng, 5), random_matrix(rng, 5)
        assert abs(hs_inner(y, x) - hs_inner(x, y).conjugate()) <= 1e-13 * abs(hs_inner(x, y))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hs_inner(identity(2), identity(3))


def unit_by_parts(a, axis=(-2, -1)):
    """_unit's reference: the exponent of the larger of |re| and |im| per
    entry, and ldexp on the real and the imaginary parts apart."""
    e = np.frexp(np.fmax(abs(a.real), abs(a.imag)).max(axis=axis, keepdims=True))[1]
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
    return out, e.squeeze(axis)


class TestUnit:
    CASES = [
        ((4, 4), [(-2, -1), None, -1]),
        ((2, 5, 3, 3), [(-2, -1), (0, -2, -1), None]),
        ((7, 16), [-1, None, (-2, -1)]),
        ((3, 1), [-1, None]),
    ]

    @pytest.mark.parametrize("shape, axes", CASES)
    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 3e7, 1e160, 1.7e308])
    def test_bit_equal_to_the_part_by_part_scaling(self, shape, axes, scale):
        rng = np.random.default_rng(len(shape))
        a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / 8.0 * scale
        a[..., 0] = -0.0
        # The last variant's last axis is not contiguous.
        for v in (a, a * 1j, a.real + 0j, np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2)):
            for axis in axes:
                want, e_want = unit_by_parts(v, axis)
                got, e = _unit(v, axis)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes() and np.array_equal(e, e_want)
                assert e.shape == e_want.shape


class TestNorm:
    def test_identity(self):
        assert abs(hs_norm(identity(2)) - math.sqrt(2)) <= 1e-15

    def test_witness_sum_norm(self):
        x, _, z = witness_triple()
        assert abs(hs_norm(ComplexMatrix(x.a + z.a)) - 8.0**0.25) <= 1e-12

    def test_adjoint_invariant(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            x = random_matrix(rng, 5, 3)
            assert abs(hs_norm(x) - hs_norm(adjoint(x))) <= 1e-13 * hs_norm(x)

    def test_zero_iff_zero(self):
        assert hs_norm(zeros(3, 3)) == 0.0
        assert hs_norm(ComplexMatrix.from_rows([[0, 1e-300], [0, 0]])) > 0.0

    def test_subnormal_entries(self):
        # The largest entry is subnormal, so the power of two that scales it
        # up to 1 overflows; the norm and both angles must still come out.
        x = ComplexMatrix.from_rows([[1e-310 + 2e-310j]])
        padded = ComplexMatrix.from_rows([[1e-310 + 2e-310j, 0.0]])
        y = ComplexMatrix.from_rows([[1e-310]])
        for m in (x, padded):
            assert hs_norm(m) == pytest.approx(math.sqrt(5.0) * 1e-310, rel=1e-12)
        assert cos_angle(x, y) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)
        assert sin_angle(x, y) == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e-160, 0], [0, 1e-161]],
            [[3e-170 + 4e-170j, 1e-155], [2e-158j, 0]],
            [[1.2345678901234567e-157, 2.0**-560], [0, 1e-300]],
        ],
    )
    def test_partly_underflowing_squares(self, rows):
        # Some squares fall into the subnormal range or underflow, so the
        # sum of squares loses digits; the rescaled norm keeps them all.
        m = ComplexMatrix.from_rows(rows)
        ref = oracle_norm(m.a)
        assert abs(hs_norm(m) - ref) <= 1e-15 * ref


class TestAngles:
    def test_parts_near_float64_maximum(self):
        # |1.5e308 + 1.5e308j| overflows; the scaling takes its exponent from
        # the larger part, and the norm that overflowed is taken again over
        # the scaled pair, so the angle is the one at 2^-10.
        x = ComplexMatrix.from_rows([[1.5e308 + 1.5e308j, 1], [0, 1]])
        y = ComplexMatrix.from_rows([[1e308 + 1e308j, 0], [1, 1]])
        small = [
            ComplexMatrix(np.ldexp(m.a.real, -10) + 1j * np.ldexp(m.a.imag, -10)) for m in (x, y)
        ]
        assert cos_angle(x, y) == cos_angle(*small) == 1.0
        assert sin_angle(x, y) == sin_angle(*small)

    def test_self_and_negation(self):
        rng = np.random.default_rng(45)
        x = random_matrix(rng, 4)
        assert abs(cos_angle(x, x) - 1.0) <= 1e-13
        assert abs(cos_angle(x, scale(-1.0, x)) + 1.0) <= 1e-13
        assert sin_angle(x, x) <= 1e-12

    def test_half_overlap(self):
        x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
        y = ComplexMatrix.from_rows([[1, 1], [0, 0]])
        assert abs(cos_angle(x, y) - 1.0 / math.sqrt(2)) <= 1e-14

    def test_disjoint_supports(self):
        x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
        y = ComplexMatrix.from_rows([[0, 0], [0, 1]])
        assert sin_angle(x, y) == 1.0

    def test_complex_scale_invariance(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            x, y = random_matrix(rng, 4), random_matrix(rng, 4)
            gamma = complex(rng.normal(), rng.normal())
            if abs(gamma) < 1e-3:
                continue
            base = cos_angle(x, y)
            assert abs(cos_angle(scale(gamma, x), scale(gamma, y)) - base) <= 1e-12

    def test_real_scale_sign_law(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            x, y = random_matrix(rng, 3), random_matrix(rng, 3)
            al, be = rng.normal(), rng.normal()
            if abs(al) < 1e-3 or abs(be) < 1e-3:
                continue
            base = cos_angle(x, y)
            scaled = cos_angle(scale(al, x), scale(be, y))
            assert abs(scaled - math.copysign(1.0, al * be) * base) <= 1e-12

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(48)
        for _ in range(40):
            x, y = random_matrix(rng, 5), random_matrix(rng, 5)
            c, s = cos_angle(x, y), sin_angle(x, y)
            assert abs(c * c + s * s - 1.0) <= 1e-12

    def test_zero_operand_rejected(self):
        with pytest.raises(ZeroOperandError):
            cos_angle(zeros(2, 2), identity(2))
        with pytest.raises(ZeroOperandError):
            sin_angle(identity(2), zeros(2, 2))

    def test_cauchy_schwarz_chain(self):
        rng = np.random.default_rng(49)
        for _ in range(60):
            x, y = random_matrix(rng, 4), random_matrix(rng, 4)
            inner = hs_inner(x, y)
            bound = hs_norm(x) * hs_norm(y)
            tol = 1e-12 * (bound + 1.0)
            chain = [-bound, -abs(inner), inner.real, abs(inner), bound]
            for lo, hi in zip(chain, chain[1:]):
                assert hi - lo >= -tol

    def test_positive_pair_nonnegative_cos(self):
        for seed in range(30):
            x = generate(GeneratorSpec("psd", 4, seed))
            y = generate(GeneratorSpec("psd", 4, 10_000 + seed))
            assert cos_angle(x, y) >= -1e-12

    def test_report_invariants(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            x, y = random_matrix(rng, 4), random_matrix(rng, 4)
            rep = angle_report(x, y)
            assert abs(rep.cos**2 + rep.sin**2 - 1.0) <= 1e-12
            assert abs(rep.inner) <= rep.norm_x * rep.norm_y * (1.0 + 1e-12)
            assert abs(rep.cos - rep.inner.real / (rep.norm_x * rep.norm_y)) <= 1e-12

    @pytest.mark.parametrize("k", [-1000, -700, 500])
    def test_report_invariant_under_power_of_two_scaling(self, k):
        rng = np.random.default_rng(51)
        for _ in range(20):
            x, y = random_matrix(rng, 3), random_matrix(rng, 3)
            base = angle_report(x, y)
            rep = angle_report(scale(2.0**k, x), scale(2.0**k, y))
            assert abs(rep.cos - base.cos) <= 1e-15
            assert abs(rep.sin - base.sin) <= 1e-15
            assert abs(math.ldexp(rep.norm_x, -k) - base.norm_x) <= 1e-15 * base.norm_x
            assert abs(math.ldexp(rep.norm_y, -k) - base.norm_y) <= 1e-15 * base.norm_y


def test_a_zero_operand_leaves_the_other_pairs_unscaled(monkeypatch):
    # Only nonzero norms are range-tested: the pair with the zero operand
    # has no angle, and rescaling the whole stack for it would cost a _unit
    # copy of it.  The other pairs keep the bits of a stack without that
    # pair.  No _unit call is made: _norms itself takes the norm of the zero
    # operand again over _unit, as a zero sum of squares may have
    # underflowed, but before the count starts; and the NaN residual of
    # that pair's sine is neither below nor above the safe range, so it is
    # not rescued.
    xy = _draw("ginibre", 3, np.arange(400, dtype=np.uint64)).reshape(2, 200, 3, 3).copy()
    xy[1, 7] = 0.0
    pair = _PairStack(xy)
    assert (pair.norms == 0.0).sum() == 1
    calls = []
    monkeypatch.setattr(hs_geometry, "_unit", lambda a, **kw: calls.append(a.size) or _unit(a, **kw))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos, sin = pair.cos, pair.sin
    assert calls == []
    keep = np.arange(200) != 7
    rest = _PairStack(np.ascontiguousarray(xy[:, keep]))
    assert cos[keep].tobytes() == rest.cos.tobytes()
    assert sin[keep].tobytes() == rest.sin.tobytes()


def test_check_with_a_zero_operand_scales_no_empty_selection(monkeypatch):
    # The zero operand's norm, and those of its moduli, are taken again over
    # _unit; the NaN residuals of the three sines T214iii reads are not.
    calls = []
    monkeypatch.setattr(hs_geometry, "_unit", lambda a, **kw: calls.append(a.size) or _unit(a, **kw))
    rep = check("T214iii", generate(GeneratorSpec("ginibre", 3, 0)), zeros(3, 3))
    assert rep.holds and rep.lhs == rep.rhs == 0.0
    assert calls and 0 not in calls


class TestPredicates:
    def test_disjoint_supports_orthogonal(self):
        x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
        y = ComplexMatrix.from_rows([[0, 0], [0, 1]])
        assert is_weak_orthogonal(x, y, 1e-8)

    def test_rank_one_orthogonality_reduces_to_vectors(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            xv, zv = random_vector(rng, 4), random_vector(rng, 4)
            x = rank_one(xv, zv)
            # Re[xv, i*xv] = 0, so the rank-one pair is weak orthogonal
            y = rank_one(ComplexVector(1j * xv.v), zv)
            assert is_weak_orthogonal(x, y, 1e-8)
            # a generic partner correlates
            yv = random_vector(rng, 4)
            expected = abs(vec_inner(xv, yv).real) <= 1e-8 * np.linalg.norm(xv.v) * np.linalg.norm(yv.v)
            assert is_weak_orthogonal(x, rank_one(yv, zv), 1e-8) == expected

    def test_multiply_by_i_is_orthogonal(self):
        rng = np.random.default_rng(52)
        x = random_matrix(rng, 3)
        assert is_weak_orthogonal(x, scale(1j, x), 1e-8)

    def test_parallel_cases(self):
        rng = np.random.default_rng(53)
        x = random_matrix(rng, 3)
        assert is_weak_parallel(x, scale(3.0, x), 1e-8)
        assert is_weak_parallel(x, scale(-1.0, x), 1e-8)
        assert not is_weak_parallel(
            ComplexMatrix.from_rows([[1, 0], [0, 0]]),
            ComplexMatrix.from_rows([[0, 0], [0, 1]]),
            1e-8,
        )


class TestCosineExpansion:
    def test_orthogonal_reduces_to_pythagoras(self):
        x = ComplexMatrix.from_rows([[1, 0], [0, 0]])
        y = ComplexMatrix.from_rows([[0, 0], [0, 2]])
        assert abs(cosine_expansion(x, y, +1) - (1.0 + 4.0)) <= 1e-12

    def test_equal_operands(self):
        rng = np.random.default_rng(54)
        x = random_matrix(rng, 4)
        assert abs(cosine_expansion(x, x, +1) - 4.0 * hs_norm(x) ** 2) <= 1e-10 * hs_norm(x) ** 2

    def test_matches_direct_norm(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            x, y = random_matrix(rng, 5), random_matrix(rng, 5)
            for sign in (+1, -1):
                direct = hs_norm(ComplexMatrix(x.a + sign * y.a)) ** 2
                assert abs(cosine_expansion(x, y, sign) - direct) <= 1e-10 * (direct + 1.0)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            cosine_expansion(identity(2), identity(2), 0)
