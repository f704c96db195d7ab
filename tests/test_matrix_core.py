import math

import numpy as np
import pytest

from hsangle import (
    ComplexMatrix,
    ComplexVector,
    ShapeError,
    ValidationError,
    abs_adjoint,
    add,
    adjoint,
    angle_report,
    check,
    cos_angle,
    hermitian_eig,
    hs_inner,
    hs_norm,
    identity,
    is_normal,
    is_psd,
    matmul,
    polar,
    rank_one,
    scale,
    t213_equality_holds,
    trace,
    vec_inner,
)


def random_matrix(rng, rows, cols):
    return ComplexMatrix(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))


def gauss_inverse(a):
    """Independent inverse oracle: Gaussian elimination with partial pivoting."""
    n = a.shape[0]
    aug = np.hstack([a.astype(complex).copy(), np.eye(n, dtype=complex)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        if abs(aug[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


class TestConstruction:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            ComplexMatrix.from_rows([[np.nan, 0], [0, 1]])
        with pytest.raises(ValidationError):
            ComplexMatrix.from_rows([[np.inf * 1j, 0], [0, 1]])
        with pytest.raises(ValidationError):
            ComplexVector.from_entries([1.0, np.inf])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            ComplexMatrix(np.zeros((0, 3), dtype=complex))
        with pytest.raises(ValidationError):
            ComplexMatrix(np.zeros(4, dtype=complex))

    def test_immutable(self):
        m = identity(2)
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 3, 5)
        again = ComplexMatrix.from_json_dict(m.to_json_dict())
        assert np.array_equal(m.a, again.a)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.__delitem__("im"),
            lambda d: d.update(rows=5),
            lambda d: d["re"][0].append(1.0),
            lambda d: d["re"][0].__setitem__(0, float("nan")),
            lambda d: d.update(re="nope"),
            lambda d: d["re"][0].__setitem__(0, 10**400),  # an integer beyond float64
            lambda d: d["im"][1].__setitem__(1, -(10**400)),
            # Entries that numpy would read as numbers, or null as NaN, are
            # refused by their JSON type.
            lambda d: d["re"][0].__setitem__(0, "2.5") or "got JSON string",
            lambda d: d["re"][0].__setitem__(1, True) or "got JSON boolean",
            lambda d: d["im"][1].__setitem__(0, False) or "got JSON boolean",
            lambda d: d["im"][0].__setitem__(1, None) or "got JSON null",
            lambda d: d["re"][1].__setitem__(1, [1.0]) or "got JSON array",
        ],
    )
    def test_json_rejects_malformed(self, mutation):
        # A mutation may return a pattern that the error message must match.
        d = identity(2).to_json_dict()
        message = mutation(d)
        with pytest.raises(ValidationError, match=message):
            ComplexMatrix.from_json_dict(d)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_json_rejects_bool_dims(self, field):
        # bool is an int subclass: true must not pass for a dimension of 1
        d = identity(1).to_json_dict()
        d[field] = True
        with pytest.raises(ValidationError):
            ComplexMatrix.from_json_dict(d)


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.array_equal(adjoint(identity(2)).a, identity(2).a)

    def test_lower_shift(self):
        x = ComplexMatrix.from_rows([[0, 0], [-1, 0]])
        assert np.array_equal(adjoint(x).a, np.array([[0, -1], [0, 0]], dtype=complex))

    def test_involution_exact(self):
        rng = np.random.default_rng(1)
        g = random_matrix(rng, 4, 4)
        assert np.array_equal(adjoint(adjoint(g)).a, g.a)


class TestTrace:
    def test_identity(self):
        assert trace(identity(2)) == 2.0

    def test_diagonal(self):
        assert trace(ComplexMatrix.from_rows([[4, 0], [0, 0]])) == 4.0

    def test_cyclicity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_matrix(rng, 5, 5), random_matrix(rng, 5, 5)
            lhs = trace(matmul(a, b))
            rhs = trace(matmul(b, a))
            assert abs(lhs - rhs) <= 1e-12 * (hs_norm(a) * hs_norm(b) + 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = random_matrix(rng, 4, 4), random_matrix(rng, 4, 4)
            al = complex(rng.normal(), rng.normal())
            be = complex(rng.normal(), rng.normal())
            combo = trace(add(scale(al, x), scale(be, y)))
            parts = al * trace(x) + be * trace(y)
            assert abs(combo - parts) <= 1e-13 * (abs(parts) + 1.0)

    def test_adjoint_conjugates(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_matrix(rng, 3, 3)
            assert trace(adjoint(x)) == trace(x).conjugate()

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            trace(ComplexMatrix(np.zeros((2, 3), dtype=complex) + 1))


class TestMatmul:
    def test_identity_neutral(self):
        rng = np.random.default_rng(6)
        g = random_matrix(rng, 3, 3)
        assert np.allclose(matmul(identity(3), g).a, g.a)

    def test_shift_matrices(self):
        up = ComplexMatrix.from_rows([[0, 1], [0, 0]])
        down = ComplexMatrix.from_rows([[0, 0], [1, 0]])
        assert np.array_equal(matmul(up, down).a, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_against_elimination_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_matrix(rng, 4, 4)
            g = ComplexMatrix(g.a + 4.0 * np.eye(4))  # keep it well conditioned
            inv = ComplexMatrix(gauss_inverse(g.a))
            assert np.linalg.norm(matmul(g, inv).a - np.eye(4)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(identity(2), identity(3))


class TestAddScale:
    def test_add_negation_is_zero(self):
        rng = np.random.default_rng(8)
        x = random_matrix(rng, 3, 4)
        assert np.array_equal(add(x, scale(-1.0, x)).a, np.zeros((3, 4)))

    def test_witness_sum(self):
        x = ComplexMatrix.from_rows([[0, 0], [-1, 0]])
        z = ComplexMatrix.from_rows([[0, 0], [1 - math.sqrt(2), math.sqrt(math.sqrt(8) - 2)]])
        total = add(x, z)
        expected = np.array(
            [[0, 0], [-math.sqrt(2), math.sqrt(math.sqrt(8) - 2)]], dtype=complex
        )
        assert np.allclose(total.a, expected, atol=1e-15)

    def test_scale_by_i(self):
        m = scale(1j, identity(2))
        assert np.array_equal(m.a, np.array([[1j, 0], [0, 1j]]))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(identity(2), identity(3))


class TestRankOne:
    def test_vector_inner_of_unequal_dims_rejected(self):
        with pytest.raises(ShapeError, match="vector dims differ: 1 vs 2"):
            vec_inner(ComplexVector.from_entries([1]), ComplexVector.from_entries([1, 0]))

    def test_basis_outer_product(self):
        e1 = ComplexVector.from_entries([1, 0])
        assert np.array_equal(rank_one(e1, e1).a, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_trace_is_vector_inner(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = ComplexVector(rng.normal(size=5) + 1j * rng.normal(size=5))
            b = ComplexVector(rng.normal(size=5) + 1j * rng.normal(size=5))
            t = trace(rank_one(a, b))
            assert abs(t - vec_inner(a, b)) <= 1e-13 * (abs(t) + 1.0)

    def test_norm_factorizes(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            a = ComplexVector(rng.normal(size=4) + 1j * rng.normal(size=4))
            b = ComplexVector(rng.normal(size=4) + 1j * rng.normal(size=4))
            expected = np.linalg.norm(a.v) * np.linalg.norm(b.v)
            assert abs(hs_norm(rank_one(a, b)) - expected) <= 1e-13 * expected

    def test_action_on_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b, c = (
                ComplexVector(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)
            )
            applied = matmul(rank_one(a, b), c.as_column()).a.ravel()
            expected = vec_inner(c, b) * a.v
            assert np.linalg.norm(applied - expected) <= 1e-13 * (np.linalg.norm(expected) + 1.0)


_I2, _I3, _R23 = identity(2), identity(3), ComplexMatrix(np.ones((2, 3), dtype=complex))
# Each entry that takes operands of one shape, and the operands that break
# the rule.  The square entries refuse a 2x2/3x3 pair and a 2x3 operand; the
# entries that take any one shape refuse a 2x2/3x3 and a 2x2/2x3 pair.
_SQUARE_PAIR, _ANY_PAIR, _SQUARE_ONE = [(_I2, _I3), (_R23, _R23)], [(_I2, _I3), (_I2, _R23)], [(_R23,)]
SHAPE_RULE = [
    ("check", lambda *m: check("CS_21", *m), _SQUARE_PAIR),
    ("t213_equality_holds", t213_equality_holds, _SQUARE_PAIR),
    ("hs_inner", hs_inner, _ANY_PAIR),
    ("cos_angle", cos_angle, _ANY_PAIR),
    ("angle_report", angle_report, _ANY_PAIR),
    ("add", add, _ANY_PAIR),
    ("trace", trace, _SQUARE_ONE),
    ("is_normal", is_normal, _SQUARE_ONE),
    ("abs_adjoint", abs_adjoint, _SQUARE_ONE),
    ("polar", polar, _SQUARE_ONE),
    ("is_psd", lambda h: is_psd(h, 1e-10), _SQUARE_ONE),
    ("hermitian_eig", hermitian_eig, _SQUARE_ONE),
]


class TestShapeRule:
    @pytest.mark.parametrize("name, entry, cases", SHAPE_RULE, ids=[e[0] for e in SHAPE_RULE])
    def test_one_message_names_the_entry_and_every_shape(self, name, entry, cases):
        for mats in cases:
            with pytest.raises(ShapeError) as refused:
                entry(*mats)
            kind = "matrices" if cases is _ANY_PAIR else "square matrices"
            got = " and ".join(f"{m.rows}x{m.cols}" for m in mats)
            assert str(refused.value) == f"{name} requires {kind} of one shape, got {got}"
