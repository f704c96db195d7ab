import math

import numpy as np
import pytest

from hsangle import (
    ComplexMatrix,
    EigensolverError,
    GeneratorSpec,
    ShapeError,
    ValidationError,
    abs_adjoint,
    abs_op,
    adjoint,
    franca_abs_2x2,
    generate,
    hermitian_eig,
    hs_norm,
    identity,
    is_psd,
    polar,
    polar_identity_residuals,
    reconstruct,
    witness_triple,
)

SQRT8 = math.sqrt(8.0)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return ComplexMatrix((g + g.conj().T) / 2)


def char_poly_roots(h):
    """Eigenvalue oracle for dims <= 3: explicit characteristic polynomial."""
    a = h.a
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    if n == 2:
        tr = np.trace(a)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        coeffs = [1.0, -tr, det]
    else:
        tr = np.trace(a)
        minors = (
            a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
            + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
            + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        )
        det = (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
        coeffs = [1.0, -tr, minors, -det]
    roots = np.roots(np.real_if_close([complex(c) for c in coeffs]))
    return np.sort(roots.real)


class TestHermitianEig:
    def test_diagonal_sorted(self):
        eig = hermitian_eig(ComplexMatrix.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]]))
        assert np.allclose(eig.eigenvalues, [1, 2, 3])

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig(ComplexMatrix.from_rows([[0, 1], [1, 0]]))
        assert np.allclose(eig.eigenvalues, [-1, 1])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_against_char_poly_oracle(self, dim):
        rng = np.random.default_rng(20 + dim)
        for _ in range(40):
            h = random_hermitian(rng, dim)
            eig = hermitian_eig(h)
            oracle = char_poly_roots(h)
            scale = 1.0 + np.max(np.abs(oracle))
            assert np.max(np.abs(eig.eigenvalues - oracle)) <= 1e-9 * scale

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            h = random_hermitian(rng, 8)
            eig = hermitian_eig(h)
            v = eig.vectors.a
            assert np.linalg.norm(v.conj().T @ v - np.eye(8)) <= 1e-10
            scale = 1.0 + np.max(np.abs(eig.eigenvalues))
            assert hs_norm(ComplexMatrix(reconstruct(eig).a - h.a)) <= 1e-10 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(ComplexMatrix.from_rows([[0, 1], [0, 0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hermitian_eig(ComplexMatrix(np.ones((2, 3), dtype=complex)))


class TestAbsOp:
    def test_lower_shift(self):
        x = ComplexMatrix.from_rows([[0, 0], [-1, 0]])
        assert np.allclose(abs_op(x).a, [[1, 0], [0, 0]], atol=1e-14)

    def test_identity_fixed(self):
        assert np.allclose(abs_op(identity(3)).a, np.eye(3), atol=1e-14)

    def test_unit_upper_triangular(self):
        a = ComplexMatrix.from_rows([[1, 1], [0, 1]])
        expected = np.array([[2, 1], [1, 3]], dtype=complex) / math.sqrt(5)
        via_eig = abs_op(a)
        via_formula = franca_abs_2x2(a)
        assert np.allclose(via_eig.a, expected, atol=1e-12)
        assert np.allclose(via_formula.a, expected, atol=1e-12)
        assert np.allclose((via_eig.a @ via_eig.a), [[1, 1], [1, 2]], atol=1e-12)

    @pytest.mark.parametrize("kind", ["ginibre", "rank_deficient", "hermitian"])
    def test_square_recovers_gram(self, kind):
        for dim in range(1, 9):
            for seed in range(20):
                x = generate(GeneratorSpec(kind, dim, seed * 101 + dim))
                p = abs_op(x)
                assert is_psd(p, 1e-10)
                residual = hs_norm(ComplexMatrix(p.a @ p.a - x.a.conj().T @ x.a))
                assert residual <= 1e-10 * (1.0 + hs_norm(x) ** 2)

    def test_rectangular_shape(self):
        rng = np.random.default_rng(31)
        x = ComplexMatrix(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
        p = abs_op(x)
        assert (p.rows, p.cols) == (3, 3)
        assert hs_norm(ComplexMatrix(p.a @ p.a - x.a.conj().T @ x.a)) <= 1e-10 * (
            1.0 + hs_norm(x) ** 2
        )

    def test_norm_chain(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = ComplexMatrix(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            norms = [
                hs_norm(x),
                hs_norm(adjoint(x)),
                hs_norm(abs_op(x)),
                hs_norm(abs_adjoint(x)),
            ]
            assert max(norms) - min(norms) <= 1e-10 * (1.0 + norms[0])


class TestAbsAdjoint:
    def test_lower_shift(self):
        x = ComplexMatrix.from_rows([[0, 0], [-1, 0]])
        assert np.allclose(abs_adjoint(x).a, [[0, 0], [0, 1]], atol=1e-14)

    def test_hermitian_equals_abs(self):
        rng = np.random.default_rng(33)
        h = random_hermitian(rng, 4)
        assert np.allclose(abs_adjoint(h).a, abs_op(h).a, atol=1e-12)

    def test_normal_equals_abs(self):
        for seed in range(30):
            n = generate(GeneratorSpec("normal", 5, 1000 + seed))
            dev = hs_norm(ComplexMatrix(abs_adjoint(n).a - abs_op(n).a))
            assert dev <= 1e-10 * (1.0 + hs_norm(n))

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            abs_adjoint(ComplexMatrix(np.ones((2, 3), dtype=complex)))


class TestPolar:
    def assert_identities(self, x, tol=1e-10):
        parts = polar(x)
        residuals = polar_identity_residuals(x, parts)
        for name, value in residuals.items():
            assert value <= tol, f"{name}: {value}"
        assert hs_norm(ComplexMatrix(parts.u.a @ parts.abs.a - x.a)) <= tol * (1.0 + hs_norm(x))

    def test_psd_invertible_gives_identity_isometry(self):
        rng = np.random.default_rng(34)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = ComplexMatrix(g.conj().T @ g + np.eye(4))
        parts = polar(p)
        assert np.allclose(parts.u.a, np.eye(4), atol=1e-10)
        assert np.allclose(parts.abs.a, p.a, atol=1e-10)

    def test_lower_shift_partial_isometry(self):
        x = ComplexMatrix.from_rows([[0, 0], [-1, 0]])
        parts = polar(x)
        assert np.allclose(parts.u.a, [[0, 0], [-1, 0]], atol=1e-14)
        assert np.allclose(parts.abs.a, [[1, 0], [0, 0]], atol=1e-14)
        self.assert_identities(x)

    def test_invertible_gives_unitary(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            g = ComplexMatrix(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            parts = polar(g)
            u = parts.u.a
            assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-10
            # independent route: U = G |G|^{-1}
            oracle = g.a @ np.linalg.inv(abs_op(g).a)
            assert np.linalg.norm(u - oracle) <= 1e-9

    @pytest.mark.parametrize("kind", ["ginibre", "rank_deficient", "psd", "unitary"])
    def test_identities_across_ensembles(self, kind):
        for dim in (1, 2, 5, 8):
            for seed in range(5):
                self.assert_identities(generate(GeneratorSpec(kind, dim, seed * 31 + dim)))

    def test_zero_matrix(self):
        x = ComplexMatrix(np.zeros((3, 3), dtype=complex))
        parts = polar(x)
        assert np.array_equal(parts.u.a, np.zeros((3, 3)))
        assert np.array_equal(parts.abs.a, np.zeros((3, 3)))
        self.assert_identities(x)

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            polar(ComplexMatrix(np.ones((2, 3), dtype=complex)))


class TestFranca:
    def test_psd_diag_fixed_point(self):
        m = ComplexMatrix.from_rows([[0, 0], [0, 1]])
        assert np.allclose(franca_abs_2x2(m).a, m.a, atol=1e-15)

    def test_rank_one_witness(self):
        _, _, z = witness_triple()
        expected = np.array(
            [
                [3.0 - SQRT8, -math.sqrt(math.sqrt(200.0) - 14.0)],
                [-math.sqrt(math.sqrt(200.0) - 14.0), SQRT8 - 2.0],
            ],
            dtype=complex,
        )
        result = franca_abs_2x2(z)
        assert np.allclose(result.a, expected, atol=1e-12)
        # trace oracle: tr(|Z|^2) must equal tr(Z*Z) = 1
        assert abs(np.trace(result.a @ result.a).real - 1.0) <= 1e-12
        assert abs(np.trace(z.a.conj().T @ z.a).real - 1.0) <= 1e-12

    def test_matches_eig_route(self):
        # Against V S V* from numpy's SVD: abs_op is the closed form too.
        rng = np.random.default_rng(36)
        for _ in range(1000):
            a = ComplexMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            _, s, vh = np.linalg.svd(a.a)
            dev = hs_norm(ComplexMatrix(franca_abs_2x2(a).a - (vh.conj().T * s) @ vh))
            assert dev <= 1e-10 * (1.0 + hs_norm(a))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            franca_abs_2x2(ComplexMatrix(np.zeros((2, 2), dtype=complex)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            franca_abs_2x2(identity(3))


class TestIsPsd:
    def test_identity(self):
        assert is_psd(identity(3), 1e-10)

    def test_indefinite(self):
        assert not is_psd(ComplexMatrix.from_rows([[-1, 0], [0, 1]]), 1e-10)

    def test_gram_matrices(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert is_psd(ComplexMatrix(g.conj().T @ g), 1e-10)

    def test_non_hermitian_is_not_psd(self):
        assert not is_psd(ComplexMatrix.from_rows([[1, 1], [0, 1]]), 1e-10)

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            is_psd(ComplexMatrix(np.ones((2, 3), dtype=complex)), 1e-10)


class TestLapackFailure:
    # numpy.linalg's LinAlgError leaves the library as EigensolverError, with
    # the failing decomposition named and LAPACK's message kept.
    @pytest.fixture
    def failing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, fail)

    @pytest.mark.parametrize("call", [abs_op, abs_adjoint, polar])
    def test_svd_failure(self, failing, call):
        x = generate(GeneratorSpec("ginibre", 3, 1))
        with pytest.raises(EigensolverError) as info:
            call(x)
        assert str(info.value) == "singular value decomposition failed: did not converge"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("call", [hermitian_eig, lambda h: is_psd(h, 1e-10)])
    def test_eigensolver_failure(self, failing, call):
        with pytest.raises(EigensolverError) as info:
            call(identity(3))
        assert str(info.value) == "eigendecomposition failed: did not converge"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_non_hermitian_is_not_psd_without_the_eigensolver(self, failing):
        assert not is_psd(ComplexMatrix.from_rows([[1, 1], [0, 1]]), 1e-10)
