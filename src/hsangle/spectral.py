"""Hermitian eigendecomposition and the decompositions built on it.

Provides the operator absolute value |X| = (X*X)^(1/2), the polar
decomposition X = U|X| with U the canonical partial isometry supported on
range(|X|), a closed-form 2x2 absolute value, and a PSD test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hs_geometry import _norms
from .matrix_core import ComplexMatrix, ShapeError, ValidationError, _ct

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_TOL = 1e-10
# Singular values below POLAR_RANK_REL * sigma_max fall outside the support of
# the partial isometry.
POLAR_RANK_REL = 1e-10


class EigensolverError(RuntimeError):
    """The eigendecomposition failed or produced an inconsistent spectrum."""


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigenvalues in ascending order; columns of `vectors` are orthonormal."""

    eigenvalues: np.ndarray
    vectors: ComplexMatrix


@dataclass(frozen=True, eq=False)
class PolarParts:
    """Pair (U, |X|) with U the canonical partial isometry and |X| PSD."""

    u: ComplexMatrix
    abs: ComplexMatrix


def _require_square(x: ComplexMatrix, what: str):
    if not x.is_square:
        raise ShapeError(f"{what} requires a square matrix, got {x.rows}x{x.cols}")


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + _ct(a)) / 2.0


def hermitian_eig(h: ComplexMatrix) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    The input may deviate from exact Hermitian symmetry by at most
    ``HERMITIAN_TOL * (1 + norm)``; the Hermitian part is decomposed.
    """
    _require_square(h, "hermitian_eig")
    dev, n = _norms(np.array((h.a - _ct(h.a), h.a))).tolist()
    if dev > HERMITIAN_TOL * (1.0 + n):
        raise ValidationError(
            f"hermitian_eig requires a Hermitian input; deviation {dev:.3e}"
        )
    try:
        w, v = np.linalg.eigh(_hermitian_part(h.a))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
    w = w.copy()
    w.setflags(write=False)
    return HermitianEigen(w, ComplexMatrix(v))


def reconstruct(eig: HermitianEigen) -> ComplexMatrix:
    """Rebuild the matrix V diag(w) V* from its eigendecomposition."""
    v = eig.vectors.a
    return ComplexMatrix((v * eig.eigenvalues) @ v.conj().T)


def _svd(a: np.ndarray):
    # |X| and U come from the SVD of X itself, not from eig(X*X): squaring
    # the spectrum amplifies roundoff at small singular values to
    # sqrt(eps) * sigma_max, which is fatal at exactly-singular witnesses.
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"singular value decomposition failed: {exc}") from exc


class _Moduli:
    """|X| = V S V* and |X*| = W S W* from the one SVD X = W S V*; for a
    stack of matrices, one stacked SVD gives the moduli of each."""

    def __init__(self, a: np.ndarray):
        self.w, self.s, self.vh = _svd(a)

    def abs(self) -> np.ndarray:
        vh = self.vh
        return _hermitian_part((_ct(vh) * self.s[..., None, :]) @ vh)

    def adj(self) -> np.ndarray:
        # Only asked for square X, where W and S conform.
        w = self.w
        return _hermitian_part((w * self.s[..., None, :]) @ _ct(w))


def abs_op(x: ComplexMatrix) -> ComplexMatrix:
    """Operator absolute value |X| = (X*X)^(1/2); cols x cols, PSD."""
    return ComplexMatrix(_Moduli(x.a).abs())


def abs_adjoint(x: ComplexMatrix) -> ComplexMatrix:
    """|X*| = (XX*)^(1/2) for square X."""
    _require_square(x, "abs_adjoint")
    return ComplexMatrix(_Moduli(x.a).adj())


def polar(x: ComplexMatrix) -> PolarParts:
    """Polar decomposition X = U|X| with U vanishing on ker|X|."""
    _require_square(x, "polar")
    m = _Moduli(x.a)
    mask = m.s > POLAR_RANK_REL * m.s[0]
    return PolarParts(ComplexMatrix(m.w[:, mask] @ m.vh[mask, :]), ComplexMatrix(m.abs()))


def polar_identity_residuals(x: ComplexMatrix, parts: PolarParts) -> dict:
    """Relative residuals of the five identities the polar pair satisfies.

    U*U projects onto range(|X|) and UU* onto range(X); the projection that
    reproduces X itself is the final-space one, UU*X = X.
    """
    xa, ua, pa = x.a, parts.u.a, parts.abs.a
    uh = _ct(ua)
    n = _norms(np.array((xa, uh @ xa - pa, uh @ ua @ pa - pa, ua @ uh @ xa - xa,
                         _ct(xa) - pa @ uh, abs_adjoint(x).a - ua @ pa @ uh)))
    names = ("U*X=|X|", "U*U|X|=|X|", "UU*X=X", "X*=|X|U*", "|X*|=U|X|U*")
    return dict(zip(names, n[1:] / (1.0 + n[0])))


def franca_abs_2x2(a: ComplexMatrix) -> ComplexMatrix:
    """Closed-form 2x2 absolute value.

    |A| = (sqrt(det(A*A)) I + A*A) / sqrt(tr(A*A) + 2 sqrt(det(A*A))),
    valid for any nonzero 2x2 matrix.
    """
    if (a.rows, a.cols) != (2, 2):
        raise ShapeError(f"franca_abs_2x2 requires a 2x2 matrix, got {a.rows}x{a.cols}")
    b = a.a.conj().T @ a.a
    t = float(np.trace(b).real)
    if t == 0.0:
        raise ValidationError("franca_abs_2x2 undefined for the zero matrix")
    det = max(float((b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]).real), 0.0)
    root = np.sqrt(det)
    m = (root * np.eye(2) + b) / np.sqrt(t + 2.0 * root)
    return ComplexMatrix(_hermitian_part(m))


def is_psd(h: ComplexMatrix, tol: float) -> bool:
    """True iff H is Hermitian within tol and its spectrum is >= -tol, relatively."""
    _require_square(h, "is_psd")
    return _is_psd(h.a, tol)


def _is_psd(a: np.ndarray, tol: float) -> bool:
    dev, n = _norms(np.array((a - _ct(a), a))).tolist()
    budget = tol * (1.0 + n)
    try:
        return dev <= budget and bool(np.linalg.eigvalsh(_hermitian_part(a))[0] >= -budget)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
