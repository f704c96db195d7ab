"""Hermitian eigendecomposition and the decompositions built on it.

Provides the operator absolute value |X| = (X*X)^(1/2) and |X*|, in closed
form for 2x2 X, from eigh for exactly Hermitian X and from the SVD
otherwise, the polar decomposition X = U|X| with U the canonical partial
isometry supported on range(|X|), and a PSD test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .hs_geometry import _SAFE_RANGE, _norms, _unit
from .matrix_core import ComplexMatrix, ShapeError, ValidationError, _cached, _ct

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


def _lapack(solver, what: str, *args, **kwargs):
    """The numpy.linalg call solver(*args, **kwargs), LinAlgError raised as EigensolverError."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"{what} failed: {exc}") from exc


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
    w, v = _lapack(np.linalg.eigh, "eigendecomposition", _hermitian_part(h.a))
    w = w.copy()
    w.setflags(write=False)
    return HermitianEigen(w, ComplexMatrix(v))


def _exactly_hermitian(a: np.ndarray) -> np.ndarray:
    """Whether a matrix, or each matrix of a stack, equals its adjoint bit
    for bit; a non-square one does not."""
    if a.shape[-1] != a.shape[-2]:
        return np.zeros(a.shape[:-2], dtype=bool)
    return (a == _ct(a)).all(axis=(-2, -1))


def _vdv(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """V diag(d) V* for a matrix V and vector d, or for each of a stack."""
    return (v * d[..., None, :]) @ _ct(v)


def reconstruct(eig: HermitianEigen) -> ComplexMatrix:
    """Rebuild the matrix V diag(w) V* from its eigendecomposition."""
    return ComplexMatrix(_vdv(eig.vectors.a, eig.eigenvalues))


# The shape whose moduli come in closed form: a stack of them costs about
# the same for one matrix as for dozens, where the SVD costs per matrix.
_CLOSED_SHAPE = (2, 2)
# Per matrix, the real view f (n, 8) of a stack of 2x2 X holds a..h, with
# x00 = a + bi, x01 = c + di, x10 = e + fi and x11 = g + hi.  Every quantity
# of the closed form is a sum of four signed products of them: the diagonals
# of X*X and XX* (quantities 0-3, to which delta is added); Re, Im and -Im
# of (X*X)_01 = conj(x00) x01 + conj(x10) x11 (4-6) and of (XX*)_01 = x00
# conj(x10) + x01 conj(x11) (7-9); Re and Im of det X = x00 x11 - x01 x10
# (10, 11); and 0 (12), the imaginary part of each diagonal.
_QUANTITIES = """
    aa+bb+ee+ff  cc+dd+gg+hh  aa+bb+cc+dd  ee+ff+gg+hh
    ac+bd+eg+fh  ad-bc+eh-fg  bc-ad+fg-eh
    ae+bf+cg+dh  be-af+dg-ch  af-be+ch-dg
    ag-bh-ce+df  ah+bg-cf-de
    aa+bb-aa-bb
""".split()
# Term t of every quantity, then term t + 1, so that two halvings sum them; a
# minus sign takes the left factor from the negated components (rows 8-15).
_LEFT, _RIGHT = np.array(
    [[(8 * (s == "-") + "abcdefgh".index(p), "abcdefgh".index(q))
      for s, p, q in re.findall("([+-]?)(.)(.)", terms)] for terms in _QUANTITIES]
).transpose(2, 1, 0).reshape(2, -1)
# The real view of |X| and then of |X*| by quantity: each diagonal's
# imaginary part is 0, and the lower corner is the conjugate of the upper.
_SLOTS = np.array([0, 12, 4, 5, 4, 6, 1, 12, 2, 12, 7, 8, 7, 9, 3, 12])


@np.errstate(over="ignore", invalid="ignore")  # out-of-range r is redone scaled
def _quantities(a: np.ndarray):
    """The _QUANTITIES q (13, n) of each matrix of a contiguous stack a (n, 2,
    2), with delta = |det X| = sigma_1 sigma_2 added to the diagonals, and r
    = sqrt(tr(X*X) + 2 delta) = sigma_1 + sigma_2.  Quantity-major: the eight
    components and their negatives are copied once into the rows of f (16,
    n), and each signed product, and each quantity, summed in place as (t0 +
    t2) + (t1 + t3), is one contiguous row over the stack."""
    f = np.empty((16, len(a)))
    f[:8] = a.view(float).reshape(-1, 8).T
    np.negative(f[:8], out=f[8:])
    # In place, so that no more than two (52, n) arrays are held at once.
    p = f.take(_LEFT, axis=0)
    p *= f.take(_RIGHT, axis=0)
    k = len(_QUANTITIES)
    p[: 2 * k] += p[2 * k :]
    q = np.add(p[:k], p[k : 2 * k], out=p[:k])
    q[:4] += np.hypot(q[10], q[11])
    return q, np.sqrt(q[0] + q[1])


class _Moduli:
    """|X| and |X*| of a matrix, or of each matrix of a stack.

    For 2x2 X both come in closed form, with delta = |det X| = sigma_1
    sigma_2 and r = sigma_1 + sigma_2: |X| = (X*X + delta I) / r and |X*| =
    (XX* + delta I) / r, and 0 for X = 0.  delta is taken from X itself, not
    as sqrt(det(X*X)), which would square the spectrum.  A matrix whose r
    leaves _SAFE_RANGE is scaled by _unit first, and its moduli scaled back.
    Otherwise each square X is tested once for exact Hermitian symmetry, bit
    for bit.  An exactly Hermitian X = V L V* is its own adjoint, so |X| =
    |X*| = V|L|V*, from one eigh call over all such X of the stack; when
    every X is, abs() and adj() both return that call's one array.  Every
    other X takes the one SVD call over the rest, X = W S V*: |X| = V S V*
    and |X*| = W S W*.  By the Araki-Yamagami bound norm(|A| - |B|) <=
    sqrt(2) norm(A - B) (C32), the backward-stable eigh gives |X| to the same
    order as the SVD.  Either way each matrix gets the bits it gets alone."""

    def __init__(self, a: np.ndarray):
        self.a = a

    _hermitian = _cached(lambda m: _exactly_hermitian(m.a))

    def _rows(self, mask: np.ndarray) -> np.ndarray:
        """The matrices the mask selects: a itself when it selects them all."""
        return self.a if mask.all() else self.a[mask]

    @_cached
    def _eigh(self) -> np.ndarray:
        """|X| = |X*| = V|L|V* of the exactly Hermitian matrices."""
        w, v = _lapack(np.linalg.eigh, "eigendecomposition", self._rows(self._hermitian))
        return _hermitian_part(_vdv(v, abs(w)))

    @_cached
    def _svd(self):
        """The SVD (w, s, vh) of the matrices that are not exactly Hermitian."""
        # |X| and |X*| come from the SVD of X, not from eig(X*X): squaring the
        # spectrum amplifies roundoff at small singular values to sqrt(eps) *
        # sigma_max, which is fatal at exactly-singular witnesses.
        return _lapack(np.linalg.svd, "singular value decomposition",
                       self._rows(~self._hermitian), full_matrices=False)

    def _modulus(self, adjoint: bool) -> np.ndarray:
        """|X*| if adjoint, else |X|, of each matrix, by _eigh or _svd."""
        h = self._hermitian
        if h.all():
            return self._eigh
        w, s, vh = self._svd
        # Only asked for |X*| of square X, where W and S conform.
        m = _hermitian_part(_vdv(w if adjoint else _ct(vh), s))
        if not h.any():
            return m
        out = np.empty_like(self.a)
        out[h], out[~h] = self._eigh, m
        return out

    @_cached
    def _closed(self) -> np.ndarray:
        """|X| and |X*| of each 2x2 X, as the array (..., 2, 2, 2) of both.  Its
        quantities fold each minus sign into a negated factor, exact as (-a) b
        = -(a b), signed zeros included; their slots are divided by r."""
        a = np.ascontiguousarray(self.a).reshape(-1, 2, 2)
        q, r = _quantities(a)
        lo, hi = _SAFE_RANGE
        e = None
        if r.size and not lo <= np.minimum.reduce(r) <= np.maximum.reduce(r) <= hi:
            out = ~((r >= lo) & (r <= hi))
            u, e = _unit(a[out])
            q[:, out], r[out] = _quantities(u)
            r[r == 0.0] = 1.0  # X = 0: the moduli are 0 / 1
        m = (q.take(_SLOTS, axis=0) / r).T.copy()
        if e is not None:
            m[out] = np.ldexp(m[out], e[:, None])
        return m.view(complex).reshape(self.a.shape[:-2] + (2, 2, 2))

    def abs(self) -> np.ndarray:
        if self.a.shape[-2:] == _CLOSED_SHAPE:
            return self._closed[..., 0, :, :]
        return self._modulus(False)

    def adj(self) -> np.ndarray:
        if self.a.shape[-2:] == _CLOSED_SHAPE:
            return self._closed[..., 1, :, :]
        return self._modulus(True)


def _result(a: np.ndarray, name: str) -> ComplexMatrix:
    """The result a, named name, as a ComplexMatrix.  The operand is finite,
    so a non-finite entry means that its decomposition overflowed float64,
    and the error says so rather than blame the input."""
    if not np.isfinite(a).all():
        raise ValidationError(
            f"result outside float64 (inf or nan): the decomposition giving {name} overflowed"
        )
    return ComplexMatrix(a)


def abs_op(x: ComplexMatrix) -> ComplexMatrix:
    """Operator absolute value |X| = (X*X)^(1/2); cols x cols, PSD."""
    return _result(_Moduli(x.a).abs(), "|X|")


def abs_adjoint(x: ComplexMatrix) -> ComplexMatrix:
    """|X*| = (XX*)^(1/2) for square X."""
    _require_square(x, "abs_adjoint")
    return _result(_Moduli(x.a).adj(), "|X*|")


def polar(x: ComplexMatrix) -> PolarParts:
    """Polar decomposition X = U|X| with U vanishing on ker|X|."""
    _require_square(x, "polar")
    m = _Moduli(x.a)
    # U from the SVD of X: the one the moduli take, unless X is exactly
    # Hermitian and its moduli come from eigh.
    w, s, vh = (_lapack(np.linalg.svd, "singular value decomposition", x.a, full_matrices=False)
                if m._hermitian else m._svd)
    mask = s > POLAR_RANK_REL * s[0]
    return PolarParts(_result(w[:, mask] @ vh[mask, :], "U"), _result(m.abs(), "|X|"))


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
    """|A| of a nonzero 2x2 matrix by the closed form abs_op takes for 2x2:
    |A| = (A*A + delta I) / sqrt(norm(A)^2 + 2 delta), delta = |det A|."""
    if (a.rows, a.cols) != (2, 2):
        raise ShapeError(f"franca_abs_2x2 requires a 2x2 matrix, got {a.rows}x{a.cols}")
    if not a.a.any():
        raise ValidationError("franca_abs_2x2 undefined for the zero matrix")
    return _result(_Moduli(a.a).abs(), "|A|")


def is_psd(h: ComplexMatrix, tol: float) -> bool:
    """True iff H is Hermitian within tol and its spectrum is >= -tol, relatively."""
    _require_square(h, "is_psd")
    return _is_psd(h.a, tol)


def _is_psd(a: np.ndarray, tol: float) -> bool:
    dev, n = _norms(np.array((a - _ct(a), a))).tolist()
    budget = tol * (1.0 + n)
    return dev <= budget and bool(
        _lapack(np.linalg.eigvalsh, "eigendecomposition", _hermitian_part(a))[0] >= -budget
    )
