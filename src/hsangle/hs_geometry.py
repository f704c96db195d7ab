"""Hilbert-Schmidt inner product, norm, and the operator angle.

The angle between nonzero X and Y is defined through
``cos = Re<X,Y> / (norm(X) norm(Y))`` with ``<X,Y> = tr(Y*X)``; the sine is
``sqrt(1 - cos^2)``, so it lives in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import ComplexMatrix, ShapeError, _cached, _ct

DEFAULT_PREDICATE_TOL = 1e-8


class ZeroOperandError(ValueError):
    """An angle was requested for an operand with zero Hilbert-Schmidt norm."""


@dataclass(frozen=True)
class AngleReport:
    """Cosine, sine, inner product and norms for one pair of operators."""

    cos: float
    sin: float
    inner: complex
    norm_x: float
    norm_y: float

    def to_json_dict(self) -> dict:
        return {
            "cos": self.cos,
            "sin": self.sin,
            "inner": {"re": self.inner.real, "im": self.inner.imag},
            "norm_x": self.norm_x,
            "norm_y": self.norm_y,
        }


def _unit(a: np.ndarray, axis=(-2, -1)):
    """a * 2^-e and e, e the frexp exponent of the largest real or imaginary
    part of the a_ij over axis (not of |a_ij|, which overflows near float64's
    maximum): exact, and part by part, so it works where 2^e itself would
    overflow.  Both are taken over the float view of a, where an entry's
    parts are neighbours on the last axis, so axis must hold the last axis
    (or be None).  The entries are finite, as the boundary validates: a NaN
    part would give e = 0."""
    if a.strides[-1] != a.itemsize:
        a = a.copy()
    f = a.view(float)
    e = np.frexp(abs(f).max(axis=axis, keepdims=True))[1]
    return np.ldexp(f, -e).view(a.dtype), e.squeeze(axis)


# A value in [2^-500, 2^500] squares, or multiplies another such value, into
# [2^-1000, 2^1000], where float64 is finite and normal.  Norms and sums of
# singular values outside it are taken over operands scaled by _unit.
_SAFE_RANGE = (2.0**-500, 2.0**500)


def _rownorms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


# A sum of squares that overflows is rescued; a norm beyond float64 is inf.
@np.errstate(over="ignore")
def _norms(a: np.ndarray) -> np.ndarray:
    """The norm of each matrix of a stack (..., r, c).  In _SAFE_RANGE it is
    bit for bit numpy's Frobenius norm: a vecdot over the stack of the real
    parts, and one of the imaginary parts.  Outside, where the squares would
    lose bits or overflow, it is taken over the entries scaled by _unit."""
    v = a.reshape(-1, a.shape[-2] * a.shape[-1])
    n = _rownorms(v)
    lo, hi = _SAFE_RANGE
    # A NaN norm (the sine residual of a pair with a zero operand) fails the
    # range test but is neither below nor above it: nothing to rescue.
    if n.size and not lo <= np.minimum.reduce(n) <= np.maximum.reduce(n) <= hi:
        out = (n < lo) | (n > hi)
        if out.any():
            u, e = _unit(v[out], axis=-1)
            n[out] = np.ldexp(_rownorms(u), e)
    return n.reshape(a.shape[:-2])


def _inners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = tr(y* x) of a pair of matrices, or of each pair of two
    stacks: the sum of conj(y_ij) x_ij, one vecdot over the entries, which
    conjugates y.  O(d^2), where forming y* x to read its trace is O(d^3).
    The entries are summed from contiguous rows, copied if need be, since a
    strided row takes another summation order."""
    x, y = (np.ascontiguousarray(m).reshape(m.shape[:-2] + (-1,)) for m in (x, y))
    return np.vecdot(y, x)


class _PairStack:
    """A stack of operand pairs as one array xy of shape (2, n, d, d), with
    x = xy[0] and y = xy[1]; a single pair is a stack of one.  The norms of
    both operands (one _norms call), the inner products <x, y>, the cosines
    and the sines are (n,) arrays, each computed once, on first use, as are
    nsum = norm(x + y) and ndiff = norm(x - y).  cos and sin presuppose
    nonzero operands; inequality_suite._sides reads them over a stack with
    zero operands too, and discards those rows."""

    def __init__(self, xy: np.ndarray):
        self.xy = xy

    norms = _cached(lambda p: _norms(p.xy))
    nx = property(lambda p: p.norms[0])
    ny = property(lambda p: p.norms[1])
    inner = _cached(lambda p: _inners(p.xy[0], p.xy[1]))
    nsum = _cached(lambda p: _norms(p.xy[0] + p.xy[1]))
    ndiff = _cached(lambda p: _norms(p.xy[0] - p.xy[1]))

    @_cached
    def _scaled(self):
        """xy and the norms, each operand scaled by _unit, so that neither
        the inner product nor nx * ny underflows or overflows.  When every
        norm lies in _SAFE_RANGE, where nx * ny can do neither, they are
        returned unscaled.  A zero norm is not tested: the angles of a pair
        with a zero operand are undefined, and its row is discarded or
        refused.  A norm that overflowed float64 unscaled is taken again over
        the scaled operand."""
        n = self.norms
        v = n[n != 0.0]
        lo, hi = _SAFE_RANGE
        if not v.size or lo <= np.minimum.reduce(v) <= np.maximum.reduce(v) <= hi:
            return self.xy, n
        xy, e = _unit(self.xy)
        n = np.ldexp(n, -e)
        inf = ~np.isfinite(n)
        if inf.any():
            n[inf] = _norms(xy[inf])
        return xy, n

    @_cached
    def cos(self) -> np.ndarray:
        xy, n = self._scaled
        inner = self.inner if xy is self.xy else _inners(xy[0], xy[1])
        # Clamped into [-1, 1] against roundoff.
        return np.fmin(1.0, np.fmax(-1.0, inner.real / (n[0] * n[1])))

    @_cached
    def sin(self) -> np.ndarray:
        xy, n = self._scaled
        u = xy / n[..., None, None]
        return np.fmin(1.0, _norms(u[0] - self.cos[:, None, None] * u[1]))


def _same_shape(what: str, x: ComplexMatrix, y: ComplexMatrix) -> None:
    if x.a.shape != y.a.shape:
        raise ShapeError(
            f"{what} requires matching shapes, got {x.rows}x{x.cols} and {y.rows}x{y.cols}"
        )


def _angle_pairs(what: str, *pairs) -> _PairStack:
    """The stack of the pairs (x, y), all of one shape, whose angles are
    undefined for a zero operand."""
    for x, y in pairs:
        _same_shape(what, x, y)
    p = _PairStack(np.array([[x.a for x, _ in pairs], [y.a for _, y in pairs]]))
    if not p.norms.all():
        raise ZeroOperandError("angle undefined for a zero operand")
    return p


def hs_inner(x: ComplexMatrix, y: ComplexMatrix) -> complex:
    """<X,Y> = tr(Y*X); conjugate-linear in Y."""
    _same_shape("hs_inner", x, y)
    return complex(_inners(x.a, y.a))


def hs_norm(x: ComplexMatrix) -> float:
    """sqrt of the sum of squared entry moduli; zero only for the zero matrix."""
    return float(_norms(x.a))


def cos_angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """Re<X,Y>/(norm(X) norm(Y)), clamped into [-1, 1] against roundoff."""
    return _angle_pairs("cos_angle", (x, y)).cos.item()


def sin_angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """sqrt(1 - cos^2), evaluated as the orthogonal-residual norm.

    ||x/nx - cos * y/ny|| equals sqrt(1 - cos^2) exactly, but stays accurate
    to machine precision near parallel pairs, where the naive form bottoms
    out at sqrt(eps) ~ 1e-8.
    """
    return _angle_pairs("sin_angle", (x, y)).sin.item()


def angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """The angle itself, in [0, pi]."""
    return math.acos(cos_angle(x, y))


def angle_report(x: ComplexMatrix, y: ComplexMatrix) -> AngleReport:
    p = _angle_pairs("angle_report", (x, y))
    return AngleReport(*(v.item() for v in (p.cos, p.sin, p.inner, p.nx, p.ny)))


def is_weak_orthogonal(
    x: ComplexMatrix, y: ComplexMatrix, tol: float = DEFAULT_PREDICATE_TOL
) -> bool:
    """True iff |cos| <= tol, i.e. Re<X,Y> vanishes relative to the norms."""
    return abs(cos_angle(x, y)) <= tol


def is_weak_parallel(
    x: ComplexMatrix, y: ComplexMatrix, tol: float = DEFAULT_PREDICATE_TOL
) -> bool:
    """True iff sin <= tol, i.e. cos = +-1 up to tol."""
    return sin_angle(x, y) <= tol


def cosine_expansion(x: ComplexMatrix, y: ComplexMatrix, sign: int) -> float:
    """norm(X)^2 + norm(Y)^2 +- 2 norm(X) norm(Y) cos; equals norm(X +- Y)^2."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    p = _angle_pairs("cosine_expansion", (x, y))
    nx, ny, c = (v.item() for v in (p.nx, p.ny, p.cos))
    return nx * nx + ny * ny + 2.0 * sign * nx * ny * c
