"""Hilbert-Schmidt inner product, norm, and the operator angle.

The angle between nonzero X and Y is defined through
``cos = Re<X,Y> / (norm(X) norm(Y))`` with ``<X,Y> = tr(Y*X)``; the sine is
``sqrt(1 - cos^2)``, so it lives in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_core import ComplexMatrix, ShapeError, _ct

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


def _inner(x: np.ndarray, y: np.ndarray) -> complex:
    return complex(np.trace(_ct(y) @ x))


def _norm(x: np.ndarray) -> float:
    n = float(np.linalg.norm(x))
    if n == 0.0:
        # squared subnormals underflow; rescale so zero detection stays exact
        m = float(np.max(np.abs(x)))
        if m > 0.0:
            return m * float(np.linalg.norm(x / m))
    return n


class _Pair:
    """One operand pair x, y as arrays.  The norms nx, ny, the inner product
    <x, y>, the cosine and the sine are each computed once, on first use;
    nsum = norm(x + y) and ndiff = norm(x - y) on each read."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y

    nx = cached_property(lambda p: _norm(p.x))
    ny = cached_property(lambda p: _norm(p.y))
    inner = cached_property(lambda p: _inner(p.x, p.y))
    nsum = property(lambda p: _norm(p.x + p.y))
    ndiff = property(lambda p: _norm(p.x - p.y))

    @cached_property
    def cos(self) -> float:
        nx, ny = self.nx, self.ny
        if nx == 0.0 or ny == 0.0:
            raise ZeroOperandError("angle undefined for a zero operand")
        # Scale each operand by a power of two near its norm, so that neither
        # the inner product nor nx * ny underflows; the scaling itself is exact.
        sx, sy = math.ldexp(1.0, math.frexp(nx)[1]), math.ldexp(1.0, math.frexp(ny)[1])
        c = _inner(self.x / sx, self.y / sy).real / ((nx / sx) * (ny / sy))
        return min(1.0, max(-1.0, c))

    @cached_property
    def sin(self) -> float:
        c = self.cos  # raises on a zero operand, before the divisions below
        return min(1.0, float(np.linalg.norm(self.x / self.nx - c * (self.y / self.ny))))


def _norms(a: np.ndarray) -> np.ndarray:
    """_norm of each matrix of a stack (n, d, d), bit for bit: the strided
    dot products of the real and imaginary parts that np.linalg.norm takes,
    as (1, d*d) @ (d*d, 1) matmuls."""
    v = a.reshape(len(a), 1, a.shape[-2] * a.shape[-1])
    re, im = v.real, v.imag
    n = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])
    for i in np.flatnonzero(n == 0.0):
        n[i] = _norm(a[i])
    return n


def _inners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.trace(_ct(y) @ x, axis1=-2, axis2=-1)


def _min(a, b):
    """min(a, b) as Python picks it, a unless b < a, elementwise."""
    return np.where(b < a, b, a)


def _max(a, b):
    """max(a, b) as Python picks it, a unless b > a, elementwise."""
    return np.where(b > a, b, a)


class _PairStack:
    """A stack of operand pairs x[i], y[i] as (n, d, d) arrays.  Each
    quantity of _Pair is an (n,) array whose entries are bit-equal to _Pair's
    for the single pairs; cos and sin presuppose nonzero operands."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y

    nx = cached_property(lambda p: _norms(p.x))
    ny = cached_property(lambda p: _norms(p.y))
    inner = cached_property(lambda p: _inners(p.x, p.y))
    nsum = property(lambda p: _norms(p.x + p.y))
    ndiff = property(lambda p: _norms(p.x - p.y))

    @cached_property
    def cos(self) -> np.ndarray:
        nx, ny = self.nx, self.ny
        sx, sy = np.ldexp(1.0, np.frexp(nx)[1]), np.ldexp(1.0, np.frexp(ny)[1])
        c = _inners(self.x / sx[:, None, None], self.y / sy[:, None, None]).real
        return _min(1.0, _max(-1.0, c / ((nx / sx) * (ny / sy))))

    @cached_property
    def sin(self) -> np.ndarray:
        x = self.x / self.nx[:, None, None]
        y = self.y / self.ny[:, None, None]
        return _min(1.0, _norms(x - self.cos[:, None, None] * y))


def _same_shape(what: str, x: ComplexMatrix, y: ComplexMatrix) -> None:
    if x.a.shape != y.a.shape:
        raise ShapeError(
            f"{what} requires matching shapes, got {x.rows}x{x.cols} and {y.rows}x{y.cols}"
        )


def hs_inner(x: ComplexMatrix, y: ComplexMatrix) -> complex:
    """<X,Y> = tr(Y*X); conjugate-linear in Y."""
    _same_shape("hs_inner", x, y)
    return _inner(x.a, y.a)


def hs_norm(x: ComplexMatrix) -> float:
    """sqrt of the sum of squared entry moduli; zero only for the zero matrix."""
    return _norm(x.a)


def cos_angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """Re<X,Y>/(norm(X) norm(Y)), clamped into [-1, 1] against roundoff."""
    _same_shape("cos_angle", x, y)
    return _Pair(x.a, y.a).cos


def sin_angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """sqrt(1 - cos^2), evaluated as the orthogonal-residual norm.

    ||x/nx - cos * y/ny|| equals sqrt(1 - cos^2) exactly, but stays accurate
    to machine precision near parallel pairs, where the naive form bottoms
    out at sqrt(eps) ~ 1e-8.
    """
    _same_shape("sin_angle", x, y)
    return _Pair(x.a, y.a).sin


def angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """The angle itself, in [0, pi]."""
    return math.acos(cos_angle(x, y))


def angle_report(x: ComplexMatrix, y: ComplexMatrix) -> AngleReport:
    _same_shape("angle_report", x, y)
    p = _Pair(x.a, y.a)
    return AngleReport(p.cos, p.sin, p.inner, p.nx, p.ny)


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
    _same_shape("cosine_expansion", x, y)
    p = _Pair(x.a, y.a)
    return p.nx * p.nx + p.ny * p.ny + 2.0 * sign * p.nx * p.ny * p.cos
