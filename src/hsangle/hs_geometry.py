"""Hilbert-Schmidt inner product, norm, and the operator angle.

The angle between nonzero X and Y is defined through
``cos = Re<X,Y> / (norm(X) norm(Y))`` with ``<X,Y> = tr(Y*X)``; the sine is
``sqrt(1 - cos^2)``, so it lives in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import ComplexMatrix, ShapeError

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
    return complex(np.trace(y.conj().T @ x))


def _norm(x: np.ndarray) -> float:
    n = float(np.linalg.norm(x))
    if n == 0.0:
        # squared subnormals underflow; rescale so zero detection stays exact
        m = float(np.max(np.abs(x)))
        if m > 0.0:
            return m * float(np.linalg.norm(x / m))
    return n


def _nonzero_norms(x: np.ndarray, y: np.ndarray):
    nx, ny = _norm(x), _norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroOperandError("angle undefined for a zero operand")
    return nx, ny


def _cos(x: np.ndarray, y: np.ndarray) -> float:
    nx, ny = _nonzero_norms(x, y)
    return min(1.0, max(-1.0, _inner(x, y).real / (nx * ny)))


def _sin(x: np.ndarray, y: np.ndarray) -> float:
    nx, ny = _nonzero_norms(x, y)
    return min(1.0, float(np.linalg.norm(x / nx - _cos(x, y) * (y / ny))))


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
    return _cos(x.a, y.a)


def sin_angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """sqrt(1 - cos^2), evaluated as the orthogonal-residual norm.

    ||x/nx - cos * y/ny|| equals sqrt(1 - cos^2) exactly, but stays accurate
    to machine precision near parallel pairs, where the naive form bottoms
    out at sqrt(eps) ~ 1e-8.
    """
    _same_shape("sin_angle", x, y)
    return _sin(x.a, y.a)


def angle(x: ComplexMatrix, y: ComplexMatrix) -> float:
    """The angle itself, in [0, pi]."""
    return math.acos(cos_angle(x, y))


def angle_report(x: ComplexMatrix, y: ComplexMatrix) -> AngleReport:
    _same_shape("angle_report", x, y)
    nx, ny = _nonzero_norms(x.a, y.a)
    return AngleReport(_cos(x.a, y.a), _sin(x.a, y.a), _inner(x.a, y.a), nx, ny)


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
    nx, ny = _nonzero_norms(x.a, y.a)
    return nx * nx + ny * ny + 2.0 * sign * nx * ny * cos_angle(x, y)
