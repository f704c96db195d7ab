"""The inequality registry: each entry is one formula for both sides over an
operand pair, its norms and its moduli; check reports the slack.

Registry (each line lhs <= rhs, over square matrices of equal dimension):

    CS_21   |<X,Y>|  <=  norm(X) norm(Y)
    T213    |<X,Y>|^2  <=  <|X*|,|Y*|> <|X|,|Y|>
    T214i   cos(X,Y)^2  <=  cos(|X*|,|Y*|) cos(|X|,|Y|)
    T214ii  |cos(X,Y)|  <=  min(sqrt cos(|X*|,|Y*|), sqrt cos(|X|,|Y|))
    T214iii sin(|X*|,|Y*|)^2 + sin(|X|,|Y|)^2  <=  2 sin(X,Y)^2
    T31     norm(|X*|-|Y*|)^2 + norm(|X|-|Y|)^2  <=  2 norm(X-Y)^2
    C32     norm(|X|-|Y|)  <=  sqrt(2) norm(X-Y)
    R33     norm(|X|-|Y|)  <=  norm(X-Y)            (normal X, Y only)
    T34     norm(X+Y)^2  <=  norm(|X*|+|Y*|) norm(|X|+|Y|)
    T35     norm(|X|-|Y|)^2  <=  norm(X+Y) norm(X-Y)
    L31     nx ny c  <=  c (nx^2+ny^2) - nx ny c^2   with c = cos(|X|,|Y|)
    T36     norm(|X*|+|Y*|)  <=  sqrt(2) norm(|X|+|Y|)
    L32     2 nx ny cos(|X*|,|Y*|)  <=  nx^2 + ny^2 + 4 nx ny cos(|X|,|Y|)
    T37     norm(X+Y)  <=  sqrt((sqrt(2)+1)/2) norm(|X|+|Y|)

Angle-based ids (T214*, L31, L32) require nonzero operands; a zero operand
makes them hold trivially and is reported as such instead of erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_core import ComplexMatrix, ShapeError, digest
from .spectral import _Moduli, is_psd
from .hs_geometry import _cos, _inner, _norm, _sin, angle, sin_angle

SQRT2 = math.sqrt(2.0)
# Sharp coefficient in the sum inequality T37.
SUM_SHARP_CONSTANT = math.sqrt((SQRT2 + 1.0) / 2.0)
# Normality threshold for R33: norm(XX* - X*X) <= NORMALITY_TOL * (1 + norm(X)^2).
NORMALITY_TOL = 1e-10

DEFAULT_CHECK_TOL = 1e-9


class UnknownInequalityError(ValueError):
    """The requested id is not in the registry."""


class NotNormalError(ValueError):
    """R33 was applied to an operand that is not normal."""


class DegenerateIdentityError(ValueError):
    """A product required by the identity vanishes, leaving it undefined."""


@dataclass(frozen=True)
class InequalityReport:
    id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    scale: float
    operands_digest: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            "scale": self.scale,
            "operands_digest": self.operands_digest,
        }


def is_normal(x: ComplexMatrix, tol: float = NORMALITY_TOL) -> bool:
    a = x.a
    dev = np.linalg.norm(a @ a.conj().T - a.conj().T @ a)
    return bool(dev <= tol * (1.0 + np.linalg.norm(a) ** 2))


class _Pair:
    """The operands X, Y as arrays.  Their norms nx, ny and their moduli
    ax = |X|, sx = |X*|, ay = |Y|, sy = |Y*| are computed on first use; both
    moduli of an operand come from its one SVD.  ca and cs are the cosines of
    the pairs (|X|, |Y|) and (|X*|, |Y*|).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y

    nx = cached_property(lambda p: _norm(p.x))
    ny = cached_property(lambda p: _norm(p.y))
    _mx = cached_property(lambda p: _Moduli(p.x))
    _my = cached_property(lambda p: _Moduli(p.y))
    ax = property(lambda p: p._mx.abs)
    sx = property(lambda p: p._mx.adj)
    ay = property(lambda p: p._my.abs)
    sy = property(lambda p: p._my.adj)
    ca = cached_property(lambda p: _cos(p.ax, p.ay))
    cs = cached_property(lambda p: _cos(p.sx, p.sy))


# (lhs, rhs) of each registry entry, as a formula over a _Pair.
_REGISTRY = {
    "CS_21": lambda p: (abs(_inner(p.x, p.y)), p.nx * p.ny),
    "T213": lambda p: (
        abs(_inner(p.x, p.y)) ** 2,
        _inner(p.sx, p.sy).real * _inner(p.ax, p.ay).real,
    ),
    "T214i": lambda p: (_cos(p.x, p.y) ** 2, p.cs * p.ca),
    # Cosines of PSD pairs are nonnegative; clamp roundoff before the sqrt.
    "T214ii": lambda p: (abs(_cos(p.x, p.y)), math.sqrt(max(0.0, min(p.cs, p.ca)))),
    "T214iii": lambda p: (
        _sin(p.sx, p.sy) ** 2 + _sin(p.ax, p.ay) ** 2,
        2.0 * _sin(p.x, p.y) ** 2,
    ),
    "T31": lambda p: (
        _norm(p.sx - p.sy) ** 2 + _norm(p.ax - p.ay) ** 2,
        2.0 * _norm(p.x - p.y) ** 2,
    ),
    "C32": lambda p: (_norm(p.ax - p.ay), SQRT2 * _norm(p.x - p.y)),
    "R33": lambda p: (_norm(p.ax - p.ay), _norm(p.x - p.y)),
    "T34": lambda p: (_norm(p.x + p.y) ** 2, _norm(p.sx + p.sy) * _norm(p.ax + p.ay)),
    "T35": lambda p: (_norm(p.ax - p.ay) ** 2, _norm(p.x + p.y) * _norm(p.x - p.y)),
    "L31": lambda p: (
        p.nx * p.ny * p.ca,
        p.ca * (p.nx * p.nx + p.ny * p.ny) - p.nx * p.ny * p.ca * p.ca,
    ),
    "T36": lambda p: (_norm(p.sx + p.sy), SQRT2 * _norm(p.ax + p.ay)),
    "L32": lambda p: (
        2.0 * p.nx * p.ny * p.cs,
        p.nx * p.nx + p.ny * p.ny + 4.0 * p.nx * p.ny * p.ca,
    ),
    "T37": lambda p: (_norm(p.x + p.y), SUM_SHARP_CONSTANT * _norm(p.ax + p.ay)),
}

INEQUALITY_IDS = tuple(_REGISTRY)

# Ids whose sides involve angles and therefore need nonzero operands.
ANGLE_IDS = frozenset({"T214i", "T214ii", "T214iii", "L31", "L32"})

# Ids restricted to normal operands.
NORMAL_ONLY_IDS = frozenset({"R33"})


def check(
    inequality_id: str, x: ComplexMatrix, y: ComplexMatrix, tol: float = DEFAULT_CHECK_TOL
) -> InequalityReport:
    """Evaluate both sides of the inequality and report the slack.

    holds is slack >= -tol * scale with scale = max(|lhs|, |rhs|, 1); the
    sides grow quadratically with the operand norms, so the test is relative.
    """
    try:
        sides = _REGISTRY[inequality_id]
    except KeyError:
        raise UnknownInequalityError(
            f"unknown inequality id {inequality_id!r}; known: {', '.join(INEQUALITY_IDS)}"
        ) from None
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ShapeError(
            f"check requires square matrices of equal dimension, got "
            f"{x.rows}x{x.cols} and {y.rows}x{y.cols}"
        )
    if inequality_id in NORMAL_ONLY_IDS:
        for name, m in (("X", x), ("Y", y)):
            if not is_normal(m):
                raise NotNormalError(f"{inequality_id} requires normal operands; {name} is not")
    dig = digest(x, y)
    pair = _Pair(x.a, y.a)
    if inequality_id in ANGLE_IDS and (pair.nx == 0.0 or pair.ny == 0.0):
        # The angle ids presuppose nonzero operands; with a zero operand the
        # statement holds trivially and there is nothing to compute.
        return InequalityReport(inequality_id, 0.0, 0.0, 0.0, True, 1.0, dig)
    lhs, rhs = sides(pair)
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = rhs - lhs
    return InequalityReport(inequality_id, lhs, rhs, slack, bool(slack >= -tol * scale), scale, dig)


def _products(what: str, x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix):
    """The products XZ, ZY, X*Z and ZY* of conformable square operands."""
    xa, ya, za = x.a, y.a, z.a
    if not (x.is_square and y.is_square and x.rows == z.rows and z.cols == y.rows):
        raise ShapeError(f"{what} requires conformable square operands")
    return xa @ za, za @ ya, xa.conj().T @ za, za @ ya.conj().T


def commutation_identity_residual(x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix) -> float:
    """Residual of the exact identity

    norm(XZ-ZY)^2 + norm(X*Z)^2 + norm(ZY*)^2
        = norm(XZ)^2 + norm(ZY)^2 + norm(X*Z-ZY*)^2,

    normalized by 1 + lhs.
    """
    xz, zy, xsz, zys = _products("commutation_identity_residual", x, y, z)
    n = np.linalg.norm
    lhs = n(xz - zy) ** 2 + n(xsz) ** 2 + n(zys) ** 2
    rhs = n(xz) ** 2 + n(zy) ** 2 + n(xsz - zys) ** 2
    return abs(lhs - rhs) / (1.0 + lhs)


def adjoint_link_residual(x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix) -> float:
    """Residual of  norm(XZ) norm(ZY) cos(XZ,ZY) = norm(X*Z) norm(ZY*) cos(X*Z,ZY*).

    Undefined (raises) when any of the four products vanishes.
    """
    xz, zy, xsz, zys = _products("adjoint_link_residual", x, y, z)
    for name, p in (("XZ", xz), ("ZY", zy), ("X*Z", xsz), ("ZY*", zys)):
        if np.linalg.norm(p) == 0.0:
            raise DegenerateIdentityError(f"product {name} is zero; the identity degenerates")
    s1 = _norm(xz) * _norm(zy) * _cos(xz, zy)
    s2 = _norm(xsz) * _norm(zys) * _cos(xsz, zys)
    return abs(s1 - s2) / (1.0 + max(abs(s1), abs(s2)))


def angle_triangle_slack(x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix):
    """Slacks of the two triangle inequalities through Z.

    Returns (sin-slack, theta-slack):
        sin(X,Z) + sin(Z,Y) - sin(X,Y)  and  theta(X,Z) + theta(Z,Y) - theta(X,Y).
    Both are nonnegative up to roundoff.
    """
    sin_slack = sin_angle(x, z) + sin_angle(z, y) - sin_angle(x, y)
    theta_slack = angle(x, z) + angle(z, y) - angle(x, y)
    return sin_slack, theta_slack


def t213_equality_holds(
    x: ComplexMatrix, y: ComplexMatrix, tol: float = DEFAULT_CHECK_TOL
) -> bool:
    """True iff the T213 bound is attained, i.e. some unimodular multiple of
    Y*X is positive semidefinite.

    A PSD matrix has real nonnegative trace, so the only admissible phase is
    the one making tr(Y*X) real positive; when the trace vanishes, positivity
    forces Y*X = 0.
    """
    if x.a.shape != y.a.shape or not x.is_square:
        raise ShapeError("t213_equality_holds requires square matrices of equal shape")
    p = y.a.conj().T @ x.a
    t = complex(np.trace(p))
    if t == 0:
        return _norm(p) <= tol * (1.0 + _norm(x.a) * _norm(y.a))
    zeta = t.conjugate() / abs(t)
    return is_psd(ComplexMatrix(zeta * p), tol)
