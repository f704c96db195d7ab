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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .matrix_core import ComplexMatrix, ShapeError, _cached, _ct, digest
from .spectral import _Moduli, _exactly_hermitian, _is_psd, _require_square
from .hs_geometry import _PairStack, _angle_pairs, _norms, _unit

SQRT2 = math.sqrt(2.0)
# Sharp coefficient in the sum inequality T37.
SUM_SHARP_CONSTANT = math.sqrt((SQRT2 + 1.0) / 2.0)
# Normality threshold for R33: norm(XX* - X*X) <= NORMALITY_TOL * norm(X)^2,
# homogeneous of degree 0, so that scaling X cannot change the decision.
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
        return asdict(self)


def is_normal(x: ComplexMatrix, tol: float = NORMALITY_TOL) -> bool:
    """True iff X is exactly Hermitian or norm(XX* - X*X) <= tol norm(X)^2:
    relative, so that scaling X by any power of two keeps the decision."""
    _require_square(x, "is_normal")
    # An exactly Hermitian X is normal and forms no commutator.
    if _exactly_hermitian(x.a):
        return True
    # Decided on X scaled by _unit, so that the commutator cannot overflow
    # or underflow; the scaling is exact.
    b = _unit(x.a)[0]
    return bool(_norms(b @ _ct(b) - _ct(b) @ b) <= tol * np.square(_norms(b)))


class _OperandStack(_PairStack):
    """A stack of operand pairs with the pairs of their moduli, abs =
    (|X|, |Y|) and adj = (|X*|, |Y*|), formed on first use over both
    operands of every pair: by the closed form for 2x2, else by one eigh
    call over the exactly Hermitian operands and one SVD call over the
    rest.  When every operand is exactly Hermitian, abs and adj hold the
    one array that eigh gives."""

    _moduli = _cached(lambda p: _Moduli(p.xy))
    abs = _cached(lambda p: _PairStack(p._moduli.abs()))
    adj = _cached(lambda p: _PairStack(p._moduli.adj()))


@dataclass(frozen=True)
class _Record:
    """One registry id: sides(p) is (lhs, rhs) as (n,) arrays over an
    _OperandStack, both scaled by t^degree when both operands are scaled by
    t; domain is "angle" (a zero operand makes both sides 0), "normal" or
    None; target and floor define the scan ratio (target None: no scan).
    A "normal" domain is enforced where operands enter: check tests its
    operands, verify draws only normal ensembles and the scanner decodes
    only normal pairs."""

    sides: Callable
    degree: int
    domain: str | None = None
    target: float | None = None
    floor: float = 0.0


_REGISTRY = {
    "CS_21": _Record(lambda p: (abs(p.inner), p.nx * p.ny), 2),
    "T213": _Record(lambda p: (np.square(abs(p.inner)), p.adj.inner.real * p.abs.inner.real), 4),
    "T214i": _Record(lambda p: (np.square(p.cos), p.adj.cos * p.abs.cos), 0, "angle"),
    # Cosines of PSD pairs are nonnegative; clamp roundoff before the sqrt.
    "T214ii": _Record(lambda p: (
        abs(p.cos), np.sqrt(np.maximum(0.0, np.minimum(p.adj.cos, p.abs.cos)))
    ), 0, "angle"),
    "T214iii": _Record(lambda p: (
        np.square(p.adj.sin) + np.square(p.abs.sin), 2.0 * np.square(p.sin)
    ), 0, "angle"),
    "T31": _Record(lambda p: (
        np.square(p.adj.ndiff) + np.square(p.abs.ndiff), 2.0 * np.square(p.ndiff)
    ), 2),
    "C32": _Record(lambda p: (p.abs.ndiff, SQRT2 * p.ndiff), 1, target=SQRT2, floor=1e-12),
    "R33": _Record(lambda p: (p.abs.ndiff, p.ndiff), 1, "normal", target=1.0, floor=1e-12),
    "T34": _Record(lambda p: (np.square(p.nsum), p.adj.nsum * p.abs.nsum), 2),
    "T35": _Record(lambda p: (np.square(p.abs.ndiff), p.nsum * p.ndiff), 2),
    "L31": _Record(lambda p: (
        p.nx * p.ny * p.abs.cos,
        p.abs.cos * (p.nx * p.nx + p.ny * p.ny) - p.nx * p.ny * p.abs.cos * p.abs.cos,
    ), 2, "angle"),
    "T36": _Record(lambda p: (p.adj.nsum, SQRT2 * p.abs.nsum), 1, target=SQRT2),
    "L32": _Record(lambda p: (
        2.0 * p.nx * p.ny * p.adj.cos,
        p.nx * p.nx + p.ny * p.ny + 4.0 * p.nx * p.ny * p.abs.cos,
    ), 2, "angle"),
    "T37": _Record(lambda p: (p.nsum, SUM_SHARP_CONSTANT * p.abs.nsum), 1, target=SUM_SHARP_CONSTANT),
}

INEQUALITY_IDS = tuple(_REGISTRY)
ANGLE_IDS = frozenset(i for i, r in _REGISTRY.items() if r.domain == "angle")
NORMAL_ONLY_IDS = frozenset(i for i, r in _REGISTRY.items() if r.domain == "normal")


def _lookup(inequality_id: str) -> _Record:
    """The registry record of an id; UnknownInequalityError names the known ids."""
    if inequality_id not in _REGISTRY:
        raise UnknownInequalityError(
            f"unknown inequality id {inequality_id!r}; known: {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[inequality_id]


def _sides(inequality_id: str, pair: _OperandStack):
    """The sides lhs, rhs of a registry id, as arrays over the rows of a
    stack of operand pairs in its domain.  The formula runs over the whole
    stack, whose moduli, norms, cosines and sines every id checked on it
    shares, so they are formed once for them all; each row's sides are
    formed from that row alone."""
    record = _lookup(inequality_id)
    if record.domain != "angle" or pair.norms.all():
        return record.sides(pair)
    # The angle ids presuppose nonzero operands; with a zero operand the
    # statement holds trivially, with both sides 0, whatever the formula
    # gave that row.
    keep = pair.norms.all(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        lhs, rhs = record.sides(pair)
    return np.where(keep, lhs, 0.0), np.where(keep, rhs, 0.0)


def check(
    inequality_id: str, x: ComplexMatrix, y: ComplexMatrix, tol: float = DEFAULT_CHECK_TOL
) -> InequalityReport:
    """Evaluate both sides of the inequality and report the slack.

    holds is slack >= -tol * scale with scale = max(|lhs|, |rhs|, 1): a
    relative test, as the sides are homogeneous of the record's degree.
    """
    record = _lookup(inequality_id)
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ShapeError(
            f"check requires square matrices of equal dimension, got "
            f"{x.rows}x{x.cols} and {y.rows}x{y.cols}"
        )
    if record.domain == "normal":
        for name, m in zip("XY", (x, y)):
            if not is_normal(m):
                raise NotNormalError(f"{inequality_id} requires normal operands; {name} is not")
    pair = _OperandStack(np.array(((x.a,), (y.a,))))
    lhs, rhs = (side.item() for side in _sides(inequality_id, pair))
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = rhs - lhs
    holds = slack >= -tol * scale
    return InequalityReport(inequality_id, lhs, rhs, slack, holds, scale, digest(x, y))


def _check_stack(inequality_id: str, pair: _OperandStack, tol: float, sel=slice(None)):
    """check of a registry id over the rows of a stack of operand pairs that
    the mask sel selects (every row by default): the arrays holds and
    slack/scale, entry by entry bit-equal to check's."""
    lhs, rhs = (side[sel] for side in _sides(inequality_id, pair))
    scale = np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)
    slack = rhs - lhs
    return slack >= -tol * scale, slack / scale


def _products(what: str, x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix):
    """The products XZ, ZY, X*Z and ZY* of conformable square operands, all
    scaled by the 2^-k that _unit takes X and Y, and Z, by; and the floor 1
    scaled alike, 2^-2k, capped against overflow.  No product can overflow."""
    if not (x.is_square and y.is_square and x.rows == z.rows and z.cols == y.rows):
        raise ShapeError(f"{what} requires conformable square operands")
    (xa, ya), j = _unit(np.array((x.a, y.a)), axis=None)
    za, k = _unit(z.a, axis=None)
    floor = math.ldexp(1.0, min(-2 * int(j + k), 1000))
    return (xa @ za, za @ ya, _ct(xa) @ za, za @ _ct(ya)), floor


def commutation_identity_residual(x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix) -> float:
    """Residual of the exact identity

    norm(XZ-ZY)^2 + norm(X*Z)^2 + norm(ZY*)^2
        = norm(XZ)^2 + norm(ZY)^2 + norm(X*Z-ZY*)^2,

    normalized by 1 + lhs.
    """
    (xz, zy, xsz, zys), floor = _products("commutation_identity_residual", x, y, z)
    n = np.square(_norms(np.array((xz - zy, xsz, zys, xz, zy, xsz - zys)))).tolist()
    lhs, rhs = n[0] + n[1] + n[2], n[3] + n[4] + n[5]
    return abs(lhs - rhs) / (floor + lhs)


def adjoint_link_residual(x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix) -> float:
    """Residual of  norm(XZ) norm(ZY) cos(XZ,ZY) = norm(X*Z) norm(ZY*) cos(X*Z,ZY*).

    Undefined (raises) when any of the four products vanishes.
    """
    (xz, zy, xsz, zys), floor = _products("adjoint_link_residual", x, y, z)
    p = _PairStack(np.array([[xz, xsz], [zy, zys]]))
    nx, ny = p.norms.tolist()
    for name, n in (("XZ", nx[0]), ("ZY", ny[0]), ("X*Z", nx[1]), ("ZY*", ny[1])):
        if n == 0.0:
            raise DegenerateIdentityError(f"product {name} is zero; the identity degenerates")
    s1, s2 = (p.nx * p.ny * p.cos).tolist()
    return abs(s1 - s2) / (floor + max(abs(s1), abs(s2)))


def angle_triangle_slack(x: ComplexMatrix, y: ComplexMatrix, z: ComplexMatrix):
    """Slacks of the two triangle inequalities through Z.

    Returns (sin-slack, theta-slack):
        sin(X,Z) + sin(Z,Y) - sin(X,Y)  and  theta(X,Z) + theta(Z,Y) - theta(X,Y).
    Both are nonnegative up to roundoff.
    """
    p = _angle_pairs("angle_triangle_slack", (x, z), (z, y), (x, y))
    (s1, s2, s), (c1, c2, c) = p.sin.tolist(), p.cos.tolist()
    return s1 + s2 - s, math.acos(c1) + math.acos(c2) - math.acos(c)


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
    # On the pair scaled by _unit, Y*X cannot overflow and no scale counts.
    (xa, ya), _ = _unit(np.array((x.a, y.a)), axis=None)
    p = _ct(ya) @ xa
    t = complex(np.trace(p))
    if t == 0:
        n = _norms(np.array((p, xa, ya)))
        return bool(n[0] <= tol * (1.0 + n[1] * n[2]))
    zeta = t.conjugate() / abs(t)
    return _is_psd(zeta * p, tol)
