"""A 50-digit reference for the inequality registry, independent of hsangle.

The moduli come from mpmath's complex SVD X = U S V (|X| = V* S V and
|X*| = U S U*), inner products and norms are sums of mpc entries, and the 14
(lhs, rhs) pairs are written out from the registry table in README.md.  The
operands are converted from float64 exactly, so the only error left in a
side is the 50-digit arithmetic.
"""

import numpy as np
from mpmath import mp

DIGITS = 50


def _matrix(a):
    return mp.matrix([[mp.mpc(v.real, v.imag) for v in row] for row in a.tolist()])


def _moduli(a):
    """(|A|, |A*|) of a square mp.matrix."""
    u, s, v = mp.svd_c(a)
    d = mp.diag(s)
    return v.H * d * v, u * d * u.H


def _inner(a, b):
    """<A, B> = tr(B* A)."""
    return mp.fsum(a[i, j] * mp.conj(b[i, j]) for i in range(a.rows) for j in range(a.cols))


def _norm(a):
    return mp.mnorm(a, "F")


def _cos(a, b):
    return mp.re(_inner(a, b)) / (_norm(a) * _norm(b))


def _sin(a, b):
    return mp.sqrt(max(mp.zero, 1 - _cos(a, b) ** 2))


def registry_sides(x, y) -> dict:
    """{id: (lhs, rhs)} at DIGITS digits for square numpy operands x, y of
    equal dimension; the moduli of each operand are computed once."""
    with mp.workdps(DIGITS):
        X, Y = _matrix(x), _matrix(y)
        (ax, sx), (ay, sy) = _moduli(X), _moduli(Y)
        nx, ny = _norm(X), _norm(Y)
        c, c_abs, c_adj = _cos(X, Y), _cos(ax, ay), _cos(sx, sy)
        root2 = mp.sqrt(2)
        return {
            "CS_21": (abs(_inner(X, Y)), nx * ny),
            "T213": (abs(_inner(X, Y)) ** 2, mp.re(_inner(sx, sy)) * mp.re(_inner(ax, ay))),
            "T214i": (c**2, c_adj * c_abs),
            "T214ii": (abs(c), mp.sqrt(max(mp.zero, min(c_adj, c_abs)))),
            "T214iii": (_sin(sx, sy) ** 2 + _sin(ax, ay) ** 2, 2 * _sin(X, Y) ** 2),
            "T31": (_norm(sx - sy) ** 2 + _norm(ax - ay) ** 2, 2 * _norm(X - Y) ** 2),
            "C32": (_norm(ax - ay), root2 * _norm(X - Y)),
            "R33": (_norm(ax - ay), _norm(X - Y)),
            "T34": (_norm(X + Y) ** 2, _norm(sx + sy) * _norm(ax + ay)),
            "T35": (_norm(ax - ay) ** 2, _norm(X + Y) * _norm(X - Y)),
            "L31": (nx * ny * c_abs, c_abs * (nx**2 + ny**2) - nx * ny * c_abs**2),
            "T36": (_norm(sx + sy), root2 * _norm(ax + ay)),
            "L32": (2 * nx * ny * c_adj, nx**2 + ny**2 + 4 * nx * ny * c_abs),
            "T37": (_norm(X + Y), mp.sqrt((root2 + 1) / 2) * _norm(ax + ay)),
        }


def moduli(a):
    """(|A|, |A*|) of a square numpy matrix, each entry rounded to float64
    once."""
    with mp.workdps(DIGITS):
        return tuple(
            np.array([[complex(v) for v in row] for row in m.tolist()]) for m in _moduli(_matrix(a))
        )


def inner(a, b) -> complex:
    """<A, B> = tr(B* A) of numpy matrices, rounded to complex128 once."""
    with mp.workdps(DIGITS):
        return complex(_inner(_matrix(a), _matrix(b)))


def norm(a) -> float:
    """The Hilbert-Schmidt norm of a numpy matrix, rounded to float64 once."""
    with mp.workdps(DIGITS):
        return float(_norm(_matrix(a)))


def relative_slack(lhs, rhs) -> float:
    """slack / scale as check defines it, (rhs - lhs) / max(|lhs|, |rhs|, 1),
    rounded to float64 once."""
    with mp.workdps(DIGITS):
        return float((rhs - lhs) / max(abs(lhs), abs(rhs), mp.one))
