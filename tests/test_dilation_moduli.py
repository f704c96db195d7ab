"""A second route to |X| and |X*| at every dim, 1 through 64: one eigh of the
Hermitian dilation H = [[0, X], [X*, 0]].  H^2 = diag(XX*, X*X), so |H| =
diag(|X*|, |X|) and the off-diagonal blocks of |H| vanish.  That eigh takes
a LAPACK driver the SVD route does not and squares no spectrum, so it checks
_Moduli's closed form, eigh and SVD routes above the dims where the 50-digit
reference of tests/hp_oracle.py stops (d <= 8)."""

import numpy as np
import pytest

from hsangle import ENSEMBLE_KINDS
from hsangle.random_lab import _draw
from hsangle.spectral import _Moduli

U = 2.0**-53
# Every block of |H| - diag(|X*|, |X|) within 64 u sqrt(d) norm(X), in the
# Frobenius norm; over 40 draws per kind at dims 3-64 the worst read 21.
BOUND = 64.0


def operands(dim):
    """Draws of each of the six ensembles, six per kind up to dim 16 and one
    above; a zero matrix; and a ginibre and a hermitian draw, one route each
    above 2x2, scaled by 2^600 and by 2^-600."""
    seeds = np.arange(6 if dim <= 16 else 1, dtype=np.uint64)
    draws = [_draw(kind, dim, seeds) for kind in ENSEMBLE_KINDS]
    pair = np.concatenate([_draw(kind, dim, seeds[:1]) for kind in ("ginibre", "hermitian")])
    scaled = [pair * 2.0**600, pair * 2.0**-600]
    return np.concatenate(draws + [np.zeros((1, dim, dim))] + scaled)


def dilation_modulus(a):
    """|H| = V|L|V* of the dilation H of each matrix of a stack a (n, d, d)."""
    d = a.shape[-1]
    h = np.zeros((len(a), 2 * d, 2 * d), dtype=complex)
    h[:, :d, d:] = a
    h[:, d:, :d] = a.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(h)
    return (v * abs(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("d", range(1, 65))
def test_moduli_agree_with_the_dilation(d):
    a = operands(d)
    moduli = _Moduli(a)
    m = dilation_modulus(a)
    deviations = {
        "|X|": m[:, d:, d:] - moduli.abs(),
        "|X*|": m[:, :d, :d] - moduli.adj(),
        "upper block": m[:, :d, d:],
        "lower block": m[:, d:, :d],
    }
    # Norms of each matrix divided by its largest entry, which squares of
    # entries at 2^600 would overflow; a zero matrix is divided by tiny.
    s = np.maximum(abs(a).max(axis=(-2, -1)), np.finfo(float).tiny)[:, None, None]
    bound = BOUND * U * np.sqrt(d) * np.linalg.norm(a / s, axis=(-2, -1))
    for name, dev in deviations.items():
        err = np.linalg.norm(dev / s, axis=(-2, -1))
        assert (err <= bound).all(), (name, np.flatnonzero(err > bound))
