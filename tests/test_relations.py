"""Relations the mathematics fixes between the checks of related operand
pairs, checked over the stacked path (_check_stack) at dims 1 to 64, where
the 50-digit oracle does not reach.  Each relation is exact in real
arithmetic:

- joint unitary equivalence (UXW, UYW), for every id but R33, whose domain
  it leaves: Re Tr(Y*X) and norm are unitarily invariant, |UXW| = W*|X|W and
  |(UXW)*| = U|X*|U*;
- joint unitary similarity (UXU*, UYU*), for every id, R33 included;
- joint phase (e^{it}X, e^{it}Y);
- swap (Y, X): every registry formula is symmetric in X and Y;
- adjoint (X*, Y*): the theorem at other operands, so holds stays; the ids
  whose formula is symmetric under |X| <-> |X*| keep their slack too;
- zero padding (X + 0_k, Y + 0_k), the direct sums with the k x k zero
  matrix, for every id: norms, inner products and moduli are direct sums.
  Padding a 2x2 pair compares the closed form of its moduli with the eigh
  and SVD routes, and padding a 1x1 pair takes it into the closed form.

A related pair keeps every holds and moves slack/scale by at most 1e-13.
A unitary image of an exactly Hermitian operand is not bit-Hermitian, so
the relations cross the eigh/SVD boundary of the moduli by construction.
Two refinement chains hold on every stack: T213's rhs <= CS_21's rhs^2 (T213
refines Cauchy-Schwarz) and C32's lhs^2 <= T31's lhs (T31 refines
Araki-Yamagami), each within 1e-13 relative."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsangle import ENSEMBLE_KINDS, INEQUALITY_IDS
from hsangle.inequality_suite import _OperandStack, _check_stack, _sides
from hsangle.matrix_core import _ct
from hsangle.random_lab import NORMAL_ENSEMBLE_KINDS, _draw

PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)
BOUND = 1e-13

# The ids whose sides are symmetric under (|X|, |Y|) <-> (|X*|, |Y*|), with
# R33, whose normal operands have |X| = |X*|.
ADJOINT_SYMMETRIC = frozenset({"CS_21", "T213", "T214i", "T214ii", "T214iii", "T31", "T34", "R33"})


def checks(xy, ids):
    """Each id's holds and slack/scale over the stack, after asserting the
    refinement chains on it."""
    pair = _OperandStack(xy)
    t213, cs = _sides("T213", pair)[1], _sides("CS_21", pair)[1]
    assert (t213 - np.square(cs) <= BOUND * np.square(cs)).all()
    c32, t31 = _sides("C32", pair)[0], _sides("T31", pair)[0]
    assert (np.square(c32) - t31 <= BOUND * t31).all()
    return {iid: _check_stack(iid, pair, 1e-9) for iid in ids}


@PROPERTY
@given(
    st.sampled_from(ENSEMBLE_KINDS),
    st.sampled_from((1, 2, 3, 5, 8, 16, 32, 64)),
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.floats(0.0, 2.0 * math.pi),
)
def test_related_pairs_keep_every_check(kind, dim, count, seed, phase):
    seeds = np.arange(2 * count, dtype=np.uint64).reshape(2, count) + np.uint64(seed)
    xy = _draw(kind, dim, seeds)
    u, w = _draw("unitary", dim, seeds + np.uint64(2 * count))
    ids = [iid for iid in INEQUALITY_IDS if iid != "R33" or kind in NORMAL_ENSEMBLE_KINDS]
    general = [iid for iid in ids if iid != "R33"]
    symmetric = [iid for iid in ids if iid in ADJOINT_SYMMETRIC]
    base = checks(xy, ids)
    # name: (related stack, the ids checked on it, those that keep slack/scale)
    related = {
        "equivalence": (u @ xy @ w, general, general),
        "similarity": (u @ xy @ _ct(u), ids, ids),
        "phase": (np.exp(1j * phase) * xy, ids, ids),
        "swap": (xy[::-1], ids, ids),
        "adjoint": (_ct(xy), ids, symmetric),
    }
    for name, (image, checked, kept) in related.items():
        after = checks(image, checked)
        for iid in checked:
            (holds, rel), (holds_after, rel_after) = base[iid], after[iid]
            assert holds_after.tolist() == holds.tolist(), (name, iid)
            if iid in kept:
                assert (abs(rel_after - rel) <= BOUND).all(), (name, iid, abs(rel_after - rel).max())


PADDINGS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1), (5, 3), (8, 8), (16, 1), (31, 1)]


@pytest.mark.parametrize(("dim", "k"), PADDINGS)
def test_zero_padding_keeps_every_check(dim, k):
    for kind in ENSEMBLE_KINDS:
        seeds = np.arange(48, dtype=np.uint64).reshape(2, 24) + np.uint64(100 * dim + k)
        xy = _draw(kind, dim, seeds)
        padded = np.zeros(xy.shape[:2] + (dim + k, dim + k), dtype=complex)
        padded[..., :dim, :dim] = xy
        ids = [iid for iid in INEQUALITY_IDS if iid != "R33" or kind in NORMAL_ENSEMBLE_KINDS]
        base, after = checks(xy, ids), checks(padded, ids)
        for iid in ids:
            (holds, rel), (holds_after, rel_after) = base[iid], after[iid]
            assert holds_after.tolist() == holds.tolist(), (kind, iid)
            assert (abs(rel_after - rel) <= BOUND).all(), (kind, iid, abs(rel_after - rel).max())
