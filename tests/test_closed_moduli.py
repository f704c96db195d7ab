"""The closed form of the 2x2 moduli, |X| = (X*X + delta I) / r and |X*| =
(XX* + delta I) / r with delta = |det X| and r = sigma_1 + sigma_2: its
accuracy against the 50-digit reference of tests/hp_oracle.py, including
near-singular, rank-one and zero X, its exact homogeneity under
power-of-two scaling, and the bits of its quantities against a
term-by-term reference."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hp_oracle import moduli as oracle_moduli
from hsangle import (
    ENSEMBLE_KINDS,
    ComplexMatrix,
    GeneratorSpec,
    abs_adjoint,
    abs_op,
    franca_abs_2x2,
    generate,
    witness_triple,
)
from hsangle.random_lab import _draw
from hsangle.spectral import _QUANTITIES, _Moduli, _quantities


def near_singular(eps):
    return np.array([[1, 1], [1, 1 + eps]], dtype=complex)


def rank_one(seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.outer(u, v.conj())


CASES = {
    **{f"1+{eps:.0e}": near_singular(eps) for eps in 10.0 ** -np.arange(2, 15)},
    **{f"rank-one-{seed}": rank_one(seed) for seed in range(5)},
    "rank-one-exact": np.array([[1, 2], [2, 4]], dtype=complex),
    "zero": np.zeros((2, 2), dtype=complex),
    **{f"witness-{name}": m.a for name, m in zip("xyz", witness_triple())},
    **{
        f"ginibre-{seed}": generate(GeneratorSpec("ginibre", 2, seed)).a
        for seed in range(100)  # 50 pairs
    },
}


@pytest.mark.parametrize("name", CASES)
def test_moduli_are_within_1e_15_of_the_oracle(name):
    a = CASES[name]
    x = ComplexMatrix(a)
    bound = 1e-15 * np.linalg.norm(a)
    for got, ref in zip((abs_op(x), abs_adjoint(x)), oracle_moduli(a)):
        assert np.linalg.norm(got.a - ref) <= bound


def test_franca_keeps_the_digits_of_a_near_singular_matrix():
    # sqrt(det(A*A)) would lose half of them: 5.0e-9 away from the reference.
    a = near_singular(1e-8)
    ref, _ = oracle_moduli(a)
    assert np.linalg.norm(franca_abs_2x2(ComplexMatrix(a)).a - ref) <= 1e-15


PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


def scaled(a, k):
    """2^k a, exactly, part by part."""
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
    return out


def assert_exactly_hermitian(m):
    assert np.array_equal(m, m.conj().T)
    assert not np.diag(m).imag.any()


@PROPERTY
@given(st.sampled_from(ENSEMBLE_KINDS), st.integers(0, 2**32), st.integers(-900, 900))
def test_moduli_scale_exactly(kind, seed, k):
    for a in (generate(GeneratorSpec(kind, 2, seed)).a, rank_one(seed), np.zeros((2, 2), complex)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, sx = ComplexMatrix(a), ComplexMatrix(scaled(a, k))
            for modulus in (abs_op, abs_adjoint):
                m, sm = modulus(x).a, modulus(sx).a
                assert sm.tobytes() == scaled(m, k).tobytes()
                assert_exactly_hermitian(sm)


@pytest.mark.parametrize("size", [1, 5, 64, 2048])
def test_each_matrix_of_a_stack_gets_its_moduli_alone(size):
    # In-range matrices, matrices scaled by 2^600 and 2^-600, which take the
    # rescue, and zero matrices, mixed in one stack: the rescue must pick out
    # exactly the matrices that need it, and no matrix's bits may depend on
    # its neighbours.
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    kind = rng.permutation(np.arange(size) % 4)
    a = scaled(a, np.array([0, 600, -600, 0])[kind][:, None, None])
    a[kind == 3] = 0.0
    stacked = _Moduli(a)
    for i, x in enumerate(ComplexMatrix(m) for m in a):
        assert stacked.abs()[i].tobytes() == abs_op(x).a.tobytes()
        assert stacked.adj()[i].tobytes() == abs_adjoint(x).a.tobytes()
        assert_exactly_hermitian(stacked.abs()[i])
        assert_exactly_hermitian(stacked.adj()[i])


def test_the_closed_form_holds_two_product_arrays_at_once():
    # The 52 signed products of a stack of n matrices form one (52, n)
    # array, multiplied in place; a third array of them at once would
    # take the peak past 2.5 of them.
    n = 333
    a = np.ascontiguousarray(_draw("ginibre", 2, np.arange(n, dtype=np.uint64)))
    tracemalloc.start()
    try:
        _quantities(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 52 * n * 8


@np.errstate(over="ignore", invalid="ignore")
def reference_quantities(a):
    """_quantities term by term: each term of a _QUANTITIES string is the
    product of its two components, negated for a minus sign, and the four
    are summed as (t0 + t2) + (t1 + t3); |det X| is added to quantities 0-3."""
    part = dict(zip("abcdefgh", a.view(float).reshape(-1, 8).T))
    q = []
    for terms in _QUANTITIES:
        t = [-(part[x] * part[y]) if sign == "-" else part[x] * part[y]
             for sign, x, y in re.findall("([+-]?)(.)(.)", terms)]
        q.append((t[0] + t[2]) + (t[1] + t[3]))
    q = np.array(q)
    q[:4] += np.hypot(q[10], q[11])
    return q, np.sqrt(q[0] + q[1])


@pytest.mark.parametrize("variant", ["ginibre", "signed-zeros", "2^600"])
@pytest.mark.parametrize("size", [1, 288, 2048])
def test_the_quantities_are_their_terms_summed_in_a_fixed_order(size, variant):
    # Bit for bit, so the sign and the order of each sum are pinned: a
    # product negated or a sum regrouped moves a bit of some matrix, a
    # signed zero or an overflowed quantity.
    rng = np.random.default_rng(size)
    a = np.ascontiguousarray(_draw("ginibre", 2, np.arange(size, dtype=np.uint64)))
    f = a.view(float).reshape(size, 8)
    if variant == "signed-zeros":
        f[rng.random(f.shape) < 0.5] = 0.0
        f[:] = np.copysign(f, rng.choice([-1.0, 1.0], size=f.shape))
    elif variant == "2^600":
        # Their products overflow float64: the rows _Moduli redoes scaled.
        f[::2] *= 2.0**600
    q, r = _quantities(a)
    ref_q, ref_r = reference_quantities(a)
    assert q.tobytes() == ref_q.tobytes()
    assert r.tobytes() == ref_r.tobytes()
