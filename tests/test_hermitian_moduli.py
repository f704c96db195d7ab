"""The moduli of an exactly Hermitian X, |X| = |X*| = V|L|V* from one eigh
call, and the Hilbert-Schmidt inner product as one vecdot over the
entries: each matrix or pair of a stack gets the bits it gets alone,
whatever its neighbours, and both agree with the 50-digit reference of
tests/hp_oracle.py."""

import numpy as np
import pytest

from hp_oracle import inner as oracle_inner
from hp_oracle import moduli as oracle_moduli
from hsangle import (
    ENSEMBLE_KINDS,
    ComplexMatrix,
    EigensolverError,
    GeneratorSpec,
    abs_adjoint,
    abs_op,
    generate,
    hs_inner,
    hs_norm,
    identity,
)
from hsangle.hs_geometry import _inners, _unit
from hsangle.random_lab import _draw
from hsangle.spectral import _Moduli, _exactly_hermitian


def mixed_stack(dim, n=24):
    """n matrices of dim, in a shuffled order: hermitian, psd and ginibre
    draws, zero matrices, and draws scaled by 2^600 and 2^-600."""
    seeds = np.arange(n, dtype=np.uint64)
    parts = [_draw(kind, dim, seeds) for kind in ("hermitian", "psd", "ginibre")]
    a = np.concatenate([p[: n // 4] for p in parts] + [np.zeros((n - 3 * (n // 4), dim, dim))])
    k = np.random.default_rng(dim).integers(-1, 2, size=n) * 600
    a = np.ldexp(a.view(float), np.repeat(k, 2 * dim * dim).reshape(n, dim, 2 * dim)).view(complex)
    return a[np.random.default_rng(dim + 1).permutation(n)]


def stacks(dim):
    """The mixed stack as (2, n/2, d, d) pairs, contiguous, as a view with
    a non-contiguous last axis, and scaled by _unit."""
    a = mixed_stack(dim).reshape(2, -1, dim, dim)
    wide = np.zeros(a.shape[:-1] + (2 * dim,), dtype=complex)
    wide[..., ::2] = a
    return {"contiguous": a, "strided": wide[..., ::2], "unit": _unit(a)[0]}


@pytest.mark.parametrize("layout", ["contiguous", "strided", "unit"])
@pytest.mark.parametrize("dim", [3, 8, 64])
def test_each_matrix_of_a_stack_gets_its_moduli_alone(dim, layout):
    a = stacks(dim)[layout]
    h = _exactly_hermitian(a)
    assert h.any() and not h.all()
    stacked = _Moduli(a)
    # Every modulus is exactly Hermitian, by either route.
    assert _exactly_hermitian(stacked.modulus()).all()
    assert _exactly_hermitian(stacked.modulus(True)).all()
    for idx in np.ndindex(a.shape[:-2]):
        x = ComplexMatrix(a[idx])
        assert stacked.modulus()[idx].tobytes() == abs_op(x).a.tobytes()
        assert stacked.modulus(True)[idx].tobytes() == abs_adjoint(x).a.tobytes()
        if h[idx]:
            assert abs_op(x).a.tobytes() == abs_adjoint(x).a.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "strided", "unit"])
@pytest.mark.parametrize("dim", [3, 8, 64])
def test_each_pair_of_a_stack_gets_its_inner_product_alone(dim, layout):
    # Pairs of two matrices scaled by 2^600 overflow, alone or stacked.
    x, y = stacks(dim)[layout]
    y = y[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = _inners(x, y)
        for i in range(len(x)):
            alone = hs_inner(ComplexMatrix(x[i]), ComplexMatrix(y[i]))
            assert stacked[i].tobytes() == np.complex128(alone).tobytes()
            assert _inners(x[i], y[i]).tobytes() == stacked[i].tobytes()


@pytest.mark.parametrize("kind", ["hermitian", "psd"])
@pytest.mark.parametrize("dim", range(3, 9))
def test_eigh_moduli_are_within_1e_15_of_the_oracle(kind, dim):
    for seed in range(3):
        a = generate(GeneratorSpec(kind, dim, seed)).a
        assert _Moduli(a)._hermitian
        x = ComplexMatrix(a)
        bound = 1e-15 * hs_norm(x)
        for got, ref in zip((abs_op(x), abs_adjoint(x)), oracle_moduli(a)):
            assert np.abs(got.a - ref).max() <= bound


# sqrt(5) u, u = 2^-53, bounds the error of one complex product relative to
# |x| |y|.  A dim-1 ginibre pair here is off by 2.14e-16 |x| |y|, as tr(Y*X)
# formed by matmul is too; no pair of a larger dim by more than 1.1e-16.
INNER_TOL = np.sqrt(5.0) * 2.0**-53


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_inner_product_is_within_sqrt5_u_of_the_oracle(kind):
    for dim in (1, 2, 3, 8, 64):
        for seed in range(3):
            x, y = (generate(GeneratorSpec(kind, dim, 2 * seed + k)) for k in (0, 1))
            err = abs(hs_inner(x, y) - oracle_inner(x.a, y.a))
            assert err <= INNER_TOL * hs_norm(x) * hs_norm(y)


def test_an_eigh_failure_is_an_eigensolver_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigensolverError, match="^eigendecomposition failed: did not converge$"):
        abs_op(identity(3))
