"""Power-of-two scaling properties: the angle, the norm, the two residual
identities and the T213 equality decision are homogeneous in the operands,
so scaling them by 2^k may move a result only by the matching power of two.
The scalings reach 2^+-900, where the squares of the entries overflow or
underflow float64."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsangle import (
    ENSEMBLE_KINDS,
    ComplexMatrix,
    GeneratorSpec,
    ValidationError,
    adjoint_link_residual,
    commutation_identity_residual,
    cos_angle,
    generate,
    hermitian_eig,
    hs_norm,
    is_psd,
    sin_angle,
    t213_equality_holds,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

kinds = st.sampled_from(ENSEMBLE_KINDS)
dims = st.integers(1, 4)
seeds = st.integers(0, 2**32)
exponents = st.integers(-900, 900)


def operands(kind, dim, seed, count):
    return [generate(GeneratorSpec(kind, dim, seed + i)) for i in range(count)]


def scaled(m, k):
    """2^k m, exactly, part by part."""
    a = np.empty_like(m.a)
    a.real, a.imag = np.ldexp(m.a.real, k), np.ldexp(m.a.imag, k)
    return ComplexMatrix(a)


@PROPERTY
@given(kinds, dims, seeds, exponents)
def test_angle_is_bit_equal_under_scaling(kind, dim, seed, k):
    x, y = operands(kind, dim, seed, 2)
    sx, sy = scaled(x, k), scaled(y, k)
    assert cos_angle(sx, sy) == cos_angle(x, y)
    assert sin_angle(sx, sy) == sin_angle(x, y)


@PROPERTY
@given(kinds, dims, seeds, exponents)
def test_norm_scales_exactly(kind, dim, seed, k):
    (x,) = operands(kind, dim, seed, 1)
    assert hs_norm(scaled(x, k)) == math.ldexp(hs_norm(x), k)


@PROPERTY
@given(kinds, dims, seeds, exponents)
def test_residual_identities_hold_at_every_scale(kind, dim, seed, k):
    # The products are nonzero, so neither identity may degenerate.
    x, y, z = (scaled(m, k) for m in operands(kind, dim, seed, 3))
    assert commutation_identity_residual(x, y, z) <= 1e-12
    assert adjoint_link_residual(x, y, z) <= 1e-12


@PROPERTY
@given(kinds, dims, seeds, exponents)
def test_t213_equality_decision_is_scale_free(kind, dim, seed, k):
    x, y = operands(kind, dim, seed, 2)
    for a, b in ((x, y), (x, x)):
        assert t213_equality_holds(scaled(a, k), scaled(b, k)) == t213_equality_holds(a, b)


@PROPERTY
@given(st.integers(2, 4), seeds, st.integers(0, 900))
def test_large_non_hermitian_input_stays_rejected(dim, seed, k):
    (x,) = (scaled(m, k) for m in operands("ginibre", dim, seed, 1))
    with pytest.raises(ValidationError):
        hermitian_eig(x)
    assert not is_psd(x, 1e-9)
