"""Hilbert-Schmidt geometry toolkit: inner products, angles, polar
decompositions, and randomized verification of the norm inequalities built
on them."""

from .matrix_core import (
    ComplexMatrix,
    ComplexVector,
    ShapeError,
    ValidationError,
    add,
    adjoint,
    digest,
    identity,
    matmul,
    rank_one,
    scale,
    trace,
    vec_inner,
    zeros,
)
from .spectral import (
    EigensolverError,
    HermitianEigen,
    PolarParts,
    abs_adjoint,
    abs_op,
    franca_abs_2x2,
    hermitian_eig,
    is_psd,
    polar,
    polar_identity_residuals,
    reconstruct,
)
from .hs_geometry import (
    AngleReport,
    ZeroOperandError,
    angle,
    angle_report,
    cos_angle,
    cosine_expansion,
    hs_inner,
    hs_norm,
    is_weak_orthogonal,
    is_weak_parallel,
    sin_angle,
)
from .inequality_suite import (
    ANGLE_IDS,
    DegenerateIdentityError,
    INEQUALITY_IDS,
    InequalityReport,
    NotNormalError,
    SQRT2,
    SUM_SHARP_CONSTANT,
    UnknownInequalityError,
    adjoint_link_residual,
    angle_triangle_slack,
    check,
    commutation_identity_residual,
    is_normal,
    t213_equality_holds,
)
from .random_lab import (
    ENSEMBLE_KINDS,
    CounterRng,
    GeneratorSpec,
    ReproReport,
    SuiteReport,
    applicable_specs,
    derive_seed,
    generate,
    reproduce_witnesses,
    run_property_suite,
    run_single_trial,
    witness_triple,
)
from .scan import ScanResult, sharpness_scan

__version__ = "0.1.0"
