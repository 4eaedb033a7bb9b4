"""Alternative Hermitian structures on finite-dimensional spaces.

Construct admissible (metric, complex structure, symplectic form)
triples, complexify them into Hermitian forms, compute the connecting
operator between two forms, classify and sample the bi-unitary group,
and decompose the space into spectral fibers on which the two forms are
proportional.
"""

from .connecting import (
    BiUnitaryReport,
    ConnectingOperator,
    connecting_operator,
    invariants_hold,
    verify_biunitary,
)
from .decomposition import (
    DecomposableOperator,
    ProportionalityReport,
    ScalarBlockReport,
    build_decomposition,
    check_bicommutant_scalar,
    check_genericity_consistency,
    check_proportionality,
    phase_biunitary,
    project_to_commutant_blocks,
    sample_biunitary,
)
from .errors import (
    BihermError,
    DegenerateSpectrumError,
    DegenerateSymplecticError,
    DimensionMismatchError,
    FileFormatError,
    InternalInconsistencyError,
    NegativeSpectrumError,
    NonFiniteError,
    NotAdmissibleError,
    NotGenericError,
    NotInCommutantError,
    NotSelfAdjointError,
    NotSkewError,
    SingularMetricError,
    ZeroCoefficientError,
    ZeroVectorError,
)
from .forms import (
    DEFAULT_TOLERANCES,
    ComplexStructureJ,
    HermitianForm,
    RealForm,
    Tolerances,
    ValidationReport,
    generalized_eig,
    krylov_rank,
    orthonormalize,
    sqrt_positive,
    validate_positive,
)
from .spectral import (
    Fiber,
    GroupSignature,
    SpectralResolution,
    bicommutant_dimension,
    commutant_dimension,
    cyclic_vector,
    group_signature,
    is_cyclic,
    is_generic_by_commutant,
    is_generic_by_spectrum,
    spectral_resolution,
)
from .triples import (
    AdmissibleTriple,
    ComplexificationMap,
    build_complexification,
    complexification_from_j,
    hermitian_from_triple,
    omega_from_g_j,
    symmetrize_metric,
    triple_from_g_j,
    triple_from_g_omega,
)

__version__ = "0.1.0"
