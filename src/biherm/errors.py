"""Exception hierarchy for structure construction and analysis."""


class BihermError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteError(BihermError):
    """A matrix or vector contains NaN or infinite entries."""


class DimensionMismatchError(BihermError):
    """Operands have incompatible shapes."""


class SingularMetricError(BihermError):
    """Metric matrix is not Hermitian positive-definite."""


class ZeroVectorError(BihermError):
    """A vector argument that must be nonzero has zero norm."""


class NotAdmissibleError(BihermError):
    """Metric / complex-structure / symplectic-form compatibility failed."""


class DegenerateSymplecticError(BihermError):
    """Antisymmetric form is singular, so no complex structure exists."""


class NotSkewError(BihermError):
    """Operator expected to be skew with respect to the metric is not."""


class DegenerateSpectrumError(BihermError):
    """Operation requires all eigenvalues simple, but a cluster has
    multiplicity greater than one."""


class ZeroCoefficientError(BihermError):
    """A coefficient that must be nonzero is zero."""


class NotInCommutantError(BihermError):
    """Operator does not commute with the connecting operator.

    Carries the offending relative commutator residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotGenericError(BihermError):
    """Operation requires all fibers one-dimensional (generic position)."""


class InternalInconsistencyError(BihermError):
    """Two routes that must agree produced different answers.

    This indicates a defect in the implementation, not in the input.
    """


class FileFormatError(BihermError):
    """A matrix/triple file failed to parse or validate."""
