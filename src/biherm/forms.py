"""Validated matrix-backed forms and the shared dense-algebra kernel.

Everything downstream (triple construction, connecting operators, spectral
analysis, fibered decompositions) is built on the form types and two
operations in this module: the metric generalized eigensolver and the
positive operator square root.  Both rest on one numpy-only kernel, the
Cholesky congruence of a Hermitian pencil (Golub & Van Loan, *Matrix
Computations*, section 8.7), which :mod:`biherm.connecting` also uses to
solve the pencil (h2, h1) once per pair.  The module also keeps the
Krylov rank of a start vector, which no other module calls.  All types
are immutable after construction and all operations are pure functions,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativeSpectrumError,
    NonFiniteError,
    NotSelfAdjointError,
    SingularMetricError,
    ZeroVectorError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "RealForm",
    "ComplexStructureJ",
    "HermitianForm",
    "generalized_eig",
    "sqrt_positive",
    "krylov_rank",
]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by every validation and residual check.

    Defaults are calibrated for double-precision dense algebra at
    dimensions up to a few hundred.

    Attributes
    ----------
    tol_sym : float
        Relative symmetry/hermiticity tolerance.
    tol_j : float
        Residual allowed in the complex-structure identity J^2 = -1.
    tol_eig : float
        Relative eigenvalue-cluster gap and rank threshold, measured
        against the spectral radius / largest singular value.
    tol_resid : float
        Relative residual allowed in operator identities.

    Each tolerance must be finite, strictly positive and less than 1:
    every one is relative, and a value of 1 or more makes products such
    as ``tol_eig`` times the spectral radius overflow.
    """

    tol_sym: float = 1e-10
    tol_j: float = 1e-9
    tol_eig: float = 1e-8
    tol_resid: float = 1e-10

    def __post_init__(self):
        for name in ("tol_sym", "tol_j", "tol_eig", "tol_resid"):
            value = getattr(self, name)
            if np.isinf(value):
                raise ValueError(f"{name} must be finite")
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if value >= 1.0:
                raise ValueError(f"{name} must be less than 1")


DEFAULT_TOLERANCES = Tolerances()


def _read_only(a: np.ndarray, copy: bool = False) -> np.ndarray:
    """``a`` made read-only: copied first when it came from a caller
    (``copy``), so that no caller keeps a writable alias of a stored array."""
    if copy:
        a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def _require_square(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteError(f"{what} contains non-finite entries")
    return mat


def _maxabs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def _fro(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


def _asymmetry(mat: np.ndarray, sign: int) -> tuple[float, float]:
    """max|A - Aᴴ| (sign +1) or max|A + Aᴴ| (sign -1), and the scale max(max|A|, tiny).

    Every symmetric, antisymmetric and Hermitian check compares these two.
    """
    adj = mat.conj().T
    return _maxabs(mat - adj if sign > 0 else mat + adj), max(_maxabs(mat), _TINY)


@dataclass(frozen=True, eq=False)
class RealForm:
    """A real bilinear form on R^m given by its Gram matrix.

    Evaluation convention: ``form(x, y) = x @ gram @ y``.
    """

    gram: np.ndarray
    symmetry_tag: str = "general"
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        mat = _require_square(self.gram, "gram")
        if np.iscomplexobj(mat):
            raise ValueError("RealForm gram must be real")
        mat = mat.astype(float, copy=False)
        if self.symmetry_tag != "general":
            sign = {"symmetric": 1, "antisymmetric": -1}.get(self.symmetry_tag)
            if sign is None:
                raise ValueError(f"unknown symmetry_tag {self.symmetry_tag!r}")
            resid, scale = _asymmetry(mat, sign)
            if resid > self.tol.tol_sym * scale:
                raise ValueError(f"gram is not {self.symmetry_tag} within tolerance")
        object.__setattr__(self, "gram", _read_only(mat, copy=True))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))


@dataclass(frozen=True, eq=False)
class ComplexStructureJ:
    """A real linear operator J with J^2 = -1 on an even-dimensional space.

    ``residual`` holds max |J^2 + 1| as checked at construction.
    """

    mat: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)
    residual: float = field(init=False, repr=False)

    def __post_init__(self):
        mat = _require_square(self.mat, "mat")
        if np.iscomplexobj(mat):
            raise ValueError("complex structure matrix must be real")
        if mat.shape[0] % 2 != 0:
            raise ValueError("complex structure requires even dimension")
        mat = _read_only(mat.astype(float, copy=False), copy=True)
        resid = _maxabs(mat @ mat + np.eye(mat.shape[0]))
        if resid > self.tol.tol_j:
            raise ValueError(f"J^2 = -1 violated: residual {resid:.3e} exceeds {self.tol.tol_j:.3e}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "residual", resid)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """A positive-definite Hermitian form on C^n given by its Gram matrix.

    Evaluation convention: ``form(x, y) = x.conj() @ gram @ y``, linear in
    the second argument.  ``eigenvalues`` holds the ascending eigenvalues
    of ``gram`` from the positivity check, frozen.
    """

    gram: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _require_square(self.gram, "gram").astype(complex, copy=False)
        resid, scale = _asymmetry(mat, 1)
        if resid > self.tol.tol_sym * scale:
            raise ValueError("gram is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(mat)
        if w[0] <= 0.0:
            raise ValueError(f"gram is not positive-definite (min eigenvalue {w[0]:.3e})")
        object.__setattr__(self, "gram", _read_only(mat, copy=True))
        object.__setattr__(self, "eigenvalues", _read_only(w))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.asarray(x).conj() @ self.gram @ np.asarray(y))


def _metric_eigh(k: np.ndarray, metric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian pencil k x = lam metric x, by Cholesky congruence.

    With metric = L L^H the pencil is congruent to (L^{-1} k L^{-H}) y = lam y,
    and x = L^{-H} y.  Returns the ascending eigenvalues and the
    metric-orthonormal eigenvectors as the columns of a column-major
    matrix.  Raises :class:`SingularMetricError` when the Cholesky
    factorization fails.
    """
    try:
        linv = np.linalg.inv(np.linalg.cholesky(metric))
        w, y = np.linalg.eigh(linv @ k @ linv.conj().T)
    except np.linalg.LinAlgError:
        raise SingularMetricError("metric is not positive-definite") from None
    return w, np.asfortranarray(linv.conj().T @ y)


def generalized_eig(
    a: np.ndarray,
    metric: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a metric-self-adjoint operator.

    Solves ``a @ v = lam * v`` for an operator that is self-adjoint with
    respect to the positive-definite ``metric`` M (that is, M·a = a†·M).
    The problem is reduced by Cholesky congruence of M to a standard
    Hermitian one (:func:`_metric_eigh`), which keeps the eigenvectors
    M-orthonormal.

    Returns
    -------
    eigenvalues : ndarray, shape (n,)
        Real, sorted ascending.
    eigenvectors : ndarray, shape (n, n)
        Columns satisfy ``V.conj().T @ metric @ V = I``.

    Raises
    ------
    NotSelfAdjointError
        If ``metric @ a`` is not Hermitian within ``tol.tol_resid``.
    SingularMetricError
        If ``metric`` is not Hermitian or not positive-definite.
    """
    a = _require_square(a, "operator")
    metric = _require_square(metric, "metric")
    resid, scale = _asymmetry(metric, 1)
    if resid > tol.tol_sym * scale:
        raise SingularMetricError("metric is not Hermitian within tolerance")
    if a.shape != metric.shape:
        raise ValueError("operator and metric dimensions differ")
    k = metric @ a
    resid, scale = _asymmetry(k, 1)
    if resid > tol.tol_resid * scale:
        raise NotSelfAdjointError(
            f"operator is not metric-self-adjoint (relative residual {resid / scale:.3e})"
        )
    k = 0.5 * (k + k.conj().T)
    return _metric_eigh(k, 0.5 * (metric + metric.conj().T))


def sqrt_positive(
    mat: np.ndarray,
    metric: np.ndarray | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Positive square root of a metric-self-adjoint non-negative operator.

    Computed through the spectral decomposition (deterministic, and the
    result is metric-self-adjoint by construction): R = V sqrt(w) V^{-1}
    with V^{-1} = V† M.

    Raises
    ------
    NegativeSpectrumError
        If an eigenvalue is below ``-tol.tol_eig`` relative to the
        spectral radius.
    """
    mat = _require_square(mat, "operator")
    if metric is None:
        metric = np.eye(mat.shape[0])
    w, v = generalized_eig(mat, metric, tol)
    radius = max(float(np.max(np.abs(w))), _TINY)
    if w[0] < -tol.tol_eig * radius:
        raise NegativeSpectrumError(
            f"operator has negative eigenvalue {w[0]:.6e} (spectral radius {radius:.6e})"
        )
    root = np.sqrt(np.clip(w, 0.0, None))
    vinv = v.conj().T @ metric
    return (v * root) @ vinv


def krylov_rank(
    g: np.ndarray,
    x0: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Rank of the Krylov matrix [x0, G·x0, ..., G^{n-1}·x0].

    The rank is revealed by orthogonalizing the Krylov sequence
    incrementally (each new direction is G applied to the latest
    orthonormal vector, then projected against the basis).  The monomial
    columns themselves are far too ill-conditioned to survive a plain
    SVD threshold beyond n ~ 15, while the incremental factorization has
    the same exact-arithmetic rank and stays well-scaled.  A new
    direction counts as dependent when its residual is at most
    ``tol.tol_eig`` relative to its pre-projection norm.

    The rank can be trusted when ``x0`` is known to be cyclic (for
    example one built by :func:`biherm.spectral.cyclic_vector`) and the
    spectrum of G is well separated.  It is not a cyclicity test for an
    arbitrary G: at n ~ 100 the degree-k Krylov polynomials lose small
    eigencomponents to rounding, so the rank of a degenerate G often
    reaches n.  No default path calls it; :func:`biherm.spectral.is_cyclic`
    counts Lanczos Ritz values instead.

    Raises
    ------
    ZeroVectorError
        If ``x0`` has zero norm.
    """
    g = _require_square(g, "operator")
    x0 = np.asarray(x0)
    if x0.ndim != 1 or x0.shape[0] != g.shape[0]:
        raise ValueError("x0 must be 1-D and match the operator dimension")
    if not np.all(np.isfinite(x0)):
        raise NonFiniteError("x0 contains non-finite entries")
    nrm = float(np.linalg.norm(x0))
    if nrm == 0.0:
        raise ZeroVectorError("x0 has zero norm")

    n = g.shape[0]
    complex_case = np.iscomplexobj(g) or np.iscomplexobj(x0)
    q = (x0 / nrm).astype(complex if complex_case else float)
    basis = [q]
    for _ in range(n - 1):
        w = g @ basis[-1]
        scale = float(np.linalg.norm(w))
        for _ in range(2):
            for b in basis:
                w = w - b * (b.conj() @ w)
        resid = float(np.linalg.norm(w))
        if resid <= tol.tol_eig * max(scale, _TINY):
            break
        basis.append(w / resid)
    return len(basis)
