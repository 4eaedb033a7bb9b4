"""Validated matrix-backed forms and the shared dense-algebra kernel.

Everything downstream (triple construction, connecting operators,
spectral analysis, fibered decompositions) is built on the form types
and the tolerance bundle in this module.  A :class:`HermitianForm`
decides positivity by its Cholesky factor and keeps it.  Everything
that solves against a metric rests on one numpy-only kernel: a Cholesky
factor inverted as a triangle in 2×2 blocks (:func:`_lower_inverse`).
A form keeps its inverted factor too, and :mod:`biherm.connecting`
reads h1's for the Cholesky congruence of the pencil (h2, h1) (Golub &
Van Loan, *Matrix Computations*, section 8.7), for G itself and for an
O(n²) bound on κ(h1), once per pair; h1's eigenvalues are computed only
when that bound cannot decide the ill-conditioned flag.
:mod:`biherm.triples` inverts the factor of a real metric g the same
way, to read the polar factor of its (g, omega) route in g's frame.
The module also keeps the Krylov rank of a start vector, which no other
module calls.  All types are immutable after construction and all
operations are pure functions, so values can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, ZeroVectorError

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "RealForm",
    "ComplexStructureJ",
    "HermitianForm",
    "krylov_rank",
]

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_FRO_LOW = math.sqrt(_TINY / _EPS)


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
    """max|mat| (0 when empty); a real matrix is read by its max and min, with no |mat| copy,
    so the writers' kind check holds one matrix-sized temporary (A ∓ Aᴴ) beside one block of rows, not two."""
    a = np.abs(mat) if np.iscomplexobj(mat) else mat
    return abs(float(max(a.max(initial=0.0), -a.min(initial=0.0))))


def _fro(mat: np.ndarray) -> float:
    """‖mat‖_F, safe from overflow and underflow.

    The plain norm, √(Re vdot(mat, mat)) by one BLAS dot, is returned
    whenever it is finite and at least ``_FRO_LOW`` = √(tiny/ε): there,
    the squares that gradual underflow rounds (each by at most tiny·u)
    move the sum of an n×n matrix by at most 2·n²·u² relative.  Otherwise
    it is ``math.hypot`` of every entry, real and imaginary parts alike,
    which scales internally and neither warns nor raises: subnormal
    entries keep their digits, a norm past the largest double reads inf,
    and an inf entry gives inf, else a nan entry nan.  The fast path
    squares no entry above 1 in a numpy ufunc, so no input makes it warn.
    """
    nrm = math.sqrt(float(np.vdot(mat, mat).real))
    if _FRO_LOW <= nrm < math.inf:
        return nrm
    parts = np.stack((mat.real, mat.imag)) if np.iscomplexobj(mat) else mat
    return math.hypot(*parts.ravel().tolist())


def _asymmetry(mat: np.ndarray, sign: int) -> tuple[float, float]:
    """max|A - Aᴴ| (sign +1) or max|A + Aᴴ| (sign -1), and the scale max(max|A|, tiny)."""
    adj = mat.conj().T
    return _maxabs(mat - adj if sign > 0 else mat + adj), max(_maxabs(mat), _TINY)


def _within_tol_sym(mat: np.ndarray, sign: int, tol: Tolerances) -> bool:
    """Whether max|A ∓ Aᴴ| ≤ tol_sym·max|A| (sign +1: A = Aᴴ; -1: A = -Aᴴ): the one symmetry rule."""
    resid, scale = _asymmetry(mat, sign)
    return not resid > tol.tol_sym * scale


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
            if not _within_tol_sym(mat, sign, self.tol):
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
    the second argument.  Positivity is decided by a Cholesky
    factorization ``gram = factor @ factor.conj().T``, and ``factor``
    keeps the lower-triangular factor, frozen: the connecting operator
    and the pencil of a pair whose first form this is both start from
    it.  When the factorization fails the form falls back to the
    eigenvalue verdict: a gram whose smallest eigenvalue is still
    positive is accepted, numerically singular, with ``factor`` None.
    ``inverse_factor`` holds L⁻¹ for ``factor`` = L (None without a
    factor), computed on first use by :func:`_lower_inverse` and frozen:
    G, the pencil and the condition certificate of a pair all read it.
    ``eigenvalues`` holds the ascending eigenvalues of ``gram``, computed
    on first use and frozen; no stage of a pair reads them unless the
    bound on κ(h1) cannot decide the ill-conditioned flag (see
    :func:`biherm.connecting.connecting_operator`).
    """

    gram: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)
    factor: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        mat = _require_square(self.gram, "gram").astype(complex, copy=False)
        if not _within_tol_sym(mat, 1, self.tol):
            raise ValueError("gram is not Hermitian within tolerance")
        object.__setattr__(self, "gram", _read_only(mat, copy=True))
        try:
            factor = _read_only(np.linalg.cholesky(self.gram))
        except np.linalg.LinAlgError:
            w = self.eigenvalues
            if w[0] <= 0.0:
                raise ValueError(f"gram is not positive-definite (min eigenvalue {w[0]:.3e})") from None
            factor = None
        object.__setattr__(self, "factor", factor)

    @cached_property
    def inverse_factor(self) -> np.ndarray | None:
        return None if self.factor is None else _read_only(_lower_inverse(self.factor))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(self.gram))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.asarray(x).conj() @ self.gram @ np.asarray(y))


_LEAF = 32


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix by recursive 2×2 blocking.

    With ``low = [[A, 0], [B, C]]`` the inverse is
    ``[[A⁻¹, 0], [-(C⁻¹ B) A⁻¹, C⁻¹]]`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 14).  Blocks of at most ``_LEAF`` rows
    go to ``np.linalg.inv``, so up to that size the result is its array;
    above it the work is two half-size inverses and two gemms per level.
    """
    n = low.shape[0]
    if n <= _LEAF:
        return np.linalg.inv(low)
    h = n // 2
    a_inv = _lower_inverse(low[:h, :h])
    c_inv = _lower_inverse(low[h:, h:])
    out = np.zeros_like(a_inv, shape=(n, n))
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -(c_inv @ low[h:, :h]) @ a_inv
    return out


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
    counts close pairs of the eigenvalues G already holds instead.

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
