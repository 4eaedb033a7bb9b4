"""Connecting operator between two Hermitian structures.

Two positive-definite Hermitian forms h1, h2 on the same space determine
a unique positive operator G with h2(x, y) = h1(Gx, y); G is self-adjoint
with respect to both forms, and its eigenpairs solve the pencil
h2 x = lam h1 x.  With h1 = L Lᴴ, both come from one inverted Cholesky
factor: G = L⁻ᴴ (L⁻¹ h2), and the pencil is congruent to the Hermitian
L⁻¹ h2 L⁻ᴴ.  :class:`ConnectingOperator` computes them once, at
construction, for every later stage; it also bounds κ(h1) from the same
inverted factor for its ill-conditioned flag, and verifies G's
invariants.  A transformation preserving both forms necessarily commutes
with G, which is what :func:`verify_biunitary` checks numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InternalInconsistencyError, NonFiniteError, SingularMetricError
from .forms import (
    _EPS,
    _TINY,
    DEFAULT_TOLERANCES,
    HermitianForm,
    Tolerances,
    _fro,
    _read_only,
)

__all__ = [
    "ConnectingOperator",
    "BiUnitaryReport",
    "connecting_operator",
    "invariants_hold",
    "verify_biunitary",
]


@dataclass(frozen=True, eq=False)
class ConnectingOperator:
    """The positive operator linking a pair of Hermitian forms, flagged and verified.

    Built from the two forms and the tolerances alone; everything else is
    derived from them once, at construction, and stored read-only, from
    the inverse of h1's Cholesky factor L (``h1.inverse_factor``) and the
    product L⁻¹ h2.  ``mat`` is G = L⁻ᴴ (L⁻¹ h2), so ``h2.gram ==
    h1.gram @ mat``, self-adjoint with respect to both forms.
    ``spectrum`` (the eigenvalues of G, ascending) and ``eigenvectors``
    (the matching h1-orthonormal eigenvectors, as column-major columns)
    are the one solve of the pencil h2 x = lam h1 x, by the congruence
    L⁻¹ h2 L⁻ᴴ.  ``residuals`` holds :meth:`invariant_residuals`.
    ``tol`` is the pair's one tolerance model: every later stage, from
    the spectral resolution to :func:`verify_biunitary` given this
    operator, reads its thresholds from it.

    ``ill_conditioned`` flags an h1 whose condition number κ₂(h1) exceeds
    1/``tol.tol_eig``.  A bound on κ₂(h1) from the same inverse factor
    decides the flag for every h1 well inside the limit; only near or past
    it are h1's eigenvalues computed, and the flag is then their ratio, so
    it falls exactly where the eigenvalue ratio puts it.

    The gate: G must satisfy the defining identity, self-adjointness with
    respect to both forms (within ``tol.tol_resid``) and positivity
    (:func:`invariants_hold`).  With validated positive-definite inputs
    these hold automatically, so a violation is an internal inconsistency
    rather than an input error, except in three cases.  A flagged h1
    bypasses the gate: its degraded residuals are tolerated and the
    flagged result is kept for the caller to judge.  A failure on a G
    that underflowed, ρ(G) below tiny/ε, comes from forms scaled too far
    apart.  A failure with positivity the only clause broken comes from an
    h2 that passed its own positivity check only by rounding.

    Raises
    ------
    DimensionMismatchError
        If the two forms have different dimensions.
    SingularMetricError
        If h1 passed its positivity check but is numerically singular: its
        Cholesky factorization failed, so G has no spectrum to report.
        Or if h2 is numerically singular: G's smallest eigenvalue is at or
        below zero while the other invariants hold.
    NonFiniteError
        If the forms are scaled so far apart that G or a residual leaves
        the double range, G's overflow and underflow alike.
    InternalInconsistencyError
        If the gate fails on an unflagged h1 for any other reason.
    """

    h1: HermitianForm
    h2: HermitianForm
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)
    ill_conditioned: bool = field(init=False, default=False)  # so a constructor that raised still has a repr
    mat: np.ndarray = field(init=False, repr=False)
    spectrum: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)
    residuals: dict[str, float] = field(init=False, repr=False)

    def __post_init__(self):
        h1, h2, tol = self.h1, self.h2, self.tol
        if h1.dim != h2.dim:
            raise DimensionMismatchError(f"form dimensions differ: {h1.dim} vs {h2.dim}")
        linv = h1.inverse_factor
        if linv is None:
            w_min = h1.eigenvalues[0]
            msg = f"h1 is numerically singular: its Cholesky factorization failed (min eigenvalue {w_min:.3e})"
            raise SingularMetricError(msg)
        far_apart = "G or its invariant residuals leave the double range: h1 and h2 are scaled too far apart"
        with np.errstate(over="ignore", invalid="ignore"):
            linv_h, lk = linv.conj().T, linv @ h2.gram
            try:
                w, y = np.linalg.eigh(lk @ linv_h)
            except np.linalg.LinAlgError:  # LAPACK does not converge on an overflowed congruence
                raise NonFiniteError(far_apart) from None
            v = np.asfortranarray(linv_h @ y)  # column-major: later products' bytes depend on the layout
            mat = linv_h @ lk
        object.__setattr__(self, "mat", _read_only(mat))
        object.__setattr__(self, "spectrum", _read_only(w))
        object.__setattr__(self, "eigenvectors", _read_only(v))
        r = self.invariant_residuals()
        object.__setattr__(self, "residuals", r)
        if not all(map(math.isfinite, r.values())):
            raise NonFiniteError(f"{far_apart} (residuals {r})")
        object.__setattr__(self, "ill_conditioned", _ill_conditioned(h1, tol))
        if not invariants_hold(r, tol) and not self.ill_conditioned:
            if max(-w[0], w[-1]) < _TINY / _EPS:
                raise NonFiniteError(f"{far_apart} (residuals {r})")
            if all(r[key] <= tol.tol_resid for key in ("defining", "selfadjoint_h1", "selfadjoint_h2")):
                raise SingularMetricError(
                    f"h2 is numerically singular: G's smallest eigenvalue is {r['min_eigenvalue']:.3e}"
                )
            raise InternalInconsistencyError(f"connecting operator failed invariant verification: {r}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def invariant_residuals(self) -> dict[str, float]:
        """Relative residuals of the three defining invariants.

        Keys: ``defining`` for ||h2 - h1 G|| / ||h2||, ``selfadjoint_h1``
        and ``selfadjoint_h2`` for the two metric self-adjointness
        residuals, and ``min_eigenvalue`` for the smallest eigenvalue of
        G (positive for a valid pair), ``spectrum[0]``.
        """
        h1, h2, g = self.h1.gram, self.h2.gram, self.mat
        with np.errstate(over="ignore", invalid="ignore"):
            h1g = h1 @ g
            out = {"defining": _fro(h2 - h1g) / max(_fro(h2), _TINY)}
            for key, k in (("selfadjoint_h1", h1g), ("selfadjoint_h2", h2 @ g)):
                out[key] = _fro(k - k.conj().T) / max(_fro(k), _TINY)
        out["min_eigenvalue"] = float(self.spectrum[0])
        return out


def invariants_hold(residuals: dict[str, float], tol: Tolerances) -> bool:
    """Whether :meth:`ConnectingOperator.invariant_residuals` passes.

    The three residuals must be within ``tol.tol_resid`` and the smallest
    eigenvalue of G strictly positive.
    """
    return (
        residuals["defining"] <= tol.tol_resid
        and residuals["selfadjoint_h1"] <= tol.tol_resid
        and residuals["selfadjoint_h2"] <= tol.tol_resid
        and residuals["min_eigenvalue"] > 0.0
    )


def _ill_conditioned(h1: HermitianForm, tol: Tolerances) -> bool:
    """Whether κ₂(h1) = λmax/λmin exceeds the limit 1/``tol.tol_eig``.

    With h1 = L Lᴴ, κ₂(h1) = λmax·‖L⁻¹‖₂² ≤ ‖h1‖_F·‖L⁻¹‖_F² (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 15), a bound
    read in O(n²) from h1's inverse factor.  When it is at most half the
    limit and n·u times it is below 1e-3, the eigenvalue ratio would be
    accurate and under the limit too, so h1 is not ill-conditioned and no
    eigensolve runs.  Otherwise the flag is the ratio of h1's eigenvalues,
    in Python floats, so that a form whose eigvalsh puts the smallest
    eigenvalue at or below zero reads inf without numpy's overflow warning.
    """
    limit = 1.0 / tol.tol_eig
    linv_norm = _fro(h1.inverse_factor)
    bound = _fro(h1.gram) * linv_norm * linv_norm
    if bound <= 0.5 * limit and 0.5 * _EPS * h1.dim * bound < 1e-3:
        return False
    w1 = h1.eigenvalues
    return float(w1[-1]) / max(float(w1[0]), _TINY) > limit


def connecting_operator(
    h1: HermitianForm,
    h2: HermitianForm,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ConnectingOperator:
    """``ConnectingOperator(h1, h2, tol)``: G of (h1, h2), flagged and verified.

    The class states the flag rule, the gate and what it raises.
    """
    return ConnectingOperator(h1, h2, tol)


@dataclass(frozen=True)
class BiUnitaryReport:
    """Residuals of the two form-preservation checks and the commutator.

    All residuals are relative: form preservation against the form norm,
    the commutator against ||G|| * ||U||.  ``passed`` requires all three
    within ``tol_resid``; ``implication_ok`` records that preserving both
    forms forced the commutator small (within ten times the residual
    tolerance), which must hold for every input.
    """

    residual_h1: float
    residual_h2: float
    residual_commutator: float
    h1_ok: bool
    h2_ok: bool
    commutator_ok: bool
    implication_ok: bool

    @property
    def passed(self) -> bool:
        return self.h1_ok and self.h2_ok and self.commutator_ok


def _commutator_residual(a: np.ndarray, g: np.ndarray) -> float:
    """||[G, A]|| relative to ||G|| * ||A||."""
    return _fro(g @ a - a @ g) / max(_fro(g) * _fro(a), _TINY)


def verify_biunitary(
    u: np.ndarray,
    h1: HermitianForm,
    h2: HermitianForm,
    tol: Tolerances = DEFAULT_TOLERANCES,
    connecting: ConnectingOperator | None = None,
) -> BiUnitaryReport:
    """Check that U preserves both forms and commutes with G.

    Parameters
    ----------
    u : ndarray
        Candidate transformation, square, matching the form dimension.
    tol : Tolerances
        Used only to build the connecting operator when ``connecting`` is
        not given.
    connecting : ConnectingOperator, optional
        Precomputed connecting operator for (h1, h2); computed on demand
        otherwise.  Its ``tol.tol_resid`` sets every threshold of the
        report.

    Raises
    ------
    DimensionMismatchError
        If shapes are inconsistent.
    NonFiniteError
        If U has a non-finite entry, or U and the forms are scaled so far
        apart that a residual leaves the double range.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError("U must be a square matrix")
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("U contains non-finite entries")
    if h1.dim != h2.dim or u.shape[0] != h1.dim:
        raise DimensionMismatchError("U and form dimensions differ")
    if connecting is None:
        connecting = ConnectingOperator(h1, h2, tol)
    g, tol = connecting.mat, connecting.tol

    uh = u.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = _fro(uh @ h1.gram @ u - h1.gram) / max(_fro(h1.gram), _TINY)
        r2 = _fro(uh @ h2.gram @ u - h2.gram) / max(_fro(h2.gram), _TINY)
        rc = _commutator_residual(u, g)
    if not all(map(math.isfinite, (r1, r2, rc))):
        raise NonFiniteError(
            f"bi-unitarity residuals leave the double range: U and the forms are scaled too far apart "
            f"(residuals {r1}, {r2}, {rc})"
        )
    h1_ok = r1 <= tol.tol_resid
    h2_ok = r2 <= tol.tol_resid
    comm_ok = rc <= tol.tol_resid
    implication_ok = (not (h1_ok and h2_ok)) or rc <= 10.0 * tol.tol_resid
    return BiUnitaryReport(
        residual_h1=r1,
        residual_h2=r2,
        residual_commutator=rc,
        h1_ok=h1_ok,
        h2_ok=h2_ok,
        commutator_ok=comm_ok,
        implication_ok=implication_ok,
    )
