"""Connecting operator between two Hermitian structures.

Two positive-definite Hermitian forms h1, h2 on the same space determine
a unique positive operator G with h2(x, y) = h1(Gx, y); G is self-adjoint
with respect to both forms, and its eigenpairs solve the pencil
h2 x = lam h1 x, which :class:`ConnectingOperator` solves once, at
construction, for every later stage.  A transformation preserving both
forms necessarily commutes with G, which is what
:func:`verify_biunitary` checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InternalInconsistencyError, NonFiniteError, SingularMetricError
from .forms import _TINY, DEFAULT_TOLERANCES, HermitianForm, Tolerances, _fro, _metric_eigh

__all__ = [
    "ConnectingOperator",
    "BiUnitaryReport",
    "connecting_operator",
    "invariants_hold",
    "verify_biunitary",
]


@dataclass(frozen=True, eq=False)
class ConnectingOperator:
    """The positive operator linking a pair of Hermitian forms.

    ``mat`` satisfies ``h2.gram == h1.gram @ mat`` and is self-adjoint
    with respect to both forms.  ``ill_conditioned`` flags a defining
    form h1 whose condition number exceeds the reciprocal eigenvalue
    tolerance; results are still returned in that case but residuals may
    be degraded.  ``spectrum`` (the eigenvalues of G, ascending) and
    ``eigenvectors`` (the matching h1-orthonormal eigenvectors, as
    column-major columns) are the one solve of the pencil
    h2 x = lam h1 x, made at construction and read-only; a numerically
    singular h1 raises :class:`SingularMetricError` there.  ``residuals``
    holds :meth:`invariant_residuals` as computed once at construction.
    """

    mat: np.ndarray
    h1: HermitianForm
    h2: HermitianForm
    ill_conditioned: bool = False
    spectrum: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)
    residuals: dict[str, float] = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("connecting matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteError("connecting matrix contains non-finite entries")
        if mat.shape[0] != self.h1.dim or mat.shape[0] != self.h2.dim:
            raise DimensionMismatchError("connecting matrix and form dimensions differ")
        mat = np.array(mat, copy=True)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        try:
            w, v = _metric_eigh(self.h2.gram, self.h1.gram)
        except SingularMetricError:
            w_min = self.h1.eigenvalues[0]
            msg = f"h1 is numerically singular: its Cholesky factorization failed (min eigenvalue {w_min:.3e})"
            raise SingularMetricError(msg) from None
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "spectrum", w)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "residuals", self.invariant_residuals())

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


def connecting_operator(
    h1: HermitianForm,
    h2: HermitianForm,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ConnectingOperator:
    """Solve h1.gram @ G = h2.gram for the connecting operator G.

    The system is solved directly (no explicit inverse).  G is verified
    to satisfy the defining identity, self-adjointness with respect to
    both forms, and positivity before being returned; with validated
    positive-definite inputs these hold automatically, so a violation is
    reported as an internal inconsistency rather than an input error —
    except when h1 is flagged ill-conditioned, where degraded residuals
    are tolerated and the flagged result is returned for the caller to
    judge.

    Raises
    ------
    DimensionMismatchError
        If the two forms have different dimensions.
    SingularMetricError
        If h1 passed its positivity check but is numerically singular: its
        Cholesky factorization fails, so G has no spectrum to report.
    """
    if h1.dim != h2.dim:
        raise DimensionMismatchError(f"form dimensions differ: {h1.dim} vs {h2.dim}")
    w1 = h1.eigenvalues
    cond = float(w1[-1] / max(w1[0], _TINY))
    ill = cond > 1.0 / tol.tol_eig
    g = np.linalg.solve(h1.gram, h2.gram)
    op = ConnectingOperator(g, h1, h2, ill_conditioned=ill)
    if not invariants_hold(op.residuals, tol) and not ill:
        raise InternalInconsistencyError(
            f"connecting operator failed invariant verification: {op.residuals}"
        )
    return op


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
    connecting : ConnectingOperator, optional
        Precomputed connecting operator for (h1, h2); computed on demand
        otherwise.

    Raises
    ------
    DimensionMismatchError
        If shapes are inconsistent.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError("U must be a square matrix")
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("U contains non-finite entries")
    if h1.dim != h2.dim or u.shape[0] != h1.dim:
        raise DimensionMismatchError("U and form dimensions differ")
    if connecting is None:
        connecting = connecting_operator(h1, h2, tol)
    g = connecting.mat

    uh = u.conj().T
    r1 = _fro(uh @ h1.gram @ u - h1.gram) / max(_fro(h1.gram), _TINY)
    r2 = _fro(uh @ h2.gram @ u - h2.gram) / max(_fro(h2.gram), _TINY)
    rc = _commutator_residual(u, g)
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
