"""Admissible triples (metric, complex structure, symplectic form).

A triple (g, J, omega) is *admissible* when J is anti-Hermitian with
respect to the positive metric g, J^2 = -1, and the three are linked by
``gram_omega = gram_g @ J`` (i.e. omega(x, y) = g(x, Jy); this fixed
matrix convention is used everywhere to prevent sign drift).  Admissible
triples complexify the real space and carry a positive-definite
Hermitian structure

    h(x, y) = g(x, y) + i * g(Jx, y),

linear in the second argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSymplecticError,
    NonFiniteError,
    NotAdmissibleError,
    NotSkewError,
)
from .forms import (
    _TINY,
    DEFAULT_TOLERANCES,
    ComplexStructureJ,
    HermitianForm,
    RealForm,
    Tolerances,
    _asymmetry,
    _fro,
    _lower_inverse,
    _maxabs,
    _read_only,
    _require_square,
    _within_tol_sym,
)

__all__ = [
    "AdmissibleTriple",
    "ComplexificationMap",
    "symmetrize_metric",
    "omega_from_g_j",
    "triple_from_g_j",
    "triple_from_g_omega",
    "build_complexification",
    "complexification_from_j",
    "hermitian_from_triple",
]


def _metric_min_eigenvalue(g: RealForm, tol: Tolerances, message: str) -> float:
    """Smallest eigenvalue of the symmetrized Gram matrix of g; raises
    NotAdmissibleError(message) unless g is symmetric within ``tol.tol_sym``
    and that eigenvalue is positive."""
    w_min = float(np.linalg.eigvalsh(0.5 * (g.gram + g.gram.T))[0])
    if not (_within_tol_sym(g.gram, 1, tol) and w_min > 0.0):
        raise NotAdmissibleError(message)
    return w_min


@dataclass(frozen=True, eq=False)
class AdmissibleTriple:
    """A compatible (g, J, omega) triple; invariants checked on construction.

    The checked quantities are kept: ``residuals`` holds ``j_squared``
    (max |J^2 + 1|), ``anti_hermitian`` (max |J^T g + g J|) and
    ``omega_link`` (max |omega - g J|), the last two relative to max |g|;
    ``metric_min_eigenvalue`` holds the smallest eigenvalue of g.

    Raises
    ------
    NotAdmissibleError
        If g is not symmetric positive-definite, J is not g-anti-Hermitian,
        or omega does not equal g composed with J.
    """

    g: RealForm
    j: ComplexStructureJ
    omega: RealForm
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)
    residuals: dict[str, float] = field(init=False, repr=False)
    metric_min_eigenvalue: float = field(init=False, repr=False)

    def __post_init__(self):
        g, j, omega = self.g.gram, self.j.mat, self.omega.gram
        if not (g.shape == j.shape == omega.shape):
            raise NotAdmissibleError("g, J and omega dimensions differ")
        if self.g.symmetry_tag != "symmetric":
            raise NotAdmissibleError("g must be tagged symmetric")
        if self.omega.symmetry_tag != "antisymmetric":
            raise NotAdmissibleError("omega must be tagged antisymmetric")
        min_eig = _metric_min_eigenvalue(self.g, self.tol, "g is not positive-definite")
        scale = max(_maxabs(g), _TINY)
        gj = g @ j
        anti = _maxabs(j.T @ g + gj)
        if anti > self.tol.tol_resid * scale:
            raise NotAdmissibleError(
                f"J is not g-anti-Hermitian (relative residual {anti / scale:.3e})"
            )
        link = _maxabs(omega - gj)
        if link > self.tol.tol_resid * scale:
            raise NotAdmissibleError(
                f"omega != g o J (relative residual {link / scale:.3e})"
            )
        residuals = {"j_squared": self.j.residual, "anti_hermitian": anti / scale, "omega_link": link / scale}
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "metric_min_eigenvalue", min_eig)

    @property
    def dim(self) -> int:
        return self.g.dim


def symmetrize_metric(
    g: RealForm,
    j: ComplexStructureJ,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> RealForm:
    """Average a positive metric with its J-pullback.

    Returns g_s with Gram matrix ``(J.T @ g @ J + g) / 2``.  The result is
    symmetric positive-definite whenever g is, J is g_s-anti-Hermitian by
    construction, and the operation is idempotent.  A g_s past the
    largest double raises :class:`NonFiniteError`.
    """
    if g.dim != j.dim:
        raise NotAdmissibleError("metric and complex structure dimensions differ")
    _metric_min_eigenvalue(g, tol, "metric is not symmetric positive-definite")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = 0.5 * (j.mat.T @ g.gram @ j.mat + g.gram)
    if not np.all(np.isfinite(gram)):
        raise NonFiniteError("the J-averaged metric leaves the double range: g and J are scaled too far apart")
    gram = 0.5 * (gram + gram.T)
    return RealForm(gram, "symmetric", tol)


def omega_from_g_j(
    g: RealForm,
    j: ComplexStructureJ,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> RealForm:
    """Symplectic form of an admissible couple: ``gram_omega = gram_g @ J``.

    Requires J to already be g-anti-Hermitian (apply
    :func:`symmetrize_metric` first otherwise).
    """
    if g.dim != j.dim:
        raise NotAdmissibleError("metric and complex structure dimensions differ")
    scale = max(_maxabs(g.gram), _TINY)
    gram = g.gram @ j.mat
    anti = _maxabs(j.mat.T @ g.gram + gram)
    if anti > tol.tol_resid * scale:
        raise NotAdmissibleError(
            f"J is not g-anti-Hermitian (relative residual {anti / scale:.3e}); "
            "symmetrize the metric first"
        )
    gram = 0.5 * (gram - gram.T)
    return RealForm(gram, "antisymmetric", tol)


def triple_from_g_j(
    g: RealForm,
    j: ComplexStructureJ,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AdmissibleTriple:
    """Admissible triple from a metric and a complex structure.

    Symmetrizes the metric, then completes with the induced symplectic
    form; a J too far from J^2 = -1 for that raises NotAdmissibleError.
    """
    g_s = symmetrize_metric(g, j, tol)
    try:
        omega = omega_from_g_j(g_s, j, tol)
    except NotAdmissibleError:  # averaging over J leaves J's own J^2 + 1 as the only cause
        raise NotAdmissibleError(f"J is not g-anti-Hermitian: J^2 = -1 holds only to {j.residual:.3e}") from None
    return AdmissibleTriple(g_s, j, omega, tol)


def triple_from_g_omega(
    g: RealForm,
    omega: RealForm,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AdmissibleTriple:
    """Admissible triple from a metric and a nondegenerate symplectic form.

    The operator B with omega(x, y) = g(x, By) (matrix form
    ``B = gram_g^{-1} @ gram_omega``) is g-skew; its polar factorization
    B = J R, with R g-self-adjoint positive, yields J^2 = -1 and
    ``gram_{g_omega} = gram_g @ R``.  It is read in g's Cholesky frame
    (Higham, *Functions of Matrices*, ch. 8): with gram_g = L Lᵀ, the
    matrix B̃ = L⁻¹ gram_omega L⁻ᵀ is skew, and one SVD B̃ = U Σ Vᵀ gives

        J = L⁻ᵀ (U Vᵀ) Lᵀ,   gram_{g_omega} = L (V Σ Vᵀ) Lᵀ,

    so the returned triple (g_omega, J, omega) satisfies every
    admissibility invariant.  When g and omega already come from an
    admissible couple, R = 1 and the original metric and complex
    structure are recovered.

    Raises
    ------
    DegenerateSymplecticError
        If B̃ is singular (smallest singular value at most ``tol.tol_eig``
        relative to the largest); in particular for odd dimension.  Also
        when B̃ is so near singular that J misses J² = -1 by ``tol.tol_j``.
    NotSkewError
        If B̃ is not skew within ``tol.tol_resid``, i.e. omega is not
        antisymmetric.
    NotAdmissibleError
        If g is not a symmetric positive-definite metric.
    NonFiniteError
        If g and omega are scaled so far apart that B̃ leaves the double
        range: past the largest double, or underflowed, its largest
        singular value below what ‖omega‖₂ ≤ ‖g‖₂·‖B̃‖₂ allows.
    """
    if g.dim != omega.dim:
        raise NotAdmissibleError("metric and symplectic form dimensions differ")
    _metric_min_eigenvalue(g, tol, "metric is not symmetric positive-definite")
    try:
        low = np.linalg.cholesky(g.gram)
    except np.linalg.LinAlgError:
        raise NotAdmissibleError("metric is not symmetric positive-definite") from None
    far_apart = "B = L^-1 omega L^-T leaves the double range: g and omega are scaled too far apart"
    with np.errstate(over="ignore", invalid="ignore"):
        linv = _lower_inverse(low)
        b = linv @ omega.gram @ linv.T
    if not np.all(np.isfinite(b)):
        raise NonFiniteError(far_apart)
    u, svals, vt = np.linalg.svd(b)
    if svals[-1] <= tol.tol_eig * max(svals[0], _TINY):
        if float(svals[0]) * _fro(g.gram) < 0.5 * _fro(omega.gram) / math.sqrt(g.dim):
            raise NonFiniteError(far_apart)  # ‖omega‖_F ≤ √m·‖g‖_F·‖B̃‖₂ unless B̃ underflowed
        raise DegenerateSymplecticError(
            f"symplectic form is degenerate (relative smallest singular value "
            f"{svals[-1] / max(svals[0], _TINY):.3e})"
        )
    skew_resid, scale = _asymmetry(b, -1)
    if skew_resid > tol.tol_resid * scale:
        raise NotSkewError(f"B is not g-skew (relative residual {skew_resid / scale:.3e})")
    j_mat = linv.T @ ((u @ vt) @ low.T)
    gram_w = low @ ((vt.T * svals) @ vt) @ low.T
    gram_w = 0.5 * (gram_w + gram_w.T)
    g_omega = RealForm(gram_w, "symmetric", tol)
    try:
        j = ComplexStructureJ(j_mat, tol)
    except ValueError as exc:  # J's rounding grows as u over the relative smallest singular value
        raise DegenerateSymplecticError(
            f"J from the polar factor is inaccurate (relative smallest singular value "
            f"{svals[-1] / max(svals[0], _TINY):.3e}): {exc}"
        ) from None
    return AdmissibleTriple(g_omega, j, omega, tol)


@dataclass(frozen=True, eq=False)
class ComplexificationMap:
    """Identification of R^{2n} with C^n through a J-adapted basis.

    ``basis`` holds the ordered real basis (u_1..u_n, J u_1..J u_n) as
    columns; a real vector with coordinates (a, b) in this basis maps to
    the complex vector a + i b.  The map satisfies
    ``to_real(1j * z) = J @ to_real(z)`` and round-trips exactly.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or basis.shape[0] % 2 or not basis.size:
            raise ValueError("basis must be a square matrix of even dimension")
        if np.iscomplexobj(basis):
            raise ValueError("basis must be real")
        object.__setattr__(self, "basis", _read_only(_require_square(basis, "basis").astype(float)))

    @cached_property
    def _basis_inv(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self.basis))

    @property
    def real_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def complex_dim(self) -> int:
        return self.basis.shape[0] // 2

    def to_complex(self, x: np.ndarray) -> np.ndarray:
        """Complex coordinates of a real vector."""
        c = self._basis_inv @ np.asarray(x, dtype=float)
        n = self.complex_dim
        return c[:n] + 1j * c[n:]

    def to_real(self, z: np.ndarray) -> np.ndarray:
        """Real vector represented by complex coordinates."""
        z = np.asarray(z, dtype=complex)
        return self.basis @ np.concatenate([z.real, z.imag])


def _j_adapted_residual(basis: np.ndarray, j_mat: np.ndarray) -> float:
    n = basis.shape[0] // 2
    return _maxabs(basis[:, n:] - j_mat @ basis[:, :n]) / max(_maxabs(basis), _TINY)


def build_complexification(triple: AdmissibleTriple) -> ComplexificationMap:
    """Deterministic J-adapted g-orthonormal basis for an admissible triple.

    Takes the standard basis vectors that :func:`complexification_from_j`
    picks under ``triple.tol``, g-orthonormalizes each in turn into u_k
    against the span of the earlier u and J u (two block projection
    passes), and adjoins J u_k, which is then g-orthonormal to
    everything so far.  The second block of the result equals J applied
    to the first block exactly.  A degenerate J raises
    :class:`NotAdmissibleError` from :func:`complexification_from_j`.
    """
    g, j = triple.g.gram, triple.j.mat
    n = triple.dim // 2
    span = np.empty((triple.dim, 0))  # g-orthonormal: u_1, Ju_1, u_2, Ju_2, ...
    for w in complexification_from_j(triple.j, triple.tol).basis[:, :n].T:
        for _ in range(2):
            w = w - span @ (span.T @ (g @ w))
        u = w / np.sqrt(w @ g @ w)
        span = np.column_stack([span, u, j @ u])
    return ComplexificationMap(np.column_stack([span[:, 0::2], span[:, 1::2]]))


def complexification_from_j(
    j: ComplexStructureJ,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ComplexificationMap:
    """Canonical J-adapted basis depending on J alone.

    Greedily keeps the first standard basis vectors e_i not contained in
    the span accumulated so far and pairs each with J e_i, without any
    rescaling.  Because the construction does not involve a metric, every
    structure sharing the same J gets expressed in the same complex
    coordinates, which is what makes Hermitian forms built from different
    compatible triples directly comparable.
    """
    m = j.dim
    n = m // 2
    eye = np.eye(m)
    picks: list[int] = []
    span = np.empty((m, m))  # its first k columns Euclidean-orthonormal, for the span test only
    k = 0

    def leftover(vec: np.ndarray) -> np.ndarray:
        w = vec.astype(float)
        for _ in range(2):
            w = w - span[:, :k] @ (span[:, :k].T @ w)
        return w

    for i in range(m):
        if len(picks) == n:
            break
        w = leftover(eye[:, i])
        nrm = float(np.linalg.norm(w))
        if nrm <= tol.tol_eig:
            continue  # e_i already in span
        picks.append(i)
        span[:, k] = w / nrm
        k += 1
        # J e_i is always independent of a J-invariant span plus e_i
        w = leftover(j.mat[:, i])
        nrm = float(np.linalg.norm(w))
        if nrm <= tol.tol_eig * max(float(np.linalg.norm(j.mat[:, i])), _TINY):
            raise NotAdmissibleError("complex structure is numerically degenerate")
        span[:, k] = w / nrm
        k += 1
    if len(picks) != n:
        raise NotAdmissibleError("failed to build a J-adapted basis")
    return ComplexificationMap(np.column_stack([eye[:, picks], j.mat[:, picks]]))


def hermitian_from_triple(triple: AdmissibleTriple, cmap: ComplexificationMap) -> HermitianForm:
    """Hermitian structure of an admissible triple in complex coordinates.

    The Gram matrix is H_{kl} = g(u_k, u_l) + i g(J u_k, u_l) over the
    first-block basis vectors u_k of ``cmap``, so that for all real
    vectors x, y

        to_complex(x)† H to_complex(y) = g(x, y) + i g(Jx, y).

    ``cmap`` must be adapted to the triple's complex structure (its second
    block must equal J applied to its first block); it need not be
    g-orthonormal.  In the triple's own g-orthonormal adapted basis the
    Gram matrix is the identity; nontrivial Gram matrices arise in shared
    coordinates such as :func:`complexification_from_j`.  Both the
    adaptation and the form are judged under ``triple.tol``.

    Raises
    ------
    NotAdmissibleError
        If the map is not adapted to the triple's J or the resulting form
        fails Hermitian positive-definiteness.
    """
    if cmap.real_dim != triple.dim:
        raise NotAdmissibleError("complexification and triple dimensions differ")
    resid = _j_adapted_residual(cmap.basis, triple.j.mat)
    if resid > triple.tol.tol_resid:
        raise NotAdmissibleError(
            f"complexification is not adapted to the triple's complex structure "
            f"(relative residual {resid:.3e})"
        )
    n = cmap.complex_dim
    u = cmap.basis[:, :n]
    ju = cmap.basis[:, n:]
    g = triple.g.gram
    h = u.T @ g @ u + 1j * (ju.T @ g @ u)
    h = 0.5 * (h + h.conj().T)
    try:
        return HermitianForm(h, triple.tol)
    except ValueError as exc:
        raise NotAdmissibleError(f"resulting form is not Hermitian positive-definite: {exc}") from exc
