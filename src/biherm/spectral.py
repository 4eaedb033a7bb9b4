"""Spectral analysis of the connecting operator and genericity tests.

The connecting operator of a form pair is diagonalizable with positive
eigenvalues.  Its clustered spectrum determines the bi-unitary group
signature U(n_1) x ... x U(n_k); the pair is *generic* when every
cluster is simple, equivalently when the commutant of G coincides with
its bicommutant, equivalently when G is cyclic.  All three
characterizations are implemented independently so they can be checked
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import ConnectingOperator
from .errors import DegenerateSpectrumError, ZeroCoefficientError
from .forms import DEFAULT_TOLERANCES, HermitianForm, Tolerances, generalized_eig, krylov_rank

__all__ = [
    "SpectralResolution",
    "GroupSignature",
    "spectral_resolution",
    "group_signature",
    "is_generic_by_spectrum",
    "cyclic_vector",
    "is_cyclic",
    "commutant_dimension",
    "bicommutant_dimension",
    "is_generic_by_commutant",
]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Clustered eigendecomposition of a connecting operator.

    ``eigenvalues[l]`` is the representative (cluster mean) of the l-th
    cluster, ascending; ``bases[l]`` is an h1-orthonormal basis of the
    corresponding eigenspace as an (n, multiplicities[l]) column block.
    ``cluster_gap`` is the absolute gap that separated clusters.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple[int, ...]
    bases: tuple[np.ndarray, ...]
    cluster_gap: float
    h1: HermitianForm

    def __post_init__(self):
        eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigenvalues)
        frozen = []
        for b in self.bases:
            b = np.asarray(b)
            b.flags.writeable = False
            frozen.append(b)
        object.__setattr__(self, "bases", tuple(frozen))
        if sum(self.multiplicities) != self.h1.dim:
            raise ValueError("multiplicities must sum to the space dimension")

    @property
    def dim(self) -> int:
        return self.h1.dim

    @property
    def n_clusters(self) -> int:
        return len(self.multiplicities)

    def basis_matrix(self) -> np.ndarray:
        """All cluster bases concatenated into one h1-orthonormal n x n matrix."""
        return np.concatenate(self.bases, axis=1)

    def projector(self, l: int) -> np.ndarray:
        """h1-orthogonal projector onto the l-th cluster eigenspace."""
        x = self.bases[l]
        return x @ x.conj().T @ self.h1.gram

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors; equals G up to tolerance."""
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        for lam, x in zip(self.eigenvalues, self.bases):
            out += lam * (x @ x.conj().T @ self.h1.gram)
        return out


def spectral_resolution(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SpectralResolution:
    """Cluster the spectrum of a connecting operator.

    Eigenvalues are computed with the h1-metric eigensolver and adjacent
    values are merged into one cluster whenever their gap is at most
    ``tol.tol_eig`` times the spectral radius (ties merge, so degeneracy
    is never under-reported).
    """
    w, v = generalized_eig(g.mat, g.h1.gram, tol)
    radius = max(float(np.max(np.abs(w))), _TINY)
    gap = tol.tol_eig * radius
    boundaries = [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            boundaries.append(i)
    boundaries.append(len(w))
    eigenvalues = []
    multiplicities = []
    bases = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        eigenvalues.append(float(np.mean(w[a:b])))
        multiplicities.append(b - a)
        bases.append(v[:, a:b])
    return SpectralResolution(
        eigenvalues=np.array(eigenvalues),
        multiplicities=tuple(multiplicities),
        bases=tuple(bases),
        cluster_gap=gap,
        h1=g.h1,
    )


@dataclass(frozen=True)
class GroupSignature:
    """Ordered eigenvalue multiplicities (n_1, ..., n_k).

    The transformations preserving both forms are exactly the product of
    the unitary groups of the eigenspaces, U(n_1) x ... x U(n_k).
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if not self.multiplicities or any(n < 1 for n in self.multiplicities):
            raise ValueError("multiplicities must be positive")

    @property
    def total_dim(self) -> int:
        return sum(self.multiplicities)

    def __str__(self) -> str:
        return "×".join(f"U({n})" for n in self.multiplicities)


def group_signature(res: SpectralResolution) -> GroupSignature:
    """Multiplicity signature of the bi-unitary group, in eigenvalue order."""
    return GroupSignature(res.multiplicities)


def is_generic_by_spectrum(res: SpectralResolution) -> bool:
    """True when every eigenvalue cluster is simple."""
    return all(n == 1 for n in res.multiplicities)


def cyclic_vector(res: SpectralResolution, mu) -> np.ndarray:
    """Combine one eigenvector per cluster into a guaranteed cyclic vector.

    For a simple spectrum, x0 = sum_k mu[k] e_k with every mu[k] nonzero
    spans the whole space under iteration of G: the coefficient matrix of
    (x0, Gx0, ..., G^{n-1}x0) in the eigenbasis has determinant
    prod(mu) times the Vandermonde determinant of the eigenvalues, which
    is nonzero exactly when the eigenvalues are distinct.

    Raises
    ------
    DegenerateSpectrumError
        If some cluster has multiplicity greater than one.
    ZeroCoefficientError
        If some coefficient is zero.
    """
    mu = np.asarray(mu, dtype=complex)
    if not is_generic_by_spectrum(res):
        raise DegenerateSpectrumError(
            f"spectrum has degenerate clusters: multiplicities {res.multiplicities}"
        )
    if mu.shape != (res.n_clusters,):
        raise ValueError(f"need one coefficient per cluster ({res.n_clusters})")
    if np.any(mu == 0):
        raise ZeroCoefficientError("all coefficients must be nonzero")
    x0 = np.zeros(res.dim, dtype=complex)
    for coeff, basis in zip(mu, res.bases):
        x0 += coeff * basis[:, 0]
    return x0


def is_cyclic(
    g: ConnectingOperator,
    trials: int = 3,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Probabilistic cyclicity test with seeded random probe vectors.

    For a self-adjoint operator a single random vector is cyclic with
    probability one whenever the operator is cyclic at all, so a handful
    of trials makes false negatives vanishingly unlikely while degenerate
    operators always fail (no vector can beat the number of distinct
    eigenvalues).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = g.dim
    for _ in range(trials):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        if krylov_rank(g.mat, x, tol) == n:
            return True
    return False


def commutant_dimension(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Complex dimension of {X : GX = XG}, counted over eigenvalue pairs.

    With h1 = L L†, G is similar to the Hermitian G~ = L^{-1} h2 L^{-†},
    and similar operators have commutants of equal dimension.  The
    commutator map X -> G~X - XG~ of a Hermitian G~ is normal: for
    orthonormal eigenvectors u_i of G~ it maps u_i u_j† to
    (w_i - w_j) u_i u_j†, so its singular values are exactly
    |w_i - w_j| over the eigenvalues w of G.  Its null-space dimension
    is therefore the number of ordered pairs (i, j) with
    |w_i - w_j| <= ``tol.tol_eig`` times the spectral radius max|w|, the
    same threshold :func:`spectral_resolution` uses for cluster gaps, so
    the commutant and the clustering are judged in one frame.  The count
    is over pairs, not chained clusters, so it stays an independent
    check.  For a diagonalizable G it equals the sum of the squared
    cluster multiplicities.

    Costs one Hermitian eigendecomposition, O(n^3) time and O(n^2)
    memory; the n^2 x n^2 commutator map is never formed.
    """
    w, _ = generalized_eig(g.mat, g.h1.gram, tol)
    radius = max(float(np.max(np.abs(w))), _TINY)
    return int(np.count_nonzero(np.abs(w[:, None] - w[None, :]) <= tol.tol_eig * radius))


def bicommutant_dimension(res: SpectralResolution) -> int:
    """Complex dimension of the bicommutant: the number of clusters.

    The double commutant of a diagonalizable self-adjoint operator is
    the span of its spectral projectors, one per distinct eigenvalue.
    """
    return res.n_clusters


def is_generic_by_commutant(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
    resolution: SpectralResolution | None = None,
) -> bool:
    """True when the commutant of G equals its bicommutant.

    Compares :func:`commutant_dimension`, the count of eigenvalue pairs
    within ``tol.tol_eig`` times the spectral radius, with the cluster
    count of ``resolution`` (computed when not given).  They agree
    exactly when every eigenvalue is simple: each one then pairs only
    with itself.  Costs O(n^3) time and O(n^2) memory.
    """
    if resolution is None:
        resolution = spectral_resolution(g, tol)
    return commutant_dimension(g, tol) == bicommutant_dimension(resolution)
