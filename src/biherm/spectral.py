"""Spectral resolution of the connecting operator and genericity tests.

The connecting operator G of a form pair is diagonalizable with positive
eigenvalues.  One h1-metric eigendecomposition of G gives its spectral
resolution: the eigenvalues are clustered into fibers, the eigenspaces,
each carrying an h1-orthonormal basis and the weight m_l / n of its
multiplicity m_l.  In finite dimension this discrete measure is the
direct integral over the spectrum of G, so the resolution *is* the
fibered decomposition that :mod:`biherm.decomposition` works on.

The multiplicities give the bi-unitary group signature
U(n_1) x ... x U(n_k); the pair is *generic* when every fiber is
one-dimensional, equivalently when the commutant of G coincides with
its bicommutant, equivalently when G is cyclic.  The three
characterizations are computed independently (cluster count, eigenvalue
pair count, Krylov rank) so they can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import ConnectingOperator
from .errors import DegenerateSpectrumError, ZeroCoefficientError
from .forms import (
    _TINY,
    DEFAULT_TOLERANCES,
    HermitianForm,
    Tolerances,
    generalized_eig,
    krylov_rank,
)

__all__ = [
    "Fiber",
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


@dataclass(frozen=True, eq=False)
class Fiber:
    """One eigenspace of G: its eigenvalue and an h1-orthonormal basis.

    ``basis`` is a read-only (n, dim) column view of the eigenvector
    matrix of the resolution the fiber belongs to.
    """

    eigenvalue: float
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def weight(self) -> float:
        """Share dim / n of the normalized discrete measure."""
        return self.dim / self.basis.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Clustered eigendecomposition of a connecting operator.

    ``spectrum`` holds the eigenvalues of G, ascending, and the columns of
    ``eigenvectors`` the matching h1-orthonormal eigenvectors; both are
    read-only.  ``fibers`` splits them into clusters of eigenvalues at
    most ``cluster_gap`` apart, in ascending order.  Everything else is
    derived from these fields.  The resolution is also the fibered
    decomposition that :mod:`biherm.decomposition` works on.
    """

    connecting: ConnectingOperator
    spectrum: np.ndarray
    eigenvectors: np.ndarray
    cluster_gap: float
    fibers: tuple[Fiber, ...]

    @property
    def dim(self) -> int:
        return self.connecting.dim

    @property
    def h1(self) -> HermitianForm:
        return self.connecting.h1

    @property
    def h2(self) -> HermitianForm:
        return self.connecting.h2

    @property
    def n_fibers(self) -> int:
        return len(self.fibers)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Representative (cluster mean) of each fiber, ascending."""
        out = np.array([f.eigenvalue for f in self.fibers])
        out.flags.writeable = False
        return out

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.fibers)

    @property
    def segments(self) -> dict[int, tuple[int, ...]]:
        """Fiber indices grouped by fiber dimension."""
        out: dict[int, tuple[int, ...]] = {}
        for idx, f in enumerate(self.fibers):
            out[f.dim] = out.get(f.dim, ()) + (idx,)
        return out

    @property
    def commutant_dimension(self) -> int:
        """Number of ordered pairs (i, j) with |w_i - w_j| <= ``cluster_gap``.

        With h1 = L L†, G is similar to the Hermitian G~ = L^{-1} h2 L^{-†},
        and similar operators have commutants of equal dimension.  The
        commutator map X -> G~X - XG~ is normal: for orthonormal
        eigenvectors u_i of G~ it maps u_i u_j† to (w_i - w_j) u_i u_j†, so
        its singular values are exactly |w_i - w_j| over ``spectrum`` and
        its null space is counted by these pairs.  The count is over
        pairs, not chained clusters, so it stays a check independent of
        :attr:`fibers`; for a diagonalizable G it equals the sum of the
        squared multiplicities.  O(n^2) time and memory.
        """
        w = self.spectrum
        return int(np.count_nonzero(np.abs(w[:, None] - w[None, :]) <= self.cluster_gap))

    def fiber_slices(self) -> list[slice]:
        """Column ranges of each fiber inside :meth:`basis_matrix`."""
        out, start = [], 0
        for f in self.fibers:
            out.append(slice(start, start + f.dim))
            start += f.dim
        return out

    def basis_matrix(self) -> np.ndarray:
        """The read-only h1-orthonormal n x n matrix of all fiber bases."""
        return self.eigenvectors

    def to_fiber_coordinates(self, a: np.ndarray) -> np.ndarray:
        """Express an ambient operator in the fiber basis."""
        v = self.eigenvectors
        return v.conj().T @ self.h1.gram @ a @ v

    def from_fiber_coordinates(self, a_tilde: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_fiber_coordinates`."""
        v = self.eigenvectors
        return v @ a_tilde @ v.conj().T @ self.h1.gram

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors; equals G up to tolerance."""
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        for f in self.fibers:
            x = f.basis
            out += f.eigenvalue * (x @ x.conj().T @ self.h1.gram)
        return out


def spectral_resolution(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SpectralResolution:
    """Eigendecompose G once and cluster its spectrum into fibers.

    Eigenvalues are computed with the h1-metric eigensolver and adjacent
    values are merged into one fiber whenever their gap is at most
    ``tol.tol_eig`` times the spectral radius (ties merge, so degeneracy
    is never under-reported).
    """
    w, v = generalized_eig(g.mat, g.h1.gram, tol)
    w.flags.writeable = False
    v.flags.writeable = False  # before slicing, so the fiber views are read-only too
    radius = max(float(np.max(np.abs(w))), _TINY)
    gap = tol.tol_eig * radius
    boundaries = [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            boundaries.append(i)
    boundaries.append(len(w))
    fibers = tuple(
        Fiber(eigenvalue=float(np.mean(w[a:b])), basis=v[:, a:b])
        for a, b in zip(boundaries[:-1], boundaries[1:])
    )
    return SpectralResolution(
        connecting=g, spectrum=w, eigenvectors=v, cluster_gap=gap, fibers=fibers
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
    if mu.shape != (res.n_fibers,):
        raise ValueError(f"need one coefficient per cluster ({res.n_fibers})")
    if np.any(mu == 0):
        raise ZeroCoefficientError("all coefficients must be nonzero")
    x0 = np.zeros(res.dim, dtype=complex)
    for coeff, f in zip(mu, res.fibers):
        x0 += coeff * f.basis[:, 0]
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

    Returns :attr:`SpectralResolution.commutant_dimension` of
    ``spectral_resolution(g, tol)``: one Hermitian eigendecomposition,
    O(n^3) time and O(n^2) memory; the n^2 x n^2 commutator map is never
    formed.
    """
    return spectral_resolution(g, tol).commutant_dimension


def bicommutant_dimension(res: SpectralResolution) -> int:
    """Complex dimension of the bicommutant: the number of clusters.

    The double commutant of a diagonalizable self-adjoint operator is
    the span of its spectral projectors, one per distinct eigenvalue.
    """
    return res.n_fibers


def is_generic_by_commutant(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
    resolution: SpectralResolution | None = None,
) -> bool:
    """True when the commutant of G equals its bicommutant.

    Compares the commutant dimension of ``resolution`` (computed when not
    given), the count of eigenvalue pairs within its cluster gap, with
    its fiber count.  They agree exactly when every eigenvalue is simple:
    each one then pairs only with itself.
    """
    if resolution is None:
        resolution = spectral_resolution(g, tol)
    return resolution.commutant_dimension == bicommutant_dimension(resolution)
