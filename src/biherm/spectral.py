"""Spectral resolution of the connecting operator and genericity tests.

The connecting operator G of a form pair is diagonalizable with positive
eigenvalues.  The h1-metric eigendecomposition that G holds gives its
spectral resolution: the eigenvalues are clustered into fibers, the
eigenspaces, each carrying an h1-orthonormal basis and the weight m_l / n
of its multiplicity m_l.  In finite dimension this discrete measure is the
direct integral over the spectrum of G, so the resolution *is* the
fibered decomposition that :mod:`biherm.decomposition` works on.

The multiplicities give the bi-unitary group signature
U(n_1) x ... x U(n_k); the pair is *generic* when every fiber is
one-dimensional, equivalently when the commutant of G coincides with
its bicommutant, equivalently when G is cyclic.  G is self-adjoint for
h1, so all three say one thing: its eigenvalues are distinct.  They are
three readings of one resolution, which counts its eigenvalue pairs
once (clusters against n, pairs against clusters, pairs against n), so
they agree by construction; the spectrum itself is checked against
50-digit pencil eigenvalues in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connecting import ConnectingOperator
from .errors import DegenerateSpectrumError, NonFiniteError, ZeroCoefficientError
from .forms import _TINY, DEFAULT_TOLERANCES, HermitianForm, Tolerances, _read_only

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

    Built from the operator, the ``cluster_gap`` and the read-only int
    array ``offsets`` of fiber boundaries: fiber j spans columns
    ``offsets[j]:offsets[j + 1]`` of the operator's ``eigenvectors``,
    which hold runs of eigenvalues whose neighbours are at most
    ``cluster_gap`` apart, in ascending order.  Everything else is derived
    from these three fields: ``spectrum`` and ``eigenvectors`` read through
    to the operator; ``by_dimension``, ``eigenvalues``, ``fibers``,
    ``dual_basis`` and ``commutant_dimension`` are computed on first use.
    Every per-fiber computation reads the one per-dimension index
    ``by_dimension``, so it runs once per distinct fiber dimension,
    however many fibers there are.  It is also the fibered decomposition
    :mod:`biherm.decomposition` uses.
    """

    connecting: ConnectingOperator
    cluster_gap: float
    offsets: np.ndarray

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
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of G, ascending, read-only."""
        return self.connecting.spectrum

    @property
    def eigenvectors(self) -> np.ndarray:
        """The read-only h1-orthonormal n x n matrix of all fiber bases."""
        return self.connecting.eigenvectors

    @property
    def n_fibers(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def by_dimension(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """Per fiber dimension d, in order of first appearance: (d, ids, cols).

        ``ids`` holds the indices of the fibers of dimension d, ascending,
        and row r of the (len(ids), d) array ``cols`` the columns of fiber
        ``ids[r]`` in ``eigenvectors``; both are read-only int arrays.  So
        ``a[cols[:, :, None], cols[:, None, :]]`` gathers the d x d diagonal
        blocks of all these fibers as one (len(ids), d, d) stack.
        """
        dims = np.diff(self.offsets)
        index = []
        for d in dict.fromkeys(dims.tolist()):
            ids = np.flatnonzero(dims == d)
            index.append((d, _read_only(ids), _read_only(self.offsets[ids][:, None] + np.arange(d))))
        return tuple(index)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Representative (cluster mean) of each fiber, ascending, read-only.

        Per fiber dimension d, the row sums over d of the spectrum at
        ``cols`` are each fiber's ``np.mean`` bit for bit.
        """
        means = np.empty(self.n_fibers)
        for d, ids, cols in self.by_dimension:
            means[ids] = self.spectrum[cols].sum(axis=1) / d
        return _read_only(means)

    @cached_property
    def fibers(self) -> tuple[Fiber, ...]:
        """One :class:`Fiber` per cluster, its basis a column view of ``eigenvectors``."""
        v = self.eigenvectors
        slices = self.fiber_slices()
        return tuple(Fiber(lam, v[:, s]) for lam, s in zip(self.eigenvalues.tolist(), slices))

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(np.diff(self.offsets).tolist())

    @property
    def segments(self) -> dict[int, tuple[int, ...]]:
        """Fiber indices grouped by fiber dimension, in order of first appearance."""
        return {d: tuple(ids.tolist()) for d, ids, _ in self.by_dimension}

    @cached_property
    def dual_basis(self) -> np.ndarray:
        """V^H h1 for the eigenvector matrix V, read-only: its inverse, as V^H h1 V = I."""
        return _read_only(self.eigenvectors.conj().T @ self.h1.gram)

    @cached_property
    def commutant_dimension(self) -> int:
        """Number of ordered pairs (i, j) with |w_i - w_j| <= ``cluster_gap``.

        With h1 = L L†, G is similar to the Hermitian G~ = L^{-1} h2 L^{-†},
        and similar operators have commutants of equal dimension.  The
        commutator map X -> G~X - XG~ is normal: for orthonormal
        eigenvectors u_i of G~ it maps u_i u_j† to (w_i - w_j) u_i u_j†, so
        its singular values are exactly |w_i - w_j| over ``spectrum`` and
        its null space is counted by these pairs.  A pair within the gap
        lies in one fiber, so the count is at most the sum of the squared
        multiplicities, with equality exactly when every fiber's spread
        ``w[last] - w[first]`` is at most ``cluster_gap``: the clusters
        chain adjacent gaps, and a chain can be wider.  It is n exactly
        when every fiber is simple.  O(n^2) time and memory, on first read.
        """
        w = self.spectrum
        return int(np.count_nonzero(np.abs(w[:, None] - w[None, :]) <= self.cluster_gap))

    def fiber_slices(self) -> list[slice]:
        """Column ranges of each fiber inside ``eigenvectors``."""
        off = self.offsets.tolist()
        return [slice(a, b) for a, b in zip(off[:-1], off[1:])]

    def to_fiber_coordinates(self, a: np.ndarray) -> np.ndarray:
        """Express an ambient operator in the fiber basis."""
        return self.dual_basis @ a @ self.eigenvectors

    def from_fiber_coordinates(self, a_tilde: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_fiber_coordinates`."""
        v = self.eigenvectors
        return v @ a_tilde @ v.conj().T @ self.h1.gram


def spectral_resolution(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SpectralResolution:
    """Cluster the spectrum of G into fibers, with no eigensolve of its own.

    Adjacent values of ``g.spectrum`` are merged into one fiber whenever
    their gap is at most ``tol.tol_eig`` times the spectral radius (ties
    merge, so degeneracy is never under-reported).  Only the gap and the
    fiber boundaries are computed here; the resolution derives the rest.
    """
    w = g.spectrum
    radius = max(float(np.max(np.abs(w))), _TINY)
    gap = tol.tol_eig * radius
    offsets = np.concatenate(([0], np.flatnonzero(np.diff(w) > gap) + 1, [len(w)]))
    return SpectralResolution(connecting=g, cluster_gap=gap, offsets=_read_only(offsets))


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
    """True when every eigenvalue cluster is simple: n clusters for dimension n."""
    return res.n_fibers == res.dim


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
    NonFiniteError
        If some coefficient is NaN or infinite.
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
    if not np.all(np.isfinite(mu)):
        raise NonFiniteError("coefficients contain non-finite entries")
    if np.any(mu == 0):
        raise ZeroCoefficientError("all coefficients must be nonzero")
    return res.eigenvectors @ mu  # every fiber is one column of the eigenvector matrix


def is_cyclic(
    g: ConnectingOperator,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """True when G is cyclic, read from the spectrum G already holds.

    G is self-adjoint in the h1 inner product, so it is cyclic exactly
    when its eigenvalues are distinct: when no two of them lie within the
    cluster gap of ``spectral_resolution(g, tol)``, so that its commutant
    dimension is n.  ``seed`` is accepted for compatibility and has no
    effect on the verdict.  A Krylov rank (:func:`~biherm.forms.krylov_rank`)
    would judge the same property in exact arithmetic, but at n ~ 100 its
    degree-k polynomials lose the small eigencomponents to rounding and
    overstate the rank.  O(n^2) time and memory.
    """
    return spectral_resolution(g, tol).commutant_dimension == g.dim


def commutant_dimension(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Complex dimension of {X : GX = XG}, counted over eigenvalue pairs.

    Returns :attr:`SpectralResolution.commutant_dimension` of
    ``spectral_resolution(g, tol)``: O(n^2) time and memory; the
    n^2 x n^2 commutator map is never formed.
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
