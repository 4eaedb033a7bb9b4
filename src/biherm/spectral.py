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
its bicommutant, equivalently when G is cyclic.  The three
characterizations are computed independently (cluster count, eigenvalue
pair count, Lanczos Ritz-value count) so they can be checked against
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connecting import ConnectingOperator
from .errors import DegenerateSpectrumError, ZeroCoefficientError
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
    which hold clusters of eigenvalues at most ``cluster_gap`` apart, in
    ascending order.  Everything else is derived from these three fields:
    ``spectrum`` and ``eigenvectors`` read through to the operator, and
    ``eigenvalues`` and ``fibers`` are computed from ``offsets`` on first
    use.  The resolution is also the fibered decomposition that
    :mod:`biherm.decomposition` works on.
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
    def eigenvalues(self) -> np.ndarray:
        """Representative (cluster mean) of each fiber, ascending, read-only."""
        w = self.spectrum
        # the mean of one value is the value itself, so only clusters pay for np.mean
        means = [
            float(w[s.start]) if s.stop - s.start == 1 else float(np.mean(w[s]))
            for s in self.fiber_slices()
        ]
        return _read_only(np.array(means))

    @cached_property
    def fibers(self) -> tuple[Fiber, ...]:
        """One :class:`Fiber` per cluster, its basis a column view of ``eigenvectors``."""
        v = self.eigenvectors
        slices = self.fiber_slices()
        return tuple(Fiber(lam, v[:, s]) for lam, s in zip(self.eigenvalues.tolist(), slices))

    @property
    def multiplicities(self) -> tuple[int, ...]:
        off = self.offsets
        return tuple((off[1:] - off[:-1]).tolist())

    @property
    def segments(self) -> dict[int, tuple[int, ...]]:
        """Fiber indices grouped by fiber dimension."""
        out: dict[int, list[int]] = {}
        for idx, k in enumerate(self.multiplicities):
            out.setdefault(k, []).append(idx)
        return {k: tuple(idx) for k, idx in out.items()}

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
        return _close_pairs(self.spectrum, self.cluster_gap)

    def fiber_slices(self) -> list[slice]:
        """Column ranges of each fiber inside ``eigenvectors``."""
        off = self.offsets.tolist()
        return [slice(a, b) for a, b in zip(off[:-1], off[1:])]

    def to_fiber_coordinates(self, a: np.ndarray) -> np.ndarray:
        """Express an ambient operator in the fiber basis."""
        v = self.eigenvectors
        return v.conj().T @ self.h1.gram @ a @ v

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
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Cyclicity test by a Lanczos Ritz-value count from one seeded probe.

    Runs n Lanczos steps on G in the h1 inner product, in which G is
    self-adjoint, from a random probe vector drawn from ``seed`` (see
    :func:`_lanczos_ritz_values`).  Each new direction is
    reorthogonalized against all earlier ones by one block pass, and by a
    second only when the first cancelled, so the n x n tridiagonal matrix
    T stays h1-unitarily similar to G and its Ritz values are the
    eigenvalues of G.  G is cyclic exactly when its eigenvalues are
    distinct, so G is found cyclic when the count of Ritz-value pairs
    (i, j) with |theta_i - theta_j| <= ``tol.tol_eig`` times max |theta|
    is n: the gap rule of :func:`spectral_resolution`,
    applied to values computed without a Cholesky factor or the pencil
    solve behind ``g.spectrum``, so the verdict stays independent of the
    other two genericity tests.

    One run decides.  Because T is similar to G whatever the probe, the
    Ritz values depend on the probe only through rounding, and a run from
    another probe can only flip a verdict whose closest pair sits at the
    gap itself.

    A Krylov rank (:func:`~biherm.forms.krylov_rank`) would judge the same
    property in exact arithmetic, but at n ~ 100 its degree-k polynomials
    lose the small eigencomponents to rounding and overstate the rank.
    """
    theta = _lanczos_ritz_values(g, np.random.default_rng(seed))
    gap = tol.tol_eig * max(float(np.max(np.abs(theta))), _TINY)
    return _close_pairs(theta, gap) == g.dim


def _close_pairs(values: np.ndarray, gap: float) -> int:
    """Number of ordered pairs (i, j) with |values_i - values_j| <= gap."""
    return int(np.count_nonzero(np.abs(values[:, None] - values[None, :]) <= gap))


# A Lanczos step whose new direction keeps at most this share of the h1
# norm of G q_k has found an invariant subspace, up to rounding.
_BREAKDOWN = 64 * np.finfo(float).eps


def _probe(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _lanczos_ritz_values(g: ConnectingOperator, rng: np.random.Generator) -> np.ndarray:
    """Ritz values of n Lanczos steps on G in the h1 inner product: the
    eigenvalues of the dense tridiagonal T.

    The start vector is a probe drawn from ``rng``.  Each new direction is
    reorthogonalized against all previous ones by the block pass
    ``w -= Q @ c`` with ``c = HQ^H w``, where ``HQ = h1 Q`` is stored as Q
    grows, so T stays h1-unitarily similar to G.  Q is h1-orthonormal, so
    the h1 norm of w before the pass is ``hypot(|w|, |c|)`` of the result,
    with no extra product.  A second pass runs only when the first left
    less than 1/sqrt(2) of it: the "twice is enough" test of Daniel,
    Gragg, Kaufman and Stewart (Math. Comp. 30, 1976), after which w is
    orthogonal to Q to working precision.  On breakdown (the Krylov space
    of the probe is invariant, as for a scalar G) the next vector is a
    fresh probe from ``rng`` projected out of Q, and that coupling of T
    stays 0.  O(n^3) time and O(n^2) memory.
    """
    mat, h1, n = g.mat, g.h1.gram, g.dim
    q = np.zeros((n, n), dtype=complex)  # row k is q_k
    hqh = np.zeros((n, n), dtype=complex)  # row k is (h1 q_k)^H
    alpha = np.zeros(n)
    beta = np.zeros(n - 1)

    def project_out(w, k):
        """w without its h1 components along q_0..q_{k-1}, h1 w, and its h1 norm."""
        for _ in range(2):
            c = np.dot(hqh[:k], w)
            w -= np.dot(c, q[:k])
            hw = np.dot(h1, w)
            nrm2 = max(np.vdot(w, hw).real, 0.0)
            # before the pass, ||w||^2 was nrm2 + ||c||^2: repeat once when
            # ||w|| fell below 1/sqrt(2) of that
            if nrm2 >= np.vdot(c, c).real:
                break
        return w, hw, math.sqrt(nrm2)

    w = _probe(rng, n)
    scale = 0.0  # h1 norm of the last G q_k, the yardstick for breakdown
    b = 0.0  # beta[k - 1]
    for k in range(n):
        w, hw, nrm = project_out(w, k)
        if k and nrm <= _BREAKDOWN * scale:
            w, hw, nrm = project_out(_probe(rng, n), k)  # beta[k - 1] stays 0
            b = 0.0
        elif k:
            beta[k - 1] = b = nrm
        inv = 1.0 / nrm
        qk = np.multiply(w, inv, out=q[k])
        hqk = np.multiply(hw.conj(), inv, out=hqh[k])
        w = np.dot(mat, qk)
        a = alpha[k] = float(np.dot(hqk, w).real)
        # the three-term recurrence, w -= beta[k - 1] q_{k-1} + alpha[k] q_k
        w -= np.dot((b, a), q[k - 1 : k + 1]) if k else a * qk
        scale = math.hypot(a, b)
    return np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, -1))  # reads the lower triangle


def commutant_dimension(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Complex dimension of {X : GX = XG}, counted over eigenvalue pairs.

    Returns :attr:`SpectralResolution.commutant_dimension` of
    ``spectral_resolution(g, tol)``, counted over the spectrum G already
    holds: O(n^2) time and memory; the n^2 x n^2 commutator map is never
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
