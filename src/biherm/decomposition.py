"""Fibered decomposition induced by a connecting operator.

The decomposition is the :class:`~biherm.spectral.SpectralResolution` of
G: fibers are the eigenspaces of G with weights m_j / n, grouped into
segments of constant fiber dimension.  On each fiber the two Hermitian
forms are proportional with ratio equal to the eigenvalue; operators
commuting with G are exactly the ones that are block-diagonal across
fibers; operators in the bicommutant act as a scalar on each fiber; and
transformations preserving both forms are assembled from one unitary
block per fiber — a single phase per fiber when all fibers are
one-dimensional.  Every function here takes the resolution as it is.

The product U(n_1) x ... x U(n_k) is handled one fiber dimension at a
time, not fiber by fiber: the resolution's
:attr:`~biherm.spectral.SpectralResolution.by_dimension` index gives,
per dimension d, the columns of all fibers of dimension d, so their
d x d blocks of an n x n matrix are read by one gather into a stack, or
written by one scatter from it.  Every function here makes a fixed
number of numpy calls per distinct dimension and uses O(n^2) memory;
only :func:`check_bicommutant_scalar` and the block tuple of
:func:`project_to_commutant_blocks` loop over fibers.  The results agree
with a loop over fibers up to rounding (the products sum in another
order), and are reproducible to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import ConnectingOperator, _commutator_residual
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NonFiniteError,
    NotGenericError,
    NotInCommutantError,
)
from .forms import _TINY, DEFAULT_TOLERANCES, HermitianForm, Tolerances, _fro, _read_only
from .spectral import SpectralResolution, is_generic_by_commutant, is_generic_by_spectrum, spectral_resolution

__all__ = [
    "DecomposableOperator",
    "ProportionalityReport",
    "ScalarBlockReport",
    "build_decomposition",
    "check_proportionality",
    "project_to_commutant_blocks",
    "check_bicommutant_scalar",
    "check_genericity_consistency",
    "sample_biunitary",
    "phase_biunitary",
]


@dataclass(frozen=True, eq=False)
class DecomposableOperator:
    """Per-fiber blocks A(lambda_j) of an operator in the commutant."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for b in self.blocks:
            b = np.asarray(b, dtype=complex)
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError("blocks must be square")
            frozen.append(_read_only(b, copy=True))
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)


def build_decomposition(
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
    resolution: SpectralResolution | None = None,
) -> SpectralResolution:
    """Fibered decomposition of G: its spectral resolution.

    Returns ``resolution`` when given, else ``spectral_resolution(g, tol)``.
    """
    if resolution is None:
        resolution = spectral_resolution(g, tol)
    return resolution


@dataclass(frozen=True)
class ProportionalityReport:
    """Fiberwise comparison of h2 against eigenvalue-scaled h1.

    ``max_violation[j]`` is the largest relative deviation
    |h2(x, y) - lambda_j h1(x, y)| / ||h2|| over basis pairs of fiber j.
    """

    max_violation: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.max_violation)

    @property
    def worst(self) -> float:
        return max(self.max_violation)


def check_proportionality(
    dec: SpectralResolution,
    h1: HermitianForm,
    h2: HermitianForm,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ProportionalityReport:
    """Verify h2 = lambda_j * h1 on every fiber.

    The decomposition must come from the connecting operator of
    (h1, h2); violations are reported per fiber, never raised.

    With V the basis matrix and W = V^H h1 its dual basis, the fiber
    blocks X_j^H h2 X_j - lambda_j X_j^H h1 X_j are the diagonal blocks
    of (V^H h2 - Lambda W) V, Lambda the eigenvalue of each row's fiber:
    two n x n gemms beside W.  Per fiber dimension, the blocks are one
    gather and their largest entries one reduction.
    """
    if h1.dim != dec.dim or h2.dim != dec.dim:
        raise DimensionMismatchError("form and decomposition dimensions differ")
    scale = max(_fro(h2.gram), _TINY)
    v = dec.eigenvectors
    lam = np.repeat(dec.eigenvalues, np.diff(dec.offsets))
    dev = (v.conj().T @ h2.gram - lam[:, None] * dec.dual_basis) @ v
    violations = np.empty(dec.n_fibers)
    for _, ids, c in dec.by_dimension:
        violations[ids] = np.abs(dev[c[:, :, None], c[:, None, :]]).max(axis=(1, 2))
    violations /= scale
    return ProportionalityReport(
        max_violation=tuple(violations.tolist()), tolerance=tol.tol_resid
    )


def _fiber_operator(a, dec: SpectralResolution) -> np.ndarray:
    """``a`` as a complex n x n array, checked to be finite and of the resolution's size."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (dec.dim, dec.dim):
        raise DimensionMismatchError("operator and decomposition dimensions differ")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("operator contains non-finite entries")
    return a


def project_to_commutant_blocks(
    a: np.ndarray,
    dec: SpectralResolution,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DecomposableOperator:
    """Split an operator commuting with G into its per-fiber blocks.

    An operator in the commutant is block-diagonal in the fiber basis;
    the cross-fiber blocks are certified to vanish (within ten times the
    residual tolerance, relative to the operator norm) before the
    diagonal blocks are returned.

    Raises
    ------
    NonFiniteError
        If the operator has a NaN or infinite entry.
    NotInCommutantError
        If the commutator residual exceeds ``tol.tol_resid`` relative to
        ||G||*||A||, or the cross-fiber certification fails; the residual
        is attached to the exception.
    """
    a = _fiber_operator(a, dec)
    resid = _commutator_residual(a, dec.connecting.mat)
    if resid > tol.tol_resid:
        raise NotInCommutantError(
            f"operator does not commute with G (relative residual {resid:.3e})",
            residual=resid,
        )
    a_tilde = dec.to_fiber_coordinates(a)
    off = a_tilde.copy()
    for _, _, c in dec.by_dimension:
        off[c[:, :, None], c[:, None, :]] = 0.0
    off_resid = _fro(off) / max(_fro(a), _TINY)
    if off_resid > 10.0 * tol.tol_resid:
        raise NotInCommutantError(
            f"cross-fiber blocks do not vanish (relative residual {off_resid:.3e})",
            residual=off_resid,
        )
    return DecomposableOperator(blocks=tuple(a_tilde[s, s] for s in dec.fiber_slices()))


@dataclass(frozen=True)
class ScalarBlockReport:
    """Whether an operator acts as a scalar on every fiber.

    ``scalars[j]`` is the best-fit multiplier on fiber j and
    ``scalar_residual[j]`` the relative deviation of the block from that
    multiple of the identity.
    """

    in_commutant: bool
    commutator_residual: float
    scalars: tuple[complex, ...]
    scalar_residual: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.in_commutant and all(
            r <= self.tolerance for r in self.scalar_residual
        )


def check_bicommutant_scalar(
    b: np.ndarray,
    dec: SpectralResolution,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ScalarBlockReport:
    """Test whether an operator is fiberwise multiplication by a number.

    Operators in the bicommutant of G act on each fiber as b_j times the
    identity; the report carries the fitted scalars and per-fiber
    residuals, and never raises on failure.  An operator of the wrong size
    or with a NaN or infinite entry raises, as in
    :func:`project_to_commutant_blocks`.
    """
    b = _fiber_operator(b, dec)
    resid = _commutator_residual(b, dec.connecting.mat)
    in_commutant = resid <= tol.tol_resid
    b_tilde = dec.to_fiber_coordinates(b)
    scale = max(_fro(b), _TINY)
    scalars, dev = [], []
    for s in dec.fiber_slices():
        blk = b_tilde[s, s]
        k = blk.shape[0]
        b_j = complex(np.trace(blk) / k)
        scalars.append(b_j)
        dev.append(_fro(blk - b_j * np.eye(k)) / scale)
    return ScalarBlockReport(
        in_commutant=in_commutant,
        commutator_residual=resid,
        scalars=tuple(scalars),
        scalar_residual=tuple(dev),
        tolerance=tol.tol_resid,
    )


def check_genericity_consistency(
    dec: SpectralResolution,
    g: ConnectingOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """All fibers one-dimensional iff the pair is generic.

    Returns whether every fiber is one-dimensional, after asserting that
    this agrees with the commutant-based genericity test.  A disagreement
    would falsify the implementation, not the input, so it raises.  Both
    verdicts are read from ``dec``, which must be the decomposition of
    ``g`` under ``tol``.

    Raises
    ------
    InternalInconsistencyError
        If the two characterizations disagree.
    """
    unidimensional = is_generic_by_spectrum(dec)
    generic = is_generic_by_commutant(g, tol, resolution=dec)
    if unidimensional != generic:
        raise InternalInconsistencyError(
            f"fiber dimensions say unidimensional={unidimensional} but the "
            f"commutant test says generic={generic}"
        )
    return unidimensional


def sample_biunitary(dec: SpectralResolution, seed: int) -> np.ndarray:
    """Draw a random transformation preserving both Hermitian forms.

    One independent Haar-distributed unitary block is drawn per fiber
    (in fiber order, from a generator seeded with ``seed``, so results
    are reproducible), assembled block-diagonally in the fiber basis and
    converted back to ambient coordinates.  In the generic case every
    block is 1 x 1, i.e. the sample is a diagonal of phases in the fiber
    basis.

    A block is the phase-fixed QR factor Q of a complex Ginibre matrix
    Z (Mezzadri, Notices AMS 54, 2007).  The stream is one real and then
    one imaginary k x k draw per fiber, in fiber order, drawn as one
    vector of sum 2 k^2 values: the same stream as one draw per fiber.
    Per fiber dimension d, the chunks of all fibers of dimension d form
    one (count, d, d) stack.  For d = 1 no QR runs: the phase-fixed Q of
    a 1 x 1 z is z / |z|.  For d >= 2 one stacked QR gives every block
    the QR that fiber alone would get, bit for bit.  The stack is
    scattered into U~ at the fibers' diagonal blocks, and the sample is
    (V U~) W for the dual basis W = V^H h1: O(n^2) memory beside the
    products, whatever the fiber dimensions.
    """
    rng = np.random.default_rng(seed)
    size = np.diff(dec.offsets) ** 2
    start = 2 * (np.cumsum(size) - size)  # fiber j's real chunk, then its imaginary chunk
    z = rng.standard_normal(2 * int(size.sum()))
    u_tilde = np.zeros((dec.dim, dec.dim), dtype=complex)
    for d, ids, c in dec.by_dimension:
        at = start[ids][:, None] + np.arange(d * d)
        blocks = ((z[at] + 1j * z[at + d * d]) / np.sqrt(2.0)).reshape(-1, d, d)
        if d == 1:  # a 1 x 1 block is its own R, with Q = 1
            q = blocks / np.abs(blocks)
        else:
            q, r = np.linalg.qr(blocks)
            r = np.diagonal(r, axis1=1, axis2=2)
            q = q * (r / np.abs(r))[:, None, :]
        u_tilde[c[:, :, None], c[:, None, :]] = q
    vu = dec.eigenvectors @ u_tilde
    del u_tilde  # three n x n arrays at most while W is formed and applied
    return vu @ dec.dual_basis


def phase_biunitary(dec: SpectralResolution, phases) -> np.ndarray:
    """Bi-unitary transformation from one phase per fiber (generic case).

    Returns sum_j e^{i phi_j} P_j with P_j the fiber projectors, as
    (V e^{i phi}) (V^H h1).  Composing two phase transformations adds
    their phases modulo 2 pi.

    Raises
    ------
    NotGenericError
        If some fiber has dimension greater than one.
    NonFiniteError
        If some phase is NaN or infinite.
    """
    phases = np.asarray(phases, dtype=float)
    if not is_generic_by_spectrum(dec):
        raise NotGenericError(
            f"phase transformations need one-dimensional fibers, got dimensions "
            f"{dec.multiplicities}"
        )
    if phases.shape != (dec.n_fibers,):
        raise ValueError(f"need one phase per fiber ({dec.n_fibers})")
    if not np.all(np.isfinite(phases)):
        raise NonFiniteError("phases contain non-finite entries")
    return (dec.eigenvectors * np.exp(1j * phases)) @ dec.dual_basis
