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

The unit of work is the segment, all fibers of one dimension k: the
bi-unitary group U(n_1) x ... x U(n_k) regrouped as the product over k
of U(k)^(m_k).  Each segment is handled by stacked numpy calls over its
m_k fibers, with column dots for k = 1, after the n x n products that
touch every fiber at once have been formed as whole-matrix gemms.  The
results agree with a loop over fibers up to rounding (the sums run in
another order), and are reproducible to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import ConnectingOperator, _commutator_residual
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotGenericError,
    NotInCommutantError,
)
from .forms import _TINY, DEFAULT_TOLERANCES, HermitianForm, Tolerances, _fro, _read_only
from .spectral import SpectralResolution, is_generic_by_commutant, spectral_resolution

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

    With V the basis matrix, h1 V and h2 V are two n x n gemms.  The Gram
    blocks X_j^H h1 X_j and X_j^H h2 X_j of the fibers then need column
    dots for a segment of dimension 1, and stacked (k, n) x (n, k)
    products for a segment of dimension k >= 2.
    """
    if h1.dim != dec.dim or h2.dim != dec.dim:
        raise DimensionMismatchError("form and decomposition dimensions differ")
    scale = max(_fro(h2.gram), _TINY)
    lam = dec.eigenvalues
    v = dec.eigenvectors
    hv1, hv2 = h1.gram @ v, h2.gram @ v
    violations = np.empty(dec.n_fibers)
    for k, idx in dec.segments.items():
        idx, cols = _segment_columns(dec, k, idx)
        xh = v[:, cols].conj()
        if k == 1:
            m1 = np.einsum("ij,ij->j", xh, hv1[:, cols])
            m2 = np.einsum("ij,ij->j", xh, hv2[:, cols])
            violations[idx] = np.abs(m2 - lam[idx] * m1) / scale
        else:
            xh = _by_fiber(xh, k).transpose(0, 2, 1)
            m1 = xh @ _by_fiber(hv1[:, cols], k)
            m2 = xh @ _by_fiber(hv2[:, cols], k)
            violations[idx] = np.max(np.abs(m2 - lam[idx, None, None] * m1), axis=(1, 2)) / scale
    return ProportionalityReport(
        max_violation=tuple(violations.tolist()), tolerance=tol.tol_resid
    )


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
    NotInCommutantError
        If the commutator residual exceeds ``tol.tol_resid`` relative to
        ||G||*||A||, or the cross-fiber certification fails; the residual
        is attached to the exception.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (dec.dim, dec.dim):
        raise DimensionMismatchError("operator and decomposition dimensions differ")
    resid = _commutator_residual(a, dec.connecting.mat)
    if resid > tol.tol_resid:
        raise NotInCommutantError(
            f"operator does not commute with G (relative residual {resid:.3e})",
            residual=resid,
        )
    a_tilde = dec.to_fiber_coordinates(a)
    slices = dec.fiber_slices()
    off = a_tilde.copy()
    for s in slices:
        off[s, s] = 0.0
    off_resid = _fro(off) / max(_fro(a), _TINY)
    if off_resid > 10.0 * tol.tol_resid:
        raise NotInCommutantError(
            f"cross-fiber blocks do not vanish (relative residual {off_resid:.3e})",
            residual=off_resid,
        )
    return DecomposableOperator(blocks=tuple(a_tilde[s, s] for s in slices))


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
    residuals, and never raises on failure.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (dec.dim, dec.dim):
        raise DimensionMismatchError("operator and decomposition dimensions differ")
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
    unidimensional = all(k == 1 for k in dec.multiplicities)
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

    A block is the phase-fixed QR factor Q of a complex Ginibre matrix.
    The stream is one real and then one imaginary k x k draw per fiber,
    in fiber order.  It is drawn as one vector of sum 2 k^2 values, which
    is the same stream as one draw per fiber, and each fiber's chunk is
    sliced at its offset.  Per segment of fibers of dimension k, the
    chunks are factored by one stacked QR and phase-fixed together, so
    each block is the one a QR per fiber would give.  The blocks Q_j act
    on the fiber bases X_j directly, X_j Q_j (a column scaling for
    k = 1), and the sample is (V U~)(V^H h1): two n x n products, not
    the three of :meth:`~biherm.spectral.SpectralResolution.from_fiber_coordinates`.
    """
    rng = np.random.default_rng(seed)
    dims = np.array(dec.multiplicities)
    draws = np.concatenate(([0], np.cumsum(2 * dims * dims)))
    z = rng.standard_normal(draws[-1])
    v = dec.eigenvectors
    vu = np.empty_like(v)
    for k, idx in dec.segments.items():
        idx, cols = _segment_columns(dec, k, idx)
        chunks = z[draws[idx, None] + np.arange(2 * k * k)].reshape(-1, 2, k, k)
        q, r = np.linalg.qr((chunks[:, 0] + 1j * chunks[:, 1]) / np.sqrt(2.0))
        d = np.diagonal(r, axis1=1, axis2=2)
        q *= (d / np.abs(d))[:, None, :]
        if k == 1:
            vu[:, cols] = v[:, cols] * q[:, 0, 0]
        else:
            vu[:, cols] = (_by_fiber(v[:, cols], k) @ q).transpose(1, 0, 2).reshape(dec.dim, -1)
    return _to_ambient(dec, vu)


def phase_biunitary(dec: SpectralResolution, phases) -> np.ndarray:
    """Bi-unitary transformation from one phase per fiber (generic case).

    Returns sum_j e^{i phi_j} P_j with P_j the fiber projectors, as
    (V e^{i phi}) (V^H h1).  Composing two phase transformations adds
    their phases modulo 2 pi.

    Raises
    ------
    NotGenericError
        If some fiber has dimension greater than one.
    """
    phases = np.asarray(phases, dtype=float)
    if any(k != 1 for k in dec.multiplicities):
        raise NotGenericError(
            f"phase transformations need one-dimensional fibers, got dimensions "
            f"{dec.multiplicities}"
        )
    if phases.shape != (dec.n_fibers,):
        raise ValueError(f"need one phase per fiber ({dec.n_fibers})")
    return _to_ambient(dec, dec.eigenvectors * np.exp(1j * phases))


def _segment_columns(
    dec: SpectralResolution, k: int, idx: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Fiber indices ``idx`` of one segment of dimension k as an array, and
    the basis-matrix columns of those fibers, fiber by fiber."""
    idx = np.array(idx)
    return idx, (dec.offsets[idx, None] + np.arange(k)).ravel()


def _by_fiber(cols: np.ndarray, k: int) -> np.ndarray:
    """The (n, m k) columns of m fibers of dimension k as an (m, n, k) stack."""
    return cols.reshape(cols.shape[0], -1, k).transpose(1, 0, 2)


def _to_ambient(dec: SpectralResolution, vu: np.ndarray) -> np.ndarray:
    """V U~ V^H h1 from V U~: the ambient operator of the fiber-basis U~."""
    return vu @ (dec.eigenvectors.conj().T @ dec.h1.gram)
