"""Seeded input generators with known ground truth.

Everything here depends only on numpy and the seed, never on biherm or on
the repository's test helpers, so an edit to either cannot move a
workload.  Each generated pair carries the verdicts the library should
reach on it: the expected cluster multiplicities (hence signature and
genericity) and whether the proportionality and bi-unitary checks should
pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# Cluster representatives are 0.5 + cumsum(MIN_GAP + U[0, 1)), so distinct
# clusters are always at least MIN_GAP apart.
MIN_GAP = 0.05
KAPPA_MAX = 1e4
# ROADMAP item 3(a): a split this large is above tol_eig, so clustering
# keeps the two eigenvalues apart, but at kappa(h1) = 1e4 the commutant
# and Krylov thresholds merge them.
SPLIT_A, KAPPA_A = 2e-7, 1e4
# ROADMAP item 3(b): a split this small is merged by tol_eig, and the
# merged fiber then fails proportionality at tol_resid.
SPLIT_B, KAPPA_B = 1e-9, 4.0


@dataclass(frozen=True)
class PairCase:
    """A Hermitian pair (h1, h2) and the library's expected verdicts on it."""

    case_id: str
    kind: str  # "normal", "borderline_a" or "borderline_b"
    h1: np.ndarray
    h2: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.h1.shape[0]

    @property
    def generic(self) -> bool:
        return all(m == 1 for m in self.multiplicities)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_pattern(rng: np.random.Generator, n: int, degenerate: bool) -> tuple[int, ...]:
    """Composition of n: all ones, or a mix with at least one repeated part."""
    if not degenerate:
        return (1,) * n
    while True:
        parts, left = [], n
        while left > 0:
            p = 1 if rng.random() < 0.6 else int(rng.integers(2, 5))
            parts.append(min(p, left))
            left -= parts[-1]
        if max(parts) > 1:
            return tuple(parts)


def cluster_values(rng: np.random.Generator, k: int) -> np.ndarray:
    return 0.5 + np.cumsum(MIN_GAP + rng.random(k))


def pair_with_spectrum(
    rng: np.random.Generator, lam: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray]:
    """h1 with condition number kappa and h2 = h1 G, G having eigenvalues lam.

    With h1 = L L^H and G = V diag(lam) V^H h1 for the h1-orthonormal
    V = L^{-H} U, h2 = (L U) diag(lam) (L U)^H, exactly Hermitian.
    """
    n = len(lam)
    w = np.exp(np.log(kappa) * np.concatenate([[0.0, 1.0], rng.random(max(n - 2, 0))]))[:n]
    q = random_unitary(rng, n)
    h1 = (q * w) @ q.conj().T
    h1 = 0.5 * (h1 + h1.conj().T)
    lu = np.linalg.cholesky(h1) @ random_unitary(rng, n)
    h2 = (lu * lam) @ lu.conj().T
    h2 = 0.5 * (h2 + h2.conj().T)
    return h1, h2


def normal_pair(
    rng: np.random.Generator, case_id: str, n: int, degenerate: bool, kappa: float
) -> PairCase:
    pattern = random_pattern(rng, n, degenerate)
    lam = np.repeat(cluster_values(rng, len(pattern)), pattern)
    h1, h2 = pair_with_spectrum(rng, lam, kappa)
    return PairCase(case_id, "normal", h1, h2, pattern)


def borderline_pair(rng: np.random.Generator, case_id: str, n: int, variant: str) -> PairCase:
    """ROADMAP item 3 pairs: one eigenvalue of a simple spectrum split in two.

    Variant "a" splits by SPLIT_A at kappa KAPPA_A: the pair is generic.
    Variant "b" splits by SPLIT_B at kappa KAPPA_B: tol_eig merges the two
    eigenvalues, so the expected fiber has dimension 2.
    """
    split, kappa = (SPLIT_A, KAPPA_A) if variant == "a" else (SPLIT_B, KAPPA_B)
    values = cluster_values(rng, n - 1)
    j = int(rng.integers(0, n - 1))
    lam = np.insert(values, j + 1, values[j] * (1.0 + split))
    h1, h2 = pair_with_spectrum(rng, lam, kappa)
    if variant == "a":
        pattern = (1,) * n
    else:
        pattern = (1,) * j + (2,) + (1,) * (n - 2 - j)
    return PairCase(case_id, f"borderline_{variant}", h1, h2, pattern)


# --- real-space inputs for the CLI flow --------------------------------------

def realify(h: np.ndarray) -> np.ndarray:
    """Real symmetric Gram matrix of Re(z^H h w) in (Re z, Im z) coordinates."""
    a, b = h.real, h.imag
    g = np.block([[a, -b], [b, a]])
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class RealSession:
    """Inputs of one CLI session plus expected verdicts.

    ``g1``/``j`` feed ``triple --j``; ``g2``/``omega`` feed ``triple
    --omega``; both triples share the complex structure J, so their
    Hermitian forms live in the same canonical coordinates and their
    connecting operator has the multiplicities of ``large``.  ``small`` is
    a complex pair for ``generic`` and ``decompose``.
    """

    g1: np.ndarray
    j: np.ndarray
    g2: np.ndarray
    omega: np.ndarray
    large_multiplicities: tuple[int, ...]
    small: PairCase


def real_session(rng: np.random.Generator, n: int, n_small: int) -> RealSession:
    """Two J-compatible metrics on R^{2n} sharing a conjugated canonical J.

    The conjugation W has singular values in [0.8, 1.25]; g_i = W^{-T}
    realify(H_i) W^{-1} with (H1, H2) a well-conditioned complex pair of
    known spectrum, so the real connecting operator W realify(H1^{-1} H2)
    W^{-1} commutes with J and has each complex eigenvalue twice.
    """
    m = 2 * n
    # interleaved coordinates (x_1, y_1, x_2, y_2, ...): the standard J is
    # block diagonal, and realify's (x, y) blocks are reordered to match
    order = np.arange(m).reshape(2, n).T.ravel()
    j0 = np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))
    d = 0.8 + 0.45 * rng.random(m)
    w = (random_orthogonal(rng, m) * d) @ random_orthogonal(rng, m).T
    w_inv = np.linalg.inv(w)
    j = w @ j0 @ w_inv
    j = 1.5 * j + 0.5 * (j @ j @ j)  # one Newton step toward J^2 = -1
    pattern = random_pattern(rng, n, degenerate=True)
    lam = np.repeat(cluster_values(rng, len(pattern)), pattern)
    h1, h2 = pair_with_spectrum(rng, lam, kappa=4.0)
    g1 = w_inv.T @ realify(h1)[np.ix_(order, order)] @ w_inv
    g2 = w_inv.T @ realify(h2)[np.ix_(order, order)] @ w_inv
    g1, g2 = 0.5 * (g1 + g1.T), 0.5 * (g2 + g2.T)
    omega = g2 @ j
    omega = 0.5 * (omega - omega.T)
    small = normal_pair(rng, "small", n_small, degenerate=True, kappa=10.0)
    return RealSession(g1, j, g2, omega, pattern, small)


def matrix_file_text(mat: np.ndarray, kind: str) -> str:
    """A biherm matrix file, written without the library's own writer."""
    mat = np.asarray(mat)
    if kind.startswith("complex"):
        data = [[float(v.real), float(v.imag)] for v in mat.astype(complex).ravel()]
    else:
        data = [float(v) for v in mat.ravel()]
    return json.dumps({"kind": kind, "dim": int(mat.shape[0]), "data": data})


def digest_arrays(arrays) -> str:
    """SHA-256 over the shapes and bytes of a sequence of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()
