"""Shared corpus generators and independent brute-force oracles.

Corpus matrices are kept well-conditioned (eigenvalues in [0.5, 2],
modest conjugations) so that acceptance-level residual bounds measure
algorithmic correctness rather than conditioning luck.  The oracles here
are deliberately independent of the library code paths they check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from biherm import DEFAULT_TOLERANCES, ComplexStructureJ, FileFormatError, HermitianForm, RealForm
from biherm.matrixio import MATRIX_KINDS, _kind_defect, save_matrix

_CANONICAL_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric positive-definite with spectrum in [0.5, 2]."""
    q = random_orthogonal(rng, n)
    w = 0.5 + 1.5 * rng.random(n)
    m = (q * w) @ q.T
    return 0.5 * (m + m.T)

def random_hpd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian positive-definite with spectrum in [0.5, 2]."""
    q = random_unitary(rng, n)
    w = 0.5 + 1.5 * rng.random(n)
    m = (q * w) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def random_complex_structure(rng: np.random.Generator, m: int) -> ComplexStructureJ:
    """Conjugated canonical structure; the conjugation has singular values
    in [0.8, 1.25] so conditioning never dominates residuals."""
    assert m % 2 == 0
    j0 = np.kron(np.eye(m // 2), _CANONICAL_BLOCK)
    d = 0.8 + 0.45 * rng.random(m)
    s = (random_orthogonal(rng, m) * d) @ random_orthogonal(rng, m).T
    j = s @ j0 @ np.linalg.inv(s)
    # one Newton step toward J^2 = -1 scrubs the inversion roundoff
    j = 1.5 * j + 0.5 * (j @ j @ j)
    return ComplexStructureJ(j)


def random_admissible_pair(
    rng: np.random.Generator, m: int
) -> tuple[RealForm, ComplexStructureJ]:
    """A metric already compatible with a random complex structure."""
    j = random_complex_structure(rng, m)
    g0 = random_spd(rng, m)
    g = 0.5 * (j.mat.T @ g0 @ j.mat + g0)
    return RealForm(0.5 * (g + g.T), "symmetric"), j


def hermitian_pair_with_multiplicities(
    rng: np.random.Generator,
    multiplicities: tuple[int, ...],
    eigenvalues: np.ndarray | None = None,
    min_gap: float = 0.05,
) -> tuple[HermitianForm, HermitianForm, np.ndarray]:
    """Form pair whose connecting operator has a prescribed spectrum.

    Returns (h1, h2, cluster_eigenvalues).  The connecting operator is
    h1-unitarily diagonalized by construction, with exact eigenvalue
    repetitions according to ``multiplicities``.
    """
    k = len(multiplicities)
    n = sum(multiplicities)
    if eigenvalues is None:
        # ascending, separated by at least min_gap
        steps = min_gap + rng.random(k)
        eigenvalues = 0.5 + np.cumsum(steps)
    lam = np.repeat(np.asarray(eigenvalues, dtype=float), multiplicities)
    h1 = random_hpd(rng, n)
    chol = np.linalg.cholesky(h1)
    v = np.linalg.solve(chol.conj().T, random_unitary(rng, n))  # h1-orthonormal columns
    g = (v * lam) @ v.conj().T @ h1
    h2 = h1 @ g
    h2 = 0.5 * (h2 + h2.conj().T)
    return HermitianForm(h1), HermitianForm(h2), np.asarray(eigenvalues, dtype=float)


def hermitian_pair_with_spectrum(
    rng: np.random.Generator, lam: np.ndarray, kappa: float
) -> tuple[HermitianForm, HermitianForm]:
    """Form pair with cond(h1) = kappa whose connecting operator has
    eigenvalues ``lam`` (repeats included)."""
    n = len(lam)
    w = np.exp(np.log(kappa) * np.concatenate([[0.0, 1.0], rng.random(max(n - 2, 0))]))[:n]
    q = random_unitary(rng, n)
    h1 = (q * w) @ q.conj().T
    h1 = 0.5 * (h1 + h1.conj().T)
    lu = np.linalg.cholesky(h1) @ random_unitary(rng, n)  # h1 = lu lu^H
    h2 = (lu * np.asarray(lam, dtype=float)) @ lu.conj().T
    return HermitianForm(h1), HermitianForm(0.5 * (h2 + h2.conj().T))


def save_exact_cluster_pair(directory, name: str, seed: int, lam) -> list[str]:
    """Write h1 = b bᵀ and h2 = (b·λ) bᵀ, b = I + 0.5·N(0, 1)/√n drawn from
    ``seed``, to ``{name}_h1.json`` and ``{name}_h2.json`` in ``directory``.

    G = b⁻ᵀ diag(λ) bᵀ, so equal entries of ``lam`` are exactly repeated
    eigenvalues.  Returns the pair's ``--h1``/``--h2`` flags.
    """
    n = len(lam)
    b = np.eye(n) + 0.5 * np.random.default_rng(seed).standard_normal((n, n)) / np.sqrt(n)
    paths = [str(Path(directory) / f"{name}_{h}.json") for h in ("h1", "h2")]
    save_matrix(paths[0], b @ b.T, "complex_hermitian")
    save_matrix(paths[1], (b * lam) @ b.T, "complex_hermitian")
    return ["--h1", paths[0], "--h2", paths[1]]


def random_multiplicity_pattern(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    """Random composition of n with a mix of simple and degenerate parts."""
    parts = []
    left = n
    while left > 0:
        if rng.random() < 0.6:
            p = 1
        else:
            p = int(rng.integers(2, min(4, left) + 1)) if left > 1 else 1
        parts.append(min(p, left))
        left -= parts[-1]
    return tuple(parts)


# Fiber-dimension patterns at n = 2..128: all simple, degenerate runs that
# are adjacent or interleaved, four fiber dimensions mixed, a single fiber,
# and one large fiber among many simple ones.
PER_FIBER_PATTERNS = [
    (1,) * 128,
    (1,) * 50 + (2,) * 9 + (1,) * 40 + (3,) * 3,
    (1, 2) * 20 + (3, 1) * 10,
    (2, 1, 1, 3, 3, 3, 1),
    (4, 1, 3, 1, 2, 2),
    (1, 2, 3, 4) * 8,
    (128,),
    (12,),
    (1, 1),
    (85,) + (1,) * 43,
]


# Hermitian and accepted by HermitianForm (smallest eigenvalue 5.6e-17), but
# too close to singular for a Cholesky factorization.
NEAR_SINGULAR_H1 = np.array([[3.0, 1.0], [1.0, 0.33333333333333337]])


# --- independent oracles -------------------------------------------------

def reference_pencil_eigenvalues(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Eigenvalues of the pencil h2 x = lam h1 x, in 50-digit arithmetic.

    The eigenvalues of the connecting operator G = h1^{-1} h2: mpmath's
    Cholesky factor L of h1, the congruence L^{-1} h2 L^{-H} and
    ``mpmath.eigh`` of it, rounded to floats and sorted ascending.  No
    step shares code or precision with the library's solve.
    """
    with mpmath.workdps(50):
        linv = mpmath.cholesky(mpmath.matrix(np.asarray(h1).tolist())) ** -1
        c = linv * mpmath.matrix(np.asarray(h2).tolist()) * linv.transpose_conj()
        w = mpmath.eigh((c + c.transpose_conj()) / 2, eigvals_only=True)
        return np.sort(np.array([float(x) for x in w]))


def reference_polar_triple(g: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J and g_omega of the (g, omega) route, in 50-digit arithmetic.

    mpmath's Cholesky factor L of g, the skew matrix L^{-1} omega L^{-T}
    and its ``mpmath.svd_r`` U S V give the polar factors U V and
    V^T S V in g's frame, mapped back as J = L^{-T} (U V) L^T and
    g_omega = L (V^T S V) L^T, rounded to floats.  No step shares code
    or precision with the library's route.
    """
    with mpmath.workdps(50):
        low = mpmath.cholesky(mpmath.matrix(np.asarray(g).tolist()))
        linv = low**-1
        u, s, v = mpmath.svd_r(linv * mpmath.matrix(np.asarray(omega).tolist()) * linv.T)
        j = linv.T * (u * v) * low.T
        g_omega = low * (v.T * mpmath.diag(s) * v) * low.T
        return np.array(j.tolist(), dtype=float), np.array(g_omega.tolist(), dtype=float)


def reference_cluster_structure(values: np.ndarray, gap: float) -> tuple[tuple[int, ...], float]:
    """Multiplicities of the clusters of ascending ``values`` under ``gap``, and their margin.

    Adjacent values more than ``gap`` apart start a new cluster.  The
    margin is how far the decision nearest to flipping sits from the
    threshold, as a ratio of at least 1: the minimum over adjacent
    differences d of max(d / gap, gap / d) (infinite for one value).
    """
    diffs = np.diff(values)
    cuts = np.flatnonzero(diffs > gap) + 1
    mults = tuple(int(m) for m in np.diff([0, *cuts.tolist(), len(values)]))
    ratios = np.maximum(diffs / gap, gap / np.maximum(diffs, np.finfo(float).tiny))
    return mults, float(np.min(ratios)) if ratios.size else np.inf


def reference_fiber_eigenvalues(spectrum: np.ndarray, gap: float) -> list[float]:
    """Fiber eigenvalues by a loop over adjacent gaps: each cluster's ``np.mean``.

    Adjacent eigenvalues more than ``gap`` apart start a new cluster, as
    in ``spectral_resolution``, whose eigenvalues must equal these bit for
    bit.
    """
    boundaries = [0]
    for i in range(1, len(spectrum)):
        if spectrum[i] - spectrum[i - 1] > gap:
            boundaries.append(i)
    boundaries.append(len(spectrum))
    return [float(np.mean(spectrum[a:b])) for a, b in zip(boundaries[:-1], boundaries[1:])]


def reference_check_proportionality(dec, h1, h2) -> tuple[float, ...]:
    """``check_proportionality(...).max_violation`` computed one fiber at a time.

    Two Gram blocks per fiber from the fiber's own basis view, a loop
    that the full-width products must reproduce up to rounding.
    """
    scale = max(float(np.linalg.norm(h2.gram)), np.finfo(float).tiny)
    violations = []
    for f in dec.fibers:
        x = f.basis
        m1 = x.conj().T @ h1.gram @ x
        m2 = x.conj().T @ h2.gram @ x
        violations.append(float(np.max(np.abs(m2 - f.eigenvalue * m1))) / scale)
    return tuple(violations)


def reference_sample_biunitary(dec, seed: int) -> np.ndarray:
    """``sample_biunitary`` drawn one fiber at a time.

    Each fiber gets its own real and then imaginary Ginibre draw and its
    own QR, assembled block-diagonally and mapped back by three products:
    a loop that the batched draw must reproduce up to rounding.
    """
    rng = np.random.default_rng(seed)
    u_tilde = np.zeros((dec.dim, dec.dim), dtype=complex)
    for s, f in zip(dec.fiber_slices(), dec.fibers):
        k = f.dim
        z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        u_tilde[s, s] = q * (d / np.abs(d))
    return dec.from_fiber_coordinates(u_tilde)


def reference_proportionality_violations(dec, h1, h2) -> tuple[float, ...]:
    """``check_proportionality(...).max_violation`` in 50-digit arithmetic.

    From the float fiber bases X_j and eigenvalues lambda_j of ``dec``:
    mpmath forms h1 V and h2 V for the basis matrix V, then each fiber's
    X_j^H h1 X_j and X_j^H h2 X_j, and the largest |m2 - lambda_j m1| over
    the Frobenius norm of h2, rounded to floats.  No sum runs in float, so
    the result bounds the rounding of any summation order.  For n <= 12.
    """
    with mpmath.workdps(50):
        v = mpmath.matrix(dec.eigenvectors.tolist())
        hv1 = mpmath.matrix(h1.gram.tolist()) * v
        hv2 = mpmath.matrix(h2.gram.tolist()) * v
        scale = mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(z)) ** 2 for z in h2.gram.ravel()))
        violations = []
        for f, s in zip(dec.fibers, dec.fiber_slices()):
            cols = range(s.start, s.stop)
            lam = mpmath.mpf(f.eigenvalue)
            worst = max(
                abs(
                    mpmath.fsum(mpmath.conj(v[r, i]) * (hv2[r, j] - lam * hv1[r, j]) for r in range(dec.dim))
                )
                for i in cols
                for j in cols
            )
            violations.append(float(worst / scale))
        return tuple(violations)


def commutator_map(mat: np.ndarray) -> np.ndarray:
    """Matrix of X -> mat X - X mat acting on row-major vec(X)."""
    n = mat.shape[0]
    eye = np.eye(n)
    return np.kron(mat, eye) - np.kron(eye, mat.T)


def nullspace_dim(k: np.ndarray, rtol: float = 1e-8, scale: float | None = None) -> int:
    """Null-space dimension with the threshold taken relative to ``scale``
    (the natural operator norm), so a numerically-zero map has full kernel."""
    s = np.linalg.svd(k, compute_uv=False)
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    if scale == 0.0:
        return k.shape[1]
    return int(k.shape[1] - np.sum(s > rtol * scale))


def brute_commutant_basis(mat: np.ndarray, rtol: float = 1e-8) -> list[np.ndarray]:
    """Orthonormal basis of {X : [mat, X] = 0} by dense SVD."""
    n = mat.shape[0]
    k = commutator_map(mat)
    _, s, vh = np.linalg.svd(k)
    scale = float(np.linalg.norm(mat, 2))
    rank = int(np.sum(s > rtol * scale)) if scale > 0 else 0
    return [vh[i].conj().reshape(n, n) for i in range(rank, n * n)]


def brute_bicommutant_dim(mat: np.ndarray, rtol: float = 1e-8) -> int:
    """Dimension of the double commutant by stacking commutator maps.

    The commutant basis elements have unit Frobenius norm, so a unit
    scale is the right threshold reference for the stacked map.
    """
    basis = brute_commutant_basis(mat, rtol)
    stacked = np.vstack([commutator_map(x) for x in basis])
    return nullspace_dim(stacked, rtol, scale=1.0)


def reference_canonical_json(obj) -> str:
    """Canonical JSON walked entry by entry, each float as ``format(x, ".17g")``.

    ``report.canonical_json`` formats a matrix's floats a block of rows at
    a time with numpy; this is the per-entry rendering it must reproduce
    byte for byte.  It covers what a matrix file holds: dicts, lists,
    floats, ints and strings.
    """
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_canonical_json(v)}" for k, v in items) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(reference_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return json.dumps(obj)


def reference_matrix_section(mat: np.ndarray, kind: str) -> dict:
    """A matrix section whose entries are converted one at a time."""
    if kind.startswith("real"):
        data = [float(v) for v in np.real(mat).ravel()]
    else:
        data = [[float(v.real), float(v.imag)] for v in np.asarray(mat, dtype=complex).ravel()]
    return {"kind": kind, "dim": mat.shape[0], "data": data}


def reference_matrix_file(mat: np.ndarray, kind: str) -> str:
    """The bytes of a matrix file whose entries are converted one at a time."""
    return reference_canonical_json(reference_matrix_section(mat, kind)) + "\n"


def reference_load_matrix(path):
    """``load_matrix`` through the stdlib parser and a walk of its own:
    ``Path.read_text``, ``json.loads`` with the writer's ``-0`` read as -0.0,
    then the section checked field by field and entry by entry.

    The oracle for the values and messages of the fast parser and of the
    loader's one-pass entry conversion.  The entry rules are README's: a JSON
    number, not a boolean, finite as a double; a complex kind's entry is a
    pair of exactly two.  Only the messages and the kind's symmetry check
    (``_kind_defect``) are the loader's.  It reraises what the stdlib raises
    on a file that is not UTF-8 or is nested past the recursion limit, where
    ``load_matrix`` raises ``FileFormatError``.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise FileFormatError(f"{path}: integer too large for a double: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    kind, dim, data = obj.get("kind"), obj.get("dim"), obj.get("data")
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"{path}: field 'kind' must be one of {', '.join(MATRIX_KINDS)}, got {kind!r}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: field 'dim' must be a positive integer, got {dim!r}")
    if not isinstance(data, list) or len(data) != dim * dim:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise FileFormatError(f"{path}: field 'data' must be a list of {dim * dim} entries, got {got}")
    pairs = kind.startswith("complex")
    entries = []
    for i, v in enumerate(data):
        parts = v if pairs else [v]
        if (pairs and not (isinstance(v, list) and len(v) == 2)) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts
        ):
            raise FileFormatError(f"{path}: data[{i}]: expected {'a [re, im] pair' if pairs else 'a real number'}, got {v!r}")
        values = []
        for p in parts:
            try:
                values.append(float(p))
            except OverflowError:
                raise FileFormatError(f"{path}: data[{i}]: integer too large for a double") from None
            if not math.isfinite(values[-1]):
                raise FileFormatError(f"{path}: data[{i}]: non-finite entry {v!r}")
        entries.append(complex(*values) if pairs else values[0])
    mat = np.array(entries, dtype=complex if pairs else float).reshape(dim, dim)
    if defect := _kind_defect(mat, kind, DEFAULT_TOLERANCES):
        raise FileFormatError(f"{path}: {defect}")
    return kind, mat
