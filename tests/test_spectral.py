"""Tests for spectral clustering, genericity and cyclicity."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biherm import (
    BihermError,
    DegenerateSpectrumError,
    GroupSignature,
    HermitianForm,
    NonFiniteError,
    SpectralResolution,
    Tolerances,
    ZeroCoefficientError,
    bicommutant_dimension,
    commutant_dimension,
    connecting_operator,
    cyclic_vector,
    group_signature,
    is_cyclic,
    is_generic_by_commutant,
    is_generic_by_spectrum,
    krylov_rank,
    spectral_resolution,
)
from conftest import (
    PER_FIBER_PATTERNS,
    brute_bicommutant_dim,
    hermitian_pair_with_multiplicities,
    hermitian_pair_with_spectrum,
    nullspace_dim,
    commutator_map,
    random_multiplicity_pattern,
    reference_cluster_structure,
    reference_fiber_eigenvalues,
    reference_pencil_eigenvalues,
)

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def diag_operator(*values):
    n = len(values)
    h1 = HermitianForm(np.eye(n, dtype=complex))
    h2 = HermitianForm(np.diag(np.asarray(values, dtype=float)).astype(complex))
    return connecting_operator(h1, h2)


class TestSpectralResolution:
    def test_scalar_operator_single_cluster(self):
        res = spectral_resolution(diag_operator(1.0, 1.0, 1.0))
        assert res.n_fibers == 1
        assert res.multiplicities == (3,)
        assert res.eigenvalues[0] == pytest.approx(1.0)

    def test_exact_degeneracy(self):
        res = spectral_resolution(diag_operator(1.0, 2.0, 2.0))
        assert res.multiplicities == (1, 2)
        assert np.allclose(res.eigenvalues, [1.0, 2.0])

    def test_tiny_gap_merges(self):
        res = spectral_resolution(diag_operator(1.0, 1.0 + 1e-12, 2.0))
        assert res.multiplicities == (2, 1)

    def test_wide_gap_does_not_merge(self):
        res = spectral_resolution(diag_operator(1.0, 1.0 + 1e-4, 2.0))
        assert res.multiplicities == (1, 1, 1)

    def test_built_from_operator_gap_and_offsets(self):
        init = [f.name for f in dataclasses.fields(SpectralResolution) if f.init]
        assert init == ["connecting", "cluster_gap", "offsets"]
        assert not hasattr(SpectralResolution, "basis_matrix")

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        tol = Tolerances()
        for _ in range(20):
            n = int(rng.integers(2, 13))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            res = spectral_resolution(op)
            assert res.multiplicities == mults
            recon = sum(f.eigenvalue * (f.basis @ f.basis.conj().T @ h1.gram) for f in res.fibers)
            assert np.linalg.norm(recon - op.mat) <= 10 * tol.tol_resid * np.linalg.norm(op.mat)
            v = res.eigenvectors
            assert np.linalg.norm(v.conj().T @ h1.gram @ v - np.eye(n)) <= 1e-9

    def test_stored_arrays_are_read_only_views(self):
        rng = np.random.default_rng(8)
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, (1, 3, 2))
        res = spectral_resolution(connecting_operator(h1, h2))
        v = res.eigenvectors
        arrays = [res.spectrum, v, res.eigenvalues, res.offsets, h1.eigenvalues]
        arrays += [f.basis for f in res.fibers]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0
        # each fiber basis is a column view of the one eigenvector matrix
        for f, s in zip(res.fibers, res.fiber_slices()):
            assert np.shares_memory(f.basis, v)
            assert np.array_equal(f.basis, v[:, s])

    def test_fiber_eigenvalues_equal_cluster_means(self):
        rng = np.random.default_rng(61)
        patterns = [hermitian_pair_with_multiplicities(rng, m)[:2] for m in PER_FIBER_PATTERNS]
        # each eigenvalue split off by a tenth, one or ten times the cluster
        # gap, so near the gap some clusters merge and some do not
        split_pairs = []
        for _ in range(6):
            values = 0.5 + np.cumsum(0.05 + rng.random(40))
            shift = 1e-8 * max(values) * rng.choice([0.1, 1.0, 10.0], 40)
            lam = np.sort(np.concatenate([values, values + shift, values[::3]]))
            split_pairs.append(hermitian_pair_with_spectrum(rng, lam, 10.0))
        split_dims = set()
        for i, (h1, h2) in enumerate(patterns + split_pairs):
            res = spectral_resolution(connecting_operator(h1, h2))
            expected = reference_fiber_eigenvalues(res.spectrum, res.cluster_gap)
            assert [f.eigenvalue for f in res.fibers] == expected
            if i >= len(patterns):
                split_dims.update(res.multiplicities)
        assert {1, 2, 3} <= split_dims

    def test_segments_group_fibers_by_dimension(self):
        rng = np.random.default_rng(62)
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, (2, 1, 1, 3, 3, 3, 1))
        res = spectral_resolution(connecting_operator(h1, h2))
        assert res.segments == {2: (0,), 1: (1, 2, 6), 3: (3, 4, 5)}
        assert list(res.segments) == [2, 1, 3]

    def test_fiber_means_and_segments_per_dimension(self):
        # repeated fiber dimensions of 8 and more, one big fiber beside 43
        # simple ones, all simple, and random mixes: each fiber eigenvalue is
        # its cluster's np.mean to the last bit, and the segments are those
        # of a loop over fibers
        rng = np.random.default_rng(63)
        patterns = [(85,) + (1,) * 43, (1,) * 128, (1, 2, 3, 4) * 12, (8,) * 16, (9, 40, 9, 40, 1, 12, 12), (16, 1) * 7]
        patterns += [tuple(rng.choice([1, 2, 3, 8, 9, 13, 24], int(rng.integers(1, 12))).tolist()) for _ in range(40)]
        for mults in patterns:
            values = 0.5 + np.cumsum(0.05 + rng.random(len(mults)))
            # exact repeats moved by a relative 1e-13, far inside the cluster gap
            lam = np.repeat(values, mults) * (1.0 + 1e-13 * rng.standard_normal(sum(mults)))
            res = spectral_resolution(diag_operator(*np.sort(lam)))
            assert res.multiplicities == mults
            means = [float(np.mean(res.spectrum[s])) for s in res.fiber_slices()]
            assert res.eigenvalues.tobytes() == np.array(means).tobytes()
            segments: dict[int, list[int]] = {}
            for idx, k in enumerate(mults):
                segments.setdefault(k, []).append(idx)
            assert list(res.segments.items()) == [(k, tuple(v)) for k, v in segments.items()]


class TestGroupSignature:
    def test_distinct(self):
        sig = group_signature(spectral_resolution(diag_operator(1.0, 2.0)))
        assert sig.multiplicities == (1, 1)
        assert str(sig) == "U(1)×U(1)"

    def test_scalar(self):
        sig = group_signature(spectral_resolution(diag_operator(2.0, 2.0)))
        assert sig.multiplicities == (2,)
        assert str(sig) == "U(2)"

    def test_mixed(self):
        sig = group_signature(spectral_resolution(diag_operator(1.0, 1.0, 2.0, 3.0)))
        assert sig.multiplicities == (2, 1, 1)
        assert sig.total_dim == 4

    @pytest.mark.parametrize("multiplicities", [(), (1, 0), (2, -1)])
    def test_non_positive_multiplicities_rejected(self, multiplicities):
        with pytest.raises(ValueError, match="^multiplicities must be positive$"):
            GroupSignature(multiplicities)


class TestGenericBySpectrum:
    def test_distinct_true(self):
        assert is_generic_by_spectrum(spectral_resolution(diag_operator(1.0, 2.0, 3.0)))

    def test_degenerate_false(self):
        assert not is_generic_by_spectrum(spectral_resolution(diag_operator(1.0, 1.0, 2.0)))

    def test_merged_cluster_counts_as_degenerate(self):
        assert not is_generic_by_spectrum(
            spectral_resolution(diag_operator(1.0, 1.0 + 1e-12, 2.0))
        )


class TestCyclicVector:
    def test_two_dimensional(self):
        op = diag_operator(1.0, 2.0)
        x0 = cyclic_vector(spectral_resolution(op), [1.0, 1.0])
        assert np.allclose(np.abs(x0), [1.0, 1.0])
        assert krylov_rank(op.mat, x0) == 2

    def test_three_dimensional(self):
        op = diag_operator(1.0, 2.0, 3.0)
        x0 = cyclic_vector(spectral_resolution(op), [1.0, 1.0, 1.0])
        assert krylov_rank(op.mat, x0) == 3

    def test_degenerate_rejected(self):
        res = spectral_resolution(diag_operator(1.0, 1.0, 2.0))
        with pytest.raises(DegenerateSpectrumError):
            cyclic_vector(res, [1.0, 1.0])

    def test_zero_coefficient_rejected(self):
        res = spectral_resolution(diag_operator(1.0, 2.0))
        with pytest.raises(ZeroCoefficientError):
            cyclic_vector(res, [1.0, 0.0])
        # unchecked, a NaN coefficient gives an all-NaN vector and an infinite one warns
        for mu in ([np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, np.nan)]):
            with pytest.raises(NonFiniteError, match="^coefficients contain non-finite entries$"):
                cyclic_vector(res, mu)

    @pytest.mark.parametrize("mu", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_coefficient_count_rejected(self, mu):
        res = spectral_resolution(diag_operator(1.0, 2.0))
        with pytest.raises(ValueError, match=r"^need one coefficient per cluster \(2\)$"):
            cyclic_vector(res, mu)

    def test_equals_the_per_fiber_sum(self):
        # x0 is one product V mu; it agrees with sum_k mu[k] times fiber k's
        # basis vector, added up in fiber order, within n u max|V| sum|mu|
        rng = np.random.default_rng(60)
        for n in (2, 5, 16, 64):
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, (1,) * n)
            res = spectral_resolution(connecting_operator(h1, h2))
            mu = rng.uniform(0.2, 1.0, size=n) * np.exp(2j * np.pi * rng.random(n))
            summed = np.zeros(n, dtype=complex)
            for coeff, f in zip(mu, res.fibers):
                summed += coeff * f.basis[:, 0]
            bound = n * UNIT_ROUNDOFF * np.max(np.abs(res.eigenvectors)) * np.sum(np.abs(mu))
            assert np.max(np.abs(cyclic_vector(res, mu) - summed)) <= bound

    def test_always_full_rank_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, (1,) * n)
            op = connecting_operator(h1, h2)
            res = spectral_resolution(op)
            mu = rng.uniform(0.2, 1.0, size=n) * np.exp(2j * np.pi * rng.random(n))
            assert krylov_rank(op.mat, cyclic_vector(res, mu)) == n


class TestIsCyclic:
    def test_distinct_spectrum_cyclic(self):
        assert is_cyclic(diag_operator(1.0, 2.0, 3.0))

    def test_scalar_not_cyclic(self):
        assert not is_cyclic(diag_operator(1.0, 1.0))

    def test_agrees_with_spectrum_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            assert is_cyclic(op, seed=int(rng.integers(0, 2**31))) == all(
                m == 1 for m in mults
            )

    def test_exact_breakdown_is_not_cyclic(self):
        # exact repeats in a diagonal G, for every seed
        for values in ([2.0] * 5, [1.0, 1.0, 2.0]):
            op = diag_operator(*values)
            for seed in range(5):
                assert not is_cyclic(op, seed=seed)

    def test_n128_matches_ground_truth(self):
        # a Krylov rank calls most degenerate pairs of this size cyclic
        rng = np.random.default_rng(21)
        for degenerate in (True, False) * 8:
            mults = (1,) * 128
            while degenerate and max(mults) == 1:
                mults = random_multiplicity_pattern(rng, 128)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            assert is_cyclic(op, seed=int(rng.integers(0, 2**31))) is not degenerate

    def test_restarts_keep_ritz_values_on_the_spectrum(self):
        # three eigenvalues of multiplicity 20, 20 and 24 at cond(h1) = 1e4
        rng = np.random.default_rng(64)
        lam = np.repeat(0.5 + np.cumsum(0.05 + rng.random(3)), (20, 20, 24))
        h1, h2 = hermitian_pair_with_spectrum(rng, lam, 1e4)
        assert not is_cyclic(connecting_operator(h1, h2))

    def test_refills_keep_ritz_values_on_the_oracle(self):
        # a 40-fold cluster among 4 simple values at cond(h1) = 1e4: the
        # spectrum that is_cyclic reads keeps the oracle contract's bound
        rng = np.random.default_rng(65)
        h1, h2 = _cluster_pair(rng, 44, 40, 1e4)
        op = connecting_operator(h1, h2)
        kappa = h1.eigenvalues[-1] / h1.eigenvalues[0]
        expected = reference_pencil_eigenvalues(h1.gram, h2.gram)
        assert not is_cyclic(op)
        bound = 8 * UNIT_ROUNDOFF * kappa * np.max(np.abs(expected))
        assert np.max(np.abs(op.spectrum - expected)) <= bound

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 48),
        st.floats(0.0, 6.0),
        st.sampled_from([1e-9, 2e-7]),
        st.floats(0.0, 1.0, exclude_max=True),
        st.booleans(),
    )
    def test_agrees_with_eigenvalue_pair_count(self, seed, n, log_kappa, split, at, degenerate):
        # one eigenvalue, `at` of the way up the spectrum, split off by
        # `split` (relative) at cond(h1) up to 1e6.  The cluster gap is
        # 1e-8 of the largest eigenvalue, so a 2e-7 split of a low
        # eigenvalue of a wide spectrum falls on either side of it.
        rng = np.random.default_rng(seed)
        mults = random_multiplicity_pattern(rng, n - 1) if degenerate else (1,) * (n - 1)
        values = 0.5 + np.cumsum(0.05 + rng.random(len(mults)))
        lam = np.repeat(values, mults)
        j = int(at * (n - 1))
        lam = np.sort(np.append(lam, lam[j] * (1.0 + split)))
        h1, h2 = hermitian_pair_with_spectrum(rng, lam, 10.0**log_kappa)
        op = connecting_operator(h1, h2)
        res = spectral_resolution(op)
        assert is_cyclic(op, seed=seed) == (res.commutant_dimension == res.n_fibers)


def _cluster_pair(rng, n, mult, kappa):
    """A pair of dimension n whose G has one mult-fold eigenvalue, the rest simple."""
    values = 0.5 + np.cumsum(0.05 + rng.random(n - mult + 1))
    lam = np.sort(np.concatenate([values, np.full(mult - 1, values[len(values) // 2])]))
    return hermitian_pair_with_spectrum(rng, lam, kappa)


class TestBlockLanczos:
    """Shapes that the block Lanczos route of earlier versions special-cased.

    Multiplicities above its block size of 32, sizes around it and
    ill-conditioned h1: each case keeps its is_cyclic verdict.  The class
    and test ids are kept for stability.
    """

    @pytest.mark.parametrize("n, mult", [(33, 33), (40, 40), (64, 64), (64, 33), (64, 40), (128, 33), (128, 40)])
    def test_breakdown_refills_and_finds_the_repeat(self, n, mult):
        # a scalar G, exactly (2 I with h1 = I) and up to rounding (a dense
        # h1), or a 33- or 40-fold cluster among simple values
        rng = np.random.default_rng(n + mult)
        h1, h2 = _cluster_pair(rng, n, mult, 1e3)
        op = connecting_operator(h1, h2)
        for seed in range(5):
            assert not is_cyclic(op, seed=seed)
            if mult == n:
                assert not is_cyclic(diag_operator(*[2.0] * n), seed=seed)

    def test_partial_and_tiny_blocks(self):
        # n = 1 and 2, sizes inside one block of 32, one column short of, at
        # and one past it, and n = 100, simple and degenerate
        rng = np.random.default_rng(71)
        for n in (1, 2, 12, 24, 31, 32, 33, 100):
            patterns = [(1,) * n] + ([(2,) + (1,) * (n - 2), random_multiplicity_pattern(rng, n)] if n > 1 else [])
            for mults in patterns:
                h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
                op = connecting_operator(h1, h2)
                assert is_cyclic(op, seed=n) is (max(mults) == 1)

    @pytest.mark.parametrize("kappa", [1e8, 1e10])
    def test_ill_conditioned_h1_returns_a_verdict(self, kappa):
        # a verdict, never a LinAlgError
        rng = np.random.default_rng(int(np.log10(kappa)))
        for n in (2, 12, 33, 64):
            for degenerate in (False, True):
                lam = 0.5 + np.cumsum(0.05 + rng.random(n))
                if degenerate:
                    lam[1] = lam[0]
                h1, h2 = hermitian_pair_with_spectrum(rng, np.sort(lam), kappa)
                op = connecting_operator(h1, h2)
                assert op.ill_conditioned or kappa < 1e10
                for seed in range(3):
                    assert isinstance(is_cyclic(op, seed=seed), bool)


class TestReflectedFrame:
    """is_cyclic on nearly singular h1, where the reflected frame of an
    earlier version needed a fallback.  The class and test ids are kept
    for stability."""

    def test_near_singular_h1_returns_a_verdict(self):
        # cond(h1) = 3e16: a column-by-column refill of the block route
        # divided by a zero norm here and then leaked LinAlgError
        rng = np.random.default_rng(137)
        lam = np.sort(0.5 + np.cumsum(0.05 + rng.random(3)))
        h1, h2 = hermitian_pair_with_spectrum(rng, lam, 3e16)
        assert isinstance(is_cyclic(connecting_operator(h1, h2), seed=2), bool)

    def test_indefinite_reflected_metric_falls_back_to_h1(self):
        # cond(h1) = 1e17, a diagonal pair with a simple spectrum
        op = connecting_operator(
            HermitianForm(np.diag([1.0, 1e-17]).astype(complex)),
            HermitianForm(np.diag([1.0, 2.0]).astype(complex)),
        )
        for seed in range(6):
            assert is_cyclic(op, seed=seed)

    def test_verdict_without_warning_up_to_cond_1e18(self):
        # h1 as ill-conditioned as a Cholesky factor allows: a verdict,
        # never an exception or a warning (warnings are errors here); the
        # block Lanczos route of earlier versions failed 4 of these calls
        rng = np.random.default_rng(73)
        decided = 0
        for _ in range(200):
            n = int(rng.integers(2, 25))
            lam = np.sort(0.5 + np.cumsum(0.05 + rng.random(n)))
            try:
                op = connecting_operator(*hermitian_pair_with_spectrum(rng, lam, float(10 ** rng.uniform(16, 18))))
            except (BihermError, ValueError, np.linalg.LinAlgError):
                continue
            for seed in range(3):
                assert isinstance(is_cyclic(op, seed=seed), bool)
            decided += 1
        assert decided >= 100


class TestCommutantDimensions:
    def test_distinct_two(self):
        assert commutant_dimension(diag_operator(1.0, 2.0)) == 2

    def test_scalar_two(self):
        assert commutant_dimension(diag_operator(2.0, 2.0)) == 4

    def test_mixed_three(self):
        assert commutant_dimension(diag_operator(1.0, 1.0, 2.0)) == 5

    def test_matches_multiplicity_formula(self):
        rng = np.random.default_rng(13)
        for i in range(26):
            n = int(rng.integers(2, 11)) if i < 25 else 128
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            assert commutant_dimension(op) == sum(m * m for m in mults)

    def test_against_brute_force_nullspace(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            scale = float(np.linalg.norm(op.mat, 2))
            assert commutant_dimension(op) == nullspace_dim(
                commutator_map(op.mat), scale=scale
            )

    def test_memory_stays_quadratic(self):
        # the n^2 x n^2 commutator map at n = 64 would take 3 * 16 * 64^4
        # bytes (805 MB); the pair count needs a few n x n arrays
        rng = np.random.default_rng(17)
        mults = (3, 1, 2, 4) * 6 + (1,) * 4
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
        op = connecting_operator(h1, h2)
        tracemalloc.start()
        try:
            dim = commutant_dimension(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dim == sum(m * m for m in mults)
        assert peak < 8 * 2**20

    def test_pairs_counted_once_per_resolution(self, monkeypatch):
        res = spectral_resolution(diag_operator(1.0, 2.0, 2.0))
        calls = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda *a, **kw: calls.append(1) or count_nonzero(*a, **kw))
        assert [res.commutant_dimension for _ in range(3)] == [5, 5, 5]
        assert not is_generic_by_commutant(res.connecting, resolution=res)
        assert len(calls) == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.lists(st.sampled_from([0.0, 0.4, 0.7, 0.95, 1.5]), max_size=3), min_size=1, max_size=10),
    )
    def test_pair_count_against_the_signature(self, seed, runs):
        # each run is one value and up to three followers, each a given
        # fraction of the cluster gap above the last: steps under 1 chain,
        # so a fiber can spread wider than the gap.  A pair within the gap
        # lies in one fiber, so the pair count is at most sum n_j^2, equal
        # exactly when no fiber spreads wider than the gap
        values = np.sort(np.random.default_rng(seed).uniform(1.0, 3.0, len(runs)))
        step = 1e-8 * values[-1]
        lam = np.concatenate([v + step * np.cumsum([0.0, *steps]) for v, steps in zip(values, runs)])
        res = spectral_resolution(diag_operator(*np.sort(lam)))
        w, off = res.spectrum, res.offsets
        spreads = w[off[1:] - 1] - w[off[:-1]]
        squares = sum(m * m for m in res.multiplicities)
        assert res.commutant_dimension <= squares
        assert (res.commutant_dimension == squares) == bool(np.all(spreads <= res.cluster_gap))
        assert (res.commutant_dimension == res.dim) == is_generic_by_spectrum(res)


class TestBicommutantDimension:
    def test_examples(self):
        assert bicommutant_dimension(spectral_resolution(diag_operator(1.0, 2.0, 3.0))) == 3
        assert bicommutant_dimension(
            spectral_resolution(diag_operator(*([2.0] * 5)))
        ) == 1
        assert bicommutant_dimension(spectral_resolution(diag_operator(1.0, 1.0, 2.0))) == 2

    def test_against_brute_force_double_commutant(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            res = spectral_resolution(op)
            assert bicommutant_dimension(res) == brute_bicommutant_dim(op.mat)


class TestGenericByCommutant:
    def test_distinct_true(self):
        assert is_generic_by_commutant(diag_operator(1.0, 2.0, 3.0))

    def test_degenerate_false(self):
        assert not is_generic_by_commutant(diag_operator(1.0, 1.0, 2.0))

    def test_identity_false_beyond_dimension_one(self):
        for n in (2, 3, 5):
            assert not is_generic_by_commutant(diag_operator(*([1.0] * n)))

    def test_equivalence_of_all_three_characterizations(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            res = spectral_resolution(op)
            d1 = is_generic_by_spectrum(res)
            d2 = is_generic_by_commutant(op, resolution=res)
            cyc = is_cyclic(op, seed=int(rng.integers(0, 2**31)))
            assert d1 == d2 == cyc


@functools.cache
def _oracle_pairs() -> list[tuple[HermitianForm, HermitianForm, float, np.ndarray]]:
    """48 pairs at n = 2..12 and cond(h1) up to 1e7, with their condition
    numbers and 50-digit pencil eigenvalues: simple spectra, adjacent
    repeats, and a repeated pair interleaved with simple values."""
    rng = np.random.default_rng(1101)
    pairs = []
    for i in range(48):
        n = int(rng.integers(2, 13))
        lam = 0.5 + np.cumsum(0.05 + rng.random(n))
        if i % 3 == 1:  # adjacent repeats
            lam = np.sort(np.concatenate([lam[: (n + 1) // 2], lam[: n // 2]]))
        elif i % 3 == 2:  # a repeated pair interleaved with simple values
            lam = np.sort(np.concatenate([lam[: n - 2], lam[:2]])) if n >= 4 else np.repeat(lam[:1], n)
        h1, h2 = hermitian_pair_with_spectrum(rng, lam, float(10 ** rng.uniform(0, 7)))
        kappa = h1.eigenvalues[-1] / h1.eigenvalues[0]
        pairs.append((h1, h2, kappa, reference_pencil_eigenvalues(h1.gram, h2.gram)))
    return pairs


class TestOracleContract:
    """The numerical contract, checked against 50-digit pencil eigenvalues.

    Every eigenvalue is within 8 u kappa(h1) max|lam| of the oracle, and
    every cluster decision that the oracle makes with a margin of 10x or
    more comes out the same.
    """

    def test_eigenvalues_within_backward_error_bound(self):
        for h1, h2, kappa, expected in _oracle_pairs():
            op = connecting_operator(h1, h2)
            w = spectral_resolution(op).spectrum
            bound = 8 * UNIT_ROUNDOFF * kappa * np.max(np.abs(expected))
            assert np.max(np.abs(w - expected)) <= bound
            assert op.residuals["min_eigenvalue"] == w[0]

    def test_clusters_match_oracle_away_from_the_threshold(self):
        rng = np.random.default_rng(1102)
        tol = Tolerances()
        checked = []
        for _ in range(40):
            values = 0.5 + np.cumsum(0.05 + rng.random(int(rng.integers(2, 7))))
            # copies split off by 0 (an exact repeat) or by a multiple of the
            # cluster gap, on both sides of it, down to 20x from it
            shift = tol.tol_eig * values.max() * rng.choice([0.0, 1e-3, 0.05, 20.0, 1e3], len(values))
            keep = rng.random(len(values)) < 0.6
            lam = np.sort(np.concatenate([values, (values + shift)[keep]]))
            h1, h2 = hermitian_pair_with_spectrum(rng, lam, float(10 ** rng.uniform(0, 5)))
            expected = reference_pencil_eigenvalues(h1.gram, h2.gram)
            mults, margin = reference_cluster_structure(expected, tol.tol_eig * np.max(np.abs(expected)))
            if margin < 10.0:
                continue
            op = connecting_operator(h1, h2, tol)
            res = spectral_resolution(op)
            assert res.multiplicities == mults
            generic = max(mults) == 1
            assert is_generic_by_spectrum(res) is generic
            assert is_generic_by_commutant(op, resolution=res) is generic
            for seed in range(3):
                assert is_cyclic(op, seed=seed) is generic
            checked.append(generic)
        assert len(checked) >= 30 and set(checked) == {True, False}
