"""Tests for the fibered decomposition and bi-unitary construction."""

import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from biherm import (
    DecomposableOperator,
    DimensionMismatchError,
    HermitianForm,
    InternalInconsistencyError,
    NonFiniteError,
    SpectralResolution,
    NotGenericError,
    NotInCommutantError,
    Tolerances,
    build_decomposition,
    check_bicommutant_scalar,
    check_genericity_consistency,
    check_proportionality,
    connecting_operator,
    is_cyclic,
    is_generic_by_commutant,
    is_generic_by_spectrum,
    phase_biunitary,
    project_to_commutant_blocks,
    sample_biunitary,
    spectral_resolution,
    verify_biunitary,
)
from biherm import spectral
from conftest import (
    PER_FIBER_PATTERNS,
    hermitian_pair_with_multiplicities,
    random_hpd,
    random_multiplicity_pattern,
    random_unitary,
    reference_check_proportionality,
    reference_proportionality_violations,
    reference_sample_biunitary,
)

UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Fiber-dimension patterns at n <= 12 for the 50-digit oracle: those of
# PER_FIBER_PATTERNS that fit, plus all simple, and segments of several
# fibers of dimension 2 and 3 interleaved with simple ones.
SMALL_PATTERNS = [m for m in PER_FIBER_PATTERNS if sum(m) <= 12] + [
    (1,) * 12,
    (2, 1, 1, 3, 3, 1, 1),
    (1, 2) * 4,
]


def diag_pair(*values):
    n = len(values)
    h1 = HermitianForm(np.eye(n, dtype=complex))
    h2 = HermitianForm(np.diag(np.asarray(values, dtype=float)).astype(complex))
    return h1, h2, connecting_operator(h1, h2)


class TestBuildDecomposition:
    def test_distinct_spectrum(self):
        _, _, op = diag_pair(1.0, 2.0, 3.0)
        dec = build_decomposition(op)
        assert dec.n_fibers == 3
        assert all(f.dim == 1 for f in dec.fibers)
        assert dec.segments == {1: (0, 1, 2)}

    def test_mixed_spectrum(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        dec = build_decomposition(op)
        assert [(f.eigenvalue, f.dim) for f in dec.fibers] == [(1.0, 2), (2.0, 1)]
        assert dec.segments == {2: (0,), 1: (1,)}

    def test_scalar_operator_single_fiber(self):
        _, _, op = diag_pair(3.0, 3.0, 3.0, 3.0)
        dec = build_decomposition(op)
        assert dec.n_fibers == 1
        assert dec.fibers[0].dim == 4
        assert dec.fibers[0].weight == pytest.approx(1.0)

    def test_weights_normalized(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            h1, h2, _ = hermitian_pair_with_multiplicities(
                rng, random_multiplicity_pattern(rng, n)
            )
            dec = build_decomposition(connecting_operator(h1, h2))
            assert sum(f.weight for f in dec.fibers) == pytest.approx(1.0, abs=1e-12)
            assert sum(f.dim for f in dec.fibers) == n

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda dec, h: check_proportionality(dec, h, dec.h2), DimensionMismatchError,
             "^form and decomposition dimensions differ$"),
            (lambda dec, h: project_to_commutant_blocks(h.gram, dec), DimensionMismatchError,
             "^operator and decomposition dimensions differ$"),
            (lambda dec, h: check_bicommutant_scalar(h.gram, dec), DimensionMismatchError,
             "^operator and decomposition dimensions differ$"),
            (lambda dec, h: phase_biunitary(dec, [0.0]), ValueError, r"^need one phase per fiber \(2\)$"),
            # unchecked, a NaN phase gives an all-NaN matrix and an infinite one warns
            (lambda dec, h: phase_biunitary(dec, [np.nan, 0.0]), NonFiniteError, "^phases contain non-finite entries$"),
            (lambda dec, h: phase_biunitary(dec, [np.inf, 0.0]), NonFiniteError, "^phases contain non-finite entries$"),
            (lambda dec, h: DecomposableOperator((np.eye(2), np.ones((1, 2)))), ValueError, "^blocks must be square$"),
        ],
        ids=["proportionality-form", "commutant-operator", "bicommutant-operator", "phase-count", "phase-nan",
             "phase-inf", "non-square-block"],
    )
    def test_malformed_input_rejected(self, call, error, message):
        _, _, op = diag_pair(1.0, 2.0)
        with pytest.raises(error, match=message):
            call(build_decomposition(op), HermitianForm(np.eye(3, dtype=complex)))

    @pytest.mark.parametrize("check", [project_to_commutant_blocks, check_bicommutant_scalar])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "nan-imag"])
    def test_non_finite_operator_rejected(self, check, entry):
        # a comparison with NaN is False, so without the check a NaN
        # operator would pass the commutator test; an inf one would warn
        _, _, op = diag_pair(1.0, 1.0, 2.0, 3.0)
        dec = build_decomposition(op)
        for a in (np.full((4, 4), entry), np.where(np.eye(4, k=1) == 1, entry, np.eye(4))):
            with pytest.raises(NonFiniteError, match="^operator contains non-finite entries$"):
                check(a, dec)


class TestProportionality:
    def test_diagonal_case(self):
        h1, h2, op = diag_pair(1.0, 2.0)
        rep = check_proportionality(build_decomposition(op), h1, h2)
        assert rep.passed
        assert rep.worst == pytest.approx(0.0, abs=1e-14)

    def test_equal_forms_single_fiber(self):
        h1 = HermitianForm(np.eye(3, dtype=complex))
        op = connecting_operator(h1, h1)
        rep = check_proportionality(build_decomposition(op), h1, h1)
        assert rep.passed
        assert len(rep.max_violation) == 1

    def test_random_pairs(self):
        rng = np.random.default_rng(52)
        for _ in range(15):
            n = 16
            h1, h2, _ = hermitian_pair_with_multiplicities(
                rng, random_multiplicity_pattern(rng, n)
            )
            op = connecting_operator(h1, h2)
            rep = check_proportionality(build_decomposition(op), h1, h2)
            assert rep.worst <= 10 * 1e-10

    def test_violations_match_mpmath_oracle(self):
        # the pair's own h2, where violations are rounding, and an
        # unrelated h2, where they are of order one; a wrong column, block
        # or eigenvalue would be off by the latter
        rng = np.random.default_rng(60)
        for mults in SMALL_PATTERNS:
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            dec = build_decomposition(connecting_operator(h1, h2))
            assert dec.multiplicities == mults
            other = HermitianForm(random_hpd(rng, dec.dim))
            for form in (h2, other):
                got = np.array(check_proportionality(dec, h1, form).max_violation)
                expected = np.array(reference_proportionality_violations(dec, h1, form))
                assert np.all(np.abs(got - expected) <= _gram_rounding_bound(dec, h1, form))

    def test_violations_match_per_fiber_loop(self):
        # both sides round, each within the bound, at n up to 128
        rng = np.random.default_rng(63)
        for mults in PER_FIBER_PATTERNS:
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            dec = build_decomposition(connecting_operator(h1, h2))
            other = HermitianForm(random_hpd(rng, dec.dim))
            for form in (h2, other):
                got = np.array(check_proportionality(dec, h1, form).max_violation)
                expected = np.array(reference_check_proportionality(dec, h1, form))
                assert np.all(np.abs(got - expected) <= 2 * _gram_rounding_bound(dec, h1, form))


def _gram_rounding_bound(dec, h1, form) -> np.ndarray:
    """Per fiber, n u ||X_j||^2 (||form|| + |lambda_j| ||h1||) / ||form||_F.

    The dot-product error bound of X_j^H form X_j - lambda_j X_j^H h1 X_j
    in any summation order, with ||X_j|| the largest column norm of the
    fiber basis, over the scale of the reported violation.
    """
    col2 = np.sum(np.abs(dec.eigenvectors) ** 2, axis=0)
    norm_form, norm_h1 = np.linalg.norm(form.gram, 2), np.linalg.norm(h1.gram, 2)
    return np.array(
        [
            dec.dim * UNIT_ROUNDOFF * np.max(col2[s]) * (norm_form + abs(f.eigenvalue) * norm_h1)
            for f, s in zip(dec.fibers, dec.fiber_slices())
        ]
    ) / np.linalg.norm(form.gram)


class TestCommutantBlocks:
    def test_connecting_operator_itself(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        dec = build_decomposition(op)
        blocks = project_to_commutant_blocks(op.mat, dec)
        assert blocks.block_dims == (2, 1)
        assert np.allclose(blocks.blocks[0], np.eye(2), atol=1e-10)
        assert np.allclose(blocks.blocks[1], [[2.0]], atol=1e-10)

    def test_block_structure_recovered(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        dec = build_decomposition(op)
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]], dtype=complex)
        blocks = project_to_commutant_blocks(a, dec)
        assert np.allclose(blocks.blocks[0], np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.allclose(blocks.blocks[1], [[5.0]], atol=1e-10)

    def test_non_commuting_rejected(self):
        _, _, op = diag_pair(1.0, 2.0)
        dec = build_decomposition(op)
        with pytest.raises(NotInCommutantError) as excinfo:
            project_to_commutant_blocks(np.array([[0.0, 1.0], [1.0, 0.0]]), dec)
        assert excinfo.value.residual > 0.1

    def test_cross_fiber_blocks_rejected(self):
        # two fibers 2e-8 apart, just past the cluster gap: a 1e-3 coupling
        # between them leaves the commutator at 1.4e-11, under tol_resid,
        # but the cross-fiber blocks do not vanish
        _, _, op = diag_pair(1.0, 1.0 + 2e-8)
        dec = build_decomposition(op)
        assert dec.multiplicities == (1, 1)
        with pytest.raises(NotInCommutantError, match="^cross-fiber blocks do not vanish") as excinfo:
            project_to_commutant_blocks(np.array([[1.0, 1e-3], [1e-3, 1.0]]), dec)
        assert excinfo.value.residual == pytest.approx(1e-3, rel=1e-6)

    def test_round_trip_through_fiber_coordinates(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            dec = build_decomposition(op)
            # assemble a commuting operator from random fiber blocks
            a_tilde = np.zeros((n, n), dtype=complex)
            for s in dec.fiber_slices():
                k = s.stop - s.start
                a_tilde[s, s] = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            a = dec.from_fiber_coordinates(a_tilde)
            blocks = project_to_commutant_blocks(a, dec)
            for blk, s in zip(blocks.blocks, dec.fiber_slices()):
                assert np.allclose(blk, a_tilde[s, s], atol=1e-9)


class TestBicommutantScalar:
    def test_polynomial_of_g_passes(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        dec = build_decomposition(op)
        b = op.mat @ op.mat + 3.0 * np.eye(3)  # p(G) with p(t) = t^2 + 3
        rep = check_bicommutant_scalar(b, dec)
        assert rep.passed
        assert rep.scalars[0] == pytest.approx(4.0)
        assert rep.scalars[1] == pytest.approx(7.0)

    def test_identity_passes_with_unit_scalars(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        rep = check_bicommutant_scalar(np.eye(3), build_decomposition(op))
        assert rep.passed
        assert all(abs(b - 1.0) < 1e-12 for b in rep.scalars)

    def test_commuting_but_not_scalar_fails(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        rep = check_bicommutant_scalar(np.diag([1.0, 2.0, 3.0]), build_decomposition(op))
        assert rep.in_commutant
        assert not rep.passed
        assert rep.scalar_residual[0] > 1e-3

    def test_non_commuting_fails(self):
        _, _, op = diag_pair(1.0, 2.0)
        rep = check_bicommutant_scalar(np.array([[0.0, 1.0], [1.0, 0.0]]), build_decomposition(op))
        assert not rep.in_commutant
        assert not rep.passed

    def test_brute_force_double_commutant_elements_pass(self):
        rng = np.random.default_rng(54)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            dec = build_decomposition(op)
            # every projector combination lies in the double commutant
            b = np.zeros((n, n), dtype=complex)
            for f, c in zip(dec.fibers, rng.standard_normal(dec.n_fibers)):
                b += c * (f.basis @ f.basis.conj().T @ h1.gram)
            assert check_bicommutant_scalar(b, dec).passed


class TestGenericityConsistency:
    def test_distinct(self):
        _, _, op = diag_pair(1.0, 2.0, 3.0)
        assert check_genericity_consistency(build_decomposition(op), op) is True

    def test_degenerate(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        assert check_genericity_consistency(build_decomposition(op), op) is False

    def test_offsets_splitting_a_cluster_raise(self):
        # the offsets cut the 2-fold eigenvalue 2 into two singletons, so
        # the fibers say generic and the commutant count says not
        _, _, op = diag_pair(1.0, 2.0, 2.0)
        res = spectral_resolution(op)
        split = SpectralResolution(op, res.cluster_gap, np.array([0, 1, 2, 3]))
        with pytest.raises(InternalInconsistencyError, match="unidimensional=True"):
            check_genericity_consistency(split, op)

    def test_no_inconsistency_on_random_corpus(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            h1, h2, _ = hermitian_pair_with_multiplicities(
                rng, random_multiplicity_pattern(rng, n)
            )
            op = connecting_operator(h1, h2)
            dec = build_decomposition(op)
            check_genericity_consistency(dec, op)  # must never raise

    def test_split_pair_with_ill_conditioned_h1(self):
        # kappa(h1) = 1e4 stays below the ill-conditioned flag, and one
        # eigenvalue pair split by 2e-7 relative is well above tol_eig in
        # the h1 frame, so the pair is generic; a threshold taken in the
        # Euclidean frame instead sees one 2-dimensional eigenspace
        rng = np.random.default_rng(31)
        n = 12
        for _ in range(5):
            values = 0.5 + np.cumsum(0.05 + rng.random(n - 1))
            j = int(rng.integers(0, n - 1))
            lam = np.insert(values, j + 1, values[j] * (1.0 + 2e-7))
            q = random_unitary(rng, n)
            h1 = (q * np.geomspace(1.0, 1e4, n)) @ q.conj().T
            h1 = 0.5 * (h1 + h1.conj().T)
            lu = np.linalg.cholesky(h1) @ random_unitary(rng, n)
            h2 = (lu * lam) @ lu.conj().T
            h2 = 0.5 * (h2 + h2.conj().T)
            op = connecting_operator(HermitianForm(h1), HermitianForm(h2))
            res = spectral_resolution(op)
            assert check_genericity_consistency(build_decomposition(op, resolution=res), op)
            assert is_generic_by_commutant(op, resolution=res) == is_generic_by_spectrum(res)


    def test_one_pencil_eigensolve_per_pair(self, monkeypatch):
        # every numpy eigensolver, the Cholesky factor and the two dense
        # solvers, counted by name; inv also records its argument's shape
        calls, inv_shapes = [], []
        for name in ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "solve", "inv"):

            def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                if _name == "inv":
                    inv_shapes.append(np.shape(args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(21)
        for mults in ((1, 1, 1, 1), (1, 2, 1, 3), (1, 3) * 8, (1, 3) * 20):
            f1, f2, _ = hermitian_pair_with_multiplicities(rng, mults)
            calls.clear()
            h1, h2 = HermitianForm(f1.gram), HermitianForm(f2.gram)
            # positivity is one Cholesky per form; no eigensolver runs
            assert calls == ["cholesky", "cholesky"]
            calls.clear()
            inv_shapes.clear()
            op = connecting_operator(h1, h2)
            # the eigh is the pencil; G, the pencil and the kappa(h1)
            # certificate share h1's factor, inverted in blocks of <= 32,
            # so h1's eigenvalues are never computed and no LU solve runs
            assert [c for c in calls if c != "inv"] == ["eigh"]
            assert inv_shapes and all(max(s) <= 32 for s in inv_shapes)
            calls.clear()
            res = spectral_resolution(op)
            generic = is_generic_by_commutant(op, resolution=res)
            dec = build_decomposition(op, resolution=res)
            assert check_genericity_consistency(dec, op) == generic
            assert calls == []
            assert generic == (mults == (1, 1, 1, 1))

    def test_pair_chain_builds_no_fiber(self, monkeypatch):
        # the chain of one benchmark pair op reads multiplicities and
        # offsets only, so it never materializes the fibers
        built = []

        def counted(*args, _original=spectral.Fiber, **kwargs):
            built.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, "Fiber", counted)
        rng = np.random.default_rng(22)
        for mults in ((1, 1, 1, 1), (1, 2, 1, 3), (1, 3) * 8):
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            res = spectral_resolution(op)
            generic = is_generic_by_spectrum(res)
            assert is_generic_by_commutant(op, resolution=res) == generic
            assert is_cyclic(op, seed=1) == generic
            dec = build_decomposition(op, resolution=res)
            assert check_proportionality(dec, h1, h2).passed
            assert check_genericity_consistency(dec, op) == generic
            u = sample_biunitary(dec, 1)
            assert verify_biunitary(u, h1, h2, connecting=op).passed
        assert built == []
        fibers = res.fibers  # which the counter does see
        assert len(built) == len(fibers) == res.n_fibers


class TestSampleBiunitary:
    def test_deterministic_under_seed(self):
        h1, h2, op = diag_pair(1.0, 1.0, 2.0)
        dec = build_decomposition(op)
        u1 = sample_biunitary(dec, seed=42)
        u2 = sample_biunitary(dec, seed=42)
        assert np.array_equal(u1, u2)
        u3 = sample_biunitary(dec, seed=43)
        assert not np.allclose(u1, u3)

    def test_block_structure_in_fiber_coordinates(self):
        h1, h2, op = diag_pair(1.0, 1.0, 2.0)
        dec = build_decomposition(op)
        u = sample_biunitary(dec, seed=1)
        u_tilde = dec.to_fiber_coordinates(u)
        assert np.allclose(u_tilde[2, :2], 0.0, atol=1e-12)
        assert np.allclose(u_tilde[:2, 2], 0.0, atol=1e-12)
        blk = u_tilde[:2, :2]
        assert np.allclose(blk @ blk.conj().T, np.eye(2), atol=1e-12)

    def test_samples_verify_and_close_under_group_operations(self):
        rng = np.random.default_rng(56)
        for _ in range(8):
            n = int(rng.integers(2, 11))
            mults = random_multiplicity_pattern(rng, n)
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            dec = build_decomposition(op)
            u = sample_biunitary(dec, seed=int(rng.integers(0, 2**31)))
            v = sample_biunitary(dec, seed=int(rng.integers(0, 2**31)))
            for cand in (u, v, u @ v, np.linalg.inv(u)):
                assert verify_biunitary(cand, h1, h2, connecting=op).passed

    def test_draws_match_per_fiber_loop(self):
        # both products round within n u ||V||^2 ||h1|| of the fiber-by-fiber
        # assembly; another stream or block order would be off by O(1)
        rng = np.random.default_rng(58)
        for mults in PER_FIBER_PATTERNS:
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            op = connecting_operator(h1, h2)
            dec = build_decomposition(op)
            assert dec.multiplicities == mults
            n = dec.dim
            bound = 2 * n * UNIT_ROUNDOFF * np.linalg.norm(dec.eigenvectors, 2) ** 2 * np.linalg.norm(h1.gram, 2)
            for seed in (0, int(rng.integers(0, 2**31))):
                got = sample_biunitary(dec, seed=seed)
                assert np.max(np.abs(got - reference_sample_biunitary(dec, seed))) <= bound
                rep = verify_biunitary(got, h1, h2, connecting=op)
                assert max(rep.residual_h1, rep.residual_h2) <= Tolerances().tol_resid

    def test_one_qr_per_dimension_and_none_when_simple(self, monkeypatch):
        rng = np.random.default_rng(59)
        calls = []
        qr = np.linalg.qr

        def recorded(a, *args, **kwargs):
            calls.append((a, *qr(a, *args, **kwargs)))
            return calls[-1][1:]

        monkeypatch.setattr(np.linalg, "qr", recorded)
        for mults, expected in (
            ((1, 2) * 20 + (3, 1) * 10, [(20, 2, 2), (10, 3, 3)]),
            ((1, 2, 3, 4, 2), [(2, 2, 2), (1, 3, 3), (1, 4, 4)]),
            ((1,) * 12, []),
            ((64,) + (1,) * 20, [(1, 64, 64)]),
        ):
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            dec = build_decomposition(connecting_operator(h1, h2))
            calls.clear()
            sample_biunitary(dec, seed=4)
            assert [a.shape for a, _, _ in calls] == expected
            # each stacked block is the stream's chunk for its fiber, and
            # its factors are that block's own QR, bit for bit
            stream = _ginibre_stream(mults, seed=4)
            for (_, ids, _), (a, q, r) in zip([g for g in dec.by_dimension if g[0] > 1], calls):
                for block, q_i, r_i, fiber in zip(a, q, r, ids):
                    assert np.array_equal(block, stream[fiber])
                    q_1, r_1 = qr(block)
                    assert np.array_equal(q_i, q_1) and np.array_equal(r_i, r_1)

    def test_lines_run_do_not_depend_on_the_fibers(self):
        # a loop over fibers, comprehensions included, runs its lines once
        # per fiber; here every line of biherm runs as often for 40 fibers
        # as for 12, and for 18 fibers of dimensions {1, 2, 3, 4} as for 5.
        # Going from dimensions {1} to {1, 2, 3, 4}, a line runs as often or
        # three times more: once per added dimension
        rng = np.random.default_rng(62)
        runs = []
        for mults in ((1,) * 12, (1,) * 40, (1, 2, 3, 4, 2), (4, 1, 3, 1, 2, 2) * 3):
            h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
            dec = build_decomposition(connecting_operator(h1, h2))
            dec.eigenvalues  # computed on first use, one fiber dimension at a time
            runs.append((_lines_run(check_proportionality, dec, h1, h2), _lines_run(sample_biunitary, dec, 5)))
        (prop_12, draw_12), (prop_40, draw_40), (prop_a, draw_a), (prop_b, draw_b) = runs
        assert prop_12 == prop_40 and prop_a == prop_b
        assert draw_12 == draw_40 and draw_a == draw_b
        for one, four in ((prop_12, prop_a), (draw_12, draw_a)):
            added = {line: four[line] - one[line] for line in one | four}
            assert set(added.values()) == {0, 3}

    def test_memory_stays_quadratic(self):
        # one fiber of 64 among 192 simple ones at n = 256: padding every
        # fiber to 64 x 64 would take 256 * 64^2 complex entries per stack
        # (16.8 MB); the draw needs a few n x n arrays beside its blocks
        rng = np.random.default_rng(63)
        mults = (64,) + (1,) * 192
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, mults)
        dec = build_decomposition(connecting_operator(h1, h2))
        assert dec.multiplicities == mults
        tracemalloc.start()
        try:
            u = sample_biunitary(dec, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * dec.dim**2
        assert verify_biunitary(u, h1, h2, connecting=dec.connecting).passed

    def test_generic_case_is_diagonal_phases(self):
        rng = np.random.default_rng(57)
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, (1, 1, 1, 1))
        op = connecting_operator(h1, h2)
        dec = build_decomposition(op)
        u_tilde = dec.to_fiber_coordinates(sample_biunitary(dec, seed=11))
        off = u_tilde - np.diag(np.diagonal(u_tilde))
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(np.abs(np.diagonal(u_tilde)) - 1.0)) <= 1e-10


def _ginibre_stream(mults, seed: int) -> list[np.ndarray]:
    """Each fiber's complex Ginibre block, drawn one fiber at a time as in
    ``conftest.reference_sample_biunitary``."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0) for k in mults]


def _lines_run(fn, *args) -> Counter:
    """How often each line of biherm ran during ``fn(*args)``, by file and line."""
    package = Path(spectral.__file__).parent
    lines: Counter = Counter()

    def trace(frame, event, arg):
        path = Path(frame.f_code.co_filename)
        if path.parent != package:
            return None
        if event == "line":
            lines[path.name, frame.f_lineno] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestPhaseBiunitary:
    def test_zero_phases_give_identity(self):
        _, _, op = diag_pair(1.0, 2.0)
        dec = build_decomposition(op)
        assert np.allclose(phase_biunitary(dec, [0.0, 0.0]), np.eye(2), atol=1e-12)

    def test_pi_phase_flips_first_fiber(self):
        _, _, op = diag_pair(1.0, 2.0)
        dec = build_decomposition(op)
        u = phase_biunitary(dec, [np.pi, 0.0])
        assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_degenerate_rejected(self):
        _, _, op = diag_pair(1.0, 1.0, 2.0)
        with pytest.raises(NotGenericError):
            phase_biunitary(build_decomposition(op), [0.0, 0.0])

    def test_phases_compose_additively(self):
        rng = np.random.default_rng(58)
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, (1, 1, 1))
        op = connecting_operator(h1, h2)
        dec = build_decomposition(op)
        phi1 = rng.uniform(0, 2 * np.pi, size=3)
        phi2 = rng.uniform(0, 2 * np.pi, size=3)
        u12 = phase_biunitary(dec, phi1) @ phase_biunitary(dec, phi2)
        u_sum = phase_biunitary(dec, np.mod(phi1 + phi2, 2 * np.pi))
        assert np.allclose(u12, u_sum, atol=1e-10)

    def test_phase_transformations_verify(self):
        rng = np.random.default_rng(59)
        h1, h2, _ = hermitian_pair_with_multiplicities(rng, (1, 1, 1, 1, 1))
        op = connecting_operator(h1, h2)
        dec = build_decomposition(op)
        u = phase_biunitary(dec, rng.uniform(0, 2 * np.pi, size=5))
        assert verify_biunitary(u, h1, h2, connecting=op).passed
