"""Tests for the connecting operator and bi-unitarity verification."""

import dataclasses

import numpy as np
import pytest

from biherm import (
    ConnectingOperator,
    DimensionMismatchError,
    HermitianForm,
    InternalInconsistencyError,
    NonFiniteError,
    SingularMetricError,
    Tolerances,
    connecting_operator,
    invariants_hold,
    verify_biunitary,
)
from conftest import NEAR_SINGULAR_H1, hermitian_pair_with_spectrum, random_hpd, random_unitary


def form(mat):
    return HermitianForm(np.asarray(mat, dtype=complex))


class TestConnectingOperator:
    def test_equal_forms_give_identity(self):
        op = connecting_operator(form(np.eye(2)), form(np.eye(2)))
        assert np.allclose(op.mat, np.eye(2))

    def test_diagonal_solve(self):
        op = connecting_operator(form(np.eye(2)), form(np.diag([1.0, 2.0])))
        assert np.allclose(op.mat, np.diag([1.0, 2.0]))

    def test_non_identity_first_form(self):
        op = connecting_operator(form(np.diag([2.0, 1.0])), form(np.diag([2.0, 3.0])))
        assert np.allclose(op.mat, np.diag([1.0, 3.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            connecting_operator(form(np.eye(2)), form(np.eye(3)))

    def test_ill_conditioned_flagged_but_returned(self):
        h1 = form(np.diag([1.0, 1e-9]))
        op = connecting_operator(h1, form(np.eye(2)))
        assert op.ill_conditioned
        assert np.allclose(op.mat, np.diag([1.0, 1e9]))

    def test_numerically_singular_h1_is_a_singular_metric_error(self):
        h1 = form(NEAR_SINGULAR_H1)
        assert h1.factor is None
        assert h1.eigenvalues[0] > 0.0
        with pytest.raises(SingularMetricError, match="^h1 is numerically singular"):
            connecting_operator(h1, form(np.eye(2)))

    def test_spectrum_solves_the_pencil(self):
        rng = np.random.default_rng(19)
        for n, kappa in [(2, 1.0), (12, 4.0), (64, 1e4)]:
            lam = np.sort(np.repeat(0.5 + np.cumsum(0.05 + rng.random(n // 2)), 2))
            h1, h2 = hermitian_pair_with_spectrum(rng, lam, kappa)
            op = connecting_operator(h1, h2)
            w, v = op.spectrum, op.eigenvectors
            assert v.flags.f_contiguous
            for a in (w, v):
                with pytest.raises(ValueError):
                    a[0] = 0.0
            assert np.all(np.diff(w) >= 0.0)
            assert np.allclose(w, lam, rtol=1e-10)
            assert np.linalg.norm(v.conj().T @ h1.gram @ v - np.eye(n)) <= 1e-9
            assert np.linalg.norm(h2.gram @ v - h1.gram @ v * w) <= 1e-9 * np.linalg.norm(h2.gram)
            assert op.residuals["min_eigenvalue"] == w[0]

    def test_built_from_the_two_forms_and_the_flag(self):
        init = [f.name for f in dataclasses.fields(ConnectingOperator) if f.init]
        assert init == ["h1", "h2", "ill_conditioned"]

    def test_invariant_gate_raises_on_failing_residuals(self):
        # no residual of a dense pair reaches 1e-30, so the gate must fire
        h1, h2 = hermitian_pair_with_spectrum(np.random.default_rng(41), [0.5, 1.0, 1.5, 2.0], 10.0)
        with pytest.raises(InternalInconsistencyError, match="failed invariant verification"):
            connecting_operator(h1, h2, Tolerances(tol_resid=1e-30))

    def test_ill_conditioned_flag_bypasses_the_gate(self):
        # kappa(h1) = 10, so tol_eig = 0.5 flags h1 as ill-conditioned, and
        # the flagged operator is returned although its residuals fail
        h1, h2 = hermitian_pair_with_spectrum(np.random.default_rng(41), [0.5, 1.0, 1.5, 2.0], 10.0)
        op = connecting_operator(h1, h2, Tolerances(tol_eig=0.5, tol_resid=1e-30))
        assert op.ill_conditioned
        assert op.residuals["defining"] > 1e-30

    def test_valid_pair_below_the_ill_conditioned_flag_passes_the_gate(self):
        # Draw 451 of 460 from default_rng(11), each n = integers(2, 65),
        # kappa = exp(uniform(log 5e7, log 1e8)), lam = uniform(0.5, 2, n),
        # through hermitian_pair_with_spectrum: n = 2, kappa(h1) = 7.42e7.
        # G solved by LU from h1 @ G = h2 had a selfadjoint_h2 residual of
        # 3.0e-10 against tol_resid = 1e-10, and the gate called this valid
        # pair an internal inconsistency; G from h1's Cholesky factor passes.
        h1 = form([
            [15427772.643257782 + 0j, -13806673.916138375 - 26746912.25518298j],
            [-13806673.916138375 + 26746912.25518298j, 58726664.88661395 + 0j],
        ])
        h2 = form([
            [13605848.36436537 + 0j, -12174142.432212282 - 23592141.186097145j],
            [-12174142.432212282 + 23592141.186097145j, 51801176.13979595 + 0j],
        ])
        assert h1.eigenvalues[-1] / h1.eigenvalues[0] < 1.0 / Tolerances().tol_eig
        assert not connecting_operator(h1, h2).ill_conditioned

    @pytest.mark.parametrize("count, kappa_min", [(460, 5e7), (1500, 1.0)])
    def test_no_valid_pair_below_the_flag_trips_the_gate(self, count, kappa_min):
        # the replay that found the pair above: every draw, kappa(h1)
        # log-uniform up to the ill-conditioned flag at 1e8
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(count):
            n = int(rng.integers(2, 65))
            kappa = float(np.exp(rng.uniform(np.log(kappa_min), np.log(1e8))))
            h1, h2 = hermitian_pair_with_spectrum(rng, rng.uniform(0.5, 2.0, n), kappa)
            r = connecting_operator(h1, h2).residuals
            worst = max(worst, r["defining"], r["selfadjoint_h1"], r["selfadjoint_h2"])
        assert worst <= 1e-11

    def test_invariants_on_random_pairs(self):
        rng = np.random.default_rng(17)
        tol = Tolerances()
        for _ in range(40):
            n = int(rng.integers(2, 65))
            h1 = form(random_hpd(rng, n))
            h2 = form(random_hpd(rng, n))
            op = connecting_operator(h1, h2)
            assert not op.ill_conditioned
            r = op.invariant_residuals()
            assert r["defining"] <= 10 * tol.tol_resid
            assert r["selfadjoint_h1"] <= 10 * tol.tol_resid
            assert r["selfadjoint_h2"] <= 10 * tol.tol_resid
            assert r["min_eigenvalue"] > 0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n = int(rng.integers(2, 17))
            h1 = form(random_hpd(rng, n))
            h2_mat = random_hpd(rng, n)
            c = float(rng.uniform(0.1, 10.0))
            g1 = connecting_operator(h1, form(h2_mat)).mat
            g2 = connecting_operator(h1, form(c * h2_mat)).mat
            assert np.allclose(g2, c * g1, atol=1e-10 * c * np.linalg.norm(g1))

    def test_involution(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 17))
            h1 = form(random_hpd(rng, n))
            h2 = form(random_hpd(rng, n))
            g = connecting_operator(h1, h2).mat
            g_swap = connecting_operator(h2, h1).mat
            assert np.allclose(g_swap, np.linalg.inv(g), atol=1e-10 * np.linalg.norm(g))


class TestConditionCertificate:
    # log-spaced across every limit 1/tol_eig below, plus a dense run
    # around the default limit 1e8
    KAPPAS = np.concatenate([np.logspace(0.0, 12.0, 13), 1e8 * (1.0 + np.linspace(-1e-3, 1e-3, 9))])

    @pytest.mark.parametrize("n", [2, 12, 64, 128])
    def test_flag_is_the_eigenvalue_ratio(self, n):
        # both forms scaled by 10^±6, so h1's smallest eigenvalue is not 1
        rng = np.random.default_rng(50 + n)
        for kappa in self.KAPPAS:
            f1, f2 = hermitian_pair_with_spectrum(rng, 0.5 + np.cumsum(0.05 + rng.random(n)), kappa)
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            h1, h2 = form(scale * f1.gram), form(scale * f2.gram)
            w = np.linalg.eigvalsh(h1.gram)
            for tol_eig in (1e-8, 1e-4, 0.5):
                op = connecting_operator(h1, h2, Tolerances(tol_eig=tol_eig))
                assert op.ill_conditioned == (w[-1] / w[0] > 1.0 / tol_eig), (n, kappa, tol_eig)

    def test_bench_like_pairs_never_read_h1_eigenvalues(self, monkeypatch):
        # the benchmark's pairs: kappa(h1) <= 1e4, spectra simple or with
        # repeated clusters; the bound decides each one without eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rng = np.random.default_rng(53)
        for n in (8, 24, 128):
            for kappa in (1.0, 4.0, 1e2, 1e4, float(np.exp(rng.uniform(0.0, np.log(1e4))))):
                for repeats in (1, 2):
                    values = 0.5 + np.cumsum(0.05 + rng.random(n // repeats))
                    h1, h2 = hermitian_pair_with_spectrum(rng, np.repeat(values, repeats), kappa)
                    op = connecting_operator(h1, h2)
                    assert not op.ill_conditioned
                    assert "eigenvalues" not in vars(h1)

    def test_bound_too_large_for_an_accurate_ratio_reads_the_eigenvalues(self):
        # kappa(h1) = 1e12 at n = 64: the bound is far under half of
        # 1/tol_eig = 1e15, but n·u times it is above 1e-3
        h1, h2 = hermitian_pair_with_spectrum(np.random.default_rng(54), 0.5 + 0.1 * np.arange(64), 1e12)
        op = connecting_operator(h1, h2, Tolerances(tol_eig=1e-15, tol_resid=0.5))
        assert "eigenvalues" in vars(h1)
        assert not op.ill_conditioned

    def test_rank_deficient_h2_is_an_input_error(self):
        # B Bᴴ with rank r < n: rounding leaves some of them positive-definite
        # to Cholesky, and G's smallest eigenvalue then falls on either side
        # of zero; at or below it, h2 is named singular, never an internal
        # inconsistency
        rng = np.random.default_rng(5)
        outcomes = {"rejected": 0, "singular": 0, "analysed": 0}
        for _ in range(300):
            n = int(rng.integers(2, 17))
            r = int(rng.integers(1, n))
            b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            h1 = form(random_hpd(rng, n))
            try:
                h2 = form(0.5 * (b @ b.conj().T + (b @ b.conj().T).conj().T))
            except ValueError:
                outcomes["rejected"] += 1
                continue
            try:
                op = connecting_operator(h1, h2)
            except SingularMetricError as exc:
                assert str(exc).startswith("h2 is numerically singular: G's smallest eigenvalue is ")
                outcomes["singular"] += 1
            else:
                assert invariants_hold(op.residuals, Tolerances())
                outcomes["analysed"] += 1
        assert min(outcomes.values()) > 0, outcomes


class TestScaleExtremes:
    def test_forms_far_from_scale_one(self):
        # the plain norm of h2 G overflows; the rescaled one does not
        op = connecting_operator(form(1e-200 * np.diag([1.0, 2.0])), form(np.diag([1.0, 3.0])))
        assert np.allclose(op.mat, np.diag([1e200, 1.5e200]), rtol=1e-15, atol=0.0)
        assert invariants_hold(op.residuals, Tolerances())
        assert not op.ill_conditioned

    @pytest.mark.parametrize("scale_h1, scale_h2", [(1e-300, 1e300), (1e-150, 1e150)])
    def test_out_of_range_g_or_residual_is_a_non_finite_error(self, scale_h1, scale_h2):
        # G = 1e600 is not a double; G = 1e300 is, but h2 G is not
        h1, h2 = form(scale_h1 * np.diag([1.0, 2.0])), form(scale_h2 * np.diag([1.0, 3.0]))
        with pytest.raises(NonFiniteError, match="leave the double range"):
            connecting_operator(h1, h2)


class TestVerifyBiunitary:
    def test_identity_passes(self):
        rep = verify_biunitary(np.eye(2), form(np.eye(2)), form(np.diag([1.0, 2.0])))
        assert rep.passed
        assert rep.residual_h1 == 0.0
        assert rep.residual_h2 == 0.0
        assert rep.residual_commutator == 0.0

    def test_diagonal_phases_pass(self):
        rng = np.random.default_rng(23)
        h1, h2 = form(np.eye(2)), form(np.diag([1.0, 2.0]))
        for _ in range(5):
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            u = np.diag([np.exp(1j * a), np.exp(1j * b)])
            assert verify_biunitary(u, h1, h2).passed

    def test_rotation_mixing_eigenspaces_fails_h2(self):
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        rep = verify_biunitary(u, form(np.eye(2)), form(np.diag([1.0, 2.0])))
        assert rep.h1_ok
        assert not rep.h2_ok
        assert not rep.passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_biunitary(np.eye(3), form(np.eye(2)), form(np.eye(2)))

    @pytest.mark.parametrize(
        "u, error, message",
        [
            (np.ones((2, 3)), DimensionMismatchError, "^U must be a square matrix$"),
            (np.ones(2), DimensionMismatchError, "^U must be a square matrix$"),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), NonFiniteError, "^U contains non-finite entries$"),
            (np.array([[1.0, 0.0], [np.inf * 1j, 1.0]]), NonFiniteError, "^U contains non-finite entries$"),
        ],
        ids=["non-square", "vector", "nan", "complex-inf"],
    )
    def test_malformed_u_rejected(self, u, error, message):
        with pytest.raises(error, match=message):
            verify_biunitary(u, form(np.eye(2)), form(np.diag([1.0, 2.0])))

    def test_preserving_both_forms_forces_commutation(self):
        # implication holds for arbitrary candidates, passing or not
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            h1 = form(random_hpd(rng, n))
            h2 = form(random_hpd(rng, n))
            u = random_unitary(rng, n)
            assert verify_biunitary(u, h1, h2).implication_ok
