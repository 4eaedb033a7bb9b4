"""Tests for the connecting operator and bi-unitarity verification."""

import dataclasses

import numpy as np
import pytest

from biherm import (
    ConnectingOperator,
    DimensionMismatchError,
    HermitianForm,
    InternalInconsistencyError,
    SingularMetricError,
    Tolerances,
    connecting_operator,
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

    @pytest.mark.xfail(strict=True, raises=InternalInconsistencyError)
    def test_valid_pair_below_the_ill_conditioned_flag_passes_the_gate(self):
        # Draw 451 of 460 from default_rng(11), each n = integers(2, 65),
        # kappa = exp(uniform(log 5e7, log 1e8)), lam = uniform(0.5, 2, n),
        # through hermitian_pair_with_spectrum: n = 2, kappa(h1) = 7.42e7.
        # Its selfadjoint_h2 residual is 3.0e-10 against tol_resid = 1e-10,
        # so the gate calls a valid pair an internal inconsistency.
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

    def test_preserving_both_forms_forces_commutation(self):
        # implication holds for arbitrary candidates, passing or not
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            h1 = form(random_hpd(rng, n))
            h2 = form(random_hpd(rng, n))
            u = random_unitary(rng, n)
            assert verify_biunitary(u, h1, h2).implication_ok
