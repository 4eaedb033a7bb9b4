"""Tests for admissible triple construction and complexification."""

import json
import re
from functools import lru_cache

import numpy as np
import pytest
from click.testing import CliRunner

from biherm import (
    AdmissibleTriple,
    ComplexificationMap,
    ComplexStructureJ,
    DegenerateSymplecticError,
    NotAdmissibleError,
    NotSkewError,
    RealForm,
    build_complexification,
    complexification_from_j,
    hermitian_from_triple,
    omega_from_g_j,
    symmetrize_metric,
    triple_from_g_j,
    triple_from_g_omega,
)
from biherm.cli import main
from biherm.matrixio import load_triple, save_matrix
from conftest import (
    NEAR_SINGULAR_H1,
    random_admissible_pair,
    random_complex_structure,
    random_orthogonal,
    random_spd,
    reference_polar_triple,
)

UNIT_ROUNDOFF = np.finfo(float).eps / 2
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
J4 = np.kron(np.eye(2), J2)
# positive-definite but not symmetric: tagged general, so only the metric check can reject it
ASYMMETRIC_G = np.array([[1.0, 0.5], [0.0, 1.0]])
NOT_SPD = "^metric is not symmetric positive-definite$"


def metric_with_condition(rng, m, kappa):
    """Symmetric positive-definite metric with κ = kappa: eigenvalues 1, kappa
    and log-uniform ones between, in a random orthogonal frame."""
    w = np.exp(np.log(kappa) * np.concatenate([[0.0, 1.0], rng.random(m - 2)]))
    q = random_orthogonal(rng, m)
    g = (q * w) @ q.T
    return RealForm(0.5 * (g + g.T), "symmetric")


def kappa_sweep(seed=7, count=60, dims=(2, 4, 6, 8, 10, 12), max_kappa=1e6):
    """Seeded (g, omega, kappa) pairs: omega from a well-conditioned admissible
    couple, and an unrelated metric g with κ(g) log-uniform on [1, max_kappa]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.choice(dims))
        kappa = float(np.exp(np.log(max_kappa) * rng.random()))
        g0, j = random_admissible_pair(rng, m)
        yield metric_with_condition(rng, m, kappa), omega_from_g_j(g0, j), kappa


def polar_bound(m, kappa):
    return 8 * m * UNIT_ROUNDOFF * kappa


def random_congruence(rng, m):
    """Invertible S with singular values in [0.5, 2]."""
    return (random_orthogonal(rng, m) * (0.5 + 1.5 * rng.random(m))) @ random_orthogonal(rng, m).T


def congruent(form, s):
    gram = s.T @ form.gram @ s
    sign = 1.0 if form.symmetry_tag == "symmetric" else -1.0
    return RealForm(0.5 * (gram + sign * gram.T), form.symmetry_tag)


def canonical_triple(scale=1.0):
    g = RealForm(scale * np.eye(2), "symmetric")
    j = ComplexStructureJ(J2)
    return triple_from_g_j(g, j)


class TestSymmetrizeMetric:
    def test_identity_invariant_under_rotation(self):
        g = symmetrize_metric(RealForm(np.eye(2), "symmetric"), ComplexStructureJ(J2))
        assert np.allclose(g.gram, np.eye(2))

    def test_diagonal_example(self):
        g = symmetrize_metric(RealForm(np.diag([1.0, 4.0]), "symmetric"), ComplexStructureJ(J2))
        assert np.allclose(g.gram, np.diag([2.5, 2.5]))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = int(rng.integers(1, 9)) * 2
            j = random_complex_structure(rng, m)
            g = RealForm(random_spd(rng, m), "symmetric")
            once = symmetrize_metric(g, j)
            twice = symmetrize_metric(once, j)
            assert np.allclose(once.gram, twice.gram, atol=1e-13)

    def test_makes_j_anti_hermitian(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.integers(1, 9)) * 2
            j = random_complex_structure(rng, m)
            g = symmetrize_metric(RealForm(random_spd(rng, m), "symmetric"), j)
            resid = np.max(np.abs(j.mat.T @ g.gram + g.gram @ j.mat))
            assert resid <= 1e-10 * np.max(np.abs(g.gram))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(NotAdmissibleError):
            symmetrize_metric(RealForm(np.diag([1.0, -1.0]), "symmetric"), ComplexStructureJ(J2))

    def test_rejects_asymmetric_metric(self):
        with pytest.raises(NotAdmissibleError, match=NOT_SPD):
            symmetrize_metric(RealForm(ASYMMETRIC_G), ComplexStructureJ(J2))


class TestOmegaFromGJ:
    def test_identity_metric(self):
        w = omega_from_g_j(RealForm(np.eye(2), "symmetric"), ComplexStructureJ(J2))
        assert np.allclose(w.gram, J2)

    def test_scaled_metric(self):
        w = omega_from_g_j(RealForm(2.0 * np.eye(2), "symmetric"), ComplexStructureJ(J2))
        assert np.allclose(w.gram, np.array([[0.0, -2.0], [2.0, 0.0]]))

    def test_always_antisymmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(1, 9)) * 2
            g, j = random_admissible_pair(rng, m)
            w = omega_from_g_j(g, j)
            assert np.allclose(w.gram, -w.gram.T, atol=1e-12)

    def test_requires_compatibility(self):
        with pytest.raises(NotAdmissibleError):
            omega_from_g_j(RealForm(np.diag([1.0, 4.0]), "symmetric"), ComplexStructureJ(J2))

    def test_route_from_j_names_the_j_squared_residual(self):
        # |J^2 + 1| = 2e-10 passes tol_j; averaging g over J removes every
        # anti-Hermitian defect but the one J^2 + 1 leaves, which here still
        # exceeds tol_resid, so the cause is J and not the metric
        j = ComplexStructureJ(np.array([[2e-10, -1.0], [1.0, 0.0]]))
        g = RealForm(np.diag([1.0, 2.0]), "symmetric")
        message = r"^J is not g-anti-Hermitian: J\^2 = -1 holds only to 2\.000e-10$"
        with pytest.raises(NotAdmissibleError, match=message):
            triple_from_g_j(g, j)
        # called on its own, omega_from_g_j still points at the metric
        with pytest.raises(NotAdmissibleError, match="symmetrize the metric first$"):
            omega_from_g_j(g, j)


class TestTripleFromGOmega:
    def test_canonical_case(self):
        # with omega(x, y) = g(x, By): B = [[0,1],[-1,0]], -B^2 = I, so
        # R = I, J = B and the metric comes back unchanged
        g = RealForm(np.eye(2), "symmetric")
        w = RealForm(np.array([[0.0, 1.0], [-1.0, 0.0]]), "antisymmetric")
        trip = triple_from_g_omega(g, w)
        assert np.allclose(trip.j.mat, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)
        assert np.allclose(trip.g.gram, np.eye(2), atol=1e-12)
        assert np.allclose(trip.omega.gram, w.gram)

    def test_scaled_case_produces_stretched_metric(self):
        g = RealForm(np.eye(2), "symmetric")
        w = RealForm(np.array([[0.0, 2.0], [-2.0, 0.0]]), "antisymmetric")
        trip = triple_from_g_omega(g, w)
        assert np.allclose(trip.g.gram, 2.0 * np.eye(2), atol=1e-12)
        assert np.allclose(trip.j.mat, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)

    def test_odd_dimension_degenerate(self):
        g = RealForm(np.eye(3), "symmetric")
        w = RealForm(
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            "antisymmetric",
        )
        with pytest.raises(DegenerateSymplecticError):
            triple_from_g_omega(g, w)

    @pytest.mark.parametrize(
        "g", [RealForm(ASYMMETRIC_G), RealForm(np.diag([1.0, -1.0]), "symmetric")], ids=["asymmetric", "indefinite"]
    )
    def test_rejects_metric_that_is_not_spd(self, g):
        with pytest.raises(NotAdmissibleError, match=NOT_SPD):
            triple_from_g_omega(g, RealForm(J2, "antisymmetric"))

    def test_round_trip_recovers_structure(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = int(rng.integers(1, 17)) * 2
            g, j = random_admissible_pair(rng, m)
            w = omega_from_g_j(g, j)
            trip = triple_from_g_omega(g, w)
            assert np.max(np.abs(trip.j.mat - j.mat)) <= 1e-10
            scale = np.max(np.abs(g.gram))
            assert np.max(np.abs(trip.g.gram - g.gram)) <= 1e-10 * scale

    def test_kappa_sweep_builds_every_pair(self):
        # 60 valid pairs with κ(g) up to 1e6: each builds, with its stored
        # residuals within the polar factor's rounding bound
        for g, w, kappa in kappa_sweep():
            trip = triple_from_g_omega(g, w)
            assert max(trip.residuals.values()) <= polar_bound(g.dim, kappa)

    def test_ill_conditioned_diagonal_pair_builds(self):
        # an exactly admissible couple at κ(g) = 1e9: B has relative smallest
        # singular value 1e-9 in the Euclidean frame, but 1 in g's frame
        g, j = ill_conditioned_couple()
        trip = triple_from_g_omega(RealForm(g, "symmetric"), RealForm(g @ j, "antisymmetric"))
        assert np.allclose(trip.j.mat, j, rtol=4 * UNIT_ROUNDOFF, atol=0.0)
        assert np.allclose(trip.g.gram, g, rtol=4 * UNIT_ROUNDOFF, atol=0.0)

    def test_ill_conditioned_diagonal_pair_builds_from_the_cli(self, tmp_path):
        g, j = ill_conditioned_couple()
        save_matrix(tmp_path / "g.json", g, "real_symmetric")
        save_matrix(tmp_path / "omega.json", g @ j, "real_antisymmetric")
        out = tmp_path / "trip.json"
        args = ["triple", "--g", str(tmp_path / "g.json"), "--omega", str(tmp_path / "omega.json"), "--out", str(out)]
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["passed"] is True
        assert np.allclose(load_triple(out).j.mat, j, rtol=4 * UNIT_ROUNDOFF, atol=0.0)

    def test_rejects_non_skew_omega(self):
        w = RealForm(J2 + 0.1 * np.eye(2))  # tagged general, so only the skew check can reject it
        with pytest.raises(NotSkewError, match="not g-skew"):
            triple_from_g_omega(RealForm(np.diag([1.0, 4.0]), "symmetric"), w)

    def test_metric_without_cholesky_factor_is_not_admissible(self):
        # smallest eigenvalue 5.6e-17 passes the eigenvalue gate, Cholesky fails
        g = RealForm(NEAR_SINGULAR_H1, "symmetric")
        with pytest.raises(NotAdmissibleError, match=NOT_SPD):
            triple_from_g_omega(g, RealForm(J2, "antisymmetric"))

    def test_congruence_maps_the_triple(self):
        # (Sᵀ g S, Sᵀ omega S) has B' = S⁻¹ B S, so J' = S⁻¹ J S and g_omega' = Sᵀ g_omega S
        # κ(g) up to 1e5, so that κ(Sᵀ g S) stays within the sweep's 1e6
        rng = np.random.default_rng(17)
        for g, w, _ in kappa_sweep(seed=18, count=20, max_kappa=1e5):
            m = g.dim
            s = random_congruence(rng, m)
            g_moved = congruent(g, s)
            trip = triple_from_g_omega(g, w)
            moved = triple_from_g_omega(g_moved, congruent(w, s))
            bound = polar_bound(m, max(np.linalg.cond(g.gram), np.linalg.cond(g_moved.gram)))
            j_ref = np.linalg.solve(s, trip.j.mat @ s)
            g_ref = s.T @ trip.g.gram @ s
            assert np.max(np.abs(moved.j.mat - j_ref)) <= bound * np.max(np.abs(j_ref))
            assert np.max(np.abs(moved.g.gram - g_ref)) <= bound * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("sigma", [1.0, 1e-3, 1e-5, 1e-10, 1e-12, 0.0])
    def test_congruence_keeps_the_degeneracy_verdict(self, sigma):
        # omega = L B̃ Lᵀ with B̃ skew of relative smallest singular value sigma in
        # g's frame; a congruence leaves those singular values unchanged
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = int(rng.integers(2, 7)) * 2
            g = metric_with_condition(rng, m, 10 ** rng.uniform(0, 3))
            svals = np.concatenate([[sigma], 1 + rng.random(m // 2 - 1)])
            q = random_orthogonal(rng, m)
            low = np.linalg.cholesky(g.gram)
            w = low @ q @ np.kron(np.diag(svals), J2) @ q.T @ low.T
            w = RealForm(0.5 * (w - w.T), "antisymmetric")
            s = random_congruence(rng, m)
            verdicts = []
            for pair in ((g, w), (congruent(g, s), congruent(w, s))):
                try:
                    triple_from_g_omega(*pair)
                    verdicts.append("built")
                except DegenerateSymplecticError:
                    verdicts.append("degenerate")
            assert verdicts == ["degenerate" if sigma <= 1e-9 else "built"] * 2

    @pytest.mark.parametrize("sigma", [1e-6, 1e-7, 2e-8])
    def test_nearly_degenerate_omega_is_a_degenerate_symplectic_error(self, sigma):
        # above tol_eig, but the polar factor's rounding (about u / sigma) can
        # break J^2 = -1: that must be a BihermError naming both numbers
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = int(rng.integers(2, 7)) * 2
            g = metric_with_condition(rng, m, 10 ** rng.uniform(0, 3))
            svals = np.concatenate([[sigma], 1 + rng.random(m // 2 - 1)])
            q = random_orthogonal(rng, m)
            low = np.linalg.cholesky(g.gram)
            w = low @ q @ np.kron(np.diag(svals), J2) @ q.T @ low.T
            try:
                trip = triple_from_g_omega(g, RealForm(0.5 * (w - w.T), "antisymmetric"))
            except DegenerateSymplecticError as exc:
                found = re.fullmatch(
                    r"J from the polar factor is inaccurate \(relative smallest singular value (\S+)\): "
                    r"J\^2 = -1 violated: residual (\S+) exceeds 1\.000e-09",
                    str(exc),
                )
                assert found, str(exc)
                assert sigma / 2.01 <= float(found[1]) <= 1.01 * sigma
                assert float(found[2]) > 1e-9
            else:
                assert trip.j.residual <= 1e-9


def ill_conditioned_couple(eps=1e-9):
    """g = diag(1, eps) and a g-anti-Hermitian J with J^2 = -1."""
    return np.diag([1.0, eps]), np.array([[0.0, -np.sqrt(eps)], [1.0 / np.sqrt(eps), 0.0]])


@lru_cache(maxsize=None)
def polar_cases(m):
    """Triples from (g, omega) at κ(g) = 1, 10, ..., 1e6, each with its mpmath oracle."""
    rng = np.random.default_rng(100 + m)
    cases = []
    for kappa in np.logspace(0, 6, 7):
        g = metric_with_condition(rng, m, kappa)
        w = rng.standard_normal((m, m))
        w = RealForm(w - w.T, "antisymmetric")
        cases.append((g, w, kappa, triple_from_g_omega(g, w), *reference_polar_triple(g.gram, w.gram)))
    return cases


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
class TestPolarFactor:
    """The polar factorization B = J R of the (g, omega) route, against the
    50-digit oracle, for κ(g) up to 1e6."""

    def test_j_squares_to_minus_one(self, m):
        for _, _, kappa, trip, _, _ in polar_cases(m):
            assert np.max(np.abs(trip.j.mat @ trip.j.mat + np.eye(m))) <= polar_bound(m, kappa)

    def test_metric_is_symmetric_positive(self, m):
        for _, _, _, trip, _, _ in polar_cases(m):
            g_omega = trip.g.gram
            assert np.array_equal(g_omega, g_omega.T)
            assert np.linalg.eigvalsh(g_omega)[0] > 0.0

    def test_omega_is_g_omega_of_j(self, m):
        rng = np.random.default_rng(m)
        for _, w, kappa, trip, _, _ in polar_cases(m):
            scale = np.max(np.abs(trip.g.gram))
            assert np.max(np.abs(w.gram - trip.g.gram @ trip.j.mat)) <= polar_bound(m, kappa) * scale
            x, y = rng.standard_normal((2, m))
            norms = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(w(x, y) - trip.g(x, trip.j.mat @ y)) <= polar_bound(m, kappa) * scale * norms

    def test_factors_match_the_oracle(self, m):
        for _, _, kappa, trip, j_ref, g_ref in polar_cases(m):
            assert np.max(np.abs(trip.j.mat - j_ref)) <= polar_bound(m, kappa) * np.max(np.abs(j_ref))
            assert np.max(np.abs(trip.g.gram - g_ref)) <= polar_bound(m, kappa) * np.max(np.abs(g_ref))


class TestAdmissibleTriple:
    def test_invariants_enforced(self):
        g = RealForm(np.eye(2), "symmetric")
        j = ComplexStructureJ(J2)
        good = omega_from_g_j(g, j)
        AdmissibleTriple(g, j, good)
        flipped = RealForm(-good.gram, "antisymmetric")
        with pytest.raises(NotAdmissibleError):
            AdmissibleTriple(g, j, flipped)

    def test_tag_checks(self):
        g = RealForm(np.eye(2), "symmetric")
        j = ComplexStructureJ(J2)
        w = omega_from_g_j(g, j)
        with pytest.raises(NotAdmissibleError):
            AdmissibleTriple(RealForm(np.eye(2), "general"), j, w)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: AdmissibleTriple(RealForm(np.eye(4), "symmetric"), ComplexStructureJ(J2),
                                      RealForm(J2, "antisymmetric")),
             NotAdmissibleError, "^g, J and omega dimensions differ$"),
            (lambda: AdmissibleTriple(RealForm(np.eye(2), "symmetric"), ComplexStructureJ(J2), RealForm(J2)),
             NotAdmissibleError, "^omega must be tagged antisymmetric$"),
            (lambda: AdmissibleTriple(RealForm(np.diag([1.0, 4.0]), "symmetric"), ComplexStructureJ(J2),
                                      RealForm(np.array([[0.0, -2.5], [2.5, 0.0]]), "antisymmetric")),
             NotAdmissibleError, r"^J is not g-anti-Hermitian \(relative residual 7\.500e-01\)$"),
            (lambda: symmetrize_metric(RealForm(np.eye(4), "symmetric"), ComplexStructureJ(J2)),
             NotAdmissibleError, "^metric and complex structure dimensions differ$"),
            (lambda: omega_from_g_j(RealForm(np.eye(4), "symmetric"), ComplexStructureJ(J2)),
             NotAdmissibleError, "^metric and complex structure dimensions differ$"),
            (lambda: triple_from_g_omega(RealForm(np.eye(4), "symmetric"), RealForm(J2, "antisymmetric")),
             NotAdmissibleError, "^metric and symplectic form dimensions differ$"),
            (lambda: hermitian_from_triple(canonical_triple(), complexification_from_j(ComplexStructureJ(J4))),
             NotAdmissibleError, "^complexification and triple dimensions differ$"),
            (lambda: ComplexificationMap(np.eye(3)), ValueError, "^basis must be a square matrix of even dimension$"),
            (lambda: ComplexificationMap(np.ones((2, 4))), ValueError, "^basis must be a square matrix of even dimension$"),
            # adapted to J but singular: a zero u column gives H a zero eigenvalue
            (lambda: hermitian_from_triple(
                triple_from_g_j(RealForm(np.eye(4), "symmetric"), ComplexStructureJ(J4)),
                ComplexificationMap(np.column_stack([np.eye(4)[:, 0], np.zeros(4), J4[:, 0], np.zeros(4)]))),
             NotAdmissibleError, "^resulting form is not Hermitian positive-definite: gram is not positive-definite"),
        ],
        ids=["triple-dims", "omega-tag", "not-anti-hermitian", "symmetrize-dims", "omega-dims", "g-omega-dims",
             "hermitian-dims", "odd-basis", "non-square-basis", "singular-basis"],
    )
    def test_malformed_input_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_constructed_triples_satisfy_property_bundle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = int(rng.integers(1, 13)) * 2
            g, j = random_admissible_pair(rng, m)
            trip = triple_from_g_j(g, j)
            gg, jj, ww = trip.g.gram, trip.j.mat, trip.omega.gram
            scale = np.max(np.abs(gg))
            assert np.max(np.abs(jj @ jj + np.eye(m))) <= 10 * 1e-9
            assert np.max(np.abs(jj.T @ gg + gg @ jj)) <= 10 * 1e-10 * scale
            assert np.max(np.abs(ww - gg @ jj)) <= 10 * 1e-10 * scale


def cli_triple_residuals(trip):
    """Oracle: the residual formulas the CLI ``triple`` command used to
    evaluate on the finished triple, and the smallest eigenvalue of its
    symmetrized metric."""
    gg, jj, ww = trip.g.gram, trip.j.mat, trip.omega.gram
    scale = max(float(np.max(np.abs(gg))), np.finfo(float).tiny)
    residuals = {
        "j_squared": float(np.max(np.abs(jj @ jj + np.eye(trip.dim)))),
        "anti_hermitian": float(np.max(np.abs(jj.T @ gg + gg @ jj))) / scale,
        "omega_link": float(np.max(np.abs(ww - gg @ jj))) / scale,
    }
    return residuals, float(np.linalg.eigvalsh(0.5 * (gg + gg.T))[0])


class TestStoredResiduals:
    @pytest.mark.parametrize("route", ["g_j", "g_omega"])
    def test_equal_to_cli_formulas(self, route):
        rng = np.random.default_rng(22)
        for m in [2, 4, 6, 10, 16, 24, 32, 64, 128, 256]:
            g, j = random_admissible_pair(rng, m)
            if route == "g_j":
                trip = triple_from_g_j(RealForm(random_spd(rng, m), "symmetric"), j)
            else:
                trip = triple_from_g_omega(RealForm(random_spd(rng, m), "symmetric"), omega_from_g_j(g, j))
            residuals, min_eig = cli_triple_residuals(trip)
            assert trip.residuals == residuals
            assert list(trip.residuals) == ["j_squared", "anti_hermitian", "omega_link"]
            assert trip.metric_min_eigenvalue == min_eig
            assert trip.j.residual == residuals["j_squared"]


class TestComplexification:
    def test_canonical_basis_is_standard(self):
        cmap = build_complexification(canonical_triple())
        assert cmap.complex_dim == 1
        assert np.allclose(cmap.basis, np.eye(2))

    def test_block_structure_gives_permutation(self):
        j4 = np.kron(np.eye(2), J2)
        trip = triple_from_g_j(RealForm(np.eye(4), "symmetric"), ComplexStructureJ(j4))
        cmap = build_complexification(trip)
        assert cmap.complex_dim == 2
        # every column is a standard basis vector and all four appear
        cols = [tuple(np.round(c).astype(int)) for c in cmap.basis.T]
        assert np.allclose(cmap.basis, np.round(cmap.basis))
        assert sorted(cols) == sorted(tuple(r) for r in np.eye(4, dtype=int))

    def test_multiplication_by_i_matches_j(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(1, 9)) * 2
            g, j = random_admissible_pair(rng, m)
            trip = triple_from_g_j(g, j)
            cmap = build_complexification(trip)
            z = rng.standard_normal(m // 2) + 1j * rng.standard_normal(m // 2)
            assert np.allclose(cmap.to_real(1j * z), j.mat @ cmap.to_real(z), atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        # 20 small random J per builder, then one larger J (m = 64) for each
        small = [(builder, None) for builder in (build_complexification, None) for _ in range(20)]
        for builder, m in small + [(build_complexification, 64), (None, 64)]:
            m = m or int(rng.integers(1, 9)) * 2
            g, j = random_admissible_pair(rng, m)
            trip = triple_from_g_j(g, j)
            cmap = build_complexification(trip) if builder else complexification_from_j(j)
            z = rng.standard_normal(m // 2) + 1j * rng.standard_normal(m // 2)
            assert np.allclose(cmap.to_complex(cmap.to_real(z)), z, atol=1e-10)
            x = rng.standard_normal(m)
            assert np.allclose(cmap.to_real(cmap.to_complex(x)), x, atol=1e-10)

    def test_own_basis_is_g_orthonormal(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m = int(rng.integers(1, 9)) * 2
            g, j = random_admissible_pair(rng, m)
            trip = triple_from_g_j(g, j)
            b = build_complexification(trip).basis
            assert np.allclose(b.T @ trip.g.gram @ b, np.eye(m), atol=1e-9)
            n = m // 2
            assert np.allclose(b[:, n:], j.mat @ b[:, :n])

    @pytest.mark.parametrize("m", [4, 8])
    def test_picks_skip_vectors_already_in_span(self, m):
        # with J = kron(I, J2), J e_{2k} = e_{2k+1}, so every odd e_i is
        # already in the span when its turn comes
        d = np.arange(1.0, m + 1.0) ** 2
        trip = triple_from_g_j(RealForm(np.diag(d), "symmetric"), ComplexStructureJ(np.kron(np.eye(m // 2), J2)))
        picks = np.eye(m)[:, 0::2]
        assert np.array_equal(complexification_from_j(trip.j).basis[:, : m // 2], picks)
        g_norms = np.sqrt(np.diag(trip.g.gram)[0::2])
        assert not np.allclose(g_norms, 1.0)
        b = build_complexification(trip).basis
        assert np.allclose(b[:, : m // 2], picks / g_norms, rtol=1e-14, atol=0.0)
        assert np.allclose(b[:, m // 2 :], trip.j.mat @ picks / g_norms, rtol=1e-14, atol=0.0)

    def test_inverse_only_on_demand(self):
        rng = np.random.default_rng(34)
        g, j = random_admissible_pair(rng, 8)
        trip = triple_from_g_j(g, j)
        cmap = complexification_from_j(j)
        hermitian_from_triple(trip, cmap)
        assert "_basis_inv" not in vars(cmap)
        x = rng.standard_normal(8)
        assert np.allclose(cmap.to_real(cmap.to_complex(x)), x, atol=1e-12)
        assert not vars(cmap)["_basis_inv"].flags.writeable


class TestHermitianFromTriple:
    def test_canonical_case(self):
        trip = canonical_triple()
        h = hermitian_from_triple(trip, complexification_from_j(trip.j))
        assert h.dim == 1
        assert np.allclose(h.gram, [[1.0]])

    def test_scaled_metric_shows_in_gram(self):
        trip = canonical_triple(scale=3.0)
        h = hermitian_from_triple(trip, complexification_from_j(trip.j))
        assert np.allclose(h.gram, [[3.0]])

    def test_own_orthonormal_basis_gives_identity(self):
        rng = np.random.default_rng(41)
        g, j = random_admissible_pair(rng, 6)
        trip = triple_from_g_j(g, j)
        h = hermitian_from_triple(trip, build_complexification(trip))
        assert np.allclose(h.gram, np.eye(3), atol=1e-10)

    def test_pointwise_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            m = int(rng.integers(1, 9)) * 2
            g, j = random_admissible_pair(rng, m)
            trip = triple_from_g_j(g, j)
            cmap = complexification_from_j(j)
            h = hermitian_from_triple(trip, cmap)
            gg = trip.g.gram
            for _ in range(10):
                x = rng.standard_normal(m)
                y = rng.standard_normal(m)
                expected = gg @ y @ x + 1j * (gg @ y @ (j.mat @ x))
                got = h(cmap.to_complex(x), cmap.to_complex(y))
                assert abs(got - expected) <= 1e-10 * max(abs(expected), 1.0)

    def test_positive_definite_on_random_triples(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            m = int(rng.integers(1, 17)) * 2
            g, j = random_admissible_pair(rng, m)
            trip = triple_from_g_j(g, j)
            h = hermitian_from_triple(trip, complexification_from_j(j))
            assert np.linalg.eigvalsh(h.gram)[0] > 0

    def test_rejects_mismatched_complex_structure(self):
        trip = canonical_triple()
        other = ComplexStructureJ(-J2)
        with pytest.raises(NotAdmissibleError):
            hermitian_from_triple(trip, complexification_from_j(other))
