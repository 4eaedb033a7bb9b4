"""Tests for admissible triple construction and complexification."""

import numpy as np
import pytest

from biherm import (
    AdmissibleTriple,
    ComplexStructureJ,
    DegenerateSymplecticError,
    NotAdmissibleError,
    RealForm,
    build_complexification,
    complexification_from_j,
    hermitian_from_triple,
    omega_from_g_j,
    symmetrize_metric,
    triple_from_g_j,
    triple_from_g_omega,
)
from conftest import random_admissible_pair, random_complex_structure, random_spd

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
# positive-definite but not symmetric: tagged general, so only the metric check can reject it
ASYMMETRIC_G = np.array([[1.0, 0.5], [0.0, 1.0]])
NOT_SPD = "^metric is not symmetric positive-definite$"


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
