"""Tests for the foundational form types and dense-algebra kernel."""

import numpy as np
import pytest

from biherm import (
    ComplexStructureJ,
    HermitianForm,
    NegativeSpectrumError,
    NonFiniteError,
    NotSelfAdjointError,
    RealForm,
    SingularMetricError,
    Tolerances,
    ZeroVectorError,
    generalized_eig,
    krylov_rank,
    sqrt_positive,
)
from conftest import random_spd

# smallest eigenvalue of the 4x4 Hilbert matrix, frozen from the exact
# characteristic polynomial solved in rational arithmetic
HILBERT4_MIN_EIG = 9.6702304022586886e-5


def hilbert(n):
    i = np.arange(n)
    return 1.0 / (1.0 + i[:, None] + i[None, :])


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.tol_sym == 1e-10
        assert tol.tol_j == 1e-9
        assert tol.tol_eig == 1e-8
        assert tol.tol_resid == 1e-10

    @pytest.mark.parametrize("field", ["tol_sym", "tol_j", "tol_eig", "tol_resid"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["tol_sym", "tol_j", "tol_eig", "tol_resid"])
    def test_rejects_infinite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            Tolerances(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, np.nan])
    def test_nonpositive_and_nan_keep_their_message(self, value):
        with pytest.raises(ValueError, match="^tol_eig must be strictly positive$"):
            Tolerances(tol_eig=value)

    @pytest.mark.parametrize("value", [1.0, 2.0, 1e308])
    @pytest.mark.parametrize("field", ["tol_sym", "tol_j", "tol_eig", "tol_resid"])
    def test_rejects_one_and_above(self, field, value):
        # every tolerance is relative; 1e308 times a spectral radius overflows
        with pytest.raises(ValueError, match=f"^{field} must be less than 1$"):
            Tolerances(**{field: value})

    def test_accepts_just_below_one(self):
        assert Tolerances(tol_eig=np.nextafter(1.0, 0.0)).tol_eig < 1.0


class TestFormTypes:
    def test_real_form_symmetry_enforced(self):
        with pytest.raises(ValueError):
            RealForm(np.array([[0.0, 1.0], [0.0, 0.0]]), "symmetric")
        with pytest.raises(ValueError):
            RealForm(np.array([[0.0, 1.0], [1.0, 0.0]]), "antisymmetric")

    def test_real_form_evaluates(self):
        form = RealForm(np.diag([2.0, 3.0]), "symmetric")
        assert form(np.array([1.0, 1.0]), np.array([1.0, -1.0])) == pytest.approx(-1.0)

    def test_complex_structure_requires_square_root_of_minus_one(self):
        ComplexStructureJ(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            ComplexStructureJ(np.eye(2))
        with pytest.raises(ValueError):
            ComplexStructureJ(np.zeros((3, 3)))

    def test_hermitian_form_requires_positive(self):
        HermitianForm(np.eye(2))
        with pytest.raises(ValueError):
            HermitianForm(np.diag([1.0, -1.0]).astype(complex))

    def test_hermitian_form_keeps_hilbert4_min_eigenvalue(self):
        assert HermitianForm(hilbert(4)).eigenvalues[0] == pytest.approx(HILBERT4_MIN_EIG, rel=1e-10)

    def test_nonfinite_gram_rejected(self):
        with pytest.raises(NonFiniteError):
            HermitianForm(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(NonFiniteError):
            RealForm(np.array([[np.inf, 0.0], [0.0, 1.0]]), "symmetric")

    def test_hermitian_form_linear_in_second_argument(self):
        form = HermitianForm(np.array([[2.0, 1j], [-1j, 3.0]]))
        x = np.array([1.0, 1j])
        y = np.array([0.5, -1.0])
        assert form(x, 2j * y) == pytest.approx(2j * form(x, y))
        assert form(2j * x, y) == pytest.approx(-2j * form(x, y))

    def test_gram_is_immutable(self):
        form = RealForm(np.eye(2), "symmetric")
        with pytest.raises(ValueError):
            form.gram[0, 0] = 5.0


class TestGeneralizedEig:
    def test_identity(self):
        w, v = generalized_eig(np.eye(3), np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = generalized_eig(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(w, [1.0, 2.0])

    def test_two_by_two_pencil(self):
        # det(K - lam*M) = 0 for M=[[2,1],[1,2]], K=[[4,1],[1,4]] has the
        # exact roots 5/3 and 3 (solved by hand / rational arithmetic)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        k = np.array([[4.0, 1.0], [1.0, 4.0]])
        a = np.linalg.solve(m, k)
        w, v = generalized_eig(a, m)
        assert np.allclose(w, [5.0 / 3.0, 3.0], rtol=1e-12)
        assert np.allclose(v.conj().T @ m @ v, np.eye(2), atol=1e-12)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSelfAdjointError):
            generalized_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(SingularMetricError):
            generalized_eig(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(SingularMetricError):
            generalized_eig(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_random_instances_satisfy_contract(self):
        rng = np.random.default_rng(11)
        tol = Tolerances()
        for _ in range(50):
            n = int(rng.integers(2, 17))
            m = random_spd(rng, n)
            k = random_spd(rng, n)
            a = np.linalg.solve(m, k)
            w, v = generalized_eig(a, m)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(a @ v - v * w) <= 10 * tol.tol_resid * scale
            assert np.linalg.norm(v.conj().T @ m @ v - np.eye(n)) <= 10 * tol.tol_resid


class TestSqrtPositive:
    def test_identity(self):
        assert np.allclose(sqrt_positive(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(sqrt_positive(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_dense_example(self):
        # [[2,1],[1,2]] squares to [[5,4],[4,5]]
        r = sqrt_positive(np.array([[5.0, 4.0], [4.0, 5.0]]))
        assert np.allclose(r, np.array([[2.0, 1.0], [1.0, 2.0]]), atol=1e-12)

    def test_negative_spectrum_rejected(self):
        with pytest.raises(NegativeSpectrumError):
            sqrt_positive(np.diag([1.0, -1.0]))

    def test_square_round_trip_random(self):
        rng = np.random.default_rng(5)
        tol = Tolerances()
        for _ in range(200):
            n = int(rng.integers(2, 33))
            metric = random_spd(rng, n)
            # metric-self-adjoint positive input
            k = random_spd(rng, n)
            m = np.linalg.solve(metric, k)
            r = sqrt_positive(m, metric)
            assert np.linalg.norm(r @ r - m) <= 10 * tol.tol_resid * np.linalg.norm(m)
            # result is again metric-self-adjoint with non-negative spectrum
            km = metric @ r
            assert np.linalg.norm(km - km.conj().T) <= 1e-9 * np.linalg.norm(km)


class TestKrylovRank:
    def test_two_distinct_eigenvalues(self):
        assert krylov_rank(np.diag([1.0, 2.0]), np.array([1.0, 1.0])) == 2

    def test_scalar_operator(self):
        for n in (2, 5):
            assert krylov_rank(2.0 * np.eye(n), np.ones(n)) == 1

    def test_degenerate_diagonal(self):
        assert krylov_rank(np.diag([1.0, 1.0, 2.0]), np.ones(3)) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            krylov_rank(np.eye(2), np.zeros(2))

    def test_full_rank_at_dimension_32(self):
        # a plain SVD of the monomial Krylov matrix fails this long before n=32
        rng = np.random.default_rng(7)
        n = 32
        lam = np.linspace(0.5, 2.0, n) + 0.001 * rng.random(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        g = (q * lam) @ q.T
        x0 = rng.standard_normal(n)
        assert krylov_rank(g, x0) == n

    def test_bounded_by_touched_eigenspaces(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            values = rng.integers(1, 4, size=n).astype(float)
            g = np.diag(values)
            x0 = rng.standard_normal(n) * rng.integers(0, 2, size=n)
            if not np.any(x0):
                x0[0] = 1.0
            touched = len({float(v) for v, c in zip(values, x0) if c != 0.0})
            assert krylov_rank(g, x0) <= touched
