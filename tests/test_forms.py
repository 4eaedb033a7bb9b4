"""Tests for the foundational form types and dense-algebra kernel."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from biherm import (
    ComplexStructureJ,
    HermitianForm,
    NonFiniteError,
    RealForm,
    Tolerances,
    ZeroVectorError,
    connecting_operator,
    krylov_rank,
)
from biherm import forms
from biherm.forms import _fro, _lower_inverse
from conftest import NEAR_SINGULAR_H1, random_hpd, random_orthogonal, random_unitary

UNIT_ROUNDOFF = np.finfo(float).eps / 2

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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: RealForm(np.ones((2, 3))), "^gram must be a square matrix, got shape"),
            (lambda: RealForm(1j * np.eye(2), "symmetric"), "^RealForm gram must be real$"),
            (lambda: RealForm(np.eye(2), "hermitian"), "^unknown symmetry_tag 'hermitian'$"),
            (lambda: ComplexStructureJ(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)),
             "^complex structure matrix must be real$"),
        ],
        ids=["non-square-gram", "complex-real-form", "unknown-tag", "complex-j"],
    )
    def test_malformed_input_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

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


class TestHermitianFormFactor:
    def test_factor_is_read_only_and_reproduces_gram(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 12, 64):
            form = HermitianForm(random_hpd(rng, n))
            low = form.factor
            with pytest.raises(ValueError):
                low[0, 0] = 1.0
            assert np.array_equal(low, np.tril(low))
            assert np.linalg.norm(low @ low.conj().T - form.gram) <= 1e-13 * np.linalg.norm(form.gram)

    def test_lazy_eigenvalues_equal_eigvalsh_of_gram(self):
        rng = np.random.default_rng(32)
        for n in (1, 3, 40):
            form = HermitianForm(random_hpd(rng, n))
            assert "eigenvalues" not in vars(form)
            w = form.eigenvalues
            assert w is form.eigenvalues
            assert np.array_equal(w, np.linalg.eigvalsh(form.gram))
            with pytest.raises(ValueError):
                w[0] = 0.0

    def test_indefinite_gram_names_its_min_eigenvalue(self):
        with pytest.raises(ValueError, match=r"^gram is not positive-definite \(min eigenvalue -1\.000e\+00\)$"):
            HermitianForm(np.diag([2.0, -1.0, 3.0]))

    def test_numerically_singular_gram_is_accepted_without_factor(self):
        form = HermitianForm(NEAR_SINGULAR_H1)
        assert form.factor is None
        assert form.eigenvalues[0] > 0.0
        assert form.inverse_factor is None

    def test_inverse_factor_is_the_blocked_inverse_of_the_factor(self):
        rng = np.random.default_rng(33)
        for n in (1, 2, 32, 33, 128):
            form = HermitianForm(random_hpd(rng, n))
            assert "inverse_factor" not in vars(form)
            linv = form.inverse_factor
            assert linv is form.inverse_factor
            assert np.array_equal(linv, _lower_inverse(form.factor))
            with pytest.raises(ValueError):
                linv[0, 0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                form.inverse_factor = np.eye(n)

    def test_inverse_factor_is_computed_at_most_once(self, monkeypatch):
        calls = []

        def counted(low, _original=forms._lower_inverse):
            calls.append(low.shape)
            return _original(low)

        monkeypatch.setattr(forms, "_lower_inverse", counted)
        rng = np.random.default_rng(34)
        h1, h2 = HermitianForm(random_hpd(rng, 40)), HermitianForm(random_hpd(rng, 40))
        assert calls == []
        op = connecting_operator(h1, h2)
        op = connecting_operator(h1, h2)
        assert op.h1.inverse_factor is h1.inverse_factor
        # one call on h1's whole factor; the others are its recursion
        assert calls.count((40, 40)) == 1
        assert "inverse_factor" not in vars(h2)


def _cholesky_factor(rng, n, kappa, complex_factor):
    """Lower Cholesky factor of a Gram matrix with cond = kappa."""
    q = random_unitary(rng, n) if complex_factor else random_orthogonal(rng, n)
    w = np.geomspace(1.0, kappa, n)
    h = (q * w) @ q.conj().T
    return np.linalg.cholesky(0.5 * (h + h.conj().T))


class TestFro:
    def test_plain_norm_against_mpmath_oracle(self):
        # Each norm is within the any-order bound (N/2 + 1) u ||A|| of the
        # 50-digit norm, N the number of real squares summed.  One BLAS dot
        # sums in another order than np.linalg.norm, so on one matrix either
        # may be the closer, by about an ulp; over the whole sweep the dot
        # must be no further from the oracle than np.linalg.norm is.
        rng = np.random.default_rng(35)
        err_fro = err_norm = 0.0
        for scale in (1e-140, 1e-70, 1e-3, 1.0, 1e3, 1e70, 1e150):
            for n in (7, 32, 64):
                for _ in range(2):
                    real = rng.standard_normal((n, n))
                    for mat in (real, real + 1j * rng.standard_normal((n, n)), random_unitary(rng, n)):
                        mat = scale * mat
                        parts = [mat.real, mat.imag] if np.iscomplexobj(mat) else [mat]
                        squares = np.concatenate([p.ravel() for p in parts]).tolist()
                        with mpmath.workdps(50):
                            exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in squares))
                            got = float(abs(mpmath.mpf(_fro(mat)) - exact) / exact)
                            ref = float(abs(mpmath.mpf(float(np.linalg.norm(mat))) - exact) / exact)
                        assert got <= (len(squares) / 2 + 1) * UNIT_ROUNDOFF
                        err_fro, err_norm = err_fro + got, err_norm + ref
        assert err_fro <= err_norm

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1.55e-162, 1.6e-162, 1e-160, 1e160, 1e300])
    def test_rescaled_far_from_scale_one(self, scale):
        # the squares are subnormal at 1e-160 and keep a few digits; at
        # 1.55e-162 each rounds to 0, and at 1.6e-162 each rounds up to one
        # subnormal step, so the plain norm is nonzero and 39% too large;
        # at 1e-310 the entries themselves are subnormal
        rng = np.random.default_rng(36)
        mat = rng.uniform(0.999, 1.0, (6, 6)) + 1j * rng.uniform(0.999, 1.0, (6, 6))
        exact = float(np.linalg.norm(mat))
        with np.errstate(over="ignore", invalid="ignore"):
            assert _fro(scale * mat) == pytest.approx(scale * exact, rel=1e-14, abs=0.0)

    def test_never_warns(self):
        # check_proportionality and the ill-conditioned flag call it with no np.errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in ([np.inf, 1.0], [np.nan, 1.0], [1e308, 1e308], [1.7e308 + 1.7e308j, 1.0], [1e-300, 0.0],
                        [1e-310j, 0.0], [1e-310 + 1e-320j, 0.0]):
                _fro(np.array([row]))

    @pytest.mark.parametrize("row", [[1e308] * 4, [1.2e308 + 1.2e308j, 1.2e308], [1.2e308, 1.2e308j, 1.2e308]])
    def test_norm_past_the_largest_double_is_inf(self, row):
        # the entries are finite; the norm overflows to inf, with no warning or exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _fro(np.array([row])) == np.inf

    def test_slow_path_against_mpmath_oracle(self):
        # Norms below sqrt(tiny/eps) or past sqrt(largest double) take the
        # math.hypot path.  Over the sweep it must be no further from the
        # 50-digit norm than an exact power-of-two rescale (entries scaled
        # by 2**-e, e the exponent of max|A|, then np.linalg.norm).  At
        # 1e-310 the norm itself is subnormal and keeps about 14 digits, so
        # the per-matrix bound adds two subnormal steps to 2u relative.
        def pow2_rescaled(mat):
            e = math.frexp(float(np.max(np.abs(mat))))[1]
            parts = (mat.real, mat.imag) if np.iscomplexobj(mat) else (mat,)
            return math.ldexp(math.hypot(*(float(np.linalg.norm(np.ldexp(p, -e))) for p in parts)), e)

        rng = np.random.default_rng(37)
        err_fro = err_pow2 = 0.0
        for scale in (1e-310, 1e-305, 1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300, 1.7e308):
            for n in (1, 7, 64):
                for is_complex in (False, True):
                    mat = rng.uniform(-1.0, 1.0, (n, n))
                    if is_complex:
                        mat = mat + 1j * rng.uniform(-1.0, 1.0, (n, n))
                    mat = (scale / (2 * n)) * mat
                    assert not forms._FRO_LOW <= math.sqrt(float(np.vdot(mat, mat).real)) < math.inf
                    parts = [mat.real, mat.imag] if is_complex else [mat]
                    entries = np.concatenate([p.ravel() for p in parts]).tolist()
                    with mpmath.workdps(50):
                        exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in entries))
                        got = abs(mpmath.mpf(_fro(mat)) - exact)
                        ref = abs(mpmath.mpf(pow2_rescaled(mat)) - exact)
                        assert got <= 2 * UNIT_ROUNDOFF * exact + 2 * mpmath.mpf(np.finfo(float).smallest_subnormal)
                        err_fro, err_pow2 = err_fro + float(got / exact), err_pow2 + float(ref / exact)
        assert err_fro <= err_pow2

    def test_zero_and_non_finite(self):
        assert _fro(np.zeros((3, 3))) == 0.0
        assert _fro(np.zeros((0, 0))) == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert _fro(np.array([[np.inf, 1.0]])) == np.inf
            assert np.isnan(_fro(np.array([[np.nan, 1.0]])))


class TestLowerInverse:
    @pytest.mark.parametrize("complex_factor", [False, True])
    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 127, 128, 257])
    def test_left_residual_within_the_triangular_bound(self, n, kappa, complex_factor):
        low = _cholesky_factor(np.random.default_rng(n), n, kappa, complex_factor)
        x = _lower_inverse(low)
        assert x.dtype == low.dtype
        if n <= 32:
            # up to the leaf size the kernel is LAPACK's inverse itself
            assert np.array_equal(x, np.linalg.inv(low))
        bound = n * UNIT_ROUNDOFF * np.linalg.cond(low)
        assert np.linalg.norm(x @ low - np.eye(n)) <= bound


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

    @pytest.mark.parametrize(
        "x0, error, message",
        [
            (np.ones((2, 1)), ValueError, "^x0 must be 1-D and match the operator dimension$"),
            (np.ones(3), ValueError, "^x0 must be 1-D and match the operator dimension$"),
            (np.array([1.0, np.nan]), NonFiniteError, "^x0 contains non-finite entries$"),
        ],
        ids=["column", "wrong-length", "nan"],
    )
    def test_malformed_start_vector_rejected(self, x0, error, message):
        with pytest.raises(error, match=message):
            krylov_rank(np.eye(2), x0)

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
