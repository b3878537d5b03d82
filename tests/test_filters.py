"""Tests for the spectral filter families and their verified constants."""

import math

import numpy as np
import pytest

from ratelab.errors import DomainError, ParameterError
from ratelab.filters import (
    FilterConstants,
    SpectralFilter,
    filter_from_dict,
    iterated_tikhonov,
    landweber,
    spectral_cutoff,
    tikhonov,
)
from ratelab.index_functions import HolderIndex


class TestTikhonov:
    def test_pointwise_values(self):
        filt = tikhonov()
        assert filt.values(1.0, 1.0) == 0.5
        assert filt.residuals(1.0, 1.0) == 0.5
        assert filt.values(0.0, 0.25) == 4.0

    def test_constants(self):
        cons = tikhonov().constants()
        assert (cons.operator_bound, cons.scale_bound, cons.residual_bound) == (1, 1, 1)
        assert cons.qualification == 1.0

    def test_order_above_qualification_rejected(self):
        with pytest.raises(ParameterError):
            tikhonov().residual_decay_constant(2.0)


class TestIteratedTikhonov:
    def test_two_step_closed_form(self):
        filt = iterated_tikhonov(2)
        # g = (1/sigma) * (1 - (lam/(sigma+lam))**2)
        assert math.isclose(filt.values(1.0, 1.0), 0.75, rel_tol=1e-12)
        assert math.isclose(filt.residuals(1.0, 1.0), 0.25, rel_tol=1e-12)

    def test_zero_spectrum_limit(self):
        filt = iterated_tikhonov(5)
        assert math.isclose(filt.values(0.0, 0.2), 25.0, rel_tol=1e-12)
        assert filt.residuals(0.0, 0.2) == 1.0

    def test_scale_bound_attained_near_zero(self):
        filt = iterated_tikhonov(4)
        lam = 0.1
        sigmas = np.geomspace(1e-12, 1.0, 200)
        sup = np.max(np.abs(filt.values(sigmas, lam))) * lam
        assert sup <= 4.0 * (1 + 1e-9)
        assert sup > 3.99

    @pytest.mark.parametrize("iterations", [math.nan, math.inf])
    def test_non_finite_iterations_refused_by_name(self, iterations):
        """NaN raised a bare ValueError from int(), and infinity an OverflowError."""
        with pytest.raises(ParameterError, match="iterations must be a positive integer"):
            SpectralFilter("iterated_tikhonov", iterations=iterations)

    def test_iterations_validated(self):
        with pytest.raises(ParameterError):
            iterated_tikhonov(0)
        with pytest.raises(ParameterError):
            SpectralFilter("tikhonov", iterations=2)


class TestLandweber:
    def test_three_iterations_closed_form(self):
        filt = landweber(step=1.0)
        lam = 1.0 / 3.0  # ceil(1/lam) = 3 after the nearest-integer snap
        sigma = 0.5
        expected = (1.0 - (1.0 - sigma) ** 3) / sigma
        assert math.isclose(filt.values(sigma, lam), expected, rel_tol=1e-12)
        assert math.isclose(filt.residuals(sigma, lam), 0.125, rel_tol=1e-12)

    def test_zero_spectrum_limit_is_step_times_iterations(self):
        filt = landweber(step=0.5)
        assert filt.values(0.0, 0.25) == 0.5 * 4

    def test_step_must_tame_spectrum(self):
        filt = landweber(step=1.0)
        with pytest.raises(DomainError):
            filt.values(2.0, 0.5)

    def test_residuals_share_the_domain_check(self):
        with pytest.raises(DomainError):
            landweber(step=1.0).residuals(2.0, 0.5)

    def test_decay_constant_general_step(self):
        filt = landweber(step=1.0)
        assert math.isclose(filt.residual_decay_constant(2.0), (2.0 / math.e) ** 2, rel_tol=1e-12)
        half = landweber(step=0.5)
        assert math.isclose(
            half.residual_decay_constant(2.0), (2.0 / math.e) ** 2 / 0.25, rel_tol=1e-12
        )
        assert filt.residual_decay_constant(0.0) == 1.0


class TestCutoff:
    def test_hard_threshold(self):
        filt = spectral_cutoff()
        assert filt.values(1.0, 0.5) == 1.0
        assert filt.values(0.5, 0.5) == 2.0
        assert filt.values(0.49, 0.5) == 0.0
        assert filt.residuals(0.49, 0.5) == 1.0
        assert filt.residuals(0.5, 0.5) == 0.0

    def test_every_order_certified_at_one(self):
        filt = spectral_cutoff()
        for p in (0.5, 1.0, 3.0, 10.0):
            assert filt.residual_decay_constant(p) == 1.0


def _tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.5, 2.0, n)
    off = 0.2 * rng.standard_normal(max(n - 1, 1)) if n > 1 else np.zeros(1)
    dense = np.diag(diag) + np.diag(off[: n - 1], 1) + np.diag(off[: n - 1], -1)
    return diag, off, dense


class TestTridiagonalAction:
    """The Tikhonov family acts on a symmetric matrix, here a tridiagonal one, by
    one Cholesky factorization and shifted solves, as its `values` act on the
    matrix's eigenvalues."""

    @pytest.mark.parametrize("n", [1, 2, 17])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_matches_values_on_the_eigenpairs(self, n, nu):
        """Both g(A) v and h(A) v, h(s) = (g(s) - g(0)) / s, on a matrix whose
        eigenvalues are all above 0.3; -lam h(A) v is the sum of the nu
        iterates, the j-th of which is iterated Tikhonov with j iterations.
        The matrix is left as it was."""
        _, _, dense = _tridiagonal(n, seed=n + nu)
        filt = tikhonov() if nu == 1 else iterated_tikhonov(nu)
        v = np.random.default_rng(nu).standard_normal((n, 3))
        vals, vecs = np.linalg.eigh(dense)
        for lam in (1e-3, 0.3, 5.0):
            want = vecs @ (filt.values(vals, lam)[:, None] * (vecs.T @ v))
            slopes = (filt.values(vals, lam) - filt.values(0.0, lam)) / vals
            want_h = vecs @ (slopes[:, None] * (vecs.T @ v))
            gains = sum(iterated_tikhonov(j).values(vals, lam) for j in range(1, nu + 1))
            want_sum = vecs @ (gains[:, None] * (vecs.T @ v))
            got, got_h = filt.apply_matrix(dense, v, lam)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got_h - want_h)) <= 1e-12 * np.max(np.abs(want_h))
            assert np.max(np.abs(-lam * got_h - want_sum)) <= 1e-12 * np.max(np.abs(want_sum))
        assert np.array_equal(dense, _tridiagonal(n, seed=n + nu)[2])

    @pytest.mark.parametrize("filt", [landweber(0.5), spectral_cutoff()])
    def test_other_kinds_read_eigenpairs(self, filt):
        _, _, dense = _tridiagonal(4, seed=0)
        assert filt.apply_matrix(dense, np.ones((4, 1)), 0.1) is None
        assert filt.apply_matrix(dense, np.ones((4, 1)), 0.1, overwrite=True) is None
        assert np.array_equal(dense, _tridiagonal(4, seed=0)[2])

    @pytest.mark.parametrize("nu", [1, 3])
    def test_indefinite_shift_reports_none(self, nu):
        """An eigenvalue below -lam leaves a nonpositive pivot. The matrix comes back
        bit for bit, also from a factorization in place."""
        _, _, dense = _tridiagonal(5, seed=1)
        dense[2, 2] = -3.0
        kept = dense.copy()
        filt = tikhonov() if nu == 1 else iterated_tikhonov(nu)
        assert filt.apply_matrix(dense, np.ones((5, 2)), 0.1) is None
        assert np.array_equal(dense, kept)
        assert filt.apply_matrix(dense, np.ones((5, 2)), 0.1, overwrite=True) is None
        assert np.array_equal(dense, kept)

    def test_lambda_must_be_positive(self):
        _, _, dense = _tridiagonal(3, seed=2)
        with pytest.raises(ParameterError):
            tikhonov().apply_matrix(dense, np.ones((3, 1)), 0.0)

    @pytest.mark.parametrize("nu", [1, 3])
    def test_overwrite_factors_in_place(self, nu):
        """On a dense symmetric matrix: the same bits as on a copy, the Cholesky factor
        of A + lam I in the upper triangle, and the lower triangle untouched."""
        raw = np.random.default_rng(nu).standard_normal((12, 12))
        matrix = raw @ raw.T / 12.0
        v = np.random.default_rng(7).standard_normal((12, 2))
        filt = tikhonov() if nu == 1 else iterated_tikhonov(nu)
        on_copy = filt.apply_matrix(matrix, v, 0.05)
        work = matrix.copy()
        in_place = filt.apply_matrix(work, v, 0.05, overwrite=True)
        for got, want in zip(in_place, on_copy):
            assert np.array_equal(got, want)
        assert np.array_equal(np.tril(work, -1), np.tril(matrix, -1))
        factor = np.linalg.cholesky(matrix + 0.05 * np.eye(12))
        np.testing.assert_allclose(np.triu(work), factor.T, rtol=0, atol=1e-13)


class TestVerification:
    @pytest.mark.parametrize(
        "filt",
        [tikhonov(), iterated_tikhonov(3), landweber(step=1.0), spectral_cutoff()],
        ids=["tikhonov", "iterated", "landweber", "cutoff"],
    )
    def test_declared_constants_hold_on_grids(self, filt):
        report = filt.verify(kappa_sq=1.0)
        assert report.passed, report.as_dict()

    def test_small_spectrum_scale(self):
        report = landweber(step=1.0 / 0.04).verify(kappa_sq=0.04)
        assert report.passed, report.as_dict()

    def test_violation_detected(self, monkeypatch):
        # declare a residual bound below the 1.0 that tikhonov attains
        filt = tikhonov()
        declared = filt.constants()
        understated = FilterConstants(
            declared.operator_bound, declared.scale_bound, 0.4, declared.qualification
        )
        monkeypatch.setattr(SpectralFilter, "constants", lambda self: understated)
        report = filt.verify()
        assert not report.passed
        assert [row.name for row in report.rows if not row.passed] == ["residual_bound"]


class TestCoverage:
    def test_tikhonov_covers_low_smoothness_only(self):
        assert tikhonov().covers_index(HolderIndex(r=0.5))
        assert tikhonov().covers_index(HolderIndex(r=1.0))
        assert not tikhonov().covers_index(HolderIndex(r=2.0))

    def test_extra_sqrt_shifts_the_threshold(self):
        assert tikhonov().covers_index(HolderIndex(r=0.5), extra_sqrt=True)
        assert not tikhonov().covers_index(HolderIndex(r=0.75), extra_sqrt=True)

    def test_unbounded_qualification_covers_everything(self):
        assert spectral_cutoff().covers_index(HolderIndex(r=10.0))
        assert landweber().covers_index(HolderIndex(r=10.0))


class TestConstruction:
    def test_from_dict(self):
        assert filter_from_dict({"id": "tikhonov"}).kind == "tikhonov"
        assert filter_from_dict({"id": "iterated_tikhonov", "nu": 4}).iterations == 4
        assert filter_from_dict({"id": "landweber", "tau": 0.5}).step == 0.5
        assert filter_from_dict({"id": "cutoff"}).kind == "cutoff"

    def test_defaults(self):
        assert filter_from_dict({"id": "iterated_tikhonov"}).iterations == 2
        assert filter_from_dict({"id": "landweber"}).step == 1.0

    @pytest.mark.parametrize(
        "spec, name",
        [
            ({"id": "tikhonov", "nu": 5, "tau": 3.0}, "'nu'"),
            ({"id": "iterated_tikhonov", "tau": 0.5}, "'tau'"),
            ({"id": "landweber", "nu": 2}, "'nu'"),
            ({"id": "cutoff", "tau": 0.5}, "'tau'"),
        ],
    )
    def test_keys_of_another_kind_refused_by_name(self, spec, name):
        """They used to be ignored, so plain Tikhonov ran under nu 5 and tau 3."""
        with pytest.raises(ParameterError, match=f"takes no {name}"):
            filter_from_dict(spec)

    def test_non_integral_nu_refused(self):
        """nu = 2.5 used to run nu = 2."""
        with pytest.raises(ParameterError, match="nu must be an integer, got 2.5"):
            filter_from_dict({"id": "iterated_tikhonov", "nu": 2.5})
        assert filter_from_dict({"id": "iterated_tikhonov", "nu": 3.0}).iterations == 3

    def test_landweber_default_step_from_kernel_bound(self):
        filt = filter_from_dict({"id": "landweber"}, kappa_sq=4.0)
        assert filt.step == 0.25

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            filter_from_dict({"id": "showalter"})
        with pytest.raises(ParameterError):
            SpectralFilter("showalter")
