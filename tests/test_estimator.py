"""Tests for spectral-filter fitting and error norms."""

import numpy as np
import pytest

from ratelab.errors import ParameterError, UnsupportedNormError
from ratelab.estimator import (
    basis_coefficients,
    error_l2_montecarlo,
    error_norms,
    export_coefficients,
    fit,
    fit_tikhonov_direct,
)
from ratelab.filters import iterated_tikhonov, landweber, spectral_cutoff, tikhonov
from ratelab.gram import Dataset, GaussianRBF, GramEigen, assemble_gram, eigendecompose
from ratelab.index_functions import HolderIndex
from ratelab.mercer import (
    NoiseSpec,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)


def _toy_problem(m=20, d=1, seed=0, sigma=0.2, n_trunc=8):
    model = build_model(b=2.0, d=d, n_trunc=n_trunc)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=sigma), m=m, seed=seed)
    return model, target, data


class TestFit:
    def test_single_point_tikhonov(self):
        """With m = 1 and k(x, x) = 1 the solve is (1 + lam) c = y."""
        model = build_model(b=2.0, n_trunc=8)
        x0 = 0.0
        k00 = float(model.scalar_kernel(np.array([x0]), np.array([x0]))[0, 0])
        data = Dataset(xs=np.array([x0]), ys=np.array([1.0]))
        result = fit(data, model, tikhonov(), lam=1.0)
        expected = 1.0 / (k00 + 1.0)
        assert result.coefficients[0, 0] == pytest.approx(expected, rel=1e-14)
        assert result.predict(np.array([x0]))[0, 0] == pytest.approx(
            k00 * expected, rel=1e-14
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_tikhonov_solve(self, seed):
        model, _, data = _toy_problem(m=24, seed=seed)
        spectral = fit(data, model, tikhonov(), lam=0.05)
        direct = fit_tikhonov_direct(data, model, lam=0.05)
        np.testing.assert_allclose(
            spectral.coefficients, direct.coefficients, rtol=1e-10, atol=1e-14
        )

    def test_matches_direct_solve_on_factored_path(self):
        """m above the feature count exercises the factored decomposition."""
        model, _, data = _toy_problem(m=40, n_trunc=8, seed=3)
        assert data.m > model.n_trunc
        spectral = fit(data, model, tikhonov(), lam=0.05)
        direct = fit_tikhonov_direct(data, model, lam=0.05)
        np.testing.assert_allclose(
            spectral.coefficients, direct.coefficients, rtol=1e-10, atol=1e-14
        )

    def test_matches_direct_solve_with_duplicate_inputs(self):
        """Repeated inputs make the Gram singular; the null-space term covers it."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.array([0.5, 0.5, 2.0, 4.0])
        ys = np.array([1.0, -1.0, 0.5, 0.25])
        data = Dataset(xs=xs, ys=ys)
        spectral = fit(data, model, tikhonov(), lam=0.1)
        direct = fit_tikhonov_direct(data, model, lam=0.1)
        np.testing.assert_allclose(
            spectral.coefficients, direct.coefficients, rtol=1e-10, atol=1e-14
        )

    def test_matches_direct_solve_for_rbf_kernel(self):
        kernel = GaussianRBF(lengthscale=1.0)
        rng = np.random.default_rng(4)
        data = Dataset(xs=rng.uniform(0, 2 * np.pi, 12), ys=rng.standard_normal(12))
        spectral = fit(data, kernel, tikhonov(), lam=0.02)
        direct = fit_tikhonov_direct(data, kernel, lam=0.02)
        np.testing.assert_allclose(
            spectral.coefficients, direct.coefficients, rtol=1e-10, atol=1e-14
        )

    def test_iterated_tikhonov_shrinks_less(self):
        """More iterations pass more signal, so training residuals shrink."""
        model, _, data = _toy_problem(m=24, seed=5)
        one = fit(data, model, tikhonov(), lam=0.1)
        two = fit(data, model, iterated_tikhonov(2), lam=0.1)
        resid_one = np.linalg.norm(one.predict(data.xs) - data.ys)
        resid_two = np.linalg.norm(two.predict(data.xs) - data.ys)
        assert resid_two < resid_one

    def test_cutoff_interpolates_below_threshold(self):
        """A cutoff below every Gram eigenvalue reproduces the training data."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.array([0.3, 1.2, 2.6])
        ys = np.array([0.4, -0.2, 0.9])
        data = Dataset(xs=xs, ys=ys)
        result = fit(data, model, spectral_cutoff(), lam=1e-6)
        assert result.gram.eigenvalues.min() > 1e-6
        np.testing.assert_allclose(result.predict(xs), data.ys, rtol=1e-8)

    def test_landweber_near_tikhonov_for_small_lambda(self):
        model, _, data = _toy_problem(m=16, seed=6)
        step = 1.0 / model.kappa_sq
        result = fit(data, model, landweber(step=step), lam=0.05)
        assert result.coefficients.shape == (16, 1)
        assert np.isfinite(result.coefficients).all()

    def test_lambda_must_be_positive(self):
        model, _, data = _toy_problem(m=8)
        with pytest.raises(ParameterError):
            fit(data, model, tikhonov(), lam=0.0)


N_FACTORED = 16


def _four_filters(model):
    return {
        "tikhonov": tikhonov(),
        "iterated_tikhonov": iterated_tikhonov(3),
        "landweber": landweber(step=1.0 / model.kappa_sq),
        "cutoff": spectral_cutoff(),
    }


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestFactoredFit:
    """The factored eigensystem fits like the dense Gram it decomposes."""

    @pytest.mark.parametrize(
        "m", [N_FACTORED, N_FACTORED + 1, 2 * N_FACTORED, 8 * N_FACTORED]
    )
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_the_dense_oracle(self, m, d):
        """The feature-domain expansion, and the coefficient rows derived from it on
        request, against a fit on the dense m x m eigensystem, from m = N on."""
        model, _, data = _toy_problem(m=m, d=d, seed=m + d, n_trunc=N_FACTORED)
        dense = eigendecompose(assemble_gram(model, data.xs, model.basis(data.xs)))
        for name, filt in _four_filters(model).items():
            factored = fit(data, model, filt, lam=0.05)
            assert not factored.gram.complete, name
            assert factored.dual is None, name
            oracle = fit(data, model, filt, lam=0.05, gram=dense)
            assert factored.expansion.shape == (N_FACTORED, d)
            assert basis_coefficients(factored, model) is factored.expansion
            assert _relative_gap(
                factored.expansion, basis_coefficients(oracle, model)
            ) <= 1e-10, name
            assert factored.coefficients.shape == (m, d)
            assert _relative_gap(factored.coefficients, oracle.coefficients) <= 1e-10, name

    def test_never_builds_the_eigenvector_matrix(self, monkeypatch):
        def refuse(_):
            raise AssertionError("fit built the (m, k) eigenvector matrix")

        monkeypatch.setattr(GramEigen, "vectors", property(refuse))
        model, target, data = _toy_problem(m=4 * N_FACTORED, d=3, n_trunc=N_FACTORED)
        for filt in _four_filters(model).values():
            result = fit(data, model, filt, lam=0.05)
            assert np.isfinite(error_norms(result, model, target).l2)


def _eigh_oracle(data, model, filt, lam):
    """Filtered coefficients from a full np.linalg.eigh of the scaled Gram, built here.

    c = (1/m) V (g(w) - g(0)) V^T y + (g(0)/m) y over all m eigenpairs,
    negative round-off clamped to zero, independent of `GramEigen`.
    """
    vals, vecs = np.linalg.eigh(assemble_gram(model, data.xs))
    g_null = filt.values(0.0, lam)
    g_vals = np.atleast_1d(filt.values(np.maximum(vals, 0.0), lam)) - g_null
    return (vecs @ (g_vals[:, None] * (vecs.T @ data.ys)) + g_null * data.ys) / data.m


class TestEighOracle:
    """Both fit paths match coefficients built from np.linalg.eigh in the test itself."""

    @pytest.mark.parametrize(
        "m", [1, 2, 5, N_FACTORED, N_FACTORED + 1, 8 * N_FACTORED]
    )
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_an_eigh_eigensystem(self, m, d):
        model, _, data = _toy_problem(m=m, d=d, seed=m + d, n_trunc=N_FACTORED)
        for name, filt in _four_filters(model).items():
            result = fit(data, model, filt, lam=0.05)
            assert result.gram.complete == (m < N_FACTORED), name
            oracle = _eigh_oracle(data, model, filt, 0.05)
            assert result.coefficients.shape == (m, d)
            assert _relative_gap(result.coefficients, oracle) <= 1e-10, name
        direct = fit_tikhonov_direct(data, model, lam=0.05)
        tik = fit(data, model, tikhonov(), lam=0.05)
        assert _relative_gap(tik.coefficients, direct.coefficients) <= 1e-10

    def test_fits_without_eigh(self, monkeypatch):
        """Neither path calls np.linalg.eigh, dense (m < N) or factored (m >= N)."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("np.linalg.eigh was called")

        for m in (N_FACTORED // 2, 4 * N_FACTORED):
            model, target, data = _toy_problem(m=m, d=3, seed=m, n_trunc=N_FACTORED)
            oracle = _eigh_oracle(data, model, tikhonov(), 0.05)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", refuse)
                result = fit(data, model, tikhonov(), lam=0.05)
                assert np.isfinite(error_norms(result, model, target).l2)
            assert result.gram.complete == (m < N_FACTORED)
            assert _relative_gap(result.coefficients, oracle) <= 1e-10


class TestErrorNorms:
    def test_basis_expansion_reproduces_predictions(self):
        model, _, data = _toy_problem(m=24, seed=7)
        result = fit(data, model, tikhonov(), lam=0.05)
        coeffs = basis_coefficients(result, model)
        grid = np.linspace(0.0, 2 * np.pi, 50)
        feats = model.basis(grid)
        expansion = feats @ (np.sqrt(model.eigenvalues)[:, None] * coeffs)
        np.testing.assert_allclose(result.predict(grid), expansion, atol=1e-12)

    def test_exact_l2_matches_montecarlo(self):
        model, target, data = _toy_problem(m=24, seed=8)
        result = fit(data, model, tikhonov(), lam=0.05)
        exact = error_norms(result, model, target)
        approx = error_l2_montecarlo(result, target, points=20_000)
        assert approx == pytest.approx(exact.l2, rel=1e-3)

    def test_perfect_fit_has_zero_error(self):
        """Noiseless data plus a tiny cutoff recovers the target exactly."""
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.0), m=24, seed=9)
        result = fit(data, model, spectral_cutoff(), lam=1e-9)
        errs = error_norms(result, model, target)
        assert errs.l2 < 1e-7
        assert errs.rkhs < 1e-6

    def test_exact_norms_need_the_models_own_kernel(self):
        model, target, data = _toy_problem(m=12, seed=10)
        rbf = fit(data, GaussianRBF(lengthscale=1.0), tikhonov(), lam=0.05)
        with pytest.raises(UnsupportedNormError):
            error_norms(rbf, model, target)

    def test_export_round_trip(self):
        model, _, data = _toy_problem(m=6, seed=11)
        result = fit(data, model, tikhonov(), lam=0.05)
        dump = export_coefficients(result)
        assert set(dump) == {"lam", "filter", "xs", "coefficients"}
        assert dump["lam"] == 0.05
        assert len(dump["xs"]) == 6
        assert dump["filter"]["id"] == "tikhonov"
