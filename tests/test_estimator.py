"""Tests for spectral-filter fitting and error norms."""

import warnings

import numpy as np
import pytest

from ratelab import estimator
from ratelab._lapack import lapack
from ratelab.errors import ParameterError, UnsupportedNormError
from ratelab.estimator import (
    basis_coefficients,
    error_norms,
    export_coefficients,
    fit,
)
from ratelab.filters import iterated_tikhonov, landweber, spectral_cutoff, tikhonov
from ratelab.gram import (
    Dataset,
    GramEigen,
    assemble_gram,
    eigendecompose,
    mercer_gram_eigen,
    spectral_norm,
)
from ratelab.index_functions import HolderIndex
from ratelab.mercer import (
    NoiseSpec,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)

from oracles import (
    basis,
    error_l2_montecarlo,
    features,
    fit_tikhonov_direct,
    predict,
    rank,
)


def _toy_problem(m=20, d=1, seed=0, sigma=0.2, n_trunc=8):
    model = build_model(b=2.0, d=d, n_trunc=n_trunc)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=sigma), m=m, seed=seed)
    return model, target, data


def _expansion_of(model, xs, rows):
    """Phi^T c for coefficient rows c at ``xs``, Phi = B diag(sqrt t) built in
    the oracles: the expansion against sqrt(t_n) e_n of sum_i k(., x_i) c_i."""
    return features(model, xs).T @ rows


class TestFit:
    def test_single_point_tikhonov(self):
        """With m = 1 the solve is (k(x, x) + lam) c = y, and the expansion
        Phi^T c."""
        model = build_model(b=2.0, n_trunc=8)
        x0 = 0.0
        k00 = float(model.scalar_kernel(np.array([x0]))[0, 0])
        data = Dataset(xs=np.array([x0]), ys=np.array([1.0]))
        result = fit(data, model, tikhonov(), lam=1.0)
        expected = 1.0 / (k00 + 1.0)
        np.testing.assert_allclose(
            result.expansion, _expansion_of(model, data.xs, [[expected]]), rtol=1e-14
        )
        assert predict(result, np.array([x0]))[0, 0] == pytest.approx(
            k00 * expected, rel=1e-14
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_tikhonov_solve(self, seed):
        model, _, data = _toy_problem(m=24, seed=seed)
        spectral = fit(data, model, tikhonov(), lam=0.05)
        direct = fit_tikhonov_direct(data, model, lam=0.05)
        np.testing.assert_allclose(spectral.expansion, direct.expansion, rtol=1e-10, atol=1e-14)

    def test_matches_direct_solve_on_factored_path(self):
        """m above the feature count exercises the factored decomposition."""
        model, _, data = _toy_problem(m=40, n_trunc=8, seed=3)
        assert data.m > model.n_trunc
        spectral = fit(data, model, tikhonov(), lam=0.05)
        direct = fit_tikhonov_direct(data, model, lam=0.05)
        np.testing.assert_allclose(spectral.expansion, direct.expansion, rtol=1e-10, atol=1e-14)

    def test_matches_direct_solve_with_duplicate_inputs(self):
        """Repeated inputs make the Gram singular; the null-space term covers it."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.array([0.5, 0.5, 2.0, 4.0])
        ys = np.array([1.0, -1.0, 0.5, 0.25])
        data = Dataset(xs=xs, ys=ys)
        spectral = fit(data, model, tikhonov(), lam=0.1)
        direct = fit_tikhonov_direct(data, model, lam=0.1)
        np.testing.assert_allclose(spectral.expansion, direct.expansion, rtol=1e-10, atol=1e-14)

    def test_iterated_tikhonov_shrinks_less(self):
        """More iterations pass more signal, so training residuals shrink."""
        model, _, data = _toy_problem(m=24, seed=5)
        one = fit(data, model, tikhonov(), lam=0.1)
        two = fit(data, model, iterated_tikhonov(2), lam=0.1)
        resid_one = np.linalg.norm(predict(one, data.xs) - data.ys)
        resid_two = np.linalg.norm(predict(two, data.xs) - data.ys)
        assert resid_two < resid_one

    def test_cutoff_interpolates_below_threshold(self):
        """A cutoff below every Gram eigenvalue reproduces the training data."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.array([0.3, 1.2, 2.6])
        ys = np.array([0.4, -0.2, 0.9])
        data = Dataset(xs=xs, ys=ys)
        result = fit(data, model, spectral_cutoff(), lam=1e-6)
        assert eigendecompose(assemble_gram(model, xs)).eigenvalues.min() > 1e-6
        np.testing.assert_allclose(predict(result, xs), data.ys, rtol=1e-8)

    def test_landweber_near_tikhonov_for_small_lambda(self):
        model, _, data = _toy_problem(m=16, seed=6)
        step = 1.0 / model.kappa_sq
        result = fit(data, model, landweber(step=step), lam=0.05)
        assert result.expansion.shape == (model.n_trunc, 1)
        assert np.isfinite(result.expansion).all()

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
        """The feature-domain expansion against a fit on the dense m x m
        eigensystem, from m = N on."""
        model, _, data = _toy_problem(m=m, d=d, seed=m + d, n_trunc=N_FACTORED)
        dense = eigendecompose(assemble_gram(model, data.xs, basis(model, data.xs)))
        for name, filt in _four_filters(model).items():
            factored = fit(data, model, filt, lam=0.05)
            oracle = fit(data, model, filt, lam=0.05, gram=dense)
            assert factored.expansion.shape == (N_FACTORED, d)
            assert basis_coefficients(factored, model) is factored.expansion
            assert _relative_gap(
                factored.expansion, basis_coefficients(oracle, model)
            ) <= 1e-10, name

    def test_never_builds_the_eigenvector_matrix(self, monkeypatch):
        """Eigenvectors are applied to the fit's d = 3 columns, never to the
        identity that would build them whole."""
        combine = GramEigen.combine

        def narrow(self, z):
            assert z.shape[1] <= 3, "fit built the (m, k) eigenvector matrix"
            return combine(self, z)

        monkeypatch.setattr(GramEigen, "combine", narrow)
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
    """Both fit paths match coefficients built from np.linalg.eigh in the test
    itself, through their expansion Phi^T c."""

    @pytest.mark.parametrize(
        "m", [1, 2, 5, N_FACTORED, N_FACTORED + 1, 8 * N_FACTORED]
    )
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_an_eigh_eigensystem(self, m, d):
        model, _, data = _toy_problem(m=m, d=d, seed=m + d, n_trunc=N_FACTORED)
        for name, filt in _four_filters(model).items():
            result = fit(data, model, filt, lam=0.05)
            want = _expansion_of(model, data.xs, _eigh_oracle(data, model, filt, 0.05))
            assert result.expansion.shape == want.shape
            assert _relative_gap(result.expansion, want) <= 1e-10, name
        direct = fit_tikhonov_direct(data, model, lam=0.05)
        tik = fit(data, model, tikhonov(), lam=0.05)
        assert _relative_gap(tik.expansion, direct.expansion) <= 1e-10

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
            assert _relative_gap(result.expansion, _expansion_of(model, data.xs, oracle)) <= 1e-10


def _solve_iterated(matrix, rhs, lam, nu):
    """sum_{j=1..nu} lam^(j-1) (A + lam I)^(-j) rhs by dense solves, built here."""
    shifted = matrix + lam * np.eye(matrix.shape[0])
    out = np.zeros_like(rhs)
    for _ in range(nu):
        out = np.linalg.solve(shifted, rhs + lam * out)
    return out


def _count_lapack(monkeypatch, *names):
    """Record each call of the named LAPACK wrappers, by name, in one list."""
    calls = []
    for name in names:
        real = getattr(lapack, name)
        monkeypatch.setattr(
            lapack, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
        )
    return calls


class TestResolventFit:
    """The Tikhonov family fits by one Cholesky factorization, against oracles that
    solve densely or diagonalize, built here, on both sides of m = N."""

    @pytest.mark.parametrize("m", [N_FACTORED // 2, N_FACTORED, 4 * N_FACTORED])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("nu", [1, 3])
    def test_matches_dense_solves(self, m, d, nu, monkeypatch):
        model, _, data = _toy_problem(m=m, d=d, seed=10 * m + d, n_trunc=N_FACTORED)
        filt = tikhonov() if nu == 1 else iterated_tikhonov(nu)
        lam = 0.05
        calls = _count_lapack(monkeypatch, "dsytrd", "dstevd")
        factored = _count_lapack(monkeypatch, "dpotrf")
        result = fit(data, model, filt, lam=lam)
        if m < N_FACTORED:
            gram = assemble_gram(model, data.xs)
            oracle = _expansion_of(model, data.xs, _solve_iterated(gram, data.ys / m, lam, nu))
            assert _relative_gap(result.expansion, oracle) <= 1e-10
            if nu == 1:
                direct = fit_tikhonov_direct(data, model, lam=lam).expansion
                assert _relative_gap(result.expansion, direct) <= 1e-10
        else:
            operator = model.empirical_operator(model.moments_of(data))
            u = np.sqrt(model.eigenvalues)[:, None] * model.moments_of(data).response
            assert _relative_gap(result.expansion, _solve_iterated(operator, u, lam, nu)) <= 1e-10
            vals, vecs = np.linalg.eigh(operator)
            gain = filt.values(np.maximum(vals, 0.0), lam)
            by_eigh = vecs @ (gain[:, None] * (vecs.T @ u))
            assert _relative_gap(result.expansion, by_eigh) <= 1e-10
        assert calls == []
        assert factored == ["dpotrf"]  # a Cholesky factorization, no eigenpairs
        assert (result.clamped, result.dropped) == (0.0, 0)

    @pytest.mark.parametrize("m", [N_FACTORED // 2, 4 * N_FACTORED])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("nu", [1, 3])
    def test_coefficients_need_no_eigensolve(self, m, d, nu, monkeypatch):
        """With no eigensolve, the expansion against Phi^T c for rows built here
        from an eigh of the m x m Gram, on both sides of m = N."""
        model, _, data = _toy_problem(m=m, d=d, seed=m + 10 * d + nu, n_trunc=N_FACTORED)
        filt = tikhonov() if nu == 1 else iterated_tikhonov(nu)
        lam = 0.05
        calls = _count_lapack(monkeypatch, "dsytrd", "dstevd")
        result = fit(data, model, filt, lam=lam)
        assert calls == []
        want = _expansion_of(model, data.xs, _eigh_oracle(data, model, filt, lam))
        assert result.expansion.shape == want.shape
        assert _relative_gap(result.expansion, want) <= 1e-10

    def test_nonpositive_pivot_falls_back_to_the_clamped_eigenpairs(self, monkeypatch):
        """lam below a negative round-off eigenvalue: G + lam I is indefinite, so the
        fit filters the eigenpairs, which clamp that eigenvalue to zero, and raises
        nothing. A decomposition passed in keeps its matrix; one the fit builds
        and factors in place gets it back before it is reduced. G is made by
        hand and stands for the Gram of a MercerModel at five inputs."""
        reduced = []
        real = lapack.dsytrd
        monkeypatch.setattr(
            lapack, "dsytrd", lambda a, *r, **k: reduced.append(a.T.copy()) or real(a, *r, **k)
        )
        rng = np.random.default_rng(12)
        rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        spectrum = np.array([1.0, 0.5, 0.25, 0.1, -1e-12])
        gram = (rotation * spectrum) @ rotation.T
        model = build_model(b=2.0, n_trunc=8)
        data = Dataset(xs=np.arange(5.0), ys=rng.standard_normal((5, 2)))
        lam = 1e-13
        clamped = np.maximum(spectrum, 0.0)
        rows = rotation @ ((rotation.T @ data.ys) / (clamped + lam)[:, None]) / 5
        oracle = _expansion_of(model, data.xs, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = eigendecompose(gram)
            kept = eig.matrix.copy()
            assert tikhonov().apply_matrix(eig.matrix, np.ones((5, 1)), lam) is None
            result = fit(data, model, tikhonov(), lam, gram=eig)
            with monkeypatch.context() as patch:
                patch.setattr(estimator, "assemble_gram", lambda *_args: gram)
                own = fit(data, model, tikhonov(), lam)
        assert np.array_equal(eig.matrix, kept)
        assert len(reduced) == 2 and np.array_equal(reduced[0], kept)
        assert _relative_gap(result.expansion, oracle) <= 1e-10
        assert result.clamped == eig.clamped == pytest.approx(1e-12, rel=1e-3)
        assert len(reduced) == 2  # eig.clamped was read off the fit's own reduction of eig
        assert np.array_equal(reduced[1], kept)
        assert _relative_gap(own.expansion, oracle) <= 1e-10
        assert own.clamped == pytest.approx(1e-12, rel=1e-3)


class TestSharedDecomposition:
    """A decomposition passed to several fits keeps its matrix: whatever order
    filters read it in, each fit has the bits of a fit on a fresh one."""

    @pytest.mark.parametrize("m", [N_FACTORED // 2, 4 * N_FACTORED])
    @pytest.mark.parametrize("first, second", [("cutoff", "tikhonov"), ("tikhonov", "cutoff")])
    def test_each_order_gives_fresh_bits(self, m, first, second):
        model, _, data = _toy_problem(m=m, d=2, seed=m, n_trunc=N_FACTORED)
        if m < N_FACTORED:
            shared = eigendecompose(assemble_gram(model, data.xs, data.features))
        else:
            shared = mercer_gram_eigen(model, model.moments_of(data))
        kept = shared.matrix.copy()
        filters = {"cutoff": spectral_cutoff(), "tikhonov": iterated_tikhonov(3)}
        for name in (first, second):
            reused = fit(data, model, filters[name], lam=0.05, gram=shared)
            fresh = fit(data, model, filters[name], lam=0.05)
            assert np.array_equal(reused.expansion, fresh.expansion), name
            assert (reused.clamped, reused.dropped) == (fresh.clamped, fresh.dropped), name
            assert np.array_equal(shared.matrix, kept), name
        assert np.array_equal(shared.matrix, kept)


class TestOneSolve:
    """An eigenpair fit reduces its matrix once and solves the whole tridiagonal
    spectrum once, reading its health from that spectrum with no bisection; a
    Tikhonov fit runs none of the three, and only `spectral_norm` bisects, for
    the two ends of its spectrum."""

    @pytest.mark.parametrize("m", [N_FACTORED // 2, N_FACTORED, 4 * N_FACTORED])
    @pytest.mark.parametrize("kind, per_fit", [("cutoff", 1), ("tikhonov", 0)])
    def test_lapack_calls_per_fit(self, m, kind, per_fit, monkeypatch):
        model, _, data = _toy_problem(m=m, d=2, seed=m, n_trunc=N_FACTORED)
        filt = spectral_cutoff() if kind == "cutoff" else tikhonov()
        calls = _count_lapack(monkeypatch, "dsytrd", "dstevd", "dstebz")
        result = fit(data, model, filt, lam=0.05)
        assert result.clamped >= 0.0
        assert result.expansion.shape == (N_FACTORED, 2)
        assert sorted(calls) == ["dstevd", "dsytrd"] * per_fit
        if per_fit:
            if m < N_FACTORED:
                own = eigendecompose(assemble_gram(model, data.xs, data.features))
            else:
                own = mercer_gram_eigen(model, model.moments_of(data))
            assert rank(own) == own.size - result.dropped

    @pytest.mark.parametrize("m", [N_FACTORED // 2, N_FACTORED, 4 * N_FACTORED])
    @pytest.mark.parametrize("kind", ["cutoff", "landweber"])
    def test_eigenpair_fit_reflects_twice(self, m, kind, monkeypatch):
        """An eigenpair fit applies the reflectors of its reduction twice, once
        to project the fit's d columns and once to combine them back; a
        Tikhonov fit never."""
        model, _, data = _toy_problem(m=m, d=2, seed=m, n_trunc=N_FACTORED)
        filt = _four_filters(model)[kind]
        calls = _count_lapack(monkeypatch, "dormqr")
        fit(data, model, filt, lam=0.05)
        assert calls == ["dormqr", "dormqr"]
        fit(data, model, tikhonov(), lam=0.05)
        assert calls == ["dormqr", "dormqr"]

    def test_spectral_norm_bisects_twice(self, monkeypatch):
        raw = np.random.default_rng(1).standard_normal((12, 12))
        calls = _count_lapack(monkeypatch, "dsytrd", "dstevd", "dstebz")
        spectral_norm(raw + raw.T)
        assert sorted(calls) == ["dstebz", "dstebz", "dsytrd"]


class TestErrorNorms:
    def test_basis_expansion_reproduces_predictions(self):
        model, _, data = _toy_problem(m=24, seed=7)
        result = fit(data, model, tikhonov(), lam=0.05)
        coeffs = basis_coefficients(result, model)
        grid = np.linspace(0.0, 2 * np.pi, 50)
        feats = basis(model, grid)
        expansion = feats @ (np.sqrt(model.eigenvalues)[:, None] * coeffs)
        np.testing.assert_allclose(predict(result, grid), expansion, atol=1e-12)

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
        """Norms and the expansion both refuse a fit under a second model of the
        same N, on either side of m = N."""
        for m in (6, 12):
            model, target, data = _toy_problem(m=m, seed=10)
            twin = fit(data, build_model(b=2.0, n_trunc=model.n_trunc), tikhonov(), lam=0.05)
            with pytest.raises(UnsupportedNormError):
                error_norms(twin, model, target)
            with pytest.raises(UnsupportedNormError):
                basis_coefficients(twin, model)

    def test_export_round_trip(self):
        model, _, data = _toy_problem(m=6, seed=11)
        result = fit(data, model, tikhonov(), lam=0.05)
        dump = export_coefficients(result)
        assert set(dump) == {"lam", "filter", "expansion"}
        assert dump["lam"] == 0.05
        assert np.array_equal(dump["expansion"], basis_coefficients(result, model))
        assert dump["filter"]["id"] == "tikhonov"
