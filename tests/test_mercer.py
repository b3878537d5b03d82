"""Tests for the trigonometric feature model, targets, and noise models."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from ratelab.errors import (
    AmplitudeError,
    ConstructionError,
    ParameterError,
    SourceViolationError,
)
from ratelab.index_functions import HolderIndex, LogIndex
from ratelab.mercer import (
    MercerModel,
    NoiseSpec,
    approx_error_norms,
    build_model,
    norms_of_expansion,
    population_regularized,
    power_law_source,
    sample_dataset,
    target_from_source,
    trigonometric_basis,
    two_point_weights,
)


class TestBasis:
    def test_orthonormal_under_uniform_measure(self):
        """Averaging B^T B over a fine uniform grid recovers the identity."""
        xs = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        feats = trigonometric_basis(xs, 9)
        gram = feats.T @ feats / 4096
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_first_feature_is_constant(self):
        feats = trigonometric_basis(np.array([0.3, 1.7]), 3)
        np.testing.assert_allclose(feats[:, 0], 1.0)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 here, so it is no oracle",
    )
    @pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 512, 513, 1025])
    def test_equals_per_column_reference(self, count):
        """Column j >= 1 is sqrt(2) cos(kx) for odd j, sqrt(2) sin(kx) for even j,
        k = (j+1)//2, each within 4 k eps of the same formula evaluated in
        np.longdouble (which rounds the angle k x 2^11 times more finely than
        float64). A float64 cos(k x) per column misses this bound by its
        rounded angle alone."""
        xs = np.random.default_rng(count).uniform(0.0, 2 * np.pi, 1024)
        freqs = (np.arange(count) + 1) // 2
        angles = xs.astype(np.longdouble)[:, None] * freqs.astype(np.longdouble)
        ref = np.where(np.arange(count) % 2 == 1, np.cos(angles), np.sin(angles))
        ref *= np.sqrt(np.longdouble(2.0))
        ref[:, 0] = 1.0
        err = np.abs(trigonometric_basis(xs, count).astype(np.longdouble) - ref).max(axis=0)
        eps = np.finfo(float).eps
        assert err[0] == 0.0
        assert np.all(err[1:] <= 4.0 * freqs[1:] * eps)

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 512, 513])
    def test_row_at_origin_is_exact(self, count):
        expected = np.zeros(count)
        expected[0] = 1.0
        expected[1::2] = math.sqrt(2.0)
        assert np.array_equal(trigonometric_basis(np.array([0.0]), count)[0], expected)

    @pytest.mark.parametrize("m", [1, 7, 1031])
    @pytest.mark.parametrize("count", [9, 512, 513])
    def test_rows_do_not_depend_on_the_batch(self, m, count):
        """A sample evaluated alone gives the bits it gets inside any batch."""
        xs = np.random.default_rng(m).uniform(0.0, 2 * np.pi, m)
        batch = trigonometric_basis(xs, count)
        for i in range(m):
            assert np.array_equal(batch[i], trigonometric_basis(xs[i : i + 1], count)[0])


def _unit_spectrum_model(count):
    """A model with t_n = 1, whose empirical operator is B^T B / m itself."""
    return MercerModel(
        eigenvalues=np.ones(count),
        decay_b=1.0,
        decay_alpha=1.0,
        decay_beta=1.0,
        output_dim=1,
        spectrum_rule="explicit",
        kappa_sq=float(1 + 2 * (count // 2)),
    )


class TestEmpiricalOperator:
    """The moment-built operator against the product it replaces."""

    @pytest.mark.parametrize("m", [1, 3, 50, 4096])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 9, 128, 512, 513])
    def test_equals_the_basis_product(self, count, m):
        """Every entry is within 1e-13 of B^T B / m in float64, and the first and
        last 8 rows, which hold every moment up to 2 h, within 1e-13 of the same
        product in np.longdouble. The result is exactly symmetric."""
        model = _unit_spectrum_model(count)
        xs = np.random.default_rng(7 * count + m).uniform(0.0, 2 * np.pi, m)
        basis = model.basis(xs)
        emp = model.empirical_operator(model.sample_moments(xs))
        assert emp.shape == (count, count)
        assert np.array_equal(emp, emp.T)
        assert np.abs(emp - basis.T @ basis / m).max() <= 1e-13
        rows = np.unique(np.r_[0 : min(count, 8), max(count - 8, 0) : count])
        wide = basis.astype(np.longdouble)
        ref = wide[:, rows].T @ wide / m
        assert np.abs(emp[rows] - ref).max() <= 1e-13

    @pytest.mark.parametrize("count", [8, 9])
    def test_scales_by_the_spectrum(self, count):
        model = build_model(b=2.0, n_trunc=count)
        xs = np.random.default_rng(count).uniform(0.0, 2 * np.pi, 64)
        basis = model.basis(xs)
        root_t = np.sqrt(model.eigenvalues)
        expected = root_t[:, None] * (basis.T @ basis / 64) * root_t[None, :]
        np.testing.assert_allclose(model.empirical_operator(model.sample_moments(xs)), expected, rtol=0, atol=1e-15)

    def test_identity_on_an_alias_free_grid(self):
        """2N equispaced points average products of the N features exactly."""
        model = _unit_spectrum_model(9)
        xs = np.linspace(0.0, 2 * np.pi, 18, endpoint=False)
        np.testing.assert_allclose(model.empirical_operator(model.sample_moments(xs)), np.eye(9), atol=1e-14)


def _grid_sup_energy(model, points=4096):
    """d * sup of sum_n t_n e_n(x)**2 over a uniform grid that contains x = 0."""
    xs = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    feats = trigonometric_basis(xs, model.n_trunc)
    return model.output_dim * float(((feats * feats) @ model.eigenvalues).max())


class TestBuildModel:
    def test_kappa_matches_energy_at_origin(self):
        """Cosine features peak at x = 0, where the grid sup is attained."""
        model = build_model(b=2.0, n_trunc=512)
        assert model.kappa_sq == pytest.approx(_grid_sup_energy(model), rel=1e-12)
        assert model.kappa_sq == pytest.approx(1.8205177181543402, rel=1e-12)

    @pytest.mark.parametrize("n_trunc", [63, 64])
    @pytest.mark.parametrize("d", [1, 3])
    def test_kappa_equals_grid_sup_for_every_spectrum(self, n_trunc, d):
        ns = np.arange(1, n_trunc + 1, dtype=float)
        explicit = ns**-1.5 * (2.0 - (ns - 1.0) / n_trunc)
        for rule in ("lower", "upper", "midpoint", explicit):
            model = build_model(
                b=1.5, alpha=0.5, beta=2.0, spectrum_rule=rule, d=d, n_trunc=n_trunc
            )
            assert model.kappa_sq == pytest.approx(_grid_sup_energy(model), rel=1e-12)

    def test_output_dim_scales_kappa(self):
        one = build_model(b=2.0, n_trunc=16)
        three = build_model(b=2.0, d=3, n_trunc=16)
        assert three.kappa_sq == pytest.approx(3 * one.kappa_sq, rel=1e-14)

    def test_trace_tail_bound(self):
        model = build_model(b=2.0, n_trunc=512)
        assert model.trace_tail_bound() == pytest.approx(1.0 / 512.0)

    def test_spectrum_rules(self):
        mid = build_model(b=2.0, alpha=0.5, beta=1.5, spectrum_rule="midpoint", n_trunc=8)
        np.testing.assert_allclose(
            mid.eigenvalues, np.arange(1, 9, dtype=float) ** -2.0
        )
        upper = build_model(b=2.0, alpha=0.5, beta=1.5, spectrum_rule="upper", n_trunc=8)
        np.testing.assert_allclose(
            upper.eigenvalues, 1.5 * np.arange(1, 9, dtype=float) ** -2.0
        )

    def test_explicit_spectrum_inside_envelope(self):
        ns = np.arange(1, 9, dtype=float)
        eigs = 1.2 * ns**-2.0
        model = build_model(b=2.0, alpha=1.0, beta=1.5, spectrum_rule=eigs, n_trunc=8)
        assert model.spectrum_rule == "explicit"
        np.testing.assert_allclose(model.eigenvalues, eigs)

    def test_explicit_spectrum_outside_envelope(self):
        ns = np.arange(1, 9, dtype=float)
        with pytest.raises(ConstructionError):
            build_model(b=2.0, alpha=1.0, beta=1.5, spectrum_rule=2.0 * ns**-2.0, n_trunc=8)

    def test_explicit_spectrum_must_decay(self):
        eigs = np.full(8, 0.5)
        with pytest.raises(ConstructionError):
            build_model(b=2.0, alpha=0.1, beta=1.0, spectrum_rule=eigs, n_trunc=8)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_model(b=0.5)
        with pytest.raises(ParameterError):
            build_model(b=2.0, n_trunc=4)
        with pytest.raises(ConstructionError):
            build_model(b=2.0, alpha=2.0, beta=1.0)

    def test_nan_decay_exponent_refused(self):
        with pytest.raises(ParameterError):
            build_model(b=float("nan"), n_trunc=8)


class TestTargets:
    def test_power_law_source_hits_radius(self):
        model = build_model(b=2.0, n_trunc=8)
        src = power_law_source(model, s=1.0, radius=1.5)
        assert float(np.sqrt((src**2).sum())) == pytest.approx(1.5)

    def test_target_coefficients_are_phi_weighted(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        src = power_law_source(model, radius=1.5)
        target = target_from_source(model, phi, src, radius=1.5)
        np.testing.assert_allclose(
            target.coefficients, np.sqrt(model.eigenvalues)[:, None] * src
        )
        assert target.source_norm == pytest.approx(1.5)

    def test_source_norm_cannot_exceed_radius(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        src = power_law_source(model, radius=2.0)
        with pytest.raises(SourceViolationError):
            target_from_source(model, phi, src, radius=1.0)

    def test_expansion_norms(self):
        model = build_model(b=2.0, n_trunc=8)
        coeffs = np.zeros((8, 1))
        coeffs[0, 0], coeffs[1, 0], coeffs[3, 0] = 1.0, 2.0, 1.0
        norms = norms_of_expansion(model, coeffs)
        assert norms.rkhs == pytest.approx(math.sqrt(6.0))
        assert norms.l2 == pytest.approx(1.4361406616345072, rel=1e-12)

    def test_population_regularized_shrinks_modewise(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        reg = population_regularized(model, target, lam=0.25)
        shrink = model.eigenvalues / (model.eigenvalues + 0.25)
        np.testing.assert_allclose(reg.coefficients, shrink[:, None] * target.coefficients)
        assert reg.source_norm < target.source_norm

    def test_evaluate_matches_feature_expansion(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(1.0, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        xs = np.array([0.0, 1.0, 4.0])
        feats = trigonometric_basis(xs, 8)
        expected = feats @ (np.sqrt(model.eigenvalues)[:, None] * target.coefficients)
        np.testing.assert_allclose(target.evaluate(xs), expected)


class TestApproxError:
    def test_worst_case_l2_for_square_root_profile(self):
        """With phi(t) = sqrt(t) the sup of lam t / (t + lam) sits at t_1 = 1."""
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        report = approx_error_norms(model, phi, radius=1.0, lam=0.01, worst_case=True)
        assert report.l2_error == pytest.approx(0.01 / 1.01, rel=1e-12)
        assert report.applicable
        assert all(check.holds for check in report.bounds)

    def test_errors_grow_with_lambda(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        small = approx_error_norms(model, phi, radius=1.0, lam=0.01, worst_case=True)
        large = approx_error_norms(model, phi, radius=1.0, lam=0.1, worst_case=True)
        assert small.l2_error < large.l2_error
        assert small.rkhs_error < large.rkhs_error

    def test_target_case_never_beats_worst_case(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        worst = approx_error_norms(model, phi, radius=1.0, lam=0.05, worst_case=True)
        actual = approx_error_norms(model, phi, radius=1.0, lam=0.05, target=target)
        assert actual.l2_error <= worst.l2_error * (1 + 1e-12)
        assert actual.rkhs_error <= worst.rkhs_error * (1 + 1e-12)

    def test_unlicensed_profile_reports_not_applicable(self):
        """A profile whose monotonicity flags fail licenses no bounds."""
        model = build_model(b=2.0, n_trunc=8)
        phi = LogIndex(p=0.5, nu=1.0, domain_max=model.kappa_sq)
        report = approx_error_norms(model, phi, radius=1.0, lam=0.05, worst_case=True)
        assert not report.applicable
        assert len(report.bounds) == 0

    def test_lambda_domain(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        from ratelab.errors import DomainError

        with pytest.raises(DomainError):
            approx_error_norms(model, phi, radius=1.0, lam=0.0, worst_case=True)
        with pytest.raises(DomainError):
            approx_error_norms(
                model, phi, radius=1.0, lam=2 * model.kappa_sq, worst_case=True
            )


class TestGaussianNoise:
    def test_moment_constants(self):
        spec = NoiseSpec(kind="gaussian", sigma=0.7)
        scale, sd = spec.moment_constants(3)
        assert scale == pytest.approx(2.1 * math.sqrt(3.0))
        assert sd == pytest.approx(1.4 * math.sqrt(3.0))

    def test_certificate_holds(self):
        model = build_model(b=2.0, d=3, n_trunc=8)
        cert = NoiseSpec(kind="gaussian", sigma=0.7).certify(model)
        assert cert.satisfied
        assert cert.moment_value <= cert.moment_limit
        assert cert.moment_value == pytest.approx(0.06408806124676189, rel=1e-9)

    def test_variance_cap_is_informational(self):
        """The closed-form cap fails for these constants but does not veto."""
        model = build_model(b=2.0, n_trunc=8)
        cert = NoiseSpec(kind="gaussian", sigma=1.0).certify(model)
        assert cert.satisfied
        assert not cert.cap_satisfied

    def test_noiseless_is_trivially_certified(self):
        model = build_model(b=2.0, n_trunc=8)
        cert = NoiseSpec(kind="gaussian", sigma=0.0).certify(model)
        assert cert.satisfied
        assert cert.moment_value == 0.0

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.5, 2.0])
    def test_moment_equals_closed_form_at_every_sigma(self, sigma):
        """At d = 1, M = 3 sigma and E[exp(|X|/M) - |X|/M - 1] is free of sigma:
        2 exp(sigma^2 / 2M^2) Phi(sigma/M) - sigma sqrt(2/pi) / M - 1."""
        ratio = 1.0 / 3.0
        normal_cdf = 0.5 * (1.0 + math.erf(ratio / math.sqrt(2.0)))
        closed = 2.0 * math.exp(ratio**2 / 2.0) * normal_cdf - ratio * math.sqrt(2.0 / math.pi) - 1.0
        assert closed == pytest.approx(0.0672005877177568, rel=1e-14)
        cert = NoiseSpec(kind="gaussian", sigma=sigma).certify(build_model(b=2.0, n_trunc=8))
        assert cert.bernstein_scale == pytest.approx(3.0 * sigma)
        assert cert.moment_value == pytest.approx(closed, rel=1e-10)
        assert cert.satisfied

    def test_small_sigma_certificate_in_three_dimensions(self):
        model = build_model(b=2.0, d=3, n_trunc=8)
        cert = NoiseSpec(kind="gaussian", sigma=0.1).certify(model)
        assert math.isfinite(cert.moment_value)
        assert cert.satisfied
        assert cert.moment_value == pytest.approx(0.06408806124676189, rel=1e-9)

    @pytest.mark.parametrize("d", [200, 400])
    def test_moment_matches_chi_expectation_in_high_dimension(self, d):
        """The noise norm is sigma times a chi(d) variable; scipy integrates
        the same moment against that distribution independently."""
        sigma = 1.0
        cert = NoiseSpec(kind="gaussian", sigma=sigma).certify(build_model(b=2.0, d=d, n_trunc=8))
        scale = cert.bernstein_scale
        oracle = stats.chi(d, scale=sigma).expect(lambda r: math.expm1(r / scale) - r / scale)
        assert cert.moment_value == pytest.approx(oracle, rel=1e-8)
        assert cert.satisfied
        assert 0.0 < cert.variance_cap < math.inf

    @pytest.mark.parametrize("d", [1, 3, 50])
    def test_variance_cap_equals_direct_formula(self, d):
        """Where the direct powers and Gamma function stay finite, the log-space
        cap equals pi^(d/2) Sigma^2 / (4 S_d I) computed term by term."""
        cert = NoiseSpec(kind="gaussian", sigma=0.7).certify(build_model(b=2.0, d=d, n_trunc=8))
        surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        tail, _ = quad(lambda t: math.exp(-t * t + t) * t ** (d + 1), 0.0, np.inf, limit=200)
        direct = math.pi ** (d / 2.0) * cert.bernstein_sd**2 / (4.0 * surface * tail)
        assert cert.variance_cap == pytest.approx(
            min(cert.bernstein_scale**2 / 2.0, direct), rel=1e-12
        )


SERIES_DIMS = [1, 2, 3, 5, 50, 200, 400]
SERIES_SIGMAS = [0.05, 0.5, 2.0]


def _split_quad(integrand, point):
    """quad over [0, point] plus [point, inf), to near full precision."""
    tol = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    return quad(integrand, 0.0, point, **tol)[0] + quad(integrand, point, np.inf, **tol)[0]


def _moment_by_quadrature(sigma, scale, d):
    """E[exp(|e|/M) - |e|/M - 1] against the chi density of |e|, in log space,
    split at the density's mode."""
    log_norm = math.log(2.0) - math.lgamma(d / 2.0) - (d / 2.0) * math.log(2.0 * sigma**2)

    def integrand(t):
        if t == 0.0:
            return 0.0
        u = t / scale
        log_density = log_norm + (d - 1) * math.log(t) - t * t / (2.0 * sigma**2)
        return math.exp(u + log_density) - (u + 1.0) * math.exp(log_density)

    return _split_quad(integrand, sigma * math.sqrt(d - 1))


def _variance_cap_by_quadrature(scale, sd, d):
    """min(M^2 / 2, Gamma(d/2) Sigma^2 / (8 I)) with
    I = int_0^inf exp(-t^2 + t) t^(d+1) dt, scaled by its peak."""
    peak = (1.0 + math.sqrt(8.0 * d + 9.0)) / 4.0

    def log_integrand(t):
        return -t * t + t + (d + 1) * math.log(t)

    top = log_integrand(peak)
    scaled = _split_quad(lambda t: math.exp(log_integrand(t) - top) if t > 0 else 0.0, peak)
    log_cap = math.lgamma(d / 2.0) + 2.0 * math.log(sd) - math.log(8.0) - top - math.log(scaled)
    return min(scale**2 / 2.0, math.exp(log_cap))


class TestGaussianSeries:
    """The certificate's chi-moment series against quadrature of the same integrals."""

    @pytest.mark.parametrize("sigma", SERIES_SIGMAS)
    @pytest.mark.parametrize("d", SERIES_DIMS)
    def test_moment_matches_quadrature_and_chi_expectation(self, d, sigma):
        cert = NoiseSpec(kind="gaussian", sigma=sigma).certify(build_model(b=2.0, d=d, n_trunc=8))
        ratio = sigma / cert.bernstein_scale
        chi = stats.chi(d).expect(
            lambda r: math.expm1(r * ratio) - r * ratio, epsabs=0.0, epsrel=1e-13
        )
        assert cert.moment_value == pytest.approx(chi, rel=1e-12, abs=0)
        radial = _moment_by_quadrature(sigma, cert.bernstein_scale, d)
        assert cert.moment_value == pytest.approx(radial, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sigma", SERIES_SIGMAS)
    @pytest.mark.parametrize("d", SERIES_DIMS)
    def test_variance_cap_matches_quadrature(self, d, sigma):
        cert = NoiseSpec(kind="gaussian", sigma=sigma).certify(build_model(b=2.0, d=d, n_trunc=8))
        oracle = _variance_cap_by_quadrature(cert.bernstein_scale, cert.bernstein_sd, d)
        assert oracle < cert.bernstein_scale**2 / 2.0  # the series, not the clip, is tested
        assert cert.variance_cap == pytest.approx(oracle, rel=1e-12, abs=0)


class TestTwoPointNoise:
    def test_moment_constants(self):
        spec = NoiseSpec(kind="two_point", amplitude=4.0)
        scale, sd = spec.moment_constants(1)
        assert scale == pytest.approx(5.0)
        assert sd == pytest.approx(4.0 * math.sqrt(2.0))

    def test_weights_reproduce_the_mean(self):
        atoms, weights = two_point_weights(np.array([0.5, -0.25]), level=2.0, d=2)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0)
        np.testing.assert_allclose(weights @ atoms, [[0.5, -0.25]])
        np.testing.assert_allclose(weights[0], [0.3125, 0.21875, 0.1875, 0.28125])

    def test_weights_reject_overlarge_values(self):
        with pytest.raises(AmplitudeError):
            two_point_weights(np.array([3.0]), level=2.0, d=1)

    def test_certificate_holds_for_large_amplitude(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(
            model, phi, power_law_source(model, radius=0.2), radius=0.2
        )
        cert = NoiseSpec(kind="two_point", amplitude=4.0).certify(model, target=target)
        assert cert.satisfied
        assert cert.moment_value == pytest.approx(0.42554092849246783, rel=1e-9)
        assert cert.moment_limit == pytest.approx(0.64)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("with_target", [False, True])
    def test_moment_matches_an_atom_by_atom_sum(self, d, with_target):
        """The certificate's moment equals a direct sum over atoms +-d L e_j."""
        model = build_model(b=2.0, d=d, n_trunc=16)
        level = 1.5
        probe = np.zeros(d)
        probe[0] = level / 4.0
        candidates = [np.zeros(d), probe, -probe, np.full(d, level / (4.0 * math.sqrt(d)))]
        target = None
        if with_target:
            phi = HolderIndex(0.5, domain_max=model.kappa_sq)
            target = target_from_source(model, phi, power_law_source(model, radius=0.3), 0.3)
            candidates += list(target.evaluate(np.linspace(0.0, 2 * np.pi, 512, endpoint=False)))
        spec = NoiseSpec(kind="two_point", amplitude=level)
        scale, _ = spec.moment_constants(d)

        def direct(f):
            total = 0.0
            for j in range(d):
                for sign in (1.0, -1.0):
                    atom = np.zeros(d)
                    atom[j] = sign * d * level
                    weight = (level + sign * f[j]) / (2.0 * d * level)
                    u = math.sqrt(sum((a - b) ** 2 for a, b in zip(atom, f))) / scale
                    total += weight * (math.exp(u) - u - 1.0)
            return total

        expected = max(direct(f) for f in candidates)
        cert = spec.certify(model, target=target)
        assert cert.moment_value == pytest.approx(expected, rel=1e-14)

    def test_decertified_when_target_exceeds_amplitude(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(
            model, phi, power_law_source(model, radius=0.2), radius=0.2
        )
        cert = NoiseSpec(kind="two_point", amplitude=1e-4).certify(model, target=target)
        assert not cert.satisfied
        assert cert.moment_value == math.inf


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        noise = NoiseSpec(kind="gaussian", sigma=0.3)
        first = sample_dataset(model, target, noise, m=16, seed=5)
        second = sample_dataset(model, target, noise, m=16, seed=5)
        np.testing.assert_array_equal(first.xs, second.xs)
        np.testing.assert_array_equal(first.ys, second.ys)

    def test_noiseless_outputs_are_exact(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.0), m=8, seed=1)
        np.testing.assert_allclose(data.ys, target.evaluate(data.xs), atol=1e-15)

    def test_two_point_outputs_sit_on_atoms(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(
            model, phi, power_law_source(model, radius=0.2), radius=0.2
        )
        data = sample_dataset(model, target, NoiseSpec(kind="two_point", amplitude=4.0), m=64, seed=2)
        np.testing.assert_allclose(np.abs(data.ys), 4.0)

    def test_shapes(self):
        model = build_model(b=2.0, d=2, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.1), m=10, seed=0)
        assert data.xs.shape == (10,)
        assert data.ys.shape == (10, 2)
