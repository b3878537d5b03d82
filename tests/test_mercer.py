"""Tests for the trigonometric feature model, targets, and noise models."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from ratelab.errors import (
    CHECK_SLACK,
    AmplitudeError,
    ConstructionError,
    ParameterError,
    SourceViolationError,
)
from ratelab.index_functions import HolderIndex, LogIndex
from ratelab.mercer import (
    GRID_POINTS,
    MercerModel,
    NoiseSpec,
    approx_error_norms,
    build_model,
    draw_inputs,
    norms_of_expansion,
    power_law_source,
    real_features,
    sample_dataset,
    target_from_source,
    trigonometric_basis,
    two_point_weights,
)

from oracles import basis, basis_scale


class TestBasis:
    def test_orthonormal_under_uniform_measure(self):
        """Averaging B^T B over a fine uniform grid recovers the identity."""
        xs = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        feats = real_features(trigonometric_basis(xs, 9), 9, basis_scale(9))
        assert feats.shape == (4096, 9)
        gram = feats.T @ feats / 4096
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 9])
    def test_real_features_are_the_columns_of_the_table(self, count):
        """1, then sqrt(2) times the real and imaginary parts of e^(i k x)."""
        xs = np.array([0.3, 1.7, 4.0])
        table = trigonometric_basis(xs, count)
        assert table.shape == (3, count // 2 + 1)
        # real_features consumes the table
        cos, sin = math.sqrt(2.0) * table[:, 1:].real, math.sqrt(2.0) * table[:, 1:].imag
        feats = real_features(table, count, basis_scale(count))
        assert feats.shape == (3, count)
        np.testing.assert_array_equal(feats[:, 0], 1.0)
        np.testing.assert_array_equal(feats[:, 1::2], cos)
        np.testing.assert_array_equal(feats[:, 2::2], sin[:, : (count - 1) // 2])

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 here, so it is no oracle",
    )
    @pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 512, 513, 1025])
    def test_equals_per_column_reference(self, count):
        """Column k holds e^(i k x): its real and imaginary parts are each within
        4 k eps of cos(k x) and sin(k x) evaluated in np.longdouble (which rounds
        the angle k x 2^11 times more finely than float64). A float64
        e^(i k x) per column misses this bound by its rounded angle alone."""
        xs = np.random.default_rng(count).uniform(0.0, 2 * np.pi, 1024)
        freqs = np.arange(count // 2 + 1)
        angles = xs.astype(np.longdouble)[:, None] * freqs.astype(np.longdouble)
        table = trigonometric_basis(xs, count)
        err_re = np.abs(table.real.astype(np.longdouble) - np.cos(angles)).max(axis=0)
        err_im = np.abs(table.imag.astype(np.longdouble) - np.sin(angles)).max(axis=0)
        eps = np.finfo(float).eps
        assert err_re[0] == 0.0 and err_im[0] == 0.0
        assert np.all(err_re[1:] <= 4.0 * freqs[1:] * eps)
        assert np.all(err_im[1:] <= 4.0 * freqs[1:] * eps)

    def test_first_feature_is_constant(self):
        """Frequency 0 is exactly 1 in the table, and so is the first feature."""
        table = trigonometric_basis(np.array([0.3, 1.7]), 3)
        assert np.array_equal(table[:, 0], np.ones(2, dtype=complex))
        assert np.array_equal(real_features(table, 3, basis_scale(3))[:, 0], np.ones(2))

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 512, 513])
    def test_row_at_origin_is_exact(self, count):
        """At x = 0 every table entry is exactly 1, and the real features are
        exactly 1, sqrt(2), 0, sqrt(2), ..."""
        table = trigonometric_basis(np.array([0.0]), count)
        assert np.array_equal(table[0], np.ones(count // 2 + 1, dtype=complex))
        expected = np.zeros(count)
        expected[0] = 1.0
        expected[1::2] = math.sqrt(2.0)
        assert np.array_equal(real_features(table, count, basis_scale(count))[0], expected)

    @pytest.mark.parametrize("m", [1, 7, 1031])
    @pytest.mark.parametrize("count", [9, 512, 513])
    def test_rows_do_not_depend_on_the_batch(self, m, count):
        """A sample evaluated alone gives the bits it gets inside any batch."""
        xs = np.random.default_rng(m).uniform(0.0, 2 * np.pi, m)
        batch = trigonometric_basis(xs, count)
        for i in range(m):
            assert np.array_equal(batch[i], trigonometric_basis(xs[i : i + 1], count)[0])


class TestGridExpansion:
    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 here, so it is no oracle",
    )
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("count", [8, 9, 511, 512, 513, 1024, 1025])
    def test_equals_the_basis_product_in_long_double(self, count, d):
        """`expand_on_grid` against the basis product at x_j = 2 pi j / 512 in
        np.longdouble, each angle reduced exactly as 2 pi (k j mod 512) / 512,
        within 1e-13 of max |f|. From N = 514 on, frequencies above 256 fold
        onto 512 - k with the sine flipped, and 512 onto the constant."""
        model = build_model(b=1.0, d=d, n_trunc=count)
        coefficients = np.random.default_rng(count).standard_normal((count, d))
        freqs = (np.arange(count) + 1) // 2
        turns = (np.arange(GRID_POINTS)[:, None] * freqs) % GRID_POINTS
        angles = 8 * np.arctan(np.longdouble(1)) * turns.astype(np.longdouble) / GRID_POINTS
        basis = np.where(np.arange(count) % 2 == 1, np.cos(angles), np.sin(angles))
        basis *= np.sqrt(np.longdouble(2))
        basis[:, 0] = 1
        want = basis @ (np.sqrt(model.eigenvalues.astype(np.longdouble))[:, None] * coefficients)
        got = model.expand_on_grid(coefficients)
        assert got.shape == (GRID_POINTS, d)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("count", [513, 1024, 1025])
    def test_folded_frequencies_match_expand(self, count):
        """N = 513 reaches frequency 256, whose sine vanishes on the grid, and
        from N = 514 on frequencies fold onto k mod 512; in float64 the grid
        values still match the basis evaluated at the grid."""
        model = build_model(b=1.0, d=2, n_trunc=count)
        coefficients = np.random.default_rng(count).standard_normal((count, 2))
        want = model.expand(coefficients, 2 * np.pi * np.arange(GRID_POINTS) / GRID_POINTS)
        np.testing.assert_allclose(
            model.expand_on_grid(coefficients), want, rtol=0, atol=1e-13 * np.abs(want).max()
        )


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
        bmat = basis(model, xs)
        emp = model.empirical_operator(model.sample_moments(xs))
        assert emp.shape == (count, count)
        assert np.array_equal(emp, emp.T)
        assert np.abs(emp - bmat.T @ bmat / m).max() <= 1e-13
        rows = np.unique(np.r_[0 : min(count, 8), max(count - 8, 0) : count])
        wide = bmat.astype(np.longdouble)
        ref = wide[:, rows].T @ wide / m
        assert np.abs(emp[rows] - ref).max() <= 1e-13

    @pytest.mark.parametrize("count", [8, 9])
    def test_scales_by_the_spectrum(self, count):
        model = build_model(b=2.0, n_trunc=count)
        xs = np.random.default_rng(count).uniform(0.0, 2 * np.pi, 64)
        bmat = basis(model, xs)
        root_t = np.sqrt(model.eigenvalues)
        expected = root_t[:, None] * (bmat.T @ bmat / 64) * root_t[None, :]
        np.testing.assert_allclose(model.empirical_operator(model.sample_moments(xs)), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("count", [8, 9, 512])
    def test_cached_scale_gives_the_bits_of_a_fresh_outer_product(self, count):
        """The unit-spectrum operator times np.outer(sqrt t, sqrt t), formed here,
        bit for bit, on the first call and on later ones."""
        model = build_model(b=2.0, n_trunc=count)
        moments = model.sample_moments(np.random.default_rng(count).uniform(0.0, 2 * np.pi, 64))
        unit = _unit_spectrum_model(count).empirical_operator(moments)
        root_t = np.sqrt(model.eigenvalues)
        expected = unit * np.outer(root_t, root_t)
        for _ in range(2):
            assert np.array_equal(model.empirical_operator(moments), expected)

    def test_identity_on_an_alias_free_grid(self):
        """2N equispaced points average products of the N features exactly."""
        model = _unit_spectrum_model(9)
        xs = np.linspace(0.0, 2 * np.pi, 18, endpoint=False)
        np.testing.assert_allclose(model.empirical_operator(model.sample_moments(xs)), np.eye(9), atol=1e-14)


def _grid_sup_energy(model, points=4096):
    """d * sup of sum_n t_n e_n(x)**2 over a uniform grid that contains x = 0."""
    xs = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    feats = basis(model, xs)
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
        assert float(np.sqrt(np.sum(target.source**2))) == pytest.approx(1.5)

    def test_source_norm_cannot_exceed_radius(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        src = power_law_source(model, radius=2.0)
        with pytest.raises(SourceViolationError):
            target_from_source(model, phi, src, radius=1.0)

    def test_nan_radius_and_source_exponent_refused_by_name(self):
        """Both used to reach the sampler and fail as non-finite data."""
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        with pytest.raises(ParameterError, match="radius must be positive, got nan"):
            target_from_source(model, phi, power_law_source(model), radius=math.nan)
        with pytest.raises(ParameterError, match="source exponent s must be finite, got nan"):
            power_law_source(model, s=math.nan)

    @pytest.mark.parametrize(
        "radius, message",
        [(-1.0, "positive"), (0.0, "positive"), (math.nan, "positive"), (math.inf, "finite")],
    )
    def test_power_law_source_refuses_a_bad_radius_by_name(self, radius, message):
        """A negative radius used to return the negated source, and an infinite
        or NaN one a non-finite source, without a word."""
        model = build_model(b=2.0, n_trunc=8)
        with pytest.raises(ParameterError, match=f"radius must be {message}, got {radius}"):
            power_law_source(model, radius=radius)

    def test_expansion_norms(self):
        model = build_model(b=2.0, n_trunc=8)
        coeffs = np.zeros((8, 1))
        coeffs[0, 0], coeffs[1, 0], coeffs[3, 0] = 1.0, 2.0, 1.0
        norms = norms_of_expansion(model, coeffs)
        assert norms.rkhs == pytest.approx(math.sqrt(6.0))
        assert norms.l2 == pytest.approx(1.4361406616345072, rel=1e-12)

    def test_evaluate_matches_feature_expansion(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(1.0, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        xs = np.array([0.0, 1.0, 4.0])
        feats = basis(model, xs)
        expected = feats @ (np.sqrt(model.eigenvalues)[:, None] * target.coefficients)
        np.testing.assert_allclose(target.evaluate(xs), expected)


def _single_mode_reports(model, phi, radius, lam):
    """The reports for the sources radius * e_n in channel 0, one per mode. The
    error is diagonal in the modes, so the largest of each norm over these
    is its supremum over the class ball of that radius."""
    reports = []
    for n in range(model.n_trunc):
        source = np.zeros((model.n_trunc, model.output_dim))
        source[n, 0] = radius
        target = target_from_source(model, phi, source, radius)
        reports.append(approx_error_norms(model, phi, radius, lam, target=target))
    return reports


def _worst_case(model, phi, radius, lam):
    """(sup L2 error, sup RKHS error) over the class ball (`_single_mode_reports`)."""
    reports = _single_mode_reports(model, phi, radius, lam)
    return max(r.l2_error for r in reports), max(r.rkhs_error for r in reports)


class TestApproxError:
    def test_worst_case_l2_for_square_root_profile(self):
        """With phi(t) = sqrt(t) the sup of lam t / (t + lam) sits at t_1 = 1,
        and the licensed limits hold at every source, the supremum's included."""
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        reports = _single_mode_reports(model, phi, radius=1.0, lam=0.01)
        assert max(r.l2_error for r in reports) == pytest.approx(0.01 / 1.01, rel=1e-12)
        assert all(report.bounds for report in reports)
        assert all(check.passed for report in reports for check in report.bounds)

    def test_errors_grow_with_lambda(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        small = _worst_case(model, phi, radius=1.0, lam=0.01)
        large = _worst_case(model, phi, radius=1.0, lam=0.1)
        assert small[0] < large[0]
        assert small[1] < large[1]

    def test_target_case_never_beats_worst_case(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        worst_l2, worst_rkhs = _worst_case(model, phi, radius=1.0, lam=0.05)
        actual = approx_error_norms(model, phi, radius=1.0, lam=0.05, target=target)
        assert actual.l2_error <= worst_l2 * (1 + 1e-12)
        assert actual.rkhs_error <= worst_rkhs * (1 + 1e-12)

    def test_unlicensed_profile_reports_not_applicable(self):
        """A profile whose monotonicity flags fail licenses no bounds."""
        model = build_model(b=2.0, n_trunc=8)
        phi = LogIndex(p=0.5, nu=1.0, domain_max=model.kappa_sq)
        for report in _single_mode_reports(model, phi, radius=1.0, lam=0.05):
            assert report.bounds == ()

    def test_lambda_domain(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        from ratelab.errors import DomainError

        with pytest.raises(DomainError):
            approx_error_norms(model, phi, radius=1.0, lam=0.0, target=target)
        with pytest.raises(DomainError):
            approx_error_norms(
                model, phi, radius=1.0, lam=2 * model.kappa_sq, target=target
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

    def test_noiseless_is_trivially_certified(self):
        model = build_model(b=2.0, n_trunc=8)
        cert = NoiseSpec(kind="gaussian", sigma=0.0).certify(model)
        assert cert.satisfied
        assert cert.moment_value == 0.0

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_sigma_refused_by_name(self, sigma):
        """NaN used to pass and fail later as 'value nan > limit nan'."""
        with pytest.raises(ParameterError, match="sigma must be >= 0"):
            NoiseSpec(kind="gaussian", sigma=sigma)

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


class TestGaussianSeries:
    """The certificate's chi-moment series against quadrature of the same integral."""

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
        with pytest.raises(AmplitudeError, match=r"\(max \|f_j\| = 3\.0\)"):
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

    @pytest.mark.parametrize("level", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_non_finite_amplitude_refused_by_name(self, level):
        with pytest.raises(ParameterError, match="amplitude must be positive"):
            NoiseSpec(kind="two_point", amplitude=level)

    def test_decertified_when_target_exceeds_amplitude(self):
        model = build_model(b=2.0, n_trunc=8)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(
            model, phi, power_law_source(model, radius=0.2), radius=0.2
        )
        cert = NoiseSpec(kind="two_point", amplitude=1e-4).certify(model, target=target)
        assert not cert.satisfied
        assert cert.moment_value == math.inf


class TestCertificate:
    @pytest.mark.parametrize(
        "kind, level, with_target, holds",
        [
            ("gaussian", 0.0, False, True),
            ("gaussian", 0.05, False, True),
            ("gaussian", 0.5, False, True),
            ("gaussian", 2.0, False, True),
            ("two_point", 1.5, False, True),
            ("two_point", 1.5, True, True),
            ("two_point", 1e-4, True, False),  # the atoms cannot carry the target
        ],
    )
    def test_satisfied_agrees_with_value_and_limit(self, kind, level, with_target, holds):
        """A certificate holds five numbers, and ``satisfied`` is derived from
        the moment value and limit alone, so moving the value moves it."""
        model = build_model(b=2.0, d=3, n_trunc=16)
        target = None
        if with_target:
            phi = HolderIndex(0.5, domain_max=model.kappa_sq)
            target = target_from_source(model, phi, power_law_source(model, radius=0.3), 0.3)
        noise = NoiseSpec(kind, **{"sigma" if kind == "gaussian" else "amplitude": level})
        cert = noise.certify(model, target=target)
        assert [field.name for field in dataclasses.fields(cert)] == [
            "kind", "bernstein_scale", "bernstein_sd", "moment_value", "moment_limit"
        ]
        assert cert.satisfied is holds
        assert cert.satisfied is (cert.moment_value <= cert.moment_limit * (1 + CHECK_SLACK))
        assert dataclasses.replace(cert, moment_value=cert.moment_limit).satisfied
        above = dataclasses.replace(cert, moment_value=2.0 * cert.moment_limit + 1e-300)
        assert not above.satisfied
        if level == 0.0:
            assert cert.moment_value == cert.moment_limit == 0.0
        if not holds:
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

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_draw_inputs_is_the_dataset_draw_of_xs(self, m):
        """`draw_inputs` takes the first draw of `sample_dataset`'s stream, so
        an input-only statistic sees the Dataset's xs bit for bit."""
        model = build_model(b=2.0, n_trunc=16)
        phi = HolderIndex(0.5, domain_max=model.kappa_sq)
        target = target_from_source(model, phi, power_law_source(model), radius=1.0)
        for noise in (NoiseSpec(kind="gaussian", sigma=0.3), NoiseSpec(kind="two_point", amplitude=4.0)):
            seed = np.random.SeedSequence([3, m])
            data = sample_dataset(model, target, noise, m=m, seed=seed)
            xs = draw_inputs(m, np.random.default_rng(seed))
            assert xs.tobytes() == data.xs.tobytes()

    @pytest.mark.parametrize("m", [0, -1])
    def test_draw_inputs_refuses_no_samples(self, m):
        with pytest.raises(ParameterError, match=f"m must be >= 1, got {m}"):
            draw_inputs(m, np.random.default_rng(0))

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
