"""Tests for effective dimension, regularization rules, and rate exponents."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ratelab.concentration import sample_error_stat
from ratelab.errors import ParameterError, RateLabError
from ratelab.estimator import fit
from ratelab.filters import tikhonov
from ratelab.index_functions import HolderIndex, LogIndex
from ratelab.mercer import (
    NoiseSpec,
    approx_error_norms,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)
from ratelab.rates import (
    LAMBDA_RULES,
    check_theorem_condition,
    choose_lambda,
    effdim_bound_check,
    effective_dimension,
    individual_lower_exponent_l2,
    individual_lower_exponent_rkhs,
    rate_exponents,
)

from oracles import fit_tikhonov_direct


class TestEffectiveDimension:
    def test_small_spectrum_by_hand(self):
        eigs = np.array([1.0, 0.25, 1.0 / 9.0])
        value = effective_dimension(eigs, lam=1.0)
        assert value == pytest.approx(0.5 + 0.2 + 0.1)

    def test_output_dim_multiplies(self):
        eigs = np.array([1.0, 0.25, 1.0 / 9.0])
        one = effective_dimension(eigs, lam=1.0)
        two = effective_dimension(eigs, lam=1.0, output_dim=2)
        assert two == pytest.approx(2 * one)

    def test_decreasing_in_lambda(self):
        eigs = np.arange(1, 65, dtype=float) ** -2.0
        values = [effective_dimension(eigs, lam) for lam in (1e-4, 1e-2, 1.0)]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
    def test_bounds_hold_along_a_grid(self, b):
        model = build_model(b=b, n_trunc=64)
        checks = effdim_bound_check(model, np.geomspace(1e-4, 1.0, 16))
        assert [check.name for check in checks] == ["poly", "crude"] * 16
        for check in checks:
            assert check.value <= check.limit * (1 + 1e-12)


@pytest.fixture(scope="module")
def lab():
    model = build_model(b=2.0, n_trunc=8)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    data = sample_dataset(model, target, NoiseSpec("gaussian", sigma=0.5), m=16, seed=0)
    return SimpleNamespace(model=model, phi=phi, target=target, data=data)


# Every function that takes a regularization level, called at ``lam``.
LAM_TAKERS = {
    "effective_dimension": lambda lab, lam: effective_dimension(lab.model.eigenvalues, lam),
    "filter_values": lambda lab, lam: tikhonov().values(0.5, lam),
    "fit": lambda lab, lam: fit(lab.data, lab.model, tikhonov(), lam),
    "fit_tikhonov_direct": lambda lab, lam: fit_tikhonov_direct(lab.data, lab.model, lam),
    "sample_error_stat": lambda lab, lam: sample_error_stat(lab.model, lab.data, lab.target, lam),
    "approx_error_norms": lambda lab, lam: approx_error_norms(
        lab.model, lab.phi, 1.0, lam, lab.target
    ),
    "check_theorem_condition": lambda lab, lam: check_theorem_condition(64, lam, 1.0, 0.1),
}


@pytest.mark.parametrize("name", sorted(LAM_TAKERS))
def test_nan_lam_is_refused_by_name(name, lab):
    """Checks written `lam <= 0` let NaN through to NaN results."""
    LAM_TAKERS[name](lab, 0.05)
    with pytest.raises(RateLabError, match="lam"):
        LAM_TAKERS[name](lab, math.nan)


class TestChooseLambda:
    def test_numeric_matches_closed_form(self):
        """For Hoelder phi the psi schedule inverts to m**(-b / (2br + b + 1))."""
        phi = HolderIndex(0.5, domain_max=1.0)
        numeric = choose_lambda("psi", phi, b=2.0, m=256)
        b, r = 2.0, 0.5
        closed = 256.0 ** (-b / (2.0 * b * r + b + 1.0))
        assert numeric.value == pytest.approx(closed, rel=1e-8)
        assert closed == pytest.approx(256.0 ** (-0.4), rel=1e-12)

    def test_theta_closed_form(self):
        phi = HolderIndex(0.5, domain_max=1.0)
        numeric = choose_lambda("theta", phi, b=2.0, m=256)
        assert numeric.value == pytest.approx(256.0 ** (-2.0 / 3.0), rel=1e-8)

    def test_numeric_rules_accept_log_profiles(self):
        phi = LogIndex(p=0.5, nu=1.0, domain_max=1.0)
        choice = choose_lambda("psi", phi, b=2.0, m=256)
        assert 0 < choice.value <= 1.0
        assert not choice.clipped

    @pytest.mark.parametrize(
        "rule, power", [("psi", 0.5 + 0.5 / 3.0), ("theta", 0.5 / 3.0)], ids=["psi", "theta"]
    )
    @pytest.mark.parametrize(
        "phi", [HolderIndex(1.0), LogIndex(p=0.5, nu=1.0)], ids=["holder", "log"]
    )
    def test_numeric_rules_invert_their_schedule(self, phi, rule, power):
        """At b = 3 the returned lam meets 1/sqrt(m) on its schedule,
        Psi(t) = t**(1/2 + 1/(2b)) phi(t) or Theta(t) = t**(1/(2b)) phi(t)."""
        for m in (100, 10**6, 10**12):
            choice = choose_lambda(rule, phi, b=3.0, m=m)
            assert not choice.clipped
            schedule = choice.value**power * phi.value(choice.value)
            assert schedule == pytest.approx(m**-0.5, rel=1e-9)

    @pytest.mark.parametrize("rule", ["psi", "theta"])
    def test_low_decay_warns(self, rule):
        """b = 1 leaves the schedules defined but not the polynomial
        effective-dimension bound; b = 0 has no schedule."""
        phi = HolderIndex(r=0.5)
        with pytest.warns(UserWarning, match="b = 1.0 <= 1"):
            choose_lambda(rule, phi, b=1.0, m=64)
        with pytest.raises(ParameterError, match="decay exponent"):
            choose_lambda(rule, phi, b=0.0, m=64)

    @pytest.mark.parametrize("rule", LAMBDA_RULES)
    def test_nonpositive_or_non_finite_decay_refused(self, rule):
        """A closed-form power law returned lam = nan for an infinite or NaN b,
        and divided by zero at b = -1 with r = 1/2."""
        for b in (-1.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="decay exponent must be positive and finite"):
                choose_lambda(rule, HolderIndex(r=0.5), b=b, m=64)

    @pytest.mark.parametrize("rule", ["holder_psi_closed", "holder_theta_closed"])
    def test_closed_form_rules_are_unknown(self, rule):
        """The Hoelder power laws are the psi and theta inversions in closed
        form, not rules of their own."""
        phi = HolderIndex(0.5, domain_max=1.0)
        with pytest.raises(ParameterError, match=f"unknown lambda rule '{rule}'"):
            choose_lambda(rule, phi, b=2.0, m=256)

    def test_clips_to_domain_cap(self):
        """m = 4, b = 2, r = 0 wants 1/16 but the domain tops out at 0.05."""
        phi = HolderIndex(0.0, domain_max=0.05)
        choice = choose_lambda("theta", phi, b=2.0, m=4)
        assert choice.value == 0.05
        assert choice.clipped

    def test_clips_when_target_level_is_unreachable(self):
        """A tiny domain cannot reach 1/sqrt(m); the rule takes the cap."""
        phi = HolderIndex(0.5, domain_max=1e-6)
        choice = choose_lambda("psi", phi, b=2.0, m=4)
        assert choice.value == 1e-6
        assert choice.clipped

    def test_float_conversion_and_validation(self):
        phi = HolderIndex(0.5, domain_max=1.0)
        choice = choose_lambda("psi", phi, b=2.0, m=64)
        assert float(choice) == choice.value
        with pytest.raises(ParameterError):
            choose_lambda("nope", phi, b=2.0, m=64)
        with pytest.raises(ParameterError):
            choose_lambda("psi", phi, b=2.0, m=0)

    def test_rule_registry(self):
        assert LAMBDA_RULES == ("psi", "theta")


class TestTheoremCondition:
    def test_margin_arithmetic(self):
        out = check_theorem_condition(m=1024, lam=0.25, kappa=1.3, eta=0.1)
        expected = (math.sqrt(1024) * 0.25) / (8 * 1.3**2 * math.log(40.0))
        assert out["margin"] == pytest.approx(expected, rel=1e-12)
        assert out["satisfied"] == (expected >= 1.0)

    def test_large_sample_satisfies(self):
        out = check_theorem_condition(m=10**8, lam=0.1, kappa=1.0, eta=0.1)
        assert out["satisfied"]


class TestRateExponents:
    def test_frozen_values_for_default_configuration(self):
        ex = rate_exponents(2.0, 0.5)
        assert ex.rkhs_upper == pytest.approx(0.2)
        assert ex.rkhs_lower == pytest.approx(0.2)
        assert ex.l2_upper_theta == pytest.approx(1.0 / 3.0)
        assert ex.l2_upper_psi == pytest.approx(0.4)
        assert ex.l2_lower == pytest.approx(0.4)

    @pytest.mark.parametrize("b, r", [(1.5, 0.0), (2.0, 0.5), (3.0, 1.0)])
    def test_lower_matches_upper(self, b, r):
        ex = rate_exponents(b, r)
        assert ex.rkhs_lower == ex.rkhs_upper
        assert ex.l2_lower == ex.l2_upper_psi

    @pytest.mark.parametrize(
        "b, r, name",
        [(2.0, math.nan, "smoothness"), (2.0, math.inf, "smoothness"),
         (math.nan, 0.5, "decay"), (math.inf, 0.5, "decay")],
    )
    def test_non_finite_exponents_refused_by_name(self, b, r, name):
        """NaN used to end in an AssertionError from RateExponents."""
        with pytest.raises(ParameterError, match=f"{name} exponent must be"):
            rate_exponents(b, r)

    def test_dict_round_trip(self):
        ex = rate_exponents(2.0, 0.5)
        d = dataclasses.asdict(ex)
        assert d["rkhs_upper"] == ex.rkhs_upper
        assert d["l2_upper_psi"] == ex.l2_upper_psi


class TestIndividualExponents:
    def test_values_by_hand(self):
        assert individual_lower_exponent_l2(2.0, 0.0, 0.5, 0.1) == pytest.approx(4.1 / 3.1)
        assert individual_lower_exponent_rkhs(2.0, 0.0, 0.5, 0.1) == pytest.approx(2.1 / 3.1)

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            individual_lower_exponent_l2(0.5, 0.0, 0.5, 0.1)
        with pytest.raises(ParameterError):
            individual_lower_exponent_l2(2.0, 0.6, 0.5, 0.1)
        with pytest.raises(ParameterError):
            individual_lower_exponent_rkhs(2.0, 0.0, 0.5, 0.0)

    @pytest.mark.parametrize(
        "args", [(math.nan, 0.0, 0.5, 0.1), (2.0, 0.0, math.inf, 0.1), (2.0, 0.0, 0.5, math.nan)]
    )
    def test_non_finite_arguments_refused(self, args):
        """A NaN eps or decay used to return a NaN exponent."""
        with pytest.raises(ParameterError):
            individual_lower_exponent_l2(*args)
