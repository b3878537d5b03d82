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

    def test_landweber_default_step_from_kernel_bound(self):
        filt = filter_from_dict({"id": "landweber"}, kappa_sq=4.0)
        assert filt.step == 0.25

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            filter_from_dict({"id": "showalter"})
        with pytest.raises(ParameterError):
            SpectralFilter("showalter")
