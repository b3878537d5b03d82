"""Tests for deviation statistics and their high-probability bounds."""

import numpy as np
import pytest

from ratelab.concentration import (
    MIN_REPLICATES,
    TAIL_KINDS,
    operator_deviation,
    operator_deviation_bound,
    sample_error_bound,
    sample_error_stat,
    tail_test,
)
from ratelab.errors import CertificationError, ParameterError
from ratelab.gram import Dataset
from ratelab.index_functions import HolderIndex
from ratelab.mercer import (
    NoiseSpec,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)


def _setup(n_trunc=8, radius=1.0):
    model = build_model(b=2.0, n_trunc=n_trunc)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    source = power_law_source(model, radius=radius)
    target = target_from_source(model, phi, source, radius=radius)
    return model, target


class TestSampleErrorStat:
    def test_zero_for_noiseless_data(self):
        """Zero up to rounding: B^T y / m and the moment product B^T f / m are
        summed in different orders (4.5e-17 at this seed), where a noisy sample
        gives about 0.1."""
        model, target = _setup()
        data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.0), m=32, seed=0)
        assert sample_error_stat(model, data, target, lam=0.1) <= 1e-15

    def test_scales_linearly_in_the_residual(self):
        model, target = _setup()
        clean = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.0), m=32, seed=0)
        shift = np.ones_like(clean.ys)
        one = sample_error_stat(model, Dataset(clean.xs, clean.ys + shift), target, lam=0.1)
        two = sample_error_stat(model, Dataset(clean.xs, clean.ys + 2 * shift), target, lam=0.1)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_bound_shrinks_with_m_and_grows_with_confidence(self):
        model, _ = _setup()
        cert = NoiseSpec(kind="gaussian", sigma=0.5).certify(model)
        base = sample_error_bound(model, cert, lam=0.1, m=64, eta=0.1)
        more_data = sample_error_bound(model, cert, lam=0.1, m=256, eta=0.1)
        more_confidence = sample_error_bound(model, cert, lam=0.1, m=64, eta=0.05)
        assert more_data < base
        assert more_confidence > base


class TestOperatorDeviation:
    def test_vanishes_on_an_alias_free_grid(self):
        """64 equispaced points average the 8 trig features exactly."""
        model, _ = _setup(n_trunc=8)
        xs = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        out = operator_deviation(model, model.sample_moments(xs))
        assert out["value"] < 1e-13

    @pytest.mark.parametrize("m", [1, 3, 1024])
    @pytest.mark.parametrize("n_trunc", [8, 16, 128])
    def test_matches_the_full_spectrum(self, n_trunc, m):
        """The two ends of the spectrum give max |eigenvalue| of the full eigvalsh."""
        model, _ = _setup(n_trunc=n_trunc)
        xs = np.random.default_rng(m).uniform(0.0, 2 * np.pi, size=m)
        moments = model.sample_moments(xs)
        emp = model.empirical_operator(moments)
        emp[np.diag_indices_from(emp)] -= model.eigenvalues
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(emp))))
        assert operator_deviation(model, moments)["value"] == pytest.approx(oracle, rel=1e-13)

    def test_reports_truncation_tail(self):
        model, _ = _setup(n_trunc=8)
        xs = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        out = operator_deviation(model, model.sample_moments(xs))
        assert out["truncation_tail"] == pytest.approx(model.trace_tail_bound())

    def test_bound_shrinks_with_m(self):
        model, _ = _setup()
        loose = operator_deviation_bound(model.kappa_sq, m=64, eta=0.1)
        tight = operator_deviation_bound(model.kappa_sq, m=256, eta=0.1)
        assert tight < loose


class TestTailTest:
    def test_kinds_registry(self):
        assert TAIL_KINDS == ("sample_error", "operator")
        assert MIN_REPLICATES == 100

    @pytest.mark.parametrize("kind", TAIL_KINDS)
    def test_violation_frequency_within_level(self, kind):
        model, target = _setup()
        report = tail_test(
            kind,
            model,
            target,
            NoiseSpec(kind="gaussian", sigma=0.5),
            lam=0.1,
            m=64,
            eta=0.2,
            replicates=100,
            seed=0,
        )
        assert report.frequency <= report.eta
        assert report.passed
        assert len(report.rows) == 100

    def test_deterministic_for_fixed_seed(self):
        model, target = _setup()
        kwargs = dict(lam=0.1, m=64, eta=0.2, replicates=100, seed=7)
        noise = NoiseSpec(kind="gaussian", sigma=0.5)
        first = tail_test("sample_error", model, target, noise, **kwargs)
        second = tail_test("sample_error", model, target, noise, **kwargs)
        stats1 = [row.statistic for row in first.rows]
        stats2 = [row.statistic for row in second.rows]
        assert stats1 == stats2

    def test_rejects_uncertified_noise(self):
        """A two-point level below the target's range cannot be certified."""
        model, target = _setup(radius=0.2)
        noise = NoiseSpec(kind="two_point", amplitude=1e-4)
        with pytest.raises(CertificationError):
            tail_test("sample_error", model, target, noise, lam=0.1, m=64, eta=0.2, replicates=100, seed=0)

    def test_parameter_validation(self):
        model, target = _setup()
        noise = NoiseSpec(kind="gaussian", sigma=0.5)
        with pytest.raises(ParameterError):
            tail_test("sample_error", model, target, noise, lam=0.1, m=64, eta=0.2, replicates=50, seed=0)
        with pytest.raises(ParameterError):
            tail_test("median", model, target, noise, lam=0.1, m=64, eta=0.2, replicates=100, seed=0)
