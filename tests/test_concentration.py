"""Tests for deviation statistics and their high-probability bounds."""

import json
import math

import numpy as np
import pytest

from ratelab import concentration
from ratelab.cli import main
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
    draw_inputs,
    power_law_source,
    sample_dataset,
    target_from_source,
)
from ratelab.rates import effective_dimension

from oracles import features


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
        assert operator_deviation(model, model.sample_moments(xs)) < 1e-13

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
        assert operator_deviation(model, moments) == pytest.approx(oracle, rel=1e-13)

    def test_hilbert_schmidt_mean_square_is_exact(self):
        """E ||T_x - T||_HS^2 = (E k(x, x)^2 - sum t_n^2) / m exactly: T_x is the
        mean of m independent phi(x_i) phi(x_i)^T, each of mean T = diag(t) and
        squared HS norm ||phi(x)||^4 = k(x, x)^2. k(x, x) is a trigonometric
        polynomial of degree 2h, h = N // 2, so the 4h + 1 point uniform grid
        averages its square exactly. The replicate mean of the squared norm
        must lie within 3 standard errors of it, and the norm scaled by 0.9
        must not."""
        m, replicates = 1024, 500
        model, _ = _setup(n_trunc=128)
        points = 4 * (model.n_trunc // 2) + 1
        grid = np.arange(points) * (2 * np.pi / points)
        diagonal = np.sum(features(model, grid) ** 2, axis=1)
        want = (np.mean(diagonal**2) - np.sum(model.eigenvalues**2)) / m
        rng = np.random.default_rng(0)
        squares = np.empty(replicates)
        for i in range(replicates):
            gap = model.empirical_operator(model.sample_moments(draw_inputs(m, rng)))
            gap[np.diag_indices_from(gap)] -= model.eigenvalues
            squares[i] = np.sum(gap * gap)

        def z_score(values):
            return (values.mean() - want) / (values.std(ddof=1) / np.sqrt(values.size))

        assert abs(z_score(squares)) <= 3.0
        assert abs(z_score(0.81 * squares)) > 3.0

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
        assert report.check.passed
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

    def test_noise_free_sample_error_is_refused(self):
        """With sigma 0 the certificate's Bernstein scale is 0, so the bound is
        exactly 0 and any round-off in the statistic counted as a violation.
        The operator statistic does not read the noise and still runs."""
        model, target = _setup(n_trunc=16)
        noise = NoiseSpec(kind="gaussian", sigma=0.0)
        kwargs = dict(lam=0.1, m=64, eta=0.1, replicates=100, seed=0)
        with pytest.raises(ParameterError, match="sample_error tail test needs output noise"):
            tail_test("sample_error", model, target, noise, **kwargs)
        assert tail_test("operator", model, target, noise, **kwargs).check.passed

    def test_nan_statistic_counts_as_a_violation(self, monkeypatch, capsys):
        """A NaN statistic compared false against its bound and so counted as
        no violation: frequency 0.0, and the test passed."""
        monkeypatch.setattr(concentration, "operator_deviation", lambda model, moments: math.nan)
        model, target = _setup(n_trunc=16)
        noise = NoiseSpec(kind="gaussian", sigma=0.5)
        report = tail_test("operator", model, target, noise, 0.1, 64, 0.1, replicates=100)
        assert all(row.violated for row in report.rows)
        assert report.frequency == 1.0
        assert not report.check.passed
        argv = ["--b", "2", "--n-trunc", "16", "--m", "64", "--replicates", "100"]
        assert main(["concentration", *argv, "--kind", "operator"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_trunc, m", [(16, 64), (128, 1024)])
    def test_operator_rows_are_the_dataset_statistic(self, n_trunc, m, seed):
        """The operator test draws inputs only, yet every row is the statistic
        of the whole Dataset replicate i would draw, bit for bit: the inputs
        are that draw's first step and the statistic reads nothing else."""
        model, target = _setup(n_trunc=n_trunc)
        noise = NoiseSpec(kind="gaussian", sigma=0.5)
        report = tail_test("operator", model, target, noise, lam=0.1, m=m, eta=0.1,
                           replicates=100, seed=seed)
        for row in report.rows:
            data = sample_dataset(model, target, noise, m, np.random.SeedSequence([seed, row.replicate]))
            assert row.statistic == operator_deviation(model, data.moments)

    def test_sample_error_mean_square_is_exact(self):
        """E[stat^2] = sigma^2 N_d(lam) / m exactly: the statistic is the
        whitened moment diag(sqrt(t / (t + lam))) B^T eps / m, the noise is
        independent of x with variance sigma^2, and E B_in^2 = 1 for the
        orthonormal basis. The replicate mean of stat^2 must lie within 3
        standard errors of it, and the statistic scaled by 0.9 must not."""
        sigma, lam, m = 0.5, 0.01, 256
        model, target = _setup(n_trunc=128)
        report = tail_test("sample_error", model, target, NoiseSpec(kind="gaussian", sigma=sigma),
                           lam=lam, m=m, eta=0.1, replicates=500, seed=0)
        want = sigma**2 * effective_dimension(model.eigenvalues, lam, model.output_dim) / m
        squares = np.array([row.statistic for row in report.rows]) ** 2

        def z_score(values):
            return (values.mean() - want) / (values.std(ddof=1) / np.sqrt(values.size))

        assert abs(z_score(squares)) <= 3.0
        assert abs(z_score(0.81 * squares)) > 3.0

    def test_parameter_validation(self):
        model, target = _setup()
        noise = NoiseSpec(kind="gaussian", sigma=0.5)
        with pytest.raises(ParameterError):
            tail_test("sample_error", model, target, noise, lam=0.1, m=64, eta=0.2, replicates=50, seed=0)
        with pytest.raises(ParameterError):
            tail_test("median", model, target, noise, lam=0.1, m=64, eta=0.2, replicates=100, seed=0)
        with pytest.raises(ParameterError, match="m must be >= 1, got 0"):
            tail_test("operator", model, target, noise, lam=0.1, m=0, eta=0.2, replicates=100, seed=0)
