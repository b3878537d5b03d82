"""The basis drawn with a sample is evaluated once and reused downstream.

`sample_dataset` carries the sample's moments on the Dataset, and below
N samples the model's features Phi = B diag(sqrt t) at its inputs too;
the fit, the basis coefficients, the tail statistics and the error norms
read them instead of evaluating the basis again. Reuse must not change a
single bit. The divergence grid needs no basis at all: each two-point
measure's grid weights come from one inverse FFT
(`MercerModel.expand_on_grid`), once per measure.
"""

import numpy as np
import pytest

from ratelab import mercer
from ratelab.cli import main
from ratelab.concentration import TAIL_KINDS, operator_deviation, sample_error_stat, tail_test
from ratelab.errors import ParameterError
from ratelab.estimator import basis_coefficients, error_norms, fit
from ratelab.filters import tikhonov
from ratelab.gram import Dataset, Features
from ratelab.index_functions import HolderIndex
from ratelab.lower_bounds import (
    TwoPointMeasure,
    adversarial_family,
    amplitude_for,
    build_packing,
    kl_divergence,
    separation_for_code_length,
)
from ratelab.mercer import (
    GRID_POINTS,
    PERIOD,
    NoiseSpec,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)

from oracles import basis

N_TRUNC = 8


def _lab():
    model = build_model(b=2.0, n_trunc=N_TRUNC)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    return model, phi, target


def _draw(m, seed=0):
    model, _, target = _lab()
    data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.3), m=m, seed=seed)
    return model, target, data


def _outputs(model, target, data):
    fitted = fit(data, model, tikhonov(), lam=0.05)
    return (
        fitted.dual,
        basis_coefficients(fitted, model),
        sample_error_stat(model, data, target, lam=0.05),
        operator_deviation(model, model.moments_of(data)),
    )


@pytest.fixture
def basis_calls(monkeypatch):
    calls = []
    original = mercer.trigonometric_basis

    def counting(xs, count):
        calls.append(np.atleast_1d(xs).shape[0])
        return original(xs, count)

    monkeypatch.setattr(mercer, "trigonometric_basis", counting)
    return calls


@pytest.mark.parametrize("m", [6, N_TRUNC, 24])
def test_carried_basis_gives_identical_bits(m):
    """Both fit paths (dense at m < N, factored from m = N) agree bit for bit."""
    model, target, data = _draw(m)
    assert (data.features is None) == (m >= N_TRUNC)
    assert data.moments.n_feat == N_TRUNC
    bare = Dataset(xs=data.xs, ys=data.ys)
    for got, want in zip(_outputs(model, target, data), _outputs(model, target, bare)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [N_TRUNC - 1, N_TRUNC + 1])
def test_basis_of_another_width_is_not_used(width):
    """Below N, where the dense path reads carried features, a matrix of
    another width is not used, even under the model's own scale."""
    model, target, data = _draw(N_TRUNC - 2, seed=1)
    wrong = Features(np.zeros((data.m, width)), model._feature_scale)
    other = Dataset(xs=data.xs, ys=data.ys, features=wrong)
    bare = Dataset(xs=data.xs, ys=data.ys)
    for got, want in zip(_outputs(model, target, other), _outputs(model, target, bare)):
        assert np.array_equal(got, want)


def test_features_of_another_model_are_not_used():
    """Phi depends on the model's spectrum, not only on N: a sample drawn under
    one model and fit under another of the same N gives the bits of a fit
    that carries nothing."""
    _, _, data = _draw(N_TRUNC - 2, seed=3)
    model = build_model(b=3.0, n_trunc=N_TRUNC)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    bare = Dataset(xs=data.xs, ys=data.ys)
    for got, want in zip(_outputs(model, target, data), _outputs(model, target, bare)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [6, N_TRUNC, 24])
def test_one_replicate_evaluates_the_basis_once_per_input_set(basis_calls, m):
    """Sample, fit and norms share one evaluation, the dense Gram's included."""
    model, _, target = _lab()
    data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.3), m=m, seed=2)
    error_norms(fit(data, model, tikhonov(), lam=0.05), model, target)
    assert len(basis_calls) == 1


def test_fit_of_a_bare_dataset_evaluates_the_basis_once(basis_calls):
    """Below N, a Dataset that carries no Features has them evaluated once per
    fit, and the dense Gram and the expansion Phi^T c both read that one."""
    model = build_model(b=2.0, n_trunc=512)
    rng = np.random.default_rng(0)
    data = Dataset(xs=rng.uniform(0.0, PERIOD, 256), ys=rng.standard_normal(256))
    fit(data, model, tikhonov(), lam=0.05)
    assert basis_calls == [256]


@pytest.mark.parametrize("m", [6, 24])
def test_a_table_that_does_not_fit_is_refused(m):
    """A basis table handed to the target is used as it is, so one of another
    shape or dtype is refused by name, not silently replaced; the table of
    the draw's own chunk gives the bits of an evaluation without one."""
    model, target, data = _draw(m)
    table = mercer.trigonometric_basis(data.xs, N_TRUNC)
    assert np.array_equal(target.evaluate(data.xs, table=table), target.evaluate(data.xs))
    for wrong in (np.zeros((3, 2), dtype=complex), table[:-1], table.real):
        with pytest.raises(ParameterError, match="basis table"):
            target.evaluate(data.xs, table=wrong)


@pytest.mark.parametrize("kind", TAIL_KINDS)
def test_tail_test_evaluates_the_basis_once_per_replicate(basis_calls, monkeypatch, kind):
    """One basis table per replicate for both kinds. The sample-error kind
    draws a whole Dataset, which reads the target at its inputs once; the
    operator kind draws inputs only and reads no target. This is the mapping
    the benchmark's trace asserts: the tail workload reaches
    `TargetFunction.evaluate` and `sample_dataset` through its sample-error
    half alone."""
    evaluated = []
    original = mercer.TargetFunction.evaluate

    def counting(self, xs, table=None):
        evaluated.append(len(xs))
        return original(self, xs, table)

    monkeypatch.setattr(mercer.TargetFunction, "evaluate", counting)
    model, _, target = _lab()
    tail_test(kind, model, target, NoiseSpec(kind="gaussian", sigma=0.5), 0.05, 32, 0.1,
              replicates=100)
    assert basis_calls == [32] * 100
    assert evaluated == ([32] * 100 if kind == "sample_error" else [])


@pytest.mark.parametrize("m", [16, 64, 256])
def test_lower_bound_race_evaluates_the_basis_once_per_trial(basis_calls, m, capsys):
    """The draw's chunks give the fit its moments at m >= N, so a trial
    evaluates no second basis for them: 4 calls over 4 trials, not 8."""
    argv = ["lower-bound", "--b", "2", "--n-trunc", "64", "--m", str(m), "--trials", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert basis_calls == [m] * 4


def _direct_divergence(first, second):
    """The divergence from the basis at the grid, multiplied out in float64."""
    model, level, d = first.model, first.amplitude, first.model.output_dim
    grid = np.linspace(0.0, PERIOD, GRID_POINTS, endpoint=False)
    scaled_basis = basis(model, grid) * np.sqrt(model.eigenvalues)[None, :]
    _, w1 = mercer.two_point_weights(scaled_basis @ first.target.coefficients, level, d)
    _, w2 = mercer.two_point_weights(scaled_basis @ second.target.coefficients, level, d)
    return float(np.mean(np.sum(w1 * np.log(w1 / w2), axis=1)))


@pytest.mark.parametrize("d", [1, 3])
def test_divergence_matches_the_basis_product(d):
    """Every pair of an ell = 48 and an ell = 72 family, against the grid basis
    multiplied out. The divergences, of order 1e-10 to 1e-9, are sums of
    differences of nearly equal logarithms, so the two float64 evaluations
    of the weights agree to 1e-8 relative (3.1e-9 is the worst seen), not
    bit for bit."""
    model = build_model(b=2.0, d=d, n_trunc=128)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    level = amplitude_for(phi, 1.0, model)
    for ell in (48, 72):
        eps = separation_for_code_length(model, phi, 1.0, ell)
        family = adversarial_family(model, phi, 1.0, eps, build_packing(ell))
        measures = [TwoPointMeasure(model, member, level) for member in family.members]
        for i, first in enumerate(measures):
            for second in measures[i + 1 :]:
                want = _direct_divergence(first, second)
                assert kl_divergence(first, second) == pytest.approx(want, rel=1e-8, abs=0)


def test_default_lower_bound_evaluates_no_grid_basis(basis_calls, capsys):
    """The divergence grid comes from inverse FFTs: no basis at its 512 inputs."""
    assert main(["lower-bound", "--b", "2"]) == 0
    assert capsys.readouterr().out
    assert basis_calls
    assert basis_calls.count(GRID_POINTS) == 0


def test_default_lower_bound_evaluates_the_grid_once_per_member(monkeypatch, capsys):
    """One grid evaluation per member: 8 at ell = 48, not 56 (two per pair)."""
    expanded = []
    original = mercer.MercerModel.expand_on_grid

    def counting(self, coefficients):
        expanded.append(coefficients)
        return original(self, coefficients)

    monkeypatch.setattr(mercer.MercerModel, "expand_on_grid", counting)
    assert main(["lower-bound", "--b", "2"]) == 0
    assert capsys.readouterr().out
    assert len(expanded) == 8
    assert len(set(map(id, expanded))) == 8


def test_no_real_features_from_m_equal_n_on(monkeypatch):
    """From m = N on, the draw, both tail statistics and a feature-domain fit,
    with its norms, read the complex table only:
    no real per-sample feature array is formed. Below N the draw forms Phi
    for the dense Gram, so the refusal is live."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("real features were formed")

    monkeypatch.setattr(mercer, "real_features", refuse)
    model, _, target = _lab()
    noise = NoiseSpec(kind="gaussian", sigma=0.3)
    for kind in TAIL_KINDS:
        tail_test(kind, model, target, noise, 0.05, N_TRUNC, 0.1, replicates=100)
    for m in (N_TRUNC, 24):
        data = sample_dataset(model, target, noise, m=m, seed=m)
        fitted = fit(data, model, tikhonov(), lam=0.05)
        assert fitted.dual is None
        assert np.isfinite(error_norms(fitted, model, target).l2)
    with pytest.raises(AssertionError, match="real features were formed"):
        sample_dataset(model, target, noise, m=N_TRUNC - 1, seed=0)
