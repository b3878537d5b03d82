"""The basis drawn with a sample is evaluated once and reused downstream.

`sample_dataset` carries the sample's moments on the Dataset, and below
N samples the basis at its inputs too; the fit, the basis coefficients,
the tail statistics and the error norms read them instead of evaluating
the basis again. The divergence grid's basis is evaluated once per
model, and each two-point measure's grid weights once per measure.
Reuse must not change a single bit.
"""

import gc
import weakref

import numpy as np
import pytest

from ratelab import lower_bounds, mercer
from ratelab.cli import main
from ratelab.concentration import TAIL_KINDS, operator_deviation, sample_error_stat, tail_test
from ratelab.estimator import basis_coefficients, error_norms, fit
from ratelab.filters import tikhonov
from ratelab.gram import Dataset
from ratelab.index_functions import HolderIndex
from ratelab.lower_bounds import (
    KL_GRID_POINTS,
    PERIOD,
    TwoPointMeasure,
    adversarial_family,
    amplitude_for,
    build_packing,
    kl_divergence,
    separation_for_code_length,
)
from ratelab.mercer import NoiseSpec, build_model, power_law_source, sample_dataset, target_from_source

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
        fitted.coefficients,
        basis_coefficients(fitted, model),
        sample_error_stat(model, data, target, lam=0.05),
        operator_deviation(model, model.moments_of(data))["value"],
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
    assert (data.basis is None) == (m >= N_TRUNC)
    assert data.moments.n_feat == N_TRUNC
    bare = Dataset(xs=data.xs, ys=data.ys)
    for got, want in zip(_outputs(model, target, data), _outputs(model, target, bare)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [N_TRUNC - 1, N_TRUNC + 1])
def test_basis_of_another_width_is_not_used(width):
    model, target, data = _draw(24, seed=1)
    other = Dataset(xs=data.xs, ys=data.ys, basis=np.zeros((data.m, width)))
    bare = Dataset(xs=data.xs, ys=data.ys)
    for got, want in zip(_outputs(model, target, other), _outputs(model, target, bare)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [6, N_TRUNC, 24])
def test_one_replicate_evaluates_the_basis_once_per_input_set(basis_calls, m):
    """Sample, fit and norms share one evaluation, the dense Gram's included."""
    model, _, target = _lab()
    data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.3), m=m, seed=2)
    error_norms(fit(data, model, tikhonov(), lam=0.05), model, target)
    assert len(basis_calls) == 1


@pytest.mark.parametrize("kind", TAIL_KINDS)
def test_tail_test_evaluates_the_basis_once_per_replicate(basis_calls, kind):
    model, _, target = _lab()
    tail_test(kind, model, target, NoiseSpec(kind="gaussian", sigma=0.5), 0.05, 32, 0.1,
              replicates=100)
    assert len(basis_calls) == 100


def test_divergence_evaluates_the_grid_basis_once(basis_calls):
    model, phi, target = _lab()
    level = amplitude_for(phi, 1.0, model)
    other = target_from_source(model, phi, -power_law_source(model), radius=1.0)
    kl_divergence(TwoPointMeasure(model, target, level), TwoPointMeasure(model, other, level))
    assert len(basis_calls) == 1


@pytest.mark.parametrize("d", [1, 3])
def test_shared_grid_gives_identical_divergences(d):
    """Every pair of an ell = 48 and an ell = 72 family, against a fresh grid basis per pair."""
    model = build_model(b=2.0, d=d, n_trunc=128)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    level = amplitude_for(phi, 1.0, model)
    grid = np.linspace(0.0, PERIOD, KL_GRID_POINTS, endpoint=False)
    for ell in (48, 72):
        eps = separation_for_code_length(model, phi, 1.0, ell)
        family = adversarial_family(model, phi, 1.0, eps, build_packing(ell))
        measures = [TwoPointMeasure(model, member, level) for member in family.members]
        for i, first in enumerate(measures):
            for second in measures[i + 1 :]:
                basis = model.basis(grid)
                _, w1 = mercer.two_point_weights(first.target.evaluate(grid, basis=basis), level, d)
                _, w2 = mercer.two_point_weights(second.target.evaluate(grid, basis=basis), level, d)
                want = float(np.mean(np.sum(w1 * np.log(w1 / w2), axis=1)))
                assert kl_divergence(first, second).value == want


def test_default_lower_bound_evaluates_the_grid_once_per_member(basis_calls, monkeypatch, capsys):
    """One grid basis and one grid evaluation per member: 1 and 8 at ell = 48, not 28 and 56."""
    grid_evaluations = []
    original = mercer.TargetFunction.evaluate

    def counting(self, xs, basis=None):
        if np.atleast_1d(xs).shape[0] == KL_GRID_POINTS:
            grid_evaluations.append(self)
        return original(self, xs, basis)

    monkeypatch.setattr(mercer.TargetFunction, "evaluate", counting)
    assert main(["lower-bound", "--b", "2"]) == 0
    assert capsys.readouterr().out
    assert basis_calls.count(KL_GRID_POINTS) == 1
    assert len(grid_evaluations) == 8
    assert len(set(map(id, grid_evaluations))) == 8


def test_grid_basis_dies_with_its_model():
    model, phi, target = _lab()
    measure = TwoPointMeasure(model, target, amplitude_for(phi, 1.0, model))
    kl_divergence(measure, measure)
    assert model in lower_bounds._GRID_BASES
    held = len(lower_bounds._GRID_BASES)
    alive = weakref.ref(model)
    del model, target, measure
    gc.collect()
    assert alive() is None
    assert len(lower_bounds._GRID_BASES) <= held - 1
