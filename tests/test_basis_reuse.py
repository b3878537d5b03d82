"""The basis drawn with a sample is evaluated once and reused downstream.

`sample_dataset` carries the basis at its inputs on the Dataset; the fit,
the basis coefficients, the tail statistics and the error norms read it
instead of evaluating it again. Reuse must not change a single bit.
"""

import numpy as np
import pytest

from ratelab import mercer
from ratelab.concentration import TAIL_KINDS, operator_deviation, sample_error_stat, tail_test
from ratelab.estimator import basis_coefficients, error_norms, fit
from ratelab.filters import tikhonov
from ratelab.gram import Dataset
from ratelab.index_functions import HolderIndex
from ratelab.lower_bounds import TwoPointMeasure, amplitude_for, kl_divergence
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
        operator_deviation(model, data.xs, data.basis)["value"],
    )


@pytest.fixture
def basis_calls(monkeypatch):
    calls = []
    original = mercer.trigonometric_basis

    def counting(xs, count):
        calls.append(count)
        return original(xs, count)

    monkeypatch.setattr(mercer, "trigonometric_basis", counting)
    return calls


@pytest.mark.parametrize("m", [6, N_TRUNC, 24])
def test_carried_basis_gives_identical_bits(m):
    """Both fit paths (dense at m <= N, factored above) agree bit for bit."""
    model, target, data = _draw(m)
    assert data.basis.shape == (m, N_TRUNC)
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


@pytest.mark.parametrize("m, expected", [(6, 2), (N_TRUNC, 2), (24, 1)])
def test_one_replicate_evaluates_the_basis_once_per_input_set(basis_calls, m, expected):
    """Sample, fit and norms share one evaluation; only the dense Gram adds one."""
    model, _, target = _lab()
    data = sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.3), m=m, seed=2)
    error_norms(fit(data, model, tikhonov(), lam=0.05), model, target)
    assert len(basis_calls) == expected


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
