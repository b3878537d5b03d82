"""Symmetry oracles: the circle's reflection and half-turn act on every fit.

Under x -> -x, cos(k x) stays and sin(k x) changes sign, so the basis at
the reflected inputs is B D, with D = +1 on the constant and cos features
and -1 on the sin features. A fit to (-xs, ys) is then the fit to
(xs, ys) with its sin rows negated: the Gram B D D B^T is the same, and
the empirical operator D A D and its data D u change by exact sign flips,
so the expansion matches bit for bit on both paths. The sample moments
C_n = mean cos(n x) and S_n = mean sin(n x) are even and odd, and the
operator deviation and, against the reflected target, the sample-error
statistic keep their bits.

Under x -> x + pi, cos(k x) and sin(k x) take the sign (-1)^k, so the
expansion does too; the shifted inputs are rounded, so the match holds
within a tolerance, not bit for bit.
"""

import numpy as np
import pytest

from ratelab.concentration import operator_deviation, sample_error_stat
from ratelab.estimator import fit
from ratelab.filters import iterated_tikhonov, landweber, spectral_cutoff, tikhonov
from ratelab.gram import Dataset
from ratelab.index_functions import HolderIndex
from ratelab.mercer import (
    NoiseSpec,
    TargetFunction,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)

N = 64
SIZES = [1, 16, N - 1, N, 200]
LAM = 0.01
# x + pi rounds each input by up to eps (|x| + pi), and frequency k turns that
# into k times as large a phase error; k <= N / 2 = 32 over x < 2 pi gives
# about 1e-13 of the largest entry. The largest gap seen was 1.7e-14.
SHIFT_RTOL = 1e-13


@pytest.fixture(scope="module")
def lab():
    model = build_model(b=2.0, d=2, n_trunc=N)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    return model, target


def _reflection(count):
    """D: -1 on the sin features (even indices from 2 on), +1 elsewhere."""
    index = np.arange(count)
    return np.where((index % 2 == 0) & (index > 0), -1.0, 1.0)[:, None]


def _half_turn(count):
    """(-1)^k for the frequency k = (n + 1) // 2 of feature n."""
    return ((-1.0) ** ((np.arange(count) + 1) // 2))[:, None]


def _filters(model):
    return [tikhonov(), iterated_tikhonov(3), landweber(1.0 / model.kappa_sq), spectral_cutoff()]


def _draw(lab, m):
    model, target = lab
    return sample_dataset(model, target, NoiseSpec(kind="gaussian", sigma=0.5), m=m, seed=m)


@pytest.mark.parametrize("m", SIZES)
def test_reflected_inputs_negate_the_sin_rows(lab, m):
    model, _ = lab
    data = _draw(lab, m)
    for filt in _filters(model):
        fitted = fit(Dataset(data.xs, data.ys), model, filt, LAM).expansion
        mirrored = fit(Dataset(-data.xs, data.ys), model, filt, LAM).expansion
        assert np.array_equal(mirrored, _reflection(N) * fitted), filt.kind


@pytest.mark.parametrize("m", SIZES)
def test_half_turn_signs_the_expansion_by_frequency(lab, m):
    model, _ = lab
    data = _draw(lab, m)
    for filt in _filters(model):
        fitted = fit(Dataset(data.xs, data.ys), model, filt, LAM).expansion
        turned = fit(Dataset(data.xs + np.pi, data.ys), model, filt, LAM).expansion
        gap = np.max(np.abs(turned - _half_turn(N) * fitted))
        assert gap <= SHIFT_RTOL * np.max(np.abs(fitted)), filt.kind


@pytest.mark.parametrize("m", SIZES)
def test_moments_are_even_and_odd(lab, m):
    model, _ = lab
    data = _draw(lab, m)
    moments = model.sample_moments(data.xs, data.ys)
    mirrored = model.sample_moments(-data.xs, data.ys)
    assert np.array_equal(mirrored.cos, moments.cos)
    assert np.array_equal(mirrored.sin, -moments.sin)
    assert np.array_equal(mirrored.response, _reflection(N) * moments.response)


@pytest.mark.parametrize("m", SIZES)
def test_statistics_keep_their_bits_under_reflection(lab, m):
    """The operator deviation of the reflected inputs, and the sample-error
    statistic of the reflected sample against the reflected target."""
    model, target = lab
    data = _draw(lab, m)
    assert operator_deviation(model, model.sample_moments(-data.xs)) == operator_deviation(
        model, model.sample_moments(data.xs)
    )
    signs = _reflection(N)
    reflected = TargetFunction(
        model, signs * target.coefficients, signs * target.source, target.radius
    )
    assert sample_error_stat(model, Dataset(-data.xs, data.ys), reflected, LAM) == (
        sample_error_stat(model, Dataset(data.xs, data.ys), target, LAM)
    )
