"""The sample's sufficient statistics: chunked moments, B^T y / m and their users.

`sample_dataset` walks its samples in row chunks of CHUNK_CELLS // N rows
and carries the Fourier moments and B^T y / m; from m = N on no m-by-N
array is allocated. The statistics must match a one-shot extended
precision computation across chunk boundaries, and the draw must be the
one a whole-sample draw gives.
"""

import tracemalloc

import numpy as np
import pytest

from ratelab.concentration import sample_error_stat
from ratelab.estimator import error_norms, fit
from ratelab.filters import tikhonov
from ratelab.gram import Dataset
from ratelab.index_functions import HolderIndex
from ratelab.lower_bounds import TwoPointMeasure
from ratelab.mercer import (
    CHUNK_CELLS,
    PERIOD,
    NoiseSpec,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
    two_point_weights,
)

from oracles import basis

NOISES = {
    "gaussian": NoiseSpec(kind="gaussian", sigma=0.5),
    "two_point": NoiseSpec(kind="two_point", amplitude=4.0),
}


def _lab(n_trunc, d=1):
    model = build_model(b=2.0, d=d, n_trunc=n_trunc)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    return model, target


def _wide_moments(xs, count):
    """C_n and S_n, n = 0..2 (count // 2), and the count-wide basis, in np.longdouble."""
    wide = xs.astype(np.longdouble)
    freqs = np.arange(2 * (count // 2) + 1, dtype=np.longdouble)
    cos = np.cos(freqs[None, :] * wide[:, None]).mean(axis=0)
    sin = np.sin(freqs[None, :] * wide[:, None]).mean(axis=0)
    basis = np.empty((xs.shape[0], count), dtype=np.longdouble)
    basis[:, 0] = 1
    root2 = np.sqrt(np.longdouble(2))
    for k in range(1, count // 2 + 1):
        basis[:, 2 * k - 1] = root2 * np.cos(k * wide)
        if 2 * k < count:
            basis[:, 2 * k] = root2 * np.sin(k * wide)
    return cos, sin, basis


@pytest.mark.parametrize("n_trunc", [8, 9, 128, 129])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("noise", sorted(NOISES))
def test_carried_statistics_match_a_one_shot_longdouble_sum(n_trunc, d, noise):
    """At m = N, N + 1 and around one and three chunks of R rows. Every
    moment up to 2h is read off the table products, S_h at an even N
    included."""
    rows = CHUNK_CELLS // n_trunc
    model, target = _lab(n_trunc, d)
    for m in (n_trunc, n_trunc + 1, rows - 1, rows, rows + 1, 3 * rows + 5):
        data = sample_dataset(model, target, NOISES[noise], m=m, seed=m)
        assert data.features is None
        cos, sin, basis = _wide_moments(data.xs, n_trunc)
        moments = data.moments
        assert moments.cos.shape == (2 * (n_trunc // 2) + 1,)
        assert moments.sin.shape == (n_trunc,)
        assert np.abs(moments.cos - cos).max() <= 1e-13, m
        # an even N has no sin(h x) feature and carries S_n up to 2h - 1 only
        assert np.abs(moments.sin - sin[:n_trunc]).max() <= 1e-13, m
        response = basis.T @ data.ys.astype(np.longdouble) / m
        scale = np.abs(data.ys).max()
        assert np.abs(moments.response - response).max() <= 1e-13 * scale, m


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_the_draw_is_the_whole_sample_draw(noise):
    """Inputs, then the noise, drawn whole from one stream: chunking changes no draw."""
    model, target = _lab(128, d=3)
    m = 3 * (CHUNK_CELLS // 128) + 5
    data = sample_dataset(model, target, NOISES[noise], m=m, seed=11)
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, PERIOD, size=m)
    assert np.array_equal(data.xs, xs)
    f_vals = target.evaluate(xs)
    if noise == "gaussian":
        np.testing.assert_allclose(
            data.ys - f_vals, 0.5 * rng.standard_normal((m, 3)), rtol=0, atol=1e-15
        )
    else:
        assert np.all(np.sort(np.abs(data.ys), axis=1) == [0.0, 0.0, 3 * 4.0])
        # one uniform per sample after the inputs, inverted through the
        # cumulative weights of the atoms (+-3L e_1, ..., +-3L e_3)
        atoms, weights = two_point_weights(f_vals, 4.0, 3)
        pick = (rng.random((m, 1)) > np.cumsum(weights, axis=1)).sum(axis=1)
        assert np.array_equal(data.ys, atoms[pick])


@pytest.mark.parametrize("m", [64, 128, 3 * (CHUNK_CELLS // 128) + 5])
def test_two_point_measure_draws_the_sample_dataset_draw(m):
    """`TwoPointMeasure.sample` and `sample_dataset` share one draw, below
    and from N on: the same stream gives the same Dataset, moments included."""
    model, target = _lab(128, d=3)
    data = TwoPointMeasure(model, target, 4.0).sample(m, np.random.default_rng(5))
    want = sample_dataset(model, target, NOISES["two_point"], m=m, seed=5)
    assert (data.features is None) == (m >= 128)
    for field in ("xs", "ys"):
        assert np.array_equal(getattr(data, field), getattr(want, field))
    if m < 128:
        assert np.array_equal(data.features.matrix, want.features.matrix)
        assert data.features.scale is want.features.scale
    for field in ("cos", "sin", "response"):
        assert np.array_equal(getattr(data.moments, field), getattr(want.moments, field))


@pytest.mark.parametrize(
    "n_trunc, d, m",
    [pytest.param(16, 3, m, id=str(m)) for m in (64, 300)]
    + [pytest.param(n, d, 300, id=f"{d}-{n}") for d in (1, 3) for n in (8, 9, 128, 129)],
)
def test_sample_error_stat_matches_the_residual_expansion(n_trunc, d, m):
    """The moment form against B^T (y - f) / m built from the basis in the
    test, at odd and even N and with one and three channels."""
    model, target = _lab(n_trunc, d=d)
    data = sample_dataset(model, target, NOISES["gaussian"], m=m, seed=m)
    bmat = basis(model, data.xs)
    raw = bmat.T @ (data.ys - target.evaluate(data.xs)) / m
    t = model.eigenvalues
    want = float(np.linalg.norm((np.sqrt(t) / np.sqrt(t + 0.05))[:, None] * raw))
    assert sample_error_stat(model, data, target, lam=0.05) == pytest.approx(want, rel=1e-12)


def test_statistics_are_recomputed_for_another_truncation():
    """Moments carried for N = 16 are not used by a model with N = 8."""
    small, _ = _lab(8)
    model, target = _lab(16)
    data = sample_dataset(model, target, NOISES["gaussian"], m=64, seed=3)
    bare = Dataset(xs=data.xs, ys=data.ys)
    assert small.moments_of(data) is not data.moments
    for field in ("cos", "sin", "response"):
        assert np.array_equal(
            getattr(small.moments_of(data), field), getattr(small.moments_of(bare), field)
        )


def test_large_sample_fit_stays_small():
    """Sample, fit and error norms at m = 65,536, N = 512 peak under 32 MiB of
    numpy allocations; a whole basis there would take 256 MiB."""
    model, target = _lab(512)
    tracemalloc.start()
    try:
        data = sample_dataset(model, target, NOISES["gaussian"], m=65_536, seed=0)
        fitted = fit(data, model, tikhonov(), lam=1e-3)
        norms = error_norms(fitted, model, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(norms.l2)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
