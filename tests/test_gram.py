"""Tests for datasets, Gram assembly, and exact eigendecompositions."""

import warnings

import numpy as np
import pytest

from ratelab.errors import DataError, ParameterError
from ratelab.gram import (
    Dataset,
    GaussianRBF,
    assemble_gram,
    eigendecompose,
    mercer_gram_eigen,
    reconstruction_error,
)
from ratelab.mercer import build_model


class TestDataset:
    def test_flat_outputs_gain_a_channel(self):
        data = Dataset(xs=np.array([0.0, 1.0]), ys=np.array([2.0, 3.0]))
        assert data.ys.shape == (2, 1)
        assert data.m == 2
        assert data.output_dim == 1

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(xs=np.zeros(3), ys=np.zeros((2, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(xs=np.array([0.0, np.nan]), ys=np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset(xs=np.zeros(0), ys=np.zeros((0, 1)))

    def test_basis_needs_one_row_per_sample(self):
        with pytest.raises(DataError):
            Dataset(xs=np.zeros(3), ys=np.zeros(3), basis=np.zeros((2, 8)))

    def test_basis_stored_read_only(self):
        basis = np.zeros((3, 8))
        data = Dataset(xs=np.zeros(3), ys=np.zeros(3), basis=basis)
        assert not data.basis.flags.writeable
        assert basis.flags.writeable


class TestAssembleGram:
    def test_scaling_and_symmetry(self):
        kernel = GaussianRBF(lengthscale=1.0)
        xs = np.array([0.0, 1.0, 3.0])
        gram = assemble_gram(kernel, xs)
        np.testing.assert_allclose(gram, gram.T)
        np.testing.assert_allclose(np.diag(gram), 1.0 / 3.0)

    def test_single_point(self):
        gram = assemble_gram(GaussianRBF(lengthscale=2.0), np.array([1.5]))
        np.testing.assert_allclose(gram, [[1.0]])

    def test_bad_lengthscale(self):
        with pytest.raises(ParameterError):
            GaussianRBF(lengthscale=0.0)


class TestEigendecompose:
    def test_rank_one_constant_kernel(self):
        gram = np.full((2, 2), 0.5)
        eig = eigendecompose(gram)
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 0.0], atol=1e-15)
        assert eig.complete
        assert reconstruction_error(gram, eig) < 1e-14

    def test_descending_order_and_orthonormal_vectors(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((6, 6))
        gram = raw @ raw.T / 6.0
        eig = eigendecompose(gram)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(6), atol=1e-12)

    def test_negative_roundoff_clamped_with_warning(self):
        gram = np.diag([1.0, -1e-8])
        with pytest.warns(UserWarning):
            eig = eigendecompose(gram)
        assert eig.eigenvalues.min() == 0.0
        assert eig.clamped == pytest.approx(1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DataError):
            eigendecompose(np.zeros((2, 3)))


class TestFactoredEigen:
    def test_matches_dense_beyond_feature_count(self):
        model = build_model(b=2.0, n_trunc=8)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 2 * np.pi, size=40)
        eig = mercer_gram_eigen(model, xs)
        assert not eig.complete
        assert eig.rank <= 8
        gram = assemble_gram(model, xs)
        dense = eigendecompose(gram)
        np.testing.assert_allclose(
            eig.eigenvalues, dense.eigenvalues[: eig.rank], rtol=1e-9, atol=1e-12
        )
        assert reconstruction_error(gram, eig) < 1e-12

    def test_reuses_a_carried_basis_and_leaves_it_unchanged(self):
        model = build_model(b=2.0, n_trunc=8)
        xs = np.random.default_rng(5).uniform(0, 2 * np.pi, size=40)
        basis = model.basis(xs)
        kept = basis.copy()
        eig = mercer_gram_eigen(model, xs, basis)
        assert np.array_equal(basis, kept)
        fresh = mercer_gram_eigen(model, xs)
        assert np.array_equal(eig.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(eig.vectors, fresh.vectors)

    def test_small_sample_uses_dense_path(self):
        model = build_model(b=2.0, n_trunc=16)
        xs = np.linspace(0.0, 1.0, 5)
        eig = mercer_gram_eigen(model, xs)
        assert eig.complete
        assert eig.size == 5

    def test_columns_orthonormal(self):
        model = build_model(b=1.5, n_trunc=8)
        xs = np.random.default_rng(11).uniform(0, 2 * np.pi, size=64)
        eig = mercer_gram_eigen(model, xs)
        np.testing.assert_allclose(
            eig.vectors.T @ eig.vectors, np.eye(eig.rank), atol=1e-10
        )


class TestProductForm:
    """V = factor @ mix is applied from right to left and built only on request."""

    @pytest.mark.parametrize("m", [5, 8, 9, 40])
    def test_project_and_combine_agree_with_built_vectors(self, m):
        model = build_model(b=2.0, n_trunc=8)
        rng = np.random.default_rng(m)
        eig = mercer_gram_eigen(model, rng.uniform(0, 2 * np.pi, size=m))
        assert (eig.mix is None) == (m <= 8)
        vectors = eig.vectors
        assert vectors.shape == (m, eig.rank)
        ys = rng.standard_normal((m, 3))
        z = rng.standard_normal((eig.rank, 3))
        np.testing.assert_allclose(eig.project(ys), vectors.T @ ys, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(eig.combine(z), vectors @ z, rtol=1e-12, atol=1e-12)

    def test_factor_is_the_carried_basis(self):
        """The factored path keeps the Dataset's basis itself, not a scaled copy."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.random.default_rng(3).uniform(0, 2 * np.pi, size=40)
        data = Dataset(xs=xs, ys=np.zeros(40), basis=model.basis(xs))
        eig = mercer_gram_eigen(model, data.xs, data.basis)
        assert eig.factor is data.basis
        assert not eig.factor.flags.writeable

    @pytest.mark.parametrize("m", [17, 32, 128])
    def test_factored_reconstruction(self, m):
        model = build_model(b=2.0, n_trunc=16)
        xs = np.random.default_rng(m).uniform(0, 2 * np.pi, size=m)
        eig = mercer_gram_eigen(model, xs)
        assert eig.factor.shape == (m, 16)
        assert eig.mix.shape == (16, eig.rank)
        assert reconstruction_error(assemble_gram(model, xs), eig) <= 1e-10


def _perturbed_eigh(monkeypatch, relative):
    """Make np.linalg.eigh report its smallest eigenvalue as -relative * top."""
    original = np.linalg.eigh

    def perturbed(matrix):
        vals, vecs = original(matrix)
        vals = vals.copy()
        vals[np.argmin(vals)] = -relative * vals.max()
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


class TestFactoredClamp:
    """The factored path records its most negative raw eigenvalue as the dense one does."""

    def _solve(self, xs):
        return mercer_gram_eigen(build_model(b=2.0, n_trunc=8), xs)

    def test_records_the_raw_feature_spectrum(self):
        """Three distinct inputs leave the 8 x 8 feature matrix at rank 3."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.tile([0.4, 2.0, 5.1], 14)
        raw = np.linalg.eigh(model.empirical_operator(xs))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = mercer_gram_eigen(model, xs)
        assert eig.rank == 3
        assert eig.clamped == max(-float(raw.min()), 0.0)

    def test_counts_the_dropped_modes(self):
        """The same rank-3 input drops 5 of the 8 feature modes; full rank drops none."""
        model = build_model(b=2.0, n_trunc=8)
        assert mercer_gram_eigen(model, np.tile([0.4, 2.0, 5.1], 14)).dropped == 5
        xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=40)
        assert self._solve(xs).dropped == 0

    def test_large_clamp_warns(self, monkeypatch):
        xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=40)
        top = self._solve(xs).eigenvalues[0]
        _perturbed_eigh(monkeypatch, 1e-6)
        with pytest.warns(UserWarning, match="clamping eigenvalue"):
            eig = self._solve(xs)
        assert eig.clamped == pytest.approx(1e-6 * top, rel=1e-12)
        assert eig.rank == 7
        assert eig.eigenvalues.min() > 0

    def test_small_clamp_is_recorded_silently(self, monkeypatch):
        xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=40)
        top = self._solve(xs).eigenvalues[0]
        _perturbed_eigh(monkeypatch, 1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = self._solve(xs)
        assert eig.clamped == pytest.approx(1e-13 * top, rel=1e-12)
