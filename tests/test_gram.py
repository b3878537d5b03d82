"""Tests for datasets, Gram assembly, and exact eigendecompositions."""

import warnings

import numpy as np
import pytest

from ratelab.errors import DataError, ParameterError
from ratelab.gram import (
    Dataset,
    GaussianRBF,
    _tridiagonal_eigh,
    assemble_gram,
    eigendecompose,
    mercer_gram_eigen,
    reconstruction_error,
    spectral_norm,
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

    @pytest.mark.parametrize("m", [5, 8])
    def test_mercer_gram_from_a_carried_basis_is_identical(self, m):
        model = build_model(b=2.0, n_trunc=8)
        xs = np.random.default_rng(m).uniform(0, 2 * np.pi, size=m)
        basis = model.basis(xs)
        assert np.array_equal(assemble_gram(model, xs, basis), assemble_gram(model, xs))

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

    def test_asymmetric_argument_is_symmetrized(self):
        """The result is that of 0.5 (G + G^T), bit for bit, not of G's lower triangle."""
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((7, 7))
        gram = raw @ raw.T / 7.0 + 1e-3 * rng.standard_normal((7, 7))
        symmetric = 0.5 * (gram + gram.T)
        eig, want = eigendecompose(gram), eigendecompose(symmetric)
        for field in ("eigenvalues", "mix", "reflectors", "tau"):
            assert np.array_equal(getattr(eig, field), getattr(want, field))
        np.testing.assert_allclose(
            eig.eigenvalues, np.linalg.eigvalsh(symmetric)[::-1], rtol=0, atol=1e-13
        )
        lower = np.tril(gram) + np.tril(gram, -1).T
        assert not np.allclose(eig.eigenvalues, np.linalg.eigvalsh(lower)[::-1], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spectral_norm_takes_the_larger_end(self, sign):
        """Whichever end of the spectrum is larger in magnitude sets the norm."""
        rng = np.random.default_rng(5)
        rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        matrix = sign * (rotation * np.array([-3.0, 0.5, 1.0, 2.0])) @ rotation.T
        assert spectral_norm(matrix) == pytest.approx(3.0, rel=1e-14)
        assert spectral_norm(np.zeros((1, 1))) == 0.0

    def test_spectral_norm_reduces_in_place_unless_read_only(self):
        """The reduction reuses a writeable input's memory and copies a read-only one."""
        raw = np.random.default_rng(9).standard_normal((16, 16))
        matrix = raw + raw.T
        kept = matrix.copy()
        kept.flags.writeable = False
        want = spectral_norm(matrix)
        assert not np.array_equal(matrix, kept)
        assert spectral_norm(kept) == want
        assert np.array_equal(kept, raw + raw.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128])
    def test_spectral_norm_matches_the_full_spectrum(self, n):
        raw = np.random.default_rng(n).standard_normal((n, n))
        matrix = raw + raw.T
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(matrix))))
        assert spectral_norm(matrix) == pytest.approx(oracle, rel=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(DataError):
            eigendecompose(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            eigendecompose(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [1, 2, 3, 512])
    def test_built_vectors_are_orthonormal_and_reconstruct(self, n):
        """The reflectors times the tridiagonal eigenbasis, built on request, at n = 1 too."""
        model = build_model(b=2.0, n_trunc=512)
        xs = np.random.default_rng(n).uniform(0, 2 * np.pi, size=n)
        gram_matrix = assemble_gram(model, xs)
        eig = eigendecompose(gram_matrix)
        assert eig.tau.shape == (n - 1,)
        vectors = eig.vectors
        assert vectors.shape == (n, n)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), rtol=0, atol=1e-12)
        assert reconstruction_error(gram_matrix, eig) <= 1e-10
        np.testing.assert_allclose(
            eig.eigenvalues, np.linalg.eigvalsh(gram_matrix)[::-1], rtol=0, atol=1e-12
        )


class TestFactoredEigen:
    def test_matches_dense_beyond_feature_count(self):
        model = build_model(b=2.0, n_trunc=8)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 2 * np.pi, size=40)
        moments = model.sample_moments(xs)
        eig = mercer_gram_eigen(model, moments)
        assert not eig.complete
        assert eig.rank <= 8
        gram = assemble_gram(model, xs)
        dense = eigendecompose(gram)
        np.testing.assert_allclose(
            eig.eigenvalues, dense.eigenvalues[: eig.rank], rtol=1e-9, atol=1e-12
        )
        assert reconstruction_error(model.empirical_operator(moments), eig) < 1e-12

    def test_columns_orthonormal(self):
        model = build_model(b=1.5, n_trunc=8)
        xs = np.random.default_rng(11).uniform(0, 2 * np.pi, size=64)
        eig = mercer_gram_eigen(model, model.sample_moments(xs))
        np.testing.assert_allclose(
            eig.vectors.T @ eig.vectors, np.eye(eig.rank), atol=1e-10
        )

    @pytest.mark.parametrize("m", [512, 513, 1024])
    def test_feature_eigenvectors_orthonormal_near_the_switch(self, m):
        """W = Q Z is orthonormal to rounding however small the kept eigenvalues
        get just above m = N, since no inverse root of them is folded in."""
        model = build_model(b=2.0, n_trunc=512)
        xs = np.random.default_rng(m).uniform(0, 2 * np.pi, size=m)
        eig = mercer_gram_eigen(model, model.sample_moments(xs))
        assert not eig.complete
        vectors = eig.vectors
        assert vectors.shape == (512, eig.rank)
        assert np.abs(vectors.T @ vectors - np.eye(eig.rank)).max() <= 1e-12


class TestProductForm:
    """The eigenvectors Q mix are applied from right to left and built only on request."""

    @pytest.mark.parametrize("m", [5, 8, 9, 40])
    def test_project_and_combine_agree_with_built_vectors(self, m):
        """Agreement to 1e-12 on both paths: the dense one acts in R^m (m < 8),
        the feature one in R^N with N = 8."""
        model = build_model(b=2.0, n_trunc=8)
        rng = np.random.default_rng(m)
        xs = rng.uniform(0, 2 * np.pi, size=m)
        if m < 8:
            eig = eigendecompose(assemble_gram(model, xs))
        else:
            eig = mercer_gram_eigen(model, model.sample_moments(xs))
        n = eig.size
        vectors = eig.vectors
        assert vectors.shape == (n, eig.rank)
        ys = rng.standard_normal((n, 3))
        z = rng.standard_normal((eig.rank, 3))
        tol = 1e-12
        np.testing.assert_allclose(eig.project(ys), vectors.T @ ys, rtol=tol, atol=tol)
        np.testing.assert_allclose(eig.combine(z), vectors @ z, rtol=tol, atol=tol)

    def test_feature_path_assembles_from_carried_moments(self, monkeypatch):
        """Given a sample's moments, the feature path evaluates no basis at all."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.random.default_rng(3).uniform(0, 2 * np.pi, size=40)
        moments = model.sample_moments(xs)
        fresh = mercer_gram_eigen(model, moments)

        def refuse(*_args):
            raise AssertionError("the basis was evaluated")

        monkeypatch.setattr("ratelab.mercer.trigonometric_basis", refuse)
        eig = mercer_gram_eigen(model, moments)
        assert np.array_equal(eig.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(eig.vectors, fresh.vectors)

    def test_moments_of_another_truncation_are_refused(self):
        """Moments taken for N = 16 name both truncations instead of being recomputed."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.random.default_rng(3).uniform(0, 2 * np.pi, size=40)
        other = build_model(b=2.0, n_trunc=16).sample_moments(xs)
        for call in (model.empirical_operator, lambda moments: mercer_gram_eigen(model, moments)):
            with pytest.raises(ParameterError, match="N = 16 truncation .* N = 8 model"):
                call(other)

    @pytest.mark.parametrize("m", [17, 32, 128])
    def test_factored_reconstruction(self, m):
        """W diag(w) W^T rebuilds the empirical operator, and (Phi W) (Phi W)^T
        with Phi = B diag(sqrt t) / sqrt(m) the m x m Gram Phi Phi^T."""
        model = build_model(b=2.0, n_trunc=16)
        xs = np.random.default_rng(m).uniform(0, 2 * np.pi, size=m)
        moments = model.sample_moments(xs)
        eig = mercer_gram_eigen(model, moments)
        assert eig.size == 16
        assert eig.reflectors.shape == (15, 15)
        assert eig.mix.shape == (16, eig.rank)
        assert reconstruction_error(model.empirical_operator(moments), eig) <= 1e-12
        phi = model.basis(xs) * np.sqrt(model.eigenvalues / m)[None, :]
        vectors = eig.vectors
        assert eig.rank == 16
        rebuilt = (phi @ vectors) @ (phi @ vectors).T
        assert np.abs(rebuilt - assemble_gram(model, xs)).max() <= 1e-10


def _perturbed_solver(monkeypatch, relative):
    """Make the tridiagonal eigensolver report its smallest eigenvalue as -relative * top."""
    def perturbed(matrix):
        vals, *rest = _tridiagonal_eigh(matrix)
        vals = vals.copy()
        vals[np.argmin(vals)] = -relative * vals.max()
        return (vals, *rest)

    monkeypatch.setattr("ratelab.gram._tridiagonal_eigh", perturbed)


class TestFactoredClamp:
    """The factored path records its most negative raw eigenvalue as the dense one does."""

    def _solve(self, xs):
        model = build_model(b=2.0, n_trunc=8)
        return mercer_gram_eigen(model, model.sample_moments(xs))

    def test_records_the_raw_feature_spectrum(self):
        """Three distinct inputs leave the 8 x 8 feature matrix at rank 3."""
        model = build_model(b=2.0, n_trunc=8)
        xs = np.tile([0.4, 2.0, 5.1], 14)
        raw = _tridiagonal_eigh(model.empirical_operator(model.sample_moments(xs)))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = self._solve(xs)
        assert eig.rank == 3
        assert eig.clamped == max(-float(raw.min()), 0.0)

    def test_counts_the_dropped_modes(self):
        """The same rank-3 input drops 5 of the 8 feature modes; full rank drops none."""
        assert self._solve(np.tile([0.4, 2.0, 5.1], 14)).dropped == 5
        xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=40)
        assert self._solve(xs).dropped == 0

    def test_large_clamp_warns(self, monkeypatch):
        xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=40)
        top = self._solve(xs).eigenvalues[0]
        _perturbed_solver(monkeypatch, 1e-6)
        with pytest.warns(UserWarning, match="clamping eigenvalue"):
            eig = self._solve(xs)
        assert eig.clamped == pytest.approx(1e-6 * top, rel=1e-12)
        assert eig.rank == 7
        assert eig.eigenvalues.min() > 0

    def test_small_clamp_is_recorded_silently(self, monkeypatch):
        xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=40)
        top = self._solve(xs).eigenvalues[0]
        _perturbed_solver(monkeypatch, 1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = self._solve(xs)
        assert eig.clamped == pytest.approx(1e-13 * top, rel=1e-12, abs=0)
