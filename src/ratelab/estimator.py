"""Spectral-filter regression estimators over a kernel Gram matrix.

The fitted function is f(x) = sum_i k(x, x_i) c_i with coefficient rows
c_i read off the eigendecomposition of the scaled Gram matrix (1/m) K:

    c = (1/m) V g_lam(w) V^T y + (g_lam(0)/m) (y - V V^T y)
      = (1/m) V (g_lam(w) - g_lam(0)) V^T y + (g_lam(0)/m) y

where w are the retained eigenvalues and V their orthonormal eigenvectors.
The g_lam(0) term carries the Gram null space (and any eigenpairs a
factored decomposition omitted, which are all null); dropping it breaks
exact agreement with direct solvers whenever the filter has
g_lam(0) != 0, e.g. any Tikhonov variant. `fit` evaluates the second
line through `GramEigen.project` and `GramEigen.combine`, which apply V
as its stored product, one factor at a time: the orthogonal factor of a
tridiagonal reduction, kept as Householder reflectors, times the sorted
eigenbasis of the tridiagonal matrix, and on the factored path also the
(m, N) basis matrix the Dataset carries and a diagonal scaling. Neither
the (m, k) matrix V, the reflectors' product nor a scaled copy of the
basis is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedNormError
from .filters import SpectralFilter, tikhonov
from .gram import Dataset, GramEigen, assemble_gram, eigendecompose, mercer_gram_eigen
from .mercer import ExpansionNorms, MercerModel, TargetFunction, norms_of_expansion

MONTE_CARLO_POINTS = 10_000


@dataclass(frozen=True, eq=False)
class FittedEstimator:
    """A fitted regressor: training data, kernel, filter, and coefficients."""

    dataset: Dataset
    kernel: object
    filter: SpectralFilter
    lam: float
    coefficients: np.ndarray  # (m, d)
    gram: GramEigen | None = None

    def predict(self, xs) -> np.ndarray:
        cross = self.kernel.scalar_kernel(np.atleast_1d(xs), self.dataset.xs)
        return cross @ self.coefficients


def _gram_eigen_for(dataset: Dataset, kernel) -> GramEigen:
    if not isinstance(kernel, MercerModel):
        return eigendecompose(assemble_gram(kernel, dataset.xs))
    if dataset.m > kernel.n_trunc:
        return mercer_gram_eigen(kernel, dataset.xs, dataset.basis)
    return eigendecompose(assemble_gram(kernel, dataset.xs, dataset.basis))


def fit(
    dataset: Dataset,
    kernel,
    filt: SpectralFilter,
    lam: float,
    gram: GramEigen | None = None,
) -> FittedEstimator:
    """Fit by applying the spectral filter to the scaled Gram spectrum.

    ``kernel`` is anything with scalar_kernel(xs, zs); for a MercerModel
    with m > N the decomposition runs through the exact factored path.
    A precomputed ``gram`` eigendecomposition is reused as is.
    """
    if lam <= 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    eig = _gram_eigen_for(dataset, kernel) if gram is None else gram
    ys = dataset.ys
    m = dataset.m
    g_vals = np.atleast_1d(filt.values(eig.eigenvalues, lam))
    g_null = filt.values(0.0, lam)
    coeff = eig.combine((g_vals - g_null)[:, None] * eig.project(ys)) / m
    coeff += (g_null / m) * ys
    return FittedEstimator(
        dataset=dataset,
        kernel=kernel,
        filter=filt,
        lam=lam,
        coefficients=coeff,
        gram=eig,
    )


def fit_tikhonov_direct(dataset: Dataset, kernel, lam: float) -> FittedEstimator:
    """Reference Tikhonov fit via a dense linear solve, no eigendecomposition.

    Solves ((1/m) K + lam I) c = y / m. Exists to cross-check `fit`.
    """
    if lam <= 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    gram = assemble_gram(kernel, dataset.xs)
    lhs = gram + lam * np.eye(dataset.m)
    coeff = np.linalg.solve(lhs, dataset.ys / dataset.m)
    return FittedEstimator(
        dataset=dataset,
        kernel=kernel,
        filter=tikhonov(),
        lam=lam,
        coefficients=coeff,
        gram=None,
    )


def basis_coefficients(fit_result: FittedEstimator, model: MercerModel) -> np.ndarray:
    """Exact expansion of the fitted function against sqrt(t_n) e_n.

    f = sum_i k(., x_i) c_i = sum_n sqrt(t_n) (B^T c)_n * (sqrt(t_n) e_n),
    so the (N, d) coefficient array is diag(sqrt(t)) B^T c with B the basis
    matrix on the training inputs. Exact because the kernel is truncated.
    """
    data = fit_result.dataset
    feats = model.basis_at(data.xs, data.basis)
    raw = feats.T @ fit_result.coefficients
    return np.sqrt(model.eigenvalues)[:, None] * raw


def error_norms(
    fit_result: FittedEstimator, model: MercerModel, target: TargetFunction
) -> ExpansionNorms:
    """Exact L2 and RKHS error norms of a fit under its own Mercer kernel."""
    if fit_result.kernel is not model:
        raise UnsupportedNormError(
            "exact norms need the fit's own MercerModel; for other kernels "
            "use error_l2_montecarlo"
        )
    diff = basis_coefficients(fit_result, model) - target.coefficients
    return norms_of_expansion(model, diff)


def error_l2_montecarlo(
    fit_result: FittedEstimator,
    target: TargetFunction,
    points: int = MONTE_CARLO_POINTS,
) -> float:
    """Grid approximation of the L2 error, usable with any kernel."""
    xs = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    diff = fit_result.predict(xs) - target.evaluate(xs)
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def export_coefficients(fit_result: FittedEstimator) -> dict:
    """JSON-ready dump of the fitted representation."""
    return {
        "lam": fit_result.lam,
        "filter": fit_result.filter.describe(),
        "xs": fit_result.dataset.xs.tolist(),
        "coefficients": fit_result.coefficients.tolist(),
    }
