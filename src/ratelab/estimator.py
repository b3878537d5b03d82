"""Spectral-filter regression estimators over a kernel Gram matrix.

The fitted function is f(x) = sum_i k(x, x_i) c_i with coefficient rows
c_i read off the eigendecomposition of the scaled Gram matrix (1/m) K:

    c = (1/m) V g_lam(w) V^T y + (g_lam(0)/m) (y - V V^T y)
      = (1/m) V (g_lam(w) - g_lam(0)) V^T y + (g_lam(0)/m) y

where w are the retained eigenvalues and V their orthonormal eigenvectors.
The g_lam(0) term carries the Gram null space (and any eigenpairs a
decomposition omitted, which are all null); dropping it breaks exact
agreement with direct solvers whenever the filter has g_lam(0) != 0,
e.g. any Tikhonov variant. Below N samples, and for kernels that are
not a MercerModel, `fit` evaluates the second line on the dense
eigensystem through `GramEigen.project` and `GramEigen.combine`, which
apply V as the reflectors of a tridiagonal reduction times the sorted
eigenbasis of the tridiagonal matrix, never formed.

From m = N on, a MercerModel fit stays in the feature domain. With
Phi = B diag(sqrt t) / sqrt(m) for the (m, N) basis matrix B and the
empirical operator Phi^T Phi = W S W^T, the Gram eigenvectors are
V = Phi W S^-1/2, so the expansion a = diag(sqrt t) B^T c of the fit
against sqrt(t_n) e_n is

    a = W (g_lam(w) - g_lam(0)) W^T u + g_lam(0) u,   u = diag(sqrt t) B^T y / m,

O(N^2 d) from the sample's moments (`gram.SampleMoments`), with no
m-sized array. The coefficient rows themselves,

    c = (1/m) B diag(sqrt t) W ((g_lam(w) - g_lam(0)) / w) W^T u + (g_lam(0)/m) y,

are derived only when read, in one chunked pass over the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, UnsupportedNormError
from .filters import SpectralFilter, tikhonov
from .gram import Dataset, GramEigen, assemble_gram, eigendecompose, mercer_gram_eigen
from .mercer import ExpansionNorms, MercerModel, TargetFunction, norms_of_expansion

MONTE_CARLO_POINTS = 10_000


@dataclass(frozen=True, eq=False)
class FittedEstimator:
    """A fitted regressor: training data, kernel, filter and representation.

    A dense fit holds its coefficient rows c (m, d) in ``dual``. A fit in
    the feature domain (``gram.complete`` False) holds the expansion
    a (N, d) against sqrt(t_n) e_n in ``expansion`` instead, and
    ``coefficients`` derives c from it when first read.
    """

    dataset: Dataset
    kernel: object
    filter: SpectralFilter
    lam: float
    gram: GramEigen | None = None
    dual: np.ndarray | None = None
    expansion: np.ndarray | None = None

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The coefficient rows c, shape (m, d)."""
        if self.dual is not None:
            return self.dual
        model, eig, data = self.kernel, self.gram, self.dataset
        g_null = self.filter.values(0.0, self.lam)
        gain = np.atleast_1d(self.filter.values(eig.eigenvalues, self.lam)) - g_null
        root_t = np.sqrt(model.eigenvalues)[:, None]
        u = root_t * model.moments_of(data).response
        weights = root_t * eig.combine((gain / eig.eigenvalues)[:, None] * eig.project(u)) / data.m
        coeff = (g_null / data.m) * data.ys
        for rows, feats in model.basis_chunks(data.xs, data.basis):
            coeff[rows] += feats @ weights
        return coeff

    def predict(self, xs) -> np.ndarray:
        if self.expansion is not None:
            return self.kernel.expand(self.expansion, xs)
        cross = self.kernel.scalar_kernel(np.atleast_1d(xs), self.dataset.xs)
        return cross @ self.coefficients


def fit(
    dataset: Dataset,
    kernel,
    filt: SpectralFilter,
    lam: float,
    gram: GramEigen | None = None,
) -> FittedEstimator:
    """Fit by applying the spectral filter to the scaled Gram spectrum.

    ``kernel`` is anything with scalar_kernel(xs, zs); for a MercerModel
    with m >= N the fit runs in the feature domain, from the moments the
    Dataset carries (or moments computed from its samples). A
    precomputed ``gram`` eigendecomposition is reused as is.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    is_mercer = isinstance(kernel, MercerModel)
    feature = is_mercer and (dataset.m >= kernel.n_trunc if gram is None else not gram.complete)
    moments = kernel.moments_of(dataset) if feature else None
    if gram is not None:
        eig = gram
    elif feature:
        eig = mercer_gram_eigen(kernel, moments)
    else:
        eig = eigendecompose(assemble_gram(kernel, dataset.xs, dataset.basis if is_mercer else None))
    g_vals = np.atleast_1d(filt.values(eig.eigenvalues, lam))
    g_null = filt.values(0.0, lam)
    dual = expansion = None
    if eig.complete:
        ys, m = dataset.ys, dataset.m
        dual = eig.combine((g_vals - g_null)[:, None] * eig.project(ys)) / m
        dual += (g_null / m) * ys
    else:
        u = np.sqrt(kernel.eigenvalues)[:, None] * moments.response
        expansion = eig.combine((g_vals - g_null)[:, None] * eig.project(u)) + g_null * u
    return FittedEstimator(
        dataset=dataset,
        kernel=kernel,
        filter=filt,
        lam=lam,
        gram=eig,
        dual=dual,
        expansion=expansion,
    )


def fit_tikhonov_direct(dataset: Dataset, kernel, lam: float) -> FittedEstimator:
    """Reference Tikhonov fit via a dense linear solve, no eigendecomposition.

    Solves ((1/m) K + lam I) c = y / m. Exists to cross-check `fit`.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    gram = assemble_gram(kernel, dataset.xs)
    lhs = gram + lam * np.eye(dataset.m)
    coeff = np.linalg.solve(lhs, dataset.ys / dataset.m)
    return FittedEstimator(
        dataset=dataset,
        kernel=kernel,
        filter=tikhonov(),
        lam=lam,
        dual=coeff,
    )


def basis_coefficients(fit_result: FittedEstimator, model: MercerModel) -> np.ndarray:
    """Exact expansion of the fitted function against sqrt(t_n) e_n.

    f = sum_i k(., x_i) c_i = sum_n sqrt(t_n) (B^T c)_n * (sqrt(t_n) e_n),
    so the (N, d) coefficient array is diag(sqrt(t)) B^T c with B the basis
    matrix on the training inputs, summed over row chunks of B. A fit in
    the feature domain under ``model`` holds that array already. Exact
    because the kernel is truncated.
    """
    if fit_result.expansion is not None and fit_result.kernel is model:
        return fit_result.expansion
    data, coeff = fit_result.dataset, fit_result.coefficients
    raw = np.zeros((model.n_trunc, coeff.shape[1]))
    for rows, feats in model.basis_chunks(data.xs, data.basis):
        raw += feats.T @ coeff[rows]
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
