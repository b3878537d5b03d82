"""Spectral-filter regression estimators over a kernel Gram matrix.

The fitted function is f(x) = sum_i k(x, x_i) c_i with coefficient rows

    c = (1/m) g_lam(G) y,   G = (1/m) K the scaled Gram matrix.

Below N samples, and for kernels that are not a MercerModel, `fit`
decomposes G (`gram.eigendecompose`). For the Tikhonov family g_lam(G) y
is one Cholesky factorization of G + lam I and nu solves with it
(`SpectralFilter.apply_matrix`). The other filters read the eigenpairs
G = V diag(w) V^T of its tridiagonal reduction G = Q T Q^T, with
T = Z diag(w) Z^T and V = Q Z applied as Householder reflectors:

    g_lam(G) y = V (g_lam(w) - g_lam(0)) V^T y + g_lam(0) y.

The g_lam(0) term carries the Gram null space (and any eigenpairs a
decomposition omitted, which are all null); dropping it breaks exact
agreement with direct solvers whenever the filter has g_lam(0) != 0.

Every fit under a MercerModel holds its expansion a against
sqrt(t_n) e_n, the one representation its norms read. With
Phi = B diag(sqrt t) / sqrt(m) for the (m, N) basis matrix B and the
empirical operator A = Phi^T Phi, the push-through identity
Phi^T g_lam(Phi Phi^T) = g_lam(A) Phi^T gives

    a = diag(sqrt t) B^T c = g_lam(A) u,   u = diag(sqrt t) B^T y / m.

Below N it is computed from the dense fit's rows and the features the
Gram was built from, evaluated at most once per fit. From m = N on the
fit stays in the feature domain: a = g_lam(A) u by a Cholesky
factorization or by eigenpairs of A, in O(N^2 d) once A is factored or
reduced, from the sample's moments (`gram.SampleMoments`), with no
m-sized array and no coefficient rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedNormError
from .filters import SpectralFilter
from .gram import Dataset, GramEigen, assemble_gram, eigendecompose, mercer_gram_eigen
from .mercer import ExpansionNorms, MercerModel, TargetFunction, norms_of_expansion

@dataclass(frozen=True, eq=False)
class FittedEstimator:
    """A fitted regressor: training data, kernel, filter and representation.

    A dense fit holds its coefficient rows c (m, d) in ``dual``. A `fit`
    under a MercerModel holds its expansion a (N, d) against sqrt(t_n) e_n
    in ``expansion``, the only representation of a feature-domain fit.
    ``clamped`` and ``dropped`` are the health of the eigenpairs the fit
    applied, both zero when there were none.
    """

    dataset: Dataset
    kernel: object
    filter: SpectralFilter
    lam: float
    clamped: float = 0.0
    dropped: int = 0
    dual: np.ndarray | None = None
    expansion: np.ndarray | None = None


def fit(
    dataset: Dataset, kernel, filt: SpectralFilter, lam: float, gram: GramEigen | None = None
) -> FittedEstimator:
    """Fit by applying the spectral filter to the decomposed scaled Gram.

    ``kernel`` is anything with scalar_kernel(xs, zs); for a MercerModel
    with m >= N the fit runs in the feature domain, from the moments the
    Dataset carries (or moments computed from its samples), and below N
    on the dense Gram Phi Phi^T / m, from the `Features` it carries (or
    Phi evaluated at its samples), whose Phi^T c is the expansion. A
    precomputed ``gram`` decomposition is reused, and its matrix is
    factored on a copy; one built here is factored in place.
    """
    g_null = filt.values(0.0, lam)  # refuses a bad lam before any decomposition
    is_mercer = isinstance(kernel, MercerModel)
    feature = is_mercer and (dataset.m >= kernel.n_trunc if gram is None else not gram.complete)
    moments = kernel.moments_of(dataset) if feature else None
    features = kernel.features(dataset.xs, dataset.features) if is_mercer and not feature else None
    if gram is not None:
        eig = gram
    elif feature:
        eig = mercer_gram_eigen(kernel, moments)
    else:
        eig = eigendecompose(assemble_gram(kernel, dataset.xs, features))
    x = np.sqrt(kernel.eigenvalues)[:, None] * moments.response if feature else dataset.ys
    applied, health = filt.apply_matrix(eig.matrix, x, lam, overwrite=gram is None), (0.0, 0)
    if applied is None:
        applied, health = _by_eigenpairs(eig, filt, lam, g_null, x), (eig.clamped, eig.dropped)
    if feature:
        return FittedEstimator(dataset, kernel, filt, lam, *health, expansion=applied)
    dual = applied / dataset.m
    expansion = features.matrix.T @ dual if is_mercer else None
    return FittedEstimator(dataset, kernel, filt, lam, *health, dual=dual, expansion=expansion)


def _by_eigenpairs(eig: GramEigen, filt: SpectralFilter, lam: float, g_null: float, x: np.ndarray):
    """g_lam(A) x = V (g_lam(w) - g_lam(0)) V^T x + g_lam(0) x for the eigenpairs
    A = V diag(w) V^T of ``eig``, negative round-off clamped to zero; the
    second term carries any modes the eigensystem dropped."""
    gain = np.atleast_1d(filt.values(eig.eigenvalues, lam)) - g_null
    return eig.combine(gain[:, None] * eig.project(x)) + g_null * x


def basis_coefficients(fit_result: FittedEstimator, model: MercerModel) -> np.ndarray:
    """Exact expansion of the fitted function against sqrt(t_n) e_n.

    f = sum_i k(., x_i) c_i = sum_n sqrt(t_n) (B^T c)_n * (sqrt(t_n) e_n),
    so the (N, d) coefficient array is diag(sqrt t) B^T c, the
    ``expansion`` that `fit` keeps under ``model``; exact because the
    kernel is truncated. A fit under any other kernel, another
    MercerModel of the same N included, or one that holds no expansion
    is refused.
    """
    if fit_result.kernel is not model or fit_result.expansion is None:
        raise UnsupportedNormError("an exact expansion needs a fit by `fit` under this MercerModel")
    return fit_result.expansion


def error_norms(
    fit_result: FittedEstimator, model: MercerModel, target: TargetFunction
) -> ExpansionNorms:
    """Exact L2 and RKHS error norms of a fit under its own Mercer kernel
    (`basis_coefficients`, which refuses any other)."""
    return norms_of_expansion(model, basis_coefficients(fit_result, model) - target.coefficients)


def export_coefficients(fit_result: FittedEstimator) -> dict:
    """JSON-ready dump of a fit under its MercerModel: lam, the filter and the
    (N, d) expansion against sqrt(t_n) e_n (`basis_coefficients`), in the
    basis of `TargetFunction.coefficients`."""
    return {
        "lam": fit_result.lam,
        "filter": fit_result.filter.describe(),
        "expansion": basis_coefficients(fit_result, fit_result.kernel).tolist(),
    }
