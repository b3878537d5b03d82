"""Spectral-filter regression estimators under a Mercer model's kernel.

The fitted function is f(x) = sum_i k(x, x_i) c_i with coefficient rows

    c = (1/m) g_lam(G) y,   G = (1/m) K the scaled Gram matrix.

Below N samples `fit` decomposes G (`gram.eigendecompose`). For the
Tikhonov family g_lam(G) y is one Cholesky factorization of G + lam I and
nu solves with it (`SpectralFilter.apply_matrix`). The other filters read
the eigenpairs G = V diag(w) V^T of its tridiagonal reduction
G = Q T Q^T, with T = Z diag(w) Z^T and V = Q Z applied as Householder
reflectors:

    g_lam(G) y = V (g_lam(w) - g_lam(0)) V^T y + g_lam(0) y.

The g_lam(0) term carries the Gram null space (and any eigenpairs a
decomposition omitted, which are all null); dropping it breaks exact
agreement with direct solvers whenever the filter has g_lam(0) != 0.

A fit holds one representation, its expansion a against sqrt(t_n) e_n,
which its norms read. With Phi = B diag(sqrt t) / sqrt(m) for the (m, N)
basis matrix B and the empirical operator A = Phi^T Phi, the push-through
identity Phi^T g_lam(Phi Phi^T) = g_lam(A) Phi^T gives

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
    """A fit: its model, filter and lam, and its expansion a (N, d) against
    sqrt(t_n) e_n. ``clamped`` and ``dropped`` are the health of the
    eigenpairs the fit applied, both zero when there were none.
    """

    kernel: MercerModel
    filter: SpectralFilter
    lam: float
    expansion: np.ndarray
    clamped: float = 0.0
    dropped: int = 0


def fit(
    dataset: Dataset, model: MercerModel, filt: SpectralFilter, lam: float,
    gram: GramEigen | None = None,
) -> FittedEstimator:
    """Fit by applying the spectral filter to the decomposed scaled Gram.

    With m >= N the fit runs in the feature domain, from the moments the
    Dataset carries (or moments computed from its samples), and below N
    on the dense Gram Phi Phi^T / m, from the `Features` it carries (or
    Phi evaluated at its samples), whose Phi^T c is the expansion. A
    precomputed ``gram`` decomposition is reused, and its matrix is
    factored on a copy; one built here is factored in place.
    """
    g_null = filt.values(0.0, lam)  # refuses a bad lam before any decomposition
    feature = dataset.m >= model.n_trunc if gram is None else not gram.complete
    if feature:
        moments = model.moments_of(dataset)
        eig = mercer_gram_eigen(model, moments) if gram is None else gram
        x = np.sqrt(model.eigenvalues)[:, None] * moments.response
    else:
        features = model.features(dataset.xs, dataset.features)
        eig = eigendecompose(assemble_gram(model, dataset.xs, features)) if gram is None else gram
        x = dataset.ys
    applied, health = filt.apply_matrix(eig.matrix, x, lam, overwrite=gram is None), (0.0, 0)
    if applied is None:
        applied, health = _by_eigenpairs(eig, filt, lam, g_null, x), (eig.clamped, eig.dropped)
    expansion = applied if feature else features.matrix.T @ (applied / dataset.m)
    return FittedEstimator(model, filt, lam, expansion, *health)


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
    kernel is truncated. A fit under another model, one of the same N
    included, is refused.
    """
    if fit_result.kernel is not model:
        raise UnsupportedNormError("an exact expansion needs a fit under this MercerModel")
    return fit_result.expansion


def error_norms(
    fit_result: FittedEstimator, model: MercerModel, target: TargetFunction
) -> ExpansionNorms:
    """Exact L2 and RKHS error norms of a fit under its own Mercer kernel
    (`basis_coefficients`, which refuses any other)."""
    return norms_of_expansion(model, basis_coefficients(fit_result, model) - target.coefficients)


def export_coefficients(fit_result: FittedEstimator) -> dict:
    """JSON-ready dump of a fit: lam, the filter and the (N, d) expansion
    against sqrt(t_n) e_n, in the basis of `TargetFunction.coefficients`."""
    return {
        "lam": fit_result.lam,
        "filter": fit_result.filter.describe(),
        "expansion": fit_result.expansion.tolist(),
    }
