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
sqrt(t_n) e_n. With Phi = B diag(sqrt t) / sqrt(m) for the (m, N) basis
matrix B and the empirical operator A = Phi^T Phi, the push-through
identity Phi^T g_lam(Phi Phi^T) = g_lam(A) Phi^T gives

    a = diag(sqrt t) B^T c = g_lam(A) u,   u = diag(sqrt t) B^T y / m.

Below N it is computed from the dense fit's rows and the features the
Gram was built from. From m = N on the fit stays in the feature domain:
a = g_lam(A) u by a Cholesky factorization or by eigenpairs of A, in
O(N^2 d) once A is factored or reduced, from the sample's moments
(`gram.SampleMoments`), with no m-sized array. Its coefficient rows
follow, when first read, as

    c = (g_lam(0) y + f_h(x)) / m,   h = h_lam(A) u,   h_lam(s) = (g_lam(s) - g_lam(0)) / s,

f_h(x) the values at the samples of the expansion h
(`MercerModel.expand`), one chunked pass over the basis table; both
ways of applying a filter give h with a.
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

    A dense fit holds its coefficient rows c (m, d) in ``dual``. A `fit`
    under a MercerModel holds its expansion a (N, d) against sqrt(t_n) e_n
    in ``expansion``; in the feature domain it holds no ``dual`` but the
    expansion h = h_lam(A) u in ``secant``, from which ``coefficients``
    derives c when first read. ``clamped`` and ``dropped`` are the health
    of the eigenpairs the fit applied, both zero when there were none.
    """

    dataset: Dataset
    kernel: object
    filter: SpectralFilter
    lam: float
    clamped: float = 0.0
    dropped: int = 0
    dual: np.ndarray | None = None
    expansion: np.ndarray | None = None
    secant: np.ndarray | None = None

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The coefficient rows c, shape (m, d)."""
        if self.dual is not None:
            return self.dual
        data, g_null = self.dataset, self.filter.values(0.0, self.lam)
        return (g_null * data.ys + self.kernel.expand(self.secant, data.xs)) / data.m

    def predict(self, xs) -> np.ndarray:
        if self.expansion is not None:
            return self.kernel.expand(self.expansion, xs)
        cross = self.kernel.scalar_kernel(np.atleast_1d(xs), self.dataset.xs)
        return cross @ self.coefficients


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
    if gram is not None:
        eig = gram
    elif feature:
        eig = mercer_gram_eigen(kernel, moments)
    else:
        eig = eigendecompose(assemble_gram(kernel, dataset.xs, dataset.features if is_mercer else None))
    x = np.sqrt(kernel.eigenvalues)[:, None] * moments.response if feature else dataset.ys
    applied, health = filt.apply_matrix(eig.matrix, x, lam, overwrite=gram is None), (0.0, 0)
    if applied is None:
        applied, health = _by_eigenpairs(eig, filt, lam, g_null, x), (eig.clamped, eig.dropped)
    value, secant = applied
    if feature:
        return FittedEstimator(dataset, kernel, filt, lam, *health, expansion=value, secant=secant)
    dual = value / dataset.m
    expansion = kernel.features(dataset.xs, dataset.features).T @ dual if is_mercer else None
    return FittedEstimator(dataset, kernel, filt, lam, *health, dual=dual, expansion=expansion)


def _by_eigenpairs(eig: GramEigen, filt: SpectralFilter, lam: float, g_null: float, x: np.ndarray):
    """(g_lam(A) x, h_lam(A) x) for the eigenpairs A = V diag(w) V^T of ``eig``,
    negative round-off clamped to zero: g_lam(A) x = V (g_lam(w) - g_lam(0)) V^T x
    + g_lam(0) x, whose second term carries any modes the eigensystem dropped,
    and h_lam(A) x = V h_lam(w) V^T x over the modes with w > 0. The null
    modes, on which s h_lam(s) vanishes, add nothing to h."""
    w = eig.eigenvalues
    gain = np.atleast_1d(filt.values(w, lam)) - g_null
    proj = eig.project(x)
    slope = np.divide(gain, w, out=np.zeros_like(gain), where=w > 0)
    return eig.combine(gain[:, None] * proj) + g_null * x, eig.combine(slope[:, None] * proj)


def fit_tikhonov_direct(dataset: Dataset, kernel, lam: float) -> FittedEstimator:
    """Reference Tikhonov fit via a dense linear solve, no eigendecomposition.

    Solves ((1/m) K + lam I) c = y / m. Exists to cross-check `fit`.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    lhs = assemble_gram(kernel, dataset.xs) + lam * np.eye(dataset.m)
    return FittedEstimator(
        dataset, kernel, tikhonov(), lam, dual=np.linalg.solve(lhs, dataset.ys / dataset.m)
    )


def basis_coefficients(fit_result: FittedEstimator, model: MercerModel) -> np.ndarray:
    """Exact expansion of the fitted function against sqrt(t_n) e_n.

    f = sum_i k(., x_i) c_i = sum_n sqrt(t_n) (B^T c)_n * (sqrt(t_n) e_n),
    so the (N, d) coefficient array is diag(sqrt t) B^T c, the
    ``expansion`` that `fit` keeps under ``model``; exact because the
    kernel is truncated. A fit under any other kernel, another
    MercerModel of the same N included, or one with no expansion (a
    `fit_tikhonov_direct` result) is refused.
    """
    if fit_result.kernel is not model or fit_result.expansion is None:
        raise UnsupportedNormError(
            "an exact expansion needs a fit by `fit` under this MercerModel; "
            "for other kernels use error_l2_montecarlo"
        )
    return fit_result.expansion


def error_norms(
    fit_result: FittedEstimator, model: MercerModel, target: TargetFunction
) -> ExpansionNorms:
    """Exact L2 and RKHS error norms of a fit under its own Mercer kernel
    (`basis_coefficients`, which refuses any other)."""
    return norms_of_expansion(model, basis_coefficients(fit_result, model) - target.coefficients)


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
