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

From m = N on, a MercerModel fit stays in the feature domain. With
Phi = B diag(sqrt t) / sqrt(m) for the (m, N) basis matrix B and the
empirical operator A = Phi^T Phi = W S W^T, the Gram eigenvectors are
V = Phi W S^-1/2, so the expansion a = diag(sqrt t) B^T c of the fit
against sqrt(t_n) e_n is

    a = g_lam(A) u = W (g_lam(w) - g_lam(0)) W^T u + g_lam(0) u,   u = diag(sqrt t) B^T y / m,

evaluated on A as above, by a Cholesky factorization or by eigenpairs,
in O(N^2 d) once A is factored or reduced, from the sample's moments
(`gram.SampleMoments`), with no m-sized array. The coefficient rows
themselves are derived only when read, as the values at the samples of
an expansion (`MercerModel.expand`), one chunked pass over the basis
table. For the Tikhonov family the iterates satisfy
(G + lam I) c_j = y / m + lam c_(j-1), and m G c_j is the values f_j(x)
of the j-th iterate's expansion a_j, so summing over j = 1..nu gives

    c = (nu y - f_sum(x)) / (lam m),   f_sum the expansion a_1 + ... + a_nu,

with no eigenpairs. The other filters read them:

    c = (1/m) B diag(sqrt t) W ((g_lam(w) - g_lam(0)) / w) W^T u + (g_lam(0)/m) y.
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
    the feature domain holds the expansion a (N, d) against sqrt(t_n) e_n
    in ``expansion`` instead, and ``coefficients`` derives c from it when
    first read. ``gram`` is the decomposition whose eigenpairs the fit
    applied, None when it applied a Cholesky factorization instead; such
    a fit in the feature domain keeps the sum of its iterates' expansions
    in ``iterate_sum``. ``clamped`` and ``dropped`` are the health of the
    eigenpairs applied, both zero when there were none.
    """

    dataset: Dataset
    kernel: object
    filter: SpectralFilter
    lam: float
    gram: GramEigen | None = None
    dual: np.ndarray | None = None
    expansion: np.ndarray | None = None
    iterate_sum: np.ndarray | None = None

    @property
    def clamped(self) -> float:
        return 0.0 if self.gram is None else self.gram.clamped

    @property
    def dropped(self) -> int:
        return 0 if self.gram is None else self.gram.dropped

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The coefficient rows c, shape (m, d)."""
        if self.dual is not None:
            return self.dual
        model, eig, data = self.kernel, self.gram, self.dataset
        if eig is None:
            f_sum = model.expand(self.iterate_sum, data.xs)
            return (self.filter.iterations * data.ys - f_sum) / (self.lam * data.m)
        g_null = self.filter.values(0.0, self.lam)
        gain = np.atleast_1d(self.filter.values(eig.eigenvalues, self.lam)) - g_null
        u = np.sqrt(model.eigenvalues)[:, None] * model.moments_of(data).response
        weights = eig.combine((gain / eig.eigenvalues)[:, None] * eig.project(u)) / data.m
        return (g_null / data.m) * data.ys + model.expand(weights, data.xs)

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
    """Fit by applying the spectral filter to the decomposed scaled Gram.

    ``kernel`` is anything with scalar_kernel(xs, zs); for a MercerModel
    with m >= N the fit runs in the feature domain, from the moments the
    Dataset carries (or moments computed from its samples), and below N
    on the dense Gram Phi Phi^T / m, from the `Features` it carries (or
    Phi evaluated at its samples). A precomputed ``gram`` decomposition
    is reused, and its matrix is factored on a copy; one built here is
    factored in place.
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
    solved = filt.apply_matrix(eig.matrix, x, lam, overwrite=gram is None)
    if solved is None:
        applied, iterate_sum = _by_eigenpairs(eig, filt, lam, g_null, x), None
    else:
        applied, iterate_sum = solved
        eig = None  # no eigenpairs applied, and a matrix built here now holds the factor
    return FittedEstimator(
        dataset=dataset,
        kernel=kernel,
        filter=filt,
        lam=lam,
        gram=eig,
        dual=None if feature else applied / dataset.m,
        expansion=applied if feature else None,
        iterate_sum=iterate_sum if feature else None,
    )


def _by_eigenpairs(eig: GramEigen, filt: SpectralFilter, lam: float, g_null: float, x: np.ndarray):
    """g_lam(A) x = V (g_lam(w) - g_lam(0)) V^T x + g_lam(0) x for the eigenpairs
    A = V diag(w) V^T of ``eig``, negative round-off clamped to zero; the
    second term carries any modes the eigensystem dropped."""
    gain = np.atleast_1d(filt.values(eig.eigenvalues, lam)) - g_null
    return eig.combine(gain[:, None] * eig.project(x)) + g_null * x


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
    so the (N, d) coefficient array is diag(sqrt(t)) B^T c = Phi^T c with B
    the basis matrix on the training inputs. Below N samples it is Phi^T c,
    from the `Features` the Dataset carries (`MercerModel.features`); from
    N on, table products over row chunks (`MercerModel.basis_sums`). A fit
    in the feature domain under ``model`` holds that array already. Exact
    because the kernel is truncated.
    """
    if fit_result.expansion is not None and fit_result.kernel is model:
        return fit_result.expansion
    data = fit_result.dataset
    if data.m < model.n_trunc:
        return model.features(data.xs, data.features).T @ fit_result.coefficients
    raw = model.basis_sums(data.xs, fit_result.coefficients)
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
