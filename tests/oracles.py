"""Independent references the tests check the package against.

None of these is reached by a command, a sweep or the benchmark, so they
live here rather than in `ratelab`: a kernel that is not a MercerModel,
eigenvectors built whole from a decomposition, a Tikhonov fit by one dense
solve, the real basis matrix, a fit's values at new inputs, the
divergence ceiling of two two-point measures, a grid estimate of the L2
error and the exact error of a two-mean Gaussian test.
"""

import math
from dataclasses import dataclass

import numpy as np

from ratelab.errors import ParameterError
from ratelab.estimator import FittedEstimator
from ratelab.filters import tikhonov
from ratelab.gram import GramEigen, assemble_gram
from ratelab.mercer import real_features, trigonometric_basis

MONTE_CARLO_POINTS = 10_000


@dataclass(frozen=True)
class GaussianRBF:
    """Stationary squared-exponential kernel on the line."""

    lengthscale: float

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise ParameterError(f"lengthscale must be positive, got {self.lengthscale}")

    def scalar_kernel(self, xs, zs) -> np.ndarray:
        xs = np.asarray(xs, float)[:, None]
        zs = np.asarray(zs, float)[None, :]
        return np.exp(-((xs - zs) ** 2) / (2.0 * self.lengthscale**2))

    def describe(self) -> dict:
        return {"kind": "gaussian_rbf", "lengthscale": self.lengthscale}


def rank(eig: GramEigen) -> int:
    """The number of eigenpairs ``eig`` keeps."""
    return int(eig.eigenvalues.shape[0])


def eigenvectors(eig: GramEigen) -> np.ndarray:
    """The (n, k) eigenvector matrix of ``eig``, built whole."""
    return eig.combine(np.eye(rank(eig)))


def reconstruction_error(matrix: np.ndarray, eig: GramEigen) -> float:
    """Max-abs deviation between the decomposed matrix and its stored eigensystem:
    the Gram on the dense path, the empirical operator on the feature path."""
    v = eigenvectors(eig)
    approx = (v * eig.eigenvalues[None, :]) @ v.T
    return float(np.max(np.abs(np.asarray(matrix) - approx)))


def fit_tikhonov_direct(dataset, kernel, lam: float) -> FittedEstimator:
    """Reference Tikhonov fit via a dense linear solve, no eigendecomposition.

    Solves ((1/m) K + lam I) c = y / m. The result holds its coefficient
    rows and no expansion.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    lhs = assemble_gram(kernel, dataset.xs) + lam * np.eye(dataset.m)
    return FittedEstimator(
        dataset, kernel, tikhonov(), lam, dual=np.linalg.solve(lhs, dataset.ys / dataset.m)
    )


def basis_scale(count: int) -> np.ndarray:
    """The column scale (1, sqrt 2, sqrt 2, ...) of the real basis B, for
    `mercer.real_features`."""
    scale = np.full(count, math.sqrt(2.0))
    scale[0] = 1.0
    return scale


def basis(model, xs) -> np.ndarray:
    """The real (len(xs), N) basis matrix B of ``model`` at ``xs``: columns 1,
    then sqrt(2) cos(k x) and sqrt(2) sin(k x) (`mercer.real_features`)."""
    count = model.n_trunc
    return real_features(trigonometric_basis(xs, count), count, basis_scale(count))


def predict(fit_result: FittedEstimator, xs) -> np.ndarray:
    """Values of a fit at ``xs``: from its expansion under a MercerModel, else
    from its coefficient rows against the kernel at its samples."""
    if fit_result.expansion is not None:
        return fit_result.kernel.expand(fit_result.expansion, xs)
    cross = fit_result.kernel.scalar_kernel(np.atleast_1d(xs), fit_result.dataset.xs)
    return cross @ fit_result.dual


def divergence_ceiling(first, second) -> float:
    """16 / (15 d L^2) ||f_1 - f_2||_L2^2 for two two-point measures of level L:
    the L2 norm summed mode by mode, t_n times the squared coefficient gap."""
    gap = first.target.coefficients - second.target.coefficients
    l2_sq = float(np.sum(first.model.eigenvalues[:, None] * gap * gap))
    return 16.0 / (15.0 * first.model.output_dim * first.amplitude**2) * l2_sq


def error_l2_montecarlo(fit_result, target, points: int = MONTE_CARLO_POINTS) -> float:
    """Grid approximation of the L2 error, usable with any kernel."""
    xs = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    diff = predict(fit_result, xs) - target.evaluate(xs)
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def bayes_error(gamma, sigma: float) -> float:
    """Exact misclassification floor of a balanced two-mean Gaussian test.

    For observations N(+-gamma, sigma^2 I) with equal priors the optimal
    rule errs with probability erfc(|gamma| / (sigma sqrt(2))) / 2.
    """
    norm = float(np.linalg.norm(np.atleast_1d(np.asarray(gamma, dtype=float))))
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma!r}")
    if sigma == 0:
        return 0.0 if norm > 0 else 0.5
    return math.erfc(norm / (sigma * math.sqrt(2.0))) / 2.0
