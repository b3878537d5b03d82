"""Independent references the tests check the package against.

None of these is reached by a command, a sweep or the benchmark, so they
live here rather than in `ratelab`: eigenvectors built whole from a
decomposition, a Tikhonov fit by one dense solve, the real basis matrix B
and Phi = B diag(sqrt t), a fit's values at new inputs, the divergence
ceiling of two two-point measures, a grid estimate of the L2 error and
the exact error of a two-mean Gaussian test.
"""

import math

import numpy as np

from ratelab.errors import ParameterError
from ratelab.estimator import FittedEstimator
from ratelab.filters import tikhonov
from ratelab.gram import GramEigen
from ratelab.mercer import real_features, trigonometric_basis

MONTE_CARLO_POINTS = 10_000


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


def fit_tikhonov_direct(dataset, model, lam: float) -> FittedEstimator:
    """Reference Tikhonov fit via a dense linear solve, no eigendecomposition.

    Solves ((1/m) Phi Phi^T + lam I) c = y / m with Phi = B diag(sqrt t)
    built here (`basis`), and holds the expansion Phi^T c.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    phi = features(model, dataset.xs)
    lhs = phi @ phi.T / dataset.m + lam * np.eye(dataset.m)
    rows = np.linalg.solve(lhs, dataset.ys / dataset.m)
    return FittedEstimator(model, tikhonov(), lam, phi.T @ rows)


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


def features(model, xs) -> np.ndarray:
    """Phi = B diag(sqrt t) of ``model`` at ``xs``, from `basis`: the kernel
    is Phi Phi^T, and rows c give the expansion Phi^T c against sqrt(t_n) e_n."""
    return basis(model, xs) * np.sqrt(model.eigenvalues)


def predict(fit_result: FittedEstimator, xs) -> np.ndarray:
    """Values of a fit at ``xs``, from its expansion."""
    return fit_result.kernel.expand(fit_result.expansion, xs)


def divergence_ceiling(first, second) -> float:
    """16 / (15 d L^2) ||f_1 - f_2||_L2^2 for two two-point measures of level L:
    the L2 norm summed mode by mode, t_n times the squared coefficient gap."""
    gap = first.target.coefficients - second.target.coefficients
    l2_sq = float(np.sum(first.model.eigenvalues[:, None] * gap * gap))
    return 16.0 / (15.0 * first.model.output_dim * first.amplitude**2) * l2_sq


def error_l2_montecarlo(fit_result, target, points: int = MONTE_CARLO_POINTS) -> float:
    """Grid approximation of the L2 error, from the fit's values on a grid."""
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
