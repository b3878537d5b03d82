"""Empirical checks of the high-probability concentration bounds.

Both statistics are computed exactly in the truncated basis, so the
checks exercise the bounds themselves rather than a quadrature layer:
the sampled-data statistics are compared against their closed-form
ceilings over many replicates and the observed violation frequency must
stay below the nominal failure probability. The sample-error statistic
reads whole samples (x_i, y_i) and the target at x_i; the operator
deviation ||T_x - T|| reads the inputs x_i alone, and its tail test
draws nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ParameterError
from .gram import SampleMoments, spectral_norm
from .mercer import (
    MercerModel,
    NoiseCertificate,
    NoiseSpec,
    TargetFunction,
    draw_inputs,
    sample_dataset,
)
from .rates import effective_dimension

TAIL_KINDS = ("sample_error", "operator")
MIN_REPLICATES = 100


def sample_error_stat(
    model: MercerModel, dataset, target: TargetFunction, lam: float
) -> float:
    """Whitened norm of the empirical residual moment.

    Expands (1/m) sum_i k(., x_i) (y_i - f(x_i)) in the basis, divides
    each mode by sqrt(t_n + lam), and returns the Frobenius norm. Before
    the whitening the expansion is diag(sqrt t) (B^T y / m) - T_x c for
    the target's coefficients c, with T_x the empirical operator
    diag(sqrt t) (B^T B / m) diag(sqrt t). Both terms come from the
    sample's moments (`MercerModel.moments_of`), T_x by
    `MercerModel.empirical_operator`, so no basis is evaluated.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    moments = model.moments_of(dataset)
    t = model.eigenvalues
    emp = model.empirical_operator(moments)
    raw = np.sqrt(t)[:, None] * moments.response - emp @ target.coefficients
    scaled = raw / np.sqrt(t + lam)[:, None]
    return float(np.sqrt(np.sum(scaled * scaled)))


def sample_error_bound(
    model: MercerModel, certificate: NoiseCertificate, lam: float, m: int, eta: float
) -> float:
    """High-probability ceiling for `sample_error_stat` at level 1 - eta."""
    _check_level(eta)
    kappa = math.sqrt(model.kappa_sq)
    eff = effective_dimension(model.eigenvalues, lam, model.output_dim)
    scale, sd = certificate.bernstein_scale, certificate.bernstein_sd
    return 2.0 * (
        kappa * scale / (m * math.sqrt(lam)) + math.sqrt(sd**2 * eff / m)
    ) * math.log(4.0 / eta)


def operator_deviation(model: MercerModel, moments: SampleMoments) -> dict:
    """Spectral norm of (empirical feature second moment) - diag(t).

    The empirical operator in the orthonormal coefficient basis is
    `MercerModel.empirical_operator`, diag(sqrt t) (B^T B / m) diag(sqrt t)
    with B the basis at the sample's inputs, assembled from the sample's
    ``moments`` (this model's) and exact for the truncated kernel. The
    norm comes from the two ends of the spectrum (`gram.spectral_norm`),
    not from every eigenvalue. Also reports the eigenvalue mass the
    truncation dropped, which this statistic cannot see.
    """
    emp = model.empirical_operator(moments)
    emp[np.diag_indices_from(emp)] -= model.eigenvalues
    return {
        "value": spectral_norm(emp),
        "truncation_tail": model.trace_tail_bound(),
    }


def operator_deviation_bound(kappa_sq: float, m: int, eta: float) -> float:
    """High-probability ceiling for `operator_deviation` at level 1 - eta."""
    _check_level(eta)
    return 2.0 * (kappa_sq / m + kappa_sq / math.sqrt(m)) * math.log(4.0 / eta)


@dataclass(frozen=True)
class TailRow:
    replicate: int
    statistic: float
    bound: float

    @property
    def violated(self) -> bool:
        return self.statistic > self.bound


@dataclass(frozen=True)
class TailReport:
    kind: str
    m: int
    lam: float
    eta: float
    bound: float
    rows: tuple

    @property
    def frequency(self) -> float:
        return sum(row.violated for row in self.rows) / len(self.rows)

    @property
    def passed(self) -> bool:
        return self.frequency <= self.eta


def tail_test(
    kind: str,
    model: MercerModel,
    target: TargetFunction,
    noise: NoiseSpec,
    lam: float,
    m: int,
    eta: float,
    replicates: int = 200,
    seed: int = 0,
) -> TailReport:
    """Monte Carlo check that a tail bound holds at its stated level.

    Replicate i draws from SeedSequence([seed, i]), computes the chosen
    statistic and counts how often it exceeds its ceiling. A sample-error
    replicate draws a whole Dataset (`sample_dataset`); an operator one
    draws only its inputs (`mercer.draw_inputs`, that draw's first step,
    so the same xs) and takes their moments. The noise model must certify
    its moment constants before any bound is evaluated, for either kind.
    The sample-error test needs noise: without it (Bernstein scale 0) its
    bound is exactly 0 and its statistic round-off, so it is refused.
    """
    if kind not in TAIL_KINDS:
        raise ParameterError(f"unknown statistic {kind!r}; expected one of {TAIL_KINDS}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if replicates < MIN_REPLICATES:
        raise ParameterError(
            f"replicates must be >= {MIN_REPLICATES} for a meaningful frequency, "
            f"got {replicates}"
        )
    _check_level(eta)
    certificate = noise.certify(model, target)
    if not certificate.satisfied:
        raise CertificationError(
            f"noise moment condition failed: value {certificate.moment_value!r} "
            f"> limit {certificate.moment_limit!r}"
        )
    if kind == "sample_error":
        if certificate.bernstein_scale == 0:
            raise ParameterError(
                f"the sample_error tail test needs output noise, got {noise.describe()}: "
                "its bound is 0 and its statistic round-off"
            )
        bound = sample_error_bound(model, certificate, lam, m, eta)
    else:
        bound = operator_deviation_bound(model.kappa_sq, m, eta)

    rows = []
    for i in range(replicates):
        rep_seed = np.random.SeedSequence([seed, i])
        if kind == "sample_error":
            data = sample_dataset(model, target, noise, m, rep_seed)
            stat = sample_error_stat(model, data, target, lam)
        else:
            xs = draw_inputs(m, np.random.default_rng(rep_seed))
            stat = operator_deviation(model, model.sample_moments(xs))["value"]
        rows.append(TailRow(replicate=i, statistic=stat, bound=bound))

    return TailReport(kind=kind, m=m, lam=lam, eta=eta, bound=bound, rows=tuple(rows))


def _check_level(eta: float):
    if not 0 < eta < 1:
        raise ParameterError(f"eta must lie in (0, 1), got {eta!r}")
