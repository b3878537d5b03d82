"""Effective dimension, regularization schedules, and rate exponents."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .index_functions import HolderIndex, IndexFunction, make_rate_maps


def effective_dimension(eigenvalues: np.ndarray, lam: float, output_dim: int = 1) -> float:
    """Trace of the shrinkage profile: output_dim * sum_n t_n / (t_n + lam)."""
    if lam <= 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    t = np.asarray(eigenvalues, dtype=float)
    return output_dim * float(np.sum(t / (t + lam)))


@dataclass(frozen=True)
class EffDimRow:
    lam: float
    value: float
    poly_bound: float
    crude_bound: float

    @property
    def within(self) -> bool:
        return self.value <= min(self.poly_bound, self.crude_bound) * (1 + 1e-12)


@dataclass(frozen=True)
class EffDimReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.within for row in self.rows)


def effdim_bound_check(model, lam_grid) -> EffDimReport:
    """Compare the effective dimension against its two closed-form ceilings.

    Polynomial ceiling d * (beta * b / (b - 1)) * lam**(-1/b) needs decay
    b > 1; otherwise only the crude ceiling kappa_sq / lam applies.
    """
    rows = []
    b = model.decay_b
    for lam in np.asarray(lam_grid, dtype=float).tolist():
        value = effective_dimension(model.eigenvalues, lam, model.output_dim)
        if b > 1:
            poly = model.output_dim * (model.decay_beta * b / (b - 1.0)) * lam ** (-1.0 / b)
        else:
            poly = math.inf
        crude = model.kappa_sq / lam
        rows.append(EffDimRow(lam=lam, value=value, poly_bound=poly, crude_bound=crude))
    return EffDimReport(rows=tuple(rows))


LAMBDA_RULES = ("psi", "theta", "holder_psi_closed", "holder_theta_closed")


@dataclass(frozen=True)
class LambdaChoice:
    value: float
    rule: str
    m: int
    clipped: bool

    def __float__(self) -> float:
        return self.value


def choose_lambda(rule: str, phi: IndexFunction, b: float, m: int) -> LambdaChoice:
    """Pick the regularization level for m samples under the given schedule.

    "psi" and "theta" invert the corresponding schedule map at 1/sqrt(m)
    numerically; the "holder_*_closed" rules use the power-law solutions
    m**(-b/(2br+b+1)) and m**(-b/(2br+1)) and require a HolderIndex. The
    value is clipped into (0, min(1, phi.domain_max)] with a flag.
    """
    if rule not in LAMBDA_RULES:
        raise ParameterError(f"unknown lambda rule {rule!r}; expected one of {LAMBDA_RULES}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    cap = min(1.0, phi.domain_max)

    forced = False
    if rule in ("psi", "theta"):
        maps = make_rate_maps(phi, b)
        level = 1.0 / math.sqrt(m)
        invert = maps.invert_schedule_rkhs if rule == "psi" else maps.invert_schedule_l2
        try:
            value = invert(level)
        except DomainError:
            # 1/sqrt(m) exceeds the schedule's range: every admissible level
            # is undersized, so take the largest one.
            value = cap
            forced = True
    else:
        if not isinstance(phi, HolderIndex):
            raise ParameterError(
                f"rule {rule!r} has a closed form only for HolderIndex, got {type(phi).__name__}"
            )
        r = phi.r
        if rule == "holder_psi_closed":
            value = float(m) ** (-b / (2.0 * b * r + b + 1.0))
        else:
            value = float(m) ** (-b / (2.0 * b * r + 1.0))

    clipped = forced or value > cap
    return LambdaChoice(value=min(value, cap), rule=rule, m=m, clipped=clipped)


def check_theorem_condition(m: int, lam: float, kappa: float, eta: float) -> dict:
    """Sample-size condition sqrt(m) * lam >= 8 kappa^2 log(4 / eta).

    Returns the verdict and the ratio of the two sides as ``margin``.
    """
    if not 0 < eta < 1:
        raise ParameterError(f"eta must lie in (0, 1), got {eta!r}")
    if m < 1 or lam <= 0 or kappa <= 0:
        raise ParameterError(f"need m >= 1, lam > 0, kappa > 0, got {(m, lam, kappa)}")
    lhs = math.sqrt(m) * lam
    rhs = 8.0 * kappa**2 * math.log(4.0 / eta)
    return {"satisfied": lhs >= rhs, "margin": lhs / rhs}


@dataclass(frozen=True)
class RateExponents:
    """Minimax exponents for power decay b and smoothness exponent r.

    All rates are m**(-exponent). The RKHS and the psi-schedule L2
    exponents match their lower bounds, which the constructor asserts.
    """

    b: float
    r: float
    rkhs_upper: float
    rkhs_lower: float
    l2_upper_theta: float
    l2_upper_psi: float
    l2_lower: float

    def __post_init__(self):
        assert math.isclose(self.rkhs_upper, self.rkhs_lower, rel_tol=1e-12)
        assert math.isclose(self.l2_upper_psi, self.l2_lower, rel_tol=1e-12)

    def as_dict(self) -> dict:
        return {
            "b": self.b,
            "r": self.r,
            "rkhs_upper": self.rkhs_upper,
            "rkhs_lower": self.rkhs_lower,
            "l2_upper_theta": self.l2_upper_theta,
            "l2_upper_psi": self.l2_upper_psi,
            "l2_lower": self.l2_lower,
        }


def rate_exponents(b: float, r: float) -> RateExponents:
    """Exponents of the optimal m**(-exponent) rates for Hoelder smoothness."""
    if b < 1:
        raise ParameterError(f"decay exponent must be >= 1, got {b}")
    if r < 0:
        raise ParameterError(f"smoothness exponent must be >= 0, got {r}")
    denom = 2.0 * b * r + b + 1.0
    return RateExponents(
        b=b,
        r=r,
        rkhs_upper=b * r / denom,
        rkhs_lower=b * r / denom,
        l2_upper_theta=b * r / (2.0 * b * r + 1.0),
        l2_upper_psi=b * (2.0 * r + 1.0) / (2.0 * denom),
        l2_lower=(2.0 * b * r + b) / (2.0 * denom),
    )


def individual_lower_exponent_l2(b: float, r1: float, r2: float, eps: float) -> float:
    """L2 exponent of the individual (non-uniform) lower bound.

    With c1 = 2 r1 + 1 and c2 = 2 r2 + 1 the rate along the bad
    subsequence is m**(-(b c2 + eps) / (b c1 + eps + 1)).
    """
    _check_individual_args(b, r1, r2, eps)
    c1 = 2.0 * r1 + 1.0
    c2 = 2.0 * r2 + 1.0
    return (b * c2 + eps) / (b * c1 + eps + 1.0)


def individual_lower_exponent_rkhs(b: float, r1: float, r2: float, eps: float) -> float:
    """RKHS counterpart of `individual_lower_exponent_l2`."""
    _check_individual_args(b, r1, r2, eps)
    c1 = 2.0 * r1 + 1.0
    c2 = 2.0 * r2 + 1.0
    return (b * c2 - b + eps) / (b * c1 + eps + 1.0)


def _check_individual_args(b, r1, r2, eps):
    if b < 1:
        raise ParameterError(f"decay exponent must be >= 1, got {b}")
    if not 0 <= r1 <= r2:
        raise ParameterError(f"need 0 <= r1 <= r2, got r1={r1}, r2={r2}")
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
