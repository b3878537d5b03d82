"""Spectral regularization filters with declared, grid-verifiable constants.

A filter family g_lam(sigma) approximates 1/sigma as lam -> 0. Each family
declares four constants: a bound on |sigma * g|, a bound on |g| in units of
1/lam, a bound on the residual r = 1 - sigma * g, and a qualification order
p with its decay constant, meaning sup |r| * sigma**p <= decay(p) * lam**p.
``verify`` recomputes the attained suprema on dense grids so the declared
values are never taken on faith.

Each family is defined once, by its log-residual l = log r_lam(sigma):
g = -expm1(l) / sigma, with the sigma -> 0 limit -dl/dsigma at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .index_functions import FLAG_RATIO_TOL, IndexFunction, geometric_grid

FILTER_KINDS = ("tikhonov", "iterated_tikhonov", "landweber", "cutoff")

VERIFY_POINTS = 256
VERIFY_SLACK = 1e-9  # relative slack for attained-vs-declared comparisons


def _iteration_count(lam: float) -> int:
    """Landweber iteration budget for a regularization level: ceil(1/lam).

    1/lam is rounded to the nearest integer first when it is within 1e-9 of
    one, so grid values like 1/3 do not gain a spurious extra iteration.
    """
    raw = 1.0 / lam
    nearest = round(raw)
    if abs(raw - nearest) < 1e-9 * max(1.0, abs(raw)):
        return max(1, int(nearest))
    return max(1, int(math.ceil(raw)))


@dataclass(frozen=True)
class FilterConstants:
    """Declared constants of a filter family.

    qualification is math.inf when every polynomial order is reachable;
    residual_decay is then a genuine function of the order.
    """

    operator_bound: float  # sup over sigma, lam of |sigma * g_lam(sigma)|
    scale_bound: float  # sup of |g_lam(sigma)| * lam
    residual_bound: float  # sup of |1 - sigma * g_lam(sigma)|
    qualification: float


@dataclass(frozen=True)
class SpectralFilter:
    """One member of the built-in filter families.

    kind is one of "tikhonov", "iterated_tikhonov" (with ``iterations``),
    "landweber" (with ``step``), "cutoff". Tikhonov is iterated Tikhonov
    with one iteration.
    """

    kind: str
    iterations: int = 1
    step: float = 1.0

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ParameterError(f"unknown filter kind {self.kind!r}")
        if self.kind == "iterated_tikhonov" and (
            self.iterations < 1 or self.iterations != int(self.iterations)
        ):
            raise ParameterError(f"iterations must be a positive integer, got {self.iterations}")
        if self.kind != "iterated_tikhonov" and self.iterations != 1:
            raise ParameterError(
                f"iterations applies to iterated_tikhonov only, got {self.iterations}"
            )
        if self.kind == "landweber" and not 0 < self.step:
            raise ParameterError(f"step must be positive, got {self.step}")

    # -- evaluation ---------------------------------------------------------

    def _log_residual(self, sigma, lam: float):
        """Validate the arguments and return (sigma as an array, l, g_lam(0)).

        l = log r_lam(sigma) defines the family; g_lam(0) = -dl/dsigma at 0.
        """
        if lam <= 0:
            raise ParameterError(f"lam must be positive, got {lam!r}")
        arr = np.atleast_1d(np.asarray(sigma, dtype=float))
        if arr.size and arr.min() < 0:
            raise DomainError("sigma must be nonnegative")
        if self.kind in ("tikhonov", "iterated_tikhonov"):
            nu = self.iterations
            return arr, -nu * np.log1p(arr / lam), nu / lam
        if self.kind == "landweber":
            if arr.size and arr.max() * self.step > 1 + 1e-12:
                raise DomainError(
                    f"step {self.step!r} exceeds 1/sigma at sigma={arr.max()!r}"
                )
            nu = _iteration_count(lam)
            with np.errstate(divide="ignore"):
                log_r = nu * np.log1p(-np.minimum(self.step * arr, 1.0))
            return arr, log_r, self.step * nu
        return arr, np.where(arr >= lam, -np.inf, 0.0), 0.0  # cutoff

    def values(self, sigma, lam: float):
        """Evaluate g_lam(sigma) = (1 - r_lam(sigma)) / sigma for sigma >= 0.

        Accepts scalars or arrays; the sigma = 0 limit is exact.
        """
        arr, log_r, limit = self._log_residual(sigma, lam)
        out = np.full_like(arr, limit)
        pos = arr > 0
        out[pos] = -np.expm1(log_r[pos]) / arr[pos]
        return float(out[0]) if np.ndim(sigma) == 0 else out

    def residuals(self, sigma, lam: float):
        """Evaluate r_lam(sigma) = 1 - sigma * g_lam(sigma) in closed form."""
        _, log_r, _ = self._log_residual(sigma, lam)
        out = np.exp(log_r)
        return float(out[0]) if np.ndim(sigma) == 0 else out

    # -- declared constants --------------------------------------------------

    def constants(self) -> FilterConstants:
        if self.kind in ("tikhonov", "iterated_tikhonov"):
            nu = float(self.iterations)
            return FilterConstants(1.0, nu, 1.0, nu)
        if self.kind == "landweber":
            # |g| <= step * ceil(1/lam) <= step * (1 + lam) / lam <= 2 * step / lam
            # on lam <= 1; the decay constant follows from maximizing
            # (1 - step*sigma)**n * sigma**p over sigma.
            return FilterConstants(1.0, 2.0 * self.step, 1.0, math.inf)
        return FilterConstants(1.0, 1.0, 1.0, math.inf)

    def residual_decay_constant(self, p: float) -> float:
        """The constant in sup |r_lam(sigma)| sigma**p <= c * lam**p."""
        if p < 0:
            raise ParameterError(f"order must be >= 0, got {p}")
        cons = self.constants()
        if self.kind in ("tikhonov", "iterated_tikhonov"):
            if p > cons.qualification:
                raise ParameterError(
                    f"{self.kind} has qualification {cons.qualification}, cannot certify order {p}"
                )
            return 1.0
        if self.kind == "cutoff":
            return 1.0
        if p == 0:
            return 1.0
        return (p / math.e) ** p / self.step**p

    # -- verification ---------------------------------------------------------

    def verify(self, kappa_sq: float = 1.0) -> "VerificationReport":
        """Recompute attained suprema on grids and compare with declarations.

        The grids are geometric with 256 points, sigma over
        [1e-8 * kappa_sq, kappa_sq] and lam over [1e-6, 1]. The decay is
        checked at the qualification order, or at orders 1, 2 and 4 when
        the qualification is unbounded.
        """
        sigma_grid = np.geomspace(1e-8 * kappa_sq, kappa_sq, VERIFY_POINTS)
        lam_grid = np.geomspace(1e-6, 1.0, VERIFY_POINTS)
        cons = self.constants()
        if math.isfinite(cons.qualification):
            orders = (cons.qualification,)
        else:
            orders = (1.0, 2.0, 4.0)

        sup_op = sup_scale = sup_res = 0.0
        sup_order = {p: 0.0 for p in orders}
        for lam in lam_grid:
            g = self.values(sigma_grid, float(lam))
            r = self.residuals(sigma_grid, float(lam))
            sup_op = max(sup_op, float(np.max(np.abs(sigma_grid * g))))
            sup_scale = max(sup_scale, float(np.max(np.abs(g))) * float(lam))
            sup_res = max(sup_res, float(np.max(np.abs(r))))
            for p in orders:
                attained = float(np.max(np.abs(r) * sigma_grid**p)) / float(lam) ** p
                sup_order[p] = max(sup_order[p], attained)

        rows = [
            CheckRow("operator_bound", sup_op, cons.operator_bound),
            CheckRow("scale_bound", sup_scale, cons.scale_bound),
            CheckRow("residual_bound", sup_res, cons.residual_bound),
        ]
        for p in orders:
            decay = self.residual_decay_constant(p)
            rows.append(CheckRow(f"residual_decay_order_{p:g}", sup_order[p], decay))
        return VerificationReport(self.describe(), tuple(rows))

    def covers_index(self, phi: IndexFunction, extra_sqrt: bool = False) -> bool:
        """Whether the qualification covers ``phi``: t**p / phi(t) nondecreasing.

        With ``extra_sqrt`` the requirement is on t**p / (phi(t) sqrt(t))
        instead. Families with unbounded qualification cover everything.
        """
        cons = self.constants()
        if not math.isfinite(cons.qualification):
            return True
        p = cons.qualification
        grid = geometric_grid(phi.domain_max)
        ratio = grid**p / phi.value(grid)
        if extra_sqrt:
            ratio = ratio / np.sqrt(grid)
        return not np.any(ratio[1:] < ratio[:-1] * (1 - FLAG_RATIO_TOL))

    def describe(self) -> dict:
        out = {"id": self.kind}
        if self.kind == "iterated_tikhonov":
            out["nu"] = self.iterations
        if self.kind == "landweber":
            out["tau"] = self.step
        return out


@dataclass(frozen=True)
class CheckRow:
    name: str
    attained: float
    allowed: float

    @property
    def passed(self) -> bool:
        return self.attained <= self.allowed * (1 + VERIFY_SLACK)


@dataclass(frozen=True)
class VerificationReport:
    filter_id: dict
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "filter": self.filter_id,
            "passed": self.passed,
            "checks": [
                {
                    "name": row.name,
                    "attained": row.attained,
                    "allowed": row.allowed,
                    "passed": row.passed,
                }
                for row in self.rows
            ],
        }


def tikhonov() -> SpectralFilter:
    return SpectralFilter("tikhonov")


def iterated_tikhonov(iterations: int) -> SpectralFilter:
    return SpectralFilter("iterated_tikhonov", iterations=iterations)


def landweber(step: float = 1.0) -> SpectralFilter:
    return SpectralFilter("landweber", step=step)


def spectral_cutoff() -> SpectralFilter:
    return SpectralFilter("cutoff")


def filter_from_dict(spec: dict, kappa_sq: float | None = None) -> SpectralFilter:
    """Build a filter from its JSON form, e.g. {"id": "landweber", "tau": 0.5}.

    For Landweber the default step is 1/kappa_sq when a kernel bound is
    supplied, which keeps step * sigma <= 1 on the whole spectrum.
    """
    if not isinstance(spec, dict) or "id" not in spec:
        raise ParameterError(f"filter spec needs an 'id': {spec!r}")
    kind = spec["id"]
    if kind == "tikhonov":
        return tikhonov()
    if kind == "iterated_tikhonov":
        return iterated_tikhonov(int(spec.get("nu", 2)))
    if kind == "landweber":
        default = 1.0 / kappa_sq if kappa_sq else 1.0
        return landweber(float(spec.get("tau", default)))
    if kind == "cutoff":
        return spectral_cutoff()
    raise ParameterError(f"unknown filter id {kind!r}")

