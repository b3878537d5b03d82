"""Index functions encoding target smoothness, and monotone inversion.

An index function here is a continuous nondecreasing map on [0, domain_max]
with value exactly 0 at 0. Built-in families: power laws ``t**r``, powers
with a logarithmic correction ``t**p * log(1/t)**(-nu)``, and finite
products of those. Each function exposes monotonicity flags for the four
derived ratio maps; the flags decide which approximation bounds and which
regularization schedules legitimately apply to it. `invert_monotone`
inverts a nondecreasing map by bisection; `rates.choose_lambda` uses it on
the schedules t**(1/2 + 1/(2b)) phi(t) and t**(1/(2b)) phi(t).

The logarithmic factor is singular at t = 1, so the family freezes it at
t0 = 0.99: for t >= t0 the correction keeps its value at t0 and only the
power factor keeps growing. This preserves continuity and monotonicity on
domains that extend past 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    BracketUnderflowError,
    ConstructionError,
    ContractError,
    DomainError,
    NumericalError,
    ParameterError,
)

FLAG_GRID_POINTS = 512
FLAG_GRID_SPAN = 1e-12  # grid covers [domain_max * span, domain_max]
FLAG_RATIO_TOL = 1e-12  # relative tolerance for nondecreasing checks

LOG_FREEZE = 0.99

INVERT_REL_TOL = 1e-10
INVERT_MAX_ITERS = 200
INVERT_FLOOR = 1e-300


def geometric_grid(domain_max: float) -> np.ndarray:
    if domain_max <= 0:
        raise ParameterError(f"domain_max must be positive, got {domain_max}")
    return np.geomspace(domain_max * FLAG_GRID_SPAN, domain_max, FLAG_GRID_POINTS)


def nondecreasing(values) -> bool:
    """Whether ``values``, a map on `geometric_grid`, never drops by more than
    FLAG_RATIO_TOL relative from one point to the next, so flat stretches
    (power r = 0, frozen log factor) count. A map with a NaN does not."""
    return bool(np.all(values[1:] >= values[:-1] * (1 - FLAG_RATIO_TOL)))


class IndexFunction:
    """Base class for smoothness-encoding maps on [0, domain_max]."""

    domain_max: float

    def _raw(self, t: np.ndarray) -> np.ndarray:
        """Evaluate on strictly positive points; subclasses implement this."""
        raise NotImplementedError

    def value(self, t):
        """Evaluate at ``t`` (scalar or array) in [0, domain_max].

        Returns exactly 0.0 at t = 0 for every family, including constants.
        """
        arr = np.asarray(t, dtype=float)
        if arr.size and (arr.min() < 0 or arr.max() > self.domain_max * (1 + 1e-12)):
            raise DomainError(
                f"argument outside [0, {self.domain_max!r}]: "
                f"range [{float(arr.min())!r}, {float(arr.max())!r}]"
            )
        out = np.zeros_like(arr, dtype=float)
        pos = arr > 0
        if np.any(pos):
            out[pos] = self._raw(arr[pos])
        if np.ndim(t) == 0:
            return float(out)
        return out

    def __call__(self, t):
        return self.value(t)

    @property
    def flags(self) -> "MonotoneFlags":
        return check_monotone_flags(self)

    def describe(self) -> dict:
        raise NotImplementedError

    def _validate_shape(self):
        """Reject parameterizations that are not nondecreasing with value 0 at 0."""
        vals = self.value(geometric_grid(self.domain_max))
        if vals[0] < 0 or not nondecreasing(vals):
            raise ConstructionError(
                f"{self.describe()} is not nondecreasing on (0, {self.domain_max!r}]"
            )
        if self.value(0.0) != 0.0:
            raise ConstructionError("index functions must vanish at 0")


@dataclass(frozen=True)
class HolderIndex(IndexFunction):
    """Power law ``t**r`` with r >= 0 (r = 0 is the constant-1 class)."""

    r: float
    domain_max: float = 1.0

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise ParameterError(f"power exponent must be >= 0 and finite, got {self.r}")
        self._validate_shape()

    def _raw(self, t):
        if self.r == 0:
            return np.ones_like(t)
        return t**self.r

    def describe(self) -> dict:
        return {"kind": "holder", "r": self.r}


@dataclass(frozen=True)
class LogIndex(IndexFunction):
    """Power with logarithmic correction ``t**p * log(1/t)**(-nu)``.

    The log factor is frozen at t = 0.99 (see module docstring). Requires
    p >= 0 with nu > 0 when p = 0, so the map still vanishes at the origin.
    """

    p: float
    nu: float
    domain_max: float = 1.0

    def __post_init__(self):
        if not 0 <= self.p < math.inf:
            raise ParameterError(f"power exponent must be >= 0 and finite, got {self.p}")
        if not math.isfinite(self.nu):
            raise ParameterError(f"log exponent nu must be finite, got {self.nu}")
        if self.p == 0 and self.nu <= 0:
            raise ParameterError("p = 0 needs nu > 0 to vanish at the origin")
        self._validate_shape()

    def _raw(self, t):
        capped = np.minimum(t, LOG_FREEZE)
        return t**self.p * np.log(1.0 / capped) ** (-self.nu)

    def describe(self) -> dict:
        return {"kind": "log", "p": self.p, "nu": self.nu}


@dataclass(frozen=True)
class ProductIndex(IndexFunction):
    """Pointwise product of power and log factors sharing one domain."""

    factors: tuple
    domain_max: float = 1.0

    def __post_init__(self):
        if not self.factors:
            raise ParameterError("product needs at least one factor")
        for f in self.factors:
            if isinstance(f, ProductIndex) or not isinstance(f, IndexFunction):
                raise ParameterError("factors must be non-product index functions")
            if f.domain_max != self.domain_max:
                raise ParameterError("factors must share the product's domain_max")
        self._validate_shape()

    def _raw(self, t):
        out = np.ones_like(t)
        for f in self.factors:
            out = out * f._raw(t)
        return out

    def describe(self) -> dict:
        return {"kind": "product", "factors": [f.describe() for f in self.factors]}


def index_from_dict(spec: dict, domain_max: float = 1.0) -> IndexFunction:
    """Build an index function from its JSON form, e.g. {"kind": "holder", "r": 0.5}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError(f"index function spec needs a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "holder":
        return HolderIndex(r=float(spec["r"]), domain_max=domain_max)
    if kind == "log":
        return LogIndex(p=float(spec["p"]), nu=float(spec["nu"]), domain_max=domain_max)
    if kind == "product":
        factors = tuple(index_from_dict(f, domain_max) for f in spec["factors"])
        return ProductIndex(factors=factors, domain_max=domain_max)
    raise ParameterError(f"unknown index function kind {kind!r}")


@dataclass(frozen=True)
class MonotoneFlags:
    """Nondecreasing flags for the four derived maps of an index function."""

    phi_nondecreasing: bool
    t_over_phi_nondecreasing: bool
    sqrt_t_over_phi_nondecreasing: bool
    phi_times_sqrt_t_nondecreasing: bool


@lru_cache(maxsize=256)
def check_monotone_flags(phi: IndexFunction) -> MonotoneFlags:
    """Screen the four derived maps for monotonicity on the geometric grid
    (`nondecreasing`)."""
    grid = geometric_grid(phi.domain_max)
    vals = phi.value(grid)
    return MonotoneFlags(
        phi_nondecreasing=nondecreasing(vals),
        t_over_phi_nondecreasing=nondecreasing(grid / vals),
        sqrt_t_over_phi_nondecreasing=nondecreasing(np.sqrt(grid) / vals),
        phi_times_sqrt_t_nondecreasing=nondecreasing(vals * np.sqrt(grid)),
    )


def invert_monotone(func: Callable[[float], float], y: float, lo: float, hi: float) -> float:
    """Invert a nondecreasing positive map by bisection in log space.

    The lower bracket end is divided by 16 as needed, down to
    INVERT_FLOOR; running out of bracket raises BracketUnderflowError.
    The result t satisfies |func(t) - y| <= INVERT_REL_TOL * y; when
    INVERT_MAX_ITERS steps do not reach it (a jump in func across y),
    NumericalError is raised. Deterministic.
    """
    if not 0 < lo < hi:
        raise ParameterError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if y <= 0:
        raise DomainError(f"target value must be positive, got {y!r}")
    f_lo, f_hi = func(lo), func(hi)
    if f_lo > f_hi:
        raise ContractError(
            f"map is not nondecreasing on the bracket: f({lo!r})={f_lo!r} > f({hi!r})={f_hi!r}"
        )
    if y > f_hi * (1 + INVERT_REL_TOL):
        raise DomainError(f"target {y!r} above attainable maximum {f_hi!r}")
    while f_lo > y:
        lo /= 16.0
        if lo < INVERT_FLOOR:
            raise BracketUnderflowError(
                f"bracket expansion hit the floor {INVERT_FLOOR:g} before f(lo) <= {y!r}"
            )
        f_lo = func(lo)
    a, b = lo, hi
    mid = math.sqrt(a * b)
    for _ in range(INVERT_MAX_ITERS):
        mid = math.sqrt(a * b)
        f_mid = func(mid)
        if abs(f_mid - y) <= INVERT_REL_TOL * y:
            return mid
        if f_mid < y:
            a = mid
        else:
            b = mid
    raise NumericalError(
        f"bisection left |f(t) - {y!r}| above {INVERT_REL_TOL:g} * y after {INVERT_MAX_ITERS} "
        f"steps: f({mid!r}) = {f_mid!r}"
    )
