"""Synthetic spectral regression models on the circle.

The input space is [0, 2*pi] with the uniform probability measure. The
real trigonometric system (1, sqrt(2) cos kx, sqrt(2) sin kx) is
orthonormal in L2 of that measure; a chosen nonincreasing eigenvalue
sequence t_1 >= t_2 >= ... > 0 then defines a separable operator-valued
kernel k(x, z) * I_d with k(x, z) = sum_n t_n e_n(x) e_n(z), truncated at
N terms. Everything downstream is expressed in coefficients against the
scaled system sqrt(t_n) e_n (per output channel), which is orthonormal in
the reproducing-kernel space: a coefficient array c of shape (N, d) has
RKHS norm ||c|| and L2 norm ||sqrt(t) c||, both exact.

Targets live in a smoothness class: coefficients phi(t_n) * g_n with
||g|| <= R for an index function phi. Noise models certify explicit
Bernstein moment constants before any tail bound may use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .errors import (
    AmplitudeError,
    ConstructionError,
    ContractError,
    DomainError,
    ParameterError,
    SourceViolationError,
)
from .gram import Dataset
from .index_functions import IndexFunction

PERIOD = 2.0 * math.pi

SPECTRUM_RULES = ("lower", "midpoint", "upper")
SOURCE_RADIUS_SLACK = 1e-12
BOUND_SLACK = 1e-12


def trigonometric_basis(xs, count: int) -> np.ndarray:
    """Evaluate the first ``count`` orthonormal trigonometric functions.

    Ordering: constant, then cos/sin pairs of increasing frequency. The
    result has shape (len(xs), count).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    out = np.empty((xs.shape[0], count))
    out[:, 0] = 1.0
    angles = xs[:, None] * np.arange(1, count // 2 + 1)
    out[:, 1::2] = math.sqrt(2.0) * np.cos(angles)
    out[:, 2::2] = math.sqrt(2.0) * np.sin(angles[:, : (count - 1) // 2])
    return out


@dataclass(frozen=True, eq=False)
class MercerModel:
    """Truncated spectral model: eigenvalues, decay envelope, output width."""

    eigenvalues: np.ndarray
    decay_b: float
    decay_alpha: float
    decay_beta: float
    output_dim: int
    spectrum_rule: str
    kappa_sq: float

    @property
    def n_trunc(self) -> int:
        return int(self.eigenvalues.shape[0])

    def basis(self, xs) -> np.ndarray:
        return trigonometric_basis(xs, self.n_trunc)

    def basis_at(self, xs, basis=None) -> np.ndarray:
        """The basis matrix at ``xs``, reusing a precomputed one if it fits.

        ``basis`` is an earlier evaluation at the same ``xs``, such as the
        one `sample_dataset` carries on its Dataset. It is used when its
        shape is (len(xs), N); any other shape belongs to another
        truncation, and the basis is evaluated afresh.
        """
        if basis is not None and basis.shape == (len(xs), self.n_trunc):
            return basis
        return self.basis(xs)

    def scalar_kernel(self, xs, zs) -> np.ndarray:
        bx = self.basis(xs)
        bz = bx if zs is xs else self.basis(zs)
        return (bx * self.eigenvalues[None, :]) @ bz.T

    def trace_tail_bound(self) -> float:
        """Upper bound on the eigenvalue mass dropped by truncation.

        Integral comparison against the decay envelope gives
        beta * N**(1-b) / (b-1); infinite when b <= 1.
        """
        if self.decay_b <= 1:
            return math.inf
        n = self.n_trunc
        return self.decay_beta * n ** (1.0 - self.decay_b) / (self.decay_b - 1.0)

    def as_dict(self) -> dict:
        return {
            "b": self.decay_b,
            "alpha": self.decay_alpha,
            "beta": self.decay_beta,
            "N_trunc": self.n_trunc,
            "d": self.output_dim,
            "spectrum_rule": self.spectrum_rule,
        }


def build_model(
    b: float,
    alpha: float = 1.0,
    beta: float | None = None,
    spectrum_rule="lower",
    d: int = 1,
    n_trunc: int = 512,
) -> MercerModel:
    """Construct a truncated model with eigenvalues inside the decay envelope.

    ``spectrum_rule`` is "lower" (alpha * n**-b, the default), "midpoint",
    "upper", or an explicit array that must sit inside
    [alpha * n**-b, beta * n**-b] and be nonincreasing.

    kappa_sq = sup_x d * sum_n t_n e_n(x)**2 is exact: each cos/sin pair
    contributes 2 (t_cos cos**2 + t_sin sin**2) <= 2 t_cos, since the
    spectrum is nonincreasing, with equality at x = 0.
    """
    if b < 1:
        raise ParameterError(f"decay exponent must be >= 1, got {b}")
    beta = alpha if beta is None else beta
    if not 0 < alpha <= beta:
        raise ConstructionError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
    if n_trunc < 8:
        raise ParameterError(f"n_trunc must be >= 8, got {n_trunc}")
    if d < 1:
        raise ParameterError(f"output dimension must be >= 1, got {d}")

    ns = np.arange(1, n_trunc + 1, dtype=float)
    lower = alpha * ns**-b
    upper = beta * ns**-b
    if isinstance(spectrum_rule, str):
        if spectrum_rule not in SPECTRUM_RULES:
            raise ParameterError(f"unknown spectrum rule {spectrum_rule!r}")
        if spectrum_rule == "lower":
            eigs = lower
        elif spectrum_rule == "upper":
            eigs = upper
        else:
            eigs = 0.5 * (lower + upper)
        rule_name = spectrum_rule
    else:
        eigs = np.asarray(spectrum_rule, dtype=float)
        if eigs.shape != (n_trunc,):
            raise ConstructionError(
                f"explicit spectrum must have shape ({n_trunc},), got {eigs.shape}"
            )
        if np.any(eigs < lower * (1 - 1e-12)) or np.any(eigs > upper * (1 + 1e-12)):
            raise ConstructionError("explicit spectrum leaves the decay envelope")
        if np.any(np.diff(eigs) > 0):
            raise ConstructionError("explicit spectrum must be nonincreasing")
        rule_name = "explicit"

    kappa_sq = d * float(eigs[0] + 2.0 * eigs[1::2].sum())
    return MercerModel(
        eigenvalues=eigs,
        decay_b=float(b),
        decay_alpha=float(alpha),
        decay_beta=float(beta),
        output_dim=int(d),
        spectrum_rule=rule_name,
        kappa_sq=kappa_sq,
    )


def kernel_eval(model: MercerModel, x: float, z: float) -> np.ndarray:
    """Operator-valued kernel block k(x, z) * I_d."""
    k = float(model.scalar_kernel(np.atleast_1d(x), np.atleast_1d(z))[0, 0])
    return k * np.eye(model.output_dim)


class ExpansionNorms(NamedTuple):
    l2: float
    rkhs: float


def norms_of_expansion(model: MercerModel, coefficients: np.ndarray) -> ExpansionNorms:
    """Exact L2 and RKHS norms of a coefficient array of shape (N, d)."""
    c = _as_coefficients(model, coefficients)
    rkhs = float(np.sqrt(np.sum(c * c)))
    l2 = float(np.sqrt(np.sum(model.eigenvalues[:, None] * c * c)))
    return ExpansionNorms(l2=l2, rkhs=rkhs)


def _as_coefficients(model: MercerModel, arr) -> np.ndarray:
    c = np.asarray(arr, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape != (model.n_trunc, model.output_dim):
        raise ParameterError(
            f"coefficients must have shape ({model.n_trunc}, {model.output_dim}), got {c.shape}"
        )
    return c


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """A target with explicit coefficients and the source that produced it."""

    model: MercerModel
    coefficients: np.ndarray  # (N, d), against sqrt(t_n) e_n per channel
    source: np.ndarray  # (N, d)
    radius: float

    @property
    def source_norm(self) -> float:
        return float(np.sqrt(np.sum(self.source**2)))

    def evaluate(self, xs, basis=None) -> np.ndarray:
        """Target values at ``xs``; a precomputed ``basis`` at ``xs`` is reused if it fits."""
        feats = self.model.basis_at(xs, basis)
        scaled = np.sqrt(self.model.eigenvalues)[:, None] * self.coefficients
        return feats @ scaled

    def norms(self) -> ExpansionNorms:
        return norms_of_expansion(self.model, self.coefficients)


def target_from_source(
    model: MercerModel, phi: IndexFunction, source, radius: float
) -> TargetFunction:
    """Build the target with coefficients phi(t_n) * g_n from a source g.

    The source norm may not exceed ``radius`` (up to roundoff).
    """
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    g = _as_coefficients(model, source)
    norm_sq = float(np.sum(g * g))
    if norm_sq > radius**2 * (1 + SOURCE_RADIUS_SLACK):
        raise SourceViolationError(
            f"source norm {math.sqrt(norm_sq)!r} exceeds radius {radius!r}"
        )
    weights = phi.value(model.eigenvalues)
    return TargetFunction(
        model=model,
        coefficients=weights[:, None] * g,
        source=g,
        radius=float(radius),
    )


def power_law_source(model: MercerModel, s: float = 1.0, radius: float = 1.0) -> np.ndarray:
    """Source with profile n**-s, equal across channels, normalized to ``radius``."""
    profile = np.arange(1, model.n_trunc + 1, dtype=float) ** -s
    g = np.tile(profile[:, None], (1, model.output_dim))
    return radius * g / np.sqrt(np.sum(g * g))


def population_regularized(model: MercerModel, target: TargetFunction, lam: float) -> TargetFunction:
    """The infinite-data regularized solution, shrunk mode by mode.

    Shrinking the source by t_n / (t_n + lam) keeps it inside the same
    smoothness class, so the result is again a valid TargetFunction.
    """
    if lam <= 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    shrink = (model.eigenvalues / (model.eigenvalues + lam))[:, None]
    return TargetFunction(
        model=model,
        coefficients=shrink * target.coefficients,
        source=shrink * target.source,
        radius=target.radius,
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    error: float
    limit: float

    @property
    def holds(self) -> bool:
        return self.error <= self.limit * (1 + BOUND_SLACK)


@dataclass(frozen=True)
class ApproxErrorReport:
    l2_error: float
    rkhs_error: float
    bounds: tuple
    applicable: bool


def approx_error_norms(
    model: MercerModel,
    phi: IndexFunction,
    radius: float,
    lam: float,
    target: TargetFunction | None = None,
    worst_case: bool = False,
) -> ApproxErrorReport:
    """Exact norms of (population-regularized minus target), with bound checks.

    The per-mode error coefficient is lam / (t_n + lam) times the target
    coefficient. With ``worst_case`` the report maximizes each norm over
    single-mode sources of norm ``radius``. Monotonicity flags of ``phi``
    decide which closed-form limits apply; a licensed limit that fails is a
    ContractError since these are analytic inequalities. When no limit is
    licensed the report simply says so.
    """
    if lam <= 0 or lam > model.kappa_sq * (1 + 1e-12):
        raise DomainError(f"lam must lie in (0, {model.kappa_sq!r}], got {lam!r}")
    t = model.eigenvalues
    if worst_case:
        per_mode_rkhs = radius * lam * phi.value(t) / (t + lam)
        rkhs_error = float(per_mode_rkhs.max())
        l2_error = float((np.sqrt(t) * per_mode_rkhs).max())
    else:
        if target is None:
            raise ParameterError("need a target unless worst_case=True")
        diff = (lam / (t + lam))[:, None] * target.coefficients
        l2_error, rkhs_error = norms_of_expansion(model, diff)

    flags = phi.flags
    phi_lam = phi.value(lam)
    checks = []
    if flags.phi_times_sqrt_t_nondecreasing and flags.sqrt_t_over_phi_nondecreasing:
        checks.append(BoundCheck("l2_sqrt_weighted", l2_error, radius * phi_lam * math.sqrt(lam)))
    if flags.phi_nondecreasing and flags.t_over_phi_nondecreasing:
        kappa = math.sqrt(model.kappa_sq)
        checks.append(BoundCheck("l2_kernel_scaled", l2_error, radius * kappa * phi_lam))
        checks.append(BoundCheck("rkhs_direct", rkhs_error, radius * phi_lam))
    for check in checks:
        if not check.holds:
            raise ContractError(
                f"licensed limit {check.name} failed: error {check.error!r} "
                f"> limit {check.limit!r}"
            )
    return ApproxErrorReport(
        l2_error=l2_error,
        rkhs_error=rkhs_error,
        bounds=tuple(checks),
        applicable=bool(checks),
    )


# -- noise models -------------------------------------------------------------


@dataclass(frozen=True)
class NoiseCertificate:
    """Moment constants for a noise model, with the verification numbers.

    ``bernstein_scale`` and ``bernstein_sd`` are the constants (M, Sigma)
    such that the centered exponential moment of the output noise is at
    most Sigma^2 / (2 M^2); ``moment_value`` is that moment evaluated
    numerically and ``moment_limit`` the right-hand side. For Gaussian
    noise ``variance_cap`` also reports the conservative closed-form
    variance ceiling; it is informational and stricter than the direct
    check, so ``satisfied`` does not depend on it.
    """

    kind: str
    bernstein_scale: float
    bernstein_sd: float
    moment_value: float
    moment_limit: float
    variance_cap: float
    cap_satisfied: bool
    satisfied: bool


@dataclass(frozen=True)
class NoiseSpec:
    """Output noise: centered Gaussian per channel, or a two-point measure."""

    kind: str
    sigma: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "two_point"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind == "two_point" and self.amplitude <= 0:
            raise ParameterError(f"amplitude must be positive, got {self.amplitude}")

    def moment_constants(self, output_dim: int) -> tuple[float, float]:
        if self.kind == "gaussian":
            root_d = math.sqrt(output_dim)
            return 3.0 * self.sigma * root_d, 2.0 * self.sigma * root_d
        level = self.amplitude
        return output_dim * level + level / 4.0, math.sqrt(2.0) * output_dim * level

    def certify(self, model: MercerModel, target: TargetFunction | None = None) -> NoiseCertificate:
        """Verify the exponential moment condition for this noise model.

        Gaussian noise is checked by radial quadrature; the two-point
        measure by exact finite sums over its atoms, maximized over
        representative (or supplied) target values.
        """
        d = model.output_dim
        scale, sd = self.moment_constants(d)
        if self.kind == "gaussian":
            if self.sigma == 0:
                return NoiseCertificate("gaussian", 0.0, 0.0, 0.0, 0.0, 0.0, True, True)
            value = _gaussian_moment(self.sigma, scale, d)
            limit = sd**2 / (2.0 * scale**2)
            cap = _gaussian_variance_cap(scale, sd, d)
            return NoiseCertificate(
                kind="gaussian",
                bernstein_scale=scale,
                bernstein_sd=sd,
                moment_value=value,
                moment_limit=limit,
                variance_cap=cap,
                cap_satisfied=self.sigma**2 <= cap * (1 + 1e-9),
                satisfied=value <= limit * (1 + 1e-9) and self.sigma**2 <= scale**2 / 2.0,
            )
        level = self.amplitude
        candidates = [np.zeros(d)]
        probe = np.zeros(d)
        probe[0] = level / 4.0
        candidates += [probe, -probe, np.full(d, level / (4.0 * math.sqrt(d)))]
        limit = sd**2 / (2.0 * scale**2)
        if target is not None:
            grid = np.linspace(0.0, PERIOD, 512, endpoint=False)
            f_vals = target.evaluate(grid)
            if np.abs(f_vals).max() > level:
                # the atoms cannot carry this mean; the weights would go
                # negative, so no certificate exists at this level
                return NoiseCertificate(
                    kind="two_point",
                    bernstein_scale=scale,
                    bernstein_sd=sd,
                    moment_value=math.inf,
                    moment_limit=limit,
                    variance_cap=math.nan,
                    cap_satisfied=True,
                    satisfied=False,
                )
            candidates += list(f_vals)
        value = max(_two_point_moment(np.asarray(f), level, d, scale) for f in candidates)
        return NoiseCertificate(
            kind="two_point",
            bernstein_scale=scale,
            bernstein_sd=sd,
            moment_value=value,
            moment_limit=limit,
            variance_cap=math.nan,
            cap_satisfied=True,
            satisfied=value <= limit * (1 + 1e-9),
        )

    def describe(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "sigma": self.sigma}
        return {"kind": "two_point", "L": self.amplitude}


def noise_from_dict(spec: dict) -> NoiseSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError(f"noise spec needs a 'kind': {spec!r}")
    if spec["kind"] == "gaussian":
        return NoiseSpec("gaussian", sigma=float(spec.get("sigma", 0.5)))
    if spec["kind"] == "two_point":
        return NoiseSpec("two_point", amplitude=float(spec["L"]))
    raise ParameterError(f"unknown noise kind {spec['kind']!r}")


def _gaussian_moment(sigma: float, scale: float, d: int) -> float:
    """Radial evaluation of the centered exponential moment for N(0, sigma^2 I_d)."""
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    prefactor = surface / (2.0 * math.pi * sigma**2) ** (d / 2.0)

    def integrand(t):
        u = t / scale
        return (math.exp(u) - u - 1.0) * math.exp(-(t * t) / (2.0 * sigma**2)) * t ** (d - 1)

    value, _ = quad(integrand, 0.0, np.inf, limit=200)
    return prefactor * value


def _gaussian_variance_cap(scale: float, sd: float, d: int) -> float:
    """Conservative closed-form ceiling on the noise variance for (M, Sigma)."""
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    tail, _ = quad(lambda t: math.exp(-t * t + t) * t ** (d + 1), 0.0, np.inf, limit=200)
    return min(scale**2 / 2.0, math.pi ** (d / 2.0) * sd**2 / (4.0 * surface * tail))


def _two_point_moment(f_val: np.ndarray, level: float, d: int, scale: float) -> float:
    """Exact moment sum over the 2d atoms of the two-point measure at one x."""
    total = 0.0
    for j in range(d):
        for sign in (1.0, -1.0):
            atom = np.zeros(d)
            atom[j] = sign * d * level
            weight = (level + sign * f_val[j]) / (2.0 * d * level)
            dist = float(np.linalg.norm(atom - f_val))
            u = dist / scale
            total += weight * (math.exp(u) - u - 1.0)
    return total


def two_point_weights(f_vals: np.ndarray, level: float, d: int):
    """Atoms and per-sample weights of the two-point output measure.

    Atoms are +-(d * level) along each output axis; the weight on the
    positive atom of axis j is (level + f_j) / (2 d level) and on the
    negative atom (level - f_j) / (2 d level), so the conditional mean is
    exactly f. Requires |f_j| <= level.
    """
    f_vals = np.atleast_2d(np.asarray(f_vals, dtype=float))
    atoms = np.vstack([d * level * np.eye(d), -d * level * np.eye(d)])
    weights = np.hstack([
        (level + f_vals) / (2.0 * d * level),
        (level - f_vals) / (2.0 * d * level),
    ])
    if weights.min() < 0:
        raise AmplitudeError(
            f"two-point level {level!r} is below a target value "
            f"(max |f_j| = {np.abs(f_vals).max()!r}); weights would be negative"
        )
    return atoms, weights


def sample_two_point(f_vals: np.ndarray, level: float, d: int, rng: np.random.Generator):
    """Draw one output per row of ``f_vals`` from the two-point measure.

    Takes one uniform per row and inverts the cumulative atom weights.
    """
    atoms, weights = two_point_weights(f_vals, level, d)
    draws = rng.random((weights.shape[0], 1))
    idx = np.minimum((draws > np.cumsum(weights, axis=1)).sum(axis=1), atoms.shape[0] - 1)
    return atoms[idx]


def sample_dataset(
    model: MercerModel,
    target: TargetFunction,
    noise: NoiseSpec,
    m: int,
    seed,
) -> Dataset:
    """Draw m i.i.d. pairs: uniform inputs, outputs from the noise model.

    Deterministic for a fixed seed (int, SeedSequence, or Generator). The
    basis at the drawn inputs is evaluated once and carried on the
    Dataset, so fits, tail statistics and error norms reuse it.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xs = rng.uniform(0.0, PERIOD, size=m)
    basis = model.basis(xs)
    f_vals = target.evaluate(xs, basis=basis)
    if noise.kind == "gaussian":
        if noise.sigma == 0:
            ys = f_vals.copy()
        else:
            ys = f_vals + noise.sigma * rng.standard_normal(f_vals.shape)
    else:
        ys = sample_two_point(f_vals, noise.amplitude, model.output_dim, rng)
    return Dataset(xs=xs, ys=ys, basis=basis)
