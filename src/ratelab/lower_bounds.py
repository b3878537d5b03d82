"""Machinery behind the minimax lower bounds: packings, adversarial
families, a bounded two-point output measure, and the information
inequalities that convert separation plus low divergence into an
irreducible error probability.

Everything here is checkable: constructed families verify their own
separation and smoothness-class membership, the divergence helper
asserts its closed-form ceiling, and the final probability bound can be
stress-tested against an actual estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    Check,
    ConstructionError,
    ContractError,
    PackingFailureError,
    ParameterError,
)
from .estimator import basis_coefficients, fit
from .filters import tikhonov
from .gram import Dataset
from .index_functions import IndexFunction
from .mercer import (
    MercerModel,
    NoiseSpec,
    TargetFunction,
    draw_dataset,
    norms_of_expansion,
    target_from_source,
    two_point_weights,
)
from .rates import choose_lambda

MIN_CODE_LENGTH = 24
REJECTION_CAP = 10**6
FANO_CONSTANT = math.exp(-3.0 / math.e)
SEPARATION_SLACK = 1e-9
PAIR_BLOCK = 128  # family members per block in the pairwise separation check


@dataclass(frozen=True, eq=False)
class SignPacking:
    """Sign vectors of length ell, pairwise squared distance >= ell."""

    codes: np.ndarray  # (size, ell) entries +-1

    @property
    def ell(self) -> int:
        return int(self.codes.shape[1])

    @property
    def size(self) -> int:
        return int(self.codes.shape[0])


def packing_size(ell: int) -> int:
    """Number of codes the probabilistic construction guarantees."""
    return math.ceil(math.exp(ell / 24.0))


def build_packing(ell: int, seed: int = 0) -> SignPacking:
    """Rejection-sample ceil(e**(ell/24)) sign vectors, far apart pairwise.

    Pairwise squared distance >= ell is equivalent to inner product
    <= ell / 2, which is what the accept test uses. Needs ell >= 24 and
    ell divisible by 4; gives up after 10**6 rejected draws. Each draw
    places at most one code, so a length whose packing needs more than
    10**6 codes (ell >= 332) is refused before anything is allocated.
    """
    if ell < MIN_CODE_LENGTH:
        raise ParameterError(f"code length must be >= {MIN_CODE_LENGTH}, got {ell}")
    if ell % 4 != 0:
        raise ParameterError(f"code length must be divisible by 4, got {ell}")
    target = packing_size(ell)
    if target > REJECTION_CAP:
        raise ParameterError(
            f"code length {ell} needs {target} codes, more than the "
            f"{REJECTION_CAP} draws a packing may take"
        )
    rng = np.random.default_rng(seed)
    accepted = np.empty((target, ell), dtype=np.int64)
    count = 0
    for _ in range(REJECTION_CAP):
        candidate = rng.integers(0, 2, size=ell) * 2 - 1
        if count == 0 or (accepted[:count] @ candidate).max() <= ell // 2:
            accepted[count] = candidate
            count += 1
            if count == target:
                return SignPacking(codes=accepted.astype(float))
    raise PackingFailureError(
        f"could not place {target} codes of length {ell} within {REJECTION_CAP} draws"
    )


def separation_for_code_length(
    model: MercerModel,
    phi: IndexFunction,
    radius: float,
    ell: int,
    rkhs_variant: bool = False,
) -> float:
    """Largest separation the smoothness class affords at code length ell.

    L2 flavor: radius * sqrt(t) phi(t) at t = alpha * ell**-b. RKHS
    flavor spends ell/4 extra modes on a common prefix, which costs the
    factor 2/sqrt(5): (2 radius / sqrt(5)) * phi(alpha * (5 ell/4)**-b).
    """
    if ell % 4 != 0 or ell < 4:
        raise ParameterError(f"code length must be a positive multiple of 4, got {ell}")
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius!r}")
    if radius == math.inf:
        raise ParameterError(f"radius must be finite, got {radius!r}")
    alpha, b = model.decay_alpha, model.decay_b
    if rkhs_variant:
        t = alpha * (1.25 * ell) ** -b
        return 2.0 * radius / math.sqrt(5.0) * phi.value(t)
    t = alpha * float(ell) ** -b
    return radius * math.sqrt(t) * phi.value(t)


@dataclass(frozen=True, eq=False)
class AdversarialFamily:
    """A separated family of targets inside one smoothness class."""

    members: tuple
    epsilon: float
    packing: SignPacking
    variant: str  # "l2" or "rkhs"
    min_separation: float
    max_separation: float


def adversarial_family(
    model: MercerModel,
    phi: IndexFunction,
    radius: float,
    epsilon: float,
    packing: SignPacking,
    rkhs_variant: bool = False,
) -> AdversarialFamily:
    """Turn a sign packing into targets that are epsilon-separated.

    Member i places epsilon * code_i[n] / (sqrt(ell * t_n) phi(t_n)) on
    source mode n of output channel 0 (L2 flavor); the RKHS flavor uses
    5 ell / 4 modes with an all-ones prefix and drops the sqrt(t_n).
    An epsilon above `separation_for_code_length` at the packing's ell
    cannot fit in the class and raises ConstructionError. Every member is
    built through `target_from_source`, so class membership is enforced,
    and pairwise separations are verified to lie in [epsilon, 2 epsilon].
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    ell = packing.ell
    needed = (5 * ell) // 4 if rkhs_variant else ell
    feasible = separation_for_code_length(model, phi, radius, ell, rkhs_variant)
    if epsilon > feasible * (1 + 1e-12):
        raise ConstructionError(
            f"separation {epsilon!r} exceeds the feasible {feasible!r} at ell={ell}"
        )
    if model.n_trunc < needed:
        raise ConstructionError(
            f"family needs {needed} modes but the model truncates at {model.n_trunc}"
        )

    t = model.eigenvalues[:needed]
    phi_t = phi.value(t)
    if rkhs_variant:
        prefix = np.ones(ell // 4)
        profiles = epsilon * np.hstack([np.tile(prefix, (packing.size, 1)), packing.codes]) / (
            math.sqrt(ell) * phi_t[None, :]
        )
    else:
        profiles = epsilon * packing.codes / (np.sqrt(ell * t) * phi_t)[None, :]

    members = []
    for row in profiles:
        source = np.zeros((model.n_trunc, model.output_dim))
        source[:needed, 0] = row
        members.append(target_from_source(model, phi, source, radius))

    min_sep, max_sep = _pairwise_separation(model, members, rkhs_variant)
    if min_sep < epsilon * (1 - SEPARATION_SLACK) or max_sep > 2 * epsilon * (1 + SEPARATION_SLACK):
        raise ContractError(
            f"separations [{min_sep!r}, {max_sep!r}] leave [epsilon, 2 epsilon] "
            f"for epsilon={epsilon!r}"
        )
    return AdversarialFamily(
        members=tuple(members),
        epsilon=epsilon,
        packing=packing,
        variant="rkhs" if rkhs_variant else "l2",
        min_separation=min_sep,
        max_separation=max_sep,
    )


def _pairwise_separation(model, members, rkhs_variant):
    """Smallest and largest distance over every pair of members.

    Rows are compared in blocks of PAIR_BLOCK against every later member.
    Each block's squared distances sq_i + sq_j - 2 <s_i, s_j> are formed in
    one PAIR_BLOCK x len(members) buffer, in that order, and only the
    block's own square needs a mask, so memory stays at a few such rows.
    """
    stack = np.stack([mem.coefficients[:, 0] for mem in members])
    if not rkhs_variant:
        stack *= np.sqrt(model.eigenvalues)[None, :]
    sq = np.sum(stack * stack, axis=1)
    lo, hi = math.inf, 0.0
    for start in range(0, stack.shape[0] - 1, PAIR_BLOCK):
        block = stack[start : start + PAIR_BLOCK]
        rows = len(block)
        dist_sq = np.add.outer(sq[start : start + rows], sq[start:])
        dist_sq -= (2.0 * block) @ stack[start:].T
        own = dist_sq[:, :rows][np.triu_indices(rows, k=1)]
        lo, hi = min(lo, float(own.min())), max(hi, float(own.max()))
        if dist_sq.shape[1] > rows:
            rest = dist_sq[:, rows:]
            lo, hi = min(lo, float(rest.min())), max(hi, float(rest.max()))
    return math.sqrt(max(lo, 0.0)), math.sqrt(hi)


# -- bounded two-point output measure -----------------------------------------


def amplitude_for(phi: IndexFunction, radius: float, model: MercerModel) -> float:
    """Output level 4 kappa phi(kappa^2) radius.

    Any target in the class satisfies |f_j(x)| <= kappa phi(kappa^2) R,
    a quarter of this level, which keeps all two-point weights >= 3/(8d).
    """
    kappa = math.sqrt(model.kappa_sq)
    return 4.0 * kappa * phi.value(model.kappa_sq) * radius


@dataclass(frozen=True, eq=False)
class TwoPointMeasure:
    """Conditional output law on 2d signed atoms with mean f(x)."""

    model: MercerModel
    target: TargetFunction
    amplitude: float

    def __post_init__(self):
        NoiseSpec("two_point", amplitude=self.amplitude)  # refuses a bad amplitude by name

    @cached_property
    def grid_weights(self) -> np.ndarray:
        """Atom weights (mercer.GRID_POINTS, 2d) at the inputs 2 pi j / GRID_POINTS.

        Computed on first use by `MercerModel.expand_on_grid` and kept on
        the instance, which is frozen, so the cache cannot go stale.
        """
        f_vals = self.model.expand_on_grid(self.target.coefficients)
        weights = two_point_weights(f_vals, self.amplitude, self.model.output_dim)[1]
        weights.flags.writeable = False
        return weights

    def sample(self, m: int, rng: np.random.Generator) -> Dataset:
        """Draw m uniform inputs and their outputs from ``rng``, by
        `mercer.draw_dataset`, so the Dataset carries the sample's moments."""
        noise = NoiseSpec("two_point", amplitude=self.amplitude)
        return draw_dataset(self.model, self.target, noise, m, rng)


def kl_divergence(first: TwoPointMeasure, second: TwoPointMeasure) -> float:
    """Average conditional divergence of two measures sharing an amplitude.

    Computed exactly per grid point from the atom weights and averaged
    over the uniform input measure on mercer.GRID_POINTS equispaced points;
    each measure's weights are computed once (`TwoPointMeasure.grid_weights`),
    so comparing K measures pairwise costs K grid evaluations. The
    closed-form ceiling 16 / (15 d L^2) times the squared L2 gap of
    the means must hold; a violation raises since the inequality is
    analytic, so every divergence returned is within it.
    """
    if first.model is not second.model or first.amplitude != second.amplitude:
        raise ParameterError("measures must share their model and amplitude")
    level = first.amplitude
    d = first.model.output_dim
    w1, w2 = first.grid_weights, second.grid_weights
    value = float(np.mean(np.sum(w1 * np.log(w1 / w2), axis=1)))

    gap = first.target.coefficients - second.target.coefficients
    l2_gap = norms_of_expansion(first.model, gap).l2
    bound = 16.0 / (15.0 * d * level**2) * l2_gap**2
    if not value <= bound * (1 + 1e-9):
        raise ContractError(
            f"divergence {value!r} exceeds its ceiling {bound!r}; "
            "the mean gap algebra is broken"
        )
    return value


# -- information-theoretic error floors ----------------------------------------


def fano_bound(ell: int, m: int, epsilon: float, d: int, amplitude: float) -> dict:
    """Error-probability floor for ceil(e**(ell/24)) separated targets.

    Two branches: a divergence-free floor 1 / (1 + e**(-ell/24)) valid
    while the information term is dominated, and the exponential branch
    e**(-3/e) * exp(ell/48 - 64 m epsilon^2 / (15 d L^2)). The floor is
    their minimum; ``branch`` names which side is active.
    """
    if ell < MIN_CODE_LENGTH or ell % 4 != 0:
        raise ParameterError(f"need ell >= {MIN_CODE_LENGTH} divisible by 4, got {ell}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m!r}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d!r}")
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if not amplitude > 0:
        raise ParameterError(f"amplitude must be positive, got {amplitude!r}")
    plateau = 1.0 / (1.0 + math.exp(-ell / 24.0))
    info = ell / 48.0 - 64.0 * m * epsilon**2 / (15.0 * d * amplitude**2)
    exponential = FANO_CONSTANT * math.exp(info)
    if exponential <= plateau:
        return {"value": exponential, "branch": "information"}
    return {"value": plateau, "branch": "plateau"}


def empirical_fano_check(
    model: MercerModel,
    phi: IndexFunction,
    radius: float,
    ell: int,
    m: int,
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Race an actual estimator against the error floor.

    Each trial hides a uniformly chosen family member behind the bounded
    two-point noise (`TwoPointMeasure.sample`, the draw `sample_dataset`
    makes), fits Tikhonov with lambda from the psi rule at this
    m, and records whether the fit landed epsilon/2 or farther from the
    truth in L2. The observed frequency must not undercut the floor by
    more than three binomial standard errors; ``check`` holds that
    comparison. The packing is built from ``seed``, and trial i draws from
    SeedSequence([seed, i]). The result also holds the adversarial
    ``family`` the trials drew from.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    packing = build_packing(ell, seed=seed)
    epsilon = separation_for_code_length(model, phi, radius, ell)
    family = adversarial_family(model, phi, radius, epsilon, packing)
    level = amplitude_for(phi, radius, model)
    floor = fano_bound(ell, m, epsilon, model.output_dim, level)
    lam = float(choose_lambda("psi", phi, model.decay_b, m))

    misses = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        truth = family.members[int(rng.integers(len(family.members)))]
        data = TwoPointMeasure(model=model, target=truth, amplitude=level).sample(m, rng)
        fitted = fit(data, model, tikhonov(), lam)
        gap = basis_coefficients(fitted, model) - truth.coefficients
        if norms_of_expansion(model, gap).l2 >= epsilon / 2.0:
            misses += 1

    observed = misses / trials
    bound = floor["value"]
    se = math.sqrt(bound * (1.0 - bound) / trials)
    return {
        "ell": ell,
        "N": packing.size,
        "separation": epsilon,
        "amplitude": level,
        "fano_bound": bound,
        "branch": floor["branch"],
        "trials": trials,
        "observed_frequency": observed,
        "standard_error": se,
        "check": Check("fano_floor", bound - 3.0 * se, observed),
        "family": family,
    }

