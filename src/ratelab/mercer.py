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
Bernstein moment constants before any tail bound may use them; the
Gaussian moment is a series of chi moments, so no quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import hankel, toeplitz

from .errors import (
    AmplitudeError,
    ConstructionError,
    ContractError,
    DomainError,
    ParameterError,
    SourceViolationError,
)
from .gram import Dataset, SampleMoments
from .index_functions import IndexFunction

PERIOD = 2.0 * math.pi

SPECTRUM_RULES = ("lower", "midpoint", "upper")
SOURCE_RADIUS_SLACK = 1e-12
BOUND_SLACK = 1e-12
# Basis cells per row chunk at m >= N (1 MiB of float64): 256 rows at N = 512.
CHUNK_CELLS = 2**17


def trigonometric_basis(xs, count: int) -> np.ndarray:
    """Evaluate the first ``count`` orthonormal trigonometric functions.

    Ordering: constant, then cos/sin pairs of increasing frequency. The
    result has shape (len(xs), count).

    Only cos(x) and sin(x) are computed by transcendental calls. The
    higher frequencies follow by angle doubling: with frequencies 1..w
    known, frequencies w+1..w+n (n <= w) come from

        cos((w+r)x) = cos(rx) cos(wx) - sin(rx) sin(wx)
        sin((w+r)x) = sin(rx) cos(wx) + cos(rx) sin(wx),

    so N/2 frequencies take log2(N/2) vectorised steps, and sqrt(2) is
    applied once at the end. A frequency-k column stays within 4 k eps
    of the exact value (1.3 k eps is the worst seen); cos(k x) taken
    directly reaches 4.4 k eps, since it rounds the angle k x first. Row
    x = 0 is exact. The steps use elementwise real multiplies and adds
    only, so row i is a function of xs[i] alone: evaluating a sample on
    its own or inside any batch gives the same bits.

    The matrix is built frequency-major and returned as its transpose
    (Fortran-ordered), so every step runs along contiguous runs of
    samples and no transposing copy is made.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    n_freq = count // 2
    # one spare row past the end holds sin(n_freq x) when count is even
    waves = np.empty((count + 1, xs.shape[0]))
    waves[0] = 1.0
    cos, sin = waves[1::2][:n_freq], waves[2::2][:n_freq]
    if n_freq:
        cos[0], sin[0] = np.cos(xs), np.sin(xs)
    tmp = np.empty((n_freq // 2, xs.shape[0]))
    w = 1
    while w < n_freq:
        n = min(w, n_freq - w)
        cos_w, sin_w, t = cos[w - 1], sin[w - 1], tmp[:n]
        np.multiply(cos[:n], cos_w, out=cos[w : w + n])
        np.multiply(sin[:n], sin_w, out=t)
        np.subtract(cos[w : w + n], t, out=cos[w : w + n])
        np.multiply(sin[:n], cos_w, out=sin[w : w + n])
        np.multiply(cos[:n], sin_w, out=t)
        np.add(sin[w : w + n], t, out=sin[w : w + n])
        w += n
    waves[1:count] *= math.sqrt(2.0)
    return waves[:count].T


class MomentSums:
    """Running sums over row chunks of the basis that give `SampleMoments`.

    Each chunk B_c adds one product B_c^T [1, sqrt(2) cos hx, y], with h
    the highest cosine frequency, so memory stays at one chunk. Its first
    column sums the features themselves, the moments up to h; the
    second gives those above h, from

        C_(h+j) = 2 mean(cos hx cos jx) - C_(h-j)
        S_(h+j) = 2 mean(cos hx sin jx) + S_(h-j),

    and the rest sums B^T y. An even N has no sin hx column, and S_h comes
    from one more dot, 2 sin((h-1)x) cos x = sin hx + sin (h-2)x. The cost
    is O(m N (2 + d)) for m samples and d output channels.
    """

    def __init__(self, count: int, channels: int | None = None):
        self.count = count
        self.channels = channels
        self.sums = np.zeros((count, 2 + (channels or 0)))
        self.extra = 0.0

    def add(self, feats: np.ndarray, ys: np.ndarray | None = None):
        """Add the chunk ``feats`` (rows, N) and, with outputs, its ``ys`` (rows, d)."""
        probe = np.empty((feats.shape[0], self.sums.shape[1]))
        probe[:, 0] = 1.0
        probe[:, 1] = feats[:, 2 * (self.count // 2) - 1]
        if self.channels is not None:
            probe[:, 2:] = ys
        self.sums += feats.T @ probe
        if self.count % 2 == 0 and self.count > 2:
            self.extra += feats[:, self.count - 2] @ feats[:, 1]

    def moments(self, m: int) -> SampleMoments:
        """The moments of the m samples added so far."""
        count = self.count
        h, h_sin = count // 2, (count - 1) // 2
        means = self.sums / m
        c = np.empty(2 * h + 1)
        c[0] = 1.0
        c[1 : h + 1] = means[1::2, 0] / math.sqrt(2.0)
        c[h + 1 :] = means[1::2, 1] - c[h - 1 :: -1]
        s = np.empty(count)
        s[0] = 0.0
        s[1 : h_sin + 1] = means[2::2, 0] / math.sqrt(2.0)
        if h_sin < h:
            s[h] = self.extra / m - s[h - 2] if h_sin else 0.0  # N = 2 has no sine
        s[h + 1 :] = means[2::2, 1] + s[h - h_sin : h][::-1]
        response = None if self.channels is None else means[:, 2:]
        return SampleMoments(cos=c, sin=s, response=response)


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

    def _fits(self, basis, m: int) -> bool:
        """Whether ``basis`` can stand for the basis at m inputs: an earlier
        evaluation there, such as the one `sample_dataset` carries below N
        samples, has shape (m, N); any other shape belongs to another
        truncation and is not used."""
        return basis is not None and basis.shape == (m, self.n_trunc)

    def basis_chunks(self, xs, basis=None):
        """Yield (rows, basis at xs[rows]) over row chunks that cover ``xs``.

        Below N samples there is one chunk, the whole basis. From N on a
        chunk has CHUNK_CELLS // N rows, so no more than one chunk of the
        basis is alive at a time. A precomputed ``basis`` that fits (see
        `_fits`) is sliced in the same chunks instead of evaluated, so
        anything accumulated over the chunks has the same bits either way.
        """
        m = len(xs)
        step = m if m < self.n_trunc else max(1, CHUNK_CELLS // self.n_trunc)
        whole = basis if self._fits(basis, m) else None
        for start in range(0, m, step):
            rows = slice(start, start + step)
            yield rows, self.basis(xs[rows]) if whole is None else whole[rows]

    def expand(self, coefficients, xs, basis=None) -> np.ndarray:
        """Values at ``xs`` of the expansion with ``coefficients`` (N, d)
        against sqrt(t_n) e_n; a fitting ``basis`` at ``xs`` is reused,
        otherwise the basis is evaluated in row chunks."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        scaled = np.sqrt(self.eigenvalues)[:, None] * coefficients
        if self._fits(basis, len(xs)):
            return basis @ scaled
        out = np.empty((len(xs), scaled.shape[1]))
        for rows, feats in self.basis_chunks(xs):
            out[rows] = feats @ scaled
        return out

    def sample_moments(self, xs, ys=None) -> SampleMoments:
        """The `SampleMoments` of inputs ``xs`` and, if given, outputs ``ys``.

        One pass over `basis_chunks`, so the memory is one chunk of the
        basis, not all of it.
        """
        sums = MomentSums(self.n_trunc, None if ys is None else ys.shape[1])
        for rows, feats in self.basis_chunks(xs):
            sums.add(feats, None if ys is None else ys[rows])
        return sums.moments(len(xs))

    def moments_of(self, data: Dataset) -> SampleMoments:
        """The moments ``data`` carries, if they are this model's and hold
        the outputs' response, else moments computed from its samples."""
        held = data.moments
        if held is not None and held.n_feat == self.n_trunc and held.response is not None:
            return held
        return self.sample_moments(data.xs, data.ys)

    def empirical_operator(self, moments: SampleMoments) -> np.ndarray:
        """The (N, N) empirical operator diag(sqrt t) (B^T B / m) diag(sqrt t).

        B is the basis at the sample's inputs. The operator is assembled
        from the sample's Fourier ``moments`` (see `MomentSums`), which
        must be this model's. Every entry of B^T B / m is a sum or
        difference of two moments C_n = mean cos(n x), S_n = mean sin(n x):

            2 cos jx cos kx = cos (j-k)x + cos (j+k)x
            2 sin jx sin kx = cos (j-k)x - cos (j+k)x
            2 cos jx sin kx = sin (j+k)x - sin (j-k)x,

        so the cos/cos and sin/sin blocks are Toeplitz plus or minus
        Hankel in C, and the cos/sin block Hankel minus Toeplitz in S.
        Assembly costs O(N^2) and the result is exactly symmetric.
        """
        if moments.n_feat != self.n_trunc:
            raise ParameterError(
                f"moments of an N = {moments.n_feat} truncation do not fit "
                f"this N = {self.n_trunc} model"
            )
        count = self.n_trunc
        h, h_sin = count // 2, (count - 1) // 2
        c, s = moments.cos, moments.sin
        emp = np.empty((count, count))
        emp[0, 0] = 1.0
        emp[0, 1::2] = emp[1::2, 0] = math.sqrt(2.0) * c[1 : h + 1]
        emp[0, 2::2] = emp[2::2, 0] = math.sqrt(2.0) * s[1 : h_sin + 1]
        if h:
            toep, hank = toeplitz(c[:h]), hankel(c[2 : h + 2], c[h + 1 :])
            emp[1::2, 1::2] = toep + hank
        if h_sin:
            emp[2::2, 2::2] = (toep - hank)[:h_sin, :h_sin]
            cross = hankel(s[2 : h + 2], s[h + 1 :]) - toeplitz(s[:h], -s[:h_sin])
            emp[1::2, 2::2] = cross
            emp[2::2, 1::2] = cross.T
        root_t = np.sqrt(self.eigenvalues)
        emp *= np.outer(root_t, root_t)
        return emp

    def moment_product(self, moments: SampleMoments, s) -> np.ndarray:
        """(B^T B / m) s for s of shape (N, d), from the moments alone.

        Writing f = B s as sum_k phi_k e^(ikx), k = -h..h, with
        phi_k = (s_cos,k - i s_sin,k) / sqrt(2) and phi_-k its conjugate,
        the empirical means psi_j = mean e^(ijx) f(x) = sum_k phi_k z_(j+k)
        of the moments z_n = C_n + i S_n are one convolution per channel,
        O(N^2) with no N-by-N matrix. Row 0 of the product is psi_0, the
        cos j and sin j rows are sqrt(2) times the real and imaginary
        parts of psi_j. An even N has no sin(h x) feature, so phi_h is
        real and the unknown S_2h never reaches a row that exists.
        """
        count = self.n_trunc
        h, h_sin = count // 2, (count - 1) // 2
        s = np.asarray(s, dtype=float)
        z = moments.cos.astype(complex)
        z[1 : count] += 1j * moments.sin[1:]
        window = np.concatenate((np.conj(z[h:0:-1]), z))  # z_n for n = -h .. 2h
        root_half = math.sqrt(0.5)
        out = np.empty_like(s)
        for channel in range(s.shape[1]):
            phi = np.zeros(h + 1, dtype=complex)
            phi[0] = s[0, channel]
            phi[1:] = root_half * s[1::2, channel]
            phi[1 : h_sin + 1] -= 1j * root_half * s[2::2, channel]
            both = np.concatenate((np.conj(phi[:0:-1]), phi))  # phi_k for k = -h .. h
            psi = np.convolve(window, both[::-1], mode="valid")  # psi_j for j = 0 .. h
            out[0, channel] = psi[0].real
            out[1::2, channel] = math.sqrt(2.0) * psi[1:].real
            out[2::2, channel] = math.sqrt(2.0) * psi[1 : h_sin + 1].imag
        return out

    def scalar_kernel(self, xs, zs, basis=None) -> np.ndarray:
        """k(x_i, z_j); a precomputed ``basis`` at ``xs`` is reused if it fits."""
        bx = basis if self._fits(basis, len(xs)) else self.basis(xs)
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
    if not b >= 1:
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
        return self.model.expand(self.coefficients, xs, basis)

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

        Gaussian noise is checked by a series of chi moments; the two-point
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
        probe = np.zeros(d)
        probe[0] = level / 4.0
        even = np.full(d, level / (4.0 * math.sqrt(d)))
        candidates = np.vstack([np.zeros(d), probe, -probe, even])
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
            candidates = np.vstack([candidates, f_vals])
        # exact moment sum over the 2d atoms at each candidate mean
        atoms, weights = two_point_weights(candidates, level, d)
        u = np.linalg.norm(atoms[None, :, :] - candidates[:, None, :], axis=2) / scale
        value = float(np.max(np.sum(weights * (np.exp(u) - u - 1.0), axis=1)))
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
    """The centered exponential moment for N(0, sigma^2 I_d), as a series.

    The noise norm is sigma times a chi(d) variable, whose k-th moment is
    2^(k/2) Gamma((d + k)/2) / Gamma(d/2), so expanding e^u - u - 1 gives
    E[e^(|e|/M) - |e|/M - 1] = sum_{k>=2} (sigma sqrt(2) / M)^k
    Gamma((d + k)/2) / (Gamma(d/2) k!). Terms are taken in log space, so
    none overflows however small sigma or large d is.
    """
    log_ratio, base = math.log(sigma * math.sqrt(2.0) / scale), math.lgamma(d / 2.0)
    return _positive_series(
        lambda k: k * log_ratio + math.lgamma((d + k) / 2.0) - base - math.lgamma(k + 1.0), 2
    )


def _gaussian_variance_cap(scale: float, sd: float, d: int) -> float:
    """Conservative closed-form ceiling on the noise variance for (M, Sigma).

    The ceiling is Gamma(d/2) Sigma^2 / (8 I) with
    I = int_0^inf exp(-t^2 + t) t^(d+1) dt = sum_{k>=0} Gamma((d + k + 2)/2) / (2 k!)
    (expand e^t), taken in log space with the terms scaled by Gamma((d + 2)/2).
    """
    half = d / 2.0 + 1.0
    top = math.lgamma(half)
    scaled = _positive_series(lambda k: math.lgamma(half + k / 2.0) - top - math.lgamma(k + 1), 0)
    log_ceiling = math.lgamma(d / 2.0) + 2.0 * math.log(sd / 2.0) - top - math.log(scaled)
    return min(scale**2 / 2.0, math.exp(log_ceiling))


def _positive_series(log_term, start: int) -> float:
    """fsum of exp(log_term(k)) over k >= start, for terms that rise, then fall
    with a shrinking ratio: it stops at a falling term below 2^-60 of the sum."""
    terms, k = [math.exp(log_term(start))], start
    while terms[-1] > 2.0**-60 * sum(terms) or (len(terms) > 1 and terms[-1] > terms[-2]):
        k += 1
        terms.append(math.exp(log_term(k)))
    return math.fsum(terms)


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
    f_vals = np.atleast_2d(f_vals)
    return _two_point_outputs(f_vals, level, d, rng.random((f_vals.shape[0], 1)))


def _two_point_outputs(f_vals: np.ndarray, level: float, d: int, draws: np.ndarray):
    """The two-point outputs at ``f_vals`` for uniforms ``draws`` (one per row)."""
    atoms, weights = two_point_weights(f_vals, level, d)
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

    Deterministic for a fixed seed (int, SeedSequence, or Generator): the
    inputs, then the noise (normals, or the two-point uniforms) are drawn
    whole. The samples are then walked in `MercerModel.basis_chunks`:
    each chunk's basis gives its target values, its outputs and its share
    of the `SampleMoments` the Dataset carries, and is dropped. Below N
    samples the one chunk is the whole basis, which the Dataset carries
    too for the dense Gram path; from N on nothing m-by-N is allocated.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xs = rng.uniform(0.0, PERIOD, size=m)
    d = model.output_dim
    if noise.kind == "two_point":
        draws = rng.random((m, 1))
    elif noise.sigma != 0:
        draws = noise.sigma * rng.standard_normal((m, d))
    ys = np.empty((m, d))
    sums = MomentSums(model.n_trunc, d)
    for rows, feats in model.basis_chunks(xs):
        f_vals = target.evaluate(xs[rows], basis=feats)
        if noise.kind == "two_point":
            ys[rows] = _two_point_outputs(f_vals, noise.amplitude, d, draws[rows])
        elif noise.sigma == 0:
            ys[rows] = f_vals
        else:
            np.add(f_vals, draws[rows], out=ys[rows])
        sums.add(feats, ys[rows])
    basis = feats if m < model.n_trunc else None
    return Dataset(xs=xs, ys=ys, basis=basis, moments=sums.moments(m))
