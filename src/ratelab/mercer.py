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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    AmplitudeError,
    ConstructionError,
    ContractError,
    DomainError,
    ParameterError,
    SourceViolationError,
)
from .gram import Dataset, Features, SampleMoments
from .index_functions import IndexFunction

PERIOD = 2.0 * math.pi

SPECTRUM_RULES = ("lower", "midpoint", "upper")
SOURCE_RADIUS_SLACK = 1e-12
BOUND_SLACK = 1e-12
# Basis cells per row chunk at m >= N: 256 rows at N = 512, whose table of
# 257 complex columns is 1 MiB.
CHUNK_CELLS = 2**17
# Table cells per block as `real_features` rewrites a table: a 64 KiB copy.
BLOCK_CELLS = 2**12
# Equispaced inputs 2 pi j / GRID_POINTS on which the two-point measure is
# checked: the divergence average and the noise certificate's target values.
GRID_POINTS = 512


def trigonometric_basis(xs, count: int) -> np.ndarray:
    """The table of e^(i k x) at ``xs`` for the frequencies k = 0..h, h = count // 2.

    The result has shape (len(xs), h + 1), one row per sample, and holds
    every frequency of the first ``count`` orthonormal trigonometric
    functions: 1, then sqrt(2) cos(k x) and sqrt(2) sin(k x) are the
    real and imaginary parts of column k times sqrt(2) (`real_features`).
    Sums over samples are products with the table (`MercerModel.expand`,
    `MomentSums`).

    Only cos(x) and sin(x) are computed by transcendental calls. The
    higher frequencies follow by angle doubling: with frequencies 1..w
    known, frequencies w+1..w+n (n <= w) are e^(i r x) e^(i w x),
    r = 1..n, one complex multiply per step, so h frequencies take
    log2(h) steps. A frequency-k entry stays within 4 k eps of the exact
    value (1.25 k eps is the worst seen); e^(i k x) taken directly
    reaches 4.4 k eps, since it rounds the angle k x first. The entry at
    x = 0 is exact. Each step multiplies along contiguous runs of
    samples, so row i is a function of xs[i] alone; a lone sample is
    evaluated beside a spare copy, since numpy rounds a complex multiply
    of length 1 differently, and gives the bits it gets in any batch.

    The table is built frequency-major and returned as its transpose
    (Fortran-ordered), so no transposing copy is made.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    lone = xs.shape[0] == 1
    if lone:
        xs = np.repeat(xs, 2)
    n_freq = count // 2
    table = np.empty((n_freq + 1, xs.shape[0]), dtype=complex)
    table[0] = 1.0
    if n_freq:
        np.cos(xs, out=table[1].real)
        np.sin(xs, out=table[1].imag)
    w = 1
    while w < n_freq:
        n = min(w, n_freq - w)
        np.multiply(table[1 : n + 1], table[w], out=table[w + 1 : w + n + 1])
        w += n
    return (table[:, :1].copy() if lone else table).T


def real_features(table: np.ndarray, count: int, scale: np.ndarray) -> np.ndarray:
    """The real (m, count) matrix with columns s_0, then s_(2k-1) cos(k x) and
    s_(2k) sin(k x), k = 1, 2, ..., written over a `trigonometric_basis`
    table: Phi = B diag(sqrt t) for s = (sqrt t_0, sqrt(2 t_1), ...)
    (`MercerModel.features`), and the basis B itself for
    s = (1, sqrt 2, sqrt 2, ...).

    The table is consumed: its frequency-major memory is rewritten,
    BLOCK_CELLS cells at a time, into rows of the scaled real and
    imaginary parts of each frequency, so no second table-sized array is
    made. The result is the transpose of those rows, row 0 (the zero
    imaginary part of frequency 0) becoming the constant. Only the dense
    path below N samples reads B or Phi; every sum over samples from N on
    is a product with the table.
    """
    freq = table.T
    n_freq, m = freq.shape
    pair_scale = np.zeros((n_freq, 2, 1))
    pair_scale.reshape(-1)[1 : count + 1] = scale
    planar = freq.view(float).reshape(n_freq, 2, m)
    step = max(1, BLOCK_CELLS // m)
    for start in range(0, n_freq, step):
        block = slice(start, start + step)
        rows = freq[block].copy()
        np.multiply(rows.real, pair_scale[block, 0], out=planar[block, 0])
        np.multiply(rows.imag, pair_scale[block, 1], out=planar[block, 1])
    feats = planar.reshape(2 * n_freq, m)[1 : count + 1].T
    feats[:, 0] = scale[0]
    return feats


def spectrum(scaled: np.ndarray) -> np.ndarray:
    """The (h + 1, d) complex spectrum phi of an expansion ``scaled`` (N, d)
    against the orthonormal e_n, with h = N // 2: phi_0 = a_0 and
    phi_k = sqrt(2) (a_cos,k - i a_sin,k), so the expansion's value at x is
    Re sum_k phi_k e^(i k x). An even N has no sin(h x) term."""
    sines = np.zeros_like(scaled[1::2])
    sines[: len(scaled[2::2])] = scaled[2::2]
    phi = np.empty((len(sines) + 1, scaled.shape[1]), dtype=complex)
    phi[0] = scaled[0]
    phi[1:] = math.sqrt(2.0) * (scaled[1::2] - 1j * sines)
    return phi


def fold(sums: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` real rows of B^T v from the table product
    sums_k = sum_i e^(i k x_i) v_i, k = 0..h: row 0 is Re sums_0, and the
    cos k and sin k rows are sqrt(2) times Re and Im of sums_k."""
    out = np.empty((count,) + sums.shape[1:])
    out[0] = sums[0].real
    out[1::2] = math.sqrt(2.0) * sums[1 : count // 2 + 1].real
    out[2::2] = math.sqrt(2.0) * sums[1 : (count + 1) // 2].imag
    return out


def _toeplitz_hankel(moments: np.ndarray, zero: int, rows: int, cols: int):
    """Read-only (rows, cols) views T_jk = M_(j-k) and H_jk = M_(j+k+2) of a
    moment sequence held as ``moments``, whose entry ``zero`` is M_0 and
    whose earlier entries hold M_(-1), M_(-2), ... in reverse order."""
    step = moments.strides[0]
    view = np.lib.stride_tricks.as_strided
    toep = view(moments[zero:], (rows, cols), (step, -step), writeable=False)
    hank = view(moments[zero + 2 :], (rows, cols), (step, step), writeable=False)
    return toep, hank


class MomentSums:
    """Running sums over row chunks of the table that give `SampleMoments`.

    Each chunk V_c (rows, h + 1) adds the products V_c^T 1, V_c^T e^(i h x)
    and V_c^T y: the first sums e^(i n x) for n = 0..h, the second for
    n = h..2h, and the rest sum e^(i k x) y, which `fold` turns into B^T y.
    So memory stays at one chunk, and every moment C_n + i S_n up to 2h
    is a sum of table entries or of products of two. Each column is its
    own matrix-vector product, which BLAS runs faster than one product
    with a few columns. The cost is O(m h (2 + d)) complex multiply-adds
    for m samples and d output channels.
    """

    def __init__(self, count: int, channels: int | None = None):
        self.count = count
        self.channels = channels
        self.sums = np.zeros((2 + (channels or 0), count // 2 + 1), dtype=complex)

    def add(self, table: np.ndarray, ys: np.ndarray | None = None):
        """Add the chunk ``table`` (rows, h + 1) and, with outputs, its ``ys`` (rows, d)."""
        columns = [np.ones(table.shape[0]), table[:, -1]]
        if self.channels is not None:
            columns.extend(ys.T)
        for total, column in zip(self.sums, columns):
            total += table.T @ column

    def moments(self, m: int) -> SampleMoments:
        """The moments of the m samples added so far."""
        means = self.sums / m
        z = np.concatenate((means[0], means[1, 1:]))
        response = None if self.channels is None else fold(means[2:].T, self.count)
        return SampleMoments(cos=z.real.copy(), sin=z.imag[: self.count].copy(), response=response)


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

    def features(self, xs, carried: Features | None = None) -> Features:
        """This model's `Features` at ``xs``, Phi = B diag(sqrt t) of shape
        (len(xs), N): the ``carried`` ones if they are this model's at ``xs``
        (built with its scale, as `draw_dataset` builds them), else
        evaluated; anything else passed as ``carried`` is not used."""
        shape = (len(xs), self.n_trunc)
        if getattr(carried, "scale", None) is self._feature_scale and carried.matrix.shape == shape:
            return carried
        return self._features_of(trigonometric_basis(xs, self.n_trunc))

    def _features_of(self, table: np.ndarray) -> Features:
        """This model's `Features`, written over a `trigonometric_basis` table
        (`real_features`)."""
        scale = self._feature_scale
        return Features(real_features(table, self.n_trunc, scale), scale)

    @cached_property
    def _feature_scale(self) -> np.ndarray:
        """sqrt(t_0), then sqrt(2 t_n): the column scale of Phi in `real_features`,
        read-only; `features` knows the Features it built by it."""
        scale = np.sqrt(2.0 * self.eigenvalues)
        scale[0] = math.sqrt(self.eigenvalues[0])
        scale.flags.writeable = False
        return scale

    def basis_chunks(self, xs):
        """Yield (rows, table at xs[rows]) over row chunks that cover ``xs``.

        Below N samples there is one chunk, the whole table. From N on a
        chunk has CHUNK_CELLS // N rows, so no more than one chunk of the
        table is alive at a time.
        """
        m = len(xs)
        step = m if m < self.n_trunc else max(1, CHUNK_CELLS // self.n_trunc)
        for start in range(0, m, step):
            rows = slice(start, start + step)
            yield rows, trigonometric_basis(xs[rows], self.n_trunc)

    def expand(self, coefficients, xs, table=None) -> np.ndarray:
        """Values at ``xs`` of the expansion with ``coefficients`` (N, d)
        against sqrt(t_n) e_n: Re(V phi) for the table V at ``xs`` and the
        expansion's `spectrum` phi, over `basis_chunks`. A given ``table``
        is the whole table at ``xs``, as a `basis_chunks` chunk is, and is
        used as it is; one of another shape or dtype is refused."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        phi = spectrum(np.sqrt(self.eigenvalues)[:, None] * coefficients)
        if table is not None:
            shape = (len(xs), self.n_trunc // 2 + 1)
            if table.shape != shape or table.dtype != complex:
                raise ParameterError(
                    f"a basis table here must be complex {shape}, got {table.dtype} {table.shape}"
                )
            return (table @ phi).real
        out = np.empty((len(xs), phi.shape[1]))
        for rows, chunk in self.basis_chunks(xs):
            out[rows] = (chunk @ phi).real
        return out

    def expand_on_grid(self, coefficients) -> np.ndarray:
        """Values of the expansion with ``coefficients`` (N, d) against
        sqrt(t_n) e_n at the G = GRID_POINTS inputs x_j = 2 pi j / G, from
        one inverse FFT, with no G x N basis.

        The value at x is Re sum_k phi_k e^(i k x) for the expansion's
        `spectrum` phi, and on this grid e^(i k x_j) depends on k mod G
        only, so phi_k adds to bin k mod G and the values are exact for any
        N, also N > G. The cost is O(N d + d G log G).
        """
        phi = spectrum(np.sqrt(self.eigenvalues)[:, None] * coefficients)
        freq = np.arange(1, len(phi)) % GRID_POINTS
        grid = np.zeros((GRID_POINTS, phi.shape[1]), dtype=complex)
        grid[0] = phi[0]
        np.add.at(grid, freq, phi[1:])
        return np.fft.ifft(grid, axis=0, norm="forward").real

    def sample_moments(self, xs, ys=None) -> SampleMoments:
        """The `SampleMoments` of inputs ``xs`` and, if given, outputs ``ys``.

        One pass over `basis_chunks`, so the memory is one chunk of the
        table, not all of it.
        """
        sums = MomentSums(self.n_trunc, None if ys is None else ys.shape[1])
        for rows, chunk in self.basis_chunks(xs):
            sums.add(chunk, None if ys is None else ys[rows])
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
        Those Toeplitz and Hankel matrices are strided views of one moment
        vector each (`_toeplitz_hankel`), added straight into the blocks.
        Assembly costs O(N^2) and the result is exactly symmetric. The
        scale diag(sqrt t) on both sides is one product with an N-by-N
        outer product that the model computes once.
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
            # C_(j-k) and C_(j+k+2) as strided views of (C_(h-1), ..., C_1, C_0, ..., C_2h)
            toep, hank = _toeplitz_hankel(np.concatenate((c[h - 1 : 0 : -1], c)), h - 1, h, h)
            np.add(toep, hank, out=emp[1::2, 1::2])
        if h_sin:
            np.subtract(toep[:h_sin, :h_sin], hank[:h_sin, :h_sin], out=emp[2::2, 2::2])
            # S_(j-k) and S_(j+k+2) of (-S_(h'-1), ..., -S_1, S_0, ..., S_(N-1)), h' = h_sin,
            # since S_(-n) = -S_n
            odd = np.concatenate((-s[h_sin - 1 : 0 : -1], s))
            toep, hank = _toeplitz_hankel(odd, h_sin - 1, h, h_sin)
            np.subtract(hank, toep, out=emp[1::2, 2::2])
            emp[2::2, 1::2] = emp[1::2, 2::2].T
        emp *= self._root_outer
        return emp

    @cached_property
    def _root_outer(self) -> np.ndarray:
        """outer(sqrt t, sqrt t), the (N, N) scale of `empirical_operator`, read-only."""
        root_t = np.sqrt(self.eigenvalues)
        scale = np.outer(root_t, root_t)
        scale.flags.writeable = False
        return scale

    def scalar_kernel(self, xs, features: Features | None = None) -> np.ndarray:
        """k(x_i, x_j) = (Phi Phi^T)_ij with Phi = B diag(sqrt t) at ``xs``
        (`features`); ``features`` carried at ``xs`` are reused if they are
        this model's."""
        phi = self.features(xs, features).matrix
        return phi @ phi.T

    def trace_tail_bound(self) -> float:
        """Upper bound on the eigenvalue mass dropped by truncation.

        Integral comparison against the decay envelope gives
        beta * N**(1-b) / (b-1); infinite when b <= 1.
        """
        if self.decay_b <= 1:
            return math.inf
        n = self.n_trunc
        return self.decay_beta * n ** (1.0 - self.decay_b) / (self.decay_b - 1.0)


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
    if not 1 <= b < math.inf:
        raise ParameterError(f"decay exponent must be >= 1 and finite, got {b}")
    beta = alpha if beta is None else beta
    if not 0 < alpha <= beta < math.inf:
        raise ConstructionError(f"need 0 < alpha <= beta < inf, got alpha={alpha}, beta={beta}")
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

    def evaluate(self, xs, table=None) -> np.ndarray:
        """Target values at ``xs``, from the basis ``table`` at ``xs`` if given
        (`MercerModel.expand`)."""
        return self.model.expand(self.coefficients, xs, table)


def target_from_source(
    model: MercerModel, phi: IndexFunction, source, radius: float
) -> TargetFunction:
    """Build the target with coefficients phi(t_n) * g_n from a source g.

    The source norm may not exceed ``radius`` (up to roundoff).
    """
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    if radius == math.inf:
        raise ParameterError(f"radius must be finite, got {radius}")
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
    if not math.isfinite(s):
        raise ParameterError(f"source exponent s must be finite, got {s}")
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    if radius == math.inf:
        raise ParameterError(f"radius must be finite, got {radius}")
    profile = np.arange(1, model.n_trunc + 1, dtype=float) ** -s
    g = np.tile(profile[:, None], (1, model.output_dim))
    return radius * g / np.sqrt(np.sum(g * g))


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
    target: TargetFunction,
) -> ApproxErrorReport:
    """Exact norms of (population-regularized minus target), with bound checks.

    The per-mode error coefficient is lam / (t_n + lam) times the target
    coefficient. Monotonicity flags of ``phi`` decide which closed-form
    limits apply; a licensed limit that fails is a ContractError since
    these are analytic inequalities. When no limit is licensed the report
    simply says so.
    """
    if not 0 < lam <= model.kappa_sq * (1 + 1e-12):
        raise DomainError(f"lam must lie in (0, {model.kappa_sq!r}], got {lam!r}")
    t = model.eigenvalues
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
    numerically and ``moment_limit`` the right-hand side.
    """

    kind: str
    bernstein_scale: float
    bernstein_sd: float
    moment_value: float
    moment_limit: float

    @property
    def satisfied(self) -> bool:
        return self.moment_value <= self.moment_limit * (1 + 1e-9)


@dataclass(frozen=True)
class NoiseSpec:
    """Output noise: centered Gaussian per channel, or a two-point measure."""

    kind: str
    sigma: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "two_point"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 <= self.sigma < math.inf:
            raise ParameterError(f"sigma must be >= 0 and finite, got {self.sigma}")
        if self.kind == "two_point" and not 0 < self.amplitude < math.inf:
            raise ParameterError(f"amplitude must be positive and finite, got {self.amplitude}")

    def moment_constants(self, output_dim: int) -> tuple[float, float]:
        if self.kind == "gaussian":
            root_d = math.sqrt(output_dim)
            return 3.0 * self.sigma * root_d, 2.0 * self.sigma * root_d
        level = self.amplitude
        return output_dim * level + level / 4.0, math.sqrt(2.0) * output_dim * level

    def certify(self, model: MercerModel, target: TargetFunction | None = None) -> NoiseCertificate:
        """Verify the exponential moment condition for this noise model.

        Gaussian noise is checked by a series of chi moments, and noise of
        sigma 0 (so M = 0) has moment 0 against limit 0. The two-point
        measure is checked by exact sums over its atoms (`_two_point_moment`).
        """
        d = model.output_dim
        scale, sd = self.moment_constants(d)
        limit = sd**2 / (2.0 * scale**2) if scale else 0.0
        if self.kind == "gaussian":
            value = _gaussian_moment(self.sigma, scale, d) if scale else 0.0
        else:
            value = _two_point_moment(model, target, self.amplitude, scale)
        return NoiseCertificate(self.kind, scale, sd, value, limit)

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
    none overflows however small sigma or large d is. They rise, then fall
    with a shrinking ratio, and the fsum stops at a falling term below
    2^-60 of the sum.
    """
    log_ratio, base = math.log(sigma * math.sqrt(2.0) / scale), math.lgamma(d / 2.0)

    def term(k: int) -> float:
        return math.exp(k * log_ratio + math.lgamma((d + k) / 2.0) - base - math.lgamma(k + 1.0))

    terms, k = [term(2)], 2
    while terms[-1] > 2.0**-60 * sum(terms) or (len(terms) > 1 and terms[-1] > terms[-2]):
        k += 1
        terms.append(term(k))
    return math.fsum(terms)


def _two_point_moment(model: MercerModel, target, level: float, scale: float) -> float:
    """The centered exponential moment of the two-point measure at ``level``:
    exact sums over the 2d atoms, maximized over representative means and,
    with a ``target``, its values on the GRID_POINTS grid. A mean above the
    level gives inf, as the weights would go negative: the atoms cannot
    carry it, so no certificate exists at this level.
    """
    d = model.output_dim
    probe = np.zeros(d)
    probe[0] = level / 4.0
    candidates = [np.zeros(d), probe, -probe, np.full(d, level / (4.0 * math.sqrt(d)))]
    if target is not None:
        candidates.append(model.expand_on_grid(target.coefficients))
    candidates = np.vstack(candidates)
    if np.abs(candidates).max() > level:
        return math.inf
    atoms, weights = two_point_weights(candidates, level, d)
    u = np.linalg.norm(atoms[None, :, :] - candidates[:, None, :], axis=2) / scale
    return float(np.max(np.sum(weights * (np.exp(u) - u - 1.0), axis=1)))


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
            f"(max |f_j| = {float(np.abs(f_vals).max())!r}); weights would be negative"
        )
    return atoms, weights


def sample_dataset(
    model: MercerModel,
    target: TargetFunction,
    noise: NoiseSpec,
    m: int,
    seed,
) -> Dataset:
    """Draw m i.i.d. pairs by `draw_dataset`, deterministic for a fixed
    seed (int, SeedSequence, or Generator)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return draw_dataset(model, target, noise, m, rng)


def draw_inputs(m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m i.i.d. inputs, uniform on [0, 2 pi), from ``rng``: the first
    draw `draw_dataset` takes, so a statistic of the inputs alone (the
    operator tail test's) sees the same xs as a whole Dataset drawn from
    the same stream."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return rng.uniform(0.0, PERIOD, size=m)


def draw_dataset(
    model: MercerModel,
    target: TargetFunction,
    noise: NoiseSpec,
    m: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw m i.i.d. pairs from ``rng``: uniform inputs, outputs from the noise model.

    The inputs (`draw_inputs`), then the noise (normals, or one uniform
    per sample for the two-point measure, inverted through the cumulative
    atom weights) are drawn whole. The samples are then walked in
    `MercerModel.basis_chunks`: each chunk's table gives its target
    values, its outputs and its share of the `SampleMoments` the Dataset
    carries, and is dropped. Below N samples the one chunk is the whole
    table, from which the Dataset carries the model's `Features`
    Phi = B diag(sqrt t) for the dense Gram path, built in one pass; from
    N on nothing m-sized but the samples is allocated.
    """
    xs = draw_inputs(m, rng)
    d = model.output_dim
    if noise.kind == "two_point":
        draws = rng.random((m, 1))
    elif noise.sigma != 0:
        draws = noise.sigma * rng.standard_normal((m, d))
    ys = np.empty((m, d))
    sums = MomentSums(model.n_trunc, d)
    for rows, chunk in model.basis_chunks(xs):
        f_vals = target.evaluate(xs[rows], table=chunk)
        if noise.kind == "two_point":
            atoms, weights = two_point_weights(f_vals, noise.amplitude, d)
            pick = (draws[rows] > np.cumsum(weights, axis=1)).sum(axis=1)
            ys[rows] = atoms[np.minimum(pick, 2 * d - 1)]
        elif noise.sigma == 0:
            ys[rows] = f_vals
        else:
            np.add(f_vals, draws[rows], out=ys[rows])
        sums.add(chunk, ys[rows])
    features = model._features_of(chunk) if m < model.n_trunc else None
    return Dataset(xs=xs, ys=ys, features=features, moments=sums.moments(m))
