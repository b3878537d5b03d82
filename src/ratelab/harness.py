"""Convergence-rate experiments: config, sweep, slope fit, and reports.

A sweep draws replicated datasets over a geometric grid of sample
sizes, fits with the configured filter at the scheduled regularization
level, and records exact error quantiles per norm. Log-log slopes of
the medians are then compared against the closed-form exponents, when
the smoothness profile has them. The report also carries each size's
numerical health: whether lambda was clipped into its admissible range,
the largest negative eigenvalue any replicate's fit clamped, and the
most feature modes any replicate's fit dropped, both read from the one
tridiagonal spectrum (dstevd) of the decomposition whose eigenpairs it
applied (`estimator.FittedEstimator`). A fit by Cholesky factorization, the
Tikhonov family's, applies none and clamps and drops nothing.

Output files are byte-deterministic for a fixed config and seed: floats
are written with repr (shortest round trip) and JSON keys are sorted.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, TruncationError
from .estimator import error_norms, fit
from .filters import FILTER_KINDS, FILTER_PARAMS, filter_from_dict
from .index_functions import HolderIndex, IndexFunction, index_from_dict
from .mercer import (
    MercerModel,
    NoiseSpec,
    approx_error_norms,
    noise_from_dict,
    build_model,
    power_law_source,
    sample_dataset,
    target_from_source,
)
from .rates import LAMBDA_RULES, check_theorem_condition, choose_lambda, rate_exponents

SEED_ENV_VAR = "RATE_LAB_SEED"
DEFAULT_M_GRID = tuple(2**k for k in range(5, 13))
GATE_FRACTION = 0.01
GATE_EXTENSION = 64

_MODEL_KEYS = {"b", "alpha", "beta", "N_trunc", "d", "spectrum_rule"}
_SOURCE_KEYS = {"kind", "s", "R"}
_NOISE_KEYS = {"gaussian": {"kind", "sigma"}, "two_point": {"kind", "L"}}
_PHI_KEYS = {"holder": {"kind", "r"}, "log": {"kind", "p", "nu"}, "product": {"kind", "factors"}}
_TOP_KEYS = {
    "model",
    "phi",
    "source",
    "noise",
    "filter",
    "rule",
    "m_grid",
    "replicates",
    "eta",
    "seed",
    "slope_tolerance",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully defaulted description of one rate sweep."""

    model_b: float
    model_alpha: float
    model_beta: float
    n_trunc: int
    output_dim: int
    spectrum_rule: str
    phi_spec: dict
    source_s: float
    source_radius: float
    noise: NoiseSpec
    filter_spec: dict
    rule: str
    m_grid: tuple
    replicates: int
    eta: float
    seed: int
    slope_tolerance: float

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", f"expected a mapping, got {type(raw).__name__}")
        for key in raw:
            if key not in _TOP_KEYS:
                raise ConfigError(key, "unknown key")

        model = raw.get("model")
        if not isinstance(model, dict) or "b" not in model:
            raise ConfigError("model.b", "required")
        _check_keys(model, _MODEL_KEYS, "model")
        alpha = _number(model, "alpha", 1.0, "model")
        beta = _number(model, "beta", alpha, "model")

        if "phi" not in raw:
            raise ConfigError("phi", "required")
        phi_spec = raw["phi"]
        _check_phi_keys(phi_spec, "phi")

        source = _section(raw, "source", {})
        _check_keys(source, _SOURCE_KEYS, "source")
        if source.get("kind", "power") != "power":
            raise ConfigError("source.kind", f"unknown source kind {source['kind']!r}")

        filter_spec = _section(raw, "filter", {"id": "tikhonov"})
        if filter_spec.get("id") not in FILTER_KINDS:
            raise ConfigError(
                "filter.id", f"need one of {FILTER_KINDS}, got {filter_spec.get('id')!r}"
            )
        params = FILTER_PARAMS[filter_spec["id"]]
        _check_keys(filter_spec, {"id", *params}, "filter")
        for key in filter_spec.keys() & params.keys():
            _number(filter_spec, key, None, "filter", params[key])

        noise_spec = raw.get("noise", {"kind": "gaussian", "sigma": 0.5})
        # a NaN or infinite level, or a boolean, is refused by name before
        # NoiseSpec's range check; any other non-number is left to noise_from_dict
        for key, value in noise_spec.items() if isinstance(noise_spec, dict) else ():
            if isinstance(value, (float, bool)):
                _convert(value, f"noise.{key}")
        try:
            noise = noise_from_dict(noise_spec)
        except KeyError as exc:
            raise ConfigError(f"noise.{exc.args[0]}", "required") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError("noise", str(exc)) from None
        _check_keys(noise_spec, _NOISE_KEYS[noise.kind], "noise")

        rule = raw.get("rule", "psi")
        if rule not in LAMBDA_RULES:
            raise ConfigError("rule", f"unknown rule {rule!r}; expected one of {LAMBDA_RULES}")
        sizes = raw.get("m_grid", DEFAULT_M_GRID)
        if not isinstance(sizes, (list, tuple)):
            raise ConfigError("m_grid", f"need a list of sizes, got {sizes!r}")
        m_grid = tuple(_convert(m, "m_grid", int) for m in sizes)
        if not m_grid or m_grid[0] < 1 or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
            raise ConfigError("m_grid", f"need strictly increasing positive sizes, got {m_grid}")
        replicates = _number(raw, "replicates", 16, kind=int)
        if replicates < 2:
            raise ConfigError("replicates", f"need >= 2, got {replicates}")
        eta = _number(raw, "eta", 0.1)
        if not 0 < eta < 1:
            raise ConfigError("eta", f"need a level in (0, 1), got {eta}")
        seed = resolve_seed(raw.get("seed", 0))
        tolerance = _number(raw, "slope_tolerance", 0.1)
        if not tolerance > 0:
            raise ConfigError("slope_tolerance", f"need a positive tolerance, got {tolerance}")

        return cls(
            model_b=_number(model, "b", None, "model"),
            model_alpha=alpha,
            model_beta=beta,
            n_trunc=_number(model, "N_trunc", 512, "model", int),
            output_dim=_number(model, "d", 1, "model", int),
            spectrum_rule=model.get("spectrum_rule", "lower"),
            phi_spec=dict(phi_spec),
            source_s=_number(source, "s", 1.0, "source"),
            source_radius=_number(source, "R", 1.0, "source"),
            noise=noise,
            filter_spec=dict(filter_spec),
            rule=rule,
            m_grid=m_grid,
            replicates=replicates,
            eta=eta,
            seed=seed,
            slope_tolerance=tolerance,
        )

    def as_dict(self) -> dict:
        return {
            "model": {
                "b": self.model_b,
                "alpha": self.model_alpha,
                "beta": self.model_beta,
                "N_trunc": self.n_trunc,
                "d": self.output_dim,
                "spectrum_rule": self.spectrum_rule,
            },
            "phi": self.phi_spec,
            "source": {"kind": "power", "s": self.source_s, "R": self.source_radius},
            "noise": self.noise.describe(),
            "filter": self.filter_spec,
            "rule": self.rule,
            "m_grid": list(self.m_grid),
            "replicates": self.replicates,
            "eta": self.eta,
            "seed": self.seed,
            "slope_tolerance": self.slope_tolerance,
        }


def _section(raw: dict, name: str, default: dict) -> dict:
    """The object ``raw[name]``, or ``default`` when it is absent."""
    spec = raw.get(name, default)
    if not isinstance(spec, dict):
        raise ConfigError(name, f"need an object, got {spec!r}")
    return spec


def resolve_seed(seed, key: str = "seed") -> int:
    """The run's seed: ``seed``, named ``key`` where it came from, or
    RATE_LAB_SEED when that is set. Both are checked, and each is refused
    by name unless it is a nonnegative integer, the only seeds numpy takes."""
    env = os.environ.get(SEED_ENV_VAR)
    for value, name in [(seed, key)] + ([] if env is None else [(env, SEED_ENV_VAR)]):
        resolved = _convert(value, name, int)
        if resolved < 0:
            raise ConfigError(name, f"need a nonnegative integer, got {resolved}")
    return resolved


def _number(spec, key: str, default, section: str = "", kind=float):
    """``spec[key]``, or ``default`` when it is absent, converted by ``kind``."""
    return _convert(spec.get(key, default), f"{section}.{key}" if section else key, kind)


def _convert(value, name: str, kind=float):
    """``value`` converted by ``kind``, refused unless finite and, for int, integral.

    A float such as 64.0 is a valid int; 64.9 is refused, not truncated,
    and NaN or infinity is refused for either kind, as is a JSON boolean.
    """
    if isinstance(value, bool):
        raise ConfigError(name, f"need a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(name, f"need an integer, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(name, f"need a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(name, f"need a finite number, got {value!r}")
    return number


def _check_keys(spec, allowed, section: str):
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{section}.{key}", "unknown key")


def _check_phi_keys(spec, section: str):
    """Require a phi object, and each product factor, to have exactly its kind's keys."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{section}.kind", "required")
    keys = _PHI_KEYS.get(spec["kind"])
    if keys is None:
        raise ConfigError(f"{section}.kind", f"unknown kind {spec['kind']!r}")
    _check_keys(spec, keys, section)
    missing = sorted(keys - spec.keys())
    if missing:
        raise ConfigError(f"{section}.{missing[0]}", "required")
    for key in keys - {"kind", "factors"}:
        _number(spec, key, None, section)
    if spec["kind"] == "product":
        if not isinstance(spec["factors"], list):
            raise ConfigError(f"{section}.factors", "need a list of phi objects")
        for i, factor in enumerate(spec["factors"]):
            _check_phi_keys(factor, f"{section}.factors.{i}")


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return ExperimentConfig.from_dict(json.load(handle))


@dataclass(frozen=True)
class SweepRow:
    m: int
    lam: float
    margin: float
    q50_l2: float
    q90_l2: float
    q50_rkhs: float
    q90_rkhs: float
    lam_clipped: bool  # choose_lambda clipped lam into its admissible range
    max_clamped: float  # largest negative eigenvalue magnitude clamped in any replicate
    max_dropped: int  # most rank-deficient modes dropped in any replicate


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    points: int


def fit_slope(ms, values) -> SlopeFit:
    """Least-squares slope of log(value) against log(m), with its stderr."""
    ms = np.asarray(ms, dtype=float)
    values = np.asarray(values, dtype=float)
    if ms.shape[0] < 4:
        raise ConfigError("m_grid", f"slope fit needs >= 4 sizes, got {ms.shape[0]}")
    x = np.log(ms)
    y = np.log(values)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    dof = x.shape[0] - 2
    var = float(resid @ resid) / dof if dof > 0 else 0.0
    spread = float(np.sum((x - x.mean()) ** 2))
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        stderr=math.sqrt(var / spread) if spread > 0 else math.inf,
        points=int(x.shape[0]),
    )


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple
    slopes: dict  # norm -> SlopeFit
    expected: dict  # norm -> exponent or None
    verdicts: dict  # norm -> "PASS" | "FAIL" | "UNCHECKED"
    gate: dict
    trace_tail: float

    @property
    def overall(self) -> str:
        checked = [v for v in self.verdicts.values() if v != "UNCHECKED"]
        if not checked:
            return "UNCHECKED"
        return "PASS" if all(v == "PASS" for v in checked) else "FAIL"


def _truncation_gate(
    config: ExperimentConfig, model: MercerModel, phi: IndexFunction, target
) -> dict:
    """Refuse sweeps whose truncation visibly distorts the ideal problem.

    The idealized (untruncated) target extends the power-law source past
    the truncation; the squared mass that extension discards must stay
    under 1% of the squared bias at the smallest scheduled lam, in both
    norms. The eigenvalue extension uses the upper decay envelope, which
    can only overstate the discarded mass.
    """
    n_ext = GATE_EXTENSION * model.n_trunc
    ns = np.arange(1, n_ext + 1, dtype=float)
    profile_sq = ns ** (-2.0 * config.source_s)
    profile_sq *= config.source_radius**2 / profile_sq.sum()
    t_ext = np.minimum(config.model_beta * ns ** (-config.model_b), phi.domain_max)
    weight_rkhs = phi.value(t_ext) ** 2 * profile_sq
    weight_l2 = t_ext * weight_rkhs

    lam_min = float(
        choose_lambda(config.rule, phi, config.model_b, config.m_grid[-1])
    )
    bias = approx_error_norms(
        model, phi, config.source_radius, lam_min, target=target
    )
    bias_sq_l2 = bias.l2_error**2
    bias_sq_rkhs = bias.rkhs_error**2

    n = model.n_trunc
    tail_sq_l2 = float(weight_l2[n:].sum())
    tail_sq_rkhs = float(weight_rkhs[n:].sum())
    gate = {
        "tail_sq_l2": tail_sq_l2,
        "tail_sq_rkhs": tail_sq_rkhs,
        "bias_sq_l2": bias_sq_l2,
        "bias_sq_rkhs": bias_sq_rkhs,
        "fraction": GATE_FRACTION,
    }
    if tail_sq_l2 < GATE_FRACTION * bias_sq_l2 and tail_sq_rkhs < GATE_FRACTION * bias_sq_rkhs:
        return gate

    suffix_l2 = np.cumsum(weight_l2[::-1])[::-1]
    suffix_rkhs = np.cumsum(weight_rkhs[::-1])[::-1]
    good = (suffix_l2 < GATE_FRACTION * bias_sq_l2) & (
        suffix_rkhs < GATE_FRACTION * bias_sq_rkhs
    )
    required = int(np.argmax(good)) if good.any() else n_ext
    raise TruncationError(
        f"truncation at {n} modes discards squared mass "
        f"(l2 {tail_sq_l2:.3e}, rkhs {tail_sq_rkhs:.3e}) above {GATE_FRACTION:.0%} "
        f"of the squared bias (l2 {bias_sq_l2:.3e}, rkhs {bias_sq_rkhs:.3e}) "
        f"at lam={lam_min:.3e}; about {required} modes would suffice",
        required_n_trunc=required,
    )


def _expected_exponents(config: ExperimentConfig, phi: IndexFunction) -> dict:
    if not isinstance(phi, HolderIndex):
        return {"l2": None, "rkhs": None}
    exps = rate_exponents(config.model_b, phi.r)
    if config.rule == "psi":
        return {"l2": exps.l2_upper_psi, "rkhs": exps.rkhs_upper}
    return {"l2": exps.l2_upper_theta, "rkhs": None}


def quantiles(values: np.ndarray, levels) -> list:
    """np.quantile(values, q) for each q in ``levels``, bit for bit, from one
    sort and without the numpy.ma import np.quantile makes under numpy 2.

    numpy's default linear rule: h = (n - 1) q, i = floor(h), t = h - i and,
    for the sorted values a and b at i and min(i + 1, n - 1),
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5. A NaN gives NaN.
    """
    ordered, out = np.sort(values), []
    for q in levels:
        h = (len(ordered) - 1) * q
        i = math.floor(h)
        a, b, t = float(ordered[i]), float(ordered[min(i + 1, len(ordered) - 1)]), h - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return [math.nan] * len(levels) if math.isnan(ordered[-1]) else out


def rate_sweep(config: ExperimentConfig) -> SweepResult:
    """Run one full convergence experiment and judge the observed slopes."""
    model = build_model(
        b=config.model_b,
        alpha=config.model_alpha,
        beta=config.model_beta,
        spectrum_rule=config.spectrum_rule,
        d=config.output_dim,
        n_trunc=config.n_trunc,
    )
    phi = index_from_dict(config.phi_spec, domain_max=model.kappa_sq)
    filt = filter_from_dict(config.filter_spec, kappa_sq=model.kappa_sq)
    source = power_law_source(model, s=config.source_s, radius=config.source_radius)
    target = target_from_source(model, phi, source, config.source_radius)
    gate = _truncation_gate(config, model, phi, target)

    rows = []
    for m in config.m_grid:
        lam = choose_lambda(config.rule, phi, config.model_b, m)
        margin = check_theorem_condition(
            m, lam.value, math.sqrt(model.kappa_sq), config.eta
        )["margin"]
        errs_l2 = np.empty(config.replicates)
        errs_rkhs = np.empty(config.replicates)
        max_clamped = 0.0
        max_dropped = 0
        for rep in range(config.replicates):
            data = sample_dataset(
                model,
                target,
                config.noise,
                m,
                np.random.SeedSequence([config.seed, m, rep]),
            )
            fitted = fit(data, model, filt, lam.value)
            norms = error_norms(fitted, model, target)
            errs_l2[rep] = norms.l2
            errs_rkhs[rep] = norms.rkhs
            max_clamped = max(max_clamped, fitted.clamped)
            max_dropped = max(max_dropped, fitted.dropped)
            # free this replicate's data and fit before the next one is drawn
            del data, fitted
        levels = (0.5, 1.0 - config.eta)
        q50_l2, q90_l2 = quantiles(errs_l2, levels)
        q50_rkhs, q90_rkhs = quantiles(errs_rkhs, levels)
        rows.append(
            SweepRow(
                m=m,
                lam=lam.value,
                margin=margin,
                q50_l2=q50_l2,
                q90_l2=q90_l2,
                q50_rkhs=q50_rkhs,
                q90_rkhs=q90_rkhs,
                lam_clipped=lam.clipped,
                max_clamped=max_clamped,
                max_dropped=max_dropped,
            )
        )

    ms = [row.m for row in rows]
    slopes = {
        "l2": fit_slope(ms, [row.q50_l2 for row in rows]),
        "rkhs": fit_slope(ms, [row.q50_rkhs for row in rows]),
    }
    expected = _expected_exponents(config, phi)
    verdicts = {}
    for norm, exponent in expected.items():
        if exponent is None:
            verdicts[norm] = "UNCHECKED"
            continue
        close = abs(slopes[norm].slope + exponent) <= config.slope_tolerance
        tight = slopes[norm].stderr <= config.slope_tolerance / 2.0
        verdicts[norm] = "PASS" if close and tight else "FAIL"

    return SweepResult(
        config=config,
        rows=tuple(rows),
        slopes=slopes,
        expected=expected,
        verdicts=verdicts,
        gate=gate,
        trace_tail=model.trace_tail_bound(),
    )


def write_outputs(result: SweepResult, outdir) -> dict:
    """Write sweep.csv, curve.csv, and report.json; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    sweep_path = outdir / "sweep.csv"
    lines = ["m,lambda,norm,q50,q90,margin"]
    for row in result.rows:
        for norm, q50, q90 in (
            ("l2", row.q50_l2, row.q90_l2),
            ("rkhs", row.q50_rkhs, row.q90_rkhs),
        ):
            lines.append(
                f"{row.m},{row.lam!r},{norm},{q50!r},{q90!r},{row.margin!r}"
            )
    sweep_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    curve_path = outdir / "curve.csv"
    lines = ["m,norm,fit"]
    for row in result.rows:
        for norm in ("l2", "rkhs"):
            fit_val = math.exp(
                result.slopes[norm].intercept + result.slopes[norm].slope * math.log(row.m)
            )
            lines.append(f"{row.m},{norm},{fit_val!r}")
    curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report_path = outdir / "report.json"
    report = {
        "config": result.config.as_dict(),
        "gate": result.gate,
        "trace_tail_bound": result.trace_tail,
        "margins": {str(row.m): row.margin for row in result.rows},
        "health": {
            str(row.m): {
                "lambda_clipped": row.lam_clipped,
                "max_clamped": row.max_clamped,
                "max_dropped": row.max_dropped,
            }
            for row in result.rows
        },
        "slopes": {
            norm: {
                "slope": s.slope,
                "intercept": s.intercept,
                "stderr": s.stderr,
                "points": s.points,
                "expected_exponent": result.expected[norm],
                "verdict": result.verdicts[norm],
            }
            for norm, s in result.slopes.items()
        },
        "overall": result.overall,
    }
    report_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {"sweep": sweep_path, "curve": curve_path, "report": report_path}
