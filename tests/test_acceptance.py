"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints through pytest as a single pass/fail line and asserts its
own wall-clock budget, so a full `pytest tests/test_acceptance.py -v` run
doubles as the release checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from ratelab.concentration import tail_test
from ratelab.estimator import fit
from ratelab.filters import iterated_tikhonov, landweber, spectral_cutoff, tikhonov
from ratelab.gram import Dataset
from ratelab.harness import ExperimentConfig, rate_sweep, write_outputs
from ratelab.index_functions import HolderIndex, LogIndex, ProductIndex
from ratelab.lower_bounds import (
    FANO_CONSTANT,
    TwoPointMeasure,
    adversarial_family,
    amplitude_for,
    build_packing,
    fano_bound,
    kl_divergence,
    separation_for_code_length,
)
from ratelab.mercer import (
    NoiseSpec,
    approx_error_norms,
    build_model,
    power_law_source,
    target_from_source,
)
from ratelab.rates import choose_lambda, effdim_bound_check

from oracles import bayes_error, divergence_ceiling, fit_tikhonov_direct


def test_criterion_01_filter_axioms():
    """All four filters satisfy the declared inequalities on 256x256 grids."""
    start = time.monotonic()
    filters = [tikhonov(), iterated_tikhonov(2), landweber(step=1.0), spectral_cutoff()]
    for filt in filters:
        checks = filt.verify(kappa_sq=1.0)
        assert all(c.passed for c in checks), f"{filt.kind}: {[c for c in checks if not c.passed]}"
        assert len(checks) >= 4
    assert time.monotonic() - start < 5.0


def test_criterion_02_oracle_equivalence():
    """Spectral-path Tikhonov matches the direct solve to 1e-10 relative, through
    the expansion Phi^T c, under Mercer models of random N and decay b, on
    both sides of m = N."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    for index in range(20):
        m = int(rng.integers(2, 65))
        d = int(rng.integers(1, 4))
        lam = float(10.0 ** rng.uniform(-4, 0))
        model = build_model(
            b=float(rng.uniform(1.5, 4.0)), d=d, n_trunc=int(rng.integers(8, 65))
        )
        data = Dataset(
            xs=rng.uniform(0.0, 2 * np.pi, m),
            ys=rng.standard_normal((m, d)),
        )
        got = fit(data, model, tikhonov(), lam=lam).expansion
        want = fit_tikhonov_direct(data, model, lam=lam).expansion
        gap = np.linalg.norm(got - want)
        scale = np.linalg.norm(want)
        assert gap <= 1e-10 * scale, f"instance {index}: rel gap {gap / scale:.3e}"
    assert time.monotonic() - start < 5.0


def test_criterion_03_approximation_bounds():
    """Regularization-bias bounds hold with zero violations over random sources."""
    start = time.monotonic()
    default = build_model(b=2.0, n_trunc=64)
    narrow = build_model(b=2.0, alpha=0.05, beta=0.05, n_trunc=64)
    km_default = default.kappa_sq
    km_narrow = narrow.kappa_sq
    families = [
        (default, HolderIndex(0.25, domain_max=km_default)),
        (default, HolderIndex(0.5, domain_max=km_default)),
        (default, HolderIndex(0.75, domain_max=km_default)),
        (default, HolderIndex(1.0, domain_max=km_default)),
        (narrow, LogIndex(p=0.5, nu=1.0, domain_max=km_narrow)),
        (
            narrow,
            ProductIndex(
                (
                    HolderIndex(0.5, domain_max=km_narrow),
                    LogIndex(p=0.25, nu=0.5, domain_max=km_narrow),
                ),
                domain_max=km_narrow,
            ),
        ),
    ]
    rng = np.random.default_rng(0)
    seen_bounds = set()
    checks = 0
    for model, phi in families:
        lams = np.geomspace(1e-4 * model.kappa_sq, model.kappa_sq, 16)
        for _ in range(100):
            g = rng.standard_normal((model.n_trunc, 1))
            g *= rng.uniform(0.2, 1.0) / np.linalg.norm(g)
            target = target_from_source(model, phi, g, radius=1.0)
            for lam in lams:
                report = approx_error_norms(
                    model, phi, radius=1.0, lam=float(lam), target=target
                )
                for check in report.bounds:
                    assert check.passed, (phi.describe(), lam, check)
                    seen_bounds.add(check.name)
                    checks += 1
    assert checks > 0
    assert seen_bounds == {"rkhs_direct", "l2_kernel_scaled", "l2_sqrt_weighted"}
    assert time.monotonic() - start < 10.0


def test_criterion_04_effective_dimension_bounds():
    """Both effective-dimension ceilings hold on a 64-point grid for three decays."""
    start = time.monotonic()
    for b in (1.5, 2.0, 3.0):
        model = build_model(b=b, n_trunc=64)
        checks = effdim_bound_check(model, np.geomspace(1e-6, 1.0, 64))
        assert all(check.passed for check in checks), f"b={b}"
        assert len(checks) == 2 * 64
    assert time.monotonic() - start < 1.0


def test_criterion_05_parameter_rule_cross_check():
    """Numeric schedule inversion matches the power-law closed form to 1e-6."""
    start = time.monotonic()
    for b in (1.5, 2.0, 3.0):
        for r in (0.0, 0.5, 1.0):
            phi = HolderIndex(r, domain_max=1.0)
            for m in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
                numeric = choose_lambda("psi", phi, b=b, m=m).value
                closed = float(m) ** (-b / (2 * b * r + b + 1))
                assert numeric == pytest.approx(closed, rel=1e-6), (b, r, m)
    assert time.monotonic() - start < 1.0


def test_criterion_06_concentration_tails():
    """Observed violation frequency stays within eta for both statistics."""
    start = time.monotonic()
    model = build_model(b=2.0, n_trunc=128)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    target = target_from_source(model, phi, power_law_source(model), radius=1.0)
    noise = NoiseSpec(kind="gaussian", sigma=0.5)
    for kind in ("sample_error", "operator"):
        for eta in (0.05, 0.2):
            for m in (64, 256, 1024):
                lam = float(choose_lambda("psi", phi, b=2.0, m=m))
                report = tail_test(
                    kind,
                    model,
                    target,
                    noise,
                    lam=lam,
                    m=m,
                    eta=eta,
                    replicates=500,
                    seed=0,
                )
                assert report.frequency <= eta, (kind, eta, m, report.frequency)
    assert time.monotonic() - start < 180.0


def test_criterion_07_rate_slopes():
    """Median error curves recover the predicted log-log slopes at b=2, r=1/2."""
    checks = {
        "theta": {"l2": -1.0 / 3.0},
        "psi": {"l2": -0.4, "rkhs": -0.2},
    }
    for filter_id in ("tikhonov", "cutoff"):
        for rule, expected in checks.items():
            config = ExperimentConfig.from_dict(
                {
                    "model": {"b": 2.0},
                    "phi": {"kind": "holder", "r": 0.5},
                    "rule": rule,
                    "filter": {"id": filter_id},
                }
            )
            start = time.monotonic()
            result = rate_sweep(config)
            elapsed = time.monotonic() - start
            assert elapsed < 300.0, f"{filter_id}/{rule} took {elapsed:.0f}s"
            for norm, target_slope in expected.items():
                slope = result.slopes[norm].slope
                assert abs(slope - target_slope) <= 0.1, (
                    f"{filter_id}/{rule} {norm}: slope {slope:.4f} "
                    f"vs {target_slope:.4f}"
                )


def test_criterion_08_lower_bound_lab():
    """Packing, separation, divergence, and the floor prefactor are all exact."""
    start = time.monotonic()
    model = build_model(b=2.0, n_trunc=128)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    level = amplitude_for(phi, 1.0, model)
    for ell in (24, 48):
        packing = build_packing(ell)
        codes = packing.codes
        assert len(codes) >= math.exp(ell / 24.0)
        dots = codes @ codes.T
        off = dots[~np.eye(len(codes), dtype=bool)]
        assert off.max() <= ell / 2

        eps = separation_for_code_length(model, phi, 1.0, ell)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        assert family.min_separation >= eps * (1 - 1e-10)
        assert family.max_separation <= 2 * eps * (1 + 1e-10)

        measures = [TwoPointMeasure(model, member, level) for member in family.members]
        for i, first in enumerate(measures):
            for second in measures[i + 1 :]:
                ceiling = divergence_ceiling(first, second)
                assert kl_divergence(first, second) <= ceiling * (1 + 1e-9)

    cancel_eps = level * math.sqrt(15.0 / (64.0 * 1e6))
    out = fano_bound(48, m=10**6, epsilon=cancel_eps, d=1, amplitude=level)
    assert out["branch"] == "information"
    assert abs(out["value"] - math.exp(-3.0 / math.e)) <= 1e-12
    assert abs(out["value"] - FANO_CONSTANT) <= 1e-12
    assert time.monotonic() - start < 30.0


def test_criterion_09_bayes_error_monte_carlo():
    """The closed-form two-hypothesis error matches likelihood-ratio sampling."""
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    draws = 10**5
    for _ in range(5):
        dim = int(rng.integers(1, 6))
        gamma = rng.standard_normal(dim)
        ratio = float(rng.uniform(0.3, 2.0))
        sigma = float(np.linalg.norm(gamma) / ratio)
        exact = bayes_error(gamma, sigma)
        noise = rng.standard_normal((draws, dim))
        decisions = (gamma + sigma * noise) @ gamma
        frequency = float(np.mean(decisions < 0))
        stderr = math.sqrt(exact * (1 - exact) / draws)
        assert abs(frequency - exact) <= 3 * stderr, (dim, ratio, frequency, exact)
    assert time.monotonic() - start < 10.0


def test_criterion_10_determinism(tmp_path):
    """Two identically seeded runs produce byte-identical report bundles."""
    payload = {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}}
    first = write_outputs(rate_sweep(ExperimentConfig.from_dict(payload)), tmp_path / "a")
    second = write_outputs(rate_sweep(ExperimentConfig.from_dict(payload)), tmp_path / "b")
    for key in ("sweep", "curve", "report"):
        assert first[key].read_bytes() == second[key].read_bytes(), key
    report = json.loads(first["report"].read_text())
    assert report["config"]["seed"] == 0
