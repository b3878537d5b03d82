"""Tests for experiment configuration, sweeps, and report outputs."""

import hashlib
import json

import numpy as np
import pytest

from ratelab import gram, harness
from ratelab._lapack import lapack
from ratelab.errors import ConfigError, TruncationError
from ratelab.gram import Dataset
from ratelab.harness import (
    DEFAULT_M_GRID,
    ExperimentConfig,
    fit_slope,
    load_config,
    quantiles,
    rate_sweep,
    write_outputs,
)

MINI = {
    "model": {"b": 2.0, "N_trunc": 64},
    "phi": {"kind": "holder", "r": 0.5},
    "m_grid": [16, 32, 64, 128],
    "replicates": 4,
}


@pytest.mark.parametrize("eta", [0.1, 0.05, 0.2])
def test_quantiles_are_those_of_np_quantile(eta):
    """Both levels a sweep reads, 0.5 and 1 - eta, bit for bit against
    np.quantile, for n = 2..64 replicates of positive values spread over
    decades, as error norms are, and a NaN gives NaN there too."""
    rng = np.random.default_rng(int(100 * eta))
    levels = (0.5, 1.0 - eta)
    for n in range(2, 65):
        for _ in range(20):
            values = rng.lognormal(size=n) * 10.0 ** rng.integers(-8, 2)
            want = [float(np.quantile(values, q)) for q in levels]
            assert quantiles(values, levels) == want, n
    nan = np.array([1.0, np.nan, 2.0])
    assert np.isnan(quantiles(nan, levels)).all() and np.isnan(np.quantile(nan, levels)).all()


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}})
        as_dict = cfg.as_dict()
        assert as_dict["m_grid"] == list(DEFAULT_M_GRID)
        assert as_dict["replicates"] == 16
        assert as_dict["eta"] == 0.1
        assert as_dict["seed"] == 0
        assert as_dict["rule"] == "psi"
        assert as_dict["noise"] == {"kind": "gaussian", "sigma": 0.5}
        assert as_dict["model"]["N_trunc"] == 512
        assert as_dict["source"] == {"kind": "power", "s": 1.0, "R": 1.0}

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("RATE_LAB_SEED", "99")
        cfg = ExperimentConfig.from_dict({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}})
        assert cfg.seed == 99

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"phi": {"kind": "holder", "r": 0.5}}, "model.b"),
            ({"model": {"b": 2.0}}, "phi"),
            ({"model": {"b": 2.0, "zzz": 1}, "phi": {"kind": "holder", "r": 0.5}}, "model.zzz"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "m_grid": [64, 32]}, "m_grid"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "bogus": 1}, "bogus"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "replicates": 1}, "replicates"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "eta": 1.5}, "eta"),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "filter": {"id": "landweber", "tua": 0.5}},
                "filter.tua",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "m_grid": [32, 64, 64, 128]},
                "m_grid",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "noise": {"kind": "gaussian", "sgima": 0.05}},
                "noise.sgima",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "noise": {"kind": "two_point", "L": 2.0, "sigma": 0.1}},
                "noise.sigma",
            ),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5, "p": 1.0}}, "phi.p"),
            ({"model": {"b": 2.0}, "phi": {"kind": "log", "p": 0.5, "nu": 1.0, "r": 1.0}}, "phi.r"),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "product", "factors": [
                    {"kind": "holder", "r": 0.5}, {"kind": "log", "p": 0.25, "nu": 0.5, "mu": 1}
                ]}},
                "phi.factors.1.mu",
            ),
            ({"model": {"b": 2.0}, "phi": {"kind": "sobolev", "s": 1.0}}, "phi.kind"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder"}}, "phi.r"),
            ({"model": {"b": 2.0}, "phi": {"kind": "product", "factors": 3}}, "phi.factors"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "rule": "bogus"}, "rule"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "filter": "landweber"}, "filter"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "source": "power"}, "source"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "filter": {"id": "ridge"}}, "filter.id"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "filter": {"tau": 0.5}}, "filter.id"),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "filter": {"id": "iterated_tikhonov", "nu": "two"}},
                "filter.nu",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "filter": {"id": "landweber", "tau": None}},
                "filter.tau",
            ),
            ({"model": {"b": "x"}, "phi": {"kind": "holder", "r": 0.5}}, "model.b"),
            ({"model": {"b": 2.0, "N_trunc": "x"}, "phi": {"kind": "holder", "r": 0.5}}, "model.N_trunc"),
            ({"model": {"b": 2.0, "alpha": [1]}, "phi": {"kind": "holder", "r": 0.5}}, "model.alpha"),
            ({"model": {"b": 2.0, "d": "one"}, "phi": {"kind": "holder", "r": 0.5}}, "model.d"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": "half"}}, "phi.r"),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "product", "factors": [
                    {"kind": "holder", "r": 0.5}, {"kind": "log", "p": 0.25, "nu": "x"}
                ]}},
                "phi.factors.1.nu",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "source": {"kind": "power", "s": "steep"}},
                "source.s",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "noise": {"kind": "gaussian", "sigma": "x"}},
                "noise.sigma",
            ),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "m_grid": [32, "x"]}, "m_grid"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "m_grid": 64}, "m_grid"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "replicates": "many"}, "replicates"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "replicates": float("inf")}, "replicates"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "eta": "x"}, "eta"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "seed": "x"}, "seed"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "slope_tolerance": "x"}, "slope_tolerance"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "seed": None}, "seed"),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "noise": {"kind": "gaussian", "sigma": [1]}},
                "noise",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "noise": {"kind": "two_point", "L": None}},
                "noise",
            ),
            (
                {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5},
                 "noise": {"kind": "two_point"}},
                "noise.L",
            ),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "rule": "holder_psi_closed"}, "rule"),
            ({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "rule": "holder_theta_closed"}, "rule"),
        ],
    )
    def test_rejects_bad_payloads(self, payload, key):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(payload)
        assert err.value.key == key

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"model": {"b": 2.0, "N_trunc": 64.9}}, "model.N_trunc"),
            ({"m_grid": [32.7, 64, 128, 256]}, "m_grid"),
            ({"replicates": 2.9}, "replicates"),
            ({"model": {"b": 2.0, "d": 2.5}}, "model.d"),
            ({"seed": 1.5}, "seed"),
            ({"filter": {"id": "iterated_tikhonov", "nu": 2.5}}, "filter.nu"),
            ({"model": {"b": float("nan")}}, "model.b"),
            ({"phi": {"kind": "holder", "r": float("nan")}}, "phi.r"),
            ({"model": {"b": float("inf")}}, "model.b"),
            ({"slope_tolerance": float("nan")}, "slope_tolerance"),
            ({"noise": {"kind": "gaussian", "sigma": float("nan")}}, "noise.sigma"),
            ({"noise": {"kind": "two_point", "L": float("inf")}}, "noise.L"),
            ({"m_grid": [32, 64, float("nan"), 256]}, "m_grid"),
            ({"slope_tolerance": 0}, "slope_tolerance"),
            ({"slope_tolerance": -0.1}, "slope_tolerance"),
        ],
    )
    def test_rejects_non_finite_and_non_integral_numbers(self, change, key):
        """A number is refused, never truncated to an int or carried as NaN or
        infinity; a slope tolerance must be positive, since none at or below 0
        lets any verdict pass."""
        payload = dict({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}}, **change)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(payload)
        assert err.value.key == key

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"id": "tikhonov", "nu": 5, "tau": 3.0}, "filter.nu"),
            ({"id": "iterated_tikhonov", "nu": 2, "tau": 0.5}, "filter.tau"),
            ({"id": "landweber", "nu": 2}, "filter.nu"),
            ({"id": "cutoff", "tau": 0.5}, "filter.tau"),
        ],
    )
    def test_rejects_filter_keys_the_kind_does_not_take(self, spec, key):
        """They were accepted, ignored by the fit and echoed in report.json."""
        payload = {"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}, "filter": spec}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(payload)
        assert err.value.key == key

    def test_integral_floats_stay_valid(self):
        cfg = ExperimentConfig.from_dict({
            "model": {"b": 2.0, "N_trunc": 64.0, "d": 2.0},
            "phi": {"kind": "holder", "r": 0.5},
            "filter": {"id": "iterated_tikhonov", "nu": 3.0},
            "m_grid": [32.0, 64, 128.0, 256],
            "replicates": 4.0,
            "seed": 7.0,
        })
        assert (cfg.n_trunc, cfg.output_dim, cfg.replicates, cfg.seed) == (64, 2, 4, 7)
        assert cfg.m_grid == (32, 64, 128, 256)
        assert all(type(m) is int for m in cfg.m_grid)

    @pytest.mark.parametrize("value", ["1.5", "nan", "inf"])
    def test_non_integral_seed_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("RATE_LAB_SEED", value)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}})
        assert err.value.key == "RATE_LAB_SEED"

    def test_non_numeric_seed_env_rejected(self, monkeypatch):
        monkeypatch.setenv("RATE_LAB_SEED", "abc")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"model": {"b": 2.0}, "phi": {"kind": "holder", "r": 0.5}})
        assert err.value.key == "RATE_LAB_SEED"

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MINI))
        cfg = load_config(path)
        assert cfg.m_grid == (16, 32, 64, 128)


class TestFitSlope:
    def test_exact_power_law(self):
        ms = np.array([32, 64, 128, 256])
        fitted = fit_slope(ms, 3.0 * ms**-0.5)
        assert fitted.slope == pytest.approx(-0.5, abs=1e-12)
        assert fitted.stderr == pytest.approx(0.0, abs=1e-10)
        assert fitted.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_needs_four_points(self):
        ms = np.array([32, 64, 128])
        with pytest.raises(ConfigError):
            fit_slope(ms, 3.0 * ms**-0.5)


class TestRateSweep:
    def test_mini_sweep_structure(self):
        result = rate_sweep(ExperimentConfig.from_dict(MINI))
        assert len(result.rows) == 4
        assert set(result.slopes) == {"l2", "rkhs"}
        assert result.overall in {"PASS", "FAIL"}
        for row in result.rows:
            assert row.q50_l2 <= row.q90_l2
            assert row.q50_rkhs <= row.q90_rkhs
            assert row.lam > 0

    def test_gate_blocks_heavy_tails(self):
        """A slowly decaying source with few modes cannot pass the gate."""
        config = ExperimentConfig.from_dict(
            {
                "model": {"b": 1.5, "N_trunc": 8},
                "phi": {"kind": "holder", "r": 0.0},
                "source": {"kind": "power", "s": 0.2},
                "replicates": 2,
            }
        )
        with pytest.raises(TruncationError) as err:
            rate_sweep(config)
        assert err.value.required_n_trunc is not None
        assert err.value.required_n_trunc > 8

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        first = write_outputs(rate_sweep(ExperimentConfig.from_dict(MINI)), tmp_path / "a")
        second = write_outputs(rate_sweep(ExperimentConfig.from_dict(MINI)), tmp_path / "b")
        for key in ("sweep", "curve", "report"):
            digest_a = hashlib.sha256(first[key].read_bytes()).hexdigest()
            digest_b = hashlib.sha256(second[key].read_bytes()).hexdigest()
            assert digest_a == digest_b

    def test_report_contents(self, tmp_path):
        files = write_outputs(rate_sweep(ExperimentConfig.from_dict(MINI)), tmp_path / "out")
        report = json.loads(files["report"].read_text())
        assert sorted(report) == [
            "config", "gate", "health", "margins", "overall", "slopes", "trace_tail_bound"
        ]
        for health in report["health"].values():
            assert sorted(health) == ["lambda_clipped", "max_clamped", "max_dropped"]
        assert report["config"]["model"]["b"] == 2.0
        assert report["gate"]["fraction"] <= 0.01
        header = files["sweep"].read_text().splitlines()[0]
        assert header == "m,lambda,norm,q50,q90,margin"
        curve_header = files["curve"].read_text().splitlines()[0]
        assert curve_header == "m,norm,fit"

    def test_health_reports_clipped_lambda(self, tmp_path):
        """At m = 1 the psi schedule leaves its range and lambda is clipped."""
        config = ExperimentConfig.from_dict(dict(MINI, m_grid=[1, 32, 64, 128]))
        files = write_outputs(rate_sweep(config), tmp_path / "out")
        health = json.loads(files["report"].read_text())["health"]
        assert sorted(health, key=int) == ["1", "32", "64", "128"]
        assert health["1"]["lambda_clipped"] is True
        assert [health[m]["lambda_clipped"] for m in ("32", "64", "128")] == [False] * 3

    def test_health_reports_largest_clamp_per_size(self, monkeypatch, tmp_path):
        """On a cutoff sweep, which reads eigenpairs, the tridiagonal eigensolve
        reports the k-th decomposition's bottom as -k 1e-14 times its top, so
        every fit clamps a different, nonzero amount, silently."""
        clamps = {}
        injected = []
        real_fit = harness.fit
        real_dstevd = gram.lapack.dstevd

        def negative_end(*args, **kwargs):
            vals, vectors, info = real_dstevd(*args, **kwargs)
            injected.append((len(injected) + 1) * 1e-14 * vals.max())
            vals = vals.copy()
            vals[np.argmin(vals)] = -injected[-1]
            return vals, vectors, info

        monkeypatch.setattr("ratelab.gram.lapack.dstevd", negative_end)

        def recording_fit(data, *args, **kwargs):
            fitted = real_fit(data, *args, **kwargs)
            clamps.setdefault(data.m, []).append(fitted.clamped)
            return fitted

        monkeypatch.setattr("ratelab.harness.fit", recording_fit)
        config = ExperimentConfig.from_dict(dict(MINI, filter={"id": "cutoff"}))
        files = write_outputs(rate_sweep(config), tmp_path / "out")
        health = json.loads(files["report"].read_text())["health"]
        assert {int(m): h["max_clamped"] for m, h in health.items()} == {
            m: max(values) for m, values in clamps.items()
        }
        assert all(len(values) == MINI["replicates"] for values in clamps.values())
        assert [c for m in MINI["m_grid"] for c in clamps[m]] == injected
        assert all(h["max_clamped"] > 0 for h in health.values())

    def test_health_reports_most_modes_dropped_per_size(self, monkeypatch, tmp_path):
        """On a cutoff sweep, which reads eigenpairs, replicates at m = 16, 64 and 128
        draw 3 distinct inputs, so the factored path, which serves m >= N = 16,
        keeps 3 of the 16 modes; the dense path at m = 4 drops none. The count is
        read from the one tridiagonal eigensolve per fit."""
        real_sample = harness.sample_dataset
        solves = []
        real_dstevd = lapack.dstevd
        monkeypatch.setattr(lapack, "dstevd", lambda *a, **k: solves.append(1) or real_dstevd(*a, **k))

        def three_point_sample(model, target, noise, m, seed):
            data = real_sample(model, target, noise, m, seed)
            xs = np.resize([0.4, 2.0, 5.1], m)
            return Dataset(xs=xs, ys=data.ys)

        monkeypatch.setattr("ratelab.harness.sample_dataset", three_point_sample)
        config = dict(
            MINI, model={"b": 2.0, "N_trunc": 16}, m_grid=[4, 16, 64, 128], filter={"id": "cutoff"}
        )
        files = write_outputs(rate_sweep(ExperimentConfig.from_dict(config)), tmp_path / "out")
        health = json.loads(files["report"].read_text())["health"]
        assert {m: h["max_dropped"] for m, h in health.items()} == {
            "4": 0, "16": 13, "64": 13, "128": 13
        }
        assert len(solves) == 4 * MINI["replicates"]

    def test_tikhonov_sweep_reduces_nothing_and_reports_no_clamp(self, monkeypatch, tmp_path):
        """The Tikhonov fits apply a Cholesky factorization on both sides of
        m = N = 64 and read no eigenpairs, so nothing is reduced, clamped or
        dropped."""
        calls = []
        real = lapack.dsytrd
        monkeypatch.setattr(lapack, "dsytrd", lambda *a, **k: calls.append(1) or real(*a, **k))
        files = write_outputs(rate_sweep(ExperimentConfig.from_dict(MINI)), tmp_path / "out")
        health = json.loads(files["report"].read_text())["health"]
        assert calls == []
        assert {m: (h["max_clamped"], h["max_dropped"]) for m, h in health.items()} == {
            str(m): (0.0, 0) for m in MINI["m_grid"]
        }

    @pytest.mark.parametrize("kind, per_fit", [("tikhonov", 0), ("cutoff", 1)])
    def test_tridiagonal_eigensolves_only_where_a_filter_reads_eigenpairs(
        self, monkeypatch, kind, per_fit
    ):
        """Tikhonov fits by a Cholesky factorization alone, on both sides of
        m = N = 64; the cutoff reads the eigenpairs, one reduction and one
        dstevd per fit."""
        calls = []
        for name in ("dsytrd", "dstevd"):
            real = getattr(lapack, name)
            monkeypatch.setattr(
                lapack, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
            )
        rate_sweep(ExperimentConfig.from_dict(dict(MINI, filter={"id": kind})))
        fits = len(MINI["m_grid"]) * MINI["replicates"]
        assert calls.count("dsytrd") == calls.count("dstevd") == per_fit * fits

    def test_different_seed_changes_the_report(self, tmp_path):
        base = dict(MINI)
        shifted = dict(MINI, seed=1)
        first = write_outputs(rate_sweep(ExperimentConfig.from_dict(base)), tmp_path / "a")
        second = write_outputs(rate_sweep(ExperimentConfig.from_dict(shifted)), tmp_path / "b")
        assert first["sweep"].read_bytes() != second["sweep"].read_bytes()
