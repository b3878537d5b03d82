"""Tests for experiment configuration, sweeps, and report outputs."""

import hashlib
import json

import numpy as np
import pytest

from ratelab.errors import ConfigError, TruncationError
from ratelab.harness import (
    DEFAULT_M_GRID,
    ExperimentConfig,
    fit_slope,
    load_config,
    rate_sweep,
    write_outputs,
)

MINI = {
    "model": {"b": 2.0, "N_trunc": 64},
    "phi": {"kind": "holder", "r": 0.5},
    "m_grid": [16, 32, 64, 128],
    "replicates": 4,
}


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
        ],
    )
    def test_rejects_bad_payloads(self, payload, key):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(payload)
        assert err.value.key == key

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
        assert sorted(report) == ["config", "gate", "margins", "overall", "slopes", "trace_tail_bound"]
        assert report["config"]["model"]["b"] == 2.0
        assert report["gate"]["fraction"] <= 0.01
        header = files["sweep"].read_text().splitlines()[0]
        assert header == "m,lambda,norm,q50,q90,margin"
        curve_header = files["curve"].read_text().splitlines()[0]
        assert curve_header == "m,norm,fit"

    def test_different_seed_changes_the_report(self, tmp_path):
        base = dict(MINI)
        shifted = dict(MINI, seed=1)
        first = write_outputs(rate_sweep(ExperimentConfig.from_dict(base)), tmp_path / "a")
        second = write_outputs(rate_sweep(ExperimentConfig.from_dict(shifted)), tmp_path / "b")
        assert first["sweep"].read_bytes() != second["sweep"].read_bytes()
