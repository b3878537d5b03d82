"""Tests for the command-line entry points."""

import json

import pytest

from ratelab.cli import main

MINI_CONFIG = {
    "model": {"b": 2.0, "N_trunc": 64},
    "phi": {"kind": "holder", "r": 0.5},
    "m_grid": [16, 32, 64, 128],
    "replicates": 4,
}


class TestExponents:
    def test_prints_rate_table(self, capsys):
        assert main(["exponents", "--b", "2", "--r", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rkhs_upper"] == pytest.approx(0.2)
        assert payload["l2_upper_psi"] == pytest.approx(0.4)

    def test_individual_exponents_included_when_requested(self, capsys):
        code = main(["exponents", "--b", "2", "--r", "0.5", "--r1", "0", "--r2", "0.5", "--eps", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["individual_l2"] == pytest.approx(4.1 / 3.1)
        assert payload["individual_rkhs"] == pytest.approx(2.1 / 3.1)


class TestFilters:
    @pytest.mark.parametrize("name", ["tikhonov", "iterated_tikhonov", "landweber", "cutoff"])
    def test_each_filter_verifies(self, name, capsys):
        assert main(["filters", "--filter", name]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "VIOLATED" not in out


class TestEffdim:
    def test_bounds_hold_on_a_small_grid(self, capsys):
        code = main(["effdim", "--b", "2", "--n-trunc", "64", "--points", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 8


class TestConcentration:
    def test_quick_tail_check(self, capsys):
        code = main(
            [
                "concentration",
                "--b", "2",
                "--n-trunc", "8",
                "--m", "64",
                "--replicates", "100",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["frequency"] <= payload["eta"]

    def test_small_sigma_certifies_and_runs(self, capsys):
        code = main(
            [
                "concentration",
                "--b", "2",
                "--n-trunc", "8",
                "--m", "32",
                "--replicates", "100",
                "--sigma", "0.3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True


class TestLowerBound:
    def test_report_field_names(self, capsys):
        code = main(
            [
                "lower-bound",
                "--b", "2",
                "--n-trunc", "128",
                "--ell", "24",
                "--m", "64",
                "--trials", "40",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "N",
            "ell",
            "fano_bound",
            "kl_max",
            "observed_frequency",
            "separation",
        ]
        assert payload["N"] == 3

    @pytest.mark.parametrize(
        "argv, ell",
        [(["--b", "2", "--ell", "28"], 28), (["--b", "1.1", "--r", "0"], 48)],
        ids=["b2-ell28", "b1.1-r0"],
    )
    def test_feasible_lengths_run(self, argv, ell, capsys):
        # here the separation inverts to just below ell, which flooring took to ell - 1
        assert main(["lower-bound", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["ell"] == ell

    @pytest.mark.parametrize(
        "flag, value", [("--radius", "-1"), ("--radius", "0"), ("--radius", "nan"), ("--m", "0")]
    )
    def test_bad_value_names_its_flag(self, flag, value, capsys):
        assert main(["lower-bound", "--b", "2", flag, value]) == 2
        assert f"error: {flag[2:]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [(["--ell", "400"], "code length 400"), (["--r", "nan"], "power exponent")],
        ids=["ell400", "r-nan"],
    )
    def test_impossible_settings_exit_2(self, argv, message, capsys):
        assert main(["lower-bound", "--b", "2", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_builds_packing_and_family_once(self, monkeypatch, capsys):
        from ratelab import cli, lower_bounds

        calls = {"build_packing": 0, "adversarial_family": 0}
        for name in calls:
            original = getattr(lower_bounds, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (lower_bounds, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        argv = ["lower-bound", "--b", "2", "--n-trunc", "64", "--ell", "24", "--m", "16",
                "--trials", "4"]
        assert main(argv) == 0
        assert calls == {"build_packing": 1, "adversarial_family": 1}
        assert sorted(json.loads(capsys.readouterr().out)) == [
            "N", "ell", "fano_bound", "kl_max", "observed_frequency", "separation"
        ]


class TestFit:
    def test_reports_errors_and_writes_dump(self, tmp_path, capsys):
        out_path = tmp_path / "fit.json"
        code = main(["fit", "--b", "2", "--n-trunc", "8", "--m", "32", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error_l2"] > 0
        assert payload["error_rkhs"] > 0
        dump = json.loads(out_path.read_text())
        assert sorted(dump) == ["coefficients", "filter", "lam", "xs"]
        assert len(dump["xs"]) == 32


SMALL_RUNS = {
    "lower-bound": ["--b", "2", "--n-trunc", "64", "--ell", "24", "--m", "16", "--trials", "4"],
    "fit": ["--b", "2", "--n-trunc", "8", "--m", "32"],
    "concentration": ["--b", "2", "--n-trunc", "8", "--m", "32", "--replicates", "100"],
}


class TestSeed:
    """A seed numpy cannot take is a usage error (2) that names it, on every command."""

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_negative_seed_flag_exits_2(self, command, capsys):
        assert main([command, *SMALL_RUNS[command], "--seed", "-1"]) == 2
        assert "'--seed': need a nonnegative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_seed_environment_exits_2(self, command, value, monkeypatch, capsys):
        monkeypatch.setenv("RATE_LAB_SEED", value)
        assert main([command, *SMALL_RUNS[command]]) == 2
        assert "config key 'RATE_LAB_SEED'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2.5, "x"])
    def test_bad_config_seed_exits_2(self, seed, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(MINI_CONFIG, seed=seed)))
        assert main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")]) == 2
        assert "config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_environment_overrides_the_flag(self, monkeypatch, capsys):
        argv = ["fit", *SMALL_RUNS["fit"]]
        main([*argv, "--seed", "7"])
        want = capsys.readouterr().out
        monkeypatch.setenv("RATE_LAB_SEED", "7")
        main([*argv, "--seed", "0"])
        assert capsys.readouterr().out == want


class TestSweep:
    def test_writes_report_bundle(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(MINI_CONFIG))
        outdir = tmp_path / "out"
        code = main(["sweep", "--config", str(config_path), "--outdir", str(outdir)])
        assert code in (0, 1)
        assert sorted(p.name for p in outdir.iterdir()) == ["curve.csv", "report.json", "sweep.csv"]
        out = capsys.readouterr().out
        assert "overall:" in out

    def test_reruns_are_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(MINI_CONFIG))
        main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "a")])
        main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "b")])
        for name in ("sweep.csv", "curve.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_env_changes_the_outputs(self, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(MINI_CONFIG))
        main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "a")])
        monkeypatch.setenv("RATE_LAB_SEED", "7")
        main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "b")])
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["config"]["seed"] == 7
        assert (tmp_path / "a" / "sweep.csv").read_bytes() != (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_invalid_config_exits_with_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"phi": {"kind": "holder", "r": 0.5}}))
        code = main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert "model.b" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"replicates": "many"}, "replicates"),
            ({"model": {"b": 2.0, "N_trunc": "x"}}, "model.N_trunc"),
            ({"filter": "landweber"}, "filter"),
            ({"filter": {"id": "ridge"}}, "filter.id"),
            ({"model": {"b": 2.0, "N_trunc": 64.9}}, "model.N_trunc"),
            ({"slope_tolerance": float("nan")}, "slope_tolerance"),
        ],
    )
    def test_malformed_value_exits_with_usage_error(self, change, key, tmp_path, capsys):
        """A value of the wrong type is a usage error (2), not a FAIL verdict (1)."""
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(dict(MINI_CONFIG, **change)))
        code = main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_missing_config_file_exits_with_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "absent.json"), "--outdir", str(tmp_path / "o")])
        assert code == 2
