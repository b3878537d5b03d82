"""Tests for the command-line entry points."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from ratelab import cli, concentration, lower_bounds, rates
from ratelab._lapack import lapack
from ratelab.cli import main
from ratelab.estimator import basis_coefficients
from ratelab.filters import SpectralFilter
from ratelab.mercer import ExpansionNorms, norms_of_expansion

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

    @pytest.mark.parametrize("filt", [[], ["--filter", "landweber"]], ids=["all", "landweber"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_kappa_sq_exits_2_naming_it(self, filt, value, capsys):
        """0 ended in a numpy traceback with exit 1, and NaN printed ok."""
        assert main(["filters", *filt, "--kappa-sq", value]) == 2
        err = capsys.readouterr().err
        assert f"error: --kappa-sq must be positive and finite, got {float(value)!r}" in err


    def test_landweber_step_defaults_to_the_kernel_bound(self, capsys):
        """A --tau default of 1.0 used to stop every kappa_sq above 1 at landweber."""
        assert main(["filters", "--kappa-sq", "2"]) == 0
        out = capsys.readouterr().out
        assert "landweber: ok" in out
        assert "VIOLATED" not in out

    def test_nu_defaults_to_the_config_default(self, capsys):
        """The CLI ran iterated Tikhonov with nu = 3, a sweep config with nu = 2."""
        assert main(["filters", "--filter", "iterated_tikhonov"]) == 0
        assert "residual_decay_order_2:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--filter", "landweber", "--nu", "3"], "--nu"),
         (["--filter", "cutoff", "--tau", "0.5"], "--tau")],
    )
    def test_a_flag_the_kind_does_not_take_exits_2_naming_it(self, argv, flag, capsys):
        """Such a flag used to be dropped without a word, and the run exited 0."""
        assert main(["filters", *argv]) == 2
        assert f"error: {flag} applies to none of the filters run" in capsys.readouterr().err

    def test_a_flag_reaches_only_the_kind_that_takes_it(self, capsys):
        assert main(["filters", "--nu", "4", "--tau", "0.5"]) == 0
        parts = re.split(r"^(\w+): ok$", capsys.readouterr().out, flags=re.M)
        blocks = dict(zip(parts[1::2], parts[2::2]))
        assert "residual_decay_order_1:" in blocks["tikhonov"]
        assert "residual_decay_order_4:" in blocks["iterated_tikhonov"]
        assert "scale_bound: attained 0.947" in blocks["landweber"]  # tau 0.5, not 1/kappa_sq


class TestEffdim:
    def test_bounds_hold_on_a_small_grid(self, capsys):
        code = main(["effdim", "--b", "2", "--n-trunc", "64", "--points", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 8

    @pytest.mark.parametrize("flag", ["--lam-min", "--lam-max"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_lam_end_exits_2_naming_it(self, flag, value, capsys):
        """0 ended in a numpy traceback with exit 1, and NaN exited 1 as VIOLATED."""
        assert main(["effdim", "--b", "2", "--n-trunc", "64", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be positive and finite, got {float(value)!r}" in err

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_no_points_exits_2_naming_it(self, points, capsys):
        """0 printed ok over zero rows, and -1 ended in a numpy traceback."""
        assert main(["effdim", "--b", "2", "--n-trunc", "64", "--points", points]) == 2
        assert f"error: --points must be >= 1, got {points}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("kind", ["sample_error", "operator"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_lam_exits_2_naming_it(self, kind, value, capsys):
        """0 was replaced by the psi-rule lambda, NaN passed with bound NaN,
        and infinity passed with bound 0."""
        argv = ["concentration", "--b", "2", "--n-trunc", "8", "--m", "32", "--replicates", "100"]
        assert main([*argv, "--kind", kind, "--lam", value]) == 2
        out, err = capsys.readouterr()
        assert f"error: --lam must be positive and finite, got {float(value)!r}" in err
        assert not out

    def test_noise_free_sample_error_exits_2_naming_the_noise(self, capsys):
        """At sigma 0 the bound is exactly 0 and the statistic round-off, so this
        printed "frequency": 1.0 and exited 1; the operator statistic still runs."""
        argv = ["concentration", "--b", "2", "--n-trunc", "16", "--m", "64", "--sigma", "0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "error: the sample_error tail test needs output noise" in err
        assert "'sigma': 0.0" in err
        assert not out
        assert main([*argv, "--kind", "operator", "--replicates", "100"]) == 0

    def test_given_lam_is_used(self, capsys):
        argv = ["concentration", "--b", "2", "--n-trunc", "8", "--m", "32", "--replicates", "100"]
        assert main([*argv, "--lam", "0.125"]) == 0
        assert json.loads(capsys.readouterr().out)["lam"] == 0.125

    @pytest.mark.parametrize("kind", ["sample_error", "operator"])
    @pytest.mark.parametrize("lam", [[], ["--lam", "0.1"]], ids=["psi-lam", "given-lam"])
    def test_no_samples_exits_2_naming_m(self, kind, lam, capsys):
        """With --lam given, m = 0 reached the bound and raised ZeroDivisionError."""
        argv = ["concentration", "--b", "2", "--n-trunc", "16", "--m", "0", "--kind", kind, *lam]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "error: m must be >= 1, got 0" in err
        assert not out


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
    @pytest.mark.parametrize(
        "argv, flag",
        [(["--filter", "tikhonov", "--nu", "5"], "--nu"),
         (["--filter", "iterated_tikhonov", "--tau", "0.5"], "--tau"),
         (["--filter", "landweber", "--nu", "2"], "--nu")],
    )
    def test_a_flag_the_kind_does_not_take_exits_2_naming_it(self, argv, flag, capsys):
        """`fit --filter tikhonov --nu 5` ran plain Tikhonov and exited 0, while
        a sweep config with the same key is refused as filter.nu."""
        assert main(["fit", *SMALL_RUNS["fit"], *argv]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} applies to none of the filters run" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("rule", ["holder_psi_closed", "holder_theta_closed"])
    def test_closed_form_rule_exits_2_naming_it(self, rule, capsys):
        """The Hoelder power laws are psi and theta in closed form, not rules."""
        assert main(["fit", *SMALL_RUNS["fit"], "--rule", rule]) == 2
        captured = capsys.readouterr()
        assert f"error: unknown lambda rule {rule!r}" in captured.err
        assert not captured.out

    def test_reports_errors_and_writes_dump(self, tmp_path, capsys):
        out_path = tmp_path / "fit.json"
        code = main(["fit", "--b", "2", "--n-trunc", "8", "--m", "32", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error_l2"] > 0
        assert payload["error_rkhs"] > 0
        dump = json.loads(out_path.read_text())
        assert sorted(dump) == ["expansion", "filter", "lam"]
        assert len(dump["expansion"]) == 8

    def test_landweber_step_above_the_spectrum_names_sigma_as_a_float(self, capsys):
        """The refusal prints sigma as a plain number, not np.float64(...)."""
        argv = ["fit", "--b", "2", "--m", "64", "--filter", "landweber", "--tau", "10"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: step 10.0 exceeds 1/sigma at sigma=1.00" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("m", [256, 1024])
    @pytest.mark.parametrize("filt", ["tikhonov", "landweber"])
    def test_out_writes_the_expansion_the_errors_are_read_from(self, tmp_path, monkeypatch,
                                                              capsys, m, filt):
        """Below N = 512 (dense) and above (feature domain): the file holds the
        fit's (N, d) expansion bit for bit, its error against the target's
        coefficients gives the printed norms exactly, and it has no inputs."""
        seen = []
        real = cli.error_norms
        monkeypatch.setattr(cli, "error_norms", lambda *a: seen.append(a) or real(*a))
        out_path = tmp_path / "fit.json"
        assert main(["fit", "--b", "2", "--m", str(m), "--filter", filt, "--out", str(out_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        (fitted, model, target), = seen
        dump = json.loads(out_path.read_text())
        assert sorted(dump) == ["expansion", "filter", "lam"]
        expansion = np.array(dump["expansion"])
        assert expansion.shape == (512, 1)
        assert np.array_equal(expansion, basis_coefficients(fitted, model))
        norms = norms_of_expansion(model, expansion - target.coefficients)
        assert (norms.l2, norms.rkhs) == (printed["error_l2"], printed["error_rkhs"])


def test_feature_domain_fit_writes_its_coefficients_without_a_reduction(tmp_path, monkeypatch, capsys):
    """At m = 1024 > N = 512 the Tikhonov fit writes its expansion with no
    tridiagonal reduction and no eigensolve."""
    calls = []
    for name in ("dsytrd", "dstevd"):
        real = getattr(lapack, name)
        monkeypatch.setattr(lapack, name, lambda *a, _f=real, **k: calls.append(1) or _f(*a, **k))
    out_path = tmp_path / "fit.json"
    assert main(["fit", "--b", "2", "--m", "1024", "--out", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["error_l2"] > 0
    assert calls == []
    assert len(json.loads(out_path.read_text())["expansion"]) == 512


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


@pytest.mark.parametrize("level", ["nan", "inf"])
@pytest.mark.parametrize("command", ["concentration", "fit"])
def test_non_finite_sigma_exits_2_naming_it(command, level, capsys):
    """NaN passed a `sigma < 0` check and failed later, as a non-finite
    dataset or a moment condition 'nan > nan' that did not name sigma;
    infinity overflowed the sample and failed as a non-finite dataset."""
    assert main([command, *SMALL_RUNS[command], "--sigma", level]) == 2
    assert f"error: sigma must be >= 0 and finite, got {level}" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["32", "1024"])
def test_fit_with_landweber_runs_at_its_default_step(m, capsys):
    """A --tau default of 1.0 exceeded 1/sigma whenever kappa_sq > 1, so this exited 2."""
    assert main(["fit", "--b", "2", "--n-trunc", "8", "--m", m, "--filter", "landweber"]) == 0
    assert json.loads(capsys.readouterr().out)["filter"] == "landweber"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", *SMALL_RUNS["fit"], "--radius", "nan"], "radius must be positive, got nan"),
        (["concentration", *SMALL_RUNS["concentration"], "--radius", "nan"],
         "radius must be positive, got nan"),
        (["fit", *SMALL_RUNS["fit"], "--source-s", "nan"], "source exponent s must be finite"),
        (["exponents", "--b", "2", "--r", "nan"], "smoothness exponent must be >= 0 and finite"),
        (["exponents", "--b", "nan", "--r", "0.5"], "decay exponent must be >= 1 and finite"),
        (["fit", *SMALL_RUNS["fit"], "--r", "inf"], "power exponent must be >= 0 and finite, got inf"),
    ],
)
def test_nan_input_exits_2_naming_it(argv, message, capsys):
    """These ended as a non-finite dataset, NaN coefficients or an AssertionError
    traceback with exit 1."""
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["effdim", "--b", "inf"], "decay exponent must be >= 1 and finite, got inf"),
        (["concentration", *SMALL_RUNS["concentration"], "--b", "inf"],
         "decay exponent must be >= 1 and finite, got inf"),
        (["fit", *SMALL_RUNS["fit"], "--alpha", "inf"],
         "need 0 < alpha <= beta < inf, got alpha=inf, beta=inf"),
        (["fit", *SMALL_RUNS["fit"], "--beta", "inf"],
         "need 0 < alpha <= beta < inf, got alpha=1.0, beta=inf"),
        (["fit", *SMALL_RUNS["fit"], "--radius", "inf"], "radius must be finite, got inf"),
        (["lower-bound", *SMALL_RUNS["lower-bound"], "--radius", "inf"],
         "radius must be finite, got inf"),
    ],
    ids=["effdim-b", "concentration-b", "fit-alpha", "fit-beta", "fit-radius", "lower-bound-radius"],
)
def test_non_finite_model_and_class_parameters_exit_2_naming_them(argv, message, capsys):
    """An infinite b printed poly=nan and exited 1 (effdim) or passed
    (concentration); an infinite alpha failed as a non-monotone index
    function; an infinite radius failed as a non-finite dataset."""
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


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
            ({"slope_tolerance": 0}, "slope_tolerance"),
            ({"slope_tolerance": -0.1}, "slope_tolerance"),
            ({"seed": None}, "seed"),
            ({"noise": {"kind": "gaussian", "sigma": [1]}}, "noise"),
            ({"noise": {"kind": "two_point", "L": None}}, "noise"),
            ({"noise": {"kind": "two_point"}}, "noise.L"),
            ({"rule": "holder_psi_closed"}, "rule"),
        ],
    )
    def test_malformed_value_exits_with_usage_error(self, change, key, tmp_path, capsys):
        """A value of the wrong type is a usage error (2), not a FAIL verdict (1)."""
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(dict(MINI_CONFIG, **change)))
        code = main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"m_grid": [True, 64, 128, 256]}, "m_grid"),
            ({"seed": True}, "seed"),
            ({"model": {"b": True, "N_trunc": 64}}, "model.b"),
            ({"model": {"b": 2.0, "N_trunc": 64, "d": True}}, "model.d"),
            ({"phi": {"kind": "holder", "r": True}}, "phi.r"),
            ({"filter": {"id": "iterated_tikhonov", "nu": True}}, "filter.nu"),
            ({"source": {"s": True}}, "source.s"),
            ({"noise": {"kind": "gaussian", "sigma": True}}, "noise.sigma"),
        ],
    )
    def test_boolean_value_exits_with_usage_error(self, change, key, tmp_path, capsys):
        """A JSON true is no number: it was read as 1, and the sweep ran."""
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(dict(MINI_CONFIG, **change)))
        code = main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert f"config key '{key}': need a number, got True" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"model": {"b": "2", "N_trunc": 64}}, "model.b"),
            ({"model": {"b": 2.0, "N_trunc": "64"}}, "model.N_trunc"),
            ({"phi": {"kind": "holder", "r": "0.5"}}, "phi.r"),
            ({"m_grid": ["16", "32", "64", "128"]}, "m_grid"),
            ({"replicates": "4"}, "replicates"),
            ({"seed": "3"}, "seed"),
            ({"eta": "0.1"}, "eta"),
            ({"filter": {"id": "iterated_tikhonov", "nu": "2"}}, "filter.nu"),
            ({"noise": {"kind": "gaussian", "sigma": "0.5"}}, "noise.sigma"),
        ],
    )
    def test_numeric_string_exits_with_usage_error(self, change, key, tmp_path, capsys):
        """A JSON string is no number, even one that spells it: "2" was read as 2,
        the sweep ran, and report.json echoed "r": "0.5"."""
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(dict(MINI_CONFIG, **change)))
        code = main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert re.search(f"config key '{key}': need a number, got '[0-9.]+'", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_with_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "absent.json"), "--outdir", str(tmp_path / "o")])
        assert code == 2


class TestFailedCheckExits1:
    """Each checking command exits 1, and prints its failure marker, when a check fails."""

    def test_filters(self, monkeypatch, capsys):
        declared = SpectralFilter.constants
        monkeypatch.setattr(
            SpectralFilter,
            "constants",
            lambda self: dataclasses.replace(declared(self), operator_bound=0.5),
        )
        assert main(["filters", "--filter", "tikhonov"]) == 1
        out = capsys.readouterr().out
        assert "tikhonov: FAILED" in out
        assert re.search(r"operator_bound: attained \S+ <= allowed 0\.5 \[VIOLATED\]", out)

    def test_effdim(self, monkeypatch, capsys):
        monkeypatch.setattr(rates, "effective_dimension", lambda *args: math.inf)
        assert main(["effdim", "--b", "2", "--n-trunc", "64", "--points", "4"]) == 1
        out = capsys.readouterr().out
        assert out.count("[VIOLATED]") == 4
        assert "effective dimension bounds: FAILED" in out

    def test_concentration(self, monkeypatch, capsys):
        monkeypatch.setattr(concentration, "operator_deviation_bound", lambda *args: 0.0)
        argv = ["--b", "2", "--n-trunc", "16", "--m", "64", "--replicates", "100"]
        assert main(["concentration", *argv, "--kind", "operator"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["frequency"] == 1.0

    def test_lower_bound(self, monkeypatch, capsys):
        """Every trial patched to land on its truth: observed 0 under a floor near 0.88.
        kl_max is patched too, since the divergence ceiling reads the same norms."""
        monkeypatch.setattr(lower_bounds, "norms_of_expansion", lambda *args: ExpansionNorms(0.0, 0.0))
        monkeypatch.setattr(cli, "kl_divergence", lambda first, second: 0.0)
        assert main(["lower-bound", "--b", "2", "--n-trunc", "64", "--trials", "20"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["observed_frequency"] == 0.0
        assert payload["fano_bound"] > 0.5

    def test_sweep(self, tmp_path, capsys):
        config_path = tmp_path / "tight.json"
        config_path.write_text(json.dumps(dict(MINI_CONFIG, slope_tolerance=1e-6)))
        code = main(["sweep", "--config", str(config_path), "--outdir", str(tmp_path / "o")])
        assert code == 1
        out = capsys.readouterr().out
        assert "-> FAIL" in out
        assert "overall: FAIL" in out
