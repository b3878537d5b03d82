"""Every traced function runs on the workloads mapped to it.

The workloads run here at small sizes: which functions they reach does
not depend on size, as long as the sweep's sample sizes straddle N.
A renamed function makes `Tracer.install` raise; one that is still
defined but no longer called shows as a zero below.
"""

import json
from pathlib import Path

import pytest

import run
import spans
import workloads

ALL = {"sweep", "tail", "lowerbound"}
FIT = {"sweep", "lowerbound"}
EXPECTED_ON = {
    "mercer.trigonometric_basis": ALL,
    "mercer.build_model": ALL,
    "mercer.sample_dataset": {"sweep", "tail"},
    "mercer.TargetFunction.evaluate": ALL,
    "mercer.MercerModel.scalar_kernel": FIT,
    "gram.assemble_gram": FIT,
    "gram.eigendecompose": FIT,
    "gram.mercer_gram_eigen": {"sweep"},
    "filters.SpectralFilter.values": FIT,
    "estimator.fit": FIT,
    "estimator.basis_coefficients": FIT,
    "estimator.error_norms": {"sweep"},
    "rates.choose_lambda": ALL,
    "concentration.tail_test": {"tail"},
    "concentration.sample_error_stat": {"tail"},
    "concentration.operator_deviation": {"tail"},
    "lower_bounds.build_packing": {"lowerbound"},
    "lower_bounds.adversarial_family": {"lowerbound"},
    "lower_bounds.empirical_fano_check": {"lowerbound"},
    "lower_bounds.TwoPointMeasure.sample": {"lowerbound"},
    "lower_bounds.kl_divergence": {"lowerbound"},
    "harness.rate_sweep": {"sweep"},
    "harness.write_outputs": {"sweep"},
}

SMALL = {
    "sweep": workloads.Sweep(
        {
            "model": {"b": 2, "N_trunc": 32},
            "phi": {"kind": "holder", "r": 0.5},
            "m_grid": [16, 32, 64, 128],
            "replicates": 2,
        }
    ),
    "tail": workloads.Tail(n_trunc=16, m=64, replicates=100),
    "lowerbound": workloads.LowerBound(argv=("--b", "2", "--n-trunc", "64", "--m", "16", "--trials", "4")),
}


def test_mapping_covers_every_traced_function():
    assert set(EXPECTED_ON) == set(spans.traced_names())


def test_workload_names_agree():
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES) == set(SMALL) == ALL


@pytest.mark.parametrize("name", sorted(ALL))
def test_traced_calls_match_mapping(name, tmp_path):
    workload = SMALL[name]
    tracer = spans.Tracer()
    with tracer:
        inputs = workload.build(0)
        for _, op in workload.ops(inputs, 0, tmp_path):
            op()
    summary = tracer.summary()
    for layer, expected in EXPECTED_ON.items():
        calls = summary.get(f"{layer}.calls", 0)
        if name in expected:
            assert calls >= 1, f"{layer} recorded no call on {name}"
        else:
            assert calls == 0, f"{layer} recorded {calls} calls on {name}"


def test_benchmark_json_names_the_reported_metrics():
    path = Path(run.ROOT, "BENCHMARK.json")
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(f"{layer}.calls" in run.PER_LAYER or f"{layer}.self_s" in run.PER_LAYER
               for layer in spans.traced_names())


def test_refuses_seed_override(monkeypatch, capsys):
    monkeypatch.setenv(run.SEED_ENV_VAR, "7")
    assert run.main(["--workload", "tail", "--seed", "0", "--seconds", "1"]) == 2
    assert run.SEED_ENV_VAR in capsys.readouterr().err


def _references(name):
    return json.loads(run.REFERENCES.read_text(encoding="utf-8"))[name]


def test_tail_check_rejects_wrong_statistics():
    refs = _references("tail")
    expected = refs["0"]["sample_error"]
    output = {
        "seed": 0,
        "kind": "sample_error",
        "violations": expected["violations"],
        "statistic_quantiles": list(expected["statistic_quantiles"]),
        "frequency": 0.0,
        "eta": workloads.TAIL_ETA,
    }
    assert workloads.WORKLOADS["tail"].check(output, refs, None)[0]
    halved = {**output, "statistic_quantiles": [q / 2 for q in expected["statistic_quantiles"]]}
    assert not workloads.WORKLOADS["tail"].check(halved, refs, None)[0]


def test_sweep_check_rejects_a_replaced_seed():
    refs = _references("sweep")
    expected = refs["0"]
    output = {
        "seed": 0,
        "program_seed": 0,
        "overall": "PASS",
        "slopes": dict(expected["slopes"]),
        "quantiles": expected["quantiles"],
        "bundle_sha256": "",
    }
    sweep = workloads.WORKLOADS["sweep"]
    assert sweep.check(output, refs, "no such BLAS")[0]
    assert not sweep.check({**output, "program_seed": 1}, refs, "no such BLAS")[0]
