"""ratelab benchmark: one workload per fresh process, CPU time as the main clock.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

A run imports ratelab from ``src/`` beside this directory, times
`SETUP_SAMPLES` set-ups in fresh processes, then repeats one unit of timed
work (a sweep; the pair of tail tests; one lower-bound command) until
``--seconds`` have passed, at least once. Every operation's output is
checked against ``references.json``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs each workload in its own process
and prints every metric by name and unit, with ``failed_frac``.

With ``--trace 0`` the metrics are end to end (`END_TO_END`):

- ``setup_s``: median CPU seconds to import ratelab and build the
  workload's inputs (`setup_sample.py`).
- ``run_cpu_s``: median process CPU seconds of one unit of timed work.
- ``peak_rss_mib``: peak resident memory of the process.

The run also prints, and keeps in its result file, ``wall_s``: median
wall seconds of one set-up plus those of one unit, which is what a user
waits for. It is not a metric of the result line: on a shared machine
other tenants' load moves it by more than any bound a comparison could
use, so CPU time is the clock that later changes are judged on.

With ``--trace 1`` the same timed phase runs, then one more build and
unit run with every function in `spans.TRACED` wrapped, and the metrics
are per layer (`PER_LAYER`): calls, self CPU seconds and computed work
counts per function, and ``trace.overhead_frac``, the traced unit's CPU
seconds over the untraced first unit's, minus 1.

BLAS is pinned to one thread before numpy loads: at two threads the
sweep burns nearly twice the CPU for no wall-time gain, and its report
bundle comes out byte-different. Each run writes a result file with the
machine facts under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import machine

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCES = BENCH_DIR / "references.json"

WORKLOAD_NAMES = ("sweep", "tail", "lowerbound")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 900
SEED_ENV_VAR = "RATE_LAB_SEED"
BLAS_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "run_cpu_s": "s", "peak_rss_mib": "MiB"}

_CALLS_AND_SELF = ("calls", "self_s")
_LAYERS = {
    "mercer.trigonometric_basis": ("calls", "self_s", "cells"),
    "mercer.build_model": ("self_s",),
    "mercer.sample_dataset": _CALLS_AND_SELF,
    "mercer.TargetFunction.evaluate": _CALLS_AND_SELF,
    "mercer.MercerModel.scalar_kernel": _CALLS_AND_SELF,
    "gram.assemble_gram": _CALLS_AND_SELF,
    "gram.eigendecompose": ("calls", "self_s", "n3"),
    "gram.mercer_gram_eigen": ("calls", "self_s", "n3"),
    "filters.SpectralFilter.values": _CALLS_AND_SELF,
    "estimator.fit": _CALLS_AND_SELF,
    "estimator.basis_coefficients": _CALLS_AND_SELF,
    "estimator.error_norms": _CALLS_AND_SELF,
    "rates.choose_lambda": _CALLS_AND_SELF,
    "concentration.tail_test": ("self_s",),
    "concentration.sample_error_stat": _CALLS_AND_SELF,
    "concentration.operator_deviation": _CALLS_AND_SELF,
    "lower_bounds.build_packing": ("self_s",),
    "lower_bounds.adversarial_family": ("self_s",),
    "lower_bounds.empirical_fano_check": ("self_s",),
    "lower_bounds.TwoPointMeasure.sample": _CALLS_AND_SELF,
    "lower_bounds.kl_divergence": _CALLS_AND_SELF,
    "harness.rate_sweep": ("self_s",),
    "harness.write_outputs": ("self_s",),
}
# Work counts are computed from array shapes, not measured; the unit says so.
_UNITS = {"calls": "count", "self_s": "s", "cells": "computed_count", "n3": "computed_count"}
PER_LAYER = {
    f"{layer}.{stat}": _UNITS[stat] for layer, stats in _LAYERS.items() for stat in stats
}
PER_LAYER["trace.overhead_frac"] = "ratio"


def timed(func, *args):
    """(result, cpu seconds, wall seconds) of one call."""
    cpu, wall = time.process_time(), time.perf_counter()
    result = func(*args)
    return result, time.process_time() - cpu, time.perf_counter() - wall


def setup_sample(name, seed):
    """CPU and wall seconds of one import and input build, in a fresh process."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_sample.py"), name, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(workload, inputs, rep, outdir):
    """Run one unit of work; an operation that raises is recorded, not fatal."""
    outcomes = []
    for name, op in workload.ops(inputs, rep, outdir):
        try:
            outcomes.append({"op": name, "output": op()})
        except Exception:  # noqa: BLE001 - any failure of the program counts as failed
            outcomes.append({"op": name, "error": traceback.format_exc()})
    return outcomes


def check_outcomes(workload, outcomes, references, blas_key):
    """Mark each outcome ok or not; returns the number that failed."""
    failed = 0
    for outcome in outcomes:
        if "error" not in outcome:
            try:
                ok, facts = workload.check(outcome["output"], references, blas_key)
            except (KeyError, TypeError, ValueError) as exc:
                ok, facts = False, {"check_error": repr(exc)}
            outcome.update(ok=ok, **facts)
        else:
            outcome["ok"] = False
        failed += not outcome["ok"]
    return failed


def measure(args):
    """Run one workload in this process; returns (result line, record)."""
    ticks_start = machine.cpu_ticks()
    sys.path.insert(0, str(SRC))
    import ratelab

    if not Path(ratelab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported ratelab from {ratelab.__file__}, not from {SRC}")

    import spans
    import workloads

    facts = machine.facts(BLAS_THREAD_ENV)
    blas_key = machine.blas_key(facts)
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))[args.workload]
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.workload_seed(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = RESULTS / stem / "bundle"

    # Set-up is reported only untraced; the traced run's metrics are per layer.
    setups = [] if args.trace else [setup_sample(args.workload, seed) for _ in range(SETUP_SAMPLES)]
    inputs = workload.build(seed)

    outcomes, units = [], []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < args.seconds:
        done, cpu, wall = timed(run_ops, workload, inputs, len(units), outdir)
        outcomes += done
        units.append({"cpu_s": cpu, "wall_s": wall})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {}
    if args.trace:
        tracer = spans.Tracer()
        with tracer:
            traced_inputs = workload.build(seed)
            done, traced_cpu, _ = timed(run_ops, workload, traced_inputs, 0, outdir)
        outcomes += done
        summary = tracer.summary()
        summary["trace.overhead_frac"] = traced_cpu / units[0]["cpu_s"] - 1.0
        metrics = {name: summary.get(name, 0) for name in PER_LAYER}
        metric_units = PER_LAYER
        spans_path = RESULTS / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        median = statistics.median
        metrics = {
            "setup_s": median(s["cpu_s"] for s in setups),
            "run_cpu_s": median(u["cpu_s"] for u in units),
            "peak_rss_mib": peak_rss_mib,
        }
        metric_units = END_TO_END
        record["wall_s"] = median(s["wall_s"] for s in setups) + median(u["wall_s"] for u in units)

    failed = check_outcomes(workload, outcomes, references, blas_key)
    identical = [o["bundle_identical"] for o in outcomes if "bundle_identical" in o]
    facts["cpu_steal_share"] = machine.steal_share(ticks_start, machine.cpu_ticks())
    record.update(
        workload=args.workload,
        seed=args.seed,
        workload_seed=seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=facts,
        blas_key=blas_key,
        setups=setups,
        units=units,
        failed_frac=failed / len(outcomes),
        bundle_identical=(None if not identical or None in identical else all(identical)),
        outcomes=outcomes,
        metrics=metrics,
    )
    line = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]} for name, value in metrics.items()},
    }
    return line, record


def run_one(args) -> int:
    if not (SRC / "ratelab" / "__init__.py").is_file():
        print(f"error: no ratelab package under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREAD_ENV)  # before numpy is first imported
    RESULTS.mkdir(parents=True, exist_ok=True)
    line, record = measure(args)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"result file: {result_path.relative_to(ROOT)}")
    if "wall_s" in record:
        print(f"wall_s: {record['wall_s']!r} s")
    print(f"failed_frac: {record['failed_frac']!r} ratio ({line['failed']}/{line['attempted']})")
    print(f"bundle_identical: {json.dumps(record['bundle_identical'])}")
    print(f"cpu_steal_share: {record['machine']['cpu_steal_share']!r}")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric by name and unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(f"== {name}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for text in lines[:-1]:
            print(text)
        for metric, entry in result["metrics"].items():
            print(f"{metric}: {entry['value']!r} {entry['unit']}")
        status |= not result["correct"]
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if SEED_ENV_VAR in os.environ:
        # ratelab lets it override the config and command-line seeds silently.
        print(f"error: unset {SEED_ENV_VAR}; the benchmark passes its seed explicitly", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
