"""Record the outputs the benchmark checks against, for every workload seed.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are trusted: the benchmark then
holds every later commit to them. It rewrites every workload's entries
in ``references.json``. Sweep bundle digests are keyed by the BLAS
build and thread count, so running this on another machine adds that
machine's key beside the recorded ones.
"""

from __future__ import annotations

import json
import os
import sys

import run
import machine

os.environ.update(run.BLAS_THREAD_ENV)  # before numpy is first imported
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def reference_for(workload, seed, blas_key):
    inputs = workload.build(seed)
    outdir = run.RESULTS / f"reference-{workload.name}-seed{seed}"
    if workload.name == "lowerbound":
        return {str(seed): op()["payload"] for _, op in workload.ops(inputs, 0, outdir)}
    outputs = [op() for _, op in workload.ops(inputs, 0, outdir)]
    if workload.name == "tail":
        return {
            str(seed): {
                out["kind"]: {
                    "violations": out["violations"],
                    "statistic_quantiles": out["statistic_quantiles"],
                }
                for out in outputs
            }
        }
    (out,) = outputs
    return {
        str(seed): {
            "overall": out["overall"],
            "slopes": out["slopes"],
            "quantiles": out["quantiles"],
            "bundle_sha256": {blas_key: out["bundle_sha256"]},
        }
    }


def main() -> int:
    if run.SEED_ENV_VAR in os.environ:
        print(f"error: unset {run.SEED_ENV_VAR}", file=sys.stderr)
        return 2
    blas_key = machine.blas_key(machine.facts(run.BLAS_THREAD_ENV))
    old = json.loads(run.REFERENCES.read_text(encoding="utf-8")) if run.REFERENCES.is_file() else {}
    refs = {}
    for name in run.WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        refs[name] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            entry = reference_for(workload, seed, blas_key)
            if name == "sweep":
                for key, value in entry.items():
                    known = old.get(name, {}).get(key, {}).get("bundle_sha256", {})
                    value["bundle_sha256"] = {**known, **value["bundle_sha256"]}
            refs[name].update(entry)
            print(f"{name} seed {seed}: done", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
