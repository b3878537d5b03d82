"""The benchmark's workloads: inputs from a seed, operations, output checks.

Each workload builds its inputs in `build` (the set-up the benchmark
times as ``setup_s``), lists the operations of one unit of timed work in
`ops`, and judges each operation's output in `check` against references
recorded at the commit that defined the benchmark.

Why these three: nearly all of ratelab's cost is in the Monte Carlo
loops behind its three empirical claims.

- ``sweep``: the default sweep config through `rate_sweep` and
  `write_outputs`. It uses every fitting layer on both sides of the
  m = N switch: dense m x m eigensolves for m <= 512, factored N x N
  eigensolves above.
- ``tail``: `tail_test` for both statistics at N=128, m=1024 and 500
  replicates. It is basis- and sampling-bound and never fits, so fit and
  eigensolve changes should leave it unchanged.
- ``lowerbound``: the ``lower-bound`` command at its defaults, in-process
  through `cli.main`. It is the only user of `lower_bounds` and two-point
  sampling, and fits only at m < N.

Workload seeds are the benchmark seed modulo `REFERENCE_SEEDS`, the
seeds whose outputs `make_references.py` recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import ratelab
from ratelab import cli, concentration, harness, lower_bounds, mercer, rates

REFERENCE_SEEDS = 16
SWEEP_RTOL = 1e-6  # slopes and quantiles against the reference
TAIL_RTOL = 1e-6  # quantiles of the tail statistics against the reference
PAYLOAD_RTOL = 1e-9  # floats of the lower-bound payload against the reference

# The tail workload's model, target and noise.
TAIL_B = 2.0
TAIL_R = 0.5
TAIL_SIGMA = 0.5
TAIL_ETA = 0.1
# Levels of the per-replicate statistic that `Tail.check` compares.
TAIL_STAT_LEVELS = (0.1, 0.5, 0.9, 1.0)

SWEEP_CONFIG = {"model": {"b": 2}, "phi": {"kind": "holder", "r": 0.5}}


def workload_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _close(value, expected, rtol) -> bool:
    if isinstance(expected, float) and isinstance(value, (int, float)):
        return math.isclose(value, expected, rel_tol=rtol, abs_tol=0.0)
    return value == expected


def _all_close(values, expected, rtol) -> bool:
    values, expected = list(values), list(expected)
    return len(values) == len(expected) and all(
        _close(value, want, rtol) for value, want in zip(values, expected)
    )


def bundle_sha256(paths) -> str:
    """Digest of the report bundle: file names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Sweep:
    name = "sweep"

    def __init__(self, config=SWEEP_CONFIG):
        self.config = config

    def build(self, seed):
        # rate_sweep builds its own model from the config; building one
        # here too makes setup_s show work moved into model construction.
        config = harness.ExperimentConfig.from_dict({**self.config, "seed": seed})
        model = mercer.build_model(
            b=config.model_b,
            alpha=config.model_alpha,
            beta=config.model_beta,
            spectrum_rule=config.spectrum_rule,
            d=config.output_dim,
            n_trunc=config.n_trunc,
        )
        phi = ratelab.index_from_dict(config.phi_spec, domain_max=model.kappa_sq)
        source = mercer.power_law_source(model, s=config.source_s, radius=config.source_radius)
        target = mercer.target_from_source(model, phi, source, config.source_radius)
        return {"seed": seed, "config": config, "model": model, "phi": phi, "target": target}

    def ops(self, inputs, rep, outdir):
        def sweep():
            result = harness.rate_sweep(inputs["config"])
            paths = harness.write_outputs(result, outdir)
            return {
                "seed": inputs["seed"],
                "program_seed": result.config.seed,
                "overall": result.overall,
                "slopes": {norm: s.slope for norm, s in sorted(result.slopes.items())},
                "quantiles": [
                    [row.m, row.q50_l2, row.q90_l2, row.q50_rkhs, row.q90_rkhs]
                    for row in result.rows
                ],
                "bundle_sha256": bundle_sha256(paths.values()),
            }

        return [("sweep", sweep)]

    def check(self, output, references, blas_key):
        reference = references[str(output["seed"])]
        facts = {}
        ok = output["program_seed"] == output["seed"] and output["overall"] == "PASS"
        facts["overall"] = output["overall"]
        slopes = reference["slopes"]
        ok &= output["slopes"].keys() == slopes.keys() and _all_close(
            (output["slopes"][norm] for norm in slopes), slopes.values(), SWEEP_RTOL
        )
        ok &= len(output["quantiles"]) == len(reference["quantiles"]) and all(
            _all_close(row, ref_row, SWEEP_RTOL)
            for row, ref_row in zip(output["quantiles"], reference["quantiles"])
        )
        expected = reference["bundle_sha256"].get(blas_key)
        facts["bundle_identical"] = None if expected is None else output["bundle_sha256"] == expected
        return ok, facts


class Tail:
    name = "tail"

    def __init__(self, n_trunc=128, m=1024, replicates=500):
        self.n_trunc, self.m, self.replicates = n_trunc, m, replicates

    def build(self, seed):
        model = mercer.build_model(b=TAIL_B, n_trunc=self.n_trunc)
        phi = ratelab.HolderIndex(r=TAIL_R, domain_max=model.kappa_sq)
        source = mercer.power_law_source(model, s=1.0, radius=1.0)
        target = mercer.target_from_source(model, phi, source, 1.0)
        noise = mercer.NoiseSpec("gaussian", sigma=TAIL_SIGMA)
        return {"seed": seed, "model": model, "phi": phi, "target": target, "noise": noise}

    def ops(self, inputs, rep, outdir):
        def tail(kind):
            lam = float(rates.choose_lambda("psi", inputs["phi"], TAIL_B, self.m))
            report = concentration.tail_test(
                kind,
                inputs["model"],
                inputs["target"],
                inputs["noise"],
                lam,
                self.m,
                TAIL_ETA,
                replicates=self.replicates,
                seed=inputs["seed"],
            )
            statistics = [row.statistic for row in report.rows]
            return {
                "seed": inputs["seed"],
                "kind": kind,
                "violations": sum(row.violated for row in report.rows),
                "statistic_quantiles": np.quantile(statistics, TAIL_STAT_LEVELS).tolist(),
                "frequency": report.frequency,
                "eta": report.eta,
            }

        return [(kind, lambda kind=kind: tail(kind)) for kind in concentration.TAIL_KINDS]

    def check(self, output, references, blas_key):
        expected = references[str(output["seed"])][output["kind"]]
        ok = output["violations"] == expected["violations"] and output["frequency"] <= output["eta"]
        ok &= _all_close(output["statistic_quantiles"], expected["statistic_quantiles"], TAIL_RTOL)
        return ok, {}


class LowerBound:
    name = "lowerbound"

    def __init__(self, argv=("--b", "2")):
        self.argv = list(argv)

    def build(self, seed):
        # The command builds its own lab; these are the same inputs, read
        # from the same arguments, so setup_s shows work moved into packing
        # or family construction.
        args = cli.build_parser().parse_args(["lower-bound", *self.argv, "--seed", str(seed)])
        model = mercer.build_model(
            b=args.b, alpha=args.alpha, beta=args.beta, d=args.d, n_trunc=args.n_trunc
        )
        phi = ratelab.HolderIndex(r=args.r, domain_max=model.kappa_sq)
        source = mercer.power_law_source(model, s=1.0, radius=args.radius)
        target = mercer.target_from_source(model, phi, source, args.radius)
        packing = lower_bounds.build_packing(args.ell, seed=seed)
        epsilon = lower_bounds.separation_for_code_length(model, phi, args.radius, args.ell)
        family = lower_bounds.adversarial_family(model, phi, args.radius, epsilon, packing)
        return {"seed": seed, "model": model, "phi": phi, "target": target, "family": family}

    def ops(self, inputs, rep, outdir):
        seed = workload_seed(inputs["seed"] + rep)

        def command():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["lower-bound", *self.argv, "--seed", str(seed)])
            return {"seed": seed, "exit_code": code, "payload": json.loads(out.getvalue())}

        return [(f"lower-bound --seed {seed}", command)]

    def check(self, output, references, blas_key):
        expected = references[str(output["seed"])]
        payload = output["payload"]
        ok = output["exit_code"] == 0 and set(payload) == set(expected)
        ok &= all(_close(payload[key], value, PAYLOAD_RTOL) for key, value in expected.items())
        return ok, {}


WORKLOADS = {w.name: w for w in (Sweep(), Tail(), LowerBound())}
