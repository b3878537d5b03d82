"""Command line front end.

Exit codes: 0 when the requested check passed (or nothing was checked),
1 when a check ran and failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .concentration import tail_test
from .errors import RateLabError
from .estimator import error_norms, export_coefficients, fit
from .filters import FILTER_KINDS, filter_from_dict
from .harness import load_config, rate_sweep, resolve_seed, write_outputs
from .index_functions import HolderIndex
from .lower_bounds import TwoPointMeasure, amplitude_for, empirical_fano_check, kl_divergence
from .mercer import NoiseSpec, build_model, power_law_source, sample_dataset, target_from_source
from .rates import (
    choose_lambda,
    effdim_bound_check,
    individual_lower_exponent_l2,
    individual_lower_exponent_rkhs,
    rate_exponents,
)


# kl_max of the lower-bound report covers the family's first KL_MEMBERS
# members only. From ell = 100 on the family has more (ceil(e**(ell/24))),
# and the pair count grows with the square of the members compared.
KL_MEMBERS = 64


def _add_model_args(parser: argparse.ArgumentParser):
    parser.add_argument("--b", type=float, required=True, help="eigenvalue decay exponent")
    parser.add_argument("--alpha", type=float, default=1.0, help="lower decay constant")
    parser.add_argument("--beta", type=float, default=None, help="upper decay constant")
    parser.add_argument("--d", type=int, default=1, help="output dimension")
    parser.add_argument("--n-trunc", type=int, default=512, help="number of retained modes")
    parser.add_argument("--r", type=float, default=0.5, help="smoothness exponent")
    parser.add_argument("--radius", type=float, default=1.0, help="smoothness class radius")


def _build_lab(args):
    model = build_model(
        b=args.b, alpha=args.alpha, beta=args.beta, d=args.d, n_trunc=args.n_trunc
    )
    phi = HolderIndex(r=args.r, domain_max=model.kappa_sq)
    return model, phi


def _print(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_exponents(args) -> int:
    payload = rate_exponents(args.b, args.r).as_dict()
    if args.eps is not None:
        payload["individual_l2"] = individual_lower_exponent_l2(
            args.b, args.r1, args.r2, args.eps
        )
        payload["individual_rkhs"] = individual_lower_exponent_rkhs(
            args.b, args.r1, args.r2, args.eps
        )
    _print(payload)
    return 0


def _cmd_filters(args) -> int:
    kinds = [args.filter] if args.filter else list(FILTER_KINDS)
    all_passed = True
    for kind in kinds:
        filt = filter_from_dict(
            {"id": kind, "nu": args.nu, "tau": args.tau}, kappa_sq=args.kappa_sq
        )
        report = filt.verify(kappa_sq=args.kappa_sq)
        all_passed &= report.passed
        print(f"{kind}: {'ok' if report.passed else 'FAILED'}")
        for row in report.rows:
            print(
                f"  {row.name}: attained {row.attained!r} <= allowed {row.allowed!r}"
                f" [{'ok' if row.passed else 'VIOLATED'}]"
            )
    return 0 if all_passed else 1


def _cmd_effdim(args) -> int:
    model, _ = _build_lab(args)
    lams = np.geomspace(args.lam_min, args.lam_max, args.points)
    report = effdim_bound_check(model, lams)
    for row in report.rows:
        print(
            f"lam={row.lam!r} value={row.value!r} poly={row.poly_bound!r} "
            f"crude={row.crude_bound!r} [{'ok' if row.within else 'VIOLATED'}]"
        )
    print(f"effective dimension bounds: {'ok' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def _cmd_concentration(args) -> int:
    model, phi = _build_lab(args)
    source = power_law_source(model, s=args.source_s, radius=args.radius)
    target = target_from_source(model, phi, source, args.radius)
    if args.noise == "gaussian":
        noise = NoiseSpec("gaussian", sigma=args.sigma)
    else:
        noise = NoiseSpec("two_point", amplitude=amplitude_for(phi, args.radius, model))
    lam = args.lam if args.lam else float(choose_lambda("psi", phi, args.b, args.m))
    report = tail_test(
        kind=args.kind,
        model=model,
        target=target,
        noise=noise,
        lam=lam,
        m=args.m,
        eta=args.eta,
        replicates=args.replicates,
        seed=resolve_seed(args.seed, "--seed"),
    )
    _print(
        {
            "kind": report.kind,
            "m": report.m,
            "lam": report.lam,
            "eta": report.eta,
            "bound": report.bound,
            "frequency": report.frequency,
            "passed": report.passed,
        }
    )
    return 0 if report.passed else 1


def _cmd_lower_bound(args) -> int:
    model, phi = _build_lab(args)
    seed = resolve_seed(args.seed, "--seed")
    check = empirical_fano_check(
        model,
        phi,
        args.radius,
        args.ell,
        args.m,
        trials=args.trials,
        seed=seed,
        packing_seed=seed,
    )

    level = check["amplitude"]
    measures = [
        TwoPointMeasure(model=model, target=member, amplitude=level)
        for member in check["family"].members[:KL_MEMBERS]
    ]
    kl_max = 0.0
    for i, first in enumerate(measures):
        for second in measures[i + 1 :]:
            kl_max = max(kl_max, kl_divergence(first, second).value)

    _print(
        {
            "ell": check["ell"],
            "N": check["N"],
            "separation": check["separation"],
            "kl_max": kl_max,
            "fano_bound": check["fano_bound"],
            "observed_frequency": check["observed_frequency"],
        }
    )
    return 0 if check["consistent"] else 1


def _cmd_fit(args) -> int:
    model, phi = _build_lab(args)
    source = power_law_source(model, s=args.source_s, radius=args.radius)
    target = target_from_source(model, phi, source, args.radius)
    noise = NoiseSpec("gaussian", sigma=args.sigma)
    data = sample_dataset(model, target, noise, args.m, resolve_seed(args.seed, "--seed"))
    lam_choice = choose_lambda(args.rule, phi, args.b, args.m)
    filt = filter_from_dict(
        {"id": args.filter, "nu": args.nu, "tau": args.tau}, kappa_sq=model.kappa_sq
    )
    fitted = fit(data, model, filt, lam_choice.value)
    norms = error_norms(fitted, model, target)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(export_coefficients(fitted), handle)
    _print(
        {
            "m": args.m,
            "lam": lam_choice.value,
            "lam_clipped": lam_choice.clipped,
            "filter": args.filter,
            "error_l2": norms.l2,
            "error_rkhs": norms.rkhs,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = rate_sweep(config)
    paths = write_outputs(result, args.outdir)
    for norm, slope in sorted(result.slopes.items()):
        expected = result.expected[norm]
        shown = "n/a" if expected is None else f"{-expected:.4f}"
        print(
            f"{norm}: slope {slope.slope:.4f} +- {slope.stderr:.4f} "
            f"(expected {shown}) -> {result.verdicts[norm]}"
        )
    print(f"overall: {result.overall}")
    print(f"wrote {paths['sweep']}, {paths['curve']}, {paths['report']}")
    return 1 if result.overall == "FAIL" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratelab",
        description="Spectral regularization rate laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="closed-form rate exponents")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--r1", type=float, default=0.0)
    p.add_argument("--r2", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("filters", help="verify filter constants on a grid")
    p.add_argument("--filter", choices=FILTER_KINDS, default=None)
    p.add_argument("--nu", type=int, default=3)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--kappa-sq", type=float, default=1.0)
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("effdim", help="effective dimension against its ceilings")
    _add_model_args(p)
    p.add_argument("--lam-min", type=float, default=1e-6)
    p.add_argument("--lam-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=64)
    p.set_defaults(func=_cmd_effdim)

    p = sub.add_parser("concentration", help="Monte Carlo tail-bound check")
    _add_model_args(p)
    p.add_argument("--kind", choices=("sample_error", "operator"), default="sample_error")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--noise", choices=("gaussian", "two_point"), default="gaussian")
    p.add_argument("--source-s", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser(
        "lower-bound",
        help="packing, divergence, and error floor",
        description="Build the adversarial family at code length ell, race Tikhonov against "
        "the Fano floor, and report kl_max, the largest pairwise divergence among the "
        f"family's first {KL_MEMBERS} members.",
    )
    _add_model_args(p)
    p.add_argument(
        "--ell",
        type=int,
        default=48,
        help="code length of the sign packing; the packing search grows about x6.5 per +24 "
        "(10 s at 216), so lengths above about 220 are impractical, and from 332 on refused",
    )
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("fit", help="fit one dataset and report exact errors")
    _add_model_args(p)
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--filter", choices=FILTER_KINDS, default="tikhonov")
    p.add_argument("--nu", type=int, default=3)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--rule", default="psi")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--source-s", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write fitted coefficients as JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sweep", help="full convergence-rate experiment")
    p.add_argument("--config", required=True, help="JSON experiment description")
    p.add_argument("--outdir", required=True, help="directory for the report bundle")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RateLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
