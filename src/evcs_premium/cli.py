"""Command-line front end.

Subcommands mirror the pipeline stages: smp, dlmp, premium-analytic,
premium-robust, premium-trilevel, sweep, run-case. Input files are
optional almost everywhere; whatever is omitted falls back to the
built-in synthetic fixtures so every subcommand runs out of the box.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dataio
from .analytic import closed_form_premium
from .cvar import robust_premium_bilevel
from .dcopf import HOURS, evcs_tariff_cents, per_day_dlmps
from .fixtures import PUBLISHED_SOJOURN, default_policy, \
    default_risk_config, manhattan7, published_embedded_stationary, \
    reference_smp_model, typical_days
from .pipeline import CaseConfig, ReportBundle, _analytic_doc, _quote_doc, \
    run_case
from .smp import STATES, attack_probability, relative_box, run_chain
from .trilevel import ccg_solve, demand_scaling_sweep, \
    solve_trilevel_direct


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v != "")


def _str_list(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _days_from(args):
    return (dataio.load_typical_days(args.days) if args.days
            else typical_days())


def _network_from(args):
    return (dataio.load_network(args.network) if args.network
            else manhattan7())


def _tariff_from(args, network, days):
    if args.tariff:
        tariff, ids = dataio.load_tariff(args.tariff)
        if ids is not None and ids != tuple(days.day_ids):
            raise dataio.DataError(
                f"tariff days {ids} do not match demand days "
                f"{tuple(days.day_ids)}")
        return tariff
    return evcs_tariff_cents(network, per_day_dlmps(network, days))


def _risk_from(args):
    if getattr(args, "policy_box", None):
        return dataio.load_risk_config(args.policy_box, alpha=args.alpha,
                                       bound_mode=args.bound)
    return default_risk_config(alpha=args.alpha, bound_mode=args.bound)


def _write_doc(out, name, doc, label="charging price"):
    """name.json from doc, whose charging prices go to lambda_c.csv."""
    price = doc.pop("charging_price_cents_per_kwh")
    dataio._write_json(os.path.join(out, f"{name}.json"), doc)
    dataio.write_charging_price(os.path.join(out, "lambda_c.csv"), price,
                                label)
    return doc


def _cmd_smp(args):
    model = (dataio.load_transitions(args.transitions) if args.transitions
             else reference_smp_model())
    chain, result = run_chain(model)
    published = attack_probability(published_embedded_stationary(),
                                   PUBLISHED_SOJOURN)
    box = relative_box(published.p_attack, args.epsilon)
    doc = {
        "states": list(STATES),
        "kernel_at_infinity": chain.kernel_inf.tolist(),
        "embedded_stationary": chain.stationary.tolist(),
        "sojourn_hours": result.sojourn.tolist(),
        "steady_state": result.steady_state.tolist(),
        "p_attack": result.p_attack,
        "published_p_attack": published.p_attack,
        "confidence_box": {"lower": box.lower, "upper": box.upper},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    os.makedirs(args.out, exist_ok=True)
    dataio._write_json(os.path.join(args.out, "smp.json"), doc)
    dataio.write_smp(os.path.join(args.out, "smp.csv"), result)
    return 0


def _cmd_dlmp(args):
    network = _network_from(args)
    days = _days_from(args)
    results = per_day_dlmps(network, days)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dlmp.csv")
    dataio.write_dlmp(path, network, results)
    dataio.write_tariff(os.path.join(args.out, "tariff.csv"),
                        evcs_tariff_cents(network, results),
                        day_ids=days.day_ids)
    print(f"wrote {path} and tariff.csv "
          f"({len(days.day_ids)} days x {HOURS} hours x "
          f"{len(network.buses)} buses)")
    return 0


def _cmd_premium_analytic(args):
    days = _days_from(args)
    network = _network_from(args)
    tariff = _tariff_from(args, network, days)
    policy = (dataio.load_policy(args.policy) if args.policy
              else default_policy())
    solution = closed_form_premium(policy, days, tariff)
    os.makedirs(args.out, exist_ok=True)
    doc = _write_doc(args.out, "analytic", _analytic_doc(solution),
                     "closed-form charging price")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_premium_robust(args):
    days = _days_from(args)
    network = _network_from(args)
    tariff = _tariff_from(args, network, days)
    config = _risk_from(args)
    quote = robust_premium_bilevel(days, config, tariff)
    os.makedirs(args.out, exist_ok=True)
    doc = _write_doc(args.out, "premium_quote", _quote_doc(quote))
    report_path = os.path.join(args.out, "kkt_report.txt")
    with open(report_path, "w") as fh:
        fh.write("# optimality residuals of the final price program "
                 "(scale-normalized, dimensionless)\n")
        from .cvar import kkt_report
        rep = kkt_report(quote.solution, days, quote.per_kwh, config,
                         tariff)
        for fam in sorted(rep.families):
            fh.write(f"{fam},{rep.families[fam]!r}\n")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_premium_trilevel(args):
    days = _days_from(args)
    network = _network_from(args)
    config = _risk_from(args)
    solver = ccg_solve if args.mode == "ccg" else solve_trilevel_direct
    result = solver(network, days, config)
    os.makedirs(args.out, exist_ok=True)
    extra = {"mode": result.mode,
             "max_duality_gap": float(np.max(result.duality_gaps))}
    if result.ccg_trace:
        extra["ccg_iterations"] = len(result.ccg_trace)
        extra["ccg_bounds"] = [
            {"iteration": s.iteration, "lower": s.lower_bound,
             "upper": s.upper_bound} for s in result.ccg_trace]
    doc = _write_doc(args.out, "trilevel_quote",
                     {**_quote_doc(result.quote), **extra})
    dataio.write_tariff(os.path.join(args.out, "tariff.csv"),
                        result.tariff_cents, day_ids=days.day_ids)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args):
    days = _days_from(args)
    network = _network_from(args)
    config = _risk_from(args)
    rows = demand_scaling_sweep(network, days, config,
                                scales=args.scales, alphas=args.alphas,
                                bounds=args.bounds)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    dataio.write_sweep(path, rows)
    flagged = [r for r in rows if not r.feasible]
    print(f"wrote {path} ({len(rows)} cells, {len(flagged)} infeasible)")
    for r in flagged:
        print(f"  flagged scale={r.scale:g} alpha={r.alpha:g} "
              f"bound={r.bound}: {r.note}", file=sys.stderr)
    return 0


def _cmd_run_case(args):
    config = CaseConfig(out_dir=args.out, network_path=args.network,
                        days_path=args.days,
                        transitions_path=args.transitions,
                        policy_path=args.policy,
                        policy_box_path=args.policy_box,
                        alphas=args.alphas, bounds=args.bounds,
                        scales=args.scales)
    bundle = run_case(config)
    print(f"case complete: {len(bundle.outputs)} outputs in {args.out}")
    for name in sorted(bundle.outputs):
        print(f"  {name}: {bundle.outputs[name]}")
    if bundle.discrepancies:
        print(f"{len(bundle.discrepancies)} discrepancy notes recorded "
              f"(see discrepancies.txt)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evcs-premium",
        description="Cyber-insurance premium engine for EV charging "
                    "stations")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smp", help="attack-chain probabilities")
    p.add_argument("--transitions", help="transition JSON")
    p.add_argument("--epsilon", type=float, default=0.10,
                   help="relative half-width of the confidence box")
    p.set_defaults(func=_cmd_smp)

    p = sub.add_parser("dlmp", help="per-day locational prices")
    p.add_argument("--network", help="network JSON")
    p.add_argument("--days", help="typical-days CSV")
    p.set_defaults(func=_cmd_dlmp)

    p = sub.add_parser("premium-analytic", help="closed-form premium")
    p.add_argument("--policy", help="policy JSON")
    p.add_argument("--days", help="typical-days CSV")
    p.add_argument("--tariff", help="tariff CSV")
    p.add_argument("--network",
                   help="network JSON (tariff source when --tariff "
                        "is omitted)")
    p.set_defaults(func=_cmd_premium_analytic)

    p = sub.add_parser("premium-robust", help="risk-averse premium")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--bound", default="expected",
                   choices=("lower", "expected", "upper"))
    p.add_argument("--policy-box", dest="policy_box",
                   help="policy-box JSON")
    p.add_argument("--days", help="typical-days CSV")
    p.add_argument("--tariff", help="tariff CSV")
    p.add_argument("--network",
                   help="network JSON (tariff source when --tariff "
                        "is omitted)")
    p.set_defaults(func=_cmd_premium_robust)

    p = sub.add_parser("premium-trilevel", help="tri-level premium")
    p.add_argument("--network", help="network JSON")
    p.add_argument("--days", help="typical-days CSV")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--bound", default="expected",
                   choices=("lower", "expected", "upper"))
    p.add_argument("--mode", default="direct", choices=("ccg", "direct"))
    p.add_argument("--policy-box", dest="policy_box",
                   help="policy-box JSON")
    p.set_defaults(func=_cmd_premium_trilevel)

    p = sub.add_parser("sweep", help="demand-scaling premium grid")
    p.add_argument("--scales", type=_float_list,
                   default=(1, 100, 400, 800, 1000))
    p.add_argument("--alphas", type=_float_list, default=(1.0, 0.5, 0.0))
    p.add_argument("--bounds", type=_str_list,
                   default=("lower", "expected", "upper"))
    p.add_argument("--network", help="network JSON")
    p.add_argument("--days", help="typical-days CSV")
    p.add_argument("--alpha", type=float, default=1.0,
                   help=argparse.SUPPRESS)
    p.add_argument("--bound", default="expected", help=argparse.SUPPRESS)
    p.add_argument("--policy-box", dest="policy_box",
                   help="policy-box JSON")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run-case", help="full pipeline into --out")
    p.add_argument("--network", help="network JSON")
    p.add_argument("--days", help="typical-days CSV")
    p.add_argument("--transitions", help="transition JSON")
    p.add_argument("--policy", help="policy JSON")
    p.add_argument("--policy-box", dest="policy_box",
                   help="policy-box JSON")
    p.add_argument("--scales", type=_float_list,
                   default=(1, 100, 400, 800, 1000))
    p.add_argument("--alphas", type=_float_list, default=(1.0, 0.5, 0.0))
    p.add_argument("--bounds", type=_str_list,
                   default=("lower", "expected", "upper"))
    p.set_defaults(func=_cmd_run_case)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
