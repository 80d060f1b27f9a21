"""Command-line front end.

Subcommands mirror the pipeline stages: smp, dlmp, premium-analytic,
premium-robust, premium-trilevel, sweep, run-case. Input files are
optional almost everywhere; whatever is omitted falls back to the
built-in synthetic fixtures so every subcommand runs out of the box.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dataio
from .cvar import BOUND_MODES, DEFAULT_ALPHAS, DEFAULT_SCALES, kkt_report, \
    robust_premium_bilevel
from .dcopf import HOURS
from .fixtures import default_policy, default_risk_config, manhattan7, \
    reference_smp_model, typical_days
from .pipeline import CaseConfig, _quote_doc, analytic_stage, dlmp_stage, \
    load_or_fixture, run_case, smp_stage
from .trilevel import _grid_blocks, ccg_solve, demand_scaling_sweep, \
    solve_trilevel_direct


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v != "")


def _str_list(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _grid_from(args):
    """(network, days) of --network and --days."""
    return (load_or_fixture(args.network, dataio.load_network, manhattan7),
            load_or_fixture(args.days, dataio.load_typical_days,
                            typical_days))


def _tariff_from(args, network, days):
    if args.tariff:
        tariff, ids = dataio.load_tariff(args.tariff)
        if ids is not None and ids != tuple(days.day_ids):
            raise dataio.DataError(
                f"tariff days {ids} do not match demand days "
                f"{tuple(days.day_ids)}")
        return tariff
    return _grid_blocks(network, days)[1]


def _risk_from(args):
    return load_or_fixture(args.policy_box, dataio.load_risk_config,
                           default_risk_config, alpha=args.alpha,
                           bound_mode=args.bound)


def _path_for(args):
    """The stage functions' path_for callback, writing into --out."""
    os.makedirs(args.out, exist_ok=True)
    return lambda name, filename: os.path.join(args.out, filename)


def _echo(path):
    with open(path) as fh:
        sys.stdout.write(fh.read())


def _write_doc(out, name, doc):
    """name.json from doc, whose charging prices also go to lambda_c.csv."""
    path = os.path.join(out, f"{name}.json")
    dataio._write_json(path, doc)
    dataio.write_charging_price(os.path.join(out, "lambda_c.csv"),
                                doc["charging_price_cents_per_kwh"])
    _echo(path)


def _cmd_smp(args):
    model = load_or_fixture(args.transitions, dataio.load_transitions,
                            reference_smp_model)
    path_for = _path_for(args)
    smp_stage(model, args.epsilon, path_for)
    _echo(path_for("smp", "smp.json"))
    return 0


def _cmd_dlmp(args):
    network, days = _grid_from(args)
    path_for = _path_for(args)
    dlmp_stage(network, days, path_for)
    print(f"wrote {path_for('dlmp', 'dlmp.csv')} and tariff.csv "
          f"({len(days.day_ids)} days x {HOURS} hours x "
          f"{len(network.buses)} buses)")
    return 0


def _cmd_premium_analytic(args):
    network, days = _grid_from(args)
    tariff = _tariff_from(args, network, days)
    policy = load_or_fixture(args.policy, dataio.load_policy, default_policy)
    path_for = _path_for(args)
    analytic_stage(policy, days, tariff, path_for)
    _echo(path_for("analytic", "analytic.json"))
    return 0


def _cmd_premium_robust(args):
    network, days = _grid_from(args)
    tariff = _tariff_from(args, network, days)
    config = _risk_from(args)
    quote = robust_premium_bilevel(days, config, tariff)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "kkt_report.txt"), "w") as fh:
        fh.write("# optimality residuals of the final price program "
                 "(scale-normalized, dimensionless)\n")
        rep = kkt_report(quote.solution, days, quote.per_kwh, config,
                         tariff)
        for fam in sorted(rep.families):
            fh.write(f"{fam},{rep.families[fam]!r}\n")
    _write_doc(args.out, "premium_quote", _quote_doc(quote))
    return 0


def _cmd_premium_trilevel(args):
    network, days = _grid_from(args)
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
    dataio.write_tariff(os.path.join(args.out, "tariff.csv"),
                        result.tariff_cents, day_ids=days.day_ids)
    _write_doc(args.out, "trilevel_quote",
               {**_quote_doc(result.quote), **extra})
    return 0


def _cmd_sweep(args):
    network, days = _grid_from(args)
    config = load_or_fixture(args.policy_box, dataio.load_risk_config,
                             default_risk_config)
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


def _parent(*flags):
    """Parser holding one shared flag group, for add_parser(parents=)."""
    p = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in flags:
        p.add_argument(flag, **kwargs)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evcs-premium",
        description="Cyber-insurance premium engine for EV charging "
                    "stations")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = _parent(("--network", {"help": "network JSON"}),
                   ("--days", {"help": "typical-days CSV"}))
    tariff = _parent(("--tariff", {"help": "tariff CSV (default: the OPF "
                                           "tariff of --network)"}))
    cell = _parent(("--alpha", {"type": float, "default": 1.0}),
                   ("--bound", {"default": "expected",
                                "choices": BOUND_MODES}))
    box = _parent(("--policy-box", {"dest": "policy_box",
                                    "help": "policy-box JSON"}))
    matrix = _parent(
        ("--scales", {"type": _float_list, "default": DEFAULT_SCALES}),
        ("--alphas", {"type": _float_list, "default": DEFAULT_ALPHAS}),
        ("--bounds", {"type": _str_list, "default": BOUND_MODES}))

    p = sub.add_parser("smp", help="attack-chain probabilities")
    p.add_argument("--transitions", help="transition JSON")
    p.add_argument("--epsilon", type=float, default=0.10,
                   help="relative half-width of the confidence box")
    p.set_defaults(func=_cmd_smp)

    p = sub.add_parser("dlmp", parents=[grid],
                       help="per-day locational prices")
    p.set_defaults(func=_cmd_dlmp)

    p = sub.add_parser("premium-analytic", parents=[grid, tariff],
                       help="closed-form premium")
    p.add_argument("--policy", help="policy JSON")
    p.set_defaults(func=_cmd_premium_analytic)

    p = sub.add_parser("premium-robust", parents=[grid, tariff, cell, box],
                       help="risk-averse premium")
    p.set_defaults(func=_cmd_premium_robust)

    p = sub.add_parser("premium-trilevel", parents=[grid, cell, box],
                       help="tri-level premium")
    p.add_argument("--mode", default="direct", choices=("ccg", "direct"))
    p.set_defaults(func=_cmd_premium_trilevel)

    p = sub.add_parser("sweep", parents=[grid, box, matrix],
                       help="demand-scaling premium grid")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run-case", parents=[grid, box, matrix],
                       help="full pipeline into --out")
    p.add_argument("--transitions", help="transition JSON")
    p.add_argument("--policy", help="policy JSON")
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
