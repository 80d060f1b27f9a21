"""Case orchestration: chain the estimators into one reproducible run.

run_case executes the published pipeline order (attack chain, grid prices,
closed-form premium, risk-averse quotes, demand-scaling sweep) against the
built-in synthetic fixtures or user-supplied files, writing every table
with units in its header. Outputs carry no timestamps and all floats are
written with repr, so a rerun over the same inputs is byte-identical. A
MANIFEST.json names the completed stages; when a stage fails the manifest
still lists what finished, the partial outputs stay on disk, and the
failure is re-raised with the stage name attached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dataio
from .analytic import closed_form_premium, sensitivity_sweep
from .cvar import BOUND_MODES, robust_premium_bilevel
from .fixtures import PUBLISHED_SOJOURN, default_policy, \
    default_risk_config, manhattan7, published_embedded_stationary, \
    published_reference_notes, reference_smp_model, typical_days
from .smp import STATES, attack_probability, relative_box, run_chain
from .trilevel import _grid_blocks, demand_scaling_sweep


class CaseError(RuntimeError):
    """A pipeline stage failed; .stage names it."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class CaseConfig:
    """Inputs and run matrix for one case run.

    Path fields left as None fall back to the built-in synthetic
    fixtures. All referenced files must exist at construction time.
    """

    out_dir: str
    network_path: str | None = None
    days_path: str | None = None
    transitions_path: str | None = None
    policy_path: str | None = None
    policy_box_path: str | None = None
    alphas: tuple = (1.0, 0.5, 0.0)
    bounds: tuple = ("lower", "expected", "upper")
    scales: tuple = (1, 100, 400, 800, 1000)
    confidence_epsilon: float = 0.10

    def __post_init__(self):
        if not (self.alphas and self.bounds and self.scales):
            raise CaseError("config", "run matrix must be nonempty")
        if not np.isfinite(self.confidence_epsilon):
            raise CaseError("config", "confidence_epsilon must be finite, "
                                      f"got {self.confidence_epsilon!r}")
        for scale in self.scales:
            if not (np.isfinite(scale) and scale > 0):
                raise CaseError("config", "demand scales must be finite and "
                                          f"positive, got {scale!r}")
        if not all(0.0 <= alpha <= 1.0 for alpha in self.alphas):
            raise CaseError("config", "alphas must be in [0, 1], got "
                                      f"{self.alphas!r}")
        if not set(self.bounds) <= set(BOUND_MODES):
            raise CaseError("config", f"bounds must be among {BOUND_MODES}, "
                                      f"got {self.bounds!r}")
        for name in ("network_path", "days_path", "transitions_path",
                     "policy_path", "policy_box_path"):
            path = getattr(self, name)
            if path is not None and not os.path.exists(path):
                raise CaseError("config", f"{name} {path!r} does not exist")


@dataclass
class ReportBundle:
    """Everything run_case computed, with the emitted file map."""

    smp_result: object
    published_attack: object
    confidence: object
    dlmp: tuple
    tariff_cents: np.ndarray
    analytic: object
    sensitivity: dict
    quotes: dict
    sweep: list
    discrepancies: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def _quote_doc(quote):
    return {
        "premium_cents": quote.premium,
        "premium_dollars": quote.premium_dollars,
        "per_kwh_cents": quote.per_kwh,
        "alpha": quote.alpha,
        "bound_mode": quote.bound_mode,
        "iterations": quote.iterations,
        "kkt_max_residual": quote.kkt_max_residual,
        "total_demand_kwh": quote.total_demand,
        "charging_price_cents_per_kwh": list(quote.charging_price),
    }


def _analytic_doc(solution):
    return {"premium_cents": solution.premium,
            "per_kwh_cents": solution.per_kwh, "omega": solution.omega,
            "composite_c": solution.composite_c,
            "charging_price_cents_per_kwh": list(solution.charging_price)}


def run_case(config: CaseConfig) -> ReportBundle:
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    completed = []
    outputs = {}
    discrepancies = []

    def path_for(name, filename):
        outputs[name] = filename
        return os.path.join(out, filename)

    def finish_manifest(failed=None, error=None):
        dataio._write_json(os.path.join(out, "MANIFEST.json"),
                           {"completed": completed, "failed": failed,
                            "error": error, "outputs": outputs})

    stage = "smp"
    try:
        model = (dataio.load_transitions(config.transitions_path)
                 if config.transitions_path else reference_smp_model())
        chain, smp_result = run_chain(model)
        published = attack_probability(published_embedded_stationary(),
                                       PUBLISHED_SOJOURN)
        box = relative_box(published.p_attack, config.confidence_epsilon)
        notes = published_reference_notes(
            None if config.transitions_path else (chain, smp_result))
        for s, state in enumerate(STATES):
            comp = notes["computed_sojourn"][s]
            pub = notes["published_sojourn"][s]
            if abs(comp - pub) > 5e-5 * max(1.0, abs(pub)):
                discrepancies.append(
                    f"sojourn[{state}] computed {comp:.4f} h vs published "
                    f"{pub:.4f} h (published column tracks scale/shape, "
                    f"not the Weibull mean)")
        comp_pa = notes["computed_p_attack"]
        discrepancies.append(
            f"p_attack from transition parameters {comp_pa:.6f} vs "
            f"published steady-state table {published.p_attack:.5f} "
            f"(the published sojourn column is not reproducible from the "
            f"published transition parameters)")
        dataio._write_json(path_for("smp", "smp.json"), {
            "states": list(STATES),
            "kernel_at_infinity": chain.kernel_inf.tolist(),
            "embedded_stationary": chain.stationary.tolist(),
            "sojourn_hours": smp_result.sojourn.tolist(),
            "steady_state": smp_result.steady_state.tolist(),
            "p_attack": smp_result.p_attack,
            "published": {
                "steady_state": published.steady_state.tolist(),
                "sojourn_hours": published.sojourn.tolist(),
                "p_attack": published.p_attack,
            },
            "confidence_box": {"lower": box.lower, "upper": box.upper,
                               "center": box.center,
                               "relative_epsilon":
                                   config.confidence_epsilon},
        })
        dataio.write_smp(path_for("smp_csv", "smp.csv"), smp_result,
                         published.p_attack)
        completed.append(stage)

        stage = "dlmp"
        network = (dataio.load_network(config.network_path)
                   if config.network_path else manhattan7())
        days = (dataio.load_typical_days(config.days_path)
                if config.days_path else typical_days())
        dlmp_results, tariff, _ = _grid_blocks(network, days)
        dataio.write_dlmp(path_for("dlmp", "dlmp.csv"), network,
                          dlmp_results)
        dataio.write_tariff(path_for("tariff", "tariff.csv"), tariff,
                            day_ids=days.day_ids)
        completed.append(stage)

        stage = "analytic"
        policy = (dataio.load_policy(config.policy_path)
                  if config.policy_path else default_policy())
        analytic = closed_form_premium(policy, days, tariff)
        grids = {
            "p_attack": np.linspace(0.03582, 0.04378, 9),
            "loading": np.linspace(0.25, 0.35, 9),
            "risk_share": np.linspace(0.0, 1.0, 9),
            "history_coeff": np.linspace(0.2, 0.3, 9),
        }
        sensitivity = {axis: (grid, sensitivity_sweep(policy, axis, grid,
                                                      days, tariff))
                       for axis, grid in grids.items()}
        dataio._write_json(path_for("analytic", "analytic.json"),
                           _analytic_doc(analytic))
        dataio.write_charging_price(path_for("lambda_c", "lambda_c.csv"),
                                    analytic.charging_price,
                                    "closed-form charging price")
        completed.append(stage)

        stage = "robust"
        risk = (dataio.load_risk_config(config.policy_box_path)
                if config.policy_box_path else default_risk_config())
        quotes = {}
        for alpha in config.alphas:
            for bound in config.bounds:
                cell = replace(risk, alpha=alpha, bound_mode=bound)
                quotes[(alpha, bound)] = robust_premium_bilevel(
                    days, cell, tariff)
        dataio._write_json(path_for("robust", "robust_quotes.json"), {
            f"alpha={alpha:g},bound={bound}": _quote_doc(q)
            for (alpha, bound), q in quotes.items()})
        completed.append(stage)

        stage = "trilevel"
        sweep = demand_scaling_sweep(network, days, risk,
                                     scales=config.scales,
                                     alphas=config.alphas,
                                     bounds=config.bounds,
                                     quotes={1: quotes})
        for row in sweep:
            if not row.feasible:
                discrepancies.append(
                    f"sweep cell scale={row.scale:g} alpha={row.alpha:g} "
                    f"bound={row.bound} infeasible: {row.note}")
        dataio.write_sweep(path_for("sweep", "sweep.csv"), sweep)
        completed.append(stage)

        stage = "report"
        bundle = ReportBundle(smp_result=smp_result,
                              published_attack=published,
                              confidence=box, dlmp=dlmp_results,
                              tariff_cents=tariff, analytic=analytic,
                              sensitivity=sensitivity, quotes=quotes,
                              sweep=sweep, discrepancies=discrepancies,
                              outputs=outputs)
        emit_plot_data(bundle, out)
        with open(path_for("discrepancies", "discrepancies.txt"),
                  "w") as fh:
            fh.write("# computed-vs-published deltas and flagged cells; "
                     "empty body means none\n")
            for line in discrepancies:
                fh.write(line + "\n")
        completed.append(stage)
    except Exception as exc:
        finish_manifest(failed=stage, error=str(exc))
        raise CaseError(stage, exc) from exc

    finish_manifest()
    return bundle


def emit_plot_data(bundle: ReportBundle, out_dir):
    """Tidy CSVs for the three figure analogs; returns their paths.

    fig4: closed-form premium against each policy factor.
    fig5: the scale sweep at expected bounds, long format.
    fig6: per-kWh premium across alpha under lower and upper bounds.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    p4 = os.path.join(out_dir, "fig4_sensitivity.csv")
    with open(p4, "w", newline="") as fh:
        fh.write("# premium sensitivity; units: x_hat in cents/kWh, "
                 "factor value dimensionless\n")
        fh.write("factor,value,x_hat\n")
        for axis in sorted(bundle.sensitivity):
            grid, premiums = bundle.sensitivity[axis]
            for v, x in zip(grid, premiums):
                fh.write(f"{axis},{dataio._fmt(v)},{dataio._fmt(x)}\n")
    paths["fig4"] = p4
    bundle.outputs.setdefault("fig4", os.path.basename(p4))

    p5 = os.path.join(out_dir, "fig5_scaling.csv")
    with open(p5, "w", newline="") as fh:
        fh.write("# demand-scaling premiums at expected factor bounds; "
                 "units: lambda_c_avg and x_hat in cents/kWh\n")
        fh.write("scale,alpha,lambda_c_avg,x_hat\n")
        for row in bundle.sweep:
            if row.bound == "expected" and row.feasible:
                fh.write(f"{row.scale!r},{row.alpha!r},"
                         f"{row.lambda_c_avg!r},{row.x_hat!r}\n")
    paths["fig5"] = p5
    bundle.outputs.setdefault("fig5", os.path.basename(p5))

    p6 = os.path.join(out_dir, "fig6_alpha_bounds.csv")
    with open(p6, "w", newline="") as fh:
        fh.write("# per-kWh premium by tail level and factor bound; "
                 "units: x_hat in cents/kWh\n")
        fh.write("alpha,bound,x_hat\n")
        for (alpha, bound), quote in sorted(bundle.quotes.items(),
                                            key=lambda kv: (-kv[0][0],
                                                            kv[0][1])):
            if bound in ("lower", "upper"):
                fh.write(f"{alpha!r},{bound},{quote.per_kwh!r}\n")
    paths["fig6"] = p6
    bundle.outputs.setdefault("fig6", os.path.basename(p6))
    return paths
