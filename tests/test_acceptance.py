"""Acceptance gate: twelve end-to-end checks, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the scoreboard. Every
test prints one line of the form

    ACCEPTANCE NN <name>: PASS|FAIL - <numbers behind the verdict>

before asserting, and collects all of its sub-checks first, so a red
criterion still reports which parts held.

Criterion 03 stays red and is meant to: the attack probability computed
from the transition parameters alone is 0.0261, outside the [0.03, 0.05]
band around the published 0.03980. The published sojourn column is not
reproducible from the published transition parameters. The discrepancy
report quantifies that gap, and the band assertion is kept honest instead
of being widened until it passes.
"""

import dataclasses
import json
import time

import numpy as np

from evcs_premium import smp
from evcs_premium.analytic import (
    PolicyFactors,
    TypicalDaySet,
    claim_loss,
    closed_form_premium,
    expected_breakeven_cost,
    premium_multiplier_M,
    sensitivity_sweep,
)
from evcs_premium.cvar import (
    PolicyBox,
    RiskConfig,
    cvar_sup,
    kkt_report,
    robust_premium_bilevel,
)
from evcs_premium.dcopf import (
    Generator,
    Line,
    Network,
    evcs_tariff_cents,
    per_day_dlmps,
    solve_dcopf,
)
from evcs_premium.fixtures import (
    PUBLISHED_P_ATTACK,
    PUBLISHED_SOJOURN,
    PUBLISHED_STEADY_STATE,
    default_policy,
    default_risk_config,
    manhattan7,
    published_embedded_stationary,
    published_reference_notes,
    reference_smp_model,
    typical_days,
)
from evcs_premium.pipeline import CaseConfig, run_case
from evcs_premium.trilevel import (
    ccg_solve,
    check_sweep_monotonicity,
    demand_scaling_sweep,
    solve_trilevel_direct,
)


def _verdict(num, name, failures, detail):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} - {detail}")
    assert not failures, "; ".join(failures)


def _random_instance(rng, n_hour=24):
    """Random day set, tariff, and policy with M - C > 0 guaranteed."""
    n_day = int(rng.integers(1, 5))
    phi = rng.uniform(0.2, 1.0, size=n_day)
    phi /= phi.sum()
    days = TypicalDaySet(phi, rng.uniform(5.0, 60.0, size=(n_day, n_hour)))
    tariff = rng.uniform(0.5, 6.0, size=(n_day, n_hour))
    policy = PolicyFactors(
        p_attack=float(rng.uniform(0.01, 0.12)),
        loading=float(rng.uniform(0.0, 0.5)),
        risk_share=float(rng.uniform(0.3, 1.0)),
        history_coeff=float(rng.uniform(0.0, 0.5)),
        attack_count=int(rng.integers(0, 3)),
        penalty=float(rng.uniform(0.0, 5.0)))
    return policy, days, tariff


def _random_network(rng, n_bus, line_limit=None, extra_lines=2):
    """Connected network on a random spanning tree plus a few chords.

    Default line limits sit above the total system load; transfer factors
    never exceed one in magnitude, so every draw stays feasible.
    """
    buses = tuple(range(1, n_bus + 1))
    demand = {int(b): rng.uniform(1.0, 9.0, size=24) for b in buses}
    total_peak = float(sum(demand[b].max() for b in buses))

    def limit():
        if line_limit is not None:
            return line_limit
        return total_peak * float(rng.uniform(1.05, 1.6))

    lines = []
    for b in buses[1:]:
        anchor = int(rng.integers(1, b))
        lines.append(Line(anchor, b, float(rng.uniform(0.05, 0.15)),
                          limit()))
    for _ in range(int(rng.integers(0, extra_lines + 1))):
        a, b = rng.choice(buses, size=2, replace=False)
        lines.append(Line(int(min(a, b)), int(max(a, b)),
                          float(rng.uniform(0.05, 0.15)), limit()))
    n_gen = int(rng.integers(1, 4))
    costs = rng.uniform(5.0, 50.0, size=n_gen)
    costs += np.arange(n_gen) * 1e-3
    gens = tuple(Generator(int(rng.choice(buses)), float(costs[i]),
                           2.0 * total_peak) for i in range(n_gen))
    return Network(buses=buses, lines=tuple(lines), generators=gens,
                   base_demand={"d1": demand}, evcs_bus=buses[-1])


def test_criterion_01_published_table_attack_probability():
    p = published_embedded_stationary()
    res = smp.attack_probability(p, PUBLISHED_SOJOURN)  # warm-up
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        res = smp.attack_probability(p, PUBLISHED_SOJOURN)
        times.append(time.perf_counter() - t0)
    runtime = min(times)
    err = abs(res.p_attack - PUBLISHED_P_ATTACK)
    failures = []
    if err > 1e-4:
        failures.append(f"P(A) = {res.p_attack!r} off by {err:g}")
    if runtime >= 1e-3:
        failures.append(f"runtime {runtime:g} s, budget 1 ms")
    _verdict(1, "published-table attack probability", failures,
             f"P(A)={res.p_attack:.5f} vs {PUBLISHED_P_ATTACK} "
             f"(err {err:.1e}, tol 1e-4), runtime {runtime * 1e6:.0f} us")


def test_criterion_02_steady_state_ratio_identities():
    # P_s proportional to p_s T_s makes P_D/P_C = T_D/T_C and
    # P_G/P_I = T_G/T_I whenever p_D = p_C and p_G = p_I, which the
    # attack-chain topology forces.
    pairs = ((2, 3), (0, 1))  # (D, C) and (G, I)
    failures = []
    published = []
    for i, j in pairs:
        gap = abs((PUBLISHED_STEADY_STATE[i] / PUBLISHED_STEADY_STATE[j])
                  / (PUBLISHED_SOJOURN[i] / PUBLISHED_SOJOURN[j]) - 1.0)
        published.append(gap)
        if gap > 0.005:
            failures.append(
                f"published ratio {smp.STATES[i]}/{smp.STATES[j]} "
                f"off by {gap:g}, tol 0.5%")
    _, res = smp.run_chain(reference_smp_model())
    own = []
    for i, j in pairs:
        gap = abs((res.steady_state[i] / res.steady_state[j])
                  / (res.sojourn[i] / res.sojourn[j]) - 1.0)
        own.append(gap)
        if gap > 1e-9:
            failures.append(
                f"own ratio {smp.STATES[i]}/{smp.STATES[j]} off by {gap:g}")
    _verdict(2, "steady-state ratio identities", failures,
             f"published D/C and G/I gaps {published[0]:.1e}, "
             f"{published[1]:.1e} (tol 5e-3); own worst {max(own):.1e} "
             f"(tol 1e-9)")


def test_criterion_03_transition_driven_pipeline():
    t0 = time.perf_counter()
    chain, res = smp.run_chain(reference_smp_model())
    runtime = time.perf_counter() - t0
    k_sum = float(chain.kernel_inf[1, 2] + chain.kernel_inf[1, 4])
    notes = published_reference_notes()
    sojourn_gap = np.abs(np.asarray(notes["computed_sojourn"])
                         / np.asarray(notes["published_sojourn"]) - 1.0)

    failures = []
    if abs(k_sum - 1.0) > 1e-6:
        failures.append(f"k_ID + k_IF = {k_sum!r}, should be 1 within 1e-6")
    if runtime >= 1.0:
        failures.append(f"runtime {runtime:g} s, budget 1 s")
    for key in ("computed_sojourn", "published_sojourn",
                "computed_p_attack", "published_p_attack",
                "p_attack_with_published_sojourn"):
        if key not in notes:
            failures.append(f"discrepancy report lacks {key}")
    if not sojourn_gap.max() > 0.01:
        failures.append("sojourn discrepancy vanished; the published-value "
                        "notes need revisiting")
    if not 0.03 <= res.p_attack <= 0.05:
        failures.append(
            f"p_attack {res.p_attack!r} outside [0.03, 0.05]; reaching the "
            f"published 0.03980 requires the published sojourn column, "
            f"which the transition parameters do not reproduce (max "
            f"relative gap {sojourn_gap.max():.0%})")
    _verdict(3, "transition-driven pipeline", failures,
             f"k_ID+k_IF err {abs(k_sum - 1.0):.1e} (tol 1e-6), "
             f"p_attack {res.p_attack:.6f} vs band [0.03, 0.05], "
             f"max sojourn gap {sojourn_gap.max():.0%}, "
             f"runtime {runtime:.2f} s")


def test_criterion_04_confidence_box():
    box = smp.relative_box(0.0398, 0.10)
    failures = []
    if abs(box.lower - 0.03582) > 1e-6:
        failures.append(f"lower end {box.lower!r} vs 0.03582")
    if abs(box.upper - 0.04378) > 1e-6:
        failures.append(f"upper end {box.upper!r} vs 0.04378")
    _verdict(4, "ten-percent confidence box", failures,
             f"[{box.lower:.5f}, {box.upper:.5f}] vs [0.03582, 0.04378], "
             f"tol 1e-6")


def test_criterion_05_closed_form_vs_bilevel():
    rng = np.random.default_rng(505)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        policy, days, tariff = _random_instance(rng)
        config = RiskConfig(alpha=1.0, policy_box=PolicyBox.point(policy),
                            policy=policy)
        quote = robust_premium_bilevel(days, config, tariff)
        sol = closed_form_premium(policy, days, tariff)
        worst = max(worst,
                    abs(quote.premium - sol.premium) / (1.0 + sol.premium))
    runtime = time.perf_counter() - t0
    failures = []
    if worst > 1e-6:
        failures.append(f"worst relative premium gap {worst:g}")
    if runtime >= 10.0:
        failures.append(f"runtime {runtime:g} s, budget 10 s")
    _verdict(5, "closed form vs numeric bi-level", failures,
             f"20 random instances, worst relative gap {worst:.1e} "
             f"(tol 1e-6), runtime {runtime:.1f} s")


def test_criterion_06_break_even_certificates():
    rng = np.random.default_rng(66)
    net = manhattan7()
    instances = [(default_policy(), typical_days(),
                  evcs_tariff_cents(net, per_day_dlmps(net, typical_days())))]
    instances += [_random_instance(rng) for _ in range(10)]
    worst_cost = 0.0
    worst_claim = 0.0
    for policy, days, tariff in instances:
        sol = closed_form_premium(policy, days, tariff)
        revenue = premium_multiplier_M(policy) * float(
            days.weighted_demand @ sol.charging_price)
        cost = expected_breakeven_cost(policy, days, tariff,
                                       sol.charging_price, sol.per_kwh)
        worst_cost = max(worst_cost, abs(cost) / revenue)
        cl = claim_loss(policy, days, sol.charging_price)
        worst_claim = max(worst_claim,
                          abs(sol.premium - cl) / (1.0 + sol.premium))
    failures = []
    if worst_cost > 1e-7:
        failures.append(f"worst |expected cost| {worst_cost:g} of revenue")
    if worst_claim > 1e-9:
        failures.append(f"worst |x - CL| {worst_claim:g} relative")
    _verdict(6, "break-even certificates", failures,
             f"{len(instances)} instances, |cost|/revenue {worst_cost:.1e} "
             f"(tol 1e-7), |x-CL| {worst_claim:.1e} (tol 1e-9)")


def test_criterion_07_cvar_oracles():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        costs = rng.normal(0.0, 10.0, size=n)
        weights = rng.uniform(0.05, 1.0, size=n)
        weights /= weights.sum()
        alpha = float(rng.uniform(0.02, 1.0))
        # the quantile-form minimum is attained at a cost atom
        ru = min(v + float(weights @ np.maximum(costs - v, 0.0)) / alpha
                 for v in costs)
        worst = max(worst, abs(cvar_sup(costs, weights, alpha) - ru))
    end_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        costs = rng.normal(0.0, 5.0, size=n)
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        end_gap = max(
            end_gap,
            abs(cvar_sup(costs, weights, 1.0) - float(weights @ costs)),
            abs(cvar_sup(costs, weights, 0.0) - float(costs.max())))
    failures = []
    if worst > 1e-8:
        failures.append(f"quantile-form gap {worst:g}")
    if end_gap > 1e-12:
        failures.append(f"endpoint gap {end_gap:g}")
    _verdict(7, "cvar oracle equivalence", failures,
             f"100 draws vs quantile form, worst {worst:.1e} (tol 1e-8); "
             f"endpoints worst {end_gap:.1e} (tol 1e-12)")


def test_criterion_08_kkt_certificates():
    days = typical_days()
    net = manhattan7()
    tariff = evcs_tariff_cents(net, per_day_dlmps(net, days))
    cells = [(days, tariff, alpha, bound)
             for alpha in (1.0, 0.5, 0.0)
             for bound in ("lower", "expected", "upper")]
    scaled = days.scaled(400.0)
    cells.append((scaled, evcs_tariff_cents(net, per_day_dlmps(net, scaled)),
                  0.5, "upper"))
    worst = 0.0
    worst_identity = 0.0
    for d, tar, alpha, bound in cells:
        config = default_risk_config(alpha=alpha, bound_mode=bound)
        quote = robust_premium_bilevel(d, config, tar)
        rep = kkt_report(quote.solution, d, quote.per_kwh, config, tar)
        worst = max(worst, rep.max_residual)
        worst_identity = max(worst_identity, rep.families["identity_19"])
    failures = []
    if worst > 1e-6:
        failures.append(f"worst scaled residual {worst:g}")
    if worst_identity > 1e-6:
        failures.append(f"weight identity residual {worst_identity:g}")
    _verdict(8, "kkt certificates", failures,
             f"{len(cells)} cells incl. 400x demand, max residual "
             f"{worst:.1e} (tol 1e-6), weight identity "
             f"{worst_identity:.1e}")


def test_criterion_09_opf_strong_duality():
    failures = []
    worst_fixture = 0.0
    net = manhattan7()
    for scale in (1.0, 400.0, 1000.0):
        for res in per_day_dlmps(net, typical_days().scaled(scale)):
            worst_fixture = max(
                worst_fixture,
                abs(res.c_ll - res.c_dll) / (1.0 + abs(res.c_ll)))
    if worst_fixture > 1e-8:
        failures.append(f"fixture duality gap {worst_fixture:g}")

    rng = np.random.default_rng(909)
    worst_random = 0.0
    worst_spread = 0.0
    n_uncongested = 0
    for k in range(50):
        uncongested = k % 5 == 0
        draw = _random_network(rng, int(rng.integers(2, 11)),
                               line_limit=1e4 if uncongested else None)
        res = solve_dcopf(draw, "d1")
        worst_random = max(
            worst_random, abs(res.c_ll - res.c_dll) / (1.0 + abs(res.c_ll)))
        if uncongested:
            n_uncongested += 1
            spread = float((res.dlmp.max(axis=0) - res.dlmp.min(axis=0)).max())
            worst_spread = max(worst_spread, spread)
    if worst_random > 1e-8:
        failures.append(f"random-network duality gap {worst_random:g}")
    if worst_spread > 1e-9:
        failures.append(f"uncongested price spread {worst_spread:g}")
    _verdict(9, "opf strong duality", failures,
             f"fixture gap {worst_fixture:.1e}, 50 random networks gap "
             f"{worst_random:.1e} (tol 1e-8 rel), {n_uncongested} "
             f"uncongested spread {worst_spread:.1e} (tol 1e-9)")


def test_criterion_10_ccg_equals_direct():
    net = manhattan7()
    days = typical_days()
    failures = []
    worst = 0.0
    most_iters = 0
    for alpha in (1.0, 0.5, 0.0):
        for bound in ("lower", "expected", "upper"):
            config = default_risk_config(alpha=alpha, bound_mode=bound)
            ccg = ccg_solve(net, days, config)
            direct = solve_trilevel_direct(net, days, config)
            gap = abs(ccg.premium - direct.premium) / (1.0 + direct.premium)
            worst = max(worst, gap)
            if gap > 1e-6:
                failures.append(
                    f"alpha={alpha} bound={bound}: relative gap {gap:g}")
            trace = ccg.ccg_trace
            most_iters = max(most_iters, trace[-1].iteration)
            if trace[-1].iteration > 25:
                failures.append(
                    f"alpha={alpha} bound={bound}: "
                    f"{trace[-1].iteration} iterations")
            lbs = [s.lower_bound for s in trace]
            ubs = [s.upper_bound for s in trace]
            if any(b < a - 1e-7 for a, b in zip(lbs, lbs[1:])):
                failures.append(
                    f"alpha={alpha} bound={bound}: lower bounds not monotone")
            if any(b < a - 1e-7 for a, b in zip(ubs, ubs[1:])):
                failures.append(
                    f"alpha={alpha} bound={bound}: upper bounds not monotone")
    _verdict(10, "ccg vs direct tri-level", failures,
             f"9 cells, worst relative gap {worst:.1e} (tol 1e-6), "
             f"max iterations {most_iters} (cap 25), bounds monotone")


def test_criterion_11_qualitative_trends():
    net = manhattan7()
    days = typical_days()
    tariff = evcs_tariff_cents(net, per_day_dlmps(net, days))
    failures = []

    rows = demand_scaling_sweep(net, days, default_risk_config())
    infeasible = [r for r in rows if not r.feasible]
    if infeasible:
        failures.append(f"{len(infeasible)} infeasible sweep cells")
    failures.extend(check_sweep_monotonicity(rows, slack=1e-9))

    base = default_policy()
    monotone_axes = (("p_attack", np.linspace(0.01, 0.09, 9)),
                     ("loading", np.linspace(0.0, 0.6, 7)),
                     ("risk_share", np.linspace(0.1, 1.0, 10)))
    for axis, grid in monotone_axes:
        vals = sensitivity_sweep(base, axis, grid, days, tariff)
        if np.any(np.diff(vals) < -1e-9) or not vals[-1] > vals[0]:
            failures.append(f"{axis} sweep not increasing")
    counts = np.arange(0.0, 4.0)
    for kappa in (0.1, 0.25, 0.5):
        pol = dataclasses.replace(base, history_coeff=kappa)
        vals = sensitivity_sweep(pol, "attack_count", counts, days, tariff)
        if np.any(np.diff(vals) < -1e-9) or not vals[-1] > vals[0]:
            failures.append(
                f"attack-count sweep not increasing at kappa={kappa}")
    flat = sensitivity_sweep(dataclasses.replace(base, history_coeff=0.0),
                             "attack_count", counts, days, tariff)
    if float(np.ptp(flat)) > 1e-9:
        failures.append(f"kappa=0 sweep not flat, spread {np.ptp(flat):g}")
    _verdict(11, "qualitative premium trends", failures,
             f"{len(rows)} sweep cells feasible and ordered (scale up, "
             f"alpha down, spread widening); sensitivity monotone on "
             f"p_attack, loading, risk_share, and attack count for "
             f"kappa>0; kappa=0 flat")


def test_criterion_12_desk_scale_budget(tmp_path):
    out = tmp_path / "case"
    t0 = time.perf_counter()
    bundle = run_case(CaseConfig(out_dir=str(out)))
    runtime = time.perf_counter() - t0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    failures = []
    if runtime >= 60.0:
        failures.append(f"runtime {runtime:g} s, budget 60 s")
    if manifest["completed"] != ["smp", "dlmp", "analytic", "robust",
                                 "trilevel", "report"]:
        failures.append(f"stages completed: {manifest['completed']}")
    if manifest["failed"] is not None:
        failures.append(f"stage {manifest['failed']} failed")
    _verdict(12, "desk-scale budget", failures,
             f"full run matrix in {runtime:.1f} s (budget 60 s), "
             f"{len(bundle.outputs)} output files, 6 stages complete")
