"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload exposes ``make(i)`` (the i-th input, built outside the timed
region), ``call(x)`` (the one timed request into ``evcs_premium``) and
``check(x, out)`` (``None`` when the outcome is right, else a message; an
exception raised by ``call`` arrives as ``out``). ``count_ops`` is the
length of the input prefix over which the traced run takes its solver
counts.

The sizes of the inputs follow a fixed schedule and the seed draws
everything else. Op j of the quote and ccg workloads takes its alpha kind,
factor bound and twelfth of the log demand-scale range from ``_schedule``,
so every twelve consecutive ops hold each (alpha kind, bound) cell and each
scale band once; op j of the grid workload takes its day count, bus count
and role (congested, uncongested or unservable) from ``Grid.make``. The
seed draws the feeders, day profiles, likelihoods, tariffs, the value of a
uniform alpha and the scale within its band. So the work in a run barely
depends on the seed, while every seed gives other inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

HOURS = 24
ALPHA_KINDS = (1.0, 0.5, 0.0, "uniform")
BOUNDS = ("lower", "expected", "upper")
STAGES = ["smp", "dlmp", "analytic", "robust", "trilevel", "report"]
KKT_GATE = 1e-6
DUALITY_GATE = 1e-8
BALANCE_GATE = 1e-7
DUAL_FEAS_GATE = 1e-7
PREMIUM_RTOL = 1e-6
REFERENCE_CASE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_case.json")


def _hump(t, center, width):
    return np.exp(-0.5 * ((t - center) / width) ** 2)


def _schedule(j):
    """(alpha kind, factor bound, scale band of 12) of op j."""
    band = (j // 4 * 7 + j % 4 * 3) % 12
    return ALPHA_KINDS[j % 4], BOUNDS[j // 4 % 3], band


def _alpha(kind, rng):
    return float(rng.uniform(0.0, 1.0)) if kind == "uniform" else kind


def _relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _failed(out):
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return None


class Quote:
    """robust_premium_bilevel on random day sets and per-day tariffs."""

    count_ops = 24

    def __init__(self, ep, seed, workdir):
        self.ep = ep
        self.seed = seed

    def make(self, i):
        kind, bound, band = _schedule(i)
        n_days = 2 + i % 11
        rng = np.random.default_rng([self.seed, 1, i])
        scale = 10.0 ** (-1.0 + 4.0 * (band + rng.uniform()) / 12.0)
        t = np.arange(HOURS, dtype=float)
        demand = np.empty((n_days, HOURS))
        tariff = np.empty((n_days, HOURS))
        for s in range(n_days):
            shape = (rng.uniform(0.12, 0.25)
                     + rng.uniform(0.2, 0.7) * _hump(t, rng.uniform(7, 10),
                                                     rng.uniform(1.5, 3.0))
                     + _hump(t, rng.uniform(17, 20), rng.uniform(2.0, 4.0)))
            demand[s] = rng.uniform(30.0, 60.0) * scale * shape / shape.max()
            tariff[s] = (rng.uniform(1.8, 2.4)
                         + rng.uniform(0.3, 1.2) * _hump(t, 18.0, 3.0)
                         + rng.uniform(0.0, 0.1, HOURS))
        likelihood = rng.dirichlet(np.full(n_days, 2.0))
        days = self.ep.TypicalDaySet(likelihood=likelihood / likelihood.sum(),
                                     demand_kw=demand)
        config = self.ep.default_risk_config(_alpha(kind, rng), bound)
        return days, config, tariff

    def call(self, x):
        return self.ep.robust_premium_bilevel(*x)

    def check(self, x, quote):
        bad = _failed(quote)
        if bad:
            return bad
        days, config, tariff = x
        if not (np.isfinite(quote.premium) and quote.premium >= 0.0):
            return f"premium {quote.premium!r} not finite and nonnegative"
        if not quote.kkt_max_residual <= KKT_GATE:
            return f"KKT residual {quote.kkt_max_residual:g}"
        if config.alpha == 1.0:
            closed = self.ep.closed_form_premium(config.resolved_policy(),
                                                 days, tariff)
            err = _relerr(quote.premium, closed.premium)
            if not err <= PREMIUM_RTOL:
                return f"alpha=1 premium off the closed form by {err:g}"
        return None


def _feeder(ep, rng, n_bus, n_days, uncongested):
    """Connected feeder that can always serve its load locally.

    A radial tree plus one to three mesh lines; every load bus has a
    local backup unit able to carry its own peak, so any line limits
    leave a feasible dispatch (each bus serving itself, zero flows) and
    binding limits only move prices.
    """
    t = np.arange(HOURS, dtype=float)
    buses = tuple(range(1, n_bus + 1))
    loads = buses[1:]
    day_ids = tuple(f"d{k + 1}" for k in range(n_days))
    evcs_bus = int(rng.choice(loads))

    ev_kw = np.empty((n_days, HOURS))
    for s in range(n_days):
        shape = (rng.uniform(0.15, 0.3)
                 + rng.uniform(0.2, 0.6) * _hump(t, rng.uniform(7, 10), 2.0)
                 + _hump(t, rng.uniform(17, 20), rng.uniform(2.0, 4.0)))
        ev_kw[s] = rng.uniform(300.0, 2500.0) * shape / shape.max()
    peak = {b: rng.uniform(0.3, 2.5) for b in loads}
    lag = {b: int(rng.integers(0, 6)) for b in loads}
    base = {}
    for day in day_ids:
        factor = rng.uniform(0.8, 1.1)
        base[day] = {b: factor * peak[b] * (0.45 + 0.55 * 0.5 * (
            1.0 - np.cos(2.0 * np.pi * (t - lag[b]) / HOURS)))
            for b in loads}
    bus_peak = {b: max(float(base[d][b].max()) for d in day_ids)
                for b in loads}
    bus_peak[evcs_bus] += float(ev_kw.max()) / 1000.0

    parent = {b: int(rng.integers(max(1, b - 4), b)) for b in loads}
    downstream = dict(bus_peak)
    for b in reversed(loads):
        if parent[b] != 1:
            downstream[parent[b]] += downstream[b]
    pairs = {(parent[b], b) for b in loads}
    for _ in range(int(rng.integers(1, 4))):
        a, b = sorted(int(v) for v in rng.choice(buses, 2, replace=False))
        pairs.add((a, b))

    def limit(a, b):
        if uncongested:
            return 1e4
        if parent.get(b) == a:
            return max(0.2, downstream[b] * rng.uniform(0.4, 1.3))
        return max(0.2, 3.0 * np.mean(list(peak.values()))
                   * rng.uniform(0.3, 1.0))

    lines = tuple(ep.Line(a, b, float(rng.uniform(0.02, 0.12)),
                          float(limit(a, b)))
                  for a, b in sorted(pairs))
    root_cost = 18.0 + 10.0 * 0.5 * (
        1.0 - np.cos(2.0 * np.pi * (t - rng.integers(0, 6)) / HOURS))
    gens = [ep.Generator(1, root_cost, 2.0 * sum(bus_peak.values()))]
    backup_cost = rng.uniform(45.0, 95.0, len(loads)) + 1e-3 * np.arange(
        len(loads))
    gens += [ep.Generator(b, float(c), 1.1 * bus_peak[b])
             for b, c in zip(loads, backup_cost)]
    for b in rng.choice(loads, int(rng.integers(1, 3)), replace=False):
        gens.append(ep.Generator(int(b), float(rng.uniform(8.0, 16.0)),
                                 float(rng.uniform(0.5, 3.0))))
    network = ep.Network(buses=buses, lines=lines, generators=tuple(gens),
                         base_demand=base, evcs_bus=evcs_bus)
    likelihood = rng.dirichlet(np.full(n_days, 2.0))
    days = ep.TypicalDaySet(likelihood=likelihood / likelihood.sum(),
                            demand_kw=ev_kw, day_ids=day_ids)
    return network, days


class Grid:
    """per_day_dlmps on random feeders, one in ten unservable."""

    count_ops = 10

    def __init__(self, ep, seed, workdir):
        self.ep = ep
        self.seed = seed

    def make(self, i):
        n_days = 2 + i % 5
        n_bus = 7 + round(7 * i % 10 * 23 / 9)
        role = {9: "unservable", 2: "uncongested", 6: "uncongested"}.get(
            i % 10, "congested")
        rng = np.random.default_rng([self.seed, 2, i])
        network, days = _feeder(self.ep, rng, n_bus, n_days,
                                role == "uncongested")
        expect = None
        if role == "unservable":
            # evening overload on the last day: the days before it solve
            # in full, so the op does a steady amount of work before failing
            day, hour = n_days - 1, int(rng.integers(16, 21))
            capacity = sum(g.capacity for g in network.generators)
            demand = days.demand_kw.copy()
            demand[day, hour] += (capacity + 1.0) * 1000.0
            days = self.ep.TypicalDaySet(days.likelihood, demand,
                                         days.day_ids)
            expect = (f"day {days.day_ids[day]!r}: demand not servable, "
                      f"first binding hour {hour + 1} ")
        return network, days, expect

    def call(self, x):
        return self.ep.per_day_dlmps(x[0], x[1])

    def check(self, x, out):
        network, days, expect = x
        if expect is not None:
            if not isinstance(out, self.ep.DcopfError):
                return f"unservable feeder gave {type(out).__name__}"
            if expect not in str(out):
                return f"error {str(out)!r} does not name {expect!r}"
            return None
        bad = _failed(out)
        if bad:
            return bad
        if [r.day for r in out] != list(days.day_ids):
            return "results do not cover the typical days in order"
        for r in out:
            gap = abs(r.c_ll - r.c_dll) / (1.0 + abs(r.c_ll))
            if not gap <= DUALITY_GATE:
                return f"day {r.day}: duality gap {gap:g}"
            if not r.balance_residual <= BALANCE_GATE:
                return f"day {r.day}: balance residual {r.balance_residual:g}"
            dual = self.ep.dual_feasibility_check(r, network).max_residual
            if not dual <= DUAL_FEAS_GATE:
                return f"day {r.day}: dual stationarity residual {dual:g}"
        return None


class Ccg:
    """ccg_solve on the fixture feeder at a seeded demand scale."""

    count_ops = 12

    def __init__(self, ep, seed, workdir):
        self.ep = ep
        self.seed = seed
        self.network = ep.manhattan7()
        self.days = ep.typical_days()

    def make(self, i):
        kind, bound, band = _schedule(i)
        rng = np.random.default_rng([self.seed, 3, i])
        scale = 10.0 ** (3.0 * (band + rng.uniform()) / 12.0)
        return (self.days.scaled(scale),
                self.ep.default_risk_config(_alpha(kind, rng), bound))

    def call(self, x):
        return self.ep.ccg_solve(self.network, *x)

    def check(self, x, tq):
        bad = _failed(tq)
        if bad:
            return bad
        days, config = x
        direct = self.ep.robust_premium_bilevel(days, config, tq.tariff_cents)
        err = _relerr(tq.premium, direct.premium)
        if not err <= PREMIUM_RTOL:
            return f"ccg premium off the bilevel quote by {err:g}"
        trace = tq.ccg_trace
        for prev, cur in zip(trace, trace[1:]):
            for bound in ("lower_bound", "upper_bound"):
                a, b = getattr(prev, bound), getattr(cur, bound)
                if b < a - 1e-9 * (1.0 + abs(a)):
                    return f"{bound} falls from {a!r} to {b!r}"
        if not trace or trace[-1].relative_gap > 1e-6:
            return "ccg trace does not end converged"
        if not tq.quote.kkt_max_residual <= KKT_GATE:
            return f"KKT residual {tq.quote.kkt_max_residual:g}"
        return None


def headline(bundle):
    """Premiums (cents) a case run reports, keyed as in the stored
    reference."""
    out = {"analytic": bundle.analytic.premium}
    for (alpha, bound), quote in bundle.quotes.items():
        out[f"robust alpha={alpha:g} bound={bound}"] = quote.premium
    return out


class Case:
    """run_case over the default matrix on the built-in fixtures.

    The input is the published case itself, so the seed does not change
    it; each op writes into a fresh directory that the check removes.
    """

    count_ops = 1

    def __init__(self, ep, seed, workdir):
        self.ep = ep
        self.workdir = workdir
        self.first_outputs = None
        with open(REFERENCE_CASE) as fh:
            self.reference = json.load(fh)["premiums_cents"]

    def make(self, i):
        os.makedirs(self.workdir, exist_ok=True)
        return tempfile.mkdtemp(prefix="case-", dir=self.workdir)

    def call(self, out_dir):
        return self.ep.run_case(self.ep.CaseConfig(out_dir=out_dir))

    def check(self, out_dir, bundle):
        try:
            return self._check(out_dir, bundle)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, out_dir, bundle):
        bad = _failed(bundle)
        if bad:
            return bad
        with open(os.path.join(out_dir, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        if manifest["completed"] != STAGES or manifest["failed"] is not None:
            return f"manifest lists {manifest['completed']}"
        outputs = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                outputs[name] = fh.read()
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            return "outputs differ from the run's first op"
        trend = self.ep.check_sweep_monotonicity(bundle.sweep)
        if trend:
            return f"sweep orderings violated: {trend[0]}"
        got = headline(bundle)
        if got.keys() != self.reference.keys():
            return "headline premiums cover other cells than the reference"
        for key, want in self.reference.items():
            if not _relerr(got[key], want) <= PREMIUM_RTOL:
                return f"{key} premium {got[key]!r} vs reference {want!r}"
        return None


WORKLOADS = {"case": Case, "quote": Quote, "grid": Grid, "ccg": Ccg}
