"""DC optimal power flow with distribution locational marginal prices.

Each hour of a typical day is an independent LP over (dispatch g, angles
theta, flows f):

    min   sum_i C_i g_i
    s.t.  sum_{i at b} g_i + inflow_b - outflow_b = d_b      (balance, per bus)
          z_l f_l - theta_o(l) + theta_r(l) = 0              (flow, per line)
          0 <= g <= Gcap,   -Fcap <= f <= Fcap,   theta_ref = 0

Every hour shares one constraint block, built once per network; only the
bus demand (the right-hand side) and the generator costs change. A day's
24 hour-separable LPs are stacked on the diagonal of one LP, whose matrix
and bounds are also built once per network, and solved in a single call.
The solver certifies that LP once, hour by hour, so each hour is still
gated at its own scale as if it had been solved alone. Only a day that
cannot be served is solved again hour by hour, to name the first hour no
dispatch can serve.

The day LPs of a network differ in their right-hand sides alone, so
:func:`per_day_dlmps` keeps one HiGHS model for the length of the call:
each day after the first resets only its balance rows' bounds and starts
from the previous day's final basis (Huangfu & Hall's dual simplex hot
start). The model lives only for that call, so results depend on the
inputs alone; a warm-started day that misses any gate is solved again
cold before an error is raised, and an infeasible one goes straight to
the hourly search.

The DLMP at a bus is the sensitivity dual of its balance row. The remaining
duals are reported in the sign convention of the stationarity identities
checked by :func:`dual_feasibility_check`:

    alpha_up - alpha_lo - lambda_{b(i)} = -C_i        (per generator)
    xi_l + delta_up - delta_lo + lambda_o - lambda_r = 0   (per line)
    sum_{l out of b} xi_l/z_l - sum_{l into b} xi_l/z_l = 0  (per bus)

with xi_l = -z_l times the flow-row dual, and all of alpha/delta nonnegative.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .backend import SENSE_EQ, LinearProgram, LpModel, solve_lp, worst_residual
from .units import dollars_per_mwh_to_cents_per_kwh, kw_to_mw

HOURS = 24
BALANCE_GATE = 1e-7   # MW, a day's worst bus-hour balance violation
DUALITY_GATE = 1e-8   # a day's relative strong-duality gap


class DcopfError(ValueError):
    """Malformed network or infeasible dispatch."""


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: float
    limit: float


@dataclass(frozen=True)
class Generator:
    bus: int
    cost: object  # $/MWh, scalar or a 24-vector hourly series
    capacity: float

    def cost_profile(self):
        c = np.asarray(self.cost, dtype=float)
        if c.ndim == 0:
            return np.full(HOURS, float(c))
        if c.shape != (HOURS,):
            raise DcopfError(
                f"generator cost series must have {HOURS} entries, got {c.shape}")
        return c


@dataclass(frozen=True)
class Network:
    """Radial or meshed network with one reference bus (the lowest-numbered)."""

    buses: tuple
    lines: tuple
    generators: tuple
    base_demand: dict  # day -> {bus: 24-vector of MW}
    evcs_bus: int

    def __post_init__(self):
        buses = tuple(sorted(self.buses))
        object.__setattr__(self, "buses", buses)
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(set(buses)) != len(buses) or not buses:
            raise DcopfError("bus ids must be unique and nonempty")
        bus_set = set(buses)
        for ln in self.lines:
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise DcopfError(f"line {ln} references unknown bus")
            if not (np.isfinite(ln.reactance) and ln.reactance > 0):
                raise DcopfError(
                    f"line {ln} must have finite positive reactance")
            if not (np.isfinite(ln.limit) and ln.limit > 0):
                raise DcopfError(
                    f"line {ln} must have finite positive flow limit")
        for i, g in enumerate(self.generators):
            if g.bus not in bus_set:
                raise DcopfError(f"generator {g} references unknown bus")
            if not (np.isfinite(g.capacity) and g.capacity >= 0):
                raise DcopfError(
                    f"generator {i} at bus {g.bus} must have finite capacity "
                    f">= 0, got {g.capacity!r}")
            _check_finite(g.cost_profile(),
                          f"cost of generator {i} at bus {g.bus}")
        if self.evcs_bus not in bus_set:
            raise DcopfError(f"EVCS bus {self.evcs_bus} not in network")
        for day, by_bus in self.base_demand.items():
            for b, series in by_bus.items():
                if b not in bus_set:
                    raise DcopfError(f"demand day {day} references unknown bus {b}")
                series = np.asarray(series, dtype=float)
                if series.shape != (HOURS,):
                    raise DcopfError(
                        f"demand series for day {day} bus {b} must have "
                        f"{HOURS} entries")
                _check_finite(series, f"demand of day {day!r} at bus {b}")
        if not self._connected():
            raise DcopfError("network graph is not connected")

    def _connected(self):
        adj = {b: set() for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        seen = {self.buses[0]}
        stack = [self.buses[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.buses)

    @property
    def reference_bus(self):
        return self.buses[0]

    def bus_index(self):
        return {b: i for i, b in enumerate(self.buses)}

    def demand_matrix(self, day):
        """(n_buses, 24) MW demand for one typical day."""
        if day not in self.base_demand:
            raise DcopfError(f"unknown day {day!r}")
        idx = self.bus_index()
        d = np.zeros((len(self.buses), HOURS))
        for b, series in self.base_demand[day].items():
            d[idx[b]] += np.asarray(series, dtype=float)
        return d

    @property
    def days(self):
        return tuple(sorted(self.base_demand))

    @cached_property
    def _hour_block(self):
        """The constraint block shared by every hour of every day.

        Cached in the instance dict, which the frozen dataclass leaves
        writable; every field it reads is immutable after validation.
        """
        idx = self.bus_index()
        n_g, n_b, n_l = len(self.generators), len(self.buses), len(self.lines)
        gen_bus = np.array([idx[g.bus] for g in self.generators], dtype=int)
        frm = np.array([idx[ln.from_bus] for ln in self.lines], dtype=int)
        to = np.array([idx[ln.to_bus] for ln in self.lines], dtype=int)
        z = np.array([ln.reactance for ln in self.lines], dtype=float)
        fcap = np.array([ln.limit for ln in self.lines], dtype=float)
        gcap = np.array([g.capacity for g in self.generators], dtype=float)
        f_col = n_g + n_b + np.arange(n_l)
        flow_row = n_b + np.arange(n_l)
        one = np.ones(n_l)
        # balance rows: own units, inflow at the receiving bus, outflow at
        # the sending bus; flow rows: z_l f_l - theta_o + theta_r
        rows = np.concatenate([gen_bus, to, frm, flow_row, flow_row, flow_row])
        cols = np.concatenate([np.arange(n_g), f_col, f_col, f_col,
                               n_g + frm, n_g + to])
        vals = np.concatenate([np.ones(n_g), one, -one, z, -one, one])
        lower = np.concatenate([np.zeros(n_g), np.full(n_b, -np.inf), -fcap])
        upper = np.concatenate([gcap, np.full(n_b, np.inf), fcap])
        lower[n_g] = upper[n_g] = 0.0  # angle of the reference bus, buses[0]
        matrix = sp.csr_matrix((vals, (rows, cols)),
                               shape=(n_b + n_l, n_g + n_b + n_l))
        return HourBlock(
            matrix=matrix, balance=matrix[:n_b], lower=lower, upper=upper,
            cost=np.array([g.cost_profile() for g in self.generators]
                          ).reshape(n_g, HOURS),
            reactance=z, gen_bus=gen_bus, line_from=frm, line_to=to)


def _check_finite(values, what):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DcopfError(
            f"{what} must be finite, hour {bad[0] + 1} is "
            f"{float(values[bad[0]])!r}")


@dataclass(frozen=True)
class HourBlock:
    """One hour's LP over [g | theta | f] with rows [balance | flow].

    The right-hand side is the bus demand over the balance rows and zero
    over the flow rows; the hour's cost is ``cost[:, t]`` on g and zero on
    theta and f.
    """

    matrix: sp.csr_matrix   # (n_bus + n_line, n_gen + n_bus + n_line)
    balance: sp.csr_matrix  # the balance rows of matrix
    lower: np.ndarray
    upper: np.ndarray
    cost: np.ndarray        # (n_gen, 24) $/MWh
    reactance: np.ndarray   # (n_line,)
    gen_bus: np.ndarray     # (n_gen,) bus index of each generator
    line_from: np.ndarray   # (n_line,) bus index of each sending end
    line_to: np.ndarray     # (n_line,) bus index of each receiving end
    _stacks: dict = field(default_factory=dict, repr=False, compare=False)

    def lp(self, demand, cost):
        """The LP of the hours in the columns of demand (n_bus, k) and cost
        (n_gen, k): k copies of the block on the diagonal, hour-major. All
        but the right-hand side is built and validated once per k and
        shared, read-only, as is the cost while it stays the same."""
        k = demand.shape[1]
        n_rows, n_vars = self.matrix.shape
        c = np.zeros((k, n_vars))
        c[:, :cost.shape[0]] = cost.T
        if k not in self._stacks:
            lp = LinearProgram(c.ravel(), sp.kron(sp.identity(k), self.matrix,
                                                  format="csc"),
                               np.full(k * n_rows, SENSE_EQ),
                               np.zeros(k * n_rows), np.tile(self.lower, k),
                               np.tile(self.upper, k))
            for v in (lp.a.data, lp.a.indices, lp.a.indptr, lp.cost,
                      lp.senses, lp.lower, lp.upper):
                v.flags.writeable = False
            self._stacks[k] = lp
        lp = copy.copy(self._stacks[k])
        rhs = np.zeros((k, n_rows))
        rhs[:, :demand.shape[0]] = demand.T
        lp.rhs = rhs.ravel()
        if not np.array_equal(lp.cost, c.ravel()):
            lp.cost = c.ravel()
        return lp


@dataclass(frozen=True)
class DlmpResult:
    """Per-day OPF solution with all duals, in $/MWh and MW."""

    day: object
    dispatch: np.ndarray      # (n_gen, 24) MW
    angles: np.ndarray        # (n_bus, 24) rad
    flows: np.ndarray         # (n_line, 24) MW
    dlmp: np.ndarray          # (n_bus, 24) $/MWh
    alpha_up: np.ndarray      # (n_gen, 24) >= 0
    alpha_lo: np.ndarray      # (n_gen, 24) >= 0
    xi: np.ndarray            # (n_line, 24)
    delta_up: np.ndarray      # (n_line, 24) >= 0
    delta_lo: np.ndarray      # (n_line, 24) >= 0
    c_ll: float               # generation cost over the day, $
    c_dll: float              # dual objective over the day, $
    balance_residual: float   # max |balance violation| MW over bus-hours

    @property
    def duality_gap(self):    # relative, |C_LL - C_DLL| / (1 + |C_LL|)
        return abs(self.c_ll - self.c_dll) / (1.0 + abs(self.c_ll))


def solve_dcopf(network: Network, day, evcs_demand_mw=None,
                model: LpModel | None = None):
    """Solve one typical day's OPF and extract DLMPs.

    evcs_demand_mw: optional 24-vector added to the EVCS bus demand.
    model: optional backend.LpModel that holds the network's day LP from
    one day's solve to the next day's (see :func:`per_day_dlmps`).
    """
    demand = network.demand_matrix(day)
    if evcs_demand_mw is not None:
        ev = np.asarray(evcs_demand_mw, dtype=float)
        if ev.shape != (HOURS,):
            raise DcopfError(f"EVCS demand must have {HOURS} hourly entries")
        _check_finite(ev,
                      f"day {day!r}: EVCS demand at bus {network.evcs_bus}")
        if np.any(ev < 0):
            raise DcopfError("EVCS demand must be nonnegative")
        demand[network.bus_index()[network.evcs_bus]] += ev

    block = network._hour_block
    warm = model is not None and model.basis is not None
    res = solve_lp(block.lp(demand, block.cost), blocks=HOURS, model=model)
    if res.status == "infeasible":
        raise _first_binding_hour(block, day, demand)
    try:
        return _day_result(network, block, day, demand, res)
    except DcopfError:
        if not warm:
            raise
        model.basis = None  # the retry builds a fresh model, cold
        return solve_dcopf(network, day, evcs_demand_mw, model)


def _day_result(network, block, day, demand, res):
    """The DlmpResult of a solved day; DcopfError if it misses a gate."""
    if res.x is None:
        raise DcopfError(f"day {day!r}: solver status {res.status}")
    hours = res.certificate  # solve_lp's gates, each hour at its own scale
    failed = np.flatnonzero(~hours.lp_optimal())
    if failed.size:
        t = failed[0]
        raise DcopfError(
            f"day {day!r} hour {t + 1}: solution misses the optimality gates "
            f"(primal {hours.primal_infeasibility[t]:g}, stationarity "
            f"{hours.dual_infeasibility[t]:g}, gap {hours.duality_gap[t]:g})")

    n_g, n_b = len(network.generators), len(network.buses)
    x = res.x.reshape(HOURS, -1).T.copy()
    y = res.duals.reshape(HOURS, -1).T.copy()
    lo = res.reduced_lower.reshape(HOURS, -1).T.copy()
    up = -res.reduced_upper.reshape(HOURS, -1).T.copy()
    dispatch, angles, flows = np.split(x, [n_g, n_g + n_b])
    dlmp = y[:n_b]
    xi = -block.reactance[:, None] * y[n_b:]
    alpha_up, alpha_lo = up[:n_g], lo[:n_g]
    delta_up, delta_lo = up[n_g + n_b:], lo[n_g + n_b:]

    gcap, fcap = block.upper[:n_g], block.upper[n_g + n_b:]
    c_ll = float(hours.objective.sum())
    c_dll = float(np.sum(dlmp * demand) - gcap @ alpha_up.sum(axis=1)
                  - fcap @ (delta_up + delta_lo).sum(axis=1))
    residual = float(np.max(np.abs(block.balance @ x - demand)))
    result = DlmpResult(
        day=day, dispatch=dispatch, angles=angles, flows=flows, dlmp=dlmp,
        alpha_up=alpha_up, alpha_lo=alpha_lo, xi=xi, delta_up=delta_up,
        delta_lo=delta_lo, c_ll=c_ll, c_dll=c_dll, balance_residual=residual)
    if not residual <= BALANCE_GATE:
        raise DcopfError(
            f"day {day!r}: power balance residual {residual:g} exceeds 1e-7")
    if not result.duality_gap <= DUALITY_GATE:
        raise DcopfError(
            f"day {day!r}: strong duality violated: C_LL={c_ll!r}, "
            f"C_DLL={c_dll!r}")
    return result


def _first_binding_hour(block, day, demand):
    """DcopfError naming the first hour of an infeasible day, found by
    solving its hours one at a time, in order."""
    for t in range(HOURS):
        lp = block.lp(demand[:, t:t + 1], block.cost[:, t:t + 1])
        if solve_lp(lp).status == "infeasible":
            return DcopfError(
                f"day {day!r}: demand not servable, first binding hour "
                f"{t + 1} (demand {demand[:, t].sum():.3f} MW)")
    return DcopfError(
        f"day {day!r}: the stacked day LP is infeasible, but each hour "
        f"solves alone")


@dataclass(frozen=True)
class DualCheckReport:
    """Max stationarity residuals by constraint family."""

    gen_cost_balance: float   # alpha_up - alpha_lo - lambda_bus + C = 0
    line_dual_balance: float  # xi + delta_up - delta_lo + lambda_o - lambda_r
    bus_dual_balance: float   # per-bus sum of xi/z in minus out

    @property
    def max_residual(self):
        return worst_residual((self.gen_cost_balance,
                               self.line_dual_balance, self.bus_dual_balance))


def dual_feasibility_check(result: DlmpResult, network: Network):
    """Evaluate the three dual stationarity families on a solved day."""
    block, lam = network._hour_block, result.dlmp
    gen = result.alpha_up - result.alpha_lo - lam[block.gen_bus] + block.cost
    line = (result.xi + result.delta_up - result.delta_lo
            + lam[block.line_from] - lam[block.line_to])
    # xi/z out of the sending bus and into the receiving one, line by line
    q = result.xi / block.reactance[:, None]
    per_bus = np.zeros(lam.shape)
    np.add.at(per_bus, np.column_stack([block.line_from, block.line_to]),
              np.stack([q, -q], axis=1))
    return DualCheckReport(*map(_max_abs, (gen, line, per_bus)))


def _max_abs(values):
    """Largest magnitude in values, 0.0 when empty."""
    return float(np.abs(values).max(initial=0.0))


def per_day_dlmps(network: Network, days):
    """Solve every typical day with its EVCS demand; list of DlmpResult.

    One LpModel holds the day LP for the length of the call."""
    with LpModel() as model:
        return [solve_dcopf(network, day, kw_to_mw(days.demand_kw[s]), model)
                for s, day in enumerate(days.day_ids)]


def evcs_tariff_cents(network: Network, results):
    """(S, 24) per-day tariff at the EVCS bus in cents/kWh, read from the
    per_day_dlmps results of that network."""
    row = network.bus_index()[network.evcs_bus]
    return np.array([dollars_per_mwh_to_cents_per_kwh(r.dlmp[row])
                     for r in results])
