"""Closed-form premium under a predetermined tariff.

The insurer-EVCS game collapses to a closed form when the station is priced
at its expectation (no risk tilt). Writing

    C = P(A) * gamma * (1 + kappa * A_h) / (1 - r)
    M = P(A) * (gamma - 1) + 1

the station's break-even revenue requirement plus the insurer's binding
claim-loss constraint pin the premium and the charging schedule:

    x       = C / (M - C) * [P(A) rho_c sum_t D_t + (1 - P(A)) R_u]
    lam_c_t = 0.5 * omega * M * D_t
    omega   = 2 [P(A) rho_c sum D + (1 - P(A)) R_u + x_hat sum D] / (M^2 sum D_t^2)

where D_t is the likelihood-weighted demand, R_u the likelihood-weighted
tariff revenue sum_s phi^s sum_t d_t^s lam_u_t^s, rho_c the outage penalty in
cents per kW accruing per attacked hour, and x_hat = x / sum_t D_t.

Money flows here are in cents (demand in kW, prices in cents/kWh), so the
premium identity x_hat * sum_t D_t = x holds exactly in the reported units;
a dollars view is provided for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .units import dollars_per_kw_to_cents_per_kw


class AnalyticError(ValueError):
    """Domain violations in the closed-form pricing chain."""


class PricingInfeasibleError(AnalyticError):
    """The closed form has no finite nonnegative premium (M - C <= 0)."""


@dataclass(frozen=True)
class PolicyFactors:
    """Insurer base-rate parameters.

    p_attack: attack probability P(A) in [0, 1]
    loading: profit loading factor r in [0, 1)
    risk_share: insured fraction gamma in [0, 1]
    history_coeff: attack-history coefficient kappa >= 0
    attack_count: historical attack count A_h (nonnegative integer)
    penalty: outage penalty rho in $/kW, accrued per attacked hour
    """

    p_attack: float
    loading: float
    risk_share: float
    history_coeff: float
    attack_count: int
    penalty: float

    def __post_init__(self):
        for name in POLICY_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise AnalyticError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.p_attack <= 1.0:
            raise AnalyticError(f"p_attack must be in [0,1], got {self.p_attack}")
        if not 0.0 <= self.loading < 1.0:
            raise AnalyticError(f"loading must be in [0,1), got {self.loading}")
        if not 0.0 <= self.risk_share <= 1.0:
            raise AnalyticError(
                f"risk_share must be in [0,1], got {self.risk_share}")
        if self.history_coeff < 0:
            raise AnalyticError(
                f"history_coeff must be >= 0, got {self.history_coeff}")
        if self.attack_count < 0 or self.attack_count != int(self.attack_count):
            raise AnalyticError(
                f"attack_count must be a nonnegative integer, got {self.attack_count}")
        if self.penalty < 0:
            raise AnalyticError(f"penalty must be >= 0, got {self.penalty}")

    def penalty_cents_per_kw(self):
        return dollars_per_kw_to_cents_per_kw(self.penalty)


POLICY_FIELDS = tuple(f.name for f in fields(PolicyFactors))


@dataclass(frozen=True)
class TypicalDaySet:
    """S typical days: likelihoods phi^s and hourly demand d_t^s in kW."""

    likelihood: np.ndarray   # (S,)
    demand_kw: np.ndarray    # (S, T)
    day_ids: tuple = None

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.likelihood, dtype=float))
        d = np.atleast_2d(np.asarray(self.demand_kw, dtype=float))
        object.__setattr__(self, "likelihood", phi)
        object.__setattr__(self, "demand_kw", d)
        for name, arr in (("likelihoods", phi), ("demand", d)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                at = tuple(int(i) for i in bad[0])
                raise AnalyticError(
                    f"{name} must be finite, got {float(arr[at])!r} at "
                    f"index {at[0] if len(at) == 1 else at}")
        if d.shape[0] != phi.size:
            raise AnalyticError(
                f"{phi.size} likelihoods but {d.shape[0]} demand rows")
        if np.any(phi < 0):
            raise AnalyticError("likelihoods must be nonnegative")
        if abs(phi.sum() - 1.0) > 1e-9:
            raise AnalyticError(
                f"likelihoods must sum to 1, got {phi.sum()!r}")
        if np.any(d < 0):
            raise AnalyticError("demand must be nonnegative")
        if self.day_ids is None:
            object.__setattr__(self, "day_ids", tuple(range(phi.size)))
        elif len(self.day_ids) != phi.size:
            raise AnalyticError("day_ids length must match likelihoods")

    @property
    def n_days(self):
        return self.likelihood.size

    @property
    def n_hours(self):
        return self.demand_kw.shape[1]

    @property
    def weighted_demand(self):
        """D_t = sum_s phi^s d_t^s (kW)."""
        return self.likelihood @ self.demand_kw

    def scaled(self, factor):
        if factor <= 0:
            raise AnalyticError("scale factor must be positive")
        return TypicalDaySet(self.likelihood, factor * self.demand_kw,
                             self.day_ids)


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form pricing output.

    premium: total premium x in cents (x = x_hat * sum_t D_t exactly)
    per_kwh: premium per kWh of weighted demand, cents/kWh
    charging_price: schedule lam_c_t in cents/kWh, proportional to D_t
    omega: break-even multiplier of the charging-price stationarity
    composite_c: the dimensionless claim-loss factor C
    """

    premium: float
    per_kwh: float
    charging_price: np.ndarray
    omega: float
    composite_c: float

    @property
    def premium_dollars(self):
        return self.premium / 100.0


def composite_C(policy: PolicyFactors):
    """C = P(A) gamma (1 + kappa A_h) / (1 - r)."""
    if policy.loading >= 1.0:
        raise AnalyticError("loading factor r must be < 1")
    return (policy.p_attack * policy.risk_share
            * (1.0 + policy.history_coeff * policy.attack_count)
            / (1.0 - policy.loading))


def premium_multiplier_M(policy: PolicyFactors):
    """M = P(A)(gamma - 1) + 1, the demand-revenue multiplier."""
    return policy.p_attack * (policy.risk_share - 1.0) + 1.0


def _tariff_revenue(days: TypicalDaySet, tariff):
    """R_u = sum_s phi^s sum_t d_t^s lam_u_t^s, tariff (T,) or (S, T) c/kWh.

    Every demand-weighted price (tariff or charging price) passes here, so
    a non-finite entry raises, named by day and hour, before any premium."""
    lam_u = np.asarray(tariff, dtype=float)
    if lam_u.ndim == 1 and lam_u.size != days.n_hours:
        raise AnalyticError(
            f"tariff has {lam_u.size} hours, demand has {days.n_hours}")
    if lam_u.ndim != 1 and lam_u.shape != (days.n_days, days.n_hours):
        raise AnalyticError(
            f"per-day tariff shape {lam_u.shape} does not match "
            f"({days.n_days}, {days.n_hours})")
    table = np.atleast_2d(lam_u)
    finite = np.isfinite(table)
    if not finite.all():
        s, t = np.argwhere(~finite)[0]
        day = "every day" if lam_u.ndim == 1 else f"day index {s}"
        raise AnalyticError(f"prices must be finite: {day} hour {t + 1} is "
                            f"{float(table[s, t])!r}")
    if lam_u.ndim == 1:
        return float(days.weighted_demand @ lam_u)
    return float(np.sum(days.likelihood[:, None] * days.demand_kw * lam_u))


def closed_form_premium(policy: PolicyFactors, days: TypicalDaySet, tariff):
    """Premium and charging schedule; tariff in cents/kWh, (T,) or (S, T)."""
    c = composite_C(policy)
    m = premium_multiplier_M(policy)
    if m - c <= 0:
        raise PricingInfeasibleError(
            f"M - C = {m - c!r} <= 0: no finite nonnegative premium")

    d_t = days.weighted_demand
    sum_d = float(d_t.sum())
    rho_c = policy.penalty_cents_per_kw()
    p = policy.p_attack
    r_u = _tariff_revenue(days, tariff)

    base_cost = p * rho_c * sum_d + (1.0 - p) * r_u
    x = c / (m - c) * base_cost
    x_hat = x / sum_d if sum_d > 0 else 0.0

    sum_d2 = float(d_t @ d_t)
    if sum_d2 > 0:
        omega = 2.0 * (base_cost + x_hat * sum_d) / (m * m * sum_d2)
    else:
        omega = 0.0
    lam_c = 0.5 * omega * m * d_t

    return AnalyticSolution(premium=float(x), per_kwh=float(x_hat),
                            charging_price=lam_c, omega=float(omega),
                            composite_c=float(c))


def claim_loss(policy: PolicyFactors, days: TypicalDaySet, charging_price):
    """Insurer claim loss CL = C * sum_s phi^s sum_t d_t^s lam_c_t (cents).

    charging_price may be (T,) shared across days or (S, T) per day.
    """
    c = composite_C(policy)
    return c * _tariff_revenue(days, charging_price)


def expected_breakeven_cost(policy: PolicyFactors, days: TypicalDaySet,
                            tariff, charging_price, x_hat):
    """Expected station cost (cents); zero when the schedule breaks even.

    Cost per day s: sum_t d_t^s [(1-P) lam_u + P rho_c + x_hat - M lam_c].
    """
    p = policy.p_attack
    m = premium_multiplier_M(policy)
    rho_c = policy.penalty_cents_per_kw()
    d_t = days.weighted_demand
    r_u = _tariff_revenue(days, tariff)
    revenue = m * _tariff_revenue(days, charging_price)
    return ((1.0 - p) * r_u + p * rho_c * d_t.sum() + x_hat * d_t.sum()
            - revenue)


_AXES = ("p_attack", "loading", "risk_share", "history_coeff",
         "attack_count")


def sensitivity_sweep(base: PolicyFactors, axis, grid, days: TypicalDaySet,
                      tariff):
    """x_hat along a one-factor grid, other factors held at base values."""
    if axis not in _AXES:
        raise AnalyticError(f"axis must be one of {_AXES}, got {axis!r}")
    grid = np.asarray(grid, dtype=float)
    out = np.empty(grid.size)
    for i, value in enumerate(grid):
        try:
            pol = replace(base, **{axis: value})
        except AnalyticError as exc:
            raise AnalyticError(
                f"{axis} grid point {value!r} outside domain: {exc}") from exc
        out[i] = closed_form_premium(pol, days, tariff).per_kwh
    return out

