"""Reference fixtures: transition parameters, published benchmark values, and
the SYNTHETIC seven-bus case network with its typical charging days.

The Weibull transition parameters and the sojourn/steady-state benchmark table
come from published incident statistics for ICT infrastructure. The published
sojourn column for the four single-exit states matches scale/shape rather than
the Weibull mean scale*Gamma(1+1/shape); the package computes the correct mean
and reports the difference in the case-run discrepancy log instead of forcing
agreement. See `published_reference_notes`.

The network and demand fixtures are SYNTHETIC: the real feeder data and the
city charging profiles behind the published case study are not public, so
`manhattan7` and `typical_days` keep only the published skeleton (seven buses,
load at #3-#6, generation at #1, #2, #5, #7, costs 15 and 10 $/MWh at #2 and
#5, boundary buses priced by an hourly series) and fill in deterministic
shapes chosen so that the documented qualitative behavior is exercised:
hourly tariff variation only under binding limits, congestion ramping in as
charging demand scales up through 1000x, infeasibility around 2000x.
"""

from __future__ import annotations

import numpy as np

from .analytic import PolicyFactors, TypicalDaySet
from .cvar import PolicyBox, RiskConfig
from .dcopf import HOURS, Generator, Line, Network
from .smp import SmpModel, WeibullDist

# Published Weibull parameters (shape beta, scale alpha in hours) for the six
# attack-chain transitions.
REFERENCE_TRANSITION_PARAMS = {
    "GI": (2.0675, 18.8178),
    "ID": (1.9293, 16.0712),
    "IF": (0.7000, 400.000),
    "DC": (1.5698, 18.4858),
    "CG": (1.3816, 15.7033),
    "FG": (0.6783, 13.4487),
}

# Published benchmark table: sojourn times (hours) and time-stationary state
# probabilities, state order G, I, D, C, F.
PUBLISHED_SOJOURN = np.array([9.1016, 13.3431, 11.7754, 11.3659, 19.8271])
PUBLISHED_STEADY_STATE = np.array([0.2010, 0.2943, 0.2366, 0.2283, 0.03980])
PUBLISHED_P_ATTACK = 0.03980


def reference_smp_model():
    return SmpModel(transitions={
        k: WeibullDist(shape=b, scale=a)
        for k, (b, a) in REFERENCE_TRANSITION_PARAMS.items()
    })


def published_embedded_stationary():
    """Embedded-chain stationary vector implied by the published table.

    The published probability column is time-stationary (time-weighted), so the
    embedded vector is recovered as p_s proportional to P_s / T_s.
    """
    p = PUBLISHED_STEADY_STATE / PUBLISHED_SOJOURN
    return p / p.sum()


def published_reference_notes(reference_run=None):
    """Computed-vs-published discrepancies, for the case-run report.

    reference_run is (chain, result) of run_chain on the run's own model;
    by default the reference model's chain is run."""
    if reference_run is None:
        from .smp import run_chain  # local import keeps module import light

        reference_run = run_chain(reference_smp_model())
    chain, result = reference_run
    # scale/shape for the four single-exit states; state I (competing exits)
    # has no such shortcut, its published value matches the correct integral.
    shortcut = np.array([
        REFERENCE_TRANSITION_PARAMS["GI"][1] / REFERENCE_TRANSITION_PARAMS["GI"][0],
        np.nan,
        REFERENCE_TRANSITION_PARAMS["DC"][1] / REFERENCE_TRANSITION_PARAMS["DC"][0],
        REFERENCE_TRANSITION_PARAMS["CG"][1] / REFERENCE_TRANSITION_PARAMS["CG"][0],
        REFERENCE_TRANSITION_PARAMS["FG"][1] / REFERENCE_TRANSITION_PARAMS["FG"][0],
    ])
    return {
        "computed_sojourn": result.sojourn,
        "published_sojourn": PUBLISHED_SOJOURN,
        "scale_over_shape": shortcut,
        "computed_steady_state": result.steady_state,
        "published_steady_state": PUBLISHED_STEADY_STATE,
        "computed_p_attack": result.p_attack,
        "p_attack_with_published_sojourn": float(
            (chain.stationary * PUBLISHED_SOJOURN)[4]
            / (chain.stationary @ PUBLISHED_SOJOURN)),
        "published_p_attack": PUBLISHED_P_ATTACK,
    }


DAY_IDS = ("weekday-a", "weekday-b", "weekend-a", "weekend-b")


def _daily_shape(lag, floor):
    """Smooth 24-hour load shape in [floor, 1], peaking at hour lag+12."""
    t = np.arange(HOURS)
    hump = 0.5 * (1.0 - np.cos(2.0 * np.pi * (t - lag) / HOURS))
    return floor + (1.0 - floor) * hump


def boundary_price_series():
    """SYNTHETIC hourly boundary prices ($/MWh) for buses #1 and #7.

    Both stay above the 15 $/MWh internal unit so the merit order is
    10, then 15, then the boundary, and they differ so congested hours
    pick a direction.
    """
    t = np.arange(HOURS)
    s1 = 19.4 + 7.2 * 0.5 * (1.0 - np.cos(2.0 * np.pi * (t - 2) / HOURS))
    s7 = 18.9 + 9.3 * 0.5 * (1.0 - np.cos(2.0 * np.pi * (t - 4) / HOURS))
    return s1, s7


def manhattan7(boundary_series=None):
    """SYNTHETIC seven-bus chain network for the case study.

    Buses 1-7 in a chain; load at #3-#6, generation at #1, #2, #5, #7
    with costs (hourly series, 15, 10, hourly series) $/MWh; charging
    station at bus #4. The two line limits adjacent to bus #4 cap its
    import at 75.2 MW: every scale through 1000x of the fixture charging
    demand stays servable while 2000x is not, and the binding pattern
    moves the bus-#4 price from the flat 10/15 merit-order range onto
    the boundary series as the scale grows.
    """
    if boundary_series is None:
        boundary_series = boundary_price_series()
    s1, s7 = boundary_series

    lines = (
        Line(1, 2, 0.08, 120.0),
        Line(2, 3, 0.06, 80.0),
        Line(3, 4, 0.05, 48.3),
        Line(4, 5, 0.05, 26.9),
        Line(5, 6, 0.07, 40.0),
        Line(6, 7, 0.09, 90.0),
    )
    generators = (
        Generator(bus=1, cost=s1, capacity=100.0),
        Generator(bus=2, cost=15.0, capacity=40.0),
        Generator(bus=5, cost=10.0, capacity=20.0),
        Generator(bus=7, cost=s7, capacity=100.0),
    )

    day_factor = dict(zip(DAY_IDS, (1.0, 0.94, 0.81, 0.86)))
    bus_peak = {3: 9.2, 4: 8.6, 5: 12.4, 6: 7.8}   # MW
    bus_lag = {3: 2, 4: 3, 5: 4, 6: 1}
    base_demand = {
        day: {b: bus_peak[b] * fac * _daily_shape(bus_lag[b], 0.42)
              for b in sorted(bus_peak)}
        for day, fac in day_factor.items()
    }
    return Network(buses=tuple(range(1, 8)), lines=lines,
                   generators=generators, base_demand=base_demand,
                   evcs_bus=4)


def typical_days():
    """SYNTHETIC four-day charging profile set (kW), likelihoods summing
    to one.

    All four days share one canonical hourly shape (a morning shoulder
    plus an evening peak, floored at 18% of peak) and differ only in
    their peak level. Exact proportionality is deliberate: it keeps the
    ranking of the days by net cost independent of the charging-price
    response, so the risk-averse price program tightens monotonically as
    the tail level alpha shrinks instead of letting probability mass
    migrate between structurally different days."""
    t = np.arange(HOURS, dtype=float)
    s = (0.52 * np.exp(-0.5 * ((t - 8.2) / 2.1) ** 2)
         + np.exp(-0.5 * ((t - 18.4) / 3.0) ** 2))
    u = 0.18 + 0.82 * (s / s.max())
    peaks = np.array([52.3, 47.1, 39.4, 44.6])
    return TypicalDaySet(likelihood=np.array([0.3, 0.25, 0.25, 0.2]),
                         demand_kw=peaks[:, None] * u,
                         day_ids=DAY_IDS)


def default_policy():
    """Point estimates of the policy factors used throughout the case
    study: P(A) = 0.0398, full risk transfer, 30% profit loading,
    kappa = 0.25 with one prior attack, 3 $/kW outage penalty."""
    return PolicyFactors(p_attack=0.0398, loading=0.3, risk_share=1.0,
                         history_coeff=0.25, attack_count=1, penalty=3.0)


def default_policy_box():
    """Published uncertainty box around the default policy factors."""
    return PolicyBox(p_attack=(0.03582, 0.04378),
                     loading=(0.25, 0.35),
                     history_coeff=(0.2, 0.3))


def default_risk_config(alpha=1.0, bound_mode="expected"):
    return RiskConfig(alpha=alpha, policy_box=default_policy_box(),
                      policy=default_policy(), bound_mode=bound_mode)
