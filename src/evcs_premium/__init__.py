"""Cyber-insurance premium engine for EV charging stations.

Submodules:
    smp       semi-Markov attack-probability estimation
    backend   one HiGHS adapter for LPs and the reference QP, with
              sensitivity duals
    dcopf     DC optimal power flow and distribution locational prices
    analytic  closed-form bi-level premium under a predetermined tariff
    cvar      risk-averse (CVaR) pricing and the robust bi-level premium
    trilevel  tri-level pricing under an optimized tariff (direct, and
              one certified column-and-constraint generation round)
    dataio    CSV/JSON loaders and writers
    fixtures  reference parameters and the synthetic case network
    pipeline  end-to-end case runs and report emission
    cli       command-line entry points

The names most workflows touch are re-exported here; everything else is
reachable through its submodule.
"""

from . import backend  # imported first: it names missing HiGHS bindings
from .analytic import (
    AnalyticError,
    PolicyFactors,
    PricingInfeasibleError,
    TypicalDaySet,
    claim_loss,
    closed_form_premium,
    expected_breakeven_cost,
    sensitivity_sweep,
)
from .cvar import (
    PolicyBox,
    PremiumQuote,
    RiskConfig,
    RiskError,
    RiskInfeasibleError,
    cvar_sup,
    kkt_report,
    robust_premium_bilevel,
    solve_risk_averse_evcs,
)
from .dcopf import (
    DcopfError,
    Generator,
    Line,
    Network,
    dual_feasibility_check,
    evcs_tariff_cents,
    per_day_dlmps,
    solve_dcopf,
)
from .fixtures import (
    default_policy,
    default_risk_config,
    manhattan7,
    reference_smp_model,
    typical_days,
)
from .pipeline import CaseConfig, CaseError, run_case
from .smp import (
    ConfidenceBox,
    SmpError,
    SmpModel,
    WeibullDist,
    attack_probability,
    confidence_box,
    fit_weibull,
    relative_box,
    run_chain,
)
from .trilevel import (
    TrilevelError,
    TrilevelQuote,
    ccg_solve,
    check_sweep_monotonicity,
    demand_scaling_sweep,
    solve_trilevel_direct,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticError", "CaseConfig", "CaseError", "ConfidenceBox",
    "DcopfError", "Generator", "Line", "Network",
    "PolicyBox", "PolicyFactors", "PremiumQuote", "PricingInfeasibleError",
    "RiskConfig", "RiskError", "RiskInfeasibleError", "SmpError", "SmpModel",
    "TrilevelError", "TrilevelQuote", "TypicalDaySet",
    "WeibullDist", "attack_probability", "ccg_solve",
    "check_sweep_monotonicity", "claim_loss", "closed_form_premium",
    "confidence_box", "cvar_sup", "default_policy", "default_risk_config",
    "demand_scaling_sweep", "dual_feasibility_check", "evcs_tariff_cents",
    "expected_breakeven_cost", "fit_weibull", "kkt_report", "manhattan7",
    "per_day_dlmps", "reference_smp_model",
    "relative_box", "robust_premium_bilevel", "run_case", "run_chain",
    "sensitivity_sweep", "solve_dcopf", "solve_risk_averse_evcs",
    "solve_trilevel_direct", "typical_days",
]
