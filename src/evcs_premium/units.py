"""Unit conversions shared across the network and insurance layers.

The network layer works in MW and $/MWh. The insurance layer works in kW,
cents/kWh and cents/kW. Every crossing between the two goes through this
module so the factors live in exactly one place.
"""

from __future__ import annotations

import numpy as np

CENTS_PER_DOLLAR = 100.0
KW_PER_MW = 1000.0


def dollars_per_mwh_to_cents_per_kwh(price):
    """$/MWh -> cents/kWh. 1 $/MWh = 100 cents / 1000 kWh = 0.1 cents/kWh."""
    return np.asarray(price, dtype=float) / 10.0


def kw_to_mw(power):
    return np.asarray(power, dtype=float) / KW_PER_MW


def dollars_per_kw_to_cents_per_kw(price):
    return np.asarray(price, dtype=float) * CENTS_PER_DOLLAR
