"""File formats: typical-day CSV, network/transition/policy JSON, tariffs.

Every emitted CSV goes through one writer, _write_csv: a '#' comment line
naming the content and its units, the column header, then the rows, each
line ended by LF and each cell quoted by the csv module where it holds a
comma, a quote or a line feed; a cell holding a bare carriage return is
refused. Loaders skip comment lines; parse errors name the file
and the offending 1-based row. Floats are written with repr so
re-ingesting an emitted file reproduces the in-memory values exactly, and
JSON is dumped with sorted keys so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .analytic import POLICY_FIELDS, PolicyFactors, TypicalDaySet
from .cvar import PolicyBox, RiskConfig
from .dcopf import Generator, HOURS, Line, Network
from .smp import STATES, SmpModel, TRANSITIONS, WeibullDist


class DataError(ValueError):
    pass


def _write_csv(path, comment, header, rows):
    """comment (a whole '#' line), header, then rows; LF line ends. A cell
    with a carriage return outside a CRLF pair, which the csv module would
    leave unquoted, raises DataError."""
    table = [header, *rows]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    text = buf.getvalue()
    if "\r" in text:
        for cell in (c for row in table for c in row):
            if "\r" in str(cell).replace("\r\n", ""):
                raise DataError(f"{path}: cell {cell!r} holds a bare "
                                "carriage return")
    with open(path, "w", newline="") as fh:
        fh.write(comment + "\n" + text)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, kind):
    """The JSON object in path; DataError naming path for anything else."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise DataError(f"{path}: malformed {kind} document ({exc})") \
            from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: malformed {kind} document (not an object)")
    return doc


def _check_finite(path, rownum, name, value):
    if not np.isfinite(value):
        raise DataError(f"{path} row {rownum}: {name} {value} is not finite")


def _read_csv_rows(path):
    """(header, rows) with rows as (file_row_number, list-of-cells)."""
    out = []
    header = None
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].startswith("#")):
                continue
            if header is None:
                header = [c.strip() for c in row]
            else:
                out.append((i, row))
    if header is None:
        raise DataError(f"{path}: no header row found")
    return header, out


DAYS_HEADER = ["day", "likelihood", "hour", "demand_kw"]
DAYS_COMMENT = ("# typical charging days; units: demand_kw in kW, "
                "likelihood dimensionless, hour in 1..24")


def load_typical_days(path) -> TypicalDaySet:
    """Strict reader for the day,likelihood,hour,demand_kw schema.

    Hours 1..24 must be complete per day, demand nonnegative, and each
    day's likelihood consistent across its rows. Likelihood sums within
    1e-9 of one are renormalized; anything farther is rejected. Days are
    canonicalized in sorted-id order, so row order never matters.
    """
    header, rows = _read_csv_rows(path)
    if header != DAYS_HEADER:
        raise DataError(
            f"{path}: header must be {','.join(DAYS_HEADER)}, "
            f"got {','.join(header)}")
    demand = {}
    likelihood = {}
    for rownum, cells in rows:
        if len(cells) != 4:
            raise DataError(f"{path} row {rownum}: expected 4 cells")
        day = cells[0].strip()
        try:
            phi = float(cells[1])
            hour = int(cells[2])
            d = float(cells[3])
        except ValueError as exc:
            raise DataError(f"{path} row {rownum}: {exc}") from None
        if not 1 <= hour <= HOURS:
            raise DataError(
                f"{path} row {rownum}: hour {hour} outside 1..{HOURS}")
        _check_finite(path, rownum, "likelihood", phi)
        _check_finite(path, rownum, "demand", d)
        if d < 0:
            raise DataError(
                f"{path} row {rownum}: negative demand {d}")
        if phi < 0:
            raise DataError(
                f"{path} row {rownum}: negative likelihood {phi}")
        if day in likelihood and likelihood[day] != phi:
            raise DataError(
                f"{path} row {rownum}: day {day!r} likelihood {phi} "
                f"conflicts with earlier {likelihood[day]}")
        likelihood[day] = phi
        slot = demand.setdefault(day, {})
        if hour in slot:
            raise DataError(
                f"{path} row {rownum}: duplicate hour {hour} for day "
                f"{day!r}")
        slot[hour] = d
    if not demand:
        raise DataError(f"{path}: no data rows")
    for day, slot in demand.items():
        missing = sorted(set(range(1, HOURS + 1)) - set(slot))
        if missing:
            raise DataError(
                f"{path}: day {day!r} missing hours {missing}")
    ids = tuple(sorted(demand))
    phi = np.array([likelihood[day] for day in ids])
    total = phi.sum()
    if abs(total - 1.0) > 1e-9:
        raise DataError(
            f"{path}: likelihoods sum to {total!r}, not 1")
    phi = phi / total
    d = np.array([[demand[day][h] for h in range(1, HOURS + 1)]
                  for day in ids])
    return TypicalDaySet(likelihood=phi, demand_kw=d, day_ids=ids)


def write_typical_days(path, days: TypicalDaySet):
    _write_csv(path, DAYS_COMMENT, DAYS_HEADER, (
        (day, phi, t, d) for day, phi, demand in zip(
            days.day_ids, days.likelihood.tolist(), days.demand_kw.tolist())
        for t, d in enumerate(demand, start=1)))


def load_network(path) -> Network:
    """Network JSON with buses, lines, generators, base_demand, evcs_bus."""
    doc = _read_json(path, "network")
    try:
        buses = tuple(int(b) for b in doc["buses"])
        lines = tuple(Line(from_bus=int(ln["from"]), to_bus=int(ln["to"]),
                           reactance=float(ln["reactance"]),
                           limit=float(ln["limit"]))
                      for ln in doc["lines"])
        gens = []
        for g in doc["generators"]:
            cost = g["cost"]
            cost = (np.asarray(cost, dtype=float) if isinstance(cost, list)
                    else float(cost))
            gens.append(Generator(bus=int(g["bus"]), cost=cost,
                                  capacity=float(g["capacity"])))
        base = {}
        for day, per_bus in doc["base_demand"].items():
            base[day] = {int(b): np.asarray(v, dtype=float)
                         for b, v in per_bus.items()}
        evcs_bus = int(doc["evcs_bus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed network document ({exc})") \
            from None
    return Network(buses=buses, lines=lines, generators=tuple(gens),
                   base_demand=base, evcs_bus=evcs_bus)


def write_network(path, network: Network):
    doc = {
        "buses": list(network.buses),
        "lines": [{"from": ln.from_bus, "to": ln.to_bus,
                   "reactance": ln.reactance, "limit": ln.limit}
                  for ln in network.lines],
        "generators": [
            {"bus": g.bus,
             "cost": (g.cost.tolist() if isinstance(g.cost, np.ndarray)
                      else g.cost),
             "capacity": g.capacity}
            for g in network.generators],
        "base_demand": {
            str(day): {str(bus): vec.tolist()
                       for bus, vec in per_bus.items()}
            for day, per_bus in network.base_demand.items()},
        "evcs_bus": network.evcs_bus,
    }
    _write_json(path, doc)


def load_transitions(path) -> SmpModel:
    """Transition JSON: {"transitions": {"GI": {"shape":..,"scale":..}}}."""
    doc = _read_json(path, "transition")
    try:
        trans = {key: WeibullDist(shape=float(spec["shape"]),
                                  scale=float(spec["scale"]))
                 for key, spec in doc["transitions"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: malformed transition document ({exc})") from None
    return SmpModel(transitions=trans)


def write_transitions(path, model: SmpModel):
    doc = {"transitions": {k: {"shape": model[k].shape,
                               "scale": model[k].scale}
                           for k in TRANSITIONS}}
    _write_json(path, doc)


def _policy_from_doc(doc, origin):
    try:
        return PolicyFactors(**{f: doc[f] for f in POLICY_FIELDS})
    except KeyError as exc:
        raise DataError(f"{origin}: policy document missing {exc}") \
            from None
    except TypeError as exc:
        raise DataError(f"{origin}: malformed policy document ({exc})") \
            from None


def load_policy(path) -> PolicyFactors:
    """Policy JSON carrying exactly the PolicyFactors fields."""
    return _policy_from_doc(_read_json(path, "policy"), path)


def write_policy(path, policy: PolicyFactors):
    doc = {f: getattr(policy, f) for f in POLICY_FIELDS}
    _write_json(path, doc)


def load_risk_config(path, *, alpha=None, bound_mode=None) -> RiskConfig:
    """Policy-box JSON: point factors plus factor intervals.

    Schema: {"policy": {...}, "box": {"p_attack": [lo, hi], "loading":
    [lo, hi], "history_coeff": [lo, hi]}, "alpha": A, "bound_mode": B}.
    alpha and bound_mode keys are optional and overridden by the keyword
    arguments when those are given.
    """
    doc = _read_json(path, "policy-box")
    try:
        policy = doc["policy"]
        box = {k: tuple(doc["box"][k])
               for k in ("p_attack", "loading", "history_coeff")}
        if alpha is None:
            alpha = float(doc.get("alpha", 1.0))
        if bound_mode is None:
            bound_mode = doc.get("bound_mode", "expected")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: malformed policy-box document ({exc})") from None
    return RiskConfig(alpha=alpha, policy_box=PolicyBox(**box),
                      policy=_policy_from_doc(policy, path),
                      bound_mode=bound_mode)


def write_risk_config(path, config: RiskConfig):
    doc = {
        "policy": {f: getattr(config.policy, f) for f in POLICY_FIELDS},
        "box": {"p_attack": list(config.policy_box.p_attack),
                "loading": list(config.policy_box.loading),
                "history_coeff": list(config.policy_box.history_coeff)},
        "alpha": config.alpha,
        "bound_mode": config.bound_mode,
    }
    _write_json(path, doc)


TARIFF_COMMENT = "# station tariff; units: tariff in cents/kWh, hour in 1..24"


def write_tariff(path, tariff, day_ids=None):
    """Tariff CSV: flat (hour,tariff) or per-day (day,hour,tariff)."""
    tar = np.asarray(tariff, dtype=float)
    if tar.ndim == 1:
        _write_csv(path, TARIFF_COMMENT, ["hour", "tariff"],
                   enumerate(tar.tolist(), start=1))
        return
    if day_ids is None:
        day_ids = range(tar.shape[0])
    _write_csv(path, TARIFF_COMMENT, ["day", "hour", "tariff"], (
        (day, t, v) for day, row in zip(day_ids, tar.tolist(), strict=True)
        for t, v in enumerate(row, start=1)))


def load_tariff(path):
    """Returns (tariff, day_ids): (T,) with day_ids None, or (S, T).

    Every hour 1..24 appears once per day with a finite value.
    """
    header, rows = _read_csv_rows(path)
    per_day = header == ["day", "hour", "tariff"]
    if not per_day and header != ["hour", "tariff"]:
        raise DataError(
            f"{path}: tariff header must be hour,tariff or day,hour,tariff")
    col = 1 if per_day else 0  # the hour column
    table = {}
    for rownum, cells in rows:
        try:
            day = cells[0].strip() if per_day else None
            hour = int(cells[col])
            val = float(cells[col + 1])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path} row {rownum}: {exc}") from None
        if not 1 <= hour <= HOURS:
            raise DataError(
                f"{path} row {rownum}: hour {hour} outside 1..{HOURS}")
        _check_finite(path, rownum, "tariff", val)
        slot = table.setdefault(day, {})
        if hour in slot:
            where = f" for day {day!r}" if per_day else ""
            raise DataError(
                f"{path} row {rownum}: duplicate hour {hour}{where}")
        slot[hour] = val
    ids = tuple(sorted(table))
    out = np.full((len(ids), HOURS), np.nan)
    for s, day in enumerate(ids):
        for h, val in table[day].items():
            out[s, h - 1] = val
    if not ids or np.any(np.isnan(out)):
        kind = "per-day" if per_day else "hourly"
        raise DataError(f"{path}: incomplete {kind} tariff")
    return (out, ids) if per_day else (out[0], None)


DLMP_COMMENT = ("# locational marginal prices; units: dlmp in $/MWh, "
                "hour in 1..24")


def write_dlmp(path, network: Network, results):
    """DLMP CSV (day,hour,bus,dlmp) of the per_day_dlmps results."""
    # str cells are the csv module's fast path: label strings made once
    hours = [str(t) for t in range(1, HOURS + 1)]
    buses = [str(bus) for bus in network.buses]
    _write_csv(path, DLMP_COMMENT, ["day", "hour", "bus", "dlmp"], (
        (res.day, hour, bus, v) for res in results
        for hour, prices in zip(hours, res.dlmp.T.tolist())
        for bus, v in zip(buses, map(repr, prices))))


def write_charging_price(path, price, label="charging price"):
    """Hourly charging-price CSV (hour,lambda_c); label opens the comment."""
    _write_csv(path, f"# {label}; units: lambda_c in cents/kWh, hour in "
               "1..24", ["hour", "lambda_c"],
               ((t + 1, float(price[t])) for t in range(HOURS)))


def write_smp(path, result, published_p_attack):
    """Attack-chain summary CSV (quantity,state,value): the sojourn and
    steady state of each state, p_attack, then published_p_attack."""
    rows = [(quantity, state, float(value))
            for quantity in ("sojourn", "steady_state")
            for state, value in zip(STATES, getattr(result, quantity))]
    _write_csv(path, "# attack-chain summary; units: sojourn in hours, "
               "probabilities dimensionless", ["quantity", "state", "value"],
               rows + [("p_attack", "F", float(result.p_attack)),
                       ("published_p_attack", "F", float(published_p_attack))])


SWEEP_HEADER = ["scale", "alpha", "bound", "lambda_c_avg", "x_hat"]
SWEEP_COMMENT = ("# demand-scaling premium grid; units: lambda_c_avg and "
                 "x_hat in cents/kWh, scale and alpha dimensionless")


def write_sweep(path, rows):
    """Sweep CSV with the five pinned columns; infeasible cells emit nan."""
    _write_csv(path, SWEEP_COMMENT, SWEEP_HEADER, (
        (float(r.scale), float(r.alpha), r.bound, float(r.lambda_c_avg),
         float(r.x_hat)) for r in rows))


def read_table(path):
    """Generic reader: list of dicts keyed by the header columns."""
    header, rows = _read_csv_rows(path)
    out = []
    for rownum, cells in rows:
        if len(cells) != len(header):
            raise DataError(
                f"{path} row {rownum}: expected {len(header)} cells")
        out.append(dict(zip(header, cells)))
    return out
