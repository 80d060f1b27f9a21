"""Span recorder that wraps the engine's public layer functions from outside.

Wrapping replaces every reference to a wrapped function in the loaded
``evcs_premium`` modules (the package re-exports and the ``from .x import
y`` copies alike), so calls made inside the engine are traced without
changing it. ``install``/``uninstall`` swap the references in and out, which
lets one run interleave traced and untraced ops.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span (-1 at the top of an op) and ``info`` holds what the
layer's result says about the work done (iterations, solver status,
certificate residuals, an input fingerprint).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from time import perf_counter

import numpy as np

from workloads import BALANCE_GATE, DUALITY_GATE, KKT_GATE


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _solver_info(res):
    return {"iters": int(res.iterations), "status": res.status}


def _dcopf_info(res):
    return {"gap": abs(res.c_ll - res.c_dll) / (1.0 + abs(res.c_ll)),
            "balance": float(res.balance_residual)}


def _kkt_info(rep):
    return {"residual": float(rep.max_residual)}


def _quote_key(days, config, tariff, *args, **kwargs):
    return _digest(days.likelihood, days.demand_kw, tariff) + repr(config)


def _quote_info(quote):
    return {"iters": int(quote.iterations)}


def _grid_key(network, days, *args, **kwargs):
    return f"{id(network)}:{_digest(days.likelihood, days.demand_kw)}"


def _ccg_info(tq):
    return {"rounds": len(tq.ccg_trace)}


def layer_functions(ep):
    """(span name, module, function name, info, key) for every layer.

    ``info`` reads the result; ``key`` fingerprints the input on entry,
    so calls that raise are still told apart. Spans are named
    ``<module>.<function>``; per-layer metrics aggregate them by name, by
    module, or by the name of the enclosing span.
    """
    table = [
        ("smp", "run_chain", None, None),
        ("backend", "solve_lp", _solver_info, None),
        ("backend", "solve_qp", _solver_info, None),
        ("dcopf", "solve_dcopf", _dcopf_info, None),
        ("dcopf", "per_day_dlmps", None, _grid_key),
        ("analytic", "closed_form_premium", None, None),
        ("analytic", "sensitivity_sweep", None, None),
        ("cvar", "solve_risk_averse_evcs", None, None),
        ("cvar", "kkt_report", _kkt_info, None),
        ("cvar", "robust_premium_bilevel", _quote_info, _quote_key),
        ("trilevel", "ccg_solve", _ccg_info, None),
        ("trilevel", "demand_scaling_sweep", None, None),
        ("pipeline", "run_case", None, None),
    ]
    dataio = ep.dataio
    table += [("dataio", name, None, None)
              for name, fn in vars(dataio).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == dataio.__name__]
    return [(f"{mod}.{name}", getattr(ep, mod), name, info, key)
            for mod, name, info, key in table]


class Tracer:
    """In-memory spans for the ops run while the wrappers are installed."""

    def __init__(self, ep):
        self.spans = []
        self._stack = []
        self.op = None
        self._patches = []
        modules = [m for n, m in sys.modules.items()
                   if n == ep.__name__ or n.startswith(ep.__name__ + ".")]
        for name, module, attr, info, key in layer_functions(ep):
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info, key)
            for m in modules:
                for ref, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, ref, original, wrapper))

    def _wrap(self, name, fn, info, key):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            facts = {} if key is None else {"key": key(*args, **kwargs)}
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op, facts]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                facts["raised"] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                facts.update(info(out))
            return out

        return traced

    def install(self):
        for module, ref, _, wrapper in self._patches:
            setattr(module, ref, wrapper)

    def uninstall(self):
        for module, ref, original, _ in self._patches:
            setattr(module, ref, original)


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ops_summary(spans, ops):
    """Raw per-layer totals over the spans of the given op ids."""
    own = self_times(spans)
    t = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    grid_keys, quote_keys = {}, {}
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        if op not in ops:
            continue
        dur = end - start
        pname = spans[parent][0] if parent >= 0 else None
        module = name.split(".", 1)[0]
        ancestor = parent
        while (ancestor >= 0
               and not spans[ancestor][0].startswith(module + ".")):
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            add(f"{module}.s", dur)
        if name == "backend.solve_lp":
            kind = ("backend.feas_lp" if pname == "backend.solve_qp"
                    else "backend.solve_lp")
            add(f"{kind}.calls", 1)
            add(f"{kind}.s", dur)
            if kind == "backend.solve_lp":
                add(f"{kind}.iters", info.get("iters", 0))
                add(f"{kind}.non_optimal",
                    info.get("status", "raised") != "optimal")
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", own[i])
        if name == "backend.solve_qp":
            add("backend.solve_qp.iters", info.get("iters", 0))
            add("backend.solve_qp.non_optimal",
                info.get("status", "raised") != "optimal")
        elif name == "dcopf.solve_dcopf":
            if "raised" in info:
                add("dcopf.rejected", 1)
            else:
                t["dcopf.max_gap"] = max(t.get("dcopf.max_gap", 0.0),
                                         info["gap"])
                t["dcopf.max_balance"] = max(t.get("dcopf.max_balance", 0.0),
                                             info["balance"])
        elif name == "cvar.kkt_report" and "residual" in info:
            t["cvar.max_kkt"] = max(t.get("cvar.max_kkt", 0.0),
                                    info["residual"])
        elif name == "cvar.robust_premium_bilevel":
            add("cvar.fp_iters", info.get("iters", 0))
            quote_keys.setdefault(op, set()).add(info["key"])
        elif name == "dcopf.per_day_dlmps":
            grid_keys.setdefault(op, set()).add(info["key"])
        elif name == "trilevel.ccg_solve" and "rounds" in info:
            add("trilevel.ccg_rounds", info["rounds"])
            add("trilevel.ccg_done", 1)
    t["distinct_grid"] = sum(len(v) for v in grid_keys.values())
    t["distinct_quote"] = sum(len(v) for v in quote_keys.values())
    return t


# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("backend.solve_lp.calls", "count/op"),
    ("backend.solve_lp.s", "s/op"),
    ("backend.solve_lp.iters", "count/op"),
    ("backend.solve_lp.non_optimal", "count/op"),
    ("dcopf.solve_dcopf.calls", "count/op"),
    ("dcopf.solve_dcopf.self_s", "s/op"),
    ("dcopf.lp_per_day", "count/call"),
    ("dcopf.per_day_dlmps.s", "s/op"),
    ("dcopf.rejected", "count/op"),
    ("backend.feas_lp.calls", "count/op"),
    ("backend.feas_lp.s", "s/op"),
    ("backend.solve_qp.calls", "count/op"),
    ("backend.solve_qp.s", "s/op"),
    ("backend.solve_qp.self_s", "s/op"),
    ("backend.solve_qp.iters", "count/op"),
    ("backend.solve_qp.non_optimal", "count/op"),
    ("cvar.solve_risk_averse_evcs.calls", "count/op"),
    ("cvar.solve_risk_averse_evcs.self_s", "s/op"),
    ("cvar.kkt_report.s", "s/op"),
    ("cvar.robust_premium_bilevel.calls", "count/op"),
    ("cvar.robust_premium_bilevel.s", "s/op"),
    ("cvar.fp_iters_per_quote", "count/call"),
    ("trilevel.ccg_solve.s", "s/op"),
    ("trilevel.ccg_rounds", "count/call"),
    ("trilevel.demand_scaling_sweep.s", "s/op"),
    ("pipeline.run_case.self_s", "s/op"),
    ("pipeline.grid_useful_ratio", "ratio"),
    ("pipeline.quote_useful_ratio", "ratio"),
    ("smp.run_chain.s", "s/op"),
    ("analytic.s", "s/op"),
    ("dataio.s", "s/op"),
    ("cvar.kkt_headroom", "ratio"),
    ("dcopf.duality_headroom", "ratio"),
    ("dcopf.balance_headroom", "ratio"),
    ("trace.overhead", "%"),
]

# Metrics read off the solvers' results rather than the clock. They are
# taken over a fixed prefix of the workload's inputs, so a rerun with the
# same seed must reproduce them exactly.
COUNT_METRICS = {name for name, unit in PER_LAYER
                 if not unit.startswith("s/") and unit != "%"}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans, count_ops, timed_ops):
    """Per-layer metric values: counts over ``count_ops``, times over
    ``timed_ops``; both are collections of op ids."""
    c = _ops_summary(spans, set(count_ops))
    s = _ops_summary(spans, set(timed_ops))
    n_c, n_t = len(count_ops), len(timed_ops)
    out = {}
    for name, unit in PER_LAYER:
        if unit == "count/op":
            out[name] = _ratio(c.get(name, 0), n_c)
        elif unit == "s/op":
            out[name] = _ratio(s.get(name, 0.0), n_t)
    out["dcopf.lp_per_day"] = _ratio(c.get("backend.solve_lp.calls", 0),
                                     c.get("dcopf.solve_dcopf.calls", 0))
    out["cvar.fp_iters_per_quote"] = _ratio(
        c.get("cvar.fp_iters", 0),
        c.get("cvar.robust_premium_bilevel.calls", 0))
    out["trilevel.ccg_rounds"] = _ratio(c.get("trilevel.ccg_rounds", 0),
                                        c.get("trilevel.ccg_done", 0))
    out["pipeline.grid_useful_ratio"] = _ratio(
        c["distinct_grid"], c.get("dcopf.per_day_dlmps.calls", 0))
    out["pipeline.quote_useful_ratio"] = _ratio(
        c["distinct_quote"], c.get("cvar.robust_premium_bilevel.calls", 0))
    out["cvar.kkt_headroom"] = c.get("cvar.max_kkt", 0.0) / KKT_GATE
    out["dcopf.duality_headroom"] = c.get("dcopf.max_gap", 0.0) / DUALITY_GATE
    out["dcopf.balance_headroom"] = (c.get("dcopf.max_balance", 0.0)
                                     / BALANCE_GATE)
    return out


def op_counts(spans, op):
    """Solver-call counts of one op, for the per-op record."""
    t = _ops_summary(spans, {op})
    return {
        "opf_lp": int(t.get("backend.solve_lp.calls", 0)),
        "feas_lp": int(t.get("backend.feas_lp.calls", 0)),
        "qp": int(t.get("backend.solve_qp.calls", 0)),
        "fp_iters": int(t.get("cvar.fp_iters", 0)),
        "ccg_rounds": int(t.get("trilevel.ccg_rounds", 0)),
        "dcopf_rejected": int(t.get("dcopf.rejected", 0)),
    }
