"""Closed-loop benchmark of the evcs_premium engine.

    python3 perfbench/run.py --workload quote --seed 1 --seconds 15 --trace 0

One process, one client: each request into the engine waits for the
previous one, and nothing else runs beside it (BLAS is pinned to one
thread). The engine is imported from ``src/`` of the checkout this file
sits in. Inputs come from ``--seed``; every op's outcome is checked outside
the timed region.

``--trace 0`` prints the end-to-end metrics. Their times are wall seconds
scaled by a machine-speed probe timed next to the ops (see calibrate.py),
so the host's drift cancels; the raw wall times are printed beside them.
``--trace 1`` runs each input twice, once plain and once with the layers'
public functions wrapped (see tracer.py), prints the per-layer metrics and
the tracing overhead (traced over plain time of the same inputs), and
writes the spans and per-op solver counts to ``perfbench/results/``. If a
traced run of the same sources, workload and seed left its counts there,
they must match exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.5   # op seconds between two machine-speed probes
P90_MIN_OPS = 100   # at least ten samples beyond the 90th percentile
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("case", "quote", "grid", "ccg"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def code_digest(*dirs):
    """Fingerprint of the Python sources the counts depend on."""
    h = hashlib.blake2b(digest_size=16)
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def timed(wl, x):
    t0 = perf_counter()
    try:
        out = wl.call(x)
    except Exception as exc:  # the check decides whether it was expected
        out = exc
    return perf_counter() - t0, out


class Outcomes:
    """Attempted/failed tallies with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, i, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {i}: {problem}")


def run_plain(wl, probe, seconds, outcomes):
    """Raw and scaled op latencies. The ops between two probes are scaled
    by the mean of those two probes."""
    raw, scaled, pending = [], [], []
    before = probe.time()
    busy = 0.0
    i = 0
    while busy < seconds:
        x = wl.make(i)
        dt, out = timed(wl, x)
        raw.append(dt)
        pending.append(dt)
        busy += dt
        outcomes.record(i, wl.check(x, out))
        i += 1
        if sum(pending) >= PROBE_EVERY_S or busy >= seconds:
            after = probe.time(sum(pending))
            k = probe.scale(before, after)
            scaled += [d * k for d in pending]
            pending = []
            before = after
    return raw, scaled


def run_traced(wl, tracer, seconds, outcomes):
    """Each input runs plain and traced, alternating which goes first."""
    plain, traced = [], []
    i = 0
    while sum(plain) + sum(traced) < seconds or i < wl.count_ops:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            x = wl.make(i)
            if with_trace:
                tracer.op = i
                tracer.install()
            try:
                dt, out = timed(wl, x)
            finally:
                tracer.uninstall()
                tracer.op = None
            (traced if with_trace else plain).append(dt)
            outcomes.record(i, wl.check(x, out))
        i += 1
    return plain, traced


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "evcs_premium" / "__init__.py").is_file():
        print(f"no engine sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)

    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import evcs_premium as ep
    import numpy as np
    import scipy
    import tracer
    import workloads
    import_s = perf_counter() - t0
    import calibrate
    if Path(ep.__file__).resolve().parent != src / "evcs_premium":
        print(f"imported evcs_premium from {ep.__file__}, not {src}",
              file=sys.stderr)
        return 2

    env = environment(np, scipy)
    print("env: " + " ".join(f"{k} {v}" for k, v in env.items()))
    workdir = RESULTS / "work"

    outcomes = Outcomes()
    problems = []
    setups, setups_scaled = [], []
    wl = None
    seed = args.seed % 2**64   # numpy seeds take nonnegative entropy only
    probe = calibrate.Probe()
    before = probe.time()
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        fresh = workloads.WORKLOADS[args.workload](ep, seed, workdir)
        x = fresh.make(0)
        _, out = timed(fresh, x)
        setups.append(perf_counter() - t)
        wl = wl or fresh
        problem = wl.check(x, out)
        if problem is not None:
            problems.append(f"warm-up: {problem}")
        after = probe.time(setups[-1])
        setups_scaled.append(setups[-1] * probe.scale(before, after))
        before = after
    setup_raw = import_s + statistics.median(setups)
    # the import ran before the probe existed: scale it by the set-ups' probes
    import_scaled = import_s * calibrate.REFERENCE_S / statistics.median(
        probe.samples)
    setup_s = import_scaled + statistics.median(setups_scaled)

    head = f"workload {args.workload} seed {args.seed} trace {args.trace}"
    if args.trace:
        tr = tracer.Tracer(ep)
        plain, traced = run_traced(wl, tr, args.seconds, outcomes)
        n_pairs = len(traced)
        count_ops = range(wl.count_ops)
        values = tracer.per_layer_metrics(tr.spans, count_ops, range(n_pairs))
        values["trace.overhead"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
        units = dict(tracer.PER_LAYER)
        metrics = {k: {"value": values[k], "unit": units[k]}
                   for k, _ in tracer.PER_LAYER}
        per_op = [{"op": i, "latency_s": traced[i],
                   "counts": tracer.op_counts(tr.spans, i)}
                  for i in range(n_pairs)]
        counts = {k: values[k] for k in sorted(tracer.COUNT_METRICS)}
        totals = {k: sum(r["counts"][k] for r in per_op)
                  for k in per_op[0]["counts"]}
        print(f"{head}: {n_pairs} inputs run plain and traced, "
              f"{len(tr.spans)} spans")
        print("  solver calls over the traced ops: "
              + ", ".join(f"{k} {v}" for k, v in totals.items()))
        for k, _ in tracer.PER_LAYER:
            print(f"  {k:38s} {values[k]:.6g} {units[k]}")
        RESULTS.mkdir(parents=True, exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        code = code_digest(src / "evcs_premium", ROOT / "perfbench")
        previous = json.loads(path.read_text()) if path.exists() else {}
        if previous.get("code") == code:
            if previous["counts"] != counts:
                problems.append(
                    f"solver counts differ from the earlier traced run "
                    f"in {path.name}")
            else:
                print(f"  counts match the earlier traced run in {path.name}")
        record = {"workload": args.workload, "seed": args.seed,
                  "code": code, "env": env, "counts": counts,
                  "per_op": per_op,
                  "span_fields": ["name", "start", "end", "parent", "op",
                                  "info"],
                  "spans": [[n, s - t0, e - t0, p, o, info]
                            for n, s, e, p, o, info in tr.spans]}
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    else:
        raw, lat = run_plain(wl, probe, args.seconds, outcomes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s,
                  "ops_per_s": len(lat) / sum(lat),
                  "op_s_p50": statistics.median(lat),
                  "peak_rss_mb": rss_mb}
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
                 "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
        speed = calibrate.REFERENCE_S / statistics.median(probe.samples)
        print(f"{head}: {len(lat)} ops in {sum(raw):.3f} s timed; "
              f"{len(probe.samples)} probes, machine at {speed:.3f} of "
              f"reference speed; scaled (raw wall) values:")
        print(f"  setup_s      {setup_s:.6g} s ({setup_raw:.6g}; import "
              f"{import_s:.3f} s + median of set-ups "
              f"{[round(s, 3) for s in setups]})")
        print(f"  ops_per_s    {values['ops_per_s']:.6g} 1/s "
              f"({len(raw) / sum(raw):.6g})")
        print(f"  op_s_p50     {values['op_s_p50']:.6g} s "
              f"({statistics.median(raw):.6g})")
        if len(lat) >= P90_MIN_OPS:
            p90 = statistics.quantiles(lat, n=10)[8]
            raw90 = statistics.quantiles(raw, n=10)[8]
            print(f"  op_s_p90     {p90:.6g} s ({raw90:.6g})")
        else:
            print(f"  op_s_p90     n/a ({len(lat)} ops, fewer than "
                  f"{P90_MIN_OPS})")
        print(f"  error_rate   {outcomes.failed / outcomes.attempted:.6g} "
              f"({outcomes.failed}/{outcomes.attempted})")
        print(f"  peak_rss_mb  {rss_mb:.6g} MB")

    for line in problems + outcomes.messages:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems and not outcomes.failed,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
