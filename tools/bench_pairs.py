"""Alternating parent/change benchmark pairs, recorded as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload quote --pairs 10 --first-seed 84 --out BENCH_14.json

Each pair runs ``perfbench/run.py --trace 0`` once from each checkout on
the same seed, one after the other, and the order flips from pair to pair
(parent first in even pairs), so the host's drift falls on both sides
alike. Pair i uses seed first_seed + i. A checkout is any directory with
``src/evcs_premium`` and ``perfbench/run.py``, for example one made with
``git archive <rev> | tar -x -C <dir>``; each run imports the engine from
its own checkout.

After the pairs, each checkout runs ``perfbench/run.py --trace 1`` once
on the first seed, as long as the pairs' runs, and the entry keeps that
run's count metrics (every per-layer metric that is not a time or a
percentage: solver calls per op, iterations, ratios, certificate
headroom) as ``traced_counts``. They are taken over the workload's fixed
prefix of inputs, so one run per side is exact. The traced run's wall
time, the tracer's own post-processing included, is kept per side as
``traced_wall_s``. The entry is written before the traced runs start and
again after them, and a traced run that exits nonzero is kept as its
exit code and the tail of its standard error in place of its counts, so
a failed or stopped traced run loses none of the pairs.

The output file keeps one entry per workload (or per ``--name``, e.g. a
held-out seed), so several invocations can fill one file. Each entry
holds every run's metrics and, per end-to-end metric of BENCHMARK.json,
the median and quartiles of each side, the change's wins over the pairs,
the ratio of the medians, and their gap beside the parent's IQR, and the
traced counts and wall time of each side. The file also names both
checkouts (git commit where known, and a digest of their sources) and
records the interpreter and library versions the runs printed, and nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # absolute, since each run starts in its own checkout
    p.add_argument("--parent", required=True, type=lambda s: Path(s).resolve(),
                   help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=lambda s: Path(s).resolve(),
                   help="checkout of the change")
    p.add_argument("--workload", required=True,
                   choices=("case", "quote", "grid", "ccg"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--name", help="entry name in the output file "
                   "(default: the workload)")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            p.error(f"{side} has no perfbench/run.py")
    if not (args.change / "BENCHMARK.json").is_file():
        p.error(f"{args.change} has no BENCHMARK.json")
    return args


def identify(path):
    """The checkout's git HEAD (None outside a git work tree) and a digest
    of its engine sources, which names the code even without git."""
    try:
        out = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        head = out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = None
    h = hashlib.blake2b(digest_size=16)
    src = path / "src"
    for file in sorted(src.rglob("*.py")):
        h.update(str(file.relative_to(src)).encode())
        h.update(file.read_bytes())
    return {"commit": head, "src_digest": h.hexdigest()}


class RunFailed(RuntimeError):
    """A perfbench run that exited nonzero or printed nothing."""

    def __init__(self, cmd, code, stderr):
        self.code, self.stderr = code, stderr.strip()[-500:]
        super().__init__(f"{' '.join(cmd)} exited {code}: {self.stderr}")


def run_once(checkout, workload, seed, seconds, trace=0):
    """One perfbench run: (its final JSON record, its env line fields)."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         cwd=str(checkout))
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RunFailed(cmd, out.returncode, out.stderr)
    env = {}
    if lines[0].startswith("env: "):
        words = lines[0][len("env: "):].split(" ")
        # "key value" pairs; a value may hold spaces (the BLAS name)
        keys = ("python", "numpy", "scipy", "blas", "nproc", "blas_threads")
        at = [i for i, w in enumerate(words) if w in keys]
        for i, j in zip(at, at[1:] + [len(words)]):
            env[words[i]] = " ".join(words[i + 1:j])
    return json.loads(lines[-1]), env


def traced_run(checkout, workload, seed, seconds):
    """The count metrics of one traced run (its timings are dropped), or
    its exit code and the tail of its standard error if it failed, and
    the run's wall time in seconds."""
    start = time.perf_counter()
    try:
        record, _ = run_once(checkout, workload, seed, seconds, trace=1)
    except RunFailed as exc:
        return ({"exit_code": exc.code, "stderr_tail": exc.stderr},
                time.perf_counter() - start)
    wall = time.perf_counter() - start
    return {k: v["value"] for k, v in record["metrics"].items()
            if not v["unit"].startswith("s/") and v["unit"] != "%"}, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    summary = {}
    for name, better in metrics.items():
        sides = {side: [p[side][name] for p in pairs]
                 for side in ("parent", "change")}
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: quartiles(v) for side, v in sides.items()}
        summary[name] = {
            "better": better, **stats, "wins": wins, "pairs": len(pairs),
            "ratio": stats["change"]["median"] / stats["parent"]["median"],
            "median_gap": abs(stats["change"]["median"]
                              - stats["parent"]["median"]),
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"]}
    return summary


def end_to_end(checkout):
    """{metric: "higher" or "lower"} of BENCHMARK.json's end-to-end list."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    metrics = end_to_end(args.change)
    runs, envs = [], {}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = getattr(args, side)
            record, env = run_once(checkout, args.workload, seed,
                                   args.seconds)
            envs[side] = env
            values = {k: v["value"] for k, v in record["metrics"].items()}
            runs.append({"pair": i, "seed": seed, "side": side,
                         "metrics": values, "attempted": record["attempted"],
                         "failed": record["failed"],
                         "correct": record["correct"]})
            print(f"pair {i} seed {seed} {side:6s} " + " ".join(
                f"{k} {values[k]:.6g}" for k in metrics if k in values),
                flush=True)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.update({
        "tool": "tools/bench_pairs.py",
        "parent": identify(args.parent),
        "change": identify(args.change),
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
    })
    entry = doc.setdefault("workloads", {})[args.name or args.workload] = {
        "workload": args.workload, "seconds": args.seconds,
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "env": envs, "runs": runs, "summary": summarize(runs, metrics)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in entry["summary"].items():
        print(f"{name:12s} parent {s['parent']['median']:.6g} "
              f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] "
              f"change {s['change']['median']:.6g} "
              f"[{s['change']['q1']:.6g}, {s['change']['q3']:.6g}] "
              f"ratio {s['ratio']:.4f} wins {s['wins']}/{s['pairs']}")

    traced = {side: traced_run(getattr(args, side), args.workload,
                               args.first_seed, args.seconds)
              for side in ("parent", "change")}
    counts = {side: c for side, (c, _) in traced.items()}
    walls = {side: w for side, (_, w) in traced.items()}
    entry["traced_counts"] = {"seed": args.first_seed, **counts}
    entry["traced_wall_s"] = walls
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"traced run ({args.seconds:g} s, seed {args.first_seed}) wall "
          f"parent {walls['parent']:.1f} s change {walls['change']:.1f} s")
    for name, value in counts["change"].items():
        if value != counts["parent"].get(name):
            print(f"traced {name}: parent {counts['parent'].get(name)} "
                  f"change {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
