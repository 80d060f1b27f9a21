"""Machine-speed probe that the end-to-end times are scaled by.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
tens of percent over minutes as other tenants load it: the same op, timed
over and over in one process, moved between 0.8 and 1.3 times its median
in 10-s windows. No amount of repetition inside one run removes drift that
slow. So the plain run times a fixed kernel, built from numpy and scipy
only and never from ``evcs_premium``, next to the ops, and scales each op's
wall time by ``REFERENCE_S`` over the kernel's time around that op. The
kernel mixes what the engine spends its time on: interpreted Python,
small dense numpy solves and a sparse HiGHS LP.

A change to the engine moves the op times and leaves the kernel alone, so
the scaled times move by the same share as the raw ones would on a quiet
machine; the machine's drift moves both and cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Median kernel time on the 2-vCPU host the baseline was taken on; scaled
# times are seconds on a machine where the kernel takes this long.
REFERENCE_S = 0.013
REPEATS = 3   # least kernel runs per probe; the probe reports their median
SHARE = 0.25  # a probe lasts this share of the op time since the last one


class Probe:
    """Times the fixed kernel; ``time()`` is one probe in seconds.

    The kernel builds its arrays afresh on every run, as the engine does,
    so where they land in memory averages out instead of fixing the
    probe's speed for the life of the process.
    """

    def __init__(self, seed=20211):
        self.seed = seed
        self.expect = self._kernel()
        self.samples = []

    def _kernel(self):
        rng = np.random.default_rng(self.seed)
        acc = {}
        for r in range(40):
            for i in range(200):
                acc[i] = acc.get(i, 0) + (i * r) % 7
        v = rng.standard_normal(40)
        for _ in range(60):
            g = rng.standard_normal((20, 40))
            k = np.zeros((60, 60))
            k[:40, :40] = np.diag(rng.uniform(1.0, 2.0, 40))
            k[:40, 40:] = g.T
            k[40:, :40] = g
            k[40:, 40:] = -np.diag(rng.uniform(0.1, 1.0, 20))
            sol = np.linalg.solve(k, np.concatenate([v, np.ones(20)]))
            v = sol[:40] / np.linalg.norm(sol[:40])
        n, m = 240, 160
        a = sp.random(m, n, density=0.04, format="csr", random_state=rng)
        b = a @ rng.uniform(0.0, 1.0, n) + 0.1
        res = linprog(rng.uniform(-1.0, 1.0, n), A_ub=a, b_ub=b,
                      bounds=(0.0, 1.0), method="highs")
        if res.status != 0:
            raise RuntimeError(f"probe LP ended with status {res.status}")
        return sum(acc.values()), round(float(v.sum()), 9), \
            round(float(res.fun), 9)

    def time(self, span=0.0):
        """Median time of the kernel runs of one probe, checked against the
        kernel's first result. After ``span`` seconds of ops the probe runs
        for about ``SHARE`` of them: the host's speed flickers over tenths
        of a second, and a long op is scaled by a probe long enough to
        average the flicker out."""
        runs = []
        while len(runs) < REPEATS or sum(runs) < SHARE * span:
            t0 = perf_counter()
            out = self._kernel()
            runs.append(perf_counter() - t0)
            if out != self.expect:
                raise RuntimeError("probe kernel gave another result")
        t = statistics.median(runs)
        self.samples.append(t)
        return t

    def scale(self, before, after):
        """Factor that turns wall seconds between two probes into
        reference seconds."""
        return REFERENCE_S / (0.5 * (before + after))
