"""Semi-Markov attack-probability estimation.

A charging-station cyberattack is modeled as a five-state semi-Markov process
over G (good), I (intruded), D (degraded), C (compromised-recovering) and
F (failed), with Weibull-distributed holding times on the six transitions
G>I, I>D, I>F, D>C, C>G, F>G. State I has two competing exits; every other
state has one. The long-run fraction of time spent in F is the attack
probability, obtained in three steps: the kernel at infinity (embedded
transition matrix), its stationary vector, and time-weighting by expected
sojourns.

All functions are pure; quadrature tolerances and truncation points are fixed
here, so reruns on the same inputs are byte-identical. quad evaluates its
integrands one point at a time, so they use math.exp and float powers, not
the vectorized pdf and survival, whose numpy overhead is twenty times the
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.stats import t as t_dist
from scipy.optimize import brentq

STATES = ("G", "I", "D", "C", "F")
TRANSITIONS = ("GI", "ID", "IF", "DC", "CG", "FG")

_QUAD_ABSTOL = 1e-9
_TAIL_MASS = 1e-9  # truncation: integrate up to the 1 - _TAIL_MASS quantile


class SmpError(ValueError):
    """Domain or structural error in the semi-Markov model."""


@dataclass(frozen=True)
class WeibullDist:
    """Weibull holding-time distribution with shape beta and scale alpha (hours)."""

    shape: float
    scale: float

    def __post_init__(self):
        for name, value in (("shape", self.shape), ("scale", self.scale)):
            if not (np.isfinite(value) and value > 0):
                raise SmpError(
                    f"Weibull {name} must be finite and positive, got {value!r}")

    def quantile(self, p):
        return self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)

    def mean(self):
        return self.scale * gamma_fn(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class SmpModel:
    """The six Weibull transitions of the attack chain, keyed GI..FG."""

    transitions: dict

    def __post_init__(self):
        keys = tuple(sorted(self.transitions))
        if keys != tuple(sorted(TRANSITIONS)):
            raise SmpError(
                f"transitions must be exactly {TRANSITIONS}, got {keys}")
        for k, v in self.transitions.items():
            if not isinstance(v, WeibullDist):
                raise SmpError(f"transition {k} is not a WeibullDist")

    def __getitem__(self, key):
        return self.transitions[key]


@dataclass(frozen=True)
class EmbeddedChainResult:
    kernel_inf: np.ndarray
    stationary: np.ndarray


@dataclass(frozen=True)
class SmpResult:
    sojourn: np.ndarray
    steady_state: np.ndarray
    p_attack: float


@dataclass(frozen=True)
class ConfidenceBox:
    lower: float
    upper: float
    center: float


def weibull_cdf(t, dist: WeibullDist):
    """H(t) = 1 - exp(-(t/scale)^shape) for t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise SmpError("weibull_cdf requires t >= 0")
    return -np.expm1(-((t / dist.scale) ** dist.shape))


def weibull_pdf(t, dist: WeibullDist):
    t = np.asarray(t, dtype=float)
    b, a = dist.shape, dist.scale
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (b / a) * (t / a) ** (b - 1.0) * np.exp(-((t / a) ** b))
    if b < 1.0:
        out = np.where(t == 0.0, np.inf, out)  # integrable endpoint singularity
    elif b > 1.0:
        out = np.where(t == 0.0, 0.0, out)
    return out


def weibull_survival(t, dist: WeibullDist):
    t = np.asarray(t, dtype=float)
    return np.exp(-((t / dist.scale) ** dist.shape))


def _survival(t, dist):
    """weibull_survival at one float t."""
    try:
        return math.exp(-((t / dist.scale) ** dist.shape))
    except OverflowError:  # (t/scale)^shape beyond the float range
        return 0.0


def _pdf(t, dist):
    """weibull_pdf at one float t > 0; 0.0 where the survival underflows."""
    b, a = dist.shape, dist.scale
    survival = _survival(t, dist)
    return (b / a) * (t / a) ** (b - 1.0) * survival if survival else 0.0


def _quad(integrand, *dists):
    """quad over [0, t_max], t_max the 1-1e-9 quantile of the slowest of
    dists, with the chain's fixed tolerances. Each clock's scale and the
    faster clocks' quantiles are breakpoints: on a range a heavy-tailed
    clock stretches far past a sharp one, quad's first nodes would miss
    the sharp clock's mass."""
    ends = [d.quantile(1.0 - _TAIL_MASS) for d in dists]
    t_max = max(ends)
    points = sorted({*ends, *(d.scale for d in dists)} - {t_max})
    return integrate.quad(integrand, 0.0, t_max, epsabs=_QUAD_ABSTOL,
                          epsrel=1e-12, limit=400, points=points)


def competing_transition_prob(winner: WeibullDist, survivor=None, *,
                              with_error=False):
    """Probability that `winner` fires before `survivor`.

    Evaluates int_0^inf survival_survivor(t) * pdf_winner(t) dt by adaptive
    quadrature truncated at the 1-1e-9 quantile of the slower distribution.
    With ``with_error=True`` also returns the quadrature error estimate.
    """
    if survivor is None:
        return (1.0, 0.0) if with_error else 1.0
    value, err = _quad(lambda t: _survival(t, survivor) * _pdf(t, winner),
                       winner, survivor)
    if err > 1e-6:
        raise SmpError(
            f"competing-transition quadrature did not converge, error {err:g}")
    value = min(max(value, 0.0), 1.0)
    # the truncated tail is bounded by its mass
    return (value, err + _TAIL_MASS) if with_error else value


def kernel_at_infinity(model: SmpModel):
    """5x5 embedded transition matrix K(inf) in state order G,I,D,C,F.

    Single-exit rows carry a lone 1; row I splits between D and F by the
    competing-risk integrals.
    """
    k = np.zeros((5, 5))
    idx = {s: i for i, s in enumerate(STATES)}
    k_id = competing_transition_prob(model["ID"], model["IF"])
    k_if = competing_transition_prob(model["IF"], model["ID"])
    total = k_id + k_if
    if abs(total - 1.0) > 1e-6:
        raise SmpError(f"competing-risk split k_ID + k_IF = {total} != 1")
    # Renormalize the tiny quadrature remainder so the row is exactly stochastic.
    k[idx["G"], idx["I"]] = 1.0
    k[idx["I"], idx["D"]] = k_id / total
    k[idx["I"], idx["F"]] = k_if / total
    k[idx["D"], idx["C"]] = 1.0
    k[idx["C"], idx["G"]] = 1.0
    k[idx["F"], idx["G"]] = 1.0
    return k


def _finite(name, values):
    """values as a float array; SmpError at its first non-finite entry."""
    arr = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        at = tuple(bad[0].tolist())
        raise SmpError(f"{name} must be finite, got {float(arr[at])!r} at "
                       f"index {at[0] if len(at) == 1 else at}")
    return arr


def stationary_embedded(kernel_inf):
    """Solve p = pP, sum(p)=1 for the embedded chain (forward convention)."""
    p_mat = _finite("kernel", kernel_inf)
    n = p_mat.shape[0]
    if p_mat.shape != (n, n):
        raise SmpError("kernel must be square")
    rows = p_mat.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-9):
        raise SmpError(f"kernel rows must sum to 1, got {rows}")
    a = p_mat.T - np.eye(n)
    if np.linalg.matrix_rank(a, tol=1e-10) < n - 1:
        raise SmpError("embedded chain is reducible: stationary vector not unique")
    m = np.vstack([a[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(m, b, rcond=None)
    p = np.where(np.abs(p) < 1e-15, 0.0, p)
    if np.any(p < -1e-12):
        raise SmpError(f"stationary solve produced negative mass: {p}")
    p = np.maximum(p, 0.0)
    p = p / p.sum()
    if np.max(np.abs(p @ p_mat - p)) > 1e-10:
        raise SmpError("stationary residual exceeds 1e-10")
    return p


def sojourn_times(model: SmpModel):
    """Expected holding time per state (hours), order G,I,D,C,F.

    Single-exit states use the closed form scale*Gamma(1+1/shape). State I,
    with two competing exits, integrates the product of the two survival
    functions.
    """
    t_g = model["GI"].mean()
    t_d = model["DC"].mean()
    t_c = model["CG"].mean()
    t_f = model["FG"].mean()

    d_id, d_if = model["ID"], model["IF"]
    t_i, err = _quad(lambda t: _survival(t, d_id) * _survival(t, d_if),
                     d_id, d_if)
    if err > 1e-6 * (1.0 + t_i):
        raise SmpError(f"sojourn quadrature did not converge, error {err:g}")
    out = np.array([t_g, t_i, t_d, t_c, t_f])
    if np.any(out <= 0):
        raise SmpError(f"sojourn times must be positive, got {out}")
    return out


def attack_probability(p, t):
    """Time-stationary state probabilities P_s = p_s T_s / sum(p T)."""
    p = _finite("stationary vector", p)
    t = _finite("sojourn times", t)
    if p.shape != (5,) or t.shape != (5,):
        raise SmpError("p and T must be 5-vectors")
    if abs(p.sum() - 1.0) > 1e-9:
        raise SmpError("stationary vector must sum to 1")
    if np.any(t < 0):
        raise SmpError("sojourn times must be nonnegative")
    denom = float(p @ t)
    if denom <= 0.0:
        raise SmpError("p . T must be positive")
    steady = p * t / denom
    return SmpResult(sojourn=t, steady_state=steady,
                     p_attack=float(steady[STATES.index("F")]))


def confidence_box(center, sigma, n, xi):
    """Student-t box: center -+ t_(1-xi/2, n-1) * sigma / sqrt(n)."""
    if not np.all(np.isfinite((center, sigma, n, xi))):
        raise SmpError("confidence box needs finite inputs, got center "
                       f"{center!r}, sigma {sigma!r}, n {n!r}, xi {xi!r}")
    if not 0.0 < xi < 1.0:
        raise SmpError("xi must be in (0,1)")
    if n < 2:
        raise SmpError("confidence box needs n >= 2 observations")
    if sigma < 0:
        raise SmpError("sigma must be nonnegative")
    half = float(t_dist.ppf(1.0 - xi / 2.0, n - 1) * sigma / np.sqrt(n))
    lower = center - half
    if 0.0 <= center <= 1.0:
        lower = max(lower, 0.0)  # boxes on probabilities stay nonnegative
    return ConfidenceBox(lower=lower, upper=center + half, center=center)


def relative_box(center, eps):
    """Box from a relative half-width: [center(1-eps), center(1+eps)]."""
    if not (np.isfinite(center) and np.isfinite(eps)):
        raise SmpError("relative box needs a finite center and epsilon, "
                       f"got {center!r} and {eps!r}")
    if eps < 0:
        raise SmpError("relative epsilon must be nonnegative")
    lower = center * (1.0 - eps)
    if 0.0 <= center <= 1.0:
        lower = max(lower, 0.0)
    return ConfidenceBox(lower=lower, upper=center * (1.0 + eps),
                         center=center)


def fit_weibull(samples):
    """Profile maximum-likelihood Weibull fit.

    The shape solves the one-dimensional profile equation

        sum(x^b ln x)/sum(x^b) - 1/b - mean(ln x) = 0

    after which the scale is (mean(x^b))^(1/b).
    """
    x = _finite("samples", samples)
    if np.any(x <= 0):
        raise SmpError("samples must be positive")
    if np.unique(x).size < 3:
        raise SmpError("need at least 3 distinct samples")
    lx = np.log(x)
    mean_lx = lx.mean()

    def profile(b):
        w = x ** b
        return (w @ lx) / w.sum() - 1.0 / b - mean_lx

    lo, hi = 1e-2, 1.0
    while profile(hi) < 0.0:
        hi *= 2.0
        if hi > 1e4:
            raise SmpError("profile equation has no root: degenerate sample")
    while profile(lo) > 0.0:
        lo /= 2.0
        if lo < 1e-8:
            raise SmpError("profile equation has no root: degenerate sample")
    shape = brentq(profile, lo, hi, xtol=1e-12, rtol=1e-12)
    scale = float(np.mean(x ** shape) ** (1.0 / shape))
    return WeibullDist(shape=float(shape), scale=scale)


def run_chain(model: SmpModel):
    """Full pipeline: kernel, embedded stationary, sojourns, attack probability."""
    kernel = kernel_at_infinity(model)
    p = stationary_embedded(kernel)
    t = sojourn_times(model)
    result = attack_probability(p, t)
    return EmbeddedChainResult(kernel_inf=kernel, stationary=p), result
