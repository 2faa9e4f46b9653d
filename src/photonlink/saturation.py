"""Fixed-window dead-time (saturation) model and survivor counting statistics.

A photon survives saturation iff no other photon arrives within tau on
either side.  Closed-form survivor moments are provided for a fixed
count and for Poisson arrival, together with quadrature and Monte Carlo
oracles, the sub-/super-Poisson crossover, saturated excitation curves
(exact for every gamma and entry level from a delay-Volterra equation,
with the Monte Carlo kept as its oracle) and the 3 dB cutoff machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FitConvergenceError, NotSaturatingError, RootBracketError
from .physics import CycleTiming, DeviceParams, _phi, detector_events
from .report import Estimate
from .rng import substream

__all__ = [
    "SaturationWindow",
    "SurvivorMoments",
    "CutoffFit",
    "CutoffResult",
    "filter_survivors",
    "survivor_mask",
    "survivor_moments_given_count",
    "poisson_weighted_moments",
    "survivor_moments_poisson",
    "delta_lambda",
    "find_lambda0",
    "PieceIntegrals",
    "pair_survival_integrals",
    "saturated_excitation",
    "survivor_excitation",
    "cutoff_photon_number",
    "fit_cutoff_curve",
    "log_grid",
]

_MIN_WINDOW_RATIO = 4.0  # closed forms assume t_c / tau >= 4


@dataclass(frozen=True)
class SaturationWindow:
    """Dead-time half-window tau around each arrival."""

    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")

    @classmethod
    def from_device(cls, dev: DeviceParams) -> "SaturationWindow":
        return cls(tau=dev.alpha_sat / dev.kappa)


@dataclass(frozen=True)
class SurvivorMoments:
    """First two moments of the survivor count and the dispersion regime.

    regime compares mean against variance: "sub-poisson" when the count
    is narrower than Poisson (mean > variance), "super-poisson" when
    wider, "poisson-boundary" on the boundary.
    """

    mean: float
    second_moment: float
    variance: float
    regime: str


def _classify(mean: float, variance: float) -> str:
    tol = 1e-12 * max(1.0, abs(mean))
    delta = mean - variance
    if delta > tol:
        return "sub-poisson"
    if delta < -tol:
        return "super-poisson"
    return "poisson-boundary"


def survivor_mask(times: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of surviving photons for sorted arrival rows.

    Works on a 1-d trace or a batch of rows; rows may be padded with
    +inf, padding never survives.
    """
    t = np.atleast_2d(np.asarray(times, dtype=float))
    if t.shape[1] == 0:
        mask = np.zeros_like(t, dtype=bool)
    else:
        with np.errstate(invalid="ignore"):
            # padded rows produce inf - inf gaps; NaN compares False below
            gaps = np.diff(t, axis=1)
        big = np.full((t.shape[0], 1), np.inf)
        left_ok = np.concatenate([big, gaps], axis=1) >= tau
        right_ok = np.concatenate([gaps, big], axis=1) >= tau
        mask = left_ok & right_ok & np.isfinite(t)
    return mask[0] if np.asarray(times).ndim == 1 else mask


def filter_survivors(times, window: SaturationWindow) -> np.ndarray:
    """Return the surviving sub-sequence of a sorted arrival trace."""
    t = np.asarray(times, dtype=float)
    if t.size and np.any(np.diff(t) < 0):
        raise ValueError("arrival times must be nondecreasing")
    return t[survivor_mask(t, window.tau)]


def _require_window(tau: float, t_c: float) -> None:
    if tau < 0 or not t_c > 0:
        raise ValueError("require tau >= 0 and t_c > 0")
    if tau > 0 and t_c / tau < _MIN_WINDOW_RATIO:
        raise ValueError(f"closed forms require t_c/tau >= {_MIN_WINDOW_RATIO}, got {t_c / tau}")


def survivor_moments_given_count(n: int, tau: float, t_c: float) -> SurvivorMoments:
    """Survivor-count moments for exactly n uniform arrivals in [0, t_c]."""
    _require_window(tau, t_c)
    if n < 0:
        raise ValueError("n must be >= 0")
    x1 = 1.0 - tau / t_c
    x2 = 1.0 - 2.0 * tau / t_c
    x3 = 1.0 - 3.0 * tau / t_c
    x4 = 1.0 - 4.0 * tau / t_c
    mean = 2.0 * x1**n + (n - 2.0) * x2**n
    second = 2.0 * x1**n + (n + 4.0) * x2**n + (n * n - 7.0 * n + 12.0) * x4**n + (6.0 * n - 18.0) * x3**n
    variance = second - mean * mean
    if variance < 0:
        if variance < -1e-9 * max(1.0, second):
            raise ArithmeticError(f"negative variance {variance} for n={n}")
        variance = 0.0
    return SurvivorMoments(mean=mean, second_moment=second, variance=variance, regime=_classify(mean, variance))


def poisson_weighted_moments(alpha: float, big_lambda: float) -> tuple:
    """(E[alpha^N], E[N alpha^N], E[N^2 alpha^N]) for N ~ Poisson(big_lambda).

    alpha = 0 is allowed (with 0^0 = 1); the closed forms hold there by
    continuity and are needed at the boundary window ratio t_c/tau = 4.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if big_lambda < 0:
        raise ValueError("big_lambda must be >= 0")
    base = math.exp(-(1.0 - alpha) * big_lambda)
    al = alpha * big_lambda
    return base, al * base, (al * al + al) * base


def survivor_moments_poisson(lam: float, tau: float, t_c: float) -> SurvivorMoments:
    """Survivor-count moments under Poisson arrival at rate lam.

    The variance is computed as second moment minus squared mean and is
    cross-checked against its independently expanded closed form.
    """
    _require_window(tau, t_c)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    lt = lam * tau
    e1, e2, e3, e4 = (math.exp(-k * lt) for k in (1, 2, 3, 4))
    mean = 2.0 * e1 + (lam * (t_c - 2.0 * tau) - 2.0) * e2
    y3 = lam * t_c - 3.0 * lam * tau
    y4 = lam * t_c - 4.0 * lam * tau
    second = (
        2.0 * e1
        + (lam * (t_c - 2.0 * tau) + 4.0) * e2
        + (6.0 * y3 - 18.0) * e3
        + (y4 * y4 - 6.0 * y4 + 12.0) * e4
    )
    variance = second - mean * mean
    expanded = (
        2.0 * e1
        + lam * (t_c - 2.0 * tau) * e2
        + (2.0 * lam * t_c - 10.0 * lt - 10.0) * e3
        + (-4.0 * lam * lam * t_c * tau + 12.0 * lt * lt - 2.0 * lam * t_c + 16.0 * lt + 8.0) * e4
    )
    if abs(variance - expanded) > 1e-10 * max(1.0, abs(variance)):
        raise ArithmeticError(f"variance forms disagree: {variance} vs {expanded}")
    if variance < 0:
        if variance < -1e-9:
            raise ArithmeticError(f"negative variance {variance}")
        variance = 0.0
    return SurvivorMoments(mean=mean, second_moment=second, variance=variance, regime=_classify(mean, variance))


def delta_lambda(lam: float, tau: float, t_c: float) -> float:
    """Mean minus variance of the survivor count; positive means sub-Poisson.

    Evaluated in the expanded form
        -2 e^{-2a} - ((2b - 10) a - 10) e^{-3a}
        + ((4b - 12) a^2 + (2b - 16) a - 8) e^{-4a},
    a = lam * tau, b = t_c / tau.  Computing mean - variance directly
    cancels catastrophically beyond a ~ 25, where the true value is
    exponentially smaller than either moment.
    """
    _require_window(tau, t_c)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if tau == 0.0 or lam == 0.0:
        return 0.0
    a = lam * tau
    b = t_c / tau
    return (
        -2.0 * math.exp(-2.0 * a)
        - ((2.0 * b - 10.0) * a - 10.0) * math.exp(-3.0 * a)
        + ((4.0 * b - 12.0) * a * a + (2.0 * b - 16.0) * a - 8.0) * math.exp(-4.0 * a)
    )


def find_lambda0(tau: float, t_c: float, rel_tol: float = 1e-10, a_max: float = 50.0) -> float:
    """Arrival rate where the survivor statistics cross from sub- to super-Poisson.

    Brackets the sign change of delta_lambda on lam*tau in (0, a_max]
    and bisects to the requested relative tolerance.
    """
    _require_window(tau, t_c)
    if tau <= 0:
        raise ValueError("tau must be > 0 to locate a crossover")
    a_grid = np.geomspace(1e-6, a_max, 400)
    signs = np.array([delta_lambda(a / tau, tau, t_c) for a in a_grid])
    pos = np.nonzero(signs > 0)[0]
    neg = np.nonzero(signs < 0)[0]
    if pos.size == 0 or neg.size == 0 or neg[-1] < pos[0]:
        raise RootBracketError(f"no sub-to-super crossover on lam*tau in (0, {a_max}]")
    i = pos[-1]
    j = i + 1
    if j >= a_grid.size or signs[j] >= 0:
        raise RootBracketError("sign pattern is not a single crossover")
    lo, hi = a_grid[i], a_grid[j]
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if delta_lambda(mid / tau, tau, t_c) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / tau


@dataclass(frozen=True)
class PieceIntegrals:
    """Regional contributions to the pair survival probability E(I1 I2).

    Each piece carries the 2/t_c^2 normalization, so the four pieces sum
    to E(I1 I2).  numeric holds adaptive-quadrature values of the region
    integrals, closed the exact antiderivatives.
    """

    numeric: tuple
    closed: tuple

    @property
    def pair_survival_numeric(self) -> float:
        return float(sum(self.numeric))

    @property
    def pair_survival_closed(self) -> float:
        return float(sum(self.closed))


def pair_survival_integrals(n: int, tau: float, t_c: float) -> PieceIntegrals:
    """Evaluate the four pair-survival region integrals and their closed forms.

    The regions partition the position of the earlier photon of the pair:
    near the left edge, in the bulk, and two bands near the right edge.
    Used as the proof-level oracle for the second survivor moment.
    """
    from scipy import integrate

    _require_window(tau, t_c)
    if n < 2:
        raise ValueError("pair survival needs n >= 2")
    T = t_c
    qopts = dict(epsabs=1e-13, epsrel=1e-11)

    a1 = integrate.dblquad(
        lambda t2, t1: (1 - (t2 + tau) / T) ** (n - 2), 0, tau,
        lambda t1: t1 + tau, lambda t1: t1 + 2 * tau, **qopts)[0]
    a2 = integrate.dblquad(
        lambda t2, t1: (1 - (t1 + 3 * tau) / T) ** (n - 2), 0, tau,
        lambda t1: t1 + 2 * tau, lambda t1: T - tau, **qopts)[0]
    b1 = integrate.dblquad(
        lambda t2, t1: (1 - (t2 - t1 + 2 * tau) / T) ** (n - 2), tau, T - 3 * tau,
        lambda t1: t1 + tau, lambda t1: t1 + 2 * tau, **qopts)[0]
    b2 = integrate.dblquad(
        lambda t2, t1: (1 - 4 * tau / T) ** (n - 2), tau, T - 3 * tau,
        lambda t1: t1 + 2 * tau, lambda t1: T - tau, **qopts)[0]
    c1 = integrate.dblquad(
        lambda t2, t1: (1 - (t2 - t1 + 2 * tau) / T) ** (n - 2), T - 3 * tau, T - 2 * tau,
        lambda t1: t1 + tau, lambda t1: T - tau, **qopts)[0]
    c2 = integrate.dblquad(
        lambda t2, t1: ((t1 - tau) / T) ** (n - 2), T - 3 * tau, T - 2 * tau,
        lambda t1: T - tau, lambda t1: t1 + 2 * tau, **qopts)[0]
    d1 = integrate.dblquad(
        lambda t2, t1: (1 - (T - t1 + tau) / T) ** (n - 2), T - 2 * tau, T - tau,
        lambda t1: t1 + tau, lambda t1: T, **qopts)[0]
    scale = 2.0 / (T * T)
    numeric = (scale * (2 * a1 + a2), scale * (2 * b1 + b2), scale * (2 * c1 + c2), scale * d1)

    x2 = 1 - 2 * tau / T
    x3 = 1 - 3 * tau / T
    x4 = 1 - 4 * tau / T
    nn = float(n)
    closed_a = (
        (4 / (nn * (nn - 1))) * x2**n
        + ((2 * nn - 10) / (nn * (nn - 1))) * x3**n
        + ((6 - 2 * nn) / (nn * (nn - 1))) * x4**n
    )
    closed_b = (4 / (nn - 1)) * x4 * x3 ** (n - 1) + ((nn - 5) / (nn - 1)) * x4**n
    closed_c = (
        (4 * tau / (T * (nn - 1))) * x3 ** (n - 1)
        + ((2 * nn - 6) / (nn * (nn - 1))) * (x3**n - x4**n)
        - (2 * x4 / (nn - 1)) * x3 ** (n - 1)
        + (2 / (nn - 1)) * x4**n
    )
    closed_d = (2 / (nn * (nn - 1))) * (x2**n - x3**n) - (2 * tau / ((nn - 1) * T)) * x3 ** (n - 1)
    return PieceIntegrals(numeric=numeric, closed=(closed_a, closed_b, closed_c, closed_d))


def _poisson_sorted_arrivals(rng: np.random.Generator, mean: float, m: int, t_c: float):
    """m rows of sorted Poisson-process arrivals on [0, t_c], padded with +inf."""
    counts = rng.poisson(mean, m)
    n_max = int(counts.max()) if m else 0
    if n_max == 0:
        return np.full((m, 1), np.inf), counts
    arr = rng.random((m, n_max)) * t_c
    arr[np.arange(n_max)[None, :] >= counts[:, None]] = np.inf
    arr.sort(axis=1)
    return arr, counts


def _pack_rows(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Left-pack kept entries of each row, preserving order; pad with +inf."""
    order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(values, order, axis=1)
    kcount = keep.sum(axis=1)
    width = int(kcount.max()) if kcount.size else 0
    packed = packed[:, : max(width, 1)]
    packed[np.arange(packed.shape[1])[None, :] >= kcount[:, None]] = np.inf
    return packed


def saturated_excitation(
    lam: float,
    timing: CycleTiming,
    dev: DeviceParams,
    enter_excited: bool = False,
    replicas: int = 4096,
    rng: Optional[np.random.Generator] = None,
    window: Optional[SaturationWindow] = None,
    max_block_elems: int = 20_000_000,
) -> Estimate:
    """Excitation probability at the observation time with dead-time filtering.

    Samples Poisson traces, removes saturated photons, then runs the
    renewal transition dynamics on the survivors.  For gamma = 0 the
    Bernoulli draw is replaced by the exact conditional probability given
    the first survivor (same estimand, lower variance).  The estimand has
    the exact value survivor_excitation, and this estimator is its Monte
    Carlo oracle.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if rng is None:
        rng = substream(0, 0x5A)
    if window is None:
        window = SaturationWindow.from_device(dev)
    tau = window.tau
    t_c, t_obs = timing.t_c, timing.t_obs
    kappa, gamma = dev.kappa, dev.gamma
    r = dev.transition_rate
    mean = lam * t_c
    block = max(1, min(replicas, int(max_block_elems / max(mean * 1.3 + 8.0, 8.0))))

    vals = np.empty(replicas)
    done = 0
    while done < replicas:
        m = min(block, replicas - done)
        arr, _counts = _poisson_sorted_arrivals(rng, mean, m, t_c)
        keep = survivor_mask(arr, tau)
        if gamma == 0.0 and not enter_excited:
            # only the first survivor matters: once armed, the system never
            # returns to ground, so later survivors cannot transition
            has = keep.any(axis=1)
            first = arr[np.arange(m), np.argmax(keep, axis=1)]
            out = np.where(has, -np.expm1(-r * np.where(has, t_c - first, 0.0)), 0.0)
            vals[done : done + m] = out
        else:
            surv = _pack_rows(arr, keep)
            n_cols = surv.shape[1]
            if enter_excited:
                init_decay = rng.exponential(1.0 / gamma, m) if gamma > 0 else np.full(m, np.inf)
                avail = init_decay.copy()
                last_fire = np.zeros(m)
                last_decay = init_decay.copy()
            else:
                avail = np.zeros(m)
                last_fire = np.full(m, np.inf)
                last_decay = np.full(m, np.inf)
            fire_w = rng.exponential(4.0 / kappa, (m, n_cols))
            decay_w = rng.exponential(1.0 / gamma, (m, n_cols)) if gamma > 0 else np.full((m, n_cols), np.inf)
            last_fire, last_decay = detector_events(
                surv, fire_w, decay_w, t_c, avail, last_fire, last_decay
            )
            vals[done : done + m] = ((last_fire <= t_c) & (last_decay > t_obs)).astype(float)
        done += m
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return Estimate(est, se)


def _conv(a, b, x):
    """int_0^x e^{-a s} e^{-b (x - s)} ds for rates a, b >= 0."""
    return x * np.exp(-np.minimum(a, b) * x) * _phi(np.abs(a - b) * x)


# Taylor coefficients of the cell weights below z = 0.05, highest order first
_LOWER_SERIES = [(-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(7, -1, -1)]
_UPPER_SERIES = [(-1) ** k / math.factorial(k + 2) for k in range(7, -1, -1)]


def _cell_weights(z):
    """Weights (lower node, upper node) of int_0^1 f(theta) e^{-z (1 - theta)} dtheta
    for f linear between its node values, elementwise for z >= 0."""
    z = np.asarray(z, dtype=float)
    small = z < 0.05
    zs = np.where(small, 1.0, z)
    em1 = np.expm1(-zs)
    lower = np.where(small, np.polyval(_LOWER_SERIES, z), (-em1 - zs * (em1 + 1.0)) / (zs * zs))
    upper = np.where(small, np.polyval(_UPPER_SERIES, z), (zs + em1) / (zs * zs))
    return lower, upper


def survivor_excitation(
    lam,
    timing: CycleTiming,
    dev: DeviceParams,
    enter_excited: bool = False,
    window: Optional[SaturationWindow] = None,
    cells_per_tau: int = 16,
) -> np.ndarray:
    """Exact excitation at the observation time under dead-time filtering.

    This is the value saturated_excitation estimates, for every gamma >= 0
    and both entry levels: P(E at t_c) * exp(-gamma delta_o).  The
    survivors are the output of a type-II counter (Pyke 1958), and a
    survivor arms the detector only while it sits in ground; armed, it is
    excited at rate r = kappa/4 and decays back to ground at rate gamma.
    Let h(s) be lam times the probability that the detector is in ground
    at s and no photon arrived in (s - tau, s].  With the edge rules of
    survivor_mask it obeys the delay-Volterra equation

        h(s) = lam Phi(s) - lam e^{-lam tau} int_0^{s - tau} h(v) B(s - v) e^{-lam min(s - v - tau, tau)} dv,

    Phi(s) = e^{-lam min(s, tau)}, times 1 - e^{-gamma s} for an excited
    entry, and B(v) = (gamma e^{-r v} - r e^{-gamma v}) / (gamma - r) the
    probability of being armed or excited v after arming.  A survivor at
    s arms the detector with density h(s) e^{-lam min(tau, t_c - s)}, so

        P(E at t_c) = [excited entry] e^{-gamma t_c} + int_0^{t_c} h(s) e^{-lam min(tau, t_c - s)} A(t_c - s) ds,

    A(v) = r (e^{-r v} - e^{-gamma v}) / (gamma - r).  The kernel is a
    sum of exponentials on [tau, 2 tau) and on [2 tau, inf), so the
    method of steps carries h on the last two blocks of tau
    (cells_per_tau cells each, plus a node where t_c falls) and two
    running sums, int h(v) e^{-r (s - v)} dv and int h(v) D(s - v) dv
    with D = (e^{-r v} - e^{-gamma v}) / (gamma - r), plus e^{-gamma s}
    for an excited entry.  h is linear between nodes and every
    exponential is integrated against it exactly, so the error is second
    order in the cell width.  Blocks 0 to 2 see the steep first-block
    h(s) = lam e^{-lam s} (1 - [excited] e^{-gamma s}) and are solved
    in closed form where they touch it.  Every later block map is the
    same affine map, applied t_c/tau - 2 times by repeated squaring of
    the stacked per-lambda matrices, so the cost grows with
    log(kappa t_c).  No exponent is positive.  At gamma = 0 this is the
    first-survivor delay-renewal equation (Feller 1948) with h = lam x.
    Returns an array shaped like lam.
    """
    lam = np.asarray(lam, dtype=float)
    shape = lam.shape
    lam = lam.ravel()
    if np.any(lam < 0):
        raise ValueError("lambda must be >= 0")
    if cells_per_tau < 1:
        raise ValueError("cells_per_tau must be >= 1")
    if window is None:
        window = SaturationWindow.from_device(dev)
    tau, t_c = window.tau, timing.t_c
    _require_window(tau, t_c)
    exc = float(enter_excited)
    # rates in units of 1/tau, times in units of tau
    L = lam * tau
    R, G = dev.transition_rate * tau, dev.gamma * tau
    if abs(G - R) < 1e-8 * R:
        # B and A have a removable 0/0 at gamma = r; moving gamma by 1e-8 r
        # changes the result by about 1e-8, below the discretization error
        G = R * (1.0 + 1e-8)
    inv = 1.0 / (G - R)
    b_r, b_g = G * inv, -R * inv  # B(v) = b_r e^{-R v} + b_g e^{-G v}

    def D(v):
        v = np.asarray(v, dtype=float)
        return v * np.exp(-min(R, G) * v) * _phi(abs(G - R) * v)

    # block nodes; t_c = (n + rho) tau is snapped to 1e-9 tau
    blocks = t_c / tau
    n = int(math.floor(blocks + 1e-9))
    rho = max(blocks - n, 0.0)
    sigma = np.linspace(0.0, 1.0, cells_per_tau + 1)
    if np.abs(sigma - rho).min() > 1e-9:
        sigma = np.sort(np.append(sigma, rho))
    end = int(np.argmin(np.abs(sigma - rho)))  # node of t_c in its block
    m = sigma.size - 1

    # state: h on the 2m + 1 nodes of the window [k - 2, k] (block k is
    # next), the two running sums at k - 2, e^{-G (k - 1)} if excited, 1
    u = np.concatenate([sigma, 1.0 + sigma[1:]])
    width = np.diff(u)
    nh = 2 * m + 1
    i_r, i_d, i_e = nh, nh + 1, nh + 2
    one = nh + 2 + int(enter_excited)
    size = one + 1
    n_lam = lam.size

    def cells(lo, hi, terms, decay=None):
        """Weights (lower node, upper node) per row k and cell i of the integral of
        h(s) sum_(c, a) c_k e^{-a (u[hi_k] - s)} over nodes lo_k..hi_k, exact for h
        linear between nodes.  With decay = e^{-lam (u[hi_k] - u[i + 1])} per lambda,
        every rate a becomes lam + a."""
        inside = (np.arange(nh - 1) >= lo[:, None]) & (np.arange(nh - 1) < hi[:, None])
        dist = np.where(inside, u[hi, None] - u[1:], 0.0)
        w_lo = w_hi = 0.0
        for coef, a in terms:
            scale = np.where(inside, np.exp(-a * dist) * width, 0.0) * np.reshape(coef, (-1, 1))
            c_lo, c_hi = _cell_weights((a if decay is None else L[:, None, None] + a) * width)
            w_lo, w_hi = w_lo + scale * c_lo, w_hi + scale * c_hi
        if decay is not None:
            w_lo, w_hi = decay * w_lo, decay * w_hi
        return w_lo, w_hi

    def rows(w_lo, w_hi):
        """Cell weights gathered onto the window nodes."""
        out = np.zeros(np.shape(w_lo)[:-1] + (nh,))
        out[..., :-1] += w_lo
        out[..., 1:] += w_hi
        return out

    # running sums at every node j of the oldest block, as rows on the state
    j_all = np.arange(m + 1)
    in_r = rows(*cells(0 * j_all, j_all, [(1.0, R)]))
    in_g = rows(*cells(0 * j_all, j_all, [(1.0, G)]))
    run_r = np.zeros((m + 1, size))
    run_r[:, :nh] = in_r
    run_r[:, i_r] = np.exp(-R * sigma)
    run_d = np.zeros((m + 1, size))
    run_d[:, :nh] = (in_r - in_g) * inv
    run_d[:, i_r] = D(sigma)
    run_d[:, i_d] = np.exp(-G * sigma)

    # the lambda-dependent rows: the block map's new nodes 1..m, weighted by
    # B(w + 1) e^{-lam w}, and the readout, weighted by A(w) e^{-lam w}
    new = j_all[1:]
    lo, hi = np.append(new, end), np.append(m + new, m + end)
    dist = np.maximum(u[hi, None] - u[1:], 0.0)
    uniq, back = np.unique(dist, return_inverse=True)
    decay = np.exp(-np.multiply.outer(L, uniq))[:, back.reshape(dist.shape)]
    coef_r = np.append(np.full(m, b_r * math.exp(-R)), R * inv)
    coef_g = np.append(np.full(m, b_g * math.exp(-G)), -R * inv)
    w_lo, w_hi = cells(lo, hi, [(coef_r, R), (coef_g, G)], decay)
    lam_rows = rows(w_lo, w_hi)
    near_new, readout_near = lam_rows[:, :m], lam_rows[:, m]

    # block map: h at the new nodes, the window shifted by one block
    e_l = np.exp(-L)[:, None, None]
    lel = (L * np.exp(-L))[:, None, None]
    force = -e_l * ((math.exp(-2.0 * R) + R * D(2.0)) * run_r[new] + (R * math.exp(-2.0 * G)) * run_d[new])
    force[..., :nh] -= near_new
    force[..., one] += 1.0
    if enter_excited:
        force[..., i_e] -= np.exp(-G * (1.0 + sigma[new]))
    step = np.zeros((n_lam, size, size))
    step[:, : m + 1, m:nh] = np.eye(m + 1)
    step[:, m + 1 : nh] = lel * force
    step[:, i_r] = run_r[m]
    step[:, i_d] = run_d[m]
    if enter_excited:
        step[:, i_e, i_e] = math.exp(-G)
    step[:, one, one] = 1.0

    # state with the window on blocks 1 and 2; h on block 0 enters in closed form
    Lc, x = L[:, None], sigma[None, :]
    coefs = ((b_r, R), (b_g, G))
    i1 = sum(k * math.exp(-a) * (_conv(0.0, a, x) - exc * _conv(G, a, x)) for k, a in coefs)
    h1 = Lc * np.exp(-Lc) * (1.0 - exc * np.exp(-G * (1.0 + x)) - Lc * np.exp(-Lc * x) * i1)
    y = 1.0 - x
    near0 = Lc * np.exp(-Lc * (1.0 + x)) * sum(
        k * np.exp(-a * (1.0 + x)) * (_conv(0.0, a, y) - exc * np.exp(-G * x) * _conv(G, a, y))
        for k, a in coefs
    )
    far0 = Lc * np.exp(-Lc) * sum(
        k * math.exp(-2.0 * a) * (_conv(Lc, a, x) - exc * _conv(Lc + G, a, x)) for k, a in coefs
    )
    # block 2 from block 1: the new-node rows, cut to the cells of block 1
    near1 = np.zeros_like(h1)
    near1[:, 1:] = np.einsum("lji,li->lj", w_lo[:, :m, m:], h1[:, :-1]) + np.einsum(
        "lji,li->lj", w_hi[:, :m, m:], h1[:, 1:]
    )
    h2 = Lc * np.exp(-Lc) * (1.0 - exc * np.exp(-G * (2.0 + x)) - near0 - near1 - far0)
    state = np.zeros((n_lam, size))
    state[:, : m + 1] = h1
    state[:, m:nh] = h2  # h at 2 tau ends block 1 and starts block 2
    sum_r = _conv(L, R, 1.0) - exc * _conv(L + G, R, 1.0)
    sum_g = _conv(L, G, 1.0) - exc * _conv(L + G, G, 1.0)
    state[:, i_r] = L * sum_r
    state[:, i_d] = L * (sum_r - sum_g) * inv
    if enter_excited:
        state[:, i_e] = math.exp(-2.0 * G)
    state[:, one] = 1.0

    # entries below 1e-150 (large lam tau) move no probability, but their
    # products go subnormal inside the matrix products and halve their speed
    step[np.abs(step) < 1e-150] = 0.0
    power, todo = step, n - 2
    while todo:
        if todo & 1:
            state = np.matmul(power, state[:, :, None])[:, :, 0]
        todo >>= 1
        if todo:
            power = np.matmul(power, power)

    # readout on the window [n - 1, n + 1], where t_c sits at node m + end
    readout = e_l[:, 0] * R * (math.exp(-G) * run_d[end] + D(1.0) * run_r[end])
    readout[:, :nh] += readout_near
    if enter_excited:
        readout[:, i_e] += math.exp(-G * rho)
    # rounding in the squarings can leave values ~1e-13 outside [0, 1]
    p = np.clip(np.einsum("ld,ld->l", readout, state), 0.0, 1.0)
    return (p * math.exp(-dev.gamma * timing.delta_o)).reshape(shape)


def log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    """Logarithmic grid with a fixed point density per decade."""
    if not (hi > lo > 0):
        raise ValueError("require hi > lo > 0")
    n = max(2, int(round(math.log10(hi / lo) * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of a 3 dB cutoff scan over the mean photon number."""

    n_cutoff: float
    n_grid: np.ndarray
    excitation: np.ndarray
    peak_value: float
    peak_index: int


def cutoff_photon_number(
    dev: DeviceParams,
    t_c: float,
    n_grid: np.ndarray,
    window: Optional[SaturationWindow] = None,
) -> CutoffResult:
    """Mean photon number where the saturated excitation drops 3 dB.

    Evaluates the exact survivor_excitation with ground entry over the
    given increasing grid of mean photon numbers at once, locates the
    maximum, then the first point at or below half the maximum, and
    interpolates the crossing linearly on log-log axes.  The curve is
    taken at t_c: the decay over delta_o is a constant factor and does
    not move a 3 dB point.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    if n_grid.size < 3 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n_grid must be increasing with at least 3 points")
    timing = CycleTiming(t_c=t_c, delta_o=t_c * 1e-9, t_w=t_c * 1e-9)
    exc = survivor_excitation(n_grid / t_c, timing, dev, window=window)
    peak_index = int(np.argmax(exc))
    peak = float(exc[peak_index])
    if peak <= 0:
        raise NotSaturatingError("excitation is zero over the whole sweep")
    half = 0.5 * peak
    below = np.nonzero(exc[peak_index + 1 :] <= half)[0]
    if below.size == 0:
        raise NotSaturatingError("no 3 dB drop within the sweep range")
    j = peak_index + 1 + int(below[0])
    x0, x1 = math.log(n_grid[j - 1]), math.log(n_grid[j])
    y0, y1 = math.log(max(exc[j - 1], 1e-300)), math.log(max(exc[j], 1e-300))
    if y0 == y1:
        n_cut = n_grid[j]
    else:
        n_cut = math.exp(x0 + (math.log(half) - y0) * (x1 - x0) / (y1 - y0))
    return CutoffResult(
        n_cutoff=float(n_cut), n_grid=n_grid, excitation=exc, peak_value=peak, peak_index=peak_index,
    )


@dataclass(frozen=True)
class CutoffFit:
    """Power-law fit n_cutoff = a * x^b + c with RMS relative residual."""

    a: float
    b: float
    c: float
    residual: float
    x_range: tuple

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("fitted exponent b must be > 0")

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.x_range
        if np.any(x < lo * (1 - 1e-9)) or np.any(x > hi * (1 + 1e-9)):
            raise ValueError(f"x outside fitted range [{lo}, {hi}]")
        return self.a * x**self.b + self.c


def fit_cutoff_curve(
    samples: Sequence[tuple],
    init: tuple = (1.0, 1.0, 0.0),
    max_iter: int = 200,
    step_tol: float = 1e-12,
) -> CutoffFit:
    """Least-squares fit of a three-parameter power law on relative residuals.

    Levenberg-Marquardt damping with the analytic Jacobian; deterministic
    for a fixed initialization.  Requires at least four samples spanning
    two decades of the abscissa.
    """
    pts = sorted((float(x), float(y)) for x, y in samples)
    if len(pts) < 4:
        raise ValueError("need at least 4 samples")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("samples must be positive")
    if x[-1] / x[0] < 100.0 * (1 - 1e-9):
        raise ValueError("samples must span at least two decades")

    theta = np.array(init, dtype=float)
    lam_damp = 1e-3

    def residuals(th):
        a, b, c = th
        return (a * x**b + c - y) / y

    res = residuals(theta)
    cost = float(res @ res)
    converged = False
    for _ in range(max_iter):
        a, b, c = theta
        xb = x**b
        jac = np.column_stack([xb / y, a * xb * np.log(x) / y, 1.0 / y])
        g = jac.T @ res
        h = jac.T @ jac
        step_ok = False
        for _ in range(50):
            try:
                delta = np.linalg.solve(h + lam_damp * np.diag(np.diag(h)), -g)
            except np.linalg.LinAlgError:
                lam_damp *= 10.0
                continue
            trial = theta + delta
            tr_res = residuals(trial)
            tr_cost = float(tr_res @ tr_res)
            if tr_cost < cost:
                theta, res, cost = trial, tr_res, tr_cost
                lam_damp = max(lam_damp / 10.0, 1e-12)
                step_ok = True
                break
            lam_damp *= 10.0
        if not step_ok:
            converged = True  # damping exhausted: at a (local) minimum
            break
        if np.linalg.norm(delta) <= step_tol * (np.linalg.norm(theta) + step_tol):
            converged = True
            break
    if not converged:
        raise FitConvergenceError(f"no convergence after {max_iter} iterations")
    rms = math.sqrt(cost / x.size)
    return CutoffFit(a=float(theta[0]), b=float(theta[1]), c=float(theta[2]),
                     residual=rms, x_range=(float(x[0]), float(x[-1])))
