"""Fixed-window dead-time (saturation) model and survivor counting statistics.

A photon survives saturation iff no other photon arrives within the
dead time tau (DeviceParams.dead_time) on either side.  Closed-form
survivor moments are provided for a fixed count and for Poisson
arrival (their quadrature and lemma oracles are in `detection`), with
the sub-/super-Poisson crossover, saturated excitation curves (exact for
every gamma and entry level from a delay-Volterra equation) and the 3 dB
cutoff machinery.  The Monte Carlo saturated_excitation and
cutoff_photon_number stay here only for the benchmark tracer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Generator, Sequence

import numpy as np

from .errors import NotSaturatingError, NumericsError, RootBracketError
from .physics import CycleTiming, DeviceParams, _cell_weights, _phi, _poisson_sorted_arrivals, detector_events
from .report import Estimate

__all__ = [
    "SurvivorMoments",
    "PoissonSurvivorMoments",
    "CutoffFit",
    "CutoffResult",
    "survivor_mask",
    "survivor_moments_given_count",
    "survivor_moments_poisson",
    "delta_lambda",
    "find_lambda0",
    "saturated_excitation",
    "SurvivorOperator",
    "cutoff_photon_number",
    "cutoff_photon_numbers",
    "cutoff_operator",
    "scan_cutoff",
    "fit_cutoff_curve",
    "log_grid",
]

_MIN_WINDOW_RATIO = 4.0  # closed forms assume t_c / tau >= 4
_LAMBDA0_A_MAX = 50.0
_LAMBDA0_REL_TOL = 1e-10
_MAX_BLOCK_ELEMS = 20_000_000  # arrival times per block of saturated_excitation
_VARIANCE_TOL = 64.0 * np.finfo(float).eps  # the rounding of second - mean^2, relative to max(1, second)


@dataclass(frozen=True)
class SurvivorMoments:
    """First two moments of the survivor count."""

    mean: float
    second_moment: float
    variance: float


@dataclass(frozen=True)
class PoissonSurvivorMoments(SurvivorMoments):
    """Survivor moments under Poisson arrival, with delta = mean - variance.

    regime is the sign of delta: "sub-poisson" when the count is narrower
    than Poisson (delta > 0), "super-poisson" when wider (delta < 0),
    "poisson-boundary" where delta = 0.
    """

    delta: float

    @property
    def regime(self) -> str:
        if self.delta > 0:
            return "sub-poisson"
        if self.delta < 0:
            return "super-poisson"
        return "poisson-boundary"


def survivor_mask(times: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of surviving photons for sorted arrival rows.

    Works on a 1-d trace or a batch of rows; rows may be padded with
    +inf, padding never survives.
    """
    t = np.atleast_2d(np.asarray(times, dtype=float))
    with np.errstate(invalid="ignore"):
        # padded rows produce inf - inf gaps; NaN compares False below
        gap_ok = np.diff(t, axis=1) >= tau
    # each gap clears the photon on its left and the one on its right
    mask = np.isfinite(t)
    mask[:, 1:] &= gap_ok
    mask[:, :-1] &= gap_ok
    return mask[0] if np.asarray(times).ndim == 1 else mask


def _require_window(tau: float, t_c: float) -> None:
    if tau < 0 or not t_c > 0:
        raise ValueError("require tau >= 0 and t_c > 0")
    if tau > 0 and t_c / tau < _MIN_WINDOW_RATIO:
        raise ValueError(f"closed forms require t_c/tau >= {_MIN_WINDOW_RATIO}, got {t_c / tau}")


def survivor_moments_given_count(n: int, tau: float, t_c: float) -> SurvivorMoments:
    """Survivor-count moments for exactly n uniform arrivals in [0, t_c].

    With a = tau/t_c, each x_k^n = (1 - k a)^n is exp(n log1p(-k a)).  The
    variance is regrouped through x1^2 = x2 + a^2, x1 x2 = x3 + 2 a^2 and
    x2^2 = x4 + 4 a^2 into 2 g(x1, x4) + n g(x2, x4) + (2n - 10) g(x3, x4)
    - 4 g(x1^2, x2) - 4 (n - 2) g(x1 x2, x3) - (n - 2)^2 g(x2^2, x4), where
    g(y, x) = y^n - x^n = -y^n expm1(-n log1p((y - x)/x)) neither cancels
    nor overflows.  second - mean^2 cancels at large n and small a, and is
    only its cross-check.
    """
    _require_window(tau, t_c)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:  # a lone photon always survives
        return SurvivorMoments(mean=float(n), second_moment=float(n), variance=0.0)
    a = tau / t_c
    p1, p2, p3, p4 = (math.exp(n * math.log1p(-k * a)) if k * a < 1.0 else 0.0 for k in (1, 2, 3, 4))

    def g(y_n: float, step: float, x: float) -> float:
        """y^n - x^n for y = x + step, from y^n."""
        return -y_n * math.expm1(-n * math.log1p(step / x)) if x > 0.0 else y_n

    x2, x3, x4 = 1.0 - 2.0 * a, 1.0 - 3.0 * a, 1.0 - 4.0 * a
    aa = a * a
    mean = 2.0 * p1 + (n - 2.0) * p2
    second = 2.0 * p1 + (n + 4.0) * p2 + (n * n - 7.0 * n + 12.0) * p4 + (6.0 * n - 18.0) * p3
    variance = (
        2.0 * g(p1, 3.0 * a, x4) + n * g(p2, 2.0 * a, x4) + (2.0 * n - 10.0) * g(p3, a, x4)
        - 4.0 * g(p1 * p1, aa, x2)
        - 4.0 * (n - 2.0) * g(p1 * p2, 2.0 * aa, x3)
        - (n - 2.0) ** 2 * g(p2 * p2, 4.0 * aa, x4)
    )
    if not abs(variance - (second - mean * mean)) <= _VARIANCE_TOL * max(1.0, second):  # also on nan
        raise NumericsError(f"variance forms disagree for n={n}: {variance} vs {second - mean * mean}")
    if variance < 0:
        if variance < -1e-9 * max(1.0, second):
            raise NumericsError(f"negative variance {variance} for n={n}")
        variance = 0.0
    return SurvivorMoments(mean=mean, second_moment=second, variance=variance)


def survivor_moments_poisson(lam: float, tau: float, t_c: float) -> PoissonSurvivorMoments:
    """Survivor-count moments under Poisson arrival at rate lam.

    The variance is mean - delta_lambda, which carries the regime.  It is
    cross-checked against second moment minus squared mean, which cancels.
    """
    delta = delta_lambda(lam, tau, t_c)
    lt = lam * tau
    e1, e2, e3, e4 = (math.exp(-k * lt) for k in (1, 2, 3, 4))
    if e1 == 0.0:  # no photon survives to double precision, and lam * t_c squared may overflow
        return PoissonSurvivorMoments(mean=0.0, second_moment=0.0, variance=0.0, delta=delta)
    mean = 2.0 * e1 + (lam * (t_c - 2.0 * tau) - 2.0) * e2
    y3 = lam * t_c - 3.0 * lam * tau
    y4 = lam * t_c - 4.0 * lam * tau
    second = (
        2.0 * e1
        + (lam * (t_c - 2.0 * tau) + 4.0) * e2
        + (6.0 * y3 - 18.0) * e3
        + (y4 * y4 - 6.0 * y4 + 12.0) * e4
    )
    variance = mean - delta
    if not abs(variance - (second - mean * mean)) <= _VARIANCE_TOL * max(1.0, second):  # also on nan
        raise NumericsError(f"variance forms disagree: {variance} vs {second - mean * mean}")
    if variance < 0:
        if variance < -1e-9:
            raise NumericsError(f"negative variance {variance}")
        variance = 0.0
    return PoissonSurvivorMoments(mean=mean, second_moment=second, variance=variance, delta=delta)


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
    if math.exp(-a) == 0.0:  # every term underflows, and a * a may overflow
        return 0.0
    b = t_c / tau
    return (
        -2.0 * math.exp(-2.0 * a)
        - ((2.0 * b - 10.0) * a - 10.0) * math.exp(-3.0 * a)
        + ((4.0 * b - 12.0) * a * a + (2.0 * b - 16.0) * a - 8.0) * math.exp(-4.0 * a)
    )


def find_lambda0(tau: float, t_c: float) -> float:
    """Arrival rate where the survivor statistics cross from sub- to super-Poisson.

    Brackets the sign change of delta_lambda on lam*tau in
    (0, _LAMBDA0_A_MAX] and bisects to the relative tolerance _LAMBDA0_REL_TOL.
    """
    _require_window(tau, t_c)
    if tau <= 0:
        raise ValueError("tau must be > 0 to locate a crossover")
    a_grid = np.geomspace(1e-6, _LAMBDA0_A_MAX, 400)
    signs = np.array([delta_lambda(a / tau, tau, t_c) for a in a_grid])
    pos = np.nonzero(signs > 0)[0]
    neg = np.nonzero(signs < 0)[0]
    if pos.size == 0 or neg.size == 0 or neg[-1] < pos[0]:
        raise RootBracketError(f"no sub-to-super crossover on lam*tau in (0, {_LAMBDA0_A_MAX}]")
    i = pos[-1]
    j = i + 1
    if j >= a_grid.size or signs[j] >= 0:
        raise RootBracketError("sign pattern is not a single crossover")
    lo, hi = a_grid[i], a_grid[j]
    while (hi - lo) > _LAMBDA0_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if delta_lambda(mid / tau, tau, t_c) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / tau


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
    *,
    rng: np.random.Generator,
) -> Estimate:
    """Excitation probability at the observation time with dead-time filtering.

    Samples Poisson traces, removes saturated photons, then runs the
    renewal transition dynamics on the survivors.  For gamma = 0 the
    Bernoulli draw is replaced by the exact conditional probability given
    the first survivor (same estimand, lower variance).  The estimand has
    the exact value SurvivorOperator.excitation, and this estimator is its
    Monte Carlo oracle.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    tau = dev.dead_time
    t_c, t_obs = timing.t_c, timing.t_obs
    kappa, gamma = dev.kappa, dev.gamma
    r = dev.transition_rate
    mean = lam * t_c
    block = max(1, min(replicas, int(_MAX_BLOCK_ELEMS / max(mean * 1.3 + 8.0, 8.0))))

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


def _node_rows(w_lo, w_hi):
    """Cell weights (lower node, upper node) gathered onto the nodes."""
    out = np.zeros(np.shape(w_lo)[:-1] + (np.shape(w_lo)[-1] + 1,))
    out[..., :-1] += w_lo
    out[..., 1:] += w_hi
    return out


@dataclass(frozen=True, eq=False)
class SurvivorOperator:
    """Exact excitation at the observation time under dead-time filtering.

    build(timing, dev, enter_excited).excitation(lam) is the value
    saturated_excitation estimates, for every gamma >= 0 and both entry
    levels: P(E at t_c) * exp(-gamma delta_o), shaped like lam.  The
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

    The solve is split at lambda.  build() makes everything that depends
    only on (kappa tau/4, gamma tau, t_c/tau, the entry level, cells_per_tau):
    the node grid sigma (one block of tau; width spans the window of two
    blocks), the lag table dist of the e^{-lam w} weights, the cell scales
    of the new-node and readout rows, the lambda-free part of the force
    rows, the block map's shift, running-sum and constant rows
    (step_base), the block-0 integrals and the readout vector.
    excitation(lam) adds the lambda-dependent rows, squares the block map
    and reads out, so one operator serves every lambda grid of a cutoff
    scan or every kernel of a link sweep; _stacked_excitation does the
    same for rates spread over several operators.  The arrays are
    read-only, so the threads of a link sweep can share one operator.
    """

    tau: float
    t_c: float
    rates: tuple  # (R, G) = (kappa/4, gamma) in units of 1/tau
    enter_excited: bool
    blocks: int  # whole blocks of tau in t_c
    rho: float  # the part block at the end, t_c = (blocks + rho) tau
    sigma: np.ndarray
    width: np.ndarray
    dist: np.ndarray  # per lambda row and cell: the lag w of its e^{-lam w} weight
    cell_scales: np.ndarray  # one per rate, R then G
    far_coefs: tuple  # one per rate: the block-0 weights of the far sum
    force_base: np.ndarray
    step_base: np.ndarray
    i1: np.ndarray
    near0_sum: np.ndarray
    entry_ground: np.ndarray  # 1 - [excited] e^{-gamma s} at blocks 1 and 2
    readout_base: np.ndarray
    readout_decay: float  # e^{-gamma delta_o}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def build(
        cls,
        timing: CycleTiming,
        dev: DeviceParams,
        enter_excited: bool = False,
        cells_per_tau: int = 16,
    ) -> "SurvivorOperator":
        """The lambda-free part of the solve, built once."""
        if cells_per_tau < 1:
            raise ValueError("cells_per_tau must be >= 1")
        tau, t_c = dev.dead_time, timing.t_c
        _require_window(tau, t_c)
        # rates in units of 1/tau, times in units of tau
        R, G = dev.transition_rate * tau, dev.gamma * tau
        if abs(G - R) < 1e-8 * R:
            # B and A have a removable 0/0 at gamma = r; moving gamma by 1e-8 r
            # changes the result by about 1e-8, below the discretization error
            G = R * (1.0 + 1e-8)
        inv = 1.0 / (G - R)
        b_r, b_g = G * inv, -R * inv  # B(v) = b_r e^{-R v} + b_g e^{-G v}

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

        def cell_scales(lo, hi, coefs, rates):
            """Per rate a_j, the cell scales coef_jk e^{-a_j (u[hi_k] - u[i + 1])} width_i
            of row k over its nodes lo_k..hi_k, zero outside the row."""
            inside = (np.arange(nh - 1) >= lo[:, None]) & (np.arange(nh - 1) < hi[:, None])
            dist = np.where(inside, u[hi, None] - u[1:], 0.0)
            return np.stack([
                np.where(inside, np.exp(-a * dist) * width, 0.0) * np.reshape(coef, (-1, 1))
                for coef, a in zip(coefs, rates)
            ])

        # running sums at every node j of the oldest block, as rows on the state;
        # the rates R and G share one evaluation of the scales and the cell weights
        j_all = np.arange(m + 1)
        in_scales = cell_scales(0 * j_all, j_all, [1.0, 1.0], [R, G])
        c_lo, c_hi = _cell_weights(np.multiply.outer([R, G], width))
        in_r, in_g = _node_rows(in_scales * c_lo[:, None], in_scales * c_hi[:, None])
        run_r = np.zeros((m + 1, size))
        run_r[:, :nh] = in_r
        run_r[:, i_r] = np.exp(-R * sigma)
        run_d = np.zeros((m + 1, size))
        run_d[:, :nh] = (in_r - in_g) * inv
        run_d[:, i_r] = _conv(R, G, sigma)
        run_d[:, i_d] = np.exp(-G * sigma)

        # the lambda-dependent rows: the block map's new nodes 1..m, weighted by
        # B(w + 1) e^{-lam w}, and the readout, weighted by A(w) e^{-lam w}
        new = j_all[1:]
        lo, hi = np.append(new, end), np.append(m + new, m + end)
        dist = np.maximum(u[hi, None] - u[1:], 0.0)
        coef_r = np.append(np.full(m, b_r * math.exp(-R)), R * inv)
        coef_g = np.append(np.full(m, b_g * math.exp(-G)), -R * inv)
        scales = cell_scales(lo, hi, [coef_r, coef_g], [R, G])

        # block map: h at the new nodes (the force rows, times lam e^{-lam}),
        # the window shifted by one block, the running sums and the constant
        force_base = (math.exp(-2.0 * R) + R * _conv(R, G, 2.0)) * run_r[new] + (R * math.exp(-2.0 * G)) * run_d[new]
        step = np.zeros((size, size))
        step[: m + 1, m:nh] = np.eye(m + 1)
        step[i_r] = run_r[m]
        step[i_d] = run_d[m]
        if enter_excited:
            step[i_e, i_e] = math.exp(-G)
        step[one, one] = 1.0
        # entries below 1e-150 (large lam tau) move no probability, but their
        # products go subnormal inside the matrix products and halve their speed
        step[np.abs(step) < 1e-150] = 0.0

        # h on block 0 enters in closed form
        x, y = sigma, 1.0 - sigma
        coefs = ((b_r, R), (b_g, G))
        if enter_excited:
            i1 = sum(k * math.exp(-a) * (_conv(0.0, a, x) - _conv(G, a, x)) for k, a in coefs)
            near0_sum = sum(
                k * np.exp(-a * (1.0 + x)) * (_conv(0.0, a, y) - np.exp(-G * x) * _conv(G, a, y))
                for k, a in coefs
            )
            entry_ground = np.stack([1.0 - np.exp(-G * (1.0 + x)), 1.0 - np.exp(-G * (2.0 + x))])
        else:  # the terms that an excited entry subtracts are exact zeros here
            i1 = sum(k * math.exp(-a) * _conv(0.0, a, x) for k, a in coefs)
            near0_sum = sum(k * np.exp(-a * (1.0 + x)) * _conv(0.0, a, y) for k, a in coefs)
            entry_ground = np.ones((2, m + 1))

        # readout on the window [n - 1, n + 1], where t_c sits at node m + end
        readout_base = math.exp(-G) * run_d[end] + _conv(R, G, 1.0) * run_r[end]
        return cls(
            tau=tau, t_c=t_c, rates=(R, G), enter_excited=bool(enter_excited), blocks=n, rho=rho,
            sigma=sigma, width=width, dist=dist, cell_scales=scales,
            far_coefs=tuple(k * math.exp(-2.0 * a) for k, a in coefs),
            force_base=force_base, step_base=step, i1=i1, near0_sum=near0_sum,
            entry_ground=entry_ground, readout_base=readout_base,
            readout_decay=math.exp(-dev.gamma * timing.delta_o),
        )

    def excitation(self, lam) -> np.ndarray:
        """The exact excitation at the arrival rates lam; returns an array shaped like lam."""
        lam = np.asarray(lam, dtype=float)
        return _stacked_excitation((self,), (lam.size,), lam.ravel()).reshape(lam.shape)


def _stacked_excitation(operators: Sequence[SurvivorOperator], sizes: Sequence[int], lam: np.ndarray) -> np.ndarray:
    """The exact excitation at the rates lam, sizes[i] of them in a row on operators[i].

    The operators share their node count and entry level and come in
    order of falling block count, so the rates whose block map still
    squares are a leading slice.  One operator's lambda-free arrays
    broadcast over its rates; several operators' arrays are stacked and
    gathered per rate.  Either way every rate is the same arithmetic as
    on its own operator, bit for bit.
    """
    if np.any(lam < 0):
        raise ValueError("lambda must be >= 0")
    first = operators[0]
    # runs: (end, blocks - 2) of each run of rates with the same block count
    blocks = [op.blocks for op in operators]
    runs = [(end, b - 2) for end, b, after in zip(accumulate(sizes), blocks, blocks[1:] + [None]) if b != after]

    def per_rate(get):
        if len(operators) == 1:  # a view: gathering would copy the arrays for every call
            return np.asarray(get(first))[None]
        return np.repeat(np.stack([np.asarray(get(op)) for op in operators]), sizes, axis=0)

    m = first.sigma.size - 1
    nh = 2 * m + 1
    i_r, i_d, i_e = nh, nh + 1, nh + 2
    one = first.step_base.shape[0] - 1
    excited = first.enter_excited
    rates = per_rate(lambda op: op.rates).T  # (R, G) by rate, in units of 1/tau
    R, G = rates
    inv = 1.0 / (G - R)
    L = lam * per_rate(lambda op: op.tau)
    # the working arrays are dropped as soon as they are used: a call that
    # holds fewer of them at once hands less memory back to the system
    # between calls and page-faults less on the next one.  The rates R and
    # G share one call of each closed form along a leading axis, and the
    # excited-entry terms are left out for a ground entry

    # h on blocks 1 and 2 in closed form
    Lc, x = L[:, None], per_rate(lambda op: op.sigma)
    entry_ground = per_rate(lambda op: op.entry_ground)
    lead = Lc * np.exp(-Lc)
    h1 = lead * (entry_ground[:, 0] - Lc * np.exp(-Lc * x) * per_rate(lambda op: op.i1))
    near0 = Lc * np.exp(-Lc * (1.0 + x)) * per_rate(lambda op: op.near0_sum)
    ra = rates[:, :, None]
    far = _conv(Lc, ra, x) - _conv(Lc + G[:, None], ra, x) if excited else _conv(Lc, ra, x)
    far0 = lead * sum(k[:, None] * conv for k, conv in zip(per_rate(lambda op: op.far_coefs).T, far))

    # the new-node and readout rows, weights (lower node, upper node) per row k
    # and cell i of the integral of h(s) sum_j c_jk e^{-(lam + a_j) (u[hi_k] - s)},
    # exact for h linear between nodes: the cell scales times the cell weights
    # at lam + a_j, times e^{-lam w}; near1 is the new-node rows cut to the cells
    # of block 1 and applied to h1
    shift = L[:, None, None]
    c_lo, c_hi = _cell_weights((shift + rates[:, :, None, None]) * per_rate(lambda op: op.width)[:, None])
    (scale_r, scale_g), (lo_r, lo_g), (hi_r, hi_g) = per_rate(lambda op: op.cell_scales).swapaxes(0, 1), c_lo, c_hi
    w_lo, w_hi = scale_r * lo_r, scale_r * hi_r
    w_lo += scale_g * lo_g
    w_hi += scale_g * hi_g
    decay = np.exp(-(shift * per_rate(lambda op: op.dist)))
    w_lo *= decay
    w_hi *= decay
    del decay
    near1 = np.zeros_like(h1)
    near1[:, 1:] = np.einsum("lji,li->lj", w_lo[:, :m, m:], h1[:, :-1]) + np.einsum(
        "lji,li->lj", w_hi[:, :m, m:], h1[:, 1:]
    )
    lam_rows = _node_rows(w_lo, w_hi)
    del w_lo, w_hi

    h2 = lead * (entry_ground[:, 1] - near0 - near1 - far0)
    state = np.zeros((L.size, one + 1))
    state[:, : m + 1] = h1
    state[:, m:nh] = h2  # h at 2 tau ends block 1 and starts block 2
    sum_r, sum_g = _conv(L, rates, 1.0) - _conv(L + G, rates, 1.0) if excited else _conv(L, rates, 1.0)
    state[:, i_r] = L * sum_r
    state[:, i_d] = L * (sum_r - sum_g) * inv
    if excited:
        state[:, i_e] = per_rate(lambda op: math.exp(-2.0 * op.rates[1]))
    state[:, one] = 1.0

    # readout: (e^{-lam} R) times the lambda-free vector, plus its lambda row
    e_lam = np.exp(-L)
    e_l = e_lam[:, None, None]
    readout = e_l[:, 0] * R[:, None] * per_rate(lambda op: op.readout_base)
    readout[:, :nh] += lam_rows[:, m]
    if excited:
        readout[:, i_e] += per_rate(lambda op: math.exp(-op.rates[1] * op.rho))

    # block map: step_base with the new-node rows, under the same 1e-150 cut
    force = -e_l * per_rate(lambda op: op.force_base)
    force[..., :nh] -= lam_rows[:, :m]
    del lam_rows
    force[..., one] += 1.0
    if excited:
        force[..., i_e] -= np.exp(-G[:, None] * (1.0 + x[:, 1:]))
    power = np.empty((L.size,) + first.step_base.shape)
    power[:] = per_rate(lambda op: op.step_base)
    new_rows = power[:, m + 1 : nh]
    np.multiply((L * e_lam)[:, None, None], force, out=new_rows)
    del force
    np.copyto(new_rows, 0.0, where=np.abs(new_rows) < 1e-150)

    # the block map of each rate, applied blocks - 2 times by repeated squaring
    spare = np.empty_like(power)
    while runs:
        if any(todo & 1 for _, todo in runs):
            moved = np.matmul(power[: runs[-1][0]], state[: runs[-1][0], :, None])[:, :, 0]
            start = 0
            for end, todo in runs:
                if todo & 1:
                    state[start:end] = moved[start:end]
                start = end
        runs = [(end, todo >> 1) for end, todo in runs if todo >> 1]
        if runs:
            k = runs[-1][0]
            np.matmul(power[:k], power[:k], out=spare[:k])
            power, spare = spare, power

    # rounding in the squarings can leave values ~1e-13 outside [0, 1]
    p = np.clip(np.einsum("ld,ld->l", readout, state), 0.0, 1.0)
    return p * per_rate(lambda op: op.readout_decay)


def _excitations(operators: Sequence, lams: Sequence) -> list:
    """operators[i].excitation(lams[i]) for each i, flat.

    The SurvivorOperators with the same node count and entry level share
    one _stacked_excitation, in order of falling block count; any other
    operator makes its own excitation call.
    """
    out = [None] * len(operators)
    groups = {}
    for i, op in enumerate(operators):
        if isinstance(op, SurvivorOperator):
            groups.setdefault((op.sigma.size, op.enter_excited), []).append(i)
        else:
            out[i] = np.ravel(op.excitation(lams[i]))
    for idx in groups.values():
        idx.sort(key=lambda i: -operators[i].blocks)
        parts = [np.ravel(np.asarray(lams[i], dtype=float)) for i in idx]
        sizes = [part.size for part in parts]
        values = _stacked_excitation([operators[i] for i in idx], sizes, np.concatenate(parts))
        for i, value in zip(idx, np.split(values, np.cumsum(sizes)[:-1])):
            out[i] = value
    return out


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


def cutoff_photon_number(operator: SurvivorOperator, n_grid: np.ndarray) -> CutoffResult:
    """Mean photon number where the saturated excitation drops 3 dB.

    Evaluates operator, a ground-entry SurvivorOperator, over the given
    increasing grid of mean photon numbers at once and takes the 3 dB
    level as half the grid maximum.  The first grid point past the
    maximum at or below that level and its left neighbour bracket the
    crossing, and n_cutoff is the root of excitation = level on log n
    inside that bracket (_half_root).  excitation holds the grid values.
    """
    return cutoff_photon_numbers([(operator, n_grid)])[0]


def cutoff_photon_numbers(scans: Sequence[tuple]) -> list:
    """cutoff_photon_number of each (operator, n_grid) pair of scans, the roots in lockstep.

    Each grid is one excitation call of its own operator, made in order, so the first pair whose
    curve does not drop 3 dB raises.  Each round of the _half_root generators is then one
    _excitations call over the rates of every root still solving, which sends each root its values.
    """
    operators, curves, roots = [], [], []
    for operator, n_grid in scans:
        n_grid = np.asarray(n_grid, dtype=float)
        if n_grid.size < 3 or np.any(np.diff(n_grid) <= 0):
            raise ValueError("n_grid must be increasing with at least 3 points")
        exc = operator.excitation(n_grid / operator.t_c)
        peak_index = int(np.argmax(exc))
        peak = float(exc[peak_index])
        if peak <= 0:
            raise NotSaturatingError("excitation is zero over the whole sweep")
        half = 0.5 * peak
        below = np.nonzero(exc[peak_index + 1 :] <= half)[0]
        if below.size == 0:
            raise NotSaturatingError("no 3 dB drop within the sweep range")
        j = peak_index + 1 + int(below[0])
        operators.append(operator)
        curves.append((n_grid, exc))
        roots.append(_half_root(np.log(n_grid[j - 1 : j + 1]), exc[j - 1 : j + 1], half))
    log_n = [math.nan] * len(roots)
    pending = {i: next(root) for i, root in enumerate(roots)}
    while pending:
        ids = list(pending)
        values = _excitations(
            [operators[i] for i in ids], [np.exp(pending[i]) / operators[i].t_c for i in ids]
        )
        for i, value in zip(ids, values):
            try:
                pending[i] = roots[i].send(value)
            except StopIteration as done:
                log_n[i] = done.value
                del pending[i]
    return [
        CutoffResult(n_cutoff=math.exp(x), n_grid=n_grid, excitation=exc)
        for (n_grid, exc), x in zip(curves, log_n)
    ]


# the root of a cutoff scan: rates per round, the width of a round about an
# estimate as a fraction of the bracket, and a cap on the rounds that only a
# bracket near the float spacing of log n could reach
_ROOT_RATES = 6
_ROOT_WINDOW = 1e-3
_ROOT_MAX_ROUNDS = 16


def _cloglog(p) -> np.ndarray:
    """log(-log(1 - p)), the coordinate of _half_root's cubic.

    Past its peak the excitation is close to 1 - e^{-m}, m the mean
    number of photons that survive the dead time, about n e^{-2 lam tau}.
    On this axis the curve is then close to log m = log n - 2 lam tau,
    whose derivatives in log n stay small, so a cubic through four
    points places the root far more closely than one on p itself.
    """
    with np.errstate(divide="ignore"):  # p = 0 maps to -inf, still below the level
        return np.log(-np.log1p(-np.asarray(p, dtype=float)))


def _inverse_cubic(x: list, y: list) -> float:
    """x at y = 0 on the cubic x(y) through four points (Lagrange form); nan if two y coincide."""
    try:
        return sum(x[i] * math.prod(y[j] / (y[j] - y[i]) for j in range(4) if j != i) for i in range(4))
    except ZeroDivisionError:
        return math.nan


def _half_root(x, p, half: float) -> Generator:
    """The log n in the bracket x = (lo, hi) where the excitation equals half.

    A generator: each round yields _ROOT_RATES values of log n inside the
    tightest bracket found so far and is sent the excitation at them, and
    the root is its return value.  p holds the excitation at the bracket
    ends, above half at lo and at or below it at hi; the excitation falls
    across the bracket.  Each round fits the cubic log n(y),
    y = _cloglog(p) - _cloglog(half), through the four points around the
    sign change; an estimate outside that bracket falls back to its
    midpoint (Brent 1973 safeguards inverse interpolation the same way).
    The first round spreads its rates over the bracket, the next over a
    window _ROOT_WINDOW of the bracket wide about the estimate.  A window
    that misses the root leaves a tighter bracket, which the round after
    fills again.  The search stops once the bracket is no wider than the
    spacing of a window's rates: the cubic through four such points is
    exact to rounding.
    """
    level = _cloglog(half)
    xs = np.asarray(x, dtype=float)
    ys = _cloglog(p) - level
    width = _ROOT_WINDOW * float(xs[1] - xs[0])
    est = math.nan  # no estimate to centre a window on
    for _ in range(_ROOT_MAX_ROUNDS):
        k = int(np.argmax(ys <= 0))  # the first point at or below the level
        lo, hi = float(xs[k - 1]), float(xs[k])
        window = not math.isnan(est) and hi - lo > width
        if window:
            lo = min(max(est - 0.5 * width, lo), hi - width)
            hi = lo + width
        new = np.linspace(lo, hi, _ROOT_RATES + 2)[1:-1]
        # new lies inside the bracket, so it goes between xs[k - 1] and xs[k]
        xs = np.concatenate([xs[:k], new, xs[k:]])
        y_new = _cloglog((yield new)) - level
        ys = np.concatenate([ys[:k], y_new, ys[k:]])
        k = int(np.argmax(ys <= 0))
        lo, hi = float(xs[k - 1]), float(xs[k])
        s = min(max(k - 2, 0), xs.size - 4)
        est = _inverse_cubic(xs[s : s + 4].tolist(), ys[s : s + 4].tolist())
        if not lo <= est <= hi:
            est = 0.5 * (lo + hi)
        if hi - lo <= width / (_ROOT_RATES + 1) * (1.0 + 1e-9):
            break
        if window:
            est = math.nan
    return est


# the coarse grid of scan_cutoff: 0.5 * 10^(k/4) mean photons up to the last
# point with lam tau <= 50, where fewer than 1e-30 photons survive the dead
# time on average (n e^{-2 lam tau}, up to kappa t_c = 1e7)
_SCAN_START = 0.5
_SCAN_COARSE_PER_DECADE = 4
_SCAN_MAX_LAM_TAU = 50.0


def cutoff_operator(dev: DeviceParams, t_c: float, cells_per_tau: int = 16) -> SurvivorOperator:
    """The ground-entry operator of a cutoff scan at cycle t_c.

    The curve is taken at t_c: the decay over delta_o is a constant factor
    and does not move a 3 dB point, so delta_o is 1e-9 t_c.
    """
    timing = CycleTiming(t_c=t_c, delta_o=t_c * 1e-9, t_w=t_c * 1e-9)
    return SurvivorOperator.build(timing, dev, cells_per_tau=cells_per_tau)


def scan_cutoff(operators: Sequence[SurvivorOperator]) -> list:
    """The 3 dB cutoff on each cutoff_operator: a coarse grid brackets it, a root places it.

    Each operator is evaluated on its grid in order, then the roots run
    in lockstep (cutoff_photon_numbers); one CutoffResult per operator.
    The grid holds 0.5 * 10^(k/4) mean photons up to the last point with
    lam tau <= 50, so it depends only on t_c / tau and reaches past the
    crossing, which sits at lam tau of about 3 to 9 for kappa t_c from
    1e2 to 1e7.
    """
    scans = []
    for op in operators:
        top = _SCAN_MAX_LAM_TAU * op.t_c / op.tau  # mean photons at lam tau = 50
        count = int(math.floor(_SCAN_COARSE_PER_DECADE * math.log10(top / _SCAN_START) + 1e-9)) + 1
        scans.append((op, _SCAN_START * 10.0 ** (np.arange(count) / _SCAN_COARSE_PER_DECADE)))
    return cutoff_photon_numbers(scans)


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


# the exponents b that fit_cutoff_curve scans before its golden-section search, and that search's relative width
_FIT_B_GRID = np.geomspace(0.01, 10.0, 31)
_FIT_B_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fit_cutoff_curve(samples: Sequence[tuple]) -> CutoffFit:
    """Least-squares fit of n = a * x^b + c on the relative residuals (a x^b + c - y) / y.

    Variable projection: with u = x^b / y and w = 1 / y, (a, c) solve the
    2 x 2 normal equations of sum (a u + c w - 1)^2 in closed form, and that
    sum is the cost of b.  The cost is scanned on a log grid of b over
    [0.01, 10], and a golden-section search between the best grid point's
    neighbours narrows b to a relative width of 1e-10.  A best grid point
    at an end of the grid raises ValueError.  Requires at least four
    samples spanning two decades of the abscissa.
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

    w = 1.0 / y
    w2 = w * w
    sw, sww = w.sum(), w2.sum()

    def project(b):
        """(a, c, cost) at each exponent of the array b.  With xb = x^b, u = xb w and the cost
        is (a xb + c - y)^2 @ w^2; a cost that is not finite reads as inf."""
        xb = x ** b[..., None]
        su, suw, suu = xb @ w, xb @ w2, (xb * xb) @ w2
        det = suu * sww - suw * suw
        a = (su * sww - suw * sw) / det
        c = (suu * sw - suw * su) / det
        r = a[..., None] * xb + c[..., None] - y
        return a, c, np.fmin((r * r) @ w2, np.inf)  # fmin reads nan as inf

    with np.errstate(all="ignore"):
        i = int(np.argmin(project(_FIT_B_GRID)[2]))
        if i in (0, _FIT_B_GRID.size - 1):
            raise ValueError(f"the fit's cost is least at b = {_FIT_B_GRID[i]}, "
                             f"an end of the scanned range [{_FIT_B_GRID[0]}, {_FIT_B_GRID[-1]}]")
        lo, hi = _FIT_B_GRID[i - 1], _FIT_B_GRID[i + 1]
        p, q = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        fp, fq = project(p)[2], project(q)[2]
        while hi - lo > _FIT_B_TOL * hi:
            if fp <= fq:
                hi, q, fq = q, p, fp
                p = hi - _GOLDEN * (hi - lo)
                fp = project(p)[2]
            else:
                lo, p, fp = p, q, fq
                q = lo + _GOLDEN * (hi - lo)
                fq = project(q)[2]
        b = p if fp <= fq else q
        a, c, cost = project(b)
    return CutoffFit(a=float(a), b=float(b), c=float(c), residual=math.sqrt(cost / x.size),
                     x_range=(float(x[0]), float(x[-1])))
