"""Excitation and detection probabilities under Poisson photon arrival.

Under Poisson arrival the unsaturated detector is a three-state Markov
chain, and `excitation_ctmc` evaluates its transient law in closed form;
every production path (miss sweep, link kernels) uses it.
Two independent routes are kept as its oracles: the renewal dynamic
program over transition photons, mixed over the Poisson count by Monte
Carlo over order statistics, and an event-driven Monte Carlo of the raw
two-clock process.  The validation suite compares all three.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .physics import (
    CycleTiming,
    DeviceParams,
    PulseProfile,
    _phi,
    _poisson_sorted_arrivals,
    detection_prob_single,
    detector_events,
    excited_kernel,
    ground_return_prob,
    readout_prob,
    single_photon_excitation,
    transition_kernels,
)
from .report import Estimate, SweepReport
from .rng import substream

__all__ = [
    "ArrivalTrace",
    "DetectorStats",
    "excitation_given_arrivals",
    "excitation_given_arrivals_bruteforce",
    "transition_set_probability",
    "excitation_given_count",
    "ConditionalExcitationTable",
    "excitation_poisson",
    "excitation_ctmc",
    "mc_detector",
    "miss_probability_sweep",
]

_DEFAULT_MC_SAMPLES = 100_000
_MC_BLOCK = 200_000  # replicas per block of mc_detector


@dataclass(frozen=True)
class ArrivalTrace:
    """Time-ordered photon arrival instants within one capture window."""

    times: np.ndarray
    t_c: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if not self.t_c > 0:
            raise ValueError("t_c must be > 0")
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if times.size:
            if np.any(np.diff(times) < 0):
                raise ValueError("arrival times must be nondecreasing")
            if times[0] < 0 or times[-1] > self.t_c:
                raise ValueError("arrival times must lie in [0, t_c]")

    def __len__(self) -> int:
        return int(self.times.size)


def _dp_batch(times: np.ndarray, t_c: float, dev: DeviceParams) -> np.ndarray:
    """Renewal DP over a batch of traces, all with the same photon count.

    times has shape (m, n), rows sorted.  The excited probability at t_c
    is sum_i W_i K(t_c - t_i), where W_i is the probability that photon i
    causes a transition and K = excited_kernel.  Its running value
    p_j = P(excited at t_j) needs no W: just after a photon the system is
    never in ground (a photon in ground starts a transition), so it is
    armed with probability 1 - p_j, and across the photon-free gap dt to
    the next photon or to t_c

        p_{j+1} = e^{-gamma dt} p_j + K(dt) (1 - p_j),

    O(n) in all.  K's phi form needs no branch at r = gamma.
    """
    m, n = times.shape
    # gaps[j] runs from photon j to photon j + 1, and the last one to t_c
    gaps = np.ascontiguousarray(np.diff(times, axis=1, append=t_c).T)
    stay = np.exp(-dev.gamma * gaps)
    fire = excited_kernel(gaps, dev.kappa, dev.gamma)
    p = np.zeros(m)  # the window starts in ground
    for j in range(n):
        p = stay[j] * p + fire[j] * (1.0 - p)
    return np.clip(p, 0.0, 1.0)


def excitation_given_arrivals(trace: ArrivalTrace, dev: DeviceParams) -> float:
    """Excitation probability at the end of capture, given the exact arrivals.

    O(n) dynamic program; the first photon always begins a transition
    (the system enters the window in ground).
    """
    if len(trace) == 0:
        return 0.0
    return float(_dp_batch(trace.times[None, :], trace.t_c, dev)[0])


def transition_set_probability(trace: ArrivalTrace, dev: DeviceParams, k_set: Sequence[int]) -> float:
    """Probability that exactly the photons with indices k_set transition.

    Indices are 0-based, must start at 0 and be strictly increasing.
    """
    t = trace.times
    n = t.size
    k = list(k_set)
    if not k or k[0] != 0 or any(b <= a for a, b in zip(k, k[1:])) or k[-1] >= n:
        raise ValueError("k_set must start at photon 0 and increase")
    p = 1.0
    for a, b in zip(k, k[1:]):
        p *= ground_return_prob(t[b] - t[a], dev) - ground_return_prob(t[b - 1] - t[a], dev)
    # the photons after the last transition photon must all stay silent
    p *= 1.0 - ground_return_prob(t[n - 1] - t[k[-1]], dev)
    return p


def excitation_given_arrivals_bruteforce(trace: ArrivalTrace, dev: DeviceParams) -> float:
    """Exhaustive sum over all admissible transition-photon subsets.

    Exponential in the photon count; oracle for the dynamic program.
    """
    t = trace.times
    n = t.size
    if n == 0:
        return 0.0
    if n > 20:
        raise ValueError("brute force limited to 20 photons")
    total = 0.0
    for mask in itertools.product((0, 1), repeat=n - 1):
        k = [0] + [i + 1 for i, b in enumerate(mask) if b]
        p = transition_set_probability(trace, dev, k)
        kp = k[-1]
        f1, f2 = transition_kernels(trace.t_c - t[kp], t[n - 1] - t[kp], dev)
        denom = f1 + f2
        if denom > 0:
            total += p * f2 / denom
    return total


def excitation_given_count(
    n: int,
    t_c: float,
    dev: DeviceParams,
    mc_samples: int = _DEFAULT_MC_SAMPLES,
    *,
    rng: np.random.Generator,
) -> Estimate:
    """Excitation probability given exactly n uniform arrivals in [0, t_c].

    Exact for n <= 1: one uniform photon is a rectangular pulse of length
    t_c observed at its end.  Monte Carlo over sorted uniforms for n >= 2,
    where the order-statistics integral has no closed form.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Estimate(0.0, 0.0)
    if n == 1:
        return Estimate(single_photon_excitation(PulseProfile(l=t_c), t_c / 2.0, dev), 0.0)
    if mc_samples < 2:
        raise ValueError("mc_samples must be >= 2")
    vals = np.empty(mc_samples)
    block = max(1, min(mc_samples, int(2e6 // max(n, 1))))
    done = 0
    while done < mc_samples:
        m = min(block, mc_samples - done)
        times = np.sort(rng.random((m, n)) * t_c, axis=1)
        vals[done : done + m] = _dp_batch(times, t_c, dev)
        done += m
    return Estimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples)))


def _poisson_n_max(mean: float, eps: float) -> int:
    """Smallest n with upper Poisson tail mass below eps.

    Chernoff bound first, then walk the exact survival function.
    """
    from scipy import stats

    if mean <= 0:
        return 0
    n = int(mean)
    # Chernoff: P(N > n) <= exp(-mean) (e*mean/n)^n for n > mean
    while True:
        n += 1
        if n > mean and n * (1.0 + math.log(mean / n)) - mean < math.log(eps):
            break
    while n > 1 and stats.poisson.sf(n - 1, mean) < eps:
        n -= 1
    while stats.poisson.sf(n, mean) >= eps:
        n += 1
    return n


class ConditionalExcitationTable:
    """Cache of excitation probabilities conditioned on the photon count.

    Each count gets its own deterministic substream, so a sweep that
    shares the table across arrival rates is reproducible no matter in
    which order the rates are visited.
    """

    def __init__(
        self,
        t_c: float,
        dev: DeviceParams,
        mc_samples: int = _DEFAULT_MC_SAMPLES,
        *,
        seed: int,
    ):
        self.t_c = float(t_c)
        self.dev = dev
        self.mc_samples = int(mc_samples)
        self.seed = int(seed)
        self._values: dict[int, Estimate] = {}

    def conditional(self, n: int) -> Estimate:
        if n not in self._values:
            rng = substream(self.seed, n)
            self._values[n] = excitation_given_count(n, self.t_c, self.dev, self.mc_samples, rng=rng)
        return self._values[n]

    def poisson_mixture(self, lam: float, delta_o: float = 0.0, eps_trunc: float = 1e-10) -> Estimate:
        """Mixture over the Poisson count, decayed from capture end to observation."""
        from scipy import stats

        if lam < 0:
            raise ValueError("lambda must be >= 0")
        if lam == 0.0:
            return Estimate(0.0, 0.0)
        mean = lam * self.t_c
        n_max = _poisson_n_max(mean, eps_trunc)
        weights = stats.poisson.pmf(np.arange(n_max + 1), mean)
        value = 0.0
        var = 0.0
        for n in range(1, n_max + 1):
            est = self.conditional(n)
            value += weights[n] * est.value
            var += (weights[n] * est.stderr) ** 2
        decay = math.exp(-self.dev.gamma * delta_o)
        return Estimate(value * decay, math.sqrt(var) * decay)


def excitation_poisson(
    lam: float,
    timing: CycleTiming,
    dev: DeviceParams,
    eps_trunc: float = 1e-10,
    *,
    rng_seed: int,
    mc_samples: int = _DEFAULT_MC_SAMPLES,
) -> Estimate:
    """Excitation probability at the observation time under Poisson arrival.

    Renewal-DP route with a Monte Carlo standard error; oracle for
    `excitation_ctmc`.
    """
    table = ConditionalExcitationTable(timing.t_c, dev, mc_samples, seed=rng_seed)
    return table.poisson_mixture(lam, delta_o=timing.delta_o, eps_trunc=eps_trunc)


def excitation_ctmc(lam, timing: CycleTiming, dev: DeviceParams):
    """Exact excitation probability at the observation time under Poisson arrival.

    A photon arriving while the system is armed or excited is lost, so the
    detector is the chain G -(lam)-> A -(kappa/4)-> E -(gamma)-> G and the
    result is [expm(Q t_c)]_{G,E} * exp(-gamma delta_o), elementwise over
    an array of rates.  With r = kappa/4, b = lam + r + gamma,
    c = lam r + r gamma + lam gamma and d^2 = b^2/4 - c,

        p_E(t) = (lam r / c) [1 - exp(-b t/2) (cosh(d t) + (b/2) sinh(d t)/d)].

    For real d the bracket is evaluated through the slow root
    s = c / (b/2 + d) as -expm1(-s t) - s t exp(-s t) phi(2 d t), where
    no exponent is positive and phi carries the series through d = 0;
    complex roots use cos and sinc.  Only where c overflows (lam past
    1e299 at GHz rates) is lam factored out of c, h + d and lam r, so
    every finite lam reads in [0, 1].
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(ok := (lam >= 0.0) & (lam < np.inf)):  # false at nan
        raise ValueError(f"lambda must be finite and >= 0, got {lam[~ok][0]}")
    t = timing.t_c
    r, gamma = dev.transition_rate, dev.gamma
    h = (lam + r + gamma) / 2.0
    with np.errstate(over="ignore"):
        c = lam * r + r * gamma + lam * gamma
    scale = np.where(np.isinf(c), lam, 1.0)
    c = np.where(np.isinf(c), r + gamma + r * gamma / scale, c)
    # b^2/4 - c regrouped so that gamma = 0 gives |lam - r| / 2 exactly; where the
    # square overflows, 4 r gamma is below its last bit and d = |lam - r - gamma| / 2
    u = lam - r - gamma
    with np.errstate(over="ignore"):
        d2 = (u**2 - 4.0 * r * gamma) / 4.0
    real = d2 >= 0.0
    d = np.where(np.isinf(d2), 0.5 * np.abs(u), np.sqrt(np.where(real, d2, 0.0)))
    w = np.sqrt(np.where(real, 0.0, -d2))
    slow_t = c / ((h + d) / scale) * t
    bracket = np.where(
        real,
        -np.expm1(-slow_t) - slow_t * np.exp(-slow_t) * _phi(2.0 * d * t),
        1.0 - np.exp(-h * t) * (np.cos(w * t) + h * t * np.sinc(w * t / np.pi)),
    )
    # c = 0 only at lam = gamma = 0, where nothing is ever excited
    p = np.clip(lam / scale * r / np.where(c > 0.0, c, 1.0) * bracket, 0.0, 1.0)
    p = p * math.exp(-gamma * timing.delta_o)
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class DetectorStats:
    """Empirical outcome frequencies of the event-driven detector."""

    excited_at_obs: Estimate
    readout_bit: Estimate
    reset_ok: Estimate
    replicas: int


def _binomial_estimate(successes: float, n: int) -> Estimate:
    p = successes / n
    return Estimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n))


def mc_detector(
    lam: float,
    timing: CycleTiming,
    dev: DeviceParams,
    enter_excited: bool = False,
    replicas: int = _DEFAULT_MC_SAMPLES,
    *,
    rng: np.random.Generator,
) -> DetectorStats:
    """Event-driven Monte Carlo of one full detection cycle.

    Arrival times are Poisson on [0, t_c]; an available system arms on
    arrival, jumps to excited after an exp(kappa/4) wait (only jumps that
    land inside the capture stage count), and decays back after exp(gamma).
    Photons arriving before the previous transition fully completes are
    lost.  Readout succeeds with exp(-gamma t_w); reset leaves the system
    excited with p_reset_e / p_reset_g depending on the readout outcome.

    A cycle entered in the excited level (wrong reset) only decays: the
    qubit cannot be re-excited within that cycle, matching the analytic
    kernel it serves as oracle for.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    t_c, t_obs = timing.t_c, timing.t_obs
    kappa, gamma = dev.kappa, dev.gamma
    mu = lam * t_c
    sums = np.zeros(3)
    done = 0
    while done < replicas:
        m = min(_MC_BLOCK, replicas - done)
        if enter_excited:
            rng.poisson(mu, m)  # drawn and not used: a decay-only cycle ignores the photon stream
            init_decay = rng.exponential(1.0 / gamma, m) if gamma > 0 else np.full(m, np.inf)
            last_fire = np.zeros(m)
            last_decay = init_decay
        else:
            arrivals, counts = _poisson_sorted_arrivals(rng, mu, m, t_c)
            last_fire = np.full(m, np.inf)
            last_decay = np.full(m, np.inf)
            if counts.any():
                fire_w = rng.exponential(4.0 / kappa, arrivals.shape)
                decay_w = rng.exponential(1.0 / gamma, arrivals.shape) if gamma > 0 else np.full(arrivals.shape, np.inf)
                last_fire, last_decay = detector_events(
                    arrivals, fire_w, decay_w, t_c, np.zeros(m), last_fire, last_decay
                )
        exc_obs = (last_fire <= t_c) & (last_decay > t_obs)
        if dev.p0 > 0:
            exc_obs = exc_obs ^ (rng.random(m) < dev.p0)
        p_w = math.exp(-gamma * timing.t_w)
        bit = exc_obs & (rng.random(m) < p_w)
        reset_draw = rng.random(m)
        exit_excited = np.where(bit, reset_draw < dev.p_reset_e, reset_draw < dev.p_reset_g)
        sums += np.array([exc_obs.sum(), bit.sum(), (~exit_excited).sum()], dtype=float)
        done += m
    return DetectorStats(
        excited_at_obs=_binomial_estimate(sums[0], replicas),
        readout_bit=_binomial_estimate(sums[1], replicas),
        reset_ok=_binomial_estimate(sums[2], replicas),
        replicas=replicas,
    )


def miss_probability_sweep(
    grid: Sequence[tuple],
    timing: CycleTiming,
    dev_template: DeviceParams,
) -> SweepReport:
    """Miss probability over a grid of (lambda, kappa, gamma) points.

    Exact: the rates of each (kappa, gamma) group go through one
    vectorised `excitation_ctmc` call and one readout chain
    (`detection_prob_single`, `readout_prob`), and nothing is drawn: the
    stderr column reads 0 and stays for the benchmark's detect-miss check.
    """
    grid = [(float(lam), float(kappa), float(gamma)) for lam, kappa, gamma in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    groups: dict[tuple, list[int]] = {}
    for idx, (_, kappa, gamma) in enumerate(grid):
        groups.setdefault((kappa, gamma), []).append(idx)
    p_capture, p_readout = np.empty(len(grid)), np.empty(len(grid))
    for (kappa, gamma), idxs in groups.items():
        dev = replace(dev_template, kappa=kappa, gamma=gamma)
        p_exc = excitation_ctmc([grid[i][0] for i in idxs], timing, dev)
        p_capture[idxs] = detection_prob_single(p_exc, dev)
        p_readout[idxs] = readout_prob(p_capture[idxs], timing, dev)
    return SweepReport([
        {
            "lambda": lam,
            "kappa": kappa,
            "gamma": gamma,
            "t_c": timing.t_c,
            "delta_o": timing.delta_o,
            "t_w": timing.t_w,
            "p_capture": p_cap,
            "p_readout": p_out,
            "p_miss": 1.0 - p_out,
            "stderr": 0.0,
        }
        for (lam, kappa, gamma), p_cap, p_out in zip(grid, p_capture.tolist(), p_readout.tolist())
    ])
