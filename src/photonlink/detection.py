"""Oracles of the closed forms in `physics`, `link` and `saturation`.

The one copy of each route that the validation battery runs, and of each
comparison with it that a check and a test share.  Only the battery, the
tests and the benchmark tracer load this module, and neither `link` nor
`saturation` imports it.  It keeps its name because the benchmark tracer
looks oracle names up here.  `ground_return_prob` has quadrature, and
`single_photon_excitation` adaptive quadrature and the raw double
integral.  The excitation under Poisson arrival, `excitation_ctmc`, has
the renewal dynamic program over transition photons (exact given the
arrivals, with exhaustive enumeration as its own oracle, and mixed over
the Poisson count by Monte Carlo over order statistics) and an
event-driven Monte Carlo of the raw two-clock process.  The link has
frame enumeration and a Monte Carlo rate; survivor moments have
quadrature, Poisson-weighted moments and sampled counts, and the
saturated excitation its Monte Carlo.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# the benchmark tracer wraps ground_return_prob and excited_kernel under this module's names
from .physics import (
    CycleTiming,
    DeviceParams,
    PulseProfile,
    _poisson_sorted_arrivals,
    detector_events,
    excited_kernel,
    ground_return_prob,
    single_photon_excitation,
    transition_kernels,
)
from . import link, saturation  # called through the modules, whose names the benchmark tracer wraps
from .report import Estimate
from .rng import substream

__all__ = [
    "ground_return_quadrature",
    "single_photon_excitation_quadrature",
    "single_photon_excitation_double_integral",
    "ArrivalTrace",
    "DetectorStats",
    "excitation_given_arrivals",
    "excitation_given_arrivals_bruteforce",
    "transition_sets",
    "transition_set_probability",
    "excitation_given_count",
    "ConditionalExcitationTable",
    "excitation_poisson",
    "mc_detector",
    "frame_statistics",
    "block_emission_logprob",
    "block_emission_logprob_matrix",
    "all_frames",
    "enumerate_block_probs",
    "INITIAL",
    "transition",
    "frame_stats_enumeration_gap",
    "rate_bracket_enumeration",
    "mc_rate",
    "exhaustive_map_symbols",
    "forward_total_probability",
    "PieceIntegrals",
    "pair_survival_integrals",
    "poisson_weighted_moments",
    "survivor_counts",
    "survivor_excitation_z",
]

_DEFAULT_MC_SAMPLES = 100_000
_MC_BLOCK = 200_000  # replicas per block of mc_detector
_DOUBLE_INTEGRAL_EPSABS = 1e-12


def ground_return_quadrature(t: float, dev: DeviceParams, epsabs: float = 1e-14, epsrel: float = 1e-12) -> float:
    """`physics.ground_return_prob` by quadrature over the transition time s, then decay before t."""
    from scipy import integrate

    kappa, gamma = dev.kappa, dev.gamma
    val, _ = integrate.quad(lambda s: (kappa / 4) * math.exp(-kappa * s / 4) * (1 - math.exp(-gamma * (t - s))),
                            0.0, t, epsabs=epsabs, epsrel=epsrel)
    return val


def single_photon_excitation_quadrature(
    pulse: PulseProfile,
    t_obs: float,
    dev: DeviceParams,
    epsabs: float = 1e-10,
) -> float:
    """`physics.single_photon_excitation` by adaptive quadrature of rho(t) K(t_i - t).

    The kernel rises over 1/r after the arrival, so the integrand has a
    boundary layer of width 1/r at the end of the drive that adaptive
    quadrature over a long pulse steps over; the interval is broken there.
    """
    from scipy import integrate

    ti = pulse.t_i
    if t_obs < ti:
        raise ValueError(f"t_obs {t_obs} must be >= pulse half-width {ti}")
    gamma = dev.gamma

    def integrand(t: float) -> float:
        return float(pulse.density(t)) * float(excited_kernel(ti - t, dev.kappa, gamma))

    r = dev.transition_rate
    pts = [ti - k / r for k in (1.0, 10.0, 100.0)]
    if pulse.shape == "tabulated":
        pts += [float(n[0]) for n in pulse.nodes]
    pts = sorted({p for p in pts if -ti < p < ti})
    val, _ = integrate.quad(integrand, -ti, ti, epsabs=epsabs, limit=400, points=pts or None)
    return val * math.exp(-gamma * (t_obs - ti))


def single_photon_excitation_double_integral(
    pulse: PulseProfile,
    t_obs: float,
    dev: DeviceParams,
) -> float:
    """`physics.single_photon_excitation` by the raw double integral over arrival and transition times."""
    from scipy import integrate

    ti = pulse.t_i
    if t_obs < ti:
        raise ValueError(f"t_obs {t_obs} must be >= pulse half-width {ti}")
    r = dev.transition_rate
    gamma = dev.gamma
    val, _ = integrate.dblquad(
        lambda q, t: float(pulse.density(t)) * r * math.exp(-r * (q - t)) * math.exp(-gamma * (t_obs - q)),
        -ti,
        ti,
        lambda t: t,
        lambda t: ti,
        epsabs=_DOUBLE_INTEGRAL_EPSABS,
    )
    return val


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


def transition_sets(n: int):
    """Every admissible set of transition photons among n >= 1: photon 0 and any subset of the others."""
    for mask in itertools.product((0, 1), repeat=n - 1):
        yield [0] + [i + 1 for i, b in enumerate(mask) if b]


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
    for k in transition_sets(n):
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
    """Excitation probabilities conditioned on the photon count, mixed over a Poisson count.

    Each count draws from its own deterministic substream, so a value
    does not depend on which counts were asked for before it.
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

    def conditional(self, n: int) -> Estimate:
        return excitation_given_count(n, self.t_c, self.dev, self.mc_samples, rng=substream(self.seed, n))

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
    `physics.excitation_ctmc`.
    """
    table = ConditionalExcitationTable(timing.t_c, dev, mc_samples, seed=rng_seed)
    return table.poisson_mixture(lam, delta_o=timing.delta_o, eps_trunc=eps_trunc)


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


# -- oracles of link -----------------------------------------------------------
def frame_statistics(frames) -> tuple:
    """(first bit, last bit, ones count, adjacent-ones count) of each row of an (m, n) frame array."""
    f = np.asarray(frames, dtype=np.int64)
    return f[:, 0], f[:, -1], f.sum(axis=1), (f[:, :-1] & f[:, 1:]).sum(axis=1)


def block_emission_logprob(spec: link.HmmSpec, frames: np.ndarray) -> np.ndarray:
    """log P(frame | state) of spec for an (m, n_cycles) array of frames, from their statistics."""
    frames = np.asarray(frames, dtype=np.int64)
    if frames.ndim != 2 or frames.shape[1] != spec.n_cycles:
        raise ValueError("frames must have shape (m, n_cycles)")
    return spec.emission_loglik_stats(*frame_statistics(frames))


def block_emission_logprob_matrix(spec: link.HmmSpec, frames: np.ndarray) -> np.ndarray:
    """block_emission_logprob by the explicit transfer-matrix product of P(bit, exit | entry) over cycles."""
    frames = np.asarray(frames, dtype=np.int64)
    out = np.empty((frames.shape[0], 4))
    for sym in (0, 1):
        kern = spec.kernel(sym)
        k = np.einsum("eb,bx->ebx", kern.bit_given_entry, kern.exit_given_bit)  # (entry, bit, exit)
        for level in (0, 1):
            alpha = np.zeros((frames.shape[0], 2))
            alpha[:, level] = 1.0
            logscale = np.zeros(frames.shape[0])
            for j in range(spec.n_cycles):
                b = frames[:, j]
                step = np.where(b[:, None, None] == 1, k[None, :, 1, :], k[None, :, 0, :])
                alpha = np.einsum("me,mex->mx", alpha, step)
                norm = alpha.sum(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    logscale += np.log(norm)
                    alpha = np.where(norm[:, None] > 0, alpha / norm[:, None], 0.0)
            out[:, 2 * level + sym] = logscale
    return np.nan_to_num(out, nan=-np.inf, posinf=-np.inf, neginf=-np.inf)


def enumerate_block_probs(spec: link.HmmSpec) -> tuple:
    """Exact P(frame | state) of spec for every frame, and the frames; only for n_cycles <= 12."""
    if spec.n_cycles > 12:
        raise ValueError("enumeration limited to n_cycles <= 12")
    frames = all_frames(spec.n_cycles)
    return np.exp(block_emission_logprob(spec, frames)), frames


def all_frames(n: int) -> np.ndarray:
    """Every frame of n bits, the first bit the most significant, as the rows of a (2**n, n) array."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)[None, ::-1]) & 1).astype(np.int64)


INITIAL = np.array([0.5, 0.5, 0.0, 0.0])  # the law of state 2 * level + symbol at t = 0: ground, symbols equiprobable
INITIAL.flags.writeable = False


def transition(spec: link.HmmSpec) -> np.ndarray:
    """4x4 state transition matrix P((i', s') | (i, s)) = P(i' | i, s) / 2 of spec."""
    return 0.5 * np.repeat(spec.level_exit.reshape(4, 2), 2, axis=1)


def frame_stats_enumeration_gap(spec: link.HmmSpec) -> float:
    """Largest |table - enumeration| of P(b1, bn, n1, n11 | level, symbol), n_cycles <= 12.

    The table side is P(b1 | level, symbol) times spec.frame_stats[symbol][b1];
    the enumeration side sums enumerate_block_probs over the frames with
    each set of statistics.
    """
    n = spec.n_cycles
    probs, frames = enumerate_block_probs(spec)
    stats = frame_statistics(frames)
    worst = 0.0
    for level in (0, 1):
        for sym in (0, 1):
            gap = np.zeros((2, 2, n + 1, n))
            np.add.at(gap, stats, -probs[:, 2 * level + sym])
            for b1 in (0, 1):
                law = spec.frame_stats[sym][b1]
                pmf = np.diff(law.cdf, prepend=0.0) * spec.first_bit_prob(level, sym)[b1]
                np.add.at(gap[b1], tuple(law.cells), pmf)
            worst = max(worst, float(np.abs(gap).max()))
    return worst


def rate_bracket_enumeration(spec: link.HmmSpec) -> tuple:
    """(lower, upper) of link.rate_bracket by enumeration over every frame, n_cycles <= 12.

    lower = 1 - H(S | frame) and upper = 1 - H(S | frame, L, L'), each
    from the symbol posterior, with the entry level at the stationary law
    of its chain.
    """
    probs, _ = enumerate_block_probs(spec)
    by_state = probs.reshape(-1, 2, 2)  # P(frame | level, symbol)
    chain = 0.5 * spec.level_exit.sum(axis=1)  # P(l' | l)
    pi = np.linalg.lstsq(np.vstack([chain.T - np.eye(2), np.ones(2)]), [0.0, 0.0, 1.0], rcond=None)[0]

    def info(joint):  # 1 - H(S | cell) from P(cell, s), the symbol on the last axis
        joint = joint.reshape(-1, 2)
        post = joint / joint.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 + float(np.where(joint > 0, joint * np.log2(post), 0.0).sum())

    lower = info(0.5 * np.einsum("l,fls->fs", pi, by_state))
    upper = info(0.5 * np.einsum("l,fls,lsk->flks", pi, by_state, spec.level_exit))
    return lower, upper


def mc_rate(spec: link.HmmSpec, n_symbols: int, seed: int, idx: int) -> Estimate:
    """Monte Carlo information rate of the hmm chain, the oracle of link.rate_bracket.

    The simulation-based method of Arnold et al. (IEEE Trans. IT 2006):
    one run of n_symbols symbols from substream (seed, 0xEA, idx, 1),
    whose forward recursions give the per-symbol information; the mean
    after a burn-in of 100 symbols is the rate, and a block bootstrap on
    substream (seed, 0xEA, idx, 2) gives its standard error.
    """
    run = link.simulate_link(spec, n_symbols, substream(seed, 0xEA, idx, 1), mode="hmm")
    return link.mutual_information(spec, run, burn_in=100, rng=substream(seed, 0xEA, idx, 2))


def exhaustive_map_symbols(spec: link.HmmSpec, emis: np.ndarray) -> np.ndarray:
    """The symbols of the best of all 4^t state paths of the t rows of emis, the oracle of link.viterbi_decode;
    a later path replaces the best only when it scores more than 1e-12 above it."""
    log_a = np.log(transition(spec))
    log_pi = np.log(INITIAL + 1e-300)
    best_score, best_path = -math.inf, None
    for path in itertools.product(range(4), repeat=emis.shape[0]):
        score = log_pi[path[0]] + emis[0, path[0]]
        for u in range(1, len(path)):
            score += log_a[path[u - 1], path[u]] + emis[u, path[u]]
        if score > best_score + 1e-12:
            best_score, best_path = score, path
    return np.array([p % 2 for p in best_path])


def forward_total_probability(spec: link.HmmSpec, t: int) -> float:
    """The sum over every sequence of t frames of its probability by link.forward_loglik; 1 when exact."""
    rows = all_frames(spec.n_cycles)
    total = 0.0
    for seq in itertools.product(range(rows.shape[0]), repeat=t):
        total += 2.0 ** float(link.forward_loglik(spec, block_emission_logprob(spec, rows[list(seq)])).sum())
    return total


# -- oracles of saturation ------------------------------------------------------
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


def pair_survival_integrals(n: int, tau: float, t_c: float) -> PieceIntegrals:
    """Evaluate the four pair-survival region integrals and their closed forms.

    The regions partition the position of the earlier photon of the pair:
    near the left edge, in the bulk, and two bands near the right edge.
    Used as the proof-level oracle for the second survivor moment.
    """
    from scipy import integrate

    saturation._require_window(tau, t_c)
    if n < 2:
        raise ValueError("pair survival needs n >= 2")
    T = t_c
    # (integrand of t2 and t1, the t1 range, the t2 range at t1) of a1, a2, b1, b2, c1, c2 and d1
    regions = (
        (lambda t2, t1: (1 - (t2 + tau) / T) ** (n - 2), 0, tau, lambda t1: t1 + tau, lambda t1: t1 + 2 * tau),
        (lambda t2, t1: (1 - (t1 + 3 * tau) / T) ** (n - 2), 0, tau, lambda t1: t1 + 2 * tau, lambda t1: T - tau),
        (lambda t2, t1: (1 - (t2 - t1 + 2 * tau) / T) ** (n - 2), tau, T - 3 * tau,
         lambda t1: t1 + tau, lambda t1: t1 + 2 * tau),
        (lambda t2, t1: (1 - 4 * tau / T) ** (n - 2), tau, T - 3 * tau, lambda t1: t1 + 2 * tau, lambda t1: T - tau),
        (lambda t2, t1: (1 - (t2 - t1 + 2 * tau) / T) ** (n - 2), T - 3 * tau, T - 2 * tau,
         lambda t1: t1 + tau, lambda t1: T - tau),
        (lambda t2, t1: ((t1 - tau) / T) ** (n - 2), T - 3 * tau, T - 2 * tau,
         lambda t1: T - tau, lambda t1: t1 + 2 * tau),
        (lambda t2, t1: (1 - (T - t1 + tau) / T) ** (n - 2), T - 2 * tau, T - tau, lambda t1: t1 + tau, lambda t1: T),
    )
    a1, a2, b1, b2, c1, c2, d1 = (integrate.dblquad(*r, epsabs=1e-13, epsrel=1e-11)[0] for r in regions)
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


def survivor_counts(rng: np.random.Generator, kind: str, x, tau: float, replicas: int) -> np.ndarray:
    """Survivor counts on [0, 1] of x uniform photons (kind "count") or of
    Poisson arrival at rate x (kind "poisson"), drawn in blocks."""
    block = 200_000 if kind == "count" else 100_000
    out = np.empty(replicas)
    for start in range(0, replicas, block):
        m = min(block, replicas - start)
        if kind == "count":
            arr = np.sort(rng.random((m, x)), axis=1)
        else:
            arr, _ = _poisson_sorted_arrivals(rng, x, m, 1.0)
        out[start : start + m] = saturation.survivor_mask(arr, tau).sum(axis=1)
    return out


def survivor_excitation_z(points, seed: int) -> float:
    """Largest Wilson score |z| of SurvivorOperator's excitation against saturated_excitation.

    points are (kappa t_c, mean photons per cycle, replicas, gamma t_c,
    enter_excited) tuples; point i draws from substream (seed, 0x09, i).
    z = (estimate - p) / sqrt(p (1 - p) / replicas) at the exact value p,
    so |z| < z0 says p lies inside the Wilson score interval at z0.  Unlike
    the Monte Carlo's own stderr, this spread does not shrink when a run
    near the top of the plateau happens to see few misses.  Each replica
    is a probability in [0, 1] with mean p, so its variance is at most
    p (1 - p) and the interval holds at least its nominal level.
    """
    t_c = 230e-9  # the curve depends on t_c only through kappa t_c, gamma t_c and the mean
    timing = CycleTiming(t_c=t_c, delta_o=t_c * 1e-9, t_w=t_c * 1e-9)
    worst = 0.0
    for i, (kappa_tc, nbar, replicas, gamma_tc, enter_excited) in enumerate(points):
        dev = DeviceParams(kappa=kappa_tc / t_c, gamma=gamma_tc / t_c)
        exact = float(saturation.SurvivorOperator.build(timing, dev, enter_excited).excitation(nbar / t_c))
        mc = saturation.saturated_excitation(
            nbar / t_c, timing, dev, enter_excited=enter_excited, replicas=replicas,
            rng=substream(seed, 0x09, i),
        )
        spread = math.sqrt(max(exact * (1.0 - exact), 1e-24) / replicas)
        worst = max(worst, abs(mc.value - exact) / spread)
    return worst
