"""OOK link layer: per-cycle kernels, the 4-state hidden Markov model,
Viterbi decoding, BER and achievable-rate estimation.

Hidden state is (entry level, symbol); a symbol spans n detection
cycles and emits the n readout bits of the frame.  Because the reset
stage conditions only on the readout bit, the per-cycle kernel
factorizes as P(bit | entry level) * P(exit level | bit); the bit
sequence inside a frame is then itself a two-state Markov chain and
block emissions depend on the frame only through (first bit, last bit,
ones count, adjacent-ones count).  The general transfer-matrix product
is kept alongside as a cross-check.  The simulator draws those four
statistics from their exact law (the runs theory of two-state Markov
chains) instead of stepping through the cycles of each frame.

The transition row of a state does not depend on the next symbol, so
every recursion over symbols is a chain of 2x2 matrices over the entry
level.  The recursions evaluate that chain as a prefix scan (Hillis-Steele
doubling) over chunks of symbols instead of a loop over them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .detection import excitation_ctmc
from .physics import CycleTiming, DeviceParams, Environment, power_to_rate, thermal_photon_rate
from .report import Estimate, SweepReport
from .rng import substream
# saturated_excitation is not used here; the benchmark tracer looks it up in this module
from .saturation import SaturationWindow, saturated_excitation, survivor_excitation  # noqa: F401

__all__ = [
    "CycleKernel",
    "HmmSpec",
    "FrameStatsLaw",
    "frame_stats_law",
    "frame_statistics",
    "LinkRun",
    "LinkConfig",
    "build_cycle_kernel",
    "build_hmm",
    "simulate_link",
    "viterbi_decode",
    "forward_loglik",
    "conditional_forward_loglik",
    "mutual_information",
    "estimate_ber",
    "estimate_rate",
    "wilson_stderr",
    "LINK_SWEEP_COLUMNS",
]

GROUND, EXCITED = 0, 1


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


@dataclass(frozen=True)
class CycleKernel:
    """Joint per-cycle law P(bit, exit level | entry level) at one arrival rate.

    bit_given_entry[e, b] and exit_given_bit[b, x] define the rank-one
    factorization; table composes them.
    """

    bit_given_entry: np.ndarray
    exit_given_bit: np.ndarray
    rate: float
    p_exc_ground: float
    p_exc_excited: float

    def __post_init__(self):
        for name in ("bit_given_entry", "exit_given_bit"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape != (2, 2) or np.any(m < 0) or np.any(m > 1):
                raise ValueError(f"{name} must be a 2x2 stochastic matrix")
            if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError(f"{name} rows must sum to 1")

    @property
    def table(self) -> np.ndarray:
        """P(bit, exit | entry), shape (entry, bit, exit)."""
        return np.einsum("eb,bx->ebx", self.bit_given_entry, self.exit_given_bit)

    @property
    def bit_chain(self) -> np.ndarray:
        """Markov kernel of the in-frame bit sequence, P(next bit | bit)."""
        return self.exit_given_bit @ self.bit_given_entry


def build_cycle_kernel(
    dev: DeviceParams,
    timing: CycleTiming,
    lambda_signal: float,
    n_e: float,
    window: Optional[SaturationWindow] = None,
) -> CycleKernel:
    """Per-cycle kernel at signal rate lambda_signal plus thermal load n_e.

    The total arrival rate is lambda_signal + n_e / t_c.  A ground entry
    is excited with the exact Poisson-arrival excitation probability, or
    its exact dead-time filtered value when window is given; an excited
    entry stays excited through capture and observation only by surviving
    decay.  Readout flips an excited observation to 0 with probability
    1 - exp(-gamma t_w); reset leaves the system excited with p_reset_e
    after a 1 bit and p_reset_g after a 0 bit.
    """
    if lambda_signal < 0 or n_e < 0:
        raise ValueError("rates must be >= 0")
    rate = lambda_signal + n_e / timing.t_c
    if window is not None:
        p_exc_g = float(survivor_excitation(rate, timing, dev, window=window))
    else:
        p_exc_g = float(excitation_ctmc(rate, timing, dev))
    p_exc_e = math.exp(-dev.gamma * (timing.t_c + timing.delta_o))
    p_w = math.exp(-dev.gamma * timing.t_w)

    bit = np.empty((2, 2))
    for entry, p_exc in ((GROUND, p_exc_g), (EXCITED, p_exc_e)):
        p_cap = (1.0 - dev.p0) * p_exc + dev.p0 * (1.0 - p_exc)
        p1 = p_w * p_cap
        bit[entry] = (1.0 - p1, p1)
    exit_given_bit = np.array(
        [[1.0 - dev.p_reset_g, dev.p_reset_g], [1.0 - dev.p_reset_e, dev.p_reset_e]]
    )
    return CycleKernel(
        bit_given_entry=bit,
        exit_given_bit=exit_given_bit,
        rate=rate,
        p_exc_ground=p_exc_g,
        p_exc_excited=p_exc_e,
    )


# -- exact law of the frame statistics ----------------------------------------
_DROP = 1e-16  # cells below this probability are left out of a table
_MASS_TOL = 1e-12  # the kept cells hold all the mass but at most this much


@dataclass(frozen=True)
class FrameStatsLaw:
    """Law of (last bit, ones count, adjacent-ones count) of a frame with a
    given first bit, on the cells that carry its mass.

    cells[:, i] is (bn, n1, n11) of cell i and cdf[i] the cumulative
    probability up to it, with cdf[-1] = 1; mass is what the kept cells
    held before that normalisation.
    """

    cells: np.ndarray
    cdf: np.ndarray
    mass: float

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draw: the cells at uniforms u in [0, 1), shape (3, u.size)."""
        return self.cells[:, np.searchsorted(self.cdf, u, side="right")]


def _frame_stats_logp(log_q, log_fact, b1, n, n1, n11) -> np.ndarray:
    """log P(bn, n1, n11 | b1) on the grid bn x n1 x n11, shape (2, n1.size, n11.size).

    A frame with n1 ones in r = n1 - n11 runs has r0 = r + 1 - b1 - bn
    runs of n0 = n - n1 zeros.  It is one of C(n1-1, r-1) C(n0-1, r0-1)
    arrangements, each with probability q00^c00 q01^c01 q10^c10 q11^c11,
    where c11 = n11, c01 = r - b1, c10 = r - bn and c00 = n0 - r0.
    """
    bn = np.arange(2)[:, None, None]
    n1 = n1[None, :, None]
    n11 = n11[None, None, :]
    r = n1 - n11
    n0 = n - n1
    r0 = r + 1 - b1 - bn
    # a block of zero elements has zero runs; every other block has at
    # least one run and at most one per element
    possible = (
        (r >= b1) & (r >= bn) & (r <= n1) & (r0 <= n0) & ((r > 0) | (n1 == 0)) & ((r0 > 0) | (n0 == 0))
    )

    def log_compositions(total, parts):  # log C(total - 1, parts - 1); 0 at total = parts = 0
        t, k = np.maximum(total - 1, 0), np.maximum(parts - 1, 0)
        return log_fact[t] - log_fact[k] - log_fact[np.maximum(t - k, 0)]

    logp = log_compositions(n1, r) + log_compositions(n0, r0)
    with np.errstate(invalid="ignore"):
        for count, lq in zip((n0 - r0, r - b1, r - bn, n11), log_q.ravel()):
            # a pair that never occurs contributes nothing, even at lq = -inf
            logp = logp + np.where(count == 0, 0.0, count * lq)
    return np.where(possible, logp, -np.inf)


@lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only log k! for k = 0..n, built once per frame length."""
    # math.lgamma, not a running sum of logs: that sum drifts by ~1e-12 at n = 800
    out = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out.flags.writeable = False
    return out


def frame_stats_law(q: np.ndarray, b1: int, n: int) -> FrameStatsLaw:
    """Exact law of (bn, n1, n11) of n bits of the Markov chain q started at bit b1.

    This is the runs theory of two-state Markov chains (Gabriel 1959; Fu
    and Koutras 1994).  The table spans a window of (n1, n11) around the
    stationary means, 10 rough standard deviations wide; the window doubles
    until the cells of probability >= 1e-16 hold all but 1e-12 of the mass.
    """
    q = np.asarray(q, dtype=float)
    log_q = _log(q)
    log_fact = _log_factorials(n)
    # stationary means, and variances of the iid-pair approximation scaled
    # by (1 + l) / (1 - l), where l = 1 - flip is the second eigenvalue of q
    flip = q[0, 1] + q[1, 0]
    pi1 = q[0, 1] / flip if flip > 0 else float(b1)
    p11 = pi1 * q[1, 1]
    spread = (2.0 - flip) / max(flip, 1e-9)
    mean1, mean11 = n * pi1, n * p11
    w1 = 10.0 * math.sqrt(n * pi1 * (1.0 - pi1) * spread) + 10.0
    w11 = 10.0 * math.sqrt(n * p11 * (1.0 + 2.0 * q[1, 1] - 3.0 * p11) * spread) + 10.0
    while True:
        lo1, hi1 = max(0, math.floor(mean1 - w1)), min(n, math.ceil(mean1 + w1))
        lo11, hi11 = max(0, math.floor(mean11 - w11)), min(n - 1, math.ceil(mean11 + w11))
        n1, n11 = np.arange(lo1, hi1 + 1), np.arange(lo11, hi11 + 1)
        p = np.exp(_frame_stats_logp(log_q, log_fact, b1, n, n1, n11))
        keep = p >= _DROP
        mass = float(p[keep].sum())
        if abs(mass - 1.0) <= _MASS_TOL:
            break
        if (lo1, hi1, lo11, hi11) == (0, n, 0, n - 1):
            raise ArithmeticError(f"frame statistics table holds mass {mass!r}, not 1")
        w1, w11 = 2.0 * w1, 2.0 * w11
    bn_i, n1_i, n11_i = np.nonzero(keep)
    cdf = np.cumsum(p[keep])
    return FrameStatsLaw(
        cells=np.stack([bn_i, n1_i + lo1, n11_i + lo11]).astype(np.int64),
        cdf=cdf / cdf[-1],
        mass=mass,
    )


def frame_statistics(frames) -> tuple:
    """(first bit, last bit, ones count, adjacent-ones count) of each row of an (m, n) frame array."""
    f = np.asarray(frames, dtype=np.int64)
    return f[:, 0], f[:, -1], f.sum(axis=1), (f[:, :-1] & f[:, 1:]).sum(axis=1)


@dataclass(frozen=True)
class HmmSpec:
    """Four-state hidden Markov model over (entry level, symbol).

    State index is 2 * level + symbol.  Symbols are equiprobable and
    independent across symbol slots; the level carries over through the
    exit distribution.
    """

    kernel0: CycleKernel
    kernel1: CycleKernel
    n_cycles: int

    def __post_init__(self):
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        # the physical sampler resets every frame with kernel0's law
        if not np.allclose(self.kernel0.exit_given_bit, self.kernel1.exit_given_bit):
            raise ValueError("kernels must share the device reset law")

    def kernel(self, symbol: int) -> CycleKernel:
        return self.kernel1 if symbol else self.kernel0

    # -- chain building blocks -------------------------------------------------
    def first_bit_prob(self, level: int, symbol: int) -> np.ndarray:
        return self.kernel(symbol).bit_given_entry[level]

    def last_bit_marginal(self, level: int, symbol: int) -> np.ndarray:
        pi = self.first_bit_prob(level, symbol)
        q = self.kernel(symbol).bit_chain
        return pi @ np.linalg.matrix_power(q, self.n_cycles - 1)

    def exit_distribution(self, level: int, symbol: int) -> np.ndarray:
        """P(exit level after the block | entry level, symbol)."""
        return self.last_bit_marginal(level, symbol) @ self.kernel(symbol).exit_given_bit

    @property
    def initial(self) -> np.ndarray:
        """Initial state distribution: ground level, symbols equiprobable."""
        pi = np.zeros(4)
        pi[2 * GROUND + 0] = 0.5
        pi[2 * GROUND + 1] = 0.5
        return pi

    @property
    def level_exit(self) -> np.ndarray:
        """P(exit level | entry level, symbol), shape (level, symbol, level')."""
        return np.array(
            [[self.exit_distribution(lv, s) for s in (0, 1)] for lv in (GROUND, EXCITED)]
        )

    @property
    def transition(self) -> np.ndarray:
        """4x4 state transition matrix P((i', s') | (i, s)) = P(i' | i, s) / 2."""
        return 0.5 * np.repeat(self.level_exit.reshape(4, 2), 2, axis=1)

    @cached_property
    def frame_stats(self) -> tuple:
        """Exact law of the frame statistics, frame_stats[symbol][b1]; built on first use."""
        return tuple(
            tuple(frame_stats_law(self.kernel(s).bit_chain, b1, self.n_cycles) for b1 in (0, 1))
            for s in (0, 1)
        )

    # -- block emissions -------------------------------------------------------
    def emission_loglik_stats(self, b1, bn, n1, n11) -> np.ndarray:
        """log P(frame | state) from frame sufficient statistics.

        b1/bn are the first/last bits, n1 the total ones count, n11 the
        count of adjacent 1-1 pairs.  Shape (m, 4), natural log.
        """
        b1 = np.asarray(b1, dtype=np.int64)
        bn = np.asarray(bn, dtype=np.int64)
        n1 = np.asarray(n1, dtype=np.float64)
        n11 = np.asarray(n11, dtype=np.float64)
        n = float(self.n_cycles)
        # pair counts follow from the four statistics
        c11 = n11
        c10 = n1 - bn - n11
        c01 = n1 - b1 - n11
        c00 = (n - 1.0) - c11 - c10 - c01
        out = np.empty((b1.size, 4))

        def _count_term(count, logp):
            # a pair that never occurs contributes nothing, even at logp = -inf
            with np.errstate(invalid="ignore"):
                return np.where(count == 0, 0.0, count * logp)

        for sym in (0, 1):
            q = _log(self.kernel(sym).bit_chain)
            pair_part = (
                _count_term(c00, q[0, 0])
                + _count_term(c01, q[0, 1])
                + _count_term(c10, q[1, 0])
                + _count_term(c11, q[1, 1])
            )
            for level in (GROUND, EXCITED):
                p1 = _log(self.first_bit_prob(level, sym))
                first_part = np.where(b1 == 1, p1[1], p1[0])
                out[:, 2 * level + sym] = first_part + pair_part
        return np.nan_to_num(out, nan=-np.inf, posinf=-np.inf)

    def block_emission_logprob(self, frames: np.ndarray) -> np.ndarray:
        """log P(frame | state) for an (m, n_cycles) array of frames."""
        frames = np.asarray(frames, dtype=np.int64)
        if frames.ndim != 2 or frames.shape[1] != self.n_cycles:
            raise ValueError("frames must have shape (m, n_cycles)")
        return self.emission_loglik_stats(*frame_statistics(frames))

    def block_emission_logprob_matrix(self, frames: np.ndarray) -> np.ndarray:
        """Reference evaluator: explicit transfer-matrix product over cycles."""
        frames = np.asarray(frames, dtype=np.int64)
        out = np.empty((frames.shape[0], 4))
        for sym in (0, 1):
            k = self.kernel(sym).table  # (entry, bit, exit)
            for level in (GROUND, EXCITED):
                alpha = np.zeros((frames.shape[0], 2))
                alpha[:, level] = 1.0
                logscale = np.zeros(frames.shape[0])
                for j in range(self.n_cycles):
                    b = frames[:, j]
                    step = np.where(b[:, None, None] == 1, k[None, :, 1, :], k[None, :, 0, :])
                    alpha = np.einsum("me,mex->mx", alpha, step)
                    norm = alpha.sum(axis=1)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        logscale += np.log(norm)
                        alpha = np.where(norm[:, None] > 0, alpha / norm[:, None], 0.0)
                out[:, 2 * level + sym] = logscale
        return np.nan_to_num(out, nan=-np.inf, posinf=-np.inf)

    def enumerate_block_probs(self) -> np.ndarray:
        """Exact P(frame | state) for every frame; only for small n_cycles."""
        if self.n_cycles > 12:
            raise ValueError("enumeration limited to n_cycles <= 12")
        m = 2**self.n_cycles
        frames = ((np.arange(m)[:, None] >> np.arange(self.n_cycles)[None, ::-1]) & 1).astype(np.int64)
        return np.exp(self.block_emission_logprob(frames)), frames


@dataclass
class LinkRun:
    """One simulated link run: symbols, frame statistics, optional raw frames."""

    symbols: np.ndarray
    b1: np.ndarray
    bn: np.ndarray
    n1: np.ndarray
    n11: np.ndarray
    mode: str
    seed_key: tuple
    frames: Optional[np.ndarray] = None
    decoded: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.symbols.size)


def simulate_link(
    spec: HmmSpec,
    n_symbols: int,
    rng: np.random.Generator,
    mode: str = "hmm",
    store_frames: bool = False,
) -> LinkRun:
    """Sample an OOK link run of n_symbols symbols.

    mode "physical": the exit level of each cycle feeds the next cycle,
    including across symbol boundaries, so frame and next entry level are
    coupled.  mode "hmm": the entry level of the next symbol is drawn
    from the exit-level marginal given the current state, independent of
    the emitted frame (the factorized model).  The system starts in
    ground either way.

    Each symbol draws its frame statistics (bn, n1, n11) from their exact
    law (HmmSpec.frame_stats), once for each possible first bit; a scan
    over the symbols afterwards resolves entry levels and picks the
    realized variant.  With store_frames, each realized frame is then
    drawn uniformly among the frames with its statistics.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if mode not in ("hmm", "physical"):
        raise ValueError(f"unknown mode {mode!r}")
    m = int(n_symbols)
    symbols = (rng.random(m) < 0.5).astype(np.int8)
    sym_idx = symbols.astype(np.int64)
    bn, n1, n11 = _draw_frame_stats(spec, symbols, rng)  # each (first bit, symbol slot)

    # boundary pass: given the uniforms, each symbol maps its entry level to
    # the next symbol's, and the entry levels follow from composing those maps
    u_entry = rng.random(m)
    u_first = rng.random(m)
    p_first = np.array([[spec.first_bit_prob(lv, s)[1] for s in (0, 1)] for lv in (GROUND, EXCITED)])
    b1_given = [u_first < p_first[lv, sym_idx] for lv in (GROUND, EXCITED)]
    if mode == "physical":
        exit_bit = spec.kernel0.exit_given_bit[:, EXCITED]
        step = [u_entry < exit_bit[np.where(b1, bn[1], bn[0])] for b1 in b1_given]
    else:
        exit_marg = spec.level_exit[:, :, EXCITED]
        step = [u_entry < exit_marg[lv, sym_idx] for lv in (GROUND, EXCITED)]
    entry = np.empty(m, dtype=np.int8)
    level = GROUND
    for sl in _chunks(m):
        entry[sl], level = _iterate_maps(step[0][sl], step[1][sl], level)
    b1_sel = np.where(entry, b1_given[1], b1_given[0]).astype(np.int8)

    pick = b1_sel.astype(np.int64)
    cols = np.arange(m)
    run = LinkRun(
        symbols=symbols,
        b1=b1_sel,
        bn=bn[pick, cols].astype(np.int8),
        n1=n1[pick, cols],
        n11=n11[pick, cols],
        mode=mode,
        seed_key=(),
    )
    if store_frames:
        run.frames = _compose_frames(run.b1, run.bn, run.n1, run.n11, spec.n_cycles, rng)
    return run


def _draw_frame_stats(spec: HmmSpec, symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """bn, n1 and n11 of both first-bit variants of every frame, shape (3, 2, m).

    One uniform per variant and symbol slot, read through the inverse CDF
    of frame_stats[symbol][variant].
    """
    u = rng.random((2, symbols.size))
    out = np.empty((3, 2, symbols.size), dtype=np.int64)
    for s in (0, 1):
        slots = np.flatnonzero(symbols == s)
        for b1 in (0, 1):
            out[:, b1, slots] = spec.frame_stats[s][b1].draw(u[b1, slots])
    return out


def _compose_frames(b1, bn, n1, n11, n: int, rng: np.random.Generator) -> np.ndarray:
    """One frame of n bits for each row of statistics, uniform among the frames that have them.

    Given (b1, bn, n1, r = n1 - n11), a frame is a composition of n1 into
    r runs of ones and one of n0 = n - n1 into r0 = r + 1 - b1 - bn runs
    of zeros, the runs alternating from bit b1.  Each composition opens
    its runs at a uniform subset of the gaps inside its block.  Shape
    (m, n), int8.
    """
    b1, bn, n1, n11 = (np.asarray(x, dtype=np.int64)[:, None] for x in (b1, bn, n1, n11))
    r = n1 - n11
    r0 = r + 1 - b1 - bn
    k = np.arange(n)
    one = k < n1  # slot k of the ones block, else of the zeros block
    gap = (k > 0) & (k != n1)  # slot k can open a new run of its block
    key = rng.random((b1.size, n)) + np.where(one, 0.0, 2.0)
    key[~gap] = np.inf
    rank = np.argsort(np.argsort(key, axis=1), axis=1)  # the gaps of the ones block rank first
    opens = gap & np.where(one, rank < r - 1, rank - np.maximum(n1 - 1, 0) < r0 - 1)
    run = np.cumsum(opens, axis=1) - np.where(one, 0, np.maximum(r - 1, 0))
    # runs alternate from bit b1: sort the slots by their run's place in the frame
    place = 2 * run + np.where(one, 1 - b1, b1)
    return (np.sort(place, axis=1) % 2 == 1 - b1).astype(np.int8)


# -- scans over symbols ---------------------------------------------------------
# Chunks of at most _CHUNK symbols, with the scan state carried from one
# chunk to the next, keep the scan temporaries O(_CHUNK) at any run length.
_CHUNK = 1 << 16


def _chunks(m: int):
    for start in range(0, m, _CHUNK):
        yield slice(start, min(start + _CHUNK, m))


def _iterate_maps(f0: np.ndarray, f1: np.ndarray, x0: int):
    """Run x_{j+1} = f_j(x_j) for maps f_j on {0, 1} given as f_j(0) = f0[j], f_j(1) = f1[j].

    Returns x_0 ... x_{L-1} as int8 and x_L.  The compositions
    f_j o ... o f_0 come from log2(L) doubling passes, so no pass waits
    on a single step.
    """
    f0 = np.array(f0, dtype=bool)
    f1 = np.array(f1, dtype=bool)
    k = 1
    while k < f0.size:
        # earlier composite g = f[:-k] first, then the later one h = f[k:]
        g0, g1, h0, h1 = f0[:-k], f1[:-k], f0[k:], f1[k:]
        f0[k:], f1[k:] = np.where(g0, h1, h0), np.where(g1, h1, h0)
        k *= 2
    after = f1 if x0 else f0
    before = np.empty(after.size, dtype=np.int8)
    before[0] = x0
    before[1:] = after[:-1]
    return before, int(after[-1])


def _unit_sum(x: np.ndarray) -> np.ndarray:
    """x over its sum along every axis but the last (the symbol axis)."""
    return x / x.sum(axis=tuple(range(x.ndim - 1)))


def _unit_max(x: np.ndarray) -> np.ndarray:
    """x minus its maximum along every axis but the last; all -inf stays -inf."""
    top = x.max(axis=tuple(range(x.ndim - 1)))
    return x - np.where(top > -np.inf, top, 0.0)


def _scan_chunk(steps: np.ndarray, carry: np.ndarray, plus, times, rescale):
    """carry times the exclusive prefix products of one chunk of 2x2 steps.

    steps[l, l', t] holds step t; the products are over the semiring
    (plus, times): (add, multiply) for the forward sums, (maximum, add)
    for Viterbi.  Hillis-Steele doubling makes log2(L) passes over the
    whole chunk, and rescale normalises every prefix.  Returns the row
    vectors before each step, shape (2, L), and the rescaled vector after
    the last one.  steps is overwritten with the inclusive prefixes.
    """
    x = steps
    size = x.shape[-1]
    k = 1
    while k < size:
        early, late = x[..., :-k], x[..., k:]
        x[..., k:] = rescale(plus(times(early[:, 0, None], late[0]), times(early[:, 1, None], late[1])))
        k *= 2
    after = plus(times(carry[0], x[0]), times(carry[1], x[1]))
    before = np.empty((2, size))
    before[:, 0] = carry
    before[:, 1:] = after[:, :-1]
    return before, rescale(after[:, -1:])[:, 0]


def viterbi_decode(spec: HmmSpec, run_or_frames) -> np.ndarray:
    """Maximum a posteriori state path; returns the decoded symbol bits.

    Log domain; zero-probability branches carry -inf.  Ties break toward
    the smaller state index.  The best scores into each level come from a
    max-plus scan over N_t[l, l'] = max_s(e_t[l, s] + log T[(l, s), l']);
    the backtrack composes the backpointer maps on the level.
    """
    emis = _emissions_for(spec, run_or_frames)
    m = emis.shape[0]
    log_t = _log(0.5 * spec.level_exit)  # log T[(l, s), (l', .)], shape (level, symbol, level')
    # back[l', t]: state at t on the best path into level l' at t + 1
    back = np.empty((2, m), dtype=np.int8)
    best = np.array([math.log(0.5), -math.inf])  # best score into each level at t = 0
    for sl in _chunks(m):
        e = emis[sl].T  # (state, t)
        e2 = e.reshape(2, 2, -1)
        steps = np.maximum(e2[:, 0, None] + log_t[:, 0, :, None], e2[:, 1, None] + log_t[:, 1, :, None])
        into, best = _scan_chunk(steps, best, np.maximum, np.add, _unit_max)
        delta = np.repeat(into, 2, axis=0) + e
        # argmax keeps the first maximum: the smaller state index wins a tie
        back[:, sl] = (delta[:, None] + log_t.reshape(4, 2, 1)).argmax(axis=0)
    state = int(np.argmax(delta[:, -1]))
    path = np.empty(m, dtype=np.int8)
    path[-1] = state % 2
    level = state // 2
    for sl in reversed(list(_chunks(m - 1))):
        rev = back[:, sl][:, ::-1]  # level at t + 1 -> state at t, latest t first
        into, level = _iterate_maps(rev[0] // 2, rev[1] // 2, level)
        path[sl] = rev[into, np.arange(into.size)][::-1] % 2
    return path


def _emissions_for(spec: HmmSpec, run_or_frames) -> np.ndarray:
    if isinstance(run_or_frames, LinkRun):
        r = run_or_frames
        return spec.emission_loglik_stats(r.b1, r.bn, r.n1, r.n11)
    frames = np.asarray(run_or_frames)
    if frames.size == 0:
        raise ValueError("observations must be nonempty")
    return spec.block_emission_logprob(frames)


def _level_forward(spec: HmmSpec, m: int, weights) -> np.ndarray:
    """Per-symbol log2 P(o_t | o_<t) of a forward recursion over the level.

    weights(sl) gives, for a chunk of steps, shift[t] and w[l, s, t]: the
    symbol prior times exp(log P(o_t | l, s) - shift[t]).  The level law
    before step t is the start law times the prefix product of
    M_t[l, l'] = sum_s w[l, s, t] P(l' | l, s), rescaled by its sum.
    """
    exit_ = spec.level_exit
    out = np.empty(m)
    prior = np.array([1.0, 0.0])  # the system starts in ground
    for sl in _chunks(m):
        w, shift = weights(sl)
        steps = w[:, 0, None] * exit_[:, 0, :, None] + w[:, 1, None] * exit_[:, 1, :, None]
        g, prior = _scan_chunk(steps, prior, np.add, np.multiply, _unit_sum)
        r = w[:, 0] + w[:, 1]
        out[sl] = np.log2((g[0] * r[0] + g[1] * r[1]) / (g[0] + g[1])) + shift / math.log(2.0)
    return out


def forward_loglik(spec: HmmSpec, run_or_frames, emissions: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-symbol incremental log2-likelihoods log2 P(o_t | o_<t).

    emissions, when given, is the (m, 4) emission table of run_or_frames
    already computed, and is used in its place.
    """
    emis = _emissions_for(spec, run_or_frames) if emissions is None else emissions

    def weights(sl):
        e = emis[sl].T
        shift = e.max(axis=0)
        return 0.5 * np.exp(e - shift).reshape(2, 2, -1), shift

    return _level_forward(spec, emis.shape[0], weights)


def conditional_forward_loglik(
    spec: HmmSpec, run_or_frames, symbols, emissions: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-symbol log2 P(o_t | o_<t, S) with the symbol sequence known.

    The level remains hidden: a two-state forward over entry levels,
    with the factorized per-block law P(o | level, s) * P(level' | level, s).
    emissions is as in forward_loglik.
    """
    emis = _emissions_for(spec, run_or_frames) if emissions is None else emissions
    symbols = np.asarray(symbols)
    m = emis.shape[0]
    if symbols.shape != (m,):
        raise ValueError("symbols length must match observations")
    if not np.all((symbols == 0) | (symbols == 1)):
        raise ValueError("symbols must be 0 or 1")
    symbols = symbols.astype(bool)

    def weights(sl):
        e = emis[sl].T.reshape(2, 2, -1)
        s = symbols[sl]
        own = np.where(s, e[:, 1], e[:, 0])  # (level, t) at the known symbol
        shift = own.max(axis=0)
        w = np.exp(own - shift)
        return np.stack([np.where(s, 0.0, w), np.where(s, w, 0.0)], axis=1), shift

    return _level_forward(spec, m, weights)


def mutual_information(
    spec: HmmSpec,
    run: LinkRun,
    burn_in: int = 100,
    bootstrap_blocks: int = 100,
    rng: Optional[np.random.Generator] = None,
) -> Estimate:
    """Per-symbol mutual information between symbols and frames, in bits.

    I = H(O) - H(O | S), both estimated from ergodic averages of forward
    incremental likelihoods; the difference is averaged per symbol and a
    block bootstrap over contiguous blocks supplies the standard error.
    The estimate is clamped to [0, 1].
    """
    emis = _emissions_for(spec, run)
    inc_o = forward_loglik(spec, run, emissions=emis)
    inc_os = conditional_forward_loglik(spec, run, run.symbols, emissions=emis)
    d = (inc_os - inc_o)[burn_in:]
    if d.size < 10:
        raise ValueError("run too short after burn-in")
    value = float(np.clip(d.mean(), 0.0, 1.0))
    if rng is None:
        rng = substream(0, 0xB0)
    n_blocks = min(bootstrap_blocks, max(2, d.size // 50))
    block_len = d.size // n_blocks
    block_means = np.array([d[i * block_len : (i + 1) * block_len].mean() for i in range(n_blocks)])
    reps = rng.choice(block_means, size=(200, n_blocks), replace=True).mean(axis=1)
    return Estimate(value, float(reps.std(ddof=1)))


def wilson_stderr(successes: int, n: int, z: float = 1.0) -> float:
    """Half-width of the Wilson score interval at z standard normal units."""
    if n == 0:
        raise ValueError("n must be > 0")
    p = successes / n
    denom = 1.0 + z * z / n
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return half


@dataclass(frozen=True)
class LinkConfig:
    """Physical configuration shared by the BER and rate sweeps."""

    dev: DeviceParams
    timing: CycleTiming
    env: Environment
    saturation: bool = False
    burn_in: int = 100

    @property
    def n_e(self) -> float:
        return thermal_photon_rate(self.env)

    def build_spec(self, power_dbm: float) -> HmmSpec:
        """Kernels and HMM for one received-power point."""
        lam1 = power_to_rate(power_dbm, self.env.nu)
        window = SaturationWindow.from_device(self.dev) if self.saturation else None
        kernel0 = build_cycle_kernel(self.dev, self.timing, 0.0, self.n_e, window=window)
        kernel1 = build_cycle_kernel(self.dev, self.timing, lam1, self.n_e, window=window)
        return build_hmm(kernel0, kernel1, self.env.cycles_per_symbol)


def build_hmm(kernel0: CycleKernel, kernel1: CycleKernel, n: int) -> HmmSpec:
    """Assemble the 4-state HMM from the two per-symbol cycle kernels."""
    return HmmSpec(kernel0=kernel0, kernel1=kernel1, n_cycles=n)


LINK_SWEEP_COLUMNS = (
    "power_dbm",
    "lambda_t_c",
    "n_e",
    "value",
    "stderr",
    "n_symbols",
    "kappa",
    "gamma",
    "n_cycles",
    "seed",
)


def _link_report(metric: str) -> SweepReport:
    cols = tuple(metric if c == "value" else c for c in LINK_SWEEP_COLUMNS)
    return SweepReport(columns=cols, meta={"metric": metric})


def ber_point(
    cfg: LinkConfig,
    power_dbm: float,
    n_symbols: int,
    seed: int,
    idx: int,
    mode: str = "physical",
) -> dict:
    """One BER sweep row; substreams are keyed by the grid index only."""
    spec = cfg.build_spec(power_dbm)
    run = simulate_link(spec, n_symbols, substream(seed, 0xBE, idx, 1), mode=mode)
    run.seed_key = (seed, 0xBE, idx)
    decoded = viterbi_decode(spec, run)
    errors = int(np.sum(decoded != run.symbols))
    return {
        "power_dbm": float(power_dbm),
        "lambda_t_c": power_to_rate(power_dbm, cfg.env.nu) * cfg.timing.t_c,
        "n_e": cfg.n_e,
        "ber": errors / n_symbols,
        "stderr": wilson_stderr(errors, n_symbols),
        "n_symbols": n_symbols,
        "kappa": cfg.dev.kappa,
        "gamma": cfg.dev.gamma,
        "n_cycles": cfg.env.cycles_per_symbol,
        "seed": seed,
    }


def rate_point(
    cfg: LinkConfig,
    power_dbm: float,
    n_symbols: int,
    seed: int,
    idx: int,
    mode: str = "hmm",
) -> dict:
    """One achievable-rate sweep row."""
    spec = cfg.build_spec(power_dbm)
    run = simulate_link(spec, n_symbols, substream(seed, 0xEA, idx, 1), mode=mode)
    run.seed_key = (seed, 0xEA, idx)
    mi = mutual_information(spec, run, burn_in=cfg.burn_in, rng=substream(seed, 0xEA, idx, 2))
    return {
        "power_dbm": float(power_dbm),
        "lambda_t_c": power_to_rate(power_dbm, cfg.env.nu) * cfg.timing.t_c,
        "n_e": cfg.n_e,
        "rate": mi.value,
        "stderr": mi.stderr,
        "n_symbols": n_symbols,
        "kappa": cfg.dev.kappa,
        "gamma": cfg.dev.gamma,
        "n_cycles": cfg.env.cycles_per_symbol,
        "seed": seed,
    }


def estimate_ber(
    cfg: LinkConfig,
    powers: Sequence[float],
    n_symbols: int,
    seed: int = 0,
    mode: str = "physical",
) -> SweepReport:
    """Symbol error rate of the Viterbi receiver over a received-power grid."""
    report = _link_report("ber")
    for idx, p_dbm in enumerate(powers):
        report.append(**ber_point(cfg, p_dbm, n_symbols, seed, idx, mode))
    return report


def estimate_rate(
    cfg: LinkConfig,
    powers: Sequence[float],
    n_symbols: int,
    seed: int = 0,
    mode: str = "hmm",
) -> SweepReport:
    """Achievable transmission rate (bits/symbol) over a received-power grid."""
    report = _link_report("rate")
    for idx, p_dbm in enumerate(powers):
        report.append(**rate_point(cfg, p_dbm, n_symbols, seed, idx, mode))
    return report
