"""OOK link layer: per-cycle kernels, the 4-state hidden Markov model,
Viterbi decoding, BER estimation and the exact achievable-rate bracket.

Hidden state is (entry level, symbol); a symbol spans n detection
cycles and emits the n readout bits of the frame.  Because the reset
stage conditions only on the readout bit, the per-cycle kernel
factorizes as P(bit | entry level) * P(exit level | bit); the bit
sequence inside a frame is then itself a two-state Markov chain and
block emissions depend on the frame only through (first bit, last bit,
ones count, adjacent-ones count).  The simulator draws those four
statistics from their exact law (the runs theory of two-state Markov
chains) instead of stepping through the cycles of each frame.  The
transfer-matrix product and frame enumeration are oracles, in `detection`.

The transition row of a state does not depend on the next symbol, so
every recursion over symbols is a chain of 2x2 matrices over the entry
level.  The recursions evaluate that chain as a prefix scan over chunks
of symbols instead of a loop over them: a pairwise recursion that
combines adjacent steps, scans the half-length chain and fills in the
odd positions, so a chunk of L symbols costs O(L) work (Blelloch 1990).
The forward recursions and mutual_information, the Monte Carlo oracle
of rate_bracket, stay here only for the benchmark tracer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericsError
from .physics import (
    CycleTiming,
    DeviceParams,
    Environment,
    detection_prob_single,
    excitation_ctmc,
    power_to_rate,
    readout_prob,
    thermal_photon_rate,
)
from .report import Estimate
from .rng import substream
# saturated_excitation is not used here; the benchmark tracer looks it up in this module
from .saturation import SurvivorOperator, saturated_excitation  # noqa: F401

__all__ = [
    "CycleKernel",
    "HmmSpec",
    "FrameStatsLaw",
    "frame_stats_law",
    "LinkRun",
    "LinkConfig",
    "build_cycle_kernel",
    "simulate_link",
    "viterbi_decode",
    "forward_loglik",
    "conditional_forward_loglik",
    "mutual_information",
    "rate_bracket",
    "wilson_stderr",
    "ber_point",
    "rate_point",
]

GROUND, EXCITED = 0, 1


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


@dataclass(frozen=True)
class CycleKernel:
    """Joint per-cycle law P(bit, exit level | entry level) at one arrival rate.

    bit_given_entry[e, b] and exit_given_bit[b, x] define the rank-one
    factorization.
    """

    bit_given_entry: np.ndarray
    exit_given_bit: np.ndarray
    rate: float
    _frame_stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("bit_given_entry", "exit_given_bit"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape != (2, 2) or np.any(m < 0) or np.any(m > 1):
                raise ValueError(f"{name} must be a 2x2 stochastic matrix")
            if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError(f"{name} rows must sum to 1")

    @property
    def bit_chain(self) -> np.ndarray:
        """Markov kernel of the in-frame bit sequence, P(next bit | bit)."""
        return self.exit_given_bit @ self.bit_given_entry

    def frame_stats(self, n: int) -> tuple:
        """frame_stats_law of the bit chain at frame length n: the tables of first bits 0 and 1.

        One call builds both, on first use for each n, so the specs that
        share a kernel (LinkConfig.build_spec) share its tables.
        """
        if n not in self._frame_stats:
            self._frame_stats[n] = frame_stats_law(self.bit_chain, n)
        return self._frame_stats[n]


def build_cycle_kernel(
    dev: DeviceParams,
    timing: CycleTiming,
    lambda_signal: float,
    n_e: float,
    saturation: Optional[SurvivorOperator] = None,
) -> CycleKernel:
    """Per-cycle kernel at signal rate lambda_signal plus thermal load n_e.

    The total arrival rate is lambda_signal + n_e / t_c.  A ground entry
    is excited with the exact Poisson-arrival excitation probability, or
    its exact dead-time filtered value when saturation, the ground-entry
    SurvivorOperator of dev and timing, is given; an excited
    entry stays excited through capture and observation only by surviving
    decay.  Readout (physics.detection_prob_single, then readout_prob)
    flips the observation with probability p0 and then an excited one to
    0 with probability 1 - exp(-gamma t_w); reset leaves the system
    excited with p_reset_e after a 1 bit and p_reset_g after a 0 bit.
    """
    if lambda_signal < 0 or n_e < 0:
        raise ValueError("rates must be >= 0")
    rate = lambda_signal + n_e / timing.t_c
    if saturation is not None:
        p_exc_g = float(saturation.excitation(rate))
    else:
        p_exc_g = float(excitation_ctmc(rate, timing, dev))
    p_exc_e = math.exp(-dev.gamma * (timing.t_c + timing.delta_o))

    bit = np.empty((2, 2))
    for entry, p_exc in ((GROUND, p_exc_g), (EXCITED, p_exc_e)):
        p1 = readout_prob(detection_prob_single(p_exc, dev), timing, dev)
        bit[entry] = (1.0 - p1, p1)
    exit_given_bit = np.array(
        [[1.0 - dev.p_reset_g, dev.p_reset_g], [1.0 - dev.p_reset_e, dev.p_reset_e]]
    )
    return CycleKernel(bit_given_entry=bit, exit_given_bit=exit_given_bit, rate=rate)


# -- exact law of the frame statistics ----------------------------------------
_DROP = 1e-16  # cells below this probability are left out of a table
# the kept cells hold the mass up to the rounding of the lgamma sums of
# the log arrangement counts, which grows as n log n: 3.9e-12 at n = 20000
_MASS_TOL = 1e-9
_MAX_CELLS = 1 << 22  # the largest window evaluated: about 43 bytes a cell at the peak (tracemalloc), 0.18 GB


def _bucket(x: np.ndarray, k: int) -> np.ndarray:
    """The guide bucket floor(x k) of values x in [0, 1]: FrameStatsLaw files cdf and uniforms alike."""
    return (x * k).astype(np.intp)


@dataclass(frozen=True)
class FrameStatsLaw:
    """Law of (last bit, ones count, adjacent-ones count) of a frame with a
    given first bit, on the cells that carry its mass.

    cells[:, i] is (bn, n1, n11) of cell i, prob[i] its probability and
    log_count[i] the log of its number of arrangements C(n1-1, r-1)
    C(n0-1, r0-1), which does not depend on the chain.  mass is what the
    cells hold, prob.sum(), and cdf[i] the cumulative probability up to
    cell i over that mass, with cdf[-1] = 1; bn1_from is the cdf of the
    last bn = 0 cell (-inf when there is none).  The arrays are read-only:
    one table can serve many specs (LinkConfig.build_spec), also on several
    threads of a sweep.
    """

    cells: np.ndarray
    prob: np.ndarray
    log_count: np.ndarray
    cdf: np.ndarray = field(init=False)
    mass: float = field(init=False)
    bn1_from: float = field(init=False)

    def __post_init__(self):
        cdf = np.cumsum(self.prob)
        object.__setattr__(self, "mass", float(self.prob.sum()))
        object.__setattr__(self, "cdf", cdf / cdf[-1])
        for a in (self.cells, self.prob, self.log_count, self.cdf):
            a.flags.writeable = False
        n_bn0 = int(np.count_nonzero(self.cells[0] == 0))
        object.__setattr__(self, "bn1_from", float(self.cdf[n_bn0 - 1]) if n_bn0 else -math.inf)

    @cached_property
    def _guide(self) -> np.ndarray:
        """Bucket index over cdf (Chen and Asau 1974), built on the first draw.

        With k = 2 cells.size buckets, guide[j] is the number of cells with
        _bucket(cdf, k) < j, for j = 0..k + 1.  Two threads that draw from a
        shared table at once may each build it (cached_property takes no
        lock from Python 3.12 on); the copies are equal, so either serves.
        """
        k = 2 * self.cdf.size
        guide = np.zeros(k + 2, dtype=np.int32)
        np.cumsum(np.bincount(_bucket(self.cdf, k), minlength=k + 1), out=guide[1:])
        guide.flags.writeable = False
        return guide

    def index(self, u: np.ndarray) -> np.ndarray:
        """searchsorted(cdf, u, side="right"): the cell that each uniform u in [0, 1) draws.

        _bucket is monotone, so the cells with cdf <= u are all those of
        the buckets below b = _bucket(u) and some of those in bucket b: the
        index lies in [guide[b], guide[b + 1]].  Only the uniforms whose
        bucket holds a cdf value, where the two differ, are searched.
        """
        guide = self._guide
        b = _bucket(u, guide.size - 2)
        out, upper = guide[b], guide[b + 1]
        open_ = np.flatnonzero(out != upper)
        out[open_] = np.searchsorted(self.cdf, u[open_], side="right")
        return out

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draw: the cells at uniforms u in [0, 1), shape (3, u.size)."""
        return self.cells.take(self.index(u), axis=1)

    def last_bit(self, u: np.ndarray) -> np.ndarray:
        """The last bit of draw(u), as bool, without the search.

        The cells are bn-major, so draw(u) has bn = 1 exactly when the
        search passes every bn = 0 cell, that is when u >= bn1_from.
        """
        return u >= self.bn1_from


def _pair_counts(b1, bn, n1, n11, n) -> tuple:
    """(c00, c01, c10, c11): the bit-pair counts of frames of n bits with statistics (b1, bn, n1, n11).

    A frame with r = n1 - n11 runs of ones holds c01 = r - b1 01-pairs,
    c10 = r - bn 10-pairs, c11 = n11 11-pairs and c00 = n - 1 - c01 - c10 - c11
    00-pairs.  The counts do not depend on the chain, so one set serves
    both symbols.
    """
    c11 = n11
    c10 = n1 - bn - n11
    c01 = n1 - b1 - n11
    c00 = (n - 1) - c11 - c10 - c01
    return c00, c01, c10, c11


def _pair_term(count, lq):
    """count * lq, the log-probability of count pairs of chain log-probability lq.

    A pair that never occurs contributes nothing, even at lq = -inf; at a
    finite lq its term 0 * lq is a zero, which leaves a sum as it is.
    """
    return np.where(count == 0, 0.0, count * lq) if lq == -math.inf else count * lq


def _pair_loglik(start, log_q, counts) -> np.ndarray:
    """start plus the log-probability of the _pair_counts counts under the chain log_q.

    The _pair_term of each count is added to start in the order of counts,
    the later ones in place: the c00 count has the shape of them all.
    """
    terms = zip(counts, log_q.ravel())
    with np.errstate(invalid="ignore"):
        out = start + _pair_term(*next(terms))
        for count, lq in terms:
            out += _pair_term(count, lq)
    return out


@lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only log k! for k = 0..n, built once per frame length."""
    # math.lgamma, not a running sum of logs: that sum drifts by ~1e-12 at n = 800
    out = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out.flags.writeable = False
    return out


def _diagonals(table: np.ndarray, rows: int, cols: int, step: int) -> np.ndarray:
    """A view of each row v of the C-contiguous table on a rows x cols window: out[k, i, j] = v[step (rows - 1 - i) + j].

    For v over r = n1 - n11 from its largest value down (step 1), or over
    2 n1 - n11 from its largest value down (step 2), out[k, i, j] is v at
    the window cell (lo1 + i, lo11 + j).
    """
    item = table.itemsize
    return as_strided(table[:, step * (rows - 1):], (table.shape[0], rows, cols),
                      (table.strides[0], -step * item, item))


def _window_laws(log_q: np.ndarray, n: int, b1s: tuple, lo1: int, hi1: int, lo11: int, hi11: int):
    """Yield (b1, p, log_count) on the window lo1 <= n1 <= hi1, lo11 <= n11 <= hi11, for each b1 in b1s.

    p[bn, i, j] is P(bn, n1 = lo1 + i, n11 = lo11 + j | b1) and
    log_count[bn, i, j] the log of that cell's number of arrangements.  A
    frame with n1 ones in r = n1 - n11 runs has r0 = r + 1 - b1 - bn runs
    of n0 = n - n1 zeros, so it is one of C(n1-1, r-1) C(n0-1, r0-1)
    arrangements, each of probability q00^c00 q01^c01 q10^c10 q11^c11 with
    the _pair_counts c00 = n - 1 + b1 + bn - (2 n1 - n11), c01 = r - b1,
    c10 = r - bn and c11 = n11.  Every term of the log is read from a 1-D
    array over n1, over n11, over r or over 2 n1 - n11 (the last two
    through _diagonals), and the terms are summed in the order
    log C(n1-1, r-1), + log C(n0-1, r0-1), then the pair terms in
    _pair_loglik's order.  log C(n1-1, r-1), which depends on neither
    bit, is built once, and the log count once for each value of b1 + bn.
    p is overwritten by the next first bit's table.

    With 0 < n1 < n, a frame is possible exactly when r >= max(1, b1 + bn)
    and c00 >= 0.  An impossible cell gets log count -inf from a log
    (r0 - 1)! of +inf at r < max(1, b1 + bn), and pair term -inf at a
    negative count.  That also holds every cell of the rows n1 = 0 and
    n1 = n apart from the two frames of one repeated bit, which have one
    arrangement each and get log count 0.
    """
    log_fact = _log_factorials(n)
    rows, cols = hi1 - lo1 + 1, hi11 - lo11 + 1
    n1 = np.arange(lo1, hi1 + 1)
    n11 = np.arange(lo11, hi11 + 1)
    r = np.arange(hi1 - lo11, lo1 - hi11 - 1, -1)  # n1 - n11 along the diagonals, largest first
    c00 = n - 1 + np.arange(3)[:, None] - np.arange(2 * hi1 - lo11, 2 * lo1 - hi11 - 1, -1)  # at b1 + bn = 0, 1, 2

    def lf(k):  # log k!, clipped into 0..n: an impossible cell reads a finite stand-in
        return log_fact[np.minimum(np.maximum(k, 0), n)]

    def pair_terms(count, lq):  # _pair_term, and -inf at a negative count
        with np.errstate(invalid="ignore"):
            out = _pair_term(count, lq)
        out[count < 0] = -np.inf
        return out

    lq00, lq01, lq10, lq11 = log_q.ravel()
    runs = r - np.arange(3)[:, None]  # r0 - 1 at b1 + bn = 0, 1, 2
    at_r = _diagonals(np.concatenate([
        lf(r - 1)[None],  # log (r-1)!
        np.where((runs >= 0) & (r >= 1), lf(runs), np.inf),  # log (r0-1)!, +inf where impossible
        pair_terms(runs[:2], lq01),  # c01 = r - b1
        pair_terms(runs[:2], lq10),  # c10 = r - bn
    ]), rows, cols, 1)
    at_s = _diagonals(np.concatenate([lf(c00), pair_terms(c00, lq00)]), rows, cols, 2)
    ones = lf(n1 - 1)[:, None] - at_r[0]  # log C(n1-1, r-1)
    ones -= log_fact[n11]
    log_count = np.empty((3, rows, cols))  # at b1 + bn = 0, 1, 2
    for sigma in range(min(b1s), max(b1s) + 2):
        np.subtract(lf(n - n1 - 1)[:, None], at_r[1 + sigma], out=log_count[sigma])
        log_count[sigma] -= at_s[sigma]  # log C(n0-1, r0-1)
        np.add(ones, log_count[sigma], out=log_count[sigma])
    del ones
    if lo1 == lo11 == 0:  # the frame of n zeros
        log_count[0, 0, 0] = 0.0
    if hi1 == n and hi11 == n - 1:  # the frame of n ones
        log_count[2, -1, -1] = 0.0
    t11 = pair_terms(n11, lq11)
    p = np.empty((2, rows, cols))
    for b1 in b1s:
        np.add(log_count[b1 : b1 + 2], at_s[3 + b1 : 5 + b1], out=p)
        p += at_r[4 + b1]
        p += at_r[6:8]
        p += t11
        np.exp(p, out=p)
        yield b1, p, log_count[b1 : b1 + 2]


def frame_stats_law(q: np.ndarray, n: int) -> tuple:
    """Exact laws of (bn, n1, n11) of n bits of the Markov chain q started at bit 0 and at bit 1.

    This is the runs theory of two-state Markov chains (Gabriel 1959; Fu
    and Koutras 1994).  Each table spans a window of (n1, n11) around the
    stationary means, 10 rough standard deviations wide; the window doubles
    until every cell on its edges, apart from the edges of the grid
    itself, is below 1e-16.  The two first bits share each window
    (_window_laws), apart from a chain that never flips, whose mean is its
    first bit.  Raises NumericsError when a window would exceed _MAX_CELLS
    cells, or when a table's cells of probability >= 1e-16 do not hold the
    mass up to rounding.
    """
    q = np.asarray(q, dtype=float)
    log_q = _log(q)
    # stationary means, and variances of the iid-pair approximation scaled
    # by (1 + l) / (1 - l), where l = 1 - flip is the second eigenvalue of q
    flip = q[0, 1] + q[1, 0]
    laws = [None, None]
    for b1s in ((0, 1),) if flip > 0 else ((0,), (1,)):
        pi1 = q[0, 1] / flip if flip > 0 else float(b1s[0])
        p11 = pi1 * q[1, 1]
        spread = (2.0 - flip) / max(flip, 1e-9)
        mean1, mean11 = n * pi1, n * p11
        w1 = 10.0 * math.sqrt(n * pi1 * (1.0 - pi1) * spread) + 10.0
        w11 = 10.0 * math.sqrt(n * p11 * (1.0 + 2.0 * q[1, 1] - 3.0 * p11) * spread) + 10.0
        while b1s:
            lo1, hi1 = max(0, math.floor(mean1 - w1)), min(n, math.ceil(mean1 + w1))
            lo11, hi11 = max(0, math.floor(mean11 - w11)), min(n - 1, math.ceil(mean11 + w11))
            size = 2 * (hi1 - lo1 + 1) * (hi11 - lo11 + 1)
            if size > _MAX_CELLS:
                raise NumericsError(f"frame statistics table of n = {n} needs a window of {size} cells")
            # the edges of the window that are not edges of the grid
            edges = [e for e, is_open in ((np.s_[:, 0], lo1 > 0), (np.s_[:, -1], hi1 < n),
                                          (np.s_[..., 0], lo11 > 0), (np.s_[..., -1], hi11 < n - 1)) if is_open]
            for b1, p, log_count in _window_laws(log_q, n, b1s, lo1, hi1, lo11, hi11):
                keep = p >= _DROP
                if not any(keep[e].any() for e in edges):
                    laws[b1] = _kept_law(keep, p, log_count, n, lo1, lo11)
            b1s = tuple(b1 for b1 in b1s if laws[b1] is None)
            w1, w11 = 2.0 * w1, 2.0 * w11
    return tuple(laws)


def _kept_law(keep: np.ndarray, p: np.ndarray, log_count: np.ndarray, n: int, lo1: int, lo11: int) -> FrameStatsLaw:
    """The FrameStatsLaw of the cells keep of one _window_laws table."""
    kept = np.flatnonzero(keep)  # C order: the cells are bn-major (FrameStatsLaw.last_bit)
    rows, cols = keep.shape[1:]
    # floor division by a scalar, several times faster than np.divmod
    line = kept // cols  # bn rows + (n1 - lo1)
    cells = np.empty((3, kept.size), dtype=kept.dtype)
    np.floor_divide(line, rows, out=cells[0])
    np.subtract(line, cells[0] * rows, out=cells[1])
    cells[1] += lo1
    np.subtract(kept, line * cols, out=cells[2])
    cells[2] += lo11
    law = FrameStatsLaw(cells=cells, prob=p.take(kept), log_count=log_count.take(kept))
    if not abs(law.mass - 1.0) <= _MASS_TOL:
        raise NumericsError(f"frame statistics table of n = {n} holds mass {law.mass!r}, not 1")
    return law


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

    @cached_property
    def level_exit(self) -> np.ndarray:
        """P(exit level | entry level, symbol), shape (level, symbol, level'), read-only.

        The first-bit law times n_cycles - 1 steps of the bit chain gives
        the last bit, and the reset law the exit level: one matrix power
        per symbol, built on first use.
        """
        out = np.empty((2, 2, 2))
        for s in (0, 1):
            k = self.kernel(s)
            steps = np.linalg.matrix_power(k.bit_chain, self.n_cycles - 1)
            for lv in (GROUND, EXCITED):
                out[lv, s] = k.bit_given_entry[lv] @ steps @ k.exit_given_bit
        out.flags.writeable = False
        return out

    @property
    def frame_stats(self) -> tuple:
        """Exact law of the frame statistics, frame_stats[symbol][b1]; built on first use."""
        return tuple(self.kernel(s).frame_stats(self.n_cycles) for s in (0, 1))

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
        out = np.empty((4, b1.size))  # returned transposed: each state's column is contiguous
        counts = _pair_counts(b1, bn, n1, n11, self.n_cycles)
        first_one = (b1 == 1).view(np.int8)
        for sym in (0, 1):
            pair_part = _pair_loglik(0.0, _log(self.kernel(sym).bit_chain), counts)
            for level in (GROUND, EXCITED):
                log_first = _log(self.first_bit_prob(level, sym)).take(first_one)
                np.add(pair_part, log_first, out=out[2 * level + sym])
        np.copyto(out, -np.inf, where=~(out < np.inf))  # nan and +inf read as impossible
        return out.T


@dataclass
class LinkRun:
    """One simulated link run: symbols, frame statistics, optional raw frames."""

    symbols: np.ndarray
    b1: np.ndarray
    bn: np.ndarray
    n1: np.ndarray
    n11: np.ndarray
    frames: Optional[np.ndarray] = None


def simulate_link(
    spec: HmmSpec,
    n_symbols: int,
    rng: np.random.Generator,
    mode: str,
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
    law (HmmSpec.frame_stats), with one uniform for each possible first
    bit.  The last bit of both variants follows from a comparison
    (FrameStatsLaw.last_bit); a scan over the symbols resolves entry
    levels and first bits, and only the realized variant is then read
    through its inverse CDF (FrameStatsLaw.index).  With store_frames,
    each realized frame is then drawn uniformly among the frames with its
    statistics.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if mode not in ("hmm", "physical"):
        raise ValueError(f"unknown mode {mode!r}")
    m = int(n_symbols)
    symbols = (rng.random(m) < 0.5).astype(np.int8)
    one = symbols.view(bool)
    u_stats = rng.random((2, m))  # one uniform per (first bit, symbol slot)

    # boundary pass: given the uniforms, each symbol maps its entry level to
    # the next symbol's, and the entry levels follow from composing those maps
    u_entry = rng.random(m)
    u_first = rng.random(m)
    p_first = [[spec.first_bit_prob(lv, s)[1] for s in (0, 1)] for lv in (GROUND, EXCITED)]
    b1_given = [_below(u_first, p_first[lv], one) for lv in (GROUND, EXCITED)]
    laws = spec.frame_stats  # laws[symbol][b1]
    if mode == "physical":
        bn = [_select(one, laws[1][b1].last_bit(u), laws[0][b1].last_bit(u)) for b1, u in enumerate(u_stats)]
        exit_bit = spec.kernel0.exit_given_bit[:, EXCITED]
        step = [_below(u_entry, exit_bit, _select(b1, bn[1], bn[0])) for b1 in b1_given]
    else:
        exit_marg = spec.level_exit[:, :, EXCITED]
        step = [_below(u_entry, exit_marg[lv], one) for lv in (GROUND, EXCITED)]
    entry, _ = _iterate_maps(step[0], step[1], GROUND)
    b1_sel = _select(entry, b1_given[1], b1_given[0])

    # the realized variant of each symbol, read through its own inverse CDF
    variant = 2 * symbols + b1_sel
    bn_sel, n1, n11 = np.empty(m, dtype=np.int8), np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    for s in (0, 1):
        for b1 in (0, 1):
            slots = np.flatnonzero(variant == 2 * s + b1)
            for out, drawn in zip((bn_sel, n1, n11), laws[s][b1].draw(u_stats[b1][slots])):
                out[slots] = drawn
    run = LinkRun(symbols=symbols, b1=b1_sel, bn=bn_sel, n1=n1, n11=n11)
    if store_frames:
        run.frames = _compose_frames(run.b1, run.bn, run.n1, run.n11, spec.n_cycles, rng)
    return run


def _select(cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(cond, a, b) for 0/1 arrays (bool or int8), in bitwise operations.

    np.where branches on each element, which costs many times more than
    these three passes when cond is random.
    """
    return b ^ (cond & (a ^ b))


def _below(u: np.ndarray, thresholds, key: np.ndarray) -> np.ndarray:
    """u < thresholds[key] at 0/1 keys, as bool: one comparison per threshold instead of a gather."""
    return _select(key, u < thresholds[1], u < thresholds[0])


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


# _COMPOSE[a + 4 b] codes "map a, then map b" for maps f on {0, 1} coded as f(0) + 2 f(1)
_COMPOSE = np.array([(b >> (a & 1) & 1) + 2 * (b >> (a >> 1) & 1) for b in range(4) for a in range(4)], dtype=np.int8)


def _iterate_maps(f0: np.ndarray, f1: np.ndarray, x0: int):
    """Run x_{j+1} = f_j(x_j) for maps f_j on {0, 1} given as f_j(0) = f0[j], f_j(1) = f1[j].

    f0 and f1 are 0/1 arrays, bool or int8.  Returns x_0 ... x_{L-1} as
    int8 and x_L, chunk by chunk.
    """
    codes = f0.view(np.int8) + 2 * f1.view(np.int8)
    before = np.empty(len(codes), dtype=np.int8)
    for sl in _chunks(len(codes)):
        before[sl], x0 = _iterate_codes(codes[sl], x0)
    return before, x0


def _iterate_codes(codes: np.ndarray, x0: int):
    """_iterate_maps on a chunk of maps coded f(0) + 2 f(1), by the pairwise recursion of _scan_chunk."""
    size = len(codes)
    if size <= 16:
        before = []
        for code in codes.tolist():
            before.append(x0)
            x0 = code >> x0 & 1
        return np.array(before, dtype=np.int8), x0
    half = size // 2
    even, odd = codes[0 : 2 * half : 2], codes[1::2]
    # the pair map: the even map first, then the odd one; an odd tail passes through
    pairs = _COMPOSE.take(even + 4 * odd)
    if size % 2:
        pairs = np.append(pairs, codes[-1])
    into, x = _iterate_codes(pairs, x0)
    before = np.empty(size, dtype=np.int8)
    before[0::2] = into
    before[1::2] = even >> into[:half] & 1
    return before, x


def _unit_sum(x: np.ndarray) -> np.ndarray:
    """x over its sum along every axis but the last (the symbol axis)."""
    return x / x.sum(axis=tuple(range(x.ndim - 1)))


def _scan_chunk(steps: np.ndarray, carry: np.ndarray, plus, times, rescale=None):
    """carry times the exclusive prefix products of one chunk of 2x2 steps.

    steps[l, l', t] holds step t; the products are over the semiring
    (plus, times): (add, multiply) for the forward sums, (maximum, add)
    for Viterbi.  A pairwise recursion combines adjacent steps into
    P_j = S_2j S_2j+1, rescaled if rescale is given (max-plus scores add,
    so they need none for range), scans the half-length chain for the
    vector before each pair, and takes each odd position one vector step
    on from its even neighbour: about L matrix combines and L/2 vector
    steps in all.  Returns the row vectors before each step, shape (2, L),
    each correct up to a scale, and the vector after the last one.
    """

    def advance(v, s):  # row vectors v (2, n) through steps s (2, 2, n)
        return plus(times(v[0], s[0]), times(v[1], s[1]))

    keep = rescale or (lambda x: x)
    size = steps.shape[-1]
    if size == 1:
        return carry[:, None].copy(), keep(advance(carry[:, None], steps))[:, 0]
    half = size // 2
    even, odd = steps[..., 0 : 2 * half : 2], steps[..., 1::2]
    pairs = keep(plus(times(even[:, 0, None], odd[0]), times(even[:, 1, None], odd[1])))
    if size % 2:  # an odd tail passes through
        pairs = np.concatenate([pairs, steps[..., -1:]], axis=-1)
    into, after = _scan_chunk(pairs, carry, plus, times, rescale)
    before = np.empty((2, size))
    before[:, 0::2] = into
    before[:, 1::2] = advance(into[:, :half], even)
    return before, after


def _checked_emissions(emis) -> np.ndarray:
    """The emission table of a recursion: log P(o_t | state), shape (m, 4) with m >= 1.

    HmmSpec.emission_loglik_stats builds it from a run's frame statistics,
    detection.block_emission_logprob from raw frames.
    """
    emis = np.asarray(emis, dtype=float)
    if emis.ndim != 2 or emis.shape[1] != 4:
        raise ValueError(f"emissions must have shape (m, 4), got {emis.shape}")
    if emis.shape[0] == 0:
        raise ValueError("observations must be nonempty")
    # Viterbi's strict > keeps its tie rule only without nan, which +inf makes in a rescale or carry shift
    if not np.all(emis < np.inf):
        raise ValueError("emissions must be log-probabilities, finite or -inf, not nan or +inf")
    return emis


def viterbi_decode(spec: HmmSpec, emis: np.ndarray) -> np.ndarray:
    """Maximum a posteriori state path of the emission table emis; returns the decoded symbol bits.

    Log domain; zero-probability branches carry -inf.  The best scores
    into each level come from a max-plus scan over N_t = max(a_0, a_1),
    a_s[l, l'] = e_t[l, s] + log T[(l, s), l'].  The back pointers come off
    the same arrays, the symbol a_1 > a_0 and the level into[1] + N[1, l']
    > into[0] + N[0, l'], strict, so a tie goes to the smaller state index.
    The backtrack composes the level maps, then reads each symbol off its
    level.
    """
    emis = _checked_emissions(emis)
    m = emis.shape[0]
    log_t = _log(0.5 * spec.level_exit)  # log T[(l, s), (l', .)], shape (level, symbol, level')
    # the state (l, s) at t on the best path into level l' at t + 1, as its
    # level back_level[l', t] and its symbol back_symbol[l', t]
    back_level = np.empty((2, m), dtype=bool)
    back_symbol = np.empty((2, m), dtype=bool)
    best = np.array([math.log(0.5), -math.inf])  # best score into each level at t = 0
    for sl in _chunks(m):
        e = emis[sl].T.reshape(2, 2, -1)  # (level, symbol, t)
        a0, a1 = (e[:, s, None] + log_t[:, s, :, None] for s in (0, 1))  # each (level, level', t)
        steps = np.maximum(a0, a1)
        into, best = _scan_chunk(steps, best, np.maximum, np.add)
        best -= best.max() if best.max() > -math.inf else 0.0  # the next chunk starts from a best score of 0
        steps += into[:, None]
        up = np.greater(steps[1], steps[0], out=back_level[:, sl])
        hi = a1 > a0
        hi[0] &= into[0] > -np.inf  # at into[0] = -inf, level 0 wins only when all four tie at -inf
        back_symbol[:, sl] = _select(up, hi[1], hi[0])
    state = int(np.argmax(into[:, -1, None] + e[:, :, -1]))
    path = np.empty(m, dtype=np.int8)
    path[-1] = state % 2
    # the maps level at t + 1 -> level at t, latest t first, give the level after each t < m - 1
    after, _ = _iterate_maps(back_level[0, -2::-1], back_level[1, -2::-1], state // 2)
    path[-2::-1] = _select(after, back_symbol[1, -2::-1], back_symbol[0, -2::-1])
    return path


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


def forward_loglik(spec: HmmSpec, emis: np.ndarray) -> np.ndarray:
    """Per-symbol incremental log2-likelihoods log2 P(o_t | o_<t) of the emission table emis."""
    emis = _checked_emissions(emis)

    def weights(sl):
        e = emis[sl].T
        shift = e.max(axis=0)
        return 0.5 * np.exp(e - shift).reshape(2, 2, -1), shift

    return _level_forward(spec, emis.shape[0], weights)


def conditional_forward_loglik(spec: HmmSpec, emis: np.ndarray, symbols) -> np.ndarray:
    """Per-symbol log2 P(o_t | o_<t, S) of the emission table emis with the symbol sequence known.

    The level remains hidden: a two-state forward over entry levels,
    with the factorized per-block law P(o | level, s) * P(level' | level, s).
    """
    emis = _checked_emissions(emis)
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


_BOOTSTRAP_BLOCKS = 100  # the most blocks of the bootstrap in mutual_information


def mutual_information(
    spec: HmmSpec,
    run: LinkRun,
    burn_in: int = 100,
    *,
    rng: np.random.Generator,
) -> Estimate:
    """Per-symbol mutual information between symbols and frames, in bits.

    I = H(O) - H(O | S), both estimated from ergodic averages of forward
    incremental likelihoods; the difference is averaged per symbol and a
    block bootstrap over contiguous blocks supplies the standard error.
    The estimate is clamped to [0, 1].
    """
    emis = spec.emission_loglik_stats(run.b1, run.bn, run.n1, run.n11)
    inc_o = forward_loglik(spec, emis)
    inc_os = conditional_forward_loglik(spec, emis, run.symbols)
    d = (inc_os - inc_o)[burn_in:]
    if d.size < 10:
        raise ValueError("run too short after burn-in")
    value = float(np.clip(d.mean(), 0.0, 1.0))
    n_blocks = min(_BOOTSTRAP_BLOCKS, max(2, d.size // 50))
    block_len = d.size // n_blocks
    block_means = np.array([d[i * block_len : (i + 1) * block_len].mean() for i in range(n_blocks)])
    reps = rng.choice(block_means, size=(200, n_blocks), replace=True).mean(axis=1)
    return Estimate(value, float(reps.std(ddof=1)))


def _joint_cells(spec: HmmSpec):
    """The law P(s, y, l, l') of a symbol s, its frame statistics y = (b1, bn, n1, n11),
    its entry level l at the stationary law and the next one l', cell by cell.

    For each b1 and s, yields s and, in fresh (5, cells) arrays, P(s, y, .)
    and P(1 - s, y, .) on the cells of s's own HmmSpec.frame_stats table:
    row 0 marginalizes l and l', rows 1-4 hold (l, l') = (0, 0), (0, 1),
    (1, 0), (1, 1).  The own law is the table's prob, the other symbol's
    the table's log arrangement count plus that symbol's pair terms; a
    cell missing from a table carries less than 1e-16 under its symbol.
    """
    exit_ = spec.level_exit  # (level, symbol, level')
    # stationary law of P(l' | l) = sum_s P(l' | l, s) / 2; a chain that never
    # changes level keeps the ground start
    up, down = 0.5 * exit_[GROUND, :, EXCITED].sum(), 0.5 * exit_[EXCITED, :, GROUND].sum()
    pi = np.array([down, up]) / (up + down) if up + down > 0 else np.array([1.0, 0.0])
    log_q = [_log(spec.kernel(s).bit_chain) for s in (0, 1)]
    for b1 in (0, 1):
        # c[l, s, l'] = P(s, b1, l, l'), so P(s, y, l, l') = c[l, s, l'] P(bn, n1, n11 | b1, s)
        first = np.array([[spec.first_bit_prob(lv, s)[b1] for s in (0, 1)] for lv in (GROUND, EXCITED)])
        c = 0.5 * (pi[:, None] * first)[:, :, None] * exit_
        weight = np.concatenate([c.sum(axis=(0, 2))[None], c.transpose(0, 2, 1).reshape(4, 2)])
        for s in (0, 1):
            table = spec.frame_stats[s][b1]
            other = np.exp(_pair_loglik(table.log_count, log_q[1 - s], _pair_counts(b1, *table.cells, spec.n_cycles)))
            yield s, weight[:, s, None] * table.prob, weight[:, 1 - s, None] * other


def rate_bracket(spec: HmmSpec) -> tuple:
    """Exact (lower, upper) bounds on the information rate of the hmm and the physical chain, bits per symbol.

    The lower bound is I(S; Y), and the upper bound 1 - H(S | Y, L, L'): a
    genie that reveals every entry level splits the chain into independent
    symbols.  Both are sums of w_s log2(2 w_s / (w_0 + w_1)), w_s = P(s, y, ...),
    over the cells of _joint_cells, clipped to [0, 1]; the upper bound is held
    at or above the lower one, which rounding can pass by 1e-14 near 1 bit.
    """
    bits = np.zeros(5)  # the lower bound, then the upper bound's term at each (l, l')
    for s, own, x in _joint_cells(spec):
        # own * log2(2 own / (w_0 + w_1)) where own > 0, else 0, built in x
        w = (own, x) if s == 0 else (x, own)  # (w_0, w_1)
        np.add(*w, out=x)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(2.0 * own, x, out=x)
            np.log2(x, out=x)
            np.multiply(own, x, out=x)
        np.copyto(x, 0.0, where=~(own > 0))
        bits += x.sum(axis=1)
    lower = min(max(float(bits[0]), 0.0), 1.0)
    return lower, min(max(float(bits[1:].sum()), lower), 1.0)


def wilson_stderr(successes: int, n: int) -> float:
    """Half-width of the Wilson score interval at one standard normal unit."""
    if n == 0:
        raise ValueError("n must be > 0")
    p = successes / n
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)


@dataclass(frozen=True)
class LinkConfig:
    """Physical configuration shared by the BER and rate sweeps."""

    dev: DeviceParams
    timing: CycleTiming
    env: Environment
    saturation: bool = False

    @property
    def n_e(self) -> float:
        return thermal_photon_rate(self.env)

    @cached_property
    def saturation_operator(self) -> Optional[SurvivorOperator]:
        """The ground-entry dead-time operator when saturation is on: every kernel of a sweep evaluates it."""
        return SurvivorOperator.build(self.timing, self.dev) if self.saturation else None

    def _kernel(self, lambda_signal: float) -> CycleKernel:
        return build_cycle_kernel(
            self.dev, self.timing, lambda_signal, self.n_e, saturation=self.saturation_operator
        )

    @cached_property
    def _noise_kernel(self) -> CycleKernel:
        """The symbol-0 kernel: it carries no signal, so every point of a sweep shares it and its tables."""
        return self._kernel(0.0)

    def noise_tables(self) -> tuple:
        """The frame-statistics tables of the noise kernel, built on first use like every spec's.

        Building the noise kernel also builds the saturation operator.  After
        the call the points of a sweep, on any number of threads, build neither.
        """
        return self._noise_kernel.frame_stats(self.env.cycles_per_symbol)

    def build_spec(self, power_dbm: float) -> HmmSpec:
        """Kernels and HMM for one received-power point."""
        kernel1 = self._kernel(power_to_rate(power_dbm, self.env.nu))
        return HmmSpec(kernel0=self._noise_kernel, kernel1=kernel1, n_cycles=self.env.cycles_per_symbol)


def _link_row(cfg: LinkConfig, power_dbm: float, metric: dict) -> dict:
    """One link sweep row: the metric's columns between the power's and the device's, which every link sweep shares."""
    return {
        "power_dbm": float(power_dbm),
        "lambda_t_c": power_to_rate(power_dbm, cfg.env.nu) * cfg.timing.t_c,
        "n_e": cfg.n_e,
        **metric,
        "kappa": cfg.dev.kappa,
        "gamma": cfg.dev.gamma,
        "n_cycles": cfg.env.cycles_per_symbol,
    }


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
    decoded = viterbi_decode(spec, spec.emission_loglik_stats(run.b1, run.bn, run.n1, run.n11))
    errors = int(np.sum(decoded != run.symbols))
    metric = {"ber": errors / n_symbols, "stderr": wilson_stderr(errors, n_symbols), "n_symbols": n_symbols}
    return _link_row(cfg, power_dbm, metric) | {"seed": seed}


def rate_point(cfg: LinkConfig, power_dbm: float) -> dict:
    """One exact achievable-rate sweep row from rate_bracket: the information rate lies in [rate, rate + stderr]."""
    lower, upper = rate_bracket(cfg.build_spec(power_dbm))
    return _link_row(cfg, power_dbm, {"rate": lower, "stderr": upper - lower})
