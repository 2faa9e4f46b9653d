"""OOK link layer: per-cycle kernels, the 4-state hidden Markov model,
Viterbi decoding, BER and achievable-rate estimation.

Hidden state is (entry level, symbol); a symbol spans n detection
cycles and emits the n readout bits of the frame.  Because the reset
stage conditions only on the readout bit, the per-cycle kernel
factorizes as P(bit | entry level) * P(exit level | bit); the bit
sequence inside a frame is then itself a two-state Markov chain and
block emissions depend on the frame only through (first bit, last bit,
ones count, adjacent-ones count).  The general transfer-matrix product
is kept alongside as a cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detection import excitation_ctmc
from .physics import CycleTiming, DeviceParams, Environment, power_to_rate, thermal_photon_rate
from .report import Estimate, SweepReport
from .rng import substream
from .saturation import SaturationWindow, saturated_excitation

__all__ = [
    "CycleKernel",
    "HmmSpec",
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
    p_exc_ground: Estimate
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
    sat_replicas: int = 200_000,
    seed: int = 0,
    key: Sequence[int] = (),
) -> CycleKernel:
    """Per-cycle kernel at signal rate lambda_signal plus thermal load n_e.

    The total arrival rate is lambda_signal + n_e / t_c.  A ground entry
    is excited with the exact Poisson-arrival excitation probability, or
    its dead-time filtered Monte Carlo estimate when window is given (seed
    and key then pick the substream); an excited entry stays excited
    through capture and observation only by surviving decay.  Readout
    flips an excited observation to 0 with probability 1 - exp(-gamma
    t_w); reset leaves the system excited with p_reset_e after a 1 bit
    and p_reset_g after a 0 bit.
    """
    if lambda_signal < 0 or n_e < 0:
        raise ValueError("rates must be >= 0")
    rate = lambda_signal + n_e / timing.t_c
    if window is not None:
        p_exc_g = saturated_excitation(
            rate, timing, dev, enter_excited=False, replicas=sat_replicas,
            rng=substream(seed, *key, 0x5E), window=window,
        )
    else:
        p_exc_g = Estimate(excitation_ctmc(rate, timing, dev))
    p_exc_e = math.exp(-dev.gamma * (timing.t_c + timing.delta_o))
    p_w = math.exp(-dev.gamma * timing.t_w)

    bit = np.empty((2, 2))
    for entry, p_exc in ((GROUND, p_exc_g.value), (EXCITED, p_exc_e)):
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
    def transition(self) -> np.ndarray:
        """4x4 state transition matrix P((i', s') | (i, s))."""
        t = np.zeros((4, 4))
        for level in (GROUND, EXCITED):
            for sym in (0, 1):
                exit_dist = self.exit_distribution(level, sym)
                for nlevel in (GROUND, EXCITED):
                    for nsym in (0, 1):
                        t[2 * level + sym, 2 * nlevel + nsym] = exit_dist[nlevel] * 0.5
        return t

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
        b1 = frames[:, 0]
        bn = frames[:, -1]
        n1 = frames.sum(axis=1)
        n11 = (frames[:, :-1] & frames[:, 1:]).sum(axis=1) if self.n_cycles > 1 else np.zeros(len(frames), dtype=np.int64)
        return self.emission_loglik_stats(b1, bn, n1, n11)

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

    The frame interior is sampled once per symbol as a coupled pair of
    bit chains (one per possible first bit, shared uniforms); the cheap
    sequential pass afterwards resolves entry levels and picks the
    realized variant.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if mode not in ("hmm", "physical"):
        raise ValueError(f"unknown mode {mode!r}")
    m = int(n_symbols)
    n = spec.n_cycles
    symbols = (rng.random(m) < 0.5).astype(np.int8)

    q = np.stack([spec.kernel0.bit_chain, spec.kernel1.bit_chain])  # (sym, b, b')
    sym_idx = symbols.astype(np.int64)
    # per-symbol P(next = 1 | current = 0) and increment toward current = 1
    q10 = q[sym_idx, 0, 1].astype(np.float32)
    dq = (q[sym_idx, 1, 1] - q[sym_idx, 0, 1]).astype(np.float32)

    # coupled chains for the two possible first bits, driven by shared uniforms
    bits = [np.zeros(m, dtype=np.int8), np.ones(m, dtype=np.int8)]
    n1 = [bits[0].astype(np.int32), bits[1].astype(np.int32)]
    n11 = [np.zeros(m, dtype=np.int32), np.zeros(m, dtype=np.int32)]
    frames = None
    if store_frames:
        frames = np.empty((2, m, n), dtype=np.int8)
        frames[0, :, 0] = 0
        frames[1, :, 0] = 1
    for j in range(1, n):
        u = rng.random(m, dtype=np.float32)
        for v in (0, 1):
            prev = bits[v]
            nxt = (u < q10 + dq * prev).astype(np.int8)
            n11[v] += prev & nxt
            n1[v] += nxt
            bits[v] = nxt
            if store_frames:
                frames[v, :, j] = nxt
    bn = bits  # after the loop, bits holds the last bit of each variant

    # boundary resolution: entry levels and realized first bits
    u_entry = rng.random(m).tolist()
    u_first = rng.random(m).tolist()
    p_first = [
        [float(spec.first_bit_prob(lv, s)[1]) for s in (0, 1)] for lv in (GROUND, EXCITED)
    ]
    exit_bit = [float(spec.kernel0.exit_given_bit[b, EXCITED]) for b in (0, 1)]
    exit_marg = [
        [float(spec.exit_distribution(lv, s)[EXCITED]) for s in (0, 1)] for lv in (GROUND, EXCITED)
    ]
    sym_l = sym_idx.tolist()
    bn_l = (bn[0].tolist(), bn[1].tolist())
    b1_sel = np.empty(m, dtype=np.int8)
    physical = mode == "physical"
    level = GROUND
    for i in range(m):
        s = sym_l[i]
        b1 = 1 if u_first[i] < p_first[level][s] else 0
        b1_sel[i] = b1
        if physical:
            level = 1 if u_entry[i] < exit_bit[bn_l[b1][i]] else 0
        else:
            level = 1 if u_entry[i] < exit_marg[level][s] else 0

    pick = b1_sel.astype(np.int64)
    cols = np.arange(m)
    bn_arr = np.stack(bn)
    run = LinkRun(
        symbols=symbols,
        b1=b1_sel,
        bn=bn_arr[pick, cols],
        n1=np.stack(n1)[pick, cols].astype(np.int64),
        n11=np.stack(n11)[pick, cols].astype(np.int64),
        mode=mode,
        seed_key=(),
        frames=frames[pick, cols] if store_frames else None,
    )
    return run


def viterbi_decode(spec: HmmSpec, run_or_frames) -> np.ndarray:
    """Maximum a posteriori state path; returns the decoded symbol bits.

    Log domain; zero-probability branches carry -inf.  Ties break toward
    the smaller state index.
    """
    emis = _emissions_for(spec, run_or_frames)
    m = emis.shape[0]
    log_a = _log(spec.transition).tolist()
    log_pi = _log(spec.initial).tolist()
    row0 = emis[0].tolist()
    delta = [log_pi[k] + row0[k] for k in range(4)]
    # four 2-bit backpointers per step, packed into one byte
    back = bytearray(m)
    chunk = 65536
    for start in range(1, m, chunk):
        block = emis[start : start + chunk].tolist()
        for off, row in enumerate(block):
            packed = 0
            new = [0.0, 0.0, 0.0, 0.0]
            for to in range(4):
                best_k = 0
                best_v = delta[0] + log_a[0][to]
                for k in (1, 2, 3):
                    v = delta[k] + log_a[k][to]
                    if v > best_v:
                        best_v = v
                        best_k = k
                new[to] = best_v + row[to]
                packed |= best_k << (2 * to)
            delta = new
            back[start + off] = packed
    state = max(range(4), key=lambda k: (delta[k], -k))
    path = np.empty(m, dtype=np.int64)
    path[-1] = state
    for t in range(m - 1, 0, -1):
        state = (back[t] >> (2 * state)) & 3
        path[t - 1] = state
    return (path % 2).astype(np.int8)


def _emissions_for(spec: HmmSpec, run_or_frames) -> np.ndarray:
    if isinstance(run_or_frames, LinkRun):
        r = run_or_frames
        return spec.emission_loglik_stats(r.b1, r.bn, r.n1, r.n11)
    frames = np.asarray(run_or_frames)
    if frames.size == 0:
        raise ValueError("observations must be nonempty")
    return spec.block_emission_logprob(frames)


def forward_loglik(spec: HmmSpec, run_or_frames) -> np.ndarray:
    """Per-symbol incremental log2-likelihoods log2 P(o_t | o_<t)."""
    emis = _emissions_for(spec, run_or_frames)
    m = emis.shape[0]
    a = spec.transition
    alpha = spec.initial.copy()
    out = np.empty(m)
    for t in range(m):
        alpha = alpha * np.exp(emis[t] - emis[t].max())
        norm = alpha.sum()
        out[t] = math.log2(norm) + emis[t].max() / math.log(2.0)
        alpha /= norm
        if t + 1 < m:
            alpha = alpha @ a
    return out


def conditional_forward_loglik(spec: HmmSpec, run_or_frames, symbols) -> np.ndarray:
    """Per-symbol log2 P(o_t | o_<t, S) with the symbol sequence known.

    The level remains hidden: a two-state forward over entry levels,
    with the factorized per-block law P(o | level, s) * P(level' | level, s).
    """
    emis = _emissions_for(spec, run_or_frames)
    symbols = np.asarray(symbols, dtype=np.int64)
    m = emis.shape[0]
    if symbols.shape != (m,):
        raise ValueError("symbols length must match observations")
    exit_mat = np.stack(
        [
            [[spec.exit_distribution(lv, s)[x] for x in (GROUND, EXCITED)] for lv in (GROUND, EXCITED)]
            for s in (0, 1)
        ]
    )  # (sym, level, level')
    alpha = np.array([1.0, 0.0])
    out = np.empty(m)
    for t in range(m):
        s = symbols[t]
        e = emis[t, [2 * GROUND + s, 2 * EXCITED + s]]
        w = alpha * np.exp(e - e.max())
        norm = w.sum()
        out[t] = math.log2(norm) + e.max() / math.log(2.0)
        w /= norm
        alpha = w @ exit_mat[s]
    return out


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
    inc_o = forward_loglik(spec, run)
    inc_os = conditional_forward_loglik(spec, run, run.symbols)
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
    sat_replicas: int = 200_000
    burn_in: int = 100

    @property
    def n_e(self) -> float:
        return thermal_photon_rate(self.env)

    def build_spec(self, power_dbm: float, seed: int = 0, key: Sequence[int] = ()) -> HmmSpec:
        """Kernels and HMM for one received-power point."""
        lam1 = power_to_rate(power_dbm, self.env.nu)
        window = SaturationWindow.from_device(self.dev) if self.saturation else None
        kernel0 = build_cycle_kernel(
            self.dev, self.timing, 0.0, self.n_e, window=window,
            sat_replicas=self.sat_replicas, seed=seed, key=(*key, 0),
        )
        kernel1 = build_cycle_kernel(
            self.dev, self.timing, lam1, self.n_e, window=window,
            sat_replicas=self.sat_replicas, seed=seed, key=(*key, 1),
        )
        return build_hmm(kernel0, kernel1, self.env.cycles_per_symbol)


def build_hmm(kernel0: CycleKernel, kernel1: CycleKernel, n: int) -> HmmSpec:
    """Assemble the 4-state HMM from the two per-symbol cycle kernels."""
    if not np.allclose(kernel0.exit_given_bit, kernel1.exit_given_bit):
        raise ValueError("kernels must share the device reset law")
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
    spec = cfg.build_spec(power_dbm, seed=seed, key=(0xBE, idx))
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
    spec = cfg.build_spec(power_dbm, seed=seed, key=(0xEA, idx))
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
