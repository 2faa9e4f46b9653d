import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from photonlink import detection, link
from photonlink.detection import frame_statistics, mc_detector
from photonlink.errors import NumericsError
from photonlink.link import (
    CycleKernel,
    HmmSpec,
    LinkConfig,
    ber_point,
    build_cycle_kernel,
    conditional_forward_loglik,
    forward_loglik,
    mutual_information,
    rate_bracket,
    rate_point,
    simulate_link,
    viterbi_decode,
    wilson_stderr,
)
from photonlink.physics import CycleTiming, DeviceParams, Environment
from photonlink.rng import substream

TIMING = CycleTiming(230e-9, 35e-9, 48e-9)


def joint_table(k):
    """P(bit, exit | entry) of a cycle kernel, shape (entry, bit, exit)."""
    return np.einsum("eb,bx->ebx", k.bit_given_entry, k.exit_given_bit)


def deterministic_kernels():
    """Symbol 1 always reads 1, symbol 0 always reads 0; exits follow the bit."""
    exit_given_bit = np.array([[1.0, 0.0], [1.0, 0.0]])
    k0 = CycleKernel(
        bit_given_entry=np.array([[1.0, 0.0], [1.0, 0.0]]),
        exit_given_bit=exit_given_bit,
        rate=0.0,
    )
    k1 = CycleKernel(
        bit_given_entry=np.array([[0.0, 1.0], [0.0, 1.0]]),
        exit_given_bit=exit_given_bit,
        rate=1.0,
    )
    return k0, k1


def ref_link_cfg(n=800):
    dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5)
    env = Environment(t_e=8.0, nu=1e10, cycles_per_symbol=n)
    return LinkConfig(dev=dev, timing=TIMING, env=env)


def zero_entry_cfg(n=800):
    """ref_link_cfg with no thermal load and no reset error from ground: the
    noise kernel's bit chain never leaves 0, so its log q01 is -inf."""
    cfg = ref_link_cfg(n)
    return dataclasses.replace(cfg, env=dataclasses.replace(cfg.env, t_e=0.0),
                               dev=dataclasses.replace(cfg.dev, p_reset_g=0.0))


def emissions(spec, run):
    """The emission table of a simulated run."""
    return spec.emission_loglik_stats(run.b1, run.bn, run.n1, run.n11)


# -- sequential references: the per-symbol loops the scans replace -------------

def draw_frame_stats(spec, symbols, rng):
    """bn, n1 and n11 of both first-bit variants of every frame, shape (3, 2, m).

    One uniform per variant and symbol slot, read through the inverse CDF
    of frame_stats[symbol][variant] by a plain search, not the table's
    guided one: the same uniforms simulate_link draws, each variant read
    in full.
    """
    u = rng.random((2, symbols.size))
    out = np.empty((3, 2, symbols.size), dtype=np.int64)
    for s in (0, 1):
        slots = np.flatnonzero(symbols == s)
        for b1 in (0, 1):
            law = spec.frame_stats[s][b1]
            out[:, b1, slots] = law.cells[:, np.searchsorted(law.cdf, u[b1, slots], side="right")]
    return out


def _log_arrangements(log_fact, b1, n, bn, n1, n11) -> tuple:
    """(possible, log count) of frames with statistics (b1, bn, n1, n11), at broadcastable cell arrays.

    A frame with n1 ones in r = n1 - n11 runs has r0 = r + 1 - b1 - bn
    runs of n0 = n - n1 zeros.  It is one of C(n1-1, r-1) C(n0-1, r0-1)
    arrangements; possible is False where no frame has the statistics.
    """
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

    return possible, log_compositions(n1, r) + log_compositions(n0, r0)


def _frame_stats_logp(log_q, log_fact, b1, n, bn, n1, n11) -> tuple:
    """(log P(bn, n1, n11 | b1), log count) at broadcastable cell arrays bn, n1 and n11.

    The bitwise reference of link._window_laws: every cell evaluated
    elementwise from its own statistics.
    """
    possible, log_count = _log_arrangements(log_fact, b1, n, bn, n1, n11)
    logp = np.where(possible, link._pair_loglik(log_count, log_q, link._pair_counts(b1, bn, n1, n11, n)), -np.inf)
    return logp, log_count


def reference_frame_stats_law(q, b1, n):
    """link.frame_stats_law's table of first bit b1, one first bit and one full-window mask at a time.

    The bitwise reference of the shared-window builder: its own window
    doubling, rim mask and kept-cell search.  Returns a namespace with
    cells, cdf, log_count, prob and mass.
    """
    q = np.asarray(q, dtype=float)
    log_q = link._log(q)
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
        if 2 * (hi1 - lo1 + 1) * (hi11 - lo11 + 1) > link._MAX_CELLS:
            raise NumericsError("window too large")
        grid = np.ix_(np.arange(2), np.arange(lo1, hi1 + 1), np.arange(lo11, hi11 + 1))
        logp, log_count = _frame_stats_logp(log_q, link._log_factorials(n), b1, n, *grid)
        p = np.exp(logp)
        rim = np.zeros(p.shape, dtype=bool)
        rim[:, 0] |= lo1 > 0
        rim[:, -1] |= hi1 < n
        rim[..., 0] |= lo11 > 0
        rim[..., -1] |= hi11 < n - 1
        if not np.any(p[rim] >= 1e-16):
            break
        w1, w11 = 2.0 * w1, 2.0 * w11
    keep = p >= 1e-16
    kept = p[keep]
    bn_i, n1_i, n11_i = np.nonzero(keep)
    cdf = np.cumsum(kept)
    return types.SimpleNamespace(
        cells=np.stack([bn_i, n1_i + lo1, n11_i + lo11]), cdf=cdf / cdf[-1],
        log_count=log_count[keep], prob=kept, mass=float(kept.sum()),
    )


def coupled_chain_stats(spec, symbols, rng):
    """Frame statistics by stepping every frame's bit chain through its cycles.

    The sampler the exact law replaced: one coupled pair of chains per
    symbol (one per possible first bit, shared uniforms).  Same layout as
    draw_frame_stats: bn, n1, n11, each (first bit, symbol slot).
    """
    m, n = symbols.size, spec.n_cycles
    q = np.stack([spec.kernel0.bit_chain, spec.kernel1.bit_chain])
    sym_idx = symbols.astype(np.int64)
    q10 = q[sym_idx, 0, 1].astype(np.float32)
    dq = (q[sym_idx, 1, 1] - q[sym_idx, 0, 1]).astype(np.float32)
    bits = [np.zeros(m, dtype=np.int8), np.ones(m, dtype=np.int8)]
    n1 = [bits[0].astype(np.int64), bits[1].astype(np.int64)]
    n11 = [np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)]
    for _ in range(1, n):
        u = rng.random(m, dtype=np.float32)
        for v in (0, 1):
            prev = bits[v]
            nxt = (u < q10 + dq * prev).astype(np.int8)
            n11[v] += prev & nxt
            n1[v] += nxt
            bits[v] = nxt
    return np.stack([np.stack(bits).astype(np.int64), np.stack(n1), np.stack(n11)])


def loop_simulate_link(spec, n_symbols, rng, mode, draw_stats=draw_frame_stats):
    """simulate_link with its boundary pass as a loop over symbols."""
    m = n_symbols
    symbols = (rng.random(m) < 0.5).astype(np.int8)
    sym_idx = symbols.astype(np.int64)
    bn, n1, n11 = draw_stats(spec, symbols, rng)
    u_entry = rng.random(m).tolist()
    u_first = rng.random(m).tolist()
    p_first = [[float(spec.first_bit_prob(lv, s)[1]) for s in (0, 1)] for lv in (0, 1)]
    exit_bit = [float(spec.kernel0.exit_given_bit[b, 1]) for b in (0, 1)]
    exit_marg = [[float(spec.level_exit[lv, s, 1]) for s in (0, 1)] for lv in (0, 1)]
    bn_l = (bn[0].tolist(), bn[1].tolist())
    b1_sel = np.empty(m, dtype=np.int8)
    level = 0
    for i in range(m):
        s = int(sym_idx[i])
        b1 = 1 if u_first[i] < p_first[level][s] else 0
        b1_sel[i] = b1
        if mode == "physical":
            level = 1 if u_entry[i] < exit_bit[bn_l[b1][i]] else 0
        else:
            level = 1 if u_entry[i] < exit_marg[level][s] else 0
    pick, cols = b1_sel.astype(np.int64), np.arange(m)
    return dict(
        symbols=symbols, b1=b1_sel, bn=bn[pick, cols].astype(np.int8),
        n1=n1[pick, cols], n11=n11[pick, cols],
    )


def loop_viterbi(spec, emis):
    """Viterbi over the 4 states, one step per symbol; ties to the smaller index."""
    m = emis.shape[0]
    with np.errstate(divide="ignore"):
        log_a = np.log(detection.transition(spec)).tolist()
        log_pi = np.log(detection.INITIAL).tolist()
    delta = [log_pi[k] + emis[0, k] for k in range(4)]
    back = np.zeros((m, 4), dtype=np.int64)
    for t, row in enumerate(emis[1:].tolist(), start=1):
        new = [0.0] * 4
        for to in range(4):
            best_k, best_v = 0, delta[0] + log_a[0][to]
            for k in (1, 2, 3):
                v = delta[k] + log_a[k][to]
                if v > best_v:
                    best_k, best_v = k, v
            new[to] = best_v + row[to]
            back[t, to] = best_k
        delta = new
    state = max(range(4), key=lambda k: (delta[k], -k))
    path = np.empty(m, dtype=np.int64)
    path[-1] = state
    for t in range(m - 1, 0, -1):
        state = back[t, state]
        path[t - 1] = state
    return (path % 2).astype(np.int8)


def loop_forward(spec, emis):
    a = detection.transition(spec).tolist()
    alpha = detection.INITIAL.tolist()
    out = []
    for row in emis.tolist():
        top = max(row)
        w = [alpha[k] * math.exp(row[k] - top) for k in range(4)]
        norm = sum(w)
        out.append(math.log2(norm) + top / math.log(2.0))
        alpha = [sum(w[k] / norm * a[k][j] for k in range(4)) for j in range(4)]
    return np.array(out)


def loop_conditional_forward(spec, emis, symbols):
    exit_ = spec.level_exit.tolist()
    alpha = [1.0, 0.0]
    out = []
    for row, s in zip(emis.tolist(), symbols.tolist()):
        e = [row[s], row[2 + s]]
        top = max(e)
        w = [alpha[lv] * math.exp(e[lv] - top) for lv in (0, 1)]
        norm = sum(w)
        out.append(math.log2(norm) + top / math.log(2.0))
        alpha = [sum(w[lv] / norm * exit_[lv][s][x] for lv in (0, 1)) for x in (0, 1)]
    return np.array(out)


def unit_max(x):
    """x minus its maximum along every axis but the last; all -inf stays -inf."""
    top = x.max(axis=tuple(range(x.ndim - 1)))
    return x - np.where(top > -np.inf, top, 0.0)


def fold_scan(steps, carry, semiring):
    """The vectors before each 2x2 step and after the last, one step at a time, each rescaled
    unless the semiring is "max-plus-unrescaled"."""
    before = []
    v = np.array(carry, dtype=float)
    for t in range(steps.shape[-1]):
        before.append(v)
        if semiring == "sum-product":
            v = v @ steps[..., t]
            v = v / v.sum()
        else:
            v = np.max(v[:, None] + steps[..., t], axis=0)
            if semiring == "max-plus":
                v = v - v.max()
    return np.array(before).T, v


def loop_iterate_maps(f0, f1, x0):
    before, x = [], x0
    for y0, y1 in zip(f0.tolist(), f1.tolist()):
        before.append(x)
        x = int(y1 if x else y0)
    return np.array(before, dtype=np.int8), x

class TestCycleKernel:
    def test_noise_free_ground_stays_ground(self):
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5, p0=0.0,
                           p_reset_g=0.0, p_reset_e=0.0)
        k = build_cycle_kernel(dev, TIMING, 0.0, 0.0)
        assert k.bit_given_entry[0, 0] == 1.0
        assert joint_table(k)[0, 0, 0] == 1.0

    def test_no_decay_excited_reads_one(self):
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=0.0, p_reset_g=0.0, p_reset_e=0.0)
        k = build_cycle_kernel(dev, TIMING, 0.0, 0.0)
        assert k.bit_given_entry[1, 1] == 1.0

    def test_rows_normalized(self):
        cfg = ref_link_cfg()
        k = build_cycle_kernel(cfg.dev, TIMING, 1e5, cfg.n_e)
        table = joint_table(k)
        for entry in (0, 1):
            assert table[entry].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((table >= 0) & (table <= 1))

    def test_matches_mc_detector(self):
        # pinned comparison at reference parameters and -150 dBm equivalent
        cfg = ref_link_cfg()
        spec = cfg.build_spec(-150.0)
        for sym, kern in ((0, spec.kernel0), (1, spec.kernel1)):
            for entry, flag in ((0, False), (1, True)):
                st = mc_detector(kern.rate, TIMING, cfg.dev, enter_excited=flag, replicas=300_000,
                                 rng=substream(13, sym, entry))
                z = abs(st.readout_bit.value - kern.bit_given_entry[entry, 1])
                assert z < 4 * max(st.readout_bit.stderr, 1e-9)


class TestHmmSpec:
    def test_transition_rows_sum(self):
        spec = ref_link_cfg().build_spec(-148.3)
        assert np.allclose(detection.transition(spec).sum(axis=1), 1.0, atol=1e-12)
        assert detection.INITIAL.sum() == pytest.approx(1.0)

    def test_block_emission_n1_is_cycle_marginal(self):
        base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=1)
        probs, frames = detection.enumerate_block_probs(spec)
        for sym, kern in ((0, base.kernel0), (1, base.kernel1)):
            for level in (0, 1):
                state = 2 * level + sym
                assert probs[:, state] == pytest.approx(
                    [kern.bit_given_entry[level, 0], kern.bit_given_entry[level, 1]]
                )

    def test_deterministic_kernels_indicator(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)
        probs, frames = detection.enumerate_block_probs(spec)
        idx_111 = int(np.nonzero((frames == 1).all(axis=1))[0][0])
        idx_000 = int(np.nonzero((frames == 0).all(axis=1))[0][0])
        for level in (0, 1):
            assert probs[idx_111, 2 * level + 1] == pytest.approx(1.0)
            assert probs[idx_000, 2 * level + 0] == pytest.approx(1.0)

    def test_emission_normalization_n4(self):
        spec_base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=spec_base.kernel0, kernel1=spec_base.kernel1, n_cycles=4)
        probs, _ = detection.enumerate_block_probs(spec)
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-12

    def test_stats_path_equals_matrix_path(self):
        base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=9)
        rng = substream(41, 0)
        frames = (rng.random((200, 9)) < 0.4).astype(np.int64)
        a = detection.block_emission_logprob(spec, frames)
        b = detection.block_emission_logprob_matrix(spec, frames)
        assert np.abs(a - b).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 800])
    def test_level_exit_built_once_equals_per_level_form(self, n, monkeypatch):
        base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=n)
        # per level, one matrix power each: the last-bit marginal, then the reset law
        per_level = [
            [(spec.first_bit_prob(lv, s) @ np.linalg.matrix_power(spec.kernel(s).bit_chain, n - 1)
              @ spec.kernel(s).exit_given_bit).tolist() for s in (0, 1)]
            for lv in (0, 1)
        ]
        # and the first-bit law stepped through the bit chain one cycle at a time
        stepped = np.empty((2, 2, 2))
        for s in (0, 1):
            k = spec.kernel(s)
            for lv in (0, 1):
                last = k.bit_given_entry[lv]
                for _ in range(n - 1):
                    last = last @ k.bit_chain
                stepped[lv, s] = last @ k.exit_given_bit
        powers = []
        matrix_power = np.linalg.matrix_power

        def counted(q, k):
            powers.append(k)
            return matrix_power(q, k)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        first = spec.level_exit
        assert spec.level_exit is first and powers == [n - 1, n - 1]
        assert first.tolist() == per_level
        assert np.abs(first - stepped).max() < 1e-13
        assert not first.flags.writeable

    def test_kernels_must_share_reset_law(self):
        k0, k1 = deterministic_kernels()
        k1_bad = CycleKernel(
            bit_given_entry=k1.bit_given_entry,
            exit_given_bit=np.array([[0.5, 0.5], [0.0, 1.0]]),
            rate=1.0,
        )
        with pytest.raises(ValueError, match="reset law"):
            HmmSpec(kernel0=k0, kernel1=k1_bad, n_cycles=4)


class TestSimulateLink:
    def test_deterministic_kernels_echo_symbols(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=5)
        run = simulate_link(spec, 500, substream(41, 1), mode="physical", store_frames=True)
        assert np.array_equal(run.frames, np.repeat(run.symbols[:, None], 5, axis=1))
        assert np.array_equal(run.n1, 5 * run.symbols.astype(np.int64))

    def test_stats_match_frames(self):
        spec = ref_link_cfg(n=12).build_spec(-146.0)
        run = simulate_link(spec, 2000, substream(41, 2), mode="physical", store_frames=True)
        for got, want in zip(frame_statistics(run.frames), (run.b1, run.bn, run.n1, run.n11)):
            assert np.array_equal(got, want)

    def test_modes_agree_in_distribution(self):
        # two-sample chi-square over the 16 possible frames of a 4-cycle symbol
        spec = ref_link_cfg(n=4).build_spec(-140.0)
        n_sym = 100_000
        runs = {
            mode: simulate_link(spec, n_sym, substream(41, 3, i), mode=mode, store_frames=True)
            for i, mode in enumerate(("hmm", "physical"))
        }
        tables = []
        for run in runs.values():
            code = run.frames.astype(np.int64) @ (2 ** np.arange(4)[::-1])
            tables.append(np.bincount(code, minlength=16))
        merged = np.vstack(tables)
        keep = merged.sum(axis=0) > 10
        chi2, p, _, _ = stats.chi2_contingency(merged[:, keep])
        assert p > 0.01  # documented acceptance threshold

    def test_zero_signal_symbol_conditionals_identical(self):
        cfg = ref_link_cfg(n=6)
        spec = cfg.build_spec(-math.inf)
        assert np.allclose(spec.kernel0.bit_given_entry, spec.kernel1.bit_given_entry)

    def test_rejects_bad_mode(self):
        spec = ref_link_cfg(n=2).build_spec(-150.0)
        with pytest.raises(ValueError):
            simulate_link(spec, 10, substream(41, 4), mode="exact")

    @pytest.mark.parametrize("mode", ["physical", "hmm"])
    def test_single_cycle_frames(self, mode):
        spec = ref_link_cfg(n=1).build_spec(-140.0)
        run = simulate_link(spec, 3000, substream(41, 13), mode=mode, store_frames=True)
        assert run.frames.shape == (3000, 1)
        assert np.array_equal(run.frames[:, 0], run.b1)
        assert np.array_equal(run.bn, run.b1) and np.array_equal(run.n1, run.b1.astype(np.int64))
        assert not run.n11.any()
        assert 0 < run.b1.sum() < 3000


def ref_kernels():
    """The kernels of the reference link at -146 dBm."""
    spec = ref_link_cfg(800).build_spec(-146.0)
    return spec.kernel0, spec.kernel1


def sticky_kernels():
    """Kernels whose bit chains keep their bit for many cycles."""
    exit_given_bit = np.array([[0.97, 0.03], [0.05, 0.95]])
    k0 = CycleKernel(bit_given_entry=np.array([[0.98, 0.02], [0.1, 0.9]]), exit_given_bit=exit_given_bit,
                     rate=0.0)
    k1 = CycleKernel(bit_given_entry=np.array([[0.6, 0.4], [0.05, 0.95]]), exit_given_bit=exit_given_bit,
                     rate=1.0)
    return k0, k1


class TestFrameStatsLaw:
    """The exact law of (b1, bn, n1, n11) and the frames composed from it."""

    KERNELS = {"ref-146dBm": ref_kernels, "sticky": sticky_kernels, "deterministic": deterministic_kernels}

    @pytest.mark.parametrize("kernels", sorted(KERNELS))
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_table_equals_enumeration(self, kernels, n):
        k0, k1 = self.KERNELS[kernels]()
        assert detection.frame_stats_enumeration_gap(HmmSpec(kernel0=k0, kernel1=k1, n_cycles=n)) < 1e-12

    @staticmethod
    def assert_equals_reference(laws, q, n, where):
        # every array of both tables equals the one-first-bit reference, bit for bit
        for b1, law in enumerate(laws):
            ref = reference_frame_stats_law(q, b1, n)
            for name in ("cells", "cdf", "log_count", "prob", "mass"):
                got, want = np.asarray(getattr(law, name)), np.asarray(getattr(ref, name))
                assert got.tolist() == want.tolist(), (where, n, b1, name)

    @pytest.mark.parametrize("chain", [*sorted(KERNELS), "frozen", "alternating", "zero-entry"])
    def test_tables_equal_reference(self, chain):
        if chain in self.KERNELS:
            qs = [k.bit_chain for k in self.KERNELS[chain]()]
        elif chain == "zero-entry":
            spec = zero_entry_cfg(800).build_spec(-150.0)
            qs = [spec.kernel0.bit_chain, spec.kernel1.bit_chain]
            assert spec.kernel0.bit_chain[0, 1] == 0.0
        else:
            qs = [np.eye(2) if chain == "frozen" else np.array([[0.0, 1.0], [1.0, 0.0]])]
        for q in qs:
            for n in (1, 2, 3, 6, 12, 800, 2000):
                self.assert_equals_reference(link.frame_stats_law(q, n), q, n, chain)

    @pytest.mark.parametrize("saturation", [False, True])
    def test_link_workload_tables_equal_reference(self, saturation):
        # every table of the link benchmark's sweep, the noise tables included
        cfg = dataclasses.replace(ref_link_cfg(800), saturation=saturation)
        for power in TestScansMatchLoops.POWERS:
            spec = cfg.build_spec(power)
            for s, laws in enumerate(spec.frame_stats):
                self.assert_equals_reference(laws, spec.kernel(s).bit_chain, 800, (power, s))

    @pytest.mark.parametrize("kernels", ["ref-146dBm", "sticky"])
    def test_truncated_table_against_full_grid(self, kernels):
        # n = 800: the window keeps the full-grid cells of probability >= 1e-16
        n = 800
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        for kern in self.KERNELS[kernels]():
            q = kern.bit_chain
            for b1, law in enumerate(link.frame_stats_law(q, n)):
                grid = np.ix_(range(2), range(n + 1), range(n))
                full = np.exp(_frame_stats_logp(np.log(q), log_fact, b1, n, *grid)[0])
                assert abs(full.sum() - 1.0) < 1e-12 and abs(law.mass - 1.0) < 1e-12
                assert law.cdf[-1] == 1.0 and np.all(np.diff(law.cdf) >= 0)
                kept = np.zeros(full.shape, dtype=bool)
                kept[tuple(law.cells)] = True
                assert np.array_equal(kept, full >= 1e-16)
                assert np.abs(np.diff(law.cdf, prepend=0.0) * law.mass - full[tuple(law.cells)]).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 800])
    def test_frozen_and_alternating_chains(self, n):
        # q with zeros: every table holds one cell of probability 1
        for q, want in ((np.eye(2), lambda b1: (b1, n * b1, (n - 1) * b1)),
                        (np.array([[0.0, 1.0], [1.0, 0.0]]),
                         lambda b1: ((b1 + n - 1) % 2, (n + b1) // 2, 0))):
            for b1, law in enumerate(link.frame_stats_law(q, n)):
                assert law.cells.T.tolist() == [list(want(b1))] and law.mass == 1.0

    @staticmethod
    def guided_index_tables():
        """(name, table): every table at the link benchmark's powers, the one-cell tables
        at n = 1 and those of the frozen and alternating chains."""
        cfg = ref_link_cfg(800)
        for power in TestScansMatchLoops.POWERS:
            for s, laws in enumerate(cfg.build_spec(power).frame_stats):
                for b1, law in enumerate(laws):
                    yield (power, s, b1), law
        for s, laws in enumerate(ref_link_cfg(1).build_spec(-146.0).frame_stats):
            for b1, law in enumerate(laws):
                assert law.cells.shape == (3, 1)
                yield ("n = 1", s, b1), law
        for name, q in (("frozen", np.eye(2)), ("alternating", np.array([[0.0, 1.0], [1.0, 0.0]]))):
            for n in (1, 2, 800):
                for b1, law in enumerate(link.frame_stats_law(q, n)):
                    yield (name, n, b1), law

    def test_guided_index_equals_searchsorted(self):
        # uniforms at every place where the bucket bounds could be off by one
        near_one = 1.0 - np.arange(1, 65) * 2.0**-53  # 1 - 2^-53 and the doubles below it
        for name, law in self.guided_index_tables():
            k = law._guide.size - 2
            edges = np.arange(k + 1) / k
            u = np.concatenate([
                [0.0], law.cdf, np.nextafter(law.cdf, 0.0), np.nextafter(law.cdf, 1.0),
                edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), near_one,
                substream(41, 33).random(10_000),
            ])
            u = u[(u >= 0.0) & (u < 1.0)]
            want = np.searchsorted(law.cdf, u, side="right")
            assert np.array_equal(law.index(u), want), name
            assert np.array_equal(law.draw(u), law.cells[:, want]), name
        # the top bucket: a cdf of 1 files in bucket k, past every uniform in [0, 1)
        assert link._bucket(np.array([1.0, near_one[0]]), 6).tolist() == [6, 5]

    def test_pair_loglik_adds_nothing_for_a_pair_that_never_occurs(self):
        # 01-pairs are impossible (log q = -inf): a frame without one keeps a finite
        # probability, a frame with one has none
        with np.errstate(divide="ignore"):
            log_q = np.log(np.array([[1.0, 0.0], [0.5, 0.5]]))
        counts = tuple(np.array(c) for c in ((3, 3), (0, 1), (1, 1), (0, 0)))
        got = link._pair_loglik(np.array([0.25, 0.25]), log_q, counts)
        assert got.tolist() == [0.25 + math.log(0.5), -math.inf]

    @pytest.mark.parametrize("n", [12000, 20000])
    def test_long_frames_in_bounded_memory(self, n):
        # lgamma rounding alone puts the kept mass 1.3e-12 (n = 12000) and
        # 3.9e-12 (n = 20000) off 1; a window judged by that total doubled
        # toward the (n + 1) x n grid until memory ran out.  A child process
        # under a 2 GiB address-space cap builds the tables and checks their
        # cells against a window twice as wide around them, by this module's
        # reference law
        reference = "".join(inspect.getsource(f) for f in (_log_arrangements, _frame_stats_logp))
        code = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from photonlink import link
from photonlink.physics import CycleTiming, DeviceParams, Environment
n = {n}
cfg = link.LinkConfig(
    dev=DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5),
    timing=CycleTiming(230e-9, 35e-9, 48e-9),
    env=Environment(t_e=8.0, nu=1e10, cycles_per_symbol=n),
)
{reference}
for power in (-160.0, -146.0):
    spec = cfg.build_spec(power)
    for s in (0, 1):
        q = spec.kernel(s).bit_chain
        for b1 in (0, 1):
            law = spec.frame_stats[s][b1]
            assert law.cdf[-1] == 1.0 and abs(law.mass - 1.0) < 1e-10, law.mass
            (lo1, lo11), (hi1, hi11) = law.cells[1:].min(axis=1), law.cells[1:].max(axis=1)
            pad1, pad11 = (hi1 - lo1) // 2 + 1, (hi11 - lo11) // 2 + 1
            n1 = np.arange(max(0, lo1 - pad1), min(n, hi1 + pad1) + 1)
            n11 = np.arange(max(0, lo11 - pad11), min(n - 1, hi11 + pad11) + 1)
            p = np.exp(_frame_stats_logp(np.log(q), link._log_factorials(n), b1, n, *np.ix_(range(2), n1, n11))[0])
            bn_i, n1_i, n11_i = np.nonzero(p >= 1e-16)
            assert np.array_equal(np.stack([bn_i, n1[n1_i], n11[n11_i]]), law.cells)
print("ok")
"""
        src = str(Path(link.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr[-2000:]

    @pytest.mark.parametrize("power", [-154.0, -146.0])
    def test_emissions_and_table_read_one_law(self, power):
        # log P(y | l, s) = emission - log P(b1 | l, s) + log C(n1-1, r-1) C(n0-1, r0-1)
        # at random cells of each table
        spec = ref_link_cfg(800).build_spec(power)
        n, rng, log_fact = spec.n_cycles, substream(41, 21), link._log_factorials(spec.n_cycles)

        def log_compositions(total, parts):  # 0 at total = parts = 0
            return 0.0 if total == parts == 0 else log_fact[total - 1] - log_fact[parts - 1] - log_fact[total - parts]

        for s in (0, 1):
            for b1 in (0, 1):
                table = spec.frame_stats[s][b1]
                idx = rng.integers(0, table.cells.shape[1], size=200)
                bn, n1, n11 = table.cells[:, idx]
                emis = spec.emission_loglik_stats(np.full(bn.size, b1), bn, n1, n11)
                law, _ = _frame_stats_logp(np.log(spec.kernel(s).bit_chain), log_fact, b1, n, bn, n1, n11)
                count = np.array([log_compositions(k1, k1 - k11) + log_compositions(n - k1, k1 - k11 + 1 - b1 - kn)
                                  for kn, k1, k11 in zip(bn, n1, n11)])
                # the table keeps the same count at its cells
                assert np.abs(table.log_count[idx] - count).max() < 1e-12
                for level in (0, 1):
                    got = emis[:, 2 * level + s] - math.log(spec.first_bit_prob(level, s)[b1]) + count
                    assert np.abs(got - law).max() < 1e-12

    def test_shared_tables_are_read_only(self):
        # every point of a sweep, on any of its threads, reads the same symbol-0
        # tables, so none may be written
        cfg = ref_link_cfg(50)
        quiet, loud = cfg.build_spec(-150.0), cfg.build_spec(-146.0)
        assert quiet.frame_stats[0] is loud.frame_stats[0]
        for law in quiet.frame_stats[0] + loud.frame_stats[1]:
            law.draw(np.array([0.5]))  # builds the guide
            for name in ("cells", "prob", "cdf", "log_count", "_guide"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(law, name)[...] = 0

    def test_shared_kernel_builds_tables_at_each_length(self):
        # one kernel in specs of two frame lengths: each spec reads the tables of its own n
        k0, k1 = sticky_kernels()
        for n in (6, 12, 6):
            spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=n)
            for s, laws in enumerate(spec.frame_stats):
                for b1, law in enumerate(laws):
                    fresh = link.frame_stats_law(spec.kernel(s).bit_chain, n)[b1]
                    for name in ("cells", "prob", "cdf", "log_count"):
                        assert np.array_equal(getattr(law, name), getattr(fresh, name)), (n, s, b1, name)

    def test_unbuildable_table_is_a_numerics_error(self):
        # a chain that almost never flips spreads the law over the whole grid
        q = np.array([[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]])
        with pytest.raises(NumericsError, match="cells"):
            link.frame_stats_law(q, 5000)

    @pytest.mark.parametrize("mode", ["physical", "hmm"])
    @pytest.mark.parametrize("power", [-154.0, -150.0, -146.0])
    def test_matches_coupled_chains(self, power, mode):
        # two-sample chi-square on the joint law of (b1, bn, n1, r) per symbol,
        # exact-law sampler against the cycle-stepping one; 12 cases at
        # p > 1e-3 give a family-wise false-alarm rate of about 1.2 %
        n, m = 800, 60_000
        spec = ref_link_cfg(n).build_spec(power)
        run = simulate_link(spec, m, substream(42, 1, int(-power)), mode=mode)
        ref = loop_simulate_link(spec, m, substream(42, 2, int(-power)), mode, draw_stats=coupled_chain_stats)
        samples = [(run.symbols, run.b1, run.bn, run.n1, run.n11),
                   (ref["symbols"], ref["b1"], ref["bn"], ref["n1"], ref["n11"])]
        for symbol in (0, 1):
            codes = []
            for sym, b1, bn, n1, n11 in samples:
                sel = sym == symbol
                b1, bn, n1, r = (x[sel].astype(np.int64) for x in (b1, bn, n1, n1 - n11))
                codes.append(((b1 * 2 + bn) * (n + 1) + n1) * (n + 1) + r)
            cells, inverse = np.unique(np.concatenate(codes), return_inverse=True)
            table = np.stack([np.bincount(part, minlength=cells.size)
                              for part in np.split(inverse, [codes[0].size])])
            sparse = table.sum(axis=0) < 20
            pooled = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
            _, p, _, _ = stats.chi2_contingency(pooled)
            assert p > 1e-3, (symbol, p)

    def test_composed_frames_uniform_over_arrangements(self):
        # n = 6: every statistics tuple, 400 composed frames each; each frame
        # must have its tuple's statistics, and within a tuple every frame is
        # equally likely (one chi-square goodness of fit over all tuples)
        n, reps = 6, 400
        frames = detection.all_frames(n)
        groups = {}
        for code, st in enumerate(zip(*frame_statistics(frames))):
            groups.setdefault(tuple(int(x) for x in st), []).append(code)
        chi2, dof = 0.0, 0
        for st, members in groups.items():
            rows = np.repeat(np.array(st)[None, :], reps, axis=0)
            got = link._compose_frames(*rows.T, n, substream(42, 3, *st))
            assert got.dtype == np.int8 and got.shape == (reps, n)
            assert all(np.array_equal(a, np.full(reps, b)) for a, b in zip(frame_statistics(got), st))
            counts = np.bincount(got.astype(np.int64) @ (2 ** np.arange(n)[::-1]), minlength=2**n)
            assert counts[members].sum() == reps
            expected = reps / len(members)
            chi2 += float(((counts[members] - expected) ** 2 / expected).sum())
            dof += len(members) - 1
        assert dof > 0 and stats.chi2.sf(chi2, dof) > 1e-3


class TestViterbi:
    def test_noiseless_zero_errors(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=4)
        run = simulate_link(spec, 2000, substream(41, 5), mode="physical")
        decoded = viterbi_decode(spec, emissions(spec, run))
        assert np.array_equal(decoded, run.symbols)

    def test_single_symbol_equals_map(self):
        base = ref_link_cfg(n=3).build_spec(-145.0)
        rng = substream(41, 6)
        for _ in range(30):
            frame = (rng.random((1, 3)) < 0.5).astype(np.int64)
            emis = detection.block_emission_logprob(base, frame)
            got = viterbi_decode(base, emis)[0]
            post = detection.INITIAL * np.exp(emis[0])
            want = int(np.argmax(post)) % 2
            assert got == want

    def test_matches_exhaustive_map_short_sequences(self):
        base = ref_link_cfg(n=2).build_spec(-145.0)
        rng = substream(41, 7)
        for _ in range(25):
            emis = detection.block_emission_logprob(base, (rng.random((2, 2)) < 0.5).astype(np.int64))
            assert np.array_equal(viterbi_decode(base, emis), detection.exhaustive_map_symbols(base, emis))


class TestForwardAndRate:
    def test_total_probability_small(self):
        base = ref_link_cfg(n=3).build_spec(-148.0)
        assert detection.forward_total_probability(base, 2) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_kernels_unit_rate(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)
        run = simulate_link(spec, 3000, substream(41, 8), mode="hmm")
        mi = mutual_information(spec, run, burn_in=10, rng=substream(0, 0xB0))
        assert mi.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_signal_zero_rate(self):
        cfg = ref_link_cfg(n=50)
        spec = cfg.build_spec(-math.inf)
        run = simulate_link(spec, 4000, substream(41, 9), mode="hmm")
        mi = mutual_information(spec, run, burn_in=50, rng=substream(0, 0xB0))
        assert mi.value <= 2 * mi.stderr + 1e-9

    def test_empty_observations_rejected(self):
        spec = ref_link_cfg(n=4).build_spec(-150.0)
        emis = detection.block_emission_logprob(spec, np.empty((0, 4), dtype=np.int64))
        assert emis.shape == (0, 4)
        for call in (lambda: viterbi_decode(spec, emis), lambda: forward_loglik(spec, emis),
                     lambda: conditional_forward_loglik(spec, emis, np.zeros(0, dtype=np.int8))):
            with pytest.raises(ValueError, match="observations must be nonempty"):
                call()

    def test_recursions_reject_a_table_that_is_not_m_by_4(self):
        spec = ref_link_cfg(n=6).build_spec(-150.0)
        frames = np.zeros((5, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="shape"):
            viterbi_decode(spec, frames)  # raw frames, not their emission table
        with pytest.raises(ValueError, match="shape"):
            forward_loglik(spec, np.zeros(5))

    def test_recursions_reject_nan_and_positive_infinity(self):
        spec = ref_link_cfg(n=4).build_spec(-150.0)
        run = simulate_link(spec, 50, substream(41, 12), mode="hmm")
        for bad in (math.nan, math.inf):
            emis = np.array(emissions(spec, run))
            emis[7, 2] = bad
            for call in (lambda: viterbi_decode(spec, emis), lambda: forward_loglik(spec, emis),
                         lambda: conditional_forward_loglik(spec, emis, run.symbols)):
                with pytest.raises(ValueError, match="log-probabilities"):
                    call()

    def test_conditional_rejects_symbols_outside_0_1(self):
        spec = ref_link_cfg(n=4).build_spec(-150.0)
        run = simulate_link(spec, 50, substream(41, 12), mode="hmm")
        for bad in (-1, 2):
            symbols = run.symbols.astype(np.int64)
            symbols[7] = bad
            with pytest.raises(ValueError, match="0 or 1"):
                conditional_forward_loglik(spec, emissions(spec, run), symbols)

    def test_rate_bounded_by_observation_entropy(self):
        spec = ref_link_cfg(n=40).build_spec(-152.0)
        run = simulate_link(spec, 3000, substream(41, 10), mode="hmm")
        emis = emissions(spec, run)
        inc_o = forward_loglik(spec, emis)
        inc_os = conditional_forward_loglik(spec, emis, run.symbols)
        h_o = -inc_o[100:].mean()
        mi = mutual_information(spec, run, burn_in=100, rng=substream(0, 0xB0))
        assert 0.0 <= mi.value <= 1.0
        assert mi.value <= h_o + 1e-9
        # mutual_information feeds one emission table to both recursions
        assert mi.value == float(np.clip((inc_os - inc_o)[100:].mean(), 0.0, 1.0))


def cell_law_rate_bracket(spec):
    """rate_bracket with both symbols' law evaluated in full at each table's cells.

    The form rate_bracket had before the tables kept their arrangement
    count: _frame_stats_logp rebuilds the count for each symbol.
    """
    exit_ = spec.level_exit
    up, down = 0.5 * exit_[0, :, 1].sum(), 0.5 * exit_[1, :, 0].sum()
    pi = np.array([down, up]) / (up + down) if up + down > 0 else np.array([1.0, 0.0])
    n = spec.n_cycles
    log_q, log_fact = [link._log(spec.kernel(s).bit_chain) for s in (0, 1)], link._log_factorials(n)
    bits = np.zeros(5)
    for b1 in (0, 1):
        first = np.array([[spec.first_bit_prob(lv, s)[b1] for s in (0, 1)] for lv in (0, 1)])
        c = 0.5 * (pi[:, None] * first)[:, :, None] * exit_
        weight = np.concatenate([c.sum(axis=(0, 2))[None], c.transpose(0, 2, 1).reshape(4, 2)])
        for s in (0, 1):
            cells = spec.frame_stats[s][b1].cells
            law = np.exp([_frame_stats_logp(lq, log_fact, b1, n, *cells)[0] for lq in log_q])
            w = weight[:, :, None] * law
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(w[:, s] > 0, w[:, s] * np.log2(2.0 * w[:, s] / w.sum(axis=1)), 0.0)
            bits += terms.sum(axis=1)
    lower = min(max(float(bits[0]), 0.0), 1.0)
    return lower, min(max(float(bits[1:].sum()), lower), 1.0)


def level_genie_rate(spec):
    """1 - H(S | Y, L) in bits: the (l, l') rows of link._joint_cells summed over l'."""
    bits = 0.0
    for s, own, other in link._joint_cells(spec):
        w = [np.stack([v[1] + v[2], v[3] + v[4]]) for v in ((own, other) if s == 0 else (other, own))]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = w[s] * np.log2(2.0 * w[s] / (w[0] + w[1]))
        bits += float(np.where(w[s] > 0, terms, 0.0).sum())
    return bits


class TestRateBracket:
    """The exact achievable rate that rate-sweep writes."""

    @pytest.mark.parametrize("n, resets, power", [
        *((800, None, p) for p in (-170.0, -160.0, -156.5, -150.0, -146.0, -142.0)),
        *((100, (0.2, 0.6), p) for p in (-156.0, -150.0, -146.0)),
        *((800, variant, p) for variant in ("saturated", "zero-entry") for p in (-156.0, -150.0, -146.0)),
    ])
    def test_equals_cell_law_form(self, n, resets, power):
        # each table's prob plus the other symbol's count and pair terms is the
        # full law, bit for bit; resets is (p_reset_g, p_reset_e), or names the
        # dead-time-filtered link or the chain with a zero entry
        cfg = ref_link_cfg(n)
        if resets == "saturated":
            cfg = dataclasses.replace(cfg, saturation=True)
        elif resets == "zero-entry":
            cfg = zero_entry_cfg(n)
        elif resets is not None:
            dev = dataclasses.replace(cfg.dev, p_reset_g=resets[0], p_reset_e=resets[1])
            cfg = dataclasses.replace(cfg, dev=dev)
        spec = cfg.build_spec(power)
        assert rate_bracket(spec) == cell_law_rate_bracket(spec)

    @pytest.mark.parametrize("kernels", ["ref-146dBm", "sticky"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_equals_enumeration(self, kernels, n):
        k0, k1 = TestFrameStatsLaw.KERNELS[kernels]()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=n)
        got, want = rate_bracket(spec), detection.rate_bracket_enumeration(spec)
        assert got[0] <= got[1]
        assert np.abs(np.subtract(got, want)).max() < 1e-12

    def test_deterministic_kernels_carry_one_bit(self):
        k0, k1 = deterministic_kernels()
        assert rate_bracket(HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)) == (1.0, 1.0)

    def test_zero_signal_is_exactly_zero(self):
        # at -inf dBm both symbols have the same law, cell by cell
        assert rate_bracket(ref_link_cfg().build_spec(-math.inf)) == (0.0, 0.0)

    def test_rises_with_power_inside_a_narrow_bracket(self):
        brackets = [rate_bracket(ref_link_cfg().build_spec(p)) for p in np.arange(-154.0, -145.0, 1.0)]
        lowers = [lo for lo, _ in brackets]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert all(0.0 <= hi - lo < 2e-4 for lo, hi in brackets)  # at most 1.6e-4, at -153 dBm

    @pytest.mark.parametrize("saturation", [False, True], ids=["plain", "saturated"])
    def test_brackets_the_physical_chain(self, saturation):
        # in physical mode S_t is independent of every other frame given (Y_t, L_t), so that chain's
        # rate lies in [I(S; Y), 1 - H(S | Y, L)]: inside the bracket, at most 2.14e-6 below its top
        cfg = dataclasses.replace(ref_link_cfg(), saturation=saturation)
        for power in np.arange(-160.0, -143.5, 1.0):
            spec = cfg.build_spec(power)
            lower, upper = rate_bracket(spec)
            value = level_genie_rate(spec)
            assert lower <= value <= upper and upper - value < 3e-6, power

    @pytest.mark.parametrize("power, lower, upper", [
        (-156.5, 0.1898171230847341, 0.18990438971688584),
        (-152.0, 0.7226411156022506, 0.7227874504521933),
        (-150.0, 0.931510711876119, 0.9315779332244747),
        (-148.0, 0.9954975723089823, 0.9955054861462665),
    ])
    def test_reference_values(self, power, lower, upper):
        # the values of the bracket on the union of both symbols' renormalized tables
        got = rate_bracket(ref_link_cfg().build_spec(power))
        assert np.abs(np.subtract(got, (lower, upper))).max() < 2e-13


class TestSweeps:
    """The sweep rows of ber_point and rate_point, as the CLI sweeps write them."""

    def test_ber_zero_signal_is_coin_flip(self):
        row = ber_point(ref_link_cfg(n=8), -math.inf, 4000, seed=14, idx=0)
        assert abs(row["ber"] - 0.5) < 3 * row["stderr"]

    def test_ber_report_schema(self):
        cfg = ref_link_cfg(n=8)
        rows = [ber_point(cfg, p, 500, seed=15, idx=i) for i, p in enumerate((-150.0, -140.0))]
        for row, power in zip(rows, (-150.0, -140.0)):
            assert tuple(row) == (
                "power_dbm", "lambda_t_c", "n_e", "ber", "stderr", "n_symbols", "kappa", "gamma", "n_cycles", "seed",
            )
            assert (row["power_dbm"], row["n_symbols"], row["seed"]) == (power, 500, 15)
            assert (row["kappa"], row["gamma"], row["n_cycles"]) == (cfg.dev.kappa, cfg.dev.gamma, 8)
        assert rows[1]["ber"] <= rows[0]["ber"]

    def test_rate_report_schema(self):
        # the exact bracket: rate is its lower end, stderr its width, and nothing is sampled
        row = rate_point(ref_link_cfg(n=8), -150.0)
        assert tuple(row) == ("power_dbm", "lambda_t_c", "n_e", "rate", "stderr", "kappa", "gamma", "n_cycles")
        assert (row["power_dbm"], row["n_cycles"]) == (-150.0, 8)
        assert 0.0 <= row["rate"] <= 1.0
        lower, upper = rate_bracket(ref_link_cfg(n=8).build_spec(-150.0))
        assert (row["rate"], row["stderr"]) == (lower, upper - lower)

    def test_gamma_zero_impossible_frames_read_minus_inf(self):
        # with gamma = 0 the excited level never decays, so many frames are impossible from some
        # states: both evaluators give them -inf, not -DBL_MAX, and decoding them warns of nothing
        cfg = ref_link_cfg()
        cfg = dataclasses.replace(cfg, dev=dataclasses.replace(cfg.dev, gamma=0.0))
        spec = cfg.build_spec(-148.0)
        run = simulate_link(spec, 2000, substream(17, 1), mode="physical", store_frames=True)
        emis = emissions(spec, run)
        assert np.isneginf(emis).sum() > 1000
        assert emis[np.isfinite(emis)].min() > -1e3
        matrix = detection.block_emission_logprob_matrix(spec, run.frames[:40])
        assert np.array_equal(np.isneginf(matrix), np.isneginf(emis[:40]))
        assert matrix[np.isfinite(matrix)].min() > -1e3
        row = ber_point(cfg, -148.0, 2000, seed=17, idx=0)
        assert 0.0 <= row["ber"] < 0.01

    def test_wilson_stderr(self):
        assert wilson_stderr(0, 100) > 0.0
        assert wilson_stderr(50, 100) == pytest.approx(math.sqrt(0.25 / 100), rel=0.05)
        with pytest.raises(ValueError):
            wilson_stderr(1, 0)


class TestPhysicalVsHmmBer:
    def test_model_fidelity(self):
        # identical receivers on both generative modes must agree on BER
        cfg = ref_link_cfg(n=100)
        n_sym = 30_000
        bers = {}
        for i, mode in enumerate(("hmm", "physical")):
            spec = cfg.build_spec(-151.5)
            run = simulate_link(spec, n_sym, substream(41, 11, i), mode=mode)
            decoded = viterbi_decode(spec, emissions(spec, run))
            errors = int((decoded != run.symbols).sum())
            bers[mode] = (errors / n_sym, wilson_stderr(errors, n_sym))
        diff = abs(bers["hmm"][0] - bers["physical"][0])
        se = math.hypot(bers["hmm"][1], bers["physical"][1])
        assert diff < 4 * se


class TestScansMatchLoops:
    """The symbol scans against the sequential references above.

    Runs use the link benchmark's operating point (ref_link_cfg(800)) and
    its powers; m = 65536 fills one scan chunk exactly, 65537 crosses a
    chunk boundary and 131073 carries the scan state twice.
    """

    POWERS = (-154.0, -152.0, -150.0, -148.0, -146.0)

    @pytest.mark.parametrize("mode", ["physical", "hmm"])
    def test_simulate_and_viterbi_at_benchmark_points(self, mode):
        cfg = ref_link_cfg(800)
        for idx, power in enumerate(self.POWERS):
            spec = cfg.build_spec(power)
            for seed in (1, 2, 3, 4):
                run = simulate_link(spec, 17_500, substream(seed, 0xBE, idx, 1), mode=mode)
                ref = loop_simulate_link(spec, 17_500, substream(seed, 0xBE, idx, 1), mode)
                for name, want in ref.items():
                    got = getattr(run, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (power, seed, name)
                emis = emissions(spec, run)
                assert np.array_equal(viterbi_decode(spec, emis), loop_viterbi(spec, emis)), (power, seed)

    @pytest.mark.parametrize("m", [1, 2, 3, 65536, 65537, 131073])
    @pytest.mark.parametrize("mode", ["physical", "hmm"])
    def test_all_scans_at_lengths(self, m, mode):
        spec = ref_link_cfg(12).build_spec(-144.0)
        run = simulate_link(spec, m, substream(41, 20, m), mode=mode)
        ref = loop_simulate_link(spec, m, substream(41, 20, m), mode)
        for name, want in ref.items():
            assert np.array_equal(getattr(run, name), want), name
        # frames are drawn last, from the realized statistics
        framed = simulate_link(spec, m, substream(41, 20, m), mode=mode, store_frames=True)
        for got, want in zip(frame_statistics(framed.frames), (run.b1, run.bn, run.n1, run.n11)):
            assert np.array_equal(got, want)
        emis = emissions(spec, run)
        assert np.array_equal(viterbi_decode(spec, emis), loop_viterbi(spec, emis))
        assert np.abs(forward_loglik(spec, emis) - loop_forward(spec, emis)).max() < 1e-9
        got = conditional_forward_loglik(spec, emis, run.symbols)
        assert np.abs(got - loop_conditional_forward(spec, emis, run.symbols)).max() < 1e-9

    @pytest.mark.parametrize("resets, n", [((0.3, 0.6), 12), ((0.05, 0.9), 3)])
    @pytest.mark.parametrize("mode", ["physical", "hmm"])
    def test_state_carried_across_chunks(self, mode, resets, n, monkeypatch):
        # a boundary every 7 symbols; reset errors keep both levels busy, and
        # with (0.05, 0.9) the two frame variants often end in different bits
        monkeypatch.setattr(link, "_CHUNK", 7)
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5,
                           p_reset_g=resets[0], p_reset_e=resets[1])
        cfg = LinkConfig(dev=dev, timing=TIMING, env=Environment(t_e=8.0, nu=1e10, cycles_per_symbol=n))
        spec = cfg.build_spec(-146.0)
        run = simulate_link(spec, 3000, substream(41, 23), mode=mode)
        ref = loop_simulate_link(spec, 3000, substream(41, 23), mode)
        for name, want in ref.items():
            assert np.array_equal(getattr(run, name), want), name
        emis = emissions(spec, run)
        assert np.array_equal(viterbi_decode(spec, emis), loop_viterbi(spec, emis))
        assert np.abs(forward_loglik(spec, emis) - loop_forward(spec, emis)).max() < 1e-9
        got = conditional_forward_loglik(spec, emis, run.symbols)
        assert np.abs(got - loop_conditional_forward(spec, emis, run.symbols)).max() < 1e-9

    def test_forward_recursions_at_benchmark_points(self):
        cfg = ref_link_cfg(800)
        for idx, power in enumerate(self.POWERS):
            spec = cfg.build_spec(power)
            run = simulate_link(spec, 5000, substream(1, 0xEA, idx, 1), mode="hmm")
            emis = emissions(spec, run)
            assert np.abs(forward_loglik(spec, emis) - loop_forward(spec, emis)).max() < 1e-9
            got = conditional_forward_loglik(spec, emis, run.symbols)
            assert np.abs(got - loop_conditional_forward(spec, emis, run.symbols)).max() < 1e-9

    # every length up to 300, so powers of two and their neighbours are all in
    SCAN_LENGTHS = range(1, 301)

    @staticmethod
    def random_steps(rng, size, semiring):
        """2x2 steps with zero (sum-product) or -inf (max-plus) entries and whole rows of them.

        Entry (0, 0) is never the zero of the semiring, so no prefix product vanishes.
        """
        if semiring == "sum-product":
            steps, zero = rng.random((2, 2, size)) ** 3, 0.0
        else:
            steps, zero = 5.0 * rng.standard_normal((2, 2, size)), -np.inf
        steps[rng.random((2, 2, size)) < 0.2] = zero
        steps[1, :, rng.random(size) < 0.1] = zero
        steps[0, 0] = np.where(steps[0, 0] == zero, 1.0, steps[0, 0])
        return steps

    @pytest.mark.parametrize("semiring", ["sum-product", "max-plus", "max-plus-unrescaled"])
    def test_scan_chunk_matches_fold(self, semiring):
        if semiring == "sum-product":
            args, carries = (np.add, np.multiply, link._unit_sum), ([1.0, 0.0], [0.3, 0.7])
        elif semiring == "max-plus":
            args, carries = (np.maximum, np.add, unit_max), ([math.log(0.5), -np.inf], [-1.5, 0.0])
        else:  # as Viterbi scans: each vector is the best score itself, not up to a shift
            args, carries = (np.maximum, np.add), ([math.log(0.5), -np.inf], [-1.5, 0.0])
        for size in self.SCAN_LENGTHS:
            rng = substream(41, 30, size)
            steps = self.random_steps(rng, size, semiring)
            carry = np.array(carries[size % 2])
            before, after = link._scan_chunk(steps.copy(), carry, *args)
            want_before, want_after = fold_scan(steps, carry, semiring)
            assert before.shape == (2, size)
            for got, want in ((before, want_before), (after[:, None], want_after[:, None])):
                if len(args) == 3:  # each vector is correct up to a scale: compare the rescaled ones
                    got, want = args[2](got), args[2](want)
                if semiring == "sum-product":
                    assert np.array_equal(got == 0, want == 0), size
                    assert np.abs(got - want).max() < 1e-12, size
                else:
                    finite = np.isfinite(want)
                    assert np.array_equal(np.isfinite(got), finite), size
                    assert np.abs(got[finite] - want[finite]).max() < 1e-9, size

    @pytest.mark.parametrize("dtype", [bool, np.int8])
    def test_iterate_maps_matches_loop(self, dtype):
        # contiguous maps, and the reversed (negative-stride) views of rows of a (2, m) array that the
        # Viterbi backtrack passes, and step-2 views
        for size in self.SCAN_LENGTHS:
            rng = substream(41, 31, size)
            maps = (rng.random((2, 2 * size)) < 0.5).astype(dtype)
            for view in (maps[:, :size], maps[:, size - 1 :: -1], maps[:, ::2]):
                f0, f1 = view
                for x0 in (0, 1):
                    before, x = link._iterate_maps(f0, f1, x0)
                    want_before, want_x = loop_iterate_maps(f0, f1, x0)
                    assert before.dtype == np.int8 and np.array_equal(before, want_before), (size, x0)
                    assert x == want_x, (size, x0)

    def test_compose_table(self):
        # a map f on {0, 1} is coded f(0) + 2 f(1); entry a + 4 b is a, then b
        for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
            a, b = (a0, a1), (b0, b1)
            assert link._COMPOSE[a0 + 2 * a1 + 4 * (b0 + 2 * b1)] == b[a[0]] + 2 * b[a[1]]

    def test_last_bit_matches_draw(self):
        # every table at the benchmark powers: last_bit(u) is the bn of the
        # cell a plain inverse-CDF search finds, for random u and for u at
        # and just below every cdf value
        cfg = ref_link_cfg(800)
        for idx, power in enumerate(self.POWERS):
            for s, laws in enumerate(cfg.build_spec(power).frame_stats):
                for b1, law in enumerate(laws):
                    assert np.all(np.diff(law.cells[0]) >= 0)
                    exact = law.cdf[law.cdf < 1.0]
                    for u in (substream(41, 32, idx, s, b1).random(100_000), exact, np.nextafter(exact, 0.0)):
                        want = law.cells[0, np.searchsorted(law.cdf, u, side="right")]
                        assert np.array_equal(law.last_bit(u).astype(np.int64), want)

    def test_viterbi_over_three_chunks_at_high_power(self):
        # the scores into each level grow with the chunk length, unrescaled within a chunk;
        # 196,609 symbols carry them across three chunk boundaries, the last into a one-symbol chunk
        spec = ref_link_cfg(800).build_spec(-146.0)
        run = simulate_link(spec, 3 * 65536 + 1, substream(41, 24), mode="physical")
        emis = emissions(spec, run)
        assert np.array_equal(viterbi_decode(spec, emis), loop_viterbi(spec, emis))

    @pytest.mark.parametrize("offset", [2.0**46, 2.0**48], ids=["2^46", "2^48"])
    def test_viterbi_carry_shift_keeps_the_path(self, offset, monkeypatch):
        # one known MAP path: 0 at its state, -40 elsewhere, against log transitions of -5.2 at the least;
        # the same offset on all four states moves no path, but without the shift between 16-symbol chunks
        # the scores reach 4096 offsets and lose the digits that separate the paths: 27 and 518 errors
        monkeypatch.setattr(link, "_CHUNK", 16)
        spec = ref_link_cfg(800).build_spec(-146.0)
        rng = substream(41, 26)
        levels, symbols = rng.integers(0, 2, 4096), rng.integers(0, 2, 4096)
        levels[0] = 0  # every path starts at level 0
        emis = np.full((4096, 4), -40.0)
        emis[np.arange(4096), 2 * levels + symbols] = 0.0
        assert np.array_equal(viterbi_decode(spec, emis - offset), symbols)

    def test_viterbi_ties_at_zero_signal(self):
        # identical kernels: every step ties between the two symbols
        spec = ref_link_cfg(50).build_spec(-math.inf)
        run = simulate_link(spec, 20_000, substream(41, 21), mode="physical")
        emis = emissions(spec, run)
        decoded = viterbi_decode(spec, emis)
        assert np.array_equal(decoded, loop_viterbi(spec, emis))
        assert not decoded.any()

    @pytest.mark.parametrize("m", [101, 65537])
    def test_viterbi_after_an_impossible_frame(self, m):
        # from the frame that no state can emit on, every path scores -inf and the path is state 0
        spec = ref_link_cfg(12).build_spec(-144.0)
        emis = emissions(spec, simulate_link(spec, m, substream(41, 25, m), mode="physical"))
        emis[m // 2] = -np.inf
        decoded = viterbi_decode(spec, emis)
        assert np.array_equal(decoded, loop_viterbi(spec, emis))
        assert decoded.any() and not decoded[m // 2 :].any()

    @pytest.mark.parametrize("m", [1, 2, 3, 65537])
    def test_viterbi_deterministic_kernels(self, m):
        # -inf emissions and transitions on every step
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)
        run = simulate_link(spec, m, substream(41, 22, m), mode="hmm")
        emis = emissions(spec, run)
        decoded = viterbi_decode(spec, emis)
        assert np.array_equal(decoded, loop_viterbi(spec, emis))
        assert np.array_equal(decoded, run.symbols)
