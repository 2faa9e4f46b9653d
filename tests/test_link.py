import itertools
import math

import numpy as np
import pytest
from scipy import stats

from photonlink import link
from photonlink.detection import mc_detector
from photonlink.link import (
    _emissions_for,
    CycleKernel,
    HmmSpec,
    LinkConfig,
    build_cycle_kernel,
    build_hmm,
    conditional_forward_loglik,
    estimate_ber,
    estimate_rate,
    forward_loglik,
    frame_statistics,
    mutual_information,
    simulate_link,
    viterbi_decode,
    wilson_stderr,
)
from photonlink.physics import CycleTiming, DeviceParams, Environment
from photonlink.rng import substream
from photonlink.validate import frame_stats_enumeration_gap

TIMING = CycleTiming(230e-9, 35e-9, 48e-9)


def deterministic_kernels():
    """Symbol 1 always reads 1, symbol 0 always reads 0; exits follow the bit."""
    exit_given_bit = np.array([[1.0, 0.0], [1.0, 0.0]])
    k0 = CycleKernel(
        bit_given_entry=np.array([[1.0, 0.0], [1.0, 0.0]]),
        exit_given_bit=exit_given_bit,
        rate=0.0, p_exc_ground=None, p_exc_excited=0.0,
    )
    k1 = CycleKernel(
        bit_given_entry=np.array([[0.0, 1.0], [0.0, 1.0]]),
        exit_given_bit=exit_given_bit,
        rate=1.0, p_exc_ground=None, p_exc_excited=0.0,
    )
    return k0, k1


def ref_link_cfg(n=800):
    dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5)
    env = Environment(t_e=8.0, nu=1e10, cycles_per_symbol=n)
    return LinkConfig(dev=dev, timing=TIMING, env=env)


# -- sequential references: the per-symbol loops the scans replace -------------

def coupled_chain_stats(spec, symbols, rng):
    """Frame statistics by stepping every frame's bit chain through its cycles.

    The sampler the exact law replaced: one coupled pair of chains per
    symbol (one per possible first bit, shared uniforms).  Same layout as
    link._draw_frame_stats: bn, n1, n11, each (first bit, symbol slot).
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


def loop_simulate_link(spec, n_symbols, rng, mode, draw_stats=link._draw_frame_stats):
    """simulate_link with its boundary pass as a loop over symbols."""
    m = n_symbols
    symbols = (rng.random(m) < 0.5).astype(np.int8)
    sym_idx = symbols.astype(np.int64)
    bn, n1, n11 = draw_stats(spec, symbols, rng)
    u_entry = rng.random(m).tolist()
    u_first = rng.random(m).tolist()
    p_first = [[float(spec.first_bit_prob(lv, s)[1]) for s in (0, 1)] for lv in (0, 1)]
    exit_bit = [float(spec.kernel0.exit_given_bit[b, 1]) for b in (0, 1)]
    exit_marg = [[float(spec.exit_distribution(lv, s)[1]) for s in (0, 1)] for lv in (0, 1)]
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
        log_a = np.log(spec.transition).tolist()
        log_pi = np.log(spec.initial).tolist()
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
    a = spec.transition.tolist()
    alpha = spec.initial.tolist()
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

class TestCycleKernel:
    def test_noise_free_ground_stays_ground(self):
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5, p0=0.0,
                           p_reset_g=0.0, p_reset_e=0.0)
        k = build_cycle_kernel(dev, TIMING, 0.0, 0.0)
        assert k.bit_given_entry[0, 0] == 1.0
        assert k.table[0, 0, 0] == 1.0

    def test_no_decay_excited_reads_one(self):
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=0.0, p_reset_g=0.0, p_reset_e=0.0)
        k = build_cycle_kernel(dev, TIMING, 0.0, 0.0)
        assert k.bit_given_entry[1, 1] == 1.0

    def test_rows_normalized(self):
        cfg = ref_link_cfg()
        k = build_cycle_kernel(cfg.dev, TIMING, 1e5, cfg.n_e)
        table = k.table
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
        assert np.allclose(spec.transition.sum(axis=1), 1.0, atol=1e-12)
        assert spec.initial.sum() == pytest.approx(1.0)

    def test_block_emission_n1_is_cycle_marginal(self):
        base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=1)
        probs, frames = spec.enumerate_block_probs()
        for sym, kern in ((0, base.kernel0), (1, base.kernel1)):
            for level in (0, 1):
                state = 2 * level + sym
                assert probs[:, state] == pytest.approx(
                    [kern.bit_given_entry[level, 0], kern.bit_given_entry[level, 1]]
                )

    def test_deterministic_kernels_indicator(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)
        probs, frames = spec.enumerate_block_probs()
        idx_111 = int(np.nonzero((frames == 1).all(axis=1))[0][0])
        idx_000 = int(np.nonzero((frames == 0).all(axis=1))[0][0])
        for level in (0, 1):
            assert probs[idx_111, 2 * level + 1] == pytest.approx(1.0)
            assert probs[idx_000, 2 * level + 0] == pytest.approx(1.0)

    def test_emission_normalization_n4(self):
        spec_base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=spec_base.kernel0, kernel1=spec_base.kernel1, n_cycles=4)
        probs, _ = spec.enumerate_block_probs()
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-12

    def test_stats_path_equals_matrix_path(self):
        base = ref_link_cfg().build_spec(-148.3)
        spec = HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=9)
        rng = substream(41, 0)
        frames = (rng.random((200, 9)) < 0.4).astype(np.int64)
        a = spec.block_emission_logprob(frames)
        b = spec.block_emission_logprob_matrix(frames)
        assert np.abs(a - b).max() < 1e-10

    def test_kernels_must_share_reset_law(self):
        k0, k1 = deterministic_kernels()
        k1_bad = CycleKernel(
            bit_given_entry=k1.bit_given_entry,
            exit_given_bit=np.array([[0.5, 0.5], [0.0, 1.0]]),
            rate=1.0, p_exc_ground=None, p_exc_excited=0.0,
        )
        with pytest.raises(ValueError, match="reset law"):
            build_hmm(k0, k1_bad, 4)
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
                     rate=0.0, p_exc_ground=None, p_exc_excited=0.0)
    k1 = CycleKernel(bit_given_entry=np.array([[0.6, 0.4], [0.05, 0.95]]), exit_given_bit=exit_given_bit,
                     rate=1.0, p_exc_ground=None, p_exc_excited=0.0)
    return k0, k1


class TestFrameStatsLaw:
    """The exact law of (b1, bn, n1, n11) and the frames composed from it."""

    KERNELS = {"ref-146dBm": ref_kernels, "sticky": sticky_kernels, "deterministic": deterministic_kernels}

    @pytest.mark.parametrize("kernels", sorted(KERNELS))
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_table_equals_enumeration(self, kernels, n):
        k0, k1 = self.KERNELS[kernels]()
        assert frame_stats_enumeration_gap(HmmSpec(kernel0=k0, kernel1=k1, n_cycles=n)) < 1e-12

    @pytest.mark.parametrize("kernels", ["ref-146dBm", "sticky"])
    def test_truncated_table_against_full_grid(self, kernels):
        # n = 800: the window keeps the full-grid cells of probability >= 1e-16
        n = 800
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        for kern in self.KERNELS[kernels]():
            q = kern.bit_chain
            for b1 in (0, 1):
                law = link.frame_stats_law(q, b1, n)
                full = np.exp(link._frame_stats_logp(np.log(q), log_fact, b1, n, np.arange(n + 1), np.arange(n)))
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
            for b1 in (0, 1):
                law = link.frame_stats_law(q, b1, n)
                assert law.cells.T.tolist() == [list(want(b1))] and law.mass == 1.0

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
        frames = ((np.arange(2**n)[:, None] >> np.arange(n)[None, ::-1]) & 1).astype(np.int64)
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
        decoded = viterbi_decode(spec, run)
        assert np.array_equal(decoded, run.symbols)

    def test_single_symbol_equals_map(self):
        base = ref_link_cfg(n=3).build_spec(-145.0)
        rng = substream(41, 6)
        for _ in range(30):
            frame = (rng.random((1, 3)) < 0.5).astype(np.int64)
            got = viterbi_decode(base, frame)[0]
            post = base.initial * np.exp(base.block_emission_logprob(frame)[0])
            want = int(np.argmax(post)) % 2
            assert got == want

    def test_matches_exhaustive_map_short_sequences(self):
        base = ref_link_cfg(n=2).build_spec(-145.0)
        rng = substream(41, 7)
        log_a = np.log(base.transition)
        log_pi = np.log(base.initial + 1e-300)
        for _ in range(25):
            frames = (rng.random((2, 2)) < 0.5).astype(np.int64)
            emis = base.block_emission_logprob(frames)
            best, best_p = None, -math.inf
            for path in itertools.product(range(4), repeat=2):
                s = log_pi[path[0]] + emis[0, path[0]] + log_a[path[0], path[1]] + emis[1, path[1]]
                if s > best_p + 1e-12:
                    best_p, best = s, path
            got = viterbi_decode(base, frames)
            assert np.array_equal(got, [p % 2 for p in best])


class TestForwardAndRate:
    def test_total_probability_small(self):
        base = ref_link_cfg(n=3).build_spec(-148.0)
        total = 0.0
        for seq in itertools.product(range(8), repeat=2):
            frames = ((np.array(seq)[:, None] >> np.arange(3)[None, ::-1]) & 1).astype(np.int64)
            total += 2.0 ** float(forward_loglik(base, frames).sum())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_kernels_unit_rate(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)
        run = simulate_link(spec, 3000, substream(41, 8), mode="hmm")
        mi = mutual_information(spec, run, burn_in=10)
        assert mi.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_signal_zero_rate(self):
        cfg = ref_link_cfg(n=50)
        spec = cfg.build_spec(-math.inf)
        run = simulate_link(spec, 4000, substream(41, 9), mode="hmm")
        mi = mutual_information(spec, run, burn_in=50)
        assert mi.value <= 2 * mi.stderr + 1e-9

    def test_conditional_rejects_symbols_outside_0_1(self):
        spec = ref_link_cfg(n=4).build_spec(-150.0)
        run = simulate_link(spec, 50, substream(41, 12), mode="hmm")
        for bad in (-1, 2):
            symbols = run.symbols.astype(np.int64)
            symbols[7] = bad
            with pytest.raises(ValueError, match="0 or 1"):
                conditional_forward_loglik(spec, run, symbols)

    def test_rate_bounded_by_observation_entropy(self):
        spec = ref_link_cfg(n=40).build_spec(-152.0)
        run = simulate_link(spec, 3000, substream(41, 10), mode="hmm")
        inc_o = forward_loglik(spec, run)
        inc_os = conditional_forward_loglik(spec, run, run.symbols)
        h_o = -inc_o[100:].mean()
        mi = mutual_information(spec, run, burn_in=100)
        assert 0.0 <= mi.value <= 1.0
        assert mi.value <= h_o + 1e-9
        # mutual_information feeds one emission table to both recursions
        assert mi.value == float(np.clip((inc_os - inc_o)[100:].mean(), 0.0, 1.0))


class TestSweeps:
    def test_ber_zero_signal_is_coin_flip(self):
        cfg = ref_link_cfg(n=8)
        report = estimate_ber(cfg, [-math.inf], n_symbols=4000, seed=14)
        row = report.rows[0]
        assert abs(row["ber"] - 0.5) < 3 * row["stderr"]

    def test_ber_report_schema(self):
        cfg = ref_link_cfg(n=8)
        report = estimate_ber(cfg, [-150.0, -140.0], n_symbols=500, seed=15)
        assert list(report.columns) == [
            "power_dbm", "lambda_t_c", "n_e", "ber", "stderr",
            "n_symbols", "kappa", "gamma", "n_cycles", "seed",
        ]
        assert report.rows[1]["ber"] <= report.rows[0]["ber"]

    def test_rate_report_schema(self):
        cfg = ref_link_cfg(n=8)
        report = estimate_rate(cfg, [-150.0], n_symbols=2000, seed=16)
        assert "rate" in report.columns
        assert 0.0 <= report.rows[0]["rate"] <= 1.0

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
            decoded = viterbi_decode(spec, run)
            errors = int((decoded != run.symbols).sum())
            bers[mode] = (errors / n_sym, wilson_stderr(errors, n_sym))
        diff = abs(bers["hmm"][0] - bers["physical"][0])
        se = math.hypot(bers["hmm"][1], bers["physical"][1])
        assert diff < 4 * se


class TestScansMatchLoops:
    """The symbol scans against the sequential references above.

    Runs use the link benchmark's operating point (ref_link_cfg(800)) and
    its powers; m = 65537 crosses a scan chunk boundary.
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
                emis = _emissions_for(spec, run)
                assert np.array_equal(viterbi_decode(spec, run), loop_viterbi(spec, emis)), (power, seed)

    @pytest.mark.parametrize("m", [1, 2, 3, 65537])
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
        emis = _emissions_for(spec, run)
        assert np.array_equal(viterbi_decode(spec, run), loop_viterbi(spec, emis))
        assert np.abs(forward_loglik(spec, run) - loop_forward(spec, emis)).max() < 1e-9
        got = conditional_forward_loglik(spec, run, run.symbols)
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
        emis = _emissions_for(spec, run)
        assert np.array_equal(viterbi_decode(spec, run), loop_viterbi(spec, emis))
        assert np.abs(forward_loglik(spec, run) - loop_forward(spec, emis)).max() < 1e-9
        got = conditional_forward_loglik(spec, run, run.symbols)
        assert np.abs(got - loop_conditional_forward(spec, emis, run.symbols)).max() < 1e-9

    def test_forward_recursions_at_benchmark_points(self):
        cfg = ref_link_cfg(800)
        for idx, power in enumerate(self.POWERS):
            spec = cfg.build_spec(power)
            run = simulate_link(spec, 5000, substream(1, 0xEA, idx, 1), mode="hmm")
            emis = _emissions_for(spec, run)
            assert np.abs(forward_loglik(spec, run) - loop_forward(spec, emis)).max() < 1e-9
            got = conditional_forward_loglik(spec, run, run.symbols)
            assert np.abs(got - loop_conditional_forward(spec, emis, run.symbols)).max() < 1e-9

    def test_viterbi_ties_at_zero_signal(self):
        # identical kernels: every step ties between the two symbols
        spec = ref_link_cfg(50).build_spec(-math.inf)
        run = simulate_link(spec, 20_000, substream(41, 21), mode="physical")
        decoded = viterbi_decode(spec, run)
        assert np.array_equal(decoded, loop_viterbi(spec, _emissions_for(spec, run)))
        assert not decoded.any()

    @pytest.mark.parametrize("m", [1, 2, 3, 65537])
    def test_viterbi_deterministic_kernels(self, m):
        # -inf emissions and transitions on every step
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=3)
        run = simulate_link(spec, m, substream(41, 22, m), mode="hmm")
        decoded = viterbi_decode(spec, run)
        assert np.array_equal(decoded, loop_viterbi(spec, _emissions_for(spec, run)))
        assert np.array_equal(decoded, run.symbols)
