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
    mutual_information,
    simulate_link,
    viterbi_decode,
    wilson_stderr,
)
from photonlink.physics import CycleTiming, DeviceParams, Environment
from photonlink.rng import substream

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

def loop_simulate_link(spec, n_symbols, rng, mode):
    """simulate_link with its boundary pass as a loop over symbols."""
    m, n = n_symbols, spec.n_cycles
    symbols = (rng.random(m) < 0.5).astype(np.int8)
    q = np.stack([spec.kernel0.bit_chain, spec.kernel1.bit_chain])
    sym_idx = symbols.astype(np.int64)
    q10 = q[sym_idx, 0, 1].astype(np.float32)
    dq = (q[sym_idx, 1, 1] - q[sym_idx, 0, 1]).astype(np.float32)
    bits = [np.zeros(m, dtype=np.int8), np.ones(m, dtype=np.int8)]
    n1 = [bits[0].astype(np.int32), bits[1].astype(np.int32)]
    n11 = [np.zeros(m, dtype=np.int32), np.zeros(m, dtype=np.int32)]
    for _ in range(1, n):
        u = rng.random(m, dtype=np.float32)
        for v in (0, 1):
            prev = bits[v]
            nxt = (u < q10 + dq * prev).astype(np.int8)
            n11[v] += prev & nxt
            n1[v] += nxt
            bits[v] = nxt
    u_entry = rng.random(m).tolist()
    u_first = rng.random(m).tolist()
    p_first = [[float(spec.first_bit_prob(lv, s)[1]) for s in (0, 1)] for lv in (0, 1)]
    exit_bit = [float(spec.kernel0.exit_given_bit[b, 1]) for b in (0, 1)]
    exit_marg = [[float(spec.exit_distribution(lv, s)[1]) for s in (0, 1)] for lv in (0, 1)]
    bn_l = (bits[0].tolist(), bits[1].tolist())
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
        symbols=symbols, b1=b1_sel, bn=np.stack(bits)[pick, cols],
        n1=np.stack(n1)[pick, cols].astype(np.int64), n11=np.stack(n11)[pick, cols].astype(np.int64),
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
        spec = cfg.build_spec(-150.0, seed=13)
        for sym, kern in ((0, spec.kernel0), (1, spec.kernel1)):
            for entry, flag in ((0, False), (1, True)):
                st = mc_detector(kern.rate, TIMING, cfg.dev, enter_excited=flag, replicas=300_000,
                                 rng=substream(13, sym, entry))
                z = abs(st.readout_bit.value - kern.bit_given_entry[entry, 1])
                assert z < 4 * max(st.readout_bit.stderr, 1e-9)


class TestHmmSpec:
    def test_transition_rows_sum(self):
        spec = ref_link_cfg().build_spec(-148.3, seed=1)
        assert np.allclose(spec.transition.sum(axis=1), 1.0, atol=1e-12)
        assert spec.initial.sum() == pytest.approx(1.0)

    def test_block_emission_n1_is_cycle_marginal(self):
        base = ref_link_cfg().build_spec(-148.3, seed=2)
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
        spec_base = ref_link_cfg().build_spec(-148.3, seed=3)
        spec = HmmSpec(kernel0=spec_base.kernel0, kernel1=spec_base.kernel1, n_cycles=4)
        probs, _ = spec.enumerate_block_probs()
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-12

    def test_stats_path_equals_matrix_path(self):
        base = ref_link_cfg().build_spec(-148.3, seed=4)
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
        spec = ref_link_cfg(n=12).build_spec(-146.0, seed=5)
        run = simulate_link(spec, 2000, substream(41, 2), mode="physical", store_frames=True)
        f = run.frames.astype(np.int64)
        assert np.array_equal(run.b1, f[:, 0])
        assert np.array_equal(run.bn, f[:, -1])
        assert np.array_equal(run.n1, f.sum(axis=1))
        assert np.array_equal(run.n11, (f[:, :-1] & f[:, 1:]).sum(axis=1))

    def test_modes_agree_in_distribution(self):
        # two-sample chi-square over the 16 possible frames of a 4-cycle symbol
        spec = ref_link_cfg(n=4).build_spec(-140.0, seed=6)
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
        spec = cfg.build_spec(-math.inf, seed=7)
        assert np.allclose(spec.kernel0.bit_given_entry, spec.kernel1.bit_given_entry)

    def test_rejects_bad_mode(self):
        spec = ref_link_cfg(n=2).build_spec(-150.0, seed=8)
        with pytest.raises(ValueError):
            simulate_link(spec, 10, substream(41, 4), mode="exact")


class TestViterbi:
    def test_noiseless_zero_errors(self):
        k0, k1 = deterministic_kernels()
        spec = HmmSpec(kernel0=k0, kernel1=k1, n_cycles=4)
        run = simulate_link(spec, 2000, substream(41, 5), mode="physical")
        decoded = viterbi_decode(spec, run)
        assert np.array_equal(decoded, run.symbols)

    def test_single_symbol_equals_map(self):
        base = ref_link_cfg(n=3).build_spec(-145.0, seed=9)
        rng = substream(41, 6)
        for _ in range(30):
            frame = (rng.random((1, 3)) < 0.5).astype(np.int64)
            got = viterbi_decode(base, frame)[0]
            post = base.initial * np.exp(base.block_emission_logprob(frame)[0])
            want = int(np.argmax(post)) % 2
            assert got == want

    def test_matches_exhaustive_map_short_sequences(self):
        base = ref_link_cfg(n=2).build_spec(-145.0, seed=10)
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
        base = ref_link_cfg(n=3).build_spec(-148.0, seed=11)
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
        spec = cfg.build_spec(-math.inf, seed=12)
        run = simulate_link(spec, 4000, substream(41, 9), mode="hmm")
        mi = mutual_information(spec, run, burn_in=50)
        assert mi.value <= 2 * mi.stderr + 1e-9

    def test_conditional_rejects_symbols_outside_0_1(self):
        spec = ref_link_cfg(n=4).build_spec(-150.0, seed=14)
        run = simulate_link(spec, 50, substream(41, 12), mode="hmm")
        for bad in (-1, 2):
            symbols = run.symbols.astype(np.int64)
            symbols[7] = bad
            with pytest.raises(ValueError, match="0 or 1"):
                conditional_forward_loglik(spec, run, symbols)

    def test_rate_bounded_by_observation_entropy(self):
        spec = ref_link_cfg(n=40).build_spec(-152.0, seed=13)
        run = simulate_link(spec, 3000, substream(41, 10), mode="hmm")
        inc_o = forward_loglik(spec, run)
        inc_os = conditional_forward_loglik(spec, run, run.symbols)
        h_o = -inc_o[100:].mean()
        mi = mutual_information(spec, run, burn_in=100)
        assert 0.0 <= mi.value <= 1.0
        assert mi.value <= h_o + 1e-9


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
            spec = cfg.build_spec(-151.5, seed=17)
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
            spec = cfg.build_spec(power, seed=1, key=(0xBE, idx))
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
        spec = ref_link_cfg(12).build_spec(-144.0, seed=2)
        run = simulate_link(spec, m, substream(41, 20, m), mode=mode)
        ref = loop_simulate_link(spec, m, substream(41, 20, m), mode)
        for name, want in ref.items():
            assert np.array_equal(getattr(run, name), want), name
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
        spec = cfg.build_spec(-146.0, seed=4)
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
            spec = cfg.build_spec(power, seed=1, key=(0xEA, idx))
            run = simulate_link(spec, 5000, substream(1, 0xEA, idx, 1), mode="hmm")
            emis = _emissions_for(spec, run)
            assert np.abs(forward_loglik(spec, run) - loop_forward(spec, emis)).max() < 1e-9
            got = conditional_forward_loglik(spec, run, run.symbols)
            assert np.abs(got - loop_conditional_forward(spec, emis, run.symbols)).max() < 1e-9

    def test_viterbi_ties_at_zero_signal(self):
        # identical kernels: every step ties between the two symbols
        spec = ref_link_cfg(50).build_spec(-math.inf, seed=3)
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
