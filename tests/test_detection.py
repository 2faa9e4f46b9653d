import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from photonlink.detection import (
    ArrivalTrace,
    ConditionalExcitationTable,
    _dp_batch,
    excitation_ctmc,
    excitation_given_arrivals,
    excitation_given_arrivals_bruteforce,
    excitation_given_count,
    excitation_poisson,
    mc_detector,
    miss_probability_sweep,
    transition_set_probability,
    _poisson_n_max,
)
from photonlink.link import EXCITED, GROUND, build_cycle_kernel
from photonlink.physics import (
    CycleTiming,
    DeviceParams,
    detection_prob_single,
    excited_kernel,
    ground_return_prob,
    readout_prob,
)
from photonlink.rng import substream

DEV = DeviceParams(kappa=2 * np.pi * 1e8, gamma=2 * np.pi * 1e5, p_reset_g=0.0, p_reset_e=0.0)
T_C = 230e-9


class TestArrivalTrace:
    def test_empty_ok(self):
        assert len(ArrivalTrace(np.array([]), T_C)) == 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([2e-9, 1e-9]), T_C)

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([T_C * 1.5]), T_C)


def quadratic_dp_batch(times, t_c, dev):
    """The renewal DP in its O(n^2) form, the reference of _dp_batch: W[:, j] is the probability
    that photon j transitions, summed over the previous transition photon i with the step factor
    f_b(t_j - t_i) - f_b(t_{j-1} - t_i); the excited weight of each transition photon closes it."""
    m, n = times.shape
    if n == 0:
        return np.zeros(m)
    W = np.zeros((m, n))
    W[:, 0] = 1.0
    for j in range(1, n):
        dt_g = times[:, j : j + 1] - times[:, :j]
        dt_e = times[:, j - 1 : j] - times[:, :j]
        step = ground_return_prob(dt_g, dev) - ground_return_prob(dt_e, dev)
        W[:, j] = np.einsum("ij,ij->i", W[:, :j], step)
    tail = excited_kernel(t_c - times, dev.kappa, dev.gamma)
    return np.clip(np.einsum("ij,ij->i", W, tail), 0.0, 1.0)


class TestGivenArrivals:
    def test_empty_trace(self):
        assert excitation_given_arrivals(ArrivalTrace(np.array([]), T_C), DEV) == 0.0

    def test_single_photon_reduces_to_kernel(self):
        t1 = 80e-9
        trace = ArrivalTrace(np.array([t1]), T_C)
        got = excitation_given_arrivals(trace, DEV)
        assert got == pytest.approx(float(excited_kernel(T_C - t1, DEV.kappa, DEV.gamma)), rel=1e-12)

    def test_dp_equals_enumeration(self):
        rng = substream(21, 0)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            times = np.sort(rng.random(n)) * T_C
            trace = ArrivalTrace(times, T_C)
            dp = excitation_given_arrivals(trace, DEV)
            en = excitation_given_arrivals_bruteforce(trace, DEV)
            assert abs(dp - en) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 15])
    def test_linear_dp_matches_quadratic(self, n):
        rng = substream(21, 6, n)
        for case in range(60):
            t_c = float(rng.uniform(0.5, 2.0))
            kappa = float(rng.uniform(2.0, 400.0)) / t_c
            # every third case puts gamma exactly on r = kappa/4, every fifth at 0
            gamma = kappa / 4 if case % 3 == 0 else 0.0 if case % 5 == 0 else float(rng.uniform(0.0, 8.0)) / t_c
            dev = DeviceParams(kappa=kappa, gamma=gamma)
            times = np.sort(rng.random((50, n)) * t_c, axis=1)
            got = _dp_batch(times, t_c, dev)
            assert np.max(np.abs(got - quadratic_dp_batch(times, t_c, dev)), initial=0.0) <= 1e-14

    def test_four_photon_point_vs_mc(self):
        times = np.array([20e-9, 60e-9, 61e-9, 200e-9])
        trace = ArrivalTrace(times, T_C)
        dp = excitation_given_arrivals(trace, DEV)
        en = excitation_given_arrivals_bruteforce(trace, DEV)
        assert abs(dp - en) < 1e-12
        rng = substream(21, 1)
        n = 400_000
        avail = np.zeros(n)
        last_fire = np.full(n, np.inf)
        last_decay = np.full(n, np.inf)
        for tj in times:
            take = tj >= avail
            fire = tj + rng.exponential(4.0 / DEV.kappa, n)
            decay = fire + rng.exponential(1.0 / DEV.gamma, n)
            last_fire = np.where(take, fire, last_fire)
            last_decay = np.where(take, decay, last_decay)
            avail = np.where(take, decay, avail)
        exc = (last_fire <= T_C) & (last_decay > T_C)
        se = max(exc.std(ddof=1) / math.sqrt(n), 1e-9)
        assert abs(dp - exc.mean()) < 3 * se

    def test_transition_set_total_probability(self):
        rng = substream(21, 2)
        times = np.sort(rng.random(5)) * T_C
        trace = ArrivalTrace(times, T_C)
        total = sum(
            transition_set_probability(trace, DEV, [0] + [i + 1 for i, b in enumerate(mask) if b])
            for mask in itertools.product((0, 1), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance(self):
        rng = substream(21, 3)
        times = np.sort(rng.random(4)) * (T_C / 2)
        base = excitation_given_arrivals(ArrivalTrace(times, T_C), DEV)
        shift = T_C / 4
        moved = excitation_given_arrivals(ArrivalTrace(times + shift, T_C + shift), DEV)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_in_unit_interval(self):
        rng = substream(21, 4)
        for _ in range(40):
            n = int(rng.integers(0, 12))
            times = np.sort(rng.random(n)) * T_C
            v = excitation_given_arrivals(ArrivalTrace(times, T_C), DEV)
            assert 0.0 <= v <= 1.0


class TestGivenCount:
    def test_zero_photons(self):
        est = excitation_given_count(0, T_C, DEV, rng=substream(0, 0xD0))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_one_photon_quadrature(self):
        est = excitation_given_count(1, T_C, DEV, rng=substream(0, 0xD0))
        # independent oracle: fixed-grid Simpson over the uniform arrival
        grid = np.linspace(0.0, T_C, 20001)
        vals = excited_kernel(T_C - grid, DEV.kappa, DEV.gamma)
        oracle = integrate.simpson(vals, x=grid) / T_C
        assert est.stderr == 0.0
        assert est.value == pytest.approx(oracle, abs=1e-6)

    def test_three_photons_vs_independent_mc(self):
        dev = DeviceParams(kappa=4 * 10 / T_C, gamma=0.01 / T_C)
        est = excitation_given_count(3, T_C, dev, mc_samples=40_000, rng=substream(21, 5))
        rng = substream(21, 6)
        n = 400_000
        times = np.sort(rng.random((n, 3)) * T_C, axis=1)
        avail = np.zeros(n)
        last_fire = np.full(n, np.inf)
        last_decay = np.full(n, np.inf)
        for j in range(3):
            t = times[:, j]
            take = t >= avail
            fire = t + rng.exponential(4.0 / dev.kappa, n)
            decay = fire + rng.exponential(1.0 / dev.gamma, n)
            last_fire = np.where(take, fire, last_fire)
            last_decay = np.where(take, decay, last_decay)
            avail = np.where(take, decay, avail)
        exc = (last_fire <= T_C) & (last_decay > T_C)
        se = math.hypot(est.stderr, exc.std(ddof=1) / math.sqrt(n))
        assert abs(est.value - exc.mean()) < 4 * se


class TestPoissonMixture:
    def test_zero_rate(self):
        est = excitation_poisson(0.0, CycleTiming(T_C, 35e-9, 48e-9), DEV, rng_seed=2)
        assert est.value == 0.0

    def test_seed_is_required(self):
        # no stochastic routine falls back to a fixed seed of its own
        with pytest.raises(TypeError, match="rng_seed"):
            excitation_poisson(0.1 / T_C, CycleTiming(T_C, 35e-9, 48e-9), DEV)
        with pytest.raises(TypeError, match="seed"):
            ConditionalExcitationTable(T_C, DEV)

    def test_first_order_expansion(self):
        # slope at lambda -> 0 equals E[single-photon conditional] * T_c
        timing = CycleTiming(T_C, 35e-9, 48e-9)
        mean = 1e-3
        est = excitation_poisson(mean / T_C, timing, DEV, rng_seed=3)
        single = excitation_given_count(1, T_C, DEV, rng=substream(0, 0xD0)).value
        decay = math.exp(-DEV.gamma * timing.delta_o)
        first_order = mean * math.exp(-mean) * single * decay
        assert est.value == pytest.approx(first_order, rel=0.02)

    def test_decay_factor_applied(self):
        t1 = CycleTiming(T_C, 35e-9, 48e-9)
        t2 = CycleTiming(T_C, 70e-9, 48e-9)
        lam = 0.5 / T_C
        a = excitation_poisson(lam, t1, DEV, rng_seed=4)
        b = excitation_poisson(lam, t2, DEV, rng_seed=4)
        ratio = math.exp(-DEV.gamma * 35e-9)
        assert b.value / a.value == pytest.approx(ratio, rel=1e-9)

    def test_truncation_insensitive(self):
        timing = CycleTiming(T_C, 35e-9, 48e-9)
        lam = 2.0 / T_C
        a = excitation_poisson(lam, timing, DEV, eps_trunc=1e-10, rng_seed=5, mc_samples=20_000)
        b = excitation_poisson(lam, timing, DEV, eps_trunc=1e-12, rng_seed=5, mc_samples=20_000)
        assert abs(a.value - b.value) < 1e-9

    def test_matches_event_driven_mc(self, ref_dev, ref_timing):
        lam = 2.0 / ref_timing.t_c
        est = excitation_poisson(lam, ref_timing, ref_dev, rng_seed=6, mc_samples=50_000)
        st = mc_detector(lam, ref_timing, ref_dev, replicas=400_000, rng=substream(21, 7))
        se = math.hypot(est.stderr, st.excited_at_obs.stderr)
        assert abs(est.value - st.excited_at_obs.value) < 3 * se

    def test_n_max_tail(self):
        for mean, eps in [(0.5, 1e-10), (10.0, 1e-12), (0.0, 1e-10)]:
            n = _poisson_n_max(mean, eps)
            from scipy import stats

            if mean > 0:
                assert stats.poisson.sf(n, mean) < eps
                assert stats.poisson.sf(n - 1, mean) >= eps
            else:
                assert n == 0


def expm_excitation(lam, timing, dev):
    """[expm(Q t_c)]_{G,E} exp(-gamma delta_o) by scipy's Pade expm."""
    r, g = dev.transition_rate, dev.gamma
    q = np.array([[-lam, lam, 0.0], [0.0, -r, r], [g, 0.0, -g]])
    return float(expm(q * timing.t_c)[0, 2]) * math.exp(-g * timing.delta_o)


class TestExcitationCtmc:
    @staticmethod
    def _cases():
        """(lam, timing, dev) at random points and at every branch edge of the closed form."""
        rng = substream(21, 12)
        cases = []
        for _ in range(200):
            t_c = float(rng.uniform(0.1, 3.0))
            timing = CycleTiming(t_c, t_c * float(rng.uniform(0.01, 0.3)), t_c * 0.1)
            dev = DeviceParams(kappa=4.0 * 10 ** float(rng.uniform(-2, 3)) / t_c,
                               gamma=10 ** float(rng.uniform(-3, 2)) / t_c)
            cases.append((10 ** float(rng.uniform(-3, 2)) / t_c, timing, dev))
        timing = CycleTiming(1.0, 0.1, 0.1)
        for r in (0.3, 1.0, 7.0):
            dev = DeviceParams(kappa=4.0 * r, gamma=r)
            # lam = 4r, gamma = r: coincident roots (d = 0), then just off them
            for eps in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
                cases.append((4.0 * r * (1.0 + eps), timing, dev))
        for x in (0.1, 1.0, 5.0, 30.0):  # complex roots
            cases.append((x, timing, DeviceParams(kappa=4.0 * x, gamma=x)))
            cases.append((x, timing, DeviceParams(kappa=8.0 * x, gamma=x)))
        for g in (0.0, 1.0):  # lambda = 0 and gamma = 0
            for lam in (0.0, 1e-8, 0.1, 3.0, 100.0):
                cases.append((lam, timing, DeviceParams(kappa=8.0, gamma=g)))
        for g in (0.0, 0.14, 30.0):  # kappa t_c = 1e5
            for lam in (1e-3, 0.01, 1.0, 10.0, 1e3):
                cases.append((lam, timing, DeviceParams(kappa=1e5, gamma=g)))
        return cases

    def test_matches_expm(self):
        worst = max(
            abs(excitation_ctmc(lam, timing, dev) - expm_excitation(lam, timing, dev))
            for lam, timing, dev in self._cases()
        )
        assert worst <= 1e-11

    def test_vectorised_equals_pointwise(self, ref_dev, ref_timing):
        lams = np.geomspace(0.01, 10.0, 16) / ref_timing.t_c
        vec = excitation_ctmc(lams, ref_timing, ref_dev)
        assert vec.shape == lams.shape
        for lam, v in zip(lams, vec):
            assert v == pytest.approx(excitation_ctmc(float(lam), ref_timing, ref_dev), rel=1e-14)

    def test_huge_rate_saturates_without_overflow(self, ref_dev, ref_timing):
        # past |lam - r - gamma| = 1e154 the square in d overflows, and d = |lam - r - gamma| / 2 to the last bit
        p = excitation_ctmc(np.array([1e106, 1e206]), ref_timing, ref_dev)
        assert p[1] == pytest.approx(p[0], rel=1e-15)
        assert p[0] == pytest.approx(ref_dev.transition_rate / (ref_dev.transition_rate + ref_dev.gamma)
                                     * math.exp(-ref_dev.gamma * ref_timing.delta_o), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 2 * np.pi * 1e5], ids=["gamma-0", "gamma-ref"])
    def test_every_finite_rate_reads_a_probability(self, ref_timing, gamma):
        # past lam = 1e299 the product lam r in c overflows: lam is factored out of c there, and
        # only there, so the excitation saturates up to the largest double and the rates below keep their bits
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=gamma)
        lams = np.array([1.0e6, 1.0e100, 1.0e200, 1.0e298, 1.0e300, 1.5e300, 1.0e305, sys.float_info.max])
        p = excitation_ctmc(lams, ref_timing, dev)
        assert p.tolist() == [excitation_ctmc(float(lam), ref_timing, dev) for lam in lams]
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert p[3:] == pytest.approx(p[1], rel=1e-15)

    def test_zero_rate_and_rejects_negative(self, ref_dev, ref_timing):
        assert excitation_ctmc(0.0, ref_timing, ref_dev) == 0.0
        with pytest.raises(ValueError):
            excitation_ctmc(-1.0, ref_timing, ref_dev)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0], ids=["inf", "nan", "negative"])
    def test_rejects_rate_naming_it(self, ref_dev, ref_timing, bad):
        with pytest.raises(ValueError, match=f"lambda must be finite and >= 0, got {bad}"):
            excitation_ctmc(np.array([1.0, bad, 2.0]), ref_timing, ref_dev)
        with pytest.raises(ValueError, match=f"got {bad}"):
            excitation_ctmc(bad, ref_timing, ref_dev)

    @pytest.mark.parametrize("mean", [0.1, 1.0, 3.0])
    def test_matches_renewal_dp_and_mc(self, mean):
        dev = DeviceParams(kappa=4 * 10 / T_C, gamma=0.5 / T_C)
        timing = CycleTiming(T_C, 35e-9, 48e-9)
        lam = mean / T_C
        exact = excitation_ctmc(lam, timing, dev)
        dp = ConditionalExcitationTable(T_C, dev, mc_samples=20_000, seed=8).poisson_mixture(
            lam, delta_o=timing.delta_o)
        assert abs(exact - dp.value) < 4 * dp.stderr
        st = mc_detector(lam, timing, dev, replicas=400_000, rng=substream(21, 13, int(mean * 10)))
        assert abs(exact - st.excited_at_obs.value) < 4 * st.excited_at_obs.stderr


class TestMcDetector:
    def test_no_photons_no_dark_counts(self, ref_timing):
        st = mc_detector(0.0, ref_timing, DEV, replicas=20_000, rng=substream(21, 8))
        assert st.readout_bit.value == 0.0

    def test_wrong_reset_decay_only(self, ref_dev, ref_timing):
        st = mc_detector(0.0, ref_timing, ref_dev, enter_excited=True, replicas=400_000,
                         rng=substream(21, 9))
        expect = math.exp(-ref_dev.gamma * ref_timing.t_w) * math.exp(
            -ref_dev.gamma * (ref_timing.t_c + ref_timing.delta_o)
        )
        assert abs(st.readout_bit.value - expect) < 4 * st.readout_bit.stderr

    def test_deterministic_given_seed(self, ref_timing):
        a = mc_detector(0.5 / T_C, ref_timing, DEV, replicas=10_000, rng=substream(21, 10))
        b = mc_detector(0.5 / T_C, ref_timing, DEV, replicas=10_000, rng=substream(21, 10))
        assert a == b

    def test_reset_error_frequencies(self, ref_timing):
        dev = DeviceParams(kappa=DEV.kappa, gamma=DEV.gamma, p_reset_g=0.2, p_reset_e=0.8)
        st = mc_detector(1.0 / T_C, ref_timing, dev, replicas=200_000, rng=substream(21, 11))
        p1 = st.readout_bit.value
        expect_ok = (1 - 0.8) * p1 + (1 - 0.2) * (1 - p1)
        assert st.reset_ok.value == pytest.approx(expect_ok, abs=4 * st.reset_ok.stderr + 4 * st.readout_bit.stderr)


class TestStageProbabilities:
    """The capture, readout and reset stages of one cycle: the miss sweep's
    rows, physics.readout_prob and the reset law of build_cycle_kernel."""

    def test_zero_rate(self, ref_timing):
        dev = DeviceParams(kappa=DEV.kappa, gamma=DEV.gamma, p_reset_g=0.01, p_reset_e=0.05)
        row = miss_probability_sweep([(0.0, dev.kappa, dev.gamma)], ref_timing, dev).rows[0]
        assert row["p_capture"] == 0.0
        assert row["p_readout"] == 0.0
        assert row["p_miss"] == 1.0
        kernel = build_cycle_kernel(dev, ref_timing, 0.0, 0.0)
        reset_err = kernel.bit_given_entry[GROUND] @ kernel.exit_given_bit[:, EXCITED]
        assert reset_err == pytest.approx(0.01, abs=1e-15)

    def test_no_decay_readout_equals_capture(self):
        dev = DeviceParams(kappa=DEV.kappa, gamma=0.0)
        timing = CycleTiming(T_C, 35e-9, 48e-9)
        row = miss_probability_sweep([(0.5 / T_C, dev.kappa, dev.gamma)], timing, dev).rows[0]
        assert row["p_readout"] == pytest.approx(row["p_capture"], rel=1e-12)

    def test_chain_identities(self, ref_timing):
        dev = DeviceParams(kappa=DEV.kappa, gamma=DEV.gamma, p0=0.02, p_reset_g=0.01, p_reset_e=0.05)
        lam = 0.8 / T_C
        row = miss_probability_sweep([(lam, dev.kappa, dev.gamma)], ref_timing, dev).rows[0]
        p_w = math.exp(-dev.gamma * ref_timing.t_w)
        assert row["p_readout"] == pytest.approx(p_w * row["p_capture"], rel=1e-12)
        # the reset marginal: the kernel's reset law at the readout bit of a ground entry
        kernel = build_cycle_kernel(dev, ref_timing, lam, 0.0)
        assert kernel.bit_given_entry[GROUND, 1] == pytest.approx(row["p_readout"], rel=1e-15)
        reset_err = kernel.bit_given_entry[GROUND] @ kernel.exit_given_bit[:, EXCITED]
        expect_re = 0.01 * (1 - row["p_readout"]) + 0.05 * row["p_readout"]
        assert reset_err == pytest.approx(expect_re, rel=1e-12)

    def test_exact_chain(self, ref_dev, ref_timing):
        lam = 0.8 / T_C
        row = miss_probability_sweep([(lam, ref_dev.kappa, ref_dev.gamma)], ref_timing, ref_dev).rows[0]
        # p0 = 0: the capture stage is the excitation, and the readout its decay over t_w
        assert row["p_capture"] == pytest.approx(excitation_ctmc(lam, ref_timing, ref_dev), rel=1e-15)
        assert row["p_capture"] == detection_prob_single(row["p_capture"], ref_dev)
        assert row["p_readout"] == readout_prob(row["p_capture"], ref_timing, ref_dev)
        assert row["p_readout"] == math.exp(-ref_dev.gamma * ref_timing.t_w) * row["p_capture"]
        assert row["stderr"] == 0.0

    def test_readout_prob_vectorised_matches_pointwise(self, ref_timing):
        dev = DeviceParams(kappa=DEV.kappa, gamma=DEV.gamma, p0=0.03)
        p_exc = np.array([0.0, 1e-9, 0.25, 0.5, 0.999, 1.0])
        vec = readout_prob(detection_prob_single(p_exc, dev), ref_timing, dev)
        assert vec.tolist() == [readout_prob(detection_prob_single(float(p), dev), ref_timing, dev) for p in p_exc]
        assert isinstance(readout_prob(detection_prob_single(0.25, dev), ref_timing, dev), float)
        # p0 flips: at p_exc = 0 the bit reads 1 with probability p0, then decays
        assert vec[0] == math.exp(-dev.gamma * ref_timing.t_w) * 0.03


class TestMissSweep:
    def test_schema_and_monotonicity(self, ref_timing):
        means = np.geomspace(0.05, 5.0, 8)
        grid = [(m / T_C, DEV.kappa, DEV.gamma) for m in means]
        report = miss_probability_sweep(grid, ref_timing, DEV)
        assert list(report.columns) == [
            "lambda", "kappa", "gamma", "t_c", "delta_o", "t_w", "p_capture", "p_readout", "p_miss", "stderr",
        ]
        assert len(report.rows) == len(grid)
        miss = [row["p_miss"] for row in report.rows]
        err = [row["stderr"] for row in report.rows]
        for i in range(len(miss) - 1):
            assert miss[i + 1] <= miss[i] + 3 * (err[i] + err[i + 1])

    def test_larger_kappa_lower_miss(self, ref_timing):
        lam = 0.5 / T_C
        grid = [(lam, 2 * np.pi * 1e8, DEV.gamma), (lam, 2 * np.pi * 1e9, DEV.gamma)]
        report = miss_probability_sweep(grid, ref_timing, DEV)
        assert report.rows[1]["p_miss"] < report.rows[0]["p_miss"]

    def test_rows_match_stage_probabilities(self, ref_timing):
        # interleaved (kappa, gamma) groups come back in grid order, each row
        # the readout chain of its own point
        dev_template = replace(DEV, p0=0.02)
        grid = [(m / T_C, k, DEV.gamma) for m in (0.1, 2.0, 0.5) for k in (2 * np.pi * 1e8, 2 * np.pi * 1e9)]
        report = miss_probability_sweep(grid, ref_timing, dev_template)
        for (lam, kappa, gamma), row in zip(grid, report.rows):
            dev = replace(dev_template, kappa=kappa, gamma=gamma)
            p_exc = excitation_ctmc(lam, ref_timing, dev)
            assert (row["lambda"], row["kappa"]) == (lam, kappa)
            assert row["p_capture"] == pytest.approx(detection_prob_single(p_exc, dev), rel=1e-14)
            assert row["p_readout"] == pytest.approx(
                readout_prob(detection_prob_single(p_exc, dev), ref_timing, dev), rel=1e-14
            )
            assert row["stderr"] == 0.0

    def test_rejects_empty_grid(self, ref_timing):
        with pytest.raises(ValueError):
            miss_probability_sweep([], ref_timing, DEV)
