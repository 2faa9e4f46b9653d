import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink.errors import NotSaturatingError
from photonlink.physics import CycleTiming, DeviceParams
from photonlink.rng import substream
from photonlink.saturation import (
    CutoffFit,
    SaturationWindow,
    pair_survival_integrals,
    cutoff_photon_number,
    delta_lambda,
    filter_survivors,
    find_lambda0,
    first_survivor_excitation,
    fit_cutoff_curve,
    log_grid,
    poisson_weighted_moments,
    saturated_excitation,
    saturation_gap,
    survivor_mask,
    survivor_moments_given_count,
    survivor_moments_poisson,
)
from photonlink.validate import cutoff_law


class TestFilter:
    W = SaturationWindow(tau=1.0)

    def test_single_photon_survives(self):
        assert filter_survivors([3.0], self.W).tolist() == [3.0]

    def test_pair_window(self):
        assert filter_survivors([0.0, 0.5], self.W).size == 0
        assert filter_survivors([0.0, 2.0], self.W).tolist() == [0.0, 2.0]

    def test_middle_destroyed(self):
        assert filter_survivors([0.0, 0.4, 2.5, 5.0], self.W).tolist() == [2.5, 5.0]

    def test_idempotent_and_translation_invariant(self):
        rng = substream(31, 0)
        for _ in range(50):
            t = np.sort(rng.random(rng.integers(0, 20)) * 10.0)
            s = filter_survivors(t, self.W)
            assert filter_survivors(s, self.W).tolist() == s.tolist()
            shifted = filter_survivors(t + 5.0, self.W)
            assert np.allclose(shifted, s + 5.0)
            assert s.size <= t.size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), max_size=30), st.floats(0.01, 10.0))
    def test_survivors_are_subset(self, times, tau):
        t = np.sort(np.asarray(times))
        s = filter_survivors(t, SaturationWindow(tau))
        assert set(np.round(s, 12)) <= set(np.round(t, 12))


class TestMomentsGivenCount:
    def test_identities(self):
        assert survivor_moments_given_count(0, 0.1, 1.0).mean == 0.0
        m1 = survivor_moments_given_count(1, 0.1, 1.0)
        assert m1.mean == 1.0 and m1.second_moment == 1.0 and m1.variance == 0.0
        m = survivor_moments_given_count(9, 0.0, 1.0)
        assert m.mean == 9.0

    def test_frozen_point(self):
        m = survivor_moments_given_count(5, 0.1, 1.0)
        assert m.mean == pytest.approx(2.16402, abs=1e-5)
        assert m.second_moment == pytest.approx(6.30246, abs=1e-5)

    def test_against_mc(self):
        rng = substream(31, 1)
        for n, ratio in [(2, 4.0), (5, 10.0), (12, 8.0)]:
            tau, t_c = 1.0 / ratio, 1.0
            reps = 300_000
            t = np.sort(rng.random((reps, n)) * t_c, axis=1)
            s = survivor_mask(t, tau).sum(axis=1).astype(float)
            m = survivor_moments_given_count(n, tau, t_c)
            z1 = abs(s.mean() - m.mean) / (s.std(ddof=1) / math.sqrt(reps))
            s2 = s * s
            z2 = abs(s2.mean() - m.second_moment) / (s2.std(ddof=1) / math.sqrt(reps))
            assert z1 < 4 and z2 < 4

    def test_mean_bounded_by_count(self):
        for n in range(0, 30):
            m = survivor_moments_given_count(n, 0.05, 1.0)
            assert m.mean <= n + 1e-12

    def test_window_ratio_guard(self):
        with pytest.raises(ValueError):
            survivor_moments_given_count(3, 0.3, 1.0)


class TestLemma:
    def test_plain_poisson(self):
        e0, e1, e2 = poisson_weighted_moments(1.0, 3.0)
        assert (e0, e1, e2) == pytest.approx((1.0, 3.0, 12.0), rel=1e-14)

    def test_zero_mean(self):
        assert poisson_weighted_moments(0.5, 0.0) == pytest.approx((1.0, 0.0, 0.0))

    def test_frozen_point(self):
        e0, e1, e2 = poisson_weighted_moments(0.5, 2.0)
        assert e0 == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert e1 == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert e2 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


class TestMomentsPoisson:
    def test_zero_rate(self):
        m = survivor_moments_poisson(0.0, 0.1, 1.0)
        assert m.mean == 0.0 and m.second_moment == 0.0 and m.variance == 0.0
        assert m.regime == "poisson-boundary"

    def test_vanishing_window(self):
        lam, t_c = 3.0, 1.0
        m = survivor_moments_poisson(lam, t_c * 1e-9, t_c)
        assert m.mean == pytest.approx(lam * t_c, rel=1e-6)

    def test_frozen_point_and_mc(self):
        m = survivor_moments_poisson(1.0, 0.1, 1.0)
        assert m.mean == pytest.approx(0.82720, abs=1e-5)
        rng = substream(31, 2)
        reps = 400_000
        counts = rng.poisson(1.0, reps)
        nmax = counts.max()
        t = rng.random((reps, int(nmax)))
        t[np.arange(nmax)[None, :] >= counts[:, None]] = np.inf
        t.sort(axis=1)
        s = survivor_mask(t, 0.1).sum(axis=1).astype(float)
        z = abs(s.mean() - m.mean) / (s.std(ddof=1) / math.sqrt(reps))
        assert z < 4

    def test_mean_bounded_by_flux(self):
        for a in np.geomspace(0.01, 30.0, 50):
            m = survivor_moments_poisson(a, 1.0, 8.0)
            assert m.mean <= a * 8.0 + 1e-12

    def test_variance_nonnegative(self):
        for lam in np.geomspace(0.001, 40.0, 80):
            assert survivor_moments_poisson(lam, 1.0, 6.0).variance >= 0.0


class TestDispersionCrossover:
    def test_zero_rate_boundary(self):
        assert delta_lambda(0.0, 1.0, 10.0) == 0.0

    def test_sign_pattern(self):
        assert delta_lambda(1e-3, 1.0, 10.0) > 0
        assert delta_lambda(10.0, 1.0, 10.0) < 0

    def test_matches_moment_difference(self):
        for a, ratio in [(0.3, 5.0), (1.5, 10.0), (4.0, 20.0)]:
            m = survivor_moments_poisson(a, 1.0, ratio)
            assert delta_lambda(a, 1.0, ratio) == pytest.approx(m.mean - m.variance, abs=1e-12)

    def test_crossover_location(self):
        for ratio in (4.0, 8.0, 16.0):
            lam0 = find_lambda0(1.0, ratio)
            assert delta_lambda(lam0 * 0.99, 1.0, ratio) > 0
            assert delta_lambda(lam0 * 1.01, 1.0, ratio) < 0

    def test_regime_labels(self):
        tau, ratio = 1.0, 10.0
        lam0 = find_lambda0(tau, ratio)
        assert survivor_moments_poisson(lam0 / 2, tau, ratio).regime == "sub-poisson"
        assert survivor_moments_poisson(lam0 * 2, tau, ratio).regime == "super-poisson"


class TestAppendixPieces:
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("ratio", [0.05, 0.2])
    def test_numeric_matches_closed(self, n, ratio):
        p = pair_survival_integrals(n, ratio, 1.0)
        for num, clo in zip(p.numeric, p.closed):
            assert num == pytest.approx(clo, rel=1e-8)

    def test_recombines_into_second_moment(self):
        for n, ratio in [(2, 0.1), (5, 0.05), (7, 0.2)]:
            p = pair_survival_integrals(n, ratio, 1.0)
            m = survivor_moments_given_count(n, ratio, 1.0)
            recombined = m.mean + n * (n - 1) * p.pair_survival_numeric
            assert recombined == pytest.approx(m.second_moment, rel=1e-9)

    def test_vanishing_window_pair_survival(self):
        p = pair_survival_integrals(4, 1e-9, 1.0)
        assert p.pair_survival_closed == pytest.approx(1.0, abs=1e-6)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            pair_survival_integrals(1, 0.1, 1.0)


class TestSaturatedExcitation:
    TIMING = CycleTiming(230e-9, 35e-9, 48e-9)

    def test_zero_rate(self, ref_dev):
        est = saturated_excitation(0.0, self.TIMING, ref_dev, replicas=2000, rng=substream(31, 3))
        assert est.value == 0.0

    def test_low_power_gap_negligible(self, ref_dev):
        lam = 0.05 / self.TIMING.t_c
        gap, sat = saturation_gap(lam, self.TIMING, ref_dev, replicas=150_000, rng=substream(31, 4))
        unpaired_se = math.sqrt(sat.value * (1 - sat.value) / 150_000)
        assert abs(gap.value) + 2 * gap.stderr < 2 * unpaired_se

    def test_decreases_after_plateau(self, ref_dev):
        means = [1.0, 10.0, 20000.0]
        vals = [
            saturated_excitation(m / self.TIMING.t_c, self.TIMING, ref_dev, replicas=3000,
                                 rng=substream(31, 5, int(m))).value
            for m in means
        ]
        assert vals[1] > 0.5
        assert vals[2] < 0.5 * vals[1]

    def test_gamma0_fast_path_matches_general(self):
        # near the 3 dB drop, where both estimators see nontrivial survivors
        dev0 = DeviceParams(kappa=2 * np.pi * 1e9, gamma=0.0)
        dev_eps = DeviceParams(kappa=2 * np.pi * 1e9, gamma=1.0)  # ~zero on cycle scales
        lam = 6000.0 / self.TIMING.t_c
        fast = saturated_excitation(lam, self.TIMING, dev0, replicas=6000, rng=substream(31, 6))
        slow = saturated_excitation(lam, self.TIMING, dev_eps, replicas=6000, rng=substream(31, 7))
        assert 0.05 < fast.value < 0.95
        assert abs(fast.value - slow.value) < 4 * math.hypot(fast.stderr, slow.stderr)

    def test_wrong_reset_no_photons(self, ref_dev):
        est = saturated_excitation(0.0, self.TIMING, ref_dev, enter_excited=True,
                                   replicas=100_000, rng=substream(31, 8))
        expect = math.exp(-ref_dev.gamma * self.TIMING.t_obs)
        assert abs(est.value - expect) < 4 * est.stderr


class TestFirstSurvivorExcitation:
    T_C = 230e-9

    def dev(self, kappa_tc):
        return DeviceParams(kappa=kappa_tc / self.T_C, gamma=0.0)

    def test_matches_monte_carlo(self):
        # shoulder of the plateau, 3 dB point and tail at three window sizes;
        # the top of the plateau is left out because nearly every replica
        # reads 1 there and the Monte Carlo spread is degenerate
        timing = CycleTiming(self.T_C, self.T_C * 1e-9, self.T_C * 1e-9)
        zs = []
        for i, ktc in enumerate((1e2, 1e3, 1e4)):
            for j, nbar in enumerate((5.0, cutoff_law(ktc), 1.2 * cutoff_law(ktc))):
                exact = float(first_survivor_excitation(nbar / self.T_C, self.T_C, self.dev(ktc)))
                mc = saturated_excitation(
                    nbar / self.T_C, timing, self.dev(ktc), replicas=int(min(8000, 4e7 / nbar)),
                    rng=substream(31, 20, i, j),
                )
                assert mc.stderr > 0
                zs.append((exact - mc.value) / mc.stderr)
        assert len(zs) >= 8
        assert max(abs(z) for z in zs) < 4.0, zs

    def test_step_halving(self):
        for ktc in (1e2, 10**2.5, 1e3, 1e4, 1e5):
            lam = np.geomspace(0.5, 3.0 * cutoff_law(ktc), 60) / self.T_C
            coarse = first_survivor_excitation(lam, self.T_C, self.dev(ktc))
            fine = first_survivor_excitation(lam, self.T_C, self.dev(ktc), cells_per_tau=32)
            assert np.abs(coarse - fine).max() <= 1e-5

    def test_zero_rate(self):
        assert first_survivor_excitation(0.0, self.T_C, self.dev(1e3)) == 0.0

    def test_low_rate_limit(self):
        # to first order in lam every photon survives and arms the detector:
        # P = lam t_c - lam (1 - e^{-r t_c}) / r, r = kappa/4
        for ktc in (5.0, 1e2, 1e4):
            dev = self.dev(ktc)
            lam = 1e-5 / self.T_C
            r = dev.transition_rate
            first_order = lam * self.T_C + lam * math.expm1(-r * self.T_C) / r
            got = float(first_survivor_excitation(lam, self.T_C, dev))
            assert abs(got / first_order - 1.0) < 1e-4

    def test_continuous_across_whole_blocks(self):
        # t_c/tau just below, at and just above a whole number of blocks
        # changes the number of squared block maps and the final partial block
        lam = np.array([5.0, 400.0, 1000.0]) / self.T_C
        for blocks in (100, 1001, 8193):
            tau = self.T_C / blocks
            vals = [
                first_survivor_excitation(lam, self.T_C * (1 + eps), self.dev(1e3), SaturationWindow(tau))
                for eps in (-1e-7, 0.0, 1e-7)
            ]
            assert np.abs(vals[0] - vals[1]).max() < 1e-6
            assert np.abs(vals[2] - vals[1]).max() < 1e-6

    def test_vectorised_matches_pointwise(self):
        lam = np.geomspace(1.0, 2e4, 9) / self.T_C
        vec = first_survivor_excitation(lam, self.T_C, self.dev(1e3))
        assert vec.shape == lam.shape
        point = [float(first_survivor_excitation(x, self.T_C, self.dev(1e3))) for x in lam]
        assert vec.tolist() == point

    def test_extreme_window_and_rate(self):
        lam = np.array([0.5, 5e3, 5e5, 5e6]) / self.T_C
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            vals = first_survivor_excitation(lam, self.T_C, self.dev(1e5))
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert vals[-1] < 1e-12 < vals[1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            first_survivor_excitation(-1.0, self.T_C, self.dev(1e3))
        with pytest.raises(ValueError):
            first_survivor_excitation(1.0, self.T_C, self.dev(1e3), cells_per_tau=0)

    def test_drives_gamma0_cutoff_scan(self):
        # gamma = 0 with ground entry is scanned exactly and noise-free
        grid = log_grid(1.0, 3000.0, 12)
        res = cutoff_photon_number(self.dev(100.0), self.T_C, grid)
        expect = first_survivor_excitation(grid / self.T_C, self.T_C, self.dev(100.0))
        assert res.excitation.tolist() == expect.tolist()
        assert not np.any(res.stderr)


class TestCutoff:
    def test_synthetic_curve(self, monkeypatch):
        # inject a known monotone-decreasing curve halving at n = 100
        from photonlink import saturation as sat

        def fake(lam, t_c, dev, window=None, **kw):
            nbar = np.asarray(lam) * t_c
            return 1.0 / (1.0 + nbar / 100.0)

        monkeypatch.setattr(sat, "first_survivor_excitation", fake)
        dev = DeviceParams(kappa=1e9, gamma=0.0)
        grid = log_grid(1.0, 1e4, 40)
        res = sat.cutoff_photon_number(dev, 230e-9, grid, replicas=16, rng_seed=1)
        step = grid[1] / grid[0]
        assert 100.0 / step <= res.n_cutoff <= 100.0 * step

    def test_not_saturating_error(self, monkeypatch):
        from photonlink import saturation as sat

        monkeypatch.setattr(
            sat, "first_survivor_excitation",
            lambda lam, t_c, dev, window=None, **kw: np.full(np.shape(lam), 0.8),
        )
        dev = DeviceParams(kappa=1e9, gamma=0.0)
        with pytest.raises(NotSaturatingError):
            sat.cutoff_photon_number(dev, 230e-9, log_grid(1.0, 100.0, 10), replicas=16)

    def test_real_small_scan(self):
        dev = DeviceParams(kappa=100.0 / 230e-9, gamma=0.0)
        grid = log_grid(1.0, 3000.0, 12)
        res = cutoff_photon_number(dev, 230e-9, grid, replicas=256, rng_seed=5)
        # reference-scale sanity: fit predicts ~266 at kappa*t_c = 100
        assert 150.0 < res.n_cutoff < 450.0

    def test_gamma_barely_moves_cutoff(self):
        # the qubit decay rate has little effect on the 3 dB point: a
        # tenfold gamma increase moves the cutoff by about 11% here
        # (measured 10.5% at kappa*t_c = 1445 with high statistics)
        t_c = 230e-9
        grid = log_grid(30.0, 10000.0, 24)
        cutoffs = []
        for i, gamma in enumerate(2 * np.pi * np.array([1e5, 2e5, 4e5, 1e6])):
            dev = DeviceParams(kappa=1000.0 / t_c, gamma=gamma)
            res = cutoff_photon_number(
                dev, t_c, grid, replicas=512, rng_seed=7 + i, delta_o=35e-9
            )
            cutoffs.append(res.n_cutoff)
        spread = (max(cutoffs) - min(cutoffs)) / min(cutoffs)
        assert sorted(cutoffs, reverse=True) == cutoffs  # monotone in gamma
        assert spread < 0.15


class TestFit:
    def test_exact_recovery(self):
        xs = np.geomspace(100.0, 1e5, 9)
        ys = 1.457 * xs**1.132 - 0.8766
        fit = fit_cutoff_curve(list(zip(xs, ys)))
        assert fit.a == pytest.approx(1.457, abs=1e-6)
        assert fit.b == pytest.approx(1.132, abs=1e-6)
        assert fit.c == pytest.approx(-0.8766, abs=1e-4)
        assert fit.residual < 1e-10

    def test_noisy_recovery(self):
        rng = substream(31, 9)
        xs = np.geomspace(100.0, 1e5, 12)
        ys = (1.457 * xs**1.132 - 0.8766) * (1.0 + 0.05 * rng.standard_normal(xs.size))
        fit = fit_cutoff_curve(list(zip(xs, ys)))
        assert abs(fit.b - 1.132) < 0.05

    def test_range_guard(self):
        xs = np.geomspace(100.0, 1e5, 9)
        fit = fit_cutoff_curve(list(zip(xs, 2.0 * xs**1.1 + 1.0)))
        with pytest.raises(ValueError):
            fit.predict(10.0)

    def test_requires_two_decades(self):
        xs = np.geomspace(100.0, 900.0, 6)
        with pytest.raises(ValueError):
            fit_cutoff_curve(list(zip(xs, xs)))

    def test_b_positive_enforced(self):
        with pytest.raises(ValueError):
            CutoffFit(a=1.0, b=-0.5, c=0.0, residual=0.0, x_range=(1.0, 100.0))
