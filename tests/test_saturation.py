import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink.errors import NotSaturatingError, NumericsError
from photonlink.physics import CycleTiming, DeviceParams, _cell_weights, _phi
from photonlink.rng import substream
from photonlink.saturation import (
    CutoffFit,
    SurvivorOperator,
    _conv,
    _excitations,
    _poisson_sorted_arrivals,
    _require_window,
    cutoff_operator,
    pair_survival_integrals,
    cutoff_photon_number,
    cutoff_photon_numbers,
    delta_lambda,
    filter_survivors,
    find_lambda0,
    fit_cutoff_curve,
    log_grid,
    poisson_weighted_moments,
    saturated_excitation,
    scan_cutoff,
    survivor_excitation,
    survivor_mask,
    survivor_moments_given_count,
    survivor_moments_poisson,
)
from photonlink.detection import excitation_ctmc
from photonlink.validate import cutoff_law, survivor_excitation_z


def mask_by_concatenation(times, tau):
    """survivor_mask's former form, the reference of its one-diff form: the
    gaps padded with an inf column on either side, compared twice."""
    t = np.atleast_2d(np.asarray(times, dtype=float))
    if t.shape[1] == 0:
        mask = np.zeros_like(t, dtype=bool)
    else:
        with np.errstate(invalid="ignore"):
            gaps = np.diff(t, axis=1)
        big = np.full((t.shape[0], 1), np.inf)
        left_ok = np.concatenate([big, gaps], axis=1) >= tau
        right_ok = np.concatenate([gaps, big], axis=1) >= tau
        mask = left_ok & right_ok & np.isfinite(t)
    return mask[0] if np.asarray(times).ndim == 1 else mask


class TestFilter:
    TAU = 1.0

    def test_mask_matches_concatenation_form(self):
        rng = substream(31, 2)
        padded = [
            _poisson_sorted_arrivals(rng, mean, 64, 50.0)[0] for mean in (0.0, 0.5, 5.0, 40.0)
        ]
        one_d = [np.sort(rng.random(n) * 10.0) for n in (0, 1, 2, 30)]
        edge = [np.array([[3.0]]), np.array([[np.inf]]), np.zeros((0, 4)), np.zeros((3, 0)),
                np.array([[0.0, 1.0, 1.0, 2.0]])]
        for t in padded + one_d + edge:
            got, want = survivor_mask(t, self.TAU), mask_by_concatenation(t, self.TAU)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), t

    def test_single_photon_survives(self):
        assert filter_survivors([3.0], self.TAU).tolist() == [3.0]

    def test_pair_window(self):
        assert filter_survivors([0.0, 0.5], self.TAU).size == 0
        assert filter_survivors([0.0, 2.0], self.TAU).tolist() == [0.0, 2.0]

    def test_middle_destroyed(self):
        assert filter_survivors([0.0, 0.4, 2.5, 5.0], self.TAU).tolist() == [2.5, 5.0]

    def test_idempotent_and_translation_invariant(self):
        rng = substream(31, 0)
        for _ in range(50):
            t = np.sort(rng.random(rng.integers(0, 20)) * 10.0)
            s = filter_survivors(t, self.TAU)
            assert filter_survivors(s, self.TAU).tolist() == s.tolist()
            shifted = filter_survivors(t + 5.0, self.TAU)
            assert np.allclose(shifted, s + 5.0)
            assert s.size <= t.size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), max_size=30), st.floats(0.01, 10.0))
    def test_survivors_are_subset(self, times, tau):
        t = np.sort(np.asarray(times))
        s = filter_survivors(t, tau)
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
        assert m.delta == 0.0 and m.regime == "poisson-boundary"

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

    def test_exact_zeros_once_no_photon_survives(self):
        # e^{-lam tau} underflows past lam tau ~ 745, and (lam t_c)^2 overflows past 1e154
        for lt in (800.0, 1e200, math.inf):
            for ratio in (4.0, 10.0):
                m = survivor_moments_poisson(lt, 1.0, ratio)
                assert (m.mean, m.second_moment, m.variance, m.delta) == (0.0, 0.0, 0.0, 0.0)
                assert m.regime == "poisson-boundary"

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
        # delta is about -1e-17 here: the regime is its sign, with no tolerance
        m = survivor_moments_poisson(20.0, tau, 4.0)
        assert m.regime == "super-poisson"
        assert m.delta == delta_lambda(20.0, tau, 4.0) < 0

    def test_variance_cross_check(self, monkeypatch):
        from photonlink import saturation

        # a delta off by 1e-9 moves mean - delta past the 64 eps gate, and a nan delta fails it too
        for shift in (1e-9, math.nan):
            monkeypatch.setattr(
                saturation, "delta_lambda", lambda lam, tau, t_c, s=shift: delta_lambda(lam, tau, t_c) + s
            )
            with pytest.raises(NumericsError, match="variance forms disagree"):
                survivor_moments_poisson(1.0, 0.1, 1.0)


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
        assert float(sum(p.closed)) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            pair_survival_integrals(1, 0.1, 1.0)


class TestSaturatedExcitation:
    TIMING = CycleTiming(230e-9, 35e-9, 48e-9)

    def test_zero_rate(self, ref_dev):
        est = saturated_excitation(0.0, self.TIMING, ref_dev, replicas=2000, rng=substream(31, 3))
        assert est.value == 0.0

    def test_low_power_gap_negligible(self, ref_dev):
        # exact on both sides: far inside two Monte Carlo standard errors at 150k replicas
        lam = 0.05 / self.TIMING.t_c
        sat = float(survivor_excitation(lam, self.TIMING, ref_dev))
        gap = excitation_ctmc(lam, self.TIMING, ref_dev) - sat
        assert abs(gap) < 2 * math.sqrt(sat * (1 - sat) / 150_000)

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


def scaled_device(t_c, kappa_tc, gamma_tc=0.0, blocks=None) -> DeviceParams:
    """The device at kappa t_c and gamma t_c, with the dead time t_c / blocks when blocks is given."""
    kappa = kappa_tc / t_c
    alpha = {} if blocks is None else {"alpha_sat": kappa * t_c / blocks}
    return DeviceParams(kappa=kappa, gamma=gamma_tc / t_c, **alpha)


def survivor_excitation_reference(
    lam,
    timing: CycleTiming,
    dev: DeviceParams,
    enter_excited: bool = False,
    cells_per_tau: int = 16,
) -> np.ndarray:
    """survivor_excitation written as one function that builds and evaluates
    its discretisation in one pass: the bit-for-bit reference of SurvivorOperator."""
    lam = np.asarray(lam, dtype=float)
    shape = lam.shape
    lam = lam.ravel()
    if np.any(lam < 0):
        raise ValueError("lambda must be >= 0")
    if cells_per_tau < 1:
        raise ValueError("cells_per_tau must be >= 1")
    tau, t_c = dev.dead_time, timing.t_c
    _require_window(tau, t_c)
    exc = float(enter_excited)
    # rates in units of 1/tau, times in units of tau
    L = lam * tau
    R, G = dev.transition_rate * tau, dev.gamma * tau
    if abs(G - R) < 1e-8 * R:
        # B and A have a removable 0/0 at gamma = r; moving gamma by 1e-8 r
        # changes the result by about 1e-8, below the discretization error
        G = R * (1.0 + 1e-8)
    inv = 1.0 / (G - R)
    b_r, b_g = G * inv, -R * inv  # B(v) = b_r e^{-R v} + b_g e^{-G v}

    def D(v):
        v = np.asarray(v, dtype=float)
        return v * np.exp(-min(R, G) * v) * _phi(abs(G - R) * v)

    # block nodes; t_c = (n + rho) tau is snapped to 1e-9 tau
    blocks = t_c / tau
    n = int(math.floor(blocks + 1e-9))
    rho = max(blocks - n, 0.0)
    sigma = np.linspace(0.0, 1.0, cells_per_tau + 1)
    if np.abs(sigma - rho).min() > 1e-9:
        sigma = np.sort(np.append(sigma, rho))
    end = int(np.argmin(np.abs(sigma - rho)))  # node of t_c in its block
    m = sigma.size - 1

    # state: h on the 2m + 1 nodes of the window [k - 2, k] (block k is
    # next), the two running sums at k - 2, e^{-G (k - 1)} if excited, 1
    u = np.concatenate([sigma, 1.0 + sigma[1:]])
    width = np.diff(u)
    nh = 2 * m + 1
    i_r, i_d, i_e = nh, nh + 1, nh + 2
    one = nh + 2 + int(enter_excited)
    size = one + 1
    n_lam = lam.size

    def cells(lo, hi, terms, decay=None):
        """Weights (lower node, upper node) per row k and cell i of the integral of
        h(s) sum_(c, a) c_k e^{-a (u[hi_k] - s)} over nodes lo_k..hi_k, exact for h
        linear between nodes.  With decay = e^{-lam (u[hi_k] - u[i + 1])} per lambda,
        every rate a becomes lam + a."""
        inside = (np.arange(nh - 1) >= lo[:, None]) & (np.arange(nh - 1) < hi[:, None])
        dist = np.where(inside, u[hi, None] - u[1:], 0.0)
        w_lo = w_hi = 0.0
        for coef, a in terms:
            scale = np.where(inside, np.exp(-a * dist) * width, 0.0) * np.reshape(coef, (-1, 1))
            c_lo, c_hi = _cell_weights((a if decay is None else L[:, None, None] + a) * width)
            w_lo, w_hi = w_lo + scale * c_lo, w_hi + scale * c_hi
        if decay is not None:
            w_lo, w_hi = decay * w_lo, decay * w_hi
        return w_lo, w_hi

    def rows(w_lo, w_hi):
        """Cell weights gathered onto the window nodes."""
        out = np.zeros(np.shape(w_lo)[:-1] + (nh,))
        out[..., :-1] += w_lo
        out[..., 1:] += w_hi
        return out

    # running sums at every node j of the oldest block, as rows on the state
    j_all = np.arange(m + 1)
    in_r = rows(*cells(0 * j_all, j_all, [(1.0, R)]))
    in_g = rows(*cells(0 * j_all, j_all, [(1.0, G)]))
    run_r = np.zeros((m + 1, size))
    run_r[:, :nh] = in_r
    run_r[:, i_r] = np.exp(-R * sigma)
    run_d = np.zeros((m + 1, size))
    run_d[:, :nh] = (in_r - in_g) * inv
    run_d[:, i_r] = D(sigma)
    run_d[:, i_d] = np.exp(-G * sigma)

    # the lambda-dependent rows: the block map's new nodes 1..m, weighted by
    # B(w + 1) e^{-lam w}, and the readout, weighted by A(w) e^{-lam w}
    new = j_all[1:]
    lo, hi = np.append(new, end), np.append(m + new, m + end)
    dist = np.maximum(u[hi, None] - u[1:], 0.0)
    uniq, back = np.unique(dist, return_inverse=True)
    decay = np.exp(-np.multiply.outer(L, uniq))[:, back.reshape(dist.shape)]
    coef_r = np.append(np.full(m, b_r * math.exp(-R)), R * inv)
    coef_g = np.append(np.full(m, b_g * math.exp(-G)), -R * inv)
    w_lo, w_hi = cells(lo, hi, [(coef_r, R), (coef_g, G)], decay)
    lam_rows = rows(w_lo, w_hi)
    near_new, readout_near = lam_rows[:, :m], lam_rows[:, m]

    # block map: h at the new nodes, the window shifted by one block
    e_l = np.exp(-L)[:, None, None]
    lel = (L * np.exp(-L))[:, None, None]
    force = -e_l * ((math.exp(-2.0 * R) + R * D(2.0)) * run_r[new] + (R * math.exp(-2.0 * G)) * run_d[new])
    force[..., :nh] -= near_new
    force[..., one] += 1.0
    if enter_excited:
        force[..., i_e] -= np.exp(-G * (1.0 + sigma[new]))
    step = np.zeros((n_lam, size, size))
    step[:, : m + 1, m:nh] = np.eye(m + 1)
    step[:, m + 1 : nh] = lel * force
    step[:, i_r] = run_r[m]
    step[:, i_d] = run_d[m]
    if enter_excited:
        step[:, i_e, i_e] = math.exp(-G)
    step[:, one, one] = 1.0

    # state with the window on blocks 1 and 2; h on block 0 enters in closed form
    Lc, x = L[:, None], sigma[None, :]
    coefs = ((b_r, R), (b_g, G))
    i1 = sum(k * math.exp(-a) * (_conv(0.0, a, x) - exc * _conv(G, a, x)) for k, a in coefs)
    h1 = Lc * np.exp(-Lc) * (1.0 - exc * np.exp(-G * (1.0 + x)) - Lc * np.exp(-Lc * x) * i1)
    y = 1.0 - x
    near0 = Lc * np.exp(-Lc * (1.0 + x)) * sum(
        k * np.exp(-a * (1.0 + x)) * (_conv(0.0, a, y) - exc * np.exp(-G * x) * _conv(G, a, y))
        for k, a in coefs
    )
    far0 = Lc * np.exp(-Lc) * sum(
        k * math.exp(-2.0 * a) * (_conv(Lc, a, x) - exc * _conv(Lc + G, a, x)) for k, a in coefs
    )
    # block 2 from block 1: the new-node rows, cut to the cells of block 1
    near1 = np.zeros_like(h1)
    near1[:, 1:] = np.einsum("lji,li->lj", w_lo[:, :m, m:], h1[:, :-1]) + np.einsum(
        "lji,li->lj", w_hi[:, :m, m:], h1[:, 1:]
    )
    h2 = Lc * np.exp(-Lc) * (1.0 - exc * np.exp(-G * (2.0 + x)) - near0 - near1 - far0)
    state = np.zeros((n_lam, size))
    state[:, : m + 1] = h1
    state[:, m:nh] = h2  # h at 2 tau ends block 1 and starts block 2
    sum_r = _conv(L, R, 1.0) - exc * _conv(L + G, R, 1.0)
    sum_g = _conv(L, G, 1.0) - exc * _conv(L + G, G, 1.0)
    state[:, i_r] = L * sum_r
    state[:, i_d] = L * (sum_r - sum_g) * inv
    if enter_excited:
        state[:, i_e] = math.exp(-2.0 * G)
    state[:, one] = 1.0

    # entries below 1e-150 (large lam tau) move no probability, but their
    # products go subnormal inside the matrix products and halve their speed
    step[np.abs(step) < 1e-150] = 0.0
    power, todo = step, n - 2
    while todo:
        if todo & 1:
            state = np.matmul(power, state[:, :, None])[:, :, 0]
        todo >>= 1
        if todo:
            power = np.matmul(power, power)

    # readout on the window [n - 1, n + 1], where t_c sits at node m + end
    readout = e_l[:, 0] * R * (math.exp(-G) * run_d[end] + D(1.0) * run_r[end])
    readout[:, :nh] += readout_near
    if enter_excited:
        readout[:, i_e] += math.exp(-G * rho)
    # rounding in the squarings can leave values ~1e-13 outside [0, 1]
    p = np.clip(np.einsum("ld,ld->l", readout, state), 0.0, 1.0)
    return (p * math.exp(-dev.gamma * timing.delta_o)).reshape(shape)


class TestSurvivorOperator:
    T_C = 230e-9
    TIMING = CycleTiming(T_C, 35e-9, 48e-9)

    def test_bitwise_equal_to_reference(self):
        lam = np.concatenate([[0.0], np.geomspace(1e-2, 5e6, 11)]) / self.T_C
        # the default dead time, then t_c / tau near 100, 1001 and 8193 whole blocks
        blocks = [None, 100, 1001, 8193]
        for cells_per_tau in (16, 32):
            for gamma_tc in (0.0, 2.0, 30.0):
                for entry in (False, True):
                    for ktc in (1e2, 10**2.5, 1e3, 1e4, 1e5):
                        for n in blocks:
                            dev = scaled_device(self.T_C, ktc, gamma_tc, n)
                            for f in ((1.0,) if n is None else (1 - 1e-7, 1 + 1e-7)):
                                timing = CycleTiming(self.T_C * f, 35e-9, 48e-9)
                                args = (timing, dev, entry, cells_per_tau)
                                want = survivor_excitation_reference(lam, *args).tolist()
                                got = SurvivorOperator.build(*args).excitation(lam).tolist()
                                assert got == want, (cells_per_tau, gamma_tc, entry, ktc, n, f)

    def test_chunks_equal_one_call(self):
        lam = np.geomspace(0.5, 5e6, 30) / self.T_C
        dev = DeviceParams(kappa=1e3 / self.T_C, gamma=2.0 / self.T_C)
        for entry in (False, True):
            op = SurvivorOperator.build(self.TIMING, dev, entry)
            chunks = np.concatenate([op.excitation(part) for part in (lam[:7], lam[7:8], lam[8:])])
            assert chunks.tolist() == op.excitation(lam).tolist()

    def test_read_only(self):
        # the threads of a saturated link sweep share one operator
        op = SurvivorOperator.build(self.TIMING, DeviceParams(kappa=1e3 / self.T_C, gamma=0.0))
        with pytest.raises(ValueError):
            op.step_base[0, 0] = 1.0

    def test_cutoff_fit_builds_one_operator_a_point(self, tmp_path, monkeypatch):
        # the grid and the root of a scan share its operator; a second call in
        # the same process builds its own
        from photonlink import cli

        built = []
        build = SurvivorOperator.build

        def counted(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(SurvivorOperator, "build", counted)
        config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        points = "sweeps.kappa_t_c={values: [100.0, 316.2, 1000.0, 3162.3, 10000.0]}"
        for name in ("a", "b"):
            built.clear()
            assert cli.main(["cutoff-fit", "--config", str(config), "--out", str(tmp_path / name),
                             "--set", points]) == 0
            assert len(built) == 5, name

    def test_one_evaluation_over_several_operators(self):
        # rates that each carry their own operator, in one call, read the bits
        # of each operator's own excitation; kappa t_c = 114 at alpha_sat 1.14
        # is a whole t_c / tau (17 nodes), the others are fractional (18 nodes)
        ops = [
            SurvivorOperator.build(self.TIMING, DeviceParams(kappa=ktc / self.T_C, gamma=gtc / self.T_C), entry)
            for ktc in (1e2, 114.0, 10**2.5, 1e3, 1e4, 1e5)
            for gtc in (0.0, 2.0)
            for entry in (False, True)
        ]
        assert {op.sigma.size for op in ops} == {17, 18}
        lams = [np.geomspace(0.5, 5e4, 5 + i % 4) * (1.0 + 0.1 * i) / self.T_C for i in range(len(ops))]
        got = _excitations(ops, lams)
        for op, lam, value in zip(ops, lams, got):
            assert value.tolist() == op.excitation(lam).tolist(), (op.blocks, op.rates, op.enter_excited)


class TestFirstSurvivorExcitation:
    """survivor_excitation, the exact saturated excitation; at gamma = 0 with
    ground entry it is the first-survivor delay-renewal solution."""

    T_C = 230e-9
    TIMING = CycleTiming(T_C, T_C * 1e-9, T_C * 1e-9)

    def dev(self, kappa_tc, gamma_tc=0.0, blocks=None):
        return scaled_device(self.T_C, kappa_tc, gamma_tc, blocks)

    def test_matches_monte_carlo(self):
        # shoulder of the plateau, 3 dB point and tail at three window sizes;
        # the top of the plateau is left out because nearly every replica
        # reads 1 there and the Monte Carlo spread is degenerate
        points = [
            (ktc, nbar, int(min(8000, 4e7 / nbar)), 0.0, False)
            for ktc in (1e2, 1e3, 1e4)
            for nbar in (5.0, cutoff_law(ktc), 1.2 * cutoff_law(ktc))
        ]
        assert survivor_excitation_z(points, seed=31) < 4.0

    def test_step_halving(self):
        for gamma_tc, entry in ((0.0, False), (2.0, False), (2.0, True), (30.0, True)):
            for ktc in (1e2, 10**2.5, 1e3, 1e4, 1e5):
                lam = np.geomspace(0.5, 3.0 * cutoff_law(ktc), 60) / self.T_C
                dev = self.dev(ktc, gamma_tc)
                coarse = survivor_excitation(lam, self.TIMING, dev, enter_excited=entry)
                fine = survivor_excitation(lam, self.TIMING, dev, enter_excited=entry, cells_per_tau=32)
                assert np.abs(coarse - fine).max() <= 1e-5, (gamma_tc, entry, ktc)

    def test_continuous_across_gamma_equal_r(self):
        # B and A have a removable 0/0 at gamma = kappa/4
        for ktc in (1e2, 1e3):
            lam = np.geomspace(0.5, 3.0 * cutoff_law(ktc), 20) / self.T_C
            for entry in (False, True):
                lo, mid, hi = (
                    survivor_excitation(lam, self.TIMING, self.dev(ktc, ktc / 4 * f), enter_excited=entry)
                    for f in (1 - 1e-4, 1.0, 1 + 1e-4)
                )
                assert np.all(np.isfinite(mid))
                assert np.abs(hi - lo).max() < 1e-4
                assert np.abs(mid - (lo + hi) / 2).max() < 1e-7

    def test_vanishing_window_is_the_unsaturated_chain(self):
        # tau -> 0 at t_c / tau = 1e6: ground entry is excitation_ctmc, excited
        # entry the G -> A -> E -> G chain started in E
        from scipy.linalg import expm

        timing = CycleTiming(self.T_C, 35e-9, 48e-9)
        lam = np.geomspace(0.01, 3.0, 7) / self.T_C
        for gamma_tc in (0.0, 3.0, 30.0):
            dev = self.dev(1e3, gamma_tc, blocks=1e6)
            ground = survivor_excitation(lam, timing, dev)
            assert np.abs(ground - excitation_ctmc(lam, timing, dev)).max() < 1e-5
            excited = survivor_excitation(lam, timing, dev, enter_excited=True)
            r, g = dev.transition_rate, dev.gamma
            chain = [
                expm(np.array([[-x, x, 0.0], [0.0, -r, r], [g, 0.0, -g]]) * self.T_C)[2, 2]
                * math.exp(-g * timing.delta_o)
                for x in lam
            ]
            assert np.abs(excited - chain).max() < 1e-5

    def test_zero_rate(self):
        assert survivor_excitation(0.0, self.TIMING, self.dev(1e3)) == 0.0
        timing = CycleTiming(self.T_C, 35e-9, 48e-9)
        dev = self.dev(1e3, 3.0)
        expect = math.exp(-dev.gamma * timing.t_obs)
        assert float(survivor_excitation(0.0, timing, dev, enter_excited=True)) == pytest.approx(expect, rel=1e-12)

    def test_low_rate_limit(self):
        # to first order in lam every photon survives and arms the detector:
        # P = lam t_c - lam (1 - e^{-r t_c}) / r, r = kappa/4
        for ktc in (5.0, 1e2, 1e4):
            dev = self.dev(ktc)
            lam = 1e-5 / self.T_C
            r = dev.transition_rate
            first_order = lam * self.T_C + lam * math.expm1(-r * self.T_C) / r
            got = float(survivor_excitation(lam, self.TIMING, dev))
            assert abs(got / first_order - 1.0) < 1e-4

    def test_continuous_across_whole_blocks(self):
        # t_c/tau just below, at and just above a whole number of blocks
        # changes the number of squared block maps and the final partial block
        lam = np.array([5.0, 400.0, 1000.0]) / self.T_C
        for blocks in (100, 1001, 8193):
            for gamma_tc, entry in ((0.0, False), (3.0, True)):
                vals = [
                    survivor_excitation(
                        lam, CycleTiming(self.T_C * (1 + eps), 35e-9, 48e-9), self.dev(1e3, gamma_tc, blocks),
                        enter_excited=entry,
                    )
                    for eps in (-1e-7, 0.0, 1e-7)
                ]
                assert np.abs(vals[0] - vals[1]).max() < 1e-6
                assert np.abs(vals[2] - vals[1]).max() < 1e-6

    def test_vectorised_matches_pointwise(self):
        lam = np.geomspace(1.0, 2e4, 9) / self.T_C
        for entry in (False, True):
            dev = self.dev(1e3, 2.0)
            vec = survivor_excitation(lam, self.TIMING, dev, enter_excited=entry)
            assert vec.shape == lam.shape
            point = [float(survivor_excitation(x, self.TIMING, dev, enter_excited=entry)) for x in lam]
            assert vec.tolist() == point

    def test_extreme_window_and_rate(self):
        lam = np.array([0.5, 5e3, 5e5, 5e6]) / self.T_C
        dev = self.dev(1e5, 2.0)
        for entry in (False, True):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                vals = survivor_excitation(lam, self.TIMING, dev, enter_excited=entry)
            assert np.all(np.isfinite(vals))
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            # at the top rate only an excited entry that has not yet decayed is left
            left = math.exp(-dev.gamma * self.TIMING.t_obs) if entry else 0.0
            assert abs(vals[-1] - left) < 1e-12 < vals[1] - left

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            survivor_excitation(-1.0, self.TIMING, self.dev(1e3))
        with pytest.raises(ValueError):
            survivor_excitation(1.0, self.TIMING, self.dev(1e3), cells_per_tau=0)

    def test_drives_gamma0_cutoff_scan(self):
        # the cutoff scan evaluates the exact curve over its whole grid
        grid = log_grid(1.0, 3000.0, 12)
        res = cutoff_photon_number(cutoff_operator(self.dev(100.0), self.T_C), grid)
        expect = survivor_excitation(grid / self.T_C, self.TIMING, self.dev(100.0))
        assert res.excitation.tolist() == expect.tolist()


class StubOperator:
    """Stands in for a SurvivorOperator: the curve curve(nbar) at cycle t_c."""

    def __init__(self, curve, t_c=230e-9):
        self.curve, self.t_c = curve, t_c

    def excitation(self, lam):
        return self.curve(np.asarray(lam) * self.t_c)


class TestCutoff:
    T_C = 230e-9
    TIMING = CycleTiming(T_C, T_C * 1e-9, T_C * 1e-9)  # as in cutoff_operator

    def test_synthetic_curve(self):
        # a known monotone-decreasing curve; its grid maximum 1/1.01 at n = 1
        # halves at n = 102 exactly
        grid = log_grid(1.0, 1e4, 40)
        res = cutoff_photon_number(StubOperator(lambda nbar: 1.0 / (1.0 + nbar / 100.0)), grid)
        assert res.n_cutoff == pytest.approx(102.0, rel=1e-13)

    def test_root_through_a_kink(self):
        # a curve whose derivative jumps inside the bracket: the cubic misses
        # the first window, and the rounds that follow still close on the root
        calls = []

        def kinked(nbar):
            calls.append(np.size(nbar))
            return np.clip(0.9 - 0.5 * np.log(np.maximum(nbar, 100.0) / 100.0), 0.0, 0.9)

        res = cutoff_photon_number(StubOperator(kinked), np.array([1.0, 299.0, 302.0, 1e4]))
        assert res.n_cutoff == pytest.approx(100.0 * math.exp(0.9), rel=1e-12)
        assert len(calls) > 3  # the grid and more than the two rounds of a smooth curve

    def test_cutoff_fit_reaches_large_kappa_tc(self, tmp_path):
        # the grid ends at lam tau = 50, not at a fixed photon number, so the
        # cutoffs past 0.5e7 photons at kappa t_c = 1e6 and 1e7 are found too;
        # each is a root of excitation = half the grid maximum
        from photonlink import cli

        config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert cli.main(["cutoff-fit", "--config", str(config), "--out", str(tmp_path),
                         "--set", "sweeps.kappa_t_c={values: [100.0, 1.0e4, 1.0e6, 1.0e7]}"]) == 0
        lines = (tmp_path / "cutoff_fit" / "cutoff_table.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
        assert [r["n_cutoff"] for r in rows[2:]] == pytest.approx([7.0786e6, 8.1503e7], rel=1e-4)
        for r in rows:
            dev = DeviceParams(kappa=r["kappa_tc"] / self.T_C, gamma=0.0, alpha_sat=1.14)
            res = scan_cutoff([cutoff_operator(dev, self.T_C)])[0]
            assert res.n_cutoff == pytest.approx(r["n_cutoff"], rel=1e-12)  # the table prints t_c rounded
            at_root = float(survivor_excitation(res.n_cutoff / self.T_C, self.TIMING, dev))
            assert abs(at_root / (0.5 * res.excitation.max()) - 1.0) < 1e-9

    def test_lockstep_scan_equals_one_device_at_a_time(self):
        devices = [DeviceParams(kappa=ktc / self.T_C, gamma=0.0) for ktc in (1e2, 114.0, 1e3, 1e4, 1e5)]
        together = scan_cutoff([cutoff_operator(dev, self.T_C) for dev in devices])
        for dev, res in zip(devices, together):
            alone = scan_cutoff([cutoff_operator(dev, self.T_C)])[0]
            assert res.n_cutoff == alone.n_cutoff
            assert res.n_grid.tolist() == alone.n_grid.tolist()
            assert res.excitation.tolist() == alone.excitation.tolist()

    def test_root_through_a_kink_in_a_batch(self):
        # the kinked root needs a third round after the smooth roots of its
        # batch have finished, and still closes on the same root
        calls = []

        def kinked(nbar):
            calls.append(np.size(nbar))
            return np.clip(0.9 - 0.5 * np.log(np.maximum(nbar, 100.0) / 100.0), 0.0, 0.9)

        smooth = StubOperator(lambda nbar: 1.0 / (1.0 + nbar / 100.0))
        real = cutoff_operator(DeviceParams(kappa=100.0 / self.T_C, gamma=0.0), self.T_C)
        scans = [(smooth, log_grid(1.0, 1e4, 40)), (StubOperator(kinked), np.array([1.0, 299.0, 302.0, 1e4])),
                 (real, log_grid(1.0, 3000.0, 12))]
        batch = cutoff_photon_numbers(scans)
        assert batch[1].n_cutoff == pytest.approx(100.0 * math.exp(0.9), rel=1e-12)
        assert len(calls) > 3
        for (op, grid), res in zip(scans, batch):
            assert res.n_cutoff == cutoff_photon_number(op, grid).n_cutoff

    def test_first_point_that_cannot_saturate_raises(self):
        falling = StubOperator(lambda nbar: 1.0 / (1.0 + nbar / 100.0))
        flat = StubOperator(lambda nbar: np.full(np.shape(nbar), 0.8))
        dark = StubOperator(lambda nbar: np.zeros(np.shape(nbar)))
        grid = log_grid(1.0, 1e4, 10)
        with pytest.raises(NotSaturatingError, match="no 3 dB drop"):
            cutoff_photon_numbers([(falling, grid), (flat, grid), (dark, grid)])

    def test_not_saturating_error(self):
        with pytest.raises(NotSaturatingError):
            flat = StubOperator(lambda nbar: np.full(np.shape(nbar), 0.8))
            cutoff_photon_number(flat, log_grid(1.0, 100.0, 10))

    def test_real_small_scan(self):
        dev = DeviceParams(kappa=100.0 / 230e-9, gamma=0.0)
        grid = log_grid(1.0, 3000.0, 12)
        res = cutoff_photon_number(cutoff_operator(dev, 230e-9), grid)
        # reference-scale sanity: fit predicts ~266 at kappa*t_c = 100
        assert 150.0 < res.n_cutoff < 450.0

    def test_gamma_barely_moves_cutoff(self):
        # the qubit decay rate has little effect on the 3 dB point: a
        # tenfold gamma increase moves the cutoff by about 11% here
        t_c = 230e-9
        grid = log_grid(30.0, 10000.0, 24)
        cutoffs = []
        for gamma in 2 * np.pi * np.array([1e5, 2e5, 4e5, 1e6]):
            dev = DeviceParams(kappa=1000.0 / t_c, gamma=gamma)
            cutoffs.append(cutoff_photon_number(cutoff_operator(dev, t_c), grid).n_cutoff)
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

    @pytest.mark.parametrize("n_cutoff, b", [
        ((56328.31952631021, 690398.6455248708, 8139223.969113746, 93605556.9901936), 1.0648423009415562),
        ((1055099465.6491266, 11775912327.924828, 129775946547.71944, 1417312874640.1316), 1.039767862990929),
    ], ids=["alpha-sat-0.01", "alpha-sat-1e-6"])
    def test_huge_cutoffs_fit_without_warning(self, n_cutoff, b):
        # cutoff-fit's cutoffs at these alpha_sat; b is what fit.json read under the former
        # Levenberg-Marquardt fit, some of whose trial steps overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_cutoff_curve(list(zip((100.0, 1000.0, 10000.0, 100000.0), n_cutoff)))
        assert fit.b == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("samples, b", [
        ([(2.901, 136.3), (25.48, 857.9), (223.8, 6307.0), (1965.0, 42360.0)], 0.9001),
        ([(37.36, 53.51), (1594.0, 319.0), (68010.0, 46970.0), (2902000.0, 7034000.0)], 1.3545),
    ], ids=["clean", "bent"])
    def test_global_minimum_of_four_points(self, samples, b):
        # the former Levenberg-Marquardt fit, started at (a, b, c) = (1, 1, 0), stalled on both sets;
        # lstsq over a b grid of step 1e-3 finds the minimum that the fit must reach
        x, y = np.array(samples).T
        grid = np.arange(0.5, 2.0, 1e-3)
        costs = [np.sum((np.linalg.lstsq(np.column_stack([x**g / y, 1 / y]), np.ones(4), rcond=None)[0]
                         @ [x**g / y, 1 / y] - 1.0) ** 2) for g in grid]
        fit = fit_cutoff_curve(samples)
        assert abs(fit.b - grid[np.argmin(costs)]) <= 1e-3
        assert fit.b == pytest.approx(b, abs=1e-4)
        assert fit.residual**2 * 4 <= min(costs)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.2, 3.0), st.floats(-0.5, 0.5), st.integers(4, 9), st.floats(2.0, 6.0))
    def test_exact_recovery_property(self, a, b, c_share, points, decades):
        # c is a share of the power law at the first sample, so that every sample is positive
        xs = np.geomspace(100.0, 100.0 * 10.0**decades, points)
        scale = a * 100.0**b
        fit = fit_cutoff_curve(list(zip(xs, a * xs**b + c_share * scale)))
        assert fit.b == pytest.approx(b, rel=1e-9)
        assert fit.a == pytest.approx(a, rel=1e-8)
        assert fit.c == pytest.approx(c_share * scale, abs=1e-8 * scale)

    @pytest.mark.parametrize("b", [0.005, 12.0])
    def test_exponent_at_an_end_of_the_scan(self, b):
        xs = np.geomspace(100.0, 1e5, 6)
        with pytest.raises(ValueError, match=r"an end of the scanned range \[0.01, 10.0\]"):
            fit_cutoff_curve(list(zip(xs, 2.0 * xs**b + 1.0)))

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
