import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from photonlink.physics import (
    BOLTZMANN_K,
    PLANCK_H,
    CycleTiming,
    DeviceParams,
    Environment,
    PulseProfile,
    _cell_square_weight,
    _cell_weights,
    _phi,
    _pulse_transform,
    dbm_to_watts,
    detection_prob_single,
    ground_return_prob,
    power_to_rate,
    single_photon_excitation,
    single_photon_excitation_double_integral,
    single_photon_excitation_quadrature,
    thermal_photon_rate,
    transition_kernels,
)
from photonlink.errors import ParameterError
from photonlink.rng import substream
from photonlink.validate import shaped_pulse

DEV = DeviceParams(kappa=8.0, gamma=1.0, p_reset_g=0.0, p_reset_e=0.0)
SHAPES = ("rectangular", "gaussian", "tabulated")


class TestGroundReturn:
    def test_zero_time(self):
        assert ground_return_prob(0.0, DEV) == 0.0

    def test_eventual_return(self):
        t = 100.0 * max(4.0 / DEV.kappa, 1.0 / DEV.gamma)
        assert ground_return_prob(t, DEV) == pytest.approx(1.0, abs=1e-6)

    def test_matches_defining_integral(self):
        # oracle: numeric double integral of the transition-then-decay path
        val, _ = integrate.quad(
            lambda s: 2.0 * math.exp(-2.0 * s) * (1.0 - math.exp(-(1.0 - s))), 0.0, 1.0, epsabs=1e-14
        )
        assert ground_return_prob(1.0, DEV) == pytest.approx(val, rel=1e-12)
        assert ground_return_prob(1.0, DEV) == pytest.approx(0.39957640089, rel=1e-9)

    def test_monotone_on_random_grid(self):
        rng = substream(11, 0)
        for _ in range(50):
            kappa = float(rng.uniform(0.1, 50.0))
            gamma = float(rng.uniform(0.0, 12.0))
            dev = DeviceParams(kappa=kappa, gamma=gamma)
            t = np.sort(rng.uniform(0.0, 40.0 / kappa, size=30))
            f = ground_return_prob(t, dev)
            assert np.all(np.diff(f) >= -1e-14)
            assert np.all((f >= 0.0) & (f <= 1.0))

    def test_degenerate_point_continuity(self):
        # closed form with series window vs quadrature around kappa = 4 gamma
        gamma = 2.0
        for eps in (-1e-4, -1e-7, 0.0, 1e-7, 1e-4):
            kappa = 4.0 * gamma * (1.0 + eps)
            dev = DeviceParams(kappa=kappa, gamma=gamma)
            t = 0.7
            numeric, _ = integrate.quad(
                lambda s: (kappa / 4) * math.exp(-kappa * s / 4) * (1 - math.exp(-gamma * (t - s))),
                0.0,
                t,
                epsabs=1e-15,
                epsrel=1e-13,
            )
            assert ground_return_prob(t, dev) == pytest.approx(numeric, rel=1e-8)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ground_return_prob(-0.1, DEV)


class TestTransitionKernels:
    def test_zero_time(self):
        f1, f2 = transition_kernels(0.0, 0.0, DEV)
        assert f2 == 0.0

    def test_t0_equals_t_collapse(self):
        f1, _ = transition_kernels(1.0, 1.0, DEV)
        assert f1 == pytest.approx(math.exp(-DEV.kappa / 4.0), rel=1e-12)

    def test_frozen_values(self):
        # frozen from the event-driven two-clock oracle (see test_oracle_agreement)
        f1, f2 = transition_kernels(1.0, 0.5, DEV)
        assert f2 == pytest.approx(0.46508831586965926, rel=1e-12)
        assert f1 == pytest.approx(0.38009356238416525, rel=1e-12)

    def test_oracle_agreement(self):
        # two-clock Monte Carlo of the same conditional state probabilities
        rng = substream(11, 1)
        n = 1_000_000
        t, t0 = 1.0, 0.5
        fire = rng.exponential(4.0 / DEV.kappa, n)
        decay = fire + rng.exponential(1.0 / DEV.gamma, n)
        alive = decay >= t0  # no completed cycle before t0
        ground_t = (fire > t) | (decay <= t)
        excited_t = (fire <= t) & (decay > t)
        f1, f2 = transition_kernels(t, t0, DEV)
        denom = f1 + f2
        p_ground = (alive & ground_t).sum() / alive.sum()
        p_excited = (alive & excited_t).sum() / alive.sum()
        se = 3.0 / math.sqrt(alive.sum())
        assert abs(p_ground - f1 / denom) < se
        assert abs(p_excited - f2 / denom) < se

    def test_unconditional_excited_weight_vs_mc(self):
        # f2(t, 0) against the raw two-clock process with no conditioning
        rng = substream(11, 3)
        n = 1_000_000
        t = 0.8
        fire = rng.exponential(4.0 / DEV.kappa, n)
        decay = fire + rng.exponential(1.0 / DEV.gamma, n)
        excited = (fire <= t) & (decay > t)
        _, f2 = transition_kernels(t, 0.0, DEV)
        se = excited.std(ddof=1) / math.sqrt(n)
        assert abs(excited.mean() - f2) < 3 * se

    def test_partition_identity(self):
        # f1 + f2 must equal the probability of no completed cycle by t0
        for t, t0 in [(1.0, 0.2), (2.5, 2.5), (0.3, 0.0)]:
            f1, f2 = transition_kernels(t, t0, DEV)
            assert f1 + f2 == pytest.approx(1.0 - ground_return_prob(t0, DEV), abs=1e-12)

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            transition_kernels(1.0, 2.0, DEV)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(0.01, 1e6),
        g_ratio=st.floats(0.0, 10.0),
        x=st.floats(0.0, 50.0),
        frac=st.floats(0.0, 1.0),
    )
    def test_bounds_property(self, r, g_ratio, x, frac):
        dev = DeviceParams(kappa=4.0 * r, gamma=g_ratio * r)
        t = x / r
        f1, f2 = transition_kernels(t, frac * t, dev)
        assert 0.0 <= f1 <= 1.0
        assert 0.0 <= f2 <= 1.0


def pulse_mass(pulse: PulseProfile) -> float:
    """Integrated mass of the pulse density by quadrature, split at the tabulated nodes."""
    ti = pulse.t_i
    pts = [-ti, ti]
    if pulse.shape == "tabulated":
        pts = sorted(set(pts + [float(n[0]) for n in pulse.nodes if -ti < n[0] < ti]))
    return sum(
        integrate.quad(lambda t: float(pulse.density(t)), a, b, epsabs=1e-12)[0]
        for a, b in zip(pts[:-1], pts[1:])
    )


class TestPulseProfiles:
    @pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
    def test_unit_mass(self, shape):
        pulse = PulseProfile(l=3.0, shape=shape, beta=1.2, w=0.4)
        assert pulse_mass(pulse) == pytest.approx(1.0, abs=1e-9)

    def test_tabulated(self):
        pulse = PulseProfile(l=2.0, shape="tabulated", nodes=[(-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)])
        assert pulse_mass(pulse) == pytest.approx(1.0, abs=1e-9)
        assert pulse.density(0.0) == pytest.approx(1.0)
        assert pulse.density(2.0) == 0.0

    def test_tabulated_cut_to_support(self):
        # nodes beyond +-t_i: the density is cut to [-1, 1] and renormalized there
        pulse = PulseProfile(l=2.0, shape="tabulated", nodes=[(-2.0, 1.0), (2.0, 1.0)])
        assert pulse_mass(pulse) == pytest.approx(1.0, abs=1e-9)
        assert pulse.density(0.3) == pytest.approx(0.5)
        rect = PulseProfile(l=2.0)
        assert single_photon_excitation(pulse, 1.5, DEV) == pytest.approx(
            single_photon_excitation(rect, 1.5, DEV), rel=1e-14
        )
        # mass only partly inside: a jump to zero at the first node
        half = PulseProfile(l=2.0, shape="tabulated", nodes=[(0.0, 1.0), (3.0, 1.0)])
        assert pulse_mass(half) == pytest.approx(1.0, abs=1e-9)
        assert half.density(0.5) == pytest.approx(1.0)

    def test_tabulated_without_mass_on_support(self):
        with pytest.raises(ValueError, match="zero mass") as info:
            PulseProfile(l=2.0, shape="tabulated", nodes=[(1.5, 1.0), (3.0, 1.0)])
        assert info.value.field == "nodes"

    def test_t_i(self):
        pulse = PulseProfile(l=4.0, beta=1.5, w=1.0)
        assert pulse.t_i == pytest.approx(3.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PulseProfile(l=1.0, shape="triangle")
        with pytest.raises(ValueError):
            PulseProfile(l=1.0, shape="tabulated", nodes=[(0.0, 1.0)])


class TestSinglePhotonExcitation:
    def test_instantaneous_transition_no_decay(self):
        pulse = PulseProfile(l=2.0)
        dev = DeviceParams(kappa=1e6 / pulse.t_i, gamma=0.0)
        assert single_photon_excitation(pulse, pulse.t_i, dev) == pytest.approx(1.0, abs=1e-3)

    def test_fully_decayed(self):
        pulse = PulseProfile(l=2.0)
        dev = DeviceParams(kappa=8.0, gamma=20.0)
        # gamma * (t_obs - t_i) = 20
        assert single_photon_excitation(pulse, pulse.t_i + 1.0, dev) < 1e-8

    def test_against_event_driven_mc(self):
        pulse = PulseProfile(l=2.0)
        dev = DEV
        t_obs = 1.5
        value = single_photon_excitation(pulse, t_obs, dev)
        rng = substream(11, 2)
        n = 1_000_000
        arrival = rng.uniform(-1.0, 1.0, n)
        fire = arrival + rng.exponential(4.0 / dev.kappa, n)
        decay = fire + rng.exponential(1.0 / dev.gamma, n)
        excited = (fire <= pulse.t_i) & (decay > t_obs)
        mc = excited.mean()
        se = math.sqrt(mc * (1 - mc) / n)
        assert abs(value - mc) < 3 * se

    def test_reduced_equals_double_integral(self):
        for shape in SHAPES:
            pulse = shaped_pulse(2.0, shape)
            for gamma in (0.0, 1.0, 2.0):
                dev = DeviceParams(kappa=8.0, gamma=gamma)
                a = single_photon_excitation(pulse, 1.4, dev)
                b = single_photon_excitation_double_integral(pulse, 1.4, dev)
                assert a == pytest.approx(b, rel=1e-8)

    def test_rejects_observation_inside_pulse(self):
        pulse = PulseProfile(l=2.0)
        with pytest.raises(ValueError):
            single_photon_excitation(pulse, 0.5, DEV)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kappa, length", [(8.0, 2.0), (2 * np.pi * 1e9, 1e-6)])
    def test_near_coincident_rates(self, shape, kappa, length):
        # the difference quotient [L(gamma) - L(r)] / (r - gamma) is 0/0 at gamma = r
        r = kappa / 4.0
        pulse = shaped_pulse(length, shape)
        gammas = [r] + [r * (1.0 + s * 10.0**-k) for k in range(3, 13) for s in (1.0, -1.0)]
        for gamma in gammas:
            dev = DeviceParams(kappa=kappa, gamma=gamma)
            got = single_photon_excitation(pulse, pulse.t_i, dev)
            oracle = single_photon_excitation_quadrature(pulse, pulse.t_i, dev, epsabs=1e-15)
            assert got == pytest.approx(oracle, rel=1e-9), gamma

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gaussian_asymptotic_switch(self, sign):
        # erfcx changes route at z = 8; the transform is continuous where z1 or z2 crosses it
        pulse = PulseProfile(l=1.0, shape="gaussian")
        sigma = pulse.l / 4.0
        a_switch = (8.0 * math.sqrt(2.0) * sigma + sign * pulse.t_i) / sigma**2
        below = _pulse_transform(pulse, a_switch * (1.0 - 1e-12))
        above = _pulse_transform(pulse, a_switch * (1.0 + 1e-12))
        assert below == pytest.approx(above, rel=1e-13)


class TestDetectionProbSingle:
    def test_no_dark_counts(self):
        assert detection_prob_single(0.7, DEV) == 0.7

    def test_half_dark(self):
        dev = DeviceParams(kappa=8.0, gamma=1.0, p0=0.5)
        for p in (0.0, 0.3, 1.0):
            assert detection_prob_single(p, dev) == pytest.approx(0.5)

    def test_arithmetic(self):
        dev = DeviceParams(kappa=8.0, gamma=1.0, p0=0.1)
        assert detection_prob_single(0.9, dev) == pytest.approx(0.82, abs=1e-12)

    def test_elementwise(self):
        dev = DeviceParams(kappa=8.0, gamma=1.0, p0=0.1)
        p = np.array([0.0, 0.3, 0.9, 1.0])
        assert detection_prob_single(p, dev).tolist() == [detection_prob_single(float(x), dev) for x in p]
        with pytest.raises(ValueError):
            detection_prob_single(np.array([0.2, -0.1]), dev)


class TestThermalAndPower:
    def test_zero_temperature(self):
        assert thermal_photon_rate(Environment(t_e=0.0, nu=1e10, cycles_per_symbol=800)) == 0.0

    def test_reference_point(self, ref_env):
        # direct arithmetic with CODATA constants
        from scipy.constants import h, k

        expect = k * 8.0 / (800 * h * 1e10)
        got = thermal_photon_rate(ref_env)
        assert got == pytest.approx(expect, rel=1e-15)
        assert got == pytest.approx(0.02084, rel=1e-3)

    def test_si_constants_match_scipy(self):
        from scipy import constants

        assert PLANCK_H == constants.h
        assert BOLTZMANN_K == constants.k

    def test_inverse_in_cycles(self, ref_env):
        doubled = Environment(t_e=8.0, nu=1e10, cycles_per_symbol=1600)
        assert thermal_photon_rate(doubled) == pytest.approx(thermal_photon_rate(ref_env) / 2.0, rel=1e-14)

    def test_power_off(self):
        assert power_to_rate(-math.inf, 1e10) == 0.0

    def test_power_point(self):
        lam = power_to_rate(-148.3, 1e10)
        assert lam == pytest.approx(2.232e5, rel=1e-3)
        assert lam * 230e-9 == pytest.approx(0.0513, rel=1e-2)

    def test_db_doubling(self):
        up = 10.0 * math.log10(2.0)
        assert power_to_rate(-100.0 + up, 1e10) / power_to_rate(-100.0, 1e10) == pytest.approx(2.0, rel=1e-12)
        assert dbm_to_watts(-148.3) == pytest.approx(10 ** (-17.83), rel=1e-12)


class TestSeriesKernels:
    """The series branches of _phi and the cell weights run only on the elements that take them."""

    def test_huge_argument_neither_warns_nor_moves_the_others(self):
        # past 1e154 a series power would overflow; every element reads as it does alone
        x = np.array([0.0, 3e-9, 0.02, 0.7, 40.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = _phi(x)
            lower, upper = _cell_weights(x)
            square = _cell_square_weight(x, lower)
            alone = [(_phi(v), *_cell_weights(v), _cell_square_weight(v, _cell_weights(v)[0])) for v in x]
        assert [tuple(map(float, a)) for a in alone] == list(zip(phi, lower, upper, square))
        assert phi[-1] == 1e-200 and lower[-1] == upper[-1] == square[-1] == 0.0
        assert _phi(3e-9).shape == _cell_weights(3e-9)[0].shape == ()


class TestValidation:
    def test_device_invariants(self):
        with pytest.raises(ValueError):
            DeviceParams(kappa=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            DeviceParams(kappa=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            DeviceParams(kappa=1.0, gamma=0.0, p0=1.5)
        assert DeviceParams(kappa=8.0, gamma=2.0).transition_rate == 2.0

    def test_dead_time(self):
        dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=0.0, alpha_sat=1.14)
        assert dev.dead_time == 1.14 / (2 * np.pi * 1e9)
        # alpha_sat / kappa underflows to 0: the device names alpha_sat, not a later tau
        with pytest.raises(ParameterError) as err:
            DeviceParams(kappa=2 * np.pi * 1e9, gamma=0.0, alpha_sat=1e-320)
        assert err.value.field == "alpha_sat"

    def test_timing_invariants(self):
        with pytest.raises(ValueError):
            CycleTiming(t_c=0.0, delta_o=1.0, t_w=1.0)
        CycleTiming(t_c=230e-9, delta_o=35e-9, t_w=48e-9)
