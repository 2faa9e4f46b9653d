"""The closed-form-versus-oracle check battery.

Every analytic result in the package has an independent route: defining
integrals by quadrature, exhaustive enumeration, or event-driven Monte
Carlo.  Those routes live in `detection`, each once, and the tests call
the same ones; this module holds only the checks that run them side by
side at their points, seeds and gates, one line per check, and the
reference inputs that the tests share with the checks.  `photonlink
validate` runs the battery (exit 3 if any check fails), and at level
"full" the acceptance suite runs every check once at the full sample
sizes.  Level "quick" runs the same checks on fewer points and samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import detection, link, saturation
from .physics import (
    CycleTiming,
    DeviceParams,
    Environment,
    PulseProfile,
    excitation_ctmc,
    ground_return_prob,
    single_photon_excitation,
    thermal_photon_rate,
    transition_kernels,
)
from .rng import substream

__all__ = ["CheckResult", "run_checks", "CHECKS", "NAMES"]

# headline operating point of the link checks
REF_DEV = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5)
REF_TIMING = CycleTiming(230e-9, 35e-9, 48e-9)
REF_ENV = Environment(t_e=8.0, nu=1e10, cycles_per_symbol=800)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_trivial_identities(level: str, seed: int) -> tuple:
    tol = 1e-12
    vals = {
        "E_S(0)": saturation.survivor_moments_given_count(0, 0.1, 1.0).mean,
        "E_S(1)-1": saturation.survivor_moments_given_count(1, 0.1, 1.0).mean - 1.0,
        "D_S(1)-1": saturation.survivor_moments_given_count(1, 0.1, 1.0).second_moment - 1.0,
        "delta(0)": saturation.delta_lambda(0.0, 0.1, 1.0),
        "n_e(T_e=0)": thermal_photon_rate(Environment(t_e=0.0, nu=1e10, cycles_per_symbol=800)),
    }
    for n in (7, 11):
        vals[f"E_S({n})|tau=0 - {n}"] = saturation.survivor_moments_given_count(n, 0.0, 1.0).mean - n
    for label, dev in (("toy", DeviceParams(kappa=8.0, gamma=1.0)), ("ref", REF_DEV)):
        vals[f"f_b(0) {label}"] = ground_return_prob(0.0, dev)
        vals[f"f2(0) {label}"] = transition_kernels(0.0, 0.0, dev)[1]
    bad = {k: v for k, v in vals.items() if abs(v) > tol}
    return not bad, f"max |err| {max(abs(v) for v in vals.values()):.2e}"


def check_ground_return_quadrature(level: str, seed: int) -> tuple:
    worst = 0.0
    for kappa, gamma, t in [
        (8.0, 1.0, 1.0),
        (8.0, 2.0 * (1 - 1e-4), 0.7),
        (8.0, 2.0 * (1 + 1e-4), 0.7),
        (8.0, 2.0, 0.7),
        (2 * np.pi * 1e9, 2 * np.pi * 1e5, 230e-9),
    ]:
        dev = DeviceParams(kappa=kappa, gamma=gamma)
        closed = ground_return_prob(t, dev)
        numeric = detection.ground_return_quadrature(t, dev)
        worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-30))
    return worst < 1e-8, f"max rel err {worst:.2e}"


def shaped_pulse(length: float, shape: str) -> PulseProfile:
    """A pulse of length `length`; the tabulated one is asymmetric, with mass at the end of the drive."""
    if shape != "tabulated":
        return PulseProfile(l=length, shape=shape)
    ti = length / 2.0
    return PulseProfile(
        l=length, shape=shape, nodes=[(-ti, 0.0), (-0.2 * ti, 1.0), (0.6 * ti, 0.3), (ti, 0.5)]
    )


def check_single_photon_quadrature(level: str, seed: int) -> tuple:
    """The closed-form single_photon_excitation for every pulse shape against
    adaptive quadrature on the physical range (l from 1e-10 to 1e-4 s at
    kappa = 2 pi 1e9), and against the raw double integral at kappa l of
    order 1-8, r = gamma included."""
    worst, worst_physical = 0.0, 0.0
    for shape in ("rectangular", "gaussian", "tabulated"):
        pulse = shaped_pulse(2.0, shape)
        for kappa, gamma, t_obs in [(8.0, 1.0, 1.5), (8.0, 2.0, 1.1), (3.0, 0.0, 2.0)]:
            dev = DeviceParams(kappa=kappa, gamma=gamma)
            a = single_photon_excitation(pulse, t_obs, dev)
            b = detection.single_photon_excitation_double_integral(pulse, t_obs, dev)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        for gamma in (2 * np.pi * 1e5, 2 * np.pi * 1e6):
            dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=gamma)
            for length in np.geomspace(1e-10, 1e-4, 61):
                pulse = shaped_pulse(float(length), shape)
                got = single_photon_excitation(pulse, pulse.t_i, dev)
                oracle = detection.single_photon_excitation_quadrature(pulse, pulse.t_i, dev, epsabs=1e-14)
                worst_physical = max(worst_physical, abs(got - oracle) / oracle)
    ok = worst < 1e-8 and worst_physical < 1e-8
    return ok, f"max rel err {worst:.2e} vs double integral, {worst_physical:.2e} vs quadrature"


def check_dp_vs_enumeration(level: str, seed: int) -> tuple:
    rng = substream(seed, 0x01)
    worst = 0.0
    worst_total = 0.0
    for i in range(40):
        n = int(rng.integers(1, 7))
        t_c = float(rng.uniform(0.5, 2.0))
        times = np.sort(rng.random(n) * t_c)
        dev = DeviceParams(kappa=float(rng.uniform(2, 60)), gamma=float(rng.uniform(0.0, 5.0)))
        trace = detection.ArrivalTrace(times, t_c)
        dp = detection.excitation_given_arrivals(trace, dev)
        en = detection.excitation_given_arrivals_bruteforce(trace, dev)
        worst = max(worst, abs(dp - en))
        total = sum(detection.transition_set_probability(trace, dev, k) for k in detection.transition_sets(n))
        worst_total = max(worst_total, abs(total - 1.0))
    ok = worst < 1e-12 and worst_total < 1e-12
    return ok, f"max |dp-enum| {worst:.2e}, max |sum P(K)-1| {worst_total:.2e}"


def check_poisson_excitation_vs_mc(level: str, seed: int) -> tuple:
    """Renewal DP against the event-driven MC, and the exact CTMC
    excitation against each of them, on the same random points.

    Points are uniform in kappa t_c (2-400), gamma t_c (0-8), lambda t_c
    (0.1-3) and delta_o / t_c (0.01-0.3), with t_c in 0.5-2."""
    n_points = 20 if level == "full" else 5
    replicas = 1_000_000 if level == "full" else 100_000
    mc_samples = 100_000 if level == "full" else 20_000
    rng = substream(seed, 0x02)
    worst_z = 0.0
    worst_exact = 0.0
    for i in range(n_points):
        t_c = float(rng.uniform(0.5, 2.0))
        timing = CycleTiming(t_c=t_c, delta_o=t_c * float(rng.uniform(0.01, 0.3)), t_w=t_c * 0.1)
        dev = DeviceParams(kappa=float(rng.uniform(2.0, 400.0)) / t_c, gamma=float(rng.uniform(0.0, 8.0)) / t_c)
        lam = float(rng.uniform(0.1, 3.0)) / t_c
        analytic = detection.excitation_poisson(lam, timing, dev, rng_seed=seed + i, mc_samples=mc_samples)
        mc = detection.mc_detector(lam, timing, dev, replicas=replicas, rng=substream(seed, 0x02, i))
        exact = excitation_ctmc(lam, timing, dev)
        se = math.hypot(analytic.stderr, mc.excited_at_obs.stderr)
        z = abs(analytic.value - mc.excited_at_obs.value) / max(se, 1e-12)
        worst_z = max(worst_z, z)
        for oracle in (analytic, mc.excited_at_obs):
            worst_exact = max(worst_exact, abs(exact - oracle.value) / max(oracle.stderr, 1e-12))
    ok = worst_z < 4.0 and worst_exact < 4.0
    return ok, f"{n_points} points, max |z| {worst_z:.2f}, exact vs dp/mc max |z| {worst_exact:.2f}"


def check_survivor_moments_vs_mc(level: str, seed: int) -> tuple:
    """Closed-form survivor moments against survivor_mask on sampled
    traces, for a fixed photon count and for Poisson arrival.

    Mean, second moment and variance are each gated as a z-score.  Case i
    draws from substream (seed, 0x03, i), so its draws do not depend on
    which other cases run; quick runs every third case.
    """
    replicas = 1_000_000 if level == "full" else 200_000
    ratios = (4.0, 8.0, 16.0)  # t_c / tau with t_c = 1
    cases = [("count", n, ratio) for n in (2, 5, 10, 20) for ratio in ratios]
    cases += [("poisson", a * ratio, ratio) for a in (0.05, 0.3, 1.0, 3.0) for ratio in ratios]
    keyed = list(enumerate(cases))[:: 1 if level == "full" else 3]
    worst_z = 0.0
    for i, (kind, x, ratio) in keyed:
        tau = 1.0 / ratio
        s = detection.survivor_counts(substream(seed, 0x03, i), kind, x, tau, replicas)
        if kind == "count":
            moments = saturation.survivor_moments_given_count(x, tau, 1.0)
        else:
            moments = saturation.survivor_moments_poisson(x, tau, 1.0)
        worst_z = max(worst_z, _moment_z(s, moments))
    return worst_z < 4.0, f"{len(keyed)} cases, max |z| {worst_z:.2f}"


def _moment_z(s: np.ndarray, m: saturation.SurvivorMoments) -> float:
    """Largest |z| of the sample mean, second moment and variance of s."""
    n = s.size
    s2 = s * s
    c = s - s.mean()
    var_se = math.sqrt(max(np.mean(c**4) - np.mean(c**2) ** 2, 0.0) / n)  # via central moments
    return max(
        abs(s.mean() - m.mean) / max(s.std(ddof=1) / math.sqrt(n), 1e-12),
        abs(s2.mean() - m.second_moment) / max(s2.std(ddof=1) / math.sqrt(n), 1e-12),
        abs(s.var(ddof=1) - m.variance) / max(var_se, 1e-12),
    )


def check_lemma_series(level: str, seed: int) -> tuple:
    worst = 0.0
    from scipy import stats

    for alpha, lam in [(0.5, 2.0), (1.0, 3.0), (0.9, 0.0), (0.2, 7.0)]:
        closed = detection.poisson_weighted_moments(alpha, lam)
        n = np.arange(0, 200)
        w = stats.poisson.pmf(n, lam)
        series = (
            float(np.sum(w * alpha**n)),
            float(np.sum(w * n * alpha**n)),
            float(np.sum(w * n * n * alpha**n)),
        )
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, series)))
    return worst < 1e-12, f"max |err| {worst:.2e}"


def check_theorem2_vs_mixture(level: str, seed: int) -> tuple:
    worst = 0.0
    for a, ratio in [(0.05, 4.0), (0.5, 8.0), (2.0, 16.0), (5.0, 10.0)]:
        tau, t_c = 1.0, ratio
        lam = a / tau
        big = lam * t_c
        x = [1.0 - k * tau / t_c for k in (1, 2, 3, 4)]
        e = [detection.poisson_weighted_moments(xk, big) for xk in x]
        mean_mix = 2 * e[0][0] + e[1][1] - 2 * e[1][0]
        second_mix = (
            2 * e[0][0]
            + e[1][1]
            + 4 * e[1][0]
            + e[3][2]
            - 7 * e[3][1]
            + 12 * e[3][0]
            + 6 * e[2][1]
            - 18 * e[2][0]
        )
        m = saturation.survivor_moments_poisson(lam, tau, t_c)
        worst = max(worst, abs(mean_mix - m.mean), abs(second_mix - m.second_moment))
    return worst < 1e-10, f"max |err| {worst:.2e}"


def check_pair_survival_pieces(level: str, seed: int) -> tuple:
    ns = (2, 3, 7) if level == "full" else (2, 3)
    worst = 0.0
    worst_comb = 0.0
    for n in ns:
        for ratio in (0.05, 0.2):
            p = detection.pair_survival_integrals(n, ratio, 1.0)
            for num, clo in zip(p.numeric, p.closed):
                worst = max(worst, abs(num - clo) / max(abs(clo), 1e-30))
            m = saturation.survivor_moments_given_count(n, ratio, 1.0)
            recombined = m.mean + n * (n - 1) * p.pair_survival_numeric
            worst_comb = max(worst_comb, abs(recombined - m.second_moment) / m.second_moment)
    ok = worst < 1e-8 and worst_comb < 1e-9
    return ok, f"max piece rel {worst:.2e}, recombination rel {worst_comb:.2e}"


def check_delta_sign_structure(level: str, seed: int) -> tuple:
    """Sign and shape of delta(lambda) = mean - variance of the survivor
    count: positive below the crossover lambda0, negative above it, rising
    to an interior peak, falling to an interior trough, then relaxing
    toward zero.  The grid has about 213 points per decade."""
    ok = True
    details = []
    a_grid = np.geomspace(1e-4, 50.0, 1213)
    for ratio in (4.0, 10.0, 100.0):
        tau, t_c = 1.0, ratio
        deltas = np.array([saturation.delta_lambda(a / tau, tau, t_c) for a in a_grid])
        changes = int(np.sum(np.diff(np.sign(deltas)) != 0))
        lam0 = saturation.find_lambda0(tau, t_c)
        below = deltas[a_grid < lam0 * tau]
        above = deltas[a_grid > lam0 * tau]
        peak, trough = int(np.argmax(deltas)), int(np.argmin(deltas))
        shape_ok = 0 < peak < trough < deltas.size - 1 and abs(deltas[-1]) < 0.1 * abs(deltas[trough])
        ok = ok and changes == 1 and np.all(below > 0) and np.all(above < 0) and shape_ok
        details.append(f"T/tau={ratio:g}: changes={changes}, lam0*tau={lam0 * tau:.4f}, shape={shape_ok}")
    return ok, "; ".join(details)


def _ref_spec() -> link.HmmSpec:
    return link.LinkConfig(dev=REF_DEV, timing=REF_TIMING, env=REF_ENV).build_spec(-148.3)


def check_hmm_emission_normalization(level: str, seed: int) -> tuple:
    spec_full = _ref_spec()
    worst_sum = 0.0
    worst_pair = 0.0
    rng = substream(seed, 0x04)
    for n in (1, 3, 8, 12):
        spec = link.HmmSpec(kernel0=spec_full.kernel0, kernel1=spec_full.kernel1, n_cycles=n)
        probs, frames = detection.enumerate_block_probs(spec)
        worst_sum = max(worst_sum, float(np.abs(probs.sum(axis=0) - 1.0).max()))
        sub = frames[rng.integers(0, len(frames), size=min(64, len(frames)))]
        a = detection.block_emission_logprob(spec, sub)
        b = detection.block_emission_logprob_matrix(spec, sub)
        finite = np.isfinite(a) & np.isfinite(b)
        worst_pair = max(worst_pair, float(np.abs(a[finite] - b[finite]).max()))
        if not np.array_equal(np.isfinite(a), np.isfinite(b)):
            worst_pair = math.inf
    ok = worst_sum < 1e-12 and worst_pair < 1e-10
    return ok, f"max |sum-1| {worst_sum:.2e}, paths diff {worst_pair:.2e}"


def check_frame_stats_law(level: str, seed: int) -> tuple:
    """The exact frame-statistics tables behind simulate_link: at the
    reference point and N = 800 every (symbol, first bit) table keeps all
    but 1e-12 of the mass, and at N <= 12 the tables equal exhaustive
    enumeration."""
    spec_full = _ref_spec()
    worst_mass = max(abs(law.mass - 1.0) for row in spec_full.frame_stats for law in row)
    k0, k1 = spec_full.kernel0, spec_full.kernel1
    worst_enum = max(detection.frame_stats_enumeration_gap(link.HmmSpec(kernel0=k0, kernel1=k1, n_cycles=n))
                     for n in (1, 2, 3, 8, 12))
    ok = worst_mass < 1e-12 and worst_enum < 1e-12
    return ok, f"N=800 max |mass-1| {worst_mass:.2e}, N<=12 max |table-enum| {worst_enum:.2e}"


def check_rate_bracket(level: str, seed: int) -> tuple:
    """The exact achievable rate of rate-sweep: link.rate_bracket equals
    enumeration at N <= 12, and at N = 800 the Monte Carlo rate (100k
    symbols at both levels) lies within 4 standard errors of the bracket."""
    base = _ref_spec()
    worst_enum = 0.0
    for n in (1, 3, 8, 12):
        spec = link.HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=n)
        gap = np.subtract(link.rate_bracket(spec), detection.rate_bracket_enumeration(spec))
        worst_enum = max(worst_enum, float(np.abs(gap).max()))
    n_symbols = 100_000
    cfg = link.LinkConfig(dev=REF_DEV, timing=REF_TIMING, env=REF_ENV)
    worst_z = 0.0
    for i, power in enumerate((-156.0, -152.0, -150.0, -148.0)):
        spec = cfg.build_spec(power)
        lower, upper = link.rate_bracket(spec)
        mc = detection.mc_rate(spec, n_symbols, seed, i)
        worst_z = max(worst_z, max(lower - mc.value, mc.value - upper, 0.0) / max(mc.stderr, 1e-12))
    ok = worst_enum < 1e-12 and worst_z < 4.0
    return ok, (
        f"N<=12 max |bracket-enum| {worst_enum:.2e}, "
        f"MC at {n_symbols} symbols max z outside the bracket {worst_z:.2f}"
    )


def check_viterbi_bruteforce(level: str, seed: int) -> tuple:
    base = _ref_spec()
    rng = substream(seed, 0x05)
    mismatches = 0
    for trial in range(40):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 6))
        spec = link.HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=n)
        frames = (rng.random((t, n)) < rng.uniform(0.1, 0.9)).astype(np.int64)
        emis = detection.block_emission_logprob(spec, frames)
        if not np.array_equal(link.viterbi_decode(spec, emis), detection.exhaustive_map_symbols(spec, emis)):
            mismatches += 1
    return mismatches == 0, f"{mismatches} mismatches over 40 trials"


def check_forward_total_probability(level: str, seed: int) -> tuple:
    base = _ref_spec()
    worst = 0.0
    for n, t in [(2, 2), (3, 2), (2, 3), (4, 3), (2, 4)]:
        spec = link.HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=n)
        worst = max(worst, abs(detection.forward_total_probability(spec, t) - 1.0))
    return worst < 1e-10, f"max |sum-1| {worst:.2e}"


def check_fit_recovery(level: str, seed: int) -> tuple:
    xs = np.geomspace(100.0, 1e5, 9)
    ys = cutoff_law(xs)
    fit = saturation.fit_cutoff_curve(list(zip(xs, ys)))
    err = max(abs(fit.a - 1.457), abs(fit.b - 1.132), abs(fit.c + 0.8766))
    rng = substream(seed, 0x06)
    noisy = ys * (1.0 + 0.05 * rng.standard_normal(ys.size))
    fit_noisy = saturation.fit_cutoff_curve(list(zip(xs, noisy)))
    ok = err < 1e-6 and abs(fit_noisy.b - 1.132) < 0.05
    return ok, f"exact err {err:.2e}, noisy b {fit_noisy.b:.4f}"


def cutoff_law(kappa_tc: float) -> float:
    """Reference 3 dB cutoff law n = 1.457 (kappa t_c)^1.132 - 0.8766."""
    return 1.457 * kappa_tc**1.132 - 0.8766


def check_survivor_excitation_vs_mc(level: str, seed: int) -> tuple:
    """Exact saturated excitation against the Monte Carlo on the shoulder
    of the plateau, at the 3 dB point and in the tail: gamma = 0 with
    ground entry, then gamma t_c = 2 with both entries, then gamma = kappa/4,
    where B and A have their removable 0/0."""
    kappa_tcs = (1e2, 10**2.5, 1e3, 10**3.5, 1e4) if level == "full" else (1e2, 1e3)
    budget = 2e8 if level == "full" else 2e7  # arrivals per point

    def shape(x):
        return (5.0, cutoff_law(x), 1.2 * cutoff_law(x))

    points = [(x, nbar, int(min(40_000, budget / nbar)), 0.0, False) for x in kappa_tcs for nbar in shape(x)]
    # the event-driven oracle costs about ten times more per arrival than
    # the gamma = 0 one, so these points get a quarter of the budget
    points += [
        (x, nbar, int(min(40_000, budget / 4 / nbar)), 2.0, entry)
        for entry in (False, True)
        for x in (1e2, 1e3)
        for nbar in shape(x)
    ]
    points.append((1e2, cutoff_law(1e2), int(min(40_000, budget / 4 / cutoff_law(1e2))), 25.0, False))
    worst = detection.survivor_excitation_z(points, seed)
    return worst < 4.0, f"{len(points)} points, max |z| {worst:.2f}"


def check_cutoff_root(level: str, seed: int) -> tuple:
    """scan_cutoff's 3 dB cutoff is a root, not an interpolation, at
    gamma = 0: the scanned operator at n_cut reads half the grid peak,
    and the root on an operator with half the cell width (32 cells per
    tau), whose grid is the same, moves n_cut by less than 1e-5.  Each
    cell width scans its four points in one lockstep call."""
    t_c = 230e-9
    devices = [DeviceParams(kappa=kappa_tc / t_c, gamma=0.0) for kappa_tc in (1e2, 1e3, 1e4, 1e5)]
    operators = [saturation.cutoff_operator(dev, t_c) for dev in devices]
    fine = saturation.scan_cutoff([saturation.cutoff_operator(dev, t_c, cells_per_tau=32) for dev in devices])
    worst_level = worst_cell = 0.0
    for op, res, res_fine in zip(operators, saturation.scan_cutoff(operators), fine):
        half = 0.5 * float(res.excitation.max())
        at_root = float(op.excitation(res.n_cutoff / t_c))
        worst_level = max(worst_level, abs(at_root / half - 1.0))
        worst_cell = max(worst_cell, abs(res_fine.n_cutoff / res.n_cutoff - 1.0))
    ok = worst_level < 1e-9 and worst_cell < 1e-5
    detail = f"max |p(n_cut)/(peak/2) - 1| {worst_level:.1e} (<1e-9), max cell-halving move {worst_cell:.1e} (<1e-5)"
    return ok, detail


def check_kernel_vs_mc_detector(level: str, seed: int) -> tuple:
    replicas = 1_000_000 if level == "full" else 200_000
    spec = link.LinkConfig(dev=REF_DEV, timing=REF_TIMING, env=REF_ENV).build_spec(-150.0)
    worst_z = 0.0
    for sym, kern in ((0, spec.kernel0), (1, spec.kernel1)):
        for entry, flag in ((0, False), (1, True)):
            st = detection.mc_detector(
                kern.rate, REF_TIMING, REF_DEV, enter_excited=flag, replicas=replicas,
                rng=substream(seed, 0x07, sym, entry),
            )
            p1 = kern.bit_given_entry[entry, 1]
            z = abs(st.readout_bit.value - p1) / max(st.readout_bit.stderr, 1e-12)
            worst_z = max(worst_z, z)
    return worst_z < 4.0, f"max |z| {worst_z:.2f}"


def check_saturation_negligible_low_power(level: str, seed: int) -> tuple:
    """The dead-time filter moves the excitation at low mean photon
    numbers by far less than two Monte Carlo standard errors at 1e6
    replicas; both sides are exact."""
    operator = saturation.SurvivorOperator.build(REF_TIMING, REF_DEV)
    worst = 0.0
    for mean in (0.02, 0.05, 0.1):
        lam = mean / REF_TIMING.t_c
        sat = float(operator.excitation(lam))
        gap = excitation_ctmc(lam, REF_TIMING, REF_DEV) - sat
        worst = max(worst, abs(gap) / (2.0 * math.sqrt(sat * (1.0 - sat) / 1e6)))
    return worst < 1.0, f"max |gap|/(2 se at 1e6 replicas) {worst:.4f}"


CHECKS: tuple = (
    check_trivial_identities,
    check_ground_return_quadrature,
    check_single_photon_quadrature,
    check_dp_vs_enumeration,
    check_lemma_series,
    check_theorem2_vs_mixture,
    check_pair_survival_pieces,
    check_delta_sign_structure,
    check_fit_recovery,
    check_hmm_emission_normalization,
    check_frame_stats_law,
    check_rate_bracket,
    check_viterbi_bruteforce,
    check_forward_total_probability,
    check_kernel_vs_mc_detector,
    check_poisson_excitation_vs_mc,
    check_survivor_moments_vs_mc,
    check_saturation_negligible_low_power,
    check_survivor_excitation_vs_mc,
    check_cutoff_root,
)


NAMES: tuple = tuple(fn.__name__.removeprefix("check_").replace("_", "-") for fn in CHECKS)


def run_checks(level: str, seed: int, names: Optional[list] = None) -> list:
    """Run the battery, or the checks named in names; one CheckResult per check.

    Each check returns (passed, detail) and is named after its function.
    """
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    unknown = sorted(set(names or ()) - set(NAMES))
    if unknown:
        raise ValueError(f"unknown check names {unknown}; valid names: {', '.join(NAMES)}")
    results = []
    for fn, name in zip(CHECKS, NAMES):
        if not names or name in names:
            passed, detail = fn(level, seed)
            results.append(CheckResult(name, bool(passed), detail))
    return results
