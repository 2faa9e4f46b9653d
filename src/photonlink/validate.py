"""The closed-form-versus-oracle check battery.

Every analytic result in the package has an independent route: defining
integrals by quadrature, exhaustive enumeration, or event-driven Monte
Carlo.  The battery runs them side by side and reports one line per
check.  It is the only copy of these oracles: `photonlink validate`
runs it (exit 3 if any check fails), and at level "full" the acceptance
suite runs every check once at the full sample sizes.  Level "quick"
runs the same checks on fewer points and samples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from . import detection, link, saturation
from .physics import (
    CycleTiming,
    DeviceParams,
    Environment,
    PulseProfile,
    ground_return_prob,
    single_photon_excitation,
    single_photon_excitation_double_integral,
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


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_trivial_identities(level: str, seed: int) -> CheckResult:
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
    return _result("trivial-identities", not bad, f"max |err| {max(abs(v) for v in vals.values()):.2e}")


def check_ground_return_quadrature(level: str, seed: int) -> CheckResult:
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
        numeric, _ = integrate.quad(
            lambda s: (kappa / 4) * math.exp(-kappa * s / 4) * (1 - math.exp(-gamma * (t - s))),
            0.0,
            t,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-30))
    return _result("ground-return-quadrature", worst < 1e-8, f"max rel err {worst:.2e}")


def check_single_photon_quadrature(level: str, seed: int) -> CheckResult:
    worst = 0.0
    for shape in ("rectangular", "gaussian"):
        pulse = PulseProfile(l=2.0, shape=shape)
        for kappa, gamma, t_obs in [(8.0, 1.0, 1.5), (8.0, 2.0, 1.1), (3.0, 0.0, 2.0)]:
            dev = DeviceParams(kappa=kappa, gamma=gamma)
            a = single_photon_excitation(pulse, t_obs, dev)
            b = single_photon_excitation_double_integral(pulse, t_obs, dev)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    return _result("single-photon-quadrature", worst < 1e-8, f"max rel err {worst:.2e}")


def check_dp_vs_enumeration(level: str, seed: int) -> CheckResult:
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
        total = sum(
            detection.transition_set_probability(trace, dev, [0] + [j + 1 for j, b in enumerate(mask) if b])
            for mask in itertools.product((0, 1), repeat=n - 1)
        )
        worst_total = max(worst_total, abs(total - 1.0))
    ok = worst < 1e-12 and worst_total < 1e-12
    return _result("dp-vs-enumeration", ok, f"max |dp-enum| {worst:.2e}, max |sum P(K)-1| {worst_total:.2e}")


def check_poisson_excitation_vs_mc(level: str, seed: int) -> CheckResult:
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
        exact = detection.excitation_ctmc(lam, timing, dev)
        se = math.hypot(analytic.stderr, mc.excited_at_obs.stderr)
        z = abs(analytic.value - mc.excited_at_obs.value) / max(se, 1e-12)
        worst_z = max(worst_z, z)
        for oracle in (analytic, mc.excited_at_obs):
            worst_exact = max(worst_exact, abs(exact - oracle.value) / max(oracle.stderr, 1e-12))
    ok = worst_z < 4.0 and worst_exact < 4.0
    return _result(
        "poisson-excitation-vs-mc", ok,
        f"{n_points} points, max |z| {worst_z:.2f}, exact vs dp/mc max |z| {worst_exact:.2f}",
    )


def check_survivor_moments_vs_mc(level: str, seed: int) -> CheckResult:
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
        s = _survivor_counts(substream(seed, 0x03, i), kind, x, tau, replicas)
        if kind == "count":
            moments = saturation.survivor_moments_given_count(x, tau, 1.0)
        else:
            moments = saturation.survivor_moments_poisson(x, tau, 1.0)
        worst_z = max(worst_z, _moment_z(s, moments))
    return _result("survivor-moments-vs-mc", worst_z < 4.0, f"{len(keyed)} cases, max |z| {worst_z:.2f}")


def _survivor_counts(rng, kind: str, x, tau: float, replicas: int) -> np.ndarray:
    """Survivor counts on [0, 1] of x uniform photons (kind "count") or of
    Poisson arrival at rate x (kind "poisson"), drawn in blocks."""
    block = 200_000 if kind == "count" else 100_000
    out = np.empty(replicas)
    for start in range(0, replicas, block):
        m = min(block, replicas - start)
        if kind == "count":
            arr = np.sort(rng.random((m, x)), axis=1)
        else:
            arr, _ = saturation._poisson_sorted_arrivals(rng, x, m, 1.0)
        out[start : start + m] = saturation.survivor_mask(arr, tau).sum(axis=1)
    return out


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


def check_lemma_series(level: str, seed: int) -> CheckResult:
    worst = 0.0
    from scipy import stats

    for alpha, lam in [(0.5, 2.0), (1.0, 3.0), (0.9, 0.0), (0.2, 7.0)]:
        closed = saturation.poisson_weighted_moments(alpha, lam)
        n = np.arange(0, 200)
        w = stats.poisson.pmf(n, lam)
        series = (
            float(np.sum(w * alpha**n)),
            float(np.sum(w * n * alpha**n)),
            float(np.sum(w * n * n * alpha**n)),
        )
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, series)))
    return _result("lemma-series", worst < 1e-12, f"max |err| {worst:.2e}")


def check_theorem2_vs_mixture(level: str, seed: int) -> CheckResult:
    worst = 0.0
    for a, ratio in [(0.05, 4.0), (0.5, 8.0), (2.0, 16.0), (5.0, 10.0)]:
        tau, t_c = 1.0, ratio
        lam = a / tau
        big = lam * t_c
        x = [1.0 - k * tau / t_c for k in (1, 2, 3, 4)]
        e = [saturation.poisson_weighted_moments(xk, big) for xk in x]
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
    return _result("theorem2-vs-mixture", worst < 1e-10, f"max |err| {worst:.2e}")


def check_pair_survival_pieces(level: str, seed: int) -> CheckResult:
    ns = (2, 3, 7) if level == "full" else (2, 3)
    worst = 0.0
    worst_comb = 0.0
    for n in ns:
        for ratio in (0.05, 0.2):
            p = saturation.pair_survival_integrals(n, ratio, 1.0)
            for num, clo in zip(p.numeric, p.closed):
                worst = max(worst, abs(num - clo) / max(abs(clo), 1e-30))
            m = saturation.survivor_moments_given_count(n, ratio, 1.0)
            recombined = m.mean + n * (n - 1) * p.pair_survival_numeric
            worst_comb = max(worst_comb, abs(recombined - m.second_moment) / m.second_moment)
    ok = worst < 1e-8 and worst_comb < 1e-9
    return _result("pair-survival-pieces", ok, f"max piece rel {worst:.2e}, recombination rel {worst_comb:.2e}")


def check_delta_sign_structure(level: str, seed: int) -> CheckResult:
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
    return _result("delta-sign-structure", ok, "; ".join(details))


def _ref_spec() -> link.HmmSpec:
    return link.LinkConfig(dev=REF_DEV, timing=REF_TIMING, env=REF_ENV).build_spec(-148.3)


def check_hmm_emission_normalization(level: str, seed: int) -> CheckResult:
    spec_full = _ref_spec()
    worst_sum = 0.0
    worst_pair = 0.0
    rng = substream(seed, 0x04)
    for n in (1, 3, 8, 12):
        spec = link.HmmSpec(kernel0=spec_full.kernel0, kernel1=spec_full.kernel1, n_cycles=n)
        probs, frames = spec.enumerate_block_probs()
        worst_sum = max(worst_sum, float(np.abs(probs.sum(axis=0) - 1.0).max()))
        sub = frames[rng.integers(0, len(frames), size=min(64, len(frames)))]
        a = spec.block_emission_logprob(sub)
        b = spec.block_emission_logprob_matrix(sub)
        finite = np.isfinite(a) & np.isfinite(b)
        worst_pair = max(worst_pair, float(np.abs(a[finite] - b[finite]).max()))
        if not np.array_equal(np.isfinite(a), np.isfinite(b)):
            worst_pair = math.inf
    ok = worst_sum < 1e-12 and worst_pair < 1e-10
    return _result("hmm-emission-normalization", ok, f"max |sum-1| {worst_sum:.2e}, paths diff {worst_pair:.2e}")


def check_viterbi_bruteforce(level: str, seed: int) -> CheckResult:
    base = _ref_spec()
    rng = substream(seed, 0x05)
    mismatches = 0
    for trial in range(40):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        spec = link.HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=n)
        frames = (rng.random((t, n)) < rng.uniform(0.1, 0.9)).astype(np.int64)
        got = link.viterbi_decode(spec, frames)
        emis = spec.block_emission_logprob(frames)
        log_a = np.log(spec.transition)
        log_pi = np.log(spec.initial + 1e-300)
        best_score, best_path = -math.inf, None
        for path in itertools.product(range(4), repeat=t):
            score = log_pi[path[0]] + emis[0, path[0]]
            for u in range(1, t):
                score += log_a[path[u - 1], path[u]] + emis[u, path[u]]
            if score > best_score + 1e-12:
                best_score, best_path = score, path
        want = np.array([p % 2 for p in best_path])
        if not np.array_equal(got, want):
            mismatches += 1
    return _result("viterbi-bruteforce", mismatches == 0, f"{mismatches} mismatches over 40 trials")


def check_forward_total_probability(level: str, seed: int) -> CheckResult:
    base = _ref_spec()
    worst = 0.0
    for n, t in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        spec = link.HmmSpec(kernel0=base.kernel0, kernel1=base.kernel1, n_cycles=n)
        total = 0.0
        for seq in itertools.product(range(2**n), repeat=t):
            frames = ((np.array(seq)[:, None] >> np.arange(n)[None, ::-1]) & 1).astype(np.int64)
            total += 2.0 ** float(link.forward_loglik(spec, frames).sum())
        worst = max(worst, abs(total - 1.0))
    return _result("forward-total-probability", worst < 1e-10, f"max |sum-1| {worst:.2e}")


def check_fit_recovery(level: str, seed: int) -> CheckResult:
    xs = np.geomspace(100.0, 1e5, 9)
    ys = cutoff_law(xs)
    fit = saturation.fit_cutoff_curve(list(zip(xs, ys)))
    err = max(abs(fit.a - 1.457), abs(fit.b - 1.132), abs(fit.c + 0.8766))
    rng = substream(seed, 0x06)
    noisy = ys * (1.0 + 0.05 * rng.standard_normal(ys.size))
    fit_noisy = saturation.fit_cutoff_curve(list(zip(xs, noisy)))
    ok = err < 1e-6 and abs(fit_noisy.b - 1.132) < 0.05
    return _result("fit-recovery", ok, f"exact err {err:.2e}, noisy b {fit_noisy.b:.4f}")


def cutoff_law(kappa_tc: float) -> float:
    """Reference 3 dB cutoff law n = 1.457 (kappa t_c)^1.132 - 0.8766."""
    return 1.457 * kappa_tc**1.132 - 0.8766


def first_survivor_z(points, seed: int) -> float:
    """Largest |z| of first_survivor_excitation against saturated_excitation.

    points are (kappa t_c, mean photons per cycle, replicas) triples at
    gamma = 0 with ground entry; point i draws from substream (seed, 0x09, i).
    Points where nearly every replica reads 1 (the top of the plateau)
    have a degenerate Monte Carlo spread and make z meaningless.
    """
    t_c = 230e-9  # the curve depends on t_c only through kappa t_c and the mean
    timing = CycleTiming(t_c=t_c, delta_o=t_c * 1e-9, t_w=t_c * 1e-9)
    worst = 0.0
    for i, (kappa_tc, nbar, replicas) in enumerate(points):
        dev = DeviceParams(kappa=kappa_tc / t_c, gamma=0.0)
        exact = float(saturation.first_survivor_excitation(nbar / t_c, t_c, dev))
        mc = saturation.saturated_excitation(
            nbar / t_c, timing, dev, replicas=replicas, rng=substream(seed, 0x09, i)
        )
        worst = max(worst, abs(exact - mc.value) / max(mc.stderr, 1e-12))
    return worst


def check_first_survivor_vs_mc(level: str, seed: int) -> CheckResult:
    """Exact gamma = 0 saturated excitation against the Monte Carlo on
    the shoulder of the plateau, at the 3 dB point and in the tail."""
    kappa_tcs = (1e2, 10**2.5, 1e3, 10**3.5, 1e4) if level == "full" else (1e2, 1e3)
    budget = 2e8 if level == "full" else 2e7  # arrivals per point
    points = [
        (x, nbar, int(min(40_000, budget / nbar)))
        for x in kappa_tcs
        for nbar in (5.0, cutoff_law(x), 1.2 * cutoff_law(x))
    ]
    worst = first_survivor_z(points, seed)
    return _result("first-survivor-vs-mc", worst < 4.0, f"{len(points)} points, max |z| {worst:.2f}")


def check_kernel_vs_mc_detector(level: str, seed: int) -> CheckResult:
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
    return _result("kernel-vs-mc-detector", worst_z < 4.0, f"max |z| {worst_z:.2f}")


def check_saturation_negligible_low_power(level: str, seed: int) -> CheckResult:
    replicas = 1_000_000 if level == "full" else 200_000
    worst = 0.0
    for mean in (0.02, 0.05, 0.1) if level == "full" else (0.02, 0.1):
        gap, sat = saturation.saturation_gap(
            mean / REF_TIMING.t_c, REF_TIMING, REF_DEV, replicas=replicas,
            rng=substream(seed, 0x08, int(mean * 1000)),
        )
        # the paired gap must sit far inside two unpaired Monte Carlo
        # standard errors of the saturated estimate itself
        unpaired_se = math.sqrt(max(sat.value * (1 - sat.value), 1e-12) / replicas)
        worst = max(worst, (abs(gap.value) + 2 * gap.stderr) / (2 * unpaired_se))
    return _result(
        "saturation-negligible-low-power", worst < 1.0, f"max (|gap|+2se)/(2 mc se) {worst:.3f}"
    )


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
    check_viterbi_bruteforce,
    check_forward_total_probability,
    check_kernel_vs_mc_detector,
    check_poisson_excitation_vs_mc,
    check_survivor_moments_vs_mc,
    check_saturation_negligible_low_power,
    check_first_survivor_vs_mc,
)


NAMES: tuple = tuple(fn.__name__.removeprefix("check_").replace("_", "-") for fn in CHECKS)


def run_checks(level: str = "quick", seed: int = 0, names: Optional[list] = None) -> list:
    """Run the battery, or the checks named in names; one CheckResult per check."""
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    unknown = sorted(set(names or ()) - set(NAMES))
    if unknown:
        raise ValueError(f"unknown check names {unknown}; valid names: {', '.join(NAMES)}")
    return [fn(level, seed) for fn, name in zip(CHECKS, NAMES) if not names or name in names]
