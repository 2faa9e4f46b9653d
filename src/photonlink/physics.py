"""Closed-form single-photon and single-cycle physics of the detector.

The detector is an effective two-step stochastic machine: an absorbed
photon starts an exponential transition clock with rate kappa/4 toward
the excited level, and the excited level decays back to ground with
rate gamma.  Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError

# exact in the 2019 SI; equal to scipy.constants.h and .k
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_K = 1.380649e-23  # J / K

__all__ = [
    "DeviceParams",
    "CycleTiming",
    "PulseProfile",
    "Environment",
    "ground_return_prob",
    "transition_kernels",
    "excited_kernel",
    "single_photon_excitation",
    "single_photon_excitation_quadrature",
    "single_photon_excitation_double_integral",
    "detection_prob_single",
    "readout_prob",
    "thermal_photon_rate",
    "power_to_rate",
    "dbm_to_watts",
    "detector_events",
]

#: Relative half-width of the series window around a removable singularity.
_SERIES_EPS = 1e-8


def _phi(x):
    """Stable (1 - exp(-x)) / x, equal to 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_EPS
    xs = np.where(small, 1.0, x)
    out = np.asarray(-np.expm1(-xs) / xs)
    t = x[small]  # the series through the removable singularity, only where taken: past 1e154 t * t overflows
    out[small] = 1.0 - t / 2.0 + t * t / 6.0
    return out


# Taylor coefficients of the cell weights below z = 0.05, highest order first
_LOWER_SERIES = [(-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(7, -1, -1)]
_UPPER_SERIES = [(-1) ** k / math.factorial(k + 2) for k in range(7, -1, -1)]
_SQUARE_SERIES = [(-1) ** k / (math.factorial(k) * (k + 3)) for k in range(7, -1, -1)]


def _cell_weights(z):
    """Weights (lower node, upper node) of int_0^1 f(theta) e^{-z (1 - theta)} dtheta
    for f linear between its node values, elementwise for z >= 0."""
    z = np.asarray(z, dtype=float)
    small = z < 0.05
    zs = np.where(small, 1.0, z)
    em1 = np.expm1(-zs)
    with np.errstate(over="ignore"):  # past z = 1e154 the weights, below 1/z, read 0
        zz = zs * zs
    lower = np.asarray((-em1 - zs * (em1 + 1.0)) / zz)
    upper = np.asarray((zs + em1) / zz)
    zt = z[small]  # the series only where they are taken: past z = 1e38 their powers overflow
    lower[small] = np.polyval(_LOWER_SERIES, zt)
    upper[small] = np.polyval(_UPPER_SERIES, zt)
    return lower, upper


def _cell_square_weight(z, lower):
    """int_0^1 s^2 e^{-z s} ds elementwise for z >= 0, from lower = _cell_weights(z)[0]."""
    z = np.asarray(z, dtype=float)
    small = z < 0.05
    zs = np.where(small, 1.0, z)
    out = np.asarray((2.0 * lower - np.exp(-zs)) / zs)
    out[small] = np.polyval(_SQUARE_SERIES, z[small])
    return out


#: Above this argument erfcx comes from its asymptotic series: 20 terms of
#: it reach 1e-18, and below it exp(z^2) carries a relative error of at
#: most z^2 ulp, 7e-15.
_ERFCX_ASYMPTOTIC = 8.0


def _erfcx_tail(z: float) -> float:
    """1 - sqrt(pi) z erfcx(z) for z >= _ERFCX_ASYMPTOTIC, by the asymptotic
    series sum_{n>=1} (-1)^(n+1) (2n-1)!! / (2 z^2)^n."""
    q = 0.5 / (z * z)
    term, total = -1.0, 0.0
    for n in range(1, 21):
        term *= -(2 * n - 1) * q
        total += term
    return total


def _erfc_terms(z: float, log_w: float) -> tuple:
    """(w erfcx(z), w (1/2 - sqrt(pi)/2 z erfcx(z))) with w = e^log_w and
    erfcx(z) = e^{z^2} erfc(z); finite for z < 0 when log_w + z^2 <= 0."""
    w = math.exp(log_w)
    if z < _ERFCX_ASYMPTOTIC:
        scaled = math.erfc(z) * math.exp(log_w + z * z)
        return scaled, 0.5 * w - 0.5 * math.sqrt(math.pi) * z * scaled
    tail = _erfcx_tail(z)
    return w * (1.0 - tail) / (math.sqrt(math.pi) * z), 0.5 * w * tail


@dataclass(frozen=True)
class DeviceParams:
    """Effective detector rates and error probabilities.

    kappa and gamma are angular rates in rad/s; the effective transition
    rate of the absorption model, kappa/4, and the saturation dead time,
    alpha_sat/kappa, are always derived, never stored.  p_reset_g /
    p_reset_e are the probabilities that the reset stage leaves the
    system excited given it ended the cycle in ground / excited; the
    defaults are documented modelling assumptions.
    """

    kappa: float
    gamma: float
    p0: float = 0.0
    p_reset_g: float = 0.01
    p_reset_e: float = 0.05
    alpha_sat: float = 1.14

    def __post_init__(self):
        if not self.kappa > 0:
            raise ParameterError("kappa", f"kappa must be > 0, got {self.kappa}")
        if self.gamma < 0:
            raise ParameterError("gamma", f"gamma must be >= 0, got {self.gamma}")
        for name in ("p0", "p_reset_g", "p_reset_e"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(name, f"{name} must be in [0, 1], got {p}")
        if not self.alpha_sat > 0:
            raise ParameterError("alpha_sat", f"alpha_sat must be > 0, got {self.alpha_sat}")
        if not self.dead_time > 0:
            raise ParameterError(
                "alpha_sat", f"the dead time alpha_sat/kappa = {self.alpha_sat}/{self.kappa} rounds to 0"
            )

    @property
    def transition_rate(self) -> float:
        """Effective ground-to-excited transition rate, kappa/4."""
        return self.kappa / 4.0

    @property
    def dead_time(self) -> float:
        """Saturation dead time tau = alpha_sat/kappa on either side of each arrival."""
        return self.alpha_sat / self.kappa


@dataclass(frozen=True)
class CycleTiming:
    """Durations of one detection cycle, in seconds."""

    t_c: float
    delta_o: float
    t_w: float

    def __post_init__(self):
        for name in ("t_c", "delta_o", "t_w"):
            if not getattr(self, name) > 0:
                raise ParameterError(name, f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def t_obs(self) -> float:
        """Observation instant measured from the start of the capture stage."""
        return self.t_c + self.delta_o


@dataclass(frozen=True)
class PulseProfile:
    """Arrival-time density of a single signal photon.

    The density rho(t) lives on [-t_i, t_i] with t_i = (beta*l + w) / 2.
    Shapes: "rectangular" (uniform), "gaussian" (sigma = l/4, truncated
    and renormalized), "tabulated" (piecewise-linear through the given
    nodes and zero outside them, cut to [-t_i, t_i] and renormalized
    there).
    """

    l: float
    shape: str = "rectangular"
    beta: float = 1.0
    w: float = 0.0
    nodes: Optional[Sequence[tuple]] = None

    def __post_init__(self):
        if self.shape not in ("rectangular", "gaussian", "tabulated"):
            raise ParameterError("shape", f"unknown pulse shape {self.shape!r}")
        if not self.l > 0:
            raise ParameterError("l", f"l must be > 0, got {self.l}")
        if not self.beta > 0:
            raise ParameterError("beta", f"beta must be > 0, got {self.beta}")
        if not self.w >= 0:
            raise ParameterError("w", f"w must be >= 0, got {self.w}")
        if self.shape == "tabulated":
            if not self.nodes or len(self.nodes) < 2:
                raise ParameterError("nodes", "tabulated pulse needs at least two (t, rho) nodes")
            t = np.asarray([n[0] for n in self.nodes], dtype=float)
            r = np.asarray([n[1] for n in self.nodes], dtype=float)
            if np.any(np.diff(t) <= 0):
                raise ParameterError("nodes", "tabulated nodes must have strictly increasing t")
            if np.any(r < 0):
                raise ParameterError("nodes", "tabulated density must be nonnegative")
        if not self.t_i > 0:
            raise ParameterError("l", "pulse support collapsed, t_i must be > 0")
        if self.shape == "tabulated" and not self._tabulated[3] > 0:
            raise ParameterError("nodes", f"tabulated density has zero mass on [-t_i, t_i], t_i = {self.t_i}")

    @property
    def t_i(self) -> float:
        return (self.beta * self.l + self.w) / 2.0

    @cached_property
    def _tabulated(self) -> tuple:
        """The tabulated density cut to [-t_i, t_i], before renormalization:
        breakpoints t, its values at the left and right end of each cell, and
        its mass there."""
        ti = self.t_i
        knots_t = np.asarray([n[0] for n in self.nodes], dtype=float)
        knots_r = np.asarray([n[1] for n in self.nodes], dtype=float)
        t = np.unique(np.concatenate([[-ti, ti], knots_t[(knots_t > -ti) & (knots_t < ti)]]))
        mid = 0.5 * (t[:-1] + t[1:])
        inside = (mid > knots_t[0]) & (mid < knots_t[-1])  # the density jumps to 0 at the end nodes
        left = np.where(inside, np.interp(t[:-1], knots_t, knots_r), 0.0)
        right = np.where(inside, np.interp(t[1:], knots_t, knots_r), 0.0)
        return t, left, right, float(0.5 * np.sum(np.diff(t) * (left + right)))

    def _cells(self) -> tuple:
        """A rectangular or tabulated density as piecewise-linear cells of unit
        mass: breakpoints t and the density at the left and right end of each cell."""
        if self.shape == "rectangular":
            rho = np.array([0.5 / self.t_i])
            return np.array([-self.t_i, self.t_i]), rho, rho
        t, left, right, mass = self._tabulated
        return t, left / mass, right / mass

    def density(self, t) -> np.ndarray:
        """Evaluate rho(t); zero outside [-t_i, t_i]."""
        t = np.asarray(t, dtype=float)
        ti = self.t_i
        inside = (t >= -ti) & (t <= ti)
        if self.shape == "rectangular":
            rho = np.full_like(t, 1.0 / (2.0 * ti))
        elif self.shape == "gaussian":
            sigma = self.l / 4.0
            rho = np.exp(-0.5 * (t / sigma) ** 2)
            # renormalize the truncated gaussian to unit mass on [-t_i, t_i]
            norm = sigma * math.sqrt(2 * math.pi) * math.erf(ti / (sigma * math.sqrt(2)))
            rho = rho / norm
        else:
            knots_t = np.asarray([n[0] for n in self.nodes], dtype=float)
            knots_r = np.asarray([n[1] for n in self.nodes], dtype=float)
            rho = np.interp(t, knots_t, knots_r, left=0.0, right=0.0) / self._tabulated[3]
        return np.where(inside, rho, 0.0)


@dataclass(frozen=True)
class Environment:
    """Receiver environment: noise temperature, carrier, cycles per symbol."""

    t_e: float
    nu: float
    cycles_per_symbol: int

    def __post_init__(self):
        if self.t_e < 0:
            raise ParameterError("t_e", f"t_e must be >= 0, got {self.t_e}")
        if not PLANCK_H * self.nu > 0:
            raise ParameterError("nu", f"nu must be > 0 and h nu must not round to 0, got {self.nu}")
        if self.cycles_per_symbol < 1:
            raise ParameterError(
                "cycles_per_symbol", f"cycles_per_symbol must be >= 1, got {self.cycles_per_symbol}"
            )


def excited_kernel(t, kappa: float, gamma: float):
    """P(excited at t | transition clock started at 0).

    Equals kappa/(kappa - 4*gamma) * (exp(-gamma t) - exp(-kappa t / 4)).
    Evaluated as r*t*exp(-min(r,gamma)*t)*phi(|r-gamma|*t) with r = kappa/4,
    which is stable on both sides of the removable r = gamma singularity
    and never overflows.
    """
    t = np.asarray(t, dtype=float)
    r = kappa / 4.0
    x = (r - gamma) * t
    lead = np.exp(-np.where(x >= 0, gamma, r) * t)
    return r * t * lead * _phi(np.abs(x))


def ground_return_prob(t, dev: DeviceParams):
    """Probability of a full transition-and-decay cycle completing by time t.

    This is the probability the system, having started a transition at
    time 0, is back in ground before t: monotone nondecreasing, 0 at 0,
    1 as t grows (for gamma > 0).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    fired = -np.expm1(-dev.transition_rate * t)
    out = fired - excited_kernel(t, dev.kappa, dev.gamma)
    res = np.clip(out, 0.0, 1.0)
    return float(res) if np.ndim(t) == 0 else res


def transition_kernels(t, t0, dev: DeviceParams):
    """Joint state weights at time t given a transition started at 0 and
    the system completed no full cycle before t0.

    Returns (f1, f2): f1 is the weight of occupying ground at t, f2 the
    weight of occupying the excited level at t (f2 does not depend on t0:
    the excited level at t >= t0 already implies no earlier completed
    cycle).  f1 + f2 = 1 - ground_return_prob(t0).
    """
    t = np.asarray(t, dtype=float)
    t0 = np.asarray(t0, dtype=float)
    if np.any(t0 < 0) or np.any(t0 > t):
        raise ValueError("require 0 <= t0 <= t")
    f2 = excited_kernel(t, dev.kappa, dev.gamma)
    f1 = np.exp(-dev.transition_rate * t0) + excited_kernel(t0, dev.kappa, dev.gamma) - f2
    f1 = np.clip(f1, 0.0, 1.0)
    f2 = np.clip(f2, 0.0, 1.0)
    if np.ndim(t) == 0 and np.ndim(t0) == 0:
        return float(f1), float(f2)
    return f1, f2


#: Bound on |r - gamma| M/L (M/L: the mean delay to the end of the drive
#: under the tilted density) below which the single-photon excitation takes
#: the first term of its series in r - gamma.  The first neglected term is
#: at most (|r - gamma| M/L)^2 / 4 = 1e-10 there; outside, the difference
#: of the two transforms loses about ulp L/(|r - gamma| M) = 1e-11 to rounding.
_COINCIDENT_EPS = 2e-5


def _pulse_transform(pulse: PulseProfile, a: float) -> tuple:
    """(L, M) = int rho(t) (1, t_i - t) e^{-a (t_i - t)} dt over the pulse support, for a >= 0.

    L is the transform of the pulse density at the end of the drive and M
    = -dL/da its first moment, both in closed form.  Rectangular and
    tabulated densities are piecewise linear, and each cell is integrated
    exactly.  For the gaussian, L(a) = [e^{-x^2} erfcx(z1) - e^{-x^2 - 2 a t_i}
    erfcx(z2)] / (2 erf(x)) with x = t_i / (sigma sqrt 2) and
    z1,2 = (a sigma^2 -/+ t_i) / (sigma sqrt 2), and M follows by parts.
    """
    ti = pulse.t_i
    if pulse.shape == "gaussian":
        sigma = pulse.l / 4.0
        x = ti / (sigma * math.sqrt(2.0))
        z1 = (a * sigma * sigma - ti) / (sigma * math.sqrt(2.0))
        e1, h1 = _erfc_terms(z1, -x * x)
        e2, h2 = _erfc_terms(z1 + 2.0 * x, -x * x - 2.0 * a * ti)
        norm = math.erf(x)
        moment = sigma * math.sqrt(2.0 / math.pi) * (h1 - h2 - x * math.sqrt(math.pi) * e2) / norm
        return (e1 - e2) / (2.0 * norm), moment
    t, left, right = pulse._cells()
    width = np.diff(t)
    delay = ti - t[1:]  # from the right end of each cell to the end of the drive
    lower, upper = _cell_weights(a * width)
    square = _cell_square_weight(a * width, lower)
    scale = width * np.exp(-a * delay)
    zeroth = lower * left + upper * right  # int_0^1 rho e^{-a width s} ds, s = 1 - theta
    first = square * left + (lower - square) * right  # the same with a factor s
    return float(scale @ zeroth), float(scale @ (delay * zeroth + width * first))


def single_photon_excitation(pulse: PulseProfile, t_obs: float, dev: DeviceParams) -> float:
    """Excitation probability at the observation time for one signal photon.

    A photon arriving at t is excited at the end of the drive t_i with
    probability K(t_i - t), K(u) = r/(r - gamma) (e^{-gamma u} - e^{-r u}),
    and then only decays until t_obs.  So P = r [L(gamma) - L(r)] / (r - gamma)
    * e^{-gamma (t_obs - t_i)} with L from `_pulse_transform`.  Near r = gamma
    the difference quotient is M((r + gamma)/2) + O((r - gamma)^2), the first
    term of its series in r - gamma.
    """
    ti = pulse.t_i
    if t_obs < ti:
        raise ValueError(f"t_obs {t_obs} must be >= pulse half-width {ti}")
    r, gamma = dev.transition_rate, dev.gamma
    transform, moment = _pulse_transform(pulse, 0.5 * (r + gamma))
    if abs(r - gamma) * moment <= _COINCIDENT_EPS * transform:
        val = r * moment
    else:
        val = r * (_pulse_transform(pulse, gamma)[0] - _pulse_transform(pulse, r)[0]) / (r - gamma)
    val *= math.exp(-gamma * (t_obs - ti))
    return min(max(val, 0.0), 1.0)


def single_photon_excitation_quadrature(
    pulse: PulseProfile,
    t_obs: float,
    dev: DeviceParams,
    epsabs: float = 1e-10,
) -> float:
    """Same quantity by adaptive quadrature of rho(t) K(t_i - t); oracle of the closed form.

    The kernel rises over 1/r after the arrival, so the integrand has a
    boundary layer of width 1/r at the end of the drive that adaptive
    quadrature over a long pulse steps over; the interval is broken there.
    """
    from scipy import integrate

    ti = pulse.t_i
    if t_obs < ti:
        raise ValueError(f"t_obs {t_obs} must be >= pulse half-width {ti}")
    gamma = dev.gamma

    def integrand(t: float) -> float:
        return float(pulse.density(t)) * float(excited_kernel(ti - t, dev.kappa, gamma))

    r = dev.transition_rate
    pts = [ti - k / r for k in (1.0, 10.0, 100.0)]
    if pulse.shape == "tabulated":
        pts += [float(n[0]) for n in pulse.nodes]
    pts = sorted({p for p in pts if -ti < p < ti})
    val, _ = integrate.quad(integrand, -ti, ti, epsabs=epsabs, limit=400, points=pts or None)
    return val * math.exp(-gamma * (t_obs - ti))


_DOUBLE_INTEGRAL_EPSABS = 1e-12


def single_photon_excitation_double_integral(
    pulse: PulseProfile,
    t_obs: float,
    dev: DeviceParams,
) -> float:
    """Same quantity by the raw double integral; quadrature cross-check path."""
    from scipy import integrate

    ti = pulse.t_i
    if t_obs < ti:
        raise ValueError(f"t_obs {t_obs} must be >= pulse half-width {ti}")
    r = dev.transition_rate
    gamma = dev.gamma
    val, _ = integrate.dblquad(
        lambda q, t: float(pulse.density(t)) * r * math.exp(-r * (q - t)) * math.exp(-gamma * (t_obs - q)),
        -ti,
        ti,
        lambda t: t,
        lambda t: ti,
        epsabs=_DOUBLE_INTEGRAL_EPSABS,
    )
    return val


def detection_prob_single(p_exc, dev: DeviceParams):
    """Single-photon detection probability with dark-count flipping.

    (1 - P0) * p_exc + P0 * (1 - p_exc), elementwise over an array of
    p_exc; equals p_exc when P0 = 0.
    """
    p = np.asarray(p_exc, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p_exc must be in [0, 1], got {p_exc}")
    out = (1.0 - dev.p0) * p + dev.p0 * (1.0 - p)
    return float(out) if out.ndim == 0 else out


def readout_prob(p_capture, timing: CycleTiming, dev: DeviceParams):
    """P(readout bit 1) of a cycle whose capture stage reads 1 with probability p_capture.

    p_capture is detection_prob_single of the excitation; the bit then
    survives decay over the readout window t_w.  Elementwise over an array.
    """
    return math.exp(-dev.gamma * timing.t_w) * p_capture


def thermal_photon_rate(env: Environment) -> float:
    """Mean thermal photon count per capture window.

    k_B * T_e / (N * h * nu) with the signal bandwidth 1 / (N * T_c)
    folded in, so the result is already per window.
    """
    return BOLTZMANN_K * env.t_e / (env.cycles_per_symbol * PLANCK_H * env.nu)


def dbm_to_watts(power_dbm: float) -> float:
    """dBm to watts; -inf maps to 0 (carrier off)."""
    if power_dbm == -math.inf:
        return 0.0
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:  # past about 3110 dBm
        return math.inf


def power_to_rate(power_dbm: float, nu: float) -> float:
    """Received power in dBm to photon arrival rate in photons/s."""
    if not PLANCK_H * nu > 0:
        raise ValueError(f"nu must be > 0 and h nu must not round to 0, got {nu}")
    return dbm_to_watts(power_dbm) / (PLANCK_H * nu)


def _poisson_sorted_arrivals(rng: np.random.Generator, mean: float, m: int, t_c: float):
    """m rows of sorted Poisson-process arrivals on [0, t_c], padded with +inf, and their counts.

    Draws the m counts, then, if any is positive, one uniform per row and
    column up to the largest count; with no arrival at all the rows are a
    single +inf column and nothing more is drawn.
    """
    counts = rng.poisson(mean, m)
    n_max = int(counts.max()) if m else 0
    if n_max == 0:
        return np.full((m, 1), np.inf), counts
    arr = rng.random((m, n_max)) * t_c
    arr[np.arange(n_max)[None, :] >= counts[:, None]] = np.inf
    arr.sort(axis=1)
    return arr, counts


def detector_events(times, fire_w, decay_w, t_c: float, avail, last_fire, last_decay):
    """Event-driven detector dynamics over columns of sorted arrival times.

    Each row is one replica.  An arrival at t <= t_c that finds the
    system available arms it; the excited level is reached at
    t + fire_w and left at that time + decay_w, when the system becomes
    available again.  All draws are made by the caller; returns the
    final (last_fire, last_decay) times.
    """
    for j in range(times.shape[1]):
        t = times[:, j]
        take = (t >= avail) & (t <= t_c)
        fire = t + fire_w[:, j]
        decay = fire + decay_w[:, j]
        last_fire = np.where(take, fire, last_fire)
        last_decay = np.where(take, decay, last_decay)
        avail = np.where(take, decay, avail)
    return last_fire, last_decay
