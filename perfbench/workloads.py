"""The four pinned batch workloads and the checks on their outputs.

Each workload is one `photonlink <command>` call with `--set` overrides
on top of configs/default.yaml.  A check reads the CSV/JSON files the
call wrote and returns (name, passed) pairs; every workload has a fixed
number of checks, so a failed call counts all of them as failed.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POWERS = "{start: -154.0, stop: -146.0, points: 5, scale: linear}"
KAPPA_T_C = [10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0)]

BER_TARGET = 1e-3
BER_TARGET_DBM = -148.3  # the detect power of configs/default.yaml
BER_TARGET_TOL_DB = 2.0


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _monotone(values, errs, increasing: bool) -> list[bool]:
    """Neighbours may step the wrong way by at most 4 (sigma_i + sigma_i+1)."""
    sign = 1.0 if increasing else -1.0
    return [
        sign * (b - a) >= -4.0 * (ea + eb)
        for a, b, ea, eb in zip(values, values[1:], errs, errs[1:])
    ]


def ber_crossing_dbm(rows: list[dict]) -> float:
    """Power where the BER falls through 1e-3, interpolated in log10(BER).

    A zero BER is floored at half an error.  NaN when the grid does not
    bracket the crossing.
    """
    for lo, hi in zip(rows, rows[1:]):
        if lo["ber"] > BER_TARGET >= hi["ber"]:
            y0 = math.log10(lo["ber"])
            y1 = math.log10(max(hi["ber"], 0.5 / hi["n_symbols"]))
            frac = (y0 - math.log10(BER_TARGET)) / (y0 - y1)
            return lo["power_dbm"] + frac * (hi["power_dbm"] - lo["power_dbm"])
    return math.nan


def check_link_ber(out: Path) -> list[tuple[str, bool]]:
    rows = _rows(out / "ber_sweep" / "ber_sweep.csv")
    ber = [r["ber"] for r in rows]
    err = [r["stderr"] for r in rows]
    crossing = ber_crossing_dbm(rows)
    return (
        [(f"ber[{i}] in [0, 0.5]", 0.0 <= b <= 0.5) for i, b in enumerate(ber)]
        + [(f"ber[{i}] >= ber[{i + 1}]", ok) for i, ok in enumerate(_monotone(ber, err, False))]
        + [("1e-3 crossing near -148.3 dBm", abs(crossing - BER_TARGET_DBM) <= BER_TARGET_TOL_DB)]
    )


def check_link_rate(out: Path) -> list[tuple[str, bool]]:
    rows = _rows(out / "rate_sweep" / "rate_sweep.csv")
    rate = [r["rate"] for r in rows]
    err = [r["stderr"] for r in rows]
    return (
        [(f"rate[{i}] in [0, 1]", 0.0 <= v <= 1.0) for i, v in enumerate(rate)]
        + [(f"rate[{i}] <= rate[{i + 1}]", ok) for i, ok in enumerate(_monotone(rate, err, True))]
    )


def ctmc_readout(lam: float, kappa: float, gamma: float, t_c: float, delta_o: float,
                 t_w: float) -> float:
    """Readout probability of the unsaturated detector as a 3-state CTMC.

    G -> A at rate lam, A -> E at kappa/4, E -> G at gamma; the qubit is
    excited at the end of capture with expm(Q t_c)[G, E] and then has to
    survive decay through the observation delay and the readout window.
    """
    import numpy as np
    from scipy.linalg import expm

    r = kappa / 4.0
    q = np.array([[-lam, lam, 0.0], [0.0, -r, r], [gamma, 0.0, -gamma]])
    return float(expm(q * t_c)[0, 2]) * math.exp(-gamma * (delta_o + t_w))


def check_detect_miss(out: Path) -> list[tuple[str, bool]]:
    rows = _rows(out / "miss_sweep" / "miss_sweep.csv")
    checks = []
    for i, r in enumerate(rows):
        ref = ctmc_readout(r["lambda"], r["kappa"], r["gamma"], r["t_c"], r["delta_o"], r["t_w"])
        checks.append((f"p_readout[{i}] vs CTMC", abs(r["p_readout"] - ref) <= 4.0 * r["stderr"] + 1e-6))
    return checks


def cutoff_reference(kappa_tc: float) -> float:
    """Reference 3 dB cutoff law of the cutoff-fit acceptance test."""
    return 1.457 * kappa_tc**1.132 - 0.8766


def check_sat_cutoff(out: Path) -> list[tuple[str, bool]]:
    rows = _rows(out / "cutoff_fit" / "cutoff_table.csv")
    fit = json.loads((out / "cutoff_fit" / "fit.json").read_text(encoding="utf-8"))
    checks = [("fit exponent b in [1.0, 1.3]", 1.0 <= fit["b"] <= 1.3)]
    for r in rows:
        if r["kappa_tc"] >= 1e3:
            rel = abs(cutoff_reference(r["kappa_tc"]) - r["n_cutoff"]) / r["n_cutoff"]
            checks.append((f"cutoff at kappa*t_c={r['kappa_tc']:g} within 15%", rel < 0.15))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    overrides: tuple[str, ...]
    tiny: tuple[str, ...]  # replaces same-key entries of overrides for the smoke check
    check: Callable[[Path], list[tuple[str, bool]]]
    n_checks: int

    def sets(self, tiny: bool = False) -> list[str]:
        merged = dict(item.split("=", 1) for item in self.overrides)
        if tiny:
            merged.update(item.split("=", 1) for item in self.tiny)
        return [f"{k}={v}" for k, v in merged.items()]

    def argv(self, root: Path, out: Path, config_seed: int, tiny: bool = False) -> list[str]:
        """The photonlink CLI arguments of one call."""
        argv = [self.command, "--config", str(root / "configs" / "default.yaml"), "--out", str(out),
                "--seed", str(config_seed), "--workers", "1"]
        for item in self.sets(tiny):
            argv += ["--set", item]
        return argv


def config_seed(seed: int, k: int) -> int:
    """Config seed of repetition k in a run with benchmark seed `seed` (k < 100).

    The cutoff scan also uses the next few seeds, so repetitions stay 10 apart.
    """
    return 1000 * seed + 10 * k


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="link-ber",
            command="ber-sweep",
            why="Link layer, physical sampling: simulate_link and Viterbi decoding dominate; "
                "detection only builds the kernels and saturation is off.",
            overrides=(
                f"sweeps.power_dbm={POWERS}",
                "mc.n_symbols=17500",
                "mc.mc_samples=1500",
                "link.mode=physical",
                "link.saturation=false",
                "device.p0=0.0",
            ),
            tiny=("mc.n_symbols=4000", "mc.mc_samples=1000"),
            check=check_link_ber,
            n_checks=5 + 4 + 1,
        ),
        Workload(
            name="link-rate",
            command="rate-sweep",
            why="Link layer, hmm sampling and mutual information: the two forward recursions "
                "dominate and Viterbi never runs.",
            overrides=(
                f"sweeps.power_dbm={POWERS}",
                "mc.n_symbols=5000",
                "mc.mc_samples=1500",
                "link.saturation=false",
                "device.p0=0.0",
            ),
            tiny=("mc.n_symbols=2000", "mc.mc_samples=1000"),
            check=check_link_rate,
            n_checks=5 + 4,
        ),
        Workload(
            name="detect-miss",
            command="miss-sweep",
            why="Detection layer: the renewal DP behind the count-conditioned table dominates, "
                "mostly in the physics kernels it evaluates at the largest means; link and "
                "saturation never run.",
            overrides=(
                "sweeps.mean_photons={start: 0.01, stop: 10.0, points: 16, scale: log}",
                "mc.mc_samples=1250",
                "device.p0=0.0",
            ),
            tiny=("mc.mc_samples=300",),
            check=check_detect_miss,
            n_checks=16,
        ),
        Workload(
            name="sat-cutoff",
            command="cutoff-fit",
            why="Saturation layer: sorting arrival traces in saturated_excitation and the cutoff "
                "scan dominate and set the memory peak; detection and link never run.",
            overrides=(
                f"sweeps.kappa_t_c={{values: {KAPPA_T_C}}}",
                "cutoff.replicas=64",
            ),
            tiny=("cutoff.replicas=32",),
            check=check_sat_cutoff,
            n_checks=1 + sum(1 for x in KAPPA_T_C if x >= 1e3),
        ),
    )
}
