"""Experiment configuration: strict YAML parsing, units in key names,
dotted-path overrides, canonical serialization and hashing.

Physical quantities carry explicit units in their key names
(kappa_rad_per_s, t_c_ns, t_e_k, nu_hz, power_dbm).  Angular rates
accept the "2pi*<x>" sugar.  Unknown keys are rejected everywhere; the
seed is mandatory so no run ever depends on the wall clock.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
import yaml

from .errors import ConfigError
from .physics import CycleTiming, DeviceParams, Environment, PulseProfile

__all__ = [
    "ExperimentConfig",
    "GridAxis",
    "McSettings",
    "LinkSettings",
    "CutoffSettings",
    "parse_quantity",
    "apply_overrides",
    "DEFAULT_CONFIG",
]

_TWO_PI_RE = re.compile(r"^\s*2\s*pi\s*\*\s*(.+)$", re.IGNORECASE)


def parse_quantity(value, key: str = "") -> float:
    """Parse a numeric config value; strings may use the 2pi* prefix."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        m = _TWO_PI_RE.match(value)
        try:
            if m:
                return 2.0 * math.pi * float(m.group(1))
            return float(value)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {value!r} as a number") from None
    raise ConfigError(f"{key}: expected a number, got {type(value).__name__}")


def _check_keys(section: Mapping, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _get_int(section: Mapping, key: str, default, where: str) -> int:
    v = section.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _get_bool(section: Mapping, key: str, default: bool, where: str) -> bool:
    v = section.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected true or false, got {v!r}")
    return v


@dataclass(frozen=True)
class GridAxis:
    """A named sweep axis: explicit values, or start/stop/points with a scale."""

    values: Optional[tuple] = None
    start: Optional[float] = None
    stop: Optional[float] = None
    points: Optional[int] = None
    scale: str = "linear"

    @classmethod
    def from_dict(cls, d: Mapping, where: str) -> "GridAxis":
        if not isinstance(d, Mapping):
            raise ConfigError(f"{where}: axis must be a mapping")
        _check_keys(d, ("values", "start", "stop", "points", "scale"), where)
        if "values" in d:
            if any(k in d for k in ("start", "stop", "points")):
                raise ConfigError(f"{where}: give either values or a range, not both")
            vals = d["values"]
            if not isinstance(vals, (list, tuple)) or not vals:
                raise ConfigError(f"{where}: values must be a nonempty list")
            return cls(values=tuple(parse_quantity(v, where) for v in vals))
        for k in ("start", "stop", "points"):
            if k not in d:
                raise ConfigError(f"{where}: range axis needs start, stop and points")
        scale = d.get("scale", "linear")
        if scale not in ("linear", "log"):
            raise ConfigError(f"{where}: scale must be linear or log")
        points = _get_int(d, "points", None, where)
        if points < 1:
            raise ConfigError(f"{where}: points must be >= 1")
        start = parse_quantity(d["start"], where)
        stop = parse_quantity(d["stop"], where)
        if scale == "log" and (start <= 0 or stop <= 0):
            raise ConfigError(f"{where}: log axis needs positive endpoints")
        return cls(start=start, stop=stop, points=points, scale=scale)

    def resolve(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        if self.points == 1:
            return np.asarray([self.start], dtype=float)
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def to_dict(self) -> dict:
        if self.values is not None:
            return {"values": list(self.values)}
        return {"start": self.start, "stop": self.stop, "points": self.points, "scale": self.scale}


@dataclass(frozen=True)
class McSettings:
    mc_samples: int = 100_000
    n_symbols: int = 100_000
    sat_replicas: int = 4096

    def __post_init__(self):
        for name in ("mc_samples", "n_symbols", "sat_replicas"):
            if getattr(self, name) < 1:
                raise ConfigError(f"mc.{name} must be >= 1")


@dataclass(frozen=True)
class LinkSettings:
    mode: str = "physical"
    saturation: bool = False
    dump_frames: bool = False
    burn_in: int = 100

    def __post_init__(self):
        if self.mode not in ("physical", "hmm"):
            raise ConfigError("link.mode must be physical or hmm")
        if self.burn_in < 0:
            raise ConfigError("link.burn_in must be >= 0")


@dataclass(frozen=True)
class CutoffSettings:
    replicas: int = 256
    points_per_decade: int = 40
    coarse_points_per_decade: int = 4
    span_decades: float = 7.0

    def __post_init__(self):
        if self.replicas < 2 or self.points_per_decade < 2 or self.coarse_points_per_decade < 1:
            raise ConfigError("cutoff settings out of range")


DEFAULT_CONFIG: dict = {
    "seed": None,  # mandatory
    "workers": 1,
    "output_dir": "runs",
    "device": {
        "kappa_rad_per_s": "2pi*1e9",
        "gamma_rad_per_s": "2pi*1e5",
        "p0": 0.0,
        "p_reset_g": 0.01,
        "p_reset_e": 0.05,
        "alpha_sat": 1.14,
    },
    "timing": {"t_c_ns": 230.0, "delta_o_ns": 35.0, "t_w_ns": 48.0},
    "environment": {"t_e_k": 8.0, "nu_hz": 1.0e10, "cycles_per_symbol": 800},
    "pulse": {"shape": "rectangular", "l_ns": 100.0, "beta": 1.0, "w_ns": 0.0},
    "mc": {},
    "link": {},
    "detect": {"power_dbm": -148.3},
    "cutoff": {},
    "sweeps": {
        "power_dbm": {"start": -160.0, "stop": -142.0, "points": 10, "scale": "linear"},
        "mean_photons": {"start": 0.01, "stop": 10.0, "points": 16, "scale": "log"},
        "pulse_length_ns": {"start": 1.0, "stop": 100000.0, "points": 26, "scale": "log"},
        "kappa_t_c": {"values": [100.0, 1000.0, 10000.0, 100000.0]},
        "lambda_tau": {"start": 1.0e-3, "stop": 50.0, "points": 60, "scale": "log"},
        "t_over_tau": {"values": [4.0, 10.0, 100.0]},
    },
}

_TOP_KEYS = (
    "seed",
    "workers",
    "output_dir",
    "device",
    "timing",
    "environment",
    "pulse",
    "mc",
    "link",
    "detect",
    "cutoff",
    "sweeps",
)


def _merged(base: Mapping, override: Mapping) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, Mapping) and isinstance(out.get(k), Mapping):
            out[k] = _merged(out[k], v)
        else:
            out[k] = v
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment configuration.

    canonical holds the resolved config in display units (ns, K, Hz)
    with every default made explicit; it is what serialization and
    hashing use, so parse -> serialize -> parse is exactly idempotent.
    """

    seed: int
    workers: int
    output_dir: str
    device: DeviceParams
    timing: CycleTiming
    environment: Environment
    pulse: PulseProfile
    mc: McSettings
    link: LinkSettings
    detect_power_dbm: float
    cutoff: CutoffSettings
    sweeps: Mapping
    canonical: Mapping = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("config root must be a mapping")
        _check_keys(raw, _TOP_KEYS, "config")
        d = _merged(DEFAULT_CONFIG, raw)
        if d.get("seed") is None:
            raise ConfigError("seed is mandatory (wall-clock seeding is not allowed)")
        seed = d["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        workers = d["workers"]
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {workers!r}")

        dv = d["device"]
        _check_keys(
            dv, ("kappa_rad_per_s", "gamma_rad_per_s", "p0", "p_reset_g", "p_reset_e", "alpha_sat"), "device"
        )
        dev_vals = {k: parse_quantity(dv[k], f"device.{k}") for k in dv}
        tm = d["timing"]
        _check_keys(tm, ("t_c_ns", "delta_o_ns", "t_w_ns"), "timing")
        tm_vals = {k: parse_quantity(tm[k], f"timing.{k}") for k in tm}
        ev = d["environment"]
        _check_keys(ev, ("t_e_k", "nu_hz", "cycles_per_symbol"), "environment")
        ev_vals = {
            "t_e_k": parse_quantity(ev["t_e_k"], "environment.t_e_k"),
            "nu_hz": parse_quantity(ev["nu_hz"], "environment.nu_hz"),
            "cycles_per_symbol": _get_int(ev, "cycles_per_symbol", 800, "environment"),
        }
        pu = d["pulse"]
        _check_keys(pu, ("shape", "l_ns", "beta", "w_ns", "nodes"), "pulse")
        pu_vals = {
            "shape": pu.get("shape", "rectangular"),
            "l_ns": parse_quantity(pu["l_ns"], "pulse.l_ns"),
            "beta": parse_quantity(pu.get("beta", 1.0), "pulse.beta"),
            "w_ns": parse_quantity(pu.get("w_ns", 0.0), "pulse.w_ns"),
        }
        nodes = pu.get("nodes")
        if nodes:
            pu_vals["nodes"] = [
                [parse_quantity(t, "pulse.nodes"), parse_quantity(r, "pulse.nodes")] for t, r in nodes
            ]
        try:
            device = DeviceParams(
                kappa=dev_vals["kappa_rad_per_s"],
                gamma=dev_vals["gamma_rad_per_s"],
                p0=dev_vals["p0"],
                p_reset_g=dev_vals["p_reset_g"],
                p_reset_e=dev_vals["p_reset_e"],
                alpha_sat=dev_vals["alpha_sat"],
            )
            timing = CycleTiming(
                t_c=tm_vals["t_c_ns"] * 1e-9,
                delta_o=tm_vals["delta_o_ns"] * 1e-9,
                t_w=tm_vals["t_w_ns"] * 1e-9,
            )
            environment = Environment(
                t_e=ev_vals["t_e_k"], nu=ev_vals["nu_hz"],
                cycles_per_symbol=ev_vals["cycles_per_symbol"],
            )
            pulse = PulseProfile(
                shape=pu_vals["shape"],
                l=pu_vals["l_ns"] * 1e-9,
                beta=pu_vals["beta"],
                w=pu_vals["w_ns"] * 1e-9,
                nodes=tuple((t * 1e-9, r) for t, r in pu_vals["nodes"]) if nodes else None,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        mc_raw = d["mc"]
        _check_keys(mc_raw, ("mc_samples", "n_symbols", "sat_replicas"), "mc")
        mc = McSettings(
            mc_samples=_get_int(mc_raw, "mc_samples", 100_000, "mc"),
            n_symbols=_get_int(mc_raw, "n_symbols", 100_000, "mc"),
            sat_replicas=_get_int(mc_raw, "sat_replicas", 4096, "mc"),
        )
        lk = d["link"]
        _check_keys(lk, ("mode", "saturation", "dump_frames", "burn_in"), "link")
        link = LinkSettings(
            mode=lk.get("mode", "physical"),
            saturation=_get_bool(lk, "saturation", False, "link"),
            dump_frames=_get_bool(lk, "dump_frames", False, "link"),
            burn_in=_get_int(lk, "burn_in", 100, "link"),
        )
        dt = d["detect"]
        _check_keys(dt, ("power_dbm",), "detect")
        detect_power = parse_quantity(dt.get("power_dbm", -148.3), "detect.power_dbm")
        co = d["cutoff"]
        _check_keys(co, ("replicas", "points_per_decade", "coarse_points_per_decade", "span_decades"), "cutoff")
        cutoff = CutoffSettings(
            replicas=_get_int(co, "replicas", 256, "cutoff"),
            points_per_decade=_get_int(co, "points_per_decade", 40, "cutoff"),
            coarse_points_per_decade=_get_int(co, "coarse_points_per_decade", 4, "cutoff"),
            span_decades=parse_quantity(co.get("span_decades", 7.0), "cutoff.span_decades"),
        )
        sweeps_raw = d["sweeps"]
        if not isinstance(sweeps_raw, Mapping):
            raise ConfigError("sweeps must be a mapping of axis name to axis")
        allowed_axes = (
            "power_dbm",
            "mean_photons",
            "pulse_length_ns",
            "kappa_t_c",
            "lambda_tau",
            "t_over_tau",
            "kappa_rad_per_s",
            "gamma_rad_per_s",
        )
        _check_keys(sweeps_raw, allowed_axes, "sweeps")
        sweeps = {k: GridAxis.from_dict(v, f"sweeps.{k}") for k, v in sweeps_raw.items()}
        for name, axis in sweeps.items():
            if axis.resolve().size == 0:
                raise ConfigError(f"sweeps.{name} resolves to an empty grid")
        canonical = {
            "seed": seed,
            "workers": workers,
            "output_dir": str(d["output_dir"]),
            "device": dev_vals,
            "timing": tm_vals,
            "environment": ev_vals,
            "pulse": pu_vals,
            "mc": {
                "mc_samples": mc.mc_samples,
                "n_symbols": mc.n_symbols,
                "sat_replicas": mc.sat_replicas,
            },
            "link": {
                "mode": link.mode,
                "saturation": link.saturation,
                "dump_frames": link.dump_frames,
                "burn_in": link.burn_in,
            },
            "detect": {"power_dbm": detect_power},
            "cutoff": {
                "replicas": cutoff.replicas,
                "points_per_decade": cutoff.points_per_decade,
                "coarse_points_per_decade": cutoff.coarse_points_per_decade,
                "span_decades": cutoff.span_decades,
            },
            "sweeps": {k: sweeps[k].to_dict() for k in sorted(sweeps)},
        }
        return cls(
            seed=seed,
            workers=workers,
            output_dir=str(d["output_dir"]),
            device=device,
            timing=timing,
            environment=environment,
            pulse=pulse,
            mc=mc,
            link=link,
            detect_power_dbm=detect_power,
            cutoff=cutoff,
            sweeps=sweeps,
            canonical=canonical,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from None
        if raw is None:
            raw = {}
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """Canonical resolved form, display units, every default explicit."""
        return json.loads(json.dumps(self.canonical))

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    def config_hash(self) -> str:
        """Hash of the experiment-defining content.

        The output location and worker count are excluded: outputs are a
        pure function of (config, seed, artifact version) and must not
        depend on where they are written or how work is distributed.
        """
        payload = self.to_dict()
        payload.pop("output_dir", None)
        payload.pop("workers", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def axis(self, name: str) -> np.ndarray:
        if name not in self.sweeps:
            raise ConfigError(f"config has no sweeps.{name} axis")
        return self.sweeps[name].resolve()


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply --set key.path=value pairs onto the raw config mapping."""
    out = json.loads(json.dumps(raw)) if raw else {}
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        path = key.strip().split(".")
        if not all(path):
            raise ConfigError(f"override {item!r} has an empty path segment")
        try:
            parsed = yaml.safe_load(value)
        except yaml.YAMLError:
            parsed = value
        node = out
        for part in path[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[path[-1]] = parsed
    return out
