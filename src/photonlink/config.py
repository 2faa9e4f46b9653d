"""Experiment configuration: strict YAML parsing, units in key names,
dotted-path overrides, canonical serialization and hashing.

Physical quantities carry explicit units in their key names
(kappa_rad_per_s, t_c_ns, t_e_k, nu_hz, power_dbm).  Angular rates
accept the "2pi*<x>" sugar.  Unknown keys are rejected everywhere; the
seed is mandatory so no run ever depends on the wall clock.
"""
from __future__ import annotations

import copy
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
    "read_config_file",
    "DEFAULT_CONFIG",
]

# libyaml when PyYAML was built with it: the same safe constructor and
# resolver as yaml.SafeLoader, about 8x faster on configs/default.yaml
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
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


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def _nodes(value, key: str) -> Optional[list]:
    """Tabulated pulse nodes: a list of [t_ns, rho] pairs; null or [] for none."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in value):
        raise ConfigError(f"{key}: expected a list of [t_ns, rho] pairs, got {value!r}")
    return [[parse_quantity(t, key), parse_quantity(r, key)] for t, r in value] or None


# The config schema: section -> key -> (reader, default).  This is the one
# place where a section key's reader and default are written; the allowed
# keys, DEFAULT_CONFIG, the canonical form (and so the hash) and the
# settings dataclasses all follow from it.
_SECTIONS: dict = {
    "device": {
        "kappa_rad_per_s": (parse_quantity, "2pi*1e9"),
        "gamma_rad_per_s": (parse_quantity, "2pi*1e5"),
        "p0": (parse_quantity, 0.0),
        "p_reset_g": (parse_quantity, 0.01),
        "p_reset_e": (parse_quantity, 0.05),
        "alpha_sat": (parse_quantity, 1.14),
    },
    "timing": {
        "t_c_ns": (parse_quantity, 230.0),
        "delta_o_ns": (parse_quantity, 35.0),
        "t_w_ns": (parse_quantity, 48.0),
    },
    "environment": {
        "t_e_k": (parse_quantity, 8.0),
        "nu_hz": (parse_quantity, 1.0e10),
        "cycles_per_symbol": (_int, 800),
    },
    "pulse": {
        "shape": (_str, "rectangular"),
        "l_ns": (parse_quantity, 100.0),
        "beta": (parse_quantity, 1.0),
        "w_ns": (parse_quantity, 0.0),
        "nodes": (_nodes, None),
    },
    "mc": {
        "mc_samples": (_int, 100_000),  # read by no command; the benchmark workloads still set it
        "n_symbols": (_int, 100_000),
    },
    "link": {
        "mode": (_str, "physical"),
        "saturation": (_bool, False),
        "dump_frames": (_bool, False),
        "burn_in": (_int, 100),
    },
    "detect": {"power_dbm": (parse_quantity, -148.3)},
    "cutoff": {
        "replicas": (_int, 256),  # read by no command; the benchmark workloads still set it
        "points_per_decade": (_int, 40),
        "coarse_points_per_decade": (_int, 4),
        "span_decades": (parse_quantity, 7.0),
    },
}

DEFAULT_CONFIG: dict = {
    "seed": None,  # mandatory
    "workers": 1,
    "output_dir": "runs",
    **{name: {k: default for k, (_, default) in keys.items()} for name, keys in _SECTIONS.items()},
    "sweeps": {
        "power_dbm": {"start": -160.0, "stop": -142.0, "points": 10, "scale": "linear"},
        "mean_photons": {"start": 0.01, "stop": 10.0, "points": 16, "scale": "log"},
        "pulse_length_ns": {"start": 1.0, "stop": 100000.0, "points": 26, "scale": "log"},
        "kappa_t_c": {"values": [100.0, 1000.0, 10000.0, 100000.0]},
        "lambda_tau": {"start": 1.0e-3, "stop": 50.0, "points": 60, "scale": "log"},
        "t_over_tau": {"values": [4.0, 10.0, 100.0]},
    },
}


def _check_keys(section, allowed, where: str) -> None:
    if not isinstance(section, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")


def _read_section(name: str, section) -> dict:
    """Read one config section: check its keys, fill in defaults, apply the readers."""
    keys = _SECTIONS[name]
    _check_keys(section, keys, name)
    return {k: read(section.get(k, default), f"{name}.{k}") for k, (read, default) in keys.items()}


def _merge_axis(default, axis):
    """Fill a sweep axis from its default when both are ranges, or it is empty.

    An axis given as values replaces a default range whole, and a range
    replaces default values whole.
    """
    if isinstance(default, Mapping) and isinstance(axis, Mapping):
        if not axis or ("values" in axis) == ("values" in default):
            return {**default, **axis}
    return axis


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
        points = _int(d["points"], f"{where}.points")
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
    mc_samples: int
    n_symbols: int

    def __post_init__(self):
        for name in ("mc_samples", "n_symbols"):
            if getattr(self, name) < 1:
                raise ConfigError(f"mc.{name} must be >= 1")


@dataclass(frozen=True)
class LinkSettings:
    mode: str
    saturation: bool
    dump_frames: bool
    burn_in: int

    def __post_init__(self):
        if self.mode not in ("physical", "hmm"):
            raise ConfigError("link.mode must be physical or hmm")
        if self.burn_in < 0:
            raise ConfigError("link.burn_in must be >= 0")


@dataclass(frozen=True)
class CutoffSettings:
    replicas: int
    points_per_decade: int
    coarse_points_per_decade: int
    span_decades: float

    def __post_init__(self):
        if self.replicas < 2 or self.points_per_decade < 2 or self.coarse_points_per_decade < 1:
            raise ConfigError("cutoff settings out of range")
        if not self.span_decades > 0:
            raise ConfigError("cutoff.span_decades must be > 0")


def read_config_file(path) -> dict:
    """The raw mapping of a YAML config file; every way it can fail is a ConfigError."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping in {path}, got {type(raw).__name__}")
    return raw


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
        _check_keys(raw, DEFAULT_CONFIG, "config")
        d = {**DEFAULT_CONFIG, **raw}
        if d["seed"] is None:
            raise ConfigError("seed is mandatory (wall-clock seeding is not allowed)")
        seed, workers = _int(d["seed"], "seed"), _int(d["workers"], "workers")
        if seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
        if workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {workers}")
        output_dir = _str(d["output_dir"], "output_dir")
        c = {name: _read_section(name, d[name]) for name in _SECTIONS}
        dv, tm, ev, pu = c["device"], c["timing"], c["environment"], c["pulse"]
        if pu["nodes"] is None:
            del pu["nodes"]  # the canonical form lists nodes only for a pulse that has them
        try:
            device = DeviceParams(
                kappa=dv["kappa_rad_per_s"], gamma=dv["gamma_rad_per_s"], p0=dv["p0"],
                p_reset_g=dv["p_reset_g"], p_reset_e=dv["p_reset_e"], alpha_sat=dv["alpha_sat"],
            )
            timing = CycleTiming(t_c=tm["t_c_ns"] * 1e-9, delta_o=tm["delta_o_ns"] * 1e-9, t_w=tm["t_w_ns"] * 1e-9)
            environment = Environment(t_e=ev["t_e_k"], nu=ev["nu_hz"], cycles_per_symbol=ev["cycles_per_symbol"])
            pulse = PulseProfile(
                shape=pu["shape"], l=pu["l_ns"] * 1e-9, beta=pu["beta"], w=pu["w_ns"] * 1e-9,
                nodes=tuple((t * 1e-9, r) for t, r in pu["nodes"]) if "nodes" in pu else None,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        sweeps_raw = raw.get("sweeps", {})
        default_axes = DEFAULT_CONFIG["sweeps"]
        # the kappa and gamma axes have no default: they are absent unless given
        _check_keys(sweeps_raw, (*default_axes, "kappa_rad_per_s", "gamma_rad_per_s"), "sweeps")
        axes = {**default_axes, **{k: _merge_axis(default_axes.get(k), v) for k, v in sweeps_raw.items()}}
        sweeps = {k: GridAxis.from_dict(v, f"sweeps.{k}") for k, v in axes.items()}
        canonical = {"seed": seed, "workers": workers, "output_dir": output_dir, **c,
                     "sweeps": {k: sweeps[k].to_dict() for k in sorted(sweeps)}}
        return cls(
            seed=seed,
            workers=workers,
            output_dir=output_dir,
            device=device,
            timing=timing,
            environment=environment,
            pulse=pulse,
            mc=McSettings(**c["mc"]),
            link=LinkSettings(**c["link"]),
            detect_power_dbm=c["detect"]["power_dbm"],
            cutoff=CutoffSettings(**c["cutoff"]),
            sweeps=sweeps,
            canonical=canonical,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))

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
    out = copy.deepcopy(raw) if raw else {}
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        path = key.strip().split(".")
        if not all(path):
            raise ConfigError(f"override {item!r} has an empty path segment")
        try:
            parsed = yaml.load(value, Loader=_LOADER)
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
