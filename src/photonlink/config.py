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
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
import yaml

from .errors import ConfigError, ParameterError
from .physics import CycleTiming, DeviceParams, Environment, PulseProfile

__all__ = [
    "ExperimentConfig",
    "GridAxis",
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
    """Parse a numeric config value; strings may use the 2pi* prefix.

    NaN and +inf are rejected.  -inf is kept: as a power in dBm it means
    the carrier is off.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key}: expected a number, got {type(value).__name__}")
    m = _TWO_PI_RE.match(value) if isinstance(value, str) else None
    try:
        x = 2.0 * math.pi * float(m.group(1)) if m else float(value)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as a number") from None
    except OverflowError:  # an integer beyond the float range reads as an infinity, as 1e400 does
        x = math.inf if value > 0 else -math.inf
    if math.isnan(x) or x == math.inf:
        raise ConfigError(f"{key}: {value!r} is not a finite number")
    return x


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _at_least(low: int):
    """Reader of an integer >= low."""

    def read(value, key: str) -> int:
        n = _int(value, key)
        if n < low:
            raise ConfigError(f"{key}: must be >= {low}, got {n}")
        return n

    return read


def _choice(*options: str):
    """Reader of one of the given strings."""

    def read(value, key: str) -> str:
        if value not in options:
            raise ConfigError(f"{key}: must be {' or '.join(options)}, got {value!r}")
        return value

    return read


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


# The config schema: section -> key -> (reader, default, field).  This is
# the one place where a section key's reader, default and field are
# written; the allowed keys, DEFAULT_CONFIG, the canonical form (and so the
# hash) and the objects that from_dict builds all follow from it.  A field
# is an attribute of the section's model in _MODELS, or of the config itself
# for a section without one.  A key whose field is None is read, checked and
# hashed, and no command reads it: only the benchmark workloads set it.
_SECTIONS: dict = {
    "device": {
        "kappa_rad_per_s": (parse_quantity, "2pi*1e9", "kappa"),
        "gamma_rad_per_s": (parse_quantity, "2pi*1e5", "gamma"),
        "p0": (parse_quantity, 0.0, "p0"),
        "p_reset_g": (parse_quantity, 0.01, "p_reset_g"),
        "p_reset_e": (parse_quantity, 0.05, "p_reset_e"),
        "alpha_sat": (parse_quantity, 1.14, "alpha_sat"),
    },
    "timing": {
        "t_c_ns": (parse_quantity, 230.0, "t_c"),
        "delta_o_ns": (parse_quantity, 35.0, "delta_o"),
        "t_w_ns": (parse_quantity, 48.0, "t_w"),
    },
    "environment": {
        "t_e_k": (parse_quantity, 8.0, "t_e"),
        "nu_hz": (parse_quantity, 1.0e10, "nu"),
        "cycles_per_symbol": (_int, 800, "cycles_per_symbol"),
    },
    "pulse": {  # the length l is no key: from_dict takes the first sweeps.pulse_length_ns value
        "shape": (_str, "rectangular", "shape"),
        "beta": (parse_quantity, 1.0, "beta"),
        "w_ns": (parse_quantity, 0.0, "w"),
        "nodes": (_nodes, None, "nodes"),
    },
    "mc": {
        "mc_samples": (_at_least(1), 100_000, None),
        "n_symbols": (_at_least(1), 100_000, "n_symbols"),
    },
    "link": {
        "mode": (_choice("physical", "hmm"), "physical", "mode"),
        "saturation": (_bool, False, "saturation"),
        "dump_frames": (_bool, False, "dump_frames"),
    },
    "detect": {"power_dbm": (parse_quantity, -148.3, "detect_power_dbm")},
    "cutoff": {"replicas": (_at_least(2), 256, None)},
}

# the settings that commands read, as immutable records
McRecord = namedtuple("McRecord", [f for _, _, f in _SECTIONS["mc"].values() if f])
LinkRecord = namedtuple("LinkRecord", [f for _, _, f in _SECTIONS["link"].values() if f])

_MODELS = {
    "device": DeviceParams, "timing": CycleTiming, "environment": Environment, "pulse": PulseProfile,
    "mc": McRecord, "link": LinkRecord,
}

# sweep axis -> (default, bound): an axis without a default is absent unless
# given, and the model bounds the values of an axis by ">" or ">=" 0, or not
_AXES = {
    "power_dbm": ({"start": -160.0, "stop": -142.0, "points": 10, "scale": "linear"}, None),
    "mean_photons": ({"start": 0.01, "stop": 10.0, "points": 16, "scale": "log"}, ">="),
    "pulse_length_ns": ({"start": 1.0, "stop": 100000.0, "points": 26, "scale": "log"}, ">"),
    "kappa_t_c": ({"values": [100.0, 1000.0, 10000.0, 100000.0]}, ">"),
    "lambda_tau": ({"start": 1.0e-3, "stop": 50.0, "points": 60, "scale": "log"}, ">="),
    "t_over_tau": ({"values": [4.0, 10.0, 100.0]}, ">"),
    "kappa_rad_per_s": (None, ">"),
    "gamma_rad_per_s": (None, ">="),
}

DEFAULT_CONFIG: dict = {
    "seed": None,  # mandatory
    "workers": 1,
    "output_dir": "runs",
    **{name: {k: default for k, (_, default, _) in keys.items()} for name, keys in _SECTIONS.items()},
    "sweeps": {k: default for k, (default, _) in _AXES.items() if default is not None},
}


def _si(key: str, value):
    """A section value in the SI units of its field: keys ending in _ns, and the node times, are in ns."""
    if key.endswith("_ns"):
        return value * 1e-9
    if key == "nodes" and value is not None:
        return tuple((t * 1e-9, r) for t, r in value)
    return value


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
    return {k: read(section.get(k, default), f"{name}.{k}") for k, (read, default, _) in keys.items()}


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
            if any(k in d for k in ("start", "stop", "points", "scale")):
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
        start = parse_quantity(d["start"], f"{where}.start")
        stop = parse_quantity(d["stop"], f"{where}.stop")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{where}: range endpoints must be finite, got {start} and {stop}")
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
    mc: McRecord
    link: LinkRecord
    detect_power_dbm: float
    sweeps: Mapping
    canonical: Mapping = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        _check_keys(raw, DEFAULT_CONFIG, "config")
        d = {**DEFAULT_CONFIG, **raw}
        if d["seed"] is None:
            raise ConfigError("seed is mandatory (wall-clock seeding is not allowed)")
        top = {
            "seed": _at_least(0)(d["seed"], "seed"),
            "workers": _at_least(1)(d["workers"], "workers"),
            "output_dir": _str(d["output_dir"], "output_dir"),
        }
        c = {name: _read_section(name, d[name]) for name in _SECTIONS}

        sweeps_raw = raw.get("sweeps", {})
        _check_keys(sweeps_raw, _AXES, "sweeps")
        default_axes = DEFAULT_CONFIG["sweeps"]
        axes = {**default_axes, **{k: _merge_axis(default_axes.get(k), v) for k, v in sweeps_raw.items()}}
        sweeps = {k: GridAxis.from_dict(v, f"sweeps.{k}") for k, v in axes.items()}
        resolved = {}
        for k, axis in sweeps.items():
            bound = _AXES[k][1]
            if bound:
                values = resolved[k] = axis.resolve()
                bad = values[(values <= 0) if bound == ">" else (values < 0)]
                if bad.size:
                    raise ConfigError(f"sweeps.{k}: {bad[0]}: must be {bound} 0")
        # cfg.pulse is the first pulse that pulse-sweep builds, at the first swept length
        length = float(resolved["pulse_length_ns"][0])
        built = {}
        for name, keys in _SECTIONS.items():
            values = {f: _si(k, c[name][k]) for k, (_, _, f) in keys.items() if f}
            if name not in _MODELS:
                built.update(values)
                continue
            origin = {f: f"{name}.{k}" for k, (_, _, f) in keys.items()}
            if name == "pulse":
                values["l"] = length * 1e-9
                origin["l"] = f"sweeps.pulse_length_ns: {length}"
            try:
                built[name] = _MODELS[name](**values)
            except ParameterError as exc:
                raise ConfigError(f"{origin[exc.field]}: {exc}") from None
        if c["pulse"]["nodes"] is None:
            del c["pulse"]["nodes"]  # the canonical form lists nodes only for a pulse that has them
        canonical = {**top, **c, "sweeps": {k: sweeps[k].to_dict() for k in sorted(sweeps)}}
        return cls(**top, **built, sweeps=sweeps, canonical=canonical)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))

    def to_dict(self) -> dict:
        """Canonical resolved form, display units, every default explicit."""
        return json.loads(json.dumps(self.canonical))

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

    def axis(self, name: str, default: Optional[float] = None) -> np.ndarray:
        """The values of sweeps.<name>; [default] when the config has no such axis and a default is given."""
        if name in self.sweeps:
            return self.sweeps[name].resolve()
        if default is None:
            raise ConfigError(f"config has no sweeps.{name} axis")
        return np.array([default])


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
