import importlib.util
import math
import sys
from pathlib import Path

import pytest
import yaml

from photonlink.config import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    GridAxis,
    apply_overrides,
    parse_quantity,
)
from photonlink.errors import ConfigError

MINIMAL = {"seed": 7}
DEFAULT_YAML = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class TestQuantities:
    def test_two_pi_sugar(self):
        assert parse_quantity("2pi*1e9") == pytest.approx(2 * math.pi * 1e9, rel=1e-15)
        assert parse_quantity("2PI*0.1") == pytest.approx(0.2 * math.pi, rel=1e-15)
        assert parse_quantity(" 2pi * 3 ") == pytest.approx(6 * math.pi, rel=1e-15)

    def test_plain_numbers(self):
        assert parse_quantity(3) == 3.0
        assert parse_quantity("1e-3") == 1e-3

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_quantity("2pi*banana")
        with pytest.raises(ConfigError):
            parse_quantity(True, "x")
        with pytest.raises(ConfigError):
            parse_quantity([1], "x")


class TestGridAxis:
    def test_values(self):
        axis = GridAxis.from_dict({"values": [1, "2pi*1"]}, "t")
        assert axis.resolve().tolist() == pytest.approx([1.0, 2 * math.pi])

    def test_log_range(self):
        axis = GridAxis.from_dict({"start": 1.0, "stop": 100.0, "points": 3, "scale": "log"}, "t")
        assert axis.resolve().tolist() == pytest.approx([1.0, 10.0, 100.0])

    def test_rejects_mixed(self):
        with pytest.raises(ConfigError):
            GridAxis.from_dict({"values": [1], "start": 0}, "t")

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            GridAxis.from_dict({"start": 1, "stop": 2, "points": 2, "scale": "cubic"}, "t")


class TestExperimentConfig:
    def test_minimal_uses_defaults(self):
        cfg = ExperimentConfig.from_dict(MINIMAL)
        assert cfg.seed == 7
        assert cfg.device.kappa == pytest.approx(2 * math.pi * 1e9)
        assert cfg.timing.t_c == pytest.approx(230e-9)
        assert cfg.environment.cycles_per_symbol == 800

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"seed": 1, "devices": {}})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"seed": 1, "device": {"kappa": 1.0}})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"seed": 1, "sweeps": {"voltage": {"values": [1]}}})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"seed": 1, "mc": {"replicas": 100}})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"seed": 1, "mc": {"eps_trunc": 1e-10}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "device": {"kappa_rad_per_s": -3.0}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "workers": 0})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "link": {"mode": "soft"}})
        bad = [
            ({"mc": 5}, "mc"),
            ({"device": None}, "device"),
            ({"sweeps": None}, "sweeps"),
            ({"sweeps": {"power_dbm": None}}, "sweeps.power_dbm"),
            ({"pulse": {"nodes": 5}}, "pulse.nodes"),
            ({"pulse": {"nodes": [[1, 2, 3]]}}, "pulse.nodes"),
            ({"output_dir": None}, "output_dir"),
            ({"output_dir": 5}, "output_dir"),
            ({"cutoff": {"span_decades": 0}}, "cutoff.span_decades"),
            ({"cutoff": {"span_decades": -1.0}}, "cutoff.span_decades"),
        ]
        for extra, key in bad:
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict({"seed": 1, **extra})

    def test_booleans_strict(self):
        for key in ("saturation", "dump_frames"):
            for bad in ("false", "true", 0, 1, None):
                with pytest.raises(ConfigError, match=f"link.{key}"):
                    ExperimentConfig.from_dict({"seed": 1, "link": {key: bad}})
        raw = yaml.safe_load("seed: 1\nlink: {saturation: false, dump_frames: true}\n")
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.link.saturation is False and cfg.link.dump_frames is True

    def test_default_yaml_is_default_config(self):
        raw = yaml.safe_load(DEFAULT_YAML.read_text(encoding="utf-8"))
        assert ExperimentConfig.from_file(DEFAULT_YAML) == ExperimentConfig.from_dict(
            {**DEFAULT_CONFIG, "seed": raw["seed"]}
        )

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_matches_safe_load(self):
        texts = [DEFAULT_YAML.read_text(encoding="utf-8")]
        for workload in _perfbench_workloads().WORKLOADS.values():
            for tiny in (False, True):
                texts += [item.split("=", 1)[1] for item in workload.sets(tiny)]
        for text in texts:
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text), text

    def test_round_trip_idempotent(self):
        cfg = ExperimentConfig.from_dict({"seed": 3, "device": {"kappa_rad_per_s": "2pi*2e9"}})
        once = cfg.to_dict()
        again = ExperimentConfig.from_dict(yaml.safe_load(cfg.to_yaml())).to_dict()
        assert once == again

    def test_default_yaml_hash_pinned(self):
        # changing this hash must be a deliberate edit: every manifest records it
        assert ExperimentConfig.from_file(DEFAULT_YAML).config_hash() == (
            "b936980b55bb1e623bb60f99f83b84d2cb2586bc7c0d3525800df81367c880f3"
        )

    def test_hash_stability_and_sensitivity(self):
        a = ExperimentConfig.from_dict({"seed": 3})
        b = ExperimentConfig.from_dict({"seed": 3})
        c = ExperimentConfig.from_dict({"seed": 4})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_axis_lookup(self):
        cfg = ExperimentConfig.from_dict(MINIMAL)
        assert cfg.axis("power_dbm").size == 10
        with pytest.raises(ConfigError):
            cfg.axis("kappa_rad_per_s")

    def test_from_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 11\nmc: {n_symbols: 5000}\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.mc.n_symbols == 5000
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "missing.yaml")


class TestOverrides:
    def test_nested_set(self):
        raw = apply_overrides({"seed": 1}, ["device.gamma_rad_per_s=2pi*2e5", "mc.n_symbols=42"])
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.device.gamma == pytest.approx(4 * math.pi * 1e5)
        assert cfg.mc.n_symbols == 42

    def test_boolean_override(self):
        raw = apply_overrides({"seed": 1}, ["link.saturation=false", "link.dump_frames=true"])
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.link.saturation is False and cfg.link.dump_frames is True

    def test_inline_mapping(self):
        raw = apply_overrides({"seed": 1}, ["sweeps.power_dbm={start: -150, stop: -148, points: 2, scale: linear}"])
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.axis("power_dbm").tolist() == [-150.0, -148.0]

    def test_axis_switches_between_values_and_range(self):
        raw = apply_overrides({"seed": 1}, ["sweeps.power_dbm={values: [-150, -149]}"])
        assert ExperimentConfig.from_dict(raw).axis("power_dbm").tolist() == [-150.0, -149.0]
        raw = apply_overrides({"seed": 1}, ["sweeps.kappa_t_c={start: 10, stop: 1000, points: 3, scale: log}"])
        assert ExperimentConfig.from_dict(raw).axis("kappa_t_c").tolist() == pytest.approx([10.0, 100.0, 1000.0])

    def test_partial_range_takes_rest_from_default(self):
        raw = apply_overrides({"seed": 1}, ["sweeps.power_dbm.points=3"])
        assert ExperimentConfig.from_dict(raw).axis("power_dbm").tolist() == [-160.0, -151.0, -142.0]

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["noequalsign"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["a..b=1"])

    def test_default_reference_not_mutated(self):
        before = repr(DEFAULT_CONFIG)
        raw = apply_overrides({"seed": 1}, ["device.p0=0.5"])
        ExperimentConfig.from_dict(raw)
        assert repr(DEFAULT_CONFIG) == before
