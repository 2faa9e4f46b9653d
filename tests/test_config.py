import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest
import yaml

from photonlink import cli
from photonlink.config import (
    _MODELS,
    _SECTIONS,
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

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, "nan", "inf", "+inf", "2pi*inf", "2pi*nan", "1e400"]
    )
    def test_rejects_nan_and_plus_inf(self, value):
        with pytest.raises(ConfigError, match="^device.kappa_rad_per_s: .* is not a finite number"):
            parse_quantity(value, "device.kappa_rad_per_s")

    def test_minus_inf_is_a_carrier_that_is_off(self):
        assert parse_quantity(-math.inf) == parse_quantity("-inf") == parse_quantity("2pi*-inf") == -math.inf

    def test_integer_beyond_float_range(self):
        # rounds to an infinity as the float literal 1e400 does, not an OverflowError
        with pytest.raises(ConfigError, match="^x: .* is not a finite number"):
            parse_quantity(10**400, "x")
        assert parse_quantity(-(10**400)) == -math.inf


class TestGridAxis:
    def test_values(self):
        axis = GridAxis.from_dict({"values": [1, "2pi*1"]}, "t")
        assert axis.resolve().tolist() == pytest.approx([1.0, 2 * math.pi])

    def test_log_range(self):
        axis = GridAxis.from_dict({"start": 1.0, "stop": 100.0, "points": 3, "scale": "log"}, "t")
        assert axis.resolve().tolist() == pytest.approx([1.0, 10.0, 100.0])

    def test_rejects_mixed(self):
        # scale is a range key too: beside values the canonical form, and so the hash, would drop it
        for extra in ({"start": 0}, {"scale": "log"}, {"scale": "bogus"}):
            with pytest.raises(ConfigError, match="^t: give either values or a range, not both"):
                GridAxis.from_dict({"values": [1], **extra}, "t")

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            GridAxis.from_dict({"start": 1, "stop": 2, "points": 2, "scale": "cubic"}, "t")

    @pytest.mark.parametrize("end", ["start", "stop"])
    def test_rejects_infinite_range_endpoint(self, end):
        d = {"start": -150.0, "stop": -146.0, "points": 3, "scale": "linear"}
        with pytest.raises(ConfigError, match="^sweeps.power_dbm: range endpoints must be finite"):
            GridAxis.from_dict({**d, end: -math.inf}, "sweeps.power_dbm")
        with pytest.raises(ConfigError, match=f"^sweeps.power_dbm.{end}: .* is not a finite number"):
            GridAxis.from_dict({**d, end: math.inf}, "sweeps.power_dbm")

    def test_values_may_hold_minus_inf(self):
        axis = GridAxis.from_dict({"values": [-math.inf, -150.0]}, "sweeps.power_dbm")
        assert axis.resolve().tolist() == [-math.inf, -150.0]


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
            ({"sweeps": {"mean_photons": {"values": [0.0, -1.0]}}}, r"sweeps.mean_photons: -1.0: must be >= 0"),
            ({"sweeps": {"kappa_t_c": {"values": [0.0]}}}, r"sweeps.kappa_t_c: 0.0: must be > 0"),
            # the cutoff scan grid is fixed: its former knobs are unknown keys
            ({"cutoff": {"span_decades": 7.0}}, r"unknown keys in cutoff: \['span_decades'\]"),
            ({"cutoff": {"points_per_decade": 40}}, r"unknown keys in cutoff: \['points_per_decade'\]"),
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
        text = yaml.safe_dump(cfg.to_dict(), sort_keys=True)
        again = ExperimentConfig.from_dict(yaml.safe_load(text)).to_dict()
        assert once == again

    def test_default_yaml_hash_pinned(self):
        # changing this hash must be a deliberate edit: every manifest records it
        assert ExperimentConfig.from_file(DEFAULT_YAML).config_hash() == (
            "56bbb5aba127c77a8a52496ee427aac573a42dd759696e7b158cdcdad3aee949"
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
        assert cfg.axis("kappa_rad_per_s", 3.0).tolist() == [3.0]  # the device value stands in
        assert cfg.axis("power_dbm", 3.0).size == 10

    def test_from_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 11\nmc: {n_symbols: 5000}\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.mc.n_symbols == 5000
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "missing.yaml")


class TestSchema:
    @pytest.mark.parametrize("section", ["device", "timing", "environment", "pulse"])
    def test_schema_sets_each_physics_field_once(self, section):
        fields = [f for _, _, f in _SECTIONS[section].values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(_MODELS[section]))

    def test_every_key_sets_a_field_that_a_command_reads(self):
        cli_source = Path(cli.__file__).read_text(encoding="utf-8")
        unread = []
        for section, keys in _SECTIONS.items():
            for key, (_, _, field) in keys.items():
                if field is None:
                    unread.append(f"{section}.{key}")
                elif section in ("mc", "link", "detect"):
                    attr = f"cfg.{section}.{field}" if section in _MODELS else f"cfg.{field}"
                    assert attr in cli_source, attr
        # the two keys that only the benchmark workloads set
        assert unread == ["mc.mc_samples", "cutoff.replicas"]

    def test_default_yaml_lists_the_schema_keys(self):
        raw = yaml.safe_load(DEFAULT_YAML.read_text(encoding="utf-8"))
        for section, keys in _SECTIONS.items():
            assert sorted(raw[section]) == sorted(keys), section

    def test_rejected_link_mode_names_its_value(self):
        with pytest.raises(ConfigError, match="^link.mode: .*'soft'"):
            ExperimentConfig.from_dict({"seed": 1, "link": {"mode": "soft"}})


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

    @pytest.mark.parametrize("item, key", [
        ("environment.t_e_k=.nan", "environment.t_e_k"),
        ("device.gamma_rad_per_s=.inf", "device.gamma_rad_per_s"),
        ("detect.power_dbm=.nan", "detect.power_dbm"),
        ("sweeps.power_dbm={start: -.inf, stop: -146.0, points: 3, scale: linear}", "sweeps.power_dbm"),
        ("sweeps.kappa_t_c={values: [100.0, .nan]}", "sweeps.kappa_t_c"),
    ])
    def test_non_finite_override_names_its_key(self, item, key):
        with pytest.raises(ConfigError, match=f"^{key}"):
            ExperimentConfig.from_dict(apply_overrides({"seed": 1}, [item]))

    @pytest.mark.parametrize("items, key", [
        (["device.kappa_rad_per_s=-.inf"], "device.kappa_rad_per_s"),
        (["device.gamma_rad_per_s=-1.0"], "device.gamma_rad_per_s"),
        (["device.p0=-0.5"], "device.p0"),
        (["device.p_reset_g=1.5"], "device.p_reset_g"),
        (["device.p_reset_e=-0.1"], "device.p_reset_e"),
        (["device.alpha_sat=0"], "device.alpha_sat"),
        (["timing.t_c_ns=-.inf"], "timing.t_c_ns"),
        (["timing.delta_o_ns=0"], "timing.delta_o_ns"),
        (["timing.t_w_ns=-48"], "timing.t_w_ns"),
        (["environment.t_e_k=-1"], "environment.t_e_k"),
        (["environment.nu_hz=0"], "environment.nu_hz"),
        (["environment.cycles_per_symbol=0"], "environment.cycles_per_symbol"),
        (["pulse.shape=triangle"], "pulse.shape"),
        (["pulse.l_ns=-.inf"], "pulse.l_ns"),
        (["pulse.beta=0"], "pulse.beta"),
        (["pulse.w_ns=-1"], "pulse.w_ns"),
        (["pulse.shape=tabulated"], "pulse.nodes"),
        (["pulse.shape=tabulated", "pulse.nodes=[[0.0, 1.0], [0.0, 2.0]]"], "pulse.nodes"),
        (["pulse.shape=tabulated", "pulse.nodes=[[0.0, 1.0], [1.0, -2.0]]"], "pulse.nodes"),
        # no mass on the support [-t_i, t_i] = [-50, 50] ns
        (["pulse.shape=tabulated", "pulse.nodes=[[60.0, 1.0], [90.0, 1.0]]"], "pulse.nodes"),
    ])
    def test_out_of_range_value_names_its_key(self, items, key):
        # the physics dataclasses reject these; the message names the config key
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig.from_dict(apply_overrides({"seed": 1}, items))

    def test_carrier_off_override_parses(self):
        cfg = ExperimentConfig.from_dict(apply_overrides({"seed": 1}, ["detect.power_dbm=-.inf"]))
        assert cfg.detect_power_dbm == -math.inf

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
