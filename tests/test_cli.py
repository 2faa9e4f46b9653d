import ast
import builtins
import ctypes
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from photonlink import cli, link, saturation
from photonlink.cli import main
from photonlink.errors import NumericsError

BASE = """
seed: 99
workers: 1
device:
  kappa_rad_per_s: 2pi*1e9
  gamma_rad_per_s: 2pi*1e5
timing: {t_c_ns: 230.0, delta_o_ns: 35.0, t_w_ns: 48.0}
environment: {t_e_k: 8.0, nu_hz: 1.0e10, cycles_per_symbol: 16}
mc: {mc_samples: 3000, n_symbols: 1200}
sweeps:
  power_dbm: {start: -150.0, stop: -144.0, points: 3, scale: linear}
  mean_photons: {start: 0.1, stop: 2.0, points: 4, scale: log}
  pulse_length_ns: {start: 10.0, stop: 10000.0, points: 5, scale: log}
  kappa_t_c: {values: [100.0, 1000.0, 10000.0, 100000.0]}
  lambda_tau: {start: 0.01, stop: 10.0, points: 6, scale: log}
  t_over_tau: {values: [4.0, 10.0]}
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(BASE)
    return path


def run_cli(*argv) -> int:
    return main(list(argv))


# the commands that turn the receiver environment into photon rates
LINK_RATE_COMMANDS = ("detect", "rate-sweep", "ber-sweep")

# the start of the message when t_c/tau falls below 4 with nothing swept
WINDOW_KEYS = "timing.t_c_ns, device.alpha_sat, device.kappa_rad_per_s: closed forms require t_c/tau >= 4.0"


class TestCommands:
    def test_detect(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("detect", "--config", str(config_file), "--out", str(out)) == 0
        csv = (out / "detect" / "detect.csv").read_text().splitlines()
        assert csv[0].startswith("lambda,kappa,gamma")
        manifest = json.loads((out / "detect" / "manifest.json").read_text())
        assert manifest["command"] == "detect"
        assert "detect.csv" in manifest["outputs"]

    def test_pulse_sweep(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("pulse-sweep", "--config", str(config_file), "--out", str(out)) == 0
        fig5 = (out / "pulse_sweep" / "fig5.csv").read_text().splitlines()
        assert fig5[0] == "l_ns,kappa,gamma,efficiency"
        assert len(fig5) == 6

    def test_miss_sweep_row_count(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("miss-sweep", "--config", str(config_file), "--out", str(out)) == 0
        rows = (out / "miss_sweep" / "miss_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + grid cardinality

    def test_ber_and_rate(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("ber-sweep", "--config", str(config_file), "--out", str(out)) == 0
        assert run_cli("rate-sweep", "--config", str(config_file), "--out", str(out)) == 0
        ber = (out / "ber_sweep" / "ber_sweep.csv").read_text().splitlines()
        assert len(ber) == 4
        assert (out / "ber_sweep" / "fig9.csv").exists()
        assert (out / "rate_sweep" / "fig10.csv").exists()

    def test_frame_dump(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "ber-sweep", "--config", str(config_file), "--out", str(out),
            "--set", "link.dump_frames=true",
        ) == 0
        lines = (out / "ber_sweep" / "frames.txt").read_text().splitlines()
        bit, frame = lines[0].split()
        assert bit in "01" and len(frame) == 16

    def test_saturation_sweep(self, config_file, tmp_path):
        out = tmp_path / "out"
        # up to lambda tau = 50, where delta is negative but far below 1e-12
        assert run_cli(
            "saturation-sweep", "--config", str(config_file), "--out", str(out),
            "--set", "sweeps.lambda_tau={start: 0.01, stop: 50.0, points: 6, scale: log}",
        ) == 0
        surv = (out / "saturation_sweep" / "survivors.csv").read_text().splitlines()
        assert surv[0] == "lambda,tau,t_c,mean,var,delta,regime"
        assert len(surv) == 1 + 2 * 6
        for line in surv[1:]:
            delta, regime = line.split(",")[-2:]
            sign = (float(delta) > 0) - (float(delta) < 0)
            assert regime == {1: "sub-poisson", -1: "super-poisson", 0: "poisson-boundary"}[sign], line
        fig8 = (out / "saturation_sweep" / "fig8.csv").read_text().splitlines()
        assert fig8[0] == "t_over_tau,lambda_tau,delta"
        for name in ("fig11.csv", "fig12.csv"):
            assert (out / "saturation_sweep" / name).exists()

    def test_cutoff_fit(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "cutoff-fit", "--config", str(config_file), "--out", str(out),
            "--set", "cutoff.replicas=64",
            "--set", "sweeps.kappa_t_c={values: [100.0, 300.0, 1000.0, 3000.0, 10000.0]}",
        )
        assert code == 0
        fit = json.loads((out / "cutoff_fit" / "fit.json").read_text())
        assert 0.8 < fit["b"] < 1.5
        fig15 = (out / "cutoff_fit" / "fig15.csv").read_text().splitlines()
        assert fig15[0] == "kappa_tc,n_cutoff,kind"
        fig13 = (out / "cutoff_fit" / "fig13.csv").read_text().splitlines()
        assert fig13[0] == "kappa,t_c,kappa_tc,n_cutoff"
        assert len(fig13) == 1 + 5
        kinds = {line.rsplit(",", 1)[1] for line in fig15[1:]}
        assert kinds == {"simulated", "fit"}

    def test_validate_quick_subsetless(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("validate", "--config", str(config_file), "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        payload = json.loads((out / "validate" / "validation.json").read_text())
        assert payload["failures"] == 0

    def test_validate_failure_exits_3(self, config_file, tmp_path, monkeypatch):
        from photonlink import validate as validate_mod
        from photonlink.validate import CheckResult

        monkeypatch.setattr(
            validate_mod, "run_checks",
            lambda level="quick", seed=0, names=None: [CheckResult("forced", False, "synthetic")],
        )
        assert run_cli("validate", "--config", str(config_file), "--out", str(tmp_path / "o")) == 3


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        assert run_cli("detect", "--config", str(tmp_path / "nope.yaml")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"

    def test_bad_config_value(self, config_file, capsys):
        code = run_cli("detect", "--config", str(config_file), "--set", "device.p0=2.0")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"].startswith("device.p0: ")

    def test_unknown_key(self, config_file):
        assert run_cli("detect", "--config", str(config_file), "--set", "device.color=red") == 2
        # the saturated excitation is exact, so it has no replica count
        assert run_cli("detect", "--config", str(config_file), "--set", "mc.sat_replicas=4096") == 2

    @pytest.mark.parametrize(
        "text", ["seed: [1\n", "- 1\n- 2\n", "device: {p0: 2020-01-01}\n"],
        ids=["invalid-yaml", "list-root", "date-value"],
    )
    def test_unreadable_config(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert run_cli("detect", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "o")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"

    @pytest.mark.parametrize(
        "command, overrides, start",
        [
            ("pulse-sweep", ["pulse.shape=tabulated", "pulse.nodes=[[40.0, 1.0], [60.0, 1.0]]",
                             "sweeps.pulse_length_ns={values: [1.0]}"], "sweeps.pulse_length_ns: 1.0: "),
            ("miss-sweep", ["sweeps.mean_photons={values: [-1.0]}"], "sweeps.mean_photons: -1.0: "),
            ("cutoff-fit", ["sweeps.kappa_t_c={values: [1.0, 100.0, 1000.0, 10000.0]}"], "sweeps.kappa_t_c: 1.0: "),
            ("cutoff-fit", ["sweeps.kappa_t_c={values: [100.0, 1000.0]}"], "sweeps.kappa_t_c: [100.0, 1000.0]: "),
            # the first rejected point in axis order, at any worker count
            *[("cutoff-fit", ["sweeps.kappa_t_c={values: [100.0, 2.0, 3.0, 1000.0, 10000.0]}", f"workers={w}"],
               "sweeps.kappa_t_c: 2.0: ") for w in (1, 2)],
            # kappa = kappa_t_c / t_c overflows, so the dead time rounds to 0 in the device build
            ("cutoff-fit", ["sweeps.kappa_t_c={values: [100.0, 1.0e3, 1.0e308, 1.0e4]}"], "sweeps.kappa_t_c: 1e+308: "),
            ("saturation-sweep", ["sweeps.t_over_tau={values: [2.0]}"], "sweeps.t_over_tau: 2.0: "),
            # t_c/tau below 4 at a swept kappa, or with nothing swept: the keys that set the ratio
            ("saturation-sweep", ["sweeps.kappa_rad_per_s={values: [1e6]}"], "sweeps.kappa_rad_per_s: 1000000.0: "),
            ("saturation-sweep", ["device.alpha_sat=500"], WINDOW_KEYS),
            ("rate-sweep", ["link.saturation=true", "device.kappa_rad_per_s=1e6"], WINDOW_KEYS),
            ("ber-sweep", ["link.saturation=true", "timing.t_c_ns=0.5"], WINDOW_KEYS),
            # the photon energy h nu rounds to 0, or the thermal rate k_B T_e/(N h nu t_c) overflows
            *[(c, ["environment.nu_hz=1e-300"], "environment.nu_hz: ") for c in LINK_RATE_COMMANDS],
            *[(c, ["environment.t_e_k=1e300", "environment.nu_hz=1e-10"], "environment.t_e_k, environment.nu_hz: ")
              for c in LINK_RATE_COMMANDS],
            # P/(h nu) = 1.5e308 and n_e/t_c = 1.1e308 are finite, but their sum, the kernel's rate, overflows
            *[(c, [f"{key}={value}", "environment.t_e_k=1e304", "environment.cycles_per_symbol=800"],
               f"{key}, environment.t_e_k, environment.nu_hz: ")
              for c, key, value in (("detect", "detect.power_dbm", "2880"),
                                    ("rate-sweep", "sweeps.power_dbm", "{values: [2880.0]}"),
                                    ("ber-sweep", "sweeps.power_dbm", "{values: [2880.0]}"))],
        ],
        ids=["pulse-length-off-nodes", "negative-mean", "window-too-short", "too-few-fit-samples",
             "first-rejected-point-workers-1", "first-rejected-point-workers-2", "kappa-overflow", "t-over-tau-below-4",
             "swept-kappa-window", "alpha-sat-window", "saturated-rate-window", "saturated-ber-window",
             *[f"{kind}-{c}" for kind in ("photon-energy-underflow", "thermal-rate-overflow", "summed-rate-overflow")
               for c in LINK_RATE_COMMANDS]],
    )
    def test_rejected_sweep_value_names_its_key(self, config_file, tmp_path, capsys, command, overrides, start):
        argv = [command, "--config", str(config_file), "--out", str(tmp_path / "o")]
        for item in overrides:
            argv += ["--set", item]
        assert run_cli(*argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and err["message"].startswith(start), err["message"]

    @pytest.mark.parametrize(
        "command, overrides",
        [("cutoff-fit", []), ("saturation-sweep", []), ("ber-sweep", ["link.saturation=true"])],
    )
    def test_dead_time_underflow_names_alpha_sat(self, config_file, tmp_path, capsys, command, overrides):
        # alpha_sat / kappa rounds to 0: the message names device.alpha_sat, not a sweep
        # value that later divides by the dead time, and nothing warns on the way
        argv = [command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                "--set", "device.alpha_sat=1e-320"]
        for item in overrides:
            argv += ["--set", item]
        assert run_cli(*argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and err["message"].startswith("device.alpha_sat: "), err["message"]

    @pytest.mark.parametrize("value", ["1.0e200", "1.0e300"])
    def test_huge_lambda_tau(self, config_file, tmp_path, capsys, value):
        # at lambda_tau = 1e200 no photon survives the dead time: every moment reads an exact 0, where
        # (lambda t_c)^2 overflows against e^{-4 lambda tau} = 0; at 1e300 lambda = lambda_tau/tau overflows
        argv = ["saturation-sweep", "--config", str(config_file), "--out", str(tmp_path),
                "--set", f"sweeps.lambda_tau={{values: [1.0, {value}]}}"]
        code = run_cli(*argv)
        if value == "1.0e300":
            assert code == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["kind"] == "config" and err["message"].startswith("sweeps.lambda_tau: 1e+300: "), err
            return
        assert code == 0
        out = tmp_path / "saturation_sweep"
        for name in ("survivors.csv", "delta_lambda.csv", "fig8.csv"):
            assert "nan" not in (out / name).read_text(), name
        lines = (out / "survivors.csv").read_text().splitlines()
        huge = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[2::2]]
        assert [(r["mean"], r["var"], r["delta"]) for r in huge] == [("0.0", "0.0", "0.0")] * 2

    @pytest.mark.parametrize("ratio", ["1.0e7", "1.0e9"])
    def test_huge_window_ratio(self, config_file, tmp_path, ratio):
        # second - mean^2 cancels here, to 3 units of a 1.25e8 variance at 1e9; the variance is mean - delta
        argv = ["saturation-sweep", "--config", str(config_file), "--out", str(tmp_path),
                "--set", f"sweeps.t_over_tau={{values: [{ratio}]}}", "--set", "sweeps.lambda_tau={values: [1.0]}"]
        assert run_cli(*argv) == 0
        header, row = (tmp_path / "saturation_sweep" / "survivors.csv").read_text().splitlines()
        m = {k: float(v) for k, v in zip(header.split(","), row.split(",")) if k != "regime"}
        assert m["var"] == m["mean"] - m["delta"] and 0.0 < m["var"] < m["mean"]

    @pytest.mark.parametrize("command, name, column", [("saturation-sweep", "saturation_excitation.csv", "excitation"),
                                                         ("miss-sweep", "miss_sweep.csv", "p_miss")])
    def test_huge_mean_photons(self, config_file, tmp_path, capsys, command, name, column):
        # at 1e200 mean photons the series of the physics kernels and the square in excitation_ctmc would
        # overflow on elements they do not keep, and the curves read what they read at 1e100, saturated;
        # at 1e300 the product lam r in excitation_ctmc overflows; at 1e303 the rate mean_photons/t_c overflows
        values = {}
        for value in ("1.0e100", "1.0e200", "1.0e300", "1.0e303"):
            argv = [command, "--config", str(config_file), "--out", str(tmp_path / value),
                    "--set", f"sweeps.mean_photons={{values: [1.0, {value}]}}"]
            code = run_cli(*argv)
            if value == "1.0e303":
                assert code == 2
                err = json.loads(capsys.readouterr().err)["error"]
                assert err["kind"] == "config" and err["message"].startswith("sweeps.mean_photons: 1e+303: "), err
                break
            assert code == 0
            lines = (tmp_path / value / command.replace("-", "_") / name).read_text().splitlines()
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            assert all(math.isfinite(float(row[column])) for row in rows)
            values[value] = [row[column] for row in rows[1::2]]
        assert values["1.0e200"] == values["1.0e100"]
        assert float(values["1.0e300"][0]) == pytest.approx(float(values["1.0e100"][0]), abs=2e-16)
        if command == "miss-sweep":
            assert float(values["1.0e200"][0]) == pytest.approx(0.0512, abs=1e-4)

    @pytest.mark.parametrize("command, key", [("detect", "detect.power_dbm"), ("rate-sweep", "sweeps.power_dbm"),
                                              ("ber-sweep", "sweeps.power_dbm")])
    def test_huge_power(self, config_file, tmp_path, capsys, command, key):
        # at 2800 dBm the rate, 1.5e300 photons/s, is finite and the detector saturates; at 2900 dBm it
        # overflows, and past 3110 dBm so does the power in watts
        def run(power):
            value = power if key == "detect.power_dbm" else f"{{values: [-150.0, {power}]}}"
            out = tmp_path / power
            return run_cli(command, "--config", str(config_file), "--out", str(out), "--set", f"{key}={value}"), out

        code, out = run("2800.0")
        assert code == 0
        name, column = {"detect": ("detect.csv", "p_miss"), "rate-sweep": ("rate_sweep.csv", "rate"),
                        "ber-sweep": ("ber_sweep.csv", "ber")}[command]
        lines = (out / command.replace("-", "_") / name).read_text().splitlines()
        value = float(dict(zip(lines[0].split(","), lines[-1].split(",")))[column])  # the 2800 dBm row
        assert 0.0 <= value <= 1.0
        if command == "detect":
            assert value == pytest.approx(0.0512, abs=1e-4)
        else:
            # the -150 dBm row reads what it reads beside a finite power
            _, ref = run("-140.0")
            assert lines[1] == (ref / command.replace("-", "_") / name).read_text().splitlines()[1]
        for power in ("2900.0", "3400.0"):
            assert run(power)[0] == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["kind"] == "config" and err["message"].startswith(f"{key}: {power}: "), err

    def test_uncreatable_output_dir(self, config_file, tmp_path, capsys):
        # --out names a regular file, so no directory can be made under it
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("detect", "--config", str(config_file), "--out", str(blocker)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and err["message"].startswith("output_dir: "), err["message"]

    def test_numerics_error_exit_code(self, config_file, tmp_path, monkeypatch, capsys):
        # a scan grid cut at lam tau = 1, before every crossing, has no 3 dB drop
        from photonlink import saturation

        monkeypatch.setattr(saturation, "_SCAN_MAX_LAM_TAU", 1.0)
        code = run_cli("cutoff-fit", "--config", str(config_file), "--out", str(tmp_path / "o"))
        assert code == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "numerics" and "no 3 dB drop" in err["message"], err

    def test_every_raised_class_has_an_exit_code(self):
        # main exits 2 on a ValueError (ConfigError and ParameterError among them) and 4 on a
        # NumericsError; any other class raised in the package would end in a traceback and exit 1
        def raised_class(module, node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                return getattr(module, exc.id, getattr(builtins, exc.id, None))
            if isinstance(exc, ast.Attribute) and isinstance(exc.value, ast.Name):
                return getattr(getattr(module, exc.value.id, None), exc.attr, None)
            return None  # a bare raise, or one of an expression that names no class

        bad = []
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
            module = importlib.import_module(f"photonlink.{path.stem}")
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise):
                    cls = raised_class(module, node)
                    if not (isinstance(cls, type) and issubclass(cls, (ValueError, NumericsError))):
                        bad.append(f"{path.name}:{node.lineno}")
        assert not bad, bad

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_config_error_before_numerics_error(self, config_file, tmp_path, monkeypatch, capsys, workers):
        # every point's operator is built before any scan, so a kappa t_c below the window is
        # named although the scans of the points before it would find no 3 dB drop
        from photonlink import saturation

        monkeypatch.setattr(saturation, "_SCAN_MAX_LAM_TAU", 1.0)
        code = run_cli("cutoff-fit", "--config", str(config_file), "--out", str(tmp_path / "o"), "--workers", workers,
                       "--set", "sweeps.kappa_t_c={values: [100.0, 1000.0, 2.0]}")
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and err["message"].startswith("sweeps.kappa_t_c: 2.0: "), err

    def test_unbuildable_frame_table_exit_code(self, config_file, tmp_path, capsys):
        # at N = 1e5 and -142 dBm the frame-statistics window would hold 7.5M cells
        code = run_cli(
            "rate-sweep", "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--set", "environment.cycles_per_symbol=100000",
            "--set", "sweeps.power_dbm={values: [-142.0]}",
        )
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "numerics"


class TestDeterminism:
    def test_rerun_byte_identical(self, config_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("ber-sweep", "--config", str(config_file), "--out", str(out)) == 0
            outs.append((out / "ber_sweep" / "ber_sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_independent(self, config_file, tmp_path):
        outs = []
        for name, workers in (("w1", "1"), ("w3", "3")):
            out = tmp_path / name
            assert run_cli(
                "miss-sweep", "--config", str(config_file), "--out", str(out), "--workers", workers
            ) == 0
            outs.append((out / "miss_sweep" / "miss_sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_capped_at_points(self, config_file, tmp_path, monkeypatch):
        # a pool never starts more threads than there are grid points; the fake
        # pool records its size and maps in this thread, so it starts none
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakePool)
        texts = []
        for workers in ("1", "2", "64"):
            out = tmp_path / workers
            assert run_cli("rate-sweep", "--config", str(config_file), "--out", str(out), "--workers", workers) == 0
            texts.append([(out / "rate_sweep" / name).read_bytes() for name in ("rate_sweep.csv", "fig10.csv")])
        assert sizes == [2, 3]  # min(workers, the 3 values of sweeps.power_dbm)
        assert texts[0] == texts[1] == texts[2]

    def test_saturated_outputs_worker_independent(self, config_file, tmp_path):
        outs = []
        for name, workers in (("w1", "1"), ("w2", "2"), ("w1b", "1")):
            out = tmp_path / name
            for command in ("saturation-sweep", "rate-sweep"):
                assert run_cli(
                    command, "--config", str(config_file), "--out", str(out), "--workers", workers,
                    "--set", "link.saturation=true",
                ) == 0
            outs.append(
                (out / "saturation_sweep" / "saturation_excitation.csv").read_bytes()
                + (out / "rate_sweep" / "rate_sweep.csv").read_bytes()
            )
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "command", ["detect", "pulse-sweep", "miss-sweep", "rate-sweep", "saturation-sweep", "cutoff-fit"]
    )
    def test_exact_tables_do_not_depend_on_the_seed(self, config_file, tmp_path, command):
        # these commands draw nothing, so no output of theirs records or depends on the seed
        outputs = []
        for seed in ("5", "6"):
            out = tmp_path / seed
            assert run_cli(command, "--config", str(config_file), "--out", str(out), "--seed", seed) == 0
            manifest = json.loads((out / command.replace("-", "_") / "manifest.json").read_text())
            assert manifest["seed"] == int(seed)
            outputs.append({name: (out / command.replace("-", "_") / name).read_bytes()
                            for name in manifest["outputs"]})
        assert outputs[0] == outputs[1]
        for name, data in outputs[0].items():
            assert b"seed" not in data, name

    def test_rate_sweep_builds_noise_tables_once(self, config_file, tmp_path, monkeypatch):
        # 5 points: one window evaluation for the symbol-0 chain, then one for each
        # point's symbol-1 chain, each building both first-bit tables, at any worker
        # count; a second call in the same process evaluates its own
        built = []
        window_laws = link._window_laws

        def counted(log_q, n, *window):
            built.append(window)
            return window_laws(log_q, n, *window)

        monkeypatch.setattr(link, "_window_laws", counted)
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("w2", "2")):
            built.clear()
            out = tmp_path / name
            assert run_cli(
                "rate-sweep", "--config", str(config_file), "--out", str(out), "--workers", workers,
                "--set", "sweeps.power_dbm={start: -154.0, stop: -146.0, points: 5, scale: linear}",
            ) == 0
            assert len(built) == 1 + 5, name
            outs.append((out / "rate_sweep" / "rate_sweep.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_saturated_sweep_builds_one_operator(self, config_file, tmp_path, monkeypatch):
        # the dead-time operator is built with the noise kernel, before the points
        # run, and every kernel evaluates it; at --workers 2 two threads share it
        built = []
        build = saturation.SurvivorOperator.build

        def counted(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(saturation.SurvivorOperator, "build", counted)
        outs = []
        for workers in ("1", "2"):
            built.clear()
            out = tmp_path / workers
            assert run_cli(
                "rate-sweep", "--config", str(config_file), "--out", str(out), "--workers", workers,
                "--set", "link.saturation=true",
                "--set", "sweeps.power_dbm={start: -154.0, stop: -146.0, points: 5, scale: linear}",
            ) == 0
            assert len(built) == 1, workers
            outs.append((out / "rate_sweep" / "rate_sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["rate-sweep", "ber-sweep"])
    def test_pool_tasks_carry_the_noise_tables(self, config_file, tmp_path, monkeypatch, command):
        # the two threads of the pool share the link config and its noise tables,
        # built before the points run: 1 + 5 window evaluations (one per chain)
        # for 5 points
        built = []
        window_laws = link._window_laws

        def counted(log_q, n, *window):
            built.append(window)
            return window_laws(log_q, n, *window)

        monkeypatch.setattr(link, "_window_laws", counted)
        assert run_cli(
            command, "--config", str(config_file), "--out", str(tmp_path / "o"), "--workers", "2",
            "--set", "sweeps.power_dbm={start: -154.0, stop: -146.0, points: 5, scale: linear}",
        ) == 0
        assert len(built) == 1 + 5

    def test_manifest_hashes_reproducible(self, config_file, tmp_path):
        hashes = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run_cli("detect", "--config", str(config_file), "--out", str(out)) == 0
            manifest = json.loads((out / "detect" / "manifest.json").read_text())
            hashes.append((manifest["config_hash"], manifest["outputs"]))
        assert hashes[0] == hashes[1]

    def test_seed_changes_output(self, config_file, tmp_path):
        texts = []
        for name, seed in (("s1", "5"), ("s2", "6")):
            out = tmp_path / name
            assert run_cli(
                "ber-sweep", "--config", str(config_file), "--out", str(out), "--seed", seed
            ) == 0
            texts.append((out / "ber_sweep" / "ber_sweep.csv").read_text())
        assert texts[0] != texts[1]


class TestFigureExtraction:
    """A figure file is the named columns, in order, of the rows its command keeps."""

    def test_fig8_schema(self, config_file, tmp_path):
        from photonlink.config import ExperimentConfig

        runner = cli._Runner(ExperimentConfig.from_file(config_file), "saturation-sweep", tmp_path)
        rows = [{"t_over_tau": 4.0, "lambda_tau": 0.1, "regime": "poisson", "delta": 0.007}]
        path = runner.write_figure("fig8", ("t_over_tau", "lambda_tau", "delta"), rows)
        assert path == tmp_path / "saturation_sweep" / "fig8.csv"
        assert path.read_text() == "t_over_tau,lambda_tau,delta\n4.0,0.1,0.007\n"
        assert path in runner.outputs

    def test_cutoff_table_feeds_fig13(self, config_file, tmp_path, monkeypatch):
        def scan_cutoff(operators):
            # kappa t_c = alpha_sat t_c / tau, alpha_sat = 1.14 by default
            return [SimpleNamespace(n_cutoff=2.0 * (1.14 * op.t_c / op.tau) ** 1.1) for op in operators]

        monkeypatch.setattr(saturation, "scan_cutoff", scan_cutoff)
        out = tmp_path / "out"
        assert run_cli("cutoff-fit", "--config", str(config_file), "--out", str(out)) == 0
        table = (out / "cutoff_fit" / "cutoff_table.csv").read_text().splitlines()
        fig13 = (out / "cutoff_fit" / "fig13.csv").read_text().splitlines()
        assert table[0] == "kappa,t_c,gamma,kappa_tc,n_cutoff"
        assert fig13[0] == "kappa,t_c,kappa_tc,n_cutoff"
        # fig13 is cutoff_table.csv without its gamma column, row for row
        assert fig13[1:] == [",".join(f for i, f in enumerate(line.split(",")) if i != 2) for line in table[1:]]
        # cutoff-fit pins gamma = 0, so no command fills a cutoff-versus-gamma figure
        assert not (out / "cutoff_fit" / "fig14.csv").exists()


class TestParser:
    """The argument grammar: a usage error exits 2 before any config is read."""

    @pytest.mark.parametrize(
        "argv",
        [["detect"], ["simulate", "--config", "{config}"], ["ber-sweep", "--config", "{config}", "--level", "full"]],
        ids=["missing-config", "unknown-command", "level-outside-validate"],
    )
    def test_usage_error_exits_2(self, config_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*(a.format(config=config_file) for a in argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: photonlink")

    @pytest.mark.parametrize("extra, level", [([], "quick"), (["--level", "full"], "full")], ids=["default", "full"])
    def test_validate_level_reaches_the_battery(self, config_file, tmp_path, monkeypatch, extra, level):
        from photonlink import validate as validate_mod

        levels = []

        def run_checks(level, seed):
            levels.append(level)
            return []

        monkeypatch.setattr(validate_mod, "run_checks", run_checks)
        assert run_cli("validate", "--config", str(config_file), "--out", str(tmp_path / "o"), *extra) == 0
        assert levels == [level]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out == "photonlink 0.6.1\n"


def test_saturation_barely_moves_the_rate(tmp_path):
    # at weak received power the dead-time filter costs almost nothing; a
    # noisy saturated kernel once read 0.18 bits below the unsaturated rate
    default = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    rates = {}
    for flag in ("false", "true"):
        out = tmp_path / flag
        assert run_cli(
            "rate-sweep", "--config", str(default), "--out", str(out), "--set", f"link.saturation={flag}",
        ) == 0
        lines = (out / "rate_sweep" / "rate_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rates[flag] = [float(dict(zip(header, line.split(",")))["rate"]) for line in lines[1:]]
    gaps = [abs(a - b) for a, b in zip(rates["true"], rates["false"])]
    assert len(gaps) == 10 and max(gaps) < 0.01, gaps


# The overrides of the link-ber and link-rate benchmark workloads (perfbench/workloads.py), at seed 7.
LINK_BENCH_SETS = (
    "sweeps.power_dbm={start: -154.0, stop: -146.0, points: 5, scale: linear}",
    "link.saturation=false",
    "device.p0=0.0",
)
# sha256 of each file, recorded at version 0.5.1; rate_sweep.csv was re-recorded at
# 0.6.0, where it lost its n_symbols and seed columns.  A version meant to move one
# updates its digest and says so in CHANGES.md.  The rate columns print every
# digit of sums of np.exp and np.log2, whose AVX-512 kernels round some last
# bits differently from numpy's baseline ones: those files have a digest for
# each (checked by turning the AVX-512 kernels off with NPY_DISABLE_CPU_FEATURES).
# The ber sweep also dumps the frames of its first power point, so frames.txt is pinned too.
PINNED_LINK_OUTPUTS = {
    "ber-sweep": (("mc.n_symbols=17500", "link.mode=physical", "link.dump_frames=true"), {
        "ber_sweep.csv": {"21b53c491a6e9e646e8b6aa42b25bcb31a26fe5388f97899e36e33bf7ba58ec0"},
        "fig9.csv": {"7351c246da87a7b2d87481e56e8f3a80f544ebea61b9265a80fc1f9b7f0f73e3"},
        "frames.txt": {"7b3c4a5f4d41f88230816e9a3c0690eb8a98c83a5efd121a81c34192c999ef4f"},
    }),
    "rate-sweep": ((), {
        "rate_sweep.csv": {"02620c10ab95549b11be59668b38fc2ad333196fe86731e85c2a6bc181cbe902",
                           "1d700f871d6280cd39b40d8516fcabc5204e44bbd172e376a92b2c828d3dd1c8"},
        "fig10.csv": {"6c262c87dc7d789dc7141cf9cc2453fcc670e493ded1adeba55d8a4e568ea446",
                      "2266b48a884e97c0258885401bd86531446b44ce819f87935959c983647a84bb"},
    }),
}


def _assert_pinned(tmp_path, command, sets, digests):
    """Run command on configs/default.yaml at seed 7 and workers 1 and 2; check each file's sha256."""
    default = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    for workers in ("1", "2"):
        out = tmp_path / workers
        argv = [command, "--config", str(default), "--out", str(out), "--seed", "7", "--workers", workers]
        for item in sets:
            argv += ["--set", item]
        assert run_cli(*argv) == 0
        for name, want in digests.items():
            path = out / command.replace("-", "_") / name
            assert hashlib.sha256(path.read_bytes()).hexdigest() in want, (workers, name)


@pytest.mark.parametrize("command", sorted(PINNED_LINK_OUTPUTS))
def test_link_outputs_pinned_at_any_worker_count(tmp_path, command):
    # a byte-level gate for changes that should move no link output
    extra, digests = PINNED_LINK_OUTPUTS[command]
    _assert_pinned(tmp_path, command, LINK_BENCH_SETS + extra, digests)


# Five link-ber calls in a fresh interpreter: the minor page faults of each, and whether the heap policy is set.
FAULTS_SCRIPT = """
import json, resource, sys
from photonlink import cli
argv = json.loads(sys.argv[1])
faults = []
for seed in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv + ["--seed", str(seed)]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"policy": cli._keep_freed_heap(), "faults": faults}))
"""
# Fixed before the test first ran: a steady-state link-ber call faulted 4,284-4,483 pages
# without the policy and 0-17 with it (12 calls each, glibc 2.36).
MAX_FAULTS_PER_CALL = 1000


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


def _libc_without_mallopt(name):
    return object()


class TestHeapPolicy:
    @pytest.mark.skipif(sys.platform != "linux", reason="the policy is glibc's")
    def test_sweep_points_reuse_freed_heap(self, tmp_path):
        default = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        argv = ["ber-sweep", "--config", str(default), "--out", str(tmp_path), "--workers", "1"]
        for item in LINK_BENCH_SETS + ("mc.n_symbols=17500", "mc.mc_samples=1500", "link.mode=physical"):
            argv += ["--set", item]
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT, json.dumps(argv)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        if not got["policy"]:
            pytest.skip("libc has no mallopt")
        assert max(got["faults"][2:]) < MAX_FAULTS_PER_CALL, got["faults"]  # after two warm-up calls

    @pytest.mark.parametrize("cdll", [_no_libc, _libc_without_mallopt])
    def test_without_mallopt_outputs_unchanged(self, config_file, tmp_path, monkeypatch, cdll):
        def outputs(name):
            out = tmp_path / name
            assert run_cli("ber-sweep", "--config", str(config_file), "--out", str(out)) == 0
            return {p.name: p.read_bytes() for p in (out / "ber_sweep").glob("*.csv")}

        want = outputs("policy")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._keep_freed_heap.cache_clear()
        try:
            assert outputs("fallback") == want
            assert cli._keep_freed_heap() is False
        finally:
            cli._keep_freed_heap.cache_clear()


# The overrides of the sat-cutoff benchmark workload (perfbench/workloads.py).
SAT_CUTOFF_SETS = (
    "sweeps.kappa_t_c={values: [100.0, 316.22776601683796, 1000.0, 3162.2776601683795, 10000.0]}",
    "cutoff.replicas=64",
)
# sha256 of the saturation outputs and of the saturated link outputs on
# configs/default.yaml at seed 7, recorded at version 0.5.1 like the link pins;
# survivors.csv was re-recorded at 0.5.2, where its regime became the sign of delta,
# the cutoff-fit files at 0.5.3, where the cutoff became a root, and the exact
# tables (saturation_excitation.csv, fig11.csv, fig12.csv, the saturated
# rate_sweep.csv) at 0.6.0, where they lost their constant columns.  At 0.6.1
# fit.json and fig15.csv were re-recorded, where the fit became a variable-projection
# search over b (b moved by 6e-10 relative), and survivors.csv, where its variance
# became mean - delta (var cells moved by at most 3e-13 relative).  The
# cutoff-fit and saturation-sweep files print values that pass through numpy's
# vectorised exp and log, so they also have a digest for numpy's baseline
# kernels (NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4").
PINNED_SATURATION_OUTPUTS = {
    "cutoff-fit": (SAT_CUTOFF_SETS, {
        "cutoff_table.csv": {"df75c49ef5111a80829faf061298864eb57d237c5e6d922210c53b278f369e11",
                             "f45c726627b4ebbb68c4124969d47edd29d217b4a1778e85c70e014afd0b2b6f"},
        "fit.json": {"3d495446f019da556a4b4596d9d5e3b33f9c0d76b904a1ce9ab6def16bab5e67",
                     "0b3884a9870e9c06bfd9d768884dc8075e568c996d2328f75bef8799d0de8d68"},
        "fig13.csv": {"4e31e6b4ef4a0afb72cf2a9679bd5608006da7516f065d72c5da5d9ce436c0ec",
                      "40a95435092d5f45f8ce6a4f884218f942061762d1ef1b6d4e46707855fc330d"},
        "fig15.csv": {"d4add3c506f66a0f551a111f8a60adeda85e748c8fd379c98b5965e081fea568",
                      "53b52072d88ea63017bf2f32e907a082e714e603e2e5cda5fc78c9920a79c7a3"},
    }),
    "saturation-sweep": ((), {
        "saturation_excitation.csv": {"867eadca21755ecb66fb19228df64a8e4315db19a3ffb27c999508520cbb752d",
                                      "599b38ff4a74748fbbf74a0e1e5dad7aa26dbbbed9d825bf8133b62da115d48f"},
        "survivors.csv": {"aba628a0dbe9730dc0e14c1394c76da4339893b52d126aee8f0fe64caa9bc1c1",
                          "3a226f20f1b397aabf02b5cad0c5d36d484c02353f2e0ad4b7ce7ff611cf991b"},
        "delta_lambda.csv": {"6c8bbcb59e44802cfa6702f737e54826acc5deaf83189d0747fc79196868e725",
                             "668a5ed096b12c23e229c7486b2bf89463448a44262725f75d2912cbe76edae0"},
        "fig8.csv": {"6c8bbcb59e44802cfa6702f737e54826acc5deaf83189d0747fc79196868e725",
                     "668a5ed096b12c23e229c7486b2bf89463448a44262725f75d2912cbe76edae0"},
        "fig11.csv": {"7e3fd8de24d6c93c9d2efb272ca61f1a254a07706593ac1b42fbfbd47cd5dc94",
                      "687ab6f60d864c533bbb8917a06698789c5f5ee1c4900d44948c99c5040655f3"},
        "fig12.csv": {"d092e71c240588a413c12ec08a3e97910029de1e1a4b14f6819a7e0c5c62ece0",
                      "fe007dccabdb0a627486bf4b93ddab93345e57efcb33a7b52a44f7e4facdb321"},
    }),
    "ber-sweep": (LINK_BENCH_SETS + ("link.saturation=true", "mc.n_symbols=17500", "link.mode=physical"), {
        "ber_sweep.csv": {"dcb01b74ed931cd8eedfbaba9ad174700863c2230d7f9134cfc8109ae38de297"},
        "fig9.csv": {"a7ce31c58649be60084ef98e79d8d53ce3890a8a74c6480a7028230d7f9dae99"},
    }),
    "rate-sweep": (LINK_BENCH_SETS + ("link.saturation=true",), {
        "rate_sweep.csv": {"8ab3eff029909e5947e6e644c9ffa6822363823e67a1aae2674096b32b335cee"},
        "fig10.csv": {"0d8e013324d35d72df981db7ab371a8d544f88ce53f3147885045d1ba9f522cc"},
    }),
}


@pytest.mark.parametrize("command", sorted(PINNED_SATURATION_OUTPUTS))
def test_saturation_outputs_pinned_at_any_worker_count(tmp_path, command):
    # a byte-level gate for changes that should move no saturation output
    _assert_pinned(tmp_path, command, *PINNED_SATURATION_OUTPUTS[command])


# The overrides of the detect-miss benchmark workload (perfbench/workloads.py).
DETECT_MISS_SETS = (
    "sweeps.mean_photons={start: 0.01, stop: 10.0, points: 16, scale: log}",
    "mc.mc_samples=1250",
    "device.p0=0.0",
)
# sha256 of the detection outputs on configs/default.yaml at seed 7, recorded at
# version 0.5.1 like the link pins; detect.csv, miss_sweep.csv and fig6.csv were
# re-recorded at 0.6.0, where they lost their constant columns.  The second miss sweep adds dark-count flips
# and a 2 x 2 (kappa, gamma) grid, so that the p0 flip and the grouping of the
# rates by (kappa, gamma) are pinned too; the pulse sweep's efficiency is pinned
# with and without the flip.  The miss and pulse sweeps go through numpy's
# vectorised exp, so they also have a digest for numpy's baseline kernels.
PINNED_DETECTION_OUTPUTS = {
    "detect": ("detect", (), {
        "detect.csv": {"cb9e85838316be2324e95922574a2d85483fb08a6258b8bbe75a4f1511802e9b"},
    }),
    "miss-sweep": ("miss-sweep", DETECT_MISS_SETS, {
        "miss_sweep.csv": {"4b088162bd4eb803bbbfe6c3f7928c88cd2205b82c556725d5a6a4eae83b9a4b",
                           "f213e9826908e451ecfe8c137f5bf1f52ae9bc3a84dfd801ce61582bad02b699"},
        "fig6.csv": {"3e53fd9e01d3ab6bd0b41ba96fe6fbf2d268bc76342f2dfcadcd354f1f385cb6",
                     "2418fdb5b4f7bb2cfccc959243f266d8c09f2c981e5e401fa10d7ada30170bb6"},
    }),
    "miss-sweep-p0-grid": ("miss-sweep", DETECT_MISS_SETS + (
        "device.p0=0.02",
        "sweeps.kappa_rad_per_s={values: [2pi*1e9, 2pi*2e8]}",
        "sweeps.gamma_rad_per_s={values: [2pi*1e5, 2pi*3e6]}",
    ), {
        "miss_sweep.csv": {"75433299da69f2c4a263aab6ad4a592ece280ff2685fa42effeedde8990c5ab6",
                           "4efc070590b49cc2a95fd617250b94e7fb85b63f37c26dac41f87bdd303134e5"},
        "fig6.csv": {"2b2f509c760b3a987cce95ca5196eb35f9e618613c5e8c0dd45e0618e705ef26",
                     "35e368e6a74cebda194eff270999ce42471630f9f4ea9d90f05ec6f88be90d5e"},
    }),
    "pulse-sweep": ("pulse-sweep", (), {
        "pulse_sweep.csv": {"9b08cd8a0fe2ebcca4b22e1c6dc8b8dfdf1c4af1e66bd51e4d3c7f1d3e041976",
                            "347b85e6a7e1943650a6a8f4e9a356348210375154bc5f6d55d98cb0ef911589"},
        "fig5.csv": {"9b08cd8a0fe2ebcca4b22e1c6dc8b8dfdf1c4af1e66bd51e4d3c7f1d3e041976",
                     "347b85e6a7e1943650a6a8f4e9a356348210375154bc5f6d55d98cb0ef911589"},
    }),
    "pulse-sweep-p0": ("pulse-sweep", ("device.p0=0.02",), {
        "pulse_sweep.csv": {"55f1098262e9629a34cc1bae44a6cd4a486e600bb723fe8f5f0fda3e0350c5ac",
                            "eaebad5623239c64d89351819fb9e20bf193a94bca47f313bba424bd286f7cfe"},
        "fig5.csv": {"55f1098262e9629a34cc1bae44a6cd4a486e600bb723fe8f5f0fda3e0350c5ac",
                     "eaebad5623239c64d89351819fb9e20bf193a94bca47f313bba424bd286f7cfe"},
    }),
}


@pytest.mark.parametrize("case", sorted(PINNED_DETECTION_OUTPUTS))
def test_detection_outputs_pinned_at_any_worker_count(tmp_path, case):
    # a byte-level gate for changes that should move no detection output
    _assert_pinned(tmp_path, *PINNED_DETECTION_OUTPUTS[case])
