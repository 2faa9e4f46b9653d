import json
from pathlib import Path

import pytest

from photonlink.cli import main
from photonlink.figures import emit_figure_data
from photonlink.errors import ConfigError
from photonlink.report import SweepReport

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
        assert run_cli("saturation-sweep", "--config", str(config_file), "--out", str(out)) == 0
        surv = (out / "saturation_sweep" / "survivors.csv").read_text().splitlines()
        assert surv[0] == "lambda,tau,t_c,mean,var,delta,regime"
        assert len(surv) == 1 + 2 * 6
        fig8 = (out / "saturation_sweep" / "fig8.csv").read_text().splitlines()
        assert fig8[0] == "t_over_tau,lambda_tau,delta"
        for name in ("fig11.csv", "fig12.csv"):
            assert (out / "saturation_sweep" / name).exists()

    def test_cutoff_fit(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "cutoff-fit", "--config", str(config_file), "--out", str(out),
            "--set", "cutoff.replicas=64",
            "--set", "cutoff.points_per_decade=8",
            "--set", "cutoff.coarse_points_per_decade=3",
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

    def test_numerics_error_exit_code(self, config_file, tmp_path):
        # a sweep that never saturates: tiny ceiling on the mean photon number
        code = run_cli(
            "cutoff-fit", "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--set", "cutoff.span_decades=0.7",
            "--set", "cutoff.coarse_points_per_decade=4",
        )
        assert code == 4


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
        rows = (out / "saturation_sweep" / "saturation_excitation.csv").read_text().splitlines()
        header = rows[0].split(",")
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["stderr"]) == 0.0 and int(row["replicas"]) == 0

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
    def test_unknown_figure(self):
        rep = SweepReport(columns=("x",))
        rep.append(x=1.0)
        with pytest.raises(ConfigError):
            emit_figure_data(rep, "fig99")

    def test_empty_report(self):
        rep = SweepReport(columns=("t_over_tau", "lambda_tau", "delta"))
        with pytest.raises(ConfigError):
            emit_figure_data(rep, "fig8")

    def test_missing_columns(self):
        rep = SweepReport(columns=("x",))
        rep.append(x=1.0)
        with pytest.raises(ConfigError):
            emit_figure_data(rep, "fig8")

    def test_fig8_schema(self):
        rep = SweepReport(columns=("t_over_tau", "lambda_tau", "delta"))
        rep.append(t_over_tau=4.0, lambda_tau=0.1, delta=0.007)
        out = emit_figure_data(rep, "fig8")
        assert out.to_csv_text().splitlines()[0] == "t_over_tau,lambda_tau,delta"

    def test_cutoff_table_feeds_fig13(self):
        rep = SweepReport(columns=("kappa", "t_c", "gamma", "kappa_tc", "n_cutoff"))
        rep.append(kappa=1e9, t_c=230e-9, gamma=0.0, kappa_tc=230.0, n_cutoff=700.0)
        f13 = emit_figure_data(rep, "fig13")
        assert list(f13.columns) == ["kappa", "t_c", "kappa_tc", "n_cutoff"]
        # cutoff-fit pins gamma = 0, so no command can fill a cutoff-versus-gamma figure
        with pytest.raises(ConfigError):
            emit_figure_data(rep, "fig14")


def test_saturation_barely_moves_the_rate(tmp_path):
    # at weak received power the dead-time filter costs almost nothing; a
    # noisy saturated kernel once read 0.18 bits below the unsaturated rate
    default = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    rates = {}
    for flag in ("false", "true"):
        out = tmp_path / flag
        assert run_cli(
            "rate-sweep", "--config", str(default), "--out", str(out),
            "--set", "mc.n_symbols=20000", "--set", f"link.saturation={flag}",
        ) == 0
        lines = (out / "rate_sweep" / "rate_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rates[flag] = [float(dict(zip(header, line.split(",")))["rate"]) for line in lines[1:]]
    gaps = [abs(a - b) for a, b in zip(rates["true"], rates["false"])]
    assert len(gaps) == 10 and max(gaps) < 0.01, gaps
