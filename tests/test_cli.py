import hashlib
import json
import pickle
import warnings
from pathlib import Path

import pytest

from photonlink import cli, link, saturation
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
            ("saturation-sweep", ["sweeps.t_over_tau={values: [2.0]}"], "sweeps.t_over_tau: 2.0: "),
            # t_c/tau below 4 at a swept kappa, or with nothing swept: the keys that set the ratio
            ("saturation-sweep", ["sweeps.kappa_rad_per_s={values: [1e6]}"], "sweeps.kappa_rad_per_s: 1000000.0: "),
            ("saturation-sweep", ["device.alpha_sat=500"], WINDOW_KEYS),
            ("rate-sweep", ["link.saturation=true", "device.kappa_rad_per_s=1e6"], WINDOW_KEYS),
            ("ber-sweep", ["link.saturation=true", "timing.t_c_ns=0.5"], WINDOW_KEYS),
        ],
        ids=["pulse-length-off-nodes", "negative-mean", "window-too-short", "too-few-fit-samples", "t-over-tau-below-4",
             "swept-kappa-window", "alpha-sat-window", "saturated-rate-window", "saturated-ber-window"],
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and err["message"].startswith("device.alpha_sat: "), err["message"]

    def test_numerics_error_exit_code(self, config_file, tmp_path):
        # at kappa t_c = 1e6 the excitation never drops 3 dB within the scan's photon numbers
        code = run_cli(
            "cutoff-fit", "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--set", "sweeps.kappa_t_c={values: [100.0, 1000.0, 10000.0, 1.0e6]}",
        )
        assert code == 4

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

    def test_rate_sweep_draws_nothing(self, config_file, tmp_path):
        # the rate is an exact bracket: no seed or worker count moves it
        tables = []
        for name, seed, workers in (("s5", "5", "1"), ("s6", "6", "1"), ("s6w2", "6", "2")):
            out = tmp_path / name
            assert run_cli(
                "rate-sweep", "--config", str(config_file), "--out", str(out), "--seed", seed, "--workers", workers
            ) == 0
            lines = (out / "rate_sweep" / "rate_sweep.csv").read_text().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            assert [row.pop("seed") for row in rows] == [seed] * 3
            assert all(row["n_symbols"] == "0" and float(row["stderr"]) >= 0.0 for row in rows)
            tables.append(rows)
        assert tables[0] == tables[1] == tables[2]

    def test_rate_sweep_builds_noise_tables_once(self, config_file, tmp_path, monkeypatch):
        # 5 points: one window evaluation for the symbol-0 chain, then one for each
        # point's symbol-1 chain, each building both first-bit tables; a second
        # call in the same process evaluates its own
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
            if workers == "1":
                assert len(built) == 1 + 5, name
            outs.append((out / "rate_sweep" / "rate_sweep.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_saturated_sweep_builds_one_operator(self, config_file, tmp_path, monkeypatch):
        # the dead-time operator is built with the noise kernel, before the pool
        # starts, and every kernel evaluates it; at --workers 2 each task gets a
        # pickled copy of the link config, as in a pool, but in this process
        built = []
        build = saturation.SurvivorOperator.build

        def counted(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        def pickled_map(fn, payloads, workers):
            return [fn(*pickle.loads(pickle.dumps(args))) for args in payloads]

        monkeypatch.setattr(saturation.SurvivorOperator, "build", counted)
        outs = []
        for workers in ("1", "2"):
            if workers == "2":
                monkeypatch.setattr(cli, "_parallel_map", pickled_map)
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
        # a pool task unpickles its own copy of the link config; the noise tables,
        # built before the pool starts, travel with it: 1 + 5 window evaluations
        # (one per chain) for 5 points
        built = []
        window_laws = link._window_laws

        def counted(log_q, n, *window):
            built.append(window)
            return window_laws(log_q, n, *window)

        def pickled_map(fn, payloads, workers):
            return [fn(*pickle.loads(pickle.dumps(args))) for args in payloads]

        monkeypatch.setattr(link, "_window_laws", counted)
        monkeypatch.setattr(cli, "_parallel_map", pickled_map)
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
# sha256 of each file, recorded at version 0.5.1.  A version meant to move one
# updates its digest and says so in CHANGES.md.  The rate columns print every
# digit of sums of np.exp and np.log2, whose AVX-512 kernels round some last
# bits differently from numpy's baseline ones: those files have a digest for
# each (checked by turning the AVX-512 kernels off with NPY_DISABLE_CPU_FEATURES).
PINNED_LINK_OUTPUTS = {
    "ber-sweep": (("mc.n_symbols=17500", "link.mode=physical"), {
        "ber_sweep.csv": {"21b53c491a6e9e646e8b6aa42b25bcb31a26fe5388f97899e36e33bf7ba58ec0"},
        "fig9.csv": {"7351c246da87a7b2d87481e56e8f3a80f544ebea61b9265a80fc1f9b7f0f73e3"},
    }),
    "rate-sweep": ((), {
        "rate_sweep.csv": {"d8381ee3d2a1ae8a629233b38d20197f7d4b1a79aabab856229481fc5df2cd33",
                           "16a6c4df78b512f474edbb97bc62d4d3da990e2a55b9a15e192a08a73d3dfd0b"},
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


# The overrides of the sat-cutoff benchmark workload (perfbench/workloads.py).
SAT_CUTOFF_SETS = (
    "sweeps.kappa_t_c={values: [100.0, 316.22776601683796, 1000.0, 3162.2776601683795, 10000.0]}",
    "cutoff.replicas=64",
)
# sha256 of the saturation outputs and of the saturated link outputs on
# configs/default.yaml at seed 7, recorded at version 0.5.1 like the link pins.
# fit.json, fig15.csv and the saturation-sweep files print values that pass
# through numpy's vectorised exp and log, so they also have a digest for
# numpy's baseline kernels (NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4").
PINNED_SATURATION_OUTPUTS = {
    "cutoff-fit": (SAT_CUTOFF_SETS, {
        "cutoff_table.csv": {"7a2efb0df4383833cf0c1d511ae81f8196947edec75d61b5cbb18bc3b21c41e3"},
        "fit.json": {"095f23bbbd2649b1b9322ec75d8e5f1a608280bea34ea706f50975ec5b2da468",
                     "b01e2fe7f2465441406c6b3086e04e471def0b01ede9b3efc3a3f3be7f3c55ff"},
        "fig13.csv": {"778789de6122f235c3301b777c79dcda41a29b174b6d2922305b783ee7b0a84a"},
        "fig15.csv": {"ce75ecff9ef5593482be35684efbc3c807ba988b8a6086c873dca04d274e4889",
                      "d74d5b8186833cc1a34d7a74618ddda1d0e17d0397d3d583012cfa990d8f2f85"},
    }),
    "saturation-sweep": ((), {
        "saturation_excitation.csv": {"b3c44faf0a476714386918dd49389abe93a827b1229ea229bc260e6fed483991",
                                      "2a330896039b66b7dda9594eb415bd49fed4ba45c1f761f33e70a6bbcbe62d02"},
        "survivors.csv": {"008074f4c188fe3c7c7c04aeb5d707886caf72b0721910dbde0961226750fd03",
                          "a86f57d9668fe814b19b88f52af25fea97cd31a406b64776bf74291e3d0445fe"},
        "delta_lambda.csv": {"6c8bbcb59e44802cfa6702f737e54826acc5deaf83189d0747fc79196868e725",
                             "668a5ed096b12c23e229c7486b2bf89463448a44262725f75d2912cbe76edae0"},
        "fig8.csv": {"6c8bbcb59e44802cfa6702f737e54826acc5deaf83189d0747fc79196868e725",
                     "668a5ed096b12c23e229c7486b2bf89463448a44262725f75d2912cbe76edae0"},
        "fig11.csv": {"403a92c77ea56f0e31dc2b3e8a08e14f763d2ea22e443a3d216cbc3d6eac9016",
                      "55d3aea534a9bf2ae322f92cd84f3c7114023f5cf463d5f244dc9570475e51ce"},
        "fig12.csv": {"3b84e3ea4a69b60a5baacc3a9d69474beaa9e3263bf25ef7674a7b43fb6e7d84",
                      "d87627dc217f047d9db254fab8b448d91a5876c283913708b16c9f8192c1c1cb"},
    }),
    "ber-sweep": (LINK_BENCH_SETS + ("link.saturation=true", "mc.n_symbols=17500", "link.mode=physical"), {
        "ber_sweep.csv": {"dcb01b74ed931cd8eedfbaba9ad174700863c2230d7f9134cfc8109ae38de297"},
        "fig9.csv": {"a7ce31c58649be60084ef98e79d8d53ce3890a8a74c6480a7028230d7f9dae99"},
    }),
    "rate-sweep": (LINK_BENCH_SETS + ("link.saturation=true",), {
        "rate_sweep.csv": {"87f60134a254b124ddb16ce5745ddf4076975756d843b4c5cb59ff8f0da415b7"},
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
# version 0.5.1 like the link pins.  The second miss sweep adds dark-count flips
# and a 2 x 2 (kappa, gamma) grid, so that the p0 flip and the grouping of the
# rates by (kappa, gamma) are pinned too; the pulse sweep's efficiency is pinned
# with and without the flip.  The miss and pulse sweeps go through numpy's
# vectorised exp, so they also have a digest for numpy's baseline kernels.
PINNED_DETECTION_OUTPUTS = {
    "detect": ("detect", (), {
        "detect.csv": {"badfa4bfc821310817b9d161047b5d2cfe467bd5142919bc04ba26fd5e162e8e"},
    }),
    "miss-sweep": ("miss-sweep", DETECT_MISS_SETS, {
        "miss_sweep.csv": {"712c2a626b4bf8fea124b18667f7731b0d550f58fa29b537149294118e19e697",
                           "0ce0750dc39f6f095089322402b11dbe91e4b2c5b4a3a70622d531f11673b1ef"},
        "fig6.csv": {"6fcf800efced6014ab059efd27ffa669e084e49c952df986aed9e56de32ef548",
                     "a9be139331e48b52f16483bf31227eca29ae1ef1663c84017d29db356e3e49ff"},
    }),
    "miss-sweep-p0-grid": ("miss-sweep", DETECT_MISS_SETS + (
        "device.p0=0.02",
        "sweeps.kappa_rad_per_s={values: [2pi*1e9, 2pi*2e8]}",
        "sweeps.gamma_rad_per_s={values: [2pi*1e5, 2pi*3e6]}",
    ), {
        "miss_sweep.csv": {"677223d1253809840b210683e5b5dbfa278da1769dae569c7e2ab58ed8e37d9a",
                           "bc9f41b77dd7111c0f44523c7650d5e5c4c14c7d6f8f783c463c0abeeef9d0d6"},
        "fig6.csv": {"45c98fd0623f3db1d0a6ffeb4c48052d1515059aeb208a2a03cc84ff434f2d01",
                     "2d5663534d1f469f0c2a60f1e5e3a300a18df9bfa8721540f298b6daeb7b8caa"},
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
