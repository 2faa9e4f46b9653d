"""The batch commands run without scipy, and without multiprocessing at one
worker; only the quadrature routes load scipy.

Each case starts a fresh interpreter, since the pytest process has
already imported scipy through other test modules.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import photonlink

SRC = Path(photonlink.__file__).resolve().parents[1]
DEFAULT_YAML = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"

SMALL = [
    "mc.mc_samples=2000",
    "mc.n_symbols=1000",
    "environment.cycles_per_symbol=16",
    "sweeps.power_dbm={start: -150.0, stop: -146.0, points: 2, scale: linear}",
    "sweeps.mean_photons={start: 0.1, stop: 2.0, points: 3, scale: log}",
    "sweeps.pulse_length_ns={start: 10.0, stop: 10000.0, points: 3, scale: log}",
    "sweeps.kappa_t_c={values: [100.0, 300.0, 1000.0, 3000.0, 10000.0]}",
    "sweeps.lambda_tau={start: 0.01, stop: 10.0, points: 4, scale: log}",
    "sweeps.t_over_tau={values: [4.0]}",
    "cutoff.replicas=32",
    "cutoff.points_per_decade=8",
    "cutoff.coarse_points_per_decade=3",
]

SCRIPT = """
import json, sys
from photonlink import cli
commands, config, out, sets = json.loads(sys.argv[1])
codes = {}
for command in commands:
    argv = [command, "--config", config, "--out", out, "--workers", "1"]
    for item in sets:
        argv += ["--set", item]
    codes[command] = cli.main(argv)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy, "futures": "concurrent.futures" in sys.modules}))
"""


def _run_fresh(commands, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    arg = json.dumps([commands, str(DEFAULT_YAML), str(out), SMALL])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, arg], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(proc.stdout.splitlines()[-1]), stderr=proc.stderr)


def test_batch_commands_never_load_scipy(tmp_path):
    commands = ["detect", "miss-sweep", "ber-sweep", "rate-sweep", "saturation-sweep", "cutoff-fit"]
    got = _run_fresh(commands, tmp_path / "out")
    assert got["codes"] == {c: 0 for c in commands}, got["stderr"]
    assert got["scipy"] == []
    assert not got["futures"]  # the process pool is imported only for --workers > 1


def test_pulse_sweep_loads_scipy_locally(tmp_path):
    got = _run_fresh(["pulse-sweep"], tmp_path / "out")
    assert got["codes"] == {"pulse-sweep": 0}, got["stderr"]
    assert "scipy.integrate" in got["scipy"]
