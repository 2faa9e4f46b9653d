"""The batch commands run without scipy, the oracle battery and, at one
worker, concurrent.futures; cutoff-fit and pulse-sweep never load it.
ber-sweep and rate-sweep run their points on threads at more workers,
so no command loads multiprocessing.  Only the oracles load scipy.
Each command loads only the photonlink modules it runs, and none loads
detection, the module of the unsaturated detector's oracles.

Each of those cases starts a fresh interpreter, since the pytest process
has already imported scipy through other test modules.  The source of
the package is read as well: only validate imports detection, and the
closed forms of physics import no scipy.  The last test checks that
every module exports what its __all__ lists.
"""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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
]

# the photonlink modules each batch command loads beyond those of `import photonlink.cli`;
# link imports saturation at module level
LOADS = {
    "detect": set(),
    "pulse-sweep": set(),
    "miss-sweep": set(),
    "ber-sweep": {"link", "saturation"},
    "rate-sweep": {"link", "saturation"},
    "saturation-sweep": {"saturation"},
    "cutoff-fit": {"saturation"},
}

SCRIPT = """
import json, sys
def photonlink_modules():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("photonlink."))
from photonlink import cli
imported = photonlink_modules()
commands, config, out, sets, workers = json.loads(sys.argv[1])
codes = {}
for command in commands:
    argv = [command, "--config", config, "--out", out, "--workers", workers]
    for item in sets:
        argv += ["--set", item]
    codes[command] = cli.main(argv)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy, "futures": "concurrent.futures" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules,
                  "imported": imported, "loaded": photonlink_modules()}))
"""


def _run_fresh(commands, out: Path, workers: str = "1") -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    arg = json.dumps([commands, str(DEFAULT_YAML), str(out), SMALL, workers])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, arg], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(proc.stdout.splitlines()[-1]), stderr=proc.stderr)


def test_batch_commands_never_load_scipy(tmp_path):
    commands = list(LOADS)
    got = _run_fresh(commands, tmp_path / "out")
    assert got["codes"] == {c: 0 for c in commands}, got["stderr"]
    assert got["scipy"] == []
    assert not got["futures"]  # the thread pool is imported only for --workers > 1
    assert "validate" not in got["loaded"]  # the oracle battery is imported only by the validate command


def test_exact_sweeps_never_start_a_pool(tmp_path):
    # cutoff-fit and pulse-sweep evaluate every point in this process, whatever --workers is
    commands = ["cutoff-fit", "pulse-sweep"]
    outputs = []
    for workers in ("1", "4"):
        got = _run_fresh(commands, tmp_path / workers, workers)
        assert got["codes"] == {c: 0 for c in commands}, got["stderr"]
        assert not got["futures"]
        # the manifests record wall times
        outputs.append({p.relative_to(tmp_path / workers): p.read_bytes()
                        for p in (tmp_path / workers).rglob("*.*") if p.name != "manifest.json"})
    assert len(outputs[0]) == 4 + 2 and outputs[0] == outputs[1]


def test_threaded_sweeps_never_load_multiprocessing(tmp_path):
    # ber-sweep and rate-sweep run their points on threads: the same bytes as at one worker
    commands = ["ber-sweep", "rate-sweep"]
    outputs = []
    for workers in ("1", "2"):
        got = _run_fresh(commands, tmp_path / workers, workers)
        assert got["codes"] == {c: 0 for c in commands}, got["stderr"]
        assert not got["multiprocessing"]
        outputs.append({p.relative_to(tmp_path / workers): p.read_bytes()
                        for p in (tmp_path / workers).rglob("*.csv")})
    assert len(outputs[0]) == 2 * 2 and outputs[0] == outputs[1]


def test_cli_import_loads_no_command_module(tmp_path):
    got = _run_fresh([], tmp_path / "out")
    assert {"detection", "link", "saturation", "validate"}.isdisjoint(got["imported"])


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_its_modules(command, tmp_path):
    got = _run_fresh([command], tmp_path / "out")
    assert got["codes"] == {command: 0}, got["stderr"]
    assert set(got["loaded"]) - set(got["imported"]) == LOADS[command]


def _imports(path: Path) -> set:
    """The top-level names of the modules a source file imports anywhere, photonlink's own without the prefix."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # from . import x, from .x import y, from photonlink import x
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {n.removeprefix("photonlink.").lstrip(".").split(".")[0] for n in names} - {""}


SOURCES = {p.stem: _imports(p) for p in sorted(Path(photonlink.__file__).parent.glob("*.py"))}


def test_only_validate_imports_detection():
    assert [name for name, imported in SOURCES.items() if "detection" in imported] == ["validate"]


def test_physics_imports_no_scipy():
    assert "scipy" not in SOURCES["physics"]


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(photonlink.__path__)))
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from photonlink.<module> import *`
    module = importlib.import_module(f"photonlink.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
