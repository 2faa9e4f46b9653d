"""The batch commands run without scipy, the oracle battery and, at one
worker, concurrent.futures; cutoff-fit and pulse-sweep never load it.
ber-sweep and rate-sweep run their points on threads at more workers,
so no command loads multiprocessing.  Only the oracles load scipy.
Each command loads only the photonlink modules it runs, and none loads
detection, the module of the oracles of physics, link and saturation.
`import photonlink` alone loads no submodule and not numpy.

Each of those cases starts a fresh interpreter, since the pytest process
has already imported scipy through other test modules.  The source of
the package is read as well: only validate imports detection, and no
module that a batch command loads imports scipy.  A profiled run of
every batch command shows that physics, link and saturation define only
what those commands run, apart from a listed few that the benchmark
tracer wraps or that the battery gates, and validate holds only the
battery.  The last test checks that every module exports what its
__all__ lists.
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
TESTS = Path(__file__).resolve().parent
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
import photonlink
root = photonlink_modules() + sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
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
                  "root": root, "imported": imported, "loaded": photonlink_modules()}))
"""


def _fresh(script: str, arg) -> tuple:
    """The JSON that script prints last, run in a fresh interpreter with the JSON of arg as argv[1], and its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(arg)], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _run_fresh(commands, out: Path, workers: str = "1") -> dict:
    got, stderr = _fresh(SCRIPT, [commands, str(DEFAULT_YAML), str(out), SMALL, workers])
    return dict(got, stderr=stderr)


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
    assert got["root"] == []  # `import photonlink` alone loads no submodule and not numpy
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


def test_batch_modules_import_no_scipy():
    # every module but the two that no batch command loads (LOADS)
    assert {name for name, imported in SOURCES.items() if "scipy" in imported} <= {"detection", "validate"}


def test_validate_holds_only_the_battery():
    # every oracle route lives in detection, once: validate's top-level functions are private, checks or inputs
    # that they share with the tests, and the tests take nothing else from it, by import or by attribute
    tree = ast.parse((SRC / "photonlink" / "validate.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    for path in sorted(TESTS.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imports = [(node.module, a) for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names]
        names.update(a.name for module, a in imports if module == "photonlink.validate")
        aliases = {a.asname or a.name for module, a in imports if module == "photonlink" and a.name == "validate"}
        names.update(node.attr for node in nodes
                     if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases)
    assert "NAMES" in names  # the walk sees what the tests take
    api = {"run_checks", "shaped_pulse", "cutoff_law", "CHECKS", "NAMES", "CheckResult"}
    assert sorted(n for n in names if n not in api and not n.startswith(("check_", "REF_"))) == []


# the functions of the batch modules that no batch command runs, each with why it stays
UNREACHED = {
    "physics.CycleTiming.t_obs": "the observation instant of the Monte Carlo oracles",
    "physics.PulseProfile.density": "the integrand of the quadrature oracles of single_photon_excitation",
    "physics.excited_kernel": "a closed form that the renewal DP in detection builds on",
    "physics.ground_return_prob": "a closed form that the renewal DP in detection builds on",
    "physics.transition_kernels": "a closed form that the renewal DP in detection builds on",
    "physics._poisson_sorted_arrivals": "Monte Carlo arrivals of saturated_excitation, which cannot load detection",
    "physics.detector_events": "the event loop of saturated_excitation, which cannot load detection",
    "link.forward_loglik": "the benchmark tracer wraps it here",
    "link.forward_loglik.weights": "runs inside forward_loglik",
    "link.conditional_forward_loglik": "the benchmark tracer wraps it here",
    "link.conditional_forward_loglik.weights": "runs inside conditional_forward_loglik",
    "link._level_forward": "the recursion of the two forward routes",
    "link._unit_sum": "the rescale of _level_forward",
    "link.mutual_information": "the benchmark tracer wraps it here",
    "saturation.survivor_mask": "the benchmark tracer wraps it here",
    "saturation._pack_rows": "runs inside saturated_excitation",
    "saturation.saturated_excitation": "the benchmark tracer wraps it here",
    "saturation.cutoff_photon_number": "the benchmark tracer wraps it here",
    "saturation.survivor_moments_given_count": "the paper's fixed-count survivor theorem, which trivial-identities, "
                                               "survivor-moments-vs-mc and pair-survival-pieces gate",
    "saturation.survivor_moments_given_count.g": "runs inside survivor_moments_given_count",
    "saturation.find_lambda0": "the sub-/super-Poisson crossover, where delta-sign-structure splits its grid",
}

# the batch command runs that cover every production route: (command, --set items ...) on top of SMALL
REACH_RUNS = [
    ("detect",),
    ("miss-sweep",),
    ("saturation-sweep",),
    ("cutoff-fit",),
    ("ber-sweep", "workers=2", "link.dump_frames=true"),
    ("ber-sweep", "link.mode=hmm", "link.saturation=true"),
    ("rate-sweep",),
    ("rate-sweep", "link.saturation=true"),
    ("pulse-sweep",),
    ("pulse-sweep", "pulse.shape=gaussian"),
    ("pulse-sweep", "pulse.shape=tabulated", "pulse.nodes=[[-5.0, 1.0], [5.0, 2.0]]"),
]


def _functions(path: Path) -> dict:
    """Every function that a source file defines, methods and nested ones too: dotted name -> (name, first line).

    The first line is that of the first decorator, or of the def when there is none: co_firstlineno on 3.10 and 3.11.
    """
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[prefix + child.name] = (child.name, min([child.lineno] + [d.lineno for d in child.decorator_list]))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


# profiles REACH_RUNS in a fresh interpreter, so that no cache filled by an earlier test hides a call,
# and prints (module, name, first line) of each function of physics, link and saturation that ran on any thread
REACH_SCRIPT = """
import json, sys, threading
from photonlink import cli
runs, config, out, small = json.loads(sys.argv[1])
codes = set()
def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(profile)
threading.setprofile(profile)
for i, (command, *sets) in enumerate(runs):
    argv = [command, "--config", config, "--out", f"{out}/{i}"]
    for item in small + sets:
        argv += ["--set", item]
    assert cli.main(argv) == 0, argv
sys.setprofile(None)
threading.setprofile(None)
files = {sys.modules[f"photonlink.{m}"].__file__: m for m in ("physics", "link", "saturation")}
print(json.dumps([[files[c.co_filename], c.co_name, c.co_firstlineno] for c in codes if c.co_filename in files]))
"""


def test_batch_modules_hold_only_what_batch_commands_reach(tmp_path):
    defined = {}
    for module in ("physics", "link", "saturation"):
        for dotted, (name, line) in _functions(SRC / "photonlink" / f"{module}.py").items():
            defined[f"{module}.{dotted}"] = (module, name, line)
    assert sorted(UNREACHED.keys() - defined.keys()) == []  # an entry must name a function
    got, _ = _fresh(REACH_SCRIPT, [REACH_RUNS, str(DEFAULT_YAML), str(tmp_path), SMALL])
    reached = {tuple(site) for site in got}
    unreached = {key for key, site in defined.items() if site not in reached}
    assert sorted(unreached - UNREACHED.keys()) == []  # the oracles belong in detection
    assert sorted(UNREACHED.keys() - unreached) == []  # a batch command now runs these


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(photonlink.__path__)))
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from photonlink.<module> import *`
    module = importlib.import_module(f"photonlink.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
