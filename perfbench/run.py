"""photonlink benchmark: one pinned batch workload per run, closed loop, one client.

    python3 perfbench/run.py --workload link-ber --seed 1 --seconds 30 --trace 0

A run first makes SETUP_STARTS cold starts, each a fresh interpreter that
imports photonlink.cli and loads the workload's config.  Then one
workload process makes `cli.main` calls one after another (the next call
starts when the previous one has returned) until the next one would pass
--seconds.  Call k of a run with --seed n uses config seed 1000*n + 10*k.

--trace 0 prints the end-to-end metrics: the median cold start, the
median call, and the workload process's peak memory.  The shared host
slows identical work by up to a half for spells from a fraction of a
second to minutes, so times are taken relative to the reference
computation of worker.py, timed in the same process at the same moment:
a call in units of it (`wall_ref`), and a cold start in seconds at the
reference's nominal speed (`setup_s`).  The reference slows with the host
and cancels about half of its variation.  --trace 1 makes
each call twice on the same inputs, untraced and then through the layer
wrappers of tracing.py, and prints the per-layer metrics (medians over the
traced calls) and the tracing overhead.  Every call's outputs are
checked; `attempted`/`failed` count the checks.  The last stdout line is
the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS
from worker import REF_NOMINAL_S
from workloads import WORKLOADS, config_seed

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_STARTS = 5
RUN_LIMIT_S = 170.0  # a process still running this long after the run began is killed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha(root: Path):
    """Commit of the checkout, read from .git without leaving it; None outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Run:
    """The processes of one run, sharing a scratch directory inside the checkout."""

    def __init__(self, args, tmp: Path):
        self.w = WORKLOADS[args.workload]
        self.seed = args.seed
        self.tiny = args.size == "tiny"
        self.tmp = tmp
        self.t0 = time.monotonic()
        self.deadline = self.t0 + args.seconds
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, tag: str, spec: dict):
        """Run worker.py in `mode`; returns its result dict, or None if it failed."""
        spec_path = self.tmp / f"{tag}.spec.json"
        spec.update(src=str(ROOT / "src"), result=str(self.tmp / f"{tag}.result.json"))
        spec["spawned_at"] = time.monotonic()
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = RUN_LIMIT_S - (time.monotonic() - self.t0)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)], env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"{tag}: killed after {timeout:.0f} s\n")
            return None
        if proc.returncode != 0:
            sys.stderr.write(f"{tag}: worker exited {proc.returncode}\n{proc.stderr}")
            return None
        return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))

    def cold_starts(self) -> list:
        argv = self.w.argv(ROOT, self.tmp / "setup", config_seed(self.seed, 0), self.tiny)
        return [self.spawn("setup", f"setup{i}", {"argv": argv}) for i in range(SETUP_STARTS)]

    def workload(self, trace: bool):
        return self.spawn("run", "run", {
            "root": str(ROOT), "tmp": str(self.tmp), "workload": self.w.name, "seed": self.seed,
            "tiny": self.tiny, "trace": trace, "deadline": self.deadline,
        })

    def check(self, out: Path, rc) -> None:
        """Check one call's outputs; a failed call fails every check of the workload."""
        checks = []
        if rc == 0:
            try:
                checks = self.w.check(out)
            except (OSError, KeyError, ValueError) as exc:
                sys.stderr.write(f"{out.name}: unreadable output: {exc!r}\n")
        failed = [name for name, ok in checks if not ok]
        failed += ["missing check"] * max(self.w.n_checks - len(checks), 0)
        for name in failed:
            sys.stderr.write(f"{out.name}: check failed: {name}\n")
        self.attempted += max(self.w.n_checks, len(checks))
        self.failed += len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-check sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "photonlink" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "default.yaml").is_file():
        sys.stderr.write(f"no photonlink sources under {ROOT}: need src/photonlink and configs/\n")
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        run = Run(args, tmp)
        setups = [] if args.trace else [s for s in run.cold_starts() if s]
        result = run.workload(bool(args.trace))
        reps = result["reps"] if result else []
        for rep in reps:
            run.check(tmp / f"rep{rep['k']}-plain", rep["rc"])
            if args.trace:
                run.check(tmp / f"rep{rep['k']}-traced", rep["rc_traced"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not reps or not (args.trace or setups):
        sys.stderr.write("the workload process did not finish; no metrics to report\n")
        return 1

    workload = run.w
    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in reps)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(r["traced_wall_s"] - r["wall_s"] for r in reps)
        units = PER_LAYER_UNITS
        spans_dir = ROOT / ".perfbench-traces"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"{workload.name}-seed{args.seed}.json").write_text(
            json.dumps({"spans": result["spans"]}), encoding="utf-8")
    else:
        metrics = {
            "setup_s": REF_NOMINAL_S * statistics.median(s["setup_s"] / s["ref_s"] for s in setups),
            "wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in reps),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    provenance = {
        "workload": workload.name,
        "command": workload.command,
        "overrides": workload.sets(run.tiny),
        "size": args.size,
        "seed": args.seed,
        "config_seeds": [r["config_seed"] for r in reps],
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "versions": result["versions"],
        "threads": {var: "1" for var in THREAD_VARS},
        "setup_s": [s["setup_s"] for s in setups],
        "setup_ref_s": [s["ref_s"] for s in setups],
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "ref_s": [r["ref_s"] for r in reps],
    }
    print(json.dumps({"provenance": provenance}))
    for name, value in metrics.items():
        print(f"{workload.name}  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{workload.name}  measured: median cold start "
              f"{statistics.median(provenance['setup_s']):.6g} s, median call "
              f"{statistics.median(provenance['wall_s']):.6g} s (not gated)")
    print(f"{workload.name}  failed_frac = {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} checks)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
