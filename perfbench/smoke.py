"""Smoke check of the benchmark itself, at tiny sizes and with no timing gates.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, and asserts that the
result line carries exactly the metrics BENCHMARK.json declares, each
with its unit, and that no output check failed.  Then asserts that the
benchmark refuses to run from a copy holding only BENCHMARK.json and
perfbench/, and that BENCHMARK.json names the workloads of workloads.py
with the same reasons.  Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    whys = {w.name: w.why for w in WORKLOADS.values()}
    if {w["name"]: w["why"] for w in bench["workloads"]} != whys:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in whys:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{tag}: metrics {printed} differ from BENCHMARK.json {declared[trace]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} checks failed\n"
                                f"{proc.stderr}")
            print(f"{tag}: ok, {result['attempted']} checks, {len(printed)} metrics")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without the photonlink sources")
        else:
            print("without sources: refused, as it should")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
