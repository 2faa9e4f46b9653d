"""Benchmark processes: a cold start, or the workload process.

    python3 worker.py setup SPEC.json
    python3 worker.py run SPEC.json

`setup` imports photonlink.cli and loads and validates one workload
config, then records the time since SPEC's `spawned_at`, the parent's
CLOCK_MONOTONIC reading just before it started this process, and times
`reference()` REF_MIN_UNITS times right after.

`run` makes one `cli.main` call after another, each with its own config
seed and output directory, until the next call would pass SPEC's
`deadline` (at least one call, at most MAX_REPS).  Before the first call
and after each one it times `reference()` for REF_SHARE of the call's
time, so every call is flanked by the host speed of its moment.  With
`trace` set each call is made twice on the same inputs, untraced and then
with the layer wrappers installed.  Either mode writes its figures to
SPEC's `result`.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_seed

MAX_REPS = 50
REF_SHARE = 0.25
REF_MIN_UNITS = 3
# reference() time on a quiet host (2-vCPU Xeon VM at 2.1 GHz); setup_s is
# given in seconds at this speed
REF_NOMINAL_S = 0.0085


def _import_photonlink(src: str):
    sys.path.insert(0, src)
    import photonlink
    from photonlink import cli

    if Path(photonlink.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"photonlink imported from {photonlink.__file__}, not from {src}")
    return cli


def _load_config(cli, argv: list[str]):
    """Load and validate the config as the CLI does, through public names."""
    import yaml
    from photonlink.config import ExperimentConfig, apply_overrides

    args = cli.build_parser().parse_args(argv)
    raw = yaml.safe_load(Path(args.config).read_text(encoding="utf-8")) or {}
    raw = apply_overrides(raw, args.overrides)
    raw.update(seed=args.seed, workers=args.workers, output_dir=args.out)
    return ExperimentConfig.from_dict(raw)


def setup(spec: dict) -> dict:
    cli = _import_photonlink(spec["src"])
    _load_config(cli, spec["argv"])
    setup_s = time.monotonic() - spec["spawned_at"]
    return {"setup_s": setup_s, "ref_s": _reference_block(0.0)}


def reference() -> float:
    """Seconds taken by a fixed mix of numpy array work and a Python loop.

    It touches no photonlink code, so no change to the package moves it;
    only the host's speed does.  It is the unit of `wall_ref`, and
    `setup_s` is scaled by REF_NOMINAL_S over it.
    """
    import numpy

    t0 = time.perf_counter()
    rng = numpy.random.default_rng(0)
    for _ in range(4):
        a = rng.standard_normal(40_000)
        a.sort()
        numpy.cumsum(numpy.exp(a))
        numpy.maximum.accumulate(a)
    total = 0
    for i in range(75_000):
        total += i * i
    return time.perf_counter() - t0


def _reference_block(seconds: float) -> float:
    """Median of reference() repeated for `seconds`, and at least REF_MIN_UNITS times."""
    units, end = [], time.perf_counter() + seconds
    while len(units) < REF_MIN_UNITS or time.perf_counter() < end:
        units.append(reference())
    return statistics.median(units)


def _timed_call(main, argv: list[str]) -> tuple[int, float, float]:
    """Return code, wall seconds and CPU seconds of one call."""
    c0, t0 = time.process_time(), time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - t0, time.process_time() - c0


def run(spec: dict) -> dict:
    cli = _import_photonlink(spec["src"])
    import numpy
    import scipy

    import photonlink

    workload = WORKLOADS[spec["workload"]]
    root, tmp = Path(spec["root"]), Path(spec["tmp"])
    reps, durations, spans = [], [], None
    ref_before = _reference_block(0.0)
    for k in range(MAX_REPS):
        start = time.monotonic()
        seed = config_seed(spec["seed"], k)
        rc, wall, cpu = _timed_call(cli.main, workload.argv(root, tmp / f"rep{k}-plain", seed, spec["tiny"]))
        ref_after = _reference_block(REF_SHARE * wall)
        rep = {"k": k, "config_seed": seed, "rc": rc, "wall_s": wall, "cpu_s": cpu,
               "ref_s": (ref_before + ref_after) / 2}
        ref_before = ref_after
        if spec["trace"]:
            from tracing import Tracer, instrument, layer_metrics

            tracer = Tracer()
            argv = workload.argv(root, tmp / f"rep{k}-traced", seed, spec["tiny"])
            with instrument(tracer):
                rc_t, wall_t, _ = _timed_call(tracer.wrap("cli.main", cli.main), argv)
            rep.update(rc_traced=rc_t, traced_wall_s=wall_t, layers=layer_metrics(tracer))
            spans = tracer.spans
        reps.append(rep)
        durations.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(durations) > spec["deadline"]:
            break
    return {
        "reps": reps,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "photonlink": photonlink.__version__,
        },
    }


if __name__ == "__main__":
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {"setup": setup, "run": run}[mode](spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
