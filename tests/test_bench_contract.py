"""The benchmark's tracer (perfbench/tracing.py) wraps package names from
outside the package.  These tests load it by path, so a rename that would
break a traced benchmark run fails the suite instead."""
import importlib.util
from pathlib import Path

import numpy as np

from photonlink import detection, link
from photonlink.physics import CycleTiming, DeviceParams, Environment, miss_probability_sweep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_enters_and_restores():
    tracing = _tracing()
    before = detection.__dict__["excitation_given_count"]
    with tracing.instrument(tracing.Tracer()):
        assert detection.excitation_given_count is not before
    assert detection.__dict__["excitation_given_count"] is before


def test_miss_sweep_runs_no_renewal_dp():
    tracing = _tracing()
    tracer = tracing.Tracer()
    timing = CycleTiming(230e-9, 35e-9, 48e-9)
    dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5)
    with tracing.instrument(tracer):
        miss_probability_sweep([m / timing.t_c for m in (0.1, 1.0, 10.0)], timing, dev)
    metrics = tracing.layer_metrics(tracer)
    for name in ("detection.excitation_given_count.calls", "detection.dp_traces", "physics.kernel.elems"):
        assert metrics[name] == 0.0


def _ref_link_cfg(n: int) -> link.LinkConfig:
    timing = CycleTiming(230e-9, 35e-9, 48e-9)
    dev = DeviceParams(kappa=2 * np.pi * 1e9, gamma=2 * np.pi * 1e5)
    return link.LinkConfig(dev=dev, timing=timing, env=Environment(t_e=8.0, nu=1e10, cycles_per_symbol=n))


def test_link_spans_and_symbol_count():
    # the link scans must stay behind the names the tracer wraps; the Monte
    # Carlo rate, now the oracle of the exact one, runs the forward recursions
    tracing = _tracing()
    tracer = tracing.Tracer()
    cfg = _ref_link_cfg(8)
    with tracing.instrument(tracer):
        detection.mc_rate(cfg.build_spec(-150.0), 300, seed=3, idx=0)
        link.ber_point(cfg, -150.0, 300, seed=3, idx=1)
    metrics = tracing.layer_metrics(tracer)
    for name in ("simulate_link", "viterbi_decode", "forward_loglik", "conditional_forward_loglik",
                 "mutual_information"):
        assert metrics[f"link.{name}.s"] > 0.0, name
    assert metrics["link.symbols"] == 600


def test_rate_point_runs_no_simulation():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        link.rate_point(_ref_link_cfg(800), -150.0)
    names = {span[1] for span in tracer.spans}
    assert "link.build_spec" in names
    assert not names & {"link.simulate_link", "link.forward_loglik", "link.conditional_forward_loglik",
                        "link.mutual_information"}
