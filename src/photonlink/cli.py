"""Command-line harness: experiment dispatch, deterministic parallel
sweeps, CSV and manifest emission.

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 numeric non-convergence.  Outputs are a pure function of (config,
seed, artifact version), independent of the worker count.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__, detection, figures, link, saturation, validate
from .config import ExperimentConfig, apply_overrides, read_config_file
from .errors import ConfigError, NumericsError
from .physics import (
    DeviceParams,
    detection_prob_single,
    power_to_rate,
    single_photon_excitation,
    thermal_photon_rate,
)
from .report import SweepReport, write_frames
from .rng import substream

COMMANDS = (
    "detect",
    "pulse-sweep",
    "miss-sweep",
    "ber-sweep",
    "rate-sweep",
    "saturation-sweep",
    "cutoff-fit",
    "validate",
)


def _parallel_map(fn, payloads, workers: int) -> list:
    """Order-preserving map; results never depend on the worker count."""
    items = list(payloads)
    if workers <= 1 or len(items) <= 1:
        return [fn(p) for p in items]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only workers > 1 need it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Runner:
    """Writes outputs for one command invocation and records the manifest."""

    def __init__(self, cfg: ExperimentConfig, command: str, out_dir: Path):
        self.cfg = cfg
        self.command = command
        self.dir = out_dir / command.replace("-", "_")
        self.dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[Path] = []
        self.t0 = time.monotonic()

    def write_report(self, report: SweepReport, name: str) -> Path:
        path = report.write_csv(self.dir / name)
        self.outputs.append(path)
        return path

    def write_json(self, payload: dict, name: str) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        self.outputs.append(path)
        return path

    def write_figure(self, report: SweepReport, figure_id: str) -> Path:
        return self.write_report(figures.emit_figure_data(report, figure_id), f"{figure_id}.csv")

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "artifact_version": __version__,
            "config_hash": self.cfg.config_hash(),
            "seed": self.cfg.seed,
            "outputs": {p.name: _sha256(p) for p in sorted(self.outputs)},
            "wall_time_s": round(time.monotonic() - self.t0, 3),
        }
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# command implementations

def cmd_detect(cfg: ExperimentConfig, runner: _Runner) -> int:
    lam_signal = power_to_rate(cfg.detect_power_dbm, cfg.environment.nu)
    n_e = thermal_photon_rate(cfg.environment)
    lam = lam_signal + n_e / cfg.timing.t_c
    report = detection.miss_probability_sweep(
        [(lam, cfg.device.kappa, cfg.device.gamma)], cfg.timing, cfg.device, seed=cfg.seed
    )
    runner.write_report(report, "detect.csv")
    return 0


def _pulse_point(args) -> dict:
    cfg, l, kappa, gamma = args
    dev = dataclasses.replace(cfg.device, kappa=kappa, gamma=gamma)
    pulse = dataclasses.replace(cfg.pulse, l=l)
    p_exc = single_photon_excitation(pulse, pulse.t_i, dev)
    return {
        "l_ns": l * 1e9,
        "kappa": kappa,
        "gamma": gamma,
        "efficiency": detection_prob_single(p_exc, dev),
    }


def cmd_pulse_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    lengths = cfg.axis("pulse_length_ns") * 1e-9
    gammas = cfg.axis("gamma_rad_per_s") if "gamma_rad_per_s" in cfg.sweeps else [cfg.device.gamma]
    payloads = [(cfg, float(l), cfg.device.kappa, float(g)) for g in gammas for l in lengths]
    rows = _parallel_map(_pulse_point, payloads, cfg.workers)
    report = SweepReport(columns=("l_ns", "kappa", "gamma", "efficiency"))
    for row in rows:
        report.append(**row)
    runner.write_report(report, "pulse_sweep.csv")
    runner.write_figure(report, "fig5")
    return 0


def cmd_miss_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    means = cfg.axis("mean_photons")
    kappas = cfg.axis("kappa_rad_per_s") if "kappa_rad_per_s" in cfg.sweeps else [cfg.device.kappa]
    gammas = cfg.axis("gamma_rad_per_s") if "gamma_rad_per_s" in cfg.sweeps else [cfg.device.gamma]
    grid = [
        (mean / cfg.timing.t_c, kappa, gamma)
        for kappa in kappas
        for gamma in gammas
        for mean in means
    ]
    report = detection.miss_probability_sweep(grid, cfg.timing, cfg.device, seed=cfg.seed)
    runner.write_report(report, "miss_sweep.csv")
    runner.write_figure(report, "fig6")
    return 0


def _link_cfg(cfg: ExperimentConfig) -> link.LinkConfig:
    return link.LinkConfig(
        dev=cfg.device,
        timing=cfg.timing,
        env=cfg.environment,
        saturation=cfg.link.saturation,
        burn_in=cfg.link.burn_in,
    )


def _ber_point(args) -> dict:
    lcfg, power, n_symbols, seed, idx, mode = args
    return link.ber_point(lcfg, power, n_symbols, seed, idx, mode)


def _rate_point(args) -> dict:
    lcfg, power, n_symbols, seed, idx, mode = args
    return link.rate_point(lcfg, power, n_symbols, seed, idx, mode)


def cmd_ber_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    lcfg = _link_cfg(cfg)
    powers = cfg.axis("power_dbm")
    payloads = [
        (lcfg, float(p), cfg.mc.n_symbols, cfg.seed, i, cfg.link.mode) for i, p in enumerate(powers)
    ]
    rows = _parallel_map(_ber_point, payloads, cfg.workers)
    report = link._link_report("ber")
    for row in rows:
        report.append(**row)
    runner.write_report(report, "ber_sweep.csv")
    runner.write_figure(report, "fig9")
    if cfg.link.dump_frames:
        spec = lcfg.build_spec(float(powers[0]))
        run = link.simulate_link(
            spec, min(cfg.mc.n_symbols, 1000), substream(cfg.seed, 0xBE, 0, 1),
            mode=cfg.link.mode, store_frames=True,
        )
        path = write_frames(runner.dir / "frames.txt", run.symbols, run.frames)
        runner.outputs.append(path)
    return 0


def cmd_rate_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    lcfg = _link_cfg(cfg)
    powers = cfg.axis("power_dbm")
    payloads = [
        (lcfg, float(p), cfg.mc.n_symbols, cfg.seed, i, "hmm") for i, p in enumerate(powers)
    ]
    rows = _parallel_map(_rate_point, payloads, cfg.workers)
    report = link._link_report("rate")
    for row in rows:
        report.append(**row)
    runner.write_report(report, "rate_sweep.csv")
    runner.write_figure(report, "fig10")
    return 0


def cmd_saturation_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    # survivor statistics and the dispersion gap on normalized axes
    tau = cfg.device.alpha_sat / cfg.device.kappa
    surv = SweepReport(columns=("lambda", "tau", "t_c", "mean", "var", "delta", "regime"))
    delta_fig = SweepReport(columns=("t_over_tau", "lambda_tau", "delta"))
    for ratio in cfg.axis("t_over_tau"):
        t_c = ratio * tau
        for a in cfg.axis("lambda_tau"):
            lam = a / tau
            m = saturation.survivor_moments_poisson(lam, tau, t_c)
            d = saturation.delta_lambda(lam, tau, t_c)
            surv.append(
                **{
                    "lambda": lam, "tau": tau, "t_c": t_c, "mean": m.mean,
                    "var": m.variance, "delta": d, "regime": m.regime,
                }
            )
            delta_fig.append(t_over_tau=float(ratio), lambda_tau=float(a), delta=d)
    runner.write_report(surv, "survivors.csv")
    runner.write_report(delta_fig, "delta_lambda.csv")
    runner.write_figure(delta_fig, "fig8")

    # saturated excitation curves, correct and wrong reset: exact, so the
    # stderr and replicas columns read 0
    means = cfg.axis("mean_photons")
    kappas = cfg.axis("kappa_rad_per_s") if "kappa_rad_per_s" in cfg.sweeps else [cfg.device.kappa]
    exc = SweepReport(
        columns=(
            "mean_photons", "lambda", "kappa", "gamma", "t_c", "reset",
            "excitation", "stderr", "replicas", "seed",
        )
    )
    for enter_excited in (False, True):
        for kappa in kappas:
            dev = dataclasses.replace(cfg.device, kappa=float(kappa))
            values = saturation.survivor_excitation(
                means / cfg.timing.t_c, cfg.timing, dev, enter_excited=enter_excited
            )
            for mean, value in zip(means, values):
                exc.append(
                    mean_photons=float(mean), **{"lambda": float(mean) / cfg.timing.t_c},
                    kappa=float(kappa), gamma=cfg.device.gamma, t_c=cfg.timing.t_c,
                    reset="wrong" if enter_excited else "correct", excitation=float(value),
                    stderr=0.0, replicas=0, seed=cfg.seed,
                )
    runner.write_report(exc, "saturation_excitation.csv")
    runner.write_figure(exc, "fig11")
    runner.write_figure(exc, "fig12")
    return 0


def _cutoff_point(args) -> dict:
    cfg, kappa_tc = args
    t_c = cfg.timing.t_c
    dev = DeviceParams(kappa=kappa_tc / t_c, gamma=0.0, alpha_sat=cfg.device.alpha_sat)
    result = scan_cutoff(
        dev, t_c,
        points_per_decade=cfg.cutoff.points_per_decade,
        coarse_points_per_decade=cfg.cutoff.coarse_points_per_decade,
        span_decades=cfg.cutoff.span_decades,
    )
    return {
        "kappa": dev.kappa,
        "t_c": t_c,
        "gamma": 0.0,
        "kappa_tc": kappa_tc,
        "n_cutoff": result.n_cutoff,
    }


def scan_cutoff(
    dev: DeviceParams,
    t_c: float,
    points_per_decade: int = 40,
    coarse_points_per_decade: int = 4,
    span_decades: float = 7.0,
) -> saturation.CutoffResult:
    """Two-stage cutoff scan: coarse bracket, then a dense grid around it.

    The refined grid spans one decade around the coarse crossing, which
    for this excitation shape always contains the plateau maximum on its
    left edge.
    """
    lo = 0.5
    hi = lo * 10.0**span_decades
    coarse = saturation.cutoff_photon_number(dev, t_c, saturation.log_grid(lo, hi, coarse_points_per_decade))
    center = coarse.n_cutoff
    fine_grid = saturation.log_grid(center / math.sqrt(10.0), center * math.sqrt(10.0), points_per_decade)
    return saturation.cutoff_photon_number(dev, t_c, fine_grid)


def cmd_cutoff_fit(cfg: ExperimentConfig, runner: _Runner) -> int:
    values = cfg.axis("kappa_t_c")
    rows = _parallel_map(_cutoff_point, [(cfg, float(v)) for v in values], cfg.workers)
    table = SweepReport(columns=("kappa", "t_c", "gamma", "kappa_tc", "n_cutoff"))
    for row in rows:
        table.append(**row)
    runner.write_report(table, "cutoff_table.csv")
    runner.write_figure(table, "fig13")
    fit = saturation.fit_cutoff_curve([(r["kappa_tc"], r["n_cutoff"]) for r in rows])
    runner.write_json(
        {
            "a": fit.a, "b": fit.b, "c": fit.c,
            "residual_rms_relative": fit.residual,
            "kappa_tc_range": list(fit.x_range),
        },
        "fit.json",
    )
    fig = SweepReport(columns=("kappa_tc", "n_cutoff", "kind"))
    for row in rows:
        fig.append(kappa_tc=row["kappa_tc"], n_cutoff=row["n_cutoff"], kind="simulated")
    for x in saturation.log_grid(fit.x_range[0], fit.x_range[1], 10):
        fig.append(kappa_tc=float(x), n_cutoff=float(fit.predict(x)), kind="fit")
    runner.write_report(fig, "fig15.csv")
    return 0


def cmd_validate(cfg: ExperimentConfig, runner: _Runner, level: str = "quick") -> int:
    results = validate.run_checks(level=level, seed=cfg.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    runner.write_json(
        {
            "level": level,
            "checks": [dataclasses.asdict(r) for r in results],
            "failures": len(failed),
        },
        "validation.json",
    )
    return 3 if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Three-level microwave photon detector and OOK link simulator.",
    )
    parser.add_argument("--version", action="version", version=f"photonlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment configuration")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-path config override")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override the worker count")
        p.add_argument("--out", default=None, help="output directory")
        if name == "validate":
            p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def _load_config(args) -> ExperimentConfig:
    raw = apply_overrides(read_config_file(args.config), args.overrides)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.out is not None:
        raw["output_dir"] = args.out
    return ExperimentConfig.from_dict(raw)


_DISPATCH = {
    "detect": cmd_detect,
    "pulse-sweep": cmd_pulse_sweep,
    "miss-sweep": cmd_miss_sweep,
    "ber-sweep": cmd_ber_sweep,
    "rate-sweep": cmd_rate_sweep,
    "saturation-sweep": cmd_saturation_sweep,
    "cutoff-fit": cmd_cutoff_fit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        runner = _Runner(cfg, args.command, Path(cfg.output_dir))
        if args.command == "validate":
            status = cmd_validate(cfg, runner, level=args.level)
        else:
            status = _DISPATCH[args.command](cfg, runner)
        manifest = runner.finish()
        print(f"wrote {len(runner.outputs)} file(s) under {runner.dir} (manifest: {manifest.name})")
        return status
    except NumericsError as exc:
        json.dump({"error": {"kind": "numerics", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 4
    except (ConfigError, ValueError) as exc:
        # precondition violations surface as ValueError from the library
        json.dump({"error": {"kind": "config", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
