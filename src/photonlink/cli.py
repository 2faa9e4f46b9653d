"""Command-line harness: experiment dispatch, deterministic sweeps
(ber-sweep and rate-sweep on threads at --workers > 1), CSV and
manifest emission.

Exit codes: 0 success, 2 configuration error (any ValueError), 3 validation
failure, 4 numeric failure (NumericsError).  Outputs are a pure function of (config,
seed, artifact version), independent of the worker count.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
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

if TYPE_CHECKING:
    from .link import LinkConfig

_M_TOP_PAD = -2  # glibc's mallopt parameter number
# a point of the default config (100k symbols) peaks at about 31 MB
_HEAP_TOP_PAD = 64 << 20


@functools.cache
def _keep_freed_heap() -> bool:
    """Let glibc keep _HEAP_TOP_PAD bytes of freed heap when it trims, for the whole process.

    Without it every sweep point frees its Viterbi peak, glibc returns the
    heap top to the kernel, and the next point page-faults the same memory
    in again.  True when the policy is set; a no-op where libc cannot be
    loaded or has no mallopt.
    """
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


def _parallel_map(fn, payloads, workers: int) -> list:
    """fn(*args) for each args tuple of payloads, in order, on min(workers, len(payloads)) threads.

    The points' numpy work releases the GIL.  Each point draws from its own
    substream, so results never depend on the worker count.
    """
    items = list(payloads)
    if workers <= 1 or len(items) <= 1:
        return [fn(*args) for args in items]
    from concurrent.futures import ThreadPoolExecutor  # only workers > 1 need it

    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, *zip(*items)))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Runner:
    """Writes outputs for one command invocation and records the manifest."""

    def __init__(self, cfg: ExperimentConfig, command: str, out_dir: Path):
        self.cfg = cfg
        self.command = command
        self.dir = out_dir / command.replace("-", "_")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: {exc}") from None
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

    def write_figure(self, figure_id: str, columns: tuple, rows: list) -> Path:
        """Write <figure_id>.csv, the plot-ready table of one paper figure: the given columns of rows."""
        figure = SweepReport([{c: row[c] for c in columns} for row in rows])
        return self.write_report(figure, f"{figure_id}.csv")

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


# the config keys that set the window ratio t_c/tau of the dead time tau = alpha_sat/kappa
_WINDOW_KEYS = "timing.t_c_ns, device.alpha_sat, device.kappa_rad_per_s"


@contextlib.contextmanager
def _config_keys(where: str):
    """Turn a ValueError raised in the block into a ConfigError that starts with where,
    the config keys or the sweep value that set the rejected parameter."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# command implementations: each imports the layers it runs, so that a
# command loads neither link nor saturation nor detection unless it needs it

def cmd_detect(cfg: ExperimentConfig, runner: _Runner) -> int:
    from . import detection

    [lam] = _arrival_rates(cfg, "detect.power_dbm", [cfg.detect_power_dbm])
    report = detection.miss_probability_sweep([(lam, cfg.device.kappa, cfg.device.gamma)], cfg.timing, cfg.device)
    runner.write_report(report, "detect.csv")
    return 0


def _pulse_point(cfg: ExperimentConfig, l: float, gamma: float) -> dict:
    dev = dataclasses.replace(cfg.device, gamma=gamma)
    with _config_keys(f"sweeps.pulse_length_ns: {l * 1e9}"):
        pulse = dataclasses.replace(cfg.pulse, l=l)
    p_exc = single_photon_excitation(pulse, pulse.t_i, dev)
    return {
        "l_ns": l * 1e9,
        "kappa": dev.kappa,
        "gamma": gamma,
        "efficiency": detection_prob_single(p_exc, dev),
    }


def cmd_pulse_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    lengths = cfg.axis("pulse_length_ns") * 1e-9
    gammas = cfg.axis("gamma_rad_per_s", cfg.device.gamma)
    report = SweepReport([_pulse_point(cfg, float(l), float(g)) for g in gammas for l in lengths])
    runner.write_report(report, "pulse_sweep.csv")
    runner.write_figure("fig5", report.columns, report.rows)
    return 0


def _rate(key: str, value: float | str, lam: float, formula: str) -> float:
    """lam, the photon rate that value of config key sets through formula; a rate that overflows is a config error."""
    if math.isinf(lam):
        raise ConfigError(f"{key}: {value}: lambda = {formula} overflows")
    return lam


def _arrival_rates(cfg: ExperimentConfig, key: str, powers: list) -> list:
    """The arrival rates P/(h nu) + n_e/t_c that a kernel sees at each power of config key, signal plus thermal."""
    env = cfg.environment
    signals = [_rate(key, p, power_to_rate(p, env.nu), "P/(h nu)") for p in powers]
    thermal = _rate("environment.t_e_k, environment.nu_hz", f"{env.t_e}, {env.nu}",
                    thermal_photon_rate(env) / cfg.timing.t_c, "k_B T_e/(N h nu t_c)")
    return [_rate(f"{key}, environment.t_e_k, environment.nu_hz", f"{p}, {env.t_e}, {env.nu}",
                  lam + thermal, "P/(h nu) + k_B T_e/(N h nu t_c)") for p, lam in zip(powers, signals)]


def _photon_rates(cfg: ExperimentConfig) -> list:
    """The rates mean/t_c of sweeps.mean_photons."""
    t_c = cfg.timing.t_c
    return [_rate("sweeps.mean_photons", mean, mean / t_c, f"mean_photons/t_c = {mean}/{t_c}")
            for mean in cfg.axis("mean_photons").tolist()]


def cmd_miss_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    from . import detection

    lams = _photon_rates(cfg)
    kappas = cfg.axis("kappa_rad_per_s", cfg.device.kappa)
    gammas = cfg.axis("gamma_rad_per_s", cfg.device.gamma)
    grid = [(lam, kappa, gamma) for kappa in kappas for gamma in gammas for lam in lams]
    report = detection.miss_probability_sweep(grid, cfg.timing, cfg.device)
    runner.write_report(report, "miss_sweep.csv")
    runner.write_figure("fig6", ("lambda", "kappa", "gamma", "p_miss"), report.rows)
    return 0


def _link_sweep(cfg: ExperimentConfig, runner: _Runner, metric: str, point, figure_id: str,
                args) -> LinkConfig:
    """Write <metric>_sweep.csv and its figure: one row point(link config, *a) for each a in args.

    Returns the link config, so later work of the same command shares its noise kernel and tables.
    """
    from . import link

    _arrival_rates(cfg, "sweeps.power_dbm", cfg.axis("power_dbm").tolist())
    lcfg = link.LinkConfig(dev=cfg.device, timing=cfg.timing, env=cfg.environment, saturation=cfg.link.saturation)
    with _config_keys(_WINDOW_KEYS):
        lcfg.saturation_operator  # a saturated link builds its dead-time operator here
    lcfg.noise_tables()  # before the points run: every point, on any thread, reads this one set
    report = SweepReport(_parallel_map(point, [(lcfg, *a) for a in args], cfg.workers))
    runner.write_report(report, f"{metric}_sweep.csv")
    runner.write_figure(figure_id, ("power_dbm", "kappa", "gamma", "n_cycles", metric, "stderr"), report.rows)
    return lcfg


def cmd_ber_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    from . import link

    powers = cfg.axis("power_dbm")
    args = [(float(p), cfg.mc.n_symbols, cfg.seed, i, cfg.link.mode) for i, p in enumerate(powers)]
    lcfg = _link_sweep(cfg, runner, "ber", link.ber_point, "fig9", args)
    if cfg.link.dump_frames:
        spec = lcfg.build_spec(float(cfg.axis("power_dbm")[0]))
        run = link.simulate_link(
            spec, min(cfg.mc.n_symbols, 1000), substream(cfg.seed, 0xBE, 0, 1),
            mode=cfg.link.mode, store_frames=True,
        )
        path = write_frames(runner.dir / "frames.txt", run.symbols, run.frames)
        runner.outputs.append(path)
    return 0


def cmd_rate_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    from . import link

    args = [(float(p),) for p in cfg.axis("power_dbm")]
    _link_sweep(cfg, runner, "rate", link.rate_point, "fig10", args)
    return 0


def cmd_saturation_sweep(cfg: ExperimentConfig, runner: _Runner) -> int:
    from . import saturation

    # survivor statistics and the dispersion gap on normalized axes
    tau = cfg.device.dead_time
    surv, delta_rows = [], []
    for ratio in cfg.axis("t_over_tau"):
        t_c = ratio * tau
        for a in cfg.axis("lambda_tau"):
            lam = _rate("sweeps.lambda_tau", a, float(a) / tau, f"lambda_tau/tau = {a}/{tau}")
            with _config_keys(f"sweeps.t_over_tau: {ratio}"):
                m = saturation.survivor_moments_poisson(lam, tau, t_c)
            surv.append({
                "lambda": lam, "tau": tau, "t_c": t_c, "mean": m.mean,
                "var": m.variance, "delta": m.delta, "regime": m.regime,
            })
            delta_rows.append({"t_over_tau": float(ratio), "lambda_tau": float(a), "delta": m.delta})
    runner.write_report(SweepReport(surv), "survivors.csv")
    delta_table = SweepReport(delta_rows)
    runner.write_report(delta_table, "delta_lambda.csv")
    runner.write_figure("fig8", delta_table.columns, delta_rows)

    # saturated excitation curves, correct and wrong reset, exact
    means = cfg.axis("mean_photons")
    lams = _photon_rates(cfg)
    kappas = cfg.axis("kappa_rad_per_s", cfg.device.kappa)
    exc = []
    for enter_excited in (False, True):
        for kappa in kappas:
            where = f"sweeps.kappa_rad_per_s: {kappa}" if "kappa_rad_per_s" in cfg.sweeps else _WINDOW_KEYS
            with _config_keys(where):
                dev = dataclasses.replace(cfg.device, kappa=float(kappa))
                values = saturation.survivor_excitation(lams, cfg.timing, dev, enter_excited=enter_excited)
            for mean, lam, value in zip(means, lams, values):
                exc.append({
                    "mean_photons": float(mean), "lambda": lam,
                    "kappa": float(kappa), "gamma": cfg.device.gamma, "t_c": cfg.timing.t_c,
                    "reset": "wrong" if enter_excited else "correct", "excitation": float(value),
                })
    runner.write_report(SweepReport(exc), "saturation_excitation.csv")
    for figure_id, reset in (("fig11", "correct"), ("fig12", "wrong")):
        runner.write_figure(figure_id, ("mean_photons", "kappa", "excitation"),
                            [row for row in exc if row["reset"] == reset])
    return 0


def cmd_cutoff_fit(cfg: ExperimentConfig, runner: _Runner) -> int:
    from . import saturation

    values = cfg.axis("kappa_t_c").tolist()
    t_c = cfg.timing.t_c
    operators = []
    for kappa_tc in values:
        with _config_keys(f"sweeps.kappa_t_c: {kappa_tc}"):
            dev = DeviceParams(kappa=kappa_tc / t_c, gamma=0.0, alpha_sat=cfg.device.alpha_sat)
            operators.append(saturation.cutoff_operator(dev, t_c))
    rows = [
        {"kappa": kappa_tc / t_c, "t_c": t_c, "gamma": 0.0, "kappa_tc": kappa_tc, "n_cutoff": result.n_cutoff}
        for kappa_tc, result in zip(values, saturation.scan_cutoff(operators))
    ]
    runner.write_report(SweepReport(rows), "cutoff_table.csv")
    runner.write_figure("fig13", ("kappa", "t_c", "kappa_tc", "n_cutoff"), rows)
    with _config_keys(f"sweeps.kappa_t_c: {values}"):
        fit = saturation.fit_cutoff_curve([(r["kappa_tc"], r["n_cutoff"]) for r in rows])
    runner.write_json(
        {
            "a": fit.a, "b": fit.b, "c": fit.c,
            "residual_rms_relative": fit.residual,
            "kappa_tc_range": list(fit.x_range),
        },
        "fit.json",
    )
    fig = [{"kappa_tc": row["kappa_tc"], "n_cutoff": row["n_cutoff"], "kind": "simulated"} for row in rows]
    fig += [
        {"kappa_tc": float(x), "n_cutoff": float(fit.predict(x)), "kind": "fit"}
        for x in saturation.log_grid(fit.x_range[0], fit.x_range[1], 10)
    ]
    runner.write_report(SweepReport(fig), "fig15.csv")
    return 0


def cmd_validate(cfg: ExperimentConfig, runner: _Runner, level: str) -> int:
    from . import validate  # only this command needs the oracle battery

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

# command name -> handler(cfg, runner); cmd_validate also takes the --level
COMMANDS = {
    "detect": cmd_detect,
    "pulse-sweep": cmd_pulse_sweep,
    "miss-sweep": cmd_miss_sweep,
    "ber-sweep": cmd_ber_sweep,
    "rate-sweep": cmd_rate_sweep,
    "saturation-sweep": cmd_saturation_sweep,
    "cutoff-fit": cmd_cutoff_fit,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Three-level microwave photon detector and OOK link simulator.",
    )
    parser.add_argument("--version", action="version", version=f"photonlink {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="YAML experiment configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=None, help="override the worker count")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--level", choices=("quick", "full"),
                        help="oracle battery level of validate (default quick)")
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


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command]
    if handler is cmd_validate:
        handler = functools.partial(cmd_validate, level=args.level or "quick")
    elif args.level is not None:
        parser.error(f"argument --level: not allowed with {args.command}")
    try:
        cfg = _load_config(args)
        runner = _Runner(cfg, args.command, Path(cfg.output_dir))
        status = handler(cfg, runner)
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
