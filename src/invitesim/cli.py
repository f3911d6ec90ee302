"""Command-line experiment runner.

Every run lands in an output directory containing the requested data files
plus a manifest (config snapshot, version, wall clock, per-file checksums).
Data files depend only on config and seed, so a rerun with the same pair is
byte-identical; the manifest is the only place timing appears.

Exit codes: 0 success, 2 one or more acceptance criteria failed, 1 any
other error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_columns
from .acceptance import ALL_CRITERIA, run_suites
from .ctmc import GridSpec, RandomStream, SystemState, fluid_scale, simulate_a, simulate_b
from .diffusion import moment_ode
from .params import InviteSimError
from .presets import ConfigInvalid, ExperimentConfig, config_from_json, get_preset, presets
from .stats import (_at_samples, fluid_reference, scale_sweep, stationary_moments,
                    sup_deviation, gaussian_check)

SWEEP_SCALES = (100, 300, 1000)
SWEEP_REPLICATIONS = 8


class OutputDirUnwritable(InviteSimError):
    pass


@dataclass
class RunManifest:
    name: str
    config: dict
    version: str
    wall_clock_s: float
    files: list = field(default_factory=list)
    acceptance_failures: int = 0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "version": self.version,
            "wall_clock_s": self.wall_clock_s,
            "files": self.files,
            "acceptance_failures": self.acceptance_failures,
        }


def _ensure_outdir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OutputDirUnwritable(f"cannot write to {out}: {exc}") from exc
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def emit_plot_data(path, sim, ref=None) -> None:
    """Write overlay-ready columns at the run's samples.

    Columns are t,sim_y,sim_x plus fluid_y,fluid_x when ref, the fluid
    reference's (n, 2) values at the run's n sample times, is supplied.
    """
    cols = [sim.t, sim.y, sim.x]
    header = "t,sim_y,sim_x"
    if ref is not None:
        ref = _at_samples(sim, ref)
        header += ",fluid_y,fluid_x"
        cols += [ref[:, 0], ref[:, 1]]
    # + 0.0 drops negative zeros
    write_columns(path, header, ",".join(["{:.10g}"] * len(cols)),
                  [c + 0.0 for c in cols])


def _write_manifest(manifest: RunManifest, written: list[Path], out: Path,
                    t_start: float) -> RunManifest:
    manifest.files = [{"path": f.name, "sha256": _sha256(f),
                       "bytes": f.stat().st_size} for f in written]
    manifest.wall_clock_s = round(time.perf_counter() - t_start, 3)
    _write_json(out / "manifest.json", manifest.to_json_dict())
    return manifest


def run_acceptance(suite: str, out_dir) -> RunManifest:
    """Run one acceptance suite, or "all"; writes acceptance.json and a manifest."""
    t_start = time.perf_counter()
    names = list(ALL_CRITERIA) if suite == "all" else [suite]
    if any(n not in ALL_CRITERIA for n in names):
        raise ConfigInvalid(f"unknown acceptance suite {suite!r}; known: "
                            + ", ".join([*ALL_CRITERIA, "all"]))
    out = _ensure_outdir(out_dir)
    results = run_suites(names)
    for res in results:
        print(res.line() + f"  [{res.wall_clock_s:.1f}s]")
    failures = sum(not r.passed for r in results)
    entries = [res.to_json_dict() for res in results]
    for entry in entries:
        entry.pop("wall_clock_s")  # keep data files seed-deterministic
    target = out / "acceptance.json"
    _write_json(target, {"results": entries, "failures": failures})
    manifest = RunManifest(name=f"acceptance-{suite}", config={"acceptance": suite},
                           version=__version__, wall_clock_s=0.0,
                           acceptance_failures=failures)
    return _write_manifest(manifest, [target], out, t_start)


def run(config: ExperimentConfig, out_dir, workers: int = 1) -> RunManifest:
    """Execute a config's pipeline; returns the manifest (also written)."""
    t_start = time.perf_counter()
    if workers < 1:
        raise ConfigInvalid("workers must be >= 1")
    # the one start of the run and of its fluid reference
    init = SystemState(config.initial[0], config.initial[1],
                       x_target=float(config.initial[2]) if config.scheme == "A" else None)
    out = _ensure_outdir(out_dir)
    manifest = RunManifest(name=config.name, config=config.to_json_dict(),
                           version=__version__, wall_clock_s=0.0)
    written: list[Path] = []

    p = config.params
    stream = RandomStream(seed=config.seed)
    grid = GridSpec(dt=config.grid_dt)
    traj = None
    if {"trajectory", "deviation", "stationary"} & set(config.outputs):
        if config.scheme == "A":
            traj = simulate_a(init, p, horizon=config.horizon,
                              stream=stream, sampling=grid)
        else:
            traj = simulate_b(init, p, horizon=config.horizon,
                              stream=stream, arrival=config.arrival,
                              sampling=grid)
    fluid = None
    if {"fluid", "deviation"} & set(config.outputs):
        fluid = fluid_reference(init, p, config.horizon, config.arrival)

    if "trajectory" in config.outputs:
        target = out / "trajectory.csv"
        traj.to_csv(target)
        written.append(target)
        if config.scheme == "A":
            target = out / "target_gap.csv"
            write_columns(target, "t,scaled_gap", "{:.10g},{:.10g}",
                          [traj.t, np.abs(traj.x - traj.x_target) / p.scale_r])
            written.append(target)
    if "fluid" in config.outputs:
        target = out / "fluid.csv"
        fluid.to_csv(target, dt=config.grid_dt)
        written.append(target)
    if "deviation" in config.outputs:
        scaled = fluid_scale(traj)
        ref = fluid.states(scaled.t)
        target = out / "overlay.csv"
        emit_plot_data(target, scaled, ref)
        written.append(target)
        rep = sup_deviation(scaled, ref, context={"name": config.name, "seed": config.seed})
        target = out / "deviation.json"
        _write_json(target, rep.to_json_dict())
        written.append(target)
    if "stationary" in config.outputs:
        burn = 100.0 if config.horizon > 300.0 else 0.2 * config.horizon
        est = stationary_moments(traj, burn_in=burn)
        target = out / "stationary.json"
        _write_json(target, est.to_json_dict())
        written.append(target)
        target = out / "gaussian.json"
        _write_json(target, gaussian_check(est, p).to_json_dict())
        written.append(target)
    if "moments" in config.outputs:
        path = moment_ode(np.zeros(2), np.zeros((2, 2)), p,
                          horizon=config.horizon, dt=config.grid_dt)
        target = out / "moments.csv"
        path.to_csv(target, dt=config.grid_dt)
        written.append(target)
    if "sweep" in config.outputs:
        y0, x0 = config.initial[0] / p.scale_r, config.initial[1] / p.scale_r
        table = scale_sweep(
            SWEEP_SCALES,
            lambda r: (int(round(y0 * r)), int(round(x0 * r))),
            p, horizon=config.horizon,
            replications=SWEEP_REPLICATIONS, stream=stream,
            grid_dt=config.grid_dt, workers=workers)
        target = out / "sweep.csv"
        table.to_csv(target)
        written.append(target)

    return _write_manifest(manifest, written, out, t_start)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through exit code 1
        raise ConfigInvalid(message)


def _add_common(sub):
    sub.add_argument("--config", help="path to an experiment config JSON")
    sub.add_argument("--preset", help="name of a built-in preset")
    sub.add_argument("--seed", type=int, help="override the config's seed")
    sub.add_argument("--out", help="output directory (default runs/<name>)")


def _load_config(args, forced_outputs=None) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigInvalid("pass either --config or --preset, not both")
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {args.config}: {exc}") from exc
        config = config_from_json(text)
    elif args.preset:
        config = get_preset(args.preset)
    else:
        raise ConfigInvalid("a config is required: pass --config or --preset")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if forced_outputs is not None:
        config = replace(config, outputs=tuple(forced_outputs))
    return config


SUBCOMMAND_OUTPUTS = {
    "simulate": ("trajectory",),
    "fluid": ("fluid",),
    "diffusion": ("moments",),
    "stationary": ("trajectory", "stationary"),
    "compare": ("trajectory", "fluid", "deviation"),
    "sweep": ("sweep",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="invitesim",
                     description="simulate invitation feedback systems and "
                                 "compare them to their scaling limits")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("simulate", "run one trajectory and write raw counts"),
        ("fluid", "solve the deterministic scaled path"),
        ("diffusion", "mean and covariance of the fluctuation limit"),
        ("stationary", "estimate long-run moments by batch means"),
        ("compare", "overlay a run on its fluid reference"),
        ("sweep", "sup-deviation decay across system scales"),
    ):
        _add_common(subs.add_parser(name, help=blurb))
    subs.choices["sweep"].add_argument(
        "--workers", type=int, default=1,
        help="thread pool size for the sweep's replications")
    pre = subs.add_parser("preset", help="run a named preset (no name: list)")
    pre.add_argument("name", nargs="?", help="preset to run")
    pre.add_argument("--seed", type=int, help="override the preset's seed")
    pre.add_argument("--out", help="output directory (default runs/<name>)")
    acc = subs.add_parser("acceptance", help="run pinned-seed acceptance suites")
    acc.add_argument("suite", help="suite name or 'all'")
    acc.add_argument("--out", help="output directory "
                                   "(default runs/acceptance-<suite>)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "acceptance":
            out_dir = args.out or Path("runs") / f"acceptance-{args.suite}"
            failures = run_acceptance(args.suite, out_dir).acceptance_failures
            if failures:
                print(f"{failures} acceptance criteria failed", file=sys.stderr)
                return 2
            return 0
        if args.command == "preset":
            if args.name is None:
                for name in sorted(presets()):
                    print(name)
                return 0
            config = get_preset(args.name)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
        else:
            config = _load_config(args, SUBCOMMAND_OUTPUTS[args.command])
        run(config, args.out or Path("runs") / config.name,
            workers=getattr(args, "workers", 1))
        return 0
    except InviteSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # last-resort guard: a bug, so keep its traceback
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
