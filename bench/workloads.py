"""The benchmark workloads and the parts they are made of.

Each part is a fixed amount of seeded batch work run in a closed sequence:
the next call starts when the previous one returns.  ``setup`` builds
configs and inputs from the benchmark seed; ``round`` runs the experiment
once (the timed part); ``collect`` reads what a round produced into arrays
for ``checks``; ``digest`` fingerprints a round's outputs so that repeated
rounds of the same seed can be compared byte for byte.  A workload runs its
parts one after the other in every round.

Every call into invitesim goes through a module attribute
(``self.m.cli.run``), so the traced run sees it.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks

# the model of the fig2/fig4 presets and of most acceptance suites,
# written out here so the checks do not take it from the program
MODEL = {"lam": 1.0, "r": 1000.0, "beta": 1.0, "gamma": 2.0, "epsilon": 0.2}
SINE = {"base": 1.0, "amplitude": 0.2, "period": 120.0}

# the 20 small states of the generator suite
GENERATOR_STATES = (
    (0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0), (9, 0), (-9, 0),
    (0, 1), (0, 4), (1, 1), (-1, 1), (4, 1), (-4, 2),
    (5, 2), (-5, 3), (2, 7), (-2, 6), (7, 10), (-7, 12), (6, 3),
)

# solve_fluid's tangential lift-off at exit_y = gamma*lam/epsilon: the path
# slides down the floor from y = 10 and leaves it with x' = 0.  Today this
# raises FluidSolverError ("segment structure exceeded ...") on every call.
LIFTOFF = {"lam": 2.5625, "beta": 2.4453125, "gamma": 2.0, "epsilon": 0.534912109375}


def sub_seeds(seed: int, workload_index: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, workload_index]).generate_state(n)]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def read_csv(path, cols=None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


@contextlib.contextmanager
def keep_results(module, attr, sink: list):
    """Append what module.attr returns to sink while the block runs."""
    inner = getattr(module, attr)

    def keep(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, keep)
    try:
        yield
    finally:
        setattr(module, attr, inner)


class Workload:
    name = ""
    workers = 1
    ops_per_round = 0

    def __init__(self, mods, out_dir: Path):
        self.m = mods
        self.out = out_dir

    def params(self, model=MODEL):
        return self.m.params.ModelParams(
            lam=model["lam"], scale_r=model.get("r", 1.0), beta=model["beta"],
            gamma=model["gamma"], epsilon=model["epsilon"])


class Stationary(Workload):
    """Long constant-rate runs: the event kernels do nearly all the work."""

    name = "stationary"
    ops_per_round = 2
    B_HORIZON = 2000.0
    A_HORIZON = 500.0

    def setup(self, seed):
        pr = self.m.presets
        s_b, s_a = sub_seeds(seed, 0, 2)
        self.cfg_b = pr.ExperimentConfig(
            name="stationary-b", scheme="B", params=self.params(), initial=(0, 1000),
            horizon=self.B_HORIZON, seed=s_b, grid_dt=0.05,
            outputs=("trajectory", "stationary"))
        # fig3's model, started with the pool at its target so that
        # x >= x_target holds from the first sample on
        self.cfg_a = replace(pr.get_preset("fig3"), name="stationary-a",
                             initial=(0, 1000, 1000.0), horizon=self.A_HORIZON,
                             seed=s_a, outputs=("trajectory",))

    def round(self):
        cli = self.m.cli
        kept = []
        with keep_results(cli, "simulate_b", kept):
            man_b = cli.run(self.cfg_b, self.out / "b")
        man_a = cli.run(self.cfg_a, self.out / "a")
        return {"events": kept[0].n_events, "files": [self.out / "b" / f["path"] for f in man_b.files]
                + [self.out / "a" / f["path"] for f in man_a.files], "failed": []}

    def digest(self, raw):
        return file_digest(raw["files"])

    def collect(self, raw):
        b = self.out / "b"
        return {
            "b_traj": read_csv(b / "trajectory.csv"),
            "b_stat": json.loads((b / "stationary.json").read_text()),
            "b_events": raw["events"],
            "b_horizon": self.B_HORIZON,
            "a_traj": read_csv(self.out / "a" / "trajectory.csv"),
        }

    def check(self, out):
        return checks.check_stationary(out, MODEL)


class TimeVarying(Workload):
    """fig4a/fig4b: thinned simulate_b, solve_fluid_tv, overlay, deviation."""

    name = "time-varying"
    ops_per_round = 2
    PRESETS = ("fig4a", "fig4b")
    # sup deviation bound in standard deviations of the fluctuation
    SUP_SIGMAS = 6.0

    def setup(self, seed):
        pr = self.m.presets
        self.cfgs = [replace(pr.get_preset(name), seed=s)
                     for name, s in zip(self.PRESETS, sub_seeds(seed, 1, 2))]
        want = dict(MODEL, beta_tilde=0.0, arrival=dict(SINE, kind="sinusoid"))
        for cfg in self.cfgs:
            got = cfg.to_json_dict()["model"]
            got = {"lam": got["lambda"], "r": got["r"], "beta": got["beta"],
                   "gamma": got["gamma"], "epsilon": got["epsilon"],
                   "beta_tilde": got["beta_tilde"], "arrival": got.get("arrival")}
            if got != want:
                raise SystemExit(f"preset {cfg.name} no longer has the model the "
                                 f"checks assume: {got}")

    def round(self):
        files = []
        for cfg in self.cfgs:
            man = self.m.cli.run(cfg, self.out / cfg.name)
            files += [self.out / cfg.name / f["path"] for f in man.files]
        return {"files": files, "failed": []}

    def digest(self, raw):
        return file_digest(raw["files"])

    def collect(self, raw):
        out = {}
        for cfg in self.cfgs:
            d = self.out / cfg.name
            out[cfg.name] = {
                "fluid": read_csv(d / "fluid.csv", cols=(0, 1, 2)),
                "traj": read_csv(d / "trajectory.csv"),
                "deviation": json.loads((d / "deviation.json").read_text()),
            }
        return out

    def runs(self):
        return [{"name": c.name, "initial": c.initial, "horizon": c.horizon}
                for c in self.cfgs]

    def check(self, out):
        model = dict(MODEL, **SINE, sup_sigmas=self.SUP_SIGMAS)
        return checks.check_time_varying(out, model, self.runs())


class LimitChecks(Workload):
    """The checks a user runs against the limits, in five parts."""

    name = "limit-checks"
    DRIFT_DT = 1e-4
    DRIFT_REPLICATES = 50_000
    SMALL = {"lam": 1.0, "r": 5.0, "beta": 1.0, "gamma": 3.0, "epsilon": 0.5}
    M0 = (0.5, -0.25)
    SDE = {"horizon": 2.0, "n_paths": 10_000, "dt": 1e-3, "times": (0.5, 2.0)}
    MOMENT = {"horizon": 80.0, "dt": 1e-3, "times": (0.5, 2.0, 10.0, 40.0, 80.0)}
    N_FLUID = 100
    FLUID_HORIZON = 50.0

    def setup(self, seed):
        c = self.m.ctmc
        s_drift, s_log, s_sde, s_fluid = sub_seeds(seed, 2, 4)
        self.p6 = self.params()
        self.drift_stream = c.RandomStream(s_drift)
        small = self.params(self.SMALL)
        self.logged = [(self.p6, (0, 1000), 100.0)] * 3 + [(small, (8, 2), 1500.0)]
        self.log_stream = c.RandomStream(s_log)
        self.sde_stream = c.RandomStream(s_sde)
        rng = np.random.default_rng(s_fluid)
        floor = -MODEL["lam"] / MODEL["beta"]
        self.fluid_initials = [(float(rng.uniform(-20.0, 20.0)), float(rng.uniform(floor, 20.0)))
                               for _ in range(self.N_FLUID)]
        self.fluid_grid = np.arange(0.0, self.FLUID_HORIZON * (1 + 1e-12), 0.05)
        lp = self.params(LIFTOFF)
        self.liftoff = (lp, (10.0, -LIFTOFF["lam"] / LIFTOFF["beta"]))
        self.ops_per_round = (len(GENERATOR_STATES) + 2 * len(self.logged) + 2
                              + self.N_FLUID + 1)

    def round(self):
        c, d, f = self.m.ctmc, self.m.diffusion, self.m.fluid
        out = {"failed": []}
        out["drift"] = [
            (st, c.drift_replicates_b(c.SystemState(*st), self.p6, dt=self.DRIFT_DT,
                                      n_replicates=self.DRIFT_REPLICATES,
                                      stream=self.drift_stream.child(k)))
            for k, st in enumerate(GENERATOR_STATES)]
        out["logged"] = []
        for k, (p, init, horizon) in enumerate(self.logged):
            traj = c.simulate_b(c.SystemState(*init), p, horizon=horizon,
                                stream=self.log_stream.child(k),
                                sampling=c.GridSpec(dt=0.05, record_events=True))
            replayed = c.reflect_representation(c.SystemState(*init), traj.events, p)
            out["logged"].append({"x0": init[1], "t": traj.events.t, "dx": traj.events.dx,
                                  "truncated": traj.events.truncated, "replayed": replayed,
                                  "grid_t": traj.t, "grid_x": traj.x})
        sde = self.SDE
        out["sde"] = {"times": sde["times"], "states": d.simulate_sde_ensemble(
            self.M0, self.p6, horizon=sde["horizon"], stream=self.sde_stream,
            n_paths=sde["n_paths"], dt=sde["dt"], record_times=list(sde["times"]))}
        mp = d.moment_ode(np.array(self.M0), np.zeros((2, 2)), self.p6,
                          horizon=self.MOMENT["horizon"], dt=self.MOMENT["dt"])
        out["moments"] = {"m": mp.m, "V": mp.V, "dt": mp.dt}
        out["fluid"] = [(init, f.solve_fluid(init, self.p6, horizon=self.FLUID_HORIZON)
                         .states(self.fluid_grid)) for init in self.fluid_initials]
        lp, init = self.liftoff
        try:
            path = f.solve_fluid(init, lp, horizon=self.FLUID_HORIZON)
            out["liftoff"] = path.states(self.fluid_grid)
        except self.m.params.InviteSimError as exc:
            out["failed"].append(f"solve_fluid lift-off case: {type(exc).__name__}: {exc}")
        return out

    def digest(self, raw):
        arrays = [a for _, a in raw["drift"]]
        for run in raw["logged"]:
            arrays += [run["t"], run["dx"], run["replayed"], run["grid_x"]]
        arrays += [raw["sde"]["states"], raw["moments"]["m"], raw["moments"]["V"]]
        arrays += [s for _, s in raw["fluid"]]
        if "liftoff" in raw:
            arrays.append(raw["liftoff"])
        return array_digest(arrays)

    def collect(self, raw):
        out = dict(raw)
        n = self.DRIFT_REPLICATES
        out["drift"] = [(st, a.mean(axis=0), a.std(axis=0, ddof=1) / math.sqrt(n))
                        for st, a in raw["drift"]]
        out["fluid"] = [(init, states, MODEL) for init, states in raw["fluid"]]
        if "liftoff" in raw:
            # once the lift-off case is mended it is checked like the others
            out["fluid"].append((self.liftoff[1], raw["liftoff"], LIFTOFF))
        return out

    def inputs(self):
        return {"drift_dt": self.DRIFT_DT, "m0": self.M0,
                "moment_times": self.MOMENT["times"], "fluid_grid": self.fluid_grid,
                "fluid_horizon": self.FLUID_HORIZON}

    def check(self, out):
        return checks.check_limits(out, MODEL, self.inputs())


class Sweep2w(Workload):
    """cli sweep with a two-thread pool: r in {100, 300, 1000} x 8 replications."""

    name = "sweep-2w"
    workers = 2
    ops_per_round = 1

    def setup(self, seed):
        (s,) = sub_seeds(seed, 3, 1)
        self.cfg = self.m.presets.ExperimentConfig(
            name="sweep-2w", scheme="B", params=self.params(), initial=(0, 2000),
            horizon=200.0, seed=s, grid_dt=0.05, outputs=("sweep",))

    def round(self):
        man = self.m.cli.run(self.cfg, self.out, workers=self.workers)
        return {"files": [self.out / f["path"] for f in man.files], "failed": []}

    def digest(self, raw):
        return file_digest(raw["files"])

    def collect(self, raw):
        return read_csv(self.out / "sweep.csv")

    def check(self, out):
        return checks.check_sweep(out)


PARTS = {w.name: w for w in (Stationary, TimeVarying, LimitChecks, Sweep2w)}

# Two workloads rather than one per part: the machine's speed drifts over
# tens of seconds, and fewer, longer runs fit the same time budget and
# average more of it.  "kernels" is where the event kernels do nearly all the
# work (a solver change must not show there); "limits" holds every solver,
# the diffusion layer, the thinned kernel and event logging.
WORKLOADS = {
    "kernels": (Stationary, Sweep2w),
    "limits": (LimitChecks, TimeVarying),
}


class Combined:
    """A workload: its parts run one after the other in every round."""

    def __init__(self, name, parts, mods, out_dir: Path):
        self.name = name
        self.parts = [cls(mods, out_dir / cls.name) for cls in parts]
        self.workers = max(part.workers for part in self.parts)

    @property
    def ops_per_round(self) -> int:
        return sum(part.ops_per_round for part in self.parts)

    def setup(self, seed):
        for part in self.parts:
            part.setup(seed)

    def round(self):
        raws, walls = [], []
        for part in self.parts:
            t0 = time.perf_counter()
            raws.append(part.round())
            walls.append(time.perf_counter() - t0)
        return {"parts": raws, "part_wall": walls,
                "failed": [msg for raw in raws for msg in raw["failed"]]}

    def digest(self, raw):
        return hashlib.sha256("".join(
            part.digest(r) for part, r in zip(self.parts, raw["parts"])).encode()).hexdigest()

    def collect(self, raw):
        return [part.collect(r) for part, r in zip(self.parts, raw["parts"])]

    def check(self, out):
        return [f"{part.name}: {msg}" for part, o in zip(self.parts, out)
                for msg in part.check(o)]
