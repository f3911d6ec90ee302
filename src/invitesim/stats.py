"""Comparison harness: the fluid reference of a run, sup-norm deviation
between scaled paths and their deterministic limits, steady-state estimation
by batch means, Gaussian moment checks, the replication runner and the
deviation-vs-scale sweep.

Steady-state averages are time-weighted (a sampled CTMC state holds its value
until the next sample), never event-weighted.  Every report carries enough
context (seed, parameters, grid) to rerun it exactly.  Repeated runs go
through replicate, the one place that builds a thread pool: cell (i, j) of a
grid of runs draws from stream.child(i).child(j), so results do not depend
on the number of workers.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._csv import write_columns
from .ctmc import RandomStream, SystemState, fluid_scale, diffusion_scale, simulate_b, GridSpec
from .fluid import FluidTrajectory, solve_fluid, solve_fluid_tv
from .params import ArrivalRateFn, InviteSimError, ModelParams


class StatsError(InviteSimError):
    pass


class GridOutsideHorizon(StatsError):
    pass


class InsufficientData(StatsError):
    pass


# ---------------------------------------------------------------------------
# fluid reference and sup-norm deviation
# ---------------------------------------------------------------------------

def fluid_reference(initial: SystemState, params: ModelParams, horizon: float,
                    arrival: ArrivalRateFn | None = None) -> FluidTrajectory:
    """The fluid path that a run from `initial` under `params` and `arrival`
    converges to, in the view fluid_scale puts that run in.

    A scheme-A start (one with an x_target) starts X at the target, which
    the run tops X up to; it raises StatsError with a time-varying rate,
    as scheme A runs at the constant rate lam only.  A time-varying
    rate takes the uncentred path of solve_fluid_tv; the constant rate lam
    (arrival None) the centred path of solve_fluid.
    """
    r = params.scale_r
    x = initial.x if initial.x_target is None else initial.x_target
    if arrival is not None:
        if initial.x_target is not None:
            raise StatsError("scheme A runs at the constant rate lam only")
        return solve_fluid_tv((initial.y / r, x / r), arrival, params, horizon=horizon)
    return solve_fluid((initial.y / r, x / r - params.lam / params.beta), params,
                       horizon=horizon)


@dataclass(frozen=True)
class DeviationReport:
    sup: float
    t_at_sup: float
    component_max: tuple[float, float]
    grid_start: float
    grid_end: float
    grid_points: int
    context: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "sup": self.sup,
            "t_at_sup": self.t_at_sup,
            "component_max": list(self.component_max),
            "grid": {"start": self.grid_start, "end": self.grid_end,
                     "points": self.grid_points},
            "context": self.context,
        }


def _horizon_of(traj) -> float:
    h = getattr(traj, "horizon", None)
    if h is not None:
        return float(h)
    return float(traj.t[-1])


def sup_deviation(scaled_sim, reference, grid, context: dict | None = None) -> DeviationReport:
    """Max over the grid of the max-norm difference between two paths.

    Symmetric in its two arguments; both must expose eval_on(grid) -> (n, 2).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise GridOutsideHorizon("empty evaluation grid")
    for traj in (scaled_sim, reference):
        if grid.min() < -1e-9 or grid.max() > _horizon_of(traj) * (1 + 1e-9) + 1e-9:
            raise GridOutsideHorizon(
                f"grid [{grid.min()}, {grid.max()}] exceeds a horizon of "
                f"{_horizon_of(traj)}")
    diff = np.abs(np.asarray(scaled_sim.eval_on(grid))
                  - np.asarray(reference.eval_on(grid)))
    per_point = diff.max(axis=1)
    k = int(per_point.argmax())
    return DeviationReport(
        sup=float(per_point[k]),
        t_at_sup=float(grid[k]),
        component_max=(float(diff[:, 0].max()), float(diff[:, 1].max())),
        grid_start=float(grid[0]),
        grid_end=float(grid[-1]),
        grid_points=int(grid.size),
        context=context or {},
    )


# ---------------------------------------------------------------------------
# batch means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryEstimate:
    mean: np.ndarray
    cov: np.ndarray
    mean_halfwidth: np.ndarray
    cov_halfwidth: np.ndarray
    skew_y: float
    skew_halfwidth: float
    exkurt_y: float
    exkurt_halfwidth: float
    n_batches: int
    batch_len: float
    burn_in: float
    horizon: float
    context: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
            "mean_halfwidth": self.mean_halfwidth.tolist(),
            "cov_halfwidth": self.cov_halfwidth.tolist(),
            "skew_y": self.skew_y, "skew_halfwidth": self.skew_halfwidth,
            "exkurt_y": self.exkurt_y, "exkurt_halfwidth": self.exkurt_halfwidth,
            "n_batches": self.n_batches, "batch_len": self.batch_len,
            "burn_in": self.burn_in, "horizon": self.horizon,
            "context": self.context,
        }


def _window_integrals(t, v, edges):
    """Integrals of the piecewise-constant hold interpolant of (t, v) over
    consecutive windows [edges[j], edges[j+1])."""
    # cumulative integral at sample times; linear interpolation of the
    # cumulative is exact for a piecewise-constant integrand
    dt = np.diff(t)
    cum = np.vstack([np.zeros((1, v.shape[1])),
                     np.cumsum(v[:-1] * dt[:, None], axis=0)])
    at_edges = np.empty((len(edges), v.shape[1]))
    for j in range(v.shape[1]):
        at_edges[:, j] = np.interp(edges, t, cum[:, j])
    return np.diff(at_edges, axis=0)


def batch_means(series, burn_in: float, n_batches: int = 20,
                context: dict | None = None) -> StationaryEstimate:
    """Steady-state estimate from equal-time batches after a burn-in.

    series is a pair (t, v) of sample times and values, v of shape (n,) or
    (n, k).  The batch spread feeds 95% half-widths for every reported
    quantity.
    Covariance and the shape moments of the first component are computed per
    batch around the global mean, so their across-batch averages equal the
    full-window time averages (and the covariance stays PSD).
    """
    t, v = (np.asarray(a, dtype=float) for a in series)
    if v.ndim == 1:
        v = v[:, None]
    if n_batches < 10:
        raise InsufficientData(f"need at least 10 batches, got {n_batches}")
    if len(t) < 2 * n_batches:
        raise InsufficientData(f"only {len(t)} samples for {n_batches} batches")
    t0, t1 = float(t[0]), float(t[-1])
    if burn_in < t0 - 1e-12 or t1 - burn_in <= 0.0:
        raise InsufficientData(
            f"burn-in {burn_in} leaves no window inside [{t0}, {t1}]")
    edges = np.linspace(burn_in, t1, n_batches + 1)
    blen = edges[1] - edges[0]

    # integrating v - v[0] keeps an exactly-constant series exactly constant
    # through the cumsum round-off
    shift = v[0].copy()
    means_b = _window_integrals(t, v - shift, edges) / blen + shift
    mean = means_b.mean(axis=0)

    d = v - mean
    prods = np.column_stack([d[:, i] * d[:, j]
                             for i in range(v.shape[1]) for j in range(v.shape[1])])
    cov_b = _window_integrals(t, prods, edges) / blen
    cov = cov_b.mean(axis=0).reshape(v.shape[1], v.shape[1])
    cov = 0.5 * (cov + cov.T)

    z95 = 1.959963984540054
    def hw(rows):
        return z95 * rows.std(axis=0, ddof=1) / math.sqrt(n_batches)

    mean_hw = hw(means_b)
    cov_hw = hw(cov_b).reshape(v.shape[1], v.shape[1])
    cov_hw = 0.5 * (cov_hw + cov_hw.T)

    sigma = math.sqrt(max(cov[0, 0], 0.0))
    shape = np.column_stack([d[:, 0] ** 3, d[:, 0] ** 4])
    shape_b = _window_integrals(t, shape, edges) / blen
    if sigma > 0.0:
        skew_b = shape_b[:, 0] / sigma ** 3
        kurt_b = shape_b[:, 1] / sigma ** 4 - 3.0
    else:
        skew_b = np.zeros(n_batches)
        kurt_b = np.zeros(n_batches)
    skew_hw, kurt_hw = hw(np.column_stack([skew_b, kurt_b]))

    return StationaryEstimate(
        mean=mean, cov=cov, mean_halfwidth=mean_hw, cov_halfwidth=cov_hw,
        skew_y=float(skew_b.mean()), skew_halfwidth=float(skew_hw),
        exkurt_y=float(kurt_b.mean()), exkurt_halfwidth=float(kurt_hw),
        n_batches=n_batches, batch_len=float(blen), burn_in=float(burn_in),
        horizon=t1, context=context or {})


def stationary_moments(traj, burn_in: float = 100.0,
                       n_batches: int = 20) -> StationaryEstimate:
    """Diffusion-scale steady-state moments of a constant-rate run."""
    if traj.time_varying:
        raise StatsError("steady-state estimation needs a constant arrival rate")
    scaled = diffusion_scale(traj)
    ctx = {
        "scheme": traj.scheme,
        "seed": traj.stream.seed,
        "stream_path": list(traj.stream.path),
        "scale_r": scaled.scale_r,
        "horizon": traj.horizon,
        "grid_dt": traj.grid_dt,
        "burn_in": burn_in,
        "n_batches": n_batches,
    }
    return batch_means((scaled.t, np.column_stack([scaled.y, scaled.x])),
                       burn_in=burn_in, n_batches=n_batches, context=ctx)


# ---------------------------------------------------------------------------
# Gaussian moment check
# ---------------------------------------------------------------------------

# gaussian_check's tolerances: absolute for the means and shape moments,
# relative to the reference for the covariance entries
MEAN_TOL = 0.02
COV_REL_TOL = 0.10
SKEW_TOL = 0.10
EXKURT_TOL = 0.20


@dataclass(frozen=True)
class CheckEntry:
    name: str
    estimate: float
    reference: float
    tolerance: float
    halfwidth: float
    z: float
    ok: bool


@dataclass(frozen=True)
class GaussianCheckReport:
    passed: bool
    entries: tuple[CheckEntry, ...]
    scale_r: float | None
    context: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "scale_r": self.scale_r,
            "entries": [e.__dict__ for e in self.entries],
            "context": self.context,
        }


def gaussian_check(est: StationaryEstimate, params: ModelParams) -> GaussianCheckReport:
    """Entrywise comparison to the Gaussian limit: mean (0,0), the closed-form
    stationary covariance, and Gaussian shape moments of the first component.

    An entry passes when |estimate - reference| <= tolerance + CI half-width;
    pre-asymptotic scales therefore show up as failed entries, not errors.
    """
    from .diffusion import stationary_covariance

    ref_cov = stationary_covariance(params)
    entries = []

    def add(name, estv, refv, tolv, hwv):
        dev = abs(estv - refv)
        z = dev / max(hwv / 1.959963984540054, 1e-30)
        entries.append(CheckEntry(name=name, estimate=float(estv), reference=float(refv),
                                  tolerance=float(tolv), halfwidth=float(hwv),
                                  z=float(z), ok=bool(dev <= tolv + hwv)))

    names = ("y", "x")
    for i in range(2):
        add(f"mean_{names[i]}", est.mean[i], 0.0, MEAN_TOL, est.mean_halfwidth[i])
    for i in range(2):
        for j in range(i, 2):
            add(f"cov_{names[i]}{names[j]}", est.cov[i, j], ref_cov[i, j],
                COV_REL_TOL * abs(ref_cov[i, j]), est.cov_halfwidth[i, j])
    add("skew_y", est.skew_y, 0.0, SKEW_TOL, est.skew_halfwidth)
    add("exkurt_y", est.exkurt_y, 0.0, EXKURT_TOL, est.exkurt_halfwidth)

    return GaussianCheckReport(
        passed=all(e.ok for e in entries),
        entries=tuple(entries),
        scale_r=est.context.get("scale_r"),
        context=dict(est.context),
    )


# ---------------------------------------------------------------------------
# deviation vs scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    r: float
    mean_dev: float
    std_dev: float
    n: int
    devs: tuple[float, ...]  # per-replicate sup deviations, in replicate order


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    monotone_decreasing: bool
    context: dict = field(default_factory=dict, compare=False)

    def loglog_slope(self) -> float:
        xs = np.log([row.r for row in self.rows])
        ys = np.log([row.mean_dev for row in self.rows])
        return float(np.polyfit(xs, ys, 1)[0])

    def to_csv(self, path) -> None:
        """sweep.csv; std_dev is empty for a single replication."""
        sd = ["" if math.isnan(row.std_dev) else f"{row.std_dev:.12g}" for row in self.rows]
        write_columns(path, "r,mean_dev,std_dev,n", "{:.10g},{:.12g},{},{}",
                      [[row.r for row in self.rows], [row.mean_dev for row in self.rows],
                       sd, [row.n for row in self.rows]])


def replicate(fn, stream: RandomStream, shape: tuple[int, int], workers: int = 1) -> list[list]:
    """fn(i, j, stream.child(i).child(j)) for every cell of a 2-D shape, as
    nested lists in index order.

    With workers > 1 the calls run on one thread pool of that size, which is
    closed before returning (calls not yet started are dropped when one
    raises).  Streams are fixed by index, so the result is the same for
    every number of workers.
    """
    if workers < 1:
        raise StatsError(f"workers must be >= 1, got {workers}")
    rows, cols = shape

    def cell(k):
        i, j = divmod(k, cols)
        return fn(i, j, stream.child(i).child(j))

    if workers == 1:
        flat = list(map(cell, range(rows * cols)))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            flat = list(pool.map(cell, range(rows * cols)))
        finally:
            pool.shutdown(cancel_futures=True)
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def scale_sweep(r_list, initial_family, params: ModelParams, horizon: float,
                replications: int, stream: RandomStream,
                grid_dt: float = 0.05, workers: int = 1) -> SweepTable:
    """Mean/std of the fluid-scale sup deviation at each scale in r_list.

    initial_family maps a scale r to the unscaled integer initial state;
    the replications at one scale share its fluid_reference.  Replication j
    at scale index i uses stream.child(i).child(j); all scales' replications
    run through one replicate call on `workers` threads, so the table is the
    same for every number of workers.
    """
    r_list = list(r_list)
    if any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise StatsError("r_list must be strictly increasing")
    if replications < 1:
        raise StatsError("need at least one replication")
    cases = []
    for r in r_list:
        p = replace(params, scale_r=float(r))
        init = initial_family(r)
        if not isinstance(init, SystemState):
            init = SystemState(y=int(init[0]), x=int(init[1]))
        cases.append((p, init, fluid_reference(init, p, horizon)))

    def one_replicate(i, j, sub):
        p, init, reference = cases[i]
        traj = simulate_b(init, p, horizon=horizon, stream=sub,
                          sampling=GridSpec(dt=grid_dt))
        scaled = fluid_scale(traj)
        return sup_deviation(scaled, reference, scaled.t).sup

    rows = []
    for r, devs in zip(r_list, replicate(one_replicate, stream,
                                         (len(r_list), replications), workers)):
        devs = np.array(devs)
        rows.append(SweepRow(
            r=float(r), mean_dev=float(devs.mean()),
            std_dev=float(devs.std(ddof=1)) if replications >= 2 else float("nan"),
            n=replications, devs=tuple(devs.tolist())))
    mono = all(b.mean_dev < a.mean_dev for a, b in zip(rows, rows[1:]))
    return SweepTable(rows=tuple(rows), monotone_decreasing=mono,
                      context={"seed": stream.seed, "stream_path": list(stream.path),
                               "horizon": horizon, "grid_dt": grid_dt,
                               "replications": replications})
