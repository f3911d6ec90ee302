"""Exact event-by-event simulation of the invitation system.

Two control schemes share the same arrival/acceptance skeleton:

scheme B   the pending count X moves by +gamma on arrivals, -(gamma ^ X) on
           acceptances, and feedback events at rate epsilon*|Y| nudge X one
           step against the sign of Y (stalling at X = 0).
scheme A   a real-valued target is updated at queue changes and X is topped
           up to ceil(target) whenever it falls below; invitations are never
           withdrawn.

Holding times use competing exponential clocks.  A scheme-B run under a
time-varying arrival rate thins against the profile's declared bound;
scheme A and the drift windows run at the constant rate lam.  Per event the
uniform stream is consumed in a fixed order (scheme B: hold, pick,
thin-if-candidate; scheme A: hold, pick), which keeps seeded runs
reproducible bit for bit.  The simulators read it one value at a time from
blocks of _BUF draws.

Each loop logs an event's (t, kind, dy, dx) from the branch it took, into
arrays of the dtypes _LOG_DTYPES; dx is the whole move of X, scheme A's
top-up included.

Each scheme's transitions live in one loop: run_b in C and _loop_b in Python
for scheme B, run_a and _loop_a for scheme A, whose rates, transitions and
top-up all differ.  One dispatcher, _run, computes the arrival bound,
checks it against a library profile's peak, and sends a run to the C loop
or to its Python twin.  simulate_b and simulate_a run their loop once over
[0, horizon] on a grid, through the shared _sample; drift_replicates_b runs
the scheme-B loop as n restarted windows [0, dt] from one state, with no
grid, each window reading on from where the last one stopped.

Both loops run in C (_kernel.c, built on the first call and loaded through
ctypes by _native) when the library builds, and in Python otherwise.  The C
loops are the Python ones statement for statement: same uniforms in the same
order, same double expressions, so the two backends give the same grids,
event logs, event counts and drift replicates, bit for bit.  The one stated
exception is run_b's squeeze: it skips libm calls whose result cannot change
a branch (the sin of a thinning candidate whose fate bounds on the rate
already settle, and the log of a drift window whose first hold outlasts it),
so it still takes the Python loop's branches; _loop_b is the exact oracle.
The C code evaluates the rates of SinusoidArrival and
PiecewiseConstantArrival itself; a profile class that overrides __call__
runs the Python loop.  A compiled call releases the GIL.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _native
from ._csv import write_columns
from .params import (
    ArrivalRateFn,
    InviteSimError,
    ModelParams,
    PiecewiseConstantArrival,
    SinusoidArrival,
    _closed_form,
    _time_grid,
    validate_params,
)


class SimulationError(InviteSimError):
    pass


class HorizonZero(SimulationError):
    pass


class ThinningBoundViolated(SimulationError):
    pass


class DriverMismatch(SimulationError):
    pass


# event kind codes shared by the logs and the pathwise replay
K_ARRIVAL = 0
K_ACCEPT = 1
K_FEEDBACK_UP = 2    # Y < 0: one extra invitation
K_FEEDBACK_DOWN = 3  # Y > 0: one invitation withdrawn (no-op at X = 0)
K_REJECT = 4         # scheme A only

_BUF = 1 << 16
_LOG_CHUNK = 1 << 16  # event-log entries per buffer of a compiled run
# dtypes of an EventLog's t, kind, dy and dx, which _kernel.c's kstate log
# pointers point to
_LOG_DTYPES = (np.float64, np.int8, np.int8, np.int32)


@dataclass(frozen=True)
class RandomStream:
    """Seed plus a spawn path; equal values reproduce the same draws anywhere."""

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + (index,))


@dataclass(frozen=True)
class SystemState:
    y: int
    x: int
    x_target: float | None = None

    def __post_init__(self) -> None:
        if self.x < 0:
            raise SimulationError(f"pending count must be >= 0, got {self.x}")
        if self.x_target is not None and self.x_target < 0.0:
            raise SimulationError(f"x_target must be >= 0, got {self.x_target}")


@dataclass(frozen=True)
class GridSpec:
    dt: float = 0.01
    record_events: bool = False
    event_budget: int = 5_000_000

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise SimulationError(f"grid dt must be > 0, got {self.dt}")
        if self.event_budget <= 0:
            raise SimulationError("event budget must be > 0")


@dataclass(frozen=True)
class EventLog:
    """One entry per logged event: its time, kind (K_*) and the moves of Y and X."""

    t: np.ndarray
    kind: np.ndarray
    dy: np.ndarray
    dx: np.ndarray
    truncated: bool

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class Trajectory:
    """Grid samples of one run plus enough metadata to reproduce it."""

    scheme: str
    t: np.ndarray
    y: np.ndarray
    x: np.ndarray
    x_target: np.ndarray | None
    params: ModelParams
    arrival: ArrivalRateFn | None
    stream: RandomStream
    grid_dt: float
    horizon: float
    n_events: int
    events: EventLog | None = None

    @property
    def time_varying(self) -> bool:
        return self.arrival is not None

    def to_csv(self, path) -> None:
        cols = [self.t, self.y, self.x]
        if self.x_target is None:
            head, row = "t,y,x", "{:.10g},{},{}"
        else:
            cols.append(self.x_target)
            head, row = "t,y,x,x_target", "{:.10g},{},{},{:.10g}"
        write_columns(path, head, row, cols)


@dataclass(frozen=True)
class ScaledTrajectory:
    """A trajectory mapped onto one of the asymptotic scales."""

    t: np.ndarray
    y: np.ndarray
    x: np.ndarray
    scale: str  # "fluid-centered" | "fluid-uncentered" | "diffusion"
    scale_r: float
    x_target: np.ndarray | None = None

    def eval_on(self, grid: np.ndarray) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        if len(self.t) == 0 or grid.min() < self.t[0] - 1e-9 or grid.max() > self.t[-1] + 1e-9:
            from .stats import GridOutsideHorizon
            raise GridOutsideHorizon(
                f"grid [{grid.min()}, {grid.max()}] outside samples "
                f"[{self.t[0] if len(self.t) else '-'}, {self.t[-1] if len(self.t) else '-'}]")
        out = np.empty((len(grid), 2))
        out[:, 0] = np.interp(grid, self.t, self.y)
        out[:, 1] = np.interp(grid, self.t, self.x)
        return out


def _uniform_feed(gen: np.random.Generator):
    """A function returning `gen`'s next uniform; draws _BUF more when a block runs out."""
    return chain.from_iterable(iter(lambda: gen.random(_BUF).tolist(), None)).__next__


def _log_arrays(entries: list) -> tuple:
    """The Python loops' log entries (t, kind, dy, dx) as arrays of _LOG_DTYPES."""
    cols = list(zip(*entries)) or [()] * 4
    return tuple(np.array(c, dtype=d) for c, d in zip(cols, _LOG_DTYPES))


def _run_compiled(name: str, arrival: ArrivalRateFn | None, stream: RandomStream, **fields):
    """Run the compiled kernel `name`; (n_events, truncated, log (t, kind, dy, dx)).

    Returns None, to run the Python loop, when the library cannot be built or
    when a thinned profile computes its rate by a method _kernel.c does not
    mirror (a subclass overriding __call__).  `fields` are KernelState fields,
    arrays among them passed by address; run_b's windows restart from (y, x).
    The kernel reads its uniforms from a block of _BUF that it refills itself
    from the stream's bit generator, so it reads the stream the Python loop
    reads.  The log fills buffers of _LOG_CHUNK entries, and a full one is the
    only return before the run ends.
    """
    lib = _native.library()
    if lib is None:
        return None
    ks = _native.new_state(**{k: v.ctypes.data if isinstance(v, np.ndarray) else v
                              for k, v in fields.items()})
    ks.y0, ks.x0 = ks.y, ks.x
    if arrival is not None:
        kind = _closed_form(arrival)
        if kind is SinusoidArrival:
            ks.arrival = _native.ARR_SINUSOID
            ks.a_base, ks.a_amp, ks.a_period = arrival.base, arrival.amplitude, arrival.period
        elif kind is PiecewiseConstantArrival:
            ks.arrival = _native.ARR_PIECEWISE
            steps = (np.array(arrival.breakpoints, dtype=float),
                     np.array(arrival.values, dtype=float))
            ks.bp, ks.bv = (a.ctypes.data for a in steps)
            ks.n_bp = len(arrival.breakpoints)
        else:
            return None
    kernel = getattr(lib, name)
    bitgen = stream.generator().bit_generator  # alive while the kernel draws from it
    u = np.empty(_BUF)  # ui = n_u: the first draw fills it
    ks.u, ks.n_u, ks.ui = u.ctypes.data, _BUF, _BUF
    ks.bitgen = bitgen.ctypes.state_address
    ks.next_double = ctypes.cast(bitgen.ctypes.next_double, ctypes.c_void_p).value
    chunks = []

    def new_chunk():
        chunks.append([np.empty(_LOG_CHUNK, dtype=d) for d in _LOG_DTYPES])
        ks.log_t, ks.log_kind, ks.log_dy, ks.log_dx = (a.ctypes.data for a in chunks[-1])
        ks.log_cap, ks.log_n = _LOG_CHUNK, 0

    if ks.logging:
        new_chunk()
    while kernel(ks) != _native.K_DONE:  # K_LOG_FULL
        new_chunk()
    logged = ()
    if chunks:
        logged = tuple(np.concatenate([c[k] for c in chunks[:-1]] + [chunks[-1][k][:ks.log_n]])
                       for k in range(4))
    return ks.n_events, bool(ks.truncated), logged


def _loop_b(arrival: ArrivalRateFn | None, stream: RandomStream, *,
            beta: float, eps: float, bound_rate: float, bound: float, gamma_int: int,
            horizon: float, y: int, x: int, dtg: float = 0.0, n_grid: int = 0,
            ys: np.ndarray | None = None, xs: np.ndarray | None = None, tg: float = 0.0,
            budget: int = 0, logging: bool = False, n_reps: int = 0,
            out: np.ndarray | None = None):
    """run_b of _kernel.c in Python: the scheme-B event loop, same arguments and result.

    Runs [0, horizon] from (y, x), filling the grid from tg on and logging up
    to `budget` events.  With n_reps > 0 it runs n_reps such windows, each
    from (y, x) at t = 0 and reading on from where the last one stopped, and
    writes window i's (dY, dX) to out[i].  It evaluates every thinning
    candidate's rate and every hold's log: the exact oracle of run_b.  It
    tests each candidate's rate against the bound: the only check a profile
    that overrides __call__ gets, as _run checks a library profile's peak.
    """
    y0, x0 = y, x
    entries: list[tuple] = []
    log_event = entries.append
    truncated = False
    gi = 0

    draw = _uniform_feed(stream.generator())
    log = math.log
    n_events = 0

    for rep in range(n_reps or 1):
        y, x, t = y0, x0, 0.0
        while True:
            acc = beta * x
            fb = eps * (y if y > 0 else -y)
            total = bound_rate + acc + fb
            if total <= 0.0:
                break
            tn = t + -log(1.0 - draw()) / total
            while tg < tn:
                ys[gi] = y
                xs[gi] = x
                gi += 1
                tg = gi * dtg if gi < n_grid else math.inf
            if tn > horizon:
                break
            t = tn
            pick = draw() * total
            if pick < bound_rate:
                if arrival is not None:
                    lam_t = arrival(t)
                    if lam_t > bound * (1.0 + 1e-9):
                        raise ThinningBoundViolated(
                            f"arrival rate {lam_t} exceeds declared bound {bound} at t={t}")
                    if not draw() * bound < lam_t:
                        continue
                kind, dy, dx = K_ARRIVAL, -1, gamma_int
            elif pick < bound_rate + acc:
                kind, dy, dx = K_ACCEPT, 1, -(gamma_int if x >= gamma_int else x)
            else:
                # one more invitation when Y < 0, one fewer when Y > 0, none
                # at X = 0 with Y >= 0 (a null withdrawal)
                dy = 0
                dx = (-1 if y > 0 else 1) if x >= 1 else (1 if y < 0 else 0)
                kind = K_FEEDBACK_UP if dx == 1 else K_FEEDBACK_DOWN
            y += dy
            x += dx
            n_events += 1
            if logging:
                if n_events <= budget:
                    log_event((t, kind, dy, dx))
                else:
                    truncated = True
                    logging = False
        if n_reps:
            out[rep] = y - y0, x - x0

    while gi < n_grid:
        ys[gi] = y
        xs[gi] = x
        gi += 1
    return n_events, truncated, _log_arrays(entries)


def _loop_a(arrival: None, stream: RandomStream, *,
            beta: float, eps: float, beta_t: float, gamma: float, bound_rate: float,
            bound: float, horizon: float, y: int, x: int, target: float, dtg: float,
            n_grid: int, ys: np.ndarray, xs: np.ndarray, tgts: np.ndarray,
            budget: int, logging: bool):
    """run_a of _kernel.c in Python: the scheme-A event loop, same arguments and result.

    Runs [0, horizon] from (y, x) and the target at the constant rate, so
    `arrival` is None, filling the grid and logging up to `budget` events.
    """
    entries: list[tuple] = []
    log_event = entries.append
    truncated = False
    gi = 0
    tg = 0.0  # gi * dtg, or inf once the grid is full

    draw = _uniform_feed(stream.generator())
    log = math.log
    ceil = math.ceil
    t = last_change = 0.0
    n_events = 0

    while True:
        acc = beta * x
        rej = beta_t * x
        total = bound_rate + acc + rej
        if total <= 0.0:
            break
        tn = t + -log(1.0 - draw()) / total
        while tg < tn:
            ys[gi] = y
            xs[gi] = x
            tgts[gi] = target
            gi += 1
            tg = gi * dtg if gi < n_grid else math.inf
        if tn > horizon:
            break
        t = tn
        x_pre = x
        pick = draw() * total
        if pick < bound_rate:
            kind, dy = K_ARRIVAL, -1
            target = max(0.0, target + gamma - eps * y * (t - last_change))
            last_change = t
        elif pick < bound_rate + acc:
            kind, dy = K_ACCEPT, 1
            x -= 1
            target = max(0.0, target - gamma - eps * y * (t - last_change))
            last_change = t
        else:
            kind, dy = K_REJECT, 0
            x -= 1
        y += dy
        if x < target:
            x = ceil(target)
        n_events += 1
        if logging:
            if n_events <= budget:
                log_event((t, kind, dy, x - x_pre))
            else:
                truncated = True
                logging = False

    while gi < n_grid:
        ys[gi] = y
        xs[gi] = x
        tgts[gi] = target
        gi += 1
    return n_events, truncated, _log_arrays(entries)


def _run(kernel: str, loop, params: ModelParams, arrival: ArrivalRateFn | None,
         stream: RandomStream, **fields):
    """A run of the compiled `kernel`, or of its Python twin `loop` where that cannot run.

    `fields` are the run's KernelState fields other than the rates both
    schemes share, which come from `params` and `arrival`.  A library
    profile's peak must lie within the bound, up to 1e-9 of it, before the
    first draw.
    """
    r = params.scale_r
    bound_rate = (params.lam if arrival is None else arrival.bound()) * r
    bound = bound_rate / r
    kind = None if arrival is None else _closed_form(arrival)
    peak = None if kind is None else kind.bound(arrival)  # the library's own peak
    if peak is not None and not peak <= bound * (1.0 + 1e-9):
        raise ThinningBoundViolated(f"arrival rate peak {peak} exceeds declared bound {bound}")
    fields.update(beta=params.beta, eps=params.epsilon, bound_rate=bound_rate, bound=bound)
    result = _run_compiled(kernel, arrival, stream, **fields)
    return loop(arrival, stream, **fields) if result is None else result


def _sample(scheme: str, params: ModelParams, arrival: ArrivalRateFn | None,
            stream: RandomStream, horizon: float, sampling: GridSpec | None,
            y: int, x: int, **fields) -> Trajectory:
    """One run of `scheme` over [0, horizon] from (y, x), sampled on the grid.

    `fields` are the scheme's own KernelState fields; scheme A's grid also
    samples the target.
    """
    sampling = sampling or GridSpec()
    kernel, loop = ("run_a", _loop_a) if scheme == "A" else ("run_b", _loop_b)
    ts = _time_grid(horizon, sampling.dt)
    ys = np.empty(len(ts), dtype=np.int64)
    xs = np.empty(len(ts), dtype=np.int64)
    if scheme == "A":
        fields["tgts"] = np.empty(len(ts))
    n_events, truncated, logged = _run(
        kernel, loop, params, arrival, stream, horizon=horizon, dtg=sampling.dt,
        n_grid=len(ts), ys=ys, xs=xs, budget=sampling.event_budget,
        logging=sampling.record_events, y=y, x=x, **fields)
    events = EventLog(*logged, truncated=truncated) if sampling.record_events else None
    return Trajectory(scheme=scheme, t=ts, y=ys, x=xs, x_target=fields.get("tgts"),
                      params=params, arrival=arrival, stream=stream,
                      grid_dt=sampling.dt, horizon=horizon, n_events=n_events,
                      events=events)


def simulate_b(initial: SystemState | tuple[int, int], params: ModelParams,
               horizon: float, stream: RandomStream,
               arrival: ArrivalRateFn | None = None,
               sampling: GridSpec | None = None) -> Trajectory:
    """Run scheme B exactly over [0, horizon], sampling on a uniform grid."""
    if horizon <= 0.0:
        raise HorizonZero(f"horizon must be > 0, got {horizon}")
    validate_params(params, scheme="B")
    if isinstance(initial, tuple):
        initial = SystemState(y=initial[0], x=initial[1])
    return _sample("B", params, arrival, stream, horizon, sampling, int(initial.y),
                   int(initial.x), gamma_int=int(params.gamma))


def drift_replicates_b(initial: SystemState | tuple[int, int], params: ModelParams,
                       dt: float, n_replicates: int, stream: RandomStream) -> np.ndarray:
    """(dY, dX) totals over [0, dt] for n_replicates independent restarts.

    Each replicate is a window of the scheme-B loop: a run over [0, dt] from
    `initial` at the constant rate lam, without a grid.  One generator serves
    all of them, each starting at the uniform after the previous replicate's
    last.  A quiet replicate, whose first holding time already exceeds dt,
    consumes that one uniform and leaves its row at (0, 0).  Used by the
    generator drift check.
    """
    if dt <= 0.0:
        raise HorizonZero(f"dt must be > 0, got {dt}")
    validate_params(params, scheme="B")
    if isinstance(initial, tuple):
        initial = SystemState(y=initial[0], x=initial[1])
    out = np.empty((n_replicates, 2), dtype=np.int64)  # both loops write every row
    _run("run_b", _loop_b, params, None, stream, gamma_int=int(params.gamma),
         horizon=dt, tg=math.inf, y=int(initial.y), x=int(initial.x),
         n_reps=n_replicates, out=out)
    return out


def simulate_a(initial: SystemState, params: ModelParams, horizon: float,
               stream: RandomStream, sampling: GridSpec | None = None) -> Trajectory:
    """Run scheme A (invitation targets with ceiling replenishment) at the
    constant arrival rate lam.

    The target moves at queue changes by -gamma*dY - epsilon*Y*elapsed, with Y
    its pre-change value and elapsed the time since the previous queue change;
    it is clipped at zero.  After every event, X below the target is topped up
    to ceil(target).  Rejections remove one pending invitation and do not
    touch the target or the elapsed-time clock.
    """
    if horizon <= 0.0:
        raise HorizonZero(f"horizon must be > 0, got {horizon}")
    validate_params(params, scheme="A")
    if initial.x_target is None:
        raise SimulationError("scheme A needs an initial x_target")
    return _sample("A", params, None, stream, horizon, sampling, int(initial.y),
                   int(initial.x), beta_t=params.beta_tilde, gamma=params.gamma,
                   target=float(initial.x_target))


# ---------------------------------------------------------------------------
# scalings
# ---------------------------------------------------------------------------

def _rescale(traj: Trajectory, shift: float, root: float, scale: str) -> ScaledTrajectory:
    """(y, x - shift) / root, the target mapped like x."""
    tgt = None if traj.x_target is None else (traj.x_target - shift) / root
    return ScaledTrajectory(t=traj.t, y=traj.y / root, x=(traj.x - shift) / root,
                            scale=scale, scale_r=traj.params.scale_r, x_target=tgt)


def fluid_scale(traj: Trajectory) -> ScaledTrajectory:
    """(y, x)/r in the view of the run's fluid limit.

    A constant-rate run recentres the pending count at lam*r/beta; a
    time-varying one keeps it raw, the view of solve_fluid_tv.
    """
    p = traj.params
    if traj.time_varying:
        return _rescale(traj, 0.0, p.scale_r, "fluid-uncentered")
    return _rescale(traj, p.center_x, p.scale_r, "fluid-centered")


def diffusion_scale(traj: Trajectory) -> ScaledTrajectory:
    """(y, x - lam*r/beta) / sqrt(r)."""
    p = traj.params
    return _rescale(traj, p.center_x, math.sqrt(p.scale_r), "diffusion")


# ---------------------------------------------------------------------------
# pathwise replay through the reflection map
# ---------------------------------------------------------------------------

# dy of each scheme-B kind, indexed by K_*
_KIND_DY = np.array([-1, 1, 0, 0], dtype=np.int8)


def reflect_representation(initial: SystemState | tuple[int, int], events: EventLog,
                           params: ModelParams) -> np.ndarray:
    """Rebuild the pending count from driver ticks via one-sided reflection.

    The free walk Z moves by +gamma per arrival tick, -gamma per acceptance
    tick, and +/-1 per feedback tick regardless of the direct rule's stalls
    and truncations; the reflected path Z(t) + max(0, -min Z) must reproduce
    X exactly.  Returns X after each logged event.  Raises DriverMismatch if
    the logged queue increments contradict the event kinds.
    """
    if isinstance(initial, tuple):
        initial = SystemState(y=initial[0], x=initial[1])
    if not float(params.gamma).is_integer():
        raise SimulationError("pathwise replay needs integer gamma")
    gamma = int(params.gamma)
    kinds = events.kind
    if kinds.size and (kinds.min() < K_ARRIVAL or kinds.max() > K_FEEDBACK_DOWN):
        raise DriverMismatch("replay supports scheme-B event kinds only")
    if not np.array_equal(_KIND_DY[kinds], events.dy):
        raise DriverMismatch("queue increments inconsistent with event kinds")
    # the free walk's step of each kind, indexed by K_*
    z = np.cumsum(np.array([gamma, -gamma, 1, -1], dtype=np.int64)[kinds])
    z += int(initial.x)
    # X0 >= 0, so the regulator max(0, -min(X0, running min of Z)) is
    # -min(0, running min of Z)
    low = np.minimum.accumulate(z)
    np.minimum(low, 0, out=low)
    z -= low
    return z
