"""Deterministic scaled limits in closed form, for constant and time-varying
arrival rates.

Constant rate: away from the floor x = -lam/beta the path is a sum of two
decaying eigenmodes; on the floor it slides with y' = -lam until y reaches
gamma*lam/epsilon and lifts off.  The gap to the floor has at most one
extremum, which settles whether the path meets the floor and brackets where.
A path enters the floor at most once, so a full solution is at most
interior/boundary/interior.

Time-varying rate: the uncentered pair (y, x) follows a piecewise-smooth field
with the same floor structure at x = 0.  Off the floor the path is a particular
solution for the rate profile plus the same two eigenmodes; on the floor y
falls by the cumulative arrival rate.  Both are evaluated exactly on the
output grid, and floor entries and exits are located by bisection between
grid points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_columns
from .params import (
    ArrivalRateFn,
    ConstantArrival,
    InviteSimError,
    ModelParams,
    PiecewiseConstantArrival,
    SinusoidArrival,
    SpectralData,
    _grid_stride,
    _time_grid,
    drift_matrix,
    spectral_decompose,
    star_coords,
    validate_params,
)


class FluidSolverError(InviteSimError):
    pass


class InvalidInitial(FluidSolverError):
    pass


@dataclass(frozen=True)
class FluidState:
    y: float
    x: float

    def as_array(self) -> np.ndarray:
        return np.array([self.y, self.x])


@dataclass(frozen=True)
class InteriorSegment:
    t0: float
    duration: float
    alpha1: float
    alpha2: float
    kind: str = "interior"


@dataclass(frozen=True)
class BoundarySegment:
    t0: float
    duration: float
    y_start: float
    kind: str = "boundary"


@dataclass(frozen=True)
class FluidTrajectory:
    """Piecewise closed-form path of the centered fluid pair (y, x)."""

    params: ModelParams
    spec: SpectralData
    segments: tuple
    horizon: float

    @property
    def boundary_segments(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, BoundarySegment))

    def _segment_index(self, ts: np.ndarray) -> np.ndarray:
        """Index of the segment that holds each time of ts."""
        starts = np.array([s.t0 for s in self.segments])
        return np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, len(self.segments) - 1)

    def states(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < -1e-12 or ts.max() > self.horizon * (1 + 1e-12) + 1e-12):
            raise FluidSolverError(
                f"evaluation times outside [0, {self.horizon}]")
        idx = self._segment_index(ts)
        out = np.empty((ts.size, 2))
        spec = self.spec
        lam, beta = self.params.lam, self.params.beta
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if not mask.any():
                continue
            tau = ts[mask] - seg.t0
            if isinstance(seg, InteriorSegment):
                c1 = seg.alpha1 * np.exp(-spec.nu1 * tau)
                c2 = seg.alpha2 * np.exp(-spec.nu2 * tau)
                out[mask, 0] = c1 * spec.a1 + c2 * spec.a2
                out[mask, 1] = -(c1 + c2)
            else:
                out[mask, 0] = seg.y_start - lam * tau
                out[mask, 1] = -lam / beta
        return out

    def state(self, t: float) -> np.ndarray:
        return self.states(np.array([t]))[0]

    def segment_kinds(self, ts) -> list[str]:
        return [self.segments[i].kind for i in self._segment_index(np.asarray(ts, dtype=float))]

    def eval_on(self, grid: np.ndarray) -> np.ndarray:
        return self.states(grid)

    def to_csv(self, path, dt: float = 0.05) -> None:
        ts = _time_grid(self.horizon, dt)
        vals = self.states(ts)
        _write_fluid_csv(path, ts, vals[:, 0], vals[:, 1], self.segment_kinds(ts))


def _write_fluid_csv(path, t, y, x, kinds) -> None:
    """fluid.csv from the arrays t, y, x and a list of segment kinds."""
    # + 0.0 drops negative zeros
    write_columns(path, "t,y,x,segment_kind", "{:.10g},{:.12g},{:.12g},{}",
                  [t, y + 0.0, x + 0.0, kinds])


def interior_solution(initial, dt: float, spec: SpectralData) -> FluidState:
    """Closed-form interior propagation of (y, x) by elapsed time dt."""
    u = initial.as_array() if isinstance(initial, FluidState) else np.asarray(initial, dtype=float)
    al = star_coords(u, spec)
    c1 = al[0] * math.exp(-spec.nu1 * dt)
    c2 = al[1] * math.exp(-spec.nu2 * dt)
    return FluidState(y=c1 * spec.a1 + c2 * spec.a2, x=-(c1 + c2))


def boundary_hit_time(initial, params: ModelParams,
                      spec: SpectralData | None = None) -> float | None:
    """Smallest t > 0 where the interior closed form reaches x = -lam/beta.

    The gap g(t) = x(t) + lam/beta = lam/beta - a1 e^{-nu1 t} - a2 e^{-nu2 t}
    starts positive off the floor, tends to lam/beta > 0 and has at most one
    extremum, at t_crit = ln(-nu2 a2 / (nu1 a1)) / (nu2 - nu1).  So the path
    touches the floor iff t_crit > 0 and g(t_crit) <= 0, and the first
    contact is the one sign change of g on (0, t_crit], bisected to 1e-12.
    Returns None when the path stays above the floor.
    """
    if spec is None:
        spec = spectral_decompose(params)
    u = initial.as_array() if isinstance(initial, FluidState) else np.asarray(initial, dtype=float)
    al = star_coords(u, spec)
    a1, a2 = float(al[0]), float(al[1])
    nu1, nu2 = spec.nu1, spec.nu2
    level = params.lam / params.beta

    def gap(t):
        # x(t) + lam/beta; positive strictly inside the admissible region
        return level - a1 * math.exp(-nu1 * t) - a2 * math.exp(-nu2 * t)

    # starting on the floor with the flow still pushing in counts as an
    # immediate hit; gap'(0) < 0 is exactly y0 > gamma*lam/epsilon.
    on_floor = gap(0.0) <= 1e-12 * max(1.0, level)
    if on_floor and nu1 * a1 + nu2 * a2 < -1e-9 * max(1.0, abs(a1) + abs(a2)):
        return 0.0
    # otherwise gap'(0) is at most rounding dust, as at the exit corner after a
    # slide; with gap''(0) > 0 (epsilon*lam there) the path lifts off
    # tangentially and a contact at t ~ 1e-16 is rounding.  The gap has at
    # most one extremum, so no later contact exists either.
    if on_floor and nu1 * nu1 * a1 + nu2 * nu2 * a2 < 0.0:
        return None

    # gap'(t) = nu1 a1 e^{-nu1 t} + nu2 a2 e^{-nu2 t} vanishes once, at t_crit,
    # and t_crit > 0 iff the ratio exceeds 1; without it g is monotone on t > 0
    ratio = -nu2 * a2 / (nu1 * a1) if a1 != 0.0 else 0.0
    if ratio <= 1.0:
        return None
    lo, hi = 0.0, math.log(ratio) / (nu2 - nu1)
    if gap(hi) > 0.0:
        return None
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_fluid(initial, params: ModelParams, horizon: float) -> FluidTrajectory:
    """Exact constant-rate fluid path as at most interior/boundary/interior."""
    validate_params(params, scheme="A")
    if horizon <= 0.0:
        raise FluidSolverError(f"horizon must be > 0, got {horizon}")
    spec = spectral_decompose(params)
    if isinstance(initial, FluidState):
        y0, x0 = initial.y, initial.x
    else:
        y0, x0 = float(initial[0]), float(initial[1])
    floor = -params.lam / params.beta
    exit_y = params.boundary_exit_y
    tol = 1e-9 * max(1.0, abs(floor))
    if x0 < floor - tol:
        raise InvalidInitial(f"x={x0} below the floor {floor}")
    x0 = max(x0, floor)

    segments: list = []
    cursor = 0.0
    y, x = y0, x0
    on_floor = x <= floor + 1e-12 * max(1.0, abs(floor))
    mode = "boundary" if (on_floor and y > exit_y + 1e-12) else "interior"
    if on_floor:
        x = floor

    while cursor < horizon:
        remaining = horizon - cursor
        if len(segments) > 3:
            raise FluidSolverError("segment structure exceeded interior/boundary/interior")
        if mode == "interior":
            al = star_coords((y, x), spec)
            t_hit = boundary_hit_time(FluidState(y, x), params, spec)
            if t_hit is None or t_hit >= remaining:
                segments.append(InteriorSegment(t0=cursor, duration=remaining,
                                                alpha1=float(al[0]), alpha2=float(al[1])))
                cursor = horizon
                break
            segments.append(InteriorSegment(t0=cursor, duration=t_hit,
                                            alpha1=float(al[0]), alpha2=float(al[1])))
            hit = interior_solution(FluidState(y, x), t_hit, spec)
            cursor += t_hit
            y, x = hit.y, floor
            mode = "boundary" if y > exit_y + 1e-12 else "interior"
            if mode == "interior" and cursor < horizon:
                # grazing contact: the path touches the floor and lifts off
                y = min(y, exit_y)
        else:
            dur = (y - exit_y) / params.lam
            d = min(dur, remaining)
            segments.append(BoundarySegment(t0=cursor, duration=d, y_start=y))
            cursor += d
            y = y - params.lam * d
            x = floor
            mode = "interior"
    return FluidTrajectory(params=params, spec=spec, segments=tuple(segments),
                           horizon=horizon)


# ---------------------------------------------------------------------------
# time-varying arrival rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TVFluidTrajectory:
    """Sampled uncentered fluid path under a time-varying arrival rate."""

    params: ModelParams
    arrival: ArrivalRateFn
    t: np.ndarray
    y: np.ndarray
    x: np.ndarray
    on_floor: np.ndarray
    dt: float
    horizon: float

    def states(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < -1e-12 or ts.max() > self.horizon * (1 + 1e-12) + 1e-12):
            raise FluidSolverError(f"evaluation times outside [0, {self.horizon}]")
        out = np.empty((ts.size, 2))
        out[:, 0] = np.interp(ts, self.t, self.y)
        out[:, 1] = np.interp(ts, self.t, self.x)
        return out

    def state(self, t: float) -> np.ndarray:
        return self.states(np.array([t]))[0]

    def eval_on(self, grid: np.ndarray) -> np.ndarray:
        return self.states(grid)

    def to_csv(self, path, dt: float = 0.05) -> None:
        """fluid.csv every dt, a whole multiple of the solver's sample spacing."""
        rows = slice(None, None, _grid_stride(dt, self.dt, FluidSolverError))
        kinds = ["boundary" if f else "interior" for f in self.on_floor[rows].tolist()]
        _write_fluid_csv(path, self.t[rows], self.y[rows], self.x[rows], kinds)


# evaluate the output grid this many points at a time, so the temporaries of
# the closed forms stay small next to the preallocated output arrays
_CHUNK = 16384


class _PieceFlow:
    """Closed forms of the uncentered field while lam(t) = base + amp*sin(omega*t).

    Off the floor u = (y, x) follows u' = u A + lam(t) B with B = (-1, gamma);
    a particular path is p(t) = (0, base/beta) + Im(z e^{i omega t}) with
    z (i omega I - A) = amp B, and u - p is a sum of the two eigenmodes.  On
    the floor y' = -lam(t) integrates in closed form.
    """

    def __init__(self, params: ModelParams, spec: SpectralData,
                 arrival: ArrivalRateFn, t0: float):
        if isinstance(arrival, SinusoidArrival):
            self.base, self.amp = arrival.base, arrival.amplitude
            self.omega = 2.0 * math.pi / arrival.period
        elif isinstance(arrival, (ConstantArrival, PiecewiseConstantArrival)):
            # right-continuous, so the rate at t0 holds until the next jump
            self.base, self.amp, self.omega = arrival(t0), 0.0, 0.0
        else:
            raise FluidSolverError(f"no closed form for the arrival profile {arrival!r}")
        self.params, self.spec = params, spec
        self.z = np.zeros(2, dtype=complex)
        if self.amp:
            a = drift_matrix(params)
            self.z = np.linalg.solve((1j * self.omega * np.eye(2) - a).T,
                                     self.amp * np.array([-1.0, params.gamma]))

    def liftoff(self, t, y):
        """gamma*lam(t) - epsilon*y: x' at x = 0, so the floor holds while <= 0."""
        rate = self.base + self.amp * np.sin(self.omega * t)
        return self.params.gamma * rate - self.params.epsilon * y

    def _particular(self, t):
        s, c = np.sin(self.omega * t), np.cos(self.omega * t)
        return (self.z[0].real * s + self.z[0].imag * c,
                self.base / self.params.beta + self.z[1].real * s + self.z[1].imag * c)

    def interior(self, t_a: float, y_a: float, x_a: float):
        """(y, x) at times ts of the path through (y_a, x_a) at t_a."""
        spec = self.spec
        py, px = self._particular(t_a)
        a1, a2 = star_coords((y_a - py, x_a - px), spec)

        def states(ts):
            c1 = a1 * np.exp(-spec.nu1 * (ts - t_a))
            c2 = a2 * np.exp(-spec.nu2 * (ts - t_a))
            py, px = self._particular(ts)
            return py + c1 * spec.a1 + c2 * spec.a2, px - (c1 + c2)
        return states

    def floor(self, t_a: float, y_a: float):
        """(y, 0) at times ts of the slide through y_a at t_a."""
        def states(ts):
            fall = self.base * (ts - t_a)
            if self.amp:
                fall = fall - self.amp / self.omega * (np.cos(self.omega * ts)
                                                       - math.cos(self.omega * t_a))
            return y_a - fall, np.zeros_like(ts)
        return states


def _checkpoints(ts_out: np.ndarray, i: int, t_end: float):
    """Chunks (first grid index, times, on grid) of the grid points from index
    i up to t_end, closed by t_end itself when it is not a grid point."""
    j_end = int(np.searchsorted(ts_out, t_end, side="right"))
    while i < j_end:
        j = min(i + _CHUNK, j_end)
        yield i, ts_out[i:j], True
        i = j
    if j_end == 0 or ts_out[j_end - 1] < t_end:
        yield j_end, np.array([t_end]), False


def solve_fluid_tv(initial, arrival: ArrivalRateFn | None, params: ModelParams,
                   horizon: float, dt: float = 1e-3) -> TVFluidTrajectory:
    """Exact uncentered pair (y, x) on the grid 0, dt, 2 dt, ... up to horizon.

    Off the floor: y' = beta*x - lam(t), x' = gamma*lam(t) - gamma*beta*x -
    epsilon*y, solved as a particular path for the rate profile plus two
    decaying eigenmodes (constant rate: the fixed point (0, lam/beta);
    sinusoid: that of the base rate plus a phase-shifted sinusoid).  On the
    floor x = 0 (entered while gamma*lam(t) - epsilon*y <= 0): y' = -lam(t),
    so y falls by the cumulative rate, and x stays 0 until the lift-off
    expression turns positive.  Floor entry is detected at the first grid
    point with x < 0 and lift-off at the first with a positive lift-off
    expression, each then located by bisection on the closed form.  A
    piecewise-constant profile restarts the closed form at its jump times,
    which are checked like grid points.  dt is the output grid spacing only.
    """
    validate_params(params, scheme="A")
    if horizon <= 0.0 or dt <= 0.0:
        raise FluidSolverError("horizon and dt must be > 0")
    if arrival is None:
        arrival = ConstantArrival(params.lam)
    y0, x0 = (initial.y, initial.x) if isinstance(initial, FluidState) else (
        float(initial[0]), float(initial[1]))
    if x0 < -1e-12:
        raise InvalidInitial(f"x={x0} negative")
    x0 = max(x0, 0.0)
    spec = spectral_decompose(params)

    ts_out = _time_grid(horizon, dt)
    n = len(ts_out)
    ys = np.empty(n)
    xs = np.empty(n)
    floors = np.zeros(n, dtype=bool)
    t, y, x = 0.0, y0, x0
    i = 1  # next grid point to fill
    on_floor = x <= 0.0 and params.gamma * arrival(0.0) - params.epsilon * y <= 0.0
    if on_floor:
        x = 0.0
    ys[0], xs[0], floors[0] = y, x, on_floor

    for t_end in [*arrival.jump_times(0.0, ts_out[-1]), ts_out[-1]]:
        flow = _PieceFlow(params, spec, arrival, t)
        stall = 0  # mode switches since the last checkpoint passed
        while t < t_end:
            if not on_floor and x <= 0.0:
                x = 0.0
                on_floor = flow.liftoff(t, y) <= 0.0
            elif on_floor and flow.liftoff(t, y) > 0.0:
                on_floor = False
            if i < n and ts_out[i] <= t:  # a switch or step landed on this grid point
                ys[i], xs[i], floors[i] = y, x, on_floor
                i += 1
            if stall >= 3:
                # an exact tie keeps the two modes trading places without
                # passing a checkpoint; one clamped interior step breaks it
                tc = ts_out[i] if i < n and ts_out[i] <= t_end else t_end
                y, x = flow.interior(t, y, x)(tc)
                t, x = tc, max(x, 0.0)
                on_floor = x == 0.0 and flow.liftoff(t, y) <= 0.0
                stall = 0
                continue
            path = flow.floor(t, y) if on_floor else flow.interior(t, y, x)

            def leaves(ts, py, px, _floor=on_floor):
                return flow.liftoff(ts, py) > 0.0 if _floor else px < 0.0

            lo = t
            for g, times, on_grid in _checkpoints(ts_out, i, t_end):
                cy, cx = path(times)
                bad = np.flatnonzero(leaves(times, cy, cx))
                k = int(bad[0]) if bad.size else len(times)
                if on_grid:
                    ys[g:g + k], xs[g:g + k], floors[g:g + k] = cy[:k], cx[:k], on_floor
                    i = g + k
                if k < len(times):
                    stall = stall + 1 if k == 0 and lo == t else 1
                    if k > 0:
                        lo = float(times[k - 1])
                    hi = float(times[k])
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        my, mx = path(mid)
                        if leaves(mid, my, mx):
                            hi = mid
                        else:
                            lo = mid
                    # land on the last point with x >= 0 at a floor entry, or
                    # the first with a positive lift-off expression at a lift-off
                    t = hi if on_floor else lo
                    y, x = path(t)[0], 0.0
                    on_floor = flow.liftoff(t, y) <= 0.0
                    break
                lo = float(times[-1])
            else:
                t, y, x = t_end, cy[-1], cx[-1]
                stall = 0
    if i < n:  # the last switch or step landed on the last grid point
        ys[i:], xs[i:], floors[i:] = y, x, on_floor
    return TVFluidTrajectory(params=params, arrival=arrival, t=ts_out, y=ys,
                             x=xs, on_floor=floors, dt=dt, horizon=horizon)


# ---------------------------------------------------------------------------
# drift audit of the weighted norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftReport:
    interior_ratio_min: float | None
    interior_ratio_max: float | None
    boundary_drift_max: float | None
    boundary_segments: int
    points_checked: int
    grid_dt: float


def drift_check(traj: FluidTrajectory, spec: SpectralData | None = None,
                grid_dt: float = 0.01) -> DriftReport:
    """Exact d/dt of the weighted norm n = |alpha|, alpha = u @ basis_inv,
    every grid_dt along each segment.

    Interior points report the decay ratio -n'/n = (nu1 c1^2 + nu2 c2^2) /
    (c1^2 + c2^2) of the mode coefficients c_i = alpha_i e^{-nu_i t}, which
    never falls below the slow rate nu1; boundary points report
    n' = (alpha . alpha')/n with alpha' = (-lam, 0) @ basis_inv, which
    should be strictly negative.  Points with n = 0 are skipped.
    """
    spec = spec or traj.spec
    lam, beta = traj.params.lam, traj.params.beta
    slide = np.array([-lam, 0.0]) @ spec.basis_inv
    ratios: list[float] = []
    bdrifts: list[float] = []
    for seg in traj.segments:
        taus = np.arange(0.0, seg.duration, grid_dt)
        interior = isinstance(seg, InteriorSegment)
        if interior:
            al = np.stack([seg.alpha1 * np.exp(-spec.nu1 * taus),
                           seg.alpha2 * np.exp(-spec.nu2 * taus)], axis=-1)
        else:
            al = np.stack([seg.y_start - lam * taus, np.full_like(taus, -lam / beta)],
                          axis=-1) @ spec.basis_inv
        n = np.hypot(al[:, 0], al[:, 1])
        # unit vectors, so the squares of tiny coefficients cannot underflow
        e = al[n > 0.0] / n[n > 0.0, None]
        if interior:
            ratios.extend((e * e @ [spec.nu1, spec.nu2]).tolist())
        else:
            bdrifts.extend((e @ slide).tolist())
    return DriftReport(
        interior_ratio_min=min(ratios) if ratios else None,
        interior_ratio_max=max(ratios) if ratios else None,
        boundary_drift_max=max(bdrifts) if bdrifts else None,
        boundary_segments=traj.boundary_segments,
        points_checked=len(ratios) + len(bdrifts),
        grid_dt=grid_dt,
    )
