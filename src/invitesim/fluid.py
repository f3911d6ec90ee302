"""Deterministic scaled limits in closed form, for every arrival profile.

One segment solver serves constant, piecewise-constant and sinusoidal
rates.  Off the floor the pair (y, x) is a particular path of the current
arrival piece plus two decaying eigenmodes; on the floor y falls by the
cumulative arrival rate until gamma*lam(t) - epsilon*y turns positive and
the path lifts off.  The path is a sequence of such segments, each exact
at any t: no output grid enters the solution.  solve_fluid works in the
centred view (floor at x = -lam/beta, constant rate lam), solve_fluid_tv
in the uncentred one (floor at x = 0).

Constant pieces: the gap to the floor has at most one extremum, which
settles whether the path meets the floor and brackets where, and lift-off
comes at y = gamma*lam/epsilon.  At constant rate a path enters the floor
at most once, so a full solution is at most interior/boundary/interior.
A piecewise-constant profile restarts the closed form at its jump times.

Sinusoidal pieces: floor contacts and lift-offs are bracketed by a scan
whose intervals are certified clear by a bound on the second derivative
of the closed form, so no contact is missed, however short.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._csv import write_columns
from .params import (
    ArrivalRateFn,
    InviteSimError,
    ModelParams,
    SinusoidArrival,
    SpectralData,
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
    flow: "_PieceFlow | None" = field(default=None, repr=False, compare=False)

    def states(self, ts):
        return self.flow.interior(self.t0, self.alpha1, self.alpha2, ts)


@dataclass(frozen=True)
class BoundarySegment:
    t0: float
    duration: float
    y_start: float
    kind: str = "boundary"
    flow: "_PieceFlow | None" = field(default=None, repr=False, compare=False)

    def states(self, ts):
        return self.flow.floor(self.t0, self.y_start, ts)


@dataclass(frozen=True)
class FluidTrajectory:
    """Piecewise closed-form fluid path (y, x); t holds the segment start
    times, closed by the horizon."""

    params: ModelParams
    spec: SpectralData
    segments: tuple
    horizon: float
    t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", np.array([s.t0 for s in self.segments] + [self.horizon]))

    @property
    def boundary_segments(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, BoundarySegment))

    def _split(self, ts):
        """ts as an array and cuts, with ts[cuts[i]:cuts[i + 1]] the times in
        segment i; a segment start belongs to the segment it starts."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and not (-1e-12 <= ts[0] and ts[-1] <= self.horizon * (1 + 1e-12) + 1e-12):
            raise FluidSolverError(f"evaluation times outside [0, {self.horizon}]")
        if not np.all(np.diff(ts) >= 0.0):
            raise FluidSolverError("evaluation times must be nondecreasing")
        return ts, [0, *np.searchsorted(ts, self.t[1:-1]), ts.size]

    def states(self, ts) -> np.ndarray:
        """(y, x) at each of the nondecreasing times ts, as an (n, 2) array."""
        ts, cuts = self._split(ts)
        out = np.empty((ts.size, 2))
        for seg, lo, hi in zip(self.segments, cuts, cuts[1:]):
            if hi > lo:
                out[lo:hi, 0], out[lo:hi, 1] = seg.states(ts[lo:hi])
        return out

    def state(self, t: float) -> np.ndarray:
        return self.states([t])[0]

    def segment_kinds(self, ts) -> np.ndarray:
        """The kind of the segment at each of `ts`, as a bytes array (b"interior"
        or b"boundary"), which write_columns formats in C."""
        ts, cuts = self._split(ts)
        return np.repeat(np.array([s.kind for s in self.segments], dtype="S"), np.diff(cuts))

    def to_csv(self, path, dt: float = 0.05) -> None:
        ts = _time_grid(self.horizon, dt)
        vals = self.states(ts)
        # + 0.0 drops negative zeros
        write_columns(path, "t,y,x,segment_kind", "{:.10g},{:.12g},{:.12g},{}",
                      [ts, vals[:, 0] + 0.0, vals[:, 1] + 0.0, self.segment_kinds(ts)])


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


def _scan(margin, curvature, t: float, t_end: float, h_max: float, tol: float):
    """First time in (t, t_end] where margin falls below -tol, or None.

    curvature(s) bounds |margin''| on [s, t_end].  An interval [a, b] is
    clear when margin(a) and margin(b) both exceed
    curvature(a)*(b - a)**2/8 - tol, since the margin stays above its chord
    less that much; otherwise it is halved, so an excursion below -tol is
    found however short it is.  A cleared interval doubles the next step, up
    to h_max.  At the float resolution of t_end an interval is taken as it
    is, and its end is returned if the margin is below -tol there.
    """
    h_min = 2.0 ** -52 * max(h_max, abs(t_end))
    h, lo, m_lo = h_max, t, margin(t)
    while lo < t_end:
        hi = min(lo + h, t_end)
        m_hi = margin(hi)
        slack = curvature(lo) * (hi - lo) ** 2 / 8.0 - tol
        if (m_lo > slack and m_hi > slack) or (hi - lo <= h_min and m_hi >= -tol):
            lo, m_lo, h = hi, m_hi, min(2.0 * h, h_max)
        elif hi - lo > h_min:
            h = 0.5 * (hi - lo)
        else:
            return hi
    return None


class _PieceFlow:
    """Closed forms of the fluid field while lam(t) = base + amp*sin(omega*t),
    in the view whose floor is x = floor (0 uncentred, -lam/beta centred).
    An arrival of None is the constant piece base = params.lam.

    Off the floor the uncentred pair u = (y, x) follows u' = u A + lam(t) B
    with B = (-1, gamma).  A particular path is the fixed point (0, base/beta)
    of the base rate, at x = offset = base/beta + floor in the view, plus
    Im(z e^{i omega t}) with z (i omega I - A) = amp B; u less it is a sum of
    the two eigenmodes.  On the floor y' = -lam(t) integrates in closed form.
    The floor holds while the lift-off expression gamma*lam(t) - epsilon*y,
    which is x' at the floor, is negative.
    """

    def __init__(self, params: ModelParams, spec: SpectralData,
                 arrival: ArrivalRateFn | None, t0: float, floor: float):
        if isinstance(arrival, SinusoidArrival):
            self.base, self.amp = arrival.base, arrival.amplitude
            self.omega = 2.0 * math.pi / arrival.period
        else:
            # a piecewise profile is right-continuous, so the rate at t0
            # holds until the next jump
            self.base = params.lam if arrival is None else arrival(t0)
            self.amp, self.omega = 0.0, 0.0
        self.params, self.spec, self.floor_x = params, spec, floor
        # exactly 0.0 in the centred view at rate lam, where a constant piece
        # then evaluates as the bare modes
        self.offset = self.base / params.beta + floor
        self.z = np.zeros(2, dtype=complex)
        if self.amp:
            a = drift_matrix(params)
            self.z = np.linalg.solve((1j * self.omega * np.eye(2) - a).T,
                                     self.amp * np.array([-1.0, params.gamma]))
            # the scan step: an eighth of the period
            self.step = math.pi / (4.0 * self.omega)

    def liftoff(self, t, y):
        rate = self.base + self.amp * np.sin(self.omega * t)
        return self.params.gamma * rate - self.params.epsilon * y

    def _particular(self, t):
        if not self.amp:
            return 0.0, self.offset
        s, c = np.sin(self.omega * t), np.cos(self.omega * t)
        return (self.z[0].real * s + self.z[0].imag * c,
                self.offset + self.z[1].real * s + self.z[1].imag * c)

    def _fall(self, t0: float, tau):
        """Drop of y on the floor over the elapsed times tau after t0."""
        fall = self.base * tau
        if self.amp:
            fall = fall - self.amp / self.omega * (np.cos(self.omega * (t0 + tau))
                                                   - math.cos(self.omega * t0))
        return fall

    def modes(self, t: float, y: float, x: float) -> tuple[float, float]:
        """Mode coefficients of the interior path through (y, x) at t."""
        py, px = self._particular(t)
        a1, a2 = star_coords((y - py, x - px), self.spec)
        return float(a1), float(a2)

    def interior(self, t0: float, a1: float, a2: float, ts):
        """(y, x) at times ts of the interior path with modes (a1, a2) at t0."""
        spec = self.spec
        c1 = a1 * np.exp(-spec.nu1 * (ts - t0))
        c2 = a2 * np.exp(-spec.nu2 * (ts - t0))
        py, px = self._particular(ts)
        return py + c1 * spec.a1 + c2 * spec.a2, px - (c1 + c2)

    def floor(self, t0: float, y0: float, ts):
        """(y, x) at times ts of the slide through y0 at t0."""
        return y0 - self._fall(t0, ts - t0), self.floor_x

    def slide(self, t: float, y: float, t_end: float) -> float:
        """Time on the floor from y at t until lift-off, at most t_end - t;
        0.0 when the field already points off the floor."""
        if not self.amp:
            exit_y = self.params.gamma * self.base / self.params.epsilon
            if y <= exit_y + 1e-12:
                return 0.0
            return min((y - exit_y) / self.base if self.base else math.inf, t_end - t)
        if self.liftoff(t, y) >= 0.0:
            return 0.0
        g, e = self.params.gamma, self.params.epsilon
        bound = abs(self.amp) * (g * self.omega ** 2 + e * self.omega)
        end = _scan(lambda s: -self.liftoff(s, y - self._fall(t, s - t)),
                    lambda s: bound, t, t_end, self.step, 0.0)
        return (t_end if end is None else end) - t

    def hit(self, t: float, y: float, x: float, a1: float, a2: float, t_end: float):
        """(elapsed time, y) where the interior path from (y, x) at t, with
        modes (a1, a2), meets the floor before t_end; None if it does not."""
        if not self.amp:
            state = (y, x - self.offset)
            tau = boundary_hit_time(state, replace(self.params, lam=self.base), self.spec)
            if tau is None or tau >= t_end - t:
                return None
            y_hit = interior_solution(state, tau, self.spec).y
            exit_y = self.params.gamma * self.base / self.params.epsilon
            # a grazing contact touches the floor and lifts off
            return tau, y_hit if y_hit > exit_y + 1e-12 else min(y_hit, exit_y)
        spec = self.spec
        flat = abs(self.z[1]) * self.omega ** 2

        def curvature(s):
            return (flat + spec.nu1 ** 2 * abs(a1) * math.exp(-spec.nu1 * (s - t))
                    + spec.nu2 ** 2 * abs(a2) * math.exp(-spec.nu2 * (s - t)))

        # far above the rounding of the closed form, far below any real dip
        tol = 1e-13 * (1.0 + self.base / self.params.beta + abs(self.z[1]) + abs(a1) + abs(a2))
        end = _scan(lambda s: self.interior(t, a1, a2, s)[1] - self.floor_x,
                    curvature, t, t_end, self.step, tol)
        if end is None:
            return None
        return end - t, float(self.interior(t, a1, a2, end)[0])


def _solve(initial, arrival: ArrivalRateFn | None, params: ModelParams,
           horizon: float, centred: bool) -> FluidTrajectory:
    """The fluid path from initial over [0, horizon] as closed-form segments.

    Each piece of the arrival profile (its jump times split it) gets one
    _PieceFlow; within a piece the path alternates between the interior,
    up to the floor contact, and the floor, up to lift-off.  centred puts
    the floor at x = -lam/beta, otherwise at x = 0.
    """
    validate_params(params, scheme="A")
    if not 0.0 < horizon < math.inf:
        raise FluidSolverError(f"horizon must be finite and > 0, got {horizon}")
    spec = spectral_decompose(params)
    y, x = (initial.y, initial.x) if isinstance(initial, FluidState) else (
        float(initial[0]), float(initial[1]))
    floor = -params.lam / params.beta if centred else 0.0
    if x < floor - 1e-9 * max(1.0, abs(floor)):
        raise InvalidInitial(f"x={x} below the floor {floor}")

    segments: list = []
    t = 0.0
    jumps = [] if arrival is None else arrival.jump_times(0.0, horizon)
    for t_end in [*jumps, horizon]:
        flow = _PieceFlow(params, spec, arrival, t, floor)
        at_floor = x <= floor + 1e-12 * max(1.0, abs(floor))
        if at_floor:
            x = floor
        while t < t_end:
            d = flow.slide(t, y, t_end) if at_floor else 0.0
            if d > 0.0:
                segments.append(BoundarySegment(t0=t, duration=d, y_start=y, flow=flow))
                y, t, at_floor = y - flow._fall(t, d), t + d, False
                continue
            a1, a2 = flow.modes(t, y, x)
            hit = flow.hit(t, y, x, a1, a2, t_end)
            d = t_end - t if hit is None else hit[0]
            segments.append(InteriorSegment(t0=t, duration=d, alpha1=a1, alpha2=a2, flow=flow))
            if hit is None:
                y, x = (float(v) for v in flow.interior(t, a1, a2, t_end))
                t = t_end
            else:
                y, x, t, at_floor = hit[1], floor, t + d, True
    return FluidTrajectory(params=params, spec=spec, segments=tuple(segments),
                           horizon=horizon)


def solve_fluid(initial, params: ModelParams, horizon: float) -> FluidTrajectory:
    """Exact constant-rate fluid path in the centred view (floor at
    x = -lam/beta), as at most interior/boundary/interior."""
    return _solve(initial, None, params, horizon, centred=True)


def solve_fluid_tv(initial, arrival: ArrivalRateFn | None, params: ModelParams,
                   horizon: float) -> FluidTrajectory:
    """Exact fluid path under the arrival profile in the uncentred view
    (floor at x = 0); None means the constant rate lam.

    Off the floor y' = beta*x - lam(t), x' = gamma*lam(t) - gamma*beta*x -
    epsilon*y; on the floor y' = -lam(t) until gamma*lam(t) - epsilon*y
    turns positive.  A piecewise-constant profile restarts the closed form
    at its jump times.
    """
    return _solve(initial, arrival, params, horizon, centred=False)


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


def drift_check(traj: FluidTrajectory, grid_dt: float = 0.01) -> DriftReport:
    """Exact d/dt of the weighted norm n = |alpha|, alpha = u @ basis_inv,
    every grid_dt along each segment.

    Interior points report the decay ratio -n'/n = (nu1 c1^2 + nu2 c2^2) /
    (c1^2 + c2^2) of the mode coefficients c_i = alpha_i e^{-nu_i t}, which
    never falls below the slow rate nu1; boundary points report
    n' = (alpha . alpha')/n with alpha' = (-lam, 0) @ basis_inv, which
    should be strictly negative.  Points with n = 0 are skipped.
    """
    spec = traj.spec
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
