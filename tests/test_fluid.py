import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from conftest import Shifted, over_backends
from invitesim import fluid
from invitesim.acceptance import _exact_fluid_path, _fluid_fields
from invitesim.fluid import (
    BoundarySegment,
    DriftReport,
    FluidSolverError,
    FluidState,
    InteriorSegment,
    InvalidInitial,
    boundary_hit_time,
    drift_check,
    interior_solution,
    solve_fluid,
    solve_fluid_tv,
)
from invitesim.params import (
    ModelParams,
    PiecewiseConstantArrival,
    SinusoidArrival,
    _time_grid,
    spectral_decompose,
)

BASE = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)
SPEC = spectral_decompose(BASE)
# tangential lift-off at the exit corner after a slide from the floor
LIFTOFF = ModelParams(lam=2.5625, scale_r=100.0, beta=2.4453125, gamma=2.0,
                      epsilon=0.534912109375)

# frozen reference values, computed once with an adaptive integrator at
# rtol=1e-12 and an independent root find on the mode expansion
INTERIOR_T1 = (0.8378596943444442, 0.21235372533369046)
INTERIOR_T5 = (0.6594014428010676, -0.06946092890703415)
HIT_T = 0.059087715994052
HIT_Y = 17.943805223476534
BDUR = 7.943805223476492
EXIT_T = 8.002892939470561


def _centred_reference(initial, horizon, params=BASE, dt=0.05):
    """The grid k*dt up to horizon and the exact reference path of the
    acceptance suite on it, moved into the centred view (floor at -lam/beta)."""
    shift = np.array([0.0, params.lam / params.beta])
    ts = _time_grid(horizon, dt)
    return ts, _exact_fluid_path(np.add(initial, shift), None, params, horizon, ts)[0] - shift


def test_interior_solution_frozen_values():
    s1 = interior_solution(FluidState(0.0, 2.0), 1.0, SPEC)
    assert s1.y == pytest.approx(INTERIOR_T1[0], abs=1e-10)
    assert s1.x == pytest.approx(INTERIOR_T1[1], abs=1e-10)
    s5 = interior_solution(FluidState(0.0, 2.0), 5.0, SPEC)
    assert s5.y == pytest.approx(INTERIOR_T5[0], abs=1e-10)
    assert s5.x == pytest.approx(INTERIOR_T5[1], abs=1e-10)


def test_interior_matches_exact_reference():
    ts, want = _centred_reference((0.0, 2.0), 30.0, dt=0.25)
    traj = solve_fluid((0.0, 2.0), BASE, horizon=30.0)
    assert np.max(np.abs(traj.states(ts) - want)) < 1e-10


def test_no_hit_from_small_state():
    assert boundary_hit_time(FluidState(0.0, 2.0), BASE, SPEC) is None
    traj = solve_fluid((0.0, 2.0), BASE, horizon=200.0)
    assert len(traj.segments) == 1
    assert traj.boundary_segments == 0


def test_boundary_hit_frozen_values():
    t_hit = boundary_hit_time(FluidState(18.0, -0.9), BASE, SPEC)
    assert t_hit == pytest.approx(HIT_T, abs=1e-11)
    at_hit = interior_solution(FluidState(18.0, -0.9), t_hit, SPEC)
    assert at_hit.y == pytest.approx(HIT_Y, abs=1e-9)
    assert at_hit.x == pytest.approx(-1.0, abs=1e-10)


def test_three_segment_structure():
    traj = solve_fluid((18.0, -0.9), BASE, horizon=50.0)
    kinds = [s.kind for s in traj.segments]
    assert kinds == ["interior", "boundary", "interior"]
    seg_b = traj.segments[1]
    assert seg_b.t0 == pytest.approx(HIT_T, abs=1e-10)
    assert seg_b.duration == pytest.approx(BDUR, abs=1e-8)
    assert seg_b.y_start == pytest.approx(HIT_Y, abs=1e-9)
    # departs the floor exactly at y = gamma*lam/epsilon
    st_exit = traj.state(EXIT_T)
    assert st_exit[0] == pytest.approx(BASE.boundary_exit_y, abs=1e-7)
    assert st_exit[1] == pytest.approx(-1.0, abs=1e-9)
    # mid-slide the state moves down the floor at speed lam
    mid = traj.state(4.0)
    assert mid[0] == pytest.approx(HIT_Y - BASE.lam * (4.0 - HIT_T), abs=1e-8)
    assert mid[1] == -1.0
    # after lift-off the tail agrees with the exact reference restarted from
    # the exit corner
    ts, tail = _centred_reference((BASE.boundary_exit_y, -1.0), 50.0 - EXIT_T)
    assert np.max(np.abs(traj.states(EXIT_T + ts) - tail)) < 1e-10


def test_horizon_truncates_boundary_segment():
    traj = solve_fluid((18.0, -0.9), BASE, horizon=4.0)
    assert [s.kind for s in traj.segments] == ["interior", "boundary"]
    end = traj.state(4.0)
    assert end[0] == pytest.approx(HIT_Y - BASE.lam * (4.0 - HIT_T), abs=1e-8)
    assert end[1] == -1.0


def test_on_floor_start_slides_then_lifts():
    traj = solve_fluid((15.0, -1.0), BASE, horizon=20.0)
    assert traj.segments[0].kind == "boundary"
    # slide time (15 - 10)/lam exactly
    assert traj.segments[0].duration == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(traj.state(3.0), [12.0, -1.0], rtol=0, atol=1e-12)
    ts, tail = _centred_reference((10.0, -1.0), 15.0)
    assert np.max(np.abs(traj.states(5.0 + ts) - tail)) < 1e-10


def test_on_floor_start_below_exit_lifts_immediately():
    # at (5, -1) the inflow already dominates, so no slide happens
    traj = solve_fluid((5.0, -1.0), BASE, horizon=30.0)
    assert traj.boundary_segments == 0
    ts, ref = _centred_reference((5.0, -1.0), 30.0, dt=0.5)
    assert np.max(np.abs(traj.states(ts) - ref)) < 1e-10


def test_invalid_initial_below_floor():
    with pytest.raises(InvalidInitial):
        solve_fluid((0.0, -1.5), BASE, horizon=1.0)


def test_bad_horizon():
    with pytest.raises(FluidSolverError):
        solve_fluid((0.0, 2.0), BASE, horizon=0.0)


def test_states_match_scalar_eval():
    traj = solve_fluid((18.0, -0.9), BASE, horizon=50.0)
    ts = np.array([0.0, 0.03, HIT_T + 1.0, 7.9, 8.5, 25.0, 50.0])
    block = traj.states(ts)
    for i, t in enumerate(ts):
        assert np.array_equal(block[i], traj.state(t))
    with pytest.raises(FluidSolverError):
        traj.states([60.0])


def test_segment_summary_and_csv(tmp_path):
    traj = solve_fluid((18.0, -0.9), BASE, horizon=50.0)
    segs = traj.segments
    assert [s.kind for s in segs] == ["interior", "boundary", "interior"]
    assert segs[1].y_start == pytest.approx(HIT_Y, abs=1e-9)
    assert sum(s.duration for s in segs) == pytest.approx(50.0, abs=1e-9)
    out = tmp_path / "fluid.csv"
    traj.to_csv(out, dt=0.5)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,y,x,segment_kind"
    assert len(lines) == 102
    row = lines[11].split(",")  # t = 5.0, mid-slide
    assert row[3] == "boundary"
    assert float(row[2]) == -1.0


def test_drift_check_interior_rates():
    traj = solve_fluid((0.0, 2.0), BASE, horizon=40.0)
    rep = drift_check(traj)
    assert isinstance(rep, DriftReport)
    assert rep.points_checked > 1000
    assert rep.boundary_drift_max is None
    # the two modes decay at nu1 and nu2; any mixture sits in between
    assert rep.interior_ratio_min >= SPEC.nu1 - 1e-5
    assert rep.interior_ratio_max <= SPEC.nu2 + 1e-5


def test_drift_check_boundary_negative():
    traj = solve_fluid((18.0, -0.9), BASE, horizon=50.0)
    rep = drift_check(traj)
    assert rep.boundary_segments == 1
    assert rep.boundary_drift_max < 0.0
    assert rep.interior_ratio_min >= SPEC.nu1 - 1e-5


@pytest.mark.parametrize("mode", [0, 1])
def test_drift_check_pure_mode_ratio_is_its_rate(mode):
    # a start along one eigen-row decays at exactly that row's rate
    for c in (0.5, -2.0):
        start = c * (SPEC.v1, SPEC.v2)[mode]
        traj = solve_fluid(start, BASE, horizon=40.0)
        assert traj.boundary_segments == 0
        rep = drift_check(traj)
        rate = (SPEC.nu1, SPEC.nu2)[mode]
        assert rep.points_checked == 4000
        assert rep.interior_ratio_min == pytest.approx(rate, rel=1e-12)
        assert rep.interior_ratio_max == pytest.approx(rate, rel=1e-12)


def _central_difference_norm_drift(params, spec, y_start, tau, h=1e-6):
    """d/dt of |u @ basis_inv| along the slide y = y_start - lam*t, x = floor,
    by a central difference of step h."""
    def norm(t):
        u = np.array([y_start - params.lam * t, -params.lam / params.beta])
        return float(np.linalg.norm(u @ spec.basis_inv))
    return (norm(tau + h) - norm(tau - h)) / (2 * h)


@pytest.mark.parametrize("params, start", [(BASE, (18.0, -0.9)),
                                           (LIFTOFF, (10.0, -LIFTOFF.lam / LIFTOFF.beta))],
                         ids=["base", "liftoff"])
def test_drift_check_slide_matches_central_difference(params, start):
    spec = spectral_decompose(params)
    # one slide point per report: a grid step longer than the segment
    for y_start in np.linspace(params.boundary_exit_y, 40.0, 25):
        seg = BoundarySegment(t0=0.0, duration=1.0, y_start=float(y_start))
        traj = fluid.FluidTrajectory(params=params, spec=spec, segments=(seg,), horizon=1.0)
        rep = drift_check(traj, grid_dt=2.0)
        assert rep.points_checked == 1
        want = _central_difference_norm_drift(params, spec, y_start, 0.0)
        assert rep.boundary_drift_max == pytest.approx(want, rel=1e-6)
    # the whole slide of a solved path: the maximum over its grid
    traj = solve_fluid(start, params, horizon=30.0)
    (seg,) = [s for s in traj.segments if s.kind == "boundary"]
    taus = np.arange(0.0, seg.duration, 0.01)
    want = max(_central_difference_norm_drift(params, spec, seg.y_start, t) for t in taus)
    assert drift_check(traj).boundary_drift_max == pytest.approx(want, rel=1e-6)


@st.composite
def stable_params(draw):
    beta = draw(st.floats(0.2, 4.0))
    gamma = draw(st.floats(0.5, 5.0))
    frac = draw(st.floats(0.05, 0.95))
    eps = frac * gamma * gamma * beta / 4.0
    lam = draw(st.floats(0.2, 3.0))
    return ModelParams(lam=lam, scale_r=100.0, beta=beta, gamma=gamma, epsilon=eps)


@settings(max_examples=60, deadline=None)
@given(params=stable_params(),
       y0=st.floats(-30.0, 30.0),
       xoff=st.floats(0.0, 20.0))
def test_hit_time_is_first_floor_crossing(params, y0, xoff):
    spec = spectral_decompose(params)
    floor = -params.lam / params.beta
    initial = FluidState(y0, floor + xoff)
    t_hit = boundary_hit_time(initial, params, spec)
    probe_end = t_hit if t_hit is not None else 12.0 / spec.nu1
    ts = np.linspace(0.0, probe_end, 2000, endpoint=False)
    xs = np.array([interior_solution(initial, t, spec).x for t in ts])
    # strictly above the floor before the reported hit (or everywhere)
    assert np.all(xs > floor - 1e-7)
    if t_hit is not None:
        at = interior_solution(initial, t_hit, spec)
        assert abs(at.x - floor) < 1e-9
        # crossings only happen while the outflow still dominates
        assert at.y >= params.boundary_exit_y - 1e-6


@settings(max_examples=25, deadline=None)
@given(params=stable_params(), y0=st.floats(-20.0, 40.0), xoff=st.floats(0.0, 10.0))
@example(params=LIFTOFF, y0=10.0, xoff=0.0)
def test_solver_path_respects_floor_and_is_continuous(params, y0, xoff):
    floor = -params.lam / params.beta
    traj = solve_fluid((y0, floor + xoff), params, horizon=30.0)
    ts = np.linspace(0.0, 30.0, 601)
    vals = traj.states(ts)
    assert np.all(vals[:, 1] >= floor - 1e-7)
    steps = np.abs(np.diff(vals, axis=0))
    # both coordinates have bounded speed, so adjacent samples stay close
    speed = (abs(y0) + xoff + params.lam / params.beta + 1.0) * (
        params.beta + params.gamma * params.beta + params.epsilon + params.lam)
    assert steps.max() <= speed * (ts[1] - ts[0]) * 5 + 1e-9


def test_tangential_liftoff_after_slide():
    floor = -LIFTOFF.lam / LIFTOFF.beta
    exit_y = LIFTOFF.boundary_exit_y
    # from the exit corner x' = 0 and x'' = epsilon*lam > 0: no contact
    assert boundary_hit_time(FluidState(exit_y, floor), LIFTOFF) is None
    traj = solve_fluid((10.0, floor), LIFTOFF, horizon=30.0)
    assert [s.kind for s in traj.segments] == ["boundary", "interior"]
    t_exit = (10.0 - exit_y) / LIFTOFF.lam
    assert traj.segments[0].duration == pytest.approx(t_exit, abs=1e-12)
    ts, tail = _centred_reference((exit_y, floor), 30.0 - t_exit, LIFTOFF, dt=0.01)
    assert np.max(np.abs(traj.states(t_exit + ts) - tail)) < 1e-10


def _scan_hit_time(initial, params, spec):
    """The grid-scan contact search that boundary_hit_time replaced, kept as
    its oracle: sign changes of the gap on a grid of step min(1/nu2, T)/64,
    plus the gap's one extremum, then bisection to 1e-12."""
    a1, a2 = (float(a) for a in np.asarray(initial, dtype=float) @ spec.basis_inv)
    nu1, nu2 = spec.nu1, spec.nu2
    level = params.lam / params.beta

    def gap(t):
        return level - a1 * math.exp(-nu1 * t) - a2 * math.exp(-nu2 * t)

    on_floor = gap(0.0) <= 1e-12 * max(1.0, level)
    if on_floor and nu1 * a1 + nu2 * a2 < -1e-9 * max(1.0, abs(a1) + abs(a2)):
        return 0.0
    if on_floor and nu1 * nu1 * a1 + nu2 * nu2 * a2 < 0.0:
        return None
    reach = abs(a1) + abs(a2)
    if reach <= level * (1.0 - 1e-15):
        return None
    t_max = math.log(max(reach / level, 1.0)) / nu1 + 1.0 / nu2
    step = min(1.0 / nu2, t_max) / 64.0
    ts = list(np.arange(step, t_max + step, step))
    if a1 != 0.0 and -nu2 * a2 / (nu1 * a1) > 0.0:
        t_crit = math.log(-nu2 * a2 / (nu1 * a1)) / (nu2 - nu1)
        if 0.0 < t_crit < t_max:
            ts = sorted(ts + [t_crit])
    prev_t, prev_g = 0.0, gap(0.0)
    for t in ts:
        g = gap(t)
        if prev_g > 0.0 >= g:
            break
        prev_t, prev_g = t, g
    else:
        return None
    lo, hi = prev_t, t
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_hit_time_matches_grid_scan():
    # seeded starts over the stable_params ranges: a quarter on the floor
    # anywhere, a quarter at the exit corner (lift-off), half above the floor
    rng = np.random.default_rng(1519)
    cases = [(LIFTOFF, (LIFTOFF.boundary_exit_y, -LIFTOFF.lam / LIFTOFF.beta))]
    for k in range(2400):
        beta, gamma = rng.uniform(0.2, 4.0), rng.uniform(0.5, 5.0)
        eps = rng.uniform(0.05, 0.95) * gamma * gamma * beta / 4.0
        params = ModelParams(lam=rng.uniform(0.2, 3.0), scale_r=100.0, beta=beta,
                             gamma=gamma, epsilon=eps)
        floor = -params.lam / params.beta
        if k % 2:
            initial = (rng.uniform(-30.0, 30.0), floor + rng.uniform(0.0, 20.0))
        elif k % 4 == 2:
            initial = (params.boundary_exit_y, floor)
        else:
            initial = (rng.uniform(-30.0, 40.0), floor)
        cases.append((params, initial))
    counts = {"none": 0, "now": 0, "later": 0}
    for params, initial in cases:
        spec = spectral_decompose(params)
        want = _scan_hit_time(initial, params, spec)
        got = boundary_hit_time(initial, params, spec)
        assert (got is None) == (want is None), (params, initial, want, got)
        if want is not None:
            assert abs(got - want) <= 1e-11, (params, initial, want, got)
        counts["none" if want is None else "now" if want == 0.0 else "later"] += 1
    # every branch is exercised many times over
    assert min(counts.values()) > 200, counts


# --- time-varying rates -----------------------------------------------------

def _profile(arrival, params):
    """The rate function of `arrival` for the oracles: None, the constant rate
    lam, is the one-piece step at lam."""
    return PiecewiseConstantArrival((), (params.lam,)) if arrival is None else arrival


# --- the grid solver that the segment solver replaced, kept as its oracle ---

class _GridFlow:
    """Closed forms of the uncentered field on one arrival piece, as the grid
    solver evaluated them."""

    def __init__(self, params, spec, arrival, t0):
        if isinstance(arrival, SinusoidArrival):
            self.base, self.amp = arrival.base, arrival.amplitude
            self.omega = 2.0 * math.pi / arrival.period
        else:
            self.base, self.amp, self.omega = arrival(t0), 0.0, 0.0
        self.params, self.spec = params, spec
        self.z = np.zeros(2, dtype=complex)
        if self.amp:
            a = np.array([[0.0, -params.epsilon], [params.beta, -params.gamma * params.beta]])
            self.z = np.linalg.solve((1j * self.omega * np.eye(2) - a).T,
                                     self.amp * np.array([-1.0, params.gamma]))

    def liftoff(self, t, y):
        rate = self.base + self.amp * np.sin(self.omega * t)
        return self.params.gamma * rate - self.params.epsilon * y

    def _particular(self, t):
        s, c = np.sin(self.omega * t), np.cos(self.omega * t)
        return (self.z[0].real * s + self.z[0].imag * c,
                self.base / self.params.beta + self.z[1].real * s + self.z[1].imag * c)

    def interior(self, t_a, y_a, x_a):
        spec = self.spec
        py, px = self._particular(t_a)
        a1, a2 = np.array([y_a - py, x_a - px]) @ spec.basis_inv

        def states(ts):
            c1 = a1 * np.exp(-spec.nu1 * (ts - t_a))
            c2 = a2 * np.exp(-spec.nu2 * (ts - t_a))
            py, px = self._particular(ts)
            return py + c1 * spec.a1 + c2 * spec.a2, px - (c1 + c2)
        return states

    def floor(self, t_a, y_a):
        def states(ts):
            fall = self.base * (ts - t_a)
            if self.amp:
                fall = fall - self.amp / self.omega * (np.cos(self.omega * ts)
                                                       - math.cos(self.omega * t_a))
            return y_a - fall, np.zeros_like(ts)
        return states


def _grid_solve_tv(initial, arrival, params, horizon, dt=1e-3, chunk=16384):
    """The grid solver: (t, y, x, on_floor) at t = 0, dt, 2 dt, ..., horizon.

    Switches are detected at grid points and at jump times, then bisected
    60 times on the closed form; an exact tie that keeps the modes trading
    places falls back to one clamped interior step."""
    arrival = _profile(arrival, params)
    spec = spectral_decompose(params)
    ts_out = np.arange(int(math.floor(horizon / dt * (1.0 + 1e-12))) + 1) * dt
    n = len(ts_out)
    ys, xs, floors = np.empty(n), np.empty(n), np.zeros(n, dtype=bool)
    (t, y, x), i = (0.0, *initial), 1
    on_floor = x <= 0.0 and params.gamma * arrival(0.0) - params.epsilon * y <= 0.0
    if on_floor:
        x = 0.0
    ys[0], xs[0], floors[0] = y, x, on_floor

    def checkpoints(i, t_end):
        j_end = int(np.searchsorted(ts_out, t_end, side="right"))
        while i < j_end:
            j = min(i + chunk, j_end)
            yield i, ts_out[i:j], True
            i = j
        if j_end == 0 or ts_out[j_end - 1] < t_end:
            yield j_end, np.array([t_end]), False

    for t_end in [*arrival.jump_times(0.0, ts_out[-1]), ts_out[-1]]:
        flow = _GridFlow(params, spec, arrival, t)
        stall = 0
        while t < t_end:
            if not on_floor and x <= 0.0:
                x = 0.0
                on_floor = flow.liftoff(t, y) <= 0.0
            elif on_floor and flow.liftoff(t, y) > 0.0:
                on_floor = False
            if i < n and ts_out[i] <= t:
                ys[i], xs[i], floors[i] = y, x, on_floor
                i += 1
            if stall >= 3:
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
            for g, times, on_grid in checkpoints(i, t_end):
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
                    t = hi if on_floor else lo
                    y, x = path(t)[0], 0.0
                    on_floor = flow.liftoff(t, y) <= 0.0
                    break
                lo = float(times[-1])
            else:
                t, y, x = t_end, cy[-1], cx[-1]
                stall = 0
    if i < n:
        ys[i:], xs[i:], floors[i:] = y, x, on_floor
    return ts_out, ys, xs, floors


def _seeded_tv_cases(seed, n):
    """(params, arrival, start) over the stable_params ranges: constant,
    piecewise and sinusoidal rates, each from a start above the floor, on
    the floor, at the exact tie gamma*lam(0) = epsilon*y0, and high up
    close to the floor."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(n):
        beta, gamma = rng.uniform(0.2, 4.0), rng.uniform(0.5, 5.0)
        eps = rng.uniform(0.05, 0.95) * gamma * gamma * beta / 4.0
        lam = rng.uniform(0.2, 3.0)
        params = ModelParams(lam=lam, scale_r=100.0, beta=beta, gamma=gamma, epsilon=eps)
        if k % 3 == 0:
            arrival = None
        elif k % 3 == 1:
            m = int(rng.integers(1, 4))
            arrival = PiecewiseConstantArrival(tuple(np.sort(rng.uniform(0.5, 19.5, m))),
                                               tuple(rng.uniform(0.0, 3.0, m + 1)))
        else:
            base = rng.uniform(0.2, 3.0)
            arrival = SinusoidArrival(base, rng.uniform(-1.0, 1.0) * base,
                                      rng.uniform(1.0, 40.0))
        start = [(rng.uniform(-30.0, 40.0), rng.uniform(0.0, 20.0)),
                 (rng.uniform(-30.0, 40.0), 0.0),
                 (gamma * _profile(arrival, params)(0.0) / eps, 0.0),
                 (rng.uniform(10.0, 60.0), rng.uniform(0.0, 0.5))][k // 3 % 4]
        cases.append((params, arrival, start))
    return cases


def test_tv_segments_match_grid_solver():
    # 240 seeded cases against the grid solver at its 20 001 samples each,
    # and a piece at rate 0, on the floor and off it
    counts = {"slides": 0, "jumps on the floor": 0, "sinusoid floor contacts": 0}
    zero = PiecewiseConstantArrival((3.0, 8.0), (1.0, 0.0, 2.0))
    fixed = [(BASE, zero, (25.0, 0.0)), (BASE, zero, (0.0, 1.0))]
    for params, arrival, start in _seeded_tv_cases(1616, 240) + fixed:
        t, y, x, on_floor = _grid_solve_tv(start, arrival, params, 20.0)
        traj = solve_fluid_tv(start, arrival, params, 20.0)
        err = np.abs(traj.states(t) - np.column_stack([y, x])).max()
        assert err < 1e-12, (params, arrival, start, err)
        # the kinds differ at most at a grid point within rounding of a switch
        kinds = traj.segment_kinds(t) == b"boundary"
        assert (kinds != on_floor).sum() <= 1, (params, arrival, start)
        slides = [s for s in traj.segments if s.kind == "boundary"]
        ends = np.array([s.t0 + s.duration for s in slides])
        counts["slides"] += bool(slides)
        jumps = _profile(arrival, params).jump_times(0.0, 20.0)
        counts["jumps on the floor"] += any(np.any(np.abs(ends - j) < 1e-9) for j in jumps)
        counts["sinusoid floor contacts"] += isinstance(arrival, SinusoidArrival) and any(
            s.t0 > 0.0 for s in slides)
    # 60 of the cases start at an exact tie; the other branches are seen often
    assert counts["slides"] > 100 and min(counts.values()) > 30, counts


def test_tv_constant_rate_matches_closed_form():
    # uncentered coordinates shift the floor to 0; both paths come from the
    # same closed forms, and they agree to 0.0 here
    shift = BASE.lam / BASE.beta
    tv = solve_fluid_tv((18.0, -0.9 + shift), None, BASE, horizon=12.0)
    cf = solve_fluid((18.0, -0.9), BASE, horizon=12.0)
    ts = np.linspace(0.0, 12.0, 49)
    got = tv.states(ts)
    want = cf.states(ts)
    want[:, 1] += shift
    assert np.max(np.abs(got - want)) < 1e-12
    assert tv.segment_kinds([0.0, 4.0, 12.0]).tolist() == [b"interior", b"boundary", b"interior"]
    assert tv.states([4.0])[0][1] == 0.0


def test_tv_on_floor_slide_duration():
    # agrees to 0.0 with the centred path here
    shift = BASE.lam / BASE.beta
    tv = solve_fluid_tv((30.0, 0.0), None, BASE, horizon=30.0)
    cf = solve_fluid((30.0, -shift), BASE, horizon=30.0)
    ts = np.linspace(0.0, 30.0, 121)
    want = cf.states(ts)
    want[:, 1] += shift
    assert np.max(np.abs(tv.states(ts) - want)) < 1e-12
    assert tv.state(10.0)[0] == pytest.approx(20.0, abs=1e-12)
    # the slide from y = 30 down to gamma*lam/epsilon = 10 at rate 1
    assert tv.segments[0].kind == "boundary"
    assert tv.segments[0].duration == pytest.approx(20.0, abs=1e-12)


def test_tv_smooth_sinusoid_against_exact_reference():
    arr = SinusoidArrival(base=1.0, amplitude=0.2, period=120.0)
    ts = np.linspace(0.0, 200.0, 401)
    ref, visits = _exact_fluid_path((0.0, 1.0), arr, BASE, 200.0, ts)
    assert visits == 0 and ref[:, 1].min() > 0.1  # stays interior
    tv = solve_fluid_tv((0.0, 1.0), arr, BASE, horizon=200.0)
    assert [s.kind for s in tv.segments] == ["interior"]
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10


def test_tv_piecewise_jump_is_sharp():
    arr = PiecewiseConstantArrival(breakpoints=(5.0,), values=(1.0, 3.0))
    tv = solve_fluid_tv((0.0, 1.0), arr, BASE, horizon=10.0)
    # 4.999 and 5.001 sit on the grid, either side of the jump
    ts = _time_grid(10.0, 1e-3)
    ref, _ = _exact_fluid_path((0.0, 1.0), arr, BASE, 10.0, ts)
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10
    assert [s.t0 for s in tv.segments] == [0.0, 5.0]


def test_tv_rejects_bad_inputs():
    with pytest.raises(InvalidInitial):
        solve_fluid_tv((0.0, -0.5), None, BASE, horizon=1.0)
    with pytest.raises(FluidSolverError):
        solve_fluid_tv((0.0, 1.0), None, BASE, horizon=0.0)


def test_tv_rejects_a_rate_without_closed_form():
    # a sinusoid subclass with its own __call__ is not the sinusoid the
    # closed form solves for; it must not get the unshifted path
    with pytest.raises(FluidSolverError):
        solve_fluid_tv((0.0, 1.0), Shifted(1.0, 0.5, 30.0), BASE, horizon=5.0)


def test_exact_reference_rejects_a_rate_without_closed_form():
    # the reference picks its closed form by the rule solve_fluid_tv uses:
    # it gave Shifted the unshifted sinusoid's path when it went by isinstance
    with pytest.raises(FluidSolverError, match="no closed form"):
        _exact_fluid_path((0.0, 1.0), Shifted(1.0, 0.5, 30.0), BASE, 5.0,
                          np.linspace(0.0, 5.0, 11))
    assert _fluid_fields(SinusoidArrival(1.0, 0.5, 30.0), BASE, 0.0)[3] > 0.0


def test_tv_csv(tmp_path):
    tv = solve_fluid_tv((30.0, 0.0), None, BASE, horizon=2.0)
    out = tmp_path / "tv.csv"
    # any spacing: every row is the closed form at k*dt
    for dt, rows in ((0.1, 21), (0.015, 134), (0.004, 501)):
        tv.to_csv(out, dt=dt)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,y,x,segment_kind"
        assert lines[1:3] == ["0,30,0,boundary", f"{dt:.10g},{30.0 - dt:.12g},0,boundary"]
        assert len(lines) == 1 + rows


def _row_loop_fluid_csv(path, traj, dt):
    """The row-at-a-time FluidTrajectory writer, kept as the byte reference."""
    n = int(math.floor(traj.horizon / dt * (1 + 1e-12))) + 1
    ts = np.arange(n) * dt
    vals = traj.states(ts) + 0.0
    kinds = traj.segment_kinds(ts)
    with open(path, "w") as fh:
        fh.write("t,y,x,segment_kind\n")
        for i in range(n):
            fh.write(f"{ts[i]:.10g},{vals[i, 0]:.12g},{vals[i, 1]:.12g},{kinds[i].decode()}\n")


@pytest.mark.parametrize("case, backend", over_backends([
    ((18.0, -0.9), 50.0, 0.5),     # interior, slide, interior
    ((18.0, -0.9), 50.0, 0.02),    # 2 501 rows: more than one block
    ((0.0, 0.0), 3.0, 0.3),        # rests at the origin: zeros of either sign
    ((1.0, 2.0), 7.0, 0.07),
], ids=["initial0-50.0-0.5", "initial1-50.0-0.02", "initial2-3.0-0.3", "initial3-7.0-0.07"]),
    indirect=["backend"])
def test_fluid_csv_bytes_match_row_loop(tmp_path, case, backend):
    initial, horizon, dt = case
    traj = solve_fluid(initial, BASE, horizon=horizon)
    traj.to_csv(tmp_path / "new.csv", dt=dt)
    _row_loop_fluid_csv(tmp_path / "old.csv", traj, dt)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b",-0," not in new


@pytest.mark.parametrize("every, backend", over_backends([1, 3, 10]), indirect=["backend"])
def test_tv_csv_bytes_match_row_loop(tmp_path, every, backend):
    # slides, lifts off and meets the floor again: both kinds of row, and
    # x = 0 on the floor of the uncentred view
    arr = SinusoidArrival(base=1.0, amplitude=0.5, period=7.0)
    tv = solve_fluid_tv((30.0, 0.0), arr, BASE, horizon=40.0)
    dt = every * 1e-2
    tv.to_csv(tmp_path / "new.csv", dt=dt)
    _row_loop_fluid_csv(tmp_path / "old.csv", tv, dt)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b",boundary" in new and b",interior" in new
    assert b",-0," not in new


def test_tv_sinusoid_slide_then_liftoff_matches_hybrid_reference():
    arr = SinusoidArrival(base=1.0, amplitude=0.5, period=7.0)
    tv = solve_fluid_tv((30.0, 0.0), arr, BASE, horizon=40.0)
    assert tv.segment_kinds([0.0, 40.0]).tolist() == [b"boundary", b"interior"]
    ts = np.linspace(0.0, 40.0, 801)
    ref, _ = _exact_fluid_path((30.0, 0.0), arr, BASE, 40.0, ts)
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10


def test_tv_piecewise_jump_on_the_floor_matches_hybrid_reference():
    # on the floor at t = 4 with y = 21; the faster slide at rate 2 still
    # holds the floor (gamma*2 < epsilon*21) and lifts off at y = 20, t = 4.5
    arr = PiecewiseConstantArrival(breakpoints=(4.0, 9.0), values=(1.0, 2.0, 0.5))
    tv = solve_fluid_tv((25.0, 0.0), arr, BASE, horizon=20.0)
    assert tv.state(4.0)[0] == pytest.approx(21.0, abs=1e-12)
    assert tv.state(4.25)[0] == pytest.approx(20.5, abs=1e-12)
    assert [s.kind for s in tv.segments[:3]] == ["boundary", "boundary", "interior"]
    assert tv.segments[2].t0 == pytest.approx(4.5, abs=1e-12)
    ts = np.linspace(0.0, 20.0, 801)
    ref, _ = _exact_fluid_path((25.0, 0.0), arr, BASE, 20.0, ts)
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10


def _reaches_horizon(traj, horizon):
    assert traj.t[-1] == horizon
    assert sum(s.duration for s in traj.segments) == pytest.approx(horizon, abs=1e-9)
    assert np.all(np.diff(traj.t) >= 0.0)


def test_tv_exact_tie_start_returns():
    # x = 0 and gamma*lam(0) = epsilon*y0: the floor and the interior tie;
    # a falling rate pulls the path straight back onto the floor
    ts = np.linspace(0.0, 10.0, 401)
    for arrival in (None, SinusoidArrival(1.0, 0.5, 7.0), SinusoidArrival(1.0, -0.5, 7.0)):
        y0 = BASE.gamma * _profile(arrival, BASE)(0.0) / BASE.epsilon
        tv = solve_fluid_tv((y0, 0.0), arrival, BASE, horizon=10.0)
        _reaches_horizon(tv, 10.0)
        ref, _ = _exact_fluid_path((y0, 0.0), arrival, BASE, 10.0, ts)
        assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10, arrival
    # at constant rate: the centred path, to rounding
    y0, shift = BASE.gamma * BASE.lam / BASE.epsilon, BASE.lam / BASE.beta
    want = solve_fluid((y0, -shift), BASE, horizon=10.0).states(ts)
    want[:, 1] += shift
    tv = solve_fluid_tv((y0, 0.0), None, BASE, horizon=10.0)
    assert np.max(np.abs(tv.states(ts) - want)) < 1e-12
    assert [s.kind for s in tv.segments] == ["interior"]


def test_tv_liftoff_on_a_jump_time():
    # the slide at rate 1 from y = 14 reaches gamma*1/epsilon = 10 exactly at
    # the jump t = 4, where the rate 2 lifts the path off
    arr = PiecewiseConstantArrival(breakpoints=(4.0,), values=(1.0, 2.0))
    tv = solve_fluid_tv((14.0, 0.0), arr, BASE, horizon=10.0)
    _reaches_horizon(tv, 10.0)
    assert [(s.kind, s.t0) for s in tv.segments] == [("boundary", 0.0), ("interior", 4.0)]
    ts = np.linspace(0.0, 10.0, 401)
    ref, _ = _exact_fluid_path((14.0, 0.0), arr, BASE, 10.0, ts)
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10


def _interior_start(arrival, t_back, y_back, x_back):
    """State at t = 0 of the interior path through (y_back, x_back) at t_back,
    by the interior field's expm at -t_back, and the smallest x of the exact
    reference from there on a grid of [0, t_back): it reads 0 if the path
    meets the floor before t_back."""
    interior, _, _, w = _fluid_fields(arrival, BASE, t_back)
    z = expm(-t_back * interior) @ [y_back, x_back, 1.0, math.sin(w * t_back),
                                    math.cos(w * t_back)]
    ts = np.linspace(0.0, t_back, 2001)
    return tuple(z[:2]), _exact_fluid_path(z[:2], arrival, BASE, t_back, ts)[0][:-1, 1].min()


def test_tv_tangential_sinusoid_contact():
    # the interior path touches the floor at t = 2 with x' = 0 (y = gamma*lam/
    # epsilon there) and x'' = gamma*lam' + epsilon*lam > 0: one touch, to the
    # rounding of the backward integration
    arr = SinusoidArrival(1.0, 0.5, 7.0)
    start, x_min = _interior_start(arr, 2.0, BASE.gamma * arr(2.0) / BASE.epsilon, 0.0)
    assert x_min > 0.0
    tv = solve_fluid_tv(start, arr, BASE, horizon=20.0)
    _reaches_horizon(tv, 20.0)
    # the touch is no floor visit; the path meets the floor for real later
    assert abs(tv.state(2.0)[1]) < 1e-12
    assert not [s for s in tv.segments if 1.0 < s.t0 < 2.3]
    assert tv.segment_kinds([1.9, 2.0, 2.1, 5.0]).tolist() == [b"interior"] * 3 + [b"boundary"]
    ts = np.linspace(0.0, 20.0, 801)
    ref, _ = _exact_fluid_path(start, arr, BASE, 20.0, ts)
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10


def test_tv_floor_visit_shorter_than_the_scan_step():
    # built backwards: lift-off at t = 2 (y = gamma*lam/epsilon), a slide
    # of 0.05 before it, and the interior path that meets the floor there;
    # the scan starts at an eighth of the period, 5
    arr = SinusoidArrival(1.0, 0.5, 40.0)
    t_off, visit = 2.0, 0.05
    omega = 2.0 * math.pi / arr.period
    fall = arr.base * visit - arr.amplitude / omega * (
        math.cos(omega * t_off) - math.cos(omega * (t_off - visit)))
    y_on = BASE.gamma * arr(t_off) / BASE.epsilon + fall
    start, x_min = _interior_start(arr, t_off - visit, y_on, 0.0)
    assert x_min > 0.0
    tv = solve_fluid_tv(start, arr, BASE, horizon=20.0)
    _reaches_horizon(tv, 20.0)
    assert [s.kind for s in tv.segments] == ["interior", "boundary", "interior"]
    assert tv.segments[1].t0 == pytest.approx(t_off - visit, abs=1e-9)
    assert tv.segments[1].duration == pytest.approx(visit, abs=1e-9)
    ts = np.linspace(0.0, 20.0, 801)
    ref, _ = _exact_fluid_path(start, arr, BASE, 20.0, ts)
    assert np.max(np.abs(tv.states(ts) - ref)) < 1e-10
