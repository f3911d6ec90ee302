"""Event-level behavior of the scheme A/B simulators, scalings, and replay."""
import math

import numpy as np
import pytest

from _lattice import rate_table_b
from conftest import LyingSinusoid, over_backends
from invitesim import acceptance
from invitesim.acceptance import GENERATOR_STATES
from invitesim.ctmc import (
    _BUF,
    DriverMismatch,
    EventLog,
    GridSpec,
    HorizonZero,
    K_ACCEPT,
    K_ARRIVAL,
    K_FEEDBACK_DOWN,
    K_FEEDBACK_UP,
    RandomStream,
    SystemState,
    ThinningBoundViolated,
    Trajectory,
    diffusion_scale,
    drift_replicates_b,
    fluid_scale,
    reflect_representation,
    simulate_a,
    simulate_b,
)
from invitesim.params import (
    ModelParams,
    PiecewiseConstantArrival,
    SinusoidArrival,
)

BASE = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)


# ---------------------------------------------------------------------------
# rate table
# ---------------------------------------------------------------------------

def _enabled(y, x):
    """The transitions out of (y, x) with a positive rate, as (rate, dy, dx)."""
    rate, move = rate_table_b(y, x, BASE)
    return [(r, int(dy), int(dx)) for r, (dy, dx) in zip(rate, move) if r > 0.0]


def test_rates_only_arrival_from_origin():
    assert _enabled(0, 0) == [(1000.0, -1, 2)]


def test_rates_interior_state():
    assert _enabled(2, 5) == [(1000.0, -1, 2), (5.0, 1, -2), (pytest.approx(0.4), 0, -1)]


def test_rates_empty_pool_negative_queue():
    assert _enabled(-3, 0) == [(1000.0, -1, 2), (pytest.approx(0.6), 0, 1)]


def test_rates_truncated_acceptance_and_null_feedback():
    # x=1 < gamma: acceptance empties the pool, does not overshoot
    assert (1.0, 1, -1) in _enabled(0, 1)
    # x=0, y>0: feedback ticks but cannot withdraw anything
    assert (pytest.approx(0.8), 0, 0) in _enabled(4, 0)


def test_rate_table_drift_matches_longhand_generator_drift():
    # the generator suite's written-out drift and the table, summed as
    # sum rate * (dy, dx), at every state the suite checks, in one call
    y, x = np.array(GENERATOR_STATES).T
    rate, move = rate_table_b(y, x, acceptance.P6)
    drift = (rate[..., None] * move).sum(axis=-2)
    longhand = np.array([acceptance._longhand_drift(*s) for s in GENERATOR_STATES])
    assert drift.shape == (20, 2)
    assert np.allclose(drift, longhand, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# reference stepper: independent re-implementation driven by scalar draws
# ---------------------------------------------------------------------------

def _reference_run_b(y, x, params, horizon, stream, arrival=None):
    """Slow mirror of simulate_b's documented draw order (hold, pick, thin).

    Returns the path [(t, y, x), ...] and the kind of each event.
    """
    gen = stream.generator()
    gamma = int(params.gamma)
    thinning = arrival is not None
    bound = params.lam if arrival is None else arrival.bound()
    bound_rate = bound * params.scale_r
    t = 0.0
    path = [(t, y, x)]
    kinds = []
    while True:
        acc = params.beta * x
        fb = params.epsilon * abs(y)
        total = bound_rate + acc + fb
        if total <= 0.0:
            break
        t += -math.log(1.0 - gen.random()) / total
        if t > horizon:
            break
        pick = gen.random() * total
        if pick < bound_rate:
            if thinning:
                if gen.random() * bound >= arrival(t):
                    continue
            y, x = y - 1, x + gamma
            kinds.append(K_ARRIVAL)
        elif pick < bound_rate + acc:
            y, x = y + 1, x - min(gamma, x)
            kinds.append(K_ACCEPT)
        elif x >= 1 and y > 0:
            x -= 1
            kinds.append(K_FEEDBACK_DOWN)
        elif x >= 1 or y < 0:
            x += 1
            kinds.append(K_FEEDBACK_UP)
        else:  # X = 0, Y >= 0: the feedback tick withdraws nothing
            kinds.append(K_FEEDBACK_DOWN)
        path.append((t, y, x))
    return path, kinds


def _grid_from_path(path, horizon, dt):
    n = int(round(horizon / dt)) + 1
    out = np.empty((n, 2), dtype=np.int64)
    j = 0
    y, x = path[0][1], path[0][2]
    for i in range(n):
        tg = i * dt
        while j + 1 < len(path) and path[j + 1][0] <= tg:
            j += 1
            y, x = path[j][1], path[j][2]
        out[i] = (y, x)
    return out


@pytest.mark.parametrize("arrival", [None, SinusoidArrival(1.0, 0.2, 120.0)])
def test_simulate_b_matches_reference_stepper(arrival):
    stream = RandomStream(421, (3,))
    params = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=2.0, epsilon=0.2)
    traj = simulate_b((4, 7), params, horizon=5.0, stream=stream, arrival=arrival,
                      sampling=GridSpec(dt=0.01, record_events=True))
    ref, kinds = _reference_run_b(4, 7, params, 5.0, stream, arrival)
    grid = _grid_from_path(ref, 5.0, 0.01)
    assert np.array_equal(traj.y, grid[:, 0])
    assert np.array_equal(traj.x, grid[:, 1])
    assert traj.n_events == len(ref) - 1
    steps = np.diff(np.array([(y, x) for _, y, x in ref]), axis=0)
    ev = traj.events
    assert np.array_equal(ev.t, [s[0] for s in ref[1:]])
    assert np.array_equal(ev.kind, kinds)
    assert np.array_equal(ev.dy, steps[:, 0])
    assert np.array_equal(ev.dx, steps[:, 1])


def test_simulate_b_deterministic_given_stream():
    a = simulate_b((0, 0), BASE, 2.0, RandomStream(9, (0,)))
    b = simulate_b((0, 0), BASE, 2.0, RandomStream(9, (0,)))
    c = simulate_b((0, 0), BASE, 2.0, RandomStream(9, (1,)))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
    assert not (np.array_equal(a.y, c.y) and np.array_equal(a.x, c.x))


def test_first_event_from_origin_is_arrival():
    traj = simulate_b((0, 0), BASE, 0.5, RandomStream(1), sampling=GridSpec(dt=0.5, record_events=True))
    assert traj.events.kind[0] == K_ARRIVAL
    assert traj.events.dy[0] == -1 and traj.events.dx[0] == 2
    # holding time of the first event is Exp(1000): check the empirical mean
    firsts = []
    for k in range(400):
        tr = simulate_b((0, 0), BASE, 0.05, RandomStream(77, (k,)),
                        sampling=GridSpec(dt=0.05, record_events=True))
        firsts.append(tr.events.t[0])
    mean = np.mean(firsts)
    se = np.std(firsts, ddof=1) / math.sqrt(len(firsts))
    assert abs(mean - 1e-3) <= 4 * se


def test_pending_count_never_negative():
    traj = simulate_b((-5, 0), BASE, 3.0, RandomStream(5), sampling=GridSpec(dt=0.001))
    assert traj.x.min() >= 0
    assert traj.t[0] == 0.0 and traj.y[0] == -5 and traj.x[0] == 0


def test_horizon_validation():
    with pytest.raises(HorizonZero):
        simulate_b((0, 0), BASE, 0.0, RandomStream(1))


def test_drift_replicates_match_single_runs():
    # one replicate over [0, h] must reproduce simulate_b's endpoint deltas
    h = 0.25
    for k in range(5):
        stream = RandomStream(31, (k,))
        deltas = drift_replicates_b((2, 5), BASE, h, 1, stream)
        traj = simulate_b((2, 5), BASE, h, stream, sampling=GridSpec(dt=h))
        assert deltas[0, 0] == traj.y[-1] - 2
        assert deltas[0, 1] == traj.x[-1] - 5


def _reference_drift_b(initial, params, dt, n_replicates, stream):
    """drift_replicates_b as one plain event loop per replicate, at rate lam."""
    y0, x0 = initial
    bound_rate = params.lam * params.scale_r
    gamma = int(params.gamma)
    gen = stream.generator()
    buf = gen.random(_BUF).tolist()
    bi = 0

    def draw():
        nonlocal buf, bi
        if bi >= _BUF:
            buf = gen.random(_BUF).tolist()
            bi = 0
        bi += 1
        return buf[bi - 1]

    out = np.empty((n_replicates, 2), dtype=np.int64)
    for rep in range(n_replicates):
        y, x, t = y0, x0, 0.0
        while True:
            acc = params.beta * x
            total = bound_rate + acc + params.epsilon * abs(y)
            t += -math.log(1.0 - draw()) / total
            if t > dt:
                break
            pick = draw() * total
            if pick < bound_rate:
                y, x = y - 1, x + gamma
            elif pick < bound_rate + acc:
                y, x = y + 1, x - min(gamma, x)
            elif x >= 1:
                x += -1 if y > 0 else 1
            elif y < 0:
                x += 1
        out[rep] = (y - y0, x - x0)
    return out


@pytest.mark.parametrize("dt, backend", over_backends([1e-4, 5e-3]), indirect=["backend"])
def test_drift_replicates_match_reference_on_generator_states(dt, backend):
    # dt = 1e-4 leaves ~90% of the replicates quiet; 5e-3 gives ~5 events each
    for k, state in enumerate(GENERATOR_STATES):
        stream = RandomStream(71, (k,))
        got = drift_replicates_b(state, BASE, dt, 2000, stream)
        assert np.array_equal(got, _reference_drift_b(state, BASE, dt, 2000, stream))


@pytest.mark.parametrize("backend", ["c", "python"], indirect=True)
def test_drift_replicates_match_reference_across_blocks(backend):
    # more replicates than uniforms in a block, with multi-event windows, so
    # refills fall inside windows as well as between them
    n = 70_000
    stream = RandomStream(72)
    got = drift_replicates_b((2, 5), BASE, 1e-3, n, stream)
    assert np.array_equal(got, _reference_drift_b((2, 5), BASE, 1e-3, n, stream))


@pytest.mark.parametrize("backend", ["c", "python"], indirect=True)
def test_run_ends_where_no_event_is_enabled(backend):
    # with no arrivals, an acceptance from (-1, 1) reaches (0, 0), where every
    # rate is zero: the run ends there and the grid holds (0, 0) to the horizon
    arrival = PiecewiseConstantArrival((), (0.0,))
    stream = RandomStream(74)
    traj = simulate_b((-1, 1), BASE, 5.0, stream, arrival=arrival,
                      sampling=GridSpec(dt=0.5, record_events=True))
    ref, kinds = _reference_run_b(-1, 1, BASE, 5.0, stream, arrival)
    assert ref[-1][1:] == (0, 0)
    assert np.array_equal(traj.events.t, [s[0] for s in ref[1:]])
    assert np.array_equal(traj.events.kind, kinds)
    assert np.array_equal(np.stack([traj.y, traj.x], axis=1), _grid_from_path(ref, 5.0, 0.5))


def test_thinning_bound_violation_detected():
    with pytest.raises(ThinningBoundViolated):
        simulate_b((0, 0), BASE, 10.0, RandomStream(3), arrival=LyingSinusoid(1.0, 0.2, 10.0))


# ---------------------------------------------------------------------------
# scalings
# ---------------------------------------------------------------------------

def _tiny_traj(y, x, scheme="B", arrival=None):
    return Trajectory(scheme=scheme, t=np.array([0.0]), y=np.array([y]),
                      x=np.array([x]), x_target=None, params=BASE, arrival=arrival,
                      stream=RandomStream(0), grid_dt=1.0, horizon=1.0, n_events=0)


def test_fluid_scale_arithmetic():
    sc = fluid_scale(_tiny_traj(500, 1300))
    assert sc.y[0] == pytest.approx(0.5)
    assert sc.x[0] == pytest.approx(0.3)
    assert sc.scale == "fluid-centered"
    cn = fluid_scale(_tiny_traj(0, 1000))
    assert cn.x[0] == pytest.approx(0.0)


def test_diffusion_scale_arithmetic():
    sc = diffusion_scale(_tiny_traj(-50, 1100))
    root = math.sqrt(1000.0)
    assert sc.y[0] == pytest.approx(-50 / root)
    assert sc.x[0] == pytest.approx(100 / root)


def test_time_varying_runs_default_to_uncentered():
    params = ModelParams(lam=1.0, scale_r=100.0, beta=1.0, gamma=2.0, epsilon=0.2)
    traj = simulate_b((0, 100), params, 1.0, RandomStream(2),
                      arrival=SinusoidArrival(1.0, 0.2, 120.0))
    sc = fluid_scale(traj)
    assert sc.scale == "fluid-uncentered"
    assert sc.x[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# pathwise replay
# ---------------------------------------------------------------------------

def test_reflection_replay_reproduces_direct_path():
    traj = simulate_b((0, 0), BASE, 6.0, RandomStream(101),
                      sampling=GridSpec(dt=1.0, record_events=True))
    assert traj.n_events > 10_000
    assert not traj.events.truncated
    replayed = reflect_representation((0, 0), traj.events, BASE)
    direct = 0 + np.cumsum(traj.events.dx.astype(np.int64))
    assert np.array_equal(replayed, direct)


def test_reflection_replay_exercises_boundary():
    # starting deep negative with an empty pool forces stalls and truncations
    params = ModelParams(lam=1.0, scale_r=5.0, beta=1.0, gamma=3.0, epsilon=0.5)
    traj = simulate_b((8, 2), params, 40.0, RandomStream(55),
                      sampling=GridSpec(dt=1.0, record_events=True))
    ev = traj.events
    null_ticks = np.sum((ev.kind == K_FEEDBACK_DOWN) & (ev.dx == 0))
    trunc = np.sum((ev.kind == K_ACCEPT) & (ev.dx > -3))
    assert null_ticks > 0 or trunc > 0
    replayed = reflect_representation((8, 2), ev, params)
    direct = 2 + np.cumsum(ev.dx.astype(np.int64))
    assert np.array_equal(replayed, direct)
    assert replayed.min() >= 0


def test_reflection_replay_rejects_corrupt_drivers():
    traj = simulate_b((0, 0), BASE, 0.5, RandomStream(7),
                      sampling=GridSpec(dt=0.5, record_events=True))
    ev = traj.events
    bad = EventLog(t=ev.t, kind=ev.kind, dy=-ev.dy, dx=ev.dx, truncated=False)
    with pytest.raises(DriverMismatch):
        reflect_representation((0, 0), bad, BASE)


def test_event_budget_truncates_log():
    traj = simulate_b((0, 0), BASE, 1.0, RandomStream(19),
                      sampling=GridSpec(dt=0.5, record_events=True, event_budget=100))
    assert traj.events.truncated
    assert len(traj.events) == 100
    assert traj.n_events > 100



@pytest.mark.parametrize("scheme", ["B", "A"])
def test_run_reaches_horizon_when_grid_stops_short(scheme):
    # horizon 1.0 with dt 0.3 puts the last grid point at 0.9; the events in
    # (0.9, 1.0] still happen, so the log matches a fine grid's
    p = ModelParams(lam=1.0, scale_r=100.0, beta=1.0, gamma=2.0, epsilon=0.2,
                    beta_tilde=1.0 if scheme == "A" else 0.0)

    def events(dt):
        sampling = GridSpec(dt=dt, record_events=True)
        if scheme == "A":
            traj = simulate_a(SystemState(0, 100, x_target=100.0), p, 1.0,
                              RandomStream(3), sampling=sampling)
        else:
            traj = simulate_b((0, 100), p, 1.0, RandomStream(3), sampling=sampling)
        return traj.n_events, traj.events

    (n_coarse, coarse), (n_fine, fine) = events(0.3), events(0.01)
    assert n_coarse == n_fine == {"B": 193, "A": 279}[scheme]
    assert coarse.t[-1] > 0.99
    for field in ("t", "kind", "dy", "dx"):
        np.testing.assert_array_equal(getattr(coarse, field), getattr(fine, field))


# ---------------------------------------------------------------------------
# scheme A
# ---------------------------------------------------------------------------

def test_scheme_a_first_event_replenishes_to_ceiling():
    params = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0,
                         epsilon=0.2, beta_tilde=1.0)
    init = SystemState(y=0, x=0, x_target=1000.0)
    traj = simulate_a(init, params, 0.05, RandomStream(23),
                      sampling=GridSpec(dt=0.05, record_events=True))
    ev = traj.events
    assert ev.kind[0] == K_ARRIVAL
    # target moves by +gamma (the queue term vanishes since y_pre = 0)
    assert ev.dx[0] == 1002  # 0 -> ceil(1002.0)
    assert traj.x[-1] >= 1


def test_scheme_a_requires_target():
    with pytest.raises(Exception):
        simulate_a(SystemState(y=0, x=0), BASE, 1.0, RandomStream(1))


def test_scheme_a_replenishment_band_gamma_one():
    # with no rejections and gamma = 1, the pool hugs the target from above
    params = ModelParams(lam=1.0, scale_r=400.0, beta=1.0, gamma=1.0,
                         epsilon=0.2, beta_tilde=0.0)
    init = SystemState(y=0, x=400, x_target=400.0)
    traj = simulate_a(init, params, 10.0, RandomStream(29), sampling=GridSpec(dt=0.01))
    gap = traj.x - traj.x_target
    assert gap.min() >= 0.0
    assert gap.max() < 2.0
    assert traj.x_target.min() >= 0.0


def test_scheme_a_rejections_leave_target_alone():
    params = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=2.0,
                         epsilon=0.2, beta_tilde=5.0)
    init = SystemState(y=0, x=50, x_target=50.0)
    traj = simulate_a(init, params, 2.0, RandomStream(37),
                      sampling=GridSpec(dt=0.01, record_events=True))
    ev = traj.events
    rejects = ev.kind == 4
    assert rejects.sum() > 0
    assert np.all(ev.dy[rejects] == 0)
    # a rejection is either a net -1 or an immediate top-up back above target
    assert set(np.unique(ev.dx[rejects])) <= {-1, 0}
    assert traj.x.min() >= 0


def test_scheme_a_pool_tracks_target_closely():
    params = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0,
                         epsilon=0.2, beta_tilde=1.0)
    init = SystemState(y=0, x=1000, x_target=1000.0)
    traj = simulate_a(init, params, 20.0, RandomStream(41), sampling=GridSpec(dt=0.01))
    gap = traj.x - traj.x_target
    assert gap.min() >= 0.0
    assert np.mean(np.abs(gap)) < 10.0
