import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import over_backends
from invitesim.acceptance import _euler_ensemble
from invitesim.ctmc import RandomStream
from invitesim.diffusion import (
    DiffusionError,
    DiffusionState,
    MomentPath,
    MomentState,
    NonSymmetricV0,
    _moments_at,
    _transition,
    lyapunov_residual,
    moment_ode,
    noise_vector,
    simulate_sde_ensemble,
    stationary_covariance,
)
from invitesim.fluid import FluidState, interior_solution
from invitesim.params import ModelParams, drift_matrix, spectral_decompose, star_norm

BASE = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)
SPEC = spectral_decompose(BASE)
V_INF = np.array([[0.5, -1.0], [-1.0, 2.1]])


def _random_params(rng):
    beta = rng.uniform(0.2, 3.0)
    gamma = rng.uniform(0.5, 4.0)
    eps = rng.uniform(0.05, 0.95) * gamma ** 2 * beta / 4.0
    lam = rng.uniform(0.2, 3.0)
    return ModelParams(lam=lam, scale_r=100.0, beta=beta, gamma=gamma, epsilon=eps)


def test_noise_vector_degeneracy():
    sig = noise_vector(BASE)
    assert sig[0] == -math.sqrt(2.0)
    assert sig[1] == -BASE.gamma * sig[0]


def test_stationary_covariance_values():
    assert np.allclose(stationary_covariance(BASE), V_INF, rtol=0, atol=1e-15)
    # every entry is linear in lam
    doubled = stationary_covariance(
        ModelParams(lam=2.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2))
    assert np.allclose(doubled, 2.0 * V_INF, atol=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(20):
        V = stationary_covariance(_random_params(rng))
        assert V[0, 1] == V[1, 0]
        assert V[0, 0] > 0 and V[1, 1] > 0


def test_lyapunov_residual_zero_at_stationarity():
    assert lyapunov_residual(V_INF, BASE) <= 1e-10
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = _random_params(rng)
        assert lyapunov_residual(stationary_covariance(p), p) <= 1e-10


def test_lyapunov_residual_nonzero_cases():
    # V = 0 leaves just the noise outer product, norm 10 at these params
    assert lyapunov_residual(np.zeros((2, 2)), BASE) == pytest.approx(10.0, abs=1e-12)
    assert lyapunov_residual(V_INF + np.eye(2), BASE) > 0.1
    with pytest.raises(NonSymmetricV0):
        lyapunov_residual(np.array([[0.0, 1.0], [0.0, 0.0]]), BASE)


def test_moment_state_validation():
    MomentState(m=np.zeros(2), V=V_INF)
    with pytest.raises(NonSymmetricV0):
        MomentState(m=np.zeros(2), V=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(NonSymmetricV0):
        MomentState(m=np.zeros(2), V=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_moment_ode_stationary_fixed_point():
    path = moment_ode(np.zeros(2), V_INF, BASE, horizon=10.0, dt=1e-3)
    dev = np.abs(path.V - V_INF[None]).max()
    assert dev <= 1e-10
    assert np.abs(path.m).max() == 0.0


def test_moment_mean_matches_spectral_form():
    path = moment_ode(np.array([1.0, 0.0]), np.zeros((2, 2)), BASE,
                      horizon=50.0, dt=1e-3)
    idx = np.linspace(0, len(path.t) - 1, 101).astype(int)
    for i in idx:
        want = interior_solution(FluidState(1.0, 0.0), path.t[i], SPEC)
        assert abs(path.m[i, 0] - want.y) < 1e-8
        assert abs(path.m[i, 1] - want.x) < 1e-8


def test_moment_ode_long_run_reaches_stationary():
    path = moment_ode(np.zeros(2), np.zeros((2, 2)), BASE, horizon=200.0, dt=1e-2)
    assert np.linalg.norm(path.final.V - V_INF) <= 1e-6
    assert lyapunov_residual(path.final.V, BASE) <= 1e-5


def test_moment_ode_preserves_psd():
    rng = np.random.default_rng(23)
    for _ in range(20):
        M = rng.normal(size=(2, 2))
        V0 = M.T @ M
        m0 = rng.normal(size=2)
        path = moment_ode(m0, V0, BASE, horizon=5.0, dt=1e-2)
        for i in range(0, len(path.t), 50):
            assert np.linalg.eigvalsh(path.V[i]).min() >= -1e-10
        assert np.abs(path.V[:, 0, 1] - path.V[:, 1, 0]).max() == 0.0


def _rk4_moments(m0, V0, params, horizon, dt):
    """Fixed-step 4th-order integration of m' = mA and V' = VA + A^T V + S,
    carrying the three distinct covariance entries."""
    beta, gamma, eps, lam = params.beta, params.gamma, params.epsilon, params.lam
    gb = gamma * beta

    def rhs(s):
        m1, m2, v11, v12, v22 = s
        return (beta * m2,
                -eps * m1 - gb * m2,
                2.0 * beta * v12 + 2.0 * lam,
                -eps * v11 - gb * v12 + beta * v22 - 2.0 * lam * gamma,
                -2.0 * eps * v12 - 2.0 * gb * v22 + 2.0 * lam * gamma ** 2)

    n = int(math.floor(horizon / dt * (1 + 1e-12))) + 1
    out = np.empty((n, 5))
    state = (m0[0], m0[1], V0[0, 0], V0[0, 1], V0[1, 1])
    out[0] = state
    h = dt
    for i in range(1, n):
        k1 = rhs(state)
        k2 = rhs(tuple(s + h / 2 * k for s, k in zip(state, k1)))
        k3 = rhs(tuple(s + h / 2 * k for s, k in zip(state, k2)))
        k4 = rhs(tuple(s + h * k for s, k in zip(state, k3)))
        state = tuple(s + h / 6 * (a + 2 * b + 2 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        out[i] = state
    return out


def test_moment_ode_closed_form_matches_rk4():
    # two independent witnesses of the eigenbasis closed form: the former
    # RK4 integrator and scipy's expm with V(t) = V_inf + e^{A't}(V0 - V_inf)e^{At}
    # dt = 5e-4 keeps RK4's own truncation error below 1e-10 for covariance
    # modes decaying at up to 2*nu2 ~ 20
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = _random_params(rng)
        M = rng.normal(size=(2, 2))
        V0 = M.T @ M
        m0 = rng.normal(size=2)
        path = moment_ode(m0, V0, p, horizon=2.0, dt=5e-4)
        rk4 = _rk4_moments(m0, V0, p, horizon=2.0, dt=5e-4)
        got = np.column_stack([path.m, path.V[:, 0, 0], path.V[:, 0, 1], path.V[:, 1, 1]])
        assert np.abs(got - rk4).max() <= 1e-9
        A = drift_matrix(p)
        v_inf = stationary_covariance(p)
        init = MomentState(m=m0, V=V0)
        for k in (500, 2000, 4000):
            E = expm(A * path.t[k])
            assert np.abs(path.m[k] - m0 @ E).max() <= 1e-9
            assert np.abs(path.V[k] - (v_inf + E.T @ (V0 - v_inf) @ E)).max() <= 1e-9
            m, V = _moments_at(init, p, path.t[k:k + 1])
            assert np.abs(m[0] - path.m[k]).max() <= 1e-12
            assert np.abs(V[0] - path.V[k]).max() <= 1e-12


def _euler_path(initial, horizon, stream, dt, noise_scale=1.0):
    """One Euler path of the sde-ode reference, recorded at every step."""
    n = int(round(horizon / dt))
    states = _euler_ensemble(initial, BASE, horizon=horizon, stream=stream, n_paths=1,
                             dt=dt, record_times=np.arange(n + 1) * dt,
                             noise_scale=noise_scale)
    return states[:, 0, 0], states[:, 0, 1]


def test_sde_drift_only_matches_linear_ode():
    stream = RandomStream(seed=5)
    truth = interior_solution(FluidState(0.0, 2.0), 5.0, SPEC)

    def terminal_error(dt):
        y, x = _euler_path(DiffusionState(0.0, 2.0), 5.0, stream, dt, noise_scale=0.0)
        return math.hypot(y[-1] - truth.y, x[-1] - truth.x)

    e_coarse = terminal_error(4e-3)
    e_fine = terminal_error(2e-3)
    assert e_coarse < 5e-3
    # first-order scheme: halving dt halves the drift error
    assert 1.6 < e_coarse / e_fine < 2.4


def test_sde_noise_parts_perfectly_correlated():
    dt = 1e-2
    y, x = _euler_path(DiffusionState(0.3, -0.2), 2.0, RandomStream(seed=9), dt)
    ny = y[1:] - y[:-1] - BASE.beta * x[:-1] * dt
    nx = x[1:] - x[:-1] + (BASE.epsilon * y[:-1] + BASE.gamma * BASE.beta * x[:-1]) * dt
    assert np.abs(nx + BASE.gamma * ny).max() <= 1e-12
    assert np.abs(ny).max() > 0.0


def test_sde_reproducible_and_stream_sensitive():
    a = _euler_path(DiffusionState(0.0, 0.0), 1.0, RandomStream(seed=3), 1e-2)
    b = _euler_path(DiffusionState(0.0, 0.0), 1.0, RandomStream(seed=3), 1e-2)
    c = _euler_path(DiffusionState(0.0, 0.0), 1.0, RandomStream(seed=3).child(1), 1e-2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], c[0])


def test_sde_rejects_off_grid_horizon():
    with pytest.raises(DiffusionError):
        _euler_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=1.0005,
                        stream=RandomStream(seed=1), n_paths=1, dt=1e-3)
    with pytest.raises(DiffusionError):
        simulate_sde_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=1.0005,
                              stream=RandomStream(seed=1), n_paths=10, dt=1e-3)
    with pytest.raises(DiffusionError, match="not on the step grid"):
        simulate_sde_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=1.0,
                              stream=RandomStream(seed=1), n_paths=10,
                              record_times=[0.50049], dt=1e-3)
    # 1.1 / 0.4 rounds to 3 steps: a record time 1.2 would be past the horizon
    with pytest.raises(DiffusionError, match="horizon 1.1"):
        simulate_sde_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=1.1,
                              stream=RandomStream(seed=1), n_paths=4, dt=0.4,
                              record_times=[1.2])
    with pytest.raises(DiffusionError, match="horizon 1.1"):
        _euler_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=1.1,
                        stream=RandomStream(seed=1), n_paths=4, dt=0.4)
    assert simulate_sde_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=1.2,
                                 stream=RandomStream(seed=1), n_paths=4,
                                 dt=0.4).shape == (1, 4, 2)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _van_loan_covariance(params, s):
    """Covariance reached from 0 over time s by the block exponential of
    Van Loan (1978), in the column form du = A^T u dt + sigma^T dW."""
    F = drift_matrix(params).T
    sig = noise_vector(params)
    block = expm(np.block([[-F, np.outer(sig, sig)], [np.zeros((2, 2)), F.T]]) * s)
    return block[2:, 2:].T @ block[:2, 2:]


def test_transition_mean_map_matches_expm():
    rng = np.random.default_rng(41)
    for p in [BASE] + [_random_params(rng) for _ in range(5)]:
        A = drift_matrix(p)
        for s in (1e-6, 0.5, 5.0):
            E, _ = _transition(p, s)
            assert _rel(E, expm(A * s)) <= 1e-12, (p, s)


def test_transition_covariance_matches_van_loan():
    # the block exponential holds e^{+nu s} next to e^{-nu s} and loses
    # digits as s grows, so past s = 1 the reference is the stationary form
    # V_inf - E^T V_inf E, which is accurate once s is not small
    rng = np.random.default_rng(43)
    for p in [BASE] + [_random_params(rng) for _ in range(5)]:
        for s in (1e-9, 1e-6, 1e-3, 0.5, 1.0):
            _, sigma = _transition(p, s)
            assert _rel(sigma, _van_loan_covariance(p, s)) <= 1e-10, (p, s)
        v_inf = stationary_covariance(p)
        for s in (2.0, 5.0):
            _, sigma = _transition(p, s)
            E = expm(drift_matrix(p) * s)
            assert _rel(sigma, v_inf - E.T @ v_inf @ E) <= 1e-10, (p, s)


def test_transition_covariance_over_a_short_interval():
    # the noise is rank 1, so Sigma(s) ~ s sigma^T sigma is singular to
    # first order; its clamped eigenvalues stay PSD
    s = 1e-6
    _, sigma = _transition(BASE, s)
    assert sigma[0, 1] == sigma[1, 0]
    ev = np.linalg.eigvalsh(sigma)
    assert ev.min() >= -1e-12 * ev.max()
    sig = noise_vector(BASE)
    assert _rel(sigma / s, np.outer(sig, sig)) <= 1e-5


def test_transition_chapman_kolmogorov():
    V0 = np.array([[0.7, -0.2], [-0.2, 1.3]])
    path = moment_ode(np.array([0.3, -0.1]), V0, BASE, horizon=5.0, dt=1e-3)
    E, sigma = _transition(BASE, 4.0)
    V1, V5 = path.at(1.0).V, path.at(5.0).V
    assert np.abs(E.T @ V1 @ E + sigma - V5).max() <= 1e-12
    assert np.abs(path.at(1.0).m @ E - path.at(5.0).m).max() <= 1e-12


def test_ensemble_moments_match_moment_ode():
    n = 10_000
    states = simulate_sde_ensemble(DiffusionState(0.0, 0.0), BASE, horizon=5.0,
                                   stream=RandomStream(seed=42), n_paths=n,
                                   dt=1e-3, record_times=[1.0, 5.0])
    assert states.shape == (2, n, 2)
    path = moment_ode(np.zeros(2), np.zeros((2, 2)), BASE, horizon=5.0, dt=1e-3)
    for k, t in enumerate([1.0, 5.0]):
        ref = path.at(t)
        sample = states[k]
        mean = sample.mean(axis=0)
        cov = np.cov(sample.T, bias=False)
        for i in range(2):
            se_mean = math.sqrt(ref.V[i, i] / n)
            assert abs(mean[i] - ref.m[i]) <= 3.0 * se_mean, (t, i)
            for j in range(i, 2):
                se_cov = math.sqrt((ref.V[i, i] * ref.V[j, j] + ref.V[i, j] ** 2) / n)
                assert abs(cov[i, j] - ref.V[i, j]) <= 3.0 * se_cov + 5e-3, (t, i, j)


def test_ensemble_reproducible():
    kw = dict(initial=DiffusionState(0.0, 0.0), params=BASE, horizon=0.5,
              n_paths=64, dt=1e-2, record_times=[0.0, 0.5])
    a = simulate_sde_ensemble(stream=RandomStream(seed=8), **kw)
    b = simulate_sde_ensemble(stream=RandomStream(seed=8), **kw)
    assert np.array_equal(a, b)
    assert np.all(a[0] == 0.0)


def test_ensemble_repeated_record_times_share_one_state():
    states = simulate_sde_ensemble(DiffusionState(0.5, -0.25), BASE, horizon=1.0,
                                   stream=RandomStream(seed=8), n_paths=256,
                                   record_times=[0.5, 0.5, 1.0])
    assert np.isfinite(states).all()
    assert np.array_equal(states[0], states[1])
    assert not np.array_equal(states[1], states[2])


def test_euler_repeated_record_times_share_one_state():
    kw = dict(initial=DiffusionState(0.5, -0.25), params=BASE, horizon=1.0,
              n_paths=64, dt=1e-2)
    rep = _euler_ensemble(stream=RandomStream(seed=8), record_times=[0.5, 0.5, 1.0], **kw)
    ref = _euler_ensemble(stream=RandomStream(seed=8), record_times=[0.5, 1.0], **kw)
    assert np.array_equal(rep, ref[[0, 0, 1]])
    zero = _euler_ensemble(stream=RandomStream(seed=8), record_times=[0.0, 0.0], **kw)
    assert np.array_equal(zero, np.broadcast_to([0.5, -0.25], zero.shape))


def test_ensemble_record_order_only_permutes():
    kw = dict(initial=DiffusionState(0.5, -0.25), params=BASE, horizon=2.0,
              n_paths=256, dt=1e-3)
    fwd = simulate_sde_ensemble(stream=RandomStream(seed=8), record_times=[0.5, 2.0], **kw)
    rev = simulate_sde_ensemble(stream=RandomStream(seed=8), record_times=[2.0, 0.5], **kw)
    assert np.array_equal(rev, fwd[::-1])


def test_moment_path_at_is_exact_between_samples():
    # between two samples of a 0.05 path, at() gives the sample of a path
    # whose grid holds that time; a straight line between the neighbours
    # was off by 2.2e-4 in the mean and 8.6e-3 in the covariance at t = 0.025
    m0 = np.array([0.5, -0.25])
    coarse = moment_ode(m0, np.zeros((2, 2)), BASE, horizon=10.0, dt=0.05)
    fine = moment_ode(m0, np.zeros((2, 2)), BASE, horizon=10.0, dt=0.025)
    for k in (1, 7, 399):
        st = coarse.at(fine.t[k])
        assert np.abs(st.m - fine.m[k]).max() <= 1e-12
        assert np.abs(st.V - fine.V[k]).max() <= 1e-12
    assert np.array_equal(coarse.at(0.0).m, m0)
    assert np.array_equal(coarse.at(0.0).V, np.zeros((2, 2)))


def test_moment_path_interp_and_csv(tmp_path):
    path = moment_ode(np.array([1.0, 0.0]), V_INF, BASE, horizon=2.0, dt=1e-2)
    st = path.at(1.005)
    lo, hi = path.at(1.0), path.at(1.01)
    assert lo.m[0] >= st.m[0] >= hi.m[0] or lo.m[0] <= st.m[0] <= hi.m[0]
    out = tmp_path / "moments.csv"
    path.to_csv(out, dt=10 * path.dt)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,m1,m2,V11,V12,V22"
    assert len(lines) == 1 + math.ceil(201 / 10)
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.5, -1.0, 2.1]
    for off_grid in (0.025, 0.004):  # rows must be path samples, not the nearest ones
        with pytest.raises(DiffusionError, match="not a multiple"):
            path.to_csv(out, dt=off_grid)


def _row_loop_moments_csv(path, mp, every):
    """The row-at-a-time MomentPath writer, kept as the byte reference."""
    with open(path, "w") as fh:
        fh.write("t,m1,m2,V11,V12,V22\n")
        for i in range(0, len(mp.t), every):
            fh.write(f"{mp.t[i]:.10g},{mp.m[i, 0]:.12g},{mp.m[i, 1]:.12g},"
                     f"{mp.V[i, 0, 0]:.12g},{mp.V[i, 0, 1]:.12g},"
                     f"{mp.V[i, 1, 1]:.12g}\n")


def _moment_path_cases():
    cases = {"solved": moment_ode(np.array([1.0, -0.5]), np.zeros((2, 2)), BASE,
                                  horizon=3.0, dt=1e-2)}
    # hand-made columns: no rows, and either side of the writers' block edge
    for n in (0, 2048, 2049):
        rng = np.random.default_rng(n)
        m = rng.normal(0.0, 1e3, (n, 2))
        V = rng.normal(0.0, 1.0, (n, 2, 2)) / 3
        if n:
            # negative zeros, which these files keep, and values .12g must round
            m[0, 0], V[1, 0, 1], V[2, 1, 1], m[3, 1] = -0.0, -0.0, -0.0, 123456789012.345
        cases[f"rows-{n}"] = MomentPath(t=np.arange(n) * 1e-3, m=m, V=V, dt=1e-3,
                                        params=BASE)
    return cases


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("case, backend", over_backends(list(_moment_path_cases())),
                         indirect=["backend"])
def test_moment_csv_bytes_match_row_loop(tmp_path, case, every, backend):
    path = _moment_path_cases()[case]
    path.to_csv(tmp_path / "new.csv", dt=every * path.dt)
    _row_loop_moments_csv(tmp_path / "old.csv", path, every)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == 1 + len(range(0, len(path.t), every))
    if case == "rows-2049":
        assert new.startswith(b"t,m1,m2,V11,V12,V22\n0,-0,")


def test_moment_ode_mean_decay_rate():
    # the mean decays at least at the slow rate nu1 in the star norm, and the
    # moments settle at (0, V_inf)
    m0 = np.array([1.0, 1.0])
    path = moment_ode(m0, np.zeros((2, 2)), BASE, horizon=200.0, dt=0.5)
    n0 = star_norm(m0, SPEC)
    for t in (2.0, 5.0, 10.0):
        assert star_norm(path.at(t).m, SPEC) <= n0 * math.exp(-SPEC.nu1 * t) * (1 + 1e-9)
    assert np.linalg.norm(path.final.m) <= 1e-6
    assert np.linalg.norm(path.final.V - V_INF) <= 1e-6
