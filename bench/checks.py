"""Correctness checks made apart from invitesim.

Every reference here is computed by the benchmark itself: closed forms
written out below, scipy integrations of the model's ODEs, ``expm`` moment
formulas, and statistics recomputed from the CSV files a run wrote.  Nothing
here calls invitesim.  Each check returns a list of failure messages; an
empty list means the outputs passed.

Statistical checks use thresholds that a correct program exceeds with
probability below 1e-3 per run, so a red check points at the program, not
at the seed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps
from scipy.integrate import solve_ivp
from scipy.linalg import expm

Z95 = 1.959963984540054
FALSE_ALARM = 1e-3


def stationary_cov(lam, beta, gamma, eps) -> np.ndarray:
    """Stationary covariance of the diffusion-scale pair (y, x)."""
    return np.array([
        [lam / (beta * gamma), -lam / beta],
        [-lam / beta, lam * (beta * gamma ** 2 + eps) / (beta ** 2 * gamma)],
    ])


def drift_matrix(beta, gamma, eps) -> np.ndarray:
    """A acting on row vectors (y, x): y' = beta*x, x' = -eps*y - gamma*beta*x."""
    return np.array([[0.0, -eps], [beta, -gamma * beta]])


def two_sided_z(n_tests: int) -> float:
    """|z| bound a correct run exceeds with probability below 1e-3 (Bonferroni)."""
    return float(sps.norm.isf(FALSE_ALARM / (2 * n_tests)))


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------

def check_stationary(out: dict, model: dict) -> list[str]:
    """Scheme-B steady state and scheme-A invariants.

    out: b_traj (t, y, x) rows from trajectory.csv, b_stat (stationary.json),
    b_events and b_horizon, a_traj (t, y, x, x_target) rows.
    """
    fails = []
    lam, r, beta = model["lam"], model["r"], model["beta"]
    gamma, eps = model["gamma"], model["epsilon"]
    t, y, x = out["b_traj"].T
    st = out["b_stat"]
    mean = np.asarray(st["mean"])
    cov = np.asarray(st["cov"])
    mean_hw = np.asarray(st["mean_halfwidth"])
    cov_hw = np.asarray(st["cov_halfwidth"])

    # the time averages the estimator reports, recomputed from the samples;
    # a grid sample holds its value until the next one
    win = (t >= st["burn_in"] - 1e-9) & (t < t[-1] - 1e-9)
    d = np.column_stack([y[win], x[win] - lam * r / beta]) / math.sqrt(r)
    my_mean = d.mean(axis=0)
    my_cov = (d - my_mean).T @ (d - my_mean) / len(d)
    if np.abs(my_mean - mean).max() > 1e-8 or np.abs(my_cov - cov).max() > 1e-8:
        fails.append(f"stationary.json mean/cov {mean.tolist()}/{cov.tolist()} differ "
                     f"from the CSV time averages {my_mean.tolist()}/{my_cov.tolist()}")

    ref = stationary_cov(lam, beta, gamma, eps)
    for i, j, name in ((0, 0, "yy"), (0, 1, "yx"), (1, 1, "xx")):
        tol = 0.10 * abs(ref[i, j]) + cov_hw[i, j]
        if abs(cov[i, j] - ref[i, j]) > tol:
            fails.append(f"cov_{name} {cov[i, j]:.4f} vs closed form {ref[i, j]:.4f} "
                         f"(tolerance {tol:.4f})")

    # fluid scale = diffusion scale / sqrt(r); the 95% half-width is widened
    # to the Student-t level that two means exceed with probability 1e-3
    widen = sps.t.isf(FALSE_ALARM / 4, st["n_batches"] - 1) / Z95
    fl_mean = mean / math.sqrt(r)
    fl_hw = widen * mean_hw / math.sqrt(r)
    for i, name in enumerate(("y", "x")):
        if abs(fl_mean[i]) > fl_hw[i]:
            fails.append(f"fluid-scale mean_{name} {fl_mean[i]:+.2e} has 0 outside "
                         f"its CI ±{fl_hw[i]:.2e}")

    rate = out["b_events"] / out["b_horizon"]
    if abs(rate / (2 * lam * r) - 1.0) > 0.01:
        fails.append(f"event rate {rate:.1f}/unit time, expected about {2 * lam * r:.0f}")

    if x.min() < 0:
        fails.append(f"scheme B pending count went negative ({x.min()})")
    _, _, xa, target = out["a_traj"].T
    if xa.min() < 0 or target.min() < 0:
        fails.append("scheme A pending count or target negative")
    if np.any(xa < target):
        k = int(np.argmax(xa < target))
        fails.append(f"scheme A pool {xa[k]} below target {target[k]} at sample {k}")
    return fails


# ---------------------------------------------------------------------------
# time-varying
# ---------------------------------------------------------------------------

def sinusoid(base, amplitude, period):
    return lambda t: base + amplitude * math.sin(2.0 * math.pi * t / period)


def tv_reference(initial, lam_fn, beta, gamma, eps, horizon, grid):
    """Uncentred fluid ODE integrated off the floor; None if it reaches x = 0.

    y' = beta*x - lam(t), x' = gamma*lam(t) - gamma*beta*x - eps*y.
    """
    def rhs(t, u):
        lt = lam_fn(t)
        return [beta * u[1] - lt, gamma * lt - gamma * beta * u[1] - eps * u[0]]

    def floor(t, u):
        return u[1]

    floor.terminal = True
    floor.direction = -1.0
    sol = solve_ivp(rhs, (0.0, horizon), list(initial), method="DOP853",
                    t_eval=grid, events=floor, rtol=1e-11, atol=1e-12)
    if sol.t_events[0].size or sol.t.size != len(grid) or np.min(sol.y[1][1:]) <= 0.0:
        return None
    return sol.y.T


def check_time_varying(out: dict, model: dict, runs: list[dict]) -> list[str]:
    """out[name]: fluid (t, y, x) rows of fluid.csv, traj (t, y, x) rows of
    trajectory.csv and deviation (deviation.json), for each run in runs
    (name, unscaled initial state, horizon)."""
    fails = []
    lam_max = model["base"] + abs(model["amplitude"])
    beta, gamma, eps, r = model["beta"], model["gamma"], model["epsilon"], model["r"]
    # sup of the centred fluctuation over the run, in units of the largest
    # stationary x standard deviation at this scale; a Gaussian sup exceeds
    # SUP_SIGMAS over a few thousand effective samples with probability
    # far below 1e-3
    sd_x = math.sqrt(stationary_cov(lam_max, beta, gamma, eps)[1, 1] / r)
    bound = model["sup_sigmas"] * sd_x
    lam_fn = sinusoid(model["base"], model["amplitude"], model["period"])
    for run in runs:
        name = run["name"]
        o = out[name]
        y0, x0 = run["initial"][0] / r, run["initial"][1] / r
        ft = o["fluid"][:, 0]
        ref = tv_reference((y0, x0), lam_fn, beta, gamma, eps, run["horizon"], ft)
        if ref is None:
            fails.append(f"{name}: the reference path reaches the floor; the "
                         "off-floor comparison does not apply")
            continue
        err = np.abs(o["fluid"][:, 1:] - ref).max()
        if err > 1e-6:
            fails.append(f"{name}: solve_fluid_tv differs from the solve_ivp "
                         f"reference by {err:.2e}")
        tt = o["traj"][:, 0]
        ref_t = np.column_stack([np.interp(tt, ft, ref[:, 0]), np.interp(tt, ft, ref[:, 1])])
        mine = np.abs(o["traj"][:, 1:] / r - ref_t).max()
        sup = o["deviation"]["sup"]
        if abs(mine - sup) > 1e-6:
            fails.append(f"{name}: deviation.json sup {sup:.6f} but the CSV "
                         f"against the reference gives {mine:.6f}")
        if not sup < bound:
            fails.append(f"{name}: sup deviation {sup:.4f} above the "
                         f"{model['sup_sigmas']}-sigma fluctuation bound {bound:.4f}")
    return fails


# ---------------------------------------------------------------------------
# limit checks
# ---------------------------------------------------------------------------

def expected_drift(state, model, dt):
    """Mean (dY, dX) over a short window, rate sums written out longhand."""
    y, x = state
    lam_r = model["lam"] * model["r"]
    beta, gamma, eps = model["beta"], model["gamma"], model["epsilon"]
    if x >= 1:
        fb = -eps * y
    else:
        fb = eps * abs(y) if y < 0 else 0.0
    return ((-lam_r + beta * x) * dt,
            (lam_r * gamma - beta * x * min(gamma, x) + fb) * dt)


def reflection_reference(initial, model, horizon, grid):
    """Centred constant-rate fluid path with the floor x = -lam/beta.

    Interior: solve_ivp of the linear ODE until it meets the floor.  On the
    floor the path slides with y' = -lam until y = gamma*lam/eps, then lifts
    off.  A touch below the exit level is a graze and integration goes on.
    """
    lam, beta, gamma, eps = model["lam"], model["beta"], model["gamma"], model["epsilon"]
    floor = -lam / beta
    exit_y = gamma * lam / eps

    def rhs(t, u):
        return [beta * u[1], -eps * u[0] - gamma * beta * u[1]]

    def hit(t, u):
        return u[1] - floor

    hit.terminal = True
    hit.direction = -1.0
    grid = np.asarray(grid, dtype=float)
    out = np.full((grid.size, 2), np.nan)
    t0 = 0.0
    y, x = float(initial[0]), max(float(initial[1]), floor)
    sliding = x <= floor + 1e-12 and y > exit_y
    for _ in range(8):
        if t0 >= horizon - 1e-12:
            break
        todo = grid >= t0 - 1e-12
        if sliding:
            t1 = min(t0 + (y - exit_y) / lam, horizon)
            seg = todo & (grid <= t1 + 1e-12)
            out[seg] = np.column_stack([y - lam * (grid[seg] - t0),
                                        np.full(seg.sum(), floor)])
            y -= lam * (t1 - t0)
            x, t0, sliding = floor, t1, False
            continue
        # a start on the floor (after a slide) has g = 0 and g > 0 just
        # after, which solve_ivp does not report as a downward crossing
        sol = solve_ivp(rhs, (t0, horizon), [y, x], method="DOP853",
                        events=hit, dense_output=True, rtol=1e-11, atol=1e-13)
        t1 = float(sol.t[-1])
        seg = todo & (grid <= t1 + 1e-12)
        out[seg] = sol.sol(grid[seg]).T
        if sol.t_events[0].size:
            y, x = float(sol.y_events[0][0][0]), floor
            sliding = y > exit_y
        t0 = t1
    if np.isnan(out).any():
        raise RuntimeError("reflection reference did not cover the grid")
    return out


def check_limits(out: dict, model: dict, inputs: dict) -> list[str]:
    fails = []
    lam, beta, gamma, eps = model["lam"], model["beta"], model["gamma"], model["epsilon"]

    # generator drift audit
    rows = out["drift"]
    bound = two_sided_z(2 * len(rows))
    worst = 0.0
    for state, mean, se in rows:
        exp = np.array(expected_drift(state, model, inputs["drift_dt"]))
        z = np.abs((np.asarray(mean) - exp) / np.maximum(se, 1e-15))
        if z.max() > worst:
            worst, worst_state = float(z.max()), state
    if worst > bound:
        fails.append(f"drift |z| {worst:.2f} at state {worst_state} above {bound:.2f}")

    # event-logged runs replayed through the reflection map
    for k, run in enumerate(out["logged"]):
        direct = run["x0"] + np.cumsum(run["dx"].astype(np.int64))
        if run["truncated"] or not np.array_equal(run["replayed"], direct):
            fails.append(f"logged run {k}: replayed X differs from the direct X")
            continue
        # the grid sample at time g holds the state after every event at or before g
        idx = np.searchsorted(run["t"], run["grid_t"], side="right") - 1
        at_grid = np.where(idx >= 0, run["replayed"][np.maximum(idx, 0)], run["x0"])
        if not np.array_equal(at_grid, run["grid_x"]):
            fails.append(f"logged run {k}: replayed X disagrees with the grid samples")

    # SDE ensemble against the moment ODE
    mpath = out["moments"]
    sde = out["sde"]
    n = sde["states"].shape[1]
    zb = two_sided_z(5 * len(sde["times"]))
    for k, tt in enumerate(sde["times"]):
        i_t = int(round(tt / mpath["dt"]))
        m, V = mpath["m"][i_t], mpath["V"][i_t]
        sample = sde["states"][k]
        s_mean = sample.mean(axis=0)
        s_cov = np.cov(sample.T)
        for i in range(2):
            z = abs(s_mean[i] - m[i]) / math.sqrt(V[i, i] / n)
            if z > zb:
                fails.append(f"SDE mean_{i} at t={tt}: |z| {z:.2f} > {zb:.2f}")
            for j in range(i, 2):
                se = math.sqrt((V[i, i] * V[j, j] + V[i, j] ** 2) / n)
                z = abs(s_cov[i, j] - V[i, j]) / se
                if z > zb:
                    fails.append(f"SDE cov_{i}{j} at t={tt}: |z| {z:.2f} > {zb:.2f}")

    # moment ODE against m(t) = m0 e^{At}, V(t) = Vinf - e^{A't} Vinf e^{At}
    A = drift_matrix(beta, gamma, eps)
    v_inf = stationary_cov(lam, beta, gamma, eps)
    m0 = np.asarray(inputs["m0"])
    for tt in inputs["moment_times"]:
        i_t = int(round(tt / mpath["dt"]))
        E = expm(A * tt)
        m_ex = m0 @ E
        V_ex = v_inf - E.T @ v_inf @ E
        err = max(np.abs(mpath["m"][i_t] - m_ex).max(), np.abs(mpath["V"][i_t] - V_ex).max())
        if err > 1e-8:
            fails.append(f"moment_ode at t={tt} off the exact solution by {err:.2e}")
    gap = np.abs(mpath["V"][-1] - v_inf).max()
    if gap > 1e-6:
        fails.append(f"moment_ode covariance {gap:.2e} from stationarity at the horizon")

    # constant-rate fluid paths against the solve_ivp reflection reference
    grid = inputs["fluid_grid"]
    for initial, states, fluid_model in out["fluid"]:
        ref = reflection_reference(initial, fluid_model, inputs["fluid_horizon"], grid)
        err = np.abs(states - ref).max()
        if err > 1e-6:
            fails.append(f"solve_fluid from {tuple(round(v, 4) for v in initial)} "
                         f"differs from the reference by {err:.2e}")
    return fails


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SLOPE_TOLERANCE = 0.15


def check_sweep(rows: np.ndarray) -> list[str]:
    """rows: (r, mean_dev, std_dev, n) from sweep.csv."""
    fails = []
    r, mean_dev = rows[:, 0], rows[:, 1]
    if not np.all(np.diff(mean_dev) < 0):
        fails.append(f"mean deviation does not decrease in r: {mean_dev.tolist()}")
    slope = float(np.polyfit(np.log(r), np.log(mean_dev), 1)[0])
    if abs(slope + 0.5) > SLOPE_TOLERANCE:
        fails.append(f"log-log slope {slope:.3f} is not near -1/2 "
                     f"(tolerance {SLOPE_TOLERANCE})")
    return fails
