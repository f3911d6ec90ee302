"""Acceptance suites: ten pinned-seed experiments with hard thresholds.

Each suite runs one quantitative claim end to end and reports measured values
next to its thresholds.  Suites are deterministic given the pinned seeds, so
a rerun produces identical numbers.  Results print one line each; the runner
exits nonzero when any executed suite fails.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .ctmc import (
    GridSpec,
    RandomStream,
    SystemState,
    drift_replicates_b,
    fluid_scale,
    reflect_representation,
    simulate_a,
    simulate_b,
)
from .diffusion import (
    DiffusionError,
    DiffusionState,
    _record_steps,
    lyapunov_residual,
    moment_ode,
    stationary_covariance,
)
from .fluid import drift_check, solve_fluid
from .params import (ModelParams, SinusoidArrival, _time_grid, spectral_decompose, star_norm,
                     validate_params)
from .stats import (batch_means, fluid_reference, replicate, scale_sweep,
                    stationary_moments, sup_deviation)

P6 = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)
SINE = SinusoidArrival(base=1.0, amplitude=0.2, period=120.0)

SEEDS = {
    "generator": 101,
    "fluid-convergence": 202,
    "stationary": 404,
    "sde-ode": 707,
    "scheme-a": 808,
    "time-varying": 909,
    "reflection": 1100,
}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: dict
    thresholds: dict
    wall_clock_s: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.name,
            "pass": self.passed,
            "measured": self.measured,
            "thresholds": self.thresholds,
            "wall_clock_s": self.wall_clock_s,
            "detail": self.detail,
        }


def _finish(name, passed, measured, thresholds, t0, detail) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), measured=measured,
                           thresholds=thresholds,
                           wall_clock_s=round(time.perf_counter() - t0, 3),
                           detail=detail)


# ---------------------------------------------------------------------------
# 1. generator correctness
# ---------------------------------------------------------------------------

GENERATOR_STATES = (
    (0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0), (9, 0), (-9, 0),
    (0, 1), (0, 4), (1, 1), (-1, 1), (4, 1), (-4, 2),
    (5, 2), (-5, 3), (2, 7), (-2, 6), (7, 10), (-7, 12), (6, 3),
)


def _longhand_drift(y: int, x: int) -> tuple[float, float]:
    """Expected (dY, dX) per unit time from (y, x) under P6, written out
    longhand, independent of any rate table: arrivals Lam (dy -1, dx +gamma);
    acceptances beta*x (dy +1, dx -min(gamma, x)); feedback eps*|y| nudging x
    toward balance, with the x=0 case only able to push up (y<0) or idle (y>0)."""
    lam_r = P6.raw_arrival_rate
    if x >= 1:
        fb = -P6.epsilon * y
    else:
        fb = P6.epsilon * abs(y) if y < 0 else 0.0
    return -lam_r + P6.beta * x, lam_r * P6.gamma - P6.beta * x * min(P6.gamma, x) + fb


def criterion_generator() -> CriterionResult:
    """Mean one-step drift over a short window vs the written-out rate sums."""
    t0 = time.perf_counter()
    dt, n = 1e-4, 100_000
    stream = RandomStream(seed=SEEDS["generator"])
    worst = 0.0
    worst_state = None
    for k, (y, x) in enumerate(GENERATOR_STATES):
        drift_y, drift_x = _longhand_drift(y, x)
        exp_dy, exp_dx = drift_y * dt, drift_x * dt
        deltas = drift_replicates_b(SystemState(y, x), P6, dt=dt, n_replicates=n,
                                    stream=stream.child(k))
        emp = deltas.mean(axis=0)
        se = np.maximum(deltas.std(axis=0, ddof=1) / math.sqrt(n), 1e-15)
        z = np.abs((emp - [exp_dy, exp_dx]) / se)
        if z.max() > worst:
            worst = float(z.max())
            worst_state = (y, x)
    passed = worst <= 3.0
    return _finish(
        "generator", passed,
        {"max_abs_z": worst, "worst_state": list(worst_state),
         "states": len(GENERATOR_STATES), "replicates": n, "dt": dt},
        {"max_abs_z": 3.0}, t0,
        f"max |z| {worst:.2f} over {len(GENERATOR_STATES)} states, "
        f"{n} replicates (threshold 3)")


# ---------------------------------------------------------------------------
# 2. fluid convergence
# ---------------------------------------------------------------------------

SCALED_INITIALS = ((0.0, -1.0), (1.0, -1.0), (0.0, 1.0), (-1.0, 1.0))
FLUID_DEV_THRESHOLDS = {100: 0.08, 1000: 0.03}


def criterion_fluid_convergence(replications: int = 20) -> CriterionResult:
    t0 = time.perf_counter()
    stream = RandomStream(seed=SEEDS["fluid-convergence"])
    x_center = P6.lam / P6.beta
    cells = {}
    ok = True
    for i, (y0, x0) in enumerate(SCALED_INITIALS):
        table = scale_sweep(
            (100, 1000), lambda r: (round(y0 * r), round((x0 + x_center) * r)),
            P6, horizon=50.0, replications=replications, stream=stream.child(i))
        for row in table.rows:
            r = int(row.r)
            thr = FLUID_DEV_THRESHOLDS[r]
            hits = sum(d <= thr for d in row.devs)
            cells[f"init{i}_r{r}"] = {
                "mean_dev": row.mean_dev, "max_dev": max(row.devs),
                "min_dev": min(row.devs),
                "within_threshold": hits, "threshold": thr,
            }
            ok = ok and hits >= 18
        cells[f"init{i}_mean_decreasing"] = table.monotone_decreasing
        ok = ok and table.monotone_decreasing
    return _finish(
        "fluid-convergence", ok, cells,
        {"per_cell_hits": "≥18/20", "dev_r100": 0.08, "dev_r1000": 0.03,
         "mean_decreasing": True}, t0,
        "; ".join(
            f"init{i}: r=100 hits {cells[f'init{i}_r100']['within_threshold']}/"
            f"{replications} (mean {cells[f'init{i}_r100']['mean_dev']:.3f} vs 0.08), "
            f"r=1000 hits {cells[f'init{i}_r1000']['within_threshold']}/"
            f"{replications} (mean {cells[f'init{i}_r1000']['mean_dev']:.3f} vs 0.03)"
            for i in range(len(SCALED_INITIALS))))


# ---------------------------------------------------------------------------
# 3. fluid model properties
# ---------------------------------------------------------------------------

def _fluid_fields(arrival, params: ModelParams, t: float):
    """(interior, slide, lift, w) on the arrival piece that holds t, linear in
    z = (y, x, 1, sin wt, cos wt) of the uncentred view: z' = interior @ z off
    the floor, z' = slide @ z on it, and lift @ z = gamma*lam(t) - epsilon*y.
    None and piecewise pieces have amplitude 0."""
    if isinstance(arrival, SinusoidArrival):
        base, amp, w = arrival.base, arrival.amplitude, 2.0 * math.pi / arrival.period
    else:
        base, amp, w = params.lam if arrival is None else arrival(t), 0.0, 0.0
    rate = np.array([0.0, 0.0, base, amp, 0.0])  # rate @ z = lam(t)
    lift = params.gamma * rate - [params.epsilon, 0.0, 0.0, 0.0, 0.0]
    slide = np.zeros((5, 5))
    slide[0], slide[3, 4], slide[4, 3] = -rate, w, -w
    interior = slide.copy()
    interior[0, 1], interior[1], interior[1, 1] = params.beta, lift, -params.gamma * params.beta
    return interior, slide, lift, w


def _exact_fluid_path(initial, arrival, params: ModelParams, horizon: float, grid):
    """The fluid path of the uncentred view (floor at x = 0) at the evenly
    spaced times of grid in [0, horizon], and its number of floor visits.
    On and off the floor the path is expm(M*s) @ z for a matrix M of
    _fluid_fields, so one step matrix walks the grid; a switch seen at a grid
    point is rechecked with a direct expm and placed by brentq inside its
    interval.  Independent of solve_fluid.  A floor visit that starts and
    ends between two grid points is missed."""
    from scipy.linalg import expm
    from scipy.optimize import brentq

    grid = np.asarray(grid, dtype=float)
    out, h = np.empty((grid.size, 2)), grid[1] - grid[0]
    t, z, i, visits = 0.0, np.asarray(initial, dtype=float), 0, 0
    jumps = [] if arrival is None else arrival.jump_times(0.0, horizon)
    for stop in [*jumps, horizon]:
        interior, slide, lift, w = _fluid_fields(arrival, params, t)
        z = np.array([z[0], z[1], 1.0, math.sin(w * t), math.cos(w * t)])
        on_floor = bool(z[1] <= 0.0 and lift @ z <= 0.0)
        while t < stop:
            m, gap = (slide, -lift) if on_floor else (interior, np.eye(5)[1])

            def held(tau):  # > 0 while the current mode holds, tau after t
                return gap @ expm(m * tau) @ z
            j = int(np.searchsorted(grid, stop))
            ts = np.append(grid[i:j], stop) - t  # the grid points in [t, stop), then stop
            zs, step = (expm(m * ts[0]) @ z)[:, None], expm(m * h)
            while zs.shape[1] < j - i:  # step^k @ zs[:, 0], k < 2^n, by doubling
                zs, step = np.hstack([zs, step @ zs]), step @ step
            zs = np.column_stack([zs[:, :j - i], expm(m * ts[-1]) @ z])
            k = next((k for k in np.flatnonzero(gap @ zs < 0.0) if held(ts[k]) < 0.0), None)
            if k is None:
                visits += on_floor
                out[i:j], i, t, z = zs[:2, :-1].T, j, stop, zs[:, -1]
                break
            a = ts[k - 1] if k else 0.0
            s = a if held(a) <= 0.0 else brentq(held, a, ts[k], xtol=1e-15)
            visits += bool(on_floor and s > 0.0)
            out[i:i + k], i = zs[:2, :k].T, i + k
            z, t, on_floor = expm(m * s) @ z, t + s, not on_floor
            z[1] = 0.0
    out[i:] = z[:2]
    return out, visits


def criterion_fluid_model(n_states: int = 100) -> CriterionResult:
    t0 = time.perf_counter()
    spec = spectral_decompose(P6)
    rng = np.random.default_rng(303)
    grid = _time_grid(50.0, 0.05)
    shift = np.array([0.0, P6.lam / P6.beta])  # the reference's view puts the floor at 0
    worst = {"segments": 0, "ratio_min": float("inf"), "bdry_max": -float("inf"),
             "final_norm": 0.0, "ref_sup": 0.0, "contacts_off": 0}
    for _ in range(n_states):
        y0 = rng.uniform(-20.0, 20.0)
        x0 = rng.uniform(-P6.lam / P6.beta, 20.0)
        traj = solve_fluid((y0, x0), P6, horizon=50.0)
        rep = drift_check(traj)
        far = solve_fluid((y0, x0), P6, horizon=50.0 / spec.nu1)
        ref, contacts = _exact_fluid_path((y0, x0) + shift, None, P6, 50.0, grid)
        worst["segments"] = max(worst["segments"], traj.boundary_segments)
        if rep.interior_ratio_min is not None:
            worst["ratio_min"] = min(worst["ratio_min"], rep.interior_ratio_min)
        if rep.boundary_drift_max is not None:
            worst["bdry_max"] = max(worst["bdry_max"], rep.boundary_drift_max)
        worst["final_norm"] = max(worst["final_norm"], star_norm(far.state(far.horizon), spec))
        worst["ref_sup"] = max(worst["ref_sup"], np.abs(traj.states(grid) + shift - ref).max())
        worst["contacts_off"] += contacts != traj.boundary_segments
    ok = (worst["segments"] <= 1 and worst["ratio_min"] >= spec.nu1 * (1 - 1e-6)
          and worst["bdry_max"] < 0.0 and worst["final_norm"] <= 1e-3
          and worst["ref_sup"] <= 1e-6 and worst["contacts_off"] == 0)
    return _finish(
        "fluid-model", ok,
        {"max_boundary_segments": worst["segments"],
         "min_interior_decay_ratio": worst["ratio_min"],
         "max_boundary_drift": None if worst["bdry_max"] == -float("inf")
                               else worst["bdry_max"],
         "max_final_star_norm": worst["final_norm"],
         "max_sup_vs_reference": float(worst["ref_sup"]),
         "floor_contact_count_mismatches": worst["contacts_off"], "states": n_states},
        {"max_boundary_segments": 1,
         "min_interior_decay_ratio": spec.nu1 * (1 - 1e-6),
         "max_boundary_drift": 0.0, "max_final_star_norm": 1e-3,
         "max_sup_vs_reference": 1e-6, "floor_contact_count_mismatches": 0}, t0,
        f"{n_states} states: ≤{worst['segments']} boundary seg, decay ratio "
        f"≥{worst['ratio_min']:.6f} (ν1={spec.nu1:.6f}), ref sup {worst['ref_sup']:.2e} "
        f"(≤1e-6), {worst['contacts_off']} floor-contact count mismatches (0), "
        f"norm at t=50/ν1 {worst['final_norm']:.2e} (≤1e-3)")


# ---------------------------------------------------------------------------
# 4 & 5. stationary mean / diffusion covariance (one shared long run)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _stationary_run():
    return simulate_b(SystemState(0, 1000), P6, horizon=5000.0,
                      stream=RandomStream(seed=SEEDS["stationary"]),
                      sampling=GridSpec(dt=0.05))


def criterion_stationary_mean() -> CriterionResult:
    t0 = time.perf_counter()
    traj = _stationary_run()
    scaled = fluid_scale(traj)
    est = batch_means((scaled.t, np.column_stack([scaled.y, scaled.x])),
                      burn_in=100.0, n_batches=20)
    band = 0.02
    cis = []
    ok = True
    for i, nm in enumerate(("y", "x")):
        lo = est.mean[i] - est.mean_halfwidth[i]
        hi = est.mean[i] + est.mean_halfwidth[i]
        cis.append({"component": nm, "mean": float(est.mean[i]),
                    "ci": [float(lo), float(hi)]})
        if not (-band < lo and hi < band):
            ok = False
    return _finish(
        "stationary-mean", ok,
        {"intervals": cis, "burn_in": 100.0, "n_batches": 20,
         "horizon": traj.horizon},
        {"ci_within": [-band, band]}, t0,
        ", ".join(f"mean({c['component']}) CI [{c['ci'][0]:+.4f}, "
                  f"{c['ci'][1]:+.4f}]" for c in cis) + f" ⊂ (±{band})")


def criterion_diffusion_stationary() -> CriterionResult:
    t0 = time.perf_counter()
    est = stationary_moments(_stationary_run(), burn_in=100.0)
    ref = stationary_covariance(P6)
    checks = [
        ("var_y", est.cov[0, 0], ref[0, 0], 0.10 * ref[0, 0]),
        ("cov_yx", est.cov[0, 1], ref[0, 1], 0.10 * abs(ref[0, 1])),
        ("var_x", est.cov[1, 1], ref[1, 1], 0.10 * ref[1, 1]),
        ("skew_y", est.skew_y, 0.0, 0.1 + est.skew_halfwidth),
        ("exkurt_y", est.exkurt_y, 0.0, 0.2 + est.exkurt_halfwidth),
    ]
    rows = []
    ok = True
    for name, got, want, tol in checks:
        hit = abs(got - want) <= abs(tol)
        rows.append({"entry": name, "estimate": float(got), "reference": float(want),
                     "tolerance": float(abs(tol)), "pass": bool(hit)})
        if not hit:
            ok = False
    return _finish(
        "diffusion-stationary", ok, {"entries": rows},
        {"cov_rel": 0.10, "skew_abs": "0.1+CI", "exkurt_abs": "0.2+CI"}, t0,
        ", ".join(f"{r['entry']}={r['estimate']:+.3f} (ref {r['reference']:+.2f}"
                  f"±{r['tolerance']:.3f})" for r in rows))


# ---------------------------------------------------------------------------
# 6. closed forms
# ---------------------------------------------------------------------------

def criterion_closed_form() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    max_res = 0.0
    for _ in range(50):
        beta = rng.uniform(0.2, 3.0)
        gamma = rng.uniform(0.5, 4.0)
        eps = rng.uniform(0.05, 0.95) * gamma ** 2 * beta / 4.0
        p = ModelParams(lam=rng.uniform(0.2, 3.0), scale_r=100.0, beta=beta,
                        gamma=gamma, epsilon=eps)
        max_res = max(max_res, lyapunov_residual(stationary_covariance(p), p))
    path = moment_ode(np.zeros(2), np.zeros((2, 2)), P6, horizon=200.0, dt=1e-2)
    gap = float(np.linalg.norm(path.final.V - stationary_covariance(P6)))
    ok = max_res <= 1e-10 and gap <= 1e-6
    return _finish(
        "closed-form", ok,
        {"max_lyapunov_residual": max_res, "moment_ode_gap_at_200": gap,
         "random_param_sets": 50},
        {"max_lyapunov_residual": 1e-10, "moment_ode_gap_at_200": 1e-6}, t0,
        f"residual ≤ {max_res:.2e} over 50 param sets (≤1e-10); "
        f"‖V(200)−V∞‖ = {gap:.2e} (≤1e-6)")


# ---------------------------------------------------------------------------
# 7. SDE vs moment ODE
# ---------------------------------------------------------------------------

def _euler_ensemble(initial, params: ModelParams, horizon: float,
                    stream: RandomStream, n_paths: int, dt: float = 1e-3,
                    record_times=None, noise_scale: float = 1.0) -> np.ndarray:
    """Vectorized Euler ensemble; returns states of shape (len(record_times),
    n_paths, 2).  Record times must sit on the step grid; default is the
    horizon alone.  An integrator independent of the closed forms, so sde-ode
    checks moment_ode against something other than itself.

    noise_scale rescales the diffusion coefficient only (0 gives the drift
    ODE; used to test the integrator order separately from the noise).
    """
    validate_params(params, scheme="A")
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf and n_paths > 0):
        raise DiffusionError("horizon and dt must be finite and > 0, and n_paths > 0")
    record_steps, n = _record_steps(record_times, horizon, dt)
    y0, x0 = (initial.y_hat, initial.x_hat) if isinstance(initial, DiffusionState) \
        else (float(initial[0]), float(initial[1]))
    beta, gamma, eps = params.beta, params.gamma, params.epsilon
    s1 = -math.sqrt(2.0 * params.lam) * noise_scale
    gen = stream.generator()
    y = np.full(n_paths, y0)
    x = np.full(n_paths, x0)
    out = np.empty((len(record_steps), n_paths, 2))
    rec = {}  # step -> every slot recorded at it
    for i, k in enumerate(record_steps):
        rec.setdefault(k, []).append(i)
    if 0 in rec:
        out[rec[0], :, 0] = y
        out[rec[0], :, 1] = x
    sq = math.sqrt(dt)
    for k in range(n):
        ny = (s1 * sq) * gen.standard_normal(n_paths)
        y, x = (y + (beta * dt) * x + ny,
                x - (eps * dt) * y - (gamma * beta * dt) * x - gamma * ny)
        if k + 1 in rec:
            out[rec[k + 1], :, 0] = y
            out[rec[k + 1], :, 1] = x
    return out


def criterion_sde_ode() -> CriterionResult:
    t0 = time.perf_counter()
    n = 10_000
    states = _euler_ensemble(DiffusionState(0.0, 0.0), P6, horizon=5.0,
                             stream=RandomStream(seed=SEEDS["sde-ode"]),
                             n_paths=n, dt=1e-3, record_times=[1.0, 5.0])
    path = moment_ode(np.zeros(2), np.zeros((2, 2)), P6, horizon=5.0, dt=1e-3)
    worst = 0.0
    rows = []
    for k, tt in enumerate((1.0, 5.0)):
        ref = path.at(tt)
        sample = states[k]
        mean = sample.mean(axis=0)
        cov = np.cov(sample.T)
        for i in range(2):
            z = abs(mean[i] - ref.m[i]) / math.sqrt(ref.V[i, i] / n)
            rows.append({"t": tt, "entry": f"mean_{i}", "z": float(z)})
            worst = max(worst, z)
            for j in range(i, 2):
                se = math.sqrt((ref.V[i, i] * ref.V[j, j] + ref.V[i, j] ** 2) / n)
                z = abs(cov[i, j] - ref.V[i, j]) / se
                rows.append({"t": tt, "entry": f"cov_{i}{j}", "z": float(z)})
                worst = max(worst, z)
    ok = worst <= 3.0
    return _finish(
        "sde-ode", ok, {"max_abs_z": float(worst), "paths": n, "checks": rows},
        {"max_abs_z": 3.0}, t0,
        f"max |z| {worst:.2f} across mean/cov at t∈{{1,5}}, {n} paths "
        f"(threshold 3)")


# ---------------------------------------------------------------------------
# 8. replenishment scheme vs instant-adjustment fluid
# ---------------------------------------------------------------------------

def criterion_scheme_a() -> CriterionResult:
    t0 = time.perf_counter()
    p = replace(P6, beta_tilde=1.0)
    init = SystemState(0, 0, x_target=1000.0)
    traj = simulate_a(init, p, horizon=50.0,
                      stream=RandomStream(seed=SEEDS["scheme-a"]),
                      sampling=GridSpec(dt=0.01))
    r = p.scale_r
    win = traj.t >= 1.0
    gap_avg = float(np.mean(np.abs(traj.x[win] - traj.x_target[win])) / r)
    # every fifth sample from t = 1, 0.05 apart
    sup = sup_deviation(fluid_scale(traj), fluid_reference(init, p, 50.0).states(traj.t),
                        np.flatnonzero(win)[::5]).sup
    ok = gap_avg <= 0.02 and sup <= 0.05
    return _finish(
        "scheme-a", ok,
        {"mean_scaled_gap": gap_avg, "sup_deviation": sup,
         "window": [1.0, 50.0]},
        {"mean_scaled_gap": 0.02, "sup_deviation": 0.05}, t0,
        f"avg |pool−target|/r = {gap_avg:.4f} (≤0.02); sup dev from fluid "
        f"{sup:.3f} (≤0.05)")


# ---------------------------------------------------------------------------
# 9. time-varying arrivals
# ---------------------------------------------------------------------------

def criterion_time_varying(replications: int = 20) -> CriterionResult:
    t0 = time.perf_counter()
    stream = RandomStream(seed=SEEDS["time-varying"])
    inits = ((0, 0), (-1000, 2000))
    ts = _time_grid(500.0, 0.05)  # every run's sample times
    refs = [fluid_reference(SystemState(*init), P6, 500.0, SINE).states(ts) for init in inits]

    def one_run(i, j, sub):
        traj = simulate_b(SystemState(*inits[i]), P6, horizon=500.0, stream=sub,
                          arrival=SINE, sampling=GridSpec(dt=0.05))
        return (sup_deviation(fluid_scale(traj), refs[i], ts >= 5.0).sup,
                int(np.abs(traj.y[traj.t >= 50.0]).max()))

    cells = {}
    for i, runs in enumerate(replicate(one_run, stream, (len(inits), replications))):
        sups, ymaxes = zip(*runs)
        sup_ok = [sup <= 0.05 for sup in sups]
        y_ok = [ymax <= 100 for ymax in ymaxes]
        cells[f"init{i}"] = {
            "initial": list(inits[i]),
            "sup_within_005": sum(sup_ok), "ymax_within_100": sum(y_ok),
            "joint": sum(a and b for a, b in zip(sup_ok, y_ok)),
            "replications": replications,
            "mean_sup": float(np.mean(sups)), "max_ymax": int(max(ymaxes)),
        }
    ok = all(cell["joint"] >= 18 for cell in cells.values())
    return _finish(
        "time-varying", ok, cells, {"joint_hits": "≥18/20", "sup": 0.05,
                                    "abs_y_after_50": 100}, t0,
        "; ".join(
            f"init{i}: sup≤0.05 in {cells[f'init{i}']['sup_within_005']}/"
            f"{replications} (mean {cells[f'init{i}']['mean_sup']:.3f}), "
            f"|Y|≤100 in {cells[f'init{i}']['ymax_within_100']}/{replications} "
            f"(max {cells[f'init{i}']['max_ymax']})" for i in range(2)))


# ---------------------------------------------------------------------------
# 10. reflection replay
# ---------------------------------------------------------------------------

def criterion_reflection() -> CriterionResult:
    t0 = time.perf_counter()
    stream = RandomStream(seed=SEEDS["reflection"])
    runs = []
    small = ModelParams(lam=1.0, scale_r=5.0, beta=1.0, gamma=3.0, epsilon=0.5)
    for k in range(10):
        if k < 8:
            p, init, horizon = P6, SystemState(0, 1000), 6.0
        else:
            p, init, horizon = small, SystemState(8, 2), 1500.0
        traj = simulate_b(init, p, horizon=horizon, stream=stream.child(k),
                          sampling=GridSpec(dt=horizon,
                                            record_events=True,
                                            event_budget=10_000_000))
        log = traj.events
        direct = init.x + np.cumsum(log.dx.astype(np.int64))
        replayed = reflect_representation(init, log, p)
        runs.append({
            "events": traj.n_events,
            "exact": bool(not log.truncated
                          and np.array_equal(direct, replayed)),
        })
    ok = all(r["exact"] and r["events"] >= 10_000 for r in runs)
    return _finish(
        "reflection", ok,
        {"runs": runs},
        {"exact_matches": 10, "min_events": 10_000}, t0,
        f"{sum(r['exact'] for r in runs)}/10 exact integer replays, "
        f"events per run ≥ {min(r['events'] for r in runs)}")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

ALL_CRITERIA = {
    "generator": criterion_generator,
    "fluid-convergence": criterion_fluid_convergence,
    "fluid-model": criterion_fluid_model,
    "stationary-mean": criterion_stationary_mean,
    "diffusion-stationary": criterion_diffusion_stationary,
    "closed-form": criterion_closed_form,
    "sde-ode": criterion_sde_ode,
    "scheme-a": criterion_scheme_a,
    "time-varying": criterion_time_varying,
    "reflection": criterion_reflection,
}


def run_suites(names) -> list[CriterionResult]:
    results = []
    for name in names:
        if name not in ALL_CRITERIA:
            known = ", ".join(ALL_CRITERIA)
            raise KeyError(f"unknown acceptance suite {name!r}; known: {known}")
        results.append(ALL_CRITERIA[name]())
    return results
