import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import over_backends
from invitesim.ctmc import GridSpec, RandomStream, SystemState, fluid_scale, simulate_b
from invitesim.fluid import solve_fluid
from invitesim.params import ModelParams, SinusoidArrival
from invitesim.stats import (
    GridOutsideHorizon,
    InsufficientData,
    StatsError,
    SweepRow,
    SweepTable,
    batch_means,
    fluid_reference,
    gaussian_check,
    replicate,
    scale_sweep,
    stationary_moments,
    sup_deviation,
)

BASE = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)
V_INF = np.array([[0.5, -1.0], [-1.0, 2.1]])


@dataclass
class _AnalyticPath:
    horizon: float
    fy: callable
    fx: callable

    def eval_on(self, grid):
        grid = np.asarray(grid, dtype=float)
        return np.column_stack([self.fy(grid), self.fx(grid)])


def test_sup_deviation_identical_is_zero():
    a = _AnalyticPath(10.0, np.sin, np.cos)
    grid = np.linspace(0, 10, 201)
    rep = sup_deviation(a, a, grid)
    assert rep.sup == 0.0
    assert rep.component_max == (0.0, 0.0)
    assert rep.grid_points == 201


def test_sup_deviation_known_difference():
    a = _AnalyticPath(10.0, np.sin, np.cos)
    b = _AnalyticPath(10.0, np.sin, lambda g: np.cos(g) + 0.25 * (g == 4.0))
    grid = np.linspace(0, 10, 201)
    rep = sup_deviation(a, b, grid)
    assert rep.sup == pytest.approx(0.25)
    assert rep.t_at_sup == pytest.approx(4.0)
    assert rep.component_max[0] == 0.0
    assert rep.sup == max(rep.component_max)
    # symmetric in the two paths
    rep2 = sup_deviation(b, a, grid)
    assert rep2.sup == rep.sup and rep2.t_at_sup == rep.t_at_sup


def test_sup_deviation_grid_checks():
    a = _AnalyticPath(10.0, np.sin, np.cos)
    short = _AnalyticPath(5.0, np.sin, np.cos)
    with pytest.raises(GridOutsideHorizon):
        sup_deviation(a, short, np.linspace(0, 10, 11))
    with pytest.raises(GridOutsideHorizon):
        sup_deviation(a, a, np.array([]))


def test_sup_deviation_against_simulated_path():
    # a short fluid-scaled run should stay within a loose band of its limit,
    # and the report's sup must match a direct recomputation
    traj = simulate_b(SystemState(0, 0), BASE, horizon=10.0,
                      stream=RandomStream(seed=12), sampling=GridSpec(dt=0.05))
    scaled = fluid_scale(traj)
    ref = solve_fluid((0.0, -1.0), BASE, horizon=10.0)
    grid = np.arange(0.0, 10.0001, 0.05)
    rep = sup_deviation(scaled, ref, grid)
    direct = np.abs(scaled.eval_on(grid) - ref.eval_on(grid)).max()
    assert rep.sup == pytest.approx(direct, abs=0.0)
    assert 0.0 < rep.sup < 1.0


def test_batch_means_constant_series():
    t = np.linspace(0.0, 100.0, 1001)
    v = np.full((1001, 2), 3.5)
    est = batch_means((t, v), burn_in=10.0, n_batches=20)
    assert np.allclose(est.mean, 3.5, rtol=0, atol=0.0)
    assert np.all(est.cov == 0.0)
    assert np.all(est.mean_halfwidth == 0.0)
    assert np.all(est.cov_halfwidth == 0.0)
    assert est.skew_y == 0.0 and est.exkurt_y == 0.0
    assert est.n_batches == 20
    assert est.batch_len == pytest.approx(4.5)


def test_batch_means_validation():
    t = np.linspace(0.0, 100.0, 1001)
    v = np.zeros((1001, 2))
    with pytest.raises(InsufficientData):
        batch_means((t, v), burn_in=10.0, n_batches=5)
    with pytest.raises(InsufficientData):
        batch_means((t, v), burn_in=100.0, n_batches=20)
    with pytest.raises(InsufficientData):
        batch_means((t[:30], v[:30]), burn_in=0.0, n_batches=20)


def test_batch_means_ci_coverage_on_synthetic_noise():
    # i.i.d. draws with mean 0: the 95% CI should cover 0 at roughly the
    # nominal rate across 200 independent replications
    rng = np.random.default_rng(314)
    n, reps, covered = 2000, 200, 0
    t = np.linspace(0.0, 100.0, n)
    for _ in range(reps):
        v = rng.normal(size=(n, 1))
        est = batch_means((t, v), burn_in=0.0, n_batches=20)
        if abs(est.mean[0]) <= est.mean_halfwidth[0]:
            covered += 1
    assert 0.86 <= covered / reps <= 0.995


def test_batch_means_rebinning_stability():
    t = np.arange(0.0, 1000.0, 0.01)
    v = np.column_stack([np.sin(2 * np.pi * t / 10.0),
                         np.cos(2 * np.pi * t / 7.0)])
    a = batch_means((t, v), burn_in=50.0, n_batches=20)
    b = batch_means((t, v), burn_in=50.0, n_batches=25)
    # equal-length batches average back to the full-window integral, so the
    # point estimates barely move; only the half-widths depend on the binning
    tol_mean = max(a.mean_halfwidth.max(), 1e-12) / 10.0
    tol_cov = max(a.cov_halfwidth.max(), 1e-12) / 10.0
    assert np.abs(a.mean - b.mean).max() < tol_mean
    assert np.abs(a.cov - b.cov).max() < tol_cov


def test_batch_means_scheme_b_mean_near_zero():
    traj = simulate_b(SystemState(0, 1000), BASE, horizon=600.0,
                      stream=RandomStream(seed=77), sampling=GridSpec(dt=0.05))
    est = stationary_moments(traj, burn_in=100.0)
    # scaled mean of Y should be statistically indistinguishable from 0
    assert abs(est.mean[0]) <= est.mean_halfwidth[0]
    assert est.context["seed"] == 77
    assert est.context["scale_r"] == 1000.0
    ev = np.linalg.eigvalsh(est.cov)
    assert ev.min() >= -1e-12


def test_stationary_moments_rejects_time_varying():
    arr = SinusoidArrival(base=1.0, amplitude=0.2, period=120.0)
    traj = simulate_b(SystemState(0, 1000), BASE, horizon=5.0,
                      stream=RandomStream(seed=1), arrival=arr,
                      sampling=GridSpec(dt=0.05))
    with pytest.raises(StatsError):
        stationary_moments(traj, burn_in=1.0)


def test_fluid_reference_rejects_time_varying_scheme_a():
    # scheme A runs at the constant rate lam only: no limit to compare with
    arr = SinusoidArrival(base=1.0, amplitude=0.2, period=120.0)
    with pytest.raises(StatsError):
        fluid_reference(SystemState(0, 1000, x_target=1000.0), BASE, 5.0, arr)


def test_gaussian_check_on_exact_gaussian_samples():
    rng = np.random.default_rng(2718)
    n = 200_000
    chol = np.linalg.cholesky(V_INF)
    v = rng.normal(size=(n, 2)) @ chol.T
    t = np.linspace(0.0, 1000.0, n)
    est = batch_means((t, v), burn_in=0.0, n_batches=20)
    rep = gaussian_check(est, BASE)
    assert rep.passed, [e for e in rep.entries if not e.ok]
    names = {e.name for e in rep.entries}
    assert names == {"mean_y", "mean_x", "cov_yy", "cov_yx", "cov_xx",
                     "skew_y", "exkurt_y"}
    d = rep.to_json_dict()
    assert d["passed"] is True and len(d["entries"]) == 7


def test_gaussian_check_flags_wrong_covariance():
    rng = np.random.default_rng(99)
    n = 100_000
    v = rng.normal(size=(n, 2)) @ np.linalg.cholesky(2.5 * V_INF).T
    t = np.linspace(0.0, 1000.0, n)
    est = batch_means((t, v), burn_in=0.0, n_batches=20)
    rep = gaussian_check(est, BASE)
    assert not rep.passed
    bad = {e.name for e in rep.entries if not e.ok}
    assert {"cov_yy", "cov_yx", "cov_xx"} <= bad
    assert all(e.z > 3.0 for e in rep.entries if e.name in bad)


def test_scale_sweep_columns_and_slope(tmp_path):
    table = scale_sweep([100, 300, 1000], lambda r: (0, 0), BASE, horizon=30.0,
                        replications=8, stream=RandomStream(seed=5))
    assert [row.r for row in table.rows] == [100.0, 300.0, 1000.0]
    assert all(row.n == 8 for row in table.rows)
    assert table.monotone_decreasing
    assert -0.7 <= table.loglog_slope() <= -0.3
    out = tmp_path / "sweep.csv"
    table.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,mean_dev,std_dev,n"
    assert len(lines) == 4


def test_scale_sweep_single_replication_has_no_std(tmp_path):
    table = scale_sweep([50, 100], lambda r: (0, 0), BASE, horizon=5.0,
                        replications=1, stream=RandomStream(seed=6))
    assert math.isnan(table.rows[0].std_dev)
    out = tmp_path / "sweep1.csv"
    table.to_csv(out)
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[2] == ""


def _row_loop_sweep_csv(path, table):
    """The row-at-a-time SweepTable writer, kept as the byte reference."""
    with open(path, "w") as fh:
        fh.write("r,mean_dev,std_dev,n\n")
        for row in table.rows:
            sd = "" if math.isnan(row.std_dev) else f"{row.std_dev:.12g}"
            fh.write(f"{row.r:.10g},{row.mean_dev:.12g},{sd},{row.n}\n")


def _sweep_table_cases():
    cases = {"swept": scale_sweep([50, 100], lambda r: (0, 0), BASE, horizon=3.0,
                                  replications=2, stream=RandomStream(seed=6))}
    # hand-made rows: none, and either side of the writers' block edge
    for n in (0, 2048, 2049):
        rng = np.random.default_rng(n)
        rows = [SweepRow(r=float(r), mean_dev=float(m), std_dev=float(s), n=int(k), devs=())
                for r, m, s, k in zip(np.arange(1, n + 1) * 12.5, rng.normal(0, 1, n) / 3,
                                      rng.exponential(1e3, n), rng.integers(1, 10**12, n))]
        if n:
            # a single replication (NaN), negative zeros, and values .12g must round
            rows[0] = SweepRow(r=1e-11, mean_dev=-0.0, std_dev=float("nan"), n=1, devs=())
            rows[1] = SweepRow(r=123456789012.5, mean_dev=123456789012.345,
                               std_dev=-0.0, n=2, devs=())
        cases[f"rows-{n}"] = SweepTable(rows=tuple(rows), monotone_decreasing=False)
    return cases


@pytest.mark.parametrize("case, backend", over_backends(list(_sweep_table_cases())),
                         indirect=["backend"])
def test_sweep_csv_bytes_match_row_loop(tmp_path, case, backend):
    table = _sweep_table_cases()[case]
    table.to_csv(tmp_path / "new.csv")
    _row_loop_sweep_csv(tmp_path / "old.csv", table)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == 1 + len(table.rows)
    if case == "rows-2049":
        assert new.startswith(b"r,mean_dev,std_dev,n\n1e-11,-0,,1\n")


def test_scale_sweep_devs_match_independent_runs():
    # each replicate is its own simulate_b run against the fluid path from
    # the same scaled initial state (0, 1), on stream child(i).child(j)
    stream = RandomStream(seed=8)
    table = scale_sweep((20, 50), lambda r: (0, 2 * r), BASE, horizon=5.0,
                        replications=3, stream=stream)
    grid = np.arange(0.0, 5.0 * (1 + 1e-12), 0.05)
    for i, (r, row) in enumerate(zip((20, 50), table.rows)):
        p = ModelParams(lam=1.0, scale_r=float(r), beta=1.0, gamma=2.0, epsilon=0.2)
        ref = solve_fluid((0.0, 1.0), p, horizon=5.0)
        devs = [
            sup_deviation(
                fluid_scale(simulate_b(SystemState(0, 2 * r), p, horizon=5.0,
                                       stream=stream.child(i).child(j),
                                       sampling=GridSpec(dt=0.05))),
                ref, grid).sup
            for j in range(3)
        ]
        assert row.devs == tuple(devs)
        assert row.n == len(row.devs) == 3
        assert row.mean_dev == float(np.mean(devs))
        assert row.std_dev == float(np.std(devs, ddof=1))


def test_replicate_returns_cells_in_index_order():
    stream = RandomStream(seed=4, path=(7,))
    got = replicate(lambda i, j, sub: (i, j, sub.path), stream, (3, 4))
    assert got == [[(i, j, (7, i, j)) for j in range(4)] for i in range(3)]
    assert replicate(lambda i, j, sub: (i, j, sub.path), stream, (3, 4), workers=3) == got
    with pytest.raises(ZeroDivisionError):  # a failing call reaches the caller
        replicate(lambda i, j, sub: 1 / (i - 1), stream, (3, 2), workers=2)


def test_scale_sweep_validation():
    with pytest.raises(StatsError):
        scale_sweep([100, 100], lambda r: (0, 0), BASE, horizon=5.0,
                    replications=2, stream=RandomStream(seed=1))
    with pytest.raises(StatsError):
        scale_sweep([100], lambda r: (0, 0), BASE, horizon=5.0,
                    replications=0, stream=RandomStream(seed=1))
    with pytest.raises(StatsError, match="workers"):
        scale_sweep([100], lambda r: (0, 0), BASE, horizon=5.0,
                    replications=2, stream=RandomStream(seed=1), workers=0)
