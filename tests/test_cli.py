"""Experiment runner: presets, config round-trips, manifests, exit codes."""
import hashlib
import json
import math
import re
import shutil
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import over_backends
from invitesim import _csv, _native, cli
from invitesim.cli import (
    OutputDirUnwritable,
    emit_plot_data,
    main,
    run,
)
from invitesim.ctmc import (GridSpec, RandomStream, SystemState, fluid_scale, simulate_a,
                            simulate_b)
from invitesim.fluid import FluidSolverError, solve_fluid, solve_fluid_tv
from invitesim.params import ModelParams, SinusoidArrival
from invitesim.presets import (
    ConfigInvalid,
    ExperimentConfig,
    config_from_json,
    get_preset,
    presets,
)
from invitesim.stats import GridOutsideHorizon, fluid_reference

PRESET_NAMES = ["fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4a", "fig4b"]
SMALL = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=2.0, epsilon=0.2)


def small_config(**overrides):
    base = dict(name="demo", scheme="B", params=SMALL, initial=(0, 50),
                horizon=20.0, seed=9, grid_dt=0.05)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# presets and config round-trip
# ---------------------------------------------------------------------------

def test_preset_catalog_contents():
    assert sorted(presets()) == PRESET_NAMES
    assert get_preset("fig2d").initial == (-1000, 2000)
    assert get_preset("fig2b").initial == (1000, 0)
    fig3 = get_preset("fig3")
    assert fig3.scheme == "A"
    assert fig3.initial == (0, 0, 1000.0)
    assert fig3.params.beta_tilde == 1.0
    fig4 = get_preset("fig4b")
    assert fig4.initial == (-1000, 2000)
    assert isinstance(fig4.arrival, SinusoidArrival)
    assert fig4.horizon == 500.0


def test_unknown_preset_raises():
    with pytest.raises(ConfigInvalid, match="unknown preset"):
        get_preset("fig9z")


def test_config_json_round_trip():
    cfg = get_preset("fig4a")
    again = config_from_json(cfg.to_json())
    assert again == cfg
    assert json.loads(cfg.to_json())["seed"] == cfg.seed


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigInvalid):
        small_config(scheme="C")
    with pytest.raises(ConfigInvalid):
        small_config(outputs=("trajectory", "carrots"))
    with pytest.raises(ConfigInvalid):
        small_config(horizon=-1.0)
    with pytest.raises(ConfigInvalid):
        small_config(scheme="A", initial=(0, 0))  # needs a target entry
    with pytest.raises(ConfigInvalid):
        config_from_json("{not json")


def test_acceptance_is_not_a_config_output():
    with pytest.raises(ConfigInvalid, match="unknown outputs"):
        small_config(outputs=("acceptance",))


def _constant_rate_doc(base):
    doc = small_config(outputs=("trajectory", "fluid", "deviation")).to_json_dict()
    doc["model"]["arrival"] = {"kind": "constant", "base": base}
    return doc


def test_config_rejects_constant_rate_off_lambda():
    # the simulation would run at base*r while every reference uses lambda
    with pytest.raises(ConfigInvalid, match="rate 0.5 differs from lambda 1.0"):
        config_from_json(_constant_rate_doc(0.5))


def test_constant_rate_off_lambda_leaves_no_output_dir(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_constant_rate_doc(0.5)))
    out = tmp_path / "D"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
    assert "differs from lambda" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("model"), "missing key 'model'"),
    (lambda doc: doc["model"].update(arrival={"kind": "constant", "base": 0.5}),
     "constant arrival rate 0.5 differs from lambda 1.0; set lambda to run at another "
     "constant rate"),
    (lambda doc: doc.update(horizon="abc"), "could not convert string to float: 'abc'"),
], ids=["missing-key", "off-lambda", "not-a-number"])
def test_config_error_prints_its_message(tmp_path, capsys, edit, message):
    # the message itself, not the repr of the exception behind it
    doc = small_config().to_json_dict()
    edit(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "D"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _set_arrival(doc, **spec):
    doc["model"]["arrival"] = spec


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(horizon=math.nan), "horizon and grid_dt must be finite and > 0"),
    (lambda doc: doc.update(horizon=math.inf), "horizon and grid_dt must be finite and > 0"),
    (lambda doc: doc.update(grid_dt=math.nan), "horizon and grid_dt must be finite and > 0"),
    (lambda doc: _set_arrival(doc, kind="sinusoid", base=math.inf, amplitude=0.2, period=10.0),
     "must be finite, got inf"),
    (lambda doc: _set_arrival(doc, kind="sinusoid", base=1.0, amplitude=math.nan, period=10.0),
     "must be finite, got nan"),
    (lambda doc: _set_arrival(doc, kind="sinusoid", base=1.0, amplitude=0.2, period=math.inf),
     "must be finite, got inf"),
    (lambda doc: _set_arrival(doc, kind="piecewise", breakpoints=[1.0], values=[1.0, math.nan]),
     "must be finite, got nan"),
    (lambda doc: _set_arrival(doc, kind="piecewise", breakpoints=[1.0, math.inf],
                              values=[1.0, 2.0, 1.0]), "must be finite, got inf"),
    (lambda doc: doc.update(initial=[0.6, 100.9]), "initial y must be a whole number, got 0.6"),
    (lambda doc: doc.update(initial=[0, 100.9]), "initial x must be a whole number, got 100.9"),
    (lambda doc: doc.update(seed=1.5), "seed must be a whole number, got 1.5"),
], ids=["horizon-nan", "horizon-inf", "grid-dt-nan", "sinusoid-base-inf", "sinusoid-amplitude-nan",
        "sinusoid-period-inf", "piecewise-value-nan", "piecewise-breakpoint-inf", "initial-y",
        "initial-x", "seed"])
def test_nonfinite_or_fractional_config_leaves_no_output_dir(edit, message, tmp_path, capsys,
                                                            no_run):
    # an infinite base hung the run, a NaN value stopped its arrivals, a NaN
    # horizon ended in a traceback, and fractional counts and seeds were
    # truncated; each now fails when the config is built
    doc = small_config().to_json_dict()
    edit(doc)
    with pytest.raises(ConfigInvalid, match=re.escape(message)):
        config_from_json(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "D"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_whole_float_counts_and_seed_run_as_ints(tmp_path):
    doc = small_config().to_json_dict()
    doc.update(initial=[0.0, 50.0], seed=9.0)
    config = config_from_json(doc)
    assert type(config.seed) is int and config.seed == 9
    run(config, tmp_path / "F")
    run(small_config(), tmp_path / "I")
    assert ((tmp_path / "F" / "trajectory.csv").read_bytes()
            == (tmp_path / "I" / "trajectory.csv").read_bytes())


def _scheme_a_sinusoid_doc():
    doc = small_config(scheme="A", initial=(0, 0, 50.0), params=replace(SMALL, beta_tilde=1.0),
                       outputs=("trajectory", "fluid", "deviation")).to_json_dict()
    doc["model"]["arrival"] = {"kind": "sinusoid", "base": 1.0, "amplitude": 0.5, "period": 10.0}
    return doc


def test_config_rejects_time_varying_scheme_a():
    # scheme A would simulate at the constant rate while its reference
    # followed the sinusoid
    with pytest.raises(ConfigInvalid, match="scheme A runs at the constant rate"):
        config_from_json(_scheme_a_sinusoid_doc())
    with pytest.raises(ConfigInvalid, match="scheme A"):
        small_config(scheme="A", initial=(0, 0, 50.0), params=replace(SMALL, beta_tilde=1.0),
                     arrival=SinusoidArrival(1.0, 0.5, 10.0))


@pytest.mark.parametrize("argv, message", [
    # scale_sweep runs scheme B at lambda whatever the config's scheme and arrival
    (["sweep", "--preset", "fig3"], "a sweep runs scheme B at the constant rate lambda only"),
    (["sweep", "--preset", "fig4a"], "a sweep runs scheme B at the constant rate lambda only"),
    # batch means need a constant rate; the check comes before the run, not after it
    (["stationary", "--preset", "fig4a"], "steady-state estimation needs a constant arrival rate"),
], ids=["sweep-scheme-a", "sweep-time-varying", "stationary-time-varying"])
def test_outputs_the_config_cannot_give_leave_no_output_dir(argv, message, tmp_path, capsys):
    out = tmp_path / "D"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_time_varying_scheme_a_leaves_no_output_dir(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_scheme_a_sinusoid_doc()))
    out = tmp_path / "D"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
    assert "scheme A" in capsys.readouterr().err
    assert not out.exists()


def test_constant_rate_at_lambda_writes_the_same_data(tmp_path):
    same = config_from_json(_constant_rate_doc(1.0))
    assert same.arrival is None
    plain = run(small_config(outputs=("trajectory", "fluid", "deviation")), tmp_path / "a")
    files = run(same, tmp_path / "b").files
    assert [(f["path"], f["sha256"]) for f in files] == [
        (f["path"], f["sha256"]) for f in plain.files]


# ---------------------------------------------------------------------------
# run(): files, manifest, reproducibility
# ---------------------------------------------------------------------------

def test_run_writes_manifest_and_files(tmp_path):
    cfg = small_config(outputs=("trajectory", "fluid", "deviation"))
    manifest = run(cfg, tmp_path / "out")
    names = {f["path"] for f in manifest.files}
    assert names == {"trajectory.csv", "fluid.csv", "overlay.csv", "deviation.json"}
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert on_disk == names | {"manifest.json"}  # no orphan outputs
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert saved["config"]["seed"] == 9
    assert saved["version"]
    assert all(len(f["sha256"]) == 64 for f in saved["files"])


@pytest.mark.skipif(shutil.which(_native._CC) is None, reason="no C compiler")
@pytest.mark.parametrize("name", ["fig2a", "fig3", "fig4a"])
def test_run_writes_the_same_bytes_without_the_library(name, tmp_path, monkeypatch):
    # every CSV of the run goes through the compiled formatter, and the row
    # loop writes the same bytes
    config = replace(get_preset(name), horizon=5.0)
    compiled = []
    write = _csv._write_compiled
    monkeypatch.setattr(_csv, "_write_compiled",
                        lambda lib, path, *a: compiled.append(path.name) or write(lib, path, *a))
    files = run(config, tmp_path / "c").files
    assert sorted(compiled) == sorted(f["path"] for f in files if f["path"].endswith(".csv"))
    monkeypatch.setattr(_native, "_lib", None)
    assert run(config, tmp_path / "python").files == files


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config(outputs=("trajectory", "fluid", "deviation"))
    m1 = run(cfg, tmp_path / "a")
    m2 = run(cfg, tmp_path / "b")
    assert [f["sha256"] for f in m1.files] == [f["sha256"] for f in m2.files]
    m3 = run(replace(cfg, seed=10), tmp_path / "c")
    assert [f["sha256"] for f in m3.files] != [f["sha256"] for f in m1.files]


def test_scheme_a_outputs_target_column(tmp_path):
    cfg = small_config(scheme="A", initial=(0, 0, 50.0),
                       params=replace(SMALL, beta_tilde=1.0),
                       outputs=("trajectory",))
    run(cfg, tmp_path)
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,y,x,x_target"
    gap = (tmp_path / "target_gap.csv").read_text().splitlines()
    assert gap[0] == "t,scaled_gap"
    assert len(gap) > 100


def test_solver_rows_on_the_run_grid(tmp_path):
    # the time-varying fluid and the moments are evaluated on the run's
    # grid, also when grid_dt is no multiple of 1e-3
    cfg = small_config(horizon=10.0, grid_dt=0.0375, initial=(-50, 100),
                       arrival=SinusoidArrival(1.0, 0.2, 12.0),
                       outputs=("trajectory", "fluid", "moments"))
    run(cfg, tmp_path)

    def times(name):
        return [row.split(",")[0] for row in (tmp_path / name).read_text().splitlines()[1:]]

    want = times("trajectory.csv")
    assert want[:3] == ["0", "0.0375", "0.075"] and len(want) == 267
    assert times("fluid.csv") == want
    assert times("moments.csv") == want


def test_stationary_outputs(tmp_path):
    cfg = small_config(horizon=300.0, outputs=("trajectory", "stationary"))
    run(cfg, tmp_path)
    est = json.loads((tmp_path / "stationary.json").read_text())
    assert est["n_batches"] == 20
    g = json.loads((tmp_path / "gaussian.json").read_text())
    assert {e["name"] for e in g["entries"]} >= {"mean_y", "cov_yy", "skew_y"}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_fluid_reference_starts_at_the_scaled_run(name):
    # the density-dependent limit needs the scaled start of the run to be
    # the start of its reference: scheme A's X from its target, which the run
    # tops X up to, and a time-varying run in the uncentred view
    cfg = get_preset(name)
    if cfg.scheme == "A":
        init = SystemState(*cfg.initial[:2], x_target=cfg.initial[2])
        traj = simulate_a(init, cfg.params, horizon=1.0, stream=RandomStream(cfg.seed))
    else:
        init = SystemState(*cfg.initial)
        traj = simulate_b(init, cfg.params, horizon=1.0, stream=RandomStream(cfg.seed),
                          arrival=cfg.arrival)
    scaled = fluid_scale(traj)
    x0 = scaled.x[0] if scaled.x_target is None else scaled.x_target[0]
    start = fluid_reference(init, cfg.params, 1.0, cfg.arrival).state(0.0)
    assert np.abs(start - [scaled.y[0], x0]).max() <= 1e-12
    want = "fluid-uncentered" if name.startswith("fig4") else "fluid-centered"
    assert scaled.scale == want


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(OutputDirUnwritable):
        run(small_config(), blocker / "sub")


# ---------------------------------------------------------------------------
# emit_plot_data
# ---------------------------------------------------------------------------

def _short_run(params=SMALL, horizon=8.0, seed=3, dt=0.05, arrival=None):
    return simulate_b(SystemState(0, int(params.raw_arrival_rate)), params,
                      horizon=horizon, stream=RandomStream(seed=seed),
                      arrival=arrival, sampling=GridSpec(dt=dt))


def test_emit_plot_data_aligned(tmp_path):
    traj = _short_run()
    scaled = fluid_scale(traj)
    fluid = solve_fluid((0.0, 0.0), SMALL, horizon=8.0)
    target = tmp_path / "overlay.csv"
    emit_plot_data(target, scaled, fluid.states(scaled.t))
    rows = target.read_text().splitlines()
    assert rows[0] == "t,sim_y,sim_x,fluid_y,fluid_x"
    assert len(rows) == len(scaled.t) + 1


def test_emit_plot_data_trajectory_only(tmp_path):
    traj = _short_run()
    target = tmp_path / "solo.csv"
    emit_plot_data(target, fluid_scale(traj))
    assert target.read_text().splitlines()[0] == "t,sim_y,sim_x"


def test_emit_plot_data_rejects_a_fluid_path_shorter_than_the_run(tmp_path):
    scaled = fluid_scale(_short_run(horizon=8.0))
    fluid = solve_fluid((0.0, 0.0), SMALL, horizon=5.0)
    # the path cannot be read at the run's later samples
    with pytest.raises(FluidSolverError, match=r"outside \[0, 5.0\]"):
        fluid.states(scaled.t)
    # and its values at the samples it covers are too few for the run
    with pytest.raises(GridOutsideHorizon, match="for a run of 161 samples"):
        emit_plot_data(tmp_path / "clip.csv", scaled, fluid.states(scaled.t[scaled.t <= 5.0]))
    assert not (tmp_path / "clip.csv").exists()


def _row_loop_overlay(path, sim, ref=None):
    """The row-at-a-time overlay writer, kept as the byte reference."""
    t = np.asarray(sim.t, dtype=float)
    sim_vals = np.column_stack([sim.y, sim.x])
    if ref is None:
        header = "t,sim_y,sim_x"
        cols = [t, sim_vals[:, 0], sim_vals[:, 1]]
    else:
        fluid_vals = np.asarray(ref)
        header = "t,sim_y,sim_x,fluid_y,fluid_x"
        cols = [t, sim_vals[:, 0], sim_vals[:, 1], fluid_vals[:, 0], fluid_vals[:, 1]]
    with open(path, "w") as out:
        out.write(header + "\n")
        for row in zip(*cols):
            out.write(",".join(format(v + 0.0, ".10g") for v in row) + "\n")


def _overlay_cases():
    traj = _short_run()
    scaled = fluid_scale(traj)
    arrival = SinusoidArrival(base=1.0, amplitude=0.2, period=7.0)
    tv_traj = _short_run(horizon=6.0, dt=0.0375, arrival=arrival)
    # integer columns, negative zeros, and values that .10g must round
    t = np.array([0.0, 0.1, 0.2, 0.30000000000000004, 1e-11])
    odd = SimpleNamespace(t=t, y=np.array([-0.0, 1.0, -2.5, 123456789012.5, 1 / 3]),
                          x=np.array([3, -0, 12345678901, -7, 0]))
    long = fluid_scale(_short_run(horizon=120.0))  # 2 401 rows
    return {
        "raw-int": (traj, None),
        "scaled": (scaled, None),
        "aligned": (scaled, solve_fluid((0.0, 0.0), SMALL, horizon=8.0).states(scaled.t)),
        "off-grid-tv": (fluid_scale(tv_traj), solve_fluid_tv(
            (0.0, 1.0), arrival, SMALL, horizon=6.0).states(tv_traj.t)),
        "long": (long, solve_fluid((0.0, 0.0), SMALL, horizon=120.0).states(long.t)),
        "odd": (odd, None),
        "odd-fluid": (odd, np.column_stack([-0.0 * t, np.pi * t - 0.0])),
    }


@pytest.mark.parametrize("case, backend", over_backends(list(_overlay_cases())),
                         indirect=["backend"])
def test_emit_plot_data_bytes_match_row_loop(tmp_path, case, backend):
    sim, ref = _overlay_cases()[case]
    emit_plot_data(tmp_path / "new.csv", sim, ref)
    _row_loop_overlay(tmp_path / "old.csv", sim, ref)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"-0," not in new and not new.endswith(b"-0\n")


def _row_loop_target_gap(path, traj, scale_r):
    """The row-at-a-time target_gap.csv writer, kept as the byte reference."""
    with open(path, "w") as fh:
        fh.write("t,scaled_gap\n")
        gap = np.abs(traj.x - traj.x_target) / scale_r
        for tv, gv in zip(traj.t, gap):
            fh.write(f"{tv:.10g},{gv:.10g}\n")


@pytest.mark.parametrize("n, backend", over_backends([None, 0, 1, 2048, 2049]),
                         indirect=["backend"])
def test_target_gap_bytes_match_row_loop(tmp_path, monkeypatch, n, backend):
    # n=None is the simulated run; otherwise hand-made columns of n rows,
    # either side of the writers' block edge, go through the same cli.run
    params = replace(SMALL, beta_tilde=1.0)
    cfg = small_config(scheme="A", initial=(0, 0, 50.0), params=params,
                       horizon=5.0, outputs=("trajectory",))
    traj = cli.simulate_a(SystemState(0, 0, x_target=50.0), params, horizon=5.0,
                          stream=RandomStream(seed=cfg.seed),
                          sampling=GridSpec(dt=cfg.grid_dt))
    if n is not None:
        rng = np.random.default_rng(n)
        t = np.arange(n) * 0.05
        t[1:2] = 1e-11
        x = rng.integers(0, 10**12, n)
        x_target = x + rng.normal(0.0, 1e3, n)
        x_target[2:3] = x[2:3]  # a zero gap
        traj = replace(traj, t=t, y=np.zeros(n, dtype=np.int64), x=x,
                       x_target=x_target)
        monkeypatch.setattr(cli, "simulate_a", lambda *args, **kwargs: traj)
    run(cfg, tmp_path / "run")
    _row_loop_target_gap(tmp_path / "old.csv", traj, params.scale_r)
    new = (tmp_path / "run" / "target_gap.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == 1 + len(traj.t)


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------

def test_main_preset_listing(capsys):
    assert main(["preset"]) == 0
    assert capsys.readouterr().out.splitlines() == PRESET_NAMES


def test_main_runs_config_file(tmp_path, capsys):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "manifest.json").exists()


def test_main_seed_override_changes_data(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(path), "--seed", "123",
          "--out", str(tmp_path / "b")])
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert mb["config"]["seed"] == 123
    assert ma["files"][0]["sha256"] != mb["files"][0]["sha256"]


def test_main_error_paths(tmp_path, capsys):
    assert main(["simulate"]) == 1
    assert "config is required" in capsys.readouterr().err
    assert main(["acceptance", "bogus"]) == 1
    assert "unknown acceptance suite" in capsys.readouterr().err
    assert main(["nonsense"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": 3}")
    assert main(["simulate", "--config", str(bad)]) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "fig2a"], ["fluid", "--preset", "fig2a"],
    ["diffusion", "--preset", "fig2a"], ["stationary", "--preset", "fig2a"],
    ["compare", "--preset", "fig2a"], ["preset", "fig2a"],
    ["acceptance", "closed-form"],
])
def test_workers_only_on_sweep(argv, tmp_path, capsys):
    assert main([*argv, "--workers", "2", "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_zero_workers_leaves_no_output_dir(tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["sweep", "--preset", "fig2a", "--workers", "0", "--out", str(out)]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_negative_start_leaves_no_output_dir(tmp_path, capsys):
    # run() builds the start of the run and of its reference before the
    # output directory, also for outputs that simulate nothing
    path = tmp_path / "cfg.json"
    path.write_text(small_config(initial=(0, -5), outputs=("moments",)).to_json())
    out = tmp_path / "D"
    assert main(["diffusion", "--config", str(path), "--out", str(out)]) == 1
    assert "pending count must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_main_unexpected_error_keeps_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "run", broken)
    assert main(["preset", "fig2a"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "boom" in err


def test_main_acceptance_pass_and_fail_codes(tmp_path, capsys):
    assert main(["acceptance", "closed-form", "--out", str(tmp_path / "ok")]) == 0
    out = capsys.readouterr().out
    assert "[PASS] closed-form" in out
    payload = json.loads((tmp_path / "ok" / "acceptance.json").read_text())
    assert payload["failures"] == 0
    assert "wall_clock_s" not in payload["results"][0]
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert manifest["config"] == {"acceptance": "closed-form"}
    assert manifest["acceptance_failures"] == 0
    assert manifest["files"] == [{
        "path": "acceptance.json",
        "sha256": hashlib.sha256((tmp_path / "ok" / "acceptance.json").read_bytes()).hexdigest(),
        "bytes": (tmp_path / "ok" / "acceptance.json").stat().st_size,
    }]


def test_main_sweep_workers_reproducible(tmp_path):
    cfg = small_config(horizon=10.0)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "w1"),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "w3"),
                 "--workers", "3"]) == 0
    a = (tmp_path / "w1" / "sweep.csv").read_text()
    b = (tmp_path / "w3" / "sweep.csv").read_text()
    assert a == b
    assert a.splitlines()[0] == "r,mean_dev,std_dev,n"


def test_main_diffusion_moments(tmp_path):
    cfg = small_config(horizon=5.0)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["diffusion", "--config", str(path),
                 "--out", str(tmp_path / "m")]) == 0
    rows = (tmp_path / "m" / "moments.csv").read_text().splitlines()
    assert rows[0] == "t,m1,m2,V11,V12,V22"
    first = [float(v) for v in rows[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert np.isclose(float(rows[-1].split(",")[0]), 5.0)
