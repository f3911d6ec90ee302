"""Golden-stream pins: seeded kernel outputs fixed bit for bit.

Each run below exercises one branch of the event kernels (plain, thinned
scheme B, event logging with budget truncation, scheme A's rejections and
ceiling top-up, drift replicates).  Any change to the order in which a kernel
consumes uniforms (hold, pick, thin) or to a transition changes a digest
here.  Only integer arrays and `trajectory.csv` (integers plus `.10g` times
and pure-Python targets) are hashed, so the pins do not depend on the numpy
build.

Every pin holds on both backends of simulate_b, drift_replicates_b and
simulate_a: the compiled kernel (the default; ids without a suffix) and the
Python loop (ids ending in -python).
"""
import hashlib
import shutil
from dataclasses import replace

import numpy as np
import pytest

from conftest import over_backends
from invitesim import _native, cli
from invitesim.ctmc import (
    GridSpec,
    RandomStream,
    SystemState,
    drift_replicates_b,
    simulate_a,
    simulate_b,
)
from invitesim.params import ModelParams, PiecewiseConstantArrival, SinusoidArrival
from invitesim.presets import get_preset


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# presets through cli.run at a short horizon
# ---------------------------------------------------------------------------

PRESET_HORIZON = {"fig2a": 5.0, "fig2b": 5.0, "fig2c": 5.0, "fig2d": 5.0,
                  "fig3": 5.0, "fig4a": 10.0, "fig4b": 10.0}

PRESET_PINS = {  # sha256 of trajectory.csv, n_events
    "fig2a": ("6b52dfd48e9dffc52b702ad9d4361b19951dc2cd39ace09e501762ad8d678278",
              10057),
    "fig2b": ("4733ad6b119ebde576276f34ea9d979a8c9843ba856c8195a739a173dbc7e9d8",
              9684),
    "fig2c": ("bd4abf667aeb5efa2a9e7d0a6d4afb078d5bb0cbb92254493f13d9501c4192c6",
              10925),
    "fig2d": ("aa20aa711a7928ae33686d5c08914835e3d7db28f4db4a83acfc5890256675de",
              10936),
    "fig3": ("cc7c422b9d6bf6fe6ce31383ca2c4784431694d206c4ebe093a55897639084df",
             15202),
    "fig4a": ("7f59f4b07b2d0cfa5e8b33c8b5d16e3ebccc15869c1d1de55f049d46391037ae",
              21511),
    "fig4b": ("8d13d72f80568c10103c9c625c401cf6f9d84601ff45911f7c67870128994ae8",
              22555),
}


@pytest.mark.parametrize("name, backend", over_backends(sorted(PRESET_HORIZON)),
                         indirect=["backend"])
def test_preset_trajectory_pinned(name, backend, tmp_path, monkeypatch):
    runs = []
    for fn in ("simulate_a", "simulate_b"):
        inner = getattr(cli, fn)

        def keep(*args, _inner=inner, **kwargs):
            runs.append(_inner(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(cli, fn, keep)
    config = replace(get_preset(name), horizon=PRESET_HORIZON[name])
    manifest = cli.run(config, tmp_path)
    sha = {f["path"]: f["sha256"] for f in manifest.files}["trajectory.csv"]
    assert (sha, runs[0].n_events) == PRESET_PINS[name]


# ---------------------------------------------------------------------------
# direct kernel calls, one per branch
# ---------------------------------------------------------------------------

P = ModelParams(lam=1.0, scale_r=100.0, beta=1.0, gamma=2.0, epsilon=0.2)
P_A = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=2.0, epsilon=0.2,
                  beta_tilde=5.0)
SINE = SinusoidArrival(1.0, 0.4, 3.0)
STEPS = PiecewiseConstantArrival((1.0, 2.5), (1.0, 1.6, 0.4))


def _logged(dt=0.01, **kw):
    return GridSpec(dt=dt, record_events=True, **kw)


KERNEL_RUNS = {
    "budget": lambda: simulate_b((0, 0), replace(P, scale_r=1000.0), 1.0,
                                 RandomStream(19), sampling=_logged(event_budget=500)),
    "sinusoid": lambda: simulate_b((5, 50), P, 6.0, RandomStream(3, (1,)),
                                   arrival=SINE, sampling=_logged()),
    "piecewise": lambda: simulate_b((0, 100), P, 4.0, RandomStream(3, (2,)),
                                    arrival=STEPS, sampling=_logged()),
    "scheme-a": lambda: simulate_a(SystemState(0, 50, x_target=50.5), P_A, 2.0,
                                   RandomStream(37), sampling=_logged()),
}

KERNEL_PINS = {  # n_events, logged, truncated, log digest, grid digest
    "budget": (1594, 500, True, "e48d4e89e36680d0", "ac22f287b2b5810f"),
    "piecewise": (799, 799, False, "e1e808ecac92ade8", "7f405ee1cc70f11a"),
    "scheme-a": (798, 798, False, "7220f07ef32bf075", "25a19b3ba809e96d"),
    "sinusoid": (1273, 1273, False, "3362d69da942ad56", "ba7d3fea46a44f8f"),
}


@pytest.mark.parametrize("name, backend", over_backends(sorted(KERNEL_RUNS)),
                         indirect=["backend"])
def test_kernel_run_pinned(name, backend):
    _check_kernel_pin(name)


def _check_kernel_pin(name):
    traj = KERNEL_RUNS[name]()
    ev = traj.events
    assert [ev.kind.dtype, ev.dy.dtype, ev.dx.dtype] == [np.int8, np.int8, np.int32]
    got = (traj.n_events, len(ev), ev.truncated,
           _digest(ev.kind, ev.dy, ev.dx), _digest(traj.y, traj.x))
    assert got == KERNEL_PINS[name]


@pytest.mark.parametrize("failure", ["missing", "failing", "unwritable"])
def test_kernel_pinned_when_the_build_fails(failure, tmp_path, monkeypatch):
    # a source in a fresh place, so that no library is cached for it
    shutil.copy(_native._SOURCE, tmp_path / "_kernel.c")
    monkeypatch.setattr(_native, "_SOURCE", tmp_path / "_kernel.c")
    monkeypatch.setattr(_native, "_lib", _native._UNTRIED)
    if failure == "missing":
        monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-such-cc"))
    elif failure == "failing":
        monkeypatch.setattr(_native, "_CC", "false")
    else:
        (tmp_path / "__pycache__").write_text("")  # a file where the cache directory goes
    _check_kernel_pin("budget")
    assert _native._lib is None
    assert list(tmp_path.glob("**/*.so")) == []


DRIFT_RUNS = {  # state, params, window, replicates, stream path
    "origin": ((0, 0), P, 0.2, 3_000, 1),
    "interior": ((2, 5), P, 0.2, 3_000, 2),
    "empty-pool": ((-3, 0), replace(P, scale_r=5.0), 0.5, 3_000, 3),
    "null-feedback": ((4, 0), replace(P, scale_r=5.0), 0.5, 3_000, 4),
    "quiet": ((0, 1000), replace(P, scale_r=1000.0), 1e-4, 70_000, 6),
}

DRIFT_PINS = {
    "empty-pool": "dcbb53a922301748",
    "interior": "bd5c95ac6e66f89c",
    "null-feedback": "858e2594736879aa",
    "origin": "c6a0a82c9b46c0c6",
    "quiet": "0f88db3c275c1301",
}


@pytest.mark.parametrize("name, backend", over_backends(sorted(DRIFT_RUNS)),
                         indirect=["backend"])
def test_drift_replicates_pinned(name, backend):
    state, params, dt, n, path = DRIFT_RUNS[name]
    out = drift_replicates_b(state, params, dt, n, RandomStream(61, (path,)))
    assert out.dtype == np.int64 and out.shape == (n, 2)
    assert _digest(out) == DRIFT_PINS[name]
