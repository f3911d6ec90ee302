"""The compiled kernels against the Python loops they mirror.

simulate_b, drift_replicates_b and simulate_a run _kernel.c when it builds
and their Python loops otherwise; both must give the same bits.  Setting `_native._lib` to None
forces the Python loop, the oracle here.
"""
import ctypes
import math
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import LyingSinusoid, LyingSteps, Shifted, over_backends
from invitesim import _native, ctmc
from invitesim._csv import write_columns
from invitesim.ctmc import (
    GridSpec,
    RandomStream,
    SystemState,
    ThinningBoundViolated,
    drift_replicates_b,
    simulate_a,
    simulate_b,
)
from invitesim.params import (
    ModelParams,
    NonIntegerGamma,
    PiecewiseConstantArrival,
    SinusoidArrival,
    validate_params,
)
from invitesim.stats import scale_sweep

needs_cc = pytest.mark.skipif(shutil.which(_native._CC) is None,
                              reason="no C compiler")

ARRIVALS = {
    "none": None,
    "constant": None,  # _random_case sets lam = 1.3: a constant rate other than 1.0
    "sinusoid": SinusoidArrival(1.0, 0.6, 2.5),
    "piecewise": PiecewiseConstantArrival((0.7, 1.9, 3.1), (1.0, 1.8, 0.3, 1.2)),
}


def _random_case(k: int):
    """Seeded run description k: scheme, params, start, horizon, arrival, sampling.

    Scheme A runs at the constant rate lam: its cases get the arrival None.
    Scheme B needs an integer gamma: its cases (odd k) get 2, 1 or 3.
    """
    rng = np.random.default_rng([2024, k])
    scheme = "AB"[k % 2]
    arrival = list(ARRIVALS)[(k // 2) % 4]
    gamma = (1.0, 2.0, 0.5, 1.0, 2.25, 3.0)[k % 6]
    beta = float(rng.uniform(0.5, 2.0))
    params = ModelParams(lam=1.3 if arrival == "constant" else 1.0,
                         scale_r=float(rng.choice([5.0, 40.0, 200.0])), beta=beta,
                         gamma=gamma,
                         epsilon=float(rng.uniform(0.05, 0.9)) * gamma ** 2 * beta / 4.0,
                         beta_tilde=float(rng.choice([0.0, 0.5, 3.0])))
    x0 = int(rng.integers(0, 3 * params.scale_r))
    start = SystemState(int(rng.integers(-20, 21)), x0,
                        x_target=max(0.0, x0 + float(rng.uniform(-3.0, 3.0))))
    sampling = GridSpec(dt=float(rng.choice([0.01, 0.07, 0.3, 1.0])),
                        record_events=bool(k % 3),
                        event_budget=int(rng.choice([10, 100, 5_000_000])))
    return (scheme, params, start, float(rng.uniform(0.5, 5.0)),
            ARRIVALS[arrival] if scheme == "B" else None, sampling)


def _simulate(scheme, params, start, horizon, arrival, sampling, stream):
    if scheme == "A":
        assert arrival is None
        return simulate_a(start, params, horizon, stream, sampling=sampling)
    return simulate_b(start, params, horizon, stream, arrival=arrival, sampling=sampling)


def _fingerprint(traj):
    out = [traj.n_events, traj.t.tobytes(), traj.y.tobytes(), traj.x.tobytes(),
           None if traj.x_target is None else traj.x_target.tobytes()]
    ev = traj.events
    if ev is not None:
        out += [ev.truncated, len(ev)] + [(a.dtype.str, a.tobytes())
                                          for a in (ev.t, ev.kind, ev.dy, ev.dx)]
    return out


def _spy_compiled(monkeypatch) -> list:
    """Record, per kernel call, whether the compiled kernel ran it."""
    ran = []
    inner = ctmc._run_compiled

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        ran.append(out is not None)
        return out
    monkeypatch.setattr(ctmc, "_run_compiled", spy)
    return ran


def _both_backends(monkeypatch, run):
    """run() on the compiled kernel (which must be used) and on the Python loop."""
    ran = _spy_compiled(monkeypatch)
    native = run()
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        oracle = run()
    assert ran == [True, False]
    return native, oracle


@needs_cc
@pytest.mark.parametrize("k", range(56))
def test_compiled_matches_python_loop(k, monkeypatch):
    case = _random_case(k)
    native, oracle = _both_backends(
        monkeypatch, lambda: _simulate(*case, RandomStream(900 + k)))
    assert _fingerprint(native) == _fingerprint(oracle)


LONG_B = (ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2),
          SystemState(0, 1000), 40.0)


@needs_cc
@pytest.mark.parametrize("budget", [65_536, 65_537, 5_000_000])
def test_compiled_log_crosses_chunks_and_blocks(budget, monkeypatch):
    # about 80 000 events and 160 000 uniforms: the log fills a whole chunk
    # and the uniforms span three blocks; budgets end the log at the chunk's
    # last entry and one past it
    params, start, horizon = LONG_B
    sampling = GridSpec(dt=0.05, record_events=True, event_budget=budget)
    native, oracle = _both_backends(monkeypatch, lambda: simulate_b(
        start, params, horizon, RandomStream(41), sampling=sampling))
    assert native.n_events > 65_537
    assert len(native.events) == min(budget, native.n_events)
    assert _fingerprint(native) == _fingerprint(oracle)


@needs_cc
@pytest.mark.parametrize("case", ["A", "B", "drift"])
def test_compiled_resumes_at_every_draw(case, monkeypatch):
    # three-uniform blocks make the kernel refill its block inside nearly
    # every event, between any two of its draws (scheme B: hold, pick, thin;
    # scheme A and drift windows: hold, pick), and seven-entry log
    # chunks make it return K_LOG_FULL every seven events and be called
    # again; the stream, and so the run, must not change
    monkeypatch.setattr(ctmc, "_BUF", 3)
    monkeypatch.setattr(ctmc, "_LOG_CHUNK", 7)
    params = ModelParams(lam=1.0, scale_r=30.0, beta=1.0, gamma=1.5, epsilon=0.2,
                         beta_tilde=1.0)
    if case in ("A", "B"):
        sim = (case, params if case == "A" else replace(params, gamma=2.0),
               SystemState(2, 30, x_target=30.5), 3.0,
               ARRIVALS["sinusoid"] if case == "B" else None,
               GridSpec(dt=0.1, record_events=True))

        def run():
            return _fingerprint(_simulate(*sim, RandomStream(5)))
    else:
        def run():
            return drift_replicates_b((2, 30), replace(params, gamma=2.0), 0.1, 300,
                                      RandomStream(5)).tolist()
    native, oracle = _both_backends(monkeypatch, run)
    monkeypatch.undo()
    assert native == oracle == run()


class OverstatedSinusoid(SinusoidArrival):
    def bound(self):
        # 1e-10 above the peak, inside the kernel's 1e-9 tolerance: the squeeze is on
        return (self.base + abs(self.amplitude)) * (1.0 + 1e-10)


@pytest.mark.parametrize("case, backend", over_backends(
    [(LyingSinusoid(1.0, 0.2, 10.0), 1.2), (LyingSteps((2.0,), (1.0, 1.5)), 1.5)],
    ids=["sinusoid", "piecewise"]), indirect=["backend"])
def test_understated_bound_fails_before_the_run(case, backend, monkeypatch):
    # a library profile's peak is known before the first draw: a bound below
    # it fails there, with one message on both backends, and no kernel call
    # or uniform is spent on it
    arrival, peak = case
    ran = _spy_compiled(monkeypatch)
    generators = []
    make = RandomStream.generator
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: generators.append(self) or make(self))
    with pytest.raises(ThinningBoundViolated) as info:
        simulate_b((0, 0), LONG_B[0], 10.0, RandomStream(3), arrival=arrival)
    assert str(info.value) == f"arrival rate peak {peak} exceeds declared bound 1.0"
    assert ran == [] and generators == []
    # a bound above the peak, inside the 1e-9 tolerance, runs
    traj = simulate_b((0, 0), LONG_B[0], 10.0, RandomStream(3),
                      arrival=OverstatedSinusoid(1.0, 0.2, 10.0))
    assert ran == [backend == "c"] and traj.n_events > 0


@pytest.mark.parametrize("backend", ["c", "python"], indirect=True)
def test_overridden_rate_above_its_bound_fails_in_the_python_loop(backend, monkeypatch):
    # a profile that overrides __call__ has no closed form to check before
    # the run; _loop_b tests each candidate's rate and fails at the first
    # one above the bound
    class LyingShifted(Shifted):
        def bound(self):
            return self.base

    ran = _spy_compiled(monkeypatch)
    with pytest.raises(ThinningBoundViolated) as info:
        simulate_b((0, 0), LONG_B[0], 10.0, RandomStream(3),
                   arrival=LyingShifted(1.0, 0.2, 10.0))
    assert ran == [False] and info.traceback[-1].name == "_loop_b"
    assert str(info.value).startswith("arrival rate ") and " at t=" in str(info.value)


SQUEEZE_CASES = {  # arrival, r, horizon, gamma
    # the rate touches 0 once a period
    "touches-zero": (SinusoidArrival(1.0, 1.0, 2.0), 50.0, 10.0, 2.0),
    "touches-zero-negative": (SinusoidArrival(1.0, -1.0, 2.0), 50.0, 10.0, 1.0),
    # sin changes faster than the candidates come: mostly evaluated exactly
    "short-period": (SinusoidArrival(1.0, 0.5, 1e-3), 50.0, 5.0, 2.0),
    # 2*pi*t/period reaches 1.3e5, where the argument's rounding is largest
    "large-argument": (SinusoidArrival(1.0, 0.3, 1e-3), 50.0, 20.0, 2.0),
    "overstated-bound": (OverstatedSinusoid(1.0, 0.2, 3.0), 200.0, 5.0, 2.0),
    # fig4's profile: the squeeze settles nearly every candidate
    "slow": (SinusoidArrival(1.0, 0.2, 120.0), 1000.0, 10.0, 2.0),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(SQUEEZE_CASES))
def test_thinning_squeeze_matches_python_loop(name, monkeypatch):
    # the compiled kernel keeps or drops most sinusoid candidates without
    # sin; the Python loop evaluates every one
    arrival, r, horizon, gamma = SQUEEZE_CASES[name]
    params = ModelParams(lam=1.0, scale_r=r, beta=1.0, gamma=gamma, epsilon=0.2)
    case = ("B", params, SystemState(0, int(r)), horizon, arrival,
            GridSpec(dt=0.05, record_events=True))
    native, oracle = _both_backends(
        monkeypatch, lambda: _fingerprint(_simulate(*case, RandomStream(17))))
    assert native == oracle


MANY_STEPS = PiecewiseConstantArrival(
    tuple(0.05 * k for k in range(1, 201)),
    tuple(float(v) for v in np.random.default_rng(4).uniform(0.0, 2.0, 201)))


@needs_cc
@pytest.mark.parametrize("arrival", [MANY_STEPS, SinusoidArrival(1.0, 0.4, 0.7)],
                         ids=["piecewise-200", "sinusoid"])
def test_thinning_state_survives_log_full_returns(arrival, monkeypatch):
    # 16-entry log chunks: the kernel returns K_LOG_FULL over a hundred
    # times, and each call starts its squeeze anchor anew at the current
    # time
    monkeypatch.setattr(ctmc, "_LOG_CHUNK", 16)
    params = ModelParams(lam=1.0, scale_r=100.0, beta=1.0, gamma=2.0, epsilon=0.2)
    case = ("B", params, SystemState(0, 100), 12.0, arrival,
            GridSpec(dt=0.05, record_events=True))
    native, oracle = _both_backends(
        monkeypatch, lambda: _fingerprint(_simulate(*case, RandomStream(23))))
    assert native == oracle and native[6] > 100 * 16


@needs_cc
@pytest.mark.parametrize("product", [1e-14, 1e-10, 0.1, 40.0, 800.0])
def test_quiet_windows_match_python_loop(product, monkeypatch):
    # drift windows with dt * total = product at the start state: the
    # compiled kernel ends a window whose first uniform lies above the quiet
    # threshold without log; nearly every window is quiet at 1e-14 and
    # 1e-10, about 90% at 0.1, and none at 40 and 800
    params = ModelParams(lam=1.0, scale_r=20.0, beta=1.0, gamma=2.0, epsilon=0.2)
    y, x = 3, 10
    dt = product / (params.lam * params.scale_r + params.beta * x + params.epsilon * y)
    n = 20_000 if product < 1.0 else 40
    native, oracle = _both_backends(monkeypatch, lambda: drift_replicates_b(
        (y, x), params, dt, n, RandomStream(8)).tolist())
    assert native == oracle
    if product == 0.1:
        assert 0.85 * n < native.count([0, 0]) < 0.95 * n


@pytest.mark.parametrize("scheme", "B")
def test_overridden_rate_runs_the_python_loop(scheme, monkeypatch):
    # _kernel.c mirrors only the library's own rate functions
    case = (scheme, replace(LONG_B[0], scale_r=10.0), SystemState(0, 10, x_target=10.0), 2.0,
            Shifted(1.0, 0.5, 1.0), GridSpec(record_events=True))
    ran = _spy_compiled(monkeypatch)
    traj = _simulate(*case, RandomStream(1))
    assert ran == [False] and traj.n_events > 0
    monkeypatch.setattr(_native, "_lib", None)
    assert _fingerprint(traj) == _fingerprint(_simulate(*case, RandomStream(1)))


def _spy_library(monkeypatch, on_call):
    """Make _native.library() run on_call(name, ks) before each kernel call."""
    lib = _native.library()

    class Spy:
        def __getattr__(self, name):
            def call(ks):
                on_call(name, ks)
                return getattr(lib, name)(ks)
            return call

    monkeypatch.setattr(_native, "library", Spy)


@needs_cc
def test_unlogged_compiled_run_is_one_kernel_call(monkeypatch):
    # the kernel refills its uniforms itself: with three-uniform blocks, an
    # unlogged run still returns to Python only when it has ended
    monkeypatch.setattr(ctmc, "_BUF", 3)
    calls = []
    _spy_library(monkeypatch, lambda name, ks: calls.append(name))
    params = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=2.0, epsilon=0.2,
                         beta_tilde=1.0)
    b = simulate_b(SystemState(0, 50), params, 5.0, RandomStream(1),
                   arrival=ARRIVALS["sinusoid"])
    a = simulate_a(SystemState(0, 50, x_target=50.0), params, 5.0, RandomStream(2))
    drift_replicates_b((0, 50), params, 0.1, 200, RandomStream(3))
    assert calls == ["run_b", "run_a", "run_b"]
    assert min(b.n_events, a.n_events) > 100


def _kstate_fields() -> list[str]:
    """Field names of _kernel.c's `typedef struct { ... } kstate;`, in order."""
    source = _native._SOURCE.read_text()
    body = re.search(r"typedef struct \{(.*?)\} kstate;", source, re.S).group(1)
    names = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";"):
        pointer_to_function = re.search(r"\(\*(\w+)\)", decl)
        if pointer_to_function:
            names.append(pointer_to_function.group(1))
        elif decl.strip():
            names += [re.findall(r"\w+", part)[-1] for part in decl.split(",")]
    return names


def test_kernel_state_fields_match_by_name():
    # every field is 8 bytes wide, so the size check at load time cannot see
    # two fields swapped in one of the two declarations
    assert _kstate_fields() == [name for name, _ in _native.KernelState._fields_]


def test_every_kernel_state_field_is_used():
    # a field that no kernel reads or writes as s->name is dead weight in
    # both declarations, and neither the size check nor the name match sees it
    source = re.sub(r"/\*.*?\*/", "", _native._SOURCE.read_text(), flags=re.S)
    decl = re.search(r"typedef struct \{.*?\} kstate;", source, re.S)
    used = set(re.findall(r"\bs->(\w+)", source[:decl.start()] + source[decl.end():]))
    assert [name for name in _kstate_fields() if name not in used] == []


@pytest.mark.parametrize("arrival, backend", over_backends(
    [None, ARRIVALS["sinusoid"], ARRIVALS["piecewise"]], ids=["none", "sinusoid", "piecewise"]),
    indirect=["backend"])
def test_non_integer_gamma_rejected_before_any_kernel_call(arrival, backend, monkeypatch):
    # scheme B moves X by whole invitations; a fractional gamma has no
    # meaning there, while scheme A takes it
    ran = _spy_compiled(monkeypatch)
    params = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=1.5, epsilon=0.2)
    with pytest.raises(NonIntegerGamma) as info:
        simulate_b(SystemState(0, 50), params, 5.0, RandomStream(1), arrival=arrival)
    assert ran == []
    assert "rounding" not in str(info.value) and "1.5" in str(info.value)
    assert validate_params(params, scheme="A") is params


@needs_cc
def test_kernel_log_pointers_match_event_log_dtypes(monkeypatch):
    # the kernel writes the log through typed pointers into arrays that
    # _run_compiled allocates and EventLog keeps as they are; a type that
    # differs would write the wrong bytes, not fail
    source = _native._SOURCE.read_text()
    body = re.search(r"typedef struct \{(.*?)\} kstate;", source, re.S).group(1)
    pointee = {}
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";"):
        ctype, _, names = decl.strip().partition(" ")
        for name in re.findall(r"\*\s*(log_\w+)", names):
            pointee[name] = ctype
    numpy_of = {"double": np.float64, "int8_t": np.int8, "int32_t": np.int32}
    kinds = [numpy_of[pointee[f"log_{n}"]] for n in ("t", "kind", "dy", "dx")]
    assert kinds == list(ctmc._LOG_DTYPES)
    ran = _spy_compiled(monkeypatch)
    ev = simulate_b((0, 50), LONG_B[0], 0.5, RandomStream(2),
                    sampling=GridSpec(record_events=True)).events
    assert ran == [True] and len(ev) > 100
    assert [a.dtype for a in (ev.t, ev.kind, ev.dy, ev.dx)] == kinds
    # and the kernel's event kinds are ctmc's
    codes = dict(re.findall(r"EV_(\w+) = (\d+)", source))
    assert {k: int(v) for k, v in codes.items()} == {
        k: getattr(ctmc, f"K_{k}") for k in
        ("ARRIVAL", "ACCEPT", "FEEDBACK_UP", "FEEDBACK_DOWN", "REJECT")}


@pytest.mark.parametrize("prefix", ["K", "ARR"])
def test_kernel_enums_match_native_constants(prefix):
    # _native numbers the kernels' return codes (K_*) and arrival kinds
    # (ARR_*) by hand; a member added, dropped or renumbered on one side
    # would be misread, not fail
    source = re.sub(r"/\*.*?\*/", "", _native._SOURCE.read_text(), flags=re.S)
    body = re.search(rf"enum \{{([^}}]*\b{prefix}_\w+ = [^}}]*)\}};", source).group(1)
    members = dict(re.findall(r"(\w+) = (\d+)", body))
    assert {k: int(v) for k, v in members.items()} == {
        k: v for k, v in vars(_native).items() if k.startswith(f"{prefix}_")}


@needs_cc
def test_kernel_compiles_without_warnings(tmp_path):
    # the bit generator's function pointer, the draw helper and the thinning
    # test must stay clean under the common warnings
    done = subprocess.run([_native._CC, *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "_kernel.so"), str(_native._SOURCE), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@needs_cc
def test_kernel_state_owns_its_cache_lines(monkeypatch):
    # the kernels write the run state on every event; a state sharing a 64-byte
    # line with another thread's made a two-thread sweep's kernels up to 1.8x
    # slower in CPU time (false sharing)
    seen = []

    def record(name, ks):
        (buf,) = ks._objects.values()  # the buffer the state lives in
        seen.append((ctypes.addressof(ks),
                     ctypes.addressof(ctypes.c_char.from_buffer(buf)) + len(buf)))

    _spy_library(monkeypatch, record)
    params = ModelParams(lam=1.0, scale_r=50.0, beta=1.0, gamma=2.0, epsilon=0.2)
    for k in range(20):
        simulate_b(SystemState(0, 100), params, 2.0, RandomStream(k))
        simulate_a(SystemState(0, 100, x_target=100.0), params, 2.0, RandomStream(k))
    lines = -(-ctypes.sizeof(_native.KernelState) // 64) * 64
    assert len(seen) >= 40
    for address, buf_end in seen:
        assert address % 64 == 0 and address + lines <= buf_end


@needs_cc
def test_pooled_sweep_equals_serial_while_threads_race_the_build(tmp_path, monkeypatch):
    # four threads race the first load of a library that is not built yet
    # (a fresh source location), then run their kernels without the GIL
    shutil.copy(_native._SOURCE, tmp_path / "_kernel.c")
    monkeypatch.setattr(_native, "_SOURCE", tmp_path / "_kernel.c")
    monkeypatch.setattr(_native, "_lib", _native._UNTRIED)
    params = ModelParams(lam=1.0, scale_r=1.0, beta=1.0, gamma=2.0, epsilon=0.2)
    args = ((50, 200), lambda r: (0, 2 * int(r)), params, 5.0, 8, RandomStream(77))
    result = []
    # a daemon thread, so that a deadlocked build fails the test instead of
    # hanging the run
    runner = threading.Thread(target=lambda: result.append(scale_sweep(*args, workers=4)),
                              daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(result) == 1
    pooled = result[0]
    assert _native._lib is not None
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [
        next((tmp_path / "__pycache__").glob("_kernel-*.so")).name]
    assert pooled == scale_sweep(*args)
    monkeypatch.setattr(_native, "_lib", None)
    assert pooled == scale_sweep(*args)


def _format_columns():
    """Columns for the formatter: row 0 the widest text of every kind, then
    hand-picked values and random float64 bit patterns."""
    rng = np.random.default_rng(2718)
    powers = np.array([10.0 ** k for k in range(-30, 31)])
    picked = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1e-310, 1e300, -1e300, 1.7976931348623157e308, 1e22, 1e23, 1e-22, 1e-23,
         9.9999999995, 99.9999999995, 123456789012.5, 12345678901.5, 0.125, 0.5, 2.5,
         1e-5, 0.0001, 1e10, 1e12, math.inf, -math.inf, math.nan],
        powers, np.nextafter(powers, math.inf), np.nextafter(powers, 0.0), -powers])
    n = 200_000
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    near_one = (rng.integers(0, 2**52, n // 2, dtype=np.uint64)
                | (rng.integers(1023 - 80, 1023 + 80, n // 2).astype(np.uint64) << 52)
                ).view(np.float64)
    g10 = np.concatenate([[-1.234567891e-300], picked, bits, near_one])
    both = np.empty((len(g10), 2))  # the .12g column is a strided view
    both[:, 0] = np.concatenate([[-1.23456789012e-300], picked[::-1], near_one, bits])
    ints = rng.integers(-2**63, 2**63, len(g10), dtype=np.int64)
    ints[:3] = [-2**63, 2**63 - 1, 0]
    words = np.array([b"boundary", b"", b"a", b"interior"] * (len(g10) // 4 + 1),
                     dtype="S12")[:len(g10)]
    words[0] = b"x" * 12
    ints32 = ints.astype(np.int32)
    ints32[0] = -2**31
    return [g10, both[:, 0], ints, ints32, words]


@pytest.mark.parametrize("backend", ["c", "python"], indirect=True)
def test_format_rows_matches_str_format(tmp_path, backend):
    cols = _format_columns()
    write_columns(tmp_path / "new.csv", "a,b,i,j,s", "{:.10g},{:.12g},{},{},{}", cols)
    with open(tmp_path / "old.csv", "w") as fh:
        fh.write("a,b,i,j,s\n")
        for a, b, i, j, s in zip(*[c.tolist() for c in cols]):
            fh.write(f"{a:.10g},{b:.12g},{i},{j},{s.decode()}\n")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    # the widest row alone gets a buffer of one row
    write_columns(tmp_path / "one.csv", "a,b,i,j,s", "{:.10g},{:.12g},{},{},{}",
                  [c[:1] for c in cols])
    assert (tmp_path / "one.csv").read_bytes() == (
        b"a,b,i,j,s\n-1.234567891e-300,-1.23456789012e-300,"
        b"-9223372036854775808,-2147483648,xxxxxxxxxxxx\n")
