"""Build and load the compiled event kernels and CSV row formatter in
_kernel.c through ctypes.

The library is compiled on the first kernel call or the first data file
_csv.write_columns can format in C, never at import, into
``__pycache__/_kernel-<hash>.so`` next to this file; the hash covers the
source and the compiler flags, so an edited source gets a new library.  The
compiler writes to a temporary file that is renamed into place, so processes
racing to build never load a half-written library, and a lock makes threads
of one process build it once.  When no compiler is found, it fails, or the
directory is not writable, ``library()`` returns None: the simulators run
their Python loops, which give the same bits, and write_columns its row
loop, which gives the same bytes.

A kernel refills its block of uniforms from the run's numpy bit generator.
ctypes releases the GIL for the length of each call, so kernels run in
parallel on a thread pool.
"""
from __future__ import annotations

import ctypes
import os
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")
_CC = "cc"
# no fast-math and no -march: the kernels must round exactly as Python does
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_UNTRIED = object()
_lib = _UNTRIED  # the loaded library, None when it cannot be built
_lock = threading.Lock()

# return codes and arrival kinds of _kernel.c
K_DONE, K_LOG_FULL = range(2)
ARR_NONE, ARR_SINUSOID, ARR_PIECEWISE = range(3)

_d, _i, _p = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p


class KernelState(ctypes.Structure):
    """Mirror of _kernel.c's kstate: model, grid, uniforms, log chunk, run state."""

    _fields_ = [
        *((n, _d) for n in ("beta", "eps", "beta_t", "gamma", "bound_rate", "bound")),
        *((n, _i) for n in ("gamma_int", "arrival")),
        *((n, _d) for n in ("a_base", "a_amp", "a_period")),
        ("bp", _p), ("bv", _p), ("n_bp", _i),
        ("horizon", _d), ("dtg", _d), ("n_grid", _i),
        ("ys", _p), ("xs", _p), ("tgts", _p),
        ("u", _p), ("n_u", _i), ("ui", _i),
        ("bitgen", _p), ("next_double", _p),
        ("budget", _i), ("logging", _i), ("truncated", _i),
        ("log_t", _p), ("log_kind", _p), ("log_dy", _p), ("log_dx", _p),
        ("log_cap", _i), ("log_n", _i),
        *((n, _d) for n in ("t", "tg", "target", "last_change")),
        *((n, _i) for n in ("y", "x", "gi", "n_events", "n_reps", "rep", "y0", "x0")),
        ("out", _p),
    ]


def new_state(**fields) -> KernelState:
    """A KernelState with `fields` set and the rest zero, on 64-byte cache
    lines of its own: the kernels write the run state into it on every event,
    and two pooled runs' states on one line would stall each other."""
    buf = bytearray(ctypes.sizeof(KernelState) + 127)
    state = KernelState.from_buffer(buf, -ctypes.addressof(ctypes.c_char.from_buffer(buf)) % 64)
    for name, value in fields.items():
        setattr(state, name, value)
    return state


def _build() -> ctypes.CDLL:
    # imported here, not at module level, to keep `import invitesim` light
    import hashlib

    tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()[:16]
    path = _SOURCE.parent / "__pycache__" / f"_kernel-{tag}.so"
    if not path.exists():
        import subprocess
        import tempfile

        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        try:
            subprocess.run([_CC, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, path)
        except subprocess.SubprocessError as exc:  # non-zero exit or timeout
            raise OSError(f"cannot compile {_SOURCE.name}: {exc}") from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    lib.kstate_size.argtypes = []
    lib.kstate_size.restype = ctypes.c_int64
    if lib.kstate_size() != ctypes.sizeof(KernelState):
        raise OSError(f"{path.name}: kstate layout differs from KernelState")
    for fn in (lib.run_b, lib.run_a):
        fn.argtypes = [ctypes.POINTER(KernelState)]
        fn.restype = ctypes.c_int
    lib.format_rows.argtypes = [_p, _i, _i, _p, _i, _i]
    lib.format_rows.restype = _i
    return lib


def library() -> ctypes.CDLL | None:
    """The compiled library, built on first use; None when it cannot be built."""
    global _lib
    with _lock:
        if _lib is _UNTRIED:
            try:
                _lib = _build()
            except OSError:  # no compiler, it failed, or the directory is read-only
                _lib = None
        return _lib
