"""Span tracer for the traced benchmark run.

The tracer wraps invitesim's public functions where the program looks them
up: each module attribute that holds one of them (``cli.simulate_b``,
``stats.simulate_b``, ``ctmc.simulate_b`` ...) and the ``to_csv`` method of
every class that has one.  It never edits the program; ``uninstall`` puts the
original objects back.  Spans stay in memory until ``write_jsonl``.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYER_MODULES = ("ctmc", "fluid", "diffusion", "stats")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _note_events(fn, args, kwargs, result):
    if result.time_varying:
        variant = "tv"
    elif result.events is not None:
        variant = "logged"
    else:
        variant = "const"
    return {"events": int(result.n_events), "variant": variant}


def _note_replicates(fn, args, kwargs, result):
    return {"replicates": int(len(result))}


def _note_steps(fn, args, kwargs, result):
    return {"steps": int(len(result.t) - 1)}


def _note_path_steps(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = int(round(a["horizon"] / a["dt"]))
    return {"path_steps": steps * int(a["n_paths"])}


def _note_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


NOTES = {
    "ctmc.simulate_b": _note_events,
    "ctmc.simulate_a": _note_events,
    "ctmc.drift_replicates_b": _note_replicates,
    "fluid.solve_fluid_tv": _note_steps,
    "diffusion.moment_ode": _note_steps,
    "diffusion.simulate_sde_ensemble": _note_path_steps,
    "cli.emit_plot_data": _note_bytes,
}


class Tracer:
    """Records (name, start, end, parent, run id, thread, CPU) per call."""

    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn):
        note = NOTES.get(name)
        if note is None and name.endswith(".to_csv"):
            note = _note_bytes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # pool threads start with an empty stack; their calls belong to
            # whatever the main thread is inside (the sweep that fanned out)
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = {"id": next(tracer._ids), "parent": parent, "name": name,
                    "run": tracer.run_id,
                    "main": threading.current_thread() is threading.main_thread()}
            stack.append(span["id"])
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - c0
                span["start"] = t0
                stack.pop()
                tracer.spans.append(span)
            if note is not None:
                span.update(note(fn, args, kwargs, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        mods = {m: sys.modules[f"{pkg}.{m}"] for m in (*LAYER_MODULES, "cli")}
        wrapped = {}
        for short in LAYER_MODULES:
            mod = mods[short]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and "to_csv" in vars(obj)):
                    self._patch(obj, "to_csv",
                                self.wrap(f"{short}.{attr}.to_csv", obj.to_csv))
        for attr in ("run", "emit_plot_data"):
            fn = getattr(mods["cli"], attr)
            wrapped[fn] = self.wrap(f"cli.{attr}", fn)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == pkg or name.startswith(pkg + ".")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round
# ---------------------------------------------------------------------------

def _dur(span) -> float:
    return span["end"] - span["start"]


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span, children) -> float:
    """Span duration minus the part of it that its children cover."""
    lo, hi = span["start"], span["end"]
    clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children]
    return (hi - lo) - _union_length([(a, b) for a, b in clipped if b > a])


def layer_metrics(spans, workers: int, import_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round; 0 for a layer it never called."""
    ok = [s for s in spans if "error" not in s]

    def pick(name, **match):
        return [s for s in ok if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def secs(group):
        return float(sum(_dur(s) for s in group))

    def rate(group, key):
        # per thread-CPU second, so that a pool thread waiting for the
        # interpreter lock does not lower the kernel's own rate
        cpu = sum(s["cpu"] for s in group)
        return sum(s[key] for s in group) / cpu if cpu > 0 else 0.0

    m = {"setup.import_s": import_s}
    for label, variant in (("simulate_b", "const"), ("simulate_b_tv", "tv"),
                           ("simulate_b_logged", "logged")):
        group = pick("ctmc.simulate_b", variant=variant)
        if label != "simulate_b_logged":
            m[f"ctmc.{label}.s"] = secs(group)
        m[f"ctmc.{label}.events_per_s"] = rate(group, "events")
    m["ctmc.reflect_representation.s"] = secs(pick("ctmc.reflect_representation"))
    for name, work, per_s in (
            ("ctmc.simulate_a", "events", "events_per_s"),
            ("ctmc.drift_replicates_b", "replicates", "replicates_per_s"),
            ("fluid.solve_fluid_tv", "steps", "steps_per_s"),
            ("diffusion.moment_ode", "steps", "steps_per_s"),
            ("diffusion.simulate_sde_ensemble", "path_steps", "path_steps_per_s")):
        group = pick(name)
        m[f"{name}.s"] = secs(group)
        m[f"{name}.{per_s}"] = rate(group, work)
    solves = [s for s in spans if s["name"] == "fluid.solve_fluid"]
    m["fluid.solve_fluid.s"] = secs(solves)
    m["fluid.solve_fluid.failed"] = sum(1 for s in solves if "error" in s)
    for name in ("sup_deviation", "stationary_moments", "scale_sweep"):
        m[f"stats.{name}.s"] = secs(pick(f"stats.{name}"))
    io = [s for s in ok if s["name"].endswith(".to_csv") or s["name"] == "cli.emit_plot_data"]
    m["io.csv.s"] = secs(io)
    m["io.csv.mb_per_s"] = rate(io, "bytes") / 1e6
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    m["cli.run.self_s"] = float(sum(self_time(s, children.get(s["id"], []))
                                    for s in spans if s["name"] == "cli.run"))
    # thread CPU, not wall: a pool thread waiting for the interpreter lock
    # is not busy
    busy = float(sum(s["cpu"] for s in pick("ctmc.simulate_b") if not s["main"]))
    m["pool.busy_s"] = busy
    sweep_s = m["stats.scale_sweep.s"]
    m["pool.efficiency"] = busy / (workers * sweep_s) if busy > 0 and sweep_s > 0 else 0.0
    return m
