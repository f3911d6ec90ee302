"""Seeded benchmark of invitesim: two batch workloads, checked outputs.

    python3 bench/run.py --workload kernels --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; invitesim is imported from ./src.
A run sets up, then repeats the workload's fixed, seeded round of work for
--seconds (at least two rounds), and reports the mean round: the timed
seconds divided by the rounds.  A round is already 10 to 20 s of work and a
run holds only three to six of them; the machine's speed drifts smoothly
over tens of seconds, so the mean, which uses every timed second, varies
less from run to run than the median of so few rounds.  Round 0's
outputs are checked, after the timed rounds, against references computed
apart from the program; every later round must reproduce round 0 byte for
byte.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, reports the per-layer metrics of the traced ones, prints the
tracing overhead and writes the spans as JSONL under bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload, each in
its own process.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 2
SETUP_SAMPLES = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import invitesim; "
                 "print(time.perf_counter() - t)")


def import_program():
    """Import invitesim from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("invitesim")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import invitesim from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"error: invitesim came from {pkg.__file__}, not from {SRC}")
    names = ("params", "ctmc", "fluid", "diffusion", "stats", "presets", "cli")
    # invitesim.presets is also a function re-exported by the package, so
    # look modules up by their full name
    return SimpleNamespace(package=pkg, **{n: importlib.import_module(f"invitesim.{n}")
                                           for n in names})


def with_units(values: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the metric sets must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if set(values) != {m["name"] for m in spec}:
        raise SystemExit(f"error: {kind} metrics {sorted(values)} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def fresh_import_seconds() -> float:
    """Median time to import invitesim in a new interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Combined

    mods = import_program()
    import_s = fresh_import_seconds()
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = Combined(name, WORKLOADS[name], mods, out_dir)
    builds = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        workload.setup(seed)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    tracer = Tracer(mods.package) if trace else None
    failures: list[str] = []
    walls = {False: [], True: []}
    cpus = []
    part_walls = []
    traced_metrics = []
    attempted = failed = 0
    first_digest = None
    begin = time.perf_counter()
    k = 0
    # start a round only while it should end within --seconds, so that a
    # run lasts about as long whatever its round length
    while k < MIN_ROUNDS or (time.perf_counter() - begin
                             + statistics.median(walls[False] + walls[True]) <= seconds):
        traced = trace and k % 2 == 1
        if traced:
            tracer.run_id = f"{name}-seed{seed}-round{k}"
            tracer.install()
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            raw = workload.round()
        finally:
            w1 = time.perf_counter()
            c1 = time.process_time()
            if traced:
                tracer.uninstall()
        walls[traced].append(w1 - w0)
        part_walls.append(raw["part_wall"])
        if not traced:
            cpus.append(c1 - c0)
        else:
            spans = [s for s in tracer.spans if s["run"] == tracer.run_id]
            traced_metrics.append(layer_metrics(spans, workload.workers, import_s))
        attempted += workload.ops_per_round
        failed += len(raw["failed"])
        for msg in raw["failed"]:
            print(f"failed operation: {msg}", file=sys.stderr)
        digest = workload.digest(raw)
        if first_digest is None:
            first_digest = digest
            first_outputs = workload.collect(raw)
        elif digest != first_digest:
            failures.append(f"round {k} outputs differ from round 0 for the same seed")
        del raw
        k += 1

    t0 = time.perf_counter()
    failures += workload.check(first_outputs)
    check_s = time.perf_counter() - t0

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if trace:
        untraced = statistics.fmean(walls[False])
        traced_wall = statistics.fmean(walls[True])
        overhead = traced_wall - untraced
        print(f"trace overhead: traced wall_s {traced_wall:.4f} - untraced wall_s "
              f"{untraced:.4f} = {overhead:+.4f} s "
              f"({len(walls[True])} traced, {len(walls[False])} untraced rounds)")
        tracer.write_jsonl(out_dir / f"spans-seed{seed}.jsonl")
        values = {m: statistics.median(r[m] for r in traced_metrics)
                  for m in traced_metrics[0]}
        metrics = with_units(values, "per_layer")
        summary = {"workload": name, "seed": seed, "trace_overhead_s": overhead,
                   "traced_wall_s": walls[True], "untraced_wall_s": walls[False],
                   "metrics": metrics}
        (out_dir / f"trace-seed{seed}.json").write_text(json.dumps(summary, indent=2) + "\n")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": statistics.fmean(walls[False]),
                  "cpu_s": statistics.fmean(cpus), "peak_rss_mb": peak_mb}
        metrics = with_units(values, "end_to_end")
    print(f"workload {name}, seed {seed}: {k} rounds, {attempted} operations "
          f"attempted, {failed} failed")
    print("  round wall_s: " + " ".join(f"{w:.3f}" for w in walls[False] + walls[True])
          + f"; checks took {check_s:.2f} s")
    print("  round cpu_s: " + " ".join(f"{c:.3f}" for c in cpus))
    for i, part in enumerate(workload.parts):
        print(f"  round wall_s of {part.name}: "
              + " ".join(f"{w[i]:.3f}" for w in part_walls))
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="kernels, limits or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    names = tuple(WORKLOADS)
    if args.workload == "all":
        code = 0
        for name in names:
            print(f"== {name}", flush=True)
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
            code = code or proc.returncode
        return code
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
