#!/usr/bin/env python3
"""Pipeline benchmark: catalog front end, solver eliminations, a full enumeration.

One workload, from the root of a checkout:

    python3 bench_pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

prints its metrics and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

    python3 bench_pipeline/run.py [--seed N] [--seconds S]

runs every workload in turn, each in its own process, untraced and then
traced, prints all metrics by name and unit and writes them to
``.bench_out/results-seed<N>.json``.  ``--write-spec`` writes
``BENCHMARK.json`` from :data:`SPEC`.

The program is built from the checkout's ``src/``: its compiled kernel is
cached under ``.bench_build/``, and traces go to ``.bench_out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SPEC = {
    "command": ["python3", "bench_pipeline/run.py"],
    "paths": ["bench_pipeline"],
    "run_seconds": 25,
    "workloads": [
        {"name": "frontend-catalog",
         "why": "all 25 catalog groups through orbits, KM build, reduction and screens, no search: the front end of table-all, which a kernel change must not move"},
        {"name": "solve-unsat",
         "why": "the six fastest solved-unsat rows decided by exhaustive search: the kernel's pruning path, never reporting a solution"},
        {"name": "enumerate-spreads",
         "why": "all 1,904,640 plane spreads of F_2^6: one callback and one Python-side remap per solution, so solution handling weighs as much as search"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [
        {"name": "grassmannian.index_s", "unit": "s", "better": "lower"},
        {"name": "catalog.load_s", "unit": "s", "better": "lower"},
        {"name": "orbits.t_s", "unit": "s", "better": "lower"},
        {"name": "orbits.k_s", "unit": "s", "better": "lower"},
        {"name": "orbits.t_orbits", "unit": "count", "better": "lower"},
        {"name": "orbits.k_orbits", "unit": "count", "better": "lower"},
        {"name": "km.build_s", "unit": "s", "better": "lower"},
        {"name": "km.entries", "unit": "count", "better": "lower"},
        {"name": "km.reduce_s", "unit": "s", "better": "lower"},
        {"name": "km.screen_s", "unit": "s", "better": "lower"},
        {"name": "km.cover_s", "unit": "s", "better": "lower"},
        {"name": "cover.solve_s", "unit": "s", "better": "lower"},
        {"name": "cover.self_s", "unit": "s", "better": "lower"},
        {"name": "dlx_kernel.solve_s", "unit": "s", "better": "lower"},
        {"name": "dlx_kernel.nodes", "unit": "count", "better": "lower"},
        {"name": "dlx_kernel.nodes_per_s", "unit": "1/s", "better": "higher"},
        {"name": "dlx_kernel.solutions_per_node", "unit": "1", "better": "higher"},
        {"name": "dlx_py.nodes_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# set-up is timed in this many fresh processes and the median reported
SETUP_PROBES = 7
# span name -> per-layer metric of its self time
SPAN_METRICS = {
    "catalog.load": "catalog.load_s",
    "orbits.t": "orbits.t_s",
    "orbits.k": "orbits.k_s",
    "km.build": "km.build_s",
    "km.reduce": "km.reduce_s",
    "km.screen": "km.screen_s",
    "km.cover": "km.cover_s",
    "cover.solve": "cover.self_s",
    "dlx_kernel.solve": "dlx_kernel.solve_s",
}

def environment():
    """Keep every file the program writes inside the checkout, on one thread."""
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GF2DESIGNS_PURE_PY", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    if not (SRC / "gf2designs" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'gf2designs'} is missing")


def import_program():
    """Import the checkout's own gf2designs and require the compiled kernel."""
    import gf2designs
    from gf2designs import cover

    if Path(gf2designs.__file__).resolve().parent != (SRC / "gf2designs").resolve():
        sys.exit(f"error: imported gf2designs from {gf2designs.__file__}, not {SRC}")
    if cover.BACKEND != "c":
        sys.exit("error: the compiled kernel could not be built; see the warning above")
    import workloads

    return workloads


def probe(name):
    """Set up as a workload does, then say so: the parent times this process."""
    workloads = import_program()
    workloads.setup(workloads.WORKLOADS[name])
    print("ready", flush=True)


def time_setup(name):
    """Median seconds from process start to set-up done, over fresh processes.

    One unmeasured process goes first: it compiles the kernel into the
    cache if the cache is empty.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", name],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up of {name} failed (exit code {proc.returncode})")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_round(workload, tr, kept, tally):
    """Run every operation once; returns wall seconds and peak memory so far."""
    ops, outputs = workload.operations(), []
    start = time.perf_counter()
    for label, op in ops:
        tr.operation = label
        tally["attempted"] += 1
        try:
            outputs.append((label, op(tr)))
        except Exception:
            traceback.print_exc()
            tally["failed"] += 1
    wall = time.perf_counter() - start
    peak = peak_rss_mb()
    kept.extend((label, workload.keep(label, out)) for label, out in outputs)
    return wall, peak


def layer_metrics(tr, stats):
    totals = tr.totals()
    metrics = {"grassmannian.index_s": stats["grassmannian.index_s"]}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = totals.get(span, (0.0, 0.0))[1]
    metrics["cover.solve_s"] = totals.get("cover.solve", (0.0, 0.0))[0]
    for name in ("orbits.t_orbits", "orbits.k_orbits", "km.entries"):
        metrics[name] = tr.counts[name]
    nodes = tr.counts["dlx_kernel.solve.nodes"]
    kernel_s = metrics["dlx_kernel.solve_s"]
    metrics["dlx_kernel.nodes"] = nodes
    metrics["dlx_kernel.nodes_per_s"] = nodes / kernel_s if kernel_s else 0.0
    metrics["dlx_kernel.solutions_per_node"] = (
        tr.counts["dlx_kernel.solve.solutions"] / nodes if nodes else 0.0
    )
    metrics["dlx_py.nodes_per_s"] = stats.get("dlx_py.nodes_per_s", 0.0)
    metrics["trace.overhead_s"] = stats["traced_wall_s"] - stats["wall_s"]
    return metrics


def run_workload(name, seed, seconds, trace):
    setup_s = None if trace else time_setup(name)
    workloads = import_program()
    workload = workloads.WORKLOADS[name]()
    start = time.perf_counter()
    workloads.setup(workload)
    stats = {"grassmannian.index_s": time.perf_counter() - start}

    tally = {"attempted": 0, "failed": 0}
    kept, walls = [], []
    while True:
        wall, peak = run_round(workload, workloads.NO_TRACE, kept, tally)
        walls.append(wall)
        # start another round only if it should end within the run time
        if sum(walls) + walls[-1] > seconds:
            break
    stats["wall_s"] = statistics.median(walls)
    if trace:
        tr = workloads.Tracer()
        with workloads.kernel_spans(tr, workloads.cover._kernel, "dlx_kernel.solve"):
            stats["traced_wall_s"], _ = run_round(workload, tr, kept, tally)

    problems = workload.check(kept, seed, stats)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if trace:
        metrics = layer_metrics(tr, stats)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": name, "seed": seed, "counts": tr.counts,
            "per_operation": tr.per_operation(),
            "spans": [dict(zip(("name", "start", "end", "parent", "operation"), s))
                      for s in tr.spans],
        }, indent=1))
        print(f"trace: {trace_path.relative_to(ROOT)}")
    else:
        metrics = {"setup_s": setup_s, "wall_s": stats["wall_s"], "peak_rss_mb": peak}
    print(f"workload {name}: seed {seed}, {len(walls)} round(s) of"
          f" {len(workload.operations())} operation(s)")
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {UNITS[metric]}")
    result = {
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds):
    """Every workload in its own process, untraced then traced."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            try:
                results[f"{name} trace={trace}"] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                results[f"{name} trace={trace}"] = {"correct": False, "exit": proc.returncode}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"\n{'run':32s} {'attempted':>9s} {'failed':>6s} correct")
    for run, res in results.items():
        print(f"{run:32s} {res.get('attempted', 0):9d} {res.get('failed', 0):6d} {res['correct']}")
    print(f"results: {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this workload only (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="chooses the spreads whose designs are verified")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="run whole rounds while they fit in this time (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced round")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    parser.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    environment()
    if args.probe:
        return probe(args.probe)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    return run_all(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
