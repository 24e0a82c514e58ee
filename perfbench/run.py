"""End-to-end and per-layer benchmark of the profiler pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload job-proxy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one unit of the workload with every layer's entry
points wrapped (see ``tracer.py``) and reports per-layer self time and
counts, the tracing overhead and the cProfile cross-check instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
PROBE_PAIRS = 3
CPROFILE_MAX_DIFF = 0.15  # largest per-layer share disagreement accepted

WORKLOAD_NAMES = ("job-proxy", "job-rodinia", "serve-fleet", "static-audit")

# name -> (unit, better); the order BENCHMARK.json lists them in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "wall_ref_s": ("s", "lower"),
    "rate_ref_per_s": ("1/s", "higher"),
}

PER_LAYER = {
    "machine.scalar_accesses": ("count", "lower"),
    "machine.scalar_s": ("s", "lower"),
    "machine.run_calls": ("count", "lower"),
    "machine.run_accesses": ("count", "higher"),
    "machine.run_s": ("s", "lower"),
    "machine.vector_accesses": ("count", "higher"),
    "machine.vector_s": ("s", "lower"),
    "machine.fast_path_fraction": ("fraction", "higher"),
    "sim.ctx_calls": ("count", "lower"),
    "sim.ctx_self_s": ("s", "lower"),
    "apps.kernel_self_s": ("s", "lower"),
    "pmu.samples": ("count", "higher"),
    "pmu.note_s": ("s", "lower"),
    "profiler.samples": ("count", "higher"),
    "profiler.unknown_samples": ("count", "lower"),
    "profiler.attrib_s": ("s", "lower"),
    "profiler.alloc_s": ("s", "lower"),
    "driver.rank_s": ("s", "lower"),
    "driver.retries": ("count", "lower"),
    "driver.failed_ranks": ("count", "lower"),
    "codec.encode_s": ("s", "lower"),
    "codec.decode_s": ("s", "lower"),
    "codec.decode_calls": ("count", "lower"),
    "codec.decoded_bytes": ("bytes", "lower"),
    "codec.decodes_per_leaf": ("count", "lower"),
    "merge.s": ("s", "lower"),
    "merge.rounds": ("count", "lower"),
    "merge.inputs": ("count", "higher"),
    "views.s": ("s", "lower"),
    "metrics.eval_s": ("s", "lower"),
    "serve.validate_s": ("s", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.rejected": ("count", "lower"),
    "store.ingest_s": ("s", "lower"),
    "store.scan_s": ("s", "lower"),
    "store.compact_s": ("s", "lower"),
    "store.compactions": ("count", "lower"),
    "query.materialize_s": ("s", "lower"),
    "query.cache_hit_ratio": ("fraction", "higher"),
    "static.build_s": ("s", "lower"),
    "static.analyze_s": ("s", "lower"),
    "static.predict_s": ("s", "lower"),
    "static.extract_s": ("s", "lower"),
    "static.diff_s": ("s", "lower"),
    "static.findings": ("count", "higher"),
    "trace.unit_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.cprofile_max_share_diff": ("fraction", "lower"),
    "trace.cprofile_ok": ("flag", "higher"),
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _cold_import(modules: tuple[str, ...]) -> tuple[float, float]:
    """Host and reference seconds a fresh interpreter takes to import the
    workload's modules, timed and speed-sampled inside that interpreter."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import json, refclock\nwith refclock.RefClock() as clock:\n    "
        + "; ".join(f"import {m}" for m in modules)
        + "; print(json.dumps(clock.lap()))"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    host, ref = json.loads(proc.stdout.splitlines()[-1])
    return host, ref


def timed_run(workload, seconds: float) -> dict:
    # Every timing has a host value and a value scaled to the reference
    # speed (refclock.py); the gated metrics are the reference values.
    setups, setups_ref = [], []
    for _ in range(SETUP_REPEATS):
        host, ref = workload.setup()
        import_host, import_ref = _cold_import(workload.imports)
        setups.append(host + import_host)
        setups_ref.append(ref + import_ref)

    # Units run until one more plus the last (which may do extra work)
    # would end past the window; at least two run.
    extra = getattr(workload, "LAST_EXTRA_S", 0.0)
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit())
        elapsed = time.perf_counter() - start
        if elapsed + 2 * elapsed / len(units) + extra > seconds:
            break
    units.append(workload.unit(last=True))
    measured_s = time.perf_counter() - start

    check = workload.check(units)
    detail = workload.metrics(units, ref=False)
    reference = workload.metrics(units, ref=True)
    wall, rate = workload.headline(detail)
    wall_ref, rate_ref = workload.headline(reference)
    detail["setup_host_s"] = (statistics.median(setups), "s")
    detail["setup_s"] = (statistics.median(setups_ref), "s")
    detail["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    detail["wall_host_s"] = (wall, "s")
    detail["rate_host_per_s"] = (rate, "1/s")
    detail["wall_ref_s"] = (wall_ref, "s")
    detail["rate_ref_per_s"] = (rate_ref, "1/s")
    detail["units"] = (len(units), "count")
    detail["measured_s"] = (measured_s, "s")
    metrics = {
        "setup_s": detail["setup_s"][0],
        "peak_rss_mb": detail["peak_rss_mb"][0],
        "wall_ref_s": wall_ref,
        "rate_ref_per_s": rate_ref,
    }
    return {
        "attempted": sum(u.attempted for u in units) + check.attempted,
        "failed": sum(u.failed for u in units) + check.failed,
        "notes": check.notes,
        "metrics": {k: (v, END_TO_END[k][0]) for k, v in metrics.items()},
        "detail": detail,
    }


def traced_run(workload) -> dict:
    import tracer as tr

    workload.setup()
    workload.probe()  # warm lazily built caches before anything is traced
    tracer = tr.LayerTracer()
    tracer.calibrate()
    t0 = time.perf_counter()
    unit, extra = workload.traced_unit(tracer)
    unit_wall = time.perf_counter() - t0
    check = workload.check([unit])

    # Overhead and the cProfile cross-check, on a smaller probe of the
    # same work: untraced and traced in turn (median of PROBE_PAIRS
    # each), then once under cProfile.
    untraced, traced = [], []
    for _ in range(PROBE_PAIRS):
        t0 = time.perf_counter()
        workload.probe()
        untraced.append(time.perf_counter() - t0)
        probe_tracer = tr.LayerTracer()
        probe_tracer.calibrate()
        with probe_tracer.installed():
            t0 = time.perf_counter()
            workload.probe()
            traced.append(time.perf_counter() - t0)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    xcheck = tr.cross_check(
        tr.tracer_layers(probe_tracer, traced[-1]), tr.cprofile_layers(workload.probe)
    )

    values = layer_metrics(tracer, extra)
    values["trace.unit_wall_s"] = unit_wall
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    values["trace.cprofile_max_share_diff"] = xcheck["max_share_diff"]
    values["trace.cprofile_ok"] = float(
        xcheck["calls_match"] and xcheck["max_share_diff"] <= CPROFILE_MAX_DIFF
    )
    detail = {
        "probe_untraced_s": (untraced_s, "s"),
        "probe_traced_s": (traced_s, "s"),
        "wrapper_cost_in_us": (1e6 * tracer.cost_in, "us"),
        "wrapper_cost_out_us": (1e6 * tracer.cost_out, "us"),
        "cprofile_check": xcheck,
        "self_s": dict(sorted(tracer.self_s.items())),
        **{k: v for k, v in extra.items() if k not in PER_LAYER},
    }
    return {
        "attempted": unit.attempted + check.attempted,
        "failed": unit.failed + check.failed,
        "notes": check.notes,
        "metrics": {k: (values[k], PER_LAYER[k][0]) for k in PER_LAYER},
        "detail": detail,
    }


def layer_metrics(tracer, extra: dict) -> dict[str, float]:
    self_s, counts = tracer.self_s, tracer.counts
    scalar = tracer.calls("MemoryHierarchy.access")
    run = counts["machine.run_accesses"]
    hits, misses = counts["query.hits"], counts["query.misses"]
    leaves = extra.get("leaves", 0)
    decodes = tracer.calls("ProfileDB.from_bytes")
    waits = tracer.queue_waits
    values = {
        "machine.scalar_accesses": scalar,
        "machine.scalar_s": self_s["machine.scalar"],
        "machine.run_calls": tracer.calls("MemoryHierarchy.access_run"),
        "machine.run_accesses": run,
        "machine.run_s": self_s["machine.run"],
        "machine.vector_accesses": counts["machine.vector_accesses"],
        "machine.vector_s": self_s["machine.vector"],
        "machine.fast_path_fraction": run / (scalar + run) if scalar + run else 0.0,
        "sim.ctx_calls": tracer.layer_calls().get("sim.ctx", 0),
        "sim.ctx_self_s": self_s["sim.ctx"],
        "apps.kernel_self_s": self_s["apps.kernel"],
        "pmu.samples": counts["pmu.samples"],
        "pmu.note_s": self_s["pmu.note"],
        "profiler.samples": counts["profiler.samples"],
        "profiler.unknown_samples": counts["profiler.unknown_samples"],
        "profiler.attrib_s": self_s["profiler.attrib"],
        "profiler.alloc_s": self_s["profiler.alloc"],
        "driver.rank_s": 0.0,
        "driver.retries": 0,
        "driver.failed_ranks": 0,
        "codec.encode_s": self_s["codec.encode"],
        "codec.decode_s": self_s["codec.decode"],
        "codec.decode_calls": decodes,
        "codec.decoded_bytes": counts["codec.decoded_bytes"],
        "codec.decodes_per_leaf": decodes / leaves if leaves else 0.0,
        "merge.s": self_s["merge"],
        "merge.rounds": counts["merge.rounds"],
        "merge.inputs": counts["merge.inputs"],
        "views.s": self_s["views"],
        "metrics.eval_s": self_s["metrics.eval"],
        "serve.validate_s": self_s["serve.validate"],
        "serve.queue_wait_ms": 1e3 * statistics.fmean(waits) if waits else 0.0,
        "serve.rejected": 0,
        "store.ingest_s": self_s["store.ingest"],
        "store.scan_s": self_s["store.scan"],
        "store.compact_s": self_s["store.compact"],
        "store.compactions": counts["store.compactions"],
        "query.materialize_s": self_s["query.materialize"],
        "query.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "static.build_s": self_s["static.build"],
        "static.analyze_s": self_s["static.analyze"],
        "static.predict_s": self_s["static.predict"],
        "static.extract_s": self_s["static.extract"],
        "static.diff_s": self_s["static.diff"],
        "static.findings": counts["static.findings"],
    }
    values.update({k: v for k, v in extra.items() if k in PER_LAYER})
    return values


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    work_dir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](name, seed, work_dir)
        return traced_run(workload) if trace else timed_run(workload, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _render(name: str, result: dict) -> str:
    lines = [f"== {name}"]
    for key, (value, unit) in result["metrics"].items():
        lines.append(f"  {key:34s} {value:>16.6g} {unit}")
    for key, item in result["detail"].items():
        if isinstance(item, tuple) and key not in result["metrics"]:
            lines.append(f"  {key:34s} {item[0]:>16.6g} {item[1]}")
    for note in result["notes"]:
        lines.append(f"  CHECK FAILED: {note}")
    return "\n".join(lines)


def _summary(results: dict[str, dict], prefix: bool) -> dict:
    metrics = {}
    for name, result in results.items():
        for key, (value, unit) in result["metrics"].items():
            metrics[f"{name}/{key}" if prefix else key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(_render(name, results[name]), flush=True)
    print(json.dumps({
        name: {k: list(v) if isinstance(v, tuple) else v
               for k, v in r["detail"].items()}
        for name, r in results.items()
    }, sort_keys=True, default=str))
    print(json.dumps(_summary(results, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
