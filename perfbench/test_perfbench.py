"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run scaled-down copies of the workloads (smoke preset, fewer ranks,
a short serve cycle) so they finish in about a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

# The deterministic counts ROADMAP item 1 wants gated later.
EXACT = (
    "machine.scalar_accesses", "machine.run_accesses", "machine.vector_accesses",
    "machine.fast_path_fraction", "pmu.samples", "profiler.unknown_samples",
    "codec.decodes_per_leaf", "static.findings",
)


class SmallJob(workloads.JobWorkload):
    PRESET = "smoke"
    RANKS = 2


class SmallServe(workloads.ServeWorkload):
    BURST = 20
    MIXED_SECONDS = 0.5
    INGEST_RATE = 20.0
    QUERY_RATE = 20.0
    COMPACT_EVERY = 2


SMALL = {
    "job-proxy": SmallJob,
    "job-rodinia": SmallJob,
    "serve-fleet": SmallServe,
    "static-audit": workloads.StaticWorkload,
}


def _traced_counts(name: str, seed: int, work_dir: Path) -> dict[str, float]:
    workload = SMALL[name](name, seed, work_dir)
    workload.setup()
    tracer = tr.LayerTracer()
    unit, extra = workload.traced_unit(tracer)
    check = workload.check([unit])
    assert unit.failed == 0 and check.failed == 0, check.notes
    if name.startswith("job-"):
        assert extra["access_coverage"] == 1.0  # the tracer saw every access
    return run.layer_metrics(tracer, extra)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counts_repeat(name, tmp_path):
    first = _traced_counts(name, 5, tmp_path / "a")
    second = _traced_counts(name, 5, tmp_path / "b")
    for key in EXACT:
        assert first[key] == second[key], key
    if name == "serve-fleet":
        assert first["codec.decodes_per_leaf"] == 2.0
    if name == "static-audit":
        assert first["static.findings"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 7])
def test_checks_pass_on_two_seeds(name, seed, tmp_path):
    workload = SMALL[name](name, seed, tmp_path)
    workload.setup()
    units = [workload.unit(), workload.unit(last=True)]
    check = workload.check(units)
    assert check.failed == 0, check.notes
    assert all(u.failed == 0 and u.attempted > 0 for u in units)


def test_seed_changes_generated_inputs(tmp_path):
    a = SMALL["serve-fleet"]("serve-fleet", 0, tmp_path / "a")
    b = SMALL["serve-fleet"]("serve-fleet", 1, tmp_path / "b")
    a.setup()
    b.setup()
    assert a.burst != b.burst
    assert [blob for _, blob in a.leaves] != [blob for _, blob in b.leaves]


def test_ref_clock_scales_by_the_sampled_speed(monkeypatch):
    # Samples at half the reference speed: reference time is half host time.
    slow = 2 * refclock.REFERENCE_LOOP_S
    monkeypatch.setattr(refclock, "_loop_s", lambda: slow)
    with refclock.RefClock() as clock:
        time.sleep(0.12)  # long enough for timer samples
        host, ref = clock.lap()
    assert host >= 0.1
    assert ref == pytest.approx(host / 2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with refclock.HostClock() as clock:
        assert clock.lap()[1] == 0.0


def test_tracer_restores_every_entry_point():
    import repro.serve.store as store
    from repro.machine.hierarchy import MemoryHierarchy

    before = (MemoryHierarchy.__dict__["access"], store.reduction_tree_merge)
    with tr.LayerTracer().installed():
        assert MemoryHierarchy.__dict__["access"] is not before[0]
        assert store.reduction_tree_merge is not before[1]
    assert (MemoryHierarchy.__dict__["access"], store.reduction_tree_merge) == before


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        run.PER_LAYER
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
