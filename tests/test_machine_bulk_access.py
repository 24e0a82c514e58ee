"""Differential harness: the batched access path vs. the scalar path.

``MemoryHierarchy.access_run`` / ``Ctx.load_run`` / ``Ctx.store_run``
claim *bit-identical* results to the equivalent sequence of scalar
``access`` / ``load_ip`` / ``store_ip`` calls: same per-access
``(latency, level, tlb_miss)`` stream, same final level counts and
hit/miss counters, same contention charges, same PMU sample streams.
These tests run both paths on twin machines/processes built identically
and compare everything observable.
"""

from __future__ import annotations

import math
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Ctx, DataCentricProfiler, SimProcess, tiny_machine
from repro.errors import SimulationError
from repro.util.rng import DeterministicRNG
from repro.machine.hierarchy import LVL_RMEM, MemoryHierarchy
from repro.machine.policies import Interleave
from repro.pmu.ebs import EBSEngine
from repro.pmu.events import PM_MRK_DATA_FROM_RMEM, PM_MRK_DTLB_MISS
from repro.pmu.ibs import IBSEngine
from repro.pmu.marked import MarkedEventEngine
from repro.pmu.pebs import PEBSEngine
from tests.conftest import MiniProgram

# ---------------------------------------------------------------------------
# state comparison


def hierarchy_state(h: MemoryHierarchy) -> dict:
    """Everything observable about a hierarchy's accumulated state."""
    return {
        "level_counts": list(h.level_counts),
        "loads": h.load_count,
        "stores": h.store_count,
        "prefetch_hits": h.prefetch_hits,
        "tlb": [(t.hits, t.misses) for t in h.tlb],
        "l1": [(c.hits, c.misses, c.resident_lines()) for c in h.l1],
        "l2": [(c.hits, c.misses, c.resident_lines()) for c in h.l2],
        "l3": [(c.hits, c.misses, c.resident_lines()) for c in h.l3],
        "streams": [list(s) for s in h._streams],
        "stream_rr": list(h._stream_rr),
        "dram": list(h.memmgr.dram_accesses),
        "remote_dram": list(h.memmgr.remote_dram_accesses),
        "queue_cycles": h.contention.total_queue_cycles,
        "window_counts": [h.contention.window_load(n) for n in range(h.contention.n_nodes)],
        "stats": h.stats(),
    }


def scalar_replay(h: MemoryHierarchy, runs) -> list:
    """Drive each run through the scalar path; return the result stream."""
    out = []
    for hw_tid, base, stride, count, home, is_store in runs:
        vaddr = base
        for _ in range(count):
            out.append(h.access(hw_tid, vaddr, home, is_store))
            vaddr += stride
    return out


def python_path(h: MemoryHierarchy) -> MemoryHierarchy:
    """Keep every run on the python batched path, however long."""
    h._vector_min = math.inf
    return h


def force_vector(h: MemoryHierarchy) -> MemoryHierarchy:
    """Hand every strided run of two or more accesses to the vector engine."""
    h._vector_min = 2
    return h


BATCHED_PATHS = {"python": python_path, "vector": force_vector}


def batched_replay(h: MemoryHierarchy, runs) -> list:
    out: list = []
    for hw_tid, base, stride, count, home, is_store in runs:
        h.access_run(hw_tid, base, stride, count, home, is_store, record=out)
    return out


def assert_equivalent(runs, prefetch: bool) -> None:
    a = tiny_machine(prefetch=prefetch).hierarchy
    stream_a = scalar_replay(a, runs)
    state_a = hierarchy_state(a)
    total = sum(lat for lat, _, _ in stream_a)
    # Both access_run paths must match the scalar oracle: the python
    # batched path (scalar probe or gather), kept even for long runs, and
    # the vector engine, forced even for short ones.
    for path, select in BATCHED_PATHS.items():
        b = select(tiny_machine(prefetch=prefetch).hierarchy)
        stream_b = batched_replay(b, runs)
        assert stream_a == stream_b, path
        assert state_a == hierarchy_state(b), path
        # access_run's return value is the run-total latency.
        c = select(tiny_machine(prefetch=prefetch).hierarchy)
        assert sum(c.access_run(*run[:5], run[5]) for run in runs) == total, path


# ---------------------------------------------------------------------------
# hierarchy-level equivalence

run_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),                    # hw_tid (tiny: 4)
    st.integers(min_value=-5000, max_value=1 << 20),          # base (incl. page -1)
    st.sampled_from([0, 1, 3, 4, 8, 16, 64, 100, 256, 4096, 4104,
                     -1, -3, -8, -64, -100, -4096, -4104]),
    st.integers(min_value=0, max_value=200),                  # count
    st.integers(min_value=0, max_value=1),                    # home node
    st.booleans(),                                            # is_store
)


class TestHierarchyDifferential:
    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(run_strategy, min_size=1, max_size=8), prefetch=st.booleans())
    def test_random_runs_bit_identical(self, runs, prefetch):
        assert_equivalent(runs, prefetch)

    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("stride", [1, 8, 64, 72, 1024, 4096, 4100, -8, -4096])
    def test_strides_crossing_pages(self, stride, prefetch):
        # 600 accesses at |stride| up to a page: crosses many pages and
        # wraps cache sets several times.
        base = 1 << 21 if stride > 0 else (1 << 21) + 600 * -stride
        assert_equivalent([(0, base, stride, 600, 0, False)], prefetch)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_load_store_mix_remote_home(self, prefetch):
        runs = [
            (0, 0x40000, 8, 300, 1, False),   # remote home for hw_tid 0
            (1, 0x40000, 8, 300, 0, True),
            (2, 0x80000, 64, 150, 1, True),
            (0, 0x40000, 16, 150, 1, False),  # partial reuse of warm lines
        ]
        assert_equivalent(runs, prefetch)

    def test_same_line_short_circuit_heavy(self):
        # stride 0 and sub-line strides maximize the repeat fast path.
        runs = [
            (0, 0x12345, 0, 400, 0, False),
            (0, 0x12345, 4, 400, 0, True),
            (1, 0x54321, 1, 300, 1, False),
        ]
        assert_equivalent(runs, True)

    def test_interleaved_with_scalar_calls(self):
        # Mixing scalar and batched calls on the same hierarchy keeps the
        # combined state identical to all-scalar.
        a = tiny_machine().hierarchy
        b = tiny_machine().hierarchy
        rng = DeterministicRNG(7)
        ops = []
        for _ in range(50):
            ops.append(
                (
                    rng.randint(0, 3),
                    rng.randint(0, (1 << 20) - 1),
                    (8, 64, 4096)[rng.randint(0, 2)],
                    rng.randint(1, 39),
                    rng.randint(0, 1),
                    rng.random() < 0.3,
                )
            )
        stream_a = scalar_replay(a, ops)
        stream_b: list = []
        for i, (hw_tid, base, stride, count, home, is_store) in enumerate(ops):
            if i % 2:
                b.access_run(hw_tid, base, stride, count, home, is_store, record=stream_b)
            else:
                vaddr = base
                for _ in range(count):
                    stream_b.append(b.access(hw_tid, vaddr, home, is_store))
                    vaddr += stride
        assert stream_a == stream_b
        assert hierarchy_state(a) == hierarchy_state(b)

    def test_contention_windows_rotate_identically(self):
        # With window rotation interleaved between runs, queue charges in
        # later windows depend on earlier traffic — still identical.
        a = tiny_machine().hierarchy
        b = tiny_machine().hierarchy
        runs = [(t, 0x100000 + t * 0x40000, 64, 200, 0, False) for t in range(4)]
        stream_a: list = []
        stream_b: list = []
        for run in runs:
            hw_tid, base, stride, count, home, is_store = run
            vaddr = base
            for _ in range(count):
                stream_a.append(a.access(hw_tid, vaddr, home, is_store))
                vaddr += stride
            a.new_window()
        for run in runs:
            b.access_run(*run[:5], run[5], record=stream_b)
            b.new_window()
        assert stream_a == stream_b
        assert hierarchy_state(a) == hierarchy_state(b)

    def test_zero_count_is_noop(self):
        h = tiny_machine().hierarchy
        before = hierarchy_state(h)
        assert h.access_run(0, 0x1000, 8, 0, 0) == 0
        assert hierarchy_state(h) == before


class TestDegenerateStrides:
    """Degenerate run shapes against the scalar oracle.

    An earlier batched loop used ``cur_page = -1`` as its "no page yet"
    sentinel, so a run whose *first* access really lives on page -1
    (base in [-page_size, -1]) skipped the initial TLB lookup and probed
    the wrong line-residency state.  The python batched path now probes
    a single-line run through ``access`` and gathers any other, with no
    sentinel; these tests keep page -1 honest on both batched paths,
    alongside stride 0, negative strides and backwards page re-crossing.
    """

    @pytest.mark.parametrize("base", [-4096, -2048, -64, -1])
    @pytest.mark.parametrize("stride", [0, 1, 8])
    def test_first_access_on_page_minus_one(self, base, stride):
        # Page -1 is a real page: its first touch must miss the TLB and
        # install, exactly as the scalar loop does.
        assert_equivalent([(0, base, stride, 40, 0, False)], True)

    @pytest.mark.parametrize("stride", [-1, -3, -8, -64, -100, -4096, -4104])
    def test_negative_strides_cross_pages_backwards(self, stride):
        # Walk downward across several page boundaries, ending below 0.
        assert_equivalent([(0, 2 * 4096 + 17, stride, 150, 0, False)], True)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_backwards_page_recrossing(self, prefetch):
        # Forward over a page boundary, then back over the same boundary:
        # the repeat-skip must re-probe the TLB on each re-crossing, and
        # the prefetch streams seeded by the forward pass must interact
        # with the backward pass identically on both paths.
        runs = [
            (0, 4096 - 8 * 10, 8, 30, 0, False),    # cross page 0 -> 1
            (0, 4096 + 8 * 19, -8, 30, 0, False),   # re-cross 1 -> 0
            (0, 4096 - 64 * 3, 64, 9, 0, True),     # cross again, line stride
            (0, 4096 + 64 * 5, -64, 9, 0, True),
        ]
        assert_equivalent(runs, prefetch)

    def test_stride_zero_repeats_one_address(self):
        # stride 0 is one line, one page: a single lookup then repeat
        # credits, even at a negative base.
        runs = [
            (0, 0x3456, 0, 100, 0, False),
            (1, -100, 0, 100, 1, True),
            (0, 0x3456, 0, 50, 0, True),
        ]
        assert_equivalent(runs, True)


# ---------------------------------------------------------------------------
# Ctx-level equivalence (page chunking, first touch, PMU delivery)


class _SampleRecorder:
    """Hook capturing the full delivered sample stream."""

    def __init__(self):
        self.samples = []

    def on_module_load(self, process, module):
        pass

    def on_module_unload(self, process, module):
        pass

    def on_thread_create(self, process, thread):
        pass

    def on_alloc(self, process, thread, addr, nbytes, callsite_ip, kind, var=None):
        pass

    def on_free(self, process, thread, addr):
        pass

    def on_sample(self, process, thread, sample):
        self.samples.append(
            (
                thread.name,
                sample.interrupt_ip,
                sample.precise_ip,
                sample.ea,
                sample.latency,
                sample.level,
                sample.tlb_miss,
                sample.is_store,
                sample.is_memory,
            )
        )


def _twin(pmu_factory=None, interleave=False, path=None):
    prog = MiniProgram(machine=tiny_machine())
    if path is not None:
        BATCHED_PATHS[path](prog.machine.hierarchy)
    if interleave:
        nodes = list(range(prog.machine.n_numa_nodes))
        prog.process.aspace.set_default_policy(Interleave(nodes))
    rec = _SampleRecorder()
    prog.process.hooks.append(rec)
    if pmu_factory is not None:
        prog.process.pmu = pmu_factory()
    ctx = prog.master_ctx()
    return prog, ctx, rec


def _thread_state(prog: MiniProgram) -> tuple:
    t = prog.process.master
    return (t.clock, t.inst_count, t.mem_count, t.pmu_countdown)


def _compare_ctx(scalar_ops, bulk_ops, pmu_factory=None, interleave=False,
                 path=None):
    """Run two op scripts on twin processes and compare everything.

    The scalar script is the oracle (its accesses never take
    ``access_run``); the bulk script's runs take ``path`` (see
    ``BATCHED_PATHS``, default: by run length), so a "vector"
    parametrization checks the PMU sample stream is replayed
    byte-identically from the vectorized path's record.
    """
    pa, ca, ra = _twin(pmu_factory, interleave)
    pb, cb, rb = _twin(pmu_factory, interleave, path)
    scalar_ops(ca)
    bulk_ops(cb)
    assert ra.samples == rb.samples
    assert _thread_state(pa) == _thread_state(pb)
    assert hierarchy_state(pa.machine.hierarchy) == hierarchy_state(pb.machine.hierarchy)
    assert pa.process.aspace.pages_by_node(
        pa.machine.n_numa_nodes
    ) == pb.process.aspace.pages_by_node(pb.machine.n_numa_nodes)


PMU_FACTORIES = {
    "none": None,
    "ibs": lambda: IBSEngine(period=16, seed=11),
    "ebs": lambda: EBSEngine(period=16, skid=4, seed=12),
}


class TestCtxDifferential:
    @pytest.mark.parametrize("path", sorted(BATCHED_PATHS))
    @pytest.mark.parametrize("pmu", sorted(PMU_FACTORIES))
    @pytest.mark.parametrize("interleave", [False, True])
    def test_load_run_page_crossing(self, pmu, interleave, path):
        # 3000 unit-stride loads cross ~6 pages; under Interleave each
        # page has a different home node, exercising per-page chunking
        # (and the same-home merge when placement is first-touch).
        def scalar(ctx: Ctx):
            a = ctx.alloc_array("A", (3000,), line=20)
            ip = ctx.ip(10)
            for i in range(3000):
                ctx.load_ip(a.flat_addr(i), ip)

        def bulk(ctx: Ctx):
            a = ctx.alloc_array("A", (3000,), line=20)
            ctx.load_run(*a.flat_run(), ctx.ip(10))

        _compare_ctx(scalar, bulk, PMU_FACTORIES[pmu], interleave, path)

    @pytest.mark.parametrize("path", sorted(BATCHED_PATHS))
    @pytest.mark.parametrize("pmu", sorted(PMU_FACTORIES))
    def test_store_run_strided(self, pmu, path):
        def scalar(ctx: Ctx):
            a = ctx.alloc_array("A", (256, 64), line=20)
            ip = ctx.ip(10)
            base, count, stride = a.axis_run(0, 0, 3)
            for k in range(count):
                ctx.store_ip(base + k * stride, ip)

        def bulk(ctx: Ctx):
            a = ctx.alloc_array("A", (256, 64), line=20)
            ctx.store_run(*a.axis_run(0, 0, 3), ctx.ip(10))

        _compare_ctx(scalar, bulk, PMU_FACTORIES[pmu], path=path)

    @pytest.mark.parametrize("path", sorted(BATCHED_PATHS))
    def test_mixed_loads_stores_with_profiler(self, path):
        # Full stack: profiler attached, EBS skid, heap + static accesses.
        def body(ctx: Ctx, bulk: bool):
            a = ctx.alloc_array("A", (1200,), line=20, kind="calloc")
            g = ctx.static_array(ctx.process.modules[0].statics[0], (512,))
            ip = ctx.ip(10)
            if bulk:
                ctx.load_run(*a.flat_run(), ip)
                ctx.store_run(*g.flat_run(0, 512), ip)
                ctx.load_run(*a.flat_run(100, 800), ip)
            else:
                for i in range(1200):
                    ctx.load_ip(a.flat_addr(i), ip)
                for i in range(512):
                    ctx.store_ip(g.flat_addr(i), ip)
                for i in range(100, 900):
                    ctx.load_ip(a.flat_addr(i), ip)

        def run(bulk: bool):
            prog = MiniProgram(machine=tiny_machine())
            if bulk:
                BATCHED_PATHS[path](prog.machine.hierarchy)
            profiler = DataCentricProfiler(prog.process).attach()
            rec = _SampleRecorder()
            prog.process.hooks.append(rec)
            prog.process.pmu = EBSEngine(period=8, skid=3, seed=5)
            body(prog.master_ctx(), bulk)
            return rec.samples, _thread_state(prog), hierarchy_state(
                prog.machine.hierarchy
            ), profiler.stats.heap_samples, profiler.stats.static_samples

        assert run(False) == run(True)

    def test_stride_runs_delegate_to_bulk_path(self):
        # load_stride/store_stride keep their old scalar semantics.
        def scalar(ctx: Ctx):
            a = ctx.alloc_array("A", (2000,), line=20)
            ip = ctx.ip(10)
            for k in range(500):
                ctx.load_ip(a.base + k * 16, ip)
            for k in range(500):
                ctx.store_ip(a.base + k * 32, ip)

        def bulk(ctx: Ctx):
            a = ctx.alloc_array("A", (2000,), line=20)
            ip = ctx.ip(10)
            ctx.load_stride(a.base, 500, 16, ip)
            ctx.store_stride(a.base, 500, 32, ip)

        _compare_ctx(scalar, bulk, PMU_FACTORIES["ebs"])

    @pytest.mark.parametrize("nbytes", [1, 100, 4096, 4097, 50_000])
    def test_touch_range_matches_scalar_reference(self, nbytes):
        # touch_range now rides store_run; its store sequence must equal
        # the historical scalar loop (start, then each page boundary).
        def scalar(ctx: Ctx):
            addr = ctx.malloc(nbytes, 20)
            page = 1 << ctx.process.machine.spec.page_bits
            ip = ctx.ip(10)
            p = addr & ~(page - 1)
            end = addr + nbytes
            while p < end:
                ctx.store_ip(max(p, addr), ip)
                p += page

        def bulk(ctx: Ctx):
            addr = ctx.malloc(nbytes, 20)
            # touch_range computes the ip from a line; use line 10 to
            # match the reference loop's ip.
            ctx.touch_range(addr, nbytes, 10)

        _compare_ctx(scalar, bulk, PMU_FACTORIES["ebs"])

    def test_calloc_matches_scalar_reference(self):
        from repro.sim.runtime import CALLOC_LINE_COST

        def scalar(ctx: Ctx):
            addr = ctx.malloc(30_000, 20, kind="calloc")
            page = 1 << ctx.process.machine.spec.page_bits
            lines_per_page = page >> ctx.process.machine.hierarchy.line_bits
            ip = ctx.ip(20)
            p = addr & ~(page - 1)
            end = addr + 30_000
            while p < end:
                ctx.store_ip(max(p, addr), ip)
                ctx.thread.clock += (lines_per_page - 1) * CALLOC_LINE_COST
                p += page

        def bulk(ctx: Ctx):
            ctx.calloc(30_000, 20)

        _compare_ctx(scalar, bulk, PMU_FACTORIES["ebs"])

    def test_run_return_value_is_total_latency(self, mini):
        ctx = mini.master_ctx()
        a = ctx.alloc_array("A", (800,), line=20)
        before = ctx.thread.clock
        total = ctx.load_run(*a.flat_run(), ctx.ip(10))
        assert ctx.thread.clock - before == total
        assert total > 0

    def test_negative_count_is_noop(self, mini):
        ctx = mini.master_ctx()
        state = _thread_state(mini)
        assert ctx.load_run(0x5000, -3, 8, ctx.ip(10)) == 0
        assert ctx.store_run(0x5000, 0, 8, ctx.ip(10)) == 0
        assert _thread_state(mini) == state


# ---------------------------------------------------------------------------
# MachineStats / phase attribution parity (telemetry reads these snapshots)


class TestMachineStatsParity:
    """The batched path must leave every MachineStats field — including
    the per-phase attributed deltas that ``SimProcess.phase`` buckets and
    ``repro.obs`` exports as metrics — bit-identical to the scalar path."""

    def _run(self, bulk: bool):
        prog = MiniProgram()
        ctx = prog.master_ctx()
        with prog.process.phase("init"):
            a = ctx.alloc_array("A", (2048,), line=20)
            if bulk:
                ctx.store_run(*a.flat_run(), ctx.ip(10))
            else:
                ip = ctx.ip(10)
                for i in range(2048):
                    ctx.store_ip(a.flat_addr(i), ip)
        with prog.process.phase("solve"):
            if bulk:
                ctx.load_run(*a.flat_run(), ctx.ip(10))
                ctx.load_run(a.base, 512, 64, ctx.ip(10))
            else:
                ip = ctx.ip(10)
                for i in range(2048):
                    ctx.load_ip(a.flat_addr(i), ip)
                for k in range(512):
                    ctx.load_ip(a.base + k * 64, ip)
        return prog

    def test_snapshot_and_phase_stats_identical(self):
        scalar = self._run(bulk=False)
        batched = self._run(bulk=True)
        # Whole-run snapshot: every dataclass field, tuples included.
        assert (
            scalar.machine.hierarchy.stats() == batched.machine.hierarchy.stats()
        )
        assert (
            scalar.machine.hierarchy.stats().to_dict()
            == batched.machine.hierarchy.stats().to_dict()
        )
        # Per-phase attribution: same phases, same cycle and stats deltas.
        assert scalar.process.phase_cycles == batched.process.phase_cycles
        assert set(scalar.process.phase_stats) == {"init", "solve"}
        for name in scalar.process.phase_stats:
            assert (
                scalar.process.phase_stats[name]
                == batched.process.phase_stats[name]
            ), f"phase {name!r} stats diverge between scalar and batched paths"
        assert scalar.process.phase_access_rates() == pytest.approx(
            batched.process.phase_access_rates()
        )

    def test_phase_delta_sums_to_whole_run(self):
        prog = self._run(bulk=True)
        total = prog.machine.hierarchy.stats()
        summed = None
        for stats in prog.process.phase_stats.values():
            summed = stats if summed is None else summed + stats
        # Everything happened inside a phase, so the attributed deltas
        # must reconstruct the whole-run snapshot exactly.
        assert summed == total


# ---------------------------------------------------------------------------
# Ordered gather: MemoryHierarchy.access_gather / Ctx.access_gather vs the
# scalar oracle, on mixed load/store sequences with one IP per access.


def _gather_machine(prefetch: bool = True):
    # Four NUMA nodes over two sockets (0-, 1- and cross-socket hops) and
    # a non-zero write-allocate penalty, on the tiny cache geometry.
    from dataclasses import replace

    from repro.machine.latency import LatencyModel
    from repro.machine.presets import Machine, tiny_spec

    spec = tiny_spec(numa_per_socket=2, prefetch=prefetch)
    return Machine(replace(spec, latency=LatencyModel(store_extra=9)))


def full_state(h: MemoryHierarchy) -> dict:
    """:func:`hierarchy_state` plus every tag list and contention detail."""
    state = hierarchy_state(h)
    state["sets"] = {
        "l1": [list(map(list, c._sets)) for c in h.l1],
        "l2": [list(map(list, c._sets)) for c in h.l2],
        "l3": [list(map(list, c._sets)) for c in h.l3],
        "tlb": [list(map(list, t._cache._sets)) for t in h.tlb],
    }
    cont = h.contention
    state["contention"] = (
        list(cont._counts), sorted(cont._tids), list(cont._penalty),
        cont.windows, cont.total_queue_cycles,
    )
    state["pages_on_node"] = list(h.memmgr.pages_on_node)
    state["hop_counts"] = list(h.hop_counts)
    return state


def _random_gathers(seed: int, n_gathers: int, n_threads: int, n_nodes: int):
    """Gathers mixing same-line repeats, page crossings, a small hot set
    (LRU promotions) and scattered lines (evictions, DRAM)."""
    rng = DeterministicRNG(seed)
    hot = [rng.randint(0, 1 << 16) * 8 for _ in range(12)]
    gathers = []
    for _ in range(n_gathers):
        hw_tid = rng.randint(0, n_threads - 1)
        size = rng.randint(1, 14)
        vaddrs, homes, stores = [], [], []
        for _ in range(size):
            r = rng.random()
            if r < 0.25 and vaddrs:
                vaddr = vaddrs[-1] + rng.randint(0, 7) * 8   # same/next line
            elif r < 0.45 and vaddrs:
                vaddr = ((vaddrs[-1] >> 12) + 1 << 12) - 8 + rng.randint(0, 3) * 8
            elif r < 0.7:
                vaddr = hot[rng.randint(0, len(hot) - 1)]
            else:
                vaddr = rng.randint(0, 1 << 22)
            vaddrs.append(vaddr)
            homes.append(rng.randint(0, n_nodes - 1))
            stores.append(rng.random() < 0.35)
        gathers.append((hw_tid, vaddrs, homes, stores))
    return gathers


class TestGatherHierarchy:
    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_gathers_bit_identical(self, seed, prefetch):
        a = _gather_machine(prefetch).hierarchy
        b = _gather_machine(prefetch).hierarchy
        n_nodes = a.topology.n_numa_nodes
        stream_a: list = []
        stream_b: list = []
        totals = []
        for i, (hw_tid, vaddrs, homes, stores) in enumerate(
            _random_gathers(seed, 300, a.topology.n_threads, n_nodes)
        ):
            total = 0
            for vaddr, home, st in zip(vaddrs, homes, stores):
                result = a.access(hw_tid, vaddr, home, st)
                stream_a.append(result)
                total += result[0]
            totals.append(total)
            assert b.access_gather(hw_tid, vaddrs, homes, stores, stream_b) == total
            if i % 37 == 36:
                # Loaded contention windows charge queueing delays.
                a.new_window()
                b.new_window()
        assert stream_a == stream_b
        assert full_state(a) == full_state(b)
        # Remote DRAM at every hop distance and stores were exercised.
        assert a.level_counts[LVL_RMEM] and a.hop_counts[1] and a.hop_counts[2]
        assert a.store_count
        assert a.prefetch_hits or not prefetch
        # Without a record the totals are the same.
        c = _gather_machine(prefetch).hierarchy
        got = []
        for i, (hw_tid, vaddrs, homes, stores) in enumerate(
            _random_gathers(seed, 300, c.topology.n_threads, n_nodes)
        ):
            got.append(c.access_gather(hw_tid, vaddrs, homes, stores))
            if i % 37 == 36:
                c.new_window()
        assert got == totals
        assert full_state(c) == full_state(a)

    def test_same_line_and_page_repeats(self):
        a = _gather_machine().hierarchy
        b = _gather_machine().hierarchy
        vaddrs = [0x1000, 0x1000, 0x1008, 0x1040, 0x1000, 0x1FF8, 0x2000, 0x1FF8]
        stores = [False, True, True, False, True, False, True, False]
        homes = [0, 0, 0, 0, 0, 0, 3, 0]
        expected = [a.access(0, v, h, s) for v, h, s in zip(vaddrs, homes, stores)]
        got: list = []
        b.access_gather(0, vaddrs, homes, stores, got)
        assert got == expected
        assert full_state(a) == full_state(b)

    def test_empty_gather_is_noop(self):
        h = _gather_machine().hierarchy
        before = full_state(h)
        assert h.access_gather(0, [], [], []) == 0
        assert full_state(h) == before

    @pytest.mark.parametrize("short", ["homes", "stores"])
    def test_short_homes_or_stores_rejected(self, short):
        # Called directly, a short homes/stores sequence used to be
        # zipped away: one access simulated, three loads credited.
        h = tiny_machine().hierarchy
        before = full_state(h)
        vaddrs = [0x1000, 0x2000, 0x3000]
        with pytest.raises(SimulationError, match="3 addresses"):
            if short == "homes":
                h.access_gather(0, vaddrs, [0], (False, False, False))
            else:
                h.access_gather(0, vaddrs, [0, 0, 0], (False,))
        assert full_state(h) == before
        # Unbounded iterators stay legal, and longer tails are ignored.
        h.access_gather(0, vaddrs, repeat(0), iter([False] * 3))
        h.access_gather(0, vaddrs, [0] * 4, (False,) * 4)
        assert h.load_count == 6

    def test_interleaved_with_runs_and_scalar_calls(self):
        a = _gather_machine().hierarchy
        b = _gather_machine().hierarchy
        stream_a: list = []
        stream_b: list = []
        for i, (hw_tid, vaddrs, homes, stores) in enumerate(
            _random_gathers(9, 120, a.topology.n_threads, a.topology.n_numa_nodes)
        ):
            for vaddr, home, st in zip(vaddrs, homes, stores):
                stream_a.append(a.access(hw_tid, vaddr, home, st))
            b.access_gather(hw_tid, vaddrs, homes, stores, stream_b)
            run = (hw_tid, vaddrs[0], 64, 20, homes[0], i % 3 == 0)
            stream_a.extend(scalar_replay(a, [run]))
            b.access_run(*run, record=stream_b)
        assert stream_a == stream_b
        assert full_state(a) == full_state(b)


def _gather_script(seed: int):
    """A Ctx op script: allocations, then gathers of loads and stores at
    distinct IPs over heap and static arrays, with compute between them.
    The arrays are allocated but not touched, so pages are first touched
    inside gathers, interleaved with already placed pages."""

    def script(ctx: Ctx, gather: bool) -> list:
        rng = DeterministicRNG(seed)
        a = ctx.alloc_array("A", (4096,), line=20)
        b = ctx.alloc_array("B", (2048,), line=20)
        g = ctx.static_array(ctx.process.modules[0].statics[0], (8192,))
        ips = [ctx.ip(10, slot) for slot in range(4)] + [ctx.ip(30)]
        totals = []
        for _ in range(160):
            vaddrs, gips, stores = [], [], []
            for _ in range(rng.randint(1, 12)):
                arr = (a, b, g)[rng.randint(0, 2)]
                k = rng.randint(0, arr.size - 1)
                if vaddrs and rng.random() < 0.3:
                    vaddrs.append(vaddrs[-1])   # repeat the same element
                else:
                    vaddrs.append(arr.flat_addr(k))
                gips.append(ips[rng.randint(0, len(ips) - 1)])
                stores.append(rng.random() < 0.4)
            if gather:
                totals.append(ctx.access_gather(vaddrs, gips, stores))
            else:
                total = 0
                for vaddr, ip, st in zip(vaddrs, gips, stores):
                    total += ctx.store_ip(vaddr, ip) if st else ctx.load_ip(vaddr, ip)
                totals.append(total)
            ctx.compute(rng.randint(0, 9))
        return totals

    return script


GATHER_PMUS = {
    "none": None,
    "ibs": lambda: IBSEngine(period=16, seed=11),
    "ibs_long": lambda: IBSEngine(period=400, seed=13),
    "ebs": lambda: EBSEngine(period=16, skid=4, seed=12),
    "pebs": lambda: PEBSEngine(period=8, latency_threshold=20, seed=3,
                               sample_stores=True),
    "marked_rmem": lambda: MarkedEventEngine(PM_MRK_DATA_FROM_RMEM, period=4, seed=5),
    "marked_rmem_long": lambda: MarkedEventEngine(
        PM_MRK_DATA_FROM_RMEM, period=200, seed=6),
    "marked_tlb": lambda: MarkedEventEngine(PM_MRK_DTLB_MISS, period=3, seed=7),
}


def _gather_twin(pmu_factory, interleave: bool):
    prog = MiniProgram(machine=_gather_machine())
    if interleave:
        nodes = list(range(prog.machine.n_numa_nodes))
        prog.process.aspace.set_default_policy(Interleave(nodes))
    profiler = DataCentricProfiler(prog.process).attach()
    rec = _SampleRecorder()
    prog.process.hooks.append(rec)
    if pmu_factory is not None:
        prog.process.pmu = pmu_factory()
    return prog, profiler, rec


def _engine_state(pmu) -> tuple:
    if pmu is None:
        return ()
    return (
        pmu.samples_taken,
        getattr(pmu, "events_counted", None),
        getattr(pmu, "mem_samples", None),
        pmu.rng.random(),   # the RNG advanced identically
    )


class TestGatherCtx:
    @pytest.mark.parametrize("interleave", [False, True])
    @pytest.mark.parametrize("pmu", sorted(GATHER_PMUS))
    @pytest.mark.parametrize("seed", [21, 22])
    def test_gather_matches_scalar_calls(self, pmu, interleave, seed):
        script = _gather_script(seed)
        runs = []
        for gather in (False, True):
            prog, profiler, rec = _gather_twin(GATHER_PMUS[pmu], interleave)
            ctx = prog.master_ctx()
            totals = script(ctx, gather)
            h = prog.machine.hierarchy
            runs.append((
                totals,
                rec.samples,
                _thread_state(prog),
                full_state(h),
                prog.process.aspace.pages_by_node(prog.machine.n_numa_nodes),
                _engine_state(prog.process.pmu),
                (profiler.stats.samples, profiler.stats.heap_samples,
                 profiler.stats.static_samples, profiler.stats.unknown_samples),
            ))
        assert runs[0] == runs[1]
        if interleave:
            assert runs[0][3]["level_counts"][LVL_RMEM] > 0   # remote DRAM reached
        if pmu != "none" and (interleave or not pmu.startswith("marked_rmem")):
            # (Under first touch the master's pages are all local: no
            # remote-memory event to count.)
            assert runs[0][1], "the engine delivered no samples"

    @pytest.mark.parametrize("short", ["ips", "stores"])
    def test_short_ips_or_stores_rejected(self, short):
        # A short ips/stores sequence used to be zipped away silently:
        # fewer accesses simulated than the counters were credited for.
        prog, _, _ = _gather_twin(GATHER_PMUS["ibs"], False)
        ctx = prog.master_ctx()
        a = ctx.alloc_array("A", (4096,), line=20)
        vaddrs = [a.flat_addr(k) for k in (0, 512, 1024)]
        ips = [ctx.ip(10)] * 3
        stores = [False] * 3
        h = prog.machine.hierarchy
        before = (full_state(h), _thread_state(prog))
        with pytest.raises(SimulationError):
            if short == "ips":
                ctx.access_gather(vaddrs, ips[:2], stores)
            else:
                ctx.access_gather(vaddrs, ips, (False,))
        assert (full_state(h), _thread_state(prog)) == before
        # Longer tails stay legal and are ignored.
        ctx.access_gather(vaddrs, ips + ips, stores + [True])
        state = before[0]
        assert (h.load_count, h.store_count) == (state["loads"] + 3, state["stores"])
        assert sum(h.level_counts) == sum(state["level_counts"]) + 3

    def test_worker_threads_gather_remote(self):
        # Workers on other NUMA nodes gather from pages the master placed
        # by first touch: remote DRAM from every hop distance.
        def body(prog, gather: bool):
            process = prog.process
            master = prog.master_ctx()
            arr = master.alloc_array("A", (8192,), line=20)
            master.touch_range(arr.base, arr.nbytes, line=20)
            ip_l = master.ip(10)
            ip_s = master.ip(10, 1)
            threads = [process.master]
            for t in range(1, process.machine.n_threads):
                thread = process.omp_thread(t)
                threads.append(thread)
                ctx = Ctx(process, thread)
                ctx.enter(prog.work)
                for row in range(40):
                    vaddrs = [arr.flat_addr((row * 97 + k * 515) % arr.size)
                              for k in range(6)]
                    stores = [k % 3 == 2 for k in range(6)]
                    ips = [ip_s if st else ip_l for st in stores]
                    if gather:
                        ctx.access_gather(vaddrs, ips, stores)
                    else:
                        for vaddr, ip, st in zip(vaddrs, ips, stores):
                            (ctx.store_ip if st else ctx.load_ip)(vaddr, ip)
                    ctx.compute(5)
                ctx.leave()
            return [
                (th.clock, th.inst_count, th.mem_count, th.pmu_countdown)
                for th in threads
            ]

        results = []
        for gather in (False, True):
            prog, _, rec = _gather_twin(GATHER_PMUS["ibs"], False)
            threads = body(prog, gather)
            results.append((threads, rec.samples, full_state(prog.machine.hierarchy)))
        assert results[0] == results[1]
        assert results[0][2]["hop_counts"][1] and results[0][2]["hop_counts"][2]


class TestGatherSessions:
    """A sanitizer session takes the scalar fallback."""

    @staticmethod
    def _forbid_hierarchy_gather(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sanitized gathers must take the scalar calls")

        monkeypatch.setattr(MemoryHierarchy, "access_gather", forbidden)

    def test_sanitizer_session_findings_identical(self, monkeypatch):
        from repro.sanitize import sanitizing

        def run(gather: bool):
            with sanitizing() as session:
                prog = MiniProgram(machine=_gather_machine())
                prog.process.pmu = IBSEngine(period=16, seed=11)
                ctx = prog.master_ctx()
                buf = ctx.malloc(256, line=20, var="buf")
                ip = ctx.ip(10)
                # In bounds, then past the end (a load and a store), then
                # a use after free.
                vaddrs = [buf, buf + 248, buf + 256, buf + 300]
                stores = [True, False, False, True]
                if gather:
                    ctx.access_gather(vaddrs, [ip] * len(vaddrs), stores)
                else:
                    for vaddr, st in zip(vaddrs, stores):
                        (ctx.store_ip if st else ctx.load_ip)(vaddr, ip)
                ctx.free(buf, line=20)
                if gather:
                    ctx.access_gather([buf + 8], [ip], [False])
                else:
                    ctx.load_ip(buf + 8, ip)
                report = session.report()
            return (
                [(f.kind, f.variable.name, f.address, f.count)
                 for f in report.findings],
                report.stats,
                _thread_state(prog),
                full_state(prog.machine.hierarchy),
            )

        scalar = run(False)
        self._forbid_hierarchy_gather(monkeypatch)
        gathered = run(True)
        assert scalar == gathered
        kinds = {kind for kind, *_ in scalar[0]}
        assert {"oob-read", "oob-write", "use-after-free"} <= kinds, kinds
