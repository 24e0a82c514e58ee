"""The columnar access_run engine vs the scalar oracle.

``repro.machine.vector`` vectorizes ``MemoryHierarchy.access_run`` by
proving, per fixed-stride segment, that every probed line/page is either
all-miss (cold sweep) or all-hit (hot sweep) and applying closed forms;
anything it cannot prove falls back to the python batched path (a scalar
probe for a single-line remainder, an ordered gather for any other).
The scalar ``access`` loop is the differential oracle; this suite forces
vectorization of short runs and drives randomized and adversarial
workloads through both, asserting
bit-identical final ``MachineStats``, total cycles, per-access records,
prefetch-stream state and LRU orders.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tiny_machine
from repro.machine.presets import Machine, amd_magnycours_spec
from repro.machine.vector import VECTOR_MIN_RUN
from tests.test_machine_bulk_access import (
    batched_replay,
    force_vector,
    hierarchy_state,
    python_path,
    scalar_replay,
)

PAGE = 4096


def _twins(prefetch=True):
    """A scalar-oracle machine and one that vectorizes every strided run."""
    a = tiny_machine(prefetch=prefetch).hierarchy
    b = force_vector(tiny_machine(prefetch=prefetch).hierarchy)
    return a, b


def assert_vector_matches_scalar(runs, prefetch=True):
    a, b = _twins(prefetch)
    stream_a = scalar_replay(a, runs)
    stream_b = batched_replay(b, runs)
    assert stream_a == stream_b
    assert hierarchy_state(a) == hierarchy_state(b)
    assert a.stats() == b.stats()


# ---------------------------------------------------------------------------
# randomized run generator: mixed strides, page-straddling bases,
# load/store mixes, region reuse (hot regime), prefetch on/off


@st.composite
def run_program(draw):
    """A list of runs with deliberate region reuse and nasty bases."""
    # A few shared regions: re-sweeping one that is still resident is
    # what drives the engine's hot (all-hit) regime.
    regions = draw(
        st.lists(
            st.integers(min_value=-PAGE, max_value=1 << 18),
            min_size=1, max_size=3,
        )
    )
    n_runs = draw(st.integers(min_value=1, max_value=6))
    runs = []
    for _ in range(n_runs):
        region = draw(st.sampled_from(regions))
        # Page-straddling offsets: land near boundaries on purpose.
        offset = draw(st.sampled_from([0, 1, 7, PAGE - 1, PAGE - 8, PAGE + 3]))
        stride = draw(
            st.sampled_from(
                [1, 3, 4, 8, 16, 64, 100, 256, 640, PAGE, PAGE + 8,
                 -1, -3, -8, -64, -100, -PAGE, -(PAGE + 8)]
            )
        )
        count = draw(st.integers(min_value=1, max_value=400))
        base = region + offset
        if stride < 0:
            base += count * -stride  # walk down through the region
        runs.append(
            (
                draw(st.integers(min_value=0, max_value=3)),  # hw_tid
                base,
                stride,
                count,
                draw(st.integers(min_value=0, max_value=1)),  # home
                draw(st.booleans()),                          # is_store
            )
        )
    return runs


class TestRandomizedDifferential:
    @settings(max_examples=80, deadline=None)
    @given(runs=run_program(), prefetch=st.booleans())
    def test_stats_and_cycles_bit_identical(self, runs, prefetch):
        a, b = _twins(prefetch)
        total_a = sum(
            sum(h[0] for h in scalar_replay(a, [run])) for run in runs
        )
        total_b = sum(b.access_run(*run[:5], run[5]) for run in runs)
        assert total_a == total_b
        assert a.stats() == b.stats()
        assert hierarchy_state(a) == hierarchy_state(b)

    @settings(max_examples=40, deadline=None)
    @given(runs=run_program())
    def test_records_bit_identical(self, runs):
        assert_vector_matches_scalar(runs)


# ---------------------------------------------------------------------------
# regime edge cases


class TestRegimeEdges:
    def test_hot_resweep_promotes_identically(self):
        # Second sweep of an L1-resident region: all hits, LRU promotion
        # order must match the scalar loop's per-access promotes.
        runs = [
            (0, 0x10000, 8, 64, 0, False),   # 8 lines: fits tiny L1
            (0, 0x10000, 8, 64, 0, False),   # hot resweep
            (0, 0x10000, 8, 64, 0, True),    # hot store resweep
        ]
        assert_vector_matches_scalar(runs)

    def test_prefetch_chain_collision_truncates(self):
        # A unit-line sweep seeds a stream at expected-next-miss; a second
        # sweep whose probed range contains that stream value must split
        # where the prefetch hit lands.
        runs = [
            (0, 0x40000, 64, 10, 0, False),          # seeds stream at +10 lines
            (0, 0x40000 + 64 * 5, 64, 20, 0, False),  # collides mid-run
        ]
        assert_vector_matches_scalar(runs)

    def test_descending_page_crossing_tlb(self):
        # dq = -1: page transitions walk downward; TLB install order and
        # walk charges must match.
        runs = [(0, 6 * PAGE + 11, -8, 5 * PAGE // 8, 0, False)]
        assert_vector_matches_scalar(runs)

    def test_page_multiple_stride(self):
        # stride % page == 0: every access is a page transition.
        runs = [
            (0, 0x100000, PAGE, 120, 0, False),
            (0, 0x100000 + 64, 2 * PAGE, 60, 0, True),
            (0, 0x100000 + 120 * PAGE, -PAGE, 120, 0, False),
        ]
        assert_vector_matches_scalar(runs)

    def test_l2_resident_falls_back_correctly(self):
        # Sweep a region larger than L1 but L2-resident, then resweep:
        # the resweep is neither all-L1-hit nor cold, so the engine must
        # delegate to the python loop — and still match the oracle.
        lines = 12  # > tiny L1 capacity (8 lines), <= L2 (16)
        runs = [
            (0, 0x20000, 64, lines, 0, False),
            (0, 0x20000, 64, lines, 0, False),
        ]
        assert_vector_matches_scalar(runs)

    def test_subline_strides_share_line_lookups(self):
        # Sub-line strides repeat each line several times: repeat credits
        # and the first-probe-per-line structure must agree.
        runs = [
            (0, PAGE - 9, 3, 500, 0, False),   # straddles the page start
            (1, -7, 5, 300, 1, True),          # begins on page -1
        ]
        assert_vector_matches_scalar(runs)

    def test_interleaved_threads_share_l3(self):
        # Different cores' sweeps through one shared region: the second
        # core's L1 is cold but L3 is warm — a mixed regime per core.
        runs = [
            (0, 0x80000, 64, 100, 0, False),
            (2, 0x80000, 64, 100, 0, False),
            (0, 0x80000, 64, 100, 0, False),
        ]
        assert_vector_matches_scalar(runs)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_magnycours_preset_parity(self, prefetch):
        # The bench machine, mid-size workload, both prefetch settings.
        spec = replace(amd_magnycours_spec(), prefetch=prefetch)
        a = Machine(spec).hierarchy
        b = force_vector(Machine(spec).hierarchy)
        runs = [
            (0, 1 << 30, 8, 3000, 0, False),
            (1, (1 << 30) + 64, 64, 1500, 1, True),
            (0, 1 << 30, 8, 3000, 0, False),
            (3, (1 << 30) + 9 * PAGE, -8, 2000, 0, False),
        ]
        stream_a = scalar_replay(a, runs)
        stream_b = batched_replay(b, runs)
        assert stream_a == stream_b
        assert a.stats() == b.stats()


# ---------------------------------------------------------------------------
# engine dispatch: the run-length threshold picks vector or python


def _counting_vector_run(h):
    """Record the length of every run ``h`` hands to the vector engine."""
    vector_run = h._vector_run
    counts: list[int] = []

    def counting(hier, hw_tid, base, stride, count, *rest):
        counts.append(count)
        return vector_run(hier, hw_tid, base, stride, count, *rest)

    h._vector_run = counting
    return counts


class TestEngineKnob:
    def test_python_engine_never_vectorizes(self):
        # The python-path seam (the throughput bench's batched row) keeps
        # even long strided runs off the vector engine.
        h = python_path(tiny_machine().hierarchy)
        counts = _counting_vector_run(h)
        h.access_run(0, 0x5000, 8, 4 * VECTOR_MIN_RUN, 0)
        h.access_run(1, 0x40000, 64, 2 * VECTOR_MIN_RUN, 1, True)
        assert counts == []

    def test_auto_gates_on_run_length(self):
        # Unforced, only strided runs of VECTOR_MIN_RUN or more accesses
        # reach the vector engine; shorter runs and stride 0 take the
        # python path.
        h = tiny_machine().hierarchy
        assert h._vector_min == VECTOR_MIN_RUN
        assert force_vector(tiny_machine().hierarchy)._vector_min < VECTOR_MIN_RUN
        counts = _counting_vector_run(h)
        h.access_run(0, 0x5000, 8, VECTOR_MIN_RUN - 1, 0)
        h.access_run(0, 0x9000, 0, VECTOR_MIN_RUN, 0)
        h.access_run(0, 0x20000, 8, VECTOR_MIN_RUN, 0)
        assert counts == [VECTOR_MIN_RUN]

    def test_results_identical_across_knob_values(self):
        runs = [
            (0, 0x5000, 8, 600, 0, False),
            (1, 0x5000, 8, 600, 1, True),
            (0, 0x9000 + 5, 3, 50, 0, False),  # below the default threshold
        ]
        states = []
        for seam in (python_path, lambda h: h, force_vector):
            h = seam(tiny_machine().hierarchy)
            total = sum(h.access_run(*run[:5], run[5]) for run in runs)
            states.append((total, hierarchy_state(h)))
        oracle = tiny_machine().hierarchy
        total = sum(
            oracle.access(hw_tid, base + i * stride, home, is_store)[0]
            for hw_tid, base, stride, count, home, is_store in runs
            for i in range(count)
        )
        states.append((total, hierarchy_state(oracle)))
        assert states[0] == states[1] == states[2] == states[3]
