"""The memory hierarchy: the simulator's hot path.

``MemoryHierarchy.access`` is called for every simulated load/store.  It
models, in order: address translation (per-core TLB), the per-core L1 and
L2, the per-socket shared L3, and finally DRAM on the page's home NUMA
node — local or remote across the interconnect, with bandwidth queueing
at the home controller.

``MemoryHierarchy.access_run`` is the batched fast path: a whole
contiguous/strided run of addresses in one call.  It is state- and
result-identical to the equivalent sequence of ``access`` calls (the
differential harness in ``tests/test_machine_bulk_access.py`` enforces
bit-identical level counts, latencies, contention charges and PMU sample
streams).  Long strided runs go to the columnar vector engine
(:mod:`repro.machine.vector`).  Everything else takes one python path:
a run on a single cache line is one scalar probe plus arithmetic credits
for its repeat L1/TLB hits, and any other run is an ordered gather.

``MemoryHierarchy.access_gather`` is the ordered gather: a short mixed
sequence of loads and stores at arbitrary addresses (indirect walks,
per-iteration groups over several arrays) in one call, held to the same
bit-identity contract against ``access``.

A per-core stream prefetcher hides DRAM *latency* (not controller
traffic) for unit-stride misses: sequential streams are served at near-L3
latency while strided/indirect patterns pay full memory latency.  This is
the mechanism behind the Sweep3D/LULESH layout-transposition wins.

Store cost model: ``LatencyModel.store_extra`` (the write-allocate
penalty) is charged to every store that *misses L1* — whether the line is
then served by L2, L3 or DRAM — because any L1 store miss triggers a line
allocation.  L1 store hits write into the already-present line and pay
nothing extra.  (Historically only DRAM-serviced stores paid it; the
asymmetry was a bug — L2/L3-serviced stores allocate into L1 exactly the
same way.  Pinned by ``tests/test_machine_hierarchy.py::TestStoreExtra``.)

Performance notes (per the hpc-parallel guide): no per-access object
allocation — results are plain tuples, topology lookups are preflattened
lists, and the caches use list-based LRU.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

from repro.errors import ConfigError, SimulationError
from repro.machine.cache import SetAssocCache
from repro.machine.contention import ControllerContention
from repro.machine.latency import LatencyModel
from repro.machine.memory import MemoryManager
from repro.machine.stats import MachineStats
from repro.machine.tlb import TLB
from repro.machine.topology import Topology

__all__ = [
    "MemoryHierarchy",
    "AccessResult",
    "MachineStats",
    "LVL_L1",
    "LVL_L2",
    "LVL_L3",
    "LVL_LMEM",
    "LVL_RMEM",
    "LEVEL_NAMES",
]

# Data-source levels, matching the paper's event vocabulary:
# L1/L2/L3 cache hits, local memory, remote memory.
LVL_L1 = 0
LVL_L2 = 1
LVL_L3 = 2
LVL_LMEM = 3
LVL_RMEM = 4
LEVEL_NAMES = ("L1", "L2", "L3", "LMEM", "RMEM")

_STREAMS_PER_CORE = 4


@dataclass(frozen=True)
class AccessResult:
    """Rich result for one access (built on demand, e.g. for PMU samples)."""

    latency: int
    level: int
    tlb_miss: bool
    home_node: int
    remote: bool

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]


class MemoryHierarchy:
    """Caches + TLBs + NUMA DRAM for one machine."""

    def __init__(
        self,
        topology: Topology,
        latency: LatencyModel,
        *,
        line_bits: int = 6,
        page_bits: int = 12,
        l1_sets: int = 16,
        l1_assoc: int = 4,
        l2_sets: int = 64,
        l2_assoc: int = 8,
        l3_sets: int = 256,
        l3_assoc: int = 8,
        tlb_sets: int = 8,
        tlb_assoc: int = 4,
        contention: ControllerContention | None = None,
        prefetch: bool = True,
    ) -> None:
        if page_bits <= line_bits:
            raise ConfigError("pages must be larger than cache lines")
        self.topology = topology
        self.latency = latency
        self.line_bits = line_bits
        self.page_bits = page_bits
        self.prefetch_enabled = prefetch
        self.memmgr = MemoryManager(topology.n_numa_nodes)
        self.contention = contention or ControllerContention(topology.n_numa_nodes)

        n_cores = topology.n_cores
        n_sockets = topology.sockets
        self.l1 = [SetAssocCache(f"L1.c{c}", l1_sets, l1_assoc) for c in range(n_cores)]
        self.l2 = [SetAssocCache(f"L2.c{c}", l2_sets, l2_assoc) for c in range(n_cores)]
        self.l3 = [SetAssocCache(f"L3.s{s}", l3_sets, l3_assoc) for s in range(n_sockets)]
        self.tlb = [TLB(tlb_sets, tlb_assoc) for _ in range(n_cores)]
        # Per-core stream-prefetcher state: expected next miss line per stream.
        self._streams: list[list[int]] = [
            [-1] * _STREAMS_PER_CORE for _ in range(n_cores)
        ]
        self._stream_rr = [0] * n_cores

        # Flattened topology lookups for the hot path.
        self._core_of = [topology.core_of(t) for t in range(topology.n_threads)]
        self._socket_of = [topology.socket_of(t) for t in range(topology.n_threads)]
        self._numa_of = [topology.numa_of(t) for t in range(topology.n_threads)]

        self.level_counts = [0, 0, 0, 0, 0]
        # DRAM accesses by interconnect distance: [same-node, same-socket
        # cross-die, cross-socket].  hop_counts[0] == level_counts[LVL_LMEM]
        # and hop_counts[1] + hop_counts[2] == level_counts[LVL_RMEM];
        # derived metrics price remote DRAM from this observed distribution
        # instead of assuming a fixed 2-hop distance.
        self.hop_counts = [0, 0, 0]
        self.load_count = 0
        self.store_count = 0
        self.prefetch_hits = 0

        # The vector engine takes strided runs long enough to amortize its
        # residency scan.  Imported here, not at module level, so that
        # code which never simulates (static audit, the serve store)
        # never imports numpy.  The differential tests lower _vector_min
        # to vectorize short runs, or raise it to keep long runs on the
        # python path.
        from repro.machine.vector import VECTOR_MIN_RUN, access_run_vector

        self._vector_run = access_run_vector
        self._vector_min = VECTOR_MIN_RUN

    # -- hot path ---------------------------------------------------------

    def access(
        self, hw_tid: int, vaddr: int, home_node: int, is_store: bool = False
    ) -> tuple[int, int, bool]:
        """Perform one memory access.

        Returns ``(latency_cycles, level, tlb_miss)`` as a plain tuple.
        ``home_node`` is the NUMA placement of the page containing
        ``vaddr`` (resolved by the process's address space at touch time).
        """
        lat = self.latency
        core = self._core_of[hw_tid]
        line = vaddr >> self.line_bits

        if is_store:
            self.store_count += 1
        else:
            self.load_count += 1

        cycles = 0
        if not self.tlb[core].access(vaddr >> self.page_bits):
            cycles += lat.tlb_walk
            tlb_miss = True
        else:
            tlb_miss = False

        if self.l1[core].access(line):
            self.level_counts[LVL_L1] += 1
            return (cycles + lat.l1, LVL_L1, tlb_miss)

        # L1 miss: consult the stream prefetcher before probing deeper.
        prefetched = False
        if self.prefetch_enabled:
            streams = self._streams[core]
            for i in range(_STREAMS_PER_CORE):
                if streams[i] == line:
                    prefetched = True
                    streams[i] = line + 1
                    break
            else:
                # Start/replace a stream at this miss.
                rr = self._stream_rr[core]
                streams[rr] = line + 1
                self._stream_rr[core] = (rr + 1) % _STREAMS_PER_CORE

        # From here on the access missed L1, so a store pays the
        # write-allocate penalty no matter which level services it.
        if is_store:
            cycles += lat.store_extra

        if self.l2[core].access(line):
            self.l1[core].install(line)
            self.level_counts[LVL_L2] += 1
            return (cycles + lat.l2, LVL_L2, tlb_miss)

        socket = self._socket_of[hw_tid]
        if self.l3[socket].access(line):
            self.l1[core].install(line)
            self.l2[core].install(line)
            self.level_counts[LVL_L3] += 1
            return (cycles + lat.l3, LVL_L3, tlb_miss)

        # DRAM access on the page's home node.
        my_node = self._numa_of[hw_tid]
        hops = self.topology.hops(my_node, home_node)
        remote = home_node != my_node
        queue = self.contention.dram_access(home_node, hw_tid)
        self.memmgr.note_dram_access(home_node, remote)
        if prefetched:
            # The prefetcher already brought the line most of the way in:
            # charge near-L3 latency but keep the queueing cost — prefetch
            # hides latency, not bandwidth.
            self.prefetch_hits += 1
            cycles += lat.l3 + queue
        else:
            cycles += lat.dram(hops) + queue
        self.l1[core].install(line)
        self.l2[core].install(line)
        self.l3[socket].install(line)
        level = LVL_RMEM if remote else LVL_LMEM
        self.level_counts[level] += 1
        self.hop_counts[hops] += 1
        return (cycles, level, tlb_miss)

    def access_run(
        self,
        hw_tid: int,
        base_vaddr: int,
        stride: int,
        count: int,
        home_node: int,
        is_store: bool = False,
        record: list | None = None,
    ) -> int:
        """Batched fast path: ``count`` accesses at ``base_vaddr + k*stride``.

        Equivalent — same final machine state, same per-access results —
        to ``count`` sequential :meth:`access` calls with the same
        arguments, but pays the Python dispatch cost once per *run*.

        All addresses in the run must live on the same home NUMA node;
        callers that can't guarantee that (pages may differ) split the run
        at page boundaries — :meth:`repro.sim.runtime.Ctx.load_run` does.

        Returns the total latency in cycles.  When ``record`` is a list,
        one ``(latency, level, tlb_miss)`` tuple is appended per access in
        order, letting callers replay the exact scalar event stream (PMU
        delivery).  Equivalence is enforced by the differential harness in
        ``tests/test_machine_bulk_access.py``.

        Two paths implement the contract: the python batched path
        (:meth:`_access_run_batched`: one scalar probe plus arithmetic
        repeat credits for a single-line run, an ordered gather for any
        other) and, for strided runs of at least ``VECTOR_MIN_RUN``
        accesses, the columnar vector engine (:mod:`repro.machine.vector`),
        which hands whatever it cannot prove cold or hot back to the
        python path.  Both are held to bit-identical results against the
        scalar oracle.
        """
        if count <= 0:
            return 0
        if stride and count >= self._vector_min:
            return self._vector_run(
                self, hw_tid, base_vaddr, stride, count, home_node, is_store, record
            )
        return self._access_run_batched(
            hw_tid, base_vaddr, stride, count, home_node, is_store, record
        )

    def access_gather(
        self,
        hw_tid: int,
        vaddrs: Sequence[int],
        homes: Iterable[int],
        stores: Iterable[bool],
        record: list | None = None,
    ) -> int:
        """Ordered gather: one call for a short mixed load/store sequence.

        Equivalent — same final machine state, same per-access results —
        to ``access(hw_tid, vaddrs[k], homes[k], stores[k])`` for each
        ``k`` in order.  This is the entry point for indirect walks and
        for loops that interleave several arrays per iteration, where no
        single strided run reproduces the access order.  The per-core
        caches, TLB, latencies and prefetch streams are hoisted into
        locals once per call, the LRU tag lists are probed and updated in
        place, and the level, hop, hit/miss, load/store and prefetch
        counters are flushed once at the end.  DRAM accesses pay the
        contention model's in-window delay and are registered with it in
        bulk per home node.

        ``homes[k]`` is the NUMA home of ``vaddrs[k]``'s page, as for
        :meth:`access`.  ``homes`` and ``stores`` may be any iterables
        (:meth:`access_run` passes ``itertools.repeat``) but must yield
        at least ``len(vaddrs)`` entries: the counters are flushed for
        ``len(vaddrs)`` accesses.  Entries past that are ignored (kernels
        pass one tuple for gathers with an optional tail).  One that has
        a length shorter than ``vaddrs`` raises :class:`SimulationError`;
        an iterator without a length is trusted.
        Returns the total latency in cycles; when
        ``record`` is a list, one ``(latency, level, tlb_miss)`` tuple is
        appended per access in order (PMU replay).  Equivalence with the
        scalar oracle is enforced by ``tests/test_machine_bulk_access.py``.
        """
        n = len(vaddrs)
        try:
            short = (
                type(homes) is not repeat and len(homes) < n  # type: ignore[arg-type]
                or type(stores) is not repeat and len(stores) < n  # type: ignore[arg-type]
            )
        except TypeError:  # an iterator: no length to check
            short = False
        if short:
            raise SimulationError(
                f"access_gather: {n} addresses but fewer homes or store flags"
            )
        lat = self.latency
        core = self._core_of[hw_tid]
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3[self._socket_of[hw_tid]]
        tlb = self.tlb[core]._cache
        l1_sets, l1_mask, l1_assoc = l1._sets, l1._set_mask, l1.assoc
        l2_sets, l2_mask, l2_assoc = l2._sets, l2._set_mask, l2.assoc
        l3_sets, l3_mask, l3_assoc = l3._sets, l3._set_mask, l3.assoc
        tlb_sets, tlb_mask, tlb_assoc = tlb._sets, tlb._set_mask, tlb.assoc
        line_bits = self.line_bits
        page_bits = self.page_bits
        lat_l1 = lat.l1
        lat_l2 = lat.l2
        lat_l3 = lat.l3
        tlb_walk = lat.tlb_walk
        store_extra = lat.store_extra
        my_node = self._numa_of[hw_tid]
        hops_of = self.topology.hops
        dram_of = lat.dram
        contention = self.contention
        delay_of = contention.congestion_delay
        # Home node -> [hops, DRAM latency, queueing delay, accesses].
        # The contention delay is flat within a window and windows only
        # rotate between scheduler quanta, so every DRAM access of this
        # call to one home pays the same delay; the model is charged in
        # bulk per home at the end, as the vector engine does.
        per_node: dict[int, list[int]] = {}
        prefetch_on = self.prefetch_enabled
        streams = self._streams[core]
        rr = self._stream_rr[core]
        rec = record.append if record is not None else None

        total = 0
        n_stores = 0
        n2 = n3 = nl = nr = 0  # accesses served by L2/L3/LMEM/RMEM
        tlb_misses = 0
        pf_hits = 0
        # The last page/line touched: after any access both are MRU in
        # the TLB and L1 (a hit promotes, a miss installs at the front),
        # so an immediate repeat is a guaranteed hit with no state change.
        last_page: int | None = None
        last_line: int | None = None
        for vaddr, home, is_store in zip(vaddrs, homes, stores):
            if is_store:
                n_stores += 1
            page = vaddr >> page_bits
            if page == last_page:
                cycles = 0
                tlb_miss = False
            else:
                last_page = page
                ways = tlb_sets[page & tlb_mask]
                if page in ways:
                    if ways[0] != page:
                        ways.remove(page)
                        ways.insert(0, page)
                    cycles = 0
                    tlb_miss = False
                else:
                    tlb_misses += 1
                    ways.insert(0, page)
                    if len(ways) > tlb_assoc:
                        ways.pop()
                    cycles = tlb_walk
                    tlb_miss = True

            line = vaddr >> line_bits
            if line == last_line:
                cycles += lat_l1
                level = LVL_L1
            else:
                last_line = line
                ways1 = l1_sets[line & l1_mask]
                if line in ways1:
                    if ways1[0] != line:
                        ways1.remove(line)
                        ways1.insert(0, line)
                    cycles += lat_l1
                    level = LVL_L1
                else:
                    # L1 miss: stream prefetcher, write-allocate, deeper
                    # levels — the same order as the scalar path.
                    prefetched = False
                    if prefetch_on:
                        if line in streams:
                            # The first matching stream advances, as in
                            # the scalar path's scan.
                            prefetched = True
                            streams[streams.index(line)] = line + 1
                        else:
                            streams[rr] = line + 1
                            rr = (rr + 1) % _STREAMS_PER_CORE
                    if is_store:
                        cycles += store_extra
                    ways2 = l2_sets[line & l2_mask]
                    if line in ways2:
                        if ways2[0] != line:
                            ways2.remove(line)
                            ways2.insert(0, line)
                        n2 += 1
                        cycles += lat_l2
                        level = LVL_L2
                    else:
                        ways3 = l3_sets[line & l3_mask]
                        if line in ways3:
                            if ways3[0] != line:
                                ways3.remove(line)
                                ways3.insert(0, line)
                            n3 += 1
                            cycles += lat_l3
                            level = LVL_L3
                        else:
                            dram = per_node.get(home)
                            if dram is None:
                                hops = hops_of(my_node, home)
                                dram = per_node[home] = [
                                    hops, dram_of(hops), delay_of(home), 0,
                                ]
                            dram[3] += 1
                            if prefetched:
                                pf_hits += 1
                                cycles += lat_l3 + dram[2]
                            else:
                                cycles += dram[1] + dram[2]
                            if home != my_node:
                                nr += 1
                                level = LVL_RMEM
                            else:
                                nl += 1
                                level = LVL_LMEM
                            ways3.insert(0, line)
                            if len(ways3) > l3_assoc:
                                ways3.pop()
                        ways2.insert(0, line)
                        if len(ways2) > l2_assoc:
                            ways2.pop()
                    ways1.insert(0, line)
                    if len(ways1) > l1_assoc:
                        ways1.pop()
            total += cycles
            if rec is not None:
                rec((cycles, level, tlb_miss))

        # Flush the locally-accumulated counters in one pass.  L1 and
        # TLB hits are whatever did not miss; every L1 miss probed L2,
        # and every L2 miss probed L3.
        n1 = n - n2 - n3 - nl - nr
        self._stream_rr[core] = rr
        self.store_count += n_stores
        self.load_count += n - n_stores
        lc = self.level_counts
        lc[LVL_L1] += n1
        lc[LVL_L2] += n2
        lc[LVL_L3] += n3
        lc[LVL_LMEM] += nl
        lc[LVL_RMEM] += nr
        l1_misses = n - n1
        l2_misses = l1_misses - n2
        l1.hits += n1
        l1.misses += l1_misses
        l2.hits += n2
        l2.misses += l2_misses
        l3.hits += n3
        l3.misses += l2_misses - n3
        tlb.hits += n - tlb_misses
        tlb.misses += tlb_misses
        self.prefetch_hits += pf_hits
        if per_node:
            hop_counts = self.hop_counts
            for home, (hops, _, _, count) in per_node.items():
                contention.dram_access_bulk(home, hw_tid, count)
                self.memmgr.note_dram_accesses(home, home != my_node, count)
                hop_counts[hops] += count
        return total

    def _access_run_batched(
        self,
        hw_tid: int,
        base_vaddr: int,
        stride: int,
        count: int,
        home_node: int,
        is_store: bool,
        record: list | None,
    ) -> int:
        """The python batched path (and the vector engine's remainder).

        A run whose first and last access share a cache line (stride 0
        and one-access runs included) takes one scalar probe.  The probe
        leaves the line MRU in L1 and its page MRU in the TLB, so the
        ``count - 1`` repeats are L1 and TLB hits that change no state:
        they are credited arithmetically.  Any other run is an ordered
        gather over the run's addresses, all on ``home_node``.
        """
        line_bits = self.line_bits
        if base_vaddr >> line_bits != (base_vaddr + (count - 1) * stride) >> line_bits:
            return self.access_gather(
                hw_tid,
                range(base_vaddr, base_vaddr + count * stride, stride),
                repeat(home_node),
                repeat(is_store),
                record,
            )
        result = self.access(hw_tid, base_vaddr, home_node, is_store)
        if record is not None:
            record.append(result)
        n = count - 1
        if not n:
            return result[0]
        core = self._core_of[hw_tid]
        self.l1[core].note_repeat_hits(n)
        self.tlb[core].note_repeat_hits(n)
        self.level_counts[LVL_L1] += n
        if is_store:
            self.store_count += n
        else:
            self.load_count += n
        lat_l1 = self.latency.l1
        if record is not None:
            record.extend([(lat_l1, LVL_L1, False)] * n)
        return result[0] + n * lat_l1

    # -- conveniences -----------------------------------------------------

    def describe(self, hw_tid: int, result: tuple[int, int, bool], home_node: int) -> AccessResult:
        """Expand a hot-path tuple into a rich :class:`AccessResult`."""
        latency, level, tlb_miss = result
        return AccessResult(
            latency=latency,
            level=level,
            tlb_miss=tlb_miss,
            home_node=home_node,
            remote=level == LVL_RMEM,
        )

    def new_window(self) -> None:
        """Rotate the contention window (scheduler calls this per quantum)."""
        self.contention.new_window()

    def total_accesses(self) -> int:
        return self.load_count + self.store_count

    def stats(self) -> MachineStats:
        """One immutable snapshot of the machine's self-instrumentation.

        Snapshots subtract (``after - before`` is the activity in
        between) and add; see :class:`repro.machine.stats.MachineStats`.
        """
        tlb_hits = tlb_misses = 0
        for t in self.tlb:
            tlb_hits += t.hits
            tlb_misses += t.misses
        l1_hits = l1_misses = l2_hits = l2_misses = l3_hits = l3_misses = 0
        for c in self.l1:
            l1_hits += c.hits
            l1_misses += c.misses
        for c in self.l2:
            l2_hits += c.hits
            l2_misses += c.misses
        for c in self.l3:
            l3_hits += c.hits
            l3_misses += c.misses
        return MachineStats(
            level_counts=tuple(self.level_counts),
            hop_counts=tuple(self.hop_counts),
            loads=self.load_count,
            stores=self.store_count,
            prefetch_hits=self.prefetch_hits,
            tlb_hits=tlb_hits,
            tlb_misses=tlb_misses,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l2_hits=l2_hits,
            l2_misses=l2_misses,
            l3_hits=l3_hits,
            l3_misses=l3_misses,
            dram_accesses=tuple(self.memmgr.dram_accesses),
            remote_dram_accesses=tuple(self.memmgr.remote_dram_accesses),
            contention_queue_cycles=self.contention.total_queue_cycles,
            contention_windows=self.contention.windows,
        )

    def flush_all(self) -> None:
        """Invalidate all caches and TLBs (used between benchmark phases)."""
        for c in self.l1:
            c.invalidate_all()
        for c in self.l2:
            c.invalidate_all()
        for c in self.l3:
            c.invalidate_all()
        for t in self.tlb:
            t.flush()
        for streams in self._streams:
            for i in range(_STREAMS_PER_CORE):
                streams[i] = -1
        # Reset the stream-replacement cursors too: otherwise post-flush
        # replacement order depends on pre-flush history and benchmark
        # phases separated by flush_all() are not independent.
        for c in range(len(self._stream_rr)):
            self._stream_rr[c] = 0
