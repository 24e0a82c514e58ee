"""Fact recorder and ``Ctx`` proxy for the extraction interpreter.

The interpreter drives kernel source over a *real* :class:`SimProcess`
(real program image, real heap) but swaps the :class:`repro.sim.runtime.Ctx`
the kernel talks to for :class:`ExtractionCtx`.  The proxy performs the
same address bookkeeping the real runtime would (heap allocation,
``SimArray`` construction) while recording, instead of simulating, every
event the hand-written static models declare: entries, call edges,
parallel regions, allocation / touch / free sites, and access sites with
weights.  Addresses are attributed to variables through the live heap
map plus the module static symbols — the same resolution the dynamic
profiler performs, which is what makes extracted facts land on the same
``(var, fn, line)`` coordinates as the registered models.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

from repro.staticcheck.extract.values import CallToken, rep_of, tags_of

__all__ = ["AccessAgg", "AllocAgg", "Recorder", "ExtractionCtx", "ThreadProxy"]

_RUN_SAMPLE_CAP = 64
_OFFSET_SAMPLE_CAP = 4096
_DIAG_CAP = 200


@dataclass
class AllocAgg:
    """All allocations observed at one ``(var, fn, line, kind)`` site."""

    var: str
    fn: str
    line: int
    kind: str
    sizes: dict[int, int] = field(default_factory=dict)  # addr -> nbytes
    in_loop: bool = False
    sampled: bool = False  # observed under loop sampling: nbytes inexact

    @property
    def nbytes(self) -> int:
        """Total distinct bytes allocated at the site (sum over addresses)."""
        return sum(self.sizes.values())

    @property
    def inexact(self) -> bool:
        return self.sampled or len(set(self.sizes.values())) > 1


@dataclass
class AccessAgg:
    """All accesses observed at one ``(var, fn, line, is_store)`` site."""

    var: str
    fn: str
    line: int
    is_store: bool
    weight: float = 0.0
    runs: list[tuple[int, int]] = field(default_factory=list)  # (count, stride)
    n_run_events: int = 0
    offsets: set[int] = field(default_factory=set)  # scalar offsets vs var base
    n_scalar_events: int = 0
    lo: int | None = None  # min/max touched offset (vs var base)
    hi: int | None = None
    tid_tagged: bool = False

    def note_extent(self, lo: int, hi: int) -> None:
        self.lo = lo if self.lo is None else min(self.lo, lo)
        self.hi = hi if self.hi is None else max(self.hi, hi)


class Recorder:
    """Accumulates model facts in first-observed order."""

    def __init__(self) -> None:
        self.process: Any = None
        # Ordered fact stores (dict preserves first-seen order).
        self.entries: list[str] = []
        self.calls: dict[tuple[str, int, str, str], None] = {}
        self.regions: dict[str, tuple[str, int, int]] = {}
        self.allocs: dict[tuple[str, str, int, str], AllocAgg] = {}
        self.touches: dict[tuple[str, str, int, str], None] = {}
        self.frees: dict[tuple[str, str, int], None] = {}
        self.accesses: dict[tuple[str, str, int, bool], AccessAgg] = {}
        self.process_interleaved = False
        self.compute_units = 0.0
        # Interpreter-shared state.
        self.frames: list[Any] = []  # repro.sim.program.Function stack
        self.worker_depth = 0
        self.team_stack: list[int] = []
        self.mult = 1.0
        self.sampled_depth = 0
        self.name_hint: str | None = None
        # Attribution state.
        self._heap_starts: list[int] = []
        self._heap_blocks: dict[int, tuple[int, str]] = {}  # start -> (end, var)
        self._var_bases: dict[str, int] = {}  # var -> lowest base seen
        self._ip_cache: dict[int, tuple[str, int]] = {}
        # Diagnostics.
        self.diagnostics: list[str] = []
        self.unattributed_weight = 0.0
        self._warned_ips: set[int] = set()

    # -- plumbing ----------------------------------------------------------
    def bind(self, process: Any) -> None:
        self.process = process

    @property
    def current_fn(self) -> Any:
        if not self.frames:
            raise RuntimeError("extraction event outside any function frame")
        return self.frames[-1]

    @property
    def team_size(self) -> int:
        return self.team_stack[-1] if self.team_stack else 1

    def diag(self, message: str) -> None:
        if len(self.diagnostics) < _DIAG_CAP:
            self.diagnostics.append(message)

    # -- address attribution ----------------------------------------------
    def register_heap(self, addr: int, nbytes: int, var: str) -> None:
        idx = bisect.bisect_left(self._heap_starts, addr)
        self._heap_starts.insert(idx, addr)
        self._heap_blocks[addr] = (addr + nbytes, var)
        base = self._var_bases.get(var)
        if base is None or addr < base:
            self._var_bases[var] = addr

    def unregister_heap(self, addr: int) -> str | None:
        block = self._heap_blocks.pop(addr, None)
        if block is None:
            return None
        idx = bisect.bisect_left(self._heap_starts, addr)
        if idx < len(self._heap_starts) and self._heap_starts[idx] == addr:
            del self._heap_starts[idx]
        return block[1]

    def register_static(self, name: str, address: int) -> None:
        base = self._var_bases.get(name)
        if base is None or address < base:
            self._var_bases[name] = address

    def resolve_addr(self, addr: int) -> str | None:
        idx = bisect.bisect_right(self._heap_starts, addr) - 1
        if idx >= 0:
            start = self._heap_starts[idx]
            end, var = self._heap_blocks[start]
            if addr < end:
                return var
        if self.process is not None:
            for module in self.process.modules:
                sym = module.static_at(addr)
                if sym is not None:
                    self.register_static(sym.name, sym.address)
                    return sym.name
        return None

    def var_base(self, var: str) -> int:
        return self._var_bases.get(var, 0)

    def resolve_ip(self, ip: int) -> tuple[str, int] | None:
        cached = self._ip_cache.get(ip)
        if cached is not None:
            return cached
        for module in self.process.modules:
            if module.contains_ip(ip):
                fn, line, _slot = module.resolve_ip(ip)
                self._ip_cache[ip] = (fn.name, line)
                return fn.name, line
        return None

    # -- fact recording ----------------------------------------------------
    def record_entry(self, fn_name: str) -> None:
        if fn_name not in self.entries:
            self.entries.append(fn_name)

    def record_call(self, caller: str, line: int, callee: str, kind: str) -> None:
        self.calls.setdefault((caller, int(line), callee, kind), None)

    def record_region(self, outlined: str, host: str, line: int, n: int) -> None:
        prior = self.regions.get(outlined)
        decl = (host, int(line), int(n))
        if prior is None:
            self.regions[outlined] = decl
        elif prior != decl:
            self.diag(
                f"region {outlined} redeclared with {decl} (keeping {prior})"
            )

    def record_alloc(
        self, var: str, fn: str, line: int, nbytes: int, kind: str, addr: int
    ) -> AllocAgg:
        key = (var, fn, int(line), kind)
        agg = self.allocs.get(key)
        if agg is None:
            agg = AllocAgg(var, fn, int(line), kind)
            self.allocs[key] = agg
        agg.sizes[addr] = int(nbytes)
        if self.sampled_depth > 0:
            agg.in_loop = True
            agg.sampled = True
        return agg

    def record_touch(self, addr: int, line: int) -> None:
        var = self.resolve_addr(addr)
        if var is None:
            self.diag(f"touch_range at line {line} hit unattributed address")
            return
        by = "workers" if self.worker_depth > 0 else "master"
        self.touches.setdefault((var, self.current_fn.name, int(line), by), None)

    def record_free(self, addr: int, line: int) -> str | None:
        var = self.unregister_heap(addr)
        if var is None:
            self.diag(f"free at line {line} of unattributed address {addr:#x}")
            return None
        self.frees.setdefault((var, self.current_fn.name, int(line)), None)
        return var

    def record_access(
        self,
        ip: Any,
        vaddr: Any,
        is_store: bool,
        count: int = 1,
        stride: int = 0,
    ) -> None:
        ip_rep = int(rep_of(ip))
        addr = int(rep_of(vaddr))
        weight = count * self.mult
        var = self.resolve_addr(addr)
        if var is None:
            self.unattributed_weight += weight
            if ip_rep not in self._warned_ips:
                self._warned_ips.add(ip_rep)
                site = self.resolve_ip(ip_rep)
                where = f"{site[0]}:{site[1]}" if site else f"ip={ip_rep:#x}"
                self.diag(f"unattributed access at {where} (stack or raw address)")
            return
        site = self.resolve_ip(ip_rep)
        if site is None:
            self.diag(f"access with ip outside every module: {ip_rep:#x}")
            return
        fn, line = site
        key = (var, fn, line, is_store)
        agg = self.accesses.get(key)
        if agg is None:
            agg = AccessAgg(var, fn, line, is_store)
            self.accesses[key] = agg
        agg.weight += weight
        base = self.var_base(var)
        off = addr - base
        if count > 1 and stride != 0:
            agg.n_run_events += 1
            if len(agg.runs) < _RUN_SAMPLE_CAP:
                agg.runs.append((count, int(rep_of(stride))))
            span = (count - 1) * abs(int(rep_of(stride)))
            lo = min(off, off + (count - 1) * int(rep_of(stride)))
            agg.note_extent(lo, lo + span + abs(int(rep_of(stride))))
        else:
            agg.n_scalar_events += 1
            if len(agg.offsets) < _OFFSET_SAMPLE_CAP:
                agg.offsets.add(off)
            agg.note_extent(off, off + 1)
        if "tid" in tags_of(vaddr):
            agg.tid_tagged = True

    def record_compute(self, n: Any) -> None:
        self.compute_units += float(rep_of(n)) * self.mult


class ThreadProxy:
    """Stands in for ``process.omp_thread(...)`` / ``ctx.thread``."""

    def __init__(self, recorder: Recorder, real_thread: Any) -> None:
        self._rec = recorder
        self._real = real_thread

    @property
    def current_function(self) -> Any:
        return self._rec.current_fn

    def stack_alloc(self, nbytes: Any) -> int:
        return self._real.stack_alloc(int(rep_of(nbytes)))

    def stack_release(self, nbytes: Any) -> None:
        self._real.stack_release(int(rep_of(nbytes)))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class ExtractionCtx:
    """The recording double of :class:`repro.sim.runtime.Ctx`.

    Address-producing calls (``malloc``, ``alloc_array``, ``static_array``)
    return *real* heap/image addresses so all downstream pointer math in
    the kernel stays concrete; event-producing calls record facts instead
    of simulating memory.  Control-flow calls (``call_sync``, ``parallel``)
    delegate back into the interpreter, which is attached after
    construction as ``_interp``.
    """

    def __init__(self, recorder: Recorder, process: Any, thread: Any) -> None:
        self._rec = recorder
        self.process = process
        self.thread = ThreadProxy(recorder, thread)
        self._interp: Any = None  # set by the interpreter

    # -- frame management --------------------------------------------------
    def enter(self, fn: Any) -> None:
        rec = self._rec
        if not rec.frames:
            rec.record_entry(fn.name)
        rec.frames.append(fn)

    def leave(self) -> None:
        self._rec.frames.pop()

    # -- instruction pointers ----------------------------------------------
    def ip(self, line: Any, slot: int = 0) -> int:
        return self._rec.current_fn.ip(int(rep_of(line)), int(rep_of(slot)))

    # -- memory events -----------------------------------------------------
    def load_ip(self, vaddr: Any, ip: Any) -> None:
        self._rec.record_access(ip, vaddr, is_store=False)

    def store_ip(self, vaddr: Any, ip: Any) -> None:
        self._rec.record_access(ip, vaddr, is_store=True)

    def load(self, vaddr: Any, line: Any, slot: int = 0) -> None:
        self.load_ip(vaddr, self.ip(line, slot))

    def store(self, vaddr: Any, line: Any, slot: int = 0) -> None:
        self.store_ip(vaddr, self.ip(line, slot))

    def load_run(self, base: Any, count: Any, stride: Any, ip: Any) -> None:
        self._rec.record_access(
            ip, base, is_store=False,
            count=int(rep_of(count)), stride=int(rep_of(stride)),
        )

    def store_run(self, base: Any, count: Any, stride: Any, ip: Any) -> None:
        self._rec.record_access(
            ip, base, is_store=True,
            count=int(rep_of(count)), stride=int(rep_of(stride)),
        )

    def access_gather(self, vaddrs: Any, ips: Any, stores: Any) -> None:
        # One access site per element, at that element's IP — exactly
        # what the equivalent load_ip/store_ip sequence records.
        record = self._rec.record_access
        for vaddr, ip, is_store in zip(vaddrs, ips, stores):
            record(ip, vaddr, is_store=bool(rep_of(is_store)))

    # Older stride-spelling aliases kept for API parity with Ctx.
    load_stride = load_run
    store_stride = store_run

    def compute(self, n: Any = 1) -> None:
        self._rec.record_compute(n)

    def comm(self, nbytes: Any) -> None:
        pass

    # -- allocation --------------------------------------------------------
    def _alloc(
        self, nbytes: int, line: int, kind: str, var: str | None
    ) -> int:
        rec = self._rec
        addr = self.process.aspace.heap.malloc(nbytes)
        name = var or rec.name_hint
        if name is None:
            name = f"anon@{rec.current_fn.name}:{line}"
            rec.diag(f"unnamed {kind} at {rec.current_fn.name}:{line}")
        rec.register_heap(addr, nbytes, name)
        rec.record_alloc(name, rec.current_fn.name, line, nbytes, kind, addr)
        return addr

    def malloc(
        self, nbytes: Any, line: Any, kind: str = "malloc", var: str | None = None
    ) -> int:
        return self._alloc(int(rep_of(nbytes)), int(rep_of(line)), kind, var)

    def calloc(self, nbytes: Any, line: Any, var: str | None = None) -> int:
        # calloc's zero-fill commits first-touch placement at the alloc
        # site itself; the hand models record no separate touch site.
        return self._alloc(int(rep_of(nbytes)), int(rep_of(line)), "calloc", var)

    def free(self, addr: Any, line: Any) -> None:
        a = int(rep_of(addr))
        var = self._rec.record_free(a, int(rep_of(line)))
        if var is not None:
            self.process.aspace.heap.free(a)

    def alloc_array(
        self,
        name: str,
        shape: tuple,
        line: Any,
        elem: int = 8,
        order: str = "C",
        kind: str = "malloc",
    ) -> Any:
        from repro.sim.arrays import SimArray

        shape = tuple(int(rep_of(s)) for s in shape)
        nbytes = 1
        for s in shape:
            nbytes *= s
        nbytes *= elem
        if kind == "calloc":
            base = self.calloc(nbytes, line, var=name)
        else:
            base = self.malloc(nbytes, line, kind=kind, var=name)
        return SimArray(name, base, shape, elem=elem, order=order)

    def static_array(
        self, var: Any, shape: tuple, elem: int = 8, order: str = "C"
    ) -> Any:
        from repro.sim.arrays import SimArray

        rec = self._rec
        rec.register_static(var.name, var.address)
        agg = rec.record_alloc(
            var.name, rec.current_fn.name, var.decl_line, var.size,
            "static", var.address,
        )
        agg.sampled = False  # image-resolved size is always exact
        shape = tuple(int(rep_of(s)) for s in shape)
        return SimArray(var.name, var.address, shape, elem=elem, order=order)

    def touch_range(self, start: Any, nbytes: Any, line: Any) -> None:
        self._rec.record_touch(int(rep_of(start)), int(rep_of(line)))

    def declare_stack_var(self, name: str, nbytes: Any) -> int:
        return self.thread.stack_alloc(nbytes)

    def release_stack_var(self, nbytes: Any) -> None:
        self.thread.stack_release(nbytes)

    # -- control flow ------------------------------------------------------
    def call(self, fn: Any, line: Any, gen: Any) -> CallToken:
        return CallToken(fn, int(rep_of(line)), gen)

    def call_sync(self, fn: Any, line: Any, body: Any, *args: Any) -> Any:
        rec = self._rec
        rec.record_call(rec.current_fn.name, int(rep_of(line)), fn.name, "call")
        rec.frames.append(fn)
        try:
            return self._interp.call_value(body, (self,) + args)
        finally:
            rec.frames.pop()

    def parallel(
        self, outlined_fn: Any, worker: Any, n_threads: Any, line: Any
    ) -> None:
        rec = self._rec
        n = int(rep_of(n_threads))
        host = rec.current_fn.name
        rec.record_region(outlined_fn.name, host, int(rep_of(line)), n)
        rec.record_call(host, int(rep_of(line)), outlined_fn.name, "parallel")
        self._interp.run_worker(self, outlined_fn, worker, n)
