"""Layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
layer (methods on classes, module-level functions in every ``repro``
module that imported them by name) with a timing wrapper.  Wrappers
keep a stack of open spans, so each layer gets *self* time: a span's
duration minus the time its nested wrapped calls took.  Counts are
taken at the same boundaries.

Nothing inside ``repro`` is edited; :meth:`LayerTracer.uninstall`
restores every patched attribute.  The tracer only runs in the traced
(``--trace 1``) pass — end-to-end numbers are measured with it off.

:func:`cprofile_layers` runs the same work under :mod:`cProfile` and
derives each layer's calls and inclusive time from its entry points;
:func:`cross_check` compares them against the tracer's.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Any, Callable

_clock = time.perf_counter

# Entry points the tracer wraps: (module, owner or None for a module-level
# function, attribute, layer).  Several entries may share a layer.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    # repro.machine: scalar oracle, batched loop, vector engine
    ("repro.machine.hierarchy", "MemoryHierarchy", "access", "machine.scalar"),
    ("repro.machine.hierarchy", "MemoryHierarchy", "access_run", "machine.run"),
    ("repro.machine.vector", None, "access_run_vector", "machine.vector"),
    # repro.sim: the Ctx dispatch surface kernels call
    *(
        ("repro.sim.runtime", "Ctx", name, "sim.ctx")
        for name in (
            "load_ip", "store_ip", "load", "store", "load_run", "store_run",
            "load_stride", "store_stride", "compute", "malloc", "calloc",
            "free", "touch_range", "alloc_array",
        )
    ),
    # repro.pmu: sample engines
    *(
        (f"repro.pmu.{mod}", cls, name, "pmu.note")
        for mod, cls in (
            ("ebs", "EBSEngine"), ("ibs", "IBSEngine"),
            ("marked", "MarkedEventEngine"), ("pebs", "PEBSEngine"),
        )
        for name in ("note_mem", "note_compute")
    ),
    # repro.core.profiler: attribution and allocation tracking
    ("repro.core.profiler", "DataCentricProfiler", "on_sample", "profiler.attrib"),
    ("repro.core.profiler", "DataCentricProfiler", "on_alloc", "profiler.alloc"),
    ("repro.core.profiler", "DataCentricProfiler", "on_free", "profiler.alloc"),
    ("repro.core.profiler", "DataCentricProfiler", "finalize", "profiler.finalize"),
    # repro.core.profiledb: the binary codec
    ("repro.core.profiledb", "ProfileDB", "to_bytes", "codec.encode"),
    ("repro.core.profiledb", "ProfileDB", "from_bytes", "codec.decode"),
    # merges: in-process reduction tree, sequential merge, process pool
    ("repro.core.merge", None, "reduction_tree_merge", "merge"),
    ("repro.core.merge", None, "merge_profiles", "merge"),
    ("repro.parallel.merge", None, "merge_rpdb_files", "merge"),
    # analysis views and the derived-metric DAG
    ("repro.core.analyzer", "ExperimentDB", "top_down", "views"),
    ("repro.core.analyzer", "ExperimentDB", "bottom_up", "views"),
    ("repro.metrics.boundness", None, "evaluate_boundness", "metrics.eval"),
    # repro.serve: store and query engine
    ("repro.serve.store", "ProfileStore", "ingest", "store.ingest"),
    ("repro.serve.store", "ProfileStore", "leaves", "store.scan"),
    ("repro.serve.store", "ProfileStore", "uncompacted", "store.scan"),
    ("repro.serve.store", "ProfileStore", "compact", "store.compact"),
    ("repro.serve.query", "QueryEngine", "query", "query"),
    # repro.staticcheck
    ("repro.staticcheck.registry", None, "build_static_model", "static.build"),
    ("repro.staticcheck.analyze", None, "analyze_model", "static.analyze"),
    ("repro.staticcheck.predict", None, "predict_model", "static.predict"),
    ("repro.staticcheck.predict", None, "report_with_impacts", "static.predict"),
    ("repro.staticcheck.extract.builder", None, "extract_model", "static.extract"),
    ("repro.staticcheck.extract.diff", None, "diff_models", "static.diff"),
)

# Layers whose nested calls into the same layer are not spans of their
# own (``Ctx.load`` -> ``Ctx.load_ip``; ``canonical_bytes`` ->
# ``to_bytes``; ``leaves`` inside ``uncompacted``...): the outer call
# already counted and timed them.
_FLAT = {
    "sim.ctx", "pmu.note", "codec.encode", "codec.decode", "merge",
    "views", "metrics.eval", "store.scan", "static.predict",
}


def _entry_key(owner: str | None, attr: str) -> str:
    return f"{owner}.{attr}" if owner else attr


def _passes_through(layer: str, key: str, caller_layer: str) -> bool:
    """Calls the wrappers do not time apart from their caller's span.

    Besides same-layer nesting in flat layers, a one-access run takes
    the scalar path: it is already counted and timed as part of the run.
    """
    if layer in _FLAT and caller_layer == layer:
        return True
    return key == "MemoryHierarchy.access" and caller_layer.startswith("machine.")


def _count(args: tuple, kwargs: dict, pos: int, name: str) -> int:
    return kwargs[name] if name in kwargs else args[pos]


class LayerTracer:
    """Self time, inclusive time and counts per layer and entry point.

    Each wrapped entry point owns an accumulator ``[self, inclusive,
    calls, child calls, nested calls]``.  Self times are reported with
    the wrappers' own cost taken out: :meth:`calibrate` measures the
    per-call cost a wrapper adds inside its timed window and the cost it
    adds to its caller's span, and :attr:`self_s` subtracts both per call.
    """

    def __init__(self) -> None:
        self._acc: dict[str, list] = {}
        self._layer_of: dict[str, str] = {}
        self.extra_s: dict[str, float] = defaultdict(float)  # derived layers
        self.counts: dict[str, float] = defaultdict(float)   # hook counts
        # frames: [layer, child seconds, child calls, nested wrapped calls]
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._seen_profilers: set[int] = set()
        # validation ends waiting for their store commit (FIFO writer)
        self._validated: deque[float] = deque()
        self.queue_waits: list[float] = []
        self.cost_in = 0.0   # wrapper seconds per call inside its window
        self.cost_out = 0.0  # wrapper seconds per call charged to the caller

    # -- results --------------------------------------------------------------

    def calls(self, key: str) -> int:
        acc = self._acc.get(key)
        return acc[2] if acc else 0

    def layer_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for key, acc in self._acc.items():
            if not key.startswith("span:"):
                out[self._layer_of[key]] += acc[2]
        return dict(out)

    @property
    def self_s(self) -> dict[str, float]:
        """Per-layer self seconds, wrapper cost subtracted."""
        out: dict[str, float] = defaultdict(float)
        for key, (own, _incl, calls, children, _nested) in self._acc.items():
            cost = self.cost_in * calls + self.cost_out * children
            out[self._layer_of[key]] += max(0.0, own - cost)
        for layer, seconds in self.extra_s.items():
            out[layer] += seconds
        return out

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        import importlib

        if self._undo:
            raise RuntimeError("tracer already installed")
        # Import everything first, so no module binds a wrapper by name.
        modules = [importlib.import_module(entry[0]) for entry in ENTRY_POINTS]
        for module, (_name, owner_name, attr, layer) in zip(modules, ENTRY_POINTS):
            if owner_name is None:
                self._wrap_function(module, attr, layer)
            else:
                self._wrap_method(getattr(module, owner_name), attr, layer)

    def uninstall(self) -> None:
        wrappers = {}
        while self._undo:
            owner, attr, original = self._undo.pop()
            wrappers[id(getattr(owner, attr))] = original
            setattr(owner, attr, original)
        # A module imported while the tracer was on bound the wrapper.
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap_method(self, cls: type, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        key = _entry_key(cls.__name__, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, layer, key))
        else:
            wrapped = self._wrapper(raw, layer, key)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, layer, attr)
        # Patch every repro module that bound the function by name.
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    # -- the wrapper ----------------------------------------------------------

    def _wrapper(self, fn: Callable, layer: str, key: str) -> Callable:
        stack = self._stack
        acc = self._acc.setdefault(key, [0.0, 0.0, 0, 0, 0])
        self._layer_of[key] = layer
        before = self._before_hooks().get(key)
        after = self._after_hooks().get(key)
        passing = layer in _FLAT or key == "MemoryHierarchy.access"
        clock = _clock

        def wrapper(*args, **kwargs):
            if passing and stack and _passes_through(layer, key, stack[-1][0]):
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = [layer, 0.0, 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc[0] += dt - frame[1]
                acc[1] += dt
                acc[2] += 1
                acc[3] += frame[2]
                acc[4] += frame[3]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    parent[2] += 1
                    parent[3] += frame[3] + 1
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    @contextmanager
    def span(self, layer: str):
        """Time a block the benchmark itself runs as one layer's span."""
        key = f"span:{layer}"
        acc = self._acc.setdefault(key, [0.0, 0.0, 0, 0, 0])
        self._layer_of[key] = layer
        frame = [layer, 0.0, 0, 0]
        self._stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            dt = _clock() - t0
            self._stack.pop()
            acc[0] += dt - frame[1]
            acc[1] += dt
            acc[3] += frame[2]
            acc[4] += frame[3]
            if self._stack:
                parent = self._stack[-1]
                parent[1] += dt
                parent[2] += 1
                parent[3] += frame[3] + 1

    def calibrate(self, n: int = 50_000, repeats: int = 5) -> None:
        """Measure what one wrapped call costs, in and out of its window.

        The cheapest of ``repeats`` rounds is kept: noise only adds.
        """

        def noop():
            return None

        best_in = best_out = float("inf")
        for _ in range(repeats):
            t0 = _clock()
            for _ in range(n):
                noop()
            bare = _clock() - t0
            probe = LayerTracer()
            wrapped = probe._wrapper(noop, "calibration", "noop")
            with probe.span("outer"):
                t0 = _clock()
                for _ in range(n):
                    wrapped()
                total = _clock() - t0
            inside = probe._acc["noop"][1]
            best_in = min(best_in, max(0.0, (inside - bare) / n))
            best_out = min(best_out, max(0.0, (total - inside) / n))
        self.cost_in, self.cost_out = best_in, best_out

    # -- counting hooks -------------------------------------------------------

    def _before_hooks(self) -> dict[str, Callable]:
        counts = self.counts

        def run(args, kwargs):
            # access_run(self, hw_tid, base_vaddr, stride, count, ...)
            counts["machine.run_accesses"] += _count(args, kwargs, 4, "count")

        def vector(args, kwargs):
            # access_run_vector(hier, hw_tid, base, stride, count, ...)
            counts["machine.vector_accesses"] += _count(args, kwargs, 4, "count")

        def decode(args, kwargs):
            data = kwargs.get("data", args[-1] if args else b"")
            counts["codec.decoded_bytes"] += len(data)

        return {
            "MemoryHierarchy.access_run": run,
            "access_run_vector": vector,
            "ProfileDB.from_bytes": decode,
        }

    def _after_hooks(self) -> dict[str, Callable]:
        counts = self.counts

        def finalize(args, kwargs, result, dt):
            profiler = args[0]
            if id(profiler) in self._seen_profilers:
                return
            self._seen_profilers.add(id(profiler))
            counts["profiler.samples"] += profiler.stats.samples
            counts["profiler.unknown_samples"] += profiler.stats.unknown_samples
            pmu = getattr(profiler.process, "pmu", None)
            counts["pmu.samples"] += getattr(pmu, "samples_taken", 0)

        def merged(args, kwargs, result, dt):
            counts["merge.rounds"] += result[1].rounds
            counts["merge.inputs"] += len(args[0] if args else kwargs["paths"])

        def merge_seq(args, kwargs, result, dt):
            counts["merge.inputs"] += len(args[0] if args else kwargs["dbs"])

        def decode(args, kwargs, result, dt):
            if not self._stack:
                # A decode nobody in the store/query/merge layers asked
                # for: the service validating an ingest request.
                self.extra_s["serve.validate"] += dt
                self._validated.append(_clock())

        def store_ingest(args, kwargs, result, dt):
            if self._validated:
                self.queue_waits.append(_clock() - dt - self._validated.popleft())

        def compact(args, kwargs, result, dt):
            if result.changed:
                counts["store.compactions"] += 1

        def query(args, kwargs, result, dt):
            if result.get("cached"):
                counts["query.hits"] += 1
            elif "generation" in result:
                counts["query.misses"] += 1
                self.extra_s["query.materialize"] += dt

        def analyzed(args, kwargs, result, dt):
            counts["static.findings"] += len(result.findings)

        return {
            "DataCentricProfiler.finalize": finalize,
            "reduction_tree_merge": merged,
            "merge_rpdb_files": merged,
            "merge_profiles": merge_seq,
            "ProfileDB.from_bytes": decode,
            "ProfileStore.ingest": store_ingest,
            "ProfileStore.compact": compact,
            "QueryEngine.query": query,
            "analyze_model": analyzed,
        }


# -- cProfile cross-check -------------------------------------------------------


def _cprofile_cost_per_call(n: int = 200_000, repeats: int = 3) -> float:
    """Seconds cProfile adds to one Python call (cheapest of ``repeats``)."""

    def noop():
        return None

    best = float("inf")
    for _ in range(repeats):
        t0 = _clock()
        for _ in range(n):
            noop()
        bare = _clock() - t0
        profiler = cProfile.Profile()
        profiler.enable()
        t0 = _clock()
        for _ in range(n):
            noop()
        profiled = _clock() - t0
        profiler.disable()
        best = min(best, max(0.0, (profiled - bare) / n))
    return best


def cprofile_layers(work: Callable[[], Any]) -> dict[str, Any]:
    """Run ``work`` under cProfile; calls and inclusive seconds per layer.

    Only calls that open a tracer span are kept: calls reaching an entry
    point from another entry point the tracer does not time apart
    (:func:`_passes_through`) are taken out, count and time.  cProfile's
    own cost is taken out too: its per-call cost times the calls made
    under each entry point, estimated from the caller/callee counts.
    """
    cost = _cprofile_cost_per_call()
    profiler = cProfile.Profile()
    t0 = _clock()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    wall = _clock() - t0
    stats = pstats.Stats(profiler).stats
    index = {
        (module_name.replace(".", "/") + ".py", attr): (_entry_key(owner, attr), layer)
        for module_name, owner, attr, layer in ENTRY_POINTS
    }

    def lookup(func: tuple[str, int, str]) -> tuple[str, str] | None:
        path = func[0].replace("\\", "/")
        for (suffix, attr), entry in index.items():
            if func[2] == attr and path.endswith(suffix):
                return entry
        return None

    callees: dict[tuple, list[tuple[tuple, int]]] = defaultdict(list)
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        for caller, caller_stats in callers.items():
            callees[caller].append((func, caller_stats[1]))
    below: dict[tuple, float] = {}

    def calls_below(func: tuple) -> float:
        """Average calls made under one call of ``func`` (cycles cut)."""
        if func not in below:
            below[func] = 0.0
            n = stats[func][1]
            total = sum(k * (1.0 + calls_below(g)) for g, k in callees[func])
            below[func] = total / n if n else 0.0
        return below[func]

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for func, (_cc, nc, _tt, ct, callers) in stats.items():
        entry = lookup(func)
        if entry is None:
            continue
        key, layer = entry
        for caller, (_c_cc, c_nc, _c_tt, c_ct) in callers.items():
            caller_entry = lookup(caller)
            if caller_entry and _passes_through(layer, key, caller_entry[1]):
                nc -= c_nc
                ct -= c_ct
        seconds[layer] += max(0.0, ct - cost * nc * calls_below(func))
        calls[layer] += nc
    # The wall the shares divide by gets the same correction, from the
    # same estimate, so that numerators and denominator stay comparable.
    code = getattr(work, "__func__", work).__code__
    root = (code.co_filename, code.co_firstlineno, code.co_name)
    root_ct = stats[root][3] if root in stats else wall
    root_calls = calls_below(root) if root in stats else 0.0
    return {
        "seconds": dict(seconds),
        "calls": dict(calls),
        "wall": max(root_ct - cost * root_calls, 1e-12),
    }


def tracer_layers(tracer: LayerTracer, wall: float) -> dict[str, Any]:
    """The tracer's counterpart of :func:`cprofile_layers`, wrapper cost
    taken out the same way (a calibrated tracer is required)."""
    per_call = tracer.cost_in + tracer.cost_out
    seconds: dict[str, float] = defaultdict(float)
    total_calls = 0
    for key, (_own, incl, calls, _children, nested) in tracer._acc.items():
        if key.startswith("span:"):
            continue
        total_calls += calls
        cost = tracer.cost_in * calls + per_call * nested
        seconds[tracer._layer_of[key]] += max(0.0, incl - cost)
    return {
        "seconds": dict(seconds),
        "calls": tracer.layer_calls(),
        "wall": max(wall - per_call * total_calls, 1e-12),
    }


def cross_check(
    traced: dict[str, Any], profiled: dict[str, Any], min_share: float = 0.02
) -> dict[str, Any]:
    """Compare tracer and cProfile layer by layer.

    Calls must agree exactly: both count the same spans.  Shares of wall
    time are compared with each profiler's own cost taken out; layers
    under ``min_share`` on both sides are left out of the comparison.
    """
    rows = {}
    calls_match = True
    for layer in sorted(set(traced["calls"]) | set(profiled["calls"])):
        a_calls = traced["calls"].get(layer, 0)
        b_calls = profiled["calls"].get(layer, 0)
        calls_match = calls_match and a_calls == b_calls
        a = traced["seconds"].get(layer, 0.0) / traced["wall"]
        b = profiled["seconds"].get(layer, 0.0) / profiled["wall"]
        if max(a, b) < min_share and a_calls == b_calls:
            continue
        rows[layer] = {
            "calls": [a_calls, b_calls],
            "share": [round(a, 4), round(b, 4)],
            "diff": round(abs(a - b), 4) if max(a, b) >= min_share else 0.0,
        }
    worst = max((row["diff"] for row in rows.values()), default=0.0)
    return {"layers": rows, "calls_match": calls_match, "max_share_diff": worst}
