"""Drive one extraction pass and emit a real :class:`StaticModel`.

``extract_model(app)`` imports the app module (or takes a module object
directly, which is what the drift-sensitivity tests use), builds the
variant's config with profiling off, interprets the kernel entry
(``_rank_main`` for the MPI-style apps, ``run`` otherwise) under the
recording proxy, and converts the recorded facts into a
:class:`StaticModel` whose sites carry classified access patterns.
"""

from __future__ import annotations

import importlib
import types
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Any

from repro.errors import ConfigError
from repro.parallel.registry import APP_MODULES
from repro.sim.arrays import SimArray
from repro.sim.process import SimProcess
from repro.staticcheck.extract.interp import ExtractionError, Interp
from repro.staticcheck.extract.recorder import AccessAgg, ExtractionCtx, Recorder
from repro.staticcheck.extract.values import FilteredSeq, rep_of, tags_of
from repro.staticcheck.model import (
    AccessPattern,
    OmpBlockPattern,
    OpaquePattern,
    PerThreadSlotPattern,
    StaticModel,
)

__all__ = ["ExtractionResult", "extract_model", "classify_pattern"]


@dataclass
class ExtractionResult:
    """An extracted model plus everything the drift diff must know."""

    app: str
    variant: str
    model: StaticModel
    # Alloc sites whose total nbytes is not exact (loop-sampled or
    # varying per-call sizes); the drift diff skips size comparison there.
    inexact_sizes: frozenset[tuple[str, str, int]]
    patterns: dict[tuple[str, str, int, bool], AccessPattern] = field(
        default_factory=dict
    )
    diagnostics: list[str] = field(default_factory=list)
    unattributed_weight: float = 0.0


def classify_pattern(agg: AccessAgg) -> AccessPattern:
    """Classify one site's footprint; opaque is explicit, never a drop.

    - Pure batched runs with one stride -> :class:`OmpBlockPattern` over
      the site's whole observed span.
    - Pure scalar, tid-tagged, single-slot -> :class:`PerThreadSlotPattern`.
    - Anything else -> :class:`OpaquePattern` over the observed extent,
      whose identical per-thread runs keep H002 conservatively silent.
    """
    lo = agg.lo if agg.lo is not None else 0
    hi = agg.hi if agg.hi is not None else lo + 1
    if agg.n_run_events and not agg.n_scalar_events:
        strides = {abs(s) for _, s in agg.runs if s}
        if len(strides) == 1:
            stride = strides.pop()
            span = max(stride, hi - lo)
            return OmpBlockPattern(
                n_iters=max(1, span // stride), elem_bytes=stride
            )
    if (
        agg.n_scalar_events
        and not agg.n_run_events
        and agg.tid_tagged
        and len(agg.offsets) == 1
    ):
        elem = gcd(next(iter(agg.offsets)), 64) or 8
        return PerThreadSlotPattern(elem_bytes=elem)
    return OpaquePattern(lo=lo, hi=hi)


# ----------------------------------------------------------------------
# interception table
# ----------------------------------------------------------------------
def _h_ctx(interp: Interp, args: tuple, kwargs: dict) -> ExtractionCtx:
    process = args[0] if args else kwargs["process"]
    thread = args[1] if len(args) > 1 else kwargs.get("thread", process.master)
    interp.rec.bind(process)
    proxy = ExtractionCtx(interp.rec, process, thread)
    proxy._interp = interp
    return proxy


def _h_omp_chunk(interp: Interp, args: tuple, kwargs: dict) -> Any:
    from repro.sim.openmp import omp_chunk

    vals = list(args)
    for name in ("n_iters", "n_threads", "tid")[len(vals):]:
        vals.append(kwargs[name])
    n_iters, n_threads, tid = vals[:3]
    if tags_of(tid) or tags_of(n_iters) or tags_of(n_threads):
        n = int(rep_of(n_iters))
        team = max(1, int(rep_of(n_threads)))
        return FilteredSeq(list(range(n)), 1.0 / team)
    return omp_chunk(n_iters, n_threads, tid)


def _bind_numa_args(args: tuple, kwargs: dict) -> dict[str, Any]:
    names = ("ctx", "name", "shape", "line", "elem", "order", "kind", "nodes")
    bound: dict[str, Any] = {
        "elem": 8, "order": "C", "kind": "malloc", "nodes": None,
    }
    for name, value in zip(names, args):
        bound[name] = value
    bound.update(kwargs)
    return bound


def _h_numa_alloc_interleaved(interp: Interp, args: tuple, kwargs: dict) -> Any:
    b = _bind_numa_args(args, kwargs)
    proxy: ExtractionCtx = b["ctx"]
    shape = tuple(int(rep_of(s)) for s in b["shape"])
    nbytes = b["elem"]
    for s in shape:
        nbytes *= s
    addr = proxy._alloc(
        nbytes, int(rep_of(b["line"])), "numa_interleaved", b["name"]
    )
    return SimArray(b["name"], addr, shape, elem=b["elem"], order=b["order"])


def _h_numa_alloc_onnode(interp: Interp, args: tuple, kwargs: dict) -> Any:
    interp.rec.diag("numa_alloc_onnode treated as plain malloc placement")
    b = _bind_numa_args(args, kwargs)
    proxy: ExtractionCtx = b["ctx"]
    shape = tuple(int(rep_of(s)) for s in b["shape"])
    nbytes = b["elem"]
    for s in shape:
        nbytes *= s
    addr = proxy._alloc(nbytes, int(rep_of(b["line"])), "malloc", b["name"])
    return SimArray(b["name"], addr, shape, elem=b["elem"], order=b["order"])


def _h_numactl_interleave_all(interp: Interp, args: tuple, kwargs: dict) -> None:
    interp.rec.process_interleaved = True


def build_intercepts() -> dict[int, Any]:
    from repro.numa.libnuma import numa_alloc_interleaved, numa_alloc_onnode
    from repro.numa.numactl import numactl_interleave_all
    from repro.sim.openmp import omp_chunk
    from repro.sim.runtime import Ctx

    return {
        id(Ctx): _h_ctx,
        id(omp_chunk): _h_omp_chunk,
        id(numa_alloc_interleaved): _h_numa_alloc_interleaved,
        id(numa_alloc_onnode): _h_numa_alloc_onnode,
        id(numactl_interleave_all): _h_numactl_interleave_all,
    }


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
def _resolve_module(app: str | types.ModuleType) -> tuple[str, types.ModuleType]:
    if isinstance(app, types.ModuleType):
        name = getattr(app, "APP_NAME", app.__name__.rsplit(".", 1)[-1])
        return name, app
    path = APP_MODULES.get(app)
    if path is None:
        raise ConfigError(f"unknown app {app!r} (no registered module)")
    return app, importlib.import_module(path)


def extract_model(
    app: str | types.ModuleType,
    variant: str = "original",
    preset: str = "smoke",
) -> ExtractionResult:
    """Interpret one app variant's kernel and return the extracted model."""
    name, module = _resolve_module(app)
    cfg = replace(module.rank_config(preset, variant), profile=False)
    rec = Recorder()
    interp = Interp(rec, build_intercepts())
    try:
        if hasattr(module, "_rank_main"):
            machine = cfg.machine_factory()
            process = SimProcess(machine, name=name)
            rec.bind(process)
            interp.call_value(
                module._rank_main, (cfg, process, 0, getattr(cfg, "n_ranks", 1))
            )
        else:
            interp.call_value(module.run, (cfg,))
    except ExtractionError as exc:
        raise ExtractionError(f"{name}/{variant}: {exc}") from exc
    if rec.process is None:
        raise ExtractionError(f"{name}/{variant}: kernel never built a Ctx")
    return _emit(rec, name, variant, cfg)


def _emit(rec: Recorder, app: str, variant: str, cfg: Any) -> ExtractionResult:
    process = rec.process
    model = StaticModel(
        app,
        variant,
        process,
        process.machine,
        getattr(cfg, "n_threads", 1),
        process_interleaved=rec.process_interleaved,
    )
    for fn_name in rec.entries:
        model.entry(fn_name)
    for outlined, (host, line, n_threads) in rec.regions.items():
        model.parallel_region(host, line, outlined, n_threads)
    for caller, line, callee, kind in rec.calls:
        if kind == "call":
            model.call(caller, line, callee)
    inexact: set[tuple[str, str, int]] = set()
    for agg in rec.allocs.values():
        model.alloc(
            agg.fn, agg.line, agg.var, agg.nbytes,
            kind=agg.kind, in_loop=agg.in_loop,
        )
        if agg.inexact:
            inexact.add((agg.var, agg.fn, agg.line))
    for var, fn, line, by in rec.touches:
        model.touch(fn, line, var, by=by)
    patterns: dict[tuple[str, str, int, bool], AccessPattern] = {}
    for agg in rec.accesses.values():
        pattern = classify_pattern(agg)
        patterns[(agg.var, agg.fn, agg.line, agg.is_store)] = pattern
        model.access(
            agg.fn, agg.line, agg.var, agg.weight,
            is_store=agg.is_store, pattern=pattern,
        )
    for var, fn, line in rec.frees:
        model.free(fn, line, var)
    model.compute_estimate(rec.compute_units)
    return ExtractionResult(
        app=app,
        variant=variant,
        model=model,
        inexact_sizes=frozenset(inexact),
        patterns=patterns,
        diagnostics=list(rec.diagnostics),
        unattributed_weight=rec.unattributed_weight,
    )
