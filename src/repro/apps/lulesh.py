"""LULESH — the paper's §5.3 case study (48-core AMD, IBS latency).

Two pathologies:

1. *Heap/NUMA* (Figure 8): every domain array (coordinates, velocities,
   forces, energy, ...) is allocated and initialized by the master
   thread, so first-touch homes all of them on one of the eight NUMA
   domains; the OpenMP loops then fetch them remotely and contend for
   that controller.  The paper attributes 66.8% of data-fetch latency
   and 94.2% of remote accesses to heap data, with each of the top seven
   arrays carrying 3.0-9.4% of total latency.  Fix: libnuma interleaved
   allocation of the hot arrays — 13% faster.

2. *Static/spatial* (Figure 9): the static array ``f_elem[n][3][8]`` is
   accessed with an indirect first subscript (via
   ``nodeElemCornerList``) and a computed last subscript, while the
   middle subscript (0..2) is the innermost loop — three touches per
   visit that straddle three cache lines.  Statics carry 23.6% of
   latency, ``f_elem`` alone 17%.  Fix: transpose ``f_elem`` to
   ``[n][8][3]`` so the inner three touches share a line — 2.2% faster.

Variants: ``original``, ``libnuma``, ``transpose``, ``both``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps.common import AppResult, analyze_profilers, single_process_rank
from repro.core.profiledb import ProfileDB
from repro.core.profiler import DataCentricProfiler, ProfilerConfig
from repro.machine.presets import Machine, amd_magnycours
from repro.numa.libnuma import numa_alloc_interleaved
from repro.pmu.ibs import IBSEngine
from repro.sim.loader import LoadModule
from repro.sim.openmp import declare_outlined, omp_chunk
from repro.sim.process import SimProcess
from repro.sim.runtime import Ctx
from repro.sim.source import SourceFile

__all__ = [
    "Config", "run", "run_rank", "rank_config", "VARIANTS", "DOMAIN_ARRAYS",
    "static_model",
]

VARIANTS = ("original", "libnuma", "transpose", "both")

# The domain arrays of Figure 8 (names as in the LULESH source).
DOMAIN_ARRAYS = (
    "m_x", "m_y", "m_z",        # coordinates
    "m_xd", "m_yd", "m_zd",     # velocities
    "m_fx", "m_fy", "m_fz",     # forces
    "m_e", "m_p", "m_q",        # energy / pressure / viscosity
)

_F_ELEM_MAX_NODES = 2048

# Source-line anchors for lulesh.cc, shared by the program image, the
# kernel, and static_model() (reprolint R009 bans restating them as
# literals there); the extraction drift gate verifies each against the
# interpreted kernel.
L_STATIC_F_ELEM = 15
L_STATIC_GAMMA = 16
L_ALLOC_DOMAIN0 = 22      # first domain array; one line per array
L_ALLOC_CORNER_LIST = 40
L_ALLOC_SCRATCH = 45
L_TOUCH_INIT = 60
L_CALL_KINEMATICS = 85
L_CALL_STRESS = 86
L_PARALLEL_KIN = 690
L_KIN_STREAM = 700
L_KIN_STORE = 705
L_PARALLEL_STRESS = 790
L_STRESS_STREAM = 800
L_CORNER_GATHER = 801
L_F_ELEM_STORE = 802


@dataclass
class Config:
    nelem: int = 4096
    nnode: int = 2048
    iterations: int = 3
    n_threads: int = 48
    variant: str = "original"
    profile: bool = False
    pmu_period: int = 256
    profiler_config: ProfilerConfig | None = None
    machine_factory: Callable[[], Machine] = amd_magnycours
    compute_per_elem: int = 90   # MLP/arithmetic stand-in (see DESIGN.md)
    corner_every: int = 4        # f_elem corner update density (Figure 9 knob)
    seed: int = 0x1E


def _build_image(process: SimProcess):
    src = SourceFile(
        "lulesh.cc",
        {
            L_ALLOC_DOMAIN0:
                "m_x = new Real_t[numElem]; /* ... one line per array */",
            L_TOUCH_INIT:
                "for (Index_t i=0; i<numElem; ++i) m_x[i] = Real_t(0.);",
            L_KIN_STREAM: "Real_t vx = xd[k]; Real_t vy = yd[k]; ...",
            L_KIN_STORE: "e_new[k] = e[k] - delvc[k]*p[k];",
            L_CORNER_GATHER: "Index_t corner = nodeElemCornerList[i*2+c];",
            L_F_ELEM_STORE: "f_elem[corner][k][Find_Pos(i,c)] += fx_local;",
        },
    )
    exe = LoadModule("lulesh.exe", is_executable=True)
    main_fn = exe.add_function("main", src, 1, 120)
    kinematics = exe.add_function("CalcKinematicsForElems", src, 680, 40)
    stress = exe.add_function("IntegrateStressForElems", src, 780, 40)
    kin_region = declare_outlined(exe, kinematics, L_PARALLEL_KIN, 25)
    stress_region = declare_outlined(exe, stress, L_PARALLEL_STRESS, 25)
    f_elem_sym = exe.add_static(
        "f_elem", _F_ELEM_MAX_NODES * 3 * 8 * 8, src, L_STATIC_F_ELEM
    )
    gamma_sym = exe.add_static("Gamma", 4 * 8 * 8 * 8 * 8, src, L_STATIC_GAMMA)
    process.load_module(exe)
    return (
        src, main_fn, kinematics, stress,
        kin_region, stress_region, f_elem_sym, gamma_sym,
    )


RANK_PRESETS: dict[str, dict] = {
    "smoke": dict(nelem=1024, nnode=512, iterations=2, n_threads=24, pmu_period=64),
    "paper": {},
}


def rank_config(preset: str = "smoke", variant: str = "original") -> Config:
    if preset not in RANK_PRESETS:
        raise ValueError(f"unknown lulesh rank preset {preset!r}")
    return Config(variant=variant, profile=True, **RANK_PRESETS[preset])


def run_rank(
    rank: int, n_ranks: int, variant: str = "original", preset: str = "smoke",
    cfg: Config | None = None,
) -> ProfileDB:
    """Profile one rank-replica of lulesh; the parallel-driver entry point."""
    if cfg is None:
        cfg = rank_config(preset, variant)
    return single_process_rank(run, "lulesh", cfg, rank, n_ranks)


def static_model(variant: str = "original", preset: str = "smoke"):
    """Declarations for the static analyzer (see repro.staticcheck.model).

    The 12 domain arrays are the H001 set (master touch at line 60, wide
    teams in both solver regions); ``nodeElemCornerList`` and the scratch
    blocks sit below the share threshold, and the two statics (f_elem,
    Gamma) are first touched by workers — none of those may fire.
    """
    from repro.sim.openmp import outlined_name
    from repro.staticcheck.model import StaticModel

    if variant not in VARIANTS:
        raise ValueError(f"unknown lulesh variant {variant!r}")
    cfg = rank_config(preset, variant)
    machine = cfg.machine_factory()
    process = SimProcess(machine, name="lulesh")
    _build_image(process)
    model = StaticModel("lulesh", variant, process, machine, cfg.n_threads)
    kin_region = outlined_name("CalcKinematicsForElems", 0)
    stress_region = outlined_name("IntegrateStressForElems", 0)

    model.entry("main")
    model.call("main", L_CALL_KINEMATICS, "CalcKinematicsForElems")
    model.call("main", L_CALL_STRESS, "IntegrateStressForElems")
    model.parallel_region("CalcKinematicsForElems", L_PARALLEL_KIN,
                          kin_region, cfg.n_threads)
    model.parallel_region("IntegrateStressForElems", L_PARALLEL_STRESS,
                          stress_region, cfg.n_threads)

    interleaved = variant in ("libnuma", "both")
    kind = "numa_interleaved" if interleaved else "malloc"
    nelem = float(cfg.nelem)
    iters = float(cfg.iterations)
    for idx, name in enumerate(DOMAIN_ARRAYS):
        model.alloc("main", L_ALLOC_DOMAIN0 + idx, name, cfg.nelem * 8,
                    kind=kind)
        model.touch("main", L_TOUCH_INIT, name, by="master")
    model.alloc("main", L_ALLOC_CORNER_LIST, "nodeElemCornerList",
                cfg.nelem * 2 * 4, kind="malloc")
    model.touch("main", L_TOUCH_INIT, "nodeElemCornerList", by="master")
    model.alloc("main", L_ALLOC_SCRATCH, "scratch", 12 * 3968, kind="malloc")
    model.touch("main", L_TOUCH_INIT, "scratch", by="master")
    model.alloc("main", L_STATIC_F_ELEM, "f_elem", 0, kind="static")
    model.alloc("main", L_STATIC_GAMMA, "Gamma", 0, kind="static")

    # Kinematics: six streamed loads per element, one energy-family store
    # and one force load (each array takes a third), plus a scratch poke.
    for name in ("m_x", "m_y", "m_z", "m_xd", "m_yd", "m_zd"):
        model.access(kin_region, L_KIN_STREAM, name, weight=nelem * iters)
    for name in ("m_e", "m_p", "m_q"):
        model.access(kin_region, L_KIN_STORE, name, weight=nelem * iters / 3,
                     is_store=True)
    for name in ("m_fx", "m_fy", "m_fz"):
        model.access(kin_region, L_KIN_STORE, name, weight=nelem * iters / 3)
    model.access(kin_region, L_KIN_STORE, "scratch", weight=nelem * iters / 4)

    # Stress integration: six streamed loads per element, corner-list
    # gather + three f_elem stores every 4th element, Gamma every 4th.
    for name in ("m_fx", "m_fy", "m_fz", "m_p", "m_q", "m_e"):
        model.access(stress_region, L_STRESS_STREAM, name,
                     weight=nelem * iters)
    corner = nelem * iters / max(1, cfg.corner_every)
    model.access(stress_region, L_CORNER_GATHER, "nodeElemCornerList",
                 weight=corner)
    model.access(stress_region, L_F_ELEM_STORE, "f_elem", weight=3 * corner,
                 is_store=True)
    model.access(stress_region, L_F_ELEM_STORE, "Gamma",
                 weight=nelem * iters / 4)
    return model


def run(cfg: Config) -> AppResult:
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown lulesh variant {cfg.variant!r}")
    machine = cfg.machine_factory()
    if cfg.n_threads > machine.n_threads:
        raise ValueError("n_threads exceeds machine hardware threads")
    if cfg.nnode > _F_ELEM_MAX_NODES:
        raise ValueError("nnode exceeds the f_elem static symbol size")
    process = SimProcess(machine, name="lulesh")
    profiler = None
    pmu = None
    if cfg.profile:
        profiler = DataCentricProfiler(process, cfg.profiler_config).attach()
        pmu = IBSEngine(period=cfg.pmu_period, seed=cfg.seed)
        process.pmu = pmu

    (src, main_fn, kinematics, stress, kin_region, stress_region,
     f_elem_sym, gamma_sym) = _build_image(process)
    ctx = Ctx(process, process.master)
    ctx.enter(main_fn)

    nelem, nnode = cfg.nelem, cfg.nnode
    interleaved = cfg.variant in ("libnuma", "both")
    transposed = cfg.variant in ("transpose", "both")

    with process.phase("setup"):
        arrays = {}
        for idx, name in enumerate(DOMAIN_ARRAYS):
            if interleaved:
                arrays[name] = numa_alloc_interleaved(
                    ctx, name, (nelem,), line=L_ALLOC_DOMAIN0 + idx, elem=8
                )
            else:
                arrays[name] = ctx.alloc_array(
                    name, (nelem,), line=L_ALLOC_DOMAIN0 + idx, elem=8
                )
        corner_list = ctx.alloc_array(
            "nodeElemCornerList", (nelem * 2,), line=L_ALLOC_CORNER_LIST,
            elem=4
        )
        # Sub-threshold temporaries (sigxx/determ scratch): land in
        # *unknown data*, the ~10% latency remainder of Figure 8.
        scratch = [ctx.malloc(3968, line=L_ALLOC_SCRATCH) for _ in range(12)]
        # Master-thread initialization commits first touch (or fills the
        # interleave override ranges) for every page.
        for name in DOMAIN_ARRAYS:
            ctx.touch_range(arrays[name].base, arrays[name].nbytes,
                            line=L_TOUCH_INIT)
        ctx.touch_range(corner_list.base, corner_list.nbytes,
                        line=L_TOUCH_INIT)
        for addr in scratch:
            ctx.touch_range(addr, 3968, line=L_TOUCH_INIT)

        if transposed:
            f_elem = ctx.static_array(f_elem_sym, (nnode, 8, 3), elem=8)
        else:
            f_elem = ctx.static_array(f_elem_sym, (nnode, 3, 8), elem=8)
        gamma = ctx.static_array(gamma_sym, (4, 8, 8, 8), elem=8)

    stream_names = ("m_x", "m_y", "m_z", "m_xd", "m_yd", "m_zd")
    store_names = ("m_e", "m_p", "m_q")

    def kin_worker_factory(iteration: int):
        ips = [
            kin_region.ip(L_KIN_STREAM, slot)
            for slot in range(len(stream_names))
        ]
        ip_store = kin_region.ip(L_KIN_STORE, 0)
        ip_force = kin_region.ip(L_KIN_STORE, 1)
        ip_scratch = kin_region.ip(L_KIN_STORE, 2)
        bases = [arrays[n] for n in stream_names]
        stores = [arrays[n] for n in store_names]
        forces = [arrays["m_fx"], arrays["m_fy"], arrays["m_fz"]]
        # One element, in access order: six stream loads, the energy
        # store, the force load and (every 4th element) a scratch poke.
        elem_ips = (*ips, ip_store, ip_force, ip_scratch)
        elem_stores = (False,) * len(ips) + (True, False, False)

        def worker(wctx: Ctx, tid: int):
            # Chunks rotate across iterations: at full scale each chunk far
            # exceeds the private caches, so every timestep re-streams it
            # from DRAM; the scaled-down mesh preserves that by handing
            # each thread a cold chunk per iteration (see DESIGN.md).
            # The per-element loop interleaves six stream arrays plus
            # store/force/scratch accesses, so each element is one ordered
            # gather (batching one array at a time would reorder the
            # stream); mesh initialization uses the batched touch_range
            # path.
            chunk = omp_chunk(
                nelem, cfg.n_threads, (tid + iteration * 17) % cfg.n_threads
            )
            for j, e in enumerate(chunk):
                vaddrs = [arr.flat_addr(e) for arr in bases]
                vaddrs.append(stores[e % 3].flat_addr(e))
                vaddrs.append(forces[e % 3].flat_addr(e))
                if e % 4 == 3:
                    s = scratch[e % len(scratch)]
                    vaddrs.append(s + ((e * 37 + iteration) % 60) * 64)
                wctx.access_gather(vaddrs, elem_ips, elem_stores)
                wctx.compute(cfg.compute_per_elem)
                if j % 8 == 7:
                    yield
            yield

        return worker

    def stress_worker_factory(iteration: int):
        ip_corner = stress_region.ip(L_CORNER_GATHER)
        ip_f = [stress_region.ip(L_F_ELEM_STORE, slot) for slot in range(3)]
        ip_gamma = stress_region.ip(L_F_ELEM_STORE, 3)
        stream_bases = [arrays[n] for n in ("m_fx", "m_fy", "m_fz", "m_p", "m_q", "m_e")]
        stream_ips = [stress_region.ip(L_STRESS_STREAM, slot) for slot in range(6)]
        stream_stores = (False,) * len(stream_ips)
        # The corner block: the corner-list load, three f_elem stores and
        # (when the element also reads it) the Gamma load.
        corner_ips = (ip_corner, *ip_f, ip_gamma)
        corner_stores = (False, True, True, True, False)
        gamma_ips = (ip_gamma,)
        gamma_stores = (False,)

        def worker(wctx: Ctx, tid: int):
            chunk = omp_chunk(
                nelem, cfg.n_threads, (tid + iteration * 17) % cfg.n_threads
            )
            for j, e in enumerate(chunk):
                # Stress integration also streams the coordinate arrays.
                wctx.access_gather(
                    [arr.flat_addr(e) for arr in stream_bases], stream_ips,
                    stream_stores,
                )
                wctx.compute(cfg.compute_per_elem // 4)
                tail = (
                    (gamma.addr_unchecked(e % 4, (e // 4) % 8, e % 8, 0),)
                    if e % 4 == 1 else ()
                )
                if e % cfg.corner_every == 0:
                    vaddrs = [corner_list.flat_addr(e * 2)]
                    corner = (e * 131 + iteration * 8191) % nnode
                    # ``Find_Pos`` yields a different position per
                    # component, so even the transposed layout keeps some
                    # irregularity — the fix recovers only part of the
                    # spatial locality, as in the paper's modest 2.2% gain.
                    for k in range(3):
                        pos = (e * 7 + k * 3) % 8
                        if transposed:
                            vaddrs.append(f_elem.addr_unchecked(corner, pos, k))
                        else:
                            vaddrs.append(f_elem.addr_unchecked(corner, k, pos))
                    vaddrs.extend(tail)
                    wctx.access_gather(vaddrs, corner_ips, corner_stores)
                elif tail:
                    wctx.access_gather(tail, gamma_ips, gamma_stores)
                wctx.compute(cfg.compute_per_elem // 4)
                if j % 8 == 7:
                    yield
            yield

        return worker

    with process.phase("solve"):
        for it in range(cfg.iterations):
            ctx.call_sync(
                kinematics,
                L_CALL_KINEMATICS,
                lambda c, it=it: c.parallel(
                    kin_region, kin_worker_factory(it), cfg.n_threads,
                    line=L_PARALLEL_KIN
                ),
            )
            ctx.call_sync(
                stress,
                L_CALL_STRESS,
                lambda c, it=it: c.parallel(
                    stress_region, stress_worker_factory(it), cfg.n_threads,
                    line=L_PARALLEL_STRESS
                ),
            )

    ctx.leave()
    profilers = [profiler] if profiler else []
    return AppResult(
        app="lulesh",
        variant=cfg.variant,
        elapsed_cycles=process.elapsed_cycles,
        elapsed_seconds=process.elapsed_seconds(),
        phase_seconds=process.phase_seconds(),
        profilers=profilers,
        experiment=analyze_profilers("lulesh", profilers),
        machines=[machine],
        pmu_engines=[pmu] if pmu else [],
    )
