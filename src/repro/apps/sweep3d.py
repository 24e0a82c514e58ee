"""Sweep3D — the paper's §5.2 case study (48 MPI ranks, AMD, IBS).

Pathology: the Fortran arrays ``Flux``, ``Src`` (it x jt x kt) and
``Face`` are column-major, but the sweep's two innermost loops traverse
the *last* dimension fastest — every access strides ``it*jt`` elements,
crossing a page almost every time.  That defeats both spatial locality
and the hardware prefetcher (Figure 6: heap data carries 97.4% of the
measured data-fetch latency; Flux 39.4%, Src 39.1%, Face 14.6%; the
single Flux load deep in the sweep's call chain is 28.6% — Figure 7).

Fix (paper): permute the array dimensions (insert the last dimension
after the first) so the innermost loop becomes unit-stride —
``variant="transposed"`` — reported 15% whole-program speedup.

Being pure MPI, each rank is co-located with its data: no NUMA problem
exists and no NUMA events need examining (the paper makes this point
explicitly; the test suite asserts the remote-access fraction is ~0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.apps.common import AppResult, analyze_profilers, as_rank_db
from repro.core.profiledb import ProfileDB
from repro.core.profiler import DataCentricProfiler, ProfilerConfig
from repro.machine.presets import Machine, amd_magnycours
from repro.pmu.ibs import IBSEngine
from repro.sim.loader import LoadModule
from repro.sim.mpi import JobResult, MPIJob
from repro.sim.process import SimProcess
from repro.sim.runtime import Ctx
from repro.sim.source import SourceFile
from repro.util.rng import derive_rank_seed

__all__ = ["Config", "run", "run_rank", "rank_config", "VARIANTS", "static_model"]

VARIANTS = ("original", "transposed")

# Source-line anchors for sweep.f, shared by the program image, the
# kernel, and static_model() (reprolint R009 bans restating them as
# literals there); the extraction drift gate verifies each against the
# interpreted kernel.
L_ALLOC_FLUX = 20
L_ALLOC_SRC = 21
L_ALLOC_FACE = 22
L_TOUCH_INIT = 25
L_CALL_INNER = 30
L_CALL_SWEEP = 140
L_FACE_LOAD = 475
L_PHI_STACK = 476
L_SRC_LOAD = 477
L_SRC_LOAD2 = 478
L_FLUX_LOAD = 480
L_FLUX_STORE = 482


@dataclass
class Config:
    it: int = 20
    jt: int = 20
    kt: int = 10
    octants: int = 2
    n_ranks: int = 48
    variant: str = "original"
    profile: bool = False
    # IBS period in instructions; sized so per-rank sample handling stays
    # in the paper's low-single-digit overhead band (Table 1: +2.3%).
    pmu_period: int = 1536
    profiler_config: ProfilerConfig | None = None
    machine_factory: Callable[[], Machine] = amd_magnycours
    compute_per_cell: int = 40
    seed: int = 0x53


def _build_image(process: SimProcess):
    src = SourceFile(
        "sweep.f",
        {
            L_ALLOC_FLUX: "allocate(Flux(it,jt,kt))",
            L_ALLOC_SRC: "allocate(Src(it,jt,kt))",
            L_ALLOC_FACE: "allocate(Face(it,jt,mm))",
            L_FACE_LOAD: "leak = Face(i,j,1) + Face(i,j,2)",
            L_SRC_LOAD: "phi = Src(i,j,k)",
            L_SRC_LOAD2: "phi = phi + Src(i,j,k)*w(m)",
            L_FLUX_LOAD: "phi = phi + Flux(i,j,k)",
            L_FLUX_STORE: "Flux(i,j,k) = phi",
        },
    )
    exe = LoadModule("sweep3d.exe", is_executable=True)
    main_fn = exe.add_function("MAIN__", src, 1, 60)
    inner_fn = exe.add_function("inner_", src, 100, 80)
    sweep_fn = exe.add_function("sweep_", src, 400, 120)
    process.load_module(exe)
    return src, main_fn, inner_fn, sweep_fn


def _rank_main(cfg: Config, process: SimProcess, rank: int, n_ranks: int) -> None:
    src, main_fn, inner_fn, sweep_fn = _build_image(process)
    ctx = Ctx(process, process.master)
    ctx.enter(main_fn)

    it, jt, kt = cfg.it, cfg.jt, cfg.kt
    with process.phase("setup"):
        flux = ctx.alloc_array("Flux", (it, jt, kt), line=L_ALLOC_FLUX,
                               elem=8, order="F")
        source = ctx.alloc_array("Src", (it, jt, kt), line=L_ALLOC_SRC,
                                 elem=8, order="F")
        face = ctx.alloc_array("Face", (it, jt, 16), line=L_ALLOC_FACE,
                               elem=8, order="F")
        # Each rank initializes its own arrays: first touch places every
        # page locally — the reason pure-MPI codes have no NUMA problem.
        for arr in (flux, source, face):
            ctx.touch_range(arr.base, arr.nbytes, line=L_TOUCH_INIT)

    transposed = cfg.variant == "transposed"
    if transposed:
        # The paper's layout fix, modelled as a dimension permutation of
        # the same memory: the innermost (k) loop becomes unit-stride,
        # and Face's inner (j) index becomes contiguous too.
        flux_a = flux.transposed_view((2, 0, 1), name="Flux")
        src_a = source.transposed_view((2, 0, 1), name="Src")
        face_a = face.transposed_view((1, 0, 2), name="Face")
    else:
        flux_a, src_a, face_a = flux, source, face

    def cell(arr, i, j, k):
        if transposed:
            return arr.addr_unchecked(k, i, j)
        return arr.addr_unchecked(i, j, k)

    def face_addr(i, j, c):
        if transposed:
            return face_a.addr_unchecked(j, i, c)
        return face_a.addr_unchecked(i, j, c)

    # Stack-allocated angle workspace (phi/psi temporaries): attributed
    # to *unknown data*, the small non-heap remainder of Figure 6.
    phi_stack = ctx.thread.stack_alloc(4096)

    def sweep_gen(octant: int):
        ip_phi = sweep_fn.ip(L_PHI_STACK)
        ip_face = sweep_fn.ip(L_FACE_LOAD)
        ip_src1 = sweep_fn.ip(L_SRC_LOAD)
        ip_src2 = sweep_fn.ip(L_SRC_LOAD2)
        ip_flux_load = sweep_fn.ip(L_FLUX_LOAD)
        ip_flux_store = sweep_fn.ip(L_FLUX_STORE)
        face_ips = (ip_face, ip_face, ip_phi)
        face_stores = (False, False, False)
        # Per cell: Src (twice on the octant's parity), Flux load, store.
        dup_ips = (ip_src1, ip_src2, ip_flux_load, ip_flux_store)
        dup_stores = (False, False, False, True)
        cell_ips = (ip_src1, ip_flux_load, ip_flux_store)
        cell_stores = (False, False, True)
        for i in range(it):
            # Receive the incoming wavefront face for this pencil.
            ctx.comm(jt * 8)
            for j in range(jt):
                ctx.access_gather(
                    (
                        face_addr(i, j, (octant * 3 + j) % 16),
                        face_addr(i, j, (octant * 5 + j + 7) % 16),
                        phi_stack + ((i * 29 + j * 13 + octant) % 64) * 64,
                    ),
                    face_ips, face_stores,
                )
                for k in range(kt):
                    # The two innermost loops fix the leftmost dimensions:
                    # stride it*jt elements (original) vs. unit (fixed).
                    # Src loads (data-dependent duplication), the Flux
                    # load and the Flux store interleave per k, so each
                    # cell is one ordered gather; the batched run path
                    # covers initialization (touch_range).
                    src = cell(src_a, i, j, k)
                    flux = cell(flux_a, i, j, k)
                    if k % 2 == octant % 2:
                        ctx.access_gather((src, src, flux, flux), dup_ips, dup_stores)
                    else:
                        ctx.access_gather((src, flux, flux), cell_ips, cell_stores)
                    ctx.compute(cfg.compute_per_cell)
                yield
            # Send the outgoing face downstream.
            ctx.comm(jt * 8)

    def main_gen():
        with process.phase("sweep"):
            for octant in range(cfg.octants):
                yield from ctx.call(
                    inner_fn, L_CALL_INNER,
                    ctx.call(sweep_fn, L_CALL_SWEEP, sweep_gen(octant))
                )

    process.run_serial(main_gen())
    ctx.leave()


def static_model(variant: str = "original", preset: str = "smoke"):
    """Declarations for the static analyzer (see repro.staticcheck.model).

    Pure MPI: every rank allocates and first-touches its own arrays and
    there are no parallel regions, so the analyzer must find *nothing* —
    the paper's explicit "no NUMA problem to examine" point.  (The
    spatial-locality pathology of Figure 6 is a latency problem the
    dynamic profiler owns; it has no first-touch or sharing shape.)
    """
    from repro.staticcheck.model import StaticModel

    if variant not in VARIANTS:
        raise ValueError(f"unknown sweep3d variant {variant!r}")
    cfg = rank_config(preset, variant)
    machine = cfg.machine_factory()
    process = SimProcess(machine, name="sweep3d")
    _build_image(process)
    model = StaticModel("sweep3d", variant, process, machine, 1)

    model.entry("MAIN__")
    model.call("MAIN__", L_CALL_INNER, "inner_")
    model.call("inner_", L_CALL_SWEEP, "sweep_")

    it, jt, kt = cfg.it, cfg.jt, cfg.kt
    cells = float(it * jt * kt * cfg.octants)
    model.alloc("MAIN__", L_ALLOC_FLUX, "Flux", it * jt * kt * 8,
                kind="malloc")
    model.alloc("MAIN__", L_ALLOC_SRC, "Src", it * jt * kt * 8, kind="malloc")
    model.alloc("MAIN__", L_ALLOC_FACE, "Face", it * jt * 16 * 8,
                kind="malloc")
    for name in ("Flux", "Src", "Face"):
        model.touch("MAIN__", L_TOUCH_INIT, name, by="master")

    # Two distinct source anchors: the unconditional read and the
    # octant-gated read (k % 2 == octant % 2 hits half the cells).
    model.access("sweep_", L_SRC_LOAD, "Src", weight=cells)
    model.access("sweep_", L_SRC_LOAD2, "Src", weight=cells * 0.5)
    model.access("sweep_", L_FLUX_LOAD, "Flux", weight=cells)
    model.access("sweep_", L_FLUX_STORE, "Flux", weight=cells, is_store=True)
    model.access("sweep_", L_FACE_LOAD, "Face",
                 weight=2.0 * float(it * jt * cfg.octants))
    return model


RANK_PRESETS: dict[str, dict] = {
    "smoke": dict(it=12, jt=12, kt=6, octants=2, pmu_period=96),
    "paper": {},
}


def rank_config(preset: str = "smoke", variant: str = "original") -> Config:
    if preset not in RANK_PRESETS:
        raise ValueError(f"unknown sweep3d rank preset {preset!r}")
    return Config(variant=variant, profile=True, **RANK_PRESETS[preset])


def run_rank(
    rank: int, n_ranks: int, variant: str = "original", preset: str = "smoke",
    cfg: Config | None = None,
) -> ProfileDB:
    """Profile a single simulated MPI rank; the parallel-driver entry point."""
    if cfg is None:
        cfg = rank_config(preset, variant)
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown sweep3d variant {cfg.variant!r}")
    cfg = replace(cfg, n_ranks=n_ranks)
    seed = derive_rank_seed(cfg.seed, rank)
    probe = cfg.machine_factory()
    job = MPIJob(
        cfg.machine_factory,
        n_ranks=n_ranks,
        ranks_per_node=min(n_ranks, probe.topology.n_cores),
        threads_per_rank=1,
    )

    def attach(process: SimProcess):
        profiler = DataCentricProfiler(process, cfg.profiler_config).attach()
        process.pmu = IBSEngine(period=cfg.pmu_period, seed=seed)
        return profiler

    result = job.run_one(
        rank, lambda process, r, n: _rank_main(cfg, process, r, n), attach=attach
    )
    return as_rank_db(
        result.attachment.finalize(), "sweep3d", rank, n_ranks, cfg.variant, seed,
        process=result.attachment.process,
    )


def run(cfg: Config) -> AppResult:
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown sweep3d variant {cfg.variant!r}")
    probe = cfg.machine_factory()
    job = MPIJob(
        cfg.machine_factory,
        n_ranks=cfg.n_ranks,
        ranks_per_node=min(cfg.n_ranks, probe.topology.n_cores),
        threads_per_rank=1,
    )

    def attach(process: SimProcess):
        if not cfg.profile:
            return None
        profiler = DataCentricProfiler(process, cfg.profiler_config).attach()
        process.pmu = IBSEngine(period=cfg.pmu_period, seed=cfg.seed + process.pid)
        return profiler

    result: JobResult = job.run(
        lambda process, rank, n: _rank_main(cfg, process, rank, n),
        attach=attach,
    )
    profilers = [r.attachment for r in result.ranks if r.attachment is not None]
    machines = list(result.machines.values())
    return AppResult(
        app="sweep3d",
        variant=cfg.variant,
        elapsed_cycles=result.elapsed_cycles,
        elapsed_seconds=result.elapsed_seconds(),
        phase_seconds=result.phase_seconds(),
        profilers=profilers,
        experiment=analyze_profilers("sweep3d", profilers),
        machines=machines,
        pmu_engines=[],
    )
