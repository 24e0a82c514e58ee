"""AMG2006 — the paper's §5.1 case study (MPI+OpenMP on POWER7 nodes).

The benchmark runs in three phases — *initialization*, *setup*,
*solver* — with 4 MPI ranks (one per POWER7 node) x 128 OpenMP threads.

Pathologies and fixes (Table 2, Figures 4-5):

- The CSR arrays of the multigrid hierarchy (``S_diag_j`` and six
  siblings) are allocated with ``hypre_CAlloc`` (calloc) and zero-touched
  by the master thread, so every page lands on the master's NUMA domain;
  the OpenMP solver loops then fight over one memory controller.
  Figure 4: heap data carries 94.9% of remote accesses; ``S_diag_j``
  22.2%, split 19.3%/2.9% over two access loops.  Figure 5 (bottom-up):
  seven allocation sites each account for >7% of remote accesses.
- ``numactl --interleave=all`` fixes the solver (105s -> 87s) but doubles
  initialization (26s -> 52s) because *every* allocation — including
  serial workspace the master itself consumes — becomes mostly remote.
- The surgical libnuma fix interleaves only the seven flagged arrays
  (and leaves thread-local data under first touch): init stays ~26-28s,
  and the solver beats numactl (80s vs 87s) because per-thread workspace
  remains local.

AMG2006 is also the paper's allocation-tracking stress test (§4.1.3):
its setup phase allocates small blocks at high frequency in deep call
chains — tracking all of them costs +150% runtime, cut to <10% by the
threshold + fast-context + trampoline strategies (the A1 ablation bench).

Variants: ``original``, ``numactl``, ``libnuma``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.apps.common import AppResult, analyze_profilers, as_rank_db
from repro.core.profiledb import ProfileDB
from repro.core.profiler import DataCentricProfiler, ProfilerConfig
from repro.machine.presets import Machine, power7_node
from repro.numa.libnuma import numa_alloc_interleaved
from repro.numa.numactl import numactl_interleave_all
from repro.pmu.events import PM_MRK_DATA_FROM_RMEM
from repro.pmu.marked import MarkedEventEngine
from repro.sim.arrays import SimArray
from repro.sim.loader import LoadModule
from repro.sim.mpi import JobResult, MPIJob
from repro.sim.openmp import declare_outlined, omp_chunk
from repro.sim.process import SimProcess
from repro.sim.runtime import Ctx
from repro.sim.source import SourceFile
from repro.util.rng import derive_rank_seed

__all__ = [
    "Config", "run", "run_rank", "rank_config", "VARIANTS", "PROBLEM_ARRAYS",
    "static_model",
]

VARIANTS = ("original", "numactl", "libnuma")

# The seven problem arrays of Figure 5: (name, size in bytes).
PROBLEM_ARRAYS = (
    ("S_diag_j", 65536),
    ("S_diag_i", 49152),
    ("A_diag_j", 49152),
    ("A_diag_i", 49152),
    ("A_diag_data", 49152),
    ("P_diag_j", 49152),
    ("P_diag_data", 49152),
)

# Source-line anchors for par_amg.c, shared by the program image, the
# kernel, and static_model() (reprolint R009 bans restating them as
# literals there); the extraction drift gate verifies each against the
# interpreted kernel.
L_CALL_BUILD = 20
L_CALL_SETUP = 40
L_CALL_SOLVE = 60
L_CALLOC_BODY = 175
L_ALLOC_WORKSPACE0 = 210   # three workspaces, one line each
L_WORKSPACE_SWEEP = 220
L_CALL_CHURN_ENTRY = 305
L_ALLOC_PROBLEM0 = 330     # seven call sites, one line per array
L_MATRIX_FILL = 340
L_ALLOC_TABLES = 350
L_PARALLEL_RELAX = 460
L_ALLOC_VTEMP = 465
L_TOUCH_VTEMP = 466
L_RELAX_S = 470
L_RELAX_AJ = 471
L_RELAX_AD = 472
L_RELAX_WS = 474
L_PARALLEL_INTERP = 490
L_INTERP_S = 495
L_INTERP_PJ = 496
L_INTERP_PD = 497
L_CHURN_FN0 = 600          # hypre_SetupLevel{d} starts at +20*d
L_CHURN_ALLOC = 604
L_CHURN_FREE = 605


@dataclass
class Config:
    n_ranks: int = 4
    n_threads: int = 128
    solve_iterations: int = 4
    rows: int = 8192
    churn_allocs: int = 15000     # small-allocation frequency in setup (§4.1.3)
    churn_depth: int = 8         # call-chain depth of the churn allocations
    setup_compute: int = 5_200_000  # serial setup arithmetic per rank (cycles)
    init_compute: int = 80_000
    variant: str = "original"
    profile: bool = False
    pmu_period: int = 64
    profiler_config: ProfilerConfig | None = None
    machine_factory: Callable[[], Machine] = power7_node
    compute_per_row: int = 55
    seed: int = 0xA39


def _build_image(process: SimProcess):
    src = SourceFile(
        "par_amg.c",
        {
            L_CALLOC_BODY: "ptr = calloc(count, elt_size);",
            L_ALLOC_PROBLEM0:
                "S_diag_j = hypre_CTAlloc(HYPRE_Int, num_nonzeros_diag);",
            L_RELAX_S:
                "for (jj = A_i[i]; jj < A_i[i+1]; jj++) temp += S_diag_j[jj];",
            L_RELAX_AJ: "jcol = A_diag_j[jj];",
            L_RELAX_AD: "tmp  = A_diag_data[jj];",
            L_RELAX_WS: "vtmp = Vtemp_data[i];",
            L_INTERP_S: "if (S_diag_j[jj] == col) weight += 1.0;",
        },
    )
    exe = LoadModule("amg2006.exe", is_executable=True)
    main_fn = exe.add_function("main", src, 1, 100)
    calloc_fn = exe.add_function("hypre_CAlloc", src, 170, 16)
    build_fn = exe.add_function("hypre_BuildIJLaplacian", src, 200, 60)
    setup_fn = exe.add_function("hypre_BoomerAMGSetup", src, 300, 100)
    churn_fns = [
        exe.add_function(f"hypre_SetupLevel{d}", src, L_CHURN_FN0 + 20 * d, 18)
        for d in range(8)
    ]
    solve_fn = exe.add_function("hypre_BoomerAMGSolve", src, 450, 70)
    relax_region = declare_outlined(exe, solve_fn, L_PARALLEL_RELAX, 25,
                                    region_index=0)
    interp_region = declare_outlined(exe, solve_fn, L_PARALLEL_INTERP, 25,
                                     region_index=1)
    process.load_module(exe)
    return (
        src, main_fn, calloc_fn, build_fn, setup_fn, churn_fns,
        solve_fn, relax_region, interp_region,
    )


def _rank_main(cfg: Config, process: SimProcess, rank: int, n_ranks: int) -> None:
    (src, main_fn, calloc_fn, build_fn, setup_fn, churn_fns,
     solve_fn, relax_region, interp_region) = _build_image(process)

    if cfg.variant == "numactl":
        # Process-wide: every page interleaves, no code changes.
        numactl_interleave_all(process)

    ctx = Ctx(process, process.master)
    ctx.enter(main_fn)
    n_threads = cfg.n_threads
    rows = cfg.rows

    # ---- initialization phase ------------------------------------------------
    with process.phase("init"):
        def build_body(c: Ctx) -> None:
            # Serial workspace the master allocates, zero-fills and later
            # consumes itself.  Interleaving it (numactl) makes both the
            # zero-fill and the consumer remote — the 26s -> 52s pathology.
            workspaces = []
            for w in range(3):
                addr = c.calloc(192 * 1024, line=L_ALLOC_WORKSPACE0 + w,
                                var=f"grid_workspace_{w}")
                workspaces.append(addr)
            ip_sweep = c.ip(L_WORKSPACE_SWEEP)
            for addr in workspaces:
                # Fixed-stride consumer sweep over a contiguous workspace:
                # one batched run per workspace.
                c.load_run(addr, 192 * 1024 // 256, 256, ip_sweep)
            c.compute(cfg.init_compute)

        ctx.call_sync(build_fn, L_CALL_BUILD, build_body)

    # ---- setup phase -----------------------------------------------------------
    arrays: dict[str, SimArray] = {}
    small_tables: list[int] = []
    with process.phase("setup"):
        def setup_body(c: Ctx) -> None:
            # The seven problem arrays, each from its own call site into
            # the hypre allocator (Figure 5's bottom-up sites).
            for idx, (name, nbytes) in enumerate(PROBLEM_ARRAYS):
                if cfg.variant == "libnuma":
                    arrays[name] = numa_alloc_interleaved(
                        c, name, (nbytes // 4,), line=L_ALLOC_PROBLEM0 + idx,
                        elem=4, kind="calloc"
                    )
                else:
                    def do_alloc(cc: Ctx, nb=nbytes, nm=name) -> SimArray:
                        base = cc.calloc(nb, line=L_CALLOC_BODY, var=nm)
                        return SimArray(nm, base, (nb // 4,), elem=4)

                    arrays[name] = c.call_sync(
                        calloc_fn, L_ALLOC_PROBLEM0 + idx, do_alloc
                    )

            # High-frequency small allocations in deep call chains: the
            # §4.1.3 overhead stress (+150% when tracked exhaustively).
            def churn(cc: Ctx, depth: int, count: int):
                if depth == 0:
                    live = []
                    for k in range(count):
                        live.append(
                            cc.malloc(192 + (k % 4) * 16, line=L_CHURN_ALLOC,
                                      var="churn")
                        )
                        if len(live) > 16:
                            cc.free(live.pop(0), line=L_CHURN_FREE)
                    for addr in live:
                        cc.free(addr, line=L_CHURN_FREE)
                    return None
                callee = churn_fns[depth - 1]
                call_line = cc.thread.current_function.start_line + 5
                return cc.call_sync(callee, call_line, churn, depth - 1, count)

            batch = max(1, cfg.churn_allocs // 8)
            for _ in range(8):
                churn(c, cfg.churn_depth, batch)

            # Sub-threshold lookup tables shared by the solver threads:
            # untracked (below the 4KB threshold), so their samples land
            # in *unknown data* — Figure 4's ~5% non-heap remainder.
            for t in range(8):
                small_tables.append(c.malloc(3968, line=L_ALLOC_TABLES))
                c.touch_range(small_tables[-1], 3968, line=L_ALLOC_TABLES)

            # Master fills the matrix entries (sequential writes) — one
            # batched store run per array.
            ip_fill = c.ip(L_MATRIX_FILL)
            for name, _ in PROBLEM_ARRAYS[:3]:
                arr = arrays[name]
                c.store_run(arr.base, arr.nbytes // 512, 512, ip_fill)
            c.compute(cfg.setup_compute)

        ctx.call_sync(setup_fn, L_CALL_SETUP, setup_body)

    # ---- solver phase --------------------------------------------------------------
    with process.phase("solve"):
        s_diag_j = arrays["S_diag_j"]
        s_diag_i = arrays["S_diag_i"]
        a_diag_i = arrays["A_diag_i"]
        a_diag_j = arrays["A_diag_j"]
        a_diag_data = arrays["A_diag_data"]
        p_diag_j = arrays["P_diag_j"]
        p_diag_data = arrays["P_diag_data"]
        # Per-thread workspace: allocated and first-touched by each worker
        # inside the first parallel region — local under first touch and
        # libnuma, scattered under numactl (its solver handicap).
        worker_ws: dict[int, int] = {}

        def relax_factory(iteration: int):
            ip_s = relax_region.ip(L_RELAX_S)
            ip_ai = relax_region.ip(L_RELAX_S, 1)
            ip_aj = relax_region.ip(L_RELAX_AJ)
            ip_ad = relax_region.ip(L_RELAX_AD)
            ip_ws = relax_region.ip(L_RELAX_WS)
            # One row's CSR walk, in access order: the row pointer, then
            # per nonzero S_diag_j (first two only), A_diag_j and
            # A_diag_data, then two workspace loads and, every 12th row,
            # a table poke (the gather drops the tail entry otherwise).
            row_ips = (
                ip_ai, ip_s, ip_aj, ip_ad, ip_s, ip_aj, ip_ad,
                ip_aj, ip_ad, ip_aj, ip_ad, ip_ws, ip_ws, ip_ws,
            )
            row_stores = (False,) * len(row_ips)
            n_ai = a_diag_i.size
            n_sj = s_diag_j.size
            n_aj = a_diag_j.size
            n_ad = a_diag_data.size

            def worker(wctx: Ctx, tid: int):
                ws = worker_ws.get(tid)
                if ws is None:
                    ws = wctx.malloc(16 * 1024, line=L_ALLOC_VTEMP,
                                     var="Vtemp_data")
                    wctx.touch_range(ws, 16 * 1024, line=L_TOUCH_VTEMP)
                    worker_ws[tid] = ws
                chunk = omp_chunk(rows, n_threads, (tid + iteration * 31) % n_threads)
                for j, row in enumerate(chunk):
                    nnz0 = row * 12
                    vaddrs = [a_diag_i.flat_addr(row % n_ai)]
                    for jj in range(4):
                        k = (nnz0 + jj * 3) % n_sj
                        if jj < 2:
                            vaddrs.append(s_diag_j.flat_addr(k))
                        vaddrs.append(a_diag_j.flat_addr(k % n_aj))
                        vaddrs.append(a_diag_data.flat_addr(k % n_ad))
                    vaddrs.append(ws + (row % 256) * 64)
                    vaddrs.append(ws + ((row * 7) % 256) * 64)
                    if row % 12 == 5:
                        tbl = small_tables[row % len(small_tables)]
                        vaddrs.append(tbl + ((row * 11) % 60) * 64)
                    wctx.access_gather(vaddrs, row_ips, row_stores)
                    wctx.compute(cfg.compute_per_row)
                    if j % 4 == 3:
                        yield
                yield

            return worker

        def interp_factory(iteration: int):
            ip_s2 = interp_region.ip(L_INTERP_S)
            ip_si = interp_region.ip(L_INTERP_S, 1)
            ip_pj = interp_region.ip(L_INTERP_PJ)
            ip_pd = interp_region.ip(L_INTERP_PD)
            # Rows with and without the S_diag_j strength check.
            strong_ips = (ip_si, ip_si, ip_s2, ip_pj, ip_pd)
            weak_ips = (ip_si, ip_si, ip_pj, ip_pd)
            no_stores = (False,) * len(strong_ips)

            def worker(wctx: Ctx, tid: int):
                chunk = omp_chunk(
                    rows // 2, n_threads, (tid + iteration * 13) % n_threads
                )
                for j, row in enumerate(chunk):
                    head = (
                        s_diag_i.flat_addr((row * 19) % s_diag_i.size),
                        a_diag_i.flat_addr((row * 3) % a_diag_i.size),
                    )
                    tail = (
                        p_diag_j.flat_addr((row * 11) % p_diag_j.size),
                        p_diag_data.flat_addr((row * 5) % p_diag_data.size),
                    )
                    if row % 8 == 1:
                        strong = (s_diag_j.flat_addr((row * 23) % s_diag_j.size),)
                        wctx.access_gather(head + strong + tail, strong_ips,
                                           no_stores)
                    else:
                        wctx.access_gather(head + tail, weak_ips, no_stores)
                    wctx.compute(cfg.compute_per_row // 2)
                    if j % 4 == 3:
                        yield
                yield

            return worker

        def solve_body(c: Ctx) -> None:
            for it in range(cfg.solve_iterations):
                c.parallel(relax_region, relax_factory(it), n_threads,
                           line=L_PARALLEL_RELAX)
                c.parallel(interp_region, interp_factory(it), n_threads,
                           line=L_PARALLEL_INTERP)
                c.comm(rows * 8)  # halo exchange with neighbor ranks

        ctx.call_sync(solve_fn, L_CALL_SOLVE, solve_body)

    ctx.leave()


def static_model(variant: str = "original", preset: str = "smoke"):
    """Declarations for the static analyzer (see repro.staticcheck.model).

    The seven problem arrays all allocate through one ``hypre_CAlloc``
    site (line 175) reached from seven distinct call contexts — Figure
    5's bottom-up shape; calloc under first touch makes the master the
    placement committer, so all seven fire H001 in the original variant.
    The churn chain allocates in a loop but frees (no H003); the
    per-worker ``Vtemp_data`` allocates inside the relax region and
    never frees (H003 in *every* variant — a true finding).
    """
    from repro.sim.openmp import outlined_name
    from repro.staticcheck.model import StaticModel

    if variant not in VARIANTS:
        raise ValueError(f"unknown amg2006 variant {variant!r}")
    cfg = rank_config(preset, variant)
    machine = cfg.machine_factory()
    process = SimProcess(machine, name="amg2006")
    _build_image(process)
    model = StaticModel(
        "amg2006", variant, process, machine, cfg.n_threads,
        process_interleaved=(variant == "numactl"),
    )
    relax_region = outlined_name("hypre_BoomerAMGSolve", 0)
    interp_region = outlined_name("hypre_BoomerAMGSolve", 1)

    model.entry("main")
    model.call("main", L_CALL_BUILD, "hypre_BuildIJLaplacian")
    model.call("main", L_CALL_SETUP, "hypre_BoomerAMGSetup")
    model.call("main", L_CALL_SOLVE, "hypre_BoomerAMGSolve")
    model.parallel_region("hypre_BoomerAMGSolve", L_PARALLEL_RELAX,
                          relax_region, cfg.n_threads)
    model.parallel_region("hypre_BoomerAMGSolve", L_PARALLEL_INTERP,
                          interp_region, cfg.n_threads)
    # The churn call chain: setup -> SetupLevel7 -> ... -> SetupLevel0.
    model.call("hypre_BoomerAMGSetup", L_CALL_CHURN_ENTRY, "hypre_SetupLevel7")
    for d in range(7, 0, -1):
        model.call(f"hypre_SetupLevel{d}", L_CHURN_FN0 + 20 * d + 5,
                   f"hypre_SetupLevel{d - 1}")

    rows = float(cfg.rows)
    iters = float(cfg.solve_iterations)

    # Serial workspace: calloc'd, filled and consumed by the master only
    # — no parallel access, so H001 must NOT fire (interleaving it is the
    # paper's numactl init pathology, not a first-touch defect).
    for w in range(3):
        name = f"grid_workspace_{w}"
        model.alloc("hypre_BuildIJLaplacian", L_ALLOC_WORKSPACE0 + w, name,
                    192 * 1024, kind="calloc")
        model.access("hypre_BuildIJLaplacian", L_WORKSPACE_SWEEP, name,
                     weight=192 * 1024 / 256)

    # The seven problem arrays: libnuma interleaves them at their call
    # sites; otherwise each goes through the shared hypre_CAlloc site.
    for idx, (name, nbytes) in enumerate(PROBLEM_ARRAYS):
        if variant == "libnuma":
            model.alloc(
                "hypre_BoomerAMGSetup", L_ALLOC_PROBLEM0 + idx, name, nbytes,
                kind="numa_interleaved",
            )
        else:
            model.call("hypre_BoomerAMGSetup", L_ALLOC_PROBLEM0 + idx,
                       "hypre_CAlloc")
            model.alloc("hypre_CAlloc", L_CALLOC_BODY, name, nbytes,
                        kind="calloc")

    model.alloc("hypre_SetupLevel0", L_CHURN_ALLOC, "churn", 256,
                kind="malloc", in_loop=True)
    model.free("hypre_SetupLevel0", L_CHURN_FREE, "churn")
    model.alloc("hypre_BoomerAMGSetup", L_ALLOC_TABLES, "small_tables",
                8 * 3968, kind="malloc")
    model.touch("hypre_BoomerAMGSetup", L_ALLOC_TABLES, "small_tables",
                by="master")

    # Master matrix fill (one batched store run each, first three arrays).
    for name, nbytes in PROBLEM_ARRAYS[:3]:
        model.access(
            "hypre_BoomerAMGSetup", L_MATRIX_FILL, name, weight=nbytes / 512,
            is_store=True
        )

    # Per-worker solver workspace: allocated inside the relax region,
    # first-touched by its worker, never freed.
    model.alloc(relax_region, L_ALLOC_VTEMP, "Vtemp_data", 16 * 1024,
                kind="malloc")
    model.touch(relax_region, L_TOUCH_VTEMP, "Vtemp_data", by="workers")

    # Relax sweep: per row one A_diag_i load, two S_diag_j loads, four
    # A_diag_j/A_diag_data loads, two workspace loads, a table poke.
    model.access(relax_region, L_RELAX_S, "A_diag_i", weight=rows * iters)
    model.access(relax_region, L_RELAX_S, "S_diag_j",
                 weight=2 * rows * iters)
    model.access(relax_region, L_RELAX_AJ, "A_diag_j",
                 weight=4 * rows * iters)
    model.access(relax_region, L_RELAX_AD, "A_diag_data",
                 weight=4 * rows * iters)
    model.access(relax_region, L_RELAX_WS, "Vtemp_data",
                 weight=2 * rows * iters)
    model.access(relax_region, L_RELAX_WS, "small_tables",
                 weight=rows * iters / 12)

    # Interpolation sweep over rows/2.
    half = rows / 2
    model.access(interp_region, L_INTERP_S, "S_diag_i", weight=half * iters)
    model.access(interp_region, L_INTERP_S, "A_diag_i", weight=half * iters)
    model.access(interp_region, L_INTERP_S, "S_diag_j",
                 weight=half * iters / 8)
    model.access(interp_region, L_INTERP_PJ, "P_diag_j", weight=half * iters)
    model.access(interp_region, L_INTERP_PD, "P_diag_data",
                 weight=half * iters)
    return model


def _power7_smt1() -> Machine:
    """Smoke-preset node: SMT off so 32 threads still span all 4 sockets
    (all-on-socket-0 pinning would never trigger a remote-memory event)."""
    return power7_node(smt=1)


# Scaled-down knobs for the multiprocess driver's quick runs; "paper"
# keeps the Config defaults (the paper's 4-rank POWER7 geometry).
RANK_PRESETS: dict[str, dict] = {
    "smoke": dict(
        n_threads=32,
        rows=2048,
        solve_iterations=2,
        churn_allocs=2000,
        setup_compute=400_000,
        pmu_period=24,
        machine_factory=_power7_smt1,
    ),
    "paper": {},
}


def rank_config(preset: str = "smoke", variant: str = "original") -> Config:
    if preset not in RANK_PRESETS:
        raise ValueError(f"unknown amg2006 rank preset {preset!r}")
    return Config(variant=variant, profile=True, **RANK_PRESETS[preset])


def run_rank(
    rank: int, n_ranks: int, variant: str = "original", preset: str = "smoke",
    cfg: Config | None = None,
) -> ProfileDB:
    """Profile a single simulated MPI rank; the parallel-driver entry point.

    Each rank gets a fresh node machine (the driver runs ranks in
    separate OS processes, so nothing can be shared anyway) and a
    decorrelated deterministic seed, making any rank reproducible in
    isolation — the property crash-retry relies on.
    """
    if cfg is None:
        cfg = rank_config(preset, variant)
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown amg2006 variant {cfg.variant!r}")
    cfg = replace(cfg, n_ranks=n_ranks)
    seed = derive_rank_seed(cfg.seed, rank)
    job = MPIJob(
        cfg.machine_factory,
        n_ranks=n_ranks,
        ranks_per_node=1,
        threads_per_rank=cfg.n_threads,
    )

    def attach(process: SimProcess):
        profiler = DataCentricProfiler(process, cfg.profiler_config).attach()
        process.pmu = MarkedEventEngine(
            PM_MRK_DATA_FROM_RMEM, period=cfg.pmu_period, seed=seed
        )
        return profiler

    result = job.run_one(
        rank, lambda process, r, n: _rank_main(cfg, process, r, n), attach=attach
    )
    return as_rank_db(
        result.attachment.finalize(), "amg2006", rank, n_ranks, cfg.variant, seed,
        process=result.attachment.process,
    )


def run(cfg: Config) -> AppResult:
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown amg2006 variant {cfg.variant!r}")
    job = MPIJob(
        cfg.machine_factory,
        n_ranks=cfg.n_ranks,
        ranks_per_node=1,   # one MPI process per POWER7 node, as in the paper
        threads_per_rank=cfg.n_threads,
    )

    def attach(process: SimProcess):
        if not cfg.profile:
            return None
        profiler = DataCentricProfiler(process, cfg.profiler_config).attach()
        process.pmu = MarkedEventEngine(
            PM_MRK_DATA_FROM_RMEM, period=cfg.pmu_period, seed=cfg.seed + process.pid
        )
        return profiler

    result: JobResult = job.run(
        lambda process, rank, n: _rank_main(cfg, process, rank, n),
        attach=attach,
    )
    profilers = [r.attachment for r in result.ranks if r.attachment is not None]
    return AppResult(
        app="amg2006",
        variant=cfg.variant,
        elapsed_cycles=result.elapsed_cycles,
        elapsed_seconds=result.elapsed_seconds(),
        phase_seconds=result.phase_seconds(),
        profilers=profilers,
        experiment=analyze_profilers("amg2006", profilers),
        machines=list(result.machines.values()),
        pmu_engines=[],
    )
