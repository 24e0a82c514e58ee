"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload has:

- ``setup()`` — generate this seed's inputs (repeatable); returns its
  host and reference seconds, which the runner reports as ``setup_s``;
- ``unit()`` — one timed unit of work (a profiling job, a serve cycle,
  a static audit), returning a :class:`Unit` with its timings (host and
  reference seconds, see ``refclock.py``) and the outputs the checks need;
- ``check(units)`` — output checks run after the timed window; a
  mismatch is counted as a failed operation, it never aborts the run;
- ``traced_unit(tracer)`` and ``probe()`` for the traced run.

The workload seed drives every generated input (rank seed bases, the
leaf mix and order, the query mix, the audit order); ``repro`` only
ever sees those generated inputs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import heapq
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from refclock import HostClock, RefClock

_clock = time.perf_counter

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

VARIANT = "original"
JOBS = 2  # worker processes: the container's nproc


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit input seed for ``label``, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Unit:
    """One timed unit of work and what the checks need from it.

    ``host`` holds seconds per phase; ``ref`` the same phases scaled to
    the reference speed.  Both carry a ``wall`` key, the whole unit.
    """

    attempted: int
    failed: int = 0
    host: dict[str, float] = field(default_factory=dict)
    ref: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)

    def add(self, phase: str, host_s: float, ref_s: float) -> None:
        for times, value in ((self.host, host_s), (self.ref, ref_s)):
            times[phase] = times.get(phase, 0.0) + value
            times["wall"] = times.get("wall", 0.0) + value


def _times(ref: bool):
    return (lambda u: u.ref) if ref else (lambda u: u.host)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


# -- profiling jobs ---------------------------------------------------------------


@contextmanager
def _recording_hierarchies():
    """Collect every MemoryHierarchy built inside the block.

    Used to read the rank's deterministic simulated-access total after
    it finishes; construction is far off the access hot path.
    """
    from repro.machine.hierarchy import MemoryHierarchy

    made: list = []
    original = MemoryHierarchy.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    MemoryHierarchy.__init__ = init
    try:
        yield made
    finally:
        MemoryHierarchy.__init__ = original


def _clocked_runner(workload, module, cfg, record_dir: Path, preset: str):
    """A registry runner for ``module``'s ranks that also writes, per rank,
    its simulated accesses and its host and reference seconds, measured
    in the driver worker: that worker's CPU is the one whose speed counts."""

    def runner(rank, n_ranks, variant=VARIANT, preset=preset):
        with RefClock() if workload.clock_ranks else HostClock() as clock:
            with _recording_hierarchies() as made:
                db = module.run_rank(rank, n_ranks, variant=variant,
                                     preset=preset, cfg=cfg)
            host, ref = clock.lap()
        record_dir.mkdir(parents=True, exist_ok=True)
        accesses = sum(h.total_accesses() for h in made)
        (record_dir / f"{rank:04d}.acc").write_text(json.dumps(
            {"accesses": accesses, "host_s": host, "ref_s": ref}))
        return db

    return runner


def _rank_records(record_dir: Path) -> list[dict[str, float]]:
    return [json.loads(p.read_text()) for p in sorted(record_dir.glob("*.acc"))]


def _profile_scale(record_dir: Path) -> float:
    """Reference over host time of a ``profile_ranks`` stage.

    The driver starts ranks in rank order as its JOBS slots free up, so
    the slot that ends last sets the stage's time.
    """
    records = _rank_records(record_dir)
    return (_makespan([r["ref_s"] for r in records])
            / _makespan([r["host_s"] for r in records]))


def _makespan(durations: list[float]) -> float:
    """End of the last of ``durations`` started in order on JOBS slots."""
    slots = [0.0] * JOBS
    for duration in durations:
        heapq.heapreplace(slots, slots[0] + duration)
    return max(slots)


class JobWorkload:
    """Apps at the ``paper`` preset through driver -> merge -> views."""

    PRESET = "paper"
    RANKS = 4
    APPS: dict[str, tuple[str, ...]] = {
        "job-proxy": ("amg2006", "lulesh", "sweep3d"),
        "job-rodinia": ("nw", "streamcluster"),
    }
    PROBE_APP = {"job-proxy": "lulesh", "job-rodinia": "nw"}  # ~1 s per rank
    IMPORTS = (
        "repro.parallel.driver", "repro.parallel.merge", "repro.core.analyzer",
        "repro.metrics",
    )

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.apps = self.APPS[name]
        self.work_dir = work_dir
        self.out_root = work_dir / "measurements"
        self.imports = self.IMPORTS + tuple(f"repro.apps.{a}" for a in self.apps)
        self.clock_ranks = True  # sample the speed in each rank's worker

    def pin_key(self) -> str:
        return f"{self.name}/{self.PRESET}/{self.RANKS}"

    def runner_name(self, app: str) -> str:
        return f"bench.{self.name}.{app}"

    def setup(self) -> tuple[float, float]:
        """Register each app's seeded runner; host and reference seconds."""
        from repro.parallel import registry

        with RefClock() as clock:
            for app in self.apps:
                base = derive_seed(self.seed, f"{self.name}/{app}")
                module = importlib.import_module(f"repro.apps.{app}")
                cfg = dataclasses.replace(
                    module.rank_config(self.PRESET, VARIANT), seed=base
                )
                registry.register_app(self.runner_name(app), _clocked_runner(
                    self, module, cfg, self._records(app), self.PRESET))
            shutil.rmtree(self.out_root, ignore_errors=True)
            self.out_root.mkdir(parents=True)
            return clock.lap()

    def _records(self, app: str) -> Path:
        return self.out_root / self.runner_name(app)

    def _accesses(self, app: str) -> int:
        return sum(r["accesses"] for r in _rank_records(self._records(app)))

    def _pipeline(self, tracer=None) -> Unit:
        import repro.metrics as rmetrics
        from repro.core.analyzer import ExperimentDB
        from repro.core.metrics import MetricKind
        from repro.parallel import driver, merge

        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir(parents=True)
        unit = Unit(attempted=0)
        merged = {}
        reports = []
        for app in self.apps:
            t0 = _clock()
            report = driver.profile_ranks(
                self.runner_name(app), self.RANKS, self.out_root,
                variant=VARIANT, preset=self.PRESET, jobs=JOBS,
            )
            host = _clock() - t0
            unit.add("profile", host, host * _profile_scale(self._records(app)))
            reports.append(report)
            # Merge and views, in this process; no sampling inside a trace.
            with RefClock() if tracer is None else HostClock() as clock:
                if tracer is not None:
                    tracer.install()
                try:
                    db, stats, mreport = merge.merge_rpdb_files(
                        report.paths, name=app, jobs=JOBS
                    )
                    exp = ExperimentDB(db, stats)
                    exp.top_down(MetricKind.LATENCY)
                    exp.bottom_up(MetricKind.LATENCY)
                    rmetrics.evaluate_boundness(rmetrics.ProfileSource(exp))
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                unit.add("post", *clock.lap())
            merged[app] = db
            unit.attempted += self.RANKS + 2  # ranks, merge, views
            unit.failed += len(report.failed_ranks) + int(mreport.partial)
        unit.outputs["digests"] = {
            app: sha256(db.canonical_bytes()) for app, db in merged.items()
        }
        unit.outputs["accesses"] = sum(self._accesses(app) for app in self.apps)
        unit.outputs["reports"] = reports
        return unit

    def unit(self, last: bool = False) -> Unit:
        return self._pipeline()

    def check(self, units: list[Unit]) -> CheckResult:
        """Digests repeat across units, match a sequential in-process
        merge of the last unit's rank files, and match the pins."""
        from repro.core.merge import merge_profiles
        from repro.core.profiledb import ProfileDB

        result = CheckResult()
        first = units[0].outputs["digests"]
        for unit in units[1:]:
            for app in self.apps:
                result.expect(unit.outputs["digests"][app] == first[app],
                              f"{app}: merged digest changed between jobs")
        for app in self.apps:
            paths = sorted((self.out_root / self.runner_name(app)).glob("*.rpdb"))
            dbs = [ProfileDB.from_bytes(p.read_bytes()) for p in paths]
            reference = sha256(merge_profiles(dbs, name=app).canonical_bytes())
            result.expect(reference == units[-1].outputs["digests"][app],
                          f"{app}: pool merge differs from sequential merge")
        pinned = load_pins()["job_digests"].get(self.pin_key(), {}).get(str(self.seed))
        if pinned is not None:
            for app in self.apps:
                result.expect(first[app] == pinned[app],
                              f"{app}: digest differs from the pinned one")
        accesses = {unit.outputs["accesses"] for unit in units}
        result.expect(len(accesses) == 1, "simulated access count changed")
        return result

    def metrics(self, units: list[Unit], ref: bool) -> dict[str, tuple[float, str]]:
        times = _times(ref)
        walls = [times(u)["wall"] for u in units]
        rates = [u.outputs["accesses"] / times(u)["profile"] for u in units]
        return {
            "job_wall_s": (statistics.median(walls), "s"),
            "sim_accesses_per_s": (statistics.median(rates), "accesses/s"),
        }

    def headline(self, detail: dict) -> tuple[float, float]:
        return detail["job_wall_s"][0], detail["sim_accesses_per_s"][0]

    # -- traced run --------------------------------------------------------------

    def traced_unit(self, tracer) -> tuple[Unit, dict[str, Any]]:
        """The real pipeline (driver pass untraced: its workers are other
        processes), then every rank again in-process with the tracer on,
        through ``run_app_rank`` — the function the driver's workers call.
        Each in-process rank must encode to the same bytes its worker wrote."""
        from repro.parallel.registry import run_app_rank

        unit = self._pipeline(tracer)
        self.clock_ranks = False  # no speed sampling inside the traced ranks
        with tracer.installed():
            for app in self.apps:
                for rank in range(self.RANKS):
                    with tracer.span("apps.kernel"):
                        db = run_app_rank(self.runner_name(app), rank, self.RANKS,
                                          variant=VARIANT, preset=self.PRESET)
                    blob = db.to_bytes()
                    path = self.out_root / self.runner_name(app) / f"{rank:04d}.rpdb"
                    unit.attempted += 1
                    unit.failed += blob != path.read_bytes()
        reports = unit.outputs["reports"]
        seen = tracer.calls("MemoryHierarchy.access") + tracer.counts["machine.run_accesses"]
        return unit, {
            "leaves": len(self.apps) * self.RANKS,
            "access_coverage": seen / max(unit.outputs["accesses"], 1),
            "driver.rank_s": sum(o.elapsed_seconds for r in reports for o in r.outcomes),
            "driver.retries": sum(o.retries for r in reports for o in r.outcomes),
            "driver.failed_ranks": sum(len(r.failed_ranks) for r in reports),
        }

    def probe(self) -> None:
        from repro.parallel.registry import run_app_rank

        run_app_rank(self.runner_name(self.PROBE_APP[self.name]), 0, self.RANKS,
                     variant=VARIANT, preset=self.PRESET)




# -- continuous-profiling service ---------------------------------------------------


async def _open_loop(client, rate: float, items: list, send) -> tuple[list, list]:
    """Send ``items`` on a fixed schedule, one every ``1/rate`` seconds.

    Latency is timed from each request's due time, so a stall also
    charges the requests queued behind it; lateness is how far behind
    schedule the generator sent each request.
    """
    latencies, late = [], []
    start = _clock()
    for i, item in enumerate(items):
        due = start + i / rate
        delay = due - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, _clock() - due))
        await send(client, item)
        latencies.append(_clock() - due)
    return latencies, late


class ServeWorkload:
    """Smoke-preset leaves of all five apps into an in-process service."""

    APPS = ("amg2006", "lulesh", "nw", "streamcluster", "sweep3d")
    LEAF_RANKS = 2          # distinct leaves (rank seeds) per app
    BURST = 200             # closed-loop ingest burst, blobs
    CONNECTIONS = 2
    MIXED_SECONDS = 5.0     # once, in the run's last unit: >= 200 samples
    INGEST_RATE = 40.0      # open-loop mixed phase, requests/s
    QUERY_RATE = 40.0
    COMPACT_EVERY = 12      # auto-compaction period per app, leaves
    VIEWS = ("topdown", "bottomup", "variables")
    QUERY_METRICS = ("latency", "samples", "remote")
    LAST_EXTRA_S = MIXED_SECONDS
    IMPORTS = ("repro.serve", "repro.parallel.driver") + tuple(
        f"repro.apps.{a}" for a in APPS
    )

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.imports = self.IMPORTS
        self.leaves: list[tuple[str, bytes]] = []
        self.cycles = 0
        self.stores: list[tuple[Path, dict[str, int]]] = []
        self.clock_ranks = True

    def setup(self) -> tuple[float, float]:
        """Profile LEAF_RANKS ranks of every app (driver, 2 workers) and
        lay out this seed's burst order and mixed-phase schedules.

        Returns host and reference seconds; the whole set-up is scaled by
        the speed the leaf-building ranks sampled in their workers.
        """
        from repro.parallel import driver, registry

        t_setup = _clock()
        profile_host = profile_ref = 0.0
        leaf_root = self.work_dir / "leaves"
        shutil.rmtree(leaf_root, ignore_errors=True)
        leaves = []
        for app in self.APPS:
            module = importlib.import_module(f"repro.apps.{app}")
            cfg = dataclasses.replace(
                module.rank_config("smoke", VARIANT),
                seed=derive_seed(self.seed, f"serve/{app}"),
            )
            name = f"bench.serve.{app}"
            registry.register_app(name, _clocked_runner(
                self, module, cfg, leaf_root / name, "smoke"))
            t0 = _clock()
            report = driver.profile_ranks(
                name, self.LEAF_RANKS, leaf_root, variant=VARIANT,
                preset="smoke", jobs=JOBS,
            )
            host = _clock() - t0
            if not report.ok:
                raise RuntimeError(f"leaf build failed: {report.summary()}")
            profile_host += host
            profile_ref += host * _profile_scale(leaf_root / name)
            leaves.extend((app, path.read_bytes()) for path in report.paths)
        self.leaves = leaves
        rng = random.Random(derive_seed(self.seed, "serve/mix"))
        by_app = {
            app: [i for i, (owner, _) in enumerate(leaves) if owner == app]
            for app in self.APPS
        }

        def mix(n: int) -> list[int]:
            # Every app gets the same share (leaf sizes differ ~20x
            # between apps); the seed picks each app's leaves and the order.
            picks = [rng.choice(by_app[app]) for app in self.APPS
                     for _ in range(n // len(self.APPS))]
            rng.shuffle(picks)
            return picks

        self.burst = mix(self.BURST)
        self.mixed_ingest = mix(int(self.MIXED_SECONDS * self.INGEST_RATE))
        self.mixed_query = [
            (self.APPS[i % len(self.APPS)], rng.choice(self.VIEWS),
             rng.choice(self.QUERY_METRICS))
            for i in range(int(self.MIXED_SECONDS * self.QUERY_RATE))
        ]
        rng.shuffle(self.mixed_query)
        host = _clock() - t_setup
        return host, host * profile_ref / profile_host

    def unit(self, last: bool = False, tracer=None) -> Unit:
        """Burst and explicit compaction on a fresh store; the run's last
        unit adds the mixed phase."""
        from repro.serve import ProfileService, ProfileStore

        self.cycles += 1
        root = self.work_dir / f"store-{self.cycles}"
        shutil.rmtree(root, ignore_errors=True)
        store = ProfileStore(root, shards=8, arity=16)
        service = ProfileService(store, queue_size=64, compact_every=0)
        unit = Unit(attempted=0)
        unit.outputs.update(sent={}, errors=0)
        asyncio.run(self._cycle(service, unit, tracer, last))
        unit.failed += unit.outputs["errors"]
        self.stores.append((root, unit.outputs["sent"]))
        return unit

    async def _cycle(self, service, unit: Unit, tracer, mixed: bool) -> None:
        from repro.errors import ServeError
        from repro.serve import ServeClient

        sent = unit.outputs["sent"]

        async def ingest(client, index: int) -> None:
            app, blob = self.leaves[index]
            unit.attempted += 1
            try:
                await client.ingest(app, blob)
            except ServeError:
                unit.outputs["errors"] += 1
            else:
                sent[app] = sent.get(app, 0) + 1

        async def query(client, item) -> None:
            app, view, metric = item
            unit.attempted += 1
            try:
                await client.query(app, view, metric=metric)
            except ServeError:
                unit.outputs["errors"] += 1

        async def burst(client, picks) -> None:
            for index in picks:
                await ingest(client, index)

        host, port = await service.start()
        clients = [ServeClient(host, port) for _ in range(self.CONNECTIONS)]
        try:
            for client in clients:
                await client.connect()

            decodes = tracer.calls("ProfileDB.from_bytes") if tracer else 0
            with RefClock() if tracer is None else HostClock() as clock:
                # 1. closed loop: each connection sends its next blob as
                #    soon as the previous one is acked.
                await asyncio.gather(*(
                    burst(client, self.burst[i::self.CONNECTIONS])
                    for i, client in enumerate(clients)
                ))
                unit.add("burst", *clock.lap())

                # 2. explicit compaction of every app
                folded = 0
                for app in self.APPS:
                    unit.attempted += 1
                    try:
                        folded += (await clients[0].compact(app))["leaves_folded"]
                    except ServeError:
                        unit.outputs["errors"] += 1
                unit.add("compact", *clock.lap())
            if tracer is not None:
                unit.outputs["decodes_per_leaf"] = (
                    tracer.calls("ProfileDB.from_bytes") - decodes
                ) / self.BURST

            # 3. mixed open loop: one connection ingests, the other
            #    queries, each at a fixed rate; auto-compaction on.
            if mixed:
                service.compact_every = self.COMPACT_EVERY
                (ingest_lat, ingest_late), (query_lat, query_late) = await asyncio.gather(
                    _open_loop(clients[0], self.INGEST_RATE, self.mixed_ingest, ingest),
                    _open_loop(clients[1], self.QUERY_RATE, self.mixed_query, query),
                )
                unit.samples.update(ingest_lat=ingest_lat, query_lat=query_lat,
                                    late=ingest_late + query_late)
        finally:
            for client in clients:
                await client.close()
            await service.stop()
        unit.outputs["folded"] = folded

    def check(self, units: list[Unit]) -> CheckResult:
        """Every rollup is byte-identical to a sequential re-merge and
        covers exactly the leaves sent."""
        from repro.serve import ProfileStore

        result = CheckResult()
        for root, sent in self.stores:
            store = ProfileStore(root, shards=8, arity=16)
            for app in self.APPS:
                store.compact(app)
                identical, covered = store.verify_rollup(app)
                result.expect(identical, f"{root.name}/{app}: rollup diverged")
                result.expect(covered == sent.get(app, 0),
                              f"{root.name}/{app}: rollup covers {covered} "
                              f"leaves, {sent.get(app, 0)} sent")
            shutil.rmtree(root, ignore_errors=True)
        self.stores.clear()
        return result

    def metrics(self, units: list[Unit], ref: bool) -> dict[str, tuple[float, str]]:
        times = _times(ref)
        ingest = [x for u in units for x in u.samples.get("ingest_lat", ())]
        query = [x for u in units for x in u.samples.get("query_lat", ())]
        late = [x for u in units for x in u.samples.get("late", ())]
        return {
            "serve_closed_wall_s": (statistics.median(
                times(u)["wall"] for u in units), "s"),
            "ingest_blobs_per_s": (statistics.median(
                self.BURST / times(u)["burst"] for u in units), "blobs/s"),
            "compact_leaves_per_s": (statistics.median(
                u.outputs["folded"] / times(u)["compact"] for u in units),
                "leaves/s"),
            "ingest_p50_ms": (1e3 * percentile(ingest, 50), "ms"),
            "ingest_p95_ms": (1e3 * percentile(ingest, 95), "ms"),
            "query_p50_ms": (1e3 * percentile(query, 50), "ms"),
            "query_p95_ms": (1e3 * percentile(query, 95), "ms"),
            "generator_late_p95_ms": (1e3 * percentile(late, 95), "ms"),
            "ingest_samples": (len(ingest), "count"),
            "query_samples": (len(query), "count"),
        }

    def headline(self, detail: dict) -> tuple[float, float]:
        return detail["serve_closed_wall_s"][0], detail["ingest_blobs_per_s"][0]

    def traced_unit(self, tracer) -> tuple[Unit, dict[str, Any]]:
        with tracer.installed():
            unit = self.unit(last=True, tracer=tracer)
        return unit, {
            "leaves": sum(unit.outputs["sent"].values()),
            "serve.rejected": unit.outputs["errors"],
            "codec.decodes_per_leaf": unit.outputs["decodes_per_leaf"],
        }

    def probe(self) -> None:
        """Ingest, compact and query straight against store and engine."""
        from repro.serve import ProfileStore, QueryEngine

        root = self.work_dir / "probe-store"
        shutil.rmtree(root, ignore_errors=True)
        store = ProfileStore(root, shards=8, arity=16)
        engine = QueryEngine(store)
        for index in self.burst[:60]:
            app, blob = self.leaves[index]
            store.ingest(app, blob)
        for app in self.APPS:
            store.compact(app)
            for view in self.VIEWS:
                engine.query(app, view)
        shutil.rmtree(root, ignore_errors=True)


# -- static audit -----------------------------------------------------------------


class StaticWorkload:
    """Every app x variant through the static analyzer; the drift gate per app."""

    IMPORTS = ("repro.staticcheck",)

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.imports = self.IMPORTS
        self.audits = 0

    def setup(self) -> tuple[float, float]:
        """Lay out this seed's audit order; host and reference seconds."""
        from repro import staticcheck

        with RefClock() as clock:
            pairs = [
                (app, variant)
                for app in staticcheck.STATIC_APPS
                for variant in staticcheck.app_variants(app)
            ]
            rng = random.Random(derive_seed(self.seed, "static/order"))
            rng.shuffle(pairs)
            apps = list(staticcheck.STATIC_APPS)
            rng.shuffle(apps)
            self.pairs, self.apps = pairs, apps
            return clock.lap()

    def _audit_pair(self, app: str, variant: str) -> list[list[str]]:
        from repro import staticcheck

        model = staticcheck.build_static_model(app, variant, "smoke")
        report = staticcheck.report_with_impacts(
            model, staticcheck.analyze_model(model)
        )
        return sorted([f.code, f.variable] for f in report.findings)

    def _drift(self, app: str) -> bool:
        from repro import staticcheck

        extraction = staticcheck.extract_model(app, VARIANT, "smoke")
        registered = staticcheck.build_static_model(app, VARIANT, "smoke")
        diff = staticcheck.diff_models(
            registered, extraction.model, extraction.inexact_sizes
        )
        return diff.ok

    def audit(self, clocked: bool = True) -> Unit:
        """One whole audit in this process, speed-sampled when ``clocked``."""
        unit = Unit(attempted=0)
        findings, clean = {}, {}
        with RefClock() if clocked else HostClock() as clock:
            for app, variant in self.pairs:
                findings[f"{app}/{variant}"] = self._audit_pair(app, variant)
            unit.add("pairs", *clock.lap())
            for app in self.apps:
                clean[app] = self._drift(app)
            unit.add("drift", *clock.lap())
        unit.attempted = len(self.pairs) + len(self.apps)
        unit.outputs.update(findings=findings, clean=clean)
        return unit

    def unit(self, last: bool = False) -> Unit:
        """One audit in a fresh interpreter, as one CLI invocation runs it.

        The audit's cost depends on the interpreter's string-hash seed
        (set and dict orders change the extraction's work), so each unit
        gets a new process with the next hash seed of a fixed sequence:
        every run measures the same hash seeds, whatever its input seed.
        Only the audit is timed, not the interpreter start or the
        ``repro.staticcheck`` import.
        """
        order = json.dumps({"pairs": self.pairs, "apps": self.apps})
        env = dict(os.environ, PYTHONHASHSEED=str(self.audits))
        self.audits += 1
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), order],
            capture_output=True, text=True, timeout=120, check=True, env=env,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        unit = Unit(attempted=out["attempted"], host=out["host"], ref=out["ref"])
        unit.outputs.update(findings=out["findings"], clean=out["clean"])
        return unit

    def check(self, units: list[Unit]) -> CheckResult:
        """Findings match the pins for every pair; every drift diff is clean."""
        pinned = load_pins()["static_findings"]
        result = CheckResult()
        for unit in units:
            for pair, found in unit.outputs["findings"].items():
                result.expect(found == pinned.get(pair),
                              f"{pair}: findings {found} != pinned {pinned.get(pair)}")
            for app, ok in unit.outputs["clean"].items():
                result.expect(ok, f"{app}: extracted model drifted")
        return result

    def metrics(self, units: list[Unit], ref: bool) -> dict[str, tuple[float, str]]:
        times = _times(ref)
        wall = statistics.median(times(u)["wall"] for u in units)
        return {
            "static_wall_s": (wall, "s"),
            "static_items_per_s": ((len(self.pairs) + len(self.apps)) / wall, "1/s"),
        }

    def headline(self, detail: dict) -> tuple[float, float]:
        return detail["static_wall_s"][0], detail["static_items_per_s"][0]

    def traced_unit(self, tracer) -> tuple[Unit, dict[str, Any]]:
        with tracer.installed():
            unit = self.audit(clocked=False)
        return unit, {}

    def probe(self) -> None:
        self._audit_pair("nw", VARIANT)
        self._drift("nw")


WORKLOADS = {
    "job-proxy": JobWorkload,
    "job-rodinia": JobWorkload,
    "serve-fleet": ServeWorkload,
    "static-audit": StaticWorkload,
}


def _audit_main(order: str) -> None:
    """Child side of :meth:`StaticWorkload.unit`: run one audit, print JSON."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro.staticcheck  # noqa: F401  (imported before the timer starts)

    workload = StaticWorkload("static-audit", 0, HERE)
    spec = json.loads(order)
    workload.pairs = [tuple(pair) for pair in spec["pairs"]]
    workload.apps = spec["apps"]
    unit = workload.audit()
    print(json.dumps({"attempted": unit.attempted, "host": unit.host,
                      "ref": unit.ref, **unit.outputs}))


if __name__ == "__main__":
    _audit_main(sys.argv[1])
