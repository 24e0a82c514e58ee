"""Continuous-profiling service under load: ingest rate, query latency.

Drives the ``repro.serve`` stack end-to-end over real loopback TCP:

1. **Ingest** — concurrent clients ship codec-v2 ``.rpdb`` blobs until
   the store holds ``--profiles`` leaves (10k+ at full scale), in
   batches so the artifact records a rate *trajectory*, not one number.
2. **Compact** — one compaction commits the per-app rollup (every leaf
   was folded into it at ingest); the rollup is then verified
   byte-identical to a sequential ``merge_profiles`` of the same leaves
   (always asserted, even in ``--smoke``).
3. **Query** — cold view materializations (cache invalidated between
   samples) versus memoized repeats; per-request latency is collected
   client-side and summarized as p50/p95/p99.

Acceptance criteria checked at full scale (skipped in ``--smoke``,
where CI timer noise would make them flaky): >= 10k stored profiles
and memoized repeat queries >= 10x faster than cold.

Decode cost is reported per stored leaf over the ingest and compaction
phases: ``decodes_per_leaf`` (a count of ``ProfileDB.from_bytes`` and
``ProfileDB.fold_bytes`` calls: one fold at ingest, none at compaction)
and ``decode_ms_per_leaf``.  Every run, ``--smoke`` included, asserts
``decodes_per_leaf <= 1.0``; the gate is a count, not a time, so it
holds on any runner.

Runs two ways::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --profiles 10000 --out benchmarks/out/bench_serve.json

or under pytest-benchmark with the other reproduction benches
(``pytest benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.merge import merge_profiles
from repro.core.profiledb import ProfileDB
from repro.parallel.registry import run_app_rank
from repro.serve import ProfileService, ProfileStore, ServeClient
from repro.util.fmt import format_table

FULL_PROFILES = 10_000
SMOKE_PROFILES = 200
N_CLIENTS = 8
N_BATCHES = 10
COLD_QUERIES = 20
WARM_QUERIES = 200
MIN_MEMO_SPEEDUP = 10.0  # memoized repeat vs cold materialization
APP = "nw"
BASE_RANKS = 8  # distinct simulated rank profiles, cycled to target count
MAX_DECODES_PER_LEAF = 1.0  # the ingest fold; compaction only encodes


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def _base_blobs() -> list[bytes]:
    return [
        run_app_rank(APP, rank, BASE_RANKS).to_bytes(canonical=True)
        for rank in range(BASE_RANKS)
    ]


class _DecodeMeter:
    """Counts ``ProfileDB`` decodes (plain and folding) and their wall time."""

    ENTRY_POINTS = ("from_bytes", "fold_bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def _timed(self, original):
        def timed(cls, *args):
            t0 = time.perf_counter()
            try:
                return original.__func__(cls, *args)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        return classmethod(timed)

    @contextlib.contextmanager
    def metering(self):
        originals = {name: ProfileDB.__dict__[name] for name in self.ENTRY_POINTS}
        for name, original in originals.items():
            setattr(ProfileDB, name, self._timed(original))
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(ProfileDB, name, original)


async def _ingest_phase(
    host: str, port: int, blobs: list[bytes], n_profiles: int
) -> list[dict]:
    """Concurrent clients push ``n_profiles`` blobs; per-batch trajectory."""
    trajectory = []
    per_batch = max(1, n_profiles // N_BATCHES)
    shipped = 0
    clients = []
    for _ in range(N_CLIENTS):
        client = ServeClient(host, port)
        await client.connect()
        clients.append(client)
    try:
        while shipped < n_profiles:
            batch = min(per_batch, n_profiles - shipped)

            async def _ship(client: ServeClient, count: int, offset: int) -> None:
                for i in range(count):
                    await client.ingest(APP, blobs[(offset + i) % len(blobs)])

            share = [batch // N_CLIENTS] * N_CLIENTS
            for i in range(batch % N_CLIENTS):
                share[i] += 1
            t0 = time.perf_counter()
            await asyncio.gather(*(
                _ship(client, count, shipped)
                for client, count in zip(clients, share)
                if count
            ))
            dt = time.perf_counter() - t0
            shipped += batch
            trajectory.append({
                "stored_profiles": shipped,
                "batch": batch,
                "seconds": round(dt, 4),
                "blobs_per_sec": round(batch / dt, 1),
            })
    finally:
        for client in clients:
            await client.close()
    return trajectory


async def _query_phase(
    service: ProfileService, host: str, port: int
) -> dict:
    """Cold vs memoized topdown latency over the network path."""
    cold, warm = [], []
    async with ServeClient(host, port) as client:
        for _ in range(COLD_QUERIES):
            service.engine.invalidate(APP)  # force re-materialization
            t0 = time.perf_counter()
            await client.query(APP, "topdown")
            cold.append(time.perf_counter() - t0)
        for _ in range(WARM_QUERIES):
            t0 = time.perf_counter()
            payload = await client.query(APP, "topdown")
            warm.append(time.perf_counter() - t0)
        assert payload["cached"] is True
        # Exercise the other rollup views once each while we are here.
        await client.query(APP, "bottomup")
        await client.query(APP, "variables")
        metricsz = await client.query("", "metricsz")
        assert "repro_serve_query_latency_seconds" in metricsz["text"]
    cold.sort()
    warm.sort()
    return {
        "cold_queries": len(cold),
        "warm_queries": len(warm),
        "cold_mean_ms": round(1e3 * sum(cold) / len(cold), 3),
        "cold_p99_ms": round(1e3 * _quantile(cold, 0.99), 3),
        "warm_p50_ms": round(1e3 * _quantile(warm, 0.50), 4),
        "warm_p95_ms": round(1e3 * _quantile(warm, 0.95), 4),
        "warm_p99_ms": round(1e3 * _quantile(warm, 0.99), 4),
    }


def _memoization_phase(service: ProfileService) -> dict:
    """Cold vs memoized view materialization, at the engine layer.

    The network numbers above include the TCP round-trip, which bounds
    the visible speedup; the memoization criterion is about what the
    cache actually skips — decode + ExperimentDB + formula evaluation —
    so it is measured directly against the query engine.
    """
    engine = service.engine
    cold, warm = [], []
    for _ in range(COLD_QUERIES):
        engine.invalidate(APP)
        t0 = time.perf_counter()
        engine.query(APP, "topdown")
        cold.append(time.perf_counter() - t0)
    for _ in range(WARM_QUERIES):
        t0 = time.perf_counter()
        payload = engine.query(APP, "topdown")
        warm.append(time.perf_counter() - t0)
    assert payload["cached"] is True
    cold_mean = sum(cold) / len(cold)
    warm_mean = sum(warm) / len(warm)
    return {
        "cold_materialize_us": round(1e6 * cold_mean, 1),
        "memoized_us": round(1e6 * warm_mean, 2),
        "speedup": round(cold_mean / max(warm_mean, 1e-9), 1),
    }


def _verify(store: ProfileStore) -> int:
    """Rollup must equal a from-scratch sequential merge, byte for byte."""
    identical, covered = store.verify_rollup(APP)
    assert identical, "rollup diverged from sequential merge_profiles"
    # Belt and braces: decode-compare too, not just the file bytes.
    leaves = [
        ProfileDB.from_bytes(ref.path.read_bytes()) for ref in store.leaves(APP)
    ]
    expected = merge_profiles(leaves, name=APP).canonical_bytes()
    assert store.rollup_bytes(APP) == expected
    return covered


def run_bench(n_profiles: int, check: bool) -> dict:
    blobs = _base_blobs()
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        store = ProfileStore(Path(root) / "store", shards=8, arity=16)
        service = ProfileService(store, queue_size=128)

        meter = _DecodeMeter()

        async def _run() -> dict:
            host, port = await service.start()
            try:
                with meter.metering():
                    t0 = time.perf_counter()
                    trajectory = await _ingest_phase(host, port, blobs, n_profiles)
                    ingest_s = time.perf_counter() - t0

                    t0 = time.perf_counter()
                    async with ServeClient(host, port) as client:
                        compacted = await client.compact(APP)
                    compact_s = time.perf_counter() - t0

                queries = await _query_phase(service, host, port)
            finally:
                await service.stop()
            queries["memoization"] = _memoization_phase(service)
            return {
                "stored_profiles": n_profiles,
                "ingest": {
                    "seconds": round(ingest_s, 2),
                    "blobs_per_sec": round(n_profiles / ingest_s, 1),
                    "clients": N_CLIENTS,
                    "trajectory": trajectory,
                },
                "compact": {
                    "seconds": round(compact_s, 2),
                    "leaves_folded": compacted["leaves_folded"],
                    "rollup_bytes": compacted["rollup_bytes"],
                },
                "decode": {
                    "calls": meter.calls,
                    "decodes_per_leaf": round(meter.calls / n_profiles, 3),
                    "decode_ms_per_leaf": round(1e3 * meter.seconds / n_profiles, 3),
                },
                "query": queries,
            }

        result = asyncio.run(_run())
        result["rollup_byte_identical"] = True  # _verify raises otherwise
        covered = _verify(store)
        assert covered == n_profiles

    decodes = result["decode"]["decodes_per_leaf"]
    assert decodes <= MAX_DECODES_PER_LEAF, (
        f"{decodes} decodes per stored leaf during ingest and compaction; "
        f"at most {MAX_DECODES_PER_LEAF} (the ingest fold)"
    )
    if check:
        assert n_profiles >= 10_000, "full scale means 10k+ stored profiles"
        speedup = result["query"]["memoization"]["speedup"]
        assert speedup >= MIN_MEMO_SPEEDUP, (
            f"memoized repeat queries only {speedup:.1f}x faster than cold "
            f"materialization; acceptance bar is {MIN_MEMO_SPEEDUP}x"
        )
    return result


def _render(result: dict) -> str:
    ingest = result["ingest"]
    compact = result["compact"]
    query = result["query"]
    rows = [
        ("stored profiles", f"{result['stored_profiles']}"),
        ("ingest rate", f"{ingest['blobs_per_sec']:.0f} blobs/s "
                        f"({ingest['clients']} clients)"),
        ("compaction", f"{compact['leaves_folded']} leaves in "
                       f"{compact['seconds']}s"),
        ("rollup", f"{compact['rollup_bytes']} bytes, byte-identical "
                   f"to sequential merge"),
        ("decodes per leaf", f"{result['decode']['decodes_per_leaf']} "
                             f"(ingest fold; compaction encodes only)"),
        ("decode ms per leaf", f"{result['decode']['decode_ms_per_leaf']}"),
        ("query cold mean / p99", f"{query['cold_mean_ms']}ms / "
                                  f"{query['cold_p99_ms']}ms"),
        ("query warm p50/p95/p99", f"{query['warm_p50_ms']} / "
                                   f"{query['warm_p95_ms']} / "
                                   f"{query['warm_p99_ms']} ms"),
        ("memoization (engine)", f"{query['memoization']['cold_materialize_us']}us cold "
                                 f"-> {query['memoization']['memoized_us']}us, "
                                 f"{query['memoization']['speedup']}x"),
    ]
    return format_table(
        ("measure", "value"), rows,
        title="continuous-profiling service under load",
    )


# ---- pytest entry point ----------------------------------------------------


def test_serve_scale(benchmark):
    from conftest import report

    result = benchmark.pedantic(
        run_bench, args=(FULL_PROFILES, True), rounds=1, iterations=1
    )
    report("serve: fleet-scale ingest/compact/query", _render(result))


# ---- standalone entry point ------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small run, no speedup/scale assertions "
                             "(byte-identity is still asserted)")
    parser.add_argument("--profiles", type=int, default=None, metavar="N",
                        help=f"stored profiles to reach "
                             f"(default {FULL_PROFILES}, smoke "
                             f"{SMOKE_PROFILES})")
    parser.add_argument("--out", default=None, metavar="FILE.json",
                        help="write the JSON trajectory artifact here")
    args = parser.parse_args(argv)

    n = args.profiles or (SMOKE_PROFILES if args.smoke else FULL_PROFILES)
    result = run_bench(n, check=not args.smoke)
    print(_render(result))
    print("rollup byte-identity vs sequential merge: OK")

    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2, sort_keys=True))
        print(f"trajectory artifact -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
