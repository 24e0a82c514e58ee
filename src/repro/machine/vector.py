"""Columnar (vectorized) engine behind ``MemoryHierarchy.access_run``.

The scalar ``access`` loop and the python batched path (a scalar probe
for a single-line run, an ordered gather for any other) pay Python
dispatch per access.  This engine instead decomposes a
strided run into *segments* whose outcome is provable from initial
machine state, and processes each segment as columnar event batches:
line/page indices, page transitions and per-probe latencies are numpy
arrays over the *probes* (first access per distinct line) while the
per-set cache/TLB updates collapse into modular-arithmetic rebuilds.

Why segments are exact
----------------------

Within a fixed-stride run the distinct probed lines form a strictly
monotonic arithmetic progression — no line is probed twice — so installs
performed during the run can never produce a hit later in the same run.
That yields two provable regimes:

- **cold sweep** — no probed line is resident at any level, no probed
  page is in the TLB, and no prefetch stream points into the probed
  range: every probe misses L1/L2/L3 and goes to DRAM, every page
  transition takes a TLB walk, and the prefetcher evolves by a closed
  form (an ascending unit-line sweep forms one stream chain; any other
  shape round-robins replacements).  Evictions caused by the segment's
  own installs only ever remove lines, so later probes stay misses.
- **hot sweep** — every probed line is initially L1-resident and every
  probed page is TLB-resident: all accesses are L1 hits, the only state
  change is LRU promotion, and promotions never evict.

The residency scan finds the longest provable prefix; the first probe
that violates the regime ends the segment, and whatever the engine
cannot prove cold or hot is handed to the python batched path
(``MemoryHierarchy._access_run_batched``) unchanged.  Splitting a run at
a probe boundary is observably identical to processing it whole, because
each segment leaves exactly the state the scalar loop would.

The scalar ``access`` loop remains the differential oracle: the suites
in ``tests/test_machine_bulk_access.py`` and
``tests/test_machine_vector.py`` hold every engine to bit-identical
counters, latencies, LRU/stream state, and per-access PMU event tuples.
"""

from __future__ import annotations

import numpy as np

__all__ = ["access_run_vector", "VECTOR_MIN_RUN"]

# Below this run length the residency scan costs more than the python
# batched path saves, so ``access_run`` only vectorizes longer runs (the
# differential tests lower ``MemoryHierarchy._vector_min`` to try short
# ones).
VECTOR_MIN_RUN = 256

# Data-source levels (mirrors repro.machine.hierarchy; re-declared to
# keep this module import-light and cycle-free).
_LVL_L1 = 0
_LVL_LMEM = 3
_LVL_RMEM = 4


def _consecutive_prefix(members: list[int]) -> int:
    """Length of the leading 0,1,2,... prefix of a sorted index list."""
    t = 0
    for v in members:
        if v != t:
            break
        t += 1
    return t


def access_run_vector(
    h,
    hw_tid: int,
    base_vaddr: int,
    stride: int,
    count: int,
    home_node: int,
    is_store: bool,
    record: list | None,
) -> int:
    """Vectorized equivalent of ``count`` scalar ``access`` calls.

    Processes provably-cold and provably-hot segments columnar;
    delegates any remainder to ``h._access_run_batched``.  Returns the
    total latency in cycles (a Python int — numpy scalars never leak
    into clocks or records).
    """
    lat = h.latency
    core = h._core_of[hw_tid]
    l1 = h.l1[core]
    l2 = h.l2[core]
    l3 = h.l3[h._socket_of[hw_tid]]
    tlb = h.tlb[core]
    line_bits = h.line_bits
    page_bits = h.page_bits
    line_size = 1 << line_bits
    page_size = 1 << page_bits
    lat_l1 = lat.l1
    lat_l3 = lat.l3
    tlb_walk = lat.tlb_walk
    store_extra = lat.store_extra if is_store else 0
    my_node = h._numa_of[hw_tid]
    remote = home_node != my_node
    dram_hops = h.topology.hops(my_node, home_node)
    dram_lat = lat.dram(dram_hops)
    dram_level = _LVL_RMEM if remote else _LVL_LMEM
    prefetch_on = h.prefetch_enabled
    streams = h._streams[core]
    n_streams = len(streams)
    level_counts = h.level_counts

    abs_s = -stride if stride < 0 else stride
    total = 0
    done = 0  # accesses consumed by vector segments
    vaddr = base_vaddr
    left = count

    while left >= 2 and stride != 0:
        # ---- shape analysis: probe (first-access-per-line) columns ------
        l0 = vaddr >> line_bits
        if abs_s < line_size:
            dl = -1 if stride < 0 else 1
            l_last = (vaddr + (left - 1) * stride) >> line_bits
            n = (l0 - l_last if stride < 0 else l_last - l0) + 1
            if n == 1:
                break  # whole remainder on one line: one scalar probe
            ks = np.arange(n, dtype=np.int64)
            if stride < 0:
                nums = vaddr - ((l0 - ks + 1) << line_bits) + 1
                a = (nums + abs_s - 1) // abs_s
            else:
                nums = ((l0 + ks) << line_bits) - vaddr
                a = (nums + stride - 1) // stride
            a[0] = 0
        elif abs_s % line_size == 0 and (abs_s < page_size or abs_s % page_size == 0):
            dl = stride >> line_bits
            n = left
            a = np.arange(n, dtype=np.int64)
        else:
            break  # line-straddling long stride: non-uniform line deltas

        pages = (vaddr + a * stride) >> page_bits
        trans = np.empty(n, dtype=bool)
        trans[0] = True
        np.not_equal(pages[1:], pages[:-1], out=trans[1:])
        trans_idx = np.flatnonzero(trans)
        m = int(trans_idx.shape[0])
        q0 = int(pages[0])
        dq = int(pages[trans_idx[1]]) - q0 if m > 1 else 1

        # ---- residency scans -------------------------------------------
        mem1 = l1.progression_members(l0, dl, n)
        memt = tlb.progression_members(q0, dq, m)

        if mem1 and mem1[0] == 0 and memt and memt[0] == 0:
            # ---- hot sweep: all-L1-hit prefix --------------------------
            G = _consecutive_prefix(mem1)
            g_page = _consecutive_prefix(memt)
            if g_page < m:
                cap = int(trans_idx[g_page])  # first probe on an absent page
                if cap < G:
                    G = cap
            aG = int(a[G]) if G < n else left
            n_pages = int(np.searchsorted(trans_idx, G))
            l1.bulk_promote_progression(l0, dl, G)
            l1.bulk_credit(hits=aG)
            tlb.bulk_promote_progression(q0, dq, n_pages)
            tlb.bulk_credit(hits=aG)
            level_counts[_LVL_L1] += aG
            total += aG * lat_l1
            if record is not None:
                record.extend([(lat_l1, _LVL_L1, False)] * aG)
            done += aG
            vaddr += aG * stride
            left -= aG
            continue

        # ---- cold sweep: all-DRAM prefix -------------------------------
        F = n
        if mem1:
            F = mem1[0]
        if F:
            mem2 = l2.progression_members(l0, dl, F)
            if mem2:
                F = mem2[0]
        if F:
            mem3 = l3.progression_members(l0, dl, F)
            if mem3:
                F = mem3[0]
        if memt:
            cap = int(trans_idx[memt[0]])
            if cap < F:
                F = cap
        if prefetch_on:
            # A stream pointing into the probed range would interact
            # mid-segment; end the provable prefix just before it.  For
            # an ascending unit-line sweep a stream equal to the *first*
            # line is the chain-start match, which the closed form below
            # handles exactly.
            for v in streams:
                d = v - l0
                if dl == 1:
                    if 1 <= d < F:
                        F = d
                elif d % dl == 0:
                    k = d // dl
                    if 0 <= k < F:
                        F = k
        if F == 0:
            break  # first probe isn't provably cold: the python path decides

        aF = int(a[F]) if F < n else left
        mF = int(np.searchsorted(trans_idx, F))  # page walks in the segment
        queue = h.contention.dram_access_bulk(home_node, hw_tid, F)
        h.memmgr.note_dram_accesses(home_node, remote, F)
        h.hop_counts[dram_hops] += F

        serve0 = serve_rest = dram_lat
        if prefetch_on:
            if dl == 1:
                j0 = -1
                for j in range(n_streams):
                    if streams[j] == l0:
                        j0 = j
                        break
                if j0 >= 0:
                    # Chain continues an existing stream: every probe is
                    # a prefetch hit and the stream ends one past the
                    # last probed line.
                    h.prefetch_hits += F
                    streams[j0] = l0 + F
                    serve0 = serve_rest = lat_l3
                else:
                    # Probe 0 starts the chain (round-robin replacement);
                    # probes 1..F-1 ride it.
                    h.prefetch_hits += F - 1
                    rr = h._stream_rr[core]
                    streams[rr] = l0 + F
                    h._stream_rr[core] = (rr + 1) % n_streams
                    serve_rest = lat_l3
            else:
                # No probe can match a stream (the scan truncated at any
                # that would): F straight replacements; only the last
                # write per slot survives.
                rr = h._stream_rr[core]
                for i in range(F - n_streams if F > n_streams else 0, F):
                    streams[(rr + i) % n_streams] = l0 + i * dl + 1
                h._stream_rr[core] = (rr + F) % n_streams

        lat_probe = np.full(F, serve_rest + queue + store_extra, dtype=np.int64)
        lat_probe[0] = serve0 + queue + store_extra
        if mF:
            lat_probe[trans_idx[:mF]] += tlb_walk
        total += int(lat_probe.sum()) + (aF - F) * lat_l1

        l1.bulk_credit(hits=aF - F, misses=F)
        l2.bulk_credit(misses=F)
        l3.bulk_credit(misses=F)
        tlb.bulk_credit(hits=aF - mF, misses=mF)
        level_counts[_LVL_L1] += aF - F
        level_counts[dram_level] += F

        l1.bulk_install_progression(l0, dl, F)
        l2.bulk_install_progression(l0, dl, F)
        l3.bulk_install_progression(l0, dl, F)
        tlb.bulk_install_progression(q0, dq, mF)

        if record is not None:
            reps = np.empty(F, dtype=np.int64)
            if F > 1:
                np.subtract(a[1:F], a[: F - 1], out=reps[:-1])
                reps[:-1] -= 1
            reps[-1] = aF - int(a[F - 1]) - 1
            lats = lat_probe.tolist()
            repl = reps.tolist()
            tmiss = trans[:F].tolist()
            l1_tup = (lat_l1, _LVL_L1, False)
            append = record.append
            extend = record.extend
            for k in range(F):
                append((lats[k], dram_level, tmiss[k]))
                r = repl[k]
                if r:
                    extend([l1_tup] * r)

        done += aF
        vaddr += aF * stride
        left -= aF

    if done:
        if is_store:
            h.store_count += done
        else:
            h.load_count += done
    if left > 0:
        total += h._access_run_batched(
            hw_tid, vaddr, stride, left, home_node, is_store, record
        )
    return total
