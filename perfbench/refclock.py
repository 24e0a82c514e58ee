"""Times scaled to a reference host speed.

On a shared host, such as the 2-CPU VM the seed numbers come from, each
CPU on its own switches between a fast and a slow state (about 1.7x apart)
every 0.2-3 s, and the two CPUs do so independently (README, "Timing").  CPU time slows
down with wall time, so neither removes it.  What does is to sample the
speed on the CPU doing the work while it does it, with a short fixed
calibration loop, and scale the work's host seconds to the seconds it
would have taken at the reference speed:

    ref_s = host_s * REFERENCE_LOOP_S / mean(loop_s of the samples)

A :class:`RefClock` samples at both ends of each segment of work and every
``SAMPLE_EVERY_S`` in between, from a timer signal whose handler runs in
the measured thread.  Sampling time is taken out of ``host_s``.  The
calibration loop is benchmark code, so a change to ``repro`` moves
``ref_s`` by the same share as ``host_s``.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

_clock = time.perf_counter

SAMPLE_EVERY_S = 0.1   # timer samples in a segment; each costs ~2-3 ms
BOUNDARY_REPS = 5      # loops per sample at a segment's ends (median)
# Time of one calibration loop in the CPUs' fast state on the machine the
# seed numbers come from (2-CPU Xeon VM at 2.1 GHz, Python 3.11).
REFERENCE_LOOP_S = 0.85e-3


def calibration_loop() -> int:
    """Fixed pure-Python work of the kinds the layers do: integer
    arithmetic, dict and list traffic, small objects, a sort, a hash."""
    table: dict[int, int] = {}
    rows = []
    acc = 0
    for i in range(1500):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
        rows.append((key, acc, str(i)))
    rows.sort()
    acc ^= hashlib.sha256(repr(rows[:125]).encode()).digest()[0]
    return acc + len(table)


def _loop_s() -> float:
    t0 = _clock()
    calibration_loop()
    return _clock() - t0


class RefClock:
    """Host and reference seconds of consecutive segments of work.

    Use as a context manager (it owns ``SIGALRM`` while open): the first
    segment starts on entry, and each ``lap()`` ends the current segment
    and starts the next one.
    """

    def __enter__(self) -> RefClock:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._samples = [self._boundary_sample()]
        self._sampling_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = _clock()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame) -> None:
        # The first loop after the work runs ~1.4x slower on caches the
        # work left cold, by an amount that depends on the work; the
        # second one is the sample.
        t0 = _clock()
        calibration_loop()
        self._samples.append(_loop_s())
        self._sampling_s += _clock() - t0

    def _boundary_sample(self) -> float:
        return statistics.median(_loop_s() for _ in range(BOUNDARY_REPS))

    def lap(self) -> tuple[float, float]:
        """(host_s, ref_s) of the segment that ends now."""
        host = _clock() - self._t0 - self._sampling_s
        end = self._boundary_sample()
        samples = self._samples + [end]
        ref = host * REFERENCE_LOOP_S / statistics.fmean(samples)
        self._samples, self._sampling_s = [end], 0.0
        self._t0 = _clock()
        return host, ref


class HostClock:
    """The same segments without sampling, for traced runs: reference
    seconds read 0."""

    def __enter__(self) -> HostClock:
        self._t0 = _clock()
        return self

    def __exit__(self, *exc) -> None:
        pass

    def lap(self) -> tuple[float, float]:
        host = _clock() - self._t0
        self._t0 = _clock()
        return host, 0.0
