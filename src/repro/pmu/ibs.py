"""AMD-style instruction-based sampling (IBS).

The engine decrements a per-thread countdown on every retired
instruction.  When it reaches zero, the *current* instruction is the
monitored one: if it is a memory operation, the sample carries the
precise IP, effective address, measured latency, and data source; if
not, a non-memory sample is delivered (HPCToolkit keeps a separate CCT
for those, §4.1.2).  Periods are jittered to avoid lockstep aliasing
with loop structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.pmu.events import IBS_EVENT
from repro.pmu.sample import Sample
from repro.util.rng import DeterministicRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["IBSEngine"]


class IBSEngine:
    """Instruction-based sampling with a jittered period."""

    def __init__(self, period: int = 512, seed: int = 0x1B5, jitter: float = 0.45) -> None:
        if period < 1:
            raise ConfigError("IBS period must be >= 1")
        self.period = period
        self.jitter = jitter
        self.rng = DeterministicRNG(seed)
        self.samples_taken = 0
        self.mem_samples = 0

    def _reset_countdown(self, thread: "SimThread") -> None:
        thread.pmu_countdown = self.rng.geometric_jitter(self.period, self.jitter)

    def _armed_countdown(self, thread: "SimThread") -> int:
        if thread.pmu_countdown <= 0:
            self._reset_countdown(thread)
        return thread.pmu_countdown

    def note_mem(
        self,
        process: "SimProcess",
        thread: "SimThread",
        ip: int,
        ea: int,
        latency: int,
        level: int,
        tlb_miss: bool,
        is_store: bool,
    ) -> None:
        countdown = self._armed_countdown(thread) - 1
        if countdown > 0:
            thread.pmu_countdown = countdown
            return
        self._reset_countdown(thread)
        self.samples_taken += 1
        self.mem_samples += 1
        sample = Sample(
            event=IBS_EVENT,
            precise_ip=ip,
            interrupt_ip=ip,
            ea=ea,
            latency=latency,
            level=level,
            tlb_miss=tlb_miss,
            is_store=is_store,
            period=self.period,
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)

    def note_mem_seq(
        self, process: "SimProcess", thread: "SimThread", record: list
    ) -> bool:
        """Bulk :meth:`note_mem` over a gather's ``(latency, level,
        tlb_miss)`` results, taken only when no access in it can be sampled.

        Returns False, with nothing but the arming done, when the
        countdown would expire inside the gather: the caller then replays
        :meth:`note_mem` per access (arming is idempotent, so the replay
        sees the same countdown the scalar path would).
        """
        countdown = self._armed_countdown(thread)
        n = len(record)
        if countdown <= n:
            return False
        thread.pmu_countdown = countdown - n
        return True

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        # A block of n instructions may straddle several sampling periods;
        # fire one sample per period crossed and carry the remainder, so a
        # large compute block neither swallows the countdown (starving the
        # interleaved memory ops) nor under-reports non-memory samples.
        remaining = n
        countdown = self._armed_countdown(thread)
        while remaining >= countdown:
            remaining -= countdown
            self._deliver_nonmem(process, thread)
            countdown = thread.pmu_countdown
        thread.pmu_countdown = countdown - remaining

    def _deliver_nonmem(self, process: "SimProcess", thread: "SimThread") -> None:
        self._reset_countdown(thread)
        self.samples_taken += 1
        # Non-memory instruction sampled: no EA, no latency; the profiler
        # files it in the "no memory access" CCT.
        frames = thread.frames
        ip = frames[-1].function.ip(frames[-1].function.start_line) if frames else 0
        sample = Sample(
            event=IBS_EVENT,
            precise_ip=ip,
            interrupt_ip=ip,
            ea=None,
            latency=0,
            level=-1,
            tlb_miss=False,
            is_store=False,
            period=self.period,
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)
