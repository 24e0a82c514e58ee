"""POWER-style marked-event sampling (SIAR/SDAR).

The PMU counts occurrences of one marked event (e.g.
``PM_MRK_DATA_FROM_RMEM`` — data sourced from remote memory).  When the
count reaches the configured threshold, an interrupt fires and the
sampled instruction's address (SIAR) and effective data address (SDAR)
are available — always precise.  Non-matching accesses and non-memory
instructions do not advance the counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.pmu.events import EVENT_PREDICATES
from repro.pmu.sample import Sample
from repro.util.rng import DeterministicRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["MarkedEventEngine"]


class MarkedEventEngine:
    """Marked-event sampling for one event with a count threshold."""

    def __init__(self, event: str, period: int = 64, seed: int = 0x5EED, jitter: float = 0.45) -> None:
        predicate = EVENT_PREDICATES.get(event)
        if predicate is None:
            raise ConfigError(
                f"unknown marked event {event!r}; known: {sorted(EVENT_PREDICATES)}"
            )
        if period < 1:
            raise ConfigError("marked-event period must be >= 1")
        self.event = event
        self.period = period
        self.jitter = jitter
        self._predicate = predicate
        self.rng = DeterministicRNG(seed)
        self.samples_taken = 0
        self.events_counted = 0

    def _reset_countdown(self, thread: "SimThread") -> None:
        thread.pmu_countdown = self.rng.geometric_jitter(self.period, self.jitter)

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
        if not self._predicate(level, latency, tlb_miss):
            return
        self.events_counted += 1
        if thread.pmu_countdown <= 0:
            self._reset_countdown(thread)
        thread.pmu_countdown -= 1
        if thread.pmu_countdown > 0:
            return
        self._reset_countdown(thread)
        self.samples_taken += 1
        sample = Sample(
            event=self.event,
            precise_ip=ip,       # SIAR
            interrupt_ip=ip,
            ea=ea,               # SDAR
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
        tlb_miss)`` results: only accesses matching the event predicate
        advance the counter, so the gather is handled in bulk when its
        matches cannot reach the threshold.

        Returns False, with nothing but the arming done, otherwise: the
        caller then replays :meth:`note_mem` per access.
        """
        predicate = self._predicate
        matches = 0
        for latency, level, tlb_miss in record:
            if predicate(level, latency, tlb_miss):
                matches += 1
        if not matches:
            return True
        if thread.pmu_countdown <= 0:
            self._reset_countdown(thread)
        if thread.pmu_countdown <= matches:
            return False
        thread.pmu_countdown -= matches
        self.events_counted += matches
        return True

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        # Marked data-source events never fire on non-memory instructions.
        return
