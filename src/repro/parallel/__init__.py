"""Multiprocess profiling driver and parallel reduction-tree merge.

:mod:`repro.core.merge` *models* the paper's §4.2 MPI reduction tree
(it reports critical-path node visits but runs in one process).  This
package executes the same schedule for real:

- :mod:`repro.parallel.registry` — the apps the driver can run, by name;
- :mod:`repro.parallel.driver` — one worker OS process per simulated MPI
  rank, deterministic per-rank seeding, atomic ``.rpdb`` output files,
  crash/timeout detection with bounded retry;
- :mod:`repro.parallel.merge` — the reduction-tree merge dispatched
  round by round onto a process pool, profiles crossing process
  boundaries as codec bytes, with graceful degradation to a partial
  merge when inputs are corrupt or workers die.
"""

# Exports resolve on first use (PEP 562), so importing one submodule —
# ``repro.staticcheck`` reads the app table from the registry — does not
# load the driver's and the merge's process-pool machinery.
from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.driver import DriverReport, RankOutcome, profile_ranks
    from repro.parallel.merge import (
        ParallelMergeReport,
        merge_rpdb_files,
        parallel_reduction_merge,
    )
    from repro.parallel.registry import APPS, rank_runner, register_app, run_app_rank

_EXPORTS = {
    "APPS": "registry",
    "DriverReport": "driver",
    "ParallelMergeReport": "merge",
    "RankOutcome": "driver",
    "merge_rpdb_files": "merge",
    "parallel_reduction_merge": "merge",
    "profile_ranks": "driver",
    "rank_runner": "registry",
    "register_app": "registry",
    "run_app_rank": "registry",
}

__all__ = [
    "APPS",
    "DriverReport",
    "ParallelMergeReport",
    "RankOutcome",
    "merge_rpdb_files",
    "parallel_reduction_merge",
    "profile_ranks",
    "rank_runner",
    "register_app",
    "run_app_rank",
]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"repro.parallel.{module}"), name)
