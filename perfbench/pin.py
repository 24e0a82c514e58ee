"""Regenerate ``pins.json``: static findings and job digests.

Run from the repository root when a change alters the profiler's output
on purpose::

    python3 perfbench/pin.py

Static findings do not depend on the seed.  Job digests are pinned for
seeds 0 and 1 of both ``job-*`` workloads at their benchmark settings;
other seeds are checked for repeatability and against a sequential merge.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PINNED_SEEDS = (0, 1)


def main() -> int:
    work_dir = HERE.parent / ".perfbench_work" / "pin"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        static = workloads.StaticWorkload("static-audit", 0, work_dir)
        static.setup()
        pins = {"static_findings": static.audit().outputs["findings"], "job_digests": {}}
        for name in ("job-proxy", "job-rodinia"):
            for seed in PINNED_SEEDS:
                job = workloads.JobWorkload(name, seed, work_dir)
                job.setup()
                digests = job.unit().outputs["digests"]
                pins["job_digests"].setdefault(job.pin_key(), {})[str(seed)] = digests
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
