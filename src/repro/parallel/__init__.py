"""Parallel execution layer: fleet mode.

**Fleet mode** (:mod:`repro.parallel.fleet`) fans whole tasks (seeded
fuzz scenarios, experiment cells, chaos probes) out to a pool of worker
processes as picklable :class:`TaskSpec` envelopes; results come back
in spec order, so a run is deterministic regardless of completion
order.  ``repro fleet`` and ``repro verify --fuzz --jobs`` sit on top
of this.

``docs/parallel.md`` has the design narrative: task registry, crash
containment and the determinism guarantees.
"""

from .fleet import (
    TaskResult,
    TaskSpec,
    default_jobs,
    get_task,
    register_task,
    run_fleet,
    task_names,
)

__all__ = [
    "TaskSpec",
    "TaskResult",
    "register_task",
    "get_task",
    "task_names",
    "run_fleet",
    "default_jobs",
]
