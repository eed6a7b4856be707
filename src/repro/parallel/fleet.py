"""Fleet mode: fan picklable task specs out to a pool of worker processes.

The fleet runner executes a list of :class:`TaskSpec` envelopes —
*name of a registered task function* plus picklable keyword
arguments — across ``jobs`` worker processes and returns one
:class:`TaskResult` per spec, **always in spec order**, so a fleet
run's output is a pure function of its input list no matter how the
pool interleaves completions.

Design rules, all in service of determinism and crash containment:

* Tasks are registered by *name* (:func:`register_task`), never passed
  as closures, so a spec is picklable by construction and replays
  identically in a forked or spawned worker.  Built-in task names map
  to dotted ``module:function`` paths resolved lazily, which both
  avoids import cycles (``repro.verify.fuzz`` uses the fleet, and the
  fleet's built-ins live in ``repro.verify.fuzz``) and makes names
  resolvable inside spawn-mode workers that haven't imported anything
  yet.
* A task that *raises* is contained: the worker catches the exception
  and returns a failure envelope (``ok=False`` with the error type,
  message and traceback text); the run continues.
* A task that *kills its worker* (segfault, ``os._exit``, OOM kill)
  breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`.
  The runner rebuilds the pool and retries every unfinished spec once
  (``retries=1``); specs still unfinished after their retry budget are
  reported as ``error_type="WorkerCrashed"`` envelopes.  Note the
  standard-library pool cannot attribute a crash to one spec, so a
  crash charges a retry to every spec that was in flight — with the
  default single retry, innocents complete on the rebuilt pool.
* A task that *hangs its worker* (deadlock, unbounded loop, stuck I/O)
  is caught by ``task_timeout=``: when a full timeout window passes
  without any spec completing, the runner declares the in-flight specs
  hung, kills the pool outright and rebuilds it, charging the same
  retry budget.  Specs whose budget is exhausted while hung are
  reported as ``error_type="WorkerHung"`` envelopes.  Without a
  timeout (the default) a hung worker blocks the run forever — the
  pre-chaos behaviour.
* ``jobs=1`` runs every spec inline in the calling process — no pool,
  no pickling — which is both the fast path for small runs and the
  reference behaviour the determinism tests compare multi-worker runs
  against.
"""

from __future__ import annotations

import importlib
import os
import traceback
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import multiprocessing as mp

from ..errors import ValidationError

__all__ = [
    "TaskSpec",
    "TaskResult",
    "register_task",
    "get_task",
    "task_names",
    "run_fleet",
    "default_jobs",
]

#: Name -> callable registry of fleet task functions.
_TASKS: dict[str, Callable] = {}

#: Built-in task names resolved lazily to ``module:function`` paths.
#: Lazy so importing the fleet never imports the heavy verify/experiment
#: stacks, and so spawn-mode workers can resolve names cold.
_BUILTIN_TASKS: dict[str, str] = {
    "fuzz_scenario": "repro.verify.fuzz:fleet_fuzz_scenario",
    "experiment": "repro.experiments.figures:fleet_experiment",
    "chaos_probe": "repro.chaos.inject:chaos_fleet_probe",
}


def register_task(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering a module-level function as a fleet task.

    The function must be importable by qualified name (no lambdas, no
    closures) so worker processes can resolve it; registration itself
    is just a name lookup table on top of that.
    """

    def decorator(fn: Callable) -> Callable:
        existing = _TASKS.get(name)
        if existing is not None and existing is not fn:
            raise ValidationError(f"fleet task {name!r} is already registered")
        _TASKS[name] = fn
        return fn

    return decorator


def get_task(name: str) -> Callable:
    """Resolve a task name to its function, importing built-ins lazily."""
    fn = _TASKS.get(name)
    if fn is not None:
        return fn
    path = _BUILTIN_TASKS.get(name)
    if path is None and ":" in name:
        path = name  # explicit "module:function" spec
    if path is not None:
        module_name, _, attr = path.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        _TASKS.setdefault(name, fn)
        return fn
    raise ValidationError(
        f"unknown fleet task {name!r}; registered: {sorted(task_names())}"
    )


def task_names() -> frozenset[str]:
    """Every resolvable task name (registered plus built-in)."""
    return frozenset(_TASKS) | frozenset(_BUILTIN_TASKS)


def default_jobs() -> int:
    """Worker count matching the cores this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class TaskSpec:
    """One unit of fleet work: a registered task name plus its kwargs.

    Attributes
    ----------
    task:
        Name resolvable by :func:`get_task` (registered, built-in, or
        an explicit ``"module:function"`` path).
    kwargs:
        Keyword arguments for the task function.  Must be picklable;
        anything produced by :func:`repro.verify.fuzz.make_scenario`
        qualifies, as do ints/strings/numpy arrays.
    label:
        Optional human-readable tag echoed into the result envelope.
    """

    task: str
    kwargs: dict = field(default_factory=dict)
    label: str | None = None


@dataclass(frozen=True)
class TaskResult:
    """The envelope a fleet run returns for one spec.

    ``value`` holds the task function's return value when ``ok``;
    otherwise ``error`` / ``error_type`` / ``traceback`` describe the
    contained failure (``error_type="WorkerCrashed"`` when the worker
    process died rather than raised).  ``attempts`` counts executions
    including retries after pool crashes; ``worker_pid`` records where
    the task ran.  Neither field is part of the deterministic payload —
    report builders must key on ``value`` only.
    """

    index: int
    task: str
    label: str | None
    ok: bool
    value: object = None
    error: str | None = None
    error_type: str | None = None
    traceback: str | None = None
    attempts: int = 1
    worker_pid: int | None = None


def _execute(spec: TaskSpec, index: int) -> TaskResult:
    """Run one spec (in a worker or inline) into a result envelope."""
    try:
        fn = get_task(spec.task)
        value = fn(**spec.kwargs)
    except Exception as exc:  # noqa: BLE001 - contained by design
        return TaskResult(
            index=index,
            task=spec.task,
            label=spec.label,
            ok=False,
            error=str(exc),
            error_type=type(exc).__name__,
            traceback=traceback.format_exc(),
            worker_pid=os.getpid(),
        )
    return TaskResult(
        index=index,
        task=spec.task,
        label=spec.label,
        ok=True,
        value=value,
        worker_pid=os.getpid(),
    )


def _mp_context(start_method: str | None):
    """The multiprocessing context for the pool (fork where available)."""
    if start_method is None:
        start_method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
    if start_method not in mp.get_all_start_methods():
        raise ValidationError(
            f"unknown start method {start_method!r}; "
            f"available: {mp.get_all_start_methods()}"
        )
    return mp.get_context(start_method)


def _crashed_result(spec: TaskSpec, index: int, attempts: int) -> TaskResult:
    return TaskResult(
        index=index,
        task=spec.task,
        label=spec.label,
        ok=False,
        error=(
            f"worker process died while running task {spec.task!r} "
            f"(attempt {attempts})"
        ),
        error_type="WorkerCrashed",
        attempts=attempts,
    )


def _hung_result(
    spec: TaskSpec, index: int, attempts: int, timeout: float
) -> TaskResult:
    return TaskResult(
        index=index,
        task=spec.task,
        label=spec.label,
        ok=False,
        error=(
            f"worker made no progress within {timeout:g}s while running "
            f"task {spec.task!r} (attempt {attempts}); pool was killed "
            "and rebuilt"
        ),
        error_type="WorkerHung",
        attempts=attempts,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool's workers so its shutdown cannot block.

    ``ProcessPoolExecutor`` has no supported way to abandon a running
    task: exiting the ``with`` block joins workers, which waits forever
    on a hung one.  Killing the worker processes breaks the pool (the
    executor notices the dead children and unblocks), after which the
    normal rebuild-and-retry path takes over.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except OSError:  # pragma: no cover - already reaped
            pass


def run_fleet(
    specs: Iterable[TaskSpec],
    jobs: int = 1,
    *,
    retries: int = 1,
    start_method: str | None = None,
    task_timeout: float | None = None,
) -> list[TaskResult]:
    """Execute ``specs`` across ``jobs`` workers; results in spec order.

    Parameters
    ----------
    specs:
        Task envelopes; every ``task`` name must resolve and every
        ``kwargs`` must pickle (checked lazily — a spec that fails to
        pickle becomes a failure envelope, not a crashed run).
    jobs:
        Worker processes.  ``1`` (the default) runs inline with no
        pool; the output is identical either way.
    retries:
        How many times an unfinished spec is re-submitted after its
        worker pool breaks — by a crash *or* a hang kill — before being
        reported as ``WorkerCrashed`` / ``WorkerHung``.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"`` override; ``None``
        prefers fork when the platform offers it.
    task_timeout:
        Hang deadline in seconds.  When a full window of this length
        passes with no spec completing, the in-flight specs are
        declared hung, the pool is killed and rebuilt, and the hang
        charges the same ``retries`` budget a crash does (the pool
        cannot attribute the stall to one spec, so every in-flight spec
        is charged).  ``None`` (the default) waits forever.  Ignored on
        the inline ``jobs=1`` path, which has no worker to kill.
    """
    spec_list: Sequence[TaskSpec] = list(specs)
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")
    if task_timeout is not None and not task_timeout > 0:
        raise ValidationError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    for spec in spec_list:
        if not isinstance(spec, TaskSpec):
            raise ValidationError(
                f"specs must be TaskSpec instances, got {type(spec).__name__}"
            )
        get_task(spec.task)  # fail fast on unknown names
    if not spec_list:
        return []

    if jobs == 1:
        return [_execute(spec, i) for i, spec in enumerate(spec_list)]

    ctx = _mp_context(start_method)
    results: list[TaskResult | None] = [None] * len(spec_list)
    attempts = [0] * len(spec_list)
    hung: set[int] = set()
    pending = list(range(len(spec_list)))
    while pending:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            index_of = {}
            for i in pending:
                attempts[i] += 1
                try:
                    index_of[pool.submit(_execute, spec_list[i], i)] = i
                except BrokenProcessPool:
                    pass  # pool already broken; retried or reported below
            not_done = set(index_of)
            while not_done:
                done, not_done = wait(not_done, timeout=task_timeout)
                for future in done:
                    i = index_of[future]
                    try:
                        results[i] = replace(
                            future.result(), attempts=attempts[i]
                        )
                        hung.discard(i)
                    except BrokenProcessPool:
                        pass  # worker died; retried or reported below
                    except Exception as exc:  # unpicklable spec/result etc.
                        results[i] = TaskResult(
                            index=i,
                            task=spec_list[i].task,
                            label=spec_list[i].label,
                            ok=False,
                            error=str(exc),
                            error_type=type(exc).__name__,
                            traceback=traceback.format_exc(),
                            attempts=attempts[i],
                        )
                if not done and not_done:
                    # A full timeout window with zero completions: the
                    # in-flight specs are hung.  Queued futures that
                    # cancel cleanly never ran; the rest were on a
                    # worker and are marked hung for attribution.
                    for future in not_done:
                        if not future.cancel():
                            hung.add(index_of[future])
                    _kill_pool(pool)
                    break
        still_pending = [i for i in pending if results[i] is None]
        for i in list(still_pending):
            if attempts[i] > retries:
                results[i] = (
                    _hung_result(spec_list[i], i, attempts[i], task_timeout)
                    if i in hung
                    else _crashed_result(spec_list[i], i, attempts[i])
                )
                still_pending.remove(i)
        pending = still_pending
    return [r for r in results if r is not None]
