"""Outside-in span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public entry points of each layer — methods on their classes,
functions at the module that imports them by name, the registry's
``highs`` LP backend and SciPy's native HiGHS ``run`` — so that every
call records a span ``[name, start, end, parent, epoch]``.  Spans stay
in memory; :meth:`Tracer.dump` writes them out once, at the end.
:meth:`Tracer.restore` puts every original back.

A layer's *self time* is the time its spans cover minus the time
covered by their child spans, so the self times of all spans plus the
untraced remainder add up to the run's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

#: Span name -> (self-seconds key, share key, call-count key).
SPANS = {
    "sim.epoch": ("sim.self_s", "sim.self_share", "sim.segments"),
    "service.submit": ("service.submit_s", "service.submit_share",
                       "service.submits"),
    "service.tick": ("service.tick_self_s", "service.tick_self_share",
                     "service.ticks"),
    "control.kernel": ("control.kernel_s", "control.kernel_share",
                       "control.kernel_calls"),
    "core.schedule": ("core.schedule_s", "core.schedule_share",
                      "core.schedule_calls"),
    "core.stage1": ("core.stage1_s", "core.stage1_share",
                    "core.stage1_calls"),
    "core.stage2": ("core.stage2_s", "core.stage2_share",
                    "core.stage2_calls"),
    "core.lpdar": ("core.lpdar_s", "core.lpdar_share", "core.lpdar_calls"),
    "core.ret": ("core.ret_s", "core.ret_share", "core.ret_calls"),
    "core.admission": ("core.admission_s", "core.admission_share",
                       "core.admission_calls"),
    "engine.path_sets": ("engine.path_sets_s", "engine.path_sets_share",
                         "engine.path_sets_calls"),
    "engine.structure": ("engine.structure_s", "engine.structure_share",
                         "engine.structure_calls"),
    "engine.cached_solve": ("engine.cached_solve_s",
                            "engine.cached_solve_share",
                            "engine.cached_solve_calls"),
    "lp.wrapper": ("lp.wrapper_s", "lp.wrapper_share", "lp.solves"),
    "lp.highs_run": ("lp.highs_run_s", "lp.highs_run_share",
                     "lp.highs_runs"),
    "verify.check": ("verify.check_s", "verify.check_share",
                     "verify.checks"),
    "recovery.journal_append": ("recovery.journal_append_s",
                                "recovery.journal_append_share",
                                "recovery.appends"),
}

#: Outside-in counts recorded next to the spans.
COUNTS = (
    "lp.iterations",
    "lp.infeasible",
    "lp.errors",
    "core.ret_probes",
    "engine.memo_hits",
    "engine.structure_hits",
    "engine.structure_patches",
    "engine.structure_cold",
    "engine.path_cache_hits",
    "engine.witness_hits",
    "verify.violations",
)

#: The program's own Telemetry counters, read in the traced run and
#: reported next to the matching outside-in count.
TELEMETRY_COUNTERS = (
    "structure_cache_hits",
    "structure_patch_hits",
    "cold_builds",
    "warm_starts",
    "ret_witness_skips",
    "path_cache_hits",
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Epoch id stamped on every span opened from now on.
        self.epoch = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.epoch])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def timed_async(self, name: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`restore` puts the original back."""
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _epoch in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _parent, _epoch), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += (end - start) - covered
            entry[1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "epoch"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _TracedBackend:
    """Registry stand-in that times the ``highs`` backend's ``solve``."""

    def __init__(self, inner, tracer: Tracer, infeasible_error) -> None:
        self.inner = inner
        self.name = inner.name
        self.supports_warm_start = inner.supports_warm_start
        self._tracer = tracer
        self._infeasible = infeasible_error

    def solve(self, problem, **kwargs):
        tracer = self._tracer
        tracer.counts["_backend_solves"] += 1
        index = tracer.open("lp.wrapper")
        try:
            solution = self.inner.solve(problem, **kwargs)
        except self._infeasible:
            tracer.counts["lp.infeasible"] += 1
            raise
        except Exception:
            tracer.counts["lp.errors"] += 1
            raise
        finally:
            tracer.close(index)
        tracer.counts["lp.iterations"] += int(solution.iterations)
        return solution


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Call :meth:`Tracer.restore` afterwards (also on error).
    """
    import repro.core.ret as ret_mod
    import repro.core.scheduler as scheduler_mod
    import repro.engine.layout as layout_mod
    import repro.engine.topology as topology_mod
    import repro.service.core as service_mod
    import repro.sim.simulator as sim_mod
    import repro.verify.checker as checker_mod
    from repro.control.kernel import EpochKernel
    from repro.core.scheduler import Scheduler
    from repro.engine.backend import get_backend, register_backend
    from repro.engine.engine import ModelEngine
    from repro.engine.layout import LayoutLayer
    from repro.engine.topology import TopologyLayer
    from repro.errors import InfeasibleProblemError
    from repro.lp.model import ProblemStructure
    from repro.recovery.journal import EpochJournal
    from repro.service.core import ReservationService
    from scipy.optimize._highspy._core import _Highs

    t = tracer
    counts = t.counts

    # service: the front door and the tick (a coroutine).
    t.wrap(ReservationService, "submit", "service.submit")
    t.patch(ReservationService, "tick",
            t.timed_async("service.tick", ReservationService.tick))

    # control: every EpochKernel method; the journal append below is a
    # child span, so the kernel's self time excludes it.
    for attr in ("crash_point", "restart_budget", "budget_for",
                 "detect_faults", "observe", "decide", "feedback", "commit",
                 "advance", "cache_delta"):
        t.wrap(EpochKernel, attr, "control.kernel")

    # core: entry points at the modules that import them by name.
    t.wrap(Scheduler, "schedule", "core.schedule")
    t.wrap(scheduler_mod, "solve_stage1", "core.stage1")
    t.wrap(scheduler_mod, "solve_stage2_lp", "core.stage2")
    for owner in (scheduler_mod, ret_mod):
        t.wrap(owner, "lpdar", "core.lpdar")
    t.wrap(scheduler_mod, "greedy_adjust", "core.lpdar")
    for owner in (sim_mod, service_mod):
        t.wrap(owner, "solve_ret", "core.ret")
        t.wrap(owner, "admit_max_prefix", "core.admission")
    t.wrap(sim_mod, "admit_greedy", "core.admission")

    # engine: path sets (with outside-in cache hits), structures (hit,
    # patch or cold build), the solve memo (hit = no backend solve).
    path_sets = TopologyLayer.path_sets

    def traced_path_sets(self, od_pairs, *args, **kwargs):
        od_pairs = list(od_pairs)
        before = counts["_paths_built"]
        index = t.open("engine.path_sets")
        try:
            return path_sets(self, od_pairs, *args, **kwargs)
        finally:
            t.close(index)
            counts["engine.path_cache_hits"] += (
                len(set(od_pairs)) - (counts["_paths_built"] - before)
            )

    t.patch(TopologyLayer, "path_sets", traced_path_sets)
    build_path_sets = topology_mod.build_path_sets

    def counted_build_path_sets(network, pairs, *args, **kwargs):
        counts["_paths_built"] += len(pairs)
        return build_path_sets(network, pairs, *args, **kwargs)

    t.patch(topology_mod, "build_path_sets", counted_build_path_sets)

    structure = LayoutLayer.structure

    def traced_structure(self, *args, **kwargs):
        before = (counts["_cold"], counts["_patched"])
        index = t.open("engine.structure")
        try:
            return structure(self, *args, **kwargs)
        finally:
            t.close(index)
            if counts["_cold"] > before[0]:
                counts["engine.structure_cold"] += 1
            elif counts["_patched"] > before[1]:
                counts["engine.structure_patches"] += 1
            else:
                counts["engine.structure_hits"] += 1

    t.patch(LayoutLayer, "structure", traced_structure)
    patch_structure = layout_mod.patch_structure

    def counted_patch(*args, **kwargs):
        patched = patch_structure(*args, **kwargs)
        if patched is not None:
            counts["_patched"] += 1
        return patched

    t.patch(layout_mod, "patch_structure", counted_patch)
    structure_init = ProblemStructure.__init__

    def counted_init(self, *args, **kwargs):
        counts["_cold"] += 1
        structure_init(self, *args, **kwargs)

    t.patch(ProblemStructure, "__init__", counted_init)

    cached_solve = ModelEngine.cached_solve

    def traced_cached_solve(self, *args, **kwargs):
        if t.inside("core.ret"):
            counts["core.ret_probes"] += 1
        before = counts["_backend_solves"]
        index = t.open("engine.cached_solve")
        try:
            return cached_solve(self, *args, **kwargs)
        finally:
            t.close(index)
            if counts["_backend_solves"] == before:
                counts["engine.memo_hits"] += 1

    t.patch(ModelEngine, "cached_solve", traced_cached_solve)
    certify = ModelEngine.certify_feasible

    def counted_certify(self, *args, **kwargs):
        ok = certify(self, *args, **kwargs)
        if ok and t.inside("core.ret"):
            counts["engine.witness_hits"] += 1
        return ok

    t.patch(ModelEngine, "certify_feasible", counted_certify)

    # lp: the registry backend (wrapper) and the native HiGHS run.
    highs = get_backend("highs")
    register_backend(_TracedBackend(highs, t, InfeasibleProblemError),
                     replace=True)
    t._undo.append(lambda: register_backend(highs, replace=True))
    t.wrap(_Highs, "run", "lp.highs_run")

    # verify: the checker entry points (imported lazily by name at
    # call time, so the module attribute is what callers see).
    def traced_check(check):
        @functools.wraps(check)
        def wrapper(*args, **kwargs):
            index = t.open("verify.check")
            try:
                report = check(*args, **kwargs)
            finally:
                t.close(index)
            counts["verify.violations"] += len(report.violations)
            return report

        return wrapper

    for attr in ("verify_assignment", "verify_schedule"):
        t.patch(checker_mod, attr, traced_check(getattr(checker_mod, attr)))

    # recovery: the write-ahead journal append (fsync'd replace).
    t.wrap(EpochJournal, "append", "recovery.journal_append")

