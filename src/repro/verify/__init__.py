"""Schedule verification: invariant checkers, oracles, fuzzing, benchmarks.

The paper's guarantees are all *checkable invariants* — per-edge
wavelength capacity (eq. 2/8), integrality after LPD/LPDAR, window
containment, demand satisfaction (eq. 15), and the stage-2 fairness
floor ``Z_i >= (1 - alpha) Z*`` (eq. 9).  This package centralizes
them so the solver, scheduler, simulator, fault layer, tests, and CLI
all check the *same* definitions:

* :mod:`repro.verify.checker` — :func:`verify_schedule` /
  :func:`verify_assignment` / :func:`verify_grants` producing a
  :class:`VerificationReport` of typed :class:`Violation` records;
* :mod:`repro.verify.oracles` — differential testing of LPDAR against
  the exact MILP and highs-vs-simplex backend cross-checks;
* :mod:`repro.verify.fuzz` — seeded deterministic scenario generation
  (topology, workload, faults) driving pytest and ``repro verify
  --fuzz``;
* :mod:`repro.verify.bench` — the pinned micro-benchmark suite behind
  ``BENCH_verify.json``.
"""

from .bench import run_bench, write_bench
from .checker import (
    CHECKS,
    VerificationReport,
    Violation,
    verify_assignment,
    verify_grants,
    verify_schedule,
)
from .fuzz import (
    FuzzSummary,
    Scenario,
    ScenarioOutcome,
    make_scenario,
    run_fuzz,
    run_scenario,
    scenarios,
)
from .oracles import (
    DEFAULT_GAP_BOUND,
    CrossCheckResult,
    OracleResult,
    backend_cross_check,
    lpdar_vs_exact,
)

__all__ = [
    "CHECKS",
    "Violation",
    "VerificationReport",
    "verify_schedule",
    "verify_assignment",
    "verify_grants",
    "DEFAULT_GAP_BOUND",
    "OracleResult",
    "CrossCheckResult",
    "lpdar_vs_exact",
    "backend_cross_check",
    "Scenario",
    "ScenarioOutcome",
    "FuzzSummary",
    "make_scenario",
    "scenarios",
    "run_scenario",
    "run_fuzz",
    "run_bench",
    "write_bench",
]
