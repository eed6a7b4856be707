"""Slotted wavelength scheduling for bulk transfers in research networks.

A full reproduction of Wang, Ranka & Xia, *Slotted Wavelength Scheduling
for Bulk Transfers in Research Networks* (ICPP 2009): time-constrained
bulk-transfer scheduling on wavelength-switched optical networks, built
around the LPDAR heuristic for integer wavelength assignment.

Quick tour
----------

>>> from repro import Scheduler, Job, JobSet, topologies
>>> net = topologies.abilene().with_wavelengths(4, total_link_rate=20.0)
>>> jobs = JobSet([
...     Job(id="hep", source="Chicago", dest="Sunnyvale",
...         size=120.0, start=0.0, end=4.0),
... ])
>>> result = Scheduler(net).schedule(jobs)
>>> result.zstar > 1.0  # underloaded: the request fits with room to spare
True

The three top-level entry points are:

* :class:`~repro.core.scheduler.Scheduler` — the maximizing-throughput
  algorithm (stage 1 + stage 2 + LPDAR),
* :func:`~repro.core.ret.solve_ret` — the Relaxing-End-Times algorithm
  (Algorithm 2),
* :class:`~repro.sim.simulator.Simulation` — the periodic AC/scheduling
  controller loop.
"""

from . import analysis, chaos, control, core, engine, experiments, faults, lp, network, obs, parallel, recovery, service, sim, verify, workload
from . import serialization
from .analysis import ResilienceReport, resilience_report
from .chaos import (
    ChaosReport,
    ChaosSchedule,
    FaultyBackend,
    JournalFaultInjector,
    MonitorViolation,
    generate_chaos,
    parse_chaos_spec,
    run_chaos,
)
from .control import (
    AlphaBanditPolicy,
    ControlPolicy,
    EpochAction,
    EpochKernel,
    EpochObservation,
    EpochOutcome,
    FixedPolicy,
    LoadReactivePathsPolicy,
    POLICY_NAMES,
    PolicyComparison,
    PolicyRunResult,
    SchedulingEnv,
    compare_policies,
    make_policy,
)
from .engine import (
    HighsBackend,
    ModelEngine,
    SimplexBackend,
    SolverBackend,
    TopologyLayer,
    LayoutLayer,
    available_backends,
    build_structure,
    get_backend,
    register_backend,
)
from .core import (
    AdmissionDecision,
    NegotiationSession,
    BaselineResult,
    admit_greedy,
    average_rate_reservation,
    malleable_reservation,
    LpdarResult,
    RetResult,
    ScheduleResult,
    Scheduler,
    Stage1Result,
    Stage2Result,
    WavelengthGrant,
    admit_max_prefix,
    average_end_time,
    completion_slices,
    discretize,
    fraction_finished,
    greedy_adjust,
    lpdar,
    realize_schedule,
    solve_ret,
    solve_stage1,
    solve_stage2_exact,
    solve_stage2_lp,
    solve_subret_exact,
    solve_subret_lp,
)
from .errors import (
    BudgetExceededError,
    InfeasibleProblemError,
    JournalError,
    JournalLockedError,
    JournalWriteError,
    ReproError,
    ScheduleError,
    SolverError,
    UnboundedProblemError,
    ValidationError,
)
from .faults import (
    FaultSchedule,
    LinkDown,
    LinkUp,
    WavelengthDegrade,
    parse_fault_spec,
)
from .lp import (
    DEFAULT_RESILIENCE,
    LinearProgram,
    LPSolution,
    ProblemStructure,
    SolveResilience,
    solve_lp,
    solve_milp,
)
from .obs import NULL_TELEMETRY, NullTelemetry, Telemetry
from .parallel import TaskResult, TaskSpec, register_task, run_fleet
from .network import (
    CapacityProfile,
    Edge,
    Network,
    Path,
    abilene,
    edge_disjoint_paths,
    k_shortest_paths,
    shortest_path,
    waxman_network,
)
from .network import topologies
from .recovery import (
    CRASH_POINTS,
    SERVICE_CRASH_POINTS,
    CrashInjector,
    EpochJournal,
    JournalReplay,
    SCHEMA_VERSION,
    SimulatedCrash,
    SolveBudget,
    read_journal,
)
from .service import (
    Accepted,
    ClosedLoopDriver,
    CommitmentBook,
    Decision,
    DecisionHandle,
    Negotiated,
    Rejected,
    Reservation,
    ReservationRequest,
    ReservationService,
    ServiceStats,
    parse_request,
)
from .sim import Simulation, SimulationResult, SimulationSummary, summarize
from .timegrid import TimeGrid
from .verify import (
    VerificationReport,
    Violation,
    verify_assignment,
    verify_grants,
    verify_schedule,
)
from .workload import (
    Job,
    JobSet,
    WorkloadConfig,
    WorkloadGenerator,
    climate_ensemble_trace,
    hep_tier_trace,
    mixed_escience_trace,
)

__version__ = "1.0.0"

__all__ = [
    # subpackages
    "analysis",
    "chaos",
    "control",
    "core",
    "engine",
    "experiments",
    "faults",
    "lp",
    "network",
    "obs",
    "parallel",
    "recovery",
    "service",
    "sim",
    "verify",
    "workload",
    "topologies",
    # network substrate
    "Network",
    "Edge",
    "Path",
    "abilene",
    "waxman_network",
    "shortest_path",
    "k_shortest_paths",
    "edge_disjoint_paths",
    # time and jobs
    "TimeGrid",
    "Job",
    "JobSet",
    "WorkloadConfig",
    "WorkloadGenerator",
    "hep_tier_trace",
    "climate_ensemble_trace",
    "mixed_escience_trace",
    # LP layer
    "ProblemStructure",
    "LinearProgram",
    "LPSolution",
    "SolveResilience",
    "DEFAULT_RESILIENCE",
    "solve_lp",
    "solve_milp",
    # model engine and solver-backend registry
    "ModelEngine",
    "build_structure",
    "TopologyLayer",
    "LayoutLayer",
    "SolverBackend",
    "HighsBackend",
    "SimplexBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    # observability
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    # core algorithms
    "Scheduler",
    "ScheduleResult",
    "WavelengthGrant",
    "Stage1Result",
    "Stage2Result",
    "LpdarResult",
    "RetResult",
    "solve_stage1",
    "solve_stage2_lp",
    "solve_stage2_exact",
    "solve_subret_lp",
    "solve_subret_exact",
    "solve_ret",
    "lpdar",
    "realize_schedule",
    "NegotiationSession",
    "discretize",
    "greedy_adjust",
    "admit_max_prefix",
    "admit_greedy",
    "AdmissionDecision",
    "BaselineResult",
    "malleable_reservation",
    "average_rate_reservation",
    "CapacityProfile",
    "serialization",
    "fraction_finished",
    "average_end_time",
    "completion_slices",
    # simulator
    "Simulation",
    "SimulationResult",
    "SimulationSummary",
    "summarize",
    # durability: journaling, crash-recovery, solve budgets
    "SCHEMA_VERSION",
    "EpochJournal",
    "JournalReplay",
    "read_journal",
    "CRASH_POINTS",
    "SERVICE_CRASH_POINTS",
    "CrashInjector",
    "SimulatedCrash",
    "SolveBudget",
    # reservation service
    "ReservationService",
    "ReservationRequest",
    "Decision",
    "DecisionHandle",
    "Accepted",
    "Rejected",
    "Negotiated",
    "parse_request",
    "CommitmentBook",
    "Reservation",
    "ServiceStats",
    "ClosedLoopDriver",
    # parallel execution: fleet mode
    "TaskSpec",
    "TaskResult",
    "register_task",
    "run_fleet",
    # verification
    "Violation",
    "VerificationReport",
    "verify_schedule",
    "verify_assignment",
    "verify_grants",
    # fault injection and resilience
    "FaultSchedule",
    "LinkDown",
    "LinkUp",
    "WavelengthDegrade",
    "parse_fault_spec",
    "ResilienceReport",
    "resilience_report",
    # epoch-control kernel and policy surface
    "EpochKernel",
    "EpochAction",
    "EpochObservation",
    "EpochOutcome",
    "ControlPolicy",
    "FixedPolicy",
    "AlphaBanditPolicy",
    "LoadReactivePathsPolicy",
    "POLICY_NAMES",
    "make_policy",
    "SchedulingEnv",
    "PolicyRunResult",
    "PolicyComparison",
    "compare_policies",
    # chaos engine
    "ChaosSchedule",
    "ChaosReport",
    "FaultyBackend",
    "JournalFaultInjector",
    "MonitorViolation",
    "generate_chaos",
    "parse_chaos_spec",
    "run_chaos",
    # errors
    "ReproError",
    "ValidationError",
    "SolverError",
    "InfeasibleProblemError",
    "UnboundedProblemError",
    "ScheduleError",
    "BudgetExceededError",
    "JournalError",
    "JournalLockedError",
    "JournalWriteError",
    "__version__",
]
