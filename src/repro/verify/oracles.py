"""Differential oracles: check the heuristics against independent solvers.

Two cross-checks, in the spirit of validating heuristics against exact
solutions on small instances (the paper itself could only compare LPDAR
to the LP upper bound at scale):

* :func:`lpdar_vs_exact` — run the full stage-1 / stage-2 / LPDAR
  pipeline *and* the exact stage-2 MILP (HiGHS-MIP, small instances
  only) on one structure, verify both solutions against the shared
  invariants, and measure the objective gap;
* :func:`backend_cross_check` — solve the same stage-2 LP with both the
  HiGHS backend and the pure-Python reference simplex and compare
  optimal objectives (the assignments may differ across degenerate
  optima; the value must not).

Both are plain functions over a :class:`~repro.lp.model.ProblemStructure`
so pytest can parameterize them directly, and the fuzzer
(:mod:`repro.verify.fuzz`) drives them over seeded random scenarios.

The documented gap bound
------------------------

:data:`DEFAULT_GAP_BOUND` asserts that LPDAR attains at least
``1 - DEFAULT_GAP_BOUND`` of the exact integer optimum's weighted
throughput on the small instances these oracles run on (a few jobs on a
ring / line / Abilene with one or two wavelengths per link).  The paper
reports LPDAR within a few percent of the *LP* bound for many-wavelength
networks, degrading as links carry fewer wavelengths; small fuzz
instances sit at that hard end, so the bound is looser than the paper's
headline numbers.  Empirically, 120 seeded fuzz scenarios (base seeds
0..119, the generator of :mod:`repro.verify.fuzz`) max out at a gap of
0.067, so 0.25 keeps nearly 4x margin while still catching a rounding
regression that loses a whole wavelength on these 1-3 wavelength links.
Note LPDAR may also *exceed* the exact stage-2 optimum: Algorithm 1
packs leftover wavelengths without honouring the fairness constraint (9)
that binds the MILP, so the gap is clamped at zero from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exact import solve_stage2_exact
from ..core.lpdar import LpdarResult, lpdar
from ..core.stage2 import build_stage2_lp, solve_stage2_lp
from ..core.throughput import solve_stage1
from ..errors import InfeasibleProblemError, ValidationError
from ..lp.model import ProblemStructure
from ..lp.solver import solve_lp
from .checker import VerificationReport, verify_assignment

__all__ = [
    "DEFAULT_GAP_BOUND",
    "BACKEND_TOL",
    "OracleResult",
    "CrossCheckResult",
    "lpdar_vs_exact",
    "backend_cross_check",
]

#: LPDAR must reach at least ``1 - DEFAULT_GAP_BOUND`` of the exact
#: integer optimum on oracle-sized instances (see module docstring).
DEFAULT_GAP_BOUND = 0.25

#: Two LP backends must agree on the optimal objective to this tolerance.
BACKEND_TOL = 1e-6

@dataclass(frozen=True)
class OracleResult:
    """Outcome of one LPDAR-vs-exact differential run.

    Attributes
    ----------
    zstar:
        Stage-1 maximum concurrent throughput of the instance.
    lp_objective:
        Stage-2 LP relaxation optimum (upper bound on the exact MILP).
    lpdar_objective, exact_objective:
        Weighted throughput of the LPDAR rounding and the true integer
        optimum.
    gap:
        ``max(0, exact - lpdar) / exact`` — LPDAR's relative shortfall
        against the exact optimum (0 when LPDAR matches or beats it).
    alpha, exact_alpha:
        Fairness slack used by the pipeline and by the exact solve (the
        latter may have been escalated per Remark 1 when the MILP was
        infeasible at the requested ``alpha``).
    lpdar_report, exact_report:
        Shared-invariant verification of both solutions.
    assignments:
        The pipeline's LP/LPD/LPDAR assignment bundle.
    """

    zstar: float
    lp_objective: float
    lpdar_objective: float
    exact_objective: float
    gap: float
    alpha: float
    exact_alpha: float
    lpdar_report: VerificationReport
    exact_report: VerificationReport
    assignments: LpdarResult

    @property
    def ok(self) -> bool:
        """Both solutions pass every shared invariant."""
        return self.lpdar_report.ok and self.exact_report.ok

    def within(self, bound: float = DEFAULT_GAP_BOUND) -> bool:
        """Whether the LPDAR gap respects the documented bound."""
        return self.gap <= bound + 1e-12


def lpdar_vs_exact(
    structure: ProblemStructure,
    alpha: float = 0.1,
    alpha_step: float = 0.1,
    weights: np.ndarray | None = None,
    time_limit: float | None = 30.0,
) -> OracleResult:
    """Differential-test LPDAR against the exact stage-2 MILP.

    Runs stage 1, the stage-2 LP at ``alpha``, the LPDAR rounding, and
    the exact MILP; when the MILP is infeasible at ``alpha`` (possible:
    integrality can make the fairness floor unattainable even though the
    LP relaxation never is — the situation Remark 1 addresses), ``alpha``
    is escalated by ``alpha_step`` for the exact solve only, so the
    comparison is against the tightest-feasible exact optimum.

    Raises
    ------
    ValidationError
        The instance exceeds the MILP size guard — keep oracle
        instances small by construction.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    if alpha_step <= 0:
        raise ValidationError(f"alpha_step must be positive, got {alpha_step}")

    stage1 = solve_stage1(structure)
    stage2 = solve_stage2_lp(structure, stage1.zstar, alpha, weights)
    rounded = lpdar(structure, stage2.x)

    exact_alpha = alpha
    while True:
        try:
            exact = solve_stage2_exact(
                structure, stage1.zstar, exact_alpha, weights,
                time_limit=time_limit,
            )
            break
        except InfeasibleProblemError:
            if exact_alpha >= 1.0:
                raise
            exact_alpha = min(1.0, exact_alpha + alpha_step)

    lpdar_objective = structure.weighted_throughput(rounded.x_lpdar)
    exact_objective = structure.weighted_throughput(exact.x)
    if exact_objective > 1e-12:
        gap = max(0.0, exact_objective - lpdar_objective) / exact_objective
    else:
        gap = 0.0

    lpdar_report = verify_assignment(structure, rounded.x_lpdar)
    exact_report = verify_assignment(
        structure,
        exact.x,
        zstar=stage1.zstar,
        alpha=exact_alpha,
    )
    return OracleResult(
        zstar=stage1.zstar,
        lp_objective=stage2.objective,
        lpdar_objective=lpdar_objective,
        exact_objective=exact_objective,
        gap=gap,
        alpha=alpha,
        exact_alpha=exact_alpha,
        lpdar_report=lpdar_report,
        exact_report=exact_report,
        assignments=rounded,
    )


@dataclass(frozen=True)
class CrossCheckResult:
    """Outcome of one highs-vs-simplex backend comparison.

    Attributes
    ----------
    highs_objective, simplex_objective:
        Optimal objectives reported by the two backends.
    difference:
        Absolute objective disagreement.
    agree:
        Whether the difference is within :data:`BACKEND_TOL` (scaled by
        the objective's magnitude).
    """

    highs_objective: float
    simplex_objective: float
    difference: float
    agree: bool


def backend_cross_check(
    structure: ProblemStructure,
    alpha: float = 0.1,
    tol: float = BACKEND_TOL,
) -> CrossCheckResult:
    """Solve the stage-2 LP with both backends; the optima must agree.

    The reference simplex is dense pure Python — keep instances small
    (the fuzzer's default sizes are fine).  Assignments are allowed to
    differ (degenerate optima are common on symmetric topologies); the
    *objective value* is the contract.
    """
    zstar = solve_stage1(structure).zstar
    problem = build_stage2_lp(structure, zstar, alpha)
    highs = solve_lp(problem, backend="highs")
    simplex = solve_lp(problem, backend="simplex")
    difference = abs(highs.objective - simplex.objective)
    scale = max(1.0, abs(highs.objective))
    return CrossCheckResult(
        highs_objective=highs.objective,
        simplex_objective=simplex.objective,
        difference=difference,
        agree=difference <= tol * scale,
    )
