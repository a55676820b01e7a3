"""Dual Newton method: inexact proximal-point outer loop, pure-Newton inner loop.

Each outer iteration k augments the objective with the prox term
``M g_k ||y - x_k||^2`` (strong convexity 2 M g_k, which places x_k inside the
quadratic-convergence region of the pure Newton method), carried exactly as a
quadratic of the composite term, and runs unregularized Newton steps until
the augmented subgradient satisfies

    ||s_{t+1}||_*  <=  2 M g_k nu / (k + 1)^2.

The outer loop stops once the plain subgradient norm drops below nu.  If the
supplied qsc constant is too small the inner loop stalls; the method then
doubles the constant and retries the same outer iteration, at most
`_MAX_QSC_DOUBLINGS` times in a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .composite import CompositeTerm, MaxInnerIterationsError, StepState, newton_step
from .metric import NonFiniteError, SingularSystemError, require_finite
from .oracles import SmoothOracle, check_bounds, param, phi, verdict


class DualStatus(Enum):
    GRAD_TOL_REACHED = "grad_tol_reached"
    MAX_OUTER = "max_outer"
    QSC_PARAMETER_SUSPECT = "qsc_parameter_suspect"
    SINGULAR_SYSTEM = "singular_system"
    INNER_SOLVER_FAILURE = "inner_solver_failure"
    NON_FINITE = "non_finite"


_MAX_QSC_DOUBLINGS = 40  # a constant 2^40 times the declared one is suspect
_MAX_INNER = 50  # inner steps per outer iteration, then a doubling
QSC_FLOOR = 1e-12  # callers' floor on a declared M: M = 0 (a quadratic) would zero the prox weight
_INNER_QUADRATIC_SLACK = 1e-10  # of `check_inner_quadratic`

# the status each failure ends a run in (matched by isinstance)
_FAILURE_STATUS = {
    SingularSystemError: DualStatus.SINGULAR_SYSTEM,
    MaxInnerIterationsError: DualStatus.INNER_SOLVER_FAILURE,
    NonFiniteError: DualStatus.NON_FINITE,
}


@dataclass
class DualConfig:
    """Configuration for `solve_dual`: the M of the prox weight M g_k, the
    tolerance nu and the outer budget.  An outer iteration takes at most
    `_MAX_INNER` inner steps before M is doubled."""

    qsc_constant: float = param("number", exclusiveMinimum=0)
    grad_tol: float = param("number", 1e-8, exclusiveMinimum=0)
    max_outer: int = param("integer", 200, minimum=1)

    __post_init__ = check_bounds


@dataclass
class DualTraceRow:
    k: int
    g_k: float  # ||F'(x_k)||_* entering the iteration
    a_next: float  # 1 / (2 M g_k)
    inner_iterations: int
    inner_residuals: tuple  # ||s_{t+1}||_* per inner step
    threshold: float  # inner stopping threshold for this outer iteration
    g_next: float
    f_next: float  # F(x_{k+1}) including the composite term
    x_next: np.ndarray | None = None  # in memory only

    CSV_COLUMNS = {
        "k": "k",
        "t": "t",
        "s_norm": "s_norm",
        "threshold": "threshold",
        "g_k": "g_k",
        "a_next": "a_next",
        "g_next": "g_next",
        "F_next": "f_next",
    }

    def csv_records(self) -> list[dict]:
        """Long format: one record per inner step t with its residual s_norm,
        the outer-iteration fields repeated."""
        return [dict(vars(self), t=t, s_norm=s) for t, s in enumerate(self.inner_residuals, start=1)]


@dataclass
class DualResult:
    x: np.ndarray
    trace: list[DualTraceRow]
    status: DualStatus
    qsc_used: float
    grad_tol: float
    outer_iterations: int
    total_inner: int
    g0: float
    x0: np.ndarray
    final_grad_norm: float
    metric: object = None  # the metric the run was measured in
    # the last inner step's state, for a later solve to start from (see
    # `solve_dual`'s `start`); None when g(x0) could not be evaluated
    state: StepState | None = None


def solve_dual(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    x0: np.ndarray,
    config: DualConfig,
    start: StepState | None = None,
) -> DualResult:
    """Run the dual Newton method until ||F'(x)||_* <= grad_tol.

    One `StepState` is carried through the inner steps, and on into the next
    outer iteration, which starts at the last inner point: the smooth
    gradient is evaluated once at x0 and then once per inner step, with one
    Hessian.  Above the Hessian-free size most steps take a few
    Hessian-vector products in place of the Hessian, the state carrying
    each step's preconditioner on to the next, across outer iterations too
    (see `newton_step`).  On a box every step starts its active-set solve
    from the set the last box step ended on, carried the same way.  A retry
    after a doubling restarts from the outer iterate's state, with the
    latest preconditioner and active set.  `start`, a state an earlier solve
    ended in (`DualResult.state`), lends the first step its preconditioner,
    `rhs_norm` and active set; its x and g are never read, since g(x0)
    is evaluated here, so `oracle` may differ from the one it came from (as
    the accelerated scheme's contracted oracles do).  A gradient or Hessian
    holding NaN or inf ends the run in `NON_FINITE` at that evaluation, at
    x0 as well, and so does a non-finite F(x_{k+1}), which leaves no row for
    outer iteration k.
    """
    metric = oracle.metric
    x = psi.project(np.asarray(x0, dtype=float))
    if not psi.contains(x0):
        raise ValueError("x0 must be feasible for the composite term")
    m_const = config.qsc_constant
    g = g0 = math.nan  # kept when g(x0) itself is not finite
    trace: list[DualTraceRow] = []
    status = DualStatus.MAX_OUTER
    total_inner = 0
    doublings = 0
    state = None

    # a failure at x0 (a non-finite gradient) leaves the trace empty
    try:
        state = StepState.at(oracle, x)
        if start is not None:
            state = replace(
                state, preconditioner=start.preconditioner, rhs_norm=start.rhs_norm, active_set=start.active_set
            )
        anchor = state  # the outer iterate's state; `state` is the inner one
        # the box normal cone always holds 0, so this is a subgradient of F
        g = g0 = metric.dual_norm(state.grad + psi.quad_gradient(x, metric))
        k = 0
        # "not g <= tol" rather than "g > tol": a NaN norm goes on to the Newton
        # step instead of ending the run with the max_outer status
        while k < config.max_outer and not g <= config.grad_tol:
            weight = m_const * g
            # the prox term is an exact quadratic of the composite, so each inner
            # step's subgradient is the augmented residual s itself
            augmented = psi.with_quadratic(x, weight)
            # the roundoff floor keeps the inner target meaningful once the
            # nominal threshold drops below double-precision noise
            threshold = max(
                2.0 * m_const * g * config.grad_tol / (k + 1) ** 2,
                1e-14 * (1.0 + g),
            )
            residuals = []
            for _ in range(_MAX_INNER):
                step = newton_step(oracle, augmented, state, 0.0)
                state = step.state
                residuals.append(metric.dual_norm(step.subgradient))
                total_inner += 1
                if residuals[-1] <= threshold:
                    break
            else:
                if doublings < _MAX_QSC_DOUBLINGS:
                    # the declared constant is too small for the local theory
                    # to bite; double it and retry this outer iteration
                    m_const *= 2.0
                    doublings += 1
                    state = replace(anchor, preconditioner=state.preconditioner, active_set=state.active_set)
                    continue
                status = DualStatus.QSC_PARAMETER_SUSPECT
                break
            z = state.x
            # F'(z) is s without the prox term's gradient
            g_next = metric.dual_norm(step.subgradient - 2.0 * weight * metric.apply(z - x))
            f_next = oracle.value(z) + psi.value(z, metric)
            require_finite(f_next, "F(x_{k+1})")
            trace.append(
                DualTraceRow(
                    k=k,
                    g_k=g,
                    a_next=1.0 / (2.0 * m_const * g),
                    inner_iterations=len(residuals),
                    inner_residuals=tuple(residuals),
                    threshold=threshold,
                    g_next=g_next,
                    f_next=f_next,
                    x_next=z.copy(),
                )
            )
            anchor = state
            x = z
            g = g_next
            k += 1
    except tuple(_FAILURE_STATUS) as exc:
        status = next(status for error, status in _FAILURE_STATUS.items() if isinstance(exc, error))
    # every break leaves g above the tolerance, so this also covers x0
    if g <= config.grad_tol:
        status = DualStatus.GRAD_TOL_REACHED

    return DualResult(
        x=x,
        trace=trace,
        status=status,
        qsc_used=m_const,
        grad_tol=config.grad_tol,
        outer_iterations=len(trace),
        total_inner=total_inner,
        g0=g0,
        x0=np.array(x0, dtype=float),
        final_grad_norm=g,
        metric=metric,
        state=state,
    )


# ---------------------------------------------------------------------------
# trace verification
# ---------------------------------------------------------------------------


@dataclass
class DualGuaranteeReport:
    passed: bool
    lhs: float
    rhs: float


def verify_dual_guarantee(
    result: DualResult, x_star: np.ndarray, f_star: float
) -> DualGuaranteeReport:
    """Check the accumulated proximal-point potential against its bound:

    ``sum_i a_i (F(x_i) - F*) + 1/2 sum_i a_i^2 g_i^2
        <= 1/2 (||x_0 - x*|| + 2 nu)^2 * (1 + 1e-6)``.
    """
    if not result.trace:
        raise ValueError("need at least one outer iteration")
    lhs = 0.0
    for row in result.trace:
        lhs += row.a_next * (row.f_next - f_star)
        lhs += 0.5 * row.a_next**2 * row.g_next**2
    dist = result.metric.primal_norm(result.x0 - np.asarray(x_star, dtype=float))
    rhs = 0.5 * (dist + 2.0 * result.grad_tol) ** 2
    return DualGuaranteeReport(passed=bool(lhs <= rhs * (1.0 + 1e-6)), lhs=lhs, rhs=rhs)


@dataclass
class DualRateReport:
    passed: bool  # envelope_passed and oracle_calls_passed
    envelope_passed: bool
    oracle_calls_passed: bool
    fitted_decay: float  # least-squares slope of ln g_k over k
    worst_envelope_slack: float


def verify_dual_rate(
    result: DualResult,
    x_star: np.ndarray,
    slack_per_outer: float = 2.0,
) -> DualRateReport:
    """Check the geometric decay envelope and the oracle-call budget.

    The envelope is ``g_k <= exp(2 M^2 (||x_0 - x*|| + 2 nu)^2 - k/2) * g_0``
    for every recorded k >= 1.  The inner-call budget per k outer iterations
    is ``k * (1 + log2(ln ln arg))``-shaped with the looser of the two
    published arguments, the ln ln clamped below at e, plus `slack_per_outer`
    extra calls per outer iteration.
    """
    if len(result.trace) < 3:
        raise ValueError("need at least 3 outer iterations to verify the rate")
    m = result.qsc_used
    nu = result.grad_tol
    dist = result.metric.primal_norm(result.x0 - np.asarray(x_star, dtype=float))
    burn_in = 2.0 * m**2 * (dist + 2.0 * nu) ** 2
    margins = []
    log_g = []
    inner_total = 0
    calls_ok = True
    for idx, row in enumerate(result.trace):
        k = idx + 1
        bound = math.exp(min(burn_in - 0.5 * k, 700.0)) * result.g0 * (1.0 + 1e-6)
        margins.append(bound - row.g_next)
        if row.g_next > 0:
            log_g.append((k, math.log(row.g_next)))
        inner_total += row.inner_iterations
        arg = max((k + 1) ** 2 / (nu * min(2.0 * m, 1.0)), math.e)
        budget = k * (1.0 + math.log(math.log(arg)) / math.log(2.0)) + slack_per_outer * k
        if inner_total > budget:
            calls_ok = False
    ks = np.array([k for k, _ in log_g], dtype=float)
    ys = np.array([y for _, y in log_g])
    slope = float(np.polyfit(ks, ys, 1)[0]) if len(ks) >= 2 else math.nan
    envelope_passed, worst = verdict(margins)
    return DualRateReport(
        passed=envelope_passed and calls_ok,
        envelope_passed=envelope_passed,
        oracle_calls_passed=calls_ok,
        fitted_decay=slope,
        worst_envelope_slack=worst,
    )


@dataclass
class InnerQuadraticReport:
    passed: bool
    checked_pairs: int
    worst_slack: float


def check_inner_quadratic(result: DualResult) -> InnerQuadraticReport:
    """Verify the quadratic residual contraction of the inner Newton loops.

    The augmented objective at outer step k is 2 M g_k strongly convex while
    its smooth part keeps the qsc constant M, so once an inner residual is at
    most g_k (the quadratic-convergence region), the next one must satisfy
    ``r_{t+1} <= (M phi(1/2) / (2 M g_k)) r_t^2 + slack``.  The entering point
    sits exactly on the region boundary (its residual is g_k by construction),
    so the first inner step is checked as well.  A NaN residual is not outside
    the region, so its pair is checked and fails.
    """
    m = result.qsc_used
    phi_half = phi(0.5)
    margins = []
    for row in result.trace:
        factor = m * phi_half / (2.0 * m * row.g_k)
        residuals = (row.g_k,) + row.inner_residuals
        margins += [
            factor * r_now**2 + _INNER_QUADRATIC_SLACK - r_next
            for r_now, r_next in zip(residuals, residuals[1:])
            if not r_now > row.g_k
        ]
    passed, worst = verdict(margins)
    return InnerQuadraticReport(passed=passed, checked_pairs=len(margins), worst_slack=worst)
