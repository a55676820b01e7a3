"""Accelerated Newton scheme: contracting proximal-point outer loop.

Keeps a main sequence x_k and a proximal sequence v_k.  Outer iteration k
minimizes, via the dual Newton method started at v_k,

    A_{k+1} f(gamma*y + (1-gamma)*x_k)  +  a_{k+1} psi(y)  +  1/2 ||y - v_k||^2

to subgradient tolerance nu_{k+1} = R / (k+1)^2, then sets
``x_{k+1} = gamma v_{k+1} + (1-gamma) x_k``.  With the parameter rules

    R >= max(||x_0 - x*||, 2^{3/2}/M),   A_0 = c^2 R^2 / (2 (F(x_0) - F*)),
    gamma = (M R)^{-2/3},

the gap contracts geometrically at rate exp(-gamma k) with a (1 + 5/c)^2
prefactor.  Scaling the box/zero composite by a_{k+1} is a no-op (indicators
are invariant under positive scaling), so only the quadratic is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .composite import CompositeTerm
from .dual import DualConfig, DualStatus, solve_dual
from .oracles import SmoothOracle, check_bounds, contract_oracle, param, verdict


class ParameterError(ValueError):
    """A parameter precondition failed in strict mode."""


class AccelStatus(Enum):
    TARGET_GAP_REACHED = "target_gap_reached"
    MAX_OUTER = "max_outer"
    INNER_FAILURE = "inner_failure"
    ALREADY_CONVERGED = "already_converged"
    NON_FINITE = "non_finite"


@dataclass
class AccelConfig:
    """Parameters of the accelerated scheme.

    `distance_bound` is the estimate R; `f_star_ref` is required to set the
    initial scale A_0 per the parameter rule unless `a0` overrides it.
    `gamma` None applies the rule (M R)^{-2/3}, clamped at 1/2 (the clamp only
    engages for degenerate M, e.g. quadratics).
    """

    distance_bound: float = param("number", exclusiveMinimum=0)
    f_star_ref: float | None = None
    c: float = param("number", 1.0, exclusiveMinimum=0)
    gamma: float | None = param("number", None, exclusiveMinimum=0, exclusiveMaximum=1)
    a0: float | None = param("number", None, exclusiveMinimum=0)
    rel_accuracy: float = param("number", 1e-6, exclusiveMinimum=0)
    max_outer: int = param("integer", 500, minimum=1)
    strict: bool = False
    dual_max_outer: int = param("integer", 200, minimum=1)
    dual_max_inner: int = param("integer", 50, minimum=1)

    __post_init__ = check_bounds


@dataclass
class AccelTraceRow:
    k: int
    a_cumulative: float  # A_k
    a_increment: float  # a_k (NaN on the k=0 row)
    nu: float  # inner tolerance used to obtain v_k (NaN at k=0)
    dual_outer: int
    dual_inner_total: int
    f_value: float  # F(x_k)
    v_step_sq: float  # ||v_k - v_{k-1}||^2 (0 at k=0)
    v: np.ndarray | None = None
    x: np.ndarray | None = None

    CSV_COLUMNS = {
        "k": "k",
        "A": "a_cumulative",
        "a": "a_increment",
        "nu": "nu",
        "dual_outer": "dual_outer",
        "dual_inner": "dual_inner_total",
        "F": "f_value",
        "v_step_sq": "v_step_sq",
    }


@dataclass
class AccelResult:
    x: np.ndarray
    trace: list[AccelTraceRow]
    status: AccelStatus
    gamma: float
    gamma_clamped: bool
    a0: float
    distance_bound: float
    c: float
    f_star_ref: float | None
    outer_iterations: int
    total_dual_outer: int
    total_dual_inner: int
    metric: object = None
    # why the parameter rules' guarantee does not hold (R below 2^(3/2)/M),
    # kept in non-strict mode, where the run goes on; None when it holds
    parameter_warning: str | None = None


def solve_accelerated(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    x0: np.ndarray,
    config: AccelConfig,
) -> AccelResult:
    """Run the contracting proximal-point scheme from x0.

    Each inner dual solve starts from the state the previous one ended in
    (`solve_dual`'s `start`), so above the Hessian-free size its first step
    is preconditioned by the last inverse built, not a dense step: the
    contracted system grows by 1/(1 - gamma) per outer iteration and its
    Hessian moves within the qsc stability factor, and preconditioned CG is
    invariant under a constant factor on the preconditioner.  On a box its
    first step likewise starts from the active set the last one ended on.

    A non-finite F(x_k), or an inner dual solve that ends in `non_finite`,
    ends the run in `NON_FINITE` at that evaluation.  A non-finite F(x_k)
    leaves no row for x_k, so a non-finite F(x_0) leaves the trace empty.
    """
    metric = oracle.metric
    x0 = np.asarray(x0, dtype=float)
    if not psi.contains(x0):
        raise ValueError("x0 must be feasible for the composite term")
    m_const = oracle.qsc_constant
    r = config.distance_bound

    parameter_warning = None
    if m_const > 0 and r < 2.0**1.5 / m_const:
        parameter_warning = (
            f"distance bound R={r:g} is below 2^(3/2)/M={2.0 ** 1.5 / m_const:g}; "
            "the contraction rule is not certified"
        )
        if config.strict:
            raise ParameterError(parameter_warning)

    gamma_clamped = False
    if config.gamma is not None:
        gamma = config.gamma
    else:
        scale = (m_const * r) ** (2.0 / 3.0)
        gamma = 1.0 / scale if scale > 0 else math.inf
        if gamma > 0.5:
            gamma = 0.5
            gamma_clamped = True

    def full_value(point):
        return oracle.value(point) + psi.value(point, metric)

    f0 = full_value(x0)
    gap0 = None if config.f_star_ref is None else f0 - config.f_star_ref
    if config.a0 is None and gap0 is None:
        raise ValueError("f_star_ref is required unless a0 is overridden")
    # the A_0 rule needs a positive gap; at or below F* no iteration runs
    converged = config.a0 is None and gap0 <= 0
    if config.a0 is not None:
        a_cum = config.a0
    else:
        a_cum = math.nan if converged else config.c**2 * r**2 / (2.0 * gap0)
    a0 = a_cum

    x = x0.copy()
    v = x0.copy()
    trace = [AccelTraceRow(0, a_cum, math.nan, math.nan, 0, 0, f0, 0.0, v.copy(), x.copy())]
    status = AccelStatus.ALREADY_CONVERGED if converged else AccelStatus.MAX_OUTER
    if not math.isfinite(f0):
        trace, status = [], AccelStatus.NON_FINITE
    total_dual_outer = 0
    total_dual_inner = 0

    f_now = f0  # F(x_k), evaluated once per iterate
    carried = None  # the last inner solve's final state
    for k in range(config.max_outer if status is AccelStatus.MAX_OUTER else 0):
        if gap0 is not None and f_now - config.f_star_ref <= config.rel_accuracy * gap0:
            status = AccelStatus.TARGET_GAP_REACHED
            break
        a_next_cum = a_cum / (1.0 - gamma)
        a_incr = gamma * a_cum / (1.0 - gamma)
        nu_next = r / (k + 1) ** 2

        contracted = contract_oracle(oracle, gamma, x, a_next_cum)
        augmented = psi.with_quadratic(v, 0.5)
        inner = solve_dual(
            contracted,
            augmented,
            v,
            DualConfig(
                qsc_constant=max(gamma * m_const, 1e-12),
                grad_tol=nu_next,
                max_outer=config.dual_max_outer,
                max_inner=config.dual_max_inner,
            ),
            start=carried,
        )
        carried = inner.state
        total_dual_outer += inner.outer_iterations
        total_dual_inner += inner.total_inner
        if inner.status is not DualStatus.GRAD_TOL_REACHED:
            non_finite = inner.status is DualStatus.NON_FINITE
            status = AccelStatus.NON_FINITE if non_finite else AccelStatus.INNER_FAILURE
            break
        v_next = inner.x
        x = gamma * v_next + (1.0 - gamma) * x
        step_sq = metric.primal_norm(v_next - v) ** 2
        v = v_next
        a_cum = a_next_cum
        f_now = full_value(x)
        if not math.isfinite(f_now):
            status = AccelStatus.NON_FINITE
            break
        trace.append(
            AccelTraceRow(
                k=k + 1,
                a_cumulative=a_cum,
                a_increment=a_incr,
                nu=nu_next,
                dual_outer=inner.outer_iterations,
                dual_inner_total=inner.total_inner,
                f_value=f_now,
                v_step_sq=step_sq,
                v=v.copy(),
                x=x.copy(),
            )
        )

    return AccelResult(
        x=x,
        trace=trace,
        status=status,
        gamma=gamma,
        gamma_clamped=gamma_clamped,
        a0=a0,
        distance_bound=r,
        c=config.c,
        f_star_ref=config.f_star_ref,
        outer_iterations=max(len(trace) - 1, 0),  # no row at all after a non-finite F(x_0)
        total_dual_outer=total_dual_outer,
        total_dual_inner=total_dual_inner,
        metric=metric,
        parameter_warning=parameter_warning,
    )


# ---------------------------------------------------------------------------
# trace verification
# ---------------------------------------------------------------------------


@dataclass
class AccelPotentialReport:
    passed: bool
    worst_slack: float
    rhs: float
    rule_rhs: float  # (5 + c)^2 R^2 / 2, the bound under the parameter rules
    rule_passed: bool


def verify_accel_potential(
    result: AccelResult, x_star: np.ndarray, f_star: float
) -> AccelPotentialReport:
    """Check the potential inequality at every recorded k:

    ``A_k (F(x_k) - F*) + 1/2 ||v_k - x*||^2 + 1/2 sum_i ||v_i - v_{i-1}||^2
        <= 1/2 (||x_0 - x*|| + sqrt(2 A_0 (F_0 - F*)) + 4R)^2``

    and, under the parameter rules, against ``(5 + c)^2 R^2 / 2``.  A run
    that ends `ALREADY_CONVERGED` took no step and has no A_0 (the rule
    needs F_0 > F*), so no row is checked: it passes with worst slack inf,
    and its rhs drops the A_0 term.
    """
    x_star = np.asarray(x_star, dtype=float)
    metric = result.metric
    first = result.trace[0]
    rows = [] if result.status is AccelStatus.ALREADY_CONVERGED else result.trace
    gap0 = first.f_value - f_star
    dist0 = metric.primal_norm(np.asarray(first.x, float) - x_star)
    scale_term = math.sqrt(max(2.0 * result.a0 * gap0, 0.0)) if rows else 0.0
    rhs = 0.5 * (dist0 + scale_term + 4.0 * result.distance_bound) ** 2
    rule_rhs = 0.5 * (5.0 + result.c) ** 2 * result.distance_bound**2
    lhs = []
    cum_steps = 0.0
    for row in rows:
        cum_steps += row.v_step_sq
        lhs.append(
            row.a_cumulative * (row.f_value - f_star)
            + 0.5 * metric.primal_norm(np.asarray(row.v, float) - x_star) ** 2
            + 0.5 * cum_steps
        )
    passed, worst = verdict([rhs * (1.0 + 1e-6) - value for value in lhs])
    rule_passed = verdict([rule_rhs * (1.0 + 1e-6) - value for value in lhs])[0]
    return AccelPotentialReport(
        passed=passed, worst_slack=worst, rhs=rhs, rule_rhs=rule_rhs, rule_passed=rule_passed
    )


@dataclass
class AccelRateReport:
    passed: bool
    worst_slack: float
    bounded_v_passed: bool
    bounded_x_passed: bool


def verify_accel_rate(
    result: AccelResult, f_star: float, x_star: np.ndarray | None = None
) -> AccelRateReport:
    """Check the predefined geometric envelope and sequence boundedness:

    ``F(x_k) - F* <= exp(-gamma k) (1 + 5/c)^2 (F_0 - F*)`` for k >= 1 and,
    when a reference point is supplied, ``||v_k - x*|| <= (5 + c) R`` and the
    same bound for x_k.
    """
    gap0 = result.trace[0].f_value - f_star
    prefactor = (1.0 + 5.0 / result.c) ** 2
    passed, worst = verdict(
        [
            math.exp(-result.gamma * row.k) * prefactor * gap0 * (1.0 + 1e-6) - (row.f_value - f_star)
            for row in result.trace[1:]
        ]
    )
    v_margins = x_margins = []
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        radius = (5.0 + result.c) * result.distance_bound * (1.0 + 1e-6)
        norm = result.metric.primal_norm
        v_margins = [radius - norm(np.asarray(row.v, float) - x_star) for row in result.trace]
        x_margins = [radius - norm(np.asarray(row.x, float) - x_star) for row in result.trace]
    return AccelRateReport(
        passed=passed,
        worst_slack=worst,
        bounded_v_passed=verdict(v_margins)[0],
        bounded_x_passed=verdict(x_margins)[0],
    )
