"""Newton method with gradient regularization: beta_k = sigma_k * ||F'(x_k)||_*.

Supports a constant regularization weight (defaulting to the oracle's declared
qsc constant) and the doubling/halving adaptive search that accepts sigma_k
once the step's progress condition

    <F'(x_{k+1}), x_k - x_{k+1}>  >=  g_{k+1}^2 / (2 sigma_k g_k)

holds.  Per-iterate diagnostics (minimal generalized Hessian eigenvalue and
the scale-invariant measure eta = g / lambda) are recorded on request and
drive the local quadratic-convergence check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .composite import CompositeTerm, MaxInnerIterationsError, StepState, can_be_hessian_free, newton_step
from .metric import NonFiniteError, SingularSystemError, min_generalized_eigenvalue, require_finite
from .oracles import SmoothOracle, check_bounds, param, phi, verdict


class PrimalStatus(Enum):
    GRAD_TOL_REACHED = "grad_tol_reached"
    TARGET_GAP_REACHED = "target_gap_reached"
    MAX_ITERS = "max_iters"
    SINGULAR_SYSTEM = "singular_system"
    ADAPTIVE_FAILURE = "adaptive_failure"
    INNER_SOLVER_FAILURE = "inner_solver_failure"
    NON_FINITE = "non_finite"


class AdaptiveSearchError(RuntimeError):
    """The doubling search exhausted its retry budget without progress."""


# the status each failure ends a run in (matched by isinstance)
_FAILURE_STATUS = {
    SingularSystemError: PrimalStatus.SINGULAR_SYSTEM,
    AdaptiveSearchError: PrimalStatus.ADAPTIVE_FAILURE,
    MaxInnerIterationsError: PrimalStatus.INNER_SOLVER_FAILURE,
    NonFiniteError: PrimalStatus.NON_FINITE,
}

_MAX_DOUBLINGS = 60  # of the adaptive search, then AdaptiveSearchError
_SIGMA_MIN = 1e-12  # the adaptive search's floor on sigma
_LOCAL_QUADRATIC_SLACK = 1e-12  # of `check_local_quadratic`


@dataclass
class PrimalConfig:
    """Configuration for `solve_primal`.

    With `adaptive` False the constant weight `sigma` is used (the oracle's
    declared qsc constant when None), else a search from `sigma0` floored at
    `_SIGMA_MIN`.  The target-gap stop needs an external reference value
    `f_star_ref`; the solver itself never estimates it.  `record_diagnostics`
    (library-only, as `f_star_ref` is; a run turns it on with `local_quadratic`)
    fills each row's `lam` and `eta` for `check_local_quadratic`.
    """

    sigma: float | None = param("number", None, minimum=0)
    adaptive: bool = param("boolean", False)
    sigma0: float = param("number", 1.0, exclusiveMinimum=0)
    grad_tol: float = param("number", 1e-9, exclusiveMinimum=0)
    max_iters: int = param("integer", 1000, minimum=1)
    f_star_ref: float | None = None
    rel_accuracy: float | None = param("number", None, exclusiveMinimum=0)
    record_diagnostics: bool = False

    __post_init__ = check_bounds


@dataclass
class PrimalTraceRow:
    """State at iterate k plus the step taken from it (NaN step fields on the
    final row, which only records the terminal iterate)."""

    k: int
    f_value: float
    grad_norm: float
    sigma: float = math.nan
    beta: float = math.nan
    step_length: float = math.nan
    progress: float = math.nan
    retries: int = 0
    lam: float = math.nan
    eta: float = math.nan
    x: np.ndarray | None = None  # kept in memory, not serialized

    CSV_COLUMNS = {
        "k": "k",
        "F": "f_value",
        "g": "grad_norm",
        "sigma": "sigma",
        "beta": "beta",
        "step_len": "step_length",
        "progress": "progress",
        "retries": "retries",
        "lambda": "lam",
        "eta": "eta",
    }


@dataclass
class PrimalResult:
    x: np.ndarray
    trace: list[PrimalTraceRow]
    status: PrimalStatus
    iterations: int
    step_computations: int
    final_grad_norm: float

    @property
    def f_values(self) -> np.ndarray:
        return np.array([row.f_value for row in self.trace])


def read_primal_trace(path) -> list[PrimalTraceRow]:
    """Parse a primal trace CSV back into rows (without the iterates)."""
    with open(path, "r", encoding="utf-8") as handle:
        return [
            PrimalTraceRow(
                **{
                    attr: (int if attr in ("k", "retries") else float)(rec[header])
                    for header, attr in PrimalTraceRow.CSV_COLUMNS.items()
                }
            )
            for rec in csv.DictReader(handle)
        ]


def _progress_condition(progress, g_next, sigma, g) -> bool:
    rhs = g_next**2 / (2.0 * sigma * g)
    return progress >= rhs - 1e-12 * (1.0 + abs(rhs))


def adaptive_sigma_search(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    state: StepState,
    grad_norm: float,
    sigma_start: float,
):
    """Double sigma from `sigma_start` until the progress condition holds.

    Returns (accepted sigma, StepResult, retries).  The caller should start
    the next iteration from half the accepted value.  Every retry restarts
    from `state`, with the same g(x), forcing-term history and carried
    active set, and the latest preconditioner.  Where the steps can be
    Hessian-free (`can_be_hessian_free`, with a box or without, and no
    `state.hessian`) a retry after a dense try then solves on products
    preconditioned by the inverse that try just built, and no H(x) is
    formed up front.  Otherwise the retries share one `StepState.hessian`,
    the caller's or evaluated here, unsymmetrized: only the regularization,
    and so the factorization, changes.
    """
    if grad_norm <= 0 or sigma_start <= 0:
        raise ValueError("adaptive search needs positive gradient norm and sigma_start")
    if state.hessian is None and not can_be_hessian_free(oracle):
        state = replace(state, hessian=oracle.hessian(state.x))
    sigma = sigma_start
    for retries in range(_MAX_DOUBLINGS + 1):
        step = newton_step(oracle, psi, state, sigma * grad_norm)
        g_next = oracle.metric.dual_norm(step.subgradient)
        progress = float(step.subgradient @ (state.x - step.state.x))
        if _progress_condition(progress, g_next, sigma, grad_norm):
            return sigma, step, retries
        sigma *= 2.0
        state = replace(state, preconditioner=step.state.preconditioner)
    raise AdaptiveSearchError(
        f"progress condition still failing after {_MAX_DOUBLINGS} doublings"
    )


def solve_primal(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    x0: np.ndarray,
    config: PrimalConfig,
) -> PrimalResult:
    """Run the gradient-regularized Newton iteration from x0.

    One `StepState` is carried from step to step: the smooth gradient is
    evaluated once at x0, and every later one is the previous step's, so a
    step costs one gradient and one Hessian (shared with the eta
    diagnostics when they are recorded, through `StepState.hessian`, which
    holds H(x_k) as the oracle returned it), and F is evaluated once per
    iterate.  Without diagnostics the state carries
    each step's preconditioner on to the next, and through the adaptive
    search's retries, so above the Hessian-free size most steps form no
    Hessian (see `newton_step` and `adaptive_sigma_search`).  A value,
    gradient or Hessian holding NaN or inf ends the run in `NON_FINITE` at that
    evaluation, at x0 as well; a non-finite F(x_k) leaves no row for x_k.
    """
    x = psi.project(np.asarray(x0, dtype=float))
    if not psi.contains(x0):
        raise ValueError("x0 must be feasible for the composite term")
    metric = oracle.metric
    trace: list[PrimalTraceRow] = []
    step_computations = 0
    sigma_next = config.sigma0
    status = PrimalStatus.MAX_ITERS
    g = math.nan  # kept when g(x0) itself is not finite

    # a failure at x0 (a non-finite gradient) leaves the trace empty
    try:
        state = StepState.at(oracle, x)
        # the box normal cone always holds 0, so this is a subgradient of F
        g = metric.dual_norm(state.grad + psi.quad_gradient(x, metric))

        gap0 = None  # F(x0) - F*, from the first row's F when the stop needs it

        # every iterate gets a row; a row whose step is never taken (the last
        # one) keeps NaN step fields
        for k in range(config.max_iters + 1):
            x = state.x
            f_val = oracle.value(x) + psi.value(x, metric)
            require_finite(f_val, "F(x)")
            row = PrimalTraceRow(k, f_val, g, x=x.copy())
            trace.append(row)
            if k == 0 and config.f_star_ref is not None and config.rel_accuracy is not None:
                gap0 = f_val - config.f_star_ref
            if config.record_diagnostics:
                # the diagnostics and the step from x share one evaluation
                state = replace(state, hessian=oracle.hessian(x))
                row.lam = min_generalized_eigenvalue(state.hessian, metric)
                row.eta = _eta(g, row.lam)
            if k == config.max_iters:  # the budget is spent: status stays MAX_ITERS
                break
            if g <= config.grad_tol:
                status = PrimalStatus.GRAD_TOL_REACHED
                break
            if gap0 is not None and gap0 > 0 and f_val - config.f_star_ref <= config.rel_accuracy * gap0:
                status = PrimalStatus.TARGET_GAP_REACHED
                break

            if config.adaptive:
                sigma_k, step, retries = adaptive_sigma_search(oracle, psi, state, g, max(sigma_next, _SIGMA_MIN))
                sigma_next = max(sigma_k / 2.0, _SIGMA_MIN)
            else:
                sigma_k = config.sigma if config.sigma is not None else oracle.qsc_constant
                step = newton_step(oracle, psi, state, sigma_k * g)
                retries = 0
            step_computations += retries + 1

            row.sigma, row.beta, row.step_length, row.retries = sigma_k, sigma_k * g, step.step_length, retries
            state = step.state
            row.progress = float(step.subgradient @ (x - state.x))
            g = metric.dual_norm(step.subgradient)
    except tuple(_FAILURE_STATUS) as exc:
        status = next(status for error, status in _FAILURE_STATUS.items() if isinstance(exc, error))

    return PrimalResult(
        x=x,
        trace=trace,
        status=status,
        iterations=sum(1 for row in trace if not math.isnan(row.sigma)),
        step_computations=step_computations,
        final_grad_norm=g,
    )


def _eta(grad_norm: float, lam: float) -> float:
    """eta = g / lambda: 0 where g = 0, +inf where lambda = 0 < g."""
    if grad_norm == 0.0:
        return 0.0
    return grad_norm / lam if lam > 0 else math.inf


def eta_measure(
    oracle: SmoothOracle, psi: CompositeTerm, x: np.ndarray, f_prime: np.ndarray
) -> float:
    """Scale-invariant convergence measure ||F'(x)||_* / lambda(x).

    Returns +inf when the Hessian has a zero generalized eigenvalue and the
    point is not stationary, and 0 at stationary points.
    """
    g = oracle.metric.dual_norm(f_prime)
    return _eta(g, min_generalized_eigenvalue(oracle.hessian(x), oracle.metric))


@dataclass
class LocalQuadraticReport:
    entered: bool
    entry_index: int | None
    passed: bool
    worst_slack: float
    checked_pairs: int = 0

    @property
    def not_entered(self) -> bool:
        return not self.entered


def check_local_quadratic(trace: list[PrimalTraceRow], qsc_constant: float) -> LocalQuadraticReport:
    """Verify the per-step quadratic contraction of eta after entering the
    local region eta <= 1/(18 M).

    Each consecutive pair after entry must satisfy
    ``eta_{k+1} <= e * (phi(1) * M + sigma_k) * eta_k^2 + slack``, judged by
    `verdict`.  A trace that never enters the region (one recorded without
    diagnostics, whose eta is NaN) passes vacuously with `entered` False.
    """
    threshold = math.inf if qsc_constant == 0 else 1.0 / (18.0 * qsc_constant)
    entry = next((i for i, row in enumerate(trace) if row.eta <= threshold), None)
    if entry is None:
        return LocalQuadraticReport(False, None, True, math.inf)
    phi_one = phi(1.0)
    margins = [
        math.e * (phi_one * qsc_constant + row.sigma) * row.eta**2 + _LOCAL_QUADRATIC_SLACK - nxt.eta
        for row, nxt in zip(trace[entry:], trace[entry + 1 :])
    ]
    passed, worst = verdict(margins)
    return LocalQuadraticReport(True, entry, passed, worst, len(margins))
