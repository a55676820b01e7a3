"""Composite terms and the regularized Newton subproblem.

One step from x minimizes the quadratic model

    <g(x), y - x> + 1/2 ||y - x||_x^2 + beta/2 ||y - x||^2 + psi(y),

where psi is zero or a box indicator, optionally carrying exact quadratic
penalties w ||y - c||^2 (a proximal-point scheme adds its prox term this way,
through `CompositeTerm.with_quadratic`).  With no box the step is a single
symmetric solve; with a box it is a warm-started projected-gradient loop on
the strongly convex model.  Every step also selects the canonical subgradient
of F = f + psi at the new point from the step's own optimality condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import Metric, local_norm, regularized_solve, symmetrize
from .oracles import SmoothOracle


class MaxInnerIterationsError(RuntimeError):
    """The projected-gradient loop for a box step hit its iteration cap."""


class CompositeTerm:
    """Simple convex term psi: zero or a box indicator, plus exact quadratics.

    The quadratic entries (center, weight) each contribute
    ``weight * ||x - center||^2`` (squared metric norm) to psi; they are folded
    exactly into the Newton model rather than handled proximally.  Instances
    are immutable; `with_quadratic` returns a new term.
    """

    def __init__(self, lower=None, upper=None, quad_terms=()):
        if (lower is None) != (upper is None):
            raise ValueError("box needs both bounds (use +/-inf entries for one-sided)")
        if lower is not None:
            lower = np.asarray(lower, dtype=float)
            upper = np.asarray(upper, dtype=float)
            if lower.shape != upper.shape:
                raise ValueError("box bounds must have equal shapes")
            if not np.all(lower <= upper):  # also rejects NaN bounds
                raise ValueError("box requires lower <= upper componentwise")
        self._lower = lower
        self._upper = upper
        self._quads = tuple(
            (np.asarray(c, dtype=float), float(w)) for c, w in quad_terms
        )
        for _, w in self._quads:
            if w < 0:
                raise ValueError("quadratic weights must be nonnegative")

    @classmethod
    def zero(cls) -> "CompositeTerm":
        return cls()

    @classmethod
    def box(cls, lower, upper) -> "CompositeTerm":
        return cls(lower=lower, upper=upper)

    def with_quadratic(self, center, weight: float) -> "CompositeTerm":
        return CompositeTerm(
            lower=self._lower,
            upper=self._upper,
            quad_terms=self._quads + ((center, weight),),
        )

    @property
    def is_box(self) -> bool:
        return self._lower is not None

    @property
    def quad_terms(self):
        return self._quads

    @property
    def bounds(self):
        return self._lower, self._upper

    def project(self, x: np.ndarray) -> np.ndarray:
        if not self.is_box:
            return np.asarray(x, dtype=float)
        return np.clip(x, self._lower, self._upper)

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        if not self.is_box:
            return True
        slack = tol * (1.0 + np.abs(x).max())
        return bool(np.all(x >= self._lower - slack) and np.all(x <= self._upper + slack))

    def value(self, x: np.ndarray, metric: Metric) -> float:
        if self.is_box and not self.contains(x):
            return np.inf
        total = 0.0
        for center, weight in self._quads:
            total += weight * metric.primal_norm(np.asarray(x) - center) ** 2
        return total

    def quad_gradient(self, x: np.ndarray, metric: Metric) -> np.ndarray:
        """Gradient of the quadratic part of psi (a valid subgradient selection
        at any feasible point, since 0 is always in the box normal cone)."""
        g = np.zeros(metric.dim)
        for center, weight in self._quads:
            g += 2.0 * weight * metric.apply(np.asarray(x) - center)
        return g

    def quad_weight(self) -> float:
        return sum(w for _, w in self._quads)


@dataclass
class StepResult:
    """One completed regularized Newton step.

    `grad_plus` is the smooth gradient g(x+) that the subgradient selection
    evaluated; a caller stepping on from x+ passes it back as `grad=` instead
    of evaluating the oracle at x+ a second time.
    """

    x_plus: np.ndarray
    subgradient: np.ndarray  # selected F'(x+) in the subdifferential of f + psi
    beta: float
    inner_iterations: int
    step_length: float  # ||x+ - x|| in the metric norm
    step_length_local: float  # ||x+ - x|| in the local (Hessian) norm at x
    grad_plus: np.ndarray  # smooth gradient g(x+) of f alone


def _power_max_eigenvalue(matrix: np.ndarray, iterations: int = 20) -> float:
    """Upper estimate of the largest eigenvalue by power iteration.

    Starts from a fixed pseudo-random vector (a deterministic all-ones start
    can be exactly orthogonal to the leading eigenvector of structured
    Hessians, which would silently underestimate)."""
    n = matrix.shape[0]
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 1e-12
        lam = float(v @ w)
        v = w / norm
    # power iteration approaches from below; pad for a safe step size
    return max(lam, norm) * 1.05 + 1e-12


def newton_step(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    x: np.ndarray,
    beta: float,
    max_inner: int = 50_000,
    grad: np.ndarray | None = None,
    hess: np.ndarray | None = None,
) -> StepResult:
    """Minimize the regularized quadratic model of f + psi around x.

    psi's quadratics enter the model exactly, and the selected subgradient
    is one of f + psi, so it includes their gradient at x+.  The
    zero-composite case is one regularized solve; the box case runs projected
    gradient with a tolerance tied to 1e-2 * (model strong convexity) *
    (current step length).

    `grad` and `hess` are g(x) and the symmetrized H(x) when the caller
    already holds them (the previous step's `grad_plus`, or the Hessian kept
    across adaptive-sigma retries at the same x); each one left None is
    evaluated here.  A step then costs one gradient (at x+) and one Hessian
    at most, and passing the values changes no bit of the result.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x = np.asarray(x, dtype=float)
    metric = oracle.metric
    if grad is None:
        grad = oracle.gradient(x)
    if hess is None:
        hess = symmetrize(oracle.hessian(x))

    coeff = beta + 2.0 * psi.quad_weight()  # total multiple of B added to the Hessian

    # right-hand side of the stationarity equation at y = x + d
    rhs = -grad.copy()
    for center, weight in psi.quad_terms:
        rhs -= 2.0 * weight * metric.apply(x - center)

    inner_iterations = 0
    if not psi.is_box:
        d = regularized_solve(hess, metric, coeff, rhs)
        x_plus = x + d
    else:
        if not psi.contains(x):
            raise ValueError("step origin must be feasible for the box")
        if coeff <= 0:
            raise ValueError(
                "box-constrained model needs strong convexity: beta or a quadratic term"
            )
        system = hess + coeff * metric.matrix
        lipschitz = _power_max_eigenvalue(system)
        try:
            d0 = regularized_solve(hess, metric, coeff, rhs)
        except np.linalg.LinAlgError:
            d0 = np.zeros_like(x)
        y = psi.project(x + d0)
        atol = 1e-13 * (1.0 + np.linalg.norm(grad))
        # the model is coeff-strongly convex in the metric norm, so the
        # residual bounds the distance to the subproblem optimum through
        # coeff * lambda_min(B); the stop targets ~1e-9 of that distance while
        # staying under the step-tied cap 1e-2 * coeff * ||y - x||
        accuracy = coeff * metric.min_eigenvalue
        for inner_iterations in range(1, max_inner + 1):
            model_grad = system @ (y - x) - rhs
            y_next = psi.project(y - model_grad / lipschitz)
            residual = lipschitz * metric.primal_norm(y - y_next)
            y = y_next
            step_len = metric.primal_norm(y - x)
            tol = min(1e-2 * coeff * step_len, 1e-9 * accuracy * (1.0 + step_len))
            if residual <= max(tol, atol):
                break
        else:
            raise MaxInnerIterationsError(
                f"projected gradient did not reach its tolerance in {max_inner} iterations"
            )
        x_plus = y
        d = x_plus - x

    grad_plus = oracle.gradient(x_plus)
    subgradient = selected_subgradient(oracle, x, x_plus, beta, grad=grad, hess=hess, grad_plus=grad_plus)
    return StepResult(
        x_plus=x_plus,
        subgradient=subgradient,
        beta=beta,
        inner_iterations=inner_iterations,
        step_length=metric.primal_norm(d),
        step_length_local=local_norm(d, hess),
        grad_plus=grad_plus,
    )


def selected_subgradient(
    oracle: SmoothOracle,
    x: np.ndarray,
    x_plus: np.ndarray,
    beta: float,
    grad: np.ndarray | None = None,
    hess: np.ndarray | None = None,
    grad_plus: np.ndarray | None = None,
) -> np.ndarray:
    """Canonical subgradient of F = f + psi at x_plus from the step's optimality.

    Evaluates ``g(x+) - g(x) - (H(x) + beta B)(x+ - x)``; by the model
    stationarity this is g(x+) plus the gradient of psi's quadratics at x+
    plus a box normal vector, with no explicit quadratic term.  For the zero
    composite this equals the plain gradient at x_plus up to the
    linear-solver residual.  `grad` = g(x), `hess` = the
    symmetrized H(x) and `grad_plus` = g(x+) are used when given and
    evaluated otherwise.
    """
    x = np.asarray(x, dtype=float)
    x_plus = np.asarray(x_plus, dtype=float)
    metric = oracle.metric
    if grad is None:
        grad = oracle.gradient(x)
    if hess is None:
        hess = symmetrize(oracle.hessian(x))
    if grad_plus is None:
        grad_plus = oracle.gradient(x_plus)
    d = x_plus - x
    return grad_plus - grad - hess @ d - beta * metric.apply(d)


def verify_step_bound(
    step: StepResult, grad_norm: float, beta: float, lam: float = 0.0, slack: float = 1e-8
) -> tuple[bool, float]:
    """Check the one-step length bounds.

    ``||x+ - x|| <= g / (beta + lam) + slack``  and
    ``||x+ - x||_x^2 <= ||x+ - x|| * g + slack``, with lam >= 0 any lower
    bound on the minimal generalized Hessian eigenvalue (0 is always valid).
    """
    denom = beta + lam
    bound = np.inf if denom <= 0 else grad_norm / denom
    ok_global = step.step_length <= bound + slack
    ok_local = step.step_length_local**2 <= step.step_length * grad_norm + slack
    margin = min(
        (bound + slack) - step.step_length,
        (step.step_length * grad_norm + slack) - step.step_length_local**2,
    )
    return bool(ok_global and ok_local), float(margin)
