"""Composite terms and the regularized Newton subproblem.

One step from x minimizes the quadratic model

    <g(x), y - x> + 1/2 ||y - x||_x^2 + beta/2 ||y - x||^2 + psi(y),

where psi is zero or a box indicator, optionally carrying exact quadratic
penalties w ||y - c||^2 (a proximal-point scheme adds its prox term this way,
through `CompositeTerm.with_quadratic`).  With no box the step is a single
symmetric solve; with a box the model is a strongly convex box QP, solved
by a primal-dual active-set method, one loop whose free blocks are solved
by Cholesky or, on a Hessian-free step, by CG.  That method starts from the
active set the previous box step ended on, carried in the step state, and
from the empty set, every coordinate free, when nothing is carried or that
set fails; both starts reach the same minimizer, so they differ only by
roundoff.
Every step, dense, box or Hessian-free, selects the same subgradient of
F = f + psi at x+: g(x+) plus the gradient of psi's quadratics, less the
box multiplier of its active-set solve (none without a box).

A solver that carries each step's `StepState` on to the next step, and
across its own restarts (the adaptive search's retries, the dual's
doublings, the accelerated scheme's inner solves), takes Hessian-free
steps where they pay: where the oracle's declared costs
(`SmoothOracle.costs`) make a dense step cost more than a typical CG
solve (`hessian_free_pays`), the solve is CG on the products of
``H + coeff*B``, each one single-point `hessian_vector` call (the Gram
families' one-point memo computes what they share from x once),
preconditioned by the inverse of the last dense system; on a box, each free
block of the active-set loop is solved so, preconditioned by the inverse of
that block of the last dense system.  A CG solve gives up, and the step
turns dense, where the products it still needs would cost more than the
dense step (`_cg_budget`).
Under quasi-self-concordance H(y) stays within exp(+-M ||y - x||) of H(x),
so that stale inverse keeps the preconditioned spectrum near 1 (the
lazy-Hessian idea of Doikov, Chayti and Jaggi, *Second-order optimization
with lazy Hessians*, ICML 2023, used here only as a preconditioner).
Such a step is inexact: CG stops at a relative residual, the forcing term,
that Eisenstat and Walker's second choice ties to how fast the step's
right-hand side falls, so the step minimizes the model only as accurately
as the progress of the next steps needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    Metric,
    SingularSystemError,
    _cho_inverse,
    _cho_solve,
    _cholesky,
    regularized_solve,
    require_finite,
    symmetrize,
)
from .oracles import OracleCosts, SmoothOracle

# What one call costs beyond its flops, in flops: numpy's dispatch and the
# small vector operations around a Hessian's factorization or a CG product.
# `hessian_free_pays` adds it to a dense step and to each product.  It is
# fitted to the crossovers measured on the Gram families, whole solves on
# one BLAS thread: dense steps win at n = 30, m = 300 (CG ran the
# accelerated soft-max solves x1.11 slower, x1.86 with the carried step
# state) and at n = 50, m = 200 (x1.14 and x1.18 in the median of the
# constant-sigma primal and the dual), and CG wins where n >= 100 or
# m >= 1000 (x0.39-0.77, n = 50 to 200, m = 4n and 20n).  The last two
# hold for any value between 2e5 (below it CG is picked at n = 50,
# m = 200) and 9.6e5 (above it dense is picked at n = 50, m = 1000); 4e5
# is near their geometric mean.
_CALL_OVERHEAD = 4e5
# The products a Hessian-free step's CG solve typically takes, measured:
# 1.4 to 3.8 per step in the console-script solves at n = 64, 2.8 to 3.5
# in the dual at n = 100.  The kind rule needs it beside the overhead: a
# step is Hessian-free where a dense step costs more than this many
# products.  With the overhead above, any value from 2 to 4 keeps the
# crossovers: the budget is 2 at n = 30, m = 300 and at n = 50, m = 200,
# where dense steps won, and 5 at n = 50, m = 1000, where CG won.
_CG_TYPICAL_PRODUCTS = 3
# The flop counts misprice a product where the design outgrows the cache:
# it then runs at about a fifth of the Hessian's flop rate, and a dense
# step took 7.8 products at n = 200, m = 4000 where the counts give 44.
# No dense step of the Gram families took more than 15.3 products (soft-max
# at n = 30 to 200, m = 200 to 4000, one BLAS thread; the most at n = 200,
# m = 800), so a budget stops at 16.
_CG_MAX_BUDGET = 16
# CG stops once the preconditioned residual r^T P r has fallen by the
# square of the forcing term eta_k, relative to the step's own right-hand
# side, the gradient it is meant to cancel (Dembo, Eisenstat and Steihaug,
# *Inexact Newton methods*, SIAM J. Numer. Anal. 1982).  eta_k is
# Eisenstat and Walker's second choice (*Choosing the forcing terms in an
# inexact Newton method*, SIAM J. Sci. Comput. 1996),
#     eta_k = min(_FORCING_MAX, max(_CG_TOL, _FORCING_GAMMA * (|rhs_k| / |rhs_k-1|)^_FORCING_POWER)),
# loose while the right-hand side falls slowly and tight once it falls
# fast.  _CG_TOL is its floor, used where no earlier right-hand side is
# known.  A fixed 1e-4 was not enough on its own: it raised a logistic
# dual solve's steps from 205 to 270 (n = 100, m = 2000), and a fixed 1e-1
# fails the dual's inner quadratic check.
_CG_TOL = 1e-12
_FORCING_MAX = 1e-4
_FORCING_GAMMA = 0.9
_FORCING_POWER = 2
_BOX_MAX_INNER = 100  # linear solves of one active-set start, then MaxInnerIterationsError
_STEP_BOUND_SLACK = 1e-8  # of `verify_step_bound`
_CONTAINS_TOL = 1e-12  # of `CompositeTerm.contains`, relative to 1 + max |x_i|


class MaxInnerIterationsError(RuntimeError):
    """The active-set solve of a box step hit its iteration cap."""


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

    def contains(self, x: np.ndarray) -> bool:
        """Whether x lies in the box, up to `_CONTAINS_TOL` (1 + max |x_i|)."""
        if not self.is_box:
            return True
        slack = _CONTAINS_TOL * (1.0 + np.abs(x).max())
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


@dataclass(frozen=True)
class StepState:
    """What a regularized Newton step reads at its origin, carried from one
    step to the next.

    `grad` is the smooth gradient g(x) of f alone.  `preconditioner` is the
    explicit inverse of the last dense system H + coeff*B, which a
    Hessian-free step applies, a box step to its free blocks (see
    `newton_step`), and `system_diagonal` is that system's diagonal, by
    which a Hessian-free box step scales its multiplier step; both are None
    where steps are not Hessian-free.
    `rhs_norm` is the Euclidean norm of the right-hand side of the step
    that led to x, over the coordinates its carried active set left free on
    a box, from which the next step's forcing term is set; it is inf where
    no such step is known or none is Hessian-free.  `hessian` is H(x), as the oracle returned it, where
    a caller already evaluated it, else None.  A step from it is dense,
    since its system then costs one factorization, and only its symmetric
    part enters the step.  `active_set` is the pair of at-lower and
    at-upper masks on which the box step that led to x ended, else None; a
    box step starts its active-set solve from it (see `_box_step`), since
    consecutive steps mostly end on the same set, and from the empty set
    where there is none.  A step never writes into the state it is given,
    so a solver can restart from one it kept.
    """

    x: np.ndarray
    grad: np.ndarray
    preconditioner: np.ndarray | None = None
    rhs_norm: float = math.inf
    hessian: np.ndarray | None = None
    active_set: tuple[np.ndarray, np.ndarray] | None = None
    system_diagonal: np.ndarray | None = None

    @classmethod
    def at(cls, oracle: SmoothOracle, x) -> "StepState":
        """The state at x with no preconditioner yet: one gradient."""
        x = np.asarray(x, dtype=float)
        return cls(x, oracle.gradient(x))


@dataclass
class StepResult:
    """One completed regularized Newton step.

    `state` is the state at x+, its gradient the one the subgradient
    selection evaluated, for the next step to start from.  `hessian` is
    H(x) at the step's origin, as the oracle returned it, where the step
    evaluated it or its state held it, else None: a retry from the same
    origin may share it (see `primal.adaptive_sigma_search`).
    `inner_iterations` is the number of linear solves of a box step, one
    per free block solved, from the start that produced x+ (a carried set
    that failed first is not counted).  It is 0 without a box.
    """

    state: StepState
    hessian: np.ndarray | None
    subgradient: np.ndarray  # selected F'(x+) in the subdifferential of f + psi
    inner_iterations: int
    step_length: float  # ||x+ - x|| in the metric norm
    step_length_local: float  # ||x+ - x|| in the local (Hessian) norm at x


def _step_costs(costs: OracleCosts, n: int) -> tuple[float, float]:
    """(a dense step, one CG product) in flops, from an oracle's declared
    costs in n variables: a Hessian and its Cholesky factorization, and a
    product with the preconditioner's and B's products of the same vector,
    each with `_CALL_OVERHEAD`."""
    return costs.hessian + n**3 / 3 + _CALL_OVERHEAD, costs.product + 4 * n**2 + _CALL_OVERHEAD


def _cg_budget(oracle: SmoothOracle) -> int:
    """What the dense step of `oracle` costs in CG products: the first
    count that costs as much, at most `_CG_MAX_BUDGET`.  A CG solve gives
    up where the products it still needs would cost more (see
    `_preconditioned_cg`).  0 where steps are dense: where a product costs
    no less than a Hessian, or a dense step no more than a typical CG
    solve, `_CG_TYPICAL_PRODUCTS` products."""
    costs = oracle.costs
    dense, product = _step_costs(costs, oracle.dim)
    budget = min(_CG_MAX_BUDGET, math.ceil(dense / product))
    return budget if costs.product < costs.hessian and budget > _CG_TYPICAL_PRODUCTS else 0


def hessian_free_pays(oracle: SmoothOracle) -> bool:
    """Whether a step of `oracle` from a state with no Hessian is
    Hessian-free, with a box or without (see `_cg_budget`)."""
    return _cg_budget(oracle) > 0


def _system_operator(oracle: SmoothOracle, x: np.ndarray, coeff: float):
    """u -> (H(x) + coeff*B) u, from the oracle's products at x."""
    metric = oracle.metric
    return lambda u: oracle.hessian_vector(x, u) + coeff * metric.apply(u)


def _forcing_term(rhs_norm: float, previous: float) -> float:
    """Eisenstat and Walker's second forcing term from the norms of this
    step's right-hand side and the last one's: _CG_TOL when the last one
    is unknown (inf), _FORCING_MAX when it was 0."""
    if previous == 0.0:
        return _FORCING_MAX
    return min(_FORCING_MAX, max(_CG_TOL, _FORCING_GAMMA * (rhs_norm / previous) ** _FORCING_POWER))


def _preconditioned_cg(system, inverse: np.ndarray, rhs: np.ndarray, tol: float, budget: int):
    """Solve S d = rhs by CG from d = 0, preconditioned by `inverse`, the
    explicit inverse of a nearby system; `system` is u -> S u.

    Returns (d, S d), with S d = rhs - r read off the recurrence rather than
    from one more product, once r^T P r (P the inverse) has fallen to
    tol^2 times its initial value.  Returns None on breakdown (p^T S p
    not positive and finite, which a singular or non-finite system gives)
    and where it gives up: from the second product on, once the products
    still needed at the last one's rate of decrease of r^T P r exceed
    `budget`, what the dense step costs (`_cg_budget`), and after 2 budget
    products, so that a solve never costs more than a give-up at `budget`
    and its dense step.  The first product is a steepest-descent step, so
    its rate is not CG's.  The products already spent do not count: a
    solve that is nearly done finishes, one that converges slowly gives up
    early."""
    d = np.zeros_like(rhs)
    r = rhs.copy()
    z = inverse @ r
    p = z.copy()
    rz = r @ z
    stop = tol**2 * rz
    for used in range(1, 2 * budget + 1):
        q = system(p)
        curvature = p @ q
        if not 0.0 < curvature < np.inf:
            return None
        alpha = rz / curvature
        d += alpha * p
        r -= alpha * q
        np.matmul(inverse, r, out=z)
        rz_next = r @ z
        if rz_next <= stop:
            return d, rhs - r
        # the products still needed, at the last one's rate
        if used > 1 and not (rz_next < rz and math.log(rz_next / stop) <= budget * math.log(rz / rz_next)):
            return None
        p *= rz_next / rz
        p += z
        rz = rz_next
    return None


class _CGFailure(RuntimeError):
    """A free block's CG solve broke down or gave up."""


def _active_set_loop(solve, scale, rhs, lower, upper, at_lower, at_upper):
    """Minimizer of ``1/2 d'Sd - r'd`` over ``lower <= d <= upper``, by a
    primal-dual active-set method (Hintermueller-Ito-Kunisch, SIAM J.
    Optim. 2002) from the active sets `at_lower` and `at_upper`.

    Each pass fixes the active coordinates on their bounds, has
    `solve(free, d)` fill in the free ones and return S d, and takes as the
    next sets the coordinates that the scaled step ``d - lam / scale`` along
    the multiplier ``lam = Sd - r`` takes past a bound.  Sets that repeat
    satisfy the KKT conditions, for any positive `scale`.  Returns d, S d,
    the two active sets, lam (0 on the free coordinates; -lam is in the
    box's normal cone) and the number of solves.  The method need not
    converge where S is not an M-matrix, so sets that return to a pair an
    earlier pass solved are a cycle: that, and `_BOX_MAX_INNER` solves,
    raise `MaxInnerIterationsError`.  A failure of `solve` propagates."""
    seen = {}
    for solves in range(1, _BOX_MAX_INNER + 1):
        free = ~(at_lower | at_upper)
        d = np.where(at_lower, lower, np.where(at_upper, upper, 0.0))
        system_d = solve(free, d)
        lam = system_d - rhs
        lam[free] = 0.0
        trial = d - lam / scale
        new_lower, new_upper = trial < lower, trial > upper
        if np.array_equal(new_lower, at_lower) and np.array_equal(new_upper, at_upper):
            return d, system_d, at_lower, at_upper, lam, solves
        seen[at_lower.tobytes() + at_upper.tobytes()] = solves
        first = seen.get(new_lower.tobytes() + new_upper.tobytes())
        if first is not None:
            raise MaxInnerIterationsError(
                f"box active set cycles: solve {solves} leads back to the sets of solve {first}"
            )
        at_lower, at_upper = new_lower, new_upper
    raise MaxInnerIterationsError(f"box active set still changing after {_BOX_MAX_INNER} solves")


def _box_step(system, rhs, lower, upper, carried):
    """Exact minimizer of ``1/2 d'Sd - r'd`` over ``lower <= d <= upper``,
    for the step's system S = H + coeff*B as `newton_step` formed it.

    The active-set loop factors each free block of S.  It starts from the
    carried pair of active sets (`StepState.active_set`), and from the
    empty sets, whose first pass solves the whole S, when nothing is
    carried or the carried sets fail.  The QP is strongly convex, so every
    start reaches the same minimizer; only roundoff tells them apart.
    Returns what the loop returns; a failure from the empty sets propagates.  NaN or inf
    in S or r raises `NonFiniteError` before any factorization."""
    require_finite(system, "H + beta*B")
    require_finite(rhs, "rhs")

    def solve(free, d):
        if free.any():
            reduced = rhs[free] - system[free] @ d  # d is 0 on the free coordinates
            factor = _cholesky(system[np.ix_(free, free)])
            if factor is None:
                raise SingularSystemError("free block of the box step is not positive definite")
            d[free] = _cho_solve(factor, reduced)
        return system @ d

    scale = np.diag(system)
    if carried is not None:
        try:
            return _active_set_loop(solve, scale, rhs, lower, upper, *carried)
        except (SingularSystemError, MaxInnerIterationsError):
            pass  # the carried sets fail here: start from the empty ones
    empty = np.zeros(rhs.shape, dtype=bool)
    return _active_set_loop(solve, scale, rhs, lower, upper, empty, empty)


# the last free block's preconditioner: (P, free mask, block)
_free_block_memo = (None, None, None)


def _free_block_inverse(inverse: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The inverse of the free block of the system whose inverse is P:
    ``P_FF - P_FA P_AA^-1 P_AF``, the Schur complement of P's active block.
    The last one is memoized on P and the free set, which a Hessian-free
    step hands on unchanged and mostly ends on.  Raises
    `SingularSystemError` where P's active block does not factor."""
    global _free_block_memo
    memo_inverse, memo_free, block = _free_block_memo
    if memo_inverse is inverse and np.array_equal(memo_free, free):
        return block
    active = ~free
    block = inverse
    if active.any():
        factor = _cholesky(inverse[np.ix_(active, active)])
        if factor is None:
            raise SingularSystemError("active block of the preconditioner is not positive definite")
        cross = inverse[np.ix_(active, free)]
        block = inverse[np.ix_(free, free)] - cross.T @ _cho_solve(factor, cross)
    _free_block_memo = (inverse, free, block)
    return block


def _hessian_free_box_step(operator, inverse, diagonal, rhs, lower, upper, carried, tol, budget):
    """The box QP of `_box_step`, solved by the same active-set loop on
    products: each free block by `_preconditioned_cg` to the relative
    residual `tol`, giving up as it does with `budget`, preconditioned by
    `_free_block_inverse` of the stale inverse P, and S d from one more
    product at d, from which the loop reads lam.  The loop starts from the
    carried sets, else from the empty ones, and scales its multiplier step
    by `diagonal`, that of the system P inverts, as the dense loop scales
    it by diag(S).  Returns the loop's result, or None on any failure: a
    block that does not factor, a CG breakdown or give-up, a cycle or
    `_BOX_MAX_INNER` solves."""

    def solve(free, d):
        base = operator(d) if d.any() else np.zeros_like(d)  # S d on the active coordinates
        if not free.any():
            return base

        def block(u):
            full = np.zeros_like(d)
            full[free] = u
            return operator(full)[free]

        solved = _preconditioned_cg(block, _free_block_inverse(inverse, free), rhs[free] - base[free], tol, budget)
        if solved is None:
            raise _CGFailure
        d[free] = solved[0]
        return operator(d)

    empty = np.zeros(rhs.shape, dtype=bool)
    at_lower, at_upper = (empty, empty) if carried is None else carried
    try:
        return _active_set_loop(solve, diagonal, rhs, lower, upper, at_lower, at_upper)
    except (SingularSystemError, MaxInnerIterationsError, _CGFailure):
        return None


def newton_step(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    state: StepState,
    beta: float,
) -> StepResult:
    """Minimize the regularized quadratic model of f + psi around state.x.

    psi's quadratics enter the model exactly, and the selected subgradient
    is one of f + psi, so it includes their gradient at x+.  The
    zero-composite case is one regularized solve; the box case solves the
    box QP by the active-set loop, from the active set in `state` where
    there is one and from the empty set otherwise, in at most
    `_BOX_MAX_INNER` solves (`MaxInnerIterationsError` past that, or at a
    cycle), and hands its final set on in its state.

    The step reads x, g(x) and, where a caller already evaluated it (the
    adaptive-sigma retries at one x share it, as do the primal's
    diagnostics), H(x) from `state`; elsewhere H(x) is evaluated here when
    the step needs it.  A step then costs one gradient (at x+) and one
    Hessian at most; a state's H(x) changes no bit of x+, of the subgradient
    or of the step lengths.  A dense step forms its one system
    S = symmetrize(H) + coeff*B here, once: `regularized_solve`, with its
    jitter ladder, solves it without a box, and `_box_step` reads the same S
    from either start, with no jitter: coeff > 0 there, so a block of S
    that does not factor from the empty set raises `SingularSystemError`.

    A step from a state with no Hessian is Hessian-free where
    `hessian_free_pays` says so, from the oracle's declared costs.  With a
    preconditioner in `state` it
    solves ``(H + coeff*B) d = rhs`` by CG on `oracle.hessian_vector(x, u)`
    products plus coeff*B u, preconditioned by that inverse of an earlier
    system, and forms no Hessian; on a box, `_hessian_free_box_step` runs
    the active-set loop with each free block solved so, its multiplier step
    scaled by `state.system_diagonal` (a state without it takes the dense
    box step, which hands it on).  CG stops at
    the forcing term `_forcing_term(|rhs|, state.rhs_norm)`, so the step is
    inexact: it moves from the dense step's by up to about `_FORCING_MAX`
    times its length.  Its state at x+ keeps the same preconditioner.  Every
    step of an oracle whose steps are Hessian-free hands |rhs| on in its
    state, H(x) in hand or not, on a box
    over the coordinates its carried active set left free (the multipliers
    balance the others, so the full |rhs| does not fall); the others hand on
    inf.  The dense step runs instead when there is no preconditioner, on a
    CG breakdown (a singular or non-finite system), where CG gives up
    (see `_preconditioned_cg`) and, on a box, when the loop on products fails
    in any way, so a singular system still goes through the jitter
    ladder and a non-finite one still raises.  Where a Hessian-free step
    could follow, a dense step that formed H(x) hands on the inverse of its
    own system, built from a Cholesky factor of it, and that system's
    diagonal; one given H(x) in its state, such as an adaptive retry after
    a try that formed it, hands on the preconditioner and diagonal it was
    given (none with the diagnostics, which give H(x) at every step), so
    that the retries at one point build no inverse of their own.  Every dense step is the
    same, bit for bit, with or without a preconditioner.  The result's
    `hessian` is the H(x) the step formed or was given.

    Every step ends alike.  S d, its system S = H + coeff*B applied to d,
    is ``rhs + lam`` (lam the box multiplier, 0 without a box), CG's
    ``rhs - r``, or on a Hessian-free box step the product at d; the local
    length is ``sqrt(d . (S d - coeff*B d))`` and the subgradient
    ``g(x+) + psi.quad_gradient(x+) - lam``, so no solve's residual or
    jitter hides in it.

    NaN or inf in g(x) or H(x) raises `NonFiniteError` from the entry check
    of `regularized_solve` or `_box_step`, and in g(x+) right after it is
    evaluated.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x, grad, preconditioner, hess = state.x, state.grad, state.preconditioner, state.hessian
    metric = oracle.metric

    coeff = beta + 2.0 * psi.quad_weight()  # total multiple of B added to the Hessian

    # right-hand side of the stationarity equation at y = x + d
    rhs = -grad.copy()
    for center, weight in psi.quad_terms:
        rhs -= 2.0 * weight * metric.apply(x - center)

    if psi.is_box and not psi.contains(x):
        raise ValueError("step origin must be feasible for the box")
    if psi.is_box and coeff <= 0:
        raise ValueError("box-constrained model needs strong convexity: beta or a quadratic term")

    budget = _cg_budget(oracle)
    kind_free = budget > 0
    rhs_norm = math.inf
    if kind_free:
        # on a box, the rows its carried active set leaves free
        free_rhs = rhs if state.active_set is None else rhs[~np.logical_or(*state.active_set)]
        rhs_norm = float(np.linalg.norm(free_rhs))
    lower, upper = psi.bounds
    diagonal = state.system_diagonal
    solved = None
    if kind_free and hess is None and preconditioner is not None:
        tol = _forcing_term(rhs_norm, state.rhs_norm)
        operator = _system_operator(oracle, x, coeff)
        if not psi.is_box:
            solved = _preconditioned_cg(operator, preconditioner, rhs, tol, budget)
        elif diagonal is not None:  # else the dense step hands it on
            solved = _hessian_free_box_step(
                operator, preconditioner, diagonal, rhs, lower - x, upper - x, state.active_set, tol, budget
            )
    if solved is None:
        if hess is None:
            hess = oracle.hessian(x)
        system = symmetrize(hess) + coeff * metric.matrix
        # the inverse is built only where a Hessian-free step can follow, and
        # once per H(x): a step given H(x), an adaptive retry, hands on the
        # preconditioner it was given, built from H(x) by the try before it
        refresh = kind_free and state.hessian is None
        if psi.is_box:
            d, _, at_lower, at_upper, lam, inner_iterations = _box_step(system, rhs, lower - x, upper - x, state.active_set)
            # an exact solve's S d is rhs + lam
            solved = d, rhs + lam, at_lower, at_upper, lam, inner_iterations
            factor = _cholesky(system) if refresh else None
        else:
            d, factor = regularized_solve(system, metric, rhs)
            solved = d, rhs
        if refresh or not kind_free:
            preconditioner = diagonal = None
        if refresh and factor is not None:
            preconditioner, diagonal = _cho_inverse(factor), np.diag(system).copy()
    inner_iterations, lam, active_set = 0, 0.0, None
    if psi.is_box:
        d, system_d, at_lower, at_upper, lam, inner_iterations = solved
        active_set = (at_lower, at_upper)
        # active coordinates sit exactly on their bound
        x_plus = np.where(at_lower, lower, np.where(at_upper, upper, psi.project(x + d)))
        d = x_plus - x
    else:
        d, system_d = solved
        x_plus = x + d
    local = np.sqrt(max(d @ (system_d - coeff * metric.apply(d)), 0.0))

    grad_plus = oracle.gradient(x_plus)
    require_finite(grad_plus, "g(x+)")
    return StepResult(
        state=StepState(x_plus, grad_plus, preconditioner, rhs_norm, active_set=active_set, system_diagonal=diagonal),
        hessian=hess,
        subgradient=grad_plus + psi.quad_gradient(x_plus, metric) - lam,
        inner_iterations=inner_iterations,
        step_length=metric.primal_norm(d),
        step_length_local=float(local),
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
    """Model-form subgradient of F = f + psi at x_plus: the reference that
    `newton_step`'s selection matches up to its solve's residual.

    Evaluates ``g(x+) - g(x) - (H(x) + beta B)(x+ - x)``; by the model
    stationarity this is g(x+) plus the gradient of psi's quadratics at x+
    plus a box normal vector, and it also absorbs the solve's residual and
    jitter.  `grad` = g(x), `hess` = the symmetrized H(x) and `grad_plus` =
    g(x+) are used when given and evaluated otherwise.
    """
    x = np.asarray(x, dtype=float)
    x_plus = np.asarray(x_plus, dtype=float)
    metric = oracle.metric
    if grad is None:
        grad = oracle.gradient(x)
    d = x_plus - x
    if hess is None:
        hess = symmetrize(oracle.hessian(x))
    if grad_plus is None:
        grad_plus = oracle.gradient(x_plus)
    return grad_plus - grad - hess @ d - beta * metric.apply(d)


def verify_step_bound(step: StepResult, grad_norm: float, beta: float, lam: float = 0.0) -> tuple[bool, float]:
    """Check the one-step length bounds.

    ``||x+ - x|| <= g / (beta + lam) + slack``  and
    ``||x+ - x||_x^2 <= ||x+ - x|| * g + slack``, with lam >= 0 any lower
    bound on the minimal generalized Hessian eigenvalue (0 is always valid).
    """
    slack = _STEP_BOUND_SLACK
    denom = beta + lam
    bound = np.inf if denom <= 0 else grad_norm / denom
    ok_global = step.step_length <= bound + slack
    ok_local = step.step_length_local**2 <= step.step_length * grad_norm + slack
    margin = min(
        (bound + slack) - step.step_length,
        (step.step_length * grad_norm + slack) - step.step_length_local**2,
    )
    return bool(ok_global and ok_local), float(margin)
