"""Hessian-free Newton steps against the dense Cholesky steps they replace.

Above `composite._CG_MIN_DIM` the primal (constant sigma) and dual solvers
solve each step's system by CG on Hessian-vector products, preconditioned
by the explicit inverse of the last dense system.  The reference is the
same solve with the size constant raised above the instance, where every
step is the dense one.  The steps are inexact: each stops once its
preconditioned residual has fallen by its forcing term, at most
`_FORCING_MAX`, so its error is at most about `_FORCING_MAX` times its
length, and the errors add up along the path.  The two solves must end in
the same status after the same number of outer (dual) or primal
iterations, with every iterate within `_PATH_FACTOR * _FORCING_MAX` times
the dense run's metric path length up to it; the factor covers the change
between the system's norm and the metric's and the propagation through
later steps (the largest ratio measured on these families was 0.32).  The
dual's inner steps may differ by `_INNER_SLACK` of the dense run's: an
inner loop stops on a residual threshold, and a residual that lands within
roundoff of it (2.81e-13 dense against 2.90e-13 inexact, across a
threshold of 2.84e-13, on logistic at n = 50) can take one more step or
one fewer.
"""

import numpy as np
import pytest

from qscnewton import (
    CompositeTerm,
    CountingOracle,
    DualConfig,
    PrimalConfig,
    QuadraticObjective,
    SingularSystemError,
    SmoothOracle,
    StepState,
    generate_synthetic,
    newton_step,
    solve_dual,
    solve_primal,
)
from qscnewton import composite
from qscnewton.harness import build_problem
from qscnewton.metric import symmetrize

from roundoff import roundoff_bound

ZERO = CompositeTerm.zero()
N = composite._CG_MIN_DIM  # just at the size where the steps turn Hessian-free
_PATH_FACTOR = 10.0
_INNER_SLACK = 0.02


def _instance(kind, seed=1, n=N):
    return generate_synthetic(kind, n=n, m=4 * n, seed=seed, smoothing=1.0)


def _solve(oracle, solver, psi=ZERO):
    """(status, step counts, iterates, steps) of a solve from 0 to 1e-8."""
    x0 = np.zeros(oracle.dim)
    if solver == "dual":
        result = solve_dual(oracle, psi, x0, DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=1e-8))
        counts = (result.outer_iterations, [row.inner_iterations for row in result.trace])
        return result.status, counts, [x0] + [row.x_next for row in result.trace], result.total_inner
    result = solve_primal(oracle, psi, x0, PrimalConfig(sigma=oracle.qsc_constant, grad_tol=1e-8))
    return result.status, result.iterations, [row.x for row in result.trace], result.step_computations


def _dense(oracle, solver, monkeypatch, psi=ZERO):
    with monkeypatch.context() as patch:
        patch.setattr(composite, "_CG_MIN_DIM", oracle.dim + 1)
        return _solve(oracle, solver, psi)


def _disagreements(base, solver, monkeypatch, oracle=None) -> list[str]:
    """How a Hessian-free solve of `oracle` (default `base`) differs from the
    dense solve of it; empty when they agree."""
    oracle = base if oracle is None else oracle
    counting = CountingOracle(oracle)
    status, counts, iterates, steps = _solve(counting, solver)
    ref_status, ref_counts, ref_iterates, ref_steps = _dense(oracle, solver, monkeypatch)
    found = []
    if status is not ref_status:
        found.append(f"status {status} against {ref_status}")
    # the dual's counts also list its inner steps per outer iteration
    iterations, ref_iterations = (counts[0], ref_counts[0]) if solver == "dual" else (counts, ref_counts)
    if iterations != ref_iterations:
        found.append(f"{iterations} iterations against {ref_iterations}")
    if not abs(steps - ref_steps) <= _INNER_SLACK * ref_steps:
        found.append(f"{steps} steps against {ref_steps}")
    if not 2 * counting.calls["hessian"] < steps or counting.calls["hessian_vector"] == 0:
        found.append(
            f"{counting.calls['hessian']} Hessians and {counting.calls['hessian_vector']} products"
            f" in {steps} steps: the steps were not Hessian-free"
        )
    norm = base.metric.primal_norm
    path = np.cumsum([0.0] + [norm(b - a) for a, b in zip(ref_iterates, ref_iterates[1:])])
    for k, (x, ref, length) in enumerate(zip(iterates, ref_iterates, path)):
        if not norm(x - ref) <= _PATH_FACTOR * composite._FORCING_MAX * length:
            found.append(f"iterate {k} is {norm(x - ref):.3e} from the dense one, path length {length:.3e}")
            break
    return found


CASES = [(kind, solver) for kind in ("logistic", "softmax") for solver in ("primal", "dual")]
# each planted mutation is run on one primal and one dual case
MUTATION_CASES = [("logistic", "primal"), ("softmax", "dual")]


@pytest.mark.parametrize("kind, solver", CASES)
def test_cg_steps_match_cholesky_steps(monkeypatch, kind, solver):
    assert _disagreements(_instance(kind), solver, monkeypatch) == []


@pytest.mark.parametrize("solver", ["primal", "dual"])
def test_a_quad_regularization_sum_takes_hessian_free_steps(monkeypatch, solver):
    # the one sum the program builds adds a stored quadratic, whose product
    # is u @ A, to the family; its steps stay on products
    oracle = build_problem({"kind": "logistic", "n": N, "m": 4 * N, "seed": 1, "quad_regularization": 0.1})
    assert oracle.cheap_products
    assert _disagreements(oracle, solver, monkeypatch) == []


class _Delegating(SmoothOracle):
    def __init__(self, base):
        super().__init__(base.metric, base.qsc_constant)
        self._base = base

    def value(self, x):
        return self._base.value(x)

    def gradient(self, x):
        return self._base.gradient(x)

    def hessian(self, x):
        return self._base.hessian(x)


class _Planted(_Delegating):
    """Declares cheap products, so that its Hessian-free steps run the
    products a subclass plants (by default, its Hessian's)."""

    cheap_products = True


class _StaleProduct(_Planted):
    """Planted mutation: its products use the Hessian of the last `hessian`
    call, the one the stale preconditioner was built from, not H(x)."""

    def hessian(self, x):
        self._last = self._base.hessian(x)
        return self._last

    def hessian_vector(self, x, u):
        return self._last @ u


@pytest.mark.parametrize("kind, solver", MUTATION_CASES)
def test_product_without_the_regularization_is_caught(monkeypatch, kind, solver):
    base = _instance(kind)
    monkeypatch.setattr(composite, "_system_operator", lambda oracle, x, coeff: lambda u: oracle.hessian_vector(x, u))
    assert _disagreements(base, solver, monkeypatch) != []


@pytest.mark.parametrize("kind, solver", MUTATION_CASES)
def test_product_with_the_stale_hessian_is_caught(monkeypatch, kind, solver):
    base = _instance(kind)
    assert _disagreements(base, solver, monkeypatch, oracle=_StaleProduct(base)) != []


def _assert_same_step(got, expected):
    np.testing.assert_array_equal(got.state.x, expected.state.x)
    np.testing.assert_array_equal(got.state.grad, expected.state.grad)
    np.testing.assert_array_equal(got.subgradient, expected.subgradient)
    assert (got.step_length, got.step_length_local) == (expected.step_length, expected.step_length_local)


def _warm(oracle, psi, x, beta):
    """The preconditioner a dense step at x hands on."""
    return newton_step(oracle, psi, StepState.at(oracle, x), beta).state.preconditioner


DENSE_CASES = ["below the size constant", "hessian passed", "no cheap products", "first step", "box, first step"]


@pytest.mark.parametrize("case", DENSE_CASES)
def test_dense_steps_are_bitwise_unchanged(case):
    n = N - 1 if case == "below the size constant" else N
    base = _instance("logistic", n=n)
    if case == "no cheap products":
        base = _Delegating(base)
    rng = np.random.default_rng(3)
    x = 0.1 * rng.standard_normal(n)
    psi = CompositeTerm.box(-np.ones(n), np.ones(n)) if "box" in case else ZERO.with_quadratic(0.2 * x, 0.3)
    given = None if "first step" in case else _warm(_instance("logistic", n=n), ZERO, 0.5 * x, 0.4)
    hess = base.hessian(x) if case == "hessian passed" else None
    counting = CountingOracle(base)
    got = newton_step(counting, psi, StepState(x, base.gradient(x), given, hessian=hess), 0.7)
    _assert_same_step(got, newton_step(base, psi, StepState(x, base.gradient(x), hessian=hess), 0.7))
    assert counting.calls["hessian_vector"] == 0
    # the dense steps that could have been Hessian-free hand on the inverse
    # of their own system, from a Cholesky factor of it
    if "first step" not in case:
        assert got.state.preconditioner is None
    else:
        system = symmetrize(base.hessian(x)) + (0.7 + 2 * psi.quad_weight()) * base.metric.matrix
        inverse = got.state.preconditioner
        np.testing.assert_array_equal(inverse, inverse.T)
        # Cholesky, the triangular inversions and their product each round
        # a sum of at most n products, and so does the check's own product
        terms = np.abs(inverse)[:, :, None] * np.abs(system)[None, :, :]
        bound = roundoff_bound(4 * n, terms.transpose(0, 2, 1))
        assert np.all(np.abs(inverse @ system - np.eye(n)) <= bound)


def _binding_box_step(seed):
    """A logistic step origin x at the Hessian-free size, with beta, a box
    around x that binds at x+ on about half the coordinates, and the
    preconditioner a dense step from 0.5 x hands on."""
    base = _instance("logistic")
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(N)
    beta = 0.7
    move = newton_step(base, ZERO, StepState(x, base.gradient(x), hessian=base.hessian(x)), beta).state.x - x
    width = np.median(np.abs(move))
    psi = CompositeTerm.box(x - width * rng.uniform(0.5, 1.5, N), x + width * rng.uniform(0.5, 1.5, N))
    return base, psi, x, beta, _warm(base, ZERO, 0.5 * x, 0.4)


def _box_step_disagreements(seed) -> list[str]:
    """How a Hessian-free box step differs from the dense one from the same
    state; empty when they agree.

    The step's forcing term is `_FORCING_MAX` (its state's last right-hand
    side is its own).  Both steps end on the same active sets, so x+ differs
    only on the free coordinates F, by the error e of the last CG solve of
    S_FF d_F = r_F, stopped once ||res||_P <= tol ||r_F||_P with P the free
    block's preconditioner.  With [a, b] the spectrum of P S_FF that gives
    ||e||_S <= tol sqrt(b / a) ||d_F||_S, d the dense step; roundoff is far
    below it.
    """
    base, psi, x, beta, inverse = _binding_box_step(seed)
    grad = base.gradient(x)
    counting = CountingOracle(base)
    got = newton_step(counting, psi, StepState(x, grad, inverse, rhs_norm=float(np.linalg.norm(grad))), beta)
    dense = newton_step(base, psi, StepState(x, grad), beta)
    found = []
    if counting.calls["hessian"] != 0 or counting.calls["hessian_vector"] == 0:
        found.append(f"{counting.calls['hessian']} Hessians and {counting.calls['hessian_vector']} products")
    if got.state.preconditioner is not inverse:
        found.append("the preconditioner was not handed on")
    if not all(map(np.array_equal, got.state.active_set, dense.state.active_set)):
        found.append("active sets")
        return found
    free = ~np.logical_or(*dense.state.active_set)
    system = symmetrize(base.hessian(x)) + beta * base.metric.matrix
    block = system[np.ix_(free, free)]
    spectrum = np.linalg.eigvals(composite._free_block_inverse(inverse, free) @ block).real
    d = (dense.state.x - x)[free]
    e = got.state.x - dense.state.x
    bound = composite._FORCING_MAX * np.sqrt(spectrum.max() / spectrum.min()) * np.sqrt(d @ block @ d)
    if not np.sqrt(e @ system @ e) <= bound:
        found.append(f"x+ is {np.sqrt(e @ system @ e):.3e} from the dense one, bound {bound:.3e}")
    return found


BOX_SEEDS = [3, 4, 5, 6, 7]


@pytest.mark.parametrize("seed", BOX_SEEDS)
def test_a_hessian_free_box_step_is_the_dense_one_up_to_the_forcing_term(seed):
    # seed 5 comes within 1.3% of the bound
    assert _box_step_disagreements(seed) == []


def _lam_from_the_recurrence(operator, inverse, rhs, lower, upper, carried, tol):
    """Planted mutation of `_hessian_free_box_step`: S d read off CG's
    recurrence on the free rows, and on the active rows from the product at
    d's active part alone, with no product at d."""

    def solve(free, d):
        system_d = operator(d) if d.any() else np.zeros_like(d)
        if free.any():

            def block(u):
                full = np.zeros_like(d)
                full[free] = u
                return operator(full)[free]

            reduced = rhs[free] - system_d[free]
            solved = composite._preconditioned_cg(block, composite._free_block_inverse(inverse, free), reduced, tol)
            if solved is None:
                raise composite._CGFailure
            d[free] = solved[0]
            system_d[free] += solved[1]
        return system_d

    empty = np.zeros(rhs.shape, dtype=bool)
    at_lower, at_upper = (empty, empty) if carried is None else carried
    try:
        return composite._active_set_loop(solve, 1.0 / np.diag(inverse), rhs, lower, upper, at_lower, at_upper)
    except (SingularSystemError, composite.MaxInnerIterationsError, composite._CGFailure):
        return None


@pytest.mark.parametrize("seed", BOX_SEEDS)
def test_a_multiplier_without_the_product_at_d_is_caught(monkeypatch, seed):
    # its multipliers send the loop round a cycle, and the step falls back
    # to the dense one: a Hessian
    monkeypatch.setattr(composite, "_hessian_free_box_step", _lam_from_the_recurrence)
    assert _box_step_disagreements(seed) != []


def test_a_hessian_free_step_hands_its_preconditioner_on():
    base = _instance("logistic")
    x = 0.1 * np.random.default_rng(4).standard_normal(N)
    inverse = _warm(base, ZERO, 0.5 * x, 0.4)
    counting = CountingOracle(base)
    step = newton_step(counting, ZERO, StepState(x, base.gradient(x), inverse), 0.7)
    assert counting.calls["hessian"] == 0 and counting.calls["hessian_vector"] > 0
    assert step.state.preconditioner is inverse


@pytest.mark.parametrize("solver", ["primal", "dual"])
@pytest.mark.parametrize("kind", ["matrix_scaling", "matrix_balancing", "hessian only"])
def test_oracles_without_cheap_products_keep_dense_steps(kind, solver):
    # their Hessian costs about as much as a few products, so CG would not pay
    if kind == "hessian only":
        base = _Delegating(_instance("logistic"))
    else:
        base = generate_synthetic(kind, n=N if kind == "matrix_balancing" else N // 2, seed=2)
    assert base.dim >= N and not base.cheap_products
    counting = CountingOracle(base)
    _solve(counting, solver)
    assert counting.calls["hessian_vector"] == 0 and counting.calls["hessian"] > 0


class _NonFiniteProducts(_Planted):
    """Finite values, gradients and Hessians, but NaN products."""

    def hessian_vector(self, x, u):
        return np.full_like(u, np.nan)


@pytest.mark.parametrize("box", [False, True])
@pytest.mark.parametrize("solver", ["primal", "dual"])
def test_breakdown_and_the_cap_fall_back_to_dense_steps(monkeypatch, solver, box):
    # every CG solve breaks down (a NaN product) or stops at a cap of no
    # products, so every step is the dense one, bit for bit; on a box that
    # binds at the solution, the first box step's CG solve of the whole
    # system fails alike
    base = _instance("logistic")
    psi = CompositeTerm.box(np.full(N, -0.05), np.full(N, 0.05)) if box else ZERO
    dense = _dense(base, solver, monkeypatch, psi)
    broken = _solve(_NonFiniteProducts(base), solver, psi)
    with monkeypatch.context() as patch:
        patch.setattr(composite, "_CG_MAX_ITERS", 0)
        capped = _solve(base, solver, psi)
    for run in (broken, capped):
        assert run[:2] == dense[:2]
        for x, ref in zip(run[2], dense[2]):
            np.testing.assert_array_equal(x, ref)


def test_singular_system_still_reaches_the_jitter_ladder():
    # f is linear, so H = 0: with beta = 0 the system is 0, CG breaks down
    # at its first product, and the dense step's jitter ladder gives up
    base = _Planted(QuadraticObjective(np.zeros((N, N)), np.ones(N)))
    x = np.zeros(N)
    inverse = _warm(base, ZERO, x, 1.0)
    assert inverse is not None
    for given in (None, inverse):
        with pytest.raises(SingularSystemError):
            newton_step(base, ZERO, StepState(x, base.gradient(x), given), 0.0)
