from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qscnewton import (
    CompositeTerm,
    CountingOracle,
    Metric,
    QuadraticObjective,
    StepState,
    generate_synthetic,
    min_generalized_eigenvalue,
    newton_step,
    selected_subgradient,
    solve_primal,
    verify_step_bound,
)
from qscnewton import composite, metric
from qscnewton.metric import symmetrize
from qscnewton.dual import DualConfig, DualStatus, solve_dual
from qscnewton.oracles import affine_substitute
from qscnewton.primal import PrimalConfig, adaptive_sigma_search

from declared_costs import declare_cheap_products
from roundoff import gamma


def brute_force_box_step(oracle, lower, upper, x, beta, quads=(), tol=1e-12, max_iters=500_000):
    """Independent high-accuracy projected-gradient minimizer of the step model.

    Stops once the gradient mapping G = L (y - y+) has 2-norm below `tol`;
    for a model whose Hessian has smallest eigenvalue mu, the returned y+ is
    then within tol / mu of the exact minimizer in the 2-norm."""
    h = 0.5 * (oracle.hessian(x) + oracle.hessian(x).T)
    bmat = np.array(oracle.metric.matrix)
    grad = oracle.gradient(x)
    w_tot = sum(w for _, w in quads)
    system = h + (beta + 2.0 * w_tot) * bmat
    rhs = -grad - sum(2.0 * w * bmat @ (x - c) for c, w in quads) if quads else -grad
    lip = np.linalg.eigvalsh(system).max() * 1.01
    y = np.clip(x, lower, upper)
    for _ in range(max_iters):
        model_grad = system @ (y - x) - rhs
        y_next = np.clip(y - model_grad / lip, lower, upper)
        if lip * np.linalg.norm(y - y_next) < tol:
            return y_next
        y = y_next
    raise AssertionError("brute force solver did not converge")


class TestCompositeTerm:
    def test_zero_value(self):
        psi = CompositeTerm.zero()
        assert psi.value(np.ones(3), Metric.identity(3)) == 0.0
        assert not psi.is_box

    def test_box_indicator(self):
        psi = CompositeTerm.box(np.zeros(2), np.ones(2))
        b = Metric.identity(2)
        assert psi.value(np.array([0.5, 0.5]), b) == 0.0
        assert psi.value(np.array([1.5, 0.5]), b) == np.inf

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            CompositeTerm.box(np.ones(2), np.zeros(2))

    def test_quadratic_part(self):
        b = Metric.identity(2)
        psi = CompositeTerm.zero().with_quadratic(np.zeros(2), 0.5)
        x = np.array([1.0, 1.0])
        assert psi.value(x, b) == pytest.approx(1.0)  # 0.5 * ||x||^2
        np.testing.assert_allclose(psi.quad_gradient(x, b), x)

    def test_projection(self):
        psi = CompositeTerm.box(np.zeros(2), np.ones(2))
        np.testing.assert_allclose(psi.project(np.array([-1.0, 2.0])), [0.0, 1.0])


class TestNewtonStepZeroComposite:
    def test_pure_newton_solves_quadratic_in_one_step(self):
        o = generate_synthetic("quadratic", n=5, seed=0)
        x = np.ones(5)
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), 0.0)
        # exact minimizer of the quadratic
        np.testing.assert_allclose(
            o.gradient(step.state.x), np.zeros(5), atol=1e-10
        )

    def test_stationary_input_stays(self):
        o = generate_synthetic("quadratic", n=4, seed=1)
        x_star = np.linalg.solve(o.hessian(np.zeros(4)), -o.gradient(np.zeros(4)))
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x_star), 0.0)
        assert step.step_length <= 1e-9

    def test_matches_closed_form(self):
        o = generate_synthetic("logistic", n=6, m=24, seed=2)
        x = np.full(6, 0.3)
        g = o.gradient(x)
        beta = 0.8
        h = 0.5 * (o.hessian(x) + o.hessian(x).T)
        expected = x - np.linalg.solve(h + beta * np.array(o.metric.matrix), g)
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), beta)
        np.testing.assert_allclose(step.state.x, expected, atol=1e-10)

    def test_subgradient_equals_new_gradient(self):
        o = generate_synthetic("logistic", n=6, m=24, seed=3)
        x = np.full(6, -0.2)
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), 0.5)
        drift = o.metric.dual_norm(step.subgradient - o.gradient(step.state.x))
        assert drift <= 1e-9 * (1.0 + o.metric.dual_norm(o.gradient(step.state.x)))

    def test_quadratic_term_shifts_solution(self):
        o = generate_synthetic("quadratic", n=4, seed=4)
        x = np.ones(4)
        center = np.full(4, 2.0)
        weight = 1.5
        step = newton_step(o, CompositeTerm.zero().with_quadratic(center, weight), StepState.at(o, x), 0.0)
        h = o.hessian(x)
        bmat = np.array(o.metric.matrix)
        # stationarity of the model with the prox term folded in
        resid = (
            o.gradient(x)
            + h @ (step.state.x - x)
            + 2 * weight * bmat @ (step.state.x - center)
        )
        assert np.linalg.norm(resid) <= 1e-9


class TestNewtonStepBox:
    def test_matches_brute_force(self):
        o = generate_synthetic("logistic", n=3, m=12, seed=9)
        lower, upper = np.full(3, -0.2), np.full(3, 0.3)
        psi = CompositeTerm.box(lower, upper)
        rng = np.random.default_rng(5)
        for trial in range(5):
            x = psi.project(rng.standard_normal(3) * 0.3)
            step = newton_step(o, psi, StepState.at(o, x), 1.0)
            expected = brute_force_box_step(o, lower, upper, x, 1.0)
            assert o.metric.primal_norm(step.state.x - expected) <= 1e-8

    def test_matches_brute_force_with_prox_term(self):
        o = generate_synthetic("logistic", n=2, m=8, seed=10)
        lower, upper = np.full(2, -0.1), np.full(2, 0.15)
        psi = CompositeTerm.box(lower, upper)
        x = np.zeros(2)
        center = np.full(2, 0.05)
        step = newton_step(o, psi.with_quadratic(center, 2.0), StepState.at(o, x), 0.0)
        expected = brute_force_box_step(o, lower, upper, x, 0.0, quads=((center, 2.0),))
        assert o.metric.primal_norm(step.state.x - expected) <= 1e-8

    def test_interior_solution_equals_unconstrained(self):
        o = generate_synthetic("quadratic", n=3, seed=6)
        psi = CompositeTerm.box(np.full(3, -100.0), np.full(3, 100.0))
        x = np.zeros(3)
        constrained = newton_step(o, psi, StepState.at(o, x), 1.0)
        unconstrained = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), 1.0)
        assert np.linalg.norm(constrained.state.x - unconstrained.state.x) <= 1e-8

    def test_subgradient_interior_equals_gradient(self):
        o = generate_synthetic("quadratic", n=3, seed=7)
        psi = CompositeTerm.box(np.full(3, -100.0), np.full(3, 100.0))
        step = newton_step(o, psi, StepState.at(o, np.zeros(3)), 1.0)
        assert np.linalg.norm(step.subgradient - o.gradient(step.state.x)) <= 1e-6

    def test_subgradient_active_face_normal_cone(self):
        # tight box forces active constraints; -(F' - grad) must point into
        # the normal cone: positive at the upper face, negative at the lower
        o = generate_synthetic("quadratic", n=3, seed=8)
        lower, upper = np.full(3, -0.01), np.full(3, 0.01)
        psi = CompositeTerm.box(lower, upper)
        step = newton_step(o, psi, StepState.at(o, np.zeros(3)), 1.0)
        normal = step.subgradient - o.gradient(step.state.x)
        for i in range(3):
            if np.isclose(step.state.x[i], upper[i]):
                assert normal[i] >= -1e-7
            elif np.isclose(step.state.x[i], lower[i]):
                assert normal[i] <= 1e-7
            else:
                assert abs(normal[i]) <= 1e-6

    def test_box_without_convexity_rejected(self):
        o = generate_synthetic("logistic", n=2, m=8, seed=11)
        psi = CompositeTerm.box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            newton_step(o, psi, StepState.at(o, np.zeros(2)), 0.0)

    def test_infeasible_origin_rejected(self):
        o = generate_synthetic("quadratic", n=2, seed=12)
        psi = CompositeTerm.box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            newton_step(o, psi, StepState.at(o, np.full(2, 5.0)), 1.0)


class TestModelOptimality:
    def test_stationarity_condition_sampled(self):
        # model subgradient inequality at x_plus against sampled feasible y
        o = generate_synthetic("logistic", n=3, m=12, seed=13)
        lower, upper = np.full(3, -0.5), np.full(3, 0.5)
        psi = CompositeTerm.box(lower, upper)
        x = np.zeros(3)
        beta = 1.0
        step = newton_step(o, psi, StepState.at(o, x), beta)
        h = 0.5 * (o.hessian(x) + o.hessian(x).T)
        bmat = np.array(o.metric.matrix)
        model_grad = o.gradient(x) + (h + beta * bmat) @ (step.state.x - x)
        rng = np.random.default_rng(14)
        for _ in range(100):
            y = rng.uniform(lower, upper)
            assert model_grad @ (y - step.state.x) >= -1e-6

    def test_selected_subgradient_recompute(self):
        o = generate_synthetic("logistic", n=5, m=20, seed=15)
        x = np.full(5, 0.1)
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), 0.7)
        recomputed = selected_subgradient(o, x, step.state.x, 0.7)
        np.testing.assert_allclose(recomputed, step.subgradient, atol=1e-12)


class TestSuppliedEvaluations:
    """Passing a state the caller built and an H(x) it already holds
    changes no bit."""

    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("prox", [False, True])
    def test_supplied_grad_and_hess_are_bitwise_equivalent(self, box, prox):
        o, psi, x = _tail_instance(box, prox)
        plain = newton_step(o, psi, StepState.at(o, x), 0.1)
        counting = CountingOracle(o)
        reused = newton_step(counting, psi, StepState(x, o.gradient(x), hessian=o.hessian(x)), 0.1)
        assert counting.calls["hessian"] == 0
        for name in ("x", "grad"):
            assert np.array_equal(getattr(plain.state, name), getattr(reused.state, name)), name
        assert np.array_equal(plain.subgradient, reused.subgradient)
        for name in ("inner_iterations", "step_length", "step_length_local"):
            assert getattr(plain, name) == getattr(reused, name), name
        if box:
            # the box binds, so the step crossed an active-set update
            lower, upper = psi.bounds
            assert np.any((plain.state.x == lower) | (plain.state.x == upper))

    @pytest.mark.parametrize("box", [False, True])
    def test_grad_plus_is_the_gradient_at_x_plus(self, box):
        o = generate_synthetic("softmax", n=5, m=25, seed=20)
        psi = CompositeTerm.box(np.full(5, -0.1), np.full(5, 0.1)) if box else CompositeTerm.zero()
        step = newton_step(o, psi, StepState.at(o, np.zeros(5)), 0.4)
        assert np.array_equal(step.state.grad, o.gradient(step.state.x))


class TestOneSystemPerStep:
    """A step forms one system, S = symmetrize(H) + coeff*B, which its dense
    solve and both starts of its box step read: it symmetrizes H once, and
    a state's H enters it only through its symmetric part."""

    @staticmethod
    def _instance():
        oracle = generate_synthetic("logistic", n=6, m=30, seed=1)
        x = np.zeros(6)
        return oracle, CompositeTerm.box(x - 0.02, x + 0.02), StepState.at(oracle, x)

    def test_a_step_symmetrizes_h_once(self, monkeypatch):
        oracle, box, state = self._instance()
        zero = CompositeTerm.zero()
        warm = replace(state, active_set=newton_step(oracle, box, state, 0.5).state.active_set)
        calls = []

        def counting(a):
            calls.append(None)
            return symmetrize(a)

        def symmetrized(step, *args):
            calls.clear()
            step(oracle, *args)
            return len(calls)

        monkeypatch.setattr(composite, "symmetrize", counting)
        monkeypatch.setattr(metric, "symmetrize", counting)
        assert symmetrized(newton_step, zero, state, 0.5) == 1
        assert symmetrized(newton_step, box, state, 0.5) == 1  # cold: no carried set
        assert symmetrized(newton_step, box, warm, 0.5) == 1
        # the search takes five retries, each one more step from the same H(x)
        grad_norm = oracle.metric.dual_norm(state.grad)
        assert adaptive_sigma_search(oracle, zero, state, grad_norm, 1e-3)[2] == 5
        assert symmetrized(adaptive_sigma_search, zero, state, grad_norm, 1e-3) == 6

    def test_a_state_h_enters_through_its_symmetric_part(self):
        oracle, box, state = self._instance()
        r = np.random.default_rng(1).standard_normal((6, 6))
        h = oracle.hessian(state.x) + 1e-3 * (r - r.T)
        cold = newton_step(oracle, box, state, 0.5)
        warm = replace(state, active_set=cold.state.active_set)
        assert sum(side.sum() for side in cold.state.active_set) == 3
        for psi, start in ((CompositeTerm.zero(), state), (box, state), (box, warm)):
            raw = newton_step(oracle, psi, replace(start, hessian=h), 0.5)
            symmetric = newton_step(oracle, psi, replace(start, hessian=symmetrize(h)), 0.5)
            assert np.array_equal(raw.state.x, symmetric.state.x)
            assert np.array_equal(raw.subgradient, symmetric.subgradient)
            assert raw.step_length_local == symmetric.step_length_local


def _tail_instance(box, prox):
    """A logistic step origin whose box (when there is one) binds at x+
    after a step with beta = 0.1: on 2 coordinates, and on 4 with the prox
    term."""
    o = generate_synthetic("logistic", n=6, m=30, seed=19)
    psi = CompositeTerm.box(np.full(6, -0.16), np.full(6, 0.21)) if box else CompositeTerm.zero()
    if prox:
        psi = psi.with_quadratic(np.linspace(-0.4, 0.4, 6), 0.2)
    return o, psi, np.linspace(-0.15, 0.2, 6)


def _normal_part(oracle, psi, step):
    """The step's subgradient less g(x+) and the gradient of psi's
    quadratics at x+: the box normal vector it selected."""
    x_plus = step.state.x
    return step.subgradient - (oracle.gradient(x_plus) + psi.quad_gradient(x_plus, oracle.metric))


def _model_disagreement(oracle, psi, state, step, beta):
    """Entries where the step's subgradient and `selected_subgradient`'s
    model form differ by more than roundoff.

    In exact arithmetic they differ by S d - rhs - lam (S = H + coeff*B,
    d = x+ - x), which the exact step makes 0.  The solve leaves a residual
    within gamma_{3n+1} |L||L^T||d| (Higham, Theorem 10.4), and
    |L||L^T| <= sqrt(diag S) sqrt(diag S)^T entrywise, each row of L having
    the 2-norm of the root of its diagonal entry.  Every other rounded sum
    has at most n + 4 terms, among them the move from the solve's d to
    x+ - x (|S||x+|)."""
    x, x_plus = state.x, step.state.x
    metric = oracle.metric
    d = np.abs(x_plus - x)
    hess = symmetrize(oracle.hessian(x))
    coeff = beta + 2.0 * psi.quad_weight()
    system = np.abs(hess + coeff * metric.matrix)
    root = np.sqrt(np.diag(system))
    terms = (
        np.abs(step.state.grad) + np.abs(state.grad)
        + np.abs(psi.quad_gradient(x, metric)) + np.abs(psi.quad_gradient(x_plus, metric))
        + system @ np.abs(x_plus) + 3.0 * (np.abs(hess) + coeff * np.abs(metric.matrix)) @ d
        + root * (root @ d)
    )
    model = selected_subgradient(oracle, x, x_plus, beta, grad=state.grad, grad_plus=step.state.grad)
    return np.flatnonzero(np.abs(step.subgradient - model) > gamma(3 * len(x) + 4) * terms)


class TestStepTail:
    """Every step selects g(x+) + psi.quad_gradient(x+) - lam, lam the box
    multiplier: exactly the oracle's on free coordinates and without a box,
    and a normal vector of the box on its bounds."""

    def test_a_smooth_step_selects_the_gradient(self):
        # pure-Newton steps on matrix scaling engage the jitter ladder; the
        # model form carried its delta*B*d, 5e-13 off g(x+) in each entry
        o = generate_synthetic("matrix_scaling", n=6, seed=3)
        state = StepState.at(o, np.zeros(o.dim))
        for _ in range(8):
            step = newton_step(o, CompositeTerm.zero(), state, 0.0)
            state = step.state
            assert np.array_equal(step.subgradient, o.gradient(state.x))

    @pytest.mark.parametrize("kind", ["dense", "box", "hessian-free"])
    @pytest.mark.parametrize("prox", [False, True])
    def test_the_box_multiplier_is_the_only_departure_from_the_oracle(self, monkeypatch, kind, prox):
        o, psi, x = _tail_instance(kind == "box", prox)
        state = StepState.at(o, x)
        if kind == "hessian-free":
            declare_cheap_products(monkeypatch)
            warm = newton_step(o, CompositeTerm.zero(), StepState.at(o, 0.5 * x), 0.4).state.preconditioner
            state = StepState(x, state.grad, warm)
        step = newton_step(o, psi, state, 0.1)
        normal = _normal_part(o, psi, step)
        lower, upper = psi.bounds if psi.is_box else (-np.inf, np.inf)
        x_plus = step.state.x
        free = (lower < x_plus) & (x_plus < upper)
        assert np.all(normal[free] == 0.0)
        assert np.all(normal[x_plus == lower] <= 0.0) and np.all(normal[x_plus == upper] >= 0.0)
        # the box binds, with a multiplier on every bound coordinate
        assert np.count_nonzero(normal) == np.count_nonzero(~free) == (2 + 2 * prox if kind == "box" else 0)
        if kind == "hessian-free":
            assert step.state.preconditioner is warm  # the step ran on CG

    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("prox", [False, True])
    def test_the_model_form_agrees_up_to_roundoff(self, box, prox):
        o, psi, x = _tail_instance(box, prox)
        state = StepState.at(o, x)
        step = newton_step(o, psi, state, 0.1)
        assert _model_disagreement(o, psi, state, step, 0.1).size == 0

    def test_a_step_that_drops_the_multiplier_is_caught(self, monkeypatch):
        box_step = composite._box_step

        def dropping(*args):
            d, system_d, at_lower, at_upper, lam, solves = box_step(*args)
            return d, system_d, at_lower, at_upper, np.zeros_like(lam), solves

        monkeypatch.setattr(composite, "_box_step", dropping)
        o, psi, x = _tail_instance(True, True)
        state = StepState.at(o, x)
        step = newton_step(o, psi, state, 0.1)
        assert _model_disagreement(o, psi, state, step, 0.1).size == 4  # every bound coordinate


def _state_writes(step_fn) -> list[str]:
    """The fields of its given state that `step_fn` writes into, over a
    dense step with a prox term, a box step and a Hessian-free step; empty
    when it writes none (the dual restarts a retry from a state it kept)."""
    n = 50  # with m = 20n the declared costs make the steps Hessian-free
    oracle = generate_synthetic("logistic", n=n, m=20 * n, seed=3)
    x = 0.1 * np.random.default_rng(7).standard_normal(n)
    zero = CompositeTerm.zero()
    warm = newton_step(oracle, zero, StepState.at(oracle, 0.5 * x), 0.4).state.preconditioner
    cases = {
        "dense": (zero.with_quadratic(0.2 * x, 0.3), StepState.at(oracle, x.copy())),
        "box": (CompositeTerm.box(-np.ones(n), np.ones(n)), StepState.at(oracle, x.copy())),
        "hessian-free": (zero, StepState(x.copy(), oracle.gradient(x), warm)),
    }
    found = []
    for case, (psi, state) in cases.items():
        before = {field: np.copy(value) for field, value in vars(state).items()}
        step_fn(oracle, psi, state, 0.7)
        found += [
            f"{case}: {field}" for field, value in before.items() if not np.array_equal(getattr(state, field), value)
        ]
    return found


def test_a_step_never_writes_into_its_state():
    assert _state_writes(newton_step) == []


def test_a_step_that_moves_its_origin_in_place_is_caught():
    def aliasing(oracle, psi, state, beta):
        # planted mutation: x += d on the given state's array
        step = newton_step(oracle, psi, state, beta)
        origin = state.x
        origin += step.state.x - origin
        return step

    assert _state_writes(aliasing) == ["dense: x", "box: x", "hessian-free: x"]


class TestStepBound:
    def test_lambda_zero_form(self):
        o = generate_synthetic("logistic", n=5, m=20, seed=16)
        x = np.full(5, 0.4)
        g = o.metric.dual_norm(o.gradient(x))
        beta = 1.0 * g
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), beta)
        ok, _ = verify_step_bound(step, g, beta, lam=0.0)
        assert ok

    def test_with_computed_lambda(self):
        o = generate_synthetic("quadratic", n=5, seed=17)
        lam = min_generalized_eigenvalue(o.hessian(np.zeros(5)), o.metric)
        x = np.ones(5)
        g = o.metric.dual_norm(o.gradient(x))
        beta = 0.3
        step = newton_step(o, CompositeTerm.zero(), StepState.at(o, x), beta)
        ok, margin = verify_step_bound(step, g, beta, lam=lam)
        assert ok
        assert margin >= 0

    def test_full_solver_sweep(self):
        # every accepted step of a full run satisfies both bounds
        o = generate_synthetic("logistic", n=8, m=40, seed=18)
        res = solve_primal(
            o, CompositeTerm.zero(), np.zeros(8), PrimalConfig(sigma=1.0, grad_tol=1e-10)
        )
        assert res.status.value == "grad_tol_reached"
        for row, nxt in zip(res.trace, res.trace[1:]):
            if np.isnan(row.sigma):
                continue
            assert row.step_length <= row.grad_norm / row.beta + 1e-8


class TestProgressAndMonotonicity:
    @pytest.mark.parametrize(
        "name",
        ["quadratic", "softmax", "logistic", "exponential", "matrix_scaling", "matrix_balancing"],
    )
    def test_progress_inequality_on_traces(self, zoo, name):
        o = zoo[name]
        sigma = o.qsc_constant
        res = solve_primal(
            o,
            CompositeTerm.zero(),
            np.zeros(o.dim),
            PrimalConfig(sigma=sigma, grad_tol=1e-9, max_iters=300),
        )
        for row, nxt in zip(res.trace, res.trace[1:]):
            if np.isnan(row.sigma):
                continue
            assert nxt.f_value <= row.f_value + 1e-10
            if row.beta > 0:
                assert row.progress >= nxt.grad_norm**2 / (2 * row.beta) - 1e-8
            else:
                # exact Newton on a quadratic: new subgradient vanishes
                assert nxt.grad_norm <= 1e-8 * (1 + res.trace[0].grad_norm)


def _box_qp(kind, n, seed, beta, weight):
    """A box step on a logistic or matrix-scaling instance (whose Hessian has
    the kernel (1, ..., 1)), from a point with some coordinates on a face,
    with one-sided and two-sided bounds and an optional prox term."""
    oracle = generate_synthetic(kind, n=n, m=4 * n, seed=seed)
    dim = oracle.dim
    rng = np.random.default_rng(seed)
    width = rng.uniform(0.01, 1.0)
    lower = -width * rng.uniform(0.2, 1.0, dim)
    upper = width * rng.uniform(0.2, 1.0, dim)
    one_sided = rng.random(dim) < 0.2
    lower[one_sided & (rng.random(dim) < 0.5)] = -np.inf
    upper[one_sided & ~np.isinf(lower)] = np.inf
    x = np.clip(rng.uniform(-width, width, dim), lower, upper)
    on_face = rng.random(dim) < 0.3
    x[on_face] = np.where(np.isfinite(lower), lower, upper)[on_face]
    psi = CompositeTerm.box(lower, upper)
    quads = ((x + 0.1 * rng.standard_normal(dim), weight),) if weight > 0 else ()
    for center, w in quads:
        psi = psi.with_quadratic(center, w)
    return oracle, psi, x, quads


_BOX_QPS = dict(
    kind=st.sampled_from(["logistic", "matrix_scaling"]),
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([0.0, 0.02, 0.5, 3.0]),
    weight=st.sampled_from([0.0, 0.05, 1.0]),
)


@settings(max_examples=40, deadline=None)
@given(**_BOX_QPS)
# an unscaled active-set rule cycles here, so its step would hit the cap
@example(kind="logistic", n=5, seed=1633, beta=0.5, weight=1.0)
def test_box_step_is_the_exact_kkt_point(kind, n, seed, beta, weight):
    """The active-set step meets the box QP's KKT conditions to roundoff,
    agrees with an independent projected-gradient solve within that solve's
    error bound, and never reaches its iteration cap (which would raise)."""
    assume(beta + weight > 0)
    oracle, psi, x, quads = _box_qp(kind, n, seed, beta, weight)
    lower, upper = psi.bounds
    step = newton_step(oracle, psi, StepState.at(oracle, x), beta)

    bmat = np.array(oracle.metric.matrix)
    system = symmetrize(oracle.hessian(x)) + (beta + 2.0 * weight) * bmat
    rhs = -oracle.gradient(x) - sum(2.0 * w * bmat @ (x - c) for c, w in quads)
    d = step.state.x - x
    lam = system @ d - rhs  # the multiplier of the bounds
    tol = 1e-12 * (np.linalg.norm(rhs) + np.linalg.norm(system, 2) * np.linalg.norm(d) + 1e-12)
    at_lower, at_upper = step.state.x == lower, step.state.x == upper
    assert np.all(lower <= step.state.x) and np.all(step.state.x <= upper)
    assert np.all(lam[at_lower] >= -tol)
    assert np.all(lam[at_upper] <= tol)
    assert np.all(np.abs(lam[~(at_lower | at_upper)]) <= tol)
    assert 1 <= step.inner_iterations

    # the brute force stops within 1e-12 / mu of the minimizer; x_plus is
    # the exact KKT point of a model whose linear term is off by at most
    # sqrt(dim) * tol, so it lies within sqrt(dim) * tol / mu of it
    mu = np.linalg.eigvalsh(system)[0]
    expected = brute_force_box_step(oracle, lower, upper, x, beta, quads=quads)
    assert np.linalg.norm(step.state.x - expected) <= (1e-12 + np.sqrt(x.size) * tol) / mu


@settings(max_examples=40, deadline=None)
@given(**_BOX_QPS)
# an unscaled active-set rule cycles on the rescaled step of these
@example(kind="matrix_scaling", n=3, seed=9630, beta=0.02, weight=0.0)
@example(kind="logistic", n=6, seed=4765, beta=0.5, weight=0.0)
def test_box_step_commutes_with_diagonal_rescaling(kind, n, seed, beta, weight):
    """Substituting x = D u (D > 0 diagonal, induced metric D B D) maps the
    box to a box, and the step from u = x / D to x_plus / D: the active-set
    rule compares d - lam / diag(S), which scales like d, so it takes the
    same sets in the same number of solves."""
    assume(beta + weight > 0)
    oracle, psi, x, quads = _box_qp(kind, n, seed, beta, weight)
    lower, upper = psi.bounds
    scale = np.exp(np.random.default_rng(seed + 1).uniform(-4.0, 4.0, x.size))
    scaled_psi = CompositeTerm.box(lower / scale, upper / scale)
    for center, w in quads:
        scaled_psi = scaled_psi.with_quadratic(center / scale, w)
    step = newton_step(oracle, psi, StepState.at(oracle, x), beta)
    substituted = affine_substitute(oracle, np.diag(scale))
    scaled = newton_step(substituted, scaled_psi, StepState.at(substituted, x / scale), beta)
    assert scaled.inner_iterations == step.inner_iterations
    np.testing.assert_array_equal(scaled.state.x == lower / scale, step.state.x == lower)
    np.testing.assert_array_equal(scaled.state.x == upper / scale, step.state.x == upper)
    assert oracle.metric.primal_norm(scaled.state.x * scale - step.state.x) <= 1e-9 * (
        1.0 + step.step_length
    )


def _binding_box(kind, seed=3):
    """A step origin x, beta and a box around x that binds at x+ on some
    coordinates of each side: each half-width is 0.5 to 1.5 times half the
    median move of the unconstrained step."""
    sizes = {
        "logistic": dict(n=12, m=60),
        "softmax": dict(n=10, m=50),
        "matrix_scaling": dict(n=6),
        "quadratic": dict(n=15),
    }
    oracle = generate_synthetic(kind, seed=seed, **sizes[kind])
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(oracle.dim)
    beta = 0.1
    move = newton_step(oracle, CompositeTerm.zero(), StepState.at(oracle, x), beta).state.x - x
    width = 0.5 * np.median(np.abs(move))
    lower = x - width * rng.uniform(0.5, 1.5, oracle.dim)
    upper = x + width * rng.uniform(0.5, 1.5, oracle.dim)
    return oracle, CompositeTerm.box(lower, upper), StepState.at(oracle, x), beta


def _carried_sets(correct, seed=0):
    """The carried active sets a warm start is tried from: the one the step
    ends on, none active, all at the lower bound, and a random pair."""
    n = correct[0].size
    draw = np.random.default_rng(seed).integers(0, 3, n)
    none = np.zeros(n, dtype=bool)
    return {"correct": correct, "empty": (none, none), "all-lower": (~none, none), "random": (draw == 1, draw == 2)}


def _start_disagreements(oracle, psi, state, beta, cold, warm):
    """What differs between a cold box step and a warm one from the same
    state beyond roundoff: the active sets handed on, x+ and the subgradient.

    With equal final sets, both d solve the same free block, and each
    leaves a residual within gamma_{3n+1} |L||L^T||d| (Higham, Theorem 10.4;
    |L||L^T| <= sqrt(diag S) sqrt(diag S)^T entrywise) after a reduced
    right-hand side formed within gamma_{n+1} (|r| + |S||d|).  The two d are
    then at most twice that apart over lambda_min(S), and x + d adds a
    rounding of each.  The subgradient moves by |S| + |H(x+)| times that
    (the multiplier is S d - r on the bounds, and g(x+) moves with H along a
    segment of roundoff length), plus the multiplier's own rounding."""
    x, metric = state.x, oracle.metric
    found = [
        name
        for name, c, w in zip(("at_lower", "at_upper"), cold.state.active_set, warm.state.active_set)
        if not np.array_equal(c, w)
    ]
    system = symmetrize(oracle.hessian(x)) + (beta + 2.0 * psi.quad_weight()) * metric.matrix
    rhs = -(state.grad + psi.quad_gradient(x, metric))
    d = np.abs(cold.state.x - x)
    root = np.sqrt(np.diag(system))
    residual = 2.0 * gamma(3 * x.size + 4) * (np.abs(rhs) + np.abs(system) @ d + root * (root @ d))
    apart = np.linalg.norm(residual) / np.linalg.eigvalsh(system)[0]
    apart += 2.0 * gamma(1) * np.linalg.norm(cold.state.x)
    if np.linalg.norm(warm.state.x - cold.state.x) > apart:
        found.append("x+")
    hess_plus = symmetrize(oracle.hessian(cold.state.x))
    moved = (np.abs(system) + np.abs(hess_plus)).sum(axis=1) * apart + residual
    if np.any(np.abs(warm.subgradient - cold.subgradient) > moved):
        found.append("subgradient")
    return found


def _free_block_only(solve, scale, rhs, lower, upper, at_lower, at_upper):
    """Planted mutation of `_active_set_loop`: the carried set's free-block
    solve, returned without the KKT loop that checks it."""
    free = ~(at_lower | at_upper)
    d = np.where(at_lower, lower, np.where(at_upper, upper, 0.0))
    system_d = solve(free, d)
    lam = system_d - rhs
    lam[free] = 0.0
    return d, system_d, at_lower, at_upper, lam, 1


_KINDS = ["logistic", "softmax", "matrix_scaling", "quadratic"]


class TestCarriedActiveSet:
    """A box step starts its active-set solve from the set carried in its
    state, and hands on the set it ends on.  The box QP is strongly convex,
    so any start reaches the same minimizer: a warm step agrees with the
    cold one to roundoff."""

    @pytest.mark.parametrize("carried", ["correct", "empty", "all-lower", "random"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_a_warm_step_is_the_cold_step(self, kind, carried):
        oracle, psi, state, beta = _binding_box(kind)
        cold = newton_step(oracle, psi, state, beta)
        lower, upper = psi.bounds
        assert np.any(cold.state.x == lower) and np.any(cold.state.x == upper)
        start = _carried_sets(cold.state.active_set)[carried]
        warm = newton_step(oracle, psi, replace(state, active_set=start), beta)
        assert _start_disagreements(oracle, psi, state, beta, cold, warm) == []
        if carried == "correct":
            assert warm.inner_iterations == 1 < cold.inner_iterations

    @pytest.mark.parametrize("kind", _KINDS)
    def test_a_warm_start_without_the_kkt_loop_is_caught(self, monkeypatch, kind):
        oracle, psi, state, beta = _binding_box(kind)
        cold = newton_step(oracle, psi, state, beta)
        monkeypatch.setattr(composite, "_active_set_loop", _free_block_only)
        caught = {
            name: _start_disagreements(
                oracle, psi, state, beta, cold, newton_step(oracle, psi, replace(state, active_set=start), beta)
            )
            for name, start in _carried_sets(cold.state.active_set).items()
        }
        assert caught["correct"] == []
        # each wrong start is handed on, with the subgradient of a point
        # that is not the box QP's minimizer
        for name in ("empty", "all-lower", "random"):
            assert {"at_lower", "at_upper"} & set(caught[name]) and "subgradient" in caught[name], name

    def test_a_carried_set_that_fails_falls_back_to_the_cold_step(self, monkeypatch):
        # from all-lower the loop takes 4 solves, from the empty sets 3: the
        # whole S, then 2 free blocks
        oracle, psi, state, beta = _binding_box("softmax")
        all_lower = _carried_sets(np.zeros((2, oracle.dim), dtype=bool))["all-lower"]
        assert newton_step(oracle, psi, replace(state, active_set=all_lower), beta).inner_iterations == 4
        monkeypatch.setattr(composite, "_BOX_MAX_INNER", 3)
        cold = newton_step(oracle, psi, state, beta)
        assert cold.inner_iterations == 3
        warm = newton_step(oracle, psi, replace(state, active_set=all_lower), beta)
        assert np.array_equal(warm.state.x, cold.state.x)
        assert np.array_equal(warm.subgradient, cold.subgradient)
        assert all(map(np.array_equal, warm.state.active_set, cold.state.active_set))
        assert warm.inner_iterations == cold.inner_iterations
        # with no start that converges under the cap, the step still raises
        monkeypatch.setattr(composite, "_BOX_MAX_INNER", 1)
        with pytest.raises(composite.MaxInnerIterationsError):
            newton_step(oracle, psi, replace(state, active_set=all_lower), beta)

    def test_a_box_step_never_takes_the_jittered_solve(self, monkeypatch):
        # every start is the active-set loop; only a step without a box
        # goes through regularized_solve and its jitter ladder
        oracle, psi, state, beta = _binding_box("softmax")
        cold = newton_step(oracle, psi, state, beta)
        all_lower = _carried_sets(cold.state.active_set)["all-lower"]
        calls = []
        solve = composite.regularized_solve

        def spying(*args):
            calls.append(None)
            return solve(*args)

        monkeypatch.setattr(composite, "regularized_solve", spying)
        monkeypatch.setattr(composite, "_BOX_MAX_INNER", 3)  # all-lower takes 4: it fails
        starts = {
            "none": state,
            "carried": replace(state, active_set=cold.state.active_set),
            "failing": replace(state, active_set=all_lower),
        }
        for name, start in starts.items():
            step = newton_step(oracle, psi, start, beta)
            assert calls == [] and np.array_equal(step.state.x, cold.state.x), name
        newton_step(oracle, CompositeTerm.zero(), state, beta)
        assert len(calls) == 1

    def test_a_dual_whose_box_steps_cannot_converge_fails_typed(self, monkeypatch):
        monkeypatch.setattr(composite, "_BOX_MAX_INNER", 1)
        oracle = generate_synthetic("logistic", n=12, m=60, seed=3)
        psi = CompositeTerm.box(np.full(12, -0.05), np.full(12, 0.05))
        result = solve_dual(oracle, psi, np.zeros(12), DualConfig(qsc_constant=1.0, grad_tol=1e-8))
        assert result.status is DualStatus.INNER_SOLVER_FAILURE

    def test_the_dual_lends_and_hands_on_the_set(self, monkeypatch):
        oracle, psi, state, beta = _binding_box("logistic")
        carried = []
        box_step = composite._box_step

        def recording(*args):
            carried.append(args[-1])
            return box_step(*args)

        monkeypatch.setattr(composite, "_box_step", recording)
        config = DualConfig(qsc_constant=1.0, grad_tol=1e-8)
        first = solve_dual(oracle, psi, state.x, config)
        assert first.status is DualStatus.GRAD_TOL_REACHED
        assert carried[0] is None and all(c is not None for c in carried[1:])
        carried.clear()
        solve_dual(oracle, psi, state.x, config, start=first.state)
        assert carried[0] is first.state.active_set


def _box_solves(drop):
    """Box solves, outer iterations and inner steps per outer iteration of a
    logistic box dual (n = 100, m = 1000, box +-0.3), the solves counted at
    `_active_set_loop`, which Hessian-free and dense box steps both run; with
    `drop`, every loop starts from the empty sets instead of the carried ones."""
    oracle = generate_synthetic("logistic", n=100, m=1000, seed=1)
    psi = CompositeTerm.box(np.full(100, -0.3), np.full(100, 0.3))
    loop = composite._active_set_loop
    solves = []

    def counting(solve, scale, rhs, lower, upper, at_lower, at_upper):
        if drop:
            at_lower = at_upper = np.zeros_like(at_lower)
        result = loop(solve, scale, rhs, lower, upper, at_lower, at_upper)
        solves.append(result[-1])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(composite, "_active_set_loop", counting)
        result = solve_dual(oracle, psi, np.zeros(100), DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=1e-8))
    assert result.status is DualStatus.GRAD_TOL_REACHED
    return sum(solves), result.outer_iterations, [row.inner_iterations for row in result.trace]


def test_the_carried_set_saves_box_solves():
    # 92 against 178 solves; the steps themselves are the same
    warm, *warm_counts = _box_solves(drop=False)
    cold, *cold_counts = _box_solves(drop=True)
    assert warm <= 0.6 * cold
    assert warm_counts == cold_counts


def _seeded_box_qp(seed, n=3):
    """A box QP ``1/2 d'Sd - r'd`` over ``lower <= d <= upper`` with S
    positive definite but not an M-matrix, as a seeded search drew it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    system = a @ a.T + 0.05 * np.eye(n)
    return system, 3.0 * rng.standard_normal(n), -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)


class TestCycleGuard:
    """The primal-dual active-set loop converges on M-matrices, but can
    cycle on other positive-definite ones (Ben Gharbia and Gilbert, Math.
    Program. 2012).  Among the 3 x 3 QPs of `_seeded_box_qp`, seeds 808,
    3555, 4912 and 7144 are the first on which the dense loop cycles from
    the empty sets; it stops at the first repeat, not after `_BOX_MAX_INNER`
    solves."""

    @pytest.mark.parametrize("seed, solves, first", [(808, 5, 2), (3555, 5, 2), (4912, 6, 3), (7144, 3, 1)])
    def test_a_cycling_dense_loop_names_the_cycle(self, seed, solves, first):
        system, rhs, lower, upper = _seeded_box_qp(seed)
        assert np.linalg.eigvalsh(system)[0] > 0
        cycle = f"cycles: solve {solves} leads back to the sets of solve {first}"
        with pytest.raises(composite.MaxInnerIterationsError, match=cycle):
            composite._box_step(system, rhs, lower, upper, None)

    def test_a_cycling_hessian_free_loop_falls_back_at_once(self):
        # seed 808: with the exact inverse each free block takes one CG
        # product, and S d one more, so the loop on products follows the
        # dense loop round its cycle and stops at the same repeat, after 5
        # solves and 10 products
        system, rhs, lower, upper = _seeded_box_qp(808)
        products = []

        def operator(u):
            products.append(None)
            return system @ u

        inverse = np.linalg.inv(system)
        assert composite._hessian_free_box_step(operator, inverse, np.diag(system), rhs, lower, upper, None, 1e-12, 3) is None
        assert len(products) == 10


def _products_loop_fallbacks(seeds, scale_of) -> list[int]:
    """The seeds of `_seeded_box_qp` on which the loop on products, with
    the exact inverse P and its multiplier step scaled by `scale_of(S, P)`,
    falls back where the dense loop does not, or ends elsewhere."""
    found = []
    for seed in seeds:
        system, rhs, lower, upper = _seeded_box_qp(seed)
        inverse = np.linalg.inv(system)
        dense = composite._box_step(system, rhs, lower, upper, None)
        brute = brute_force_box_step(QuadraticObjective(system, rhs), lower, upper, np.zeros(len(rhs)), 0.0)
        np.testing.assert_allclose(dense[0], brute, atol=1e-9)
        got = composite._hessian_free_box_step(
            lambda u: system @ u, inverse, scale_of(system, inverse), rhs, lower, upper, None, 1e-12, 3
        )
        if (
            got is None
            or got[-1] != dense[-1]
            or not all(np.array_equal(a, b) for a, b in zip(got[2:4], dense[2:4]))
            or not np.allclose(got[0], dense[0], rtol=0, atol=1e-12)
        ):
            found.append(seed)
    return found


def test_the_loop_on_products_falls_back_no_more_often_than_the_dense_loop():
    # the dense loop converges on seeds 0-6; scaled by diag(S), as the dense
    # loop is, the loop on products takes the same solves to the same sets
    assert _products_loop_fallbacks(range(7), lambda system, inverse: np.diag(system)) == []


def test_a_loop_scaled_by_the_inverse_diagonal_is_caught():
    # planted mutation: the multiplier step scaled by 1/diag(P), at most
    # diag(S), jumps from one bound to the other and cycles
    assert _products_loop_fallbacks(range(7), lambda system, inverse: 1.0 / np.diag(inverse)) == [1, 2, 3, 6]
