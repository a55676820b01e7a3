import math

import numpy as np
import pytest

from qscnewton import (
    CompositeTerm,
    PrimalConfig,
    PrimalStatus,
    QuadraticObjective,
    StepState,
    adaptive_sigma_search,
    add_oracles,
    check_local_quadratic,
    compute_reference,
    eta_measure,
    generate_synthetic,
    solve_primal,
)
from qscnewton import primal as primal_mod
from qscnewton.composite import MaxInnerIterationsError
from qscnewton.harness import CountingOracle, write_trace
from qscnewton.metric import SingularSystemError
from qscnewton.primal import AdaptiveSearchError, PrimalTraceRow, read_primal_trace

ZERO = CompositeTerm.zero()


class TestSolvePrimal:
    def test_quadratic_one_iteration(self):
        o = generate_synthetic("quadratic", n=6, seed=0)
        res = solve_primal(o, ZERO, np.ones(6), PrimalConfig(sigma=0.0, grad_tol=1e-10))
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        assert res.iterations == 1

    def test_stationary_start_returns_immediately(self):
        o = generate_synthetic("quadratic", n=4, seed=1)
        x_star = np.linalg.solve(o.hessian(np.zeros(4)), -o.gradient(np.zeros(4)) + o.hessian(np.zeros(4)) @ np.zeros(4))
        res = solve_primal(o, ZERO, x_star, PrimalConfig(sigma=0.0, grad_tol=1e-8))
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        assert res.iterations == 0

    def test_logistic_run_satisfies_progress_rows(self, logistic_ref):
        res = solve_primal(
            logistic_ref, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-9)
        )
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        assert res.iterations < 500
        for row, nxt in zip(res.trace, res.trace[1:]):
            if math.isnan(row.sigma):
                continue
            assert row.progress >= nxt.grad_norm**2 / (2 * row.sigma * row.grad_norm) - 1e-8

    def test_max_iters_status(self, logistic_ref):
        res = solve_primal(
            logistic_ref, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-16, max_iters=3)
        )
        assert res.status is PrimalStatus.MAX_ITERS
        assert res.iterations == 3

    def test_target_gap_stop(self, logistic_ref, logistic_reference):
        cfg = PrimalConfig(
            sigma=1.0,
            grad_tol=1e-14,
            max_iters=1000,
            f_star_ref=logistic_reference.f_value,
            rel_accuracy=1e-4,
        )
        res = solve_primal(logistic_ref, ZERO, np.zeros(20), cfg)
        assert res.status is PrimalStatus.TARGET_GAP_REACHED
        gap0 = res.trace[0].f_value - logistic_reference.f_value
        final_gap = res.trace[-1].f_value - logistic_reference.f_value
        assert final_gap <= 1e-4 * gap0

    def test_grad_norm_identity_zero_composite(self, logistic_ref):
        # the recursively-propagated g equals the directly recomputed gradient norm
        res = solve_primal(
            logistic_ref, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-10)
        )
        for row in res.trace:
            direct = logistic_ref.metric.dual_norm(logistic_ref.gradient(row.x))
            assert abs(row.grad_norm - direct) <= 1e-9 * (1.0 + direct)

    def test_default_sigma_is_declared_constant(self, zoo):
        o = zoo["softmax"]
        res = solve_primal(o, ZERO, np.zeros(o.dim), PrimalConfig(grad_tol=1e-8))
        used = {row.sigma for row in res.trace if not math.isnan(row.sigma)}
        assert used == {o.qsc_constant}

    def test_infeasible_start_rejected(self, zoo):
        psi = CompositeTerm.box(np.zeros(8), np.ones(8))
        with pytest.raises(ValueError):
            solve_primal(zoo["logistic"], psi, np.full(8, 3.0), PrimalConfig(sigma=1.0))

    def test_box_run_stays_feasible(self, zoo):
        o = zoo["logistic"]
        psi = CompositeTerm.box(np.full(8, -0.05), np.full(8, 0.08))
        res = solve_primal(o, psi, np.zeros(8), PrimalConfig(sigma=1.0, grad_tol=1e-9))
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        assert psi.contains(res.x)


class TestAdaptiveSearch:
    def test_accepts_immediately_at_declared_constant(self, logistic_ref):
        x = np.full(20, 0.1)
        g = logistic_ref.metric.dual_norm(logistic_ref.gradient(x))
        sigma, _, retries = adaptive_sigma_search(logistic_ref, ZERO, StepState.at(logistic_ref, x), g, sigma_start=1.0)
        assert sigma == 1.0
        assert retries == 0

    def test_quadratic_accepts_tiny_sigma(self):
        o = generate_synthetic("quadratic", n=5, seed=2)
        x = np.ones(5)
        g = o.metric.dual_norm(o.gradient(x))
        sigma, _, retries = adaptive_sigma_search(o, ZERO, StepState.at(o, x), g, sigma_start=1e-10)
        assert sigma == 1e-10
        assert retries == 0

    def test_accepted_sigma_never_exceeds_twice_constant(self, logistic_ref):
        cfg = PrimalConfig(adaptive=True, sigma0=1e-6, grad_tol=1e-10, max_iters=500)
        res = solve_primal(logistic_ref, ZERO, np.zeros(20), cfg)
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        accepted = [row.sigma for row in res.trace if not math.isnan(row.sigma)]
        assert max(accepted) <= 2.0 * logistic_ref.qsc_constant

    def test_step_computation_budget(self, logistic_ref):
        cfg = PrimalConfig(adaptive=True, sigma0=1e-6, grad_tol=1e-10, max_iters=500)
        res = solve_primal(logistic_ref, ZERO, np.zeros(20), cfg)
        accepted = [row.sigma for row in res.trace if not math.isnan(row.sigma)]
        budget = 2 * res.iterations + math.log2(max(accepted) / 1e-6)
        assert res.step_computations <= budget


class TestOracleCalls:
    """Each point is evaluated once: one gradient and one Hessian per step."""

    def test_constant_sigma(self, logistic_ref):
        o = CountingOracle(logistic_ref)
        res = solve_primal(o, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-10))
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        assert o.calls["gradient"] == res.iterations + 1
        assert o.calls["hessian"] == res.iterations

    def test_relative_stop_values_each_iterate_once(self, logistic_ref):
        # F(x_0) gives both the first row and the gap the stop is relative to
        reference = compute_reference(logistic_ref, ZERO, np.zeros(20))
        o = CountingOracle(logistic_ref)
        config = PrimalConfig(sigma=1.0, f_star_ref=reference.f_value, rel_accuracy=1e-6)
        res = solve_primal(o, ZERO, np.zeros(20), config)
        assert res.status is PrimalStatus.TARGET_GAP_REACHED
        assert o.calls["value"] == len(res.trace)

    def test_diagnostics_share_the_step_hessian(self, logistic_ref):
        o = CountingOracle(logistic_ref)
        res = solve_primal(
            o, ZERO, np.zeros(20), PrimalConfig(grad_tol=1e-10, record_diagnostics=True)
        )
        # one more Hessian for the eta of the terminal iterate
        assert o.calls["hessian"] == res.iterations + 1

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_carried_values_belong_to_the_step_origin(self, monkeypatch, adaptive):
        base = generate_synthetic("matrix_scaling", n=10, seed=1)
        real_step = primal_mod.newton_step

        def checked_step(oracle, psi, state, beta):
            assert np.array_equal(state.grad, base.gradient(state.x))
            assert np.array_equal(state.hessian, base.hessian(state.x))
            return real_step(oracle, psi, state, beta)

        monkeypatch.setattr(primal_mod, "newton_step", checked_step)
        config = PrimalConfig(adaptive=adaptive, grad_tol=1e-8, record_diagnostics=True)
        res = solve_primal(base, ZERO, np.zeros(20), config)
        assert res.status is PrimalStatus.GRAD_TOL_REACHED

    def test_adaptive_retries_reuse_the_hessian(self):
        o = CountingOracle(generate_synthetic("matrix_scaling", n=100, seed=0))
        res = solve_primal(o, ZERO, np.zeros(200), PrimalConfig(adaptive=True, grad_tol=1e-8))
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        assert res.step_computations > res.iterations  # retries did happen
        assert o.calls["hessian"] == res.iterations
        assert o.calls["gradient"] == res.step_computations + 1


class TestFailureStatuses:
    """Each solver exception ends the run in its status, with a terminal row
    that records the iterate the failed step started from."""

    @pytest.mark.parametrize("fail_at", [1, 3])
    @pytest.mark.parametrize(
        "patched, error, status",
        [
            ("newton_step", SingularSystemError, PrimalStatus.SINGULAR_SYSTEM),
            ("newton_step", MaxInnerIterationsError, PrimalStatus.INNER_SOLVER_FAILURE),
            ("adaptive_sigma_search", AdaptiveSearchError, PrimalStatus.ADAPTIVE_FAILURE),
        ],
    )
    def test_status_and_terminal_row(self, monkeypatch, logistic_ref, patched, error, status, fail_at):
        real = getattr(primal_mod, patched)
        origins = []

        def failing(oracle, psi, state, *args, **kwargs):
            origins.append(np.array(state.x))
            if len(origins) == fail_at:
                raise error("injected failure")
            return real(oracle, psi, state, *args, **kwargs)

        monkeypatch.setattr(primal_mod, patched, failing)
        config = PrimalConfig(adaptive=patched == "adaptive_sigma_search", grad_tol=1e-12)
        res = solve_primal(logistic_ref, ZERO, np.zeros(20), config)
        assert res.status is status
        assert res.iterations == fail_at - 1
        assert [row.k for row in res.trace] == list(range(fail_at))
        last, x = res.trace[-1], origins[-1]
        np.testing.assert_array_equal(last.x, x)
        np.testing.assert_array_equal(res.x, x)
        assert last.f_value == logistic_ref.value(x)
        assert last.grad_norm == res.final_grad_norm
        direct = logistic_ref.metric.dual_norm(logistic_ref.gradient(x))
        assert abs(last.grad_norm - direct) <= 1e-9 * (1.0 + direct)
        for field in ("sigma", "beta", "step_length", "progress", "lam", "eta"):
            assert math.isnan(getattr(last, field)), field
        assert last.retries == 0
        for row in res.trace[:-1]:
            assert not math.isnan(row.sigma)


class TestEtaMeasure:
    def test_stationary_point(self):
        o = QuadraticObjective(np.eye(2), np.zeros(2))
        assert eta_measure(o, ZERO, np.zeros(2), np.zeros(2)) == 0.0

    def test_strongly_convex_quadratic(self):
        # f = ||x||^2/2, B = I, x = (2, 0): g = 2, lambda = 1
        o = QuadraticObjective(np.eye(2), np.zeros(2))
        x = np.array([2.0, 0.0])
        assert eta_measure(o, ZERO, x, o.gradient(x)) == pytest.approx(2.0)

    def test_singular_hessian_gives_infinity(self, zoo):
        o = zoo["matrix_balancing"]
        x = np.zeros(o.dim)
        grad = o.gradient(x)
        assert eta_measure(o, ZERO, x, grad) == math.inf


class TestLocalQuadratic:
    def _regularized_logistic(self):
        base = generate_synthetic("logistic", n=20, m=200, seed=1)
        bump = QuadraticObjective(
            0.2 * base.metric.matrix, np.zeros(20), metric=base.metric
        )
        return add_oracles(base, bump)  # + 0.1 ||x||^2 in the metric norm

    def test_never_entered_is_vacuous(self, logistic_ref):
        res = solve_primal(
            logistic_ref,
            ZERO,
            np.zeros(20),
            PrimalConfig(sigma=1.0, grad_tol=1e-2, max_iters=1, record_diagnostics=True),
        )
        report = check_local_quadratic(res.trace, 100.0)  # absurdly tight region
        assert report.not_entered
        assert report.passed

    def test_regularized_logistic_contracts(self):
        o = self._regularized_logistic()
        res = solve_primal(
            o,
            ZERO,
            np.zeros(20),
            PrimalConfig(sigma=1.0, grad_tol=1e-11, record_diagnostics=True),
        )
        report = check_local_quadratic(res.trace, o.qsc_constant)
        assert report.entered
        assert report.passed
        assert report.checked_pairs >= 2

    def test_pure_newton_inside_region(self):
        # start near the optimum, run unregularized Newton; same bound with sigma=0
        o = self._regularized_logistic()
        ref = compute_reference(o, ZERO, np.zeros(20))
        rng = np.random.default_rng(3)
        d = rng.standard_normal(20)
        d *= 0.05 / o.metric.primal_norm(d)
        res = solve_primal(
            o,
            ZERO,
            ref.x + d,
            PrimalConfig(sigma=0.0, grad_tol=1e-12, record_diagnostics=True),
        )
        assert res.status is PrimalStatus.GRAD_TOL_REACHED
        report = check_local_quadratic(res.trace, o.qsc_constant)
        assert report.entered
        assert report.passed


class TestTraceCsv:
    def test_round_trip_and_column_order(self, tmp_path, zoo):
        o = zoo["logistic"]
        res = solve_primal(
            o, ZERO, np.zeros(8), PrimalConfig(sigma=1.0, grad_tol=1e-8, record_diagnostics=True)
        )
        path = tmp_path / "trace.csv"
        write_trace(res.trace, path, PrimalTraceRow)
        header = path.read_text().splitlines()[0]
        assert header == "k,F,g,sigma,beta,step_len,progress,retries,lambda,eta"
        rows = read_primal_trace(path)
        assert len(rows) == len(res.trace)
        for ours, theirs in zip(res.trace, rows):
            assert theirs.f_value == ours.f_value
            assert theirs.grad_norm == ours.grad_norm
            assert (math.isnan(theirs.sigma) and math.isnan(ours.sigma)) or theirs.sigma == ours.sigma
