import numpy as np
import pytest

from qscnewton import (
    CompositeTerm,
    DualConfig,
    DualStatus,
    check_inner_quadratic,
    compute_reference,
    generate_synthetic,
    solve_dual,
    verify_dual_guarantee,
    verify_dual_rate,
)
from qscnewton import dual as dual_mod
from qscnewton.composite import MaxInnerIterationsError
from qscnewton.dual import DualTraceRow
from qscnewton.harness import CountingOracle, write_trace
from qscnewton.metric import SingularSystemError

ZERO = CompositeTerm.zero()


class TestSolveDual:
    def test_immediate_return_below_tolerance(self, logistic_ref, logistic_reference):
        res = solve_dual(
            logistic_ref, ZERO, logistic_reference.x, DualConfig(qsc_constant=1.0, grad_tol=1e-6)
        )
        assert res.status is DualStatus.GRAD_TOL_REACHED
        assert res.outer_iterations == 0
        np.testing.assert_array_equal(res.x, logistic_reference.x)

    def test_quadratic_inner_loop_is_one_step(self):
        # quadratic smooth part: the augmented model is exact, so s vanishes
        o = generate_synthetic("quadratic", n=5, seed=1)
        res = solve_dual(o, ZERO, np.ones(5), DualConfig(qsc_constant=1.0, grad_tol=1e-9))
        assert res.status is DualStatus.GRAD_TOL_REACHED
        for row in res.trace:
            assert row.inner_iterations == 1
            assert row.inner_residuals[-1] <= 1e-10

    def test_logistic_converges_and_thresholds_hold(self, logistic_ref):
        res = solve_dual(
            logistic_ref, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8)
        )
        assert res.status is DualStatus.GRAD_TOL_REACHED
        assert res.final_grad_norm <= 1e-8
        for row in res.trace:
            assert row.inner_residuals[-1] <= row.threshold
            assert row.a_next == pytest.approx(1.0 / (2.0 * res.qsc_used * row.g_k))

    def test_g_next_identity(self, logistic_ref):
        # g_{k+1} recomputed directly from the plain gradient at the new point
        res = solve_dual(
            logistic_ref, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8)
        )
        for row in res.trace:
            direct = logistic_ref.metric.dual_norm(logistic_ref.gradient(row.x_next))
            assert abs(row.g_next - direct) <= 1e-9 * (1.0 + direct)

    def test_underestimated_constant_is_doubled(self, monkeypatch):
        # far start on an exponential instance: the barely-augmented inner
        # Newton loop stalls, so the constant must be grown to finish
        monkeypatch.setattr(dual_mod, "_MAX_INNER", 5)
        o = generate_synthetic("exponential", n=8, m=40, seed=9)
        res = solve_dual(o, ZERO, np.full(8, 5.0), DualConfig(qsc_constant=1e-8, grad_tol=1e-8))
        assert res.status is DualStatus.GRAD_TOL_REACHED
        assert res.qsc_used > 1e-8

    def test_adaptation_disabled_reports_suspect_constant(self, monkeypatch):
        monkeypatch.setattr(dual_mod, "_MAX_QSC_DOUBLINGS", 0)
        monkeypatch.setattr(dual_mod, "_MAX_INNER", 5)
        o = generate_synthetic("exponential", n=8, m=40, seed=9)
        res = solve_dual(o, ZERO, np.full(8, 5.0), DualConfig(qsc_constant=1e-8, grad_tol=1e-8))
        assert res.status is DualStatus.QSC_PARAMETER_SUSPECT

    @pytest.mark.parametrize("box", [False, True])
    def test_one_gradient_and_hessian_per_inner_step(self, logistic_ref, box):
        o = CountingOracle(logistic_ref)
        psi = CompositeTerm.box(np.full(20, -0.3), np.full(20, 0.3)) if box else ZERO
        res = solve_dual(o, psi, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8))
        assert res.status is DualStatus.GRAD_TOL_REACHED
        assert o.calls["gradient"] == res.total_inner + 1
        assert o.calls["hessian"] == res.total_inner

    def test_doubling_retry_restarts_from_the_carried_gradient(self, monkeypatch):
        # the retried outer iteration starts again from x_k's kept state:
        # every carried gradient must be, bit for bit, the one at the
        # step's origin
        base = generate_synthetic("exponential", n=8, m=40, seed=9)
        real_step = dual_mod.newton_step

        def checked_step(oracle, psi, state, beta, **kwargs):
            assert np.array_equal(state.grad, base.gradient(state.x))
            return real_step(oracle, psi, state, beta, **kwargs)

        monkeypatch.setattr(dual_mod, "newton_step", checked_step)
        monkeypatch.setattr(dual_mod, "_MAX_INNER", 5)
        o = CountingOracle(base)
        res = solve_dual(o, ZERO, np.full(8, 5.0), DualConfig(qsc_constant=1e-8, grad_tol=1e-8))
        assert res.status is DualStatus.GRAD_TOL_REACHED
        assert res.qsc_used > 1e-8
        assert o.calls["gradient"] == res.total_inner + 1
        assert o.calls["hessian"] == res.total_inner

    @pytest.mark.parametrize("fail_at", [1, 4])
    @pytest.mark.parametrize(
        "error, status",
        [
            (SingularSystemError, DualStatus.SINGULAR_SYSTEM),
            (MaxInnerIterationsError, DualStatus.INNER_SOLVER_FAILURE),
        ],
    )
    def test_failure_status_keeps_completed_outer_rows(
        self, monkeypatch, logistic_ref, error, status, fail_at
    ):
        real_step = dual_mod.newton_step
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_at:
                raise error("injected failure")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(dual_mod, "newton_step", failing)
        res = solve_dual(
            logistic_ref, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8)
        )
        assert res.status is status
        assert res.total_inner == fail_at - 1
        assert res.outer_iterations == len(res.trace)
        # only outer iterations whose inner loop finished have a row
        assert sum(row.inner_iterations for row in res.trace) <= fail_at - 1
        assert [row.k for row in res.trace] == list(range(len(res.trace)))
        for row in res.trace:
            assert row.inner_residuals[-1] <= row.threshold
        if res.trace:
            np.testing.assert_array_equal(res.x, res.trace[-1].x_next)
            assert res.final_grad_norm == res.trace[-1].g_next
        else:
            np.testing.assert_array_equal(res.x, np.zeros(20))
            assert res.final_grad_norm == res.g0
        assert res.final_grad_norm > 1e-8

    def test_box_composite_toy(self):
        o = generate_synthetic("logistic", n=3, m=12, seed=9)
        psi = CompositeTerm.box(np.full(3, -0.05), np.full(3, 0.05))
        res = solve_dual(o, psi, np.zeros(3), DualConfig(qsc_constant=1.0, grad_tol=1e-7))
        assert res.status is DualStatus.GRAD_TOL_REACHED
        assert psi.contains(res.x)
        # the returned subgradient norm is genuinely small: optimality of the
        # box-constrained problem at the final point
        h = o.gradient(res.x)
        for i in range(3):
            if np.isclose(res.x[i], 0.05):
                assert h[i] <= 1e-6
            elif np.isclose(res.x[i], -0.05):
                assert h[i] >= -1e-6


@pytest.fixture(scope="module")
def run(logistic_ref):
    return solve_dual(
        logistic_ref, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8)
    )


class TestDualVerifiers:

    def test_guarantee_full_run(self, run, logistic_reference):
        report = verify_dual_guarantee(run, logistic_reference.x, logistic_reference.f_value)
        assert report.passed
        assert report.lhs <= report.rhs

    def test_guarantee_single_iteration(self, logistic_ref, logistic_reference):
        res = solve_dual(
            logistic_ref,
            ZERO,
            np.zeros(20),
            DualConfig(qsc_constant=1.0, grad_tol=1e-8, max_outer=1),
        )
        assert len(res.trace) == 1
        report = verify_dual_guarantee(res, logistic_reference.x, logistic_reference.f_value)
        assert report.passed

    def test_guarantee_quadratic_tiny_lhs(self):
        o = generate_synthetic("quadratic", n=5, seed=2)
        ref = compute_reference(o, ZERO, np.zeros(5))
        res = solve_dual(o, ZERO, np.ones(5), DualConfig(qsc_constant=1.0, grad_tol=1e-9))
        report = verify_dual_guarantee(res, ref.x, ref.f_value)
        assert report.passed
        assert report.rhs > 0

    def test_rate_envelope_and_budget(self, run, logistic_reference):
        report = verify_dual_rate(run, logistic_reference.x)
        assert report.envelope_passed
        assert report.oracle_calls_passed

    def test_rate_verdict_fails_with_the_call_budget(self, run, logistic_reference):
        # a negative slack per outer iteration leaves no call budget
        report = verify_dual_rate(run, logistic_reference.x, slack_per_outer=-10.0)
        assert report.envelope_passed and not report.oracle_calls_passed
        assert vars(report)["passed"] is False

    def test_rate_envelope_binding_from_hot_start(self, logistic_ref, logistic_reference):
        # ||x0 - x*|| = 2 makes the burn-in ~8 outer iterations, so the
        # exp(-k/2) decay is actually exercised
        rng = np.random.default_rng(7)
        d = rng.standard_normal(20)
        d *= 2.0 / logistic_ref.metric.primal_norm(d)
        res = solve_dual(
            logistic_ref,
            ZERO,
            logistic_reference.x + d,
            DualConfig(qsc_constant=1.0, grad_tol=1e-10, max_outer=500),
        )
        assert res.status is DualStatus.GRAD_TOL_REACHED
        report = verify_dual_rate(res, logistic_reference.x)
        assert report.envelope_passed
        assert report.worst_envelope_slack < 1.0  # the bound was actually tested
        assert report.fitted_decay < -0.5  # at least the guaranteed decay rate

    def test_rate_needs_three_iterations(self, logistic_ref, logistic_reference):
        res = solve_dual(
            logistic_ref,
            ZERO,
            np.zeros(20),
            DualConfig(qsc_constant=1.0, grad_tol=1e-8, max_outer=2),
        )
        with pytest.raises(ValueError):
            verify_dual_rate(res, logistic_reference.x)

    def test_inner_quadratic_contraction(self, run):
        report = check_inner_quadratic(run)
        assert report.passed
        assert report.checked_pairs > 0

    def test_s_is_true_augmented_subgradient(self, logistic_ref):
        # recompute h'(z_{t+1}) = grad f + 2 M g_k B (z - x_k) at the accepted
        # inner point and compare with the recorded residual
        res = solve_dual(
            logistic_ref, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8)
        )
        metric = logistic_ref.metric
        x_prev = np.zeros(20)
        for row in res.trace:
            weight = res.qsc_used * row.g_k
            direct = logistic_ref.gradient(row.x_next) + 2 * weight * metric.apply(
                row.x_next - x_prev
            )
            assert abs(metric.dual_norm(direct) - row.inner_residuals[-1]) <= 1e-9 * (
                1.0 + row.inner_residuals[-1]
            )
            x_prev = row.x_next


def test_trace_csv_long_format(tmp_path, logistic_ref):
    res = solve_dual(
        logistic_ref, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-6)
    )
    path = tmp_path / "dual.csv"
    write_trace(res.trace, path, DualTraceRow)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,t,s_norm,threshold,g_k,a_next,g_next,F_next"
    assert len(lines) == 1 + res.total_inner
