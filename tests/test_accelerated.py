import math

import numpy as np
import pytest
import scipy.optimize

from qscnewton import accelerated
from qscnewton import (
    AccelConfig,
    AccelStatus,
    CompositeTerm,
    CountingOracle,
    ParameterError,
    compute_reference,
    contract_oracle,
    generate_synthetic,
    run_solve,
    solve_accelerated,
    verify_accel_potential,
    verify_accel_rate,
)

ZERO = CompositeTerm.zero()


@pytest.fixture(scope="module")
def accel_run(logistic_ref, logistic_reference):
    dist = logistic_ref.metric.primal_norm(np.zeros(20) - logistic_reference.x)
    config = AccelConfig(
        distance_bound=max(dist, 2.0**1.5),
        f_star_ref=logistic_reference.f_value,
        rel_accuracy=1e-8,
    )
    return solve_accelerated(logistic_ref, ZERO, np.zeros(20), config)


class TestSolveAccelerated:
    def test_reaches_target(self, accel_run, logistic_reference):
        assert accel_run.status is AccelStatus.TARGET_GAP_REACHED
        gap0 = accel_run.trace[0].f_value - logistic_reference.f_value
        gap = accel_run.trace[-1].f_value - logistic_reference.f_value
        assert gap <= 1e-8 * gap0

    def test_sequence_identity(self, accel_run):
        # A_k (1-gamma)^k = A_0 to relative 1e-12, and A_k >= A_0 e^{k gamma}
        gamma, a0 = accel_run.gamma, accel_run.a0
        for row in accel_run.trace:
            assert row.a_cumulative * (1 - gamma) ** row.k == pytest.approx(a0, rel=1e-12)
            assert row.a_cumulative >= a0 * math.exp(row.k * gamma) * (1 - 1e-12)

    def test_increment_identity(self, accel_run):
        gamma = accel_run.gamma
        for prev, row in zip(accel_run.trace, accel_run.trace[1:]):
            assert row.a_increment == pytest.approx(gamma * row.a_cumulative, rel=1e-12)
            assert row.a_cumulative == pytest.approx(prev.a_cumulative / (1 - gamma), rel=1e-12)

    def test_x_update_is_exact_convex_combination(self, accel_run):
        gamma = accel_run.gamma
        for prev, row in zip(accel_run.trace, accel_run.trace[1:]):
            np.testing.assert_array_equal(row.x, gamma * row.v + (1 - gamma) * prev.x)

    def test_inner_tolerance_certified_by_recomputation(self, accel_run, logistic_ref):
        # ||h'(v_{k+1})||_* <= nu_{k+1}, recomputed from the contracted oracle
        metric = logistic_ref.metric
        for prev, row in zip(accel_run.trace, accel_run.trace[1:]):
            contracted = contract_oracle(
                logistic_ref, accel_run.gamma, prev.x, row.a_cumulative
            )
            h_grad = contracted.gradient(row.v) + metric.apply(row.v - prev.v)
            assert metric.dual_norm(h_grad) <= row.nu + 1e-8

    def test_inner_solution_within_nu_of_exact_minimizer(self, logistic_ref, logistic_reference):
        # 1-strong convexity: ||v_{k+1} - v*|| <= nu, with v* from an
        # independent high-accuracy trust-region solve
        dist = logistic_ref.metric.primal_norm(np.zeros(20) - logistic_reference.x)
        config = AccelConfig(
            distance_bound=max(dist, 2.0**1.5),
            f_star_ref=logistic_reference.f_value,
            rel_accuracy=1e-4,
            max_outer=4,
        )
        run = solve_accelerated(logistic_ref, ZERO, np.zeros(20), config)
        metric = logistic_ref.metric
        bmat = np.array(metric.matrix)
        for prev, row in zip(run.trace, run.trace[1:]):
            contracted = contract_oracle(logistic_ref, run.gamma, prev.x, row.a_cumulative)

            def h_value(z):
                return contracted.value(z) + 0.5 * float((z - prev.v) @ bmat @ (z - prev.v))

            def h_grad(z):
                return contracted.gradient(z) + bmat @ (z - prev.v)

            def h_hess(z):
                return contracted.hessian(z) + bmat

            sol = scipy.optimize.minimize(
                h_value, row.v, jac=h_grad, hess=h_hess, method="trust-exact",
                options={"gtol": 1e-12},
            )
            assert metric.primal_norm(row.v - sol.x) <= row.nu + 1e-8

    def test_already_converged(self, logistic_ref, logistic_reference):
        config = AccelConfig(distance_bound=4.0, f_star_ref=logistic_reference.f_value)
        run = solve_accelerated(logistic_ref, ZERO, logistic_reference.x, config)
        assert run.status is AccelStatus.ALREADY_CONVERGED

    def test_already_converged_passes_its_checks_with_no_step_checked(self, tmp_path):
        # a box that pins x0 at F*: the A_0 rule is undefined (NaN), no step
        # is taken, and the potential check has nothing to check
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 1, "m": 4, "seed": 1},
            "composite": {"kind": "box", "lower": -1e-9, "upper": 0.0},
            "solver": {"name": "accelerated"},
            "verify": {"accel_potential": True, "accel_rate": True},
        }
        report = run_solve(config, tmp_path)
        assert report["status"] == "already_converged" and report["a0"] == "nan"
        potential = report["verification"]["accel_potential"]
        assert potential["passed"] and potential["rule_passed"] and potential["worst_slack"] == "inf"
        assert math.isfinite(potential["rhs"])
        assert report["verification"]["accel_rate"]["passed"]

    def test_strict_mode_rejects_small_distance_bound(self, logistic_ref, logistic_reference):
        config = AccelConfig(
            distance_bound=0.5, f_star_ref=logistic_reference.f_value, strict=True
        )
        with pytest.raises(ParameterError, match=r"below 2\^\(3/2\)/M"):
            solve_accelerated(logistic_ref, ZERO, np.zeros(20), config)

    def test_non_strict_mode_keeps_the_small_distance_bound_message(self, logistic_ref, logistic_reference):
        config = AccelConfig(distance_bound=0.5, f_star_ref=logistic_reference.f_value, max_outer=2)
        run = solve_accelerated(logistic_ref, ZERO, np.zeros(20), config)
        assert "R=0.5 is below 2^(3/2)/M=2.82843" in run.parameter_warning

    def test_no_message_when_the_rules_hold(self, accel_run):
        assert accel_run.parameter_warning is None

    def test_each_iterate_is_valued_once(self, monkeypatch, logistic_ref, logistic_reference):
        # the inner solves get an uncounted oracle, so the counter sees the
        # outer loop alone: F(x_0), ..., F(x_K), one call each
        original = accelerated.contract_oracle
        monkeypatch.setattr(accelerated, "contract_oracle", lambda _, *args: original(logistic_ref, *args))
        counting = CountingOracle(logistic_ref)
        config = AccelConfig(distance_bound=4.0, f_star_ref=logistic_reference.f_value, rel_accuracy=1e-6)
        run = solve_accelerated(counting, ZERO, np.zeros(20), config)
        assert run.status is AccelStatus.TARGET_GAP_REACHED
        assert counting.calls["value"] == len(run.trace) > 2
        assert [row.f_value for row in run.trace] == [logistic_ref.value(row.x) for row in run.trace]

    def test_quadratic_clamps_gamma(self):
        o = generate_synthetic("quadratic", n=5, seed=4)
        ref = compute_reference(o, ZERO, np.zeros(5))
        config = AccelConfig(distance_bound=5.0, f_star_ref=ref.f_value, rel_accuracy=1e-8)
        run = solve_accelerated(o, ZERO, np.ones(5), config)
        assert run.gamma == 0.5
        assert run.gamma_clamped
        assert run.status is AccelStatus.TARGET_GAP_REACHED

    def test_box_composite_feasibility_preserved(self):
        o = generate_synthetic("logistic", n=3, m=12, seed=9)
        psi = CompositeTerm.box(np.full(3, -0.05), np.full(3, 0.05))
        ref = compute_reference(o, psi, np.zeros(3))
        dist = o.metric.primal_norm(np.zeros(3) - ref.x)
        config = AccelConfig(
            distance_bound=max(dist, 2.0**1.5),
            f_star_ref=ref.f_value,
            rel_accuracy=1e-5,
            max_outer=100,
        )
        run = solve_accelerated(o, psi, np.zeros(3), config)
        assert run.status is AccelStatus.TARGET_GAP_REACHED
        for row in run.trace:
            assert psi.contains(row.x)
            assert psi.contains(row.v)


class TestAccelVerifiers:
    def test_potential_inequality(self, accel_run, logistic_reference):
        report = verify_accel_potential(
            accel_run, logistic_reference.x, logistic_reference.f_value
        )
        assert report.passed
        assert report.rule_passed  # parameters were set by the rules

    def test_potential_at_k_zero_reduces_to_distance(self, accel_run, logistic_reference):
        report = verify_accel_potential(
            accel_run, logistic_reference.x, logistic_reference.f_value
        )
        # RHS dominates the k=0 term 1/2 ||x0 - x*||^2 by construction
        metric = accel_run.metric
        half_dist0 = 0.5 * metric.primal_norm(accel_run.trace[0].x - logistic_reference.x) ** 2
        assert half_dist0 <= report.rhs

    def test_rate_envelope(self, accel_run, logistic_reference):
        report = verify_accel_rate(accel_run, logistic_reference.f_value, logistic_reference.x)
        assert report.passed
        assert report.bounded_v_passed
        assert report.bounded_x_passed

    def test_rate_prefactor_at_k_zero_exceeds_one(self, accel_run):
        assert (1.0 + 5.0 / accel_run.c) ** 2 >= 1.0

    def test_outer_iteration_bound(self, accel_run, logistic_ref):
        # explicit form of the communicated complexity: iterations to reach
        # rel accuracy eps are at most ceil((MR)^{2/3} ln((1+5/c)^2/eps)) + 2
        m = logistic_ref.qsc_constant
        r = accel_run.distance_bound
        eps = 1e-8
        bound = math.ceil((m * r) ** (2.0 / 3.0) * math.log((1 + 5 / accel_run.c) ** 2 / eps)) + 2
        assert accel_run.outer_iterations <= bound
