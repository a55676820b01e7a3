"""Acceptance suite: the library's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and then asserts.  Instances and reference
solutions are shared through session-scoped fixtures, so the whole module
reflects one coherent experiment.
"""

import math
import time

import numpy as np
import pytest

from qscnewton import (
    AccelConfig,
    CompositeTerm,
    DualConfig,
    PrimalConfig,
    PrimalStatus,
    QuadraticObjective,
    StepState,
    add_oracles,
    check_function_bounds,
    check_gradient_bound,
    check_hessian_stability,
    check_local_quadratic,
    check_inner_quadratic,
    check_qsc,
    compute_reference,
    fit_linear_rate,
    generate_synthetic,
    newton_step,
    observed_diameter,
    solve_accelerated,
    solve_dual,
    solve_primal,
    verify_accel_potential,
    verify_accel_rate,
    verify_dual_guarantee,
    verify_dual_rate,
)
from qscnewton.harness import sample_pairs

ZERO = CompositeTerm.zero()


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def acceptance_zoo():
    return {
        "quadratic": generate_synthetic("quadratic", n=10, seed=3),
        "softmax_mu1": generate_synthetic("softmax", n=10, m=30, seed=5, smoothing=1.0),
        "softmax_mu01": generate_synthetic("softmax", n=10, m=30, seed=5, smoothing=0.1),
        "logistic": generate_synthetic("logistic", n=20, m=200, seed=1),
        "exponential": generate_synthetic("exponential", n=10, m=50, seed=7),
        "matrix_scaling": generate_synthetic("matrix_scaling", n=10, seed=11),
        "matrix_balancing": generate_synthetic("matrix_balancing", n=10, seed=13),
    }


@pytest.fixture(scope="session")
def regularized_logistic(acceptance_zoo):
    """Logistic objective plus 0.05 ||x||^2 (metric norm): 0.1-strongly convex."""
    base = acceptance_zoo["logistic"]
    bump = QuadraticObjective(0.1 * base.metric.matrix, np.zeros(20), metric=base.metric)
    return add_oracles(base, bump)


def test_ac1_qsc_certification(acceptance_zoo):
    started = time.perf_counter()
    worst = {}
    for name, oracle in acceptance_zoo.items():
        rep = check_qsc(oracle, seed=0, num_samples=10_000)
        worst[name] = (rep.passed, rep.max_violation, rep.tolerance)
    elapsed = time.perf_counter() - started
    all_ok = all(ok for ok, _, _ in worst.values()) and elapsed <= 60.0
    detail = (
        f"{len(worst)} instances x 10^4 samples in {elapsed:.1f}s; "
        + "; ".join(f"{k}: viol {v:.2e} <= tol {t:.1e}" for k, (_, v, t) in worst.items())
    )
    report("AC1 qsc certification", all_ok, detail)


def test_ac2_smoothness_bounds(acceptance_zoo):
    started = time.perf_counter()
    failures = []
    for name, oracle in acceptance_zoo.items():
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x, y = sample_pairs(oracle, rng, radius=2.0)
            ok1, _ = check_hessian_stability(oracle, x, y)
            ok2, _ = check_gradient_bound(oracle, x, y)
            ok3, _ = check_function_bounds(oracle, x, y)
            if not (ok1 and ok2 and ok3):
                failures.append(name)
                break
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed <= 60.0
    report(
        "AC2 smoothness bounds",
        ok,
        f"10^3 pairs x {len(acceptance_zoo)} instances in {elapsed:.1f}s; failures: {failures or 'none'}",
    )


def test_ac3_per_step_guarantees(acceptance_zoo):
    bad = []
    for name, oracle in acceptance_zoo.items():
        sigma = oracle.qsc_constant
        res = solve_primal(
            oracle,
            ZERO,
            np.zeros(oracle.dim),
            PrimalConfig(sigma=sigma, grad_tol=1e-9, max_iters=2000),
        )
        steps = 0
        for row, nxt in zip(res.trace, res.trace[1:]):
            if math.isnan(row.sigma):
                continue
            steps += 1
            if nxt.f_value > row.f_value + 1e-10:
                bad.append(f"{name}: monotonicity at k={row.k}")
            if row.beta > 0:
                if row.progress < nxt.grad_norm**2 / (2 * row.beta) - 1e-8:
                    bad.append(f"{name}: progress at k={row.k}")
                if row.step_length > row.grad_norm / row.beta + 1e-8:
                    bad.append(f"{name}: step bound at k={row.k}")
            elif nxt.grad_norm > 1e-8 * (1 + res.trace[0].grad_norm):
                bad.append(f"{name}: exact step left a residual at k={row.k}")
        if steps == 0:
            bad.append(f"{name}: no steps recorded")
    report("AC3 per-step guarantees", not bad, f"violations: {bad or 'none'}")


def test_ac4_global_linear_phase(acceptance_zoo):
    oracle = acceptance_zoo["logistic"]
    started = time.perf_counter()
    ref = compute_reference(oracle, ZERO, np.zeros(20))
    res = solve_primal(
        oracle, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-12, max_iters=5000)
    )
    elapsed = time.perf_counter() - started
    gaps = res.f_values - ref.f_value
    gap0 = gaps[0]
    reached = res.status is PrimalStatus.GRAD_TOL_REACHED and gaps[-1] <= 1e-10 * gap0
    fit = fit_linear_rate(res.f_values, ref.f_value)
    diameter = observed_diameter([r.x for r in res.trace], oracle.metric, extra=ref.x)
    bound = 8.0 * oracle.qsc_constant * diameter
    ok = reached and fit.implied_factor <= bound and elapsed <= 10.0
    report(
        "AC4 global linear phase",
        ok,
        f"{res.iterations} iterations, rel gap {gaps[-1] / gap0:.1e}, "
        f"-1/slope {fit.implied_factor:.2f} <= 8*M*D^ {bound:.2f}, {elapsed:.1f}s",
    )


def test_ac5_local_quadratic_burst(regularized_logistic):
    oracle = regularized_logistic
    ref = compute_reference(oracle, ZERO, np.zeros(20))
    res = solve_primal(
        oracle,
        ZERO,
        np.zeros(20),
        PrimalConfig(sigma=1.0, grad_tol=1e-11, record_diagnostics=True),
    )
    gaps = res.f_values - ref.f_value
    floor = 64 * np.finfo(float).eps * (1.0 + abs(ref.f_value))
    usable = gaps[gaps > floor]
    tail = usable[-4:]  # the last 3 measurable contractions
    xs = np.log(tail[:-1])
    ys = np.log(tail[1:])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    lq = check_local_quadratic(res.trace, oracle.qsc_constant)
    ok = len(tail) == 4 and exponent >= 1.9 and lq.entered and lq.passed
    report(
        "AC5 local quadratic burst",
        ok,
        f"doubling exponent {exponent:.2f} (>= 1.9) over gaps "
        + "->".join(f"{g:.1e}" for g in tail)
        + f"; eta contraction entered at k={lq.entry_index}, passed={lq.passed}",
    )


def test_ac6_adaptive_sigma(acceptance_zoo):
    oracle = acceptance_zoo["logistic"]
    res = solve_primal(
        oracle,
        ZERO,
        np.zeros(20),
        PrimalConfig(adaptive=True, sigma0=1e-6, grad_tol=1e-10, max_iters=2000),
    )
    accepted = [row.sigma for row in res.trace if not math.isnan(row.sigma)]
    cap = 2.0 * oracle.qsc_constant
    budget = 2 * res.iterations + 25
    ok = (
        res.status is PrimalStatus.GRAD_TOL_REACHED
        and max(accepted) <= cap
        and res.step_computations <= budget
    )
    report(
        "AC6 adaptive regularization",
        ok,
        f"max accepted sigma {max(accepted):.3g} <= {cap}, "
        f"step computations {res.step_computations} <= {budget}",
    )


def test_ac7_dual_newton(acceptance_zoo):
    oracle = acceptance_zoo["logistic"]
    ref = compute_reference(oracle, ZERO, np.zeros(20))
    res = solve_dual(
        oracle, ZERO, np.zeros(20), DualConfig(qsc_constant=1.0, grad_tol=1e-8, max_outer=500)
    )
    guarantee = verify_dual_guarantee(res, ref.x, ref.f_value)
    rate = verify_dual_rate(res, ref.x, slack_per_outer=2.0)
    inner = check_inner_quadratic(res)
    ok = (
        res.final_grad_norm <= 1e-8
        and guarantee.passed
        and rate.envelope_passed
        and rate.oracle_calls_passed
        and inner.passed
    )
    report(
        "AC7 dual newton",
        ok,
        f"{res.outer_iterations} outer/{res.total_inner} inner; potential "
        f"{guarantee.lhs:.3g} <= {guarantee.rhs:.3g}; envelope ok={rate.envelope_passed}; "
        f"N_k budget ok={rate.oracle_calls_passed}; inner quadratic pairs={inner.checked_pairs}",
    )


def test_ac8_accelerated_and_sweep(acceptance_zoo):
    started = time.perf_counter()
    oracle = acceptance_zoo["logistic"]
    ref = compute_reference(oracle, ZERO, np.zeros(20))
    dist = oracle.metric.primal_norm(np.zeros(20) - ref.x)
    radius = max(dist, 2.0**1.5 / oracle.qsc_constant)
    run = solve_accelerated(
        oracle,
        ZERO,
        np.zeros(20),
        AccelConfig(distance_bound=radius, f_star_ref=ref.f_value, c=1.0, rel_accuracy=1e-8),
    )
    potential = verify_accel_potential(run, ref.x, ref.f_value)
    rate = verify_accel_rate(run, ref.f_value, ref.x)

    # conditioning sweep on the soft maximum: same data, shrinking smoothing
    prim_iters, acc_iters, constants = [], [], []
    for mu in (1.0, 0.1, 0.01):
        o = generate_synthetic("softmax", n=10, m=30, seed=5, smoothing=mu)
        constants.append(o.qsc_constant)
        sweep_ref = compute_reference(o, ZERO, np.zeros(10))
        rng = np.random.default_rng(11)
        direction = rng.standard_normal(10)
        direction /= o.metric.primal_norm(direction)
        x0 = sweep_ref.x + 3.0 * direction
        sweep_radius = max(3.0, 2.0**1.5 / o.qsc_constant)
        prim = solve_primal(
            o,
            ZERO,
            x0,
            PrimalConfig(
                sigma=o.qsc_constant,
                grad_tol=1e-14,
                max_iters=100_000,
                f_star_ref=sweep_ref.f_value,
                rel_accuracy=1e-6,
            ),
        )
        acc = solve_accelerated(
            o,
            ZERO,
            x0,
            AccelConfig(
                distance_bound=sweep_radius,
                f_star_ref=sweep_ref.f_value,
                c=1.0,
                rel_accuracy=1e-6,
                max_outer=5000,
            ),
        )
        assert prim.status is PrimalStatus.TARGET_GAP_REACHED
        assert acc.status.value == "target_gap_reached"
        prim_iters.append(prim.iterations)
        acc_iters.append(acc.outer_iterations)
    log_m = np.log(constants)
    primal_slope = float(np.polyfit(log_m, np.log(prim_iters), 1)[0])
    accel_slope = float(np.polyfit(log_m, np.log(acc_iters), 1)[0])
    elapsed = time.perf_counter() - started
    ok = (
        potential.rule_passed
        and rate.passed
        and rate.bounded_v_passed
        and abs(accel_slope - 2.0 / 3.0) <= 0.25
        and abs(primal_slope - 1.0) <= 0.25
        and elapsed <= 300.0
    )
    report(
        "AC8 accelerated scheme",
        ok,
        f"potential <= (5+c)^2 R^2/2 ok={potential.rule_passed}, rate ok={rate.passed}, "
        f"bounded ok={rate.bounded_v_passed}; sweep iterations primal={prim_iters} "
        f"accel={acc_iters}; slopes primal {primal_slope:.2f} (1 +/- 0.25), "
        f"accel {accel_slope:.2f} (0.67 +/- 0.25); {elapsed:.0f}s",
    )


def test_ac9_box_step_oracle_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n, seed in ((2, 10), (3, 9)):
        oracle = generate_synthetic("logistic", n=n, m=4 * n, seed=seed)
        lower, upper = np.full(n, -0.2), np.full(n, 0.3)
        psi = CompositeTerm.box(lower, upper)
        for _ in range(5):
            x = psi.project(rng.standard_normal(n) * 0.3)
            step = newton_step(oracle, psi, StepState.at(oracle, x), 1.0)
            # independent brute-force minimizer: projected gradient to 1e-12
            h = 0.5 * (oracle.hessian(x) + oracle.hessian(x).T)
            system = h + np.array(oracle.metric.matrix)
            lip = np.linalg.eigvalsh(system).max() * 1.01
            y = x.copy()
            for _ in range(500_000):
                grad = oracle.gradient(x) + system @ (y - x)
                y_next = np.clip(y - grad / lip, lower, upper)
                if lip * np.linalg.norm(y - y_next) < 1e-12:
                    y = y_next
                    break
                y = y_next
            worst = max(worst, oracle.metric.primal_norm(step.state.x - y))
    report("AC9 box-step oracle equivalence", worst <= 1e-8, f"worst deviation {worst:.2e}")
