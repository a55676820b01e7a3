"""One verdict rule for every trace check: the worst margin decides, NaN fails.

Each trace check turns its inequalities into margins (the slack each one
leaves) and hands them to `verdict`.  The planted cases take a real trace,
put a NaN into one row, and require the check to fail on it.
"""

import copy
import math

import numpy as np
import pytest

from qscnewton import (
    AccelConfig,
    CompositeTerm,
    DualConfig,
    PrimalConfig,
    check_inner_quadratic,
    check_local_quadratic,
    check_primal_rate_envelope,
    check_primal_trace,
    compute_reference,
    generate_synthetic,
    solve_accelerated,
    solve_dual,
    solve_primal,
    verify_accel_potential,
    verify_accel_rate,
    verify_dual_rate,
)
from qscnewton.oracles import verdict

ZERO = CompositeTerm.zero()


@pytest.mark.parametrize(
    "margins, passed, worst",
    [
        ([], True, math.inf),
        ([-0.0], True, 0.0),
        ([2.0, 0.5, 1.0], True, 0.5),
        ([2.0, -1e-300], False, -1e-300),
        ([math.nan], False, math.nan),
        ([1.0, math.nan, 2.0], False, math.nan),
        ([math.nan, -1.0], False, math.nan),
        ([math.inf, math.nan], False, math.nan),
    ],
)
def test_verdict(margins, passed, worst):
    got_passed, got_worst = verdict(margins)
    assert got_passed is passed
    assert got_worst == worst or (math.isnan(worst) and math.isnan(got_worst))


@pytest.fixture(scope="module")
def runs():
    """A reference and one run of each solver on a small logistic instance."""
    oracle = generate_synthetic("logistic", n=6, m=40, seed=2)
    x0 = np.zeros(6)
    ref = compute_reference(oracle, ZERO, x0)
    primal = solve_primal(oracle, ZERO, x0, PrimalConfig(grad_tol=1e-10, record_diagnostics=True))
    dual = solve_dual(oracle, ZERO, x0, DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=1e-10))
    accel = solve_accelerated(
        oracle,
        ZERO,
        x0,
        AccelConfig(distance_bound=2.0 * np.linalg.norm(ref.x) + 3.0, f_star_ref=ref.f_value, rel_accuracy=1e-8),
    )
    return {"oracle": oracle, "ref": ref, "primal": primal, "dual": dual, "accelerated": accel}


def _entry(trace, oracle):
    return check_local_quadratic(trace, oracle.qsc_constant).entry_index


def _set(row, name, value):
    setattr(row, name, value)


# check name -> (run, plant a NaN into the run, the check's verdict on it)
PLANTED = {
    "per_step": (
        "primal",
        lambda run, oracle: _set(run.trace[1], "f_value", math.nan),
        lambda run, oracle, ref: check_primal_trace(run.trace).passed,
    ),
    "rate_envelope": (
        "primal",
        lambda run, oracle: _set(run.trace[2], "f_value", math.nan),
        lambda run, oracle, ref: check_primal_rate_envelope(
            run.trace, ref.f_value, run.trace[0].grad_norm, oracle.qsc_constant, 1.0
        ).holds,
    ),
    "local_quadratic": (
        "primal",
        lambda run, oracle: _set(run.trace[_entry(run.trace, oracle) + 1], "eta", math.nan),
        lambda run, oracle, ref: check_local_quadratic(run.trace, oracle.qsc_constant).passed,
    ),
    "dual_rate": (
        "dual",
        lambda run, oracle: _set(run.trace[1], "g_next", math.nan),
        lambda run, oracle, ref: verify_dual_rate(run, ref.x).passed,
    ),
    "inner_quadratic": (
        "dual",
        lambda run, oracle: _set(run.trace[0], "inner_residuals", (math.nan,) + run.trace[0].inner_residuals[1:]),
        lambda run, oracle, ref: check_inner_quadratic(run).passed,
    ),
    "accel_potential": (
        "accelerated",
        lambda run, oracle: _set(run.trace[1], "f_value", math.nan),
        lambda run, oracle, ref: verify_accel_potential(run, ref.x, ref.f_value).passed,
    ),
    "accel_potential_rule": (
        "accelerated",
        lambda run, oracle: _set(run.trace[1], "f_value", math.nan),
        lambda run, oracle, ref: verify_accel_potential(run, ref.x, ref.f_value).rule_passed,
    ),
    "accel_rate": (
        "accelerated",
        lambda run, oracle: _set(run.trace[1], "f_value", math.nan),
        lambda run, oracle, ref: verify_accel_rate(run, ref.f_value, ref.x).passed,
    ),
    "accel_rate_bounded_v": (
        "accelerated",
        lambda run, oracle: _set(run.trace[1], "v", np.full(6, math.nan)),
        lambda run, oracle, ref: verify_accel_rate(run, ref.f_value, ref.x).bounded_v_passed,
    ),
    "accel_rate_bounded_x": (
        "accelerated",
        lambda run, oracle: _set(run.trace[1], "x", np.full(6, math.nan)),
        lambda run, oracle, ref: verify_accel_rate(run, ref.f_value, ref.x).bounded_x_passed,
    ),
}


@pytest.mark.parametrize("check", list(PLANTED))
def test_a_planted_nan_margin_fails(runs, check):
    name, plant, passed = PLANTED[check]
    oracle, ref = runs["oracle"], runs["ref"]
    run = runs[name]
    assert passed(run, oracle, ref)  # the real trace passes
    planted = copy.deepcopy(run)
    plant(planted, oracle)
    assert not passed(planted, oracle, ref)
