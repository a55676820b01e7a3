"""Inexact Hessian-free steps against the paper's checks.

Above `composite._CG_MIN_DIM` a step's CG solve stops at Eisenstat and
Walker's forcing term, up to `composite._FORCING_MAX`, so each step
minimizes its model only approximately.  The paper's guarantees are stated
for the exact step, so the solves here must still pass the checks the
acceptance suite runs on small instances, none of which takes a
Hessian-free step: the primal's per-step inequalities, the dual's inner
quadratic contraction and potential bound, and the accelerated scheme's
potential and rate.  The subgradient a CG step selects is the oracle's,
so the trace's g is the true norm, which is what keeps those checks
honest: the model's subgradient g(x+) + r would hide the CG residual r.
Each check is shown to catch a planted mutation: the model's subgradient,
and a fixed forcing term of 1e-1.
"""

import dataclasses

import numpy as np
import pytest

from qscnewton import (
    CompositeTerm,
    DualConfig,
    PrimalConfig,
    StepState,
    generate_synthetic,
    newton_step,
    run_solve,
    selected_subgradient,
    solve_dual,
    solve_primal,
)
from qscnewton import composite, dual, primal

ZERO = CompositeTerm.zero()
N, M = 50, 200  # at the size where steps turn Hessian-free
KINDS = ("logistic", "exponential", "softmax")
CHECKS = {
    "primal": ("per_step",),
    "dual": ("inner_quadratic", "dual_guarantee"),
    "accelerated": ("accel_potential", "accel_rate"),
}


def _config(kind, solver):
    return {
        "schema_version": 1,
        "problem": {"kind": kind, "n": N, "m": M, "seed": 1},
        "solver": {"name": solver},
        "verify": {flag: True for flag in CHECKS[solver]},
    }


def _failed_checks(report) -> list[str]:
    return [flag for flag, entry in report["verification"].items() if not entry["passed"]]


@pytest.mark.parametrize("solver", list(CHECKS))
@pytest.mark.parametrize("kind", KINDS)
def test_inexact_steps_pass_the_paper_checks(tmp_path, kind, solver):
    report = run_solve(_config(kind, solver), tmp_path)
    assert report["success"] and _failed_checks(report) == []
    # the steps ran on products
    assert report["oracle_calls"]["hessian_vector"] > 0


def _oracle_gaps(monkeypatch, kind, solver, step=newton_step) -> list[float]:
    """How far each g the trace records (the primal's g, the dual's inner
    residuals) sits from ||g(x+) + psi.quad_gradient(x+)||_* recomputed from
    the oracle at the step's x+, as a fraction of the norms of g(x) and of
    psi's quadratic gradient at the step's origin: a dense step's model
    subgradient cancels terms of that size, and rounds off relative to them."""
    module = primal if solver == "primal" else dual
    recomputed = []

    def recording(oracle, psi, state, beta, **kwargs):
        result = step(oracle, psi, state, beta, **kwargs)
        metric = oracle.metric
        x_plus = result.state.x
        true = metric.dual_norm(oracle.gradient(x_plus) + psi.quad_gradient(x_plus, metric))
        scale = metric.dual_norm(state.grad) + metric.dual_norm(psi.quad_gradient(state.x, metric))
        recomputed.append((true, scale))
        return result

    monkeypatch.setattr(module, "newton_step", recording)
    oracle = generate_synthetic(kind, n=N, m=M, seed=1, smoothing=1.0)
    x0 = np.zeros(N)
    if solver == "primal":
        trace = solve_primal(oracle, ZERO, x0, PrimalConfig(sigma=oracle.qsc_constant, grad_tol=1e-8)).trace
        traced = [row.grad_norm for row in trace[1:]]
    else:
        trace = solve_dual(oracle, ZERO, x0, DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=1e-8)).trace
        traced = [s for row in trace for s in row.inner_residuals]
    assert len(traced) == len(recomputed)  # no step was retried
    return [abs(g - true) / origin for g, (true, origin) in zip(traced, recomputed)]


def _model_subgradient_step(oracle, psi, state, beta, **kwargs):
    """Planted mutation: the step's subgradient taken from its model,
    g(x+) - g(x) - (H(x) + beta B)(x+ - x), which carries the CG residual."""
    step = newton_step(oracle, psi, state, beta, **kwargs)
    model = selected_subgradient(oracle, state.x, step.state.x, beta, grad=state.grad, grad_plus=step.state.grad)
    return dataclasses.replace(step, subgradient=model)


@pytest.mark.parametrize("solver", ["primal", "dual"])
@pytest.mark.parametrize("kind", KINDS)
def test_the_trace_g_is_the_oracle_gradient_norm(monkeypatch, kind, solver):
    # a CG step's g is the recomputed one, bit for bit; a dense step's
    # carries its solve's residual and roundoff, at most 1.1e-13 here, below
    # the CG floor that the planted model subgradient exceeds by 1e5 or more
    assert max(_oracle_gaps(monkeypatch, kind, solver)) <= composite._CG_TOL
    planted = _oracle_gaps(monkeypatch, kind, solver, step=_model_subgradient_step)
    assert not max(planted) <= composite._CG_TOL


# where a fixed loose forcing term fails a check at n = 50, m = 200, seed 1:
# every dual's inner contraction, and the exponential and soft-max primals'
# progress inequality (the logistic primal passes it)
LOOSE_CASES = [(kind, "dual") for kind in KINDS] + [("exponential", "primal"), ("softmax", "primal")]


@pytest.mark.parametrize("kind, solver", LOOSE_CASES)
def test_a_fixed_loose_forcing_term_is_caught(tmp_path, monkeypatch, kind, solver):
    monkeypatch.setattr(composite, "_forcing_term", lambda rhs_norm, previous: 1e-1)
    report = run_solve(_config(kind, solver), tmp_path)
    assert CHECKS[solver][0] in _failed_checks(report)


def test_the_forcing_term():
    term = composite._forcing_term
    assert term(1.0, np.inf) == composite._CG_TOL  # no earlier right-hand side
    assert term(1.0, 0.0) == composite._FORCING_MAX
    assert term(1.0, 1.0) == composite._FORCING_MAX  # stalled: the cap
    assert term(1e-3, 1.0) == composite._FORCING_GAMMA * 1e-6
    assert term(1e-9, 1.0) == composite._CG_TOL  # converging fast: the floor


def test_steps_hand_on_their_right_hand_side_norm_only_where_cg_can_follow():
    oracle = generate_synthetic("logistic", n=N, m=M, seed=1)
    x = 0.1 * np.random.default_rng(2).standard_normal(N)
    state = StepState.at(oracle, x)
    assert state.rhs_norm == np.inf
    step = newton_step(oracle, ZERO, state, 0.5)
    assert step.state.rhs_norm == np.linalg.norm(state.grad)
    assert newton_step(oracle, ZERO, state, 0.5, hess=oracle.hessian(x)).state.rhs_norm == np.inf
    box = CompositeTerm.box(-np.ones(N), np.ones(N))
    assert newton_step(oracle, box, state, 0.5).state.rhs_norm == np.inf
