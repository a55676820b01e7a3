"""Metamorphic tests: invariances the methods have by construction.

Every solver states its parameters in the metric and in ||F'||_*, so

- f -> c f (c > 0) leaves the iterates unchanged: g, H and beta = sigma g all
  scale by c, the qsc constant does not, and each step solves the same
  system times c;
- f(x) -> f(Ax) with the induced metric A'BA maps iterates u_k to x_k = A u_k
  (zero composite only: a box is not mapped to a box);
- permuting the rows of a design matrix leaves f and its Gram metric B
  unchanged, so it leaves the iterates unchanged up to summation order.

The accelerated scheme has both maps too.  Under f -> c f with F* scaled
and R fixed, gamma = (M R)^{-2/3} is unchanged, A_0 = c0^2 R^2 / (2 gap_0)
scales by 1/c, so every contracted subproblem A_{k+1} f(...) is the same
function and every inner dual solve makes the same decisions; the gap test
compares c gap with c rel_accuracy gap_0.  Under f(Ax) the distance bound,
the dual norms of nu_k and the prox term are all metric quantities.

Iterates are compared over the common prefix of the two traces.  The
primal's stopping tolerance is scaled with c, so both runs have the same
length; the dual's nu is held fixed, because its inner rule
||s|| <= 2 M g_k nu / (k+1)^2 multiplies nu by g_k, and only a fixed nu keeps
that rule scaling with c.

The certifier has the same invariance under f -> c f.  With c = 4^k every
product with c is exact, so the qsc check's violations scale by exactly c,
and Hessian stability, a statement about the pencil (H(y) + dI, H(x) + dI)
with d = 1e-12 max(max|H|, 1), gives bitwise the same margin wherever max|H|
is at least 1 at both scales: there the shift scales with H.

Two roundoff guards in the solvers are absolute, so not scale invariant:
the adaptive progress test's slack 1e-12 (1 + |rhs|) and the dual's
threshold floor 1e-14 (1 + g).  NU = 1e-5 stops these runs before either
one decides; the strict xfail below shows the adaptive search parting once
its slack does.
"""

import numpy as np
import pytest

from qscnewton import (
    AccelConfig,
    AccelStatus,
    CompositeTerm,
    DualConfig,
    DualStatus,
    PrimalConfig,
    PrimalStatus,
    SeparableObjective,
    SoftMaxObjective,
    check_hessian_stability,
    compute_reference,
    generate_synthetic,
    solve_accelerated,
    solve_dual,
    solve_primal,
)
from qscnewton.harness import sample_pairs
from qscnewton.oracles import _qsc_violations, affine_substitute, scale_oracle
from qscnewton.problems import KINDS

NU = 1e-5
# a step is a backward-stable Cholesky solve plus O(n) vector updates, so
# the two runs differ by a few units of roundoff (eps = 2.2e-16) per
# iterate; the worst seen on these runs is 3.2e-16.  1e-13 is about 450 eps.
ROUNDOFF = 1e-13

PROBLEMS = {
    "logistic": lambda: generate_synthetic("logistic", n=10, m=80, seed=3),
    "matrix_scaling": lambda: generate_synthetic("matrix_scaling", n=6, seed=5),
}
SOLVERS = ("primal", "adaptive", "dual")


def _solve(solver, oracle, psi, x0, c=1.0):
    if solver == "dual":
        res = solve_dual(oracle, psi, x0, DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=NU))
        assert res.status is DualStatus.GRAD_TOL_REACHED
        return [res.x0] + [row.x_next for row in res.trace]
    config = PrimalConfig(adaptive=solver == "adaptive", grad_tol=c * NU)
    res = solve_primal(oracle, psi, x0, config)
    assert res.status is PrimalStatus.GRAD_TOL_REACHED
    return [row.x for row in res.trace]


def _assert_same_iterates(expected, got):
    prefix = min(len(expected), len(got))
    assert prefix >= 5
    for k, (x, y) in enumerate(zip(expected[:prefix], got[:prefix])):
        assert np.linalg.norm(x - y) <= ROUNDOFF * (1.0 + np.linalg.norm(x)), k


def _start(oracle):
    return np.random.default_rng(1).uniform(-0.5, 0.5, oracle.dim)


def _transform(n):
    return np.eye(n) + 0.3 * np.random.default_rng(2).standard_normal((n, n)) / np.sqrt(n)


@pytest.mark.parametrize("c", [1e-3, 1e4])
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_scaling_f_leaves_iterates_unchanged(problem, solver, c):
    oracle = PROBLEMS[problem]()
    x0 = _start(oracle)
    _assert_same_iterates(
        _solve(solver, oracle, CompositeTerm.zero(), x0),
        _solve(solver, scale_oracle(oracle, c), CompositeTerm.zero(), x0, c),
    )


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_scaling_f_leaves_box_iterates_unchanged(problem, solver):
    oracle = PROBLEMS[problem]()
    box = CompositeTerm.box(np.full(oracle.dim, -0.3), np.full(oracle.dim, 0.3))
    x0 = np.clip(_start(oracle), -0.3, 0.3)
    _assert_same_iterates(
        _solve(solver, oracle, box, x0),
        _solve(solver, scale_oracle(oracle, 1e4), box, x0, 1e4),
    )


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_affine_substitution_maps_iterates(problem, solver):
    oracle = PROBLEMS[problem]()
    a = _transform(oracle.dim)
    x0 = _start(oracle)
    substituted = _solve(solver, affine_substitute(oracle, a), CompositeTerm.zero(), np.linalg.solve(a, x0))
    _assert_same_iterates(_solve(solver, oracle, CompositeTerm.zero(), x0), [a @ u for u in substituted])


def _design_objective(kind, rows, offsets):
    if kind == "softmax":
        return SoftMaxObjective(rows, offsets, smoothing=0.5)
    return SeparableObjective(rows, offsets, kind)


@pytest.mark.parametrize("composite", ["zero", "box"])
@pytest.mark.parametrize("kind", ["logistic", "exponential", "softmax"])
def test_permuting_design_rows_leaves_iterates_unchanged(kind, composite):
    # primal sigma = M; the permuted oracle sums its terms and its Gram
    # metric in another order, which a backward-stable step turns into
    # roundoff per iterate (ROUNDOFF), and it must stop at the same k
    rng = np.random.default_rng(6)
    rows, offsets = rng.standard_normal((80, 10)), 0.5 * rng.standard_normal(80)
    perm = rng.permutation(80)
    psi = CompositeTerm.zero() if composite == "zero" else CompositeTerm.box(np.full(10, -0.3), np.full(10, 0.3))
    x0 = psi.project(_start(_design_objective(kind, rows, offsets)))
    expected = _solve("primal", _design_objective(kind, rows, offsets), psi, x0)
    got = _solve("primal", _design_objective(kind, rows[perm], offsets[perm]), psi, x0)
    assert len(got) == len(expected)
    _assert_same_iterates(expected, got)


ACCEL_ACCURACY = 1e-6


def _accelerated(oracle, x0, f_star, distance_bound):
    config = AccelConfig(distance_bound=distance_bound, f_star_ref=f_star, rel_accuracy=ACCEL_ACCURACY)
    res = solve_accelerated(oracle, CompositeTerm.zero(), x0, config)
    assert res.status is AccelStatus.TARGET_GAP_REACHED
    return res


def _accel_instance(problem):
    """An instance, x0, F* and the rule's R = max(||x0 - x*||, 2^{3/2}/M)."""
    oracle = PROBLEMS[problem]()
    x0 = _start(oracle)
    reference = compute_reference(oracle, CompositeTerm.zero(), x0)
    r = max(oracle.metric.primal_norm(x0 - reference.x), 2.0**1.5 / oracle.qsc_constant)
    return oracle, x0, reference.f_value, r


def _assert_same_accelerated(expected, got, f_scale=1.0, to_x=lambda u: u):
    """The same decisions (outer and inner counts), the iterates x_k, v_k
    and the metric step v_step_sq within roundoff, and F (over f_scale)
    within the gap the scheme's own stop resolves, rel_accuracy gap_0."""
    assert got.outer_iterations == expected.outer_iterations >= 5
    counts = [(row.dual_outer, row.dual_inner_total) for row in expected.trace]
    assert [(row.dual_outer, row.dual_inner_total) for row in got.trace] == counts
    gap0 = expected.trace[0].f_value - expected.f_star_ref
    for k, (row, other) in enumerate(zip(expected.trace, got.trace)):
        for attr in ("x", "v"):
            x, y = getattr(row, attr), to_x(getattr(other, attr))
            assert np.linalg.norm(x - y) <= ROUNDOFF * (1.0 + np.linalg.norm(x)), (k, attr)
        assert abs(other.v_step_sq - row.v_step_sq) <= ROUNDOFF * (1.0 + row.v_step_sq), k
        assert abs(other.f_value / f_scale - row.f_value) <= ACCEL_ACCURACY * gap0, k


@pytest.mark.parametrize("c", [1e-3, 1e4])
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_accelerated_scaling_f_leaves_iterates_unchanged(problem, c):
    oracle, x0, f_star, r = _accel_instance(problem)
    _assert_same_accelerated(
        _accelerated(oracle, x0, f_star, r),
        _accelerated(scale_oracle(oracle, c), x0, c * f_star, r),
        f_scale=c,
    )


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_accelerated_affine_substitution_maps_iterates(problem):
    oracle, x0, f_star, r = _accel_instance(problem)
    a = _transform(oracle.dim)
    _assert_same_accelerated(
        _accelerated(oracle, x0, f_star, r),
        _accelerated(affine_substitute(oracle, a), np.linalg.solve(a, x0), f_star, r),
        to_x=lambda u: a @ u,
    )


CERTIFIER_SCALES = (4.0**3, 4.0**-3)


def _certifier_instance(kind):
    return generate_synthetic(kind, n=8 if kind.startswith("matrix") else 10, m=60, seed=21)


@pytest.mark.parametrize("kind", KINDS)
def test_scaling_f_scales_qsc_violations_exactly(kind):
    oracle = _certifier_instance(kind)
    rng = np.random.default_rng(22)
    x, u, v = rng.standard_normal((3, 200, oracle.dim))
    v /= np.sqrt(np.sum((v @ oracle.metric.matrix) * v, axis=1))[:, None]
    violation, _ = _qsc_violations(oracle, x, u, v)
    for c in CERTIFIER_SCALES:
        scaled, _ = _qsc_violations(scale_oracle(oracle, c), x, u, v)
        assert np.array_equal(scaled, c * violation), c


def test_scaling_f_leaves_hessian_stability_margins_unchanged():
    compared = 0
    for kind in KINDS:
        oracle = _certifier_instance(kind)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, y = sample_pairs(oracle, rng, radius=2.0, x_scale=2.0)
            size = max(np.abs(oracle.hessian(x)).max(), np.abs(oracle.hessian(y)).max())
            expected = check_hessian_stability(oracle, x, y)
            for c in CERTIFIER_SCALES:
                if min(size, c * size) >= 1.0:  # the shift's floor of 1 is absolute
                    assert check_hessian_stability(scale_oracle(oracle, c), x, y) == expected, (kind, c)
                    compared += 1
    assert compared >= 40


@pytest.mark.xfail(strict=True, reason="the progress test's absolute slack 1e-12 decides once c*g is tiny")
def test_adaptive_search_stays_invariant_to_full_accuracy():
    # at c = 1e-3 the scaled run accepts sigma = 0.125 at k = 32, where the
    # unscaled run doubles to 0.25; the iterates then part by about 0.2
    oracle = PROBLEMS["matrix_scaling"]()
    x0 = _start(oracle)
    config = PrimalConfig(adaptive=True, grad_tol=1e-9)
    scaled = PrimalConfig(adaptive=True, grad_tol=1e-3 * 1e-9)
    _assert_same_iterates(
        [row.x for row in solve_primal(oracle, CompositeTerm.zero(), x0, config).trace],
        [row.x for row in solve_primal(scale_oracle(oracle, 1e-3), CompositeTerm.zero(), x0, scaled).trace],
    )
