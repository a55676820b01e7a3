"""Metamorphic tests: invariances the methods have by construction.

Every solver states its parameters in the metric and in ||F'||_*, so

- f -> c f (c > 0) leaves the iterates unchanged: g, H and beta = sigma g all
  scale by c, the qsc constant does not, and each step solves the same
  system times c;
- f(x) -> f(Ax) with the induced metric A'BA maps iterates u_k to x_k = A u_k
  (zero composite only: a box is not mapped to a box).

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
    CompositeTerm,
    DualConfig,
    DualStatus,
    PrimalConfig,
    PrimalStatus,
    check_hessian_stability,
    generate_synthetic,
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
    n = oracle.dim
    a = np.eye(n) + 0.3 * np.random.default_rng(2).standard_normal((n, n)) / np.sqrt(n)
    x0 = _start(oracle)
    substituted = _solve(solver, affine_substitute(oracle, a), CompositeTerm.zero(), np.linalg.solve(a, x0))
    _assert_same_iterates(_solve(solver, oracle, CompositeTerm.zero(), x0), [a @ u for u in substituted])


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
