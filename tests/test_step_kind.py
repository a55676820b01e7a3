"""The step kind and the CG give-up, from the oracle's declared costs.

`composite.hessian_free_pays` makes a step Hessian-free where products
cost less than a Hessian and a dense step, a Hessian and its Cholesky
factorization, costs more than `composite._CG_TYPICAL_PRODUCTS` CG
products.  `composite._cg_budget` is what that dense step costs in
products, at most `composite._CG_MAX_BUDGET`, and a CG solve gives up where
the products it still needs, at its last product's rate, exceed it.  Both
read `SmoothOracle.costs`.  The kinds below are those of the benchmark's
cells, which the rule must keep: dense where the fixed size constant it
replaced was measured to win, Hessian-free where CG was.
"""

import numpy as np
import pytest

from qscnewton import CompositeTerm, CountingOracle, DualConfig, composite, generate_synthetic, solve_dual
from qscnewton.harness import build_problem

# (family, n, m, smoothing): the cells' instances and the kind they get
HESSIAN_FREE = [
    ("logistic", 100, 2000, None),  # gram-tall
    ("softmax", 100, 2000, 1.0),  # gram-tall
    ("logistic", 100, 1000, None),  # box-accel-cli's box logistic
    ("logistic", 64, 640, None),  # the console-script solves of CI
    ("softmax", 64, 640, 0.3),
]
DENSE = [
    ("softmax", 30, 300, 1.0),  # box-accel-cli's accelerated soft-max, mu 1, 0.3 and 0.1
    ("softmax", 30, 300, 0.1),
    ("matrix_scaling", 100, None, None),  # box-accel-cli's box scaling (200 variables)
    ("matrix_scaling", 20, None, None),  # certify's matrix families and quadratic
    ("matrix_balancing", 30, None, None),
    ("quadratic", 30, None, None),
    ("matrix_balancing", 300, None, None),  # products no cheaper than a Hessian, at any size
    ("quadratic", 300, None, None),
]


def _oracle(kind, n, m, smoothing):
    knobs = {} if m is None else {"m": m}
    if smoothing is not None:
        knobs["smoothing"] = smoothing
    return CountingOracle(generate_synthetic(kind, n=n, seed=1, **knobs))


@pytest.mark.parametrize("cell", HESSIAN_FREE)
def test_the_cells_with_cheap_products_take_hessian_free_steps(cell):
    assert composite.hessian_free_pays(_oracle(*cell))


@pytest.mark.parametrize("cell", DENSE)
def test_the_other_cells_take_dense_steps(cell):
    assert not composite.hessian_free_pays(_oracle(*cell))


def test_a_sum_with_a_stored_quadratic_keeps_the_familys_kind():
    # the one sum the harness builds, for quad_regularization
    config = {"kind": "logistic", "n": 64, "m": 640, "seed": 3, "quad_regularization": 0.1}
    assert composite.hessian_free_pays(build_problem(config))
    assert not composite.hessian_free_pays(build_problem({**config, "n": 30, "m": 300}))


@pytest.mark.parametrize("cell", HESSIAN_FREE)
def test_the_budget_is_what_the_dense_step_costs(cell):
    oracle = _oracle(*cell)
    dense, product = composite._step_costs(oracle.costs, oracle.dim)
    budget = composite._cg_budget(oracle)
    if budget < composite._CG_MAX_BUDGET:
        assert (budget - 1) * product < dense <= budget * product
    else:
        assert dense > (budget - 1) * product
    # the typical solve fits in the budget wherever steps are Hessian-free
    assert budget > composite._CG_TYPICAL_PRODUCTS


def test_gram_tall_and_the_large_designs_hit_the_cap():
    # the flop counts give 17 products at n = 100, m = 2000 and 44 at
    # n = 200, m = 4000, where a dense step took 9.6 and 7.8
    for n, m in ((100, 2000), (200, 4000)):
        assert composite._cg_budget(_oracle("softmax", n, m, 0.3)) == composite._CG_MAX_BUDGET
    assert composite._cg_budget(_oracle("softmax", 64, 640, 0.3)) == 6


def _counted(system):
    products = []

    def operator(u):
        products.append(None)
        return system @ u

    return operator, products


def test_cg_gives_up_where_the_products_still_needed_exceed_its_budget():
    # unpreconditioned CG on the spectrum 1..10: at the second product's
    # rate it needs about 55 more to reach 1e-12, so it gives up there
    # unless its budget is larger; with 60 it finishes in 10
    system = np.diag(np.arange(1.0, 11.0))
    for budget, solves, made in ((3, False, 2), (50, False, 2), (60, True, 10)):
        operator, products = _counted(system)
        solved = composite._preconditioned_cg(operator, np.eye(10), np.ones(10), 1e-12, budget)
        assert (solved is not None, len(products)) == (solves, made)
    np.testing.assert_allclose(solved[0], 1.0 / np.arange(1.0, 11.0), rtol=1e-10)


def test_a_solve_near_its_end_finishes_past_its_budget():
    # preconditioned by the inverse of a system within 2% of it, CG gains
    # three decades a product: at the second it needs 5.2 more, so it goes
    # on with a budget of 6, and finishes in 8 products, past the budget
    rng = np.random.default_rng(4)
    system = np.diag(np.arange(1.0, 41.0))
    inverse = np.diag(1.0 / (np.arange(1.0, 41.0) * (1.0 + 0.02 * rng.standard_normal(40))))
    for budget, made in ((5, 2), (6, 8)):
        operator, products = _counted(system)
        solved = composite._preconditioned_cg(operator, inverse, np.ones(40), 1e-12, budget)
        assert len(products) == made
    np.testing.assert_allclose(solved[0], 1.0 / np.arange(1.0, 41.0), rtol=1e-10)


@pytest.mark.parametrize("budget", [2, 3, 5, 8])
def test_a_solve_never_takes_more_than_twice_its_budget(budget):
    # a give-up after `budget` products and its dense step cost 2 budget
    rng = np.random.default_rng(budget)
    for _ in range(20):
        root = rng.standard_normal((30, 30))
        system = root @ root.T + 0.1 * np.eye(30)
        nearby = system + 0.5 * np.diag(rng.random(30)) @ system
        operator, products = _counted(system)
        composite._preconditioned_cg(operator, np.linalg.inv(nearby), rng.standard_normal(30), 1e-10, budget)
        assert len(products) <= 2 * budget


def _softmax_dual_hessians() -> tuple[int, int]:
    """(Hessians, Newton steps) of a gram-tall soft-max dual (n = 100,
    m = 2000, mu = 1, seed 1)."""
    oracle = CountingOracle(generate_synthetic("softmax", n=100, m=2000, seed=1, smoothing=1.0))
    config = DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=1e-8)
    result = solve_dual(oracle, CompositeTerm.zero(), np.zeros(100), config)
    assert result.status.value == "grad_tol_reached"
    return oracle.calls["hessian"], result.total_inner


class _Cap(Exception):
    pass


def _fixed_cap(cap):
    """Planted: CG gives up after `cap` products, whatever they cost."""
    solve = composite._preconditioned_cg

    def capped(system, inverse, rhs, tol, budget):
        products = []

        def operator(u):
            if len(products) == cap:
                raise _Cap
            products.append(None)
            return system(u)

        try:
            return solve(operator, inverse, rhs, tol, budget)
        except _Cap:
            return None

    return capped


def test_a_softmax_dual_forms_one_hessian(monkeypatch):
    # the budget there is 16 products; every CG solve finishes, the longest
    # in 14
    hessians, steps = _softmax_dual_hessians()
    assert hessians == 1
    # planted mutation: a fixed cap of 8 products gives up on solves that
    # were still converging, and each pays for a Hessian
    monkeypatch.setattr(composite, "_preconditioned_cg", _fixed_cap(8))
    assert _softmax_dual_hessians()[0] > 1
