"""Stacked evaluations against point-by-point ones.

The certifier evaluates a chunk of points per call.  These differential
tests compare each stacked path with the one-point path it replaces: the
zoo's value, gradient and Hessian, the combinators, `CountingOracle`'s
counts, and the chunked pair checks of `run_instance_checks`.

The quadratic and the matrix families run the operations of a point once
per row of a stack, so they must match bitwise.  The Gram families (soft-max,
logistic, exponential) multiply a stack by the design rows in one matrix
product, so they match within the roundoff bound of `_gram_bounds`.
"""

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from roundoff import EPS, gamma, roundoff_bound

from qscnewton import (
    CountingOracle,
    QuadraticObjective,
    SoftMaxObjective,
    add_oracles,
    affine_substitute,
    contract_oracle,
    generate_synthetic,
    run_instance_checks,
    scale_oracle,
    with_qsc_constant,
)
from qscnewton import harness, oracles
from qscnewton.oracles import SmoothOracle, evaluate, phi
from qscnewton.problems import KINDS

BITWISE = ("quadratic", "matrix_scaling", "matrix_balancing")
METHODS = ("value", "gradient", "hessian")
_STACKS = st.sampled_from([(1,), (4,), (2, 3)])


class _PointByPoint(SmoothOracle):
    """The base oracle without stacks, as a user oracle would be: its
    value, gradient and hessian refuse a stack.  Its Hessian-vector
    products and qsc forms are the base's."""

    def __init__(self, base):
        super().__init__(base.metric, base.qsc_constant)
        self._base = base

    def value(self, x):
        assert np.ndim(x) == 1
        return self._base.value(x)

    def gradient(self, x):
        assert np.ndim(x) == 1
        return self._base.gradient(x)

    def hessian(self, x):
        assert np.ndim(x) == 1
        return self._base.hessian(x)

    def hessian_vector(self, x, u):
        return self._base.hessian_vector(x, u)

    def qsc_forms(self, x, u, v):
        return self._base.qsc_forms(x, u, v)


def _instance(kind, n, extra_rows, seed, **knobs):
    return generate_synthetic(kind, n=n, m=n + extra_rows, seed=seed, **knobs)


def _points(dim, stack, seed):
    return 0.5 * np.random.default_rng(seed).standard_normal(stack + (dim,))


def _point_by_point(oracle, method, x):
    """`method` at each point of the stack x, one call per point."""
    flat = x.reshape(-1, x.shape[-1])
    results = np.array([getattr(oracle, method)(point) for point in flat])
    return results.reshape(x.shape[:-1] + results.shape[1:])


def _gram_bounds(oracle, x):
    """Bounds on |stacked - point by point| of (value, gradient, Hessian) at x.

    The two differ only in the margins <a_i, x>: a stack forms them in one
    matrix product, a point in one gemv.  Each is within gamma_n |a_i|.|x|
    of the exact margin, so they differ by at most delta = 2 gamma_n
    max_i |a_i|.|x| (over mu for soft-max).  Each weight the outputs are
    summed from (the losses, sigma, sigma (1 - sigma), e^t, pi) has a
    logarithmic derivative of at most 2 in the margins, so it moves by a
    relative e^(2 delta) - 1 < 4 delta; the soft-max value moves by at most
    2 mu delta.  The gradients' products with the rows are summed in another
    order (2 gamma_m), and the soft-max Hessian squares its gradient.  So
    each output moves by at most (8 delta + 8 gamma_m + 32 eps) times the
    sum S of the absolute values of the terms it is summed from.
    """
    rows = oracle.rows
    m, n = rows.shape
    abs_rows = np.abs(rows)
    t = rows @ x - oracle._offsets
    if isinstance(oracle, SoftMaxObjective):
        mu = oracle.smoothing
        pi = oracle._point(x)[0]
        s_grad = abs_rows.T @ pi
        s_value = abs(oracle.value(x)) + mu
        s_hess = ((abs_rows.T * pi) @ abs_rows + np.outer(s_grad, s_grad)) / mu
    else:
        mu = 1.0
        if oracle.loss == "logistic":
            loss, first = np.logaddexp(0.0, t), scipy.special.expit(t)
            second = first * (1.0 - first)
        else:
            loss = first = second = np.exp(t)
        s_value = loss.mean()
        s_grad = abs_rows.T @ first / m
        s_hess = (abs_rows.T * (second / m)) @ abs_rows
    delta = 2.0 * gamma(n) * np.max(abs_rows @ np.abs(x)) / mu
    c = 8.0 * delta + 8.0 * gamma(m) + 32.0 * EPS
    return c * s_value, c * s_grad, c * s_hess


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=8),
    extra_rows=st.integers(min_value=0, max_value=30),
    stack=_STACKS,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_zoo_stacks_match_point_by_point(kind, n, extra_rows, stack, seed):
    oracle = _instance(kind, n, extra_rows, seed, smoothing=0.5)
    assert oracle.stacks
    x = _points(oracle.dim, stack, seed)
    flat = x.reshape(-1, oracle.dim)
    for i, method in enumerate(METHODS):
        stacked = getattr(oracle, method)(x)
        expected = _point_by_point(oracle, method, x)
        assert stacked.shape == expected.shape
        if kind in BITWISE:
            np.testing.assert_array_equal(stacked, expected)
            continue
        got = stacked.reshape(len(flat), *expected.shape[len(stack) :])
        for point, g, w in zip(flat, got, expected.reshape(got.shape)):
            assert np.all(np.abs(g - w) <= _gram_bounds(oracle, point)[i])


def test_point_results_keep_their_types():
    # a point gives a float value, as the solvers and reports expect
    for kind in KINDS:
        oracle = generate_synthetic(kind, n=4, m=10, seed=1)
        x = _points(oracle.dim, (3,), 2)
        assert type(oracle.value(x[0])) is float
        assert oracle.value(x).shape == (3,)


def _combinators(base, rng):
    """Every combinator, with T the identity, a scalar and a matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((base.dim, base.dim)))
    a = q * rng.uniform(0.5, 2.0, base.dim)
    bump = QuadraticObjective(0.2 * base.metric.matrix, np.zeros(base.dim), metric=base.metric)
    return {
        "scale": scale_oracle(base, 3.5),
        "affine": affine_substitute(base, a),
        "affine-offset": affine_substitute(base, a, 0.1 * rng.standard_normal(base.dim)),
        "contract": contract_oracle(base, 0.3, rng.standard_normal(base.dim), 7.5),
        "declared": with_qsc_constant(base, 0.125),
        "sum": add_oracles(base, bump),
        "counting": CountingOracle(base),
    }


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(BITWISE),
    n=st.integers(min_value=1, max_value=6),
    stack=_STACKS,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_combinators_stack_bitwise(kind, n, stack, seed):
    # over the bitwise families, so any difference is the combinator's own
    base = generate_synthetic(kind, n=n, seed=seed)
    for name, oracle in _combinators(base, np.random.default_rng(seed)).items():
        assert oracle.stacks, name
        x = _points(oracle.dim, stack, seed + 1)
        for method in METHODS:
            np.testing.assert_array_equal(getattr(oracle, method)(x), _point_by_point(oracle, method, x), err_msg=name)


def test_combinators_forward_no_stacks():
    base = _PointByPoint(generate_synthetic("logistic", n=3, m=9, seed=0))
    assert not base.stacks
    for name, oracle in _combinators(base, np.random.default_rng(0)).items():
        assert not oracle.stacks, name
    stacking = generate_synthetic("quadratic", n=3, seed=0)
    assert not add_oracles(stacking, _PointByPoint(stacking)).stacks


def test_evaluate_without_stacks_goes_point_by_point():
    base = generate_synthetic("matrix_scaling", n=3, seed=2)
    x = _points(base.dim, (5,), 3)
    for method in METHODS:
        np.testing.assert_array_equal(evaluate(_PointByPoint(base), method, x), getattr(base, method)(x))


@pytest.mark.parametrize("stack", [(), (1,), (5,), (2, 3)])
def test_counting_oracle_counts_one_per_point(stack):
    counting = CountingOracle(generate_synthetic("softmax", n=4, m=12, seed=1))
    x = _points(4, stack, 3)
    points = int(np.prod(stack))
    for method in METHODS:
        getattr(counting, method)(x)
    counting.hessian_vector(x, x)
    assert counting.calls == {"value": points, "gradient": points, "hessian": points, "hessian_vector": 1, "third_order": 0}


def _fd_errors_one_coordinate_at_a_time(oracle, x, step=1e-5):
    """check_gradient and check_hessian as they were before stacking: one
    perturbation, and one evaluation per point, at a time."""
    grad, hess = oracle.gradient(x), oracle.hessian(x)
    hess = 0.5 * (hess + hess.T)
    grad_err = hess_err = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fd = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * step)
        grad_err = max(grad_err, abs(fd - grad[i]) / (1.0 + abs(grad[i])))
        col = (oracle.gradient(x + e) - oracle.gradient(x - e)) / (2.0 * step)
        hess_err = max(hess_err, float(np.max(np.abs(col - hess[:, i]) / (1.0 + np.abs(hess[:, i])))))
    return grad_err, hess_err


@pytest.mark.parametrize("kind, n", [(kind, 4) for kind in KINDS] + [("quadratic", 40), ("matrix_balancing", 95)])
def test_fd_checks_match_one_coordinate_at_a_time(kind, n):
    # n = 40 and 95 split the 2n perturbed points over 8 and 95 calls
    oracle = _instance(kind, n, 20, 5)
    x = _points(oracle.dim, (), 6)
    stacked = oracles.check_gradient(oracle, x), oracles.check_hessian(oracle, x)
    expected = _fd_errors_one_coordinate_at_a_time(oracle, x)
    if kind in BITWISE:
        assert stacked == expected
    else:
        # value roundoff over the step 1e-5: see _REPORT_TOLERANCES
        assert stacked == pytest.approx(expected, rel=0, abs=1e-9)


# ---------------------------------------------------------------------------
# the chunked pair checks
# ---------------------------------------------------------------------------

_PAIR_CHECKS = {
    "hessian_stability": (oracles.check_hessian_stability, ("hx", "hy")),
    "gradient_bound": (oracles.check_gradient_bound, ("hx", "gx", "gy")),
    "function_bounds": (oracles.check_function_bounds, ("hx", "gx", "fx", "fy")),
}


def _dual_bound(metric, e):
    """A bound on ||s||_* for every s with |s| <= e entrywise:
    s^T B^-1 s <= e^T |B^-1| e."""
    return np.sqrt(e @ np.abs(np.linalg.inv(metric.matrix)) @ e)


def _margin_bound(name, base, oracle, x, y):
    """How far a Gram family's margin of one pair check may move between
    the chunked call and the one-pair call, stated from the operands.

    The evaluations differ by at most `_gram_bounds` at x and y, and each
    call's own arithmetic is within `roundoff_bound` of its terms; a call
    rounds each term through at most n + 2 operations (the gemv H d, the
    residual's or the gap's subtractions) or 2n + 4 (the local norm
    d^T H d).  The dual norm's Cholesky solve adds a relative
    gamma_{4n+2} n cond(B), and the last subtraction one rounding.

    The stability margin is a log-ratio of eigenvalues, free of the
    operands' scale: it keeps a thousandth of the slack the check grants,
    1e-7 (1 + M r)."""
    m = oracle.qsc_constant
    d = y - x
    r = oracle.metric.primal_norm(d)
    if name == "hessian_stability":
        return 1e-3 * 1e-7 * (1.0 + m * r)
    n = x.size
    (bfx, bgx, bhx), (bfy, bgy, _) = _gram_bounds(base, x), _gram_bounds(base, y)
    hx, gx, gy, fx, fy = base.hessian(x), base.gradient(x), base.gradient(y), base.value(x), base.value(y)
    ad = np.abs(d)
    # d^T H d: its change with H(x), and the roundoff of computing it
    rx2_err = ad @ bhx @ ad + 2.0 * roundoff_bound(2 * n + 4, (ad[:, None] * np.abs(hx) * ad).ravel())
    if name == "gradient_bound":
        terms = np.column_stack([gy, -gx, -hx * d])  # the residual g(y) - g(x) - H(x) d, by entry
        residual_err = bgy + bgx + bhx @ ad + 2.0 * roundoff_bound(n + 2, terms)
        size = _dual_bound(oracle.metric, np.sum(np.abs(terms), axis=-1))
        solve = 2.0 * n * np.linalg.cond(oracle.metric.matrix) * gamma(4 * n + 2) * size
        rhs = m * (ad @ np.abs(hx) @ ad) * phi(m * r) + 1e-8
        return _dual_bound(oracle.metric, residual_err) + solve + m * phi(m * r) * rx2_err + 2.0 * roundoff_bound(2, [rhs, size])
    terms = np.concatenate([[fy, -fx], -gx * d])  # the gap f(y) - f(x) - g(x)^T d
    gap_err = bfy + bfx + bgx @ ad + 2.0 * roundoff_bound(n + 2, terms)
    upper = (ad @ np.abs(hx) @ ad) * phi(m * r) + 1e-8
    return gap_err + phi(m * r) * rx2_err + 2.0 * roundoff_bound(4, [np.sum(np.abs(terms)), upper])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=6),
    pairs=st.integers(min_value=1, max_value=12),
    undersized=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
# a gradient_bound margin of 13782.83 whose terms reach 4e5 moved by 6 ulp,
# more than the fixed 1e-11 an earlier bound allowed
@example(kind="exponential", n=1, pairs=1, undersized=False, seed=2515)
def test_chunked_pair_checks_match_one_pair_at_a_time(kind, n, pairs, undersized, seed):
    """A chunk of pairs, evaluated in stacked calls, against each pair on
    its own, evaluated point by point.  The bitwise families match bitwise;
    the Gram families' margins move by roundoff, bounded by `_margin_bound`,
    and pass/fail may differ only where the margin is that close to 0."""
    base = _instance(kind, n, 12, seed)
    oracle = with_qsc_constant(base, base.qsc_constant / 4) if undersized else base
    rng = np.random.default_rng(seed)
    x, y = np.array([harness.sample_pairs(oracle, rng, 2.0) for _ in range(pairs)]).transpose(1, 0, 2)
    points = np.concatenate([x, y])
    h, g, f = (evaluate(oracle, method, points) for method in METHODS[::-1])
    evaluated = {"hx": h[:pairs], "hy": h[pairs:], "gx": g[:pairs], "gy": g[pairs:], "fx": f[:pairs], "fy": f[pairs:]}
    for name, (check, keys) in _PAIR_CHECKS.items():
        passed, margin = check(oracle, x, y, **{key: evaluated[key] for key in keys})
        assert passed.shape == margin.shape == (pairs,)
        for i in range(pairs):
            one_passed, one_margin = check(oracle, x[i], y[i])
            if kind in BITWISE:
                assert (passed[i], margin[i]) == (one_passed, one_margin), name
                continue
            tol = _margin_bound(name, base, oracle, x[i], y[i])
            assert margin[i] == one_margin or abs(margin[i] - one_margin) <= tol, name
            assert passed[i] == one_passed or abs(one_margin) <= tol, name


# what each number of run_instance_checks may move by when the Gram
# families' points are stacked: a thousandth of the threshold or slack it is
# compared with (the finite-difference errors divide value roundoff by the
# step 1e-5, so they move by about 1e-11)
_REPORT_TOLERANCES = {
    ("gradient_fd", "max_rel_error"): 1e-9,
    ("hessian_fd", "max_rel_error"): 1e-8,
    ("hessian_stability", "worst_margin"): 1e-10,
    ("gradient_bound", "worst_margin"): 1e-11,
    ("function_bounds", "worst_margin"): 1e-11,
}


@pytest.mark.parametrize("undersized", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_instance_checks_with_and_without_stacks(kind, undersized):
    """run_instance_checks on a stacking oracle and on the same oracle
    without stacks: the same outcomes and oracle-call counts, the same
    numbers bitwise for the bitwise families and within
    `_REPORT_TOLERANCES` for the Gram families."""
    base = _instance(kind, 6 if kind == "matrix_scaling" else 12, 20, 3)
    reports = {}
    for stacks in (True, False):
        counting = CountingOracle(base if stacks else _PointByPoint(base))
        oracle = with_qsc_constant(counting, base.qsc_constant / 4) if undersized else counting
        # at dim 12, a chunk of 56 pairs and one of 4
        reports[stacks] = (run_instance_checks(oracle, seed=4, samples=60, pairs=60), counting.calls)
    (stacked, stacked_calls), (looped, looped_calls) = reports[True], reports[False]
    assert stacked_calls == looped_calls
    for name, entry in looped.items():
        assert stacked[name]["passed"] == entry["passed"], name
        for key, value in entry.items():
            tol = 0.0 if kind in BITWISE else _REPORT_TOLERANCES.get((name, key), 0.0)
            assert stacked[name][key] == value or abs(stacked[name][key] - value) <= tol, (name, key)


@pytest.mark.parametrize("kind", KINDS)
def test_instance_checks_match_one_pair_at_a_time(kind):
    """The pair checks' entries of run_instance_checks against the same
    pairs (the same random stream) checked one at a time, each evaluating
    its own points: bitwise for the bitwise families."""
    oracle = _instance(kind, 6 if kind == "matrix_scaling" else 12, 20, 8)
    seed, pairs = 9, 60  # at dim 12, a chunk of 56 pairs and one of 4
    report = run_instance_checks(oracle, seed=seed, samples=20, pairs=pairs)
    rng = np.random.default_rng(seed)
    for _ in range(5):  # the finite-difference checks' points come first
        rng.standard_normal(oracle.dim)
    drawn = [harness.sample_pairs(oracle, rng, 2.0) for _ in range(pairs)]
    for name, (check, _) in _PAIR_CHECKS.items():
        results = [check(oracle, x, y) for x, y in drawn]
        assert report[name]["passed"] == all(ok for ok, _ in results), name
        worst = min(margin for _, margin in results)
        tol = 0.0 if kind in BITWISE else _REPORT_TOLERANCES[(name, "worst_margin")]
        assert abs(report[name]["worst_margin"] - worst) <= tol, name
