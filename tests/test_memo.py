"""The one-point memo of the Gram families against fresh oracles.

Soft-max and the separable losses keep the derived quantities of the last
single point they were called at (the margins and loss derivatives, or pi,
g and the value) and reuse them at that point.  A memo hit must give, bit
for bit, what a fresh oracle gives at that point, in any call order, and a
caller that writes into its point or into a returned gradient must not see
stale results.  Stacked calls neither read nor write the memo.  A
Hessian-free Newton step computes them once, at x+, and takes every product
at x from the memo.
"""

import itertools

import numpy as np
import pytest

from qscnewton import (
    CompositeTerm,
    CountingOracle,
    StepState,
    composite,
    contract_oracle,
    generate_synthetic,
    newton_step,
    problems,
    with_qsc_constant,
)
from qscnewton.problems import EvaluationOverflowWarning

KINDS = ("logistic", "exponential", "softmax")
N, M = 6, 30


def _fresh(kind):
    return generate_synthetic(kind, n=N, m=M, seed=4, smoothing=1.0)


def _points(seed=0):
    rng = np.random.default_rng(seed)
    return [0.5 * rng.standard_normal(N) for _ in range(2)], rng.standard_normal(N)


def _call(oracle, method, x, u):
    if method == "product":
        return oracle.hessian_vector(x, u)
    return getattr(oracle, method)(x)


METHODS = ("value", "gradient", "hessian", "product")


def _same(got, expected) -> bool:
    return np.array_equal(np.asarray(got), np.asarray(expected)) and type(got) is type(expected)


def _disagreements(kind) -> list[str]:
    """Where one shared oracle, called in every order at two points and
    written into between calls, differs from fresh oracles; empty when it
    agrees bit for bit."""
    found = []
    (x, y), u = _points()
    for order in itertools.permutations(METHODS):
        oracle = _fresh(kind)
        # the second point evicts the first, whose calls then miss again
        for point, method in [(x, m) for m in order] + [(y, order[0]), (x, order[-1])]:
            if not _same(_call(oracle, method, point, u), _call(_fresh(kind), method, point, u)):
                found.append(f"{method} after {order}")
    oracle = _fresh(kind)
    point = x.copy()
    oracle.gradient(point)
    point += 0.25  # the same array, new values
    for method in METHODS:
        if not _same(_call(oracle, method, point, u), _call(_fresh(kind), method, point, u)):
            found.append(f"{method} after writing into the point")
    grad = oracle.gradient(point)
    grad[:] = 0.0
    if not _same(oracle.gradient(point), _fresh(kind).gradient(point)):
        found.append("gradient after writing into a returned gradient")
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_a_hit_is_bitwise_a_fresh_evaluation(kind):
    assert _disagreements(kind) == []


@pytest.mark.parametrize("kind", KINDS)
def test_a_memo_keyed_on_identity_is_caught(kind, monkeypatch):
    # planted mutation: the memo is keyed on id(x), so a point written into
    # in place hits the entry of its old values
    def by_identity(oracle, x, compute):
        memo = oracle._memo
        if memo[0] != id(x):
            memo = oracle._memo = (id(x), compute(np.asarray(x, dtype=float)))
        return memo[1]

    monkeypatch.setattr(problems, "_memoized", by_identity)
    assert _disagreements(kind) != []


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_calls_bypass_the_memo(kind):
    oracle = _fresh(kind)
    (x, y), u = _points(1)
    stack = np.stack([x, y])
    oracle.gradient(x)
    entry = oracle._memo
    # a planted entry for x with wrong results, which a stack must not read
    key, results = entry
    oracle._memo = (key, tuple(np.zeros_like(r) if isinstance(r, np.ndarray) else r for r in results))
    planted = oracle._memo
    fresh = _fresh(kind)
    for method in ("value", "gradient", "hessian"):
        np.testing.assert_array_equal(getattr(oracle, method)(stack), getattr(fresh, method)(stack))
    directions = np.stack([u, -u])
    np.testing.assert_array_equal(oracle.hessian_vector(stack, directions), fresh.hessian_vector(stack, directions))
    oracle.qsc_forms(stack, directions, directions)
    assert oracle._memo is planted


def test_the_clamp_warns_on_every_call_at_a_clamped_point():
    oracle = _fresh("exponential")
    # margins far above the clamp of 700
    x = 1e4 * np.linalg.lstsq(oracle.rows, np.ones(M), rcond=None)[0]
    assert np.max(oracle.rows @ x - oracle._offsets) > 700
    for method in ("value", "gradient", "value", "hessian", "product", "gradient"):
        with pytest.warns(EvaluationOverflowWarning):
            _call(oracle, method, x, np.ones(N))


STEP_KINDS = ("logistic", "softmax")
WRAPPERS = ("counting", "declared", "contract")


def _memo_misses(kind, wrapper, monkeypatch) -> list[str]:
    """Where one Hessian-free step from x, taken through `wrapper` once the
    memo holds x, computes the family's per-point quantities (`_point`)
    other than once, at the base point of x+; empty when the memo serves
    every product."""
    n = composite._CG_MIN_DIM
    counting = CountingOracle(generate_synthetic(kind, n=n, m=4 * n, seed=2, smoothing=1.0))
    rng = np.random.default_rng(5)
    oracle = {
        "counting": counting,
        "declared": with_qsc_constant(counting, 0.5),
        "contract": contract_oracle(counting, 0.6, rng.standard_normal(n), 2.0),
    }[wrapper]
    x = 0.1 * rng.standard_normal(n)
    psi = CompositeTerm.zero()
    inverse = newton_step(oracle, psi, StepState.at(oracle, 0.5 * x), 0.4).state.preconditioner
    state = StepState(x, oracle.gradient(x), inverse)
    before = dict(counting.calls)
    computed = []
    compute = type(counting._base)._point

    def recorded(self, point):
        computed.append(point.copy())
        return compute(self, point)

    with monkeypatch.context() as patch:
        patch.setattr(type(counting._base), "_point", recorded)
        step = newton_step(oracle, psi, state, 0.7)
    x_plus = step.state.x if wrapper == "counting" else oracle._inner(step.state.x)
    calls = {key: counting.calls[key] - before[key] for key in before}
    found = []
    if calls["hessian"] != 0 or calls["hessian_vector"] == 0:
        found.append(f"not a Hessian-free step: {calls}")
    if len(computed) != 1 or not np.array_equal(computed[0], x_plus):
        found.append(f"{len(computed)} evaluations for {calls['hessian_vector']} products")
    return found


@pytest.mark.parametrize("wrapper", WRAPPERS)
@pytest.mark.parametrize("kind", STEP_KINDS)
def test_the_memo_serves_every_product_of_a_hessian_free_step(kind, wrapper, monkeypatch):
    assert _memo_misses(kind, wrapper, monkeypatch) == []


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_a_memo_that_always_recomputes_is_caught(kind, monkeypatch):
    # planted mutation: every call at a single point recomputes
    monkeypatch.setattr(problems, "_memoized", lambda oracle, x, compute: compute(np.asarray(x, dtype=float)))
    assert _memo_misses(kind, "counting", monkeypatch) != []
