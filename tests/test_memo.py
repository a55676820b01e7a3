"""The one-entry memo of the Gram families against fresh oracles.

Soft-max and the separable losses keep the derived quantities of the last
point or stack they were called at (the margins and loss derivatives, or
pi, g and the value) and reuse them there.  A memo hit must give, bit for
bit, what a fresh oracle gives, in any call order; a stack and a point with
the same bytes are different entries; and a caller that writes into its
point or into any returned array must not see stale results.  A
Hessian-free Newton step computes them once, at x+, and takes every product
at x from the memo; H, g and f at one stack come from one derivation.
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


def _by_bytes_alone(oracle, x, compute):
    """A planted mutation of `problems._memoized`: keyed by the bytes
    alone, so a (1, n) stack and the (n,) point with its bytes share an
    entry."""
    x = np.asarray(x, dtype=float)
    if oracle._memo[0] != x.tobytes():
        results = compute(x)
        for value in results:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        oracle._memo = (x.tobytes(), results)
    return oracle._memo[1]


def _shape_confusions(kind) -> list[str]:
    """Where a call at a (1, n) stack after one at the (n,) point with the
    same bytes, or the other way round, differs from a fresh oracle's."""
    found = []
    (x, _), u = _points(2)
    forms = [(x, u), (x[None], u[None])]
    for first, second in (forms, forms[::-1]):
        for method in METHODS:
            oracle = _fresh(kind)
            _call(oracle, method, *first)
            if not _same(_call(oracle, method, *second), _call(_fresh(kind), method, *second)):
                found.append(f"{method} at {second[0].shape} after {first[0].shape}")
    return found


def _planted_entry_reads(kind) -> list[str]:
    """Where a stack call reads a planted entry of wrong results for the
    point x: the stacks (x) and (x, y), after each of which the entry is
    planted again."""
    found = []
    (x, y), u = _points(1)
    oracle = _fresh(kind)
    oracle.gradient(x)
    key, results = oracle._memo
    planted = (key, tuple(np.zeros_like(r) if isinstance(r, np.ndarray) else r for r in results))
    for stack in (x[None], np.stack([x, y])):
        directions = np.broadcast_to(u, stack.shape)
        for method in METHODS:
            oracle._memo = planted
            if not _same(_call(oracle, method, stack, directions), _call(_fresh(kind), method, stack, directions)):
                found.append(f"{method} at {stack.shape}")
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_a_stack_and_its_point_are_different_entries(kind):
    assert _shape_confusions(kind) == []
    assert _planted_entry_reads(kind) == []


@pytest.mark.parametrize("kind", KINDS)
def test_a_memo_keyed_on_bytes_alone_is_caught(kind, monkeypatch):
    monkeypatch.setattr(problems, "_memoized", _by_bytes_alone)
    assert _shape_confusions(kind) != []
    assert _planted_entry_reads(kind) != []


def _stack_derivations(kind, monkeypatch) -> int:
    """How often H, g, f and a product at one stack derive the family's
    quantities (`_point`)."""
    oracle = _fresh(kind)
    stack = np.stack(_points(3)[0])
    compute = type(oracle)._point
    computed = []

    def counted(self, x):
        computed.append(x)
        return compute(self, x)

    with monkeypatch.context() as patch:
        patch.setattr(type(oracle), "_point", counted)
        for method in ("hessian", "gradient", "value", "product"):
            _call(oracle, method, stack, -stack)
    return len(computed)


@pytest.mark.parametrize("kind", KINDS)
def test_one_stack_derives_once(kind, monkeypatch):
    assert _stack_derivations(kind, monkeypatch) == 1


def _shared_arrays(kind) -> list[str]:
    """Where writing into an array a call returned, at a point or a stack,
    is refused or changes a later call's result."""
    found = []
    (x, y), u = _points(4)
    for point, direction in ((x, u), (np.stack([x, y]), np.stack([u, -u]))):
        for method in METHODS:
            oracle = _fresh(kind)
            got = _call(oracle, method, point, direction)
            if not isinstance(got, np.ndarray):
                continue
            try:
                got[...] = 0.0
            except ValueError:
                found.append(f"{method} at {point.shape} is read-only")
                continue
            for later in METHODS:
                if not _same(_call(oracle, later, point, direction), _call(_fresh(kind), later, point, direction)):
                    found.append(f"{later} at {point.shape} after writing into {method}")
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_every_returned_array_is_the_callers_own(kind):
    assert _shared_arrays(kind) == []


@pytest.mark.parametrize("method", ["value", "gradient"])
def test_handing_out_the_memos_array_is_caught(method, monkeypatch):
    # planted mutation: soft-max's value or gradient is the memo's own array
    index = {"value": 2, "gradient": 1}[method]
    monkeypatch.setattr(
        problems.SoftMaxObjective, method, lambda self, x: problems._per_point(self._derived(x)[index])
    )
    assert _shared_arrays("softmax") != []


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
    assert _stack_derivations(kind, monkeypatch) != 1
