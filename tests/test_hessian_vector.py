"""The broadcasting Hessian-vector oracle: zoo, combinators and the default."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscnewton import (
    CountingOracle,
    QuadraticObjective,
    SeparableObjective,
    SoftMaxObjective,
    add_oracles,
    affine_substitute,
    contract_oracle,
    generate_synthetic,
    scale_oracle,
    with_qsc_constant,
)
from qscnewton.problems import KINDS
from qscnewton.oracles import OracleCosts, SmoothOracle


class _HessianOnly(SmoothOracle):
    """A custom oracle that defines no hessian_vector of its own."""

    def __init__(self, base):
        super().__init__(base.metric, base.qsc_constant)
        self._base = base

    def value(self, x):
        return self._base.value(x)

    def gradient(self, x):
        return self._base.gradient(x)

    def hessian(self, x):
        return self._base.hessian(x)


def _instance(kind, n, extra_rows, seed):
    return generate_synthetic(kind, n=n, m=n + extra_rows, seed=seed)


def _points(dim, stack, seed):
    """Points and directions of shape stack + (dim,); entries of u in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return 0.5 * rng.standard_normal(stack + (dim,)), rng.uniform(-1.0, 1.0, stack + (dim,))


def _roundoff_scale(oracle, x):
    """Entry size of the terms the Hessian at x is summed from: max|H|,
    except for soft-max, whose H = (G - g g^T)/mu with G = sum_i pi_i a_i a_i^T
    cancels far below G when the rows are few (m = 2, n = 1 at some points)."""
    if isinstance(oracle, SoftMaxObjective):
        pi = oracle._point(x)[0]
        return np.abs((oracle.rows.T * pi) @ oracle.rows).max() / oracle.smoothing
    return np.abs(oracle.hessian(x)).max()


def _assert_matches_hessian(oracle, x, u):
    """hessian_vector(x, u) equals hessian(x_i) @ u_i row by row, within
    1e-13 of the Hessian's roundoff scale (u has entries in [-1, 1])."""
    got = oracle.hessian_vector(x, u)
    assert got.shape == u.shape
    flat_x, flat_u = x.reshape(-1, x.shape[-1]), u.reshape(-1, u.shape[-1])
    for xi, ui, gi in zip(flat_x, flat_u, got.reshape(flat_u.shape)):
        assert np.abs(gi - oracle.hessian(xi) @ ui).max() <= 1e-13 * _roundoff_scale(oracle, xi)


_STACKS = st.sampled_from([(), (1,), (4,), (2, 3)])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=10),
    extra_rows=st.integers(min_value=0, max_value=40),
    stack=_STACKS,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_zoo_hessian_vector_matches_hessian(kind, n, extra_rows, stack, seed):
    oracle = _instance(kind, n, extra_rows, seed)
    _assert_matches_hessian(oracle, *_points(oracle.dim, stack, seed))


def _combinators(base, rng):
    # a well-conditioned substitution, so that A^T H A keeps the scale of H
    q, _ = np.linalg.qr(rng.standard_normal((base.dim, base.dim)))
    a = q * rng.uniform(0.5, 2.0, base.dim)
    offset = 0.1 * rng.standard_normal(base.dim)
    bump = QuadraticObjective(0.2 * base.metric.matrix, np.zeros(base.dim), metric=base.metric)
    return {
        "scale": scale_oracle(base, 3.5),
        "affine": affine_substitute(base, a),
        "affine-offset": affine_substitute(base, a, offset),
        "contract": contract_oracle(base, 0.3, rng.standard_normal(base.dim), 7.5),
        "declared": with_qsc_constant(base, 0.125),
        "sum": add_oracles(base, bump),
        "counting": CountingOracle(base),
        "default": _HessianOnly(base),
    }


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=6),
    stack=_STACKS,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_combinators_forward_hessian_vector(kind, n, stack, seed):
    # a soft-max at mu = 4 keeps pi spread, so max|H| stays the roundoff
    # scale of the transformed Hessians (the zoo test covers the cancelling
    # soft-max with its own scale)
    base = generate_synthetic(kind, n=n, m=n + 10, seed=seed, smoothing=4.0)
    costs, dim = base.costs, base.dim
    default = OracleCosts(dim**2, dim**2, dim**2)  # products no cheaper than a Hessian
    if isinstance(base, (SoftMaxObjective, SeparableObjective)):
        m = base.rows.shape[0]
        assert costs == (m * dim**2, 4 * m * dim, max(dim**2, m))
    else:
        assert costs == default
    for name, oracle in _combinators(base, np.random.default_rng(seed)).items():
        _assert_matches_hessian(oracle, *_points(oracle.dim, stack, seed + 1))
        # the wrappers declare their base's costs; a sum, its summands' added
        # up with the larger entry count (the bump keeps the default)
        expected = {
            "default": default,
            "sum": (costs.hessian + default.hessian, costs.product + default.product, max(costs.entries, default.entries)),
        }.get(name, costs)
        assert oracle.costs == expected, name


def _assert_products_at_one_point_match_hessian(oracle, x, u):
    """hessian_vector(x_i, .) applied to u_i and then to -2 u_i equals
    hessian(x_i) times each, within the bound of `_assert_matches_hessian`
    scaled by the direction's size: the products a Hessian-free step makes,
    several at one point, the later ones from the Gram families' memo."""
    for xi, ui in zip(x.reshape(-1, x.shape[-1]), u.reshape(-1, u.shape[-1])):
        hess = oracle.hessian(xi)
        for scale, v in ((1.0, ui), (2.0, -2.0 * ui)):
            got = oracle.hessian_vector(xi, v)
            assert got.shape == v.shape
            assert np.abs(got - hess @ v).max() <= scale * 1e-13 * _roundoff_scale(oracle, xi)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=10),
    extra_rows=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_zoo_products_at_one_point_match_hessian(kind, n, extra_rows, seed):
    oracle = _instance(kind, n, extra_rows, seed)
    _assert_products_at_one_point_match_hessian(oracle, *_points(oracle.dim, (3,), seed))


def test_wrapper_products_are_counted_where_they_run():
    # each wrapper over a CountingOracle counts one hessian_vector call per
    # single-point product and forms no Hessian; the wrapper without
    # products of its own forms one Hessian per product instead
    counting = CountingOracle(generate_synthetic("logistic", n=5, m=20, seed=4))
    x, u = _points(5, (2,), 6)
    for name, oracle in _combinators(counting, np.random.default_rng(0)).items():
        before = dict(counting.calls)
        oracle.hessian_vector(x[0], u[0])
        oracle.hessian_vector(x[0], u[1])
        delta = {key: counting.calls[key] - before[key] for key in before if counting.calls[key] != before[key]}
        assert delta == ({"hessian": 2} if name == "default" else {"hessian_vector": 2}), name


def test_default_is_the_hessian_product_bitwise():
    base = generate_synthetic("logistic", n=5, m=30, seed=2)
    oracle = _HessianOnly(base)
    x, u = _points(5, (3,), 0)
    np.testing.assert_array_equal(oracle.hessian_vector(x[0], u[0]), base.hessian(x[0]) @ u[0])
    stacked = oracle.hessian_vector(x, u)
    for i in range(3):
        np.testing.assert_array_equal(stacked[i], base.hessian(x[i]) @ u[i])


def test_counting_oracle_counts_one_call_per_stack():
    counting = CountingOracle(generate_synthetic("softmax", n=4, m=12, seed=1))
    x, u = _points(4, (5,), 3)
    counting.hessian_vector(x, u)
    counting.hessian_vector(x[0], u[0])
    assert counting.calls == {"value": 0, "gradient": 0, "hessian": 0, "hessian_vector": 2, "third_order": 0}


@pytest.mark.parametrize("kind", ["matrix_scaling", "matrix_balancing"])
def test_matrix_products_keep_the_kernel(kind):
    # the all-ones direction is in the kernel of the Hessian at every point
    oracle = generate_synthetic(kind, n=6, seed=4)
    x, _ = _points(oracle.dim, (3,), 5)
    products = oracle.hessian_vector(x, np.ones_like(x))
    for xi, pi in zip(x, products):
        assert np.abs(pi).max() <= 1e-13 * np.abs(oracle.hessian(xi)).max()
