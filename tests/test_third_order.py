"""The closed-form qsc forms against the certifier's finite-difference path.

`qsc_forms(x, u, v)` gives u^T H(x) u and D^3 f(x)[u, u, v] in closed form;
`SmoothOracle.qsc_forms`, the default and the reference, takes u^T H(x) u
from a Hessian-vector product and estimates D^3 f by central differences of
u^T H u along v.
Over every family, bare and through `scale_oracle`, `affine_substitute` and
`add_oracles`:

* u^T H u agrees within the roundoff of its terms (`roundoff_bound`): the two
  paths sum the same terms in other orders;
* D^3 f agrees with the finite-difference estimate, its t^2 truncation term
  cancelled by one Richardson step, within a thousandth of the certifier's
  own tolerance 1e-4 (1 + M u^T H u).

The raw estimate is not that close everywhere: with few design rows, one
row's |a^T v| can be near 1 at unit ||v||, and D^5 f then makes the
truncation error t^2/6 D^5 f[u, u, v, v, v] reach about 2.6e-3 of the
tolerance (exponential, n = 5, m = 20, through an affine substitution).
"""

import numpy as np
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from roundoff import roundoff_bound

from qscnewton import (
    QuadraticObjective,
    add_oracles,
    affine_substitute,
    contract_oracle,
    generate_synthetic,
    scale_oracle,
)
from qscnewton.oracles import SmoothOracle
from qscnewton.problems import (
    KINDS,
    MatrixBalancingObjective,
    MatrixScalingObjective,
    SeparableObjective,
    SoftMaxObjective,
)


def _gram_terms(oracle, x, u):
    """The absolute terms of u^T H(x) u for a Gram family, one row per
    triple, and the relative amount each may move with the margins.

    Both paths form the margins Ax - b in a matrix product, of different
    shapes; each is within gamma_n (|A||x| + |b|) of the exact margins.  A
    separable weight's logarithmic derivative in its margin is at most 1, a
    soft-max weight's at most 2/mu in the largest one, so a weight moves by a
    relative 4 (resp. 8/mu) times that margin bound, written as a multiple of
    gamma_n here."""
    rows, offsets = oracle.rows, oracle._offsets
    abs_rows = np.abs(rows)
    size = np.abs(x) @ abs_rows.T + np.abs(offsets)  # margin bound over gamma_n
    au = np.abs(u) @ abs_rows.T
    t = x @ rows.T - offsets
    if isinstance(oracle, SoftMaxObjective):
        mu = oracle.smoothing
        pi = scipy.special.softmax(t / mu, axis=-1)
        centre = np.sum(pi * au, axis=-1, keepdims=True)
        # the centred (a^T u - sum pi a^T u)^2 of the closed form, and the
        # curvature and g g^T parts of the product
        return pi * np.square(au + centre) / mu, 8.0 / mu * np.max(size, axis=-1, keepdims=True)
    if oracle.loss == "logistic":
        p = scipy.special.expit(t)
        second = p * (1.0 - p)
    else:
        second = np.exp(t)
    return second / rows.shape[0] * np.square(au), 4.0 * size


def _form_bound(oracle, x, u, extra_ops=0):
    """Bound on |closed form - product form| of u^T H(x) u for a zoo family
    at each triple row.

    Each term passes through at most k rounded operations in either path:
    the products with the design or the weights, the squares and weights,
    and the sums over the rows (m), the coordinates (n) or the entries (n^2);
    a combinator adds `extra_ops`.  The two paths differ by at most twice
    the bound of one.
    """
    n = x.shape[-1]
    if isinstance(oracle, (SeparableObjective, SoftMaxObjective)):
        terms, move = _gram_terms(oracle, x, u)
        k = 2 * n + oracle.rows.shape[0] + 8 + extra_ops
        return 2.0 * roundoff_bound(k, terms) + roundoff_bound(n, terms * move)
    if isinstance(oracle, (MatrixScalingObjective, MatrixBalancingObjective)):
        # the exponent of w_ij moves by u_i - u'_j, u' = u for balancing
        w = oracle._weights(x)
        p, q = np.abs(u[:, : w.shape[-2]]), np.abs(u[:, -w.shape[-1] :])
        terms = w * np.square(p[:, :, None] + q[:, None, :])
        return 2.0 * roundoff_bound(w[0].size + 2 * n + 8 + extra_ops, terms.reshape(len(x), -1))
    terms = np.abs(u)[:, :, None] * np.abs(oracle._a) * np.abs(u)[:, None, :]
    return 2.0 * roundoff_bound(2 * n + 4 + extra_ops, terms.reshape(len(x), -1))


def _cases(base, rng):
    """name -> (oracle, bound on its forms' difference at (x, u)): the
    family itself and through each combinator.  Both paths apply a
    combinator's T to x and u in the same operations, so the bound takes
    the base's terms at T x + shift and at |T| |u| >= |T u|.  Its scale, the
    product path's T^T and the sum's addition add a few rounded operations
    each."""
    n = base.dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q * rng.uniform(0.5, 2.0, n)
    offset = 0.1 * rng.standard_normal(n)
    bump = QuadraticObjective(0.2 * base.metric.matrix, np.zeros(n), metric=base.metric)
    return {
        "bare": (base, lambda x, u: _form_bound(base, x, u)),
        "scale": (scale_oracle(base, 3.5), lambda x, u: 3.5 * _form_bound(base, x, u, 2)),
        "affine": (
            affine_substitute(base, a, offset),
            lambda x, u: _form_bound(base, np.matvec(a, x) - offset, np.matvec(np.abs(a), np.abs(u)), 4 * n),
        ),
        "sum": (add_oracles(base, bump), lambda x, u: _form_bound(base, x, u, 2) + _form_bound(bump, x, u, 2)),
    }


def _extrapolated_fd(oracle, x, u, v):
    """The finite-difference path's D^3 f estimate E(v) with its t^2 term
    cancelled: the step along 2v is twice as long, so E(2v)/2 carries four
    times the truncation error of E(v), and (4 E(v) - E(2v)/2) / 3 none of
    it up to O(t^4)."""
    _, fine = SmoothOracle.qsc_forms(oracle, x, u, v)
    _, coarse = SmoothOracle.qsc_forms(oracle, x, u, 2.0 * v)
    return (4.0 * fine - 0.5 * coarse) / 3.0


def _triples(oracle, rows, seed):
    """(x, u, v) as the certifier draws them: v of unit primal norm."""
    x, u, v = np.random.default_rng(seed).standard_normal((3, rows, oracle.dim))
    return x, u, v / oracle.metric.primal_norm(v)[:, None]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=6),
    extra_rows=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_qsc_forms_match_the_finite_difference_path(kind, n, extra_rows, seed):
    base = generate_synthetic(kind, n=n, m=n + extra_rows, seed=seed)
    for name, (oracle, bound) in _cases(base, np.random.default_rng(seed)).items():
        assert type(oracle).qsc_forms is not SmoothOracle.qsc_forms, name
        x, u, v = _triples(oracle, 4, seed + 1)
        form, third = oracle.qsc_forms(x, u, v)
        fd_form, _ = SmoothOracle.qsc_forms(oracle, x, u, v)
        assert form.shape == third.shape == (4,), name
        assert np.all(np.abs(form - fd_form) <= bound(x, u)), name
        tolerance = 1e-4 * (1.0 + oracle.qsc_constant * np.maximum(form, 0.0))
        assert np.all(np.abs(third - _extrapolated_fd(oracle, x, u, v)) <= 1e-3 * tolerance), name


def test_contraction_scales_the_forms_by_t_squared_and_cubed():
    # f(t x + shift) scaled by c: the forms are c t^2 and c t^3 times the
    # base's at t x + shift (t and c powers of two, so exactly)
    base = generate_synthetic("logistic", n=4, m=20, seed=3)
    anchor = np.random.default_rng(4).standard_normal(4)
    oracle = contract_oracle(base, 0.25, anchor, 8.0)
    x, u, v = _triples(base, 5, 5)
    form, third = oracle.qsc_forms(x, u, v)
    base_form, base_third = base.qsc_forms(0.25 * x + 0.75 * anchor, u, v)
    np.testing.assert_array_equal(form, 8.0 * 0.25**2 * base_form)
    np.testing.assert_array_equal(third, 8.0 * 0.25**3 * base_third)
