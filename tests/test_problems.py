import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscnewton import (
    DimensionError,
    EvaluationOverflowWarning,
    MatrixBalancingObjective,
    MatrixScalingObjective,
    ParseError,
    SeparableObjective,
    SoftMaxObjective,
    check_hessian,
    check_gradient,
    check_qsc,
    generate_synthetic,
    gram_metric,
    load_design_matrix,
    load_matrix,
)
from qscnewton.problems import _clamped_exp_weights


class TestSoftMax:
    def test_uniform_weights_at_zero(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((6, 3))
        o = SoftMaxObjective(rows, np.zeros(6), smoothing=0.7)
        assert o.value(np.zeros(3)) == pytest.approx(0.7 * math.log(6))
        np.testing.assert_allclose(o.gradient(np.zeros(3)), rows.mean(axis=0), atol=1e-12)

    def test_symmetric_two_term_scalar(self):
        o = SoftMaxObjective(np.array([[1.0], [-1.0]]), np.zeros(2), smoothing=1.0)
        x = np.zeros(1)
        assert o.value(x) == pytest.approx(math.log(2.0))
        assert o.gradient(x)[0] == pytest.approx(0.0, abs=1e-15)
        assert o.hessian(x)[0, 0] == pytest.approx(1.0)

    def test_gradient_matches_fd(self):
        o = generate_synthetic("softmax", n=6, m=20, seed=2, smoothing=0.5)
        assert check_gradient(o, np.full(6, 0.3)) <= 1e-6

    def test_declared_constant(self):
        o = generate_synthetic("softmax", n=4, m=10, seed=1, smoothing=0.25)
        assert o.qsc_constant == pytest.approx(8.0)

    def test_no_overflow_far_out(self):
        # max-shifted exponentials: finite value, weights normalized, for any x
        o = generate_synthetic("softmax", n=4, m=10, seed=1, smoothing=0.01)
        x = np.full(4, 300.0)
        assert np.isfinite(o.value(x))
        weights = o._point(x)[0]
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0)

    def test_hessian_dominated_by_metric(self):
        # covariance form is below the second-moment form: max gen eig <= 1/mu
        mu = 0.5
        o = generate_synthetic("softmax", n=5, m=15, seed=3, smoothing=mu)
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = o.hessian(rng.standard_normal(5))
            top = scipy.linalg.eigh(h, np.array(o.metric.matrix), eigvals_only=True)[-1]
            assert top <= 1.0 / mu + 1e-8


class TestSeparable:
    def test_logistic_curvature_at_zero_margins(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((7, 3))
        o = SeparableObjective(rows, np.zeros(7), "logistic")
        expected = rows.T @ rows / (4.0 * 7)
        np.testing.assert_allclose(o.hessian(np.zeros(3)), expected, atol=1e-12)

    def test_exponential_at_zero(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((5, 3))
        o = SeparableObjective(rows, np.zeros(5), "exponential")
        assert o.value(np.zeros(3)) == pytest.approx(1.0)

    def test_hessian_matches_fd_of_gradient(self):
        o = generate_synthetic("logistic", n=5, m=25, seed=7)
        assert check_hessian(o, np.full(5, -0.2)) <= 1e-5

    def test_exponential_overflow_clamps_and_warns(self):
        o = SeparableObjective(np.array([[1.0]]), np.array([0.0]), "exponential")
        with pytest.warns(EvaluationOverflowWarning):
            value = o.value(np.array([800.0]))
        assert np.isfinite(value)

    def test_logistic_curvature_cap(self):
        # largest generalized eigenvalue of (hess, gram/m) is at most 1/4
        o = generate_synthetic("logistic", n=5, m=30, seed=8)
        gram = np.asarray(o.rows).T @ np.asarray(o.rows) / 30
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = o.hessian(rng.standard_normal(5))
            top = scipy.linalg.eigh(h, gram, eigvals_only=True)[-1]
            assert top <= 0.25 + 1e-8

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            SeparableObjective(np.eye(2), np.zeros(2), "hinge")


def _general_product_hessian(oracle, x):
    """The weighted-Gram Hessians as the general product (A^T * w) @ A, and
    the entry size of the terms it is summed from: max|H|, except for
    soft-max, whose H = (G - g g^T)/mu with G = sum_i pi_i a_i a_i^T cancels
    far below G when the rows are few."""
    rows = np.asarray(oracle.rows)
    if isinstance(oracle, SoftMaxObjective):
        pi = oracle._point(x)[0]
        g = rows.T @ pi
        gram = (rows.T * pi) @ rows
        return (gram - np.outer(g, g)) / oracle.smoothing, np.abs(gram).max() / oracle.smoothing
    t = rows @ x - oracle._offsets
    h = (rows.T * oracle._derivatives(t)[1]) @ rows
    return h, np.abs(h).max()


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "exponential", "softmax"]),
    n=st.integers(min_value=1, max_value=12),
    extra_rows=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
# soft-max, where H cancels: error 5.6e-17 with max|H| = 1.3e-4 and max|G|/mu = 0.35
@example(kind="softmax", n=1, extra_rows=1, seed=228)
def test_weighted_gram_hessian_is_symmetric_and_matches_general_product(kind, n, extra_rows, seed):
    o = generate_synthetic(kind, n=n, m=n + extra_rows, seed=seed)
    x = 0.5 * np.random.default_rng(seed).standard_normal(n)
    h = o.hessian(x)
    assert np.array_equal(h, h.T)
    old, scale = _general_product_hessian(o, x)
    assert np.abs(h - old).max() <= 1e-13 * scale
    assert check_hessian(o, x) <= 1e-5


class TestMatrixProblems:
    def test_scaling_gradient_at_zero_is_row_and_column_sums(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0, 1, (4, 4))
        o = MatrixScalingObjective(a)
        g = o.gradient(np.zeros(8))
        np.testing.assert_allclose(g[:4], a.sum(axis=1))
        np.testing.assert_allclose(g[4:], -a.sum(axis=0))

    def test_balancing_zero_diagonal_contributes_constant(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, (4, 4))
        a_zero = a.copy()
        np.fill_diagonal(a_zero, 0.0)
        o = MatrixBalancingObjective(a)
        o_zero = MatrixBalancingObjective(a_zero)
        x = rng.standard_normal(4)
        assert o.value(x) - o_zero.value(x) == pytest.approx(np.trace(a))
        np.testing.assert_allclose(o.gradient(x), o_zero.gradient(x))

    def test_scaling_gradient_matches_fd(self):
        o = MatrixScalingObjective(np.random.default_rng(12).uniform(0, 1, (3, 3)))
        assert check_gradient(o, np.random.default_rng(13).standard_normal(6) * 0.5) <= 1e-6

    def test_shift_invariance(self):
        o = generate_synthetic("matrix_scaling", n=4, seed=14)
        rng = np.random.default_rng(15)
        z = rng.standard_normal(8)
        for c in (-2.0, 0.3, 1.7):
            shifted = z + c
            assert o.value(shifted) == pytest.approx(o.value(z), rel=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MatrixBalancingObjective(np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_declared_constant(self):
        o = generate_synthetic("matrix_balancing", n=3, seed=0)
        assert o.qsc_constant == pytest.approx(math.sqrt(2.0))


def _old_clamped_exp_weights(mass, exponents):
    """The weights as first written: a masked clamp scan and a select."""
    if np.any((mass > 0) & (exponents > 700.0)):
        warnings.warn("exponential sum argument clamped at 700", EvaluationOverflowWarning)
    return np.where(mass > 0, mass * np.exp(np.minimum(exponents, 700.0)), 0.0)


def _old_scaling_hessian(a, z):
    n = a.shape[0]
    w = _old_clamped_exp_weights(a, z[:n, None] - z[None, n:])
    top = np.concatenate([np.diag(w.sum(axis=1)), -w], axis=1)
    bottom = np.concatenate([-w.T, np.diag(w.sum(axis=0))], axis=1)
    return np.concatenate([top, bottom], axis=0)


def _old_balancing_hessian(a, x):
    w = _old_clamped_exp_weights(a, x[:, None] - x[None, :])
    return np.diag(w.sum(axis=1) + w.sum(axis=0)) - (w + w.T)


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _counted(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(issubclass(w.category, EvaluationOverflowWarning) for w in caught)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    z_scale=st.sampled_from([1.0, 300.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=3, zero_fraction=0.5, z_scale=300.0, seed=0)
def test_matrix_weights_and_hessians_are_bitwise_the_old_expressions(n, zero_fraction, z_scale, seed):
    # exact-zero masses, half of them -0.0 in the input; at z_scale 300 many
    # exponents pass the clamp, some of them on zero masses only
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, (n, n))
    zeros = rng.random((n, n)) < zero_fraction
    a[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    z = z_scale * rng.standard_normal(2 * n)
    stack = z_scale * rng.standard_normal((3, n, n))
    cases = [
        (a, z[:n, None] - z[None, n:]),
        (a, stack),
        (np.abs(a), stack),
    ]
    for mass, exponents in cases:
        expected, expected_warnings = _counted(_old_clamped_exp_weights, mass, exponents)
        # the objectives store -0.0 as +0.0, the product form's assumption
        got, got_warnings = _counted(_clamped_exp_weights, mass + 0.0, exponents)
        assert _bitwise_equal(got, expected)
        assert got_warnings == expected_warnings

    scaling, balancing = MatrixScalingObjective(a), MatrixBalancingObjective(a)
    for oracle, old, point in ((scaling, _old_scaling_hessian, z), (balancing, _old_balancing_hessian, z[:n])):
        expected, expected_warnings = _counted(old, a, point)
        got, got_warnings = _counted(oracle.hessian, point)
        assert _bitwise_equal(got, expected)
        assert got_warnings == expected_warnings


@pytest.mark.parametrize("kind", ["matrix_scaling", "matrix_balancing"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_objectives_at_a_non_finite_point(kind, bad):
    o = generate_synthetic(kind, n=4, seed=3, zero_fraction=0.3)
    z = np.random.default_rng(3).standard_normal(o.dim)
    z[1] = bad
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", EvaluationOverflowWarning)
        if kind == "matrix_scaling" and not np.isnan(bad):
            # x_i - y_j is +-inf: clamped at 700 or a zero weight, as before
            assert _bitwise_equal(o.hessian(z), _old_scaling_hessian(o._a, z))
        else:
            # a NaN exponent (balancing's x_1 - x_1 = inf - inf included) makes
            # its weight NaN, whatever the mass
            assert not np.isfinite(o.value(z))
            assert not np.isfinite(o.gradient(z)).all()
            assert not np.isfinite(o.hessian(z)).all()


def test_matrix_objectives_reject_nan_data():
    for cls in (MatrixScalingObjective, MatrixBalancingObjective):
        with pytest.raises(ValueError):
            cls(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestLoaders:
    def test_two_line_design(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0,0.5\n0,1,-0.5\n")
        rows, offsets = load_design_matrix(path)
        np.testing.assert_array_equal(rows, np.eye(2))
        np.testing.assert_array_equal(offsets, [0.5, -0.5])

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# header comment\n1,2,3\n")
        rows, offsets = load_design_matrix(path)
        assert rows.shape == (1, 2)
        assert offsets[0] == 3.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_design_matrix(path)

    def test_nan_token_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n1,nan,3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_design_matrix(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n1,2\n")
        with pytest.raises(DimensionError, match="line 2"):
            load_design_matrix(path)

    def test_matrix_loader_square(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(path), [[1, 2], [3, 4]])

    def test_matrix_loader_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(DimensionError):
            load_matrix(path)


class TestGenerators:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic("logistic", n=6, m=20, seed=42)
        b = generate_synthetic("logistic", n=6, m=20, seed=42)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a._offsets, b._offsets)

    def test_different_seed_differs(self):
        a = generate_synthetic("logistic", n=6, m=20, seed=42)
        b = generate_synthetic("logistic", n=6, m=20, seed=43)
        assert not np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a._offsets, b._offsets)

    def test_logistic_gram_metric_positive_definite(self):
        o = generate_synthetic("logistic", n=20, m=200, seed=1)
        # Cholesky succeeded during construction and no ridge was needed
        assert o.metric_ridge == 0.0
        assert np.linalg.eigvalsh(np.array(o.metric.matrix)).min() > 0

    def _singular_rows_that_factor(self):
        """Rank-deficient rows whose Gram matrix plain Cholesky factors."""
        # the eighth draw of soft-max n=6, m=3, seed 1: 3 rows in 6 columns,
        # a Gram matrix with an eigenvalue of -1.7e-16
        rng = np.random.default_rng(1)
        for _ in range(8):
            few = rng.standard_normal((3, 6)) / np.sqrt(6)
            rng.standard_normal(6), rng.standard_normal(3)
        # 12 rows whose sixth column is a combination of the other five
        rng = np.random.default_rng(13)
        base = rng.standard_normal((12, 5))
        dependent = np.hstack([base, base @ rng.standard_normal(5)[:, None]])
        return few, dependent

    def test_gram_metric_ridges_rank_deficient_rows(self):
        for rows in self._singular_rows_that_factor():
            metric, ridge = gram_metric(rows)
            assert ridge > 0
            assert np.linalg.eigvalsh(metric.matrix).min() > 0.5 * ridge

    @pytest.mark.parametrize("kind", ["softmax", "logistic", "exponential"])
    def test_gram_family_with_fewer_rows_than_columns_is_refused(self, kind):
        with pytest.raises(ValueError, match="m=3, n=6"):
            generate_synthetic(kind, n=6, m=3, seed=1)
        assert generate_synthetic(kind, n=6, m=6, seed=1).metric_ridge == 0.0

    def test_quadratic_declares_zero_constant(self):
        assert generate_synthetic("quadratic", n=4, seed=2).qsc_constant == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_synthetic("cubic", n=3)

    def test_matrix_zero_fraction(self):
        o = generate_synthetic("matrix_balancing", n=6, seed=3, zero_fraction=0.4)
        assert np.count_nonzero(o._a == 0.0) > 0


@pytest.mark.parametrize(
    "name", ["quadratic", "softmax", "logistic", "exponential", "matrix_scaling", "matrix_balancing"]
)
def test_zoo_instances_certify_their_constant(zoo, name):
    report = check_qsc(zoo[name], seed=0, num_samples=500)
    assert report.passed, f"{name}: {report}"


@pytest.mark.parametrize(
    "name", ["quadratic", "softmax", "logistic", "exponential", "matrix_scaling", "matrix_balancing"]
)
def test_zoo_derivatives_match_fd(zoo, name):
    o = zoo[name]
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvaluationOverflowWarning)
        for _ in range(100):
            x = rng.standard_normal(o.dim)
            assert check_gradient(o, x) <= 1e-5
            assert check_hessian(o, x) <= 1e-5
