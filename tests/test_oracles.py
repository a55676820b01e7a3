import math

import numpy as np
import pytest
import scipy.linalg

from qscnewton import (
    CountingOracle,
    Metric,
    add_oracles,
    affine_substitute,
    check_function_bounds,
    check_gradient,
    check_gradient_bound,
    check_hessian_stability,
    check_qsc,
    contract_oracle,
    min_generalized_eigenvalue,
    phi,
    run_instance_checks,
    scale_oracle,
    with_qsc_constant,
)
from qscnewton.metric import local_norm, symmetrize
from qscnewton.oracles import _QSC_CHUNK_ENTRIES, SmoothOracle, _refine_triple, chunk_size
from qscnewton import oracles, problems
from qscnewton.problems import KINDS, QuadraticObjective, SeparableObjective, generate_synthetic


class TestPhi:
    def test_value_at_one(self):
        assert phi(1.0) == pytest.approx(math.e - 2.0, abs=1e-15)

    def test_limit_at_zero(self):
        assert phi(0.0) == 0.5

    def test_value_at_minus_one(self):
        assert phi(-1.0) == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_branches_agree_with_high_precision_oracle(self):
        # mpmath at 50 digits as the independent reference on both sides of
        # the series cutoff
        import mpmath

        mpmath.mp.dps = 50
        for t in (1e-4, -1e-4, 9.9e-5, -9.9e-5, 2e-4, 1e-6):
            exact = float((mpmath.exp(t) - t - 1) / mpmath.mpf(t) ** 2)
            assert phi(t) == pytest.approx(exact, rel=1e-10)

    def test_monotone_and_convex_on_grid(self):
        grid = np.linspace(-10.0, 10.0, 2001)
        values = phi(grid)
        diffs = np.diff(values)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_vectorized(self):
        out = phi(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[1] == pytest.approx(math.e - 2.0)

    def test_a_scalar_gives_a_float_bitwise_its_array_entry(self):
        # 2.1e3 points: uniform out to |t| = 700, dense on both sides of the
        # series cutoff +-1e-4, log-spaced from 1e-12 to 700, and the edges
        rng = np.random.default_rng(0)
        cut = 1e-4
        edges = [cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0), 0.0, -0.0, 700.0]
        t = np.concatenate([
            rng.uniform(-700.0, 700.0, 600),
            rng.uniform(-3 * cut, 3 * cut, 600),
            np.exp(rng.uniform(np.log(1e-12), np.log(700.0), 900)) * rng.choice([-1.0, 1.0], 900),
            edges,
            np.negative(edges),
        ])
        expected = phi(t)
        scalar = np.array([phi(float(value)) for value in t])
        assert np.array_equal(scalar, expected)
        for value in (t[0], float(t[1]), 1, -3, True):
            out = phi(value)
            assert type(out) is float
            assert out == float(phi(np.array(value, dtype=float)))


class _Cubic(SmoothOracle):
    """f(x) = (w.x)^3 / 6 with exact constant third derivative w (x) w (x) w."""

    def __init__(self, w):
        super().__init__(Metric.identity(len(w)), 0.0)
        self._w = np.asarray(w, float)

    def value(self, x):
        return float(self._w @ x) ** 3 / 6.0

    def gradient(self, x):
        return 0.5 * float(self._w @ x) ** 2 * self._w

    def hessian(self, x):
        return float(self._w @ x) * np.outer(self._w, self._w)


def test_fd_third_derivative_on_cubic():
    # the default qsc forms must recover an exact constant third derivative
    rng = np.random.default_rng(0)
    w = rng.standard_normal(4)
    oracle = _Cubic(w)
    x = rng.standard_normal(4)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    exact = (w @ u) ** 2 * (w @ v)
    form, third = oracle.qsc_forms(x[None], u[None], v[None])
    assert form[0] == pytest.approx((w @ x) * (w @ u) ** 2, rel=1e-12)
    assert third[0] == pytest.approx(exact, abs=1e-6 * (1 + abs(exact)))


class TestScaleOracle:
    def test_identity_scale(self, zoo):
        o = zoo["logistic"]
        scaled = scale_oracle(o, 1.0)
        x = np.ones(o.dim) * 0.3
        assert scaled.value(x) == o.value(x)
        np.testing.assert_array_equal(scaled.gradient(x), o.gradient(x))

    def test_qsc_constant_unchanged(self, zoo):
        assert scale_oracle(zoo["logistic"], 10.0).qsc_constant == 1.0

    def test_triple_scaling_of_gradient(self):
        rng = np.random.default_rng(1)
        o = generate_synthetic("quadratic", n=5, seed=2)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(scale_oracle(o, 3.0).gradient(x), 3.0 * o.gradient(x))

    def test_nonpositive_rejected(self, zoo):
        with pytest.raises(ValueError):
            scale_oracle(zoo["quadratic"], 0.0)


def _rows(n=3, m=6):
    return np.random.default_rng(0).standard_normal((m, n)), np.zeros(m)


# every constructor of the oracle layer that takes a constant, each with a
# non-finite one: M >= 0 and the other constants > 0 must all be finite
_NON_FINITE_CONSTANTS = {
    "softmax": lambda o, bad: problems.SoftMaxObjective(*_rows(), bad),
    "generated-softmax": lambda o, bad: generate_synthetic("softmax", n=3, m=6, smoothing=bad),
    "with_qsc_constant": lambda o, bad: with_qsc_constant(o, bad),
    "norm_bound": lambda o, bad: affine_substitute(o, np.eye(o.dim), new_metric=o.metric, norm_bound=bad),
    "scale_oracle": lambda o, bad: scale_oracle(o, bad),
    "contract_oracle": lambda o, bad: contract_oracle(o, 0.5, np.zeros(o.dim), bad),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build", _NON_FINITE_CONSTANTS.values(), ids=_NON_FINITE_CONSTANTS.keys())
def test_non_finite_constants_are_refused(build, bad):
    with pytest.raises(ValueError):
        build(generate_synthetic("logistic", n=3, m=6, seed=0), bad)


class TestAffineSubstitute:
    def test_identity_substitution(self, zoo):
        o = zoo["softmax"]
        sub = affine_substitute(o, np.eye(o.dim))
        x = np.full(o.dim, 0.2)
        assert sub.value(x) == pytest.approx(o.value(x))
        np.testing.assert_allclose(sub.gradient(x), o.gradient(x))
        np.testing.assert_allclose(sub.hessian(x), o.hessian(x))
        assert sub.qsc_constant == o.qsc_constant

    def test_contraction_with_kept_metric_scales_constant(self, zoo):
        o = zoo["logistic"]
        gamma = 0.25
        sub = affine_substitute(
            o, gamma * np.eye(o.dim), new_metric=o.metric, norm_bound=gamma
        )
        assert sub.qsc_constant == pytest.approx(gamma * o.qsc_constant)

    def test_one_dimensional_exponential(self):
        # f(t) = e^t composed with t = 2x: second derivative 4 e^{2x}
        o = SeparableObjective(np.array([[1.0]]), np.array([0.0]), "exponential")
        sub = affine_substitute(o, np.array([[2.0]]))
        x = np.array([0.3])
        assert sub.hessian(x)[0, 0] == pytest.approx(4.0 * math.exp(0.6), rel=1e-12)
        assert check_gradient(sub, x) < 1e-8

    def test_metric_override_needs_bound(self, zoo):
        with pytest.raises(ValueError):
            affine_substitute(zoo["quadratic"], np.eye(8), new_metric=Metric.identity(8))


class TestContractOracle:
    def test_gradient_consistency(self, zoo):
        o = zoo["logistic"]
        anchor = np.full(o.dim, 0.1)
        c = contract_oracle(o, 0.4, anchor, 2.5)
        assert check_gradient(c, np.full(o.dim, -0.2)) < 1e-7

    def test_quadratic_keeps_zero_constant(self, zoo):
        c = contract_oracle(zoo["quadratic"], 0.5, np.zeros(8), 3.0)
        assert c.qsc_constant == 0.0

    def test_logistic_constant_contracts(self, zoo):
        c = contract_oracle(zoo["logistic"], 0.25, np.zeros(8), 1.0)
        assert c.qsc_constant == pytest.approx(0.25)

    def test_value_formula(self, zoo):
        o = zoo["softmax"]
        anchor = np.full(o.dim, 0.3)
        x = np.full(o.dim, -0.7)
        c = contract_oracle(o, 0.6, anchor, 4.0)
        assert c.value(x) == pytest.approx(4.0 * o.value(0.6 * x + 0.4 * anchor))

    def test_gamma_out_of_range(self, zoo):
        with pytest.raises(ValueError):
            contract_oracle(zoo["quadratic"], 1.0, np.zeros(8), 1.0)


class TestCombinatorFormulasBitwise:
    """Each combinator reproduces its literal formula to the last bit."""

    def _points(self, o, count=3):
        rng = np.random.default_rng(17)
        return [0.5 * rng.standard_normal(o.dim) for _ in range(count)]

    def test_scale_oracle(self, zoo):
        for name in ("softmax", "logistic", "matrix_scaling"):
            o = zoo[name]
            factor = 2.7
            scaled = scale_oracle(o, factor)
            assert scaled.metric is o.metric and scaled.qsc_constant == o.qsc_constant
            for x in self._points(o):
                assert scaled.value(x) == factor * o.value(x)
                np.testing.assert_array_equal(scaled.gradient(x), factor * o.gradient(x))
                np.testing.assert_array_equal(scaled.hessian(x), factor * o.hessian(x))

    def test_affine_substitute(self, zoo):
        o = zoo["logistic"]
        rng = np.random.default_rng(3)
        a = rng.standard_normal((o.dim, 5))
        b = 0.1 * rng.standard_normal(o.dim)
        induced = affine_substitute(o, a, b)
        np.testing.assert_array_equal(
            induced.metric.matrix, Metric(a.T @ o.metric.matrix @ a).matrix
        )
        assert induced.qsc_constant == o.qsc_constant
        kept = affine_substitute(o, a, b, new_metric=Metric.identity(5), norm_bound=3.5)
        assert kept.qsc_constant == o.qsc_constant * 3.5
        no_offset = affine_substitute(o, a)
        for x in self._points(kept):
            inner = a @ x - b
            for sub in (induced, kept):
                assert sub.value(x) == o.value(inner)
                np.testing.assert_array_equal(sub.gradient(x), a.T @ o.gradient(inner))
                np.testing.assert_array_equal(sub.hessian(x), a.T @ o.hessian(inner) @ a)
            np.testing.assert_array_equal(no_offset.hessian(x), a.T @ o.hessian(a @ x) @ a)

    def test_contract_oracle(self, zoo):
        for name in ("softmax", "logistic", "matrix_balancing"):
            o = zoo[name]
            gamma, scale = 0.3, 7.5
            anchor = np.linspace(-0.4, 0.6, o.dim)
            c = contract_oracle(o, gamma, anchor, scale)
            assert c.metric is o.metric and c.qsc_constant == gamma * o.qsc_constant
            grad_factor = scale * gamma
            hess_factor = scale * gamma**2
            for x in self._points(o):
                inner = gamma * x + (1.0 - gamma) * anchor
                assert c.value(x) == scale * o.value(inner)
                np.testing.assert_array_equal(c.gradient(x), grad_factor * o.gradient(inner))
                np.testing.assert_array_equal(c.hessian(x), hess_factor * o.hessian(inner))

    def test_with_qsc_constant(self, zoo):
        o = zoo["exponential"]
        declared = with_qsc_constant(o, 0.125)
        assert declared.metric is o.metric and declared.qsc_constant == 0.125
        for x in self._points(o):
            assert declared.value(x) == o.value(x)
            np.testing.assert_array_equal(declared.gradient(x), o.gradient(x))
            np.testing.assert_array_equal(declared.hessian(x), o.hessian(x))


class TestSumOracle:
    def test_sum_constant_is_max(self, zoo):
        o = zoo["logistic"]
        bump = QuadraticObjective(0.2 * o.metric.matrix, np.zeros(o.dim), metric=o.metric)
        total = add_oracles(o, bump)
        assert total.qsc_constant == 1.0
        x = np.full(o.dim, 0.4)
        assert total.value(x) == pytest.approx(o.value(x) + bump.value(x))

    def test_mismatched_metrics_rejected(self, zoo):
        other = QuadraticObjective(np.eye(8), np.zeros(8))
        with pytest.raises(ValueError):
            add_oracles(zoo["logistic"], other)


class TestCheckGradient:
    def test_quadratic_is_exact(self, zoo):
        assert check_gradient(zoo["quadratic"], np.ones(8) * 0.5) <= 1e-9

    def test_logistic(self, zoo):
        assert check_gradient(zoo["logistic"], np.ones(8) * 0.2) <= 1e-6

    def test_softmax(self, zoo):
        assert check_gradient(zoo["softmax"], np.ones(8) * -0.3) <= 1e-6


class TestCheckQsc:
    def test_quadratic_estimates_vanish(self, zoo):
        report = check_qsc(zoo["quadratic"], seed=0, num_samples=200)
        assert report.passed
        assert abs(report.max_violation) <= 1e-8

    def test_matrix_balancing_declared_constant(self, zoo):
        report = check_qsc(zoo["matrix_balancing"], seed=1, num_samples=1000)
        assert report.passed

    def test_undersized_logistic_constant_fails(self):
        # near-square design: the true constant is close to 1, so 0.5 must fail
        o = generate_synthetic("logistic", n=2, m=4, seed=3)
        report = check_qsc(with_qsc_constant(o, 0.5), seed=0, num_samples=2000)
        assert not report.passed
        assert report.max_violation > report.tolerance
        x, u, v = report.worst_triple
        assert x.shape == u.shape == v.shape == (2,)

    def test_deterministic_for_fixed_seed(self, zoo):
        a = check_qsc(zoo["logistic"], seed=5, num_samples=300)
        b = check_qsc(zoo["logistic"], seed=5, num_samples=300)
        assert a.max_violation == b.max_violation
        assert a.samples == b.samples


class TestHessianStability:
    def test_same_point(self, zoo):
        ok, margin = check_hessian_stability(zoo["logistic"], np.zeros(8), np.zeros(8))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_equality(self, zoo):
        rng = np.random.default_rng(2)
        ok, margin = check_hessian_stability(
            zoo["quadratic"], rng.standard_normal(8), rng.standard_normal(8)
        )
        assert ok
        # identical Hessians: the bound holds with full slack Mr = 0 used
        assert margin == pytest.approx(0.0, abs=1e-9)

    def test_logistic_ratio_within_exponent(self, zoo):
        o = zoo["logistic"]
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8) * 0.5
        d = rng.standard_normal(8)
        d *= 0.5 / o.metric.primal_norm(d)
        ok, margin = check_hessian_stability(o, x, x + d)
        assert ok
        assert margin >= 0.0


    def test_close_pairs_with_a_hessian_kernel_pass(self):
        # matrix scaling's Hessian has the all-ones kernel at every point; its
        # roundoff curvature must not fail pairs whose bound M r is tiny
        o = generate_synthetic("matrix_scaling", n=20, seed=512383483)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(40)
            d = rng.standard_normal(40)
            ok, margin = check_hessian_stability(o, x, x + 1e-6 * d / np.linalg.norm(d))
            assert ok, margin

    def test_roundoff_allowance_hides_no_violation(self):
        # with M/4 declared, every pair whose Hessian ratio exceeds exp(M r / 4)
        # by a visible amount is still rejected
        base = generate_synthetic("matrix_scaling", n=20, seed=512383483)
        o = with_qsc_constant(base, base.qsc_constant / 4)
        rng = np.random.default_rng(5)
        rejected = 0
        for _ in range(20):
            x = rng.standard_normal(40)
            d = rng.standard_normal(40)
            y = x + d / np.linalg.norm(d)
            hx, hy = base.hessian(x), base.hessian(y)
            shift = 1e-12 * max(np.abs(hx).max(), np.abs(hy).max()) * np.eye(40)
            eigs = scipy.linalg.eigh(hy + shift, hx + shift, eigvals_only=True)
            excess = np.abs(np.log(eigs)).max() - o.qsc_constant
            ok, margin = check_hessian_stability(o, x, y)
            if excess > 1e-6:
                rejected += 1
                assert not ok
                assert margin == pytest.approx(-excess, rel=1e-6)
        assert rejected >= 10


class TestIndefiniteHessian:
    """A Hessian that is not PSD fails the certificate instead of raising."""

    def test_hessian_stability_fails_at_every_pair(self):
        o = QuadraticObjective(np.diag([1.0, -1.0, 2.0]), np.zeros(3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert check_hessian_stability(o, x, y) == (False, -np.inf)

    def test_run_instance_checks_reports_it(self):
        o = QuadraticObjective(np.diag([1.0, -1.0, 2.0]), np.zeros(3))
        results = run_instance_checks(o, samples=50, pairs=5)
        assert results["hessian_stability"] == {"passed": False, "pairs": 5, "worst_margin": -math.inf}

    def test_refinement_stops_where_the_hessian_is_indefinite(self):
        # at w.x < 0 the cubic's Hessian (w.x) w w^T is negative semidefinite,
        # so the round's eigensolve meets an indefinite H(x) + shift and stops
        # with u as it was and v along the tensor slice w
        rng = np.random.default_rng(1)
        w = rng.standard_normal(4)
        oracle = _Cubic(w)
        x = -w
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        _, u_out, v_out = _refine_triple(oracle, x, u, v, rounds=3)
        assert u_out is u
        np.testing.assert_allclose(v_out, w / np.linalg.norm(w), rtol=1e-6)
        assert check_qsc(oracle, num_samples=50).samples == 55


def test_certifier_never_calls_scipy_eigh(monkeypatch, zoo):
    def forbidden(*args, **kwargs):
        raise AssertionError("the certifier must go straight to LAPACK")

    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
    for name, oracle in zoo.items():
        results = run_instance_checks(oracle, samples=100, pairs=20)
        assert all(res["passed"] for res in results.values()), (name, results)
    o = zoo["logistic"]
    assert min_generalized_eigenvalue(o.hessian(np.zeros(o.dim)), o.metric) > 0.0


class TestSmoothnessBounds:
    @pytest.mark.parametrize("name", ["quadratic", "logistic", "softmax", "matrix_scaling"])
    def test_gradient_bound_random_pairs(self, zoo, name):
        o = zoo[name]
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(o.dim)
            d = rng.standard_normal(o.dim)
            d *= rng.uniform(0, 2.0) / o.metric.primal_norm(d)
            ok, _ = check_gradient_bound(o, x, x + d)
            assert ok

    def test_gradient_bound_quadratic_lhs_zero(self, zoo):
        o = zoo["quadratic"]
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        ok, slack = check_gradient_bound(o, x, y)
        assert ok
        assert slack == pytest.approx(1e-8, abs=1e-10)  # lhs is exactly zero

    @pytest.mark.parametrize("name", ["quadratic", "logistic", "matrix_scaling"])
    def test_function_bounds_random_pairs(self, zoo, name):
        o = zoo[name]
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(o.dim)
            d = rng.standard_normal(o.dim)
            d *= rng.uniform(0, 2.0) / o.metric.primal_norm(d)
            ok, _ = check_function_bounds(o, x, x + d)
            assert ok

    def test_function_bounds_quadratic_tight(self, zoo):
        # both model sides collapse onto 1/2 r_x^2 when M = 0 (phi(0) = 1/2)
        o = zoo["quadratic"]
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        gap = o.value(y) - o.value(x) - o.gradient(x) @ (y - x)
        from qscnewton import local_norm

        assert gap == pytest.approx(0.5 * local_norm(y - x, o.hessian(x)) ** 2, rel=1e-9)


# ---------------------------------------------------------------------------
# the batched certifier against the per-sample one it replaced
# ---------------------------------------------------------------------------


def _per_sample_check_qsc(oracle, seed=0, num_samples=1000, x_scale=1.0, refine_top=5, refine_rounds=3):
    """check_qsc one sample at a time from three full Hessians each, as it
    was before the Hessian-vector batching.  Returns (passed, max_violation,
    tolerance, worst_triple, samples)."""
    rng = np.random.default_rng(seed)
    n, metric, m_const = oracle.dim, oracle.metric, oracle.qsc_constant

    def step(x):
        return 1e-4 * (1.0 + metric.primal_norm(x))

    def evaluate(x, u, v):
        t = step(x)
        est = float(u @ (oracle.hessian(x + t * v) - oracle.hessian(x - t * v)) @ u) / (2.0 * t)
        unorm2 = local_norm(u, oracle.hessian(x)) ** 2
        return est - m_const * unorm2, 1e-4 * (1.0 + m_const * unorm2)

    records = []  # (violation, tolerance, triple) in evaluation order
    for _ in range(num_samples):
        x = x_scale * rng.standard_normal(n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v = v / max(metric.primal_norm(v), 1e-300)
        records.append((*evaluate(x, u, v), (x, u, v)))
    for _, _, (x, u, v) in sorted(records, key=lambda r: r[1] - r[0])[: max(refine_top, 1)]:
        for _ in range(refine_rounds):
            t = step(x)
            slice_vec = (oracle.hessian(x + t * u) - oracle.hessian(x - t * u)) @ u / (2.0 * t)
            if metric.dual_norm(slice_vec) < 1e-14:
                break
            v = metric.solve(slice_vec)
            v = v / max(metric.primal_norm(v), 1e-300)
            form = symmetrize((oracle.hessian(x + t * v) - oracle.hessian(x - t * v)) / (2.0 * t))
            hx = symmetrize(oracle.hessian(x))
            shift = 1e-10 * (1.0 + np.abs(hx).max())
            try:
                _, vecs = scipy.linalg.eigh(form, hx + shift * np.eye(n), subset_by_index=[n - 1, n - 1])
            except scipy.linalg.LinAlgError:
                break
            u = vecs[:, 0]
        records.append((*evaluate(x, u, v), (x, u, v)))
    violation, tol, triple = max(records, key=lambda r: r[0] - r[1])  # the first of equal excesses
    return violation <= tol, violation, tol, triple, len(records)


_CERTIFY_SIZES = {"quadratic": dict(n=6), "matrix_scaling": dict(n=4), "matrix_balancing": dict(n=6)}
_CONTROLS = {"exponential": 1 / 8, "matrix_scaling": 1 / 4, "matrix_balancing": 1 / 4}
_CERTIFY_CASES = [(kind, seed, None) for kind in KINDS for seed in range(5)] + [
    (kind, seed, fraction) for kind, fraction in _CONTROLS.items() for seed in range(5)
]


def _certify_instance(kind, seed):
    return generate_synthetic(kind, seed=seed, **_CERTIFY_SIZES.get(kind, dict(n=6, m=40)))


class _FdOnly(SmoothOracle):
    """An oracle that does not override qsc_forms, delegating the rest: the
    certifier takes the default's finite differences on it."""

    def __init__(self, base):
        super().__init__(base.metric, base.qsc_constant)
        self._base = base

    @property
    def point_entries(self):
        return self._base.point_entries

    def value(self, x):
        return self._base.value(x)

    def gradient(self, x):
        return self._base.gradient(x)

    def hessian(self, x):
        return self._base.hessian(x)

    def hessian_vector(self, x, u):
        return self._base.hessian_vector(x, u)


class TestBatchedCheckQsc:
    @pytest.mark.parametrize("kind, seed, control", _CERTIFY_CASES)
    def test_matches_per_sample_certifier(self, kind, seed, control):
        # the finite-difference path of check_qsc, on an oracle without
        # closed forms, against the per-sample reference it replaced
        oracle = _certify_instance(kind, seed)
        if control is not None:
            oracle = with_qsc_constant(oracle, control * oracle.qsc_constant)
        passed, violation, tol, (x, u, v), samples = _per_sample_check_qsc(oracle, seed=seed, num_samples=300)
        report = check_qsc(_FdOnly(oracle), seed=seed, num_samples=300)
        assert report.passed == passed
        assert report.samples == samples
        assert abs(report.max_violation - violation) <= 1e-10 * (1.0 + abs(violation))
        assert report.tolerance == pytest.approx(tol, rel=1e-10)
        # the same sample: x is never refined; u and v agree up to roundoff,
        # u only as the Hessian sees it (up to sign, and up to a component in
        # the kernel that the matrix problems' Hessians share at every point)
        bx, bu, bv = report.worst_triple
        np.testing.assert_array_equal(bx, x)
        hx = oracle.hessian(x)
        seen = min(np.abs(hx @ (bu - u)).max(), np.abs(hx @ (bu + u)).max())
        assert seen <= 1e-9 * np.abs(hx @ u).max()
        assert np.abs(bv - v).max() <= 1e-9 * np.abs(v).max()
        if control is not None:
            assert not passed

    @pytest.mark.parametrize("kind, seed, control", _CERTIFY_CASES)
    def test_closed_forms_keep_the_outcome(self, kind, seed, control):
        # the zoo's closed forms against the finite-difference path: the
        # same verdict, and violations that move by the finite difference's
        # error, a relative t^2 ~ 1e-7 of D^3 f: far below the tolerance
        # where the constant holds, and of the violation's size where not
        oracle = _certify_instance(kind, seed)
        if control is not None:
            oracle = with_qsc_constant(oracle, control * oracle.qsc_constant)
        exact = check_qsc(oracle, seed=seed, num_samples=300)
        fd = check_qsc(_FdOnly(oracle), seed=seed, num_samples=300)
        assert exact.passed == fd.passed == (control is None)
        assert exact.max_violation == pytest.approx(fd.max_violation, rel=1e-6, abs=1e-3 * fd.tolerance)

    def test_no_hessian_vector_call_exceeds_the_chunk_budget(self):
        shapes = []

        class Spy(_FdOnly):
            def hessian_vector(self, x, u):
                shapes.append(np.shape(x))
                return self._base.hessian_vector(x, u)

        for base in (generate_synthetic("matrix_scaling", n=20, seed=1), generate_synthetic("logistic", n=20, m=400, seed=1)):
            shapes.clear()
            report = check_qsc(Spy(base), seed=0, num_samples=1000)
            assert report.passed
            entries = [np.prod(shape[:-1]) * shape[-1] ** 2 for shape in shapes]
            assert max(entries) <= _QSC_CHUNK_ENTRIES
            assert sum(np.prod(shape[:-1]) for shape in shapes) >= 3 * 1000  # every sample's three forms
            assert len(shapes) > 3  # the samples went through in several chunks

    def test_qsc_forms_are_forwarded_and_counted(self):
        # the combinators and CountingOracle pass qsc_forms to what they
        # wrap: the zoo's closed forms, or the default's finite differences
        # of an oracle without them; each call counts once as "third_order"
        base = generate_synthetic("softmax", n=4, m=12, seed=1)
        x, u, v = np.random.default_rng(2).standard_normal((3, 3, 4))
        for inner in (base, _FdOnly(base)):
            counting = CountingOracle(inner)
            for oracle in (scale_oracle(counting, 2.0), add_oracles(counting, counting)):
                oracle.qsc_forms(x, u, v)
            forms = with_qsc_constant(counting, 1.0).qsc_forms(x, u, v)
            np.testing.assert_array_equal(forms, inner.qsc_forms(x, u, v))
            counting.qsc_forms(x[:1], u[:1], v[:1])
            assert counting.calls == {"value": 0, "gradient": 0, "hessian": 0, "hessian_vector": 0, "third_order": 5}

    @pytest.mark.parametrize("undersized", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_sampled_phase_makes_no_hessian_vector_calls(self, monkeypatch, kind, undersized):
        """check_qsc on CountingOracle(base), bare and under an undersized
        declared constant as `certify` composes them: with refinement off it
        calls only qsc_forms, once per chunk and once for the refined
        triples, with closed forms or without (the default makes its
        products inside the call); refinement adds the same calls to both."""
        base = _certify_instance(kind, 1)
        samples = 300
        sampled_calls = -(-samples // chunk_size(base, 3)) + 1
        calls = {}
        for path, wrap in (("exact", lambda o: o), ("fd", _FdOnly)):
            for rounds in (0, 3):
                monkeypatch.setattr(oracles, "_QSC_REFINE_ROUNDS", rounds)
                counting = CountingOracle(wrap(base))
                oracle = with_qsc_constant(counting, base.qsc_constant / 4) if undersized else counting
                check_qsc(oracle, seed=2, num_samples=samples)
                calls[path, rounds] = counting.calls
        zero = {"value": 0, "gradient": 0, "hessian": 0, "hessian_vector": 0}
        assert calls["exact", 0] == {**zero, "third_order": sampled_calls}
        assert calls["exact", 3]["third_order"] == sampled_calls
        for rounds in (0, 3):
            assert calls["fd", rounds] == calls["exact", rounds]

    def test_worst_sample_ties_go_to_the_earlier_sample(self):
        # every sample of a quadratic has violation 0 and tolerance 1e-4, so
        # the first sample is both the worst and the first one refined
        o = generate_synthetic("quadratic", n=4, seed=0)
        report = check_qsc(o, seed=3, num_samples=50)
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal(report.worst_triple[0], rng.standard_normal(4))


def test_a_gram_familys_chunks_count_its_rows(monkeypatch):
    # logistic with n = 5 and m = 10^4: at 25 entries a point, a pair chunk
    # held 654 points, and each derived array of one call 52 MB; at 10^4
    # entries a point each call holds one pair, as few as the checks allow
    base = generate_synthetic("logistic", n=5, m=10_000, seed=1)
    assert base.point_entries == 10_000 and chunk_size(base, 2) == 1
    assert generate_synthetic("logistic", n=20, m=400, seed=1).point_entries == 400  # certify's size: unchanged
    assert generate_synthetic("matrix_scaling", n=4, seed=1).point_entries == 64
    points = []
    for method in ("value", "gradient", "hessian"):
        bound = getattr(base, method)

        def spy(x, bound=bound):
            points.append(np.size(x) // base.dim)
            return bound(x)

        monkeypatch.setattr(base, method, spy)
    results = run_instance_checks(CountingOracle(base), seed=0, samples=20, pairs=10)
    assert all(result["passed"] for result in results.values())
    assert max(points) == 2
