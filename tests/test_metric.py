import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscnewton import (
    CompositeTerm,
    DualConfig,
    DualStatus,
    Metric,
    NonFiniteError,
    PrimalConfig,
    PrimalStatus,
    SingularSystemError,
    generate_synthetic,
    local_norm,
    min_generalized_eigenvalue,
    regularized_solve,
    solve_dual,
    solve_primal,
)
from qscnewton.metric import _pencil_eigh, symmetrize


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def solve(hessian, metric, beta, rhs):
    """`regularized_solve` of the system a Newton step forms from H and beta,
    symmetrize(H) + beta*B."""
    return regularized_solve(symmetrize(hessian) + beta * metric.matrix, metric, rhs)


class TestPrimalNorm:
    def test_identity_euclidean(self):
        assert Metric.identity(2).primal_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_diagonal_metric(self):
        b = Metric(np.diag([4.0, 1.0]))
        assert b.primal_norm(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(5.0))

    def test_zero_vector(self):
        assert Metric.identity(3).primal_norm(np.zeros(3)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Metric.identity(2).primal_norm(np.ones(3))


class TestDualNorm:
    def test_identity(self):
        assert Metric.identity(2).dual_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_diagonal(self):
        b = Metric(np.diag([4.0, 1.0]))
        assert b.dual_norm(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_matches_dense_inverse(self):
        # oracle: explicit matrix inverse at small n
        rng = np.random.default_rng(0)
        for n in (2, 5, 8):
            mat = random_spd(rng, n)
            s = rng.standard_normal(n)
            expected = np.sqrt(s @ np.linalg.inv(mat) @ s)
            assert Metric(mat).dual_norm(s) == pytest.approx(expected, rel=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(SingularSystemError):
            Metric(np.diag([1.0, -1.0]))

    def test_not_symmetric(self):
        with pytest.raises(ValueError):
            Metric(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestLocalNorm:
    def test_identity_hessian(self):
        assert local_norm(np.array([1.0, 0.0]), np.eye(2)) == 1.0

    def test_zero_hessian(self):
        assert local_norm(np.array([2.0, -3.0]), np.zeros((2, 2))) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        n = 6
        h = random_spd(rng, n)
        v = rng.standard_normal(n)
        direct = 0.0
        for i in range(n):
            for j in range(n):
                direct += v[i] * h[i, j] * v[j]
        assert local_norm(v, h) == pytest.approx(np.sqrt(direct))

    @pytest.mark.parametrize(
        "h, hessian",
        [
            (np.ones(3), np.eye(2)),
            (np.ones((2, 2)), np.eye(2)),
            (np.ones(2), np.ones((1, 2, 2))),
            (np.ones((3, 2)), np.ones((2, 2, 2))),
        ],
    )
    def test_dimension_mismatch(self, h, hessian):
        with pytest.raises(ValueError):
            local_norm(h, hessian)


class TestRegularizedSolve:
    def test_identity_case(self):
        d, _ = solve(np.eye(2), Metric.identity(2), 1.0, np.array([2.0, 2.0]))
        np.testing.assert_allclose(d, [1.0, 1.0])

    def test_diagonal_case(self):
        d, _ = solve(np.diag([2.0, 0.0]), Metric.identity(2), 1.0, np.array([3.0, 1.0]))
        np.testing.assert_allclose(d, [1.0, 1.0])

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(2)
        n = 6
        h = random_spd(rng, n)
        bmat = random_spd(rng, n)
        rhs = rng.standard_normal(n)
        beta = 0.7
        expected = np.linalg.inv(h + beta * bmat) @ rhs
        got, _ = solve(h, Metric(bmat), beta, rhs)
        assert np.linalg.norm(got - expected) <= 1e-9 * (1 + np.linalg.norm(expected))

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        n = 10
        h = random_spd(rng, n, scale=100.0)
        metric = Metric(random_spd(rng, n))
        rhs = rng.standard_normal(n) * 10
        d, _ = solve(h, metric, 0.3, rhs)
        res = np.linalg.norm((0.5 * (h + h.T) + 0.3 * metric.matrix) @ d - rhs)
        assert res <= 1e-10 * (np.linalg.norm(rhs) + 1)

    def test_jitter_ladder_solves_compatible_singular(self):
        # singular Hessian, rhs in its range: the ladder must succeed
        h = np.diag([1.0, 0.0])
        d, factor = solve(h, Metric.identity(2), 0.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-9)
        assert factor is None  # the unjittered system is not positive definite

    def test_singular_incompatible_raises(self):
        h = np.zeros((2, 2))
        with pytest.raises(SingularSystemError):
            solve(h, Metric.identity(2), 0.0, np.array([0.0, 1.0]))


class TestMinGeneralizedEigenvalue:
    def test_diagonal(self):
        assert min_generalized_eigenvalue(np.diag([1.0, 3.0]), Metric.identity(2)) == pytest.approx(1.0)

    def test_proportional_operators(self):
        rng = np.random.default_rng(4)
        b = random_spd(rng, 5)
        assert min_generalized_eigenvalue(2.0 * b, Metric(b)) == pytest.approx(2.0)

    def test_matches_dense_generalized_eigensolve(self):
        import scipy.linalg

        rng = np.random.default_rng(5)
        n = 6
        h = random_spd(rng, n)
        b = random_spd(rng, n)
        expected = scipy.linalg.eigh(h, b, eigvals_only=True)[0]
        assert min_generalized_eigenvalue(h, Metric(b)) == pytest.approx(expected, rel=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(6)
        n = 5
        h = random_spd(rng, n)
        b = random_spd(rng, n)
        t = rng.standard_normal((n, n)) + n * np.eye(n)
        lam1 = min_generalized_eigenvalue(h, Metric(b))
        lam2 = min_generalized_eigenvalue(t.T @ h @ t, Metric(t.T @ b @ t))
        assert lam1 == pytest.approx(lam2, rel=1e-8)

    def test_is_largest_feasible_shift(self):
        # H - (lam - eps) B PSD and H - (lam + eps) B not PSD
        rng = np.random.default_rng(7)
        n = 7
        h = random_spd(rng, n)
        b = random_spd(rng, n)
        lam = min_generalized_eigenvalue(h, Metric(b))
        eps = 1e-6 * (1 + lam)
        assert np.linalg.eigvalsh(h - (lam - eps) * b).min() >= -1e-9 * (1 + lam)
        assert np.linalg.eigvalsh(h - (lam + eps) * b).min() < 0

    def test_clamps_tiny_negative(self):
        # rank-deficient PSD matrix: eigensolver noise may go slightly negative
        a = np.outer(np.ones(3), np.ones(3))
        assert min_generalized_eigenvalue(a, Metric.identity(3)) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cauchy_schwarz_duality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    metric = Metric(random_spd(rng, n))
    h = rng.standard_normal(n)
    s = rng.standard_normal(n)
    assert s @ h <= metric.dual_norm(s) * metric.primal_norm(h) + 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dual_norm_of_bh_is_primal_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    metric = Metric(random_spd(rng, n))
    h = rng.standard_normal(n)
    assert metric.dual_norm(metric.apply(h)) == pytest.approx(metric.primal_norm(h), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=12),
)
def test_stacked_norms_are_bitwise_each_vectors_norm(seed, n, k):
    # rows of a strided view, as the certifier passes them, over ten decades
    rng = np.random.default_rng(seed)
    metric = Metric(random_spd(rng, n))
    h = rng.standard_normal((k, 3, n))[:, 1] * 10.0 ** rng.uniform(-5, 5, (k, 1))
    hessians = np.stack([random_spd(rng, n) for _ in range(k)])
    for norm, rows in (
        (metric.primal_norm, [metric.primal_norm(row) for row in h]),
        (metric.dual_norm, [metric.dual_norm(row) for row in h]),
        (lambda stack: local_norm(stack, hessians), [local_norm(row, hess) for row, hess in zip(h, hessians)]),
    ):
        stacked = norm(h)
        assert stacked.shape == (k,)
        assert np.array_equal(stacked, rows)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 2)])
def test_norms_reject_a_wrong_shape(shape):
    metric = Metric.identity(2)
    for norm in (metric.primal_norm, metric.dual_norm):
        with pytest.raises(ValueError):
            norm(np.ones(shape))
    with pytest.raises(ValueError):
        local_norm(np.ones(shape), np.eye(2))


# ---------------------------------------------------------------------------
# differential tests: the LAPACK route against scipy's cho_factor/cho_solve
# ---------------------------------------------------------------------------


def reference_regularized_solve(hessian, bmat, beta, rhs, max_jitter_retries=6):
    """`regularized_solve` written over scipy.linalg.cho_factor/cho_solve:
    the same jitter ladder, refinement step and residual contract.  Returns
    d and the lower triangle of the unjittered system's factor (None when
    that system is not positive definite)."""
    h = 0.5 * (hessian + hessian.T)
    system = h + beta * bmat
    tol = 1e-10 * (np.linalg.norm(rhs) + 1.0)
    delta = 0.0
    unjittered = None
    for _ in range(max_jitter_retries + 1):
        shifted = system if delta == 0.0 else system + delta * bmat
        try:
            factor = scipy.linalg.cho_factor(shifted, lower=True)
        except scipy.linalg.LinAlgError:
            delta = 1e-12 if delta == 0.0 else delta * 10.0
            continue
        if delta == 0.0:
            unjittered = np.tril(factor[0])
        d = scipy.linalg.cho_solve(factor, rhs)
        d += scipy.linalg.cho_solve(factor, rhs - shifted @ d)
        if np.linalg.norm(system @ d - rhs) <= tol:
            return d, unjittered
        delta = 1e-12 if delta == 0.0 else delta * 10.0
    raise SingularSystemError("reference ladder exhausted")


def _draw_system(rng, n, kind):
    """(H, B, beta, rhs) of one of three kinds: SPD; singular with rhs in
    the range of H and beta = 0 (the jitter ladder solves it); indefinite
    with beta = 0, its negative curvature beyond the ladder's largest
    shift, 1e-6 B."""
    bmat = random_spd(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    if kind == "spd":
        a = rng.standard_normal((n, n + 2))
        return a @ a.T, bmat, float(rng.choice([0.0, 1e-3, 0.7, 50.0])), rng.standard_normal(n)
    rank = int(rng.integers(0, n))  # rank < n
    a = rng.standard_normal((n, rank))
    if kind == "singular":
        return a @ a.T, bmat, 0.0, a @ rng.standard_normal(rank)
    # on the kernel of a a', the curvature is -(1 + max|B|) < -1e-6 w'Bw
    return a @ a.T - (1.0 + np.abs(bmat).max()) * np.eye(n), bmat, 0.0, rng.standard_normal(n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["spd", "singular", "indefinite"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=2, kind="singular", columns=2, seed=0)
@example(n=1, kind="indefinite", columns=1, seed=0)
def test_lapack_route_is_bitwise_equal_to_cho_factor(n, kind, columns, seed):
    rng = np.random.default_rng(seed)
    h, bmat, beta, rhs = _draw_system(rng, n, kind)
    metric = Metric(bmat)
    try:
        expected, expected_factor = reference_regularized_solve(h, metric.matrix, beta, rhs)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            solve(h, metric, beta, rhs)
    else:
        d, factor = solve(h, metric, beta, rhs)
        assert np.array_equal(d, expected)
        if expected_factor is None:
            assert factor is None
        else:
            assert np.array_equal(np.tril(factor), expected_factor)
    if kind == "indefinite":
        with pytest.raises(SingularSystemError):
            solve(h, metric, beta, rhs)

    chol = scipy.linalg.cho_factor(metric.matrix, lower=True)
    s = rng.standard_normal(n) if columns == 1 else rng.standard_normal((n, columns))
    assert np.array_equal(metric.solve(s), scipy.linalg.cho_solve(chol, s))
    vec = rng.standard_normal(n)
    expected_norm = np.sqrt(max(float(vec @ scipy.linalg.cho_solve(chol, vec)), 0.0))
    assert metric.dual_norm(vec) == expected_norm


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["hessian", "rhs"])
    def test_regularized_solve_rejects(self, bad, where):
        h, rhs = np.eye(3), np.ones(3)
        if where == "hessian":
            h[2, 1] = bad
        else:
            rhs[0] = bad
        with pytest.raises(NonFiniteError):
            solve(h, Metric.identity(3), 0.5, rhs)

    def test_non_finite_beta_rejected(self):
        with pytest.raises(NonFiniteError):
            solve(np.eye(2), Metric(np.array([[2.0, 1.0], [1.0, 2.0]])), np.inf, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["solve", "dual_norm"])
    def test_metric_rejects_a_non_finite_vector(self, bad, method):
        s = np.array([1.0, bad, 0.0])
        with pytest.raises(NonFiniteError):
            getattr(Metric(np.diag([1.0, 2.0, 3.0])), method)(s)

    def test_metric_matrix_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Metric(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_min_generalized_eigenvalue_rejects(self):
        with pytest.raises(NonFiniteError):
            min_generalized_eigenvalue(np.array([[1.0, np.nan], [np.nan, 1.0]]), Metric.identity(2))

    def test_is_a_value_error(self):
        assert issubclass(NonFiniteError, ValueError)


def test_solve_path_never_calls_cho_factor_or_cho_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the solve path must go straight to LAPACK")

    monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
    monkeypatch.setattr(scipy.linalg, "cho_solve", forbidden)
    o = generate_synthetic("logistic", n=8, m=40, seed=7)
    box = CompositeTerm.box(np.full(8, -0.05), np.full(8, 0.05))
    zero = CompositeTerm.zero()
    assert solve_primal(o, zero, np.zeros(8), PrimalConfig()).status is PrimalStatus.GRAD_TOL_REACHED
    assert solve_primal(o, box, np.zeros(8), PrimalConfig()).status is PrimalStatus.GRAD_TOL_REACHED
    dual = solve_dual(o, zero, np.zeros(8), DualConfig(qsc_constant=o.qsc_constant, grad_tol=1e-8))
    assert dual.status is DualStatus.GRAD_TOL_REACHED


# ---------------------------------------------------------------------------
# differential tests: the pencil route against scipy.linalg.eigh
# ---------------------------------------------------------------------------


def _draw_pencil(rng, n):
    """(A, B): A general (only its lower triangle is read), B positive
    definite in its lower triangle with junk above the diagonal, so a read of
    the wrong triangle shows."""
    scale = float(rng.choice([1e-6, 1.0, 1e4]))
    a = scale * rng.standard_normal((n, n))
    b = random_spd(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    return a, np.tril(b) + np.triu(rng.standard_normal((n, n)), 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
@example(n=1, seed=0)
@example(n=40, seed=0)
def test_pencil_eigh_is_bitwise_equal_to_scipy_eigh(n, seed):
    rng = np.random.default_rng(seed)
    a, b = _draw_pencil(rng, n)
    a_before, b_before = a.copy(), b.copy()
    assert np.array_equal(_pencil_eigh(a, b), scipy.linalg.eigh(a, b, eigvals_only=True))
    w, v = _pencil_eigh(a, b, vectors=True)
    expected_w, expected_v = scipy.linalg.eigh(a, b)
    assert np.array_equal(w, expected_w) and np.array_equal(v, expected_v)
    for index in (0, n - 1):
        subset = [index, index]
        expected = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=subset)
        assert np.array_equal(_pencil_eigh(a, b, index=index), expected)
        w, v = _pencil_eigh(a, b, vectors=True, index=index)
        expected_w, expected_v = scipy.linalg.eigh(a, b, subset_by_index=subset)
        assert np.array_equal(w, expected_w) and np.array_equal(v, expected_v)
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    # B not positive definite: None in every mode, where scipy raises
    k = int(rng.integers(n))
    b[k, k] = -float(rng.uniform(0.0, 1.0))
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.eigh(a, b, eigvals_only=True)
    for kwargs in ({}, {"vectors": True}, {"index": 0}, {"vectors": True, "index": n - 1}):
        assert _pencil_eigh(a, b, **kwargs) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a", "b"])
@pytest.mark.parametrize("kwargs", [{}, {"vectors": True}, {"index": 0}, {"vectors": True, "index": 2}])
def test_pencil_eigh_rejects_non_finite_input(bad, where, kwargs):
    a, b = np.diag([1.0, 2.0, 3.0]), np.eye(3)
    (a if where == "a" else b)[2, 0] = bad
    with pytest.raises(NonFiniteError):
        _pencil_eigh(a, b, **kwargs)
