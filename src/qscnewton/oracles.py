"""Smooth oracle contract, oracle combinators, and numeric smoothness checks.

A smooth oracle evaluates a convex function together with its gradient and
Hessian, carries the metric it is measured against, and declares a certified
bound M on its quasi-self-concordance, i.e. a constant with

    D^3 f(x)[u, u, v]  <=  M * <H(x)u, u> * ||v||        for all u, v.

The checkers in this module certify such declarations by finite differences:
the declared M is validated as an upper bound, not as the minimal constant.
"""

from __future__ import annotations

import abc
import functools
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .metric import Metric, _pencil_eigh, local_norm, matvec, symmetrize

_PHI_SERIES_CUTOFF = 1e-4


def phi(t):
    """(e^t - t - 1) / t^2, the profile of the second-order global models.

    Convex, positive, and monotone increasing, with phi(0) = 1/2 by the
    removable singularity.  Below |t| = 1e-4 the direct formula cancels
    catastrophically, so a 4-term series 1/2 + t/6 + t^2/24 + t^3/120 is used.
    Accepts scalars or arrays.

    A Python or numpy float (or int) takes a scalar branch that skips the
    0-d array round trip; the certifiers call phi once per pair check.  It
    applies the same numpy ufuncs (``expm1``, ``square``, ``power``) to an
    ``np.float64``, so its result is bitwise that of the array path.
    ``math.expm1`` and ``t * t`` are not: they can differ from numpy's loops
    in the last bit.
    """
    if isinstance(t, (int, float)):
        t = np.float64(t)
        if abs(t) < _PHI_SERIES_CUTOFF:
            return float(0.5 + t / 6.0 + np.square(t) / 24.0 + np.power(t, 3) / 120.0)
        return float((np.expm1(t) - t) / np.square(t))
    arr = np.asarray(t, dtype=float)
    small = np.abs(arr) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, arr)
    direct = (np.expm1(safe) - safe) / safe**2
    series = 0.5 + arr / 6.0 + arr**2 / 24.0 + arr**3 / 120.0
    out = np.where(small, series, direct)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


# the test a value within each JSON-schema bound keyword's limit passes
_BOUND_TESTS = {
    "minimum": operator.ge,
    "exclusiveMinimum": operator.gt,
    "exclusiveMaximum": operator.lt,
}


def param(json_type: str, default=MISSING, **bound):
    """A solver config field that a run config may set.

    `json_type` ("number", "integer" or "boolean") and the `_BOUND_TESTS`
    keywords in `bound` are the field's JSON-schema fragment: the harness
    builds its config schema from it, and `check_bounds` enforces it.  A
    field declared without `param`, such as `f_star_ref`, is library-only.
    """
    return field(default=default, metadata={"schema": {"type": json_type, **bound}})


def config_params(config_type) -> dict:
    """Name -> schema fragment of each `param` field of a config dataclass."""
    return {f.name: f.metadata["schema"] for f in fields(config_type) if "schema" in f.metadata}


@functools.cache
def _bounds(config_type) -> tuple:
    # once per class: `solve_accelerated` builds a DualConfig per outer iteration
    return tuple(
        (name, keyword, _BOUND_TESTS[keyword], limit)
        for name, fragment in config_params(config_type).items()
        for keyword, limit in fragment.items()
        if keyword != "type"
    )


def check_bounds(config) -> None:
    """Raise `ValueError` for a `param` field of `config` outside its bound
    (NaN is outside every bound); a None value is not checked."""
    for name, keyword, test, limit in _bounds(type(config)):
        value = getattr(config, name)
        if value is not None and not test(value, limit):
            raise ValueError(f"{name} = {value!r} is outside its bound {keyword} {limit}")


class SmoothOracle(abc.ABC):
    """Evaluation contract for the smooth component of a composite problem."""

    def __init__(self, metric: Metric, qsc_constant: float) -> None:
        if qsc_constant < 0:
            raise ValueError("qsc constant must be nonnegative")
        self._metric = metric
        self._qsc_constant = float(qsc_constant)

    @property
    def metric(self) -> Metric:
        return self._metric

    @property
    def dim(self) -> int:
        return self._metric.dim

    @property
    def qsc_constant(self) -> float:
        """Certified (not necessarily minimal) quasi-self-concordance bound."""
        return self._qsc_constant

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float:
        ...

    @abc.abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        ...

    @abc.abstractmethod
    def hessian(self, x: np.ndarray) -> np.ndarray:
        ...

    def hessian_vector(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """H(x) u, broadcast over leading axes.

        `x` and `u` have the same shape (..., n); the result has that shape
        too, each row H(x_i) u_i.  This default forms every Hessian; the zoo
        overrides it with products that never assemble one.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim == 1:
            return self.hessian(x) @ u
        flat = zip(x.reshape(-1, x.shape[-1]), u.reshape(-1, u.shape[-1]))
        return np.array([self.hessian(xi) @ ui for xi, ui in flat]).reshape(u.shape)


class _TransformedOracle(SmoothOracle):
    """scale * f(T x + shift) over a given metric with a declared qsc constant.

    T is None (the identity), a scalar or a matrix.  A scalar T folds into the
    derivative factors scale * T and scale * T**2.  A derivative factor of
    exactly 1 is not applied, so pass-through derivatives are not copied.
    """

    def __init__(self, base, metric, qsc_constant, scale=1.0, transform=None, shift=None):
        super().__init__(metric, qsc_constant)
        self._base = base
        self._scale = float(scale)
        self._matrix = transform if np.ndim(transform) == 2 else None
        self._t = None if self._matrix is not None else transform
        t = 1.0 if self._t is None else self._t
        self._grad_factor = self._scale * t
        self._hess_factor = self._scale * t**2
        self._shift = shift

    def _inner(self, x):
        if self._matrix is not None:
            x = matvec(self._matrix, x)
        elif self._t is not None:
            x = self._t * x
        return x if self._shift is None else x + self._shift

    def value(self, x):
        return self._scale * self._base.value(self._inner(x))

    def gradient(self, x):
        g = self._base.gradient(self._inner(x))
        if self._matrix is not None:
            g = self._matrix.T @ g
        return g if self._grad_factor == 1.0 else self._grad_factor * g

    def hessian(self, x):
        h = self._base.hessian(self._inner(x))
        if self._matrix is not None:
            h = self._matrix.T @ h @ self._matrix
        return h if self._hess_factor == 1.0 else self._hess_factor * h

    def hessian_vector(self, x, u):
        if self._matrix is None:
            hu = self._base.hessian_vector(self._inner(x), u)
        else:
            inner_u = matvec(self._matrix, u)
            hu = matvec(self._matrix.T, self._base.hessian_vector(self._inner(x), inner_u))
        return hu if self._hess_factor == 1.0 else self._hess_factor * hu


def scale_oracle(oracle: SmoothOracle, factor: float) -> SmoothOracle:
    """Multiply an oracle by a positive constant; the qsc constant is unchanged."""
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return _TransformedOracle(oracle, oracle.metric, oracle.qsc_constant, scale=factor)


def affine_substitute(
    oracle: SmoothOracle,
    transform,
    offset=None,
    new_metric: Metric | None = None,
    norm_bound: float | None = None,
) -> SmoothOracle:
    """Compose an oracle with x -> Ax - b.

    With the induced metric A^T B A (the default) the qsc constant carries
    over unchanged.  A caller may instead supply any PD `new_metric` together
    with `norm_bound` kappa such that ``||.||_{A^T B A} <= kappa ||.||_new``;
    the stored constant then becomes ``M * kappa``.
    """
    a = np.asarray(transform, dtype=float)
    if a.ndim != 2 or a.shape[0] != oracle.dim:
        raise ValueError(
            f"transform shape {a.shape} incompatible with oracle dimension {oracle.dim}"
        )
    b = np.zeros(oracle.dim) if offset is None else np.asarray(offset, dtype=float)
    if b.shape != (oracle.dim,):
        raise ValueError("offset dimension does not match oracle dimension")
    if new_metric is None:
        metric, qsc_constant = Metric(a.T @ oracle.metric.matrix @ a), oracle.qsc_constant
    elif new_metric.dim != a.shape[1]:
        raise ValueError("new metric dimension does not match transform domain")
    elif norm_bound is None:
        raise ValueError("norm_bound is required when overriding the induced metric")
    else:
        metric, qsc_constant = new_metric, oracle.qsc_constant * norm_bound
    # Ax - b and Ax + (-b) are the same floating-point operation
    return _TransformedOracle(oracle, metric, qsc_constant, transform=a, shift=-b)


def contract_oracle(
    oracle: SmoothOracle, gamma: float, anchor: np.ndarray, scale: float
) -> SmoothOracle:
    """Build scale * f(gamma*x + (1-gamma)*anchor) with qsc constant gamma*M.

    Contraction by gamma shrinks the qsc constant to gamma*M; the positive
    scale factor leaves it unchanged.  Used by the accelerated outer loop.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {gamma}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    gamma = float(gamma)
    shift = (1.0 - gamma) * np.array(anchor, dtype=float)
    return _TransformedOracle(
        oracle, oracle.metric, gamma * oracle.qsc_constant, scale=scale, transform=gamma, shift=shift
    )


class _SumOracle(SmoothOracle):
    def __init__(self, first: SmoothOracle, second: SmoothOracle):
        if first.metric is not second.metric and not np.allclose(
            first.metric.matrix, second.metric.matrix
        ):
            raise ValueError("summed oracles must share the same metric")
        super().__init__(first.metric, max(first.qsc_constant, second.qsc_constant))
        self._first = first
        self._second = second

    def value(self, x):
        return self._first.value(x) + self._second.value(x)

    def gradient(self, x):
        return self._first.gradient(x) + self._second.gradient(x)

    def hessian(self, x):
        return self._first.hessian(x) + self._second.hessian(x)

    def hessian_vector(self, x, u):
        return self._first.hessian_vector(x, u) + self._second.hessian_vector(x, u)


def add_oracles(first: SmoothOracle, second: SmoothOracle) -> SmoothOracle:
    """Sum of two oracles over the same metric; qsc constant is max(M1, M2)."""
    return _SumOracle(first, second)


def with_qsc_constant(oracle: SmoothOracle, qsc_constant: float) -> SmoothOracle:
    """Same oracle with a different declared constant (e.g. to probe the
    checkers with a deliberately undersized bound)."""
    return _TransformedOracle(oracle, oracle.metric, qsc_constant)


# ---------------------------------------------------------------------------
# finite-difference verifiers
# ---------------------------------------------------------------------------


def check_gradient(oracle: SmoothOracle, x: np.ndarray, step: float = 1e-5) -> float:
    """Max per-coordinate relative error of the analytic gradient vs central differences."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    grad = oracle.gradient(x)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fd = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * step)
        worst = max(worst, abs(fd - grad[i]) / (1.0 + abs(grad[i])))
    return worst


def check_hessian(oracle: SmoothOracle, x: np.ndarray, step: float = 1e-5) -> float:
    """Max entrywise relative error of the analytic Hessian vs FD of the gradient."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    hess = symmetrize(oracle.hessian(x))
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fd_col = (oracle.gradient(x + e) - oracle.gradient(x - e)) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(fd_col - hess[:, i]) / (1.0 + np.abs(hess[:, i])))))
    return worst


def _primal_norms(metric: Metric, h: np.ndarray):
    """||h|| of a vector, or of each row of a stack of them."""
    q = np.sum((h @ metric.matrix) * h, axis=-1)
    return np.sqrt(np.maximum(q, 0.0))


def _fd_step(oracle: SmoothOracle, x: np.ndarray):
    # balances truncation against roundoff at double precision; one step per
    # row of a stack of points
    return 1e-4 * (1.0 + _primal_norms(oracle.metric, x))


def third_derivative_estimate(
    oracle: SmoothOracle, x: np.ndarray, u: np.ndarray, v: np.ndarray
) -> float:
    """Central-difference estimate of D^3 f(x)[u, u, v] from two Hessian-vector products."""
    t = _fd_step(oracle, x)
    hu = oracle.hessian_vector(np.stack([x + t * v, x - t * v]), np.stack([u, u]))
    return float(u @ (hu[0] - hu[1])) / (2.0 * t)


def _third_derivative_slice(oracle, x, u):
    """FD estimate of the dual vector D^3 f(x)[u, u, .] (differencing along u)."""
    t = _fd_step(oracle, x)
    hu = oracle.hessian_vector(np.stack([x + t * u, x - t * u]), np.stack([u, u]))
    return (hu[0] - hu[1]) / (2.0 * t)


@dataclass
class QscCheckReport:
    """Outcome of a sampled certification of the declared qsc constant."""

    samples: int
    max_violation: float
    worst_triple: tuple
    tolerance: float
    passed: bool

    def __str__(self) -> str:  # pragma: no cover
        tag = "pass" if self.passed else "FAIL"
        return (
            f"qsc check [{tag}]: {self.samples} samples, "
            f"max violation {self.max_violation:.3e} vs tolerance {self.tolerance:.3e}"
        )


# Dense-Hessian entries (points x dim^2) that one hessian_vector call of the
# qsc check may cover.  The zoo's products hold a few arrays of about this
# many entries, so the check adds well under 1 MB to the working set; four
# times as many added 2.4 MB to a certification's peak RSS and ran no faster.
_QSC_CHUNK_ENTRIES = 1 << 14


def _qsc_chunk(dim: int) -> int:
    """Samples per hessian_vector call of the qsc check: three points each."""
    return max(1, _QSC_CHUNK_ENTRIES // (3 * dim * dim))


def _qsc_violations(oracle: SmoothOracle, x, u, v):
    """Violation of the qsc bound and its tolerance for each triple row.

    The estimate of D^3 f(x)[u, u, v] is the central difference of u^T H u
    along v; the three forms u^T H u at x + tv, x - tv and x of at most
    `_qsc_chunk` triples come from one hessian_vector call.
    """
    m_const = oracle.qsc_constant
    t = _fd_step(oracle, x)
    forms = np.empty((3, len(x)))
    chunk = _qsc_chunk(oracle.dim)
    for lo in range(0, len(x), chunk):
        rows = slice(lo, lo + chunk)
        step = t[rows, None] * v[rows]
        points = np.concatenate([x[rows] + step, x[rows] - step, x[rows]])
        vecs = np.concatenate([u[rows]] * 3)
        products = oracle.hessian_vector(points, vecs)
        forms[:, rows] = np.sum(products * vecs, axis=-1).reshape(3, -1)
    estimate = (forms[0] - forms[1]) / (2.0 * t)
    unorm2 = np.maximum(forms[2], 0.0)  # PSD up to roundoff
    return estimate - m_const * unorm2, 1e-4 * (1.0 + m_const * unorm2)


def _refine_triple(oracle: SmoothOracle, x, u, v, rounds: int):
    """Alternately steer v along the steepest direction of the tensor slice
    D^3 f(x)[u, u, .] and u to the leading eigenvector of the slice along v."""
    metric = oracle.metric
    n = oracle.dim
    shifted_hx = None
    for _ in range(rounds):
        slice_vec = _third_derivative_slice(oracle, x, u)
        if metric.dual_norm(slice_vec) < 1e-14:
            break
        v = metric.solve(slice_vec)
        v = v / max(metric.primal_norm(v), 1e-300)
        t = _fd_step(oracle, x)
        form = symmetrize((oracle.hessian(x + t * v) - oracle.hessian(x - t * v)) / (2.0 * t))
        if shifted_hx is None:  # x stays fixed, so H(x) is formed once
            hx = symmetrize(oracle.hessian(x))
            shifted_hx = hx + 1e-10 * (1.0 + np.abs(hx).max()) * np.eye(n)
        pair = _pencil_eigh(form, shifted_hx, vectors=True, index=n - 1)
        if pair is None:  # H(x) is not positive semidefinite
            break
        u = pair[1][:, 0]
    return x, u, v


def check_qsc(
    oracle: SmoothOracle,
    seed: int = 0,
    num_samples: int = 1000,
    x_scale: float = 1.0,
    refine_top: int = 5,
    refine_rounds: int = 3,
) -> QscCheckReport:
    """Sample-based certificate of the third-derivative bound at the declared M.

    Each sample draws (x, u, v) with v normalized to unit primal norm, and
    estimates D^3 f(x)[u,u,v] by central differences of u^T H u along v,
    from Hessian-vector products over a chunk of samples at a time.
    The sample violates if the estimate exceeds ``M ||u||_x^2`` by more than
    ``1e-4 * (1 + M ||u||_x^2)``.  A handful of the worst triples are refined
    by alternately choosing v as the steepest direction of the tensor slice
    D^3 f(x)[u,u,.] and u as the leading eigenvector of the slice along v,
    which makes undersized declared constants reliably detectable.  Ties
    between equal excesses go to the earlier sample.
    """
    rng = np.random.default_rng(seed)
    n = oracle.dim
    keep = max(refine_top, 1)
    chunk = _qsc_chunk(n)
    # (excess, violation, tolerance, triple) of the worst samples, worst
    # first; the stable sorts keep the earlier of equal excesses first
    worst: list[tuple] = []
    for lo in range(0, num_samples, chunk):
        # chunk by chunk, the same stream as drawing each sample's x, u, v in turn
        draws = rng.standard_normal((min(chunk, num_samples - lo), 3, n))
        x = x_scale * draws[:, 0]
        u = draws[:, 1]
        v = draws[:, 2] / np.maximum(_primal_norms(oracle.metric, draws[:, 2]), 1e-300)[:, None]
        violation, tol = _qsc_violations(oracle, x, u, v)
        excess = violation - tol
        order = np.argsort(-excess, kind="stable")[:keep]
        chunk_worst = [(excess[i], violation[i], tol[i], (x[i], u[i], v[i])) for i in order]
        worst = sorted(worst + chunk_worst, key=lambda w: -w[0])[:keep]
    if not worst:
        return QscCheckReport(0, -np.inf, None, np.nan, False)

    refined = [_refine_triple(oracle, *triple, refine_rounds) for *_, triple in worst]
    violation, tol = _qsc_violations(oracle, *(np.array(column) for column in zip(*refined)))
    records = [worst[0]] + [(vi - ti, vi, ti, triple) for vi, ti, triple in zip(violation, tol, refined)]
    # max keeps the first of equal excesses: the sampled worst, then refinement order
    _, max_violation, tol_at_worst, worst_triple = max(records, key=lambda r: r[0])
    return QscCheckReport(
        samples=num_samples + len(refined),
        max_violation=float(max_violation),
        worst_triple=worst_triple,
        tolerance=float(tol_at_worst),
        passed=bool(max_violation <= tol_at_worst),
    )


def check_hessian_stability(
    oracle: SmoothOracle, x: np.ndarray, y: np.ndarray, *, hx=None, hy=None
) -> tuple[bool, float]:
    """Two-sided Hessian stability between x and y.

    Verifies ``exp(-Mr) H(x) <= H(y) <= exp(Mr) H(x)`` with r = ||y - x||,
    through the extreme generalized eigenvalues of the pencil
    (H(y) + dI, H(x) + dI).  The same tiny shift d is applied on both sides so
    that directions of identically-zero curvature (present e.g. for the matrix
    problems) contribute the benign ratio 1.  Returns (passed, margin) where
    margin is the slack left in the exponent, negative on failure.

    Such a direction's curvature is pure roundoff, of order eps * max|H|,
    which is not small next to d, so for a close pair its computed log-ratio
    can exceed the tiny M r.  A pencil that fails is therefore re-examined
    eigenpair by eigenpair: perturbing both quadratic forms by
    e = dim * eps * max|H| moves log(lambda_i) by at most
    ``e ||v_i||^2 (1 + 1/lambda_i)`` for the eigenvector v_i normalized to
    <(H(x) + dI) v_i, v_i> = 1, and that allowance is added to the bound.
    With c * max|H| the curvature of (H(x) + dI) along v_i the allowance is
    dim eps (1 + 1/lambda_i) / c: about 2 dim eps / 1e-12 in a
    roundoff-curvature direction, and a few dim eps where curvature is of
    the order of max|H|, so no real violation hides behind it.  Since
    ||v_i||^2 <= 1/(d - e), a pencil that fails even with that largest
    allowance is rejected without computing eigenvectors, and its margin is
    reported without allowance.

    A pair where H(x) + dI is not positive definite (H(x) is not PSD, so f
    is not convex there), or where H(y) + dI is not, fails with margin -inf.

    `hx` and `hy` are H(x) and H(y) when the caller already holds them;
    passing them changes no bit of the result.
    """
    hx = symmetrize(oracle.hessian(x) if hx is None else hx)
    hy = symmetrize(oracle.hessian(y) if hy is None else hy)
    scale = max(np.abs(hx).max(), np.abs(hy).max(), 1.0)
    shift = 1e-12 * scale
    shifted = shift * np.eye(oracle.dim)
    pencil = (hy + shifted, hx + shifted)
    r = oracle.metric.primal_norm(np.asarray(y, float) - np.asarray(x, float))
    bound = oracle.qsc_constant * r
    slack = 1e-7 * (1.0 + bound)
    eigs = _pencil_eigh(*pencil)
    if eigs is None or eigs[0] <= 0:
        return False, -np.inf
    excess = np.abs(np.log(eigs)) - bound
    if excess.max() <= slack:
        return True, float(-excess.max())
    roundoff = oracle.dim * np.finfo(float).eps * scale
    largest_allowance = roundoff / (shift - roundoff) * (1.0 + 1.0 / eigs)
    if np.max(excess - largest_allowance) > slack:
        return False, float(-excess.max())
    eigs, vecs = _pencil_eigh(*pencil, vectors=True)
    allowance = roundoff * np.sum(vecs**2, axis=0) * (1.0 + 1.0 / eigs)
    margin = float(-np.max(np.abs(np.log(eigs)) - bound - allowance))
    return margin >= -slack, margin


def check_gradient_bound(
    oracle: SmoothOracle,
    x: np.ndarray,
    y: np.ndarray,
    slack: float = 1e-8,
    *,
    hx=None,
    gx=None,
    gy=None,
) -> tuple[bool, float]:
    """Gradient linearization-error bound between x and y.

    Verifies ``||g(y) - g(x) - H(x)(y-x)||_* <= M r_x^2 phi(M r) + slack``
    with r = ||y - x|| and r_x the local norm of the displacement at x.
    `hx`, `gx` and `gy` are H(x), g(x) and g(y) when the caller already
    holds them; passing them changes no bit of the result.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = y - x
    if hx is None:
        hx = oracle.hessian(x)
    if gy is None:
        gy = oracle.gradient(y)
    if gx is None:
        gx = oracle.gradient(x)
    lhs = oracle.metric.dual_norm(gy - gx - hx @ d)
    m = oracle.qsc_constant
    r = oracle.metric.primal_norm(d)
    rhs = m * local_norm(d, hx) ** 2 * phi(m * r) + slack
    return bool(lhs <= rhs), float(rhs - lhs)


def check_function_bounds(
    oracle: SmoothOracle,
    x: np.ndarray,
    y: np.ndarray,
    slack: float = 1e-8,
    *,
    hx=None,
    gx=None,
    fx=None,
    fy=None,
) -> tuple[bool, float]:
    """Two-sided second-order model bounds on f(y) around x.

    Verifies ``r_x^2 phi(-Mr) - slack <= f(y) - f(x) - <g(x), y-x> <=
    r_x^2 phi(Mr) + slack``.  `hx`, `gx`, `fx` and `fy` are H(x), g(x),
    f(x) and f(y) when the caller already holds them; passing them changes
    no bit of the result.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = y - x
    if fy is None:
        fy = oracle.value(y)
    if fx is None:
        fx = oracle.value(x)
    if gx is None:
        gx = oracle.gradient(x)
    gap = fy - fx - float(gx @ d)
    m = oracle.qsc_constant
    r = oracle.metric.primal_norm(d)
    rx2 = local_norm(d, oracle.hessian(x) if hx is None else hx) ** 2
    lower = rx2 * phi(-m * r) - slack
    upper = rx2 * phi(m * r) + slack
    margin = min(gap - lower, upper - gap)
    return bool(lower <= gap <= upper), float(margin)
