"""Smooth oracle contract, oracle combinators, and numeric smoothness checks.

A smooth oracle evaluates a convex function together with its gradient and
Hessian, carries the metric it is measured against, and declares a certified
bound M on its quasi-self-concordance, i.e. a constant with

    D^3 f(x)[u, u, v]  <=  M * <H(x)u, u> * ||v||        for all u, v.

The checkers in this module certify such declarations by sampling, with the
third derivative in closed form where the oracle overrides `qsc_forms` and by
finite differences otherwise: the declared M is validated as an upper bound,
not as the minimal constant.
"""

from __future__ import annotations

import abc
import functools
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .metric import Metric, _pencil_eigh, local_norm, symmetrize

_PHI_SERIES_CUTOFF = 1e-4


def phi(t):
    """(e^t - t - 1) / t^2, the profile of the second-order global models.

    Convex, positive, and monotone increasing, with phi(0) = 1/2 by the
    removable singularity.  Below |t| = 1e-4 the direct formula cancels
    catastrophically, so a 4-term series 1/2 + t/6 + t^2/24 + t^3/120 is used.
    Accepts scalars, which give a float, or arrays.
    """
    arr = np.asarray(t, dtype=float)
    small = np.abs(arr) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, arr)
    direct = (np.expm1(safe) - safe) / safe**2
    series = 0.5 + arr / 6.0 + arr**2 / 24.0 + arr**3 / 120.0
    out = np.where(small, series, direct)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def verdict(margins) -> tuple[bool, float]:
    """(passed, worst) of a trace check, from its margins: the slack left in
    each inequality it checks.  The worst margin decides: NaN propagates into
    it and fails, -0.0 passes, and no margins pass with +inf."""
    worst = float(np.min(margins, initial=np.inf))
    return worst >= 0, worst


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


def require_positive(value: float, what: str) -> float:
    """`value` as a float, raising ValueError unless it is finite and > 0."""
    if not 0.0 < value < np.inf:  # NaN fails every comparison
        raise ValueError(f"{what} must be finite and positive, got {value}")
    return float(value)


class SmoothOracle(abc.ABC):
    """Evaluation contract for the smooth component of a composite problem.

    `value`, `gradient` and `hessian` take a point of shape (n,).  An oracle
    whose three methods also take a stack of points of shape (..., n), and
    return one result per point (shapes (...), (..., n) and (..., n, n)),
    sets `stacks` to True.  The certifier then evaluates a chunk of points in
    one call; for an oracle that does not, it calls them point by point.

    `hessian_vector` and `qsc_forms` have defaults built on `hessian`; an
    oracle with cheaper or closed forms overrides them.  An oracle whose
    `hessian_vector` products cost far less than its Hessian (the Gram
    families: O(mn) a product against O(mn^2))
    sets `cheap_products` to True, and the solvers then take Hessian-free
    steps above a size (see `composite.newton_step`); an oracle whose
    Hessian costs about as much as a few products keeps the dense step,
    which is then the cheaper one.

    `point_entries` is the number of entries the arrays one point derives
    take, by which the certifier sizes its stacked calls (`chunk_size`):
    its Hessian's n^2 by default, and for the Gram families at least one per
    design row.
    """

    stacks = False
    cheap_products = False

    def __init__(self, metric: Metric, qsc_constant: float) -> None:
        if not 0.0 <= qsc_constant < np.inf:  # NaN fails every comparison
            raise ValueError(f"qsc constant must be finite and nonnegative, got {qsc_constant}")
        self._metric = metric
        self._qsc_constant = float(qsc_constant)

    @property
    def metric(self) -> Metric:
        return self._metric

    @property
    def dim(self) -> int:
        return self._metric.dim

    @property
    def point_entries(self) -> int:
        return self.dim**2

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

    def qsc_forms(self, x: np.ndarray, u: np.ndarray, v: np.ndarray):
        """(u^T H(x) u, D^3 f(x)[u, u, v]) for each row of (k, n) stacks x,
        u and v, as two arrays of length k: the two forms the qsc bound
        compares.

        This default, the reference, gets the forms u^T H u at x + tv, x - tv
        and x from one `hessian_vector` call and estimates D^3 f by their
        central difference along v.  The zoo overrides it with closed forms.
        """
        t = _fd_step(self, x)
        step = t[:, None] * v
        points = np.concatenate([x + step, x - step, x])
        vecs = np.concatenate([u] * 3)
        forms = np.sum(self.hessian_vector(points, vecs) * vecs, axis=-1).reshape(3, -1)
        return forms[2], (forms[0] - forms[1]) / (2.0 * t)


class _TransformedOracle(SmoothOracle):
    """scale * f(T x + shift) over a given metric with a declared qsc constant.

    T is None (the identity), a scalar or a matrix.  A scalar T folds into the
    derivative factors scale * T, scale * T**2 and scale * T**3.  A derivative factor of
    exactly 1 is not applied, so pass-through derivatives are not copied.
    Products with a matrix T go through numpy's matvec, which runs the gemv
    of a point once per row of a stack, so stacking changes no bit.
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
        self._third_factor = self._scale * t**3
        self._shift = shift

    @property
    def stacks(self):
        return self._base.stacks

    @property
    def cheap_products(self):
        return self._base.cheap_products

    @property
    def point_entries(self):
        return self._base.point_entries

    def _inner(self, x):
        if self._matrix is not None:
            x = np.matvec(self._matrix, x)
        elif self._t is not None:
            x = self._t * x
        return x if self._shift is None else x + self._shift

    def value(self, x):
        return self._scale * self._base.value(self._inner(x))

    def gradient(self, x):
        g = self._base.gradient(self._inner(x))
        if self._matrix is not None:
            g = np.matvec(self._matrix.T, g)
        return g if self._grad_factor == 1.0 else self._grad_factor * g

    def hessian(self, x):
        h = self._base.hessian(self._inner(x))
        if self._matrix is not None:
            h = self._matrix.T @ h @ self._matrix  # one product per matrix of a stack
        return h if self._hess_factor == 1.0 else self._hess_factor * h

    def hessian_vector(self, x, u):
        if self._matrix is not None:
            u = np.matvec(self._matrix, u)
        hu = self._base.hessian_vector(self._inner(x), u)
        if self._matrix is not None:
            hu = np.matvec(self._matrix.T, hu)
        return hu if self._hess_factor == 1.0 else self._hess_factor * hu

    def qsc_forms(self, x, u, v):
        if self._matrix is not None:
            u, v = np.matvec(self._matrix, u), np.matvec(self._matrix, v)
        form, third = self._base.qsc_forms(self._inner(x), u, v)
        if self._hess_factor != 1.0:
            form = self._hess_factor * form
        if self._third_factor != 1.0:
            third = self._third_factor * third
        return form, third


def scale_oracle(oracle: SmoothOracle, factor: float) -> SmoothOracle:
    """Multiply an oracle by a positive constant; the qsc constant is unchanged."""
    return _TransformedOracle(oracle, oracle.metric, oracle.qsc_constant, scale=require_positive(factor, "scale factor"))


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
        metric, qsc_constant = new_metric, oracle.qsc_constant * require_positive(norm_bound, "norm_bound")
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
    require_positive(scale, "scale")
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

    @property
    def stacks(self):
        return self._first.stacks and self._second.stacks

    @property
    def cheap_products(self):
        # a product of the sum is one product of each summand.  The sum the
        # harness builds adds a stored quadratic, whose product is u @ A, to
        # a family, so its products are cheap when the family's are; a
        # summand with the default product would form its Hessian in each
        return self._first.cheap_products or self._second.cheap_products

    @property
    def point_entries(self):
        return max(self._first.point_entries, self._second.point_entries)

    def value(self, x):
        return self._first.value(x) + self._second.value(x)

    def gradient(self, x):
        return self._first.gradient(x) + self._second.gradient(x)

    def hessian(self, x):
        return self._first.hessian(x) + self._second.hessian(x)

    def hessian_vector(self, x, u):
        return self._first.hessian_vector(x, u) + self._second.hessian_vector(x, u)

    def qsc_forms(self, x, u, v):
        (form, third), (form2, third2) = self._first.qsc_forms(x, u, v), self._second.qsc_forms(x, u, v)
        return form + form2, third + third2


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


def evaluate(oracle: SmoothOracle, method: str, x):
    """`oracle.<method>` ("value", "gradient" or "hessian") at a point of
    shape (n,), or at each row of a (k, n) stack: in one call when the
    oracle takes stacks, else point by point."""
    fn = getattr(oracle, method)
    if np.ndim(x) == 1 or oracle.stacks:
        return fn(x)
    return np.array([fn(point) for point in x])


# Entries (points x `point_entries`) that one stacked call of the certifier
# may cover: a hessian_vector or qsc_forms call of the qsc check, or an
# `evaluate` call of the pair or finite-difference checks.  The zoo holds a
# few arrays of about this many entries per call, so a check adds well under
# 1 MB to the working set; four times as many added 2.4 MB to a
# certification's peak RSS and ran no faster.
_QSC_CHUNK_ENTRIES = 1 << 14
_QSC_REFINE_TOP = 5  # worst samples `check_qsc` refines
_QSC_REFINE_ROUNDS = 3  # of each refinement
_MODEL_BOUND_SLACK = 1e-8  # of `check_gradient_bound` and `check_function_bounds`
_CHECK_FD_STEP = 1e-5  # central-difference (FD) step of `check_gradient` and `check_hessian`


def chunk_size(oracle: SmoothOracle, points: int) -> int:
    """Items per stacked call of `oracle` when each item has `points`
    points: three per triple of the qsc check, two per pair of the pair
    checks or per coordinate of the finite-difference checks."""
    return max(1, _QSC_CHUNK_ENTRIES // (points * oracle.point_entries))


def _central_differences(oracle: SmoothOracle, method: str, x: np.ndarray, step: float):
    """Central differences of `method` along each coordinate, row i along
    e_i.  The points x + step e_i and x - step e_i are bitwise those of
    perturbing one coordinate at a time; `chunk_size(oracle, 2)` coordinates
    go to each `evaluate` call."""
    n = x.size
    chunk = chunk_size(oracle, 2)
    rows = []
    for lo in range(0, n, chunk):
        shifts = step * np.eye(n)[lo : lo + chunk]
        values = evaluate(oracle, method, np.concatenate([x + shifts, x - shifts]))
        rows.append((values[: len(shifts)] - values[len(shifts) :]) / (2.0 * step))
    return np.concatenate(rows)


def check_gradient(oracle: SmoothOracle, x: np.ndarray) -> float:
    """Max per-coordinate relative error of the analytic gradient vs FD of step `_CHECK_FD_STEP`."""
    x = np.asarray(x, dtype=float)
    grad = oracle.gradient(x)
    fd = _central_differences(oracle, "value", x, _CHECK_FD_STEP)
    return float(np.max(np.abs(fd - grad) / (1.0 + np.abs(grad))))


def check_hessian(oracle: SmoothOracle, x: np.ndarray) -> float:
    """Max entrywise relative error of the analytic Hessian vs FD of the gradient, step `_CHECK_FD_STEP`."""
    x = np.asarray(x, dtype=float)
    hess = symmetrize(oracle.hessian(x))
    # row i estimates column i of H, which is row i of the symmetric hess
    fd = _central_differences(oracle, "gradient", x, _CHECK_FD_STEP)
    return float(np.max(np.abs(fd - hess) / (1.0 + np.abs(hess))))


def _fd_step(oracle: SmoothOracle, x: np.ndarray):
    # balances truncation against roundoff at double precision; one step per
    # row of a stack of points
    return 1e-4 * (1.0 + oracle.metric.primal_norm(x))


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


def _qsc_violations(oracle: SmoothOracle, x, u, v):
    """Violation of the qsc bound and its tolerance for each triple row,
    from `qsc_forms` calls of at most `chunk_size(oracle, 3)` triples each."""
    m_const = oracle.qsc_constant
    unorm2 = np.empty(len(x))
    third = np.empty(len(x))
    chunk = chunk_size(oracle, 3)
    for lo in range(0, len(x), chunk):
        rows = slice(lo, lo + chunk)
        unorm2[rows], third[rows] = oracle.qsc_forms(x[rows], u[rows], v[rows])
    unorm2 = np.maximum(unorm2, 0.0)  # PSD up to roundoff
    return third - m_const * unorm2, 1e-4 * (1.0 + m_const * unorm2)


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


def check_qsc(oracle: SmoothOracle, seed: int = 0, num_samples: int = 1000, x_scale: float = 1.0) -> QscCheckReport:
    """Sample-based certificate of the third-derivative bound at the declared M.

    Each sample draws (x, u, v) with v normalized to unit primal norm.  Over
    a chunk of samples at a time, D^3 f(x)[u,u,v] and u^T H(x) u come from
    the oracle's `qsc_forms`: closed forms where the oracle overrides it,
    else the default's central differences of u^T H u along v.
    The sample violates if the estimate exceeds ``M ||u||_x^2`` by more than
    ``1e-4 * (1 + M ||u||_x^2)``.  The `_QSC_REFINE_TOP` worst triples are
    refined, in `_QSC_REFINE_ROUNDS` rounds each, by alternately choosing v
    as the steepest direction of the tensor slice D^3 f(x)[u,u,.] and u as
    the leading eigenvector of the slice along v, which makes undersized
    declared constants reliably detectable.  Ties between equal excesses go
    to the earlier sample.
    """
    rng = np.random.default_rng(seed)
    n = oracle.dim
    keep = _QSC_REFINE_TOP
    chunk = chunk_size(oracle, 3)
    # (excess, violation, tolerance, triple) of the worst samples, worst
    # first; the stable sorts keep the earlier of equal excesses first
    worst: list[tuple] = []
    for lo in range(0, num_samples, chunk):
        # chunk by chunk, the same stream as drawing each sample's x, u, v in turn
        draws = rng.standard_normal((min(chunk, num_samples - lo), 3, n))
        x = x_scale * draws[:, 0]
        u = draws[:, 1]
        v = draws[:, 2] / np.maximum(oracle.metric.primal_norm(draws[:, 2]), 1e-300)[:, None]
        violation, tol = _qsc_violations(oracle, x, u, v)
        excess = violation - tol
        order = np.argsort(-excess, kind="stable")[:keep]
        chunk_worst = [(excess[i], violation[i], tol[i], (x[i], u[i], v[i])) for i in order]
        worst = sorted(worst + chunk_worst, key=lambda w: -w[0])[:keep]
    if not worst:
        return QscCheckReport(0, -np.inf, None, np.nan, False)

    refined = [_refine_triple(oracle, *triple, _QSC_REFINE_ROUNDS) for *_, triple in worst]
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


def _pairs(oracle: SmoothOracle, x, y):
    """x and y as arrays, and the displacements y - x as a (k, n) stack."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return x, y, np.reshape(y - x, (-1, oracle.dim))


def _given(oracle: SmoothOracle, value, method: str, x, *tail):
    """What the caller passed, else `method` evaluated at x, as a stack with
    one item per pair: one pair's point is evaluated as a point."""
    return np.reshape(evaluate(oracle, method, x) if value is None else value, (-1, *tail))


def _per_pair(x: np.ndarray, passed, margin):
    """(passed, margin) of one pair as a bool and a float, or of a stack of
    pairs as two arrays."""
    if x.ndim == 1:
        return bool(passed[0]), float(margin[0])
    return passed, margin


def _pencil_stability(hx, hy, shift, bound, slack, roundoff) -> tuple[bool, float]:
    """`check_hessian_stability` on one pair, given its symmetrized Hessians
    and the scalars computed from them."""
    shifted = shift * np.eye(len(hx))
    pencil = (hy + shifted, hx + shifted)
    eigs = _pencil_eigh(*pencil)
    if eigs is None or eigs[0] <= 0:
        return False, -np.inf
    excess = np.abs(np.log(eigs)) - bound
    if excess.max() <= slack:
        return True, -excess.max()
    largest_allowance = roundoff / (shift - roundoff) * (1.0 + 1.0 / eigs)
    if np.max(excess - largest_allowance) > slack:
        return False, -excess.max()
    eigs, vecs = _pencil_eigh(*pencil, vectors=True)
    allowance = roundoff * np.sum(vecs**2, axis=0) * (1.0 + 1.0 / eigs)
    margin = -np.max(np.abs(np.log(eigs)) - bound - allowance)
    return margin >= -slack, margin


# The three pair checks take one pair, x and y of shape (n,), or a stack of k
# pairs, x and y of shape (k, n).  A pair gives (passed, margin) as a bool and
# a float; a stack gives them as two length-k arrays, each entry bitwise what
# its pair gives on its own when evaluated alike.  The evaluations the caller
# already holds (hx, gx, ... : H(x), g(x), ... with one item per pair) may be
# passed; passing them changes no bit of the result.


def check_hessian_stability(oracle: SmoothOracle, x, y, *, hx=None, hy=None):
    """Two-sided Hessian stability between x and y.

    Verifies ``exp(-Mr) H(x) <= H(y) <= exp(Mr) H(x)`` with r = ||y - x||,
    through the extreme generalized eigenvalues of the pencil
    (H(y) + dI, H(x) + dI).  The same tiny shift d is applied on both sides so
    that directions of identically-zero curvature (present e.g. for the matrix
    problems) contribute the benign ratio 1.  The margin is the slack left in
    the exponent, negative on failure.  The eigensolve runs pair by pair.

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
    """
    n = oracle.dim
    x, y, d = _pairs(oracle, x, y)
    hx = symmetrize(_given(oracle, hx, "hessian", x, n, n))
    hy = symmetrize(_given(oracle, hy, "hessian", y, n, n))
    scale = np.maximum(np.maximum(np.abs(hx).max(axis=(1, 2)), np.abs(hy).max(axis=(1, 2))), 1.0)
    bound = oracle.qsc_constant * oracle.metric.primal_norm(d)
    slack = 1e-7 * (1.0 + bound)
    roundoff = n * np.finfo(float).eps * scale
    passed = np.empty(len(d), dtype=bool)
    margin = np.empty(len(d))
    for i in range(len(d)):
        passed[i], margin[i] = _pencil_stability(
            hx[i], hy[i], 1e-12 * scale[i], bound[i], slack[i], roundoff[i]
        )
    return _per_pair(x, passed, margin)


def check_gradient_bound(oracle: SmoothOracle, x, y, *, hx=None, gx=None, gy=None):
    """Gradient linearization-error bound between x and y.

    Verifies ``||g(y) - g(x) - H(x)(y-x)||_* <= M r_x^2 phi(M r) + slack``
    with r = ||y - x|| and r_x the local norm of the displacement at x.
    """
    n = oracle.dim
    x, y, d = _pairs(oracle, x, y)
    hx = _given(oracle, hx, "hessian", x, n, n)
    residual = _given(oracle, gy, "gradient", y, n) - _given(oracle, gx, "gradient", x, n) - np.matvec(hx, d)
    lhs = oracle.metric.dual_norm(residual)
    m = oracle.qsc_constant
    r = oracle.metric.primal_norm(d)
    rhs = m * local_norm(d, hx) ** 2 * phi(m * r) + _MODEL_BOUND_SLACK
    return _per_pair(x, lhs <= rhs, rhs - lhs)


def check_function_bounds(oracle: SmoothOracle, x, y, *, hx=None, gx=None, fx=None, fy=None):
    """Two-sided second-order model bounds on f(y) around x.

    Verifies ``r_x^2 phi(-Mr) - slack <= f(y) - f(x) - <g(x), y-x> <=
    r_x^2 phi(Mr) + slack``.
    """
    n = oracle.dim
    x, y, d = _pairs(oracle, x, y)
    gx = _given(oracle, gx, "gradient", x, n)
    gap = _given(oracle, fy, "value", y) - _given(oracle, fx, "value", x) - np.vecdot(gx, d)
    m = oracle.qsc_constant
    r = oracle.metric.primal_norm(d)
    rx2 = local_norm(d, _given(oracle, hx, "hessian", x, n, n)) ** 2
    lower = rx2 * phi(-m * r) - _MODEL_BOUND_SLACK
    upper = rx2 * phi(m * r) + _MODEL_BOUND_SLACK
    return _per_pair(x, (lower <= gap) & (gap <= upper), np.minimum(gap - lower, upper - gap))
