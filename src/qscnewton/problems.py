"""Concrete smooth objectives with analytic derivatives and declared qsc constants.

The zoo covers the four families the solvers are exercised on:

* quadratics (constant zero qsc bound),
* soft maximum of linear forms with smoothing mu (bound 2/mu),
* separable losses over a design matrix, logistic or exponential (bound 1),
* matrix scaling / balancing exponential sums (bound sqrt(2), identity metric).

Soft-max and separable objectives default to the Gram metric sum_i a_i a_i^T
of their rows; the declared constants are only valid under these metrics.

Every family overrides `SmoothOracle.qsc_forms` with its qsc forms
u^T H(x) u and D^3 f(x)[u, u, v] in closed form, from one pass over the
design or the weight matrix per stack of triples.  The soft-max and
separable families also declare `cheap_products`, since their Hessian
costs m n^2 against 2mn a product: a product is two passes over the design
rows, with the per-point weights (the margins' loss'' or the soft-max pi)
from the memo below.  A quadratic's Hessian is stored and a matrix family's
costs about two products, so they do not.

The two Gram families keep a one-entry memo of the last point's or stack's
derived quantities: the margins and the loss derivatives, or pi, g and the
value.  Every method there reuses them, call by call, so a Newton step's
gradient at x+ also serves the next step's products and the solver's value
there, and H, g and f at one stack come from one pass.  The memo is keyed
by the shape and the bytes, not the identity, so a (1, n) stack and the
(n,) point with its bytes are different entries.  It holds read-only
arrays, every array a method returns is the caller's own, and it is one
tuple replaced whole, never mutated, so a caller that writes into its point
or into a result, or an oracle shared between callers, gets the results a
fresh oracle gives.

Every family takes stacks of points (`SmoothOracle.stacks`).  A point runs
the same operations it always has; a stack runs them once per call, with
the rows of a stack bitwise their points' results for the quadratic and the
matrix families.  The Gram families multiply a stack by the design rows in
one matrix product, which differs from a product per point in roundoff.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.special
from scipy.linalg.lapack import dpstrf

from .metric import Metric, matvec, symmetrize
from .oracles import SmoothOracle, require_positive

_EXP_CLAMP = 700.0  # exp argument above which float64 overflows


class ParseError(ValueError):
    """Malformed data file; carries the offending line number when known."""


class DimensionError(ValueError):
    """Ragged or incompatibly shaped input data."""


class EvaluationOverflowWarning(RuntimeWarning):
    """An exponential argument was clamped to keep the evaluation finite."""


def gram_metric(rows: np.ndarray) -> tuple[Metric, float]:
    """Metric sum_i a_i a_i^T from design rows, ridged if rank deficient.

    The ridge is 1e-10 * trace(B)/n.  Fewer rows than columns are rank
    deficient by construction.  Otherwise the rank is decided by a relative
    pivot test: Cholesky with complete pivoting (LAPACK ``dpstrf``) stops
    at the first pivot no larger than the ridge.  The plain factorization
    is no test, since roundoff can leave every pivot of a singular Gram
    matrix positive.  Returns the metric and the ridge actually added (0.0
    at full rank), which is recorded so reports can surface the
    perturbation.
    """
    rows = np.asarray(rows, dtype=float)
    gram = rows.T @ rows
    n = gram.shape[0]
    ridge = 1e-10 * np.trace(gram) / n
    if ridge <= 0:
        ridge = 1e-10
    if rows.shape[0] >= n and dpstrf(gram, tol=ridge, lower=1)[2] == n:
        try:
            return Metric(gram), 0.0
        except np.linalg.LinAlgError:
            pass
    return Metric(gram + np.diag(np.full(n, ridge))), ridge


def _per_point(values):
    """A float for one point, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def _memoized(oracle, x, compute):
    """compute(x) at the point or stack x, from `oracle._memo`: the last
    call's shape, bytes and results, read-only, replaced whole on a miss."""
    x = np.asarray(x, dtype=float)
    key = (x.shape, x.tobytes())
    if oracle._memo[0] != key:
        oracle._memo = (None, None)  # the old entry is freed before the new one is derived
        results = compute(x)
        for value in results:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        oracle._memo = (key, results)
    return oracle._memo[1]


def _weighted_gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i a_i a_i^T for weights w >= 0 (one row of weights per point
    of a stack), exactly symmetric.

    Written as S^T S with S = diag(sqrt(w)) A: numpy hands a product of an
    array with its own transpose to BLAS SYRK, which does half the flops of
    the general product and mirrors one triangle into the other.  A stack is
    done point by point, so only one scaled copy of the rows is held.
    """
    if weights.ndim > 1:
        stack = [_weighted_gram(rows, w) for w in weights.reshape(-1, weights.shape[-1])]
        return np.reshape(stack, weights.shape[:-1] + 2 * rows.shape[-1:])
    scaled = rows * np.sqrt(weights)[:, None]
    return scaled.T @ scaled


def _set_diagonal(h: np.ndarray, diagonal: np.ndarray) -> None:
    """Write the diagonal of each matrix of a C-contiguous stack."""
    h.reshape(h.shape[:-2] + (-1,))[..., :: h.shape[-1] + 1] = diagonal


class QuadraticObjective(SmoothOracle):
    """f(x) = 1/2 <Ax, x> - <b, x> with PSD A; qsc constant 0."""

    stacks = True

    def __init__(self, quad, offset, metric: Metric | None = None) -> None:
        a = symmetrize(np.asarray(quad, dtype=float))
        b = np.asarray(offset, dtype=float)
        if a.shape != (b.size, b.size):
            raise DimensionError("quadratic term and offset dimensions disagree")
        super().__init__(metric if metric is not None else Metric.identity(b.size), 0.0)
        if self.metric.dim != b.size:
            raise DimensionError("metric dimension does not match problem dimension")
        a.setflags(write=False)
        b.setflags(write=False)
        self._a = a
        self._b = b

    # vecmat, matvec and vecdot run the gemv or dot of x @ A, A @ x and b @ x
    # once per row, so each row of a stack is bitwise its point's result

    def value(self, x):
        return _per_point(0.5 * np.vecdot(np.vecmat(x, self._a), x) - np.vecdot(self._b, x))

    def gradient(self, x):
        return np.matvec(self._a, x) - self._b

    def hessian(self, x):
        x = np.asarray(x)
        return self._a if x.ndim == 1 else np.broadcast_to(self._a, x.shape[:-1] + self._a.shape)

    def hessian_vector(self, x, u):
        return np.asarray(u, dtype=float) @ self._a

    def qsc_forms(self, x, u, v):
        return np.vecdot(np.vecmat(u, self._a), u), np.zeros(len(u))


class _GramObjective(SmoothOracle):
    """The frame the two Gram families share: design rows a_i with offsets
    b_i, both read-only, the Gram metric sum_i a_i a_i^T unless a metric is
    given (`metric_ridge` records its ridge), and the memo.

    A family defines `_point`, its derived quantities at a point or a stack,
    and its methods read them through `_derived`: the memo's when the call's
    point or stack is the last one's, else derived afresh.
    """

    stacks = True
    cheap_products = True

    def __init__(self, rows, offsets, qsc_constant: float, metric: Metric | None) -> None:
        rows = np.asarray(rows, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if rows.ndim != 2 or offsets.shape != (rows.shape[0],):
            raise DimensionError("rows must be (m, n) with one offset per row")
        self.metric_ridge = 0.0
        if metric is None:
            metric, self.metric_ridge = gram_metric(rows)
        super().__init__(metric, qsc_constant)
        rows.setflags(write=False)
        offsets.setflags(write=False)
        self._rows = rows
        self._offsets = offsets
        self._memo = (None, None)

    @property
    def rows(self):
        return self._rows

    @property
    def point_entries(self):
        # a point's derived arrays hold one entry per design row
        return max(self.dim**2, self._rows.shape[0])

    def _derived(self, x):
        return _memoized(self, x, self._point)


class SoftMaxObjective(_GramObjective):
    """Smoothed maximum mu * log sum_i exp((<a_i, x> - b_i)/mu); qsc constant 2/mu.

    Computed with the max-subtraction trick, so evaluation never overflows for
    finite inputs.  The default metric is the Gram matrix of the rows.
    """

    def __init__(self, rows, offsets, smoothing: float, metric: Metric | None = None):
        self._mu = require_positive(smoothing, "smoothing parameter")
        super().__init__(rows, offsets, 2.0 / self._mu, metric)

    @property
    def smoothing(self):
        return self._mu

    def _point(self, x):
        """pi, g and the value from one pass; pi_i is exp(m_i - top) over its
        sum, for the margins m_i = (<a_i, x> - b_i)/mu and top = max_i m_i."""
        # in place, and the ufunc reductions are ndarray.max and .sum
        # without their wrappers: the same operations, fewer allocations
        margins = matvec(self._rows, x)
        margins -= self._offsets
        margins /= self._mu
        top = np.maximum.reduce(margins, axis=-1)
        margins -= top[..., None]
        pi = np.exp(margins, out=margins)
        total = np.add.reduce(pi, axis=-1, keepdims=True)
        value = self._mu * (top + np.log(total[..., 0]))
        pi /= total
        return pi, matvec(self._rows.T, pi), value

    def value(self, x):
        return _per_point(self._derived(x)[2].copy())

    def gradient(self, x):
        return self._derived(x)[1].copy()

    def hessian(self, x):
        pi, g, _ = self._derived(x)
        return (_weighted_gram(self._rows, pi) - g[..., :, None] * g[..., None, :]) / self._mu

    def hessian_vector(self, x, u):
        pi, g, _ = self._derived(x)
        u = np.asarray(u, dtype=float)
        curvature = (pi * matvec(self._rows, u)) @ self._rows
        return (curvature - g * np.sum(g * u, axis=-1, keepdims=True)) / self._mu

    def qsc_forms(self, x, u, v):
        # the second and third cumulants of (<a, u>, <a, v>) under pi
        pi = self._derived(x)[0]
        au, av = matvec(self._rows, np.stack([u, v]))
        au -= np.vecdot(pi, au)[:, None]
        av -= np.vecdot(pi, av)[:, None]
        weighted = pi * np.square(au)
        return np.add.reduce(weighted, axis=-1) / self._mu, np.vecdot(weighted, av) / self._mu**2


class SeparableObjective(_GramObjective):
    """(1/m) sum_i loss(<a_i, x> - b_i) for a logistic or exponential loss.

    Both shipped losses have |loss'''| <= loss'', hence qsc constant 1 under
    the Gram metric of the rows.  The exponential loss clamps its argument at
    700 and emits `EvaluationOverflowWarning` when the clamp engages.
    """

    LOSSES = ("logistic", "exponential")

    def __init__(self, rows, offsets, loss: str = "logistic", metric: Metric | None = None):
        if loss not in self.LOSSES:
            raise ValueError(f"unknown loss {loss!r}; expected one of {self.LOSSES}")
        super().__init__(rows, offsets, 1.0, metric)
        self._loss = loss

    @property
    def loss(self):
        return self._loss

    def _derivatives(self, t):
        """loss'(t) and the weights loss''(t) / m, from one pass of exp."""
        if self._loss == "logistic":
            p = scipy.special.expit(t)
            return p, p * (1.0 - p) / self._rows.shape[0]
        e = np.exp(t)
        return e, e / self._rows.shape[0]

    def _point(self, x):
        """The margins t = Ax - b, the exponential loss's clamped at 700,
        whether the clamp engaged, loss'(t) and loss''(t) / m."""
        t = matvec(self._rows, x)
        t -= self._offsets
        clamped = self._loss == "exponential" and np.any(t > _EXP_CLAMP)
        if clamped:
            t = np.minimum(t, _EXP_CLAMP)
        return (t, clamped, *self._derivatives(t))

    def _terms(self, x):
        """(t, loss'(t), loss''(t) / m) at x.  Warns, memo hit or miss,
        where the exponential loss's clamp engaged."""
        t, clamped, first, weights = self._derived(x)
        if clamped:
            warnings.warn("exponential loss argument clamped at 700", EvaluationOverflowWarning, stacklevel=3)
        return t, first, weights

    def value(self, x):
        t = self._terms(x)[0]
        if self._loss == "logistic":
            return _per_point(np.logaddexp(0.0, t).mean(axis=-1))
        return _per_point(np.exp(t).mean(axis=-1))

    def gradient(self, x):
        return matvec(self._rows.T, self._terms(x)[1]) / self._rows.shape[0]

    def hessian(self, x):
        return _weighted_gram(self._rows, self._terms(x)[2])

    def hessian_vector(self, x, u):
        return (self._terms(x)[2] * matvec(self._rows, np.asarray(u, dtype=float))) @ self._rows

    def qsc_forms(self, x, u, v):
        # loss'(t) is the logistic's sigma(t) and the exponential's e^t
        _, first, _ = self._terms(x)
        if self._loss == "logistic":
            second = first * (1.0 - first)
            third = second * (1.0 - 2.0 * first)
        else:
            second = third = first
        au, av = matvec(self._rows, np.stack([u, v]))
        au2 = np.square(au)
        m = self._rows.shape[0]
        return np.vecdot(au2, second) / m, np.vecdot(au2 * av, third) / m


def _clamped_exp_weights(mass: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """mass * exp(min(exponents, 700)), warning when a positive mass is clamped.

    The clamp keeps exp finite, so a zero mass gives a zero weight, +0.0
    since the constructors store no -0.0.  The full clamp scan runs only
    when some exponent exceeds the clamp (or is NaN).
    """
    if not exponents.max() <= _EXP_CLAMP and np.any((mass > 0) & (exponents > _EXP_CLAMP)):
        warnings.warn(
            "exponential sum argument clamped at 700",
            EvaluationOverflowWarning,
            stacklevel=3,
        )
    weights = np.minimum(exponents, _EXP_CLAMP)
    np.exp(weights, out=weights)
    weights *= mass
    return weights


def _exp_sum_forms(w, du, dv):
    """sum_ij w_ij du_ij^2 and sum_ij w_ij du_ij^2 dv_ij for each matrix of
    (k, n, n') stacks: the qsc forms of sum_ij w_ij e^(e_ij) when the
    exponents e_ij move by du_ij along u and by dv_ij along v."""
    weighted = np.square(du, out=du)
    weighted *= w
    weighted = weighted.reshape(len(w), -1)
    return np.add.reduce(weighted, axis=-1), np.vecdot(weighted, dv.reshape(len(w), -1))


def _square_nonnegative(matrix, what: str) -> np.ndarray:
    """The data of a matrix objective as a float array with -0.0 stored as +0.0."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} data must be a square matrix")
    if not np.all(a >= 0):
        raise ValueError(f"{what} data must be nonnegative")
    return a + 0.0


class MatrixScalingObjective(SmoothOracle):
    """sum_ij A_ij exp(x_i - y_j) over (x, y) in R^{2n}; identity metric, M = sqrt(2).

    The objective is invariant under the joint shift (x, y) -> (x+c, y+c), so
    the Hessian has that direction in its kernel at every point; solvers rely
    on quadratic regularization there.
    """

    stacks = True

    def __init__(self, matrix) -> None:
        a = _square_nonnegative(matrix, "scaling")
        n = a.shape[0]
        super().__init__(Metric.identity(2 * n), np.sqrt(2.0))
        a.setflags(write=False)
        self._a = a
        self._n = n

    def _weights(self, z):
        n = self._n
        return _clamped_exp_weights(self._a, z[..., :n, None] - z[..., None, n:])

    def value(self, z):
        return _per_point(self._weights(z).sum(axis=(-2, -1)))

    def gradient(self, z):
        w = self._weights(z)
        return np.concatenate([w.sum(axis=-1), -w.sum(axis=-2)], axis=-1)

    def hessian(self, z):
        # [[diag(r), -W], [-W^T, diag(c)]], written into one array
        n = self._n
        w = self._weights(z)
        h = np.zeros(w.shape[:-2] + (2 * n, 2 * n))
        _set_diagonal(h, np.concatenate([w.sum(axis=-1), w.sum(axis=-2)], axis=-1))
        np.negative(w, out=h[..., :n, n:])
        np.negative(w.mT, out=h[..., n:, :n])
        return h

    def hessian_vector(self, z, u):
        # [diag(r) p - W q, diag(c) q - W^T p] for u = (p, q), never forming H
        n = self._n
        w = self._weights(z)
        u = np.asarray(u, dtype=float)
        p, q = u[..., :n], u[..., n:]
        wq = (w @ q[..., None])[..., 0]
        wtp = (p[..., None, :] @ w)[..., 0, :]
        return np.concatenate([w.sum(axis=-1) * p - wq, w.sum(axis=-2) * q - wtp], axis=-1)

    def qsc_forms(self, z, u, v):
        # the exponent x_i - y_j moves by u_i - u'_j along u = (u, u')
        n = self._n
        return _exp_sum_forms(self._weights(z), u[:, :n, None] - u[:, None, n:], v[:, :n, None] - v[:, None, n:])


class MatrixBalancingObjective(SmoothOracle):
    """sum_ij A_ij exp(x_i - x_j) over R^n; identity metric, M = sqrt(2).

    Diagonal entries have zero exponent and contribute constants; the all-ones
    direction is in the kernel of the Hessian everywhere.
    """

    stacks = True

    def __init__(self, matrix) -> None:
        a = _square_nonnegative(matrix, "balancing")
        super().__init__(Metric.identity(a.shape[0]), np.sqrt(2.0))
        a.setflags(write=False)
        self._a = a

    def _weights(self, x):
        return _clamped_exp_weights(self._a, x[..., :, None] - x[..., None, :])

    def value(self, x):
        return _per_point(self._weights(x).sum(axis=(-2, -1)))

    def gradient(self, x):
        w = self._weights(x)
        return w.sum(axis=-1) - w.sum(axis=-2)

    def hessian(self, x):
        # diag(row sums + column sums) - (W + W^T), written into one array;
        # off the diagonal this is 0.0 - (w_ij + w_ji), so +0.0 where both are 0
        w = self._weights(x)
        h = w + w.mT
        diagonal = w.sum(axis=-1) + w.sum(axis=-2) - h.diagonal(0, -2, -1)
        np.subtract(0.0, h, out=h)
        _set_diagonal(h, diagonal)
        return h

    def hessian_vector(self, x, u):
        w = self._weights(x)
        u = np.asarray(u, dtype=float)
        wu = (w @ u[..., None])[..., 0]
        wtu = (u[..., None, :] @ w)[..., 0, :]
        return (w.sum(axis=-1) + w.sum(axis=-2)) * u - (wu + wtu)

    def qsc_forms(self, x, u, v):
        return _exp_sum_forms(self._weights(x), u[:, :, None] - u[:, None, :], v[:, :, None] - v[:, None, :])


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------


def _parse_numeric_rows(path) -> list[tuple[int, list[float]]]:
    rows: list[tuple[int, list[float]]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            values = []
            for token in line.split(","):
                try:
                    value = float(token)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: cannot parse {token.strip()!r}") from exc
                if not np.isfinite(value):
                    raise ParseError(f"line {lineno}: non-finite value {token.strip()!r}")
                values.append(value)
            rows.append((lineno, values))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def load_design_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a CSV design matrix: one sample per line, last column is the offset."""
    rows = _parse_numeric_rows(path)
    width = len(rows[0][1])
    if width < 2:
        raise DimensionError(f"line {rows[0][0]}: need at least one feature plus an offset")
    for lineno, values in rows:
        if len(values) != width:
            raise DimensionError(f"line {lineno}: expected {width} columns, got {len(values)}")
    data = np.array([values for _, values in rows])
    return data[:, :-1], data[:, -1]


def load_matrix(path) -> np.ndarray:
    """Load a dense square nonnegative matrix from CSV."""
    rows = _parse_numeric_rows(path)
    n = len(rows)
    for lineno, values in rows:
        if len(values) != n:
            raise DimensionError(f"line {lineno}: expected {n} columns for a square matrix")
    a = np.array([values for _, values in rows])
    if np.any(a < 0):
        raise ParseError("matrix entries must be nonnegative")
    return a


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

KINDS = (
    "quadratic",
    "softmax",
    "logistic",
    "exponential",
    "matrix_scaling",
    "matrix_balancing",
)


def generate_synthetic(
    kind: str,
    n: int = 10,
    m: int = 40,
    seed: int = 0,
    *,
    cond: float = 10.0,
    smoothing: float = 1.0,
    separable: bool = False,
    spread: float = 0.0,
    zero_fraction: float = 0.0,
) -> SmoothOracle:
    """Deterministic synthetic instance of the requested kind.

    `cond` shapes the quadratic spectrum; `smoothing` is the soft-max mu;
    `separable` aligns the rows of a logistic instance into a halfspace so the
    infimum is not attained; `spread` multiplies matrix rows/columns by random
    powers of ten to widen the mass imbalance; `zero_fraction` sparsifies the
    matrix instances.  The same seed always reproduces the same instance.
    """
    if n < 1 or m < 1:
        raise ValueError("dimensions must be at least 1")
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.logspace(0.0, -np.log10(cond), n) if cond > 1 else np.ones(n)
        a = q @ np.diag(eigs) @ q.T
        b = rng.standard_normal(n)
        return QuadraticObjective(a, b)
    if kind in ("softmax", "logistic", "exponential"):
        if m < n:
            raise ValueError(f"{kind} needs m >= n rows for a full-rank Gram metric, got m={m}, n={n}")
        # redraw until the Gram metric factorizes without a ridge
        for _ in range(10):
            rows = rng.standard_normal((m, n)) / np.sqrt(n)
            if separable:
                anchor = rng.standard_normal(n)
                anchor /= np.linalg.norm(anchor)
                rows = rows + 1.5 * anchor
            planted = rng.standard_normal(n)
            noise = rng.standard_normal(m)
            try:
                metric, ridge = gram_metric(rows)
            except np.linalg.LinAlgError:  # pragma: no cover - extremely unlikely
                continue
            if ridge == 0.0:
                break
        else:  # pragma: no cover
            raise np.linalg.LinAlgError("could not draw rows with a PD Gram matrix")
        if kind == "softmax":
            offsets = noise
            return SoftMaxObjective(rows, offsets, smoothing, metric=metric)
        offsets = rows @ planted + noise
        loss = "logistic" if kind == "logistic" else "exponential"
        return SeparableObjective(rows, offsets, loss, metric=metric)
    if kind in ("matrix_scaling", "matrix_balancing"):
        a = rng.uniform(0.1, 1.0, size=(n, n))
        if spread != 0.0:
            a = a * 10.0 ** (spread * rng.uniform(-1.0, 1.0, size=(n, 1)))
            a = a * 10.0 ** (spread * rng.uniform(-1.0, 1.0, size=(1, n)))
        if zero_fraction > 0.0:
            mask = rng.random((n, n)) < zero_fraction
            a = np.where(mask, 0.0, a)
        if kind == "matrix_scaling":
            return MatrixScalingObjective(a)
        return MatrixBalancingObjective(a)
    raise ValueError(f"unknown instance kind {kind!r}; expected one of {KINDS}")
