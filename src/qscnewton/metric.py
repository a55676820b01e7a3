"""Metric operator, global norms, and regularized symmetric solves.

The whole library works with a fixed symmetric positive-definite operator B
that defines the primal norm ``||h|| = <Bh, h>^{1/2}`` and the dual norm
``||s||_* = <s, B^{-1}s>^{1/2}``.  Vectors are plain 1-d float ndarrays;
Hessians are plain symmetric 2-d ndarrays.  Everything here is dense and
factorization based.  `regularized_solve` takes a step's system
S = H + beta*B as the step formed it, once, from the symmetrized H.

Cholesky factor and solve go straight to LAPACK (``dpotrf``/``dpotrs``):
at the sizes the solvers run, scipy's ``cho_factor``/``cho_solve`` wrappers
cost more than the factorization itself, mostly in finiteness scans that
re-read every input, B's cached factor included, on every call.  Both routes
run the same LAPACK routine, so results are bitwise equal.  Finiteness is
instead checked once per step, where a value enters: the metric at
construction, S and the right-hand side on entry to `regularized_solve` or
to a box step, and the vector of each `Metric.solve`.  A non-finite
input raises `NonFiniteError`.

Symmetric-definite pencils (A, B) go straight to LAPACK the same way, in
`_pencil_eigh`: ``dsygvd`` for the full spectrum, with or without
eigenvectors, and ``dsygvx`` (with the workspace size its own query gives)
for one eigenpair by index.  These are the routines and arguments that
``scipy.linalg.eigh`` picks, so results are bitwise equal, without the
wrapper's per-call validation; the certifiers call it thousands of times
per instance.  Only lower triangles are read and the inputs are never
overwritten.  Non-finite inputs raise `NonFiniteError`, and a B that is not
positive definite gives None rather than an exception, so callers decide
what an indefinite pencil means.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dsygvd, dsygvx, dsygvx_lwork


class SingularSystemError(np.linalg.LinAlgError):
    """A regularized system stayed unsolvable after the jitter ladder, or a
    box step's system or a free block of it is not positive definite."""


class NonFiniteError(ValueError):
    """An oracle output or a solver input holds NaN or inf."""


def require_finite(a, name: str) -> None:
    """Raise `NonFiniteError` unless every entry of `a` is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or inf")


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric matrix a, or None when a is
    not positive definite.  Only the lower triangle of a is read, and the
    factor's upper triangle holds leftovers (as with ``cho_factor``); a is
    never overwritten.  The caller guarantees that a is finite."""
    factor, info = dpotrf(a, lower=1, clean=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    return None if info > 0 else factor


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a 1-d or 2-d b, given `_cholesky`'s factor of A."""
    x, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


def _cho_inverse(factor: np.ndarray) -> np.ndarray:
    """The inverse of A, exactly symmetric, given `_cholesky`'s factor of A."""
    inverse, info = dpotri(factor, lower=1)
    if info != 0:
        raise ValueError(f"LAPACK potri failed with info {info}")
    lower = np.tril(inverse)
    lower += np.tril(inverse, -1).T
    return lower


def _pencil_eigh(a: np.ndarray, b: np.ndarray, *, vectors: bool = False, index: int | None = None):
    """Eigenvalues, ascending, of the symmetric-definite pencil a v = lambda b v.

    With `vectors` it returns (eigenvalues, eigenvectors) with the
    b-orthonormal eigenvectors as columns.  With `index` only the eigenpair
    of that 0-based index is computed, so the arrays have length 1 and one
    column.  Returns None when b is not positive definite; NaN or inf in a
    or b raises `NonFiniteError`, and a LAPACK convergence failure raises
    ``LinAlgError``.
    """
    require_finite(a, "pencil matrix A")
    require_finite(b, "pencil matrix B")
    n = a.shape[0]
    jobz = "V" if vectors else "N"
    if index is None:
        w, v, info = dsygvd(a, b, jobz=jobz, uplo="L")
    else:
        lwork = int(dsygvx_lwork(n, uplo="L")[0])
        w, v, found, _, info = dsygvx(
            a, b, jobz=jobz, range="I", il=index + 1, iu=index + 1, uplo="L", lwork=lwork
        )
        w, v = w[:found], v[:, :found]
    if info > n:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK sygv")
    if info > 0:
        raise np.linalg.LinAlgError(f"generalized eigensolve did not converge (LAPACK info={info})")
    return (w, v) if vectors else w


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, of each matrix of a stack; oracle outputs may
    drift off symmetric in float."""
    return 0.5 * (a + a.mT)


def matvec(a: np.ndarray, x) -> np.ndarray:
    """A x for a vector x, or A x_i for each row x_i of a stack of vectors,
    the stack in one matrix product."""
    return a @ x if np.asarray(x).ndim == 1 else x @ a.T


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


class Metric:
    """SPD operator defining the primal and dual norms; owns its factorization.

    Immutable after construction: the Cholesky factor is computed once and the
    stored matrix is write-protected, so instances are safe to share.
    """

    def __init__(self, matrix) -> None:
        m = _as_matrix(matrix, "metric")
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError("metric operator must be symmetric (1e-12 relative)")
        m = symmetrize(m)
        self._factor = _cholesky(m)
        if self._factor is None:
            raise SingularSystemError("metric operator is not positive definite")
        m.setflags(write=False)
        self._matrix = m

    @classmethod
    def identity(cls, dim: int) -> "Metric":
        return cls(np.eye(dim))

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def apply(self, h: np.ndarray) -> np.ndarray:
        """B h, mapping a primal vector to a dual vector."""
        return self._matrix @ h

    def solve(self, s: np.ndarray) -> np.ndarray:
        """B^{-1} s via the cached Cholesky factor (never an explicit inverse);
        s is a vector or an (n, k) block of columns and must be finite."""
        s = np.asarray(s, dtype=float)
        require_finite(s, "vector")
        return _cho_solve(self._factor, s)

    def _vectors(self, v) -> np.ndarray:
        """v as a vector or a (k, n) stack of them.  The norms run numpy's
        vecmat and vecdot, which run the gemv or dot of a vector once per
        row, so each row's norm is bitwise its vector's."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"vector of shape {v.shape} does not match metric dim {self.dim}")
        return v

    def primal_norm(self, h: np.ndarray):
        """||h|| = <Bh, h>^{1/2}, of a vector or of each row of a stack."""
        h = self._vectors(h)
        return _root(np.vecdot(np.vecmat(h, self._matrix), h))

    def dual_norm(self, s: np.ndarray):
        """||s||_* = <s, B^{-1}s>^{1/2}, of a vector or of each row of a stack."""
        s = self._vectors(s)
        return _root(np.vecdot(s, self.solve(s.T).T))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Metric(dim={self.dim})"


def _root(q):
    # quadratic forms of PSD operators, up to roundoff: tiny negative values
    # are clamped to zero
    return np.sqrt(np.maximum(q, 0.0))


def local_norm(h: np.ndarray, hessian: np.ndarray):
    """Hessian-induced seminorm <Hh, h>^{1/2}; defined (possibly 0) for PSD H.

    Of a vector h with H = hessian, or of each row h_i of a (k, n) stack with
    H_i = hessian[i].
    """
    h = np.asarray(h, dtype=float)
    hess = np.asarray(hessian, dtype=float)
    if h.ndim not in (1, 2) or hess.shape != h.shape + h.shape[-1:]:
        raise ValueError(f"hessian shape {hess.shape} does not match vector shape {h.shape}")
    return _root(np.vecdot(np.vecmat(h, hess), h))


_MAX_JITTER_RETRIES = 6  # of `regularized_solve`, the last at delta = 1e-7


def regularized_solve(system: np.ndarray, metric: Metric, rhs: np.ndarray):
    """Solve S d = rhs by symmetric factorization, for the symmetric system
    S = H + beta*B a caller formed.

    If the factorization fails, or the residual of the *unjittered* system
    exceeds ``1e-10 * (||rhs|| + 1)``, a jitter ladder adds ``delta * B``
    with delta = 1e-12, growing tenfold per retry, for at most
    `_MAX_JITTER_RETRIES` retries before raising `SingularSystemError`.
    One step of iterative refinement is applied after each solve.  NaN or
    inf in S or in rhs raises `NonFiniteError` before any factorization.

    Returns ``(d, factor)``: `factor` is `_cholesky`'s factor of the
    unjittered S, or None when S is not positive definite.
    """
    rhs = np.asarray(rhs, dtype=float)
    system = np.asarray(system, dtype=float)
    if system.shape != (metric.dim, metric.dim) or rhs.shape != (metric.dim,):
        raise ValueError("dimension mismatch between system, metric, and rhs")
    require_finite(system, "H + beta*B")
    require_finite(rhs, "rhs")
    tol = 1e-10 * (np.linalg.norm(rhs) + 1.0)
    delta = 0.0
    for _ in range(_MAX_JITTER_RETRIES + 1):
        shifted = system if delta == 0.0 else system + delta * metric.matrix
        factor = _cholesky(shifted)
        if delta == 0.0:
            unjittered = factor
        if factor is None:
            delta = 1e-12 if delta == 0.0 else delta * 10.0
            continue
        d = _cho_solve(factor, rhs)
        # one refinement step against the shifted system, then check the
        # residual of the system we are contracted to solve
        d += _cho_solve(factor, rhs - shifted @ d)
        if np.linalg.norm(system @ d - rhs) <= tol:
            return d, unjittered
        delta = 1e-12 if delta == 0.0 else delta * 10.0
    raise SingularSystemError("system H + beta*B not solvable to tolerance after jitter ladder")


def min_generalized_eigenvalue(hessian: np.ndarray, metric: Metric) -> float:
    """Smallest eigenvalue of H relative to B, clamped at zero.

    Computed as the smallest eigenvalue of the pencil (H, B); invariant under
    simultaneous congruence transformations of H and B.  Values within
    ``-1e-10 * (1 + ||H||)`` of zero are clamped to 0; more negative values
    mean the input was not PSD and raise; NaN or inf entries raise
    `NonFiniteError`.
    """
    h = symmetrize(np.asarray(hessian, dtype=float))
    if h.shape != (metric.dim, metric.dim):
        raise ValueError("hessian dimension does not match metric")
    # B is positive definite (Metric checks it), so the pencil is definite
    lam = float(_pencil_eigh(h, metric.matrix, index=0)[0])
    if lam >= 0.0:
        return lam
    tol = 1e-10 * (1.0 + np.linalg.norm(h, "fro"))
    if lam >= -tol:
        return 0.0
    raise ValueError(f"hessian is not positive semidefinite: min eigenvalue {lam:g}")
