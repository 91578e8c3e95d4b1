"""Dense linear algebra for stacks of tiny matrices (dims <= 8).

Every routine takes one matrix or a stack (..., m, n), a single matrix
being the stack of shape (), and returns results with the stack's leading
axes.  Everything is hand-rolled so the singularity and rank semantics are
explicit and identical across platforms; numpy is used only for array
storage and elementwise work, never for its linear algebra.

* One partial-pivoting elimination with two gates: ``lu_factor`` refuses a
  stack in which any pivot falls at or below PIVOT_RTOL * max|A| of its
  matrix, naming the matrix and column, and ``det`` gives exactly 0.0 to
  the members whose pivot falls at or below DET_RTOL * max|A|.
* One-sided Jacobi SVD iterated to a fixed off-diagonal threshold.  Each
  column pair (p, q) is rotated in every member of the stack at once; a
  member whose pair is already orthogonal is left exactly as it is, and the
  sweeps stop when no member rotated.
* The generalized (n-ary) cross product by the memoized first-row minor
  expansion of ``jet.minor_dets`` (the sub-minors shared by the n + 1
  minors are computed once), elementwise over the stack, so each member is
  bit-equal to its own call.  ``check_cross_norm`` is the one
  degenerate-normal gate, shared with the jet normal.  A Cholesky
  factorization serves the positive-definite gates.
"""

from __future__ import annotations

import numpy as np

from .errors import HypothesisError
from .jet import cross_product

PIVOT_RTOL = 1e-12
DET_RTOL = 1e-14
JACOBI_TOL = 1e-13
RANK_RTOL = 1e-9
CROSS_RTOL = 1e-12


def _check_finite(A, what):
    if not np.all(np.isfinite(A)):
        raise HypothesisError(f"{what} contains non-finite entries")


def _stack(A, square: bool = False):
    """A as a float stack (S, m, n), and the caller's stack shape."""
    A = np.asarray(A, dtype=float)
    _check_finite(A, "matrix")
    if A.ndim < 2 or (square and A.shape[-1] != A.shape[-2]):
        kind = "square matrix" if square else "matrix"
        raise ValueError(f"expected a {kind} or a stack of them, got {A.shape}")
    return A.reshape((-1,) + A.shape[-2:]), A.shape[:-2]


def _unstack(x: np.ndarray, batch: tuple):
    """x (S, ...) back on the caller's stack axes; a scalar for one matrix."""
    return x.reshape(batch + x.shape[1:])[()]


def _dot(x: np.ndarray, y: np.ndarray):
    """Dot product over the last axis, one per stack member."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _eliminate(A: np.ndarray, rtol: float):
    """Partial-pivoting elimination of a float stack (S, n, n), in place.

    Returns (perm, sign, fail).  fail[i] is the first column at which the
    pivot of matrix i falls at or below rtol * max|A_i| (column 0 for a zero
    matrix), or -1.  A failed matrix goes on as the identity, so it cannot
    disturb the others.
    """
    S, n, _ = A.shape
    scale = np.abs(A).max(axis=(1, 2))
    perm = np.tile(np.arange(n), (S, 1))
    sign = np.ones(S)
    fail = np.full(S, -1)
    i = np.arange(S)
    for k in range(n):
        p = k + np.argmax(np.abs(A[:, k:, k]), axis=1)
        bad = np.abs(A[i, p, k]) <= rtol * scale
        fail[bad & (fail < 0)] = k
        A[bad], p[bad] = np.eye(n), k
        A[i, k], A[i, p] = A[i, p], A[i, k]
        perm[i, k], perm[i, p] = perm[i, p], perm[i, k]
        sign[p != k] *= -1
        A[:, k + 1 :, k] /= A[:, k, k, None]
        A[:, k + 1 :, k + 1 :] -= A[:, k + 1 :, k, None] * A[:, None, k, k + 1 :]
    return perm, sign, fail


def lu_factor(A: np.ndarray):
    """PA = LU with partial pivoting; returns (LU packed, perm) per matrix.

    Raises HypothesisError, naming the first offending matrix of a stack
    and its column, when a pivot falls at or below
    PIVOT_RTOL * max|A| of its matrix.
    """
    LU, batch = _stack(A, square=True)
    LU = LU.copy()
    perm, _, fail = _eliminate(LU, PIVOT_RTOL)
    bad = np.flatnonzero(fail >= 0)
    if bad.size:
        at = tuple(int(x) for x in np.unravel_index(bad[0], batch))
        which = f" of matrix {at}" if batch else ""
        raise HypothesisError(
            f"pivot at column {fail[bad[0]]}{which} at or below {PIVOT_RTOL:.0e}*max|A|"
        )
    return _unstack(LU, batch), _unstack(perm, batch)


def solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for one matrix or a stack A (..., n, n).

    B is one vector (n,), for one matrix only, or right-hand sides
    (..., n, k) on the stack's axes, where an (n, k) B serves every matrix.
    """
    LU, perm = lu_factor(A)
    n = LU.shape[-1]
    B = np.asarray(B, dtype=float)
    _check_finite(B, "right-hand side")
    single = B.ndim == 1
    if single and LU.ndim > 2:
        raise ValueError("a 1-d right-hand side needs one matrix, not a stack")
    X = B[:, None] if single else B
    if X.ndim < 2 or X.shape[-2] != n:
        raise ValueError(f"right-hand side of shape {B.shape} for {n} x {n} matrices")
    X = np.broadcast_to(X, LU.shape[:-2] + X.shape[-2:])
    X = np.take_along_axis(X, perm[..., None], axis=-2)
    for k in range(n):  # forward: L y = P b
        X[..., k + 1 :, :] -= LU[..., k + 1 :, k, None] * X[..., k, None, :]
    for k in range(n - 1, -1, -1):  # backward: U x = y
        X[..., k, :] /= LU[..., k, k, None]
        X[..., :k, :] -= LU[..., :k, k, None] * X[..., k, None, :]
    return X[:, 0] if single else X


def det(A: np.ndarray):
    """Determinant via LU; exactly 0.0 for the numerically singular members."""
    LU, batch = _stack(A, square=True)
    LU = LU.copy()
    _, d, fail = _eliminate(LU, DET_RTOL)
    for k in range(LU.shape[-1]):
        d *= LU[:, k, k]
    d[fail >= 0] = 0.0
    return _unstack(d, batch)


def jacobi_svd(A: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = 60):
    """One-sided Jacobi SVD: A = U diag(s) V^T with s descending.

    Iterates plane rotations on column pairs until every pair of every
    matrix is orthogonal to relative tolerance `tol`.  For m < n the
    transposes are factored and the roles of U and V swapped back.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim >= 2 and A.shape[-2] < A.shape[-1]:
        V, s, Ut = jacobi_svd(np.swapaxes(A, -1, -2), tol, max_sweeps)
        return np.swapaxes(Ut, -1, -2), s, np.swapaxes(V, -1, -2)
    W, batch = _stack(A)
    S, m, n = W.shape
    # W on top of V, so one rotation of the columns turns both
    WV = np.concatenate([W, np.broadcast_to(np.eye(n), (S, n, n))], axis=1)
    W = WV[:, :m]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = _dot(W[..., p], W[..., p])
                aqq = _dot(W[..., q], W[..., q])
                apq = _dot(W[..., p], W[..., q])
                denom = np.sqrt(app * aqq)
                r = np.flatnonzero((denom > 0) & (np.abs(apq) > tol * denom))
                if r.size == 0:
                    continue
                rotated = True
                tau = (aqq[r] - app[r]) / (2 * apq[r])
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1 + tau * tau))
                t[tau == 0] = 1.0
                c = 1 / np.sqrt(1 + t * t)
                c, s_ = c[:, None], (c * t)[:, None]
                Cp, Cq = WV[r, :, p], WV[r, :, q]
                WV[r, :, p], WV[r, :, q] = c * Cp - s_ * Cq, s_ * Cp + c * Cq
        if not rotated:
            break
    sig = np.sqrt(np.sum(W * W, axis=1))
    order = np.argsort(-sig, axis=-1, kind="stable")
    sig = np.take_along_axis(sig, order, axis=-1)
    WV = np.take_along_axis(WV, order[:, None, :], axis=-1)
    W, V = WV[:, :m], WV[:, m:]
    pos = sig[:, None, :] > 0
    U = np.divide(W, sig[:, None, :], out=np.zeros_like(W), where=pos)
    return tuple(_unstack(x, batch) for x in (U, sig, np.swapaxes(V, 1, 2)))


def svd_rank_kernel(A: np.ndarray, tol: float = RANK_RTOL):
    """Numerical rank, kernel basis and singular values.

    rank = #{sigma_i > tol * sigma_max}, so a zero matrix has rank 0 and a
    full kernel.  The kernel columns are the right singular vectors of the
    discarded sigmas: (n, n - rank), orthonormal, for one matrix.  Kernels
    are ragged across a stack, so a stack gets every right singular vector,
    (..., n, n) by descending sigma: matrix i's kernel is
    kernel[i][:, rank[i]:].  Wide matrices (m < n) are refused: their SVD
    holds only m right singular vectors, too few to span the kernel.
    """
    shape = np.shape(A)
    if len(shape) >= 2 and shape[-2] < shape[-1]:
        raise ValueError(f"rank and kernel need m >= n, got a wide matrix {shape}")
    _, s, Vt = jacobi_svd(A)
    rank = np.sum(s > tol * s[..., :1], axis=-1)
    V = np.swapaxes(Vt, -1, -2)
    if np.ndim(rank) == 0:
        return int(rank), V[:, rank:].copy(), s
    return rank, V, s


def generalized_cross(J: np.ndarray) -> np.ndarray:
    """Cross product of the n columns of an (n+1) x n matrix, per matrix.

    v_k = (-1)^(k+1) det(J with row k deleted), 1-based k: orthogonal to
    every column, with norm = sqrt(det(J^T J)).  The n x n minors share
    their sub-minors (``jet.cross_product``).  Raises when the result is
    degenerate relative to the column norms (rank-deficient J).
    """
    J = np.asarray(J, dtype=float)
    _check_finite(J, "Jacobian")
    if J.ndim < 2 or J.shape[-2] != J.shape[-1] + 1:
        raise ValueError(f"expected (n+1) x n, got {J.shape}")
    Jt = np.moveaxis(J, (-2, -1), (0, 1)).copy()
    v = np.stack(cross_product(lambda r, c: Jt[r, c], J.shape[-1]), axis=-1)
    check_cross_norm(np.sqrt(_dot(v, v)), J)
    return v


def check_cross_norm(norm, J: np.ndarray) -> None:
    """The one degenerate-normal gate: raises HypothesisError where
    the cross-product norm is at or below CROSS_RTOL times the product of
    the column norms of J (..., n+1, n)."""
    colnorm = np.prod(np.sqrt(np.sum(J * J, axis=-2)), axis=-1)
    if np.any(norm <= CROSS_RTOL * colnorm):
        raise HypothesisError(
            f"cross product norm {np.min(norm):.3e} below {CROSS_RTOL:.0e} * "
            "column-norm product"
        )


def unit_normal(J: np.ndarray) -> np.ndarray:
    v = generalized_cross(J)
    return v / np.sqrt(_dot(v, v))[..., None]


def cholesky_spd(g: np.ndarray) -> np.ndarray:
    """Lower-triangular L with g = L L^T; batched over leading axes.

    Raises HypothesisError if any pivot is non-positive or non-finite
    anywhere in the batch.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    L = np.zeros_like(g)
    for j in range(n):
        d = g[..., j, j] - np.sum(L[..., j, :j] ** 2, axis=-1)
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise HypothesisError(f"cholesky pivot {np.min(d):.3e} at column {j}")
        L[..., j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            L[..., i, j] = (
                g[..., i, j] - np.sum(L[..., i, :j] * L[..., j, :j], axis=-1)
            ) / L[..., j, j]
    return L


def max_principal_angle(B1: np.ndarray, B2: np.ndarray):
    """Largest principal angle (radians) between equal-dimension subspaces
    given by orthonormal-column bases (..., n, k), per stack member.  Two
    empty bases agree: angle 0."""
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.shape != B2.shape:
        raise ValueError(f"subspace dimensions differ: {B1.shape} vs {B2.shape}")
    if B1.shape[-1] == 0:
        return np.zeros(B1.shape[:-2])[()]
    _, s, _ = jacobi_svd(np.swapaxes(B1, -1, -2) @ B2)
    return np.arccos(np.clip(s[..., -1], -1.0, 1.0))
