"""Dense linear algebra for stacks of tiny matrices (dims <= 8).

Every routine takes one matrix or a stack (..., m, n), a single matrix
being the stack of shape (), and returns results with the stack's leading
axes.  Everything is hand-rolled so the singularity and rank semantics are
explicit and identical across platforms; numpy is used only for array
storage and elementwise work, never for its linear algebra.

Inside, a stack is batch-last, (m, n, S): entry (i, j) of all members is one
contiguous row, and each step is an elementwise pass over such rows, unrolled
over the matrix indices.  Sums over a matrix index run in index order
(``index_sum``), so a member is bit-equal to its own call.  LU, solve, det,
Cholesky and the Jacobi rotations keep the stack-first arithmetic bit for
bit; J^T J (``gram``), the Jacobi dot products and the cross-product norms,
once BLAS dot products, may move in the last bit.

Batch-last callers pass their stacks as they are (``check_cross_norm``'s J,
``cholesky_spd(g, last=True)``), and ``cholesky_solve`` substitutes with that
factor, backward stable for SPD g (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 10), behind ``solve``'s pivot gate read
off L: L_jj^2 <= PIVOT_RTOL * max|g|, the largest squared row norm of L.
"""

from __future__ import annotations

import numpy as np

from .errors import HypothesisError
from .jet import cross_product

PIVOT_RTOL = 1e-12
DET_RTOL = 1e-14
JACOBI_TOL = 1e-13
JACOBI_SWEEPS = 60
RANK_RTOL = 1e-9  # numerical rank: sigma > RANK_RTOL * sigma_max
CROSS_RTOL = 1e-12


def _check_finite(A, what):
    if not np.isfinite(A).all():
        raise HypothesisError(f"{what} contains non-finite entries")


def _stack(A, square: bool = False):
    """A as a float stack (m, n, S) in a copy, and the caller's stack shape."""
    A = np.asarray(A, dtype=float)
    _check_finite(A, "matrix")
    if A.ndim < 2 or (square and A.shape[-1] != A.shape[-2]):
        kind = "square matrix" if square else "matrix"
        raise ValueError(f"expected a {kind} or a stack of them, got {A.shape}")
    return A.reshape((-1,) + A.shape[-2:]).transpose(1, 2, 0).copy(), A.shape[:-2]


def _unstack(x: np.ndarray, batch: tuple):
    """x (..., S) back on the caller's stack axes; a scalar for one matrix."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(batch + x.shape[:-1])[()]


def _batch_last(J) -> np.ndarray:
    """J (..., m, n) as a contiguous float (m, n, ...) to read; J if it is one."""
    J = np.asarray(J, dtype=float)
    return np.ascontiguousarray(J.transpose(-2, -1, *range(J.ndim - 2)))


def index_sum(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum of a C-ordered x over `axis` in index order: numpy's reduce sums an
    axis that is innermost in memory, as of one matrix, pairwise from 8 terms."""
    if x.strides[axis] > x.itemsize:
        return np.add.reduce(x, axis)
    return np.add.accumulate(x, axis).take(-1, axis)


def _eliminate(A: np.ndarray, rtol: float):
    """Partial-pivoting elimination of a float stack (n, n, S), in place:
    (perm (n, S), sign, fail), fail[i] the first column whose pivot is at or
    below rtol * max|A_i| (0 for a zero matrix), or -1.  A failed matrix goes
    on as the identity, so it cannot disturb the others."""
    n, _, S = A.shape
    floor = rtol * np.abs(A).max(axis=(0, 1))
    perm, sign, fail = np.arange(n)[:, None].repeat(S, 1), np.ones(S), np.full(S, -1)
    for k in range(n):
        col = np.abs(A[k:, k])
        p, top = np.full(S, k), col[0]
        for r in range(k + 1, n):  # strict >: the first maximal |entry| wins
            more = col[r - k] > top
            p, top = np.where(more, r, p), np.where(more, col[r - k], top)
        bad = top <= floor
        fail[bad & (fail < 0)] = k
        A[..., bad], p[bad] = np.eye(n)[..., None], k
        for r in range(k + 1, n):  # swap rows k and r where p == r
            s, rows, at = p == r, A[k : r + 1 : r - k], perm[k : r + 1 : r - k]
            rows[:], at[:] = np.where(s, rows[::-1], rows), np.where(s, at[::-1], at)
            sign = np.where(s, -sign, sign)
        A[k + 1 :, k] /= A[k, k]
        A[k + 1 :, k + 1 :] -= A[k + 1 :, k, None] * A[k, k + 1 :]
    return perm, sign, fail


def _lu(A: np.ndarray):
    """(LU (n, n, S), perm (n, S), stack shape), gated as ``lu_factor``."""
    LU, batch = _stack(A, square=True)
    perm, _, fail = _eliminate(LU, PIVOT_RTOL)
    _pivot_gate(fail, batch)
    return LU, perm, batch


def _pivot_gate(fail: np.ndarray, batch: tuple) -> None:
    """Raise HypothesisError naming the first matrix s of the stack ``batch``
    with a failing pivot column fail[s] (-1 for none)."""
    bad = np.flatnonzero(fail >= 0)
    if bad.size:
        at = tuple(int(x) for x in np.unravel_index(bad[0], batch))
        which = f" of matrix {at}" if batch else ""
        raise HypothesisError(
            f"pivot at column {fail[bad[0]]}{which} at or below {PIVOT_RTOL:.0e}*max|A|"
        )


def lu_factor(A: np.ndarray):
    """PA = LU with partial pivoting: (LU packed, perm) per matrix.  Raises
    HypothesisError, naming the first offending matrix of a stack and its
    column, when a pivot is at or below PIVOT_RTOL * max|A| of its matrix."""
    LU, perm, batch = _lu(A)
    return _unstack(LU, batch), _unstack(perm, batch)


def solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for one matrix or a stack A (..., n, n), B holding
    right-hand sides (..., n, k) on the stack's axes, where an (n, k) B
    serves every matrix."""
    LU, perm, batch = _lu(A)
    n, _, S = LU.shape
    X = np.asarray(B, dtype=float)
    _check_finite(X, "right-hand side")
    if X.ndim < 2 or X.shape[-2] != n:
        raise ValueError(f"right-hand side of shape {X.shape} for {n} x {n} matrices")
    k = X.shape[-1]
    at = perm * k + np.arange(0, S * n * k, n * k)  # P B: row perm[r, s] of B_s
    X = np.broadcast_to(X, batch + (n, k)).take(at[:, None] + np.arange(k)[:, None])
    for j in range(n - 1):  # forward: L y = P b
        X[j + 1 :] -= LU[j + 1 :, j, None] * X[j]
    for j in range(n - 1, -1, -1):  # backward: U x = y
        X[j] /= LU[j, j]
        X[:j] -= LU[:j, j, None] * X[j]
    return _unstack(X, batch)


def det(A: np.ndarray):
    """Determinant via LU; exactly 0.0 where a pivot is at or below DET_RTOL*max|A|."""
    LU, batch = _stack(A, square=True)
    _, sign, fail = _eliminate(LU, DET_RTOL)
    d = sign * np.multiply.reduce(LU.diagonal(), -1)  # times +-1: exact
    return _unstack(np.where(fail >= 0, 0.0, d), batch)


def jacobi_svd(A: np.ndarray):
    """One-sided Jacobi SVD: A = U diag(s) V^T with s descending.  Plane
    rotations on column pairs run until every pair of every matrix is
    orthogonal to relative tolerance JACOBI_TOL, for at most JACOBI_SWEEPS
    sweeps.  For m < n the transposes are factored and the roles of U and V
    swapped back."""
    A = np.asarray(A, dtype=float)
    if A.ndim >= 2 and A.shape[-2] < A.shape[-1]:
        V, s, Ut = jacobi_svd(np.swapaxes(A, -1, -2))
        return np.swapaxes(Ut, -1, -2), s, np.swapaxes(V, -1, -2)
    W, batch = _stack(A)
    m, n, S = W.shape
    # column j of W on top of column j of V: one rotation of a pair turns both
    WV = np.concatenate([W.transpose(1, 0, 2), np.eye(n)[..., None].repeat(S, 2)], 1)
    W = WV[:, :m]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                Wp, Wq = W[p], W[q]
                app, aqq, apq = index_sum(Wp * Wp), index_sum(Wq * Wq), index_sum(Wp * Wq)
                denom = np.sqrt(app * aqq)
                r = (denom > 0) & (np.abs(apq) > JACOBI_TOL * denom)
                if not r.any():
                    continue
                rotated, r = True, np.flatnonzero(r)
                tau = (aqq[r] - app[r]) / (2 * apq[r])
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1 + tau * tau))
                t[tau == 0] = 1.0
                c = 1 / np.sqrt(1 + t * t)
                s_ = c * t
                Cp, Cq = WV[p][:, r], WV[q][:, r]
                WV[p][:, r], WV[q][:, r] = c * Cp - s_ * Cq, s_ * Cp + c * Cq
        if not rotated:
            break
    sig = np.sqrt(index_sum(W * W, 1))
    order = (-sig).argsort(axis=0, kind="stable")
    sig, WV = -np.sort(-sig, axis=0), np.take_along_axis(WV, order[:, None], 0)
    U = np.divide(WV[:, :m], sig[:, None], out=np.zeros_like(W), where=sig[:, None] > 0)
    return tuple(_unstack(x, batch) for x in (U.transpose(1, 0, 2), sig, WV[:, m:]))


def svd_rank_kernel(A: np.ndarray):
    """Numerical rank, kernel basis and singular values.

    rank = #{sigma_i > RANK_RTOL * sigma_max}, so a zero matrix has rank 0 and a
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
    rank = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
    V = np.swapaxes(Vt, -1, -2)
    if np.ndim(rank) == 0:
        return int(rank), V[:, rank:].copy(), s
    return rank, V, s


def gram(J: np.ndarray) -> np.ndarray:
    """J^T J per member of a stack (..., m, n), summing rows in row order."""
    return _atb(J, J)


def _atb(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T B per member of stacks (..., m, n) and (..., m, k)."""
    g = index_sum(_batch_last(A)[:, :, None] * _batch_last(B)[:, None])
    return np.ascontiguousarray(g.transpose(*range(2, g.ndim), 0, 1))


def generalized_cross(J: np.ndarray) -> np.ndarray:
    """Cross product of the n columns of an (n+1) x n matrix, per matrix.

    v_k = (-1)^(k+1) det(J with row k deleted), 1-based k: orthogonal to
    every column, with norm = sqrt(det(J^T J)).  The n x n minors share
    their sub-minors (``jet.cross_product``).  Raises when the result is
    degenerate relative to the column norms (rank-deficient J)."""
    return _cross(J)[0]


def _cross(J: np.ndarray):
    """The cross product (..., n+1) of J and its norm, a sum in index order."""
    _check_finite(J, "Jacobian")
    if np.ndim(J) < 2 or np.shape(J)[-2] != np.shape(J)[-1] + 1:
        raise ValueError(f"expected (n+1) x n, got {np.shape(J)}")
    v, norm = cross_last(_batch_last(J))
    return np.stack(v, axis=-1), norm


def cross_last(Jt: np.ndarray):
    """The cross product of a batch-last Jt (n+1, n, ...), its n+1 entries in
    a list, and its norm, behind ``check_cross_norm``."""
    v = cross_product(lambda r, c: Jt[r, c], len(Jt[0]))
    norm = np.sqrt(sum(x * x for x in v))
    check_cross_norm(norm, Jt)
    return v, norm


def check_cross_norm(norm, Jt: np.ndarray) -> None:
    """The one degenerate-normal gate for a batch-last Jt (n+1, n, ...): raises
    HypothesisError where the norm is at or below CROSS_RTOL times Jt's column-norm product."""
    colnorm = np.multiply.reduce(np.sqrt(index_sum(Jt**2)))
    if (norm <= CROSS_RTOL * colnorm).any():
        raise HypothesisError(
            f"cross product norm {np.min(norm):.3e} below {CROSS_RTOL:.0e} * "
            "column-norm product"
        )


def unit_normal(J: np.ndarray) -> np.ndarray:
    v, norm = _cross(J)
    return v / norm[..., None]


def cholesky_spd(g: np.ndarray, last: bool = False) -> np.ndarray:
    """Lower-triangular L with g = L L^T; batched over leading axes (trailing with
    ``last``).  Raises HypothesisError if any pivot is non-positive or non-finite."""
    G = g if last else _batch_last(g)
    L = np.zeros(G.shape)
    for j in range(len(G)):
        v = G[j:, j] - (L[j:, :j] * L[j, :j]).sum(1)  # v[0] is the pivot
        if (v[0] <= 0).any() or not np.isfinite(v[0]).all():
            raise HypothesisError(f"cholesky pivot {np.min(v[0]):.3e} at column {j}")
        L[j, j] = np.sqrt(v[0])
        L[j + 1 :, j] = v[1:] / L[j, j]
    return L if last else np.ascontiguousarray(L.transpose(*range(2, L.ndim), 0, 1))


def cholesky_solve(L: np.ndarray, B: np.ndarray, batch: tuple = ()):
    """G^{-1} B, B (n, *S) or (n, k, *S), by substitution with L = ``cholesky_spd(G,
    last=True)``, behind ``solve``'s gates and messages (a matrix named by its place
    in ``batch``): L_jj^2 <= PIVOT_RTOL * max_i (L L^T)_ii, then a non-finite B."""
    n = len(L)
    fail = (L[range(n), range(n)] ** 2 <= PIVOT_RTOL * index_sum(L * L, 1).max(0)).reshape(n, -1)
    _pivot_gate(np.where(fail.any(0), fail.argmax(0), -1), batch)
    _check_finite(B, "right-hand side")
    X = np.array(B[:, None] if B.ndim < L.ndim else B, dtype=float)
    for j in range(n):  # L y = B
        X[j] /= L[j, j]
        X[j + 1 :] -= L[j + 1 :, j, None] * X[j]
    for j in range(n - 1, -1, -1):  # L^T x = y
        X[j] /= L[j, j]
        X[:j] -= L[j, :j, None] * X[j]
    return X[:, 0] if B.ndim < L.ndim else X


def max_principal_angle(B1: np.ndarray, B2: np.ndarray):
    """Largest principal angle (radians) between equal-dimension subspaces
    given by orthonormal-column bases (..., n, k), per stack member.  Two
    empty bases agree: angle 0."""
    B1, B2 = np.asarray(B1, dtype=float), np.asarray(B2, dtype=float)
    if B1.shape != B2.shape:
        raise ValueError(f"subspace dimensions differ: {B1.shape} vs {B2.shape}")
    if B1.shape[-1] == 0:
        return np.zeros(B1.shape[:-2])[()]
    _, s, _ = jacobi_svd(_atb(B1, B2))
    return np.arccos(np.clip(s[..., -1], -1.0, 1.0))
