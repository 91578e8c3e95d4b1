"""Linear algebra tests; numpy's LAPACK routines and a plain-Python
elimination serve as the independent oracles (the shipped code never calls
either for these decisions)."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodeform import linalg
from isodeform.errors import HypothesisError
from isodeform.linalg import (
    check_cross_norm,
    cholesky_solve,
    cholesky_spd,
    det,
    generalized_cross,
    gram,
    jacobi_svd,
    max_principal_angle,
    solve,
    svd_rank_kernel,
    unit_normal,
)


def test_solve_known_system():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = solve(A, np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-14)


def test_solve_multiple_rhs_vs_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4, 6, 8):
        A = rng.uniform(-2, 2, (n, n)) + n * np.eye(n)
        B = rng.uniform(-1, 1, (n, 3))
        assert np.allclose(solve(A, B), np.linalg.solve(A, B), atol=1e-11)


def test_solve_requires_pivoting():
    # zero in the (0,0) slot forces a row swap
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(solve(A, np.array([2.0, 3.0])), [3.0, 2.0])


def test_solve_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(HypothesisError, match="pivot at column 1 at or below"):
        solve(A, np.array([1.0, 1.0]))
    with pytest.raises(HypothesisError, match="matrix contains non-finite entries"):
        solve(np.array([[np.nan, 0], [0, 1.0]]), np.array([1.0, 1.0]))


def test_det_vs_numpy():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4, 5):
        A = rng.uniform(-1, 1, (n, n))
        assert det(A) == pytest.approx(np.linalg.det(A), rel=1e-10, abs=1e-12)
    assert det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_jacobi_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(2)
    for m, n in [(2, 2), (3, 3), (4, 3), (5, 4), (3, 5), (8, 8)]:
        A = rng.uniform(-1, 1, (m, n))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose(U @ np.diag(s) @ Vt, A, atol=1e-12)
        assert np.allclose(Vt @ Vt.T, np.eye(Vt.shape[0]), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-11)


def test_svd_rank_kernel():
    # rank-2 3x3 with kernel along (1,1,1)/sqrt3
    P = np.eye(3) - np.ones((3, 3)) / 3
    rank, kernel, s = svd_rank_kernel(P)
    assert rank == 2
    assert kernel.shape == (3, 1)
    assert abs(abs(kernel[:, 0] @ (np.ones(3) / np.sqrt(3))) - 1) < 1e-12

    rank, kernel, _ = svd_rank_kernel(np.zeros((3, 3)))
    assert rank == 0 and kernel.shape == (3, 3)

    rank, kernel, _ = svd_rank_kernel(np.diag([2.0, 1.0, 1e-14]))
    assert rank == 2


def test_svd_rank_kernel_refuses_wide_matrices():
    # [[1, 2, 3]] has a 2-dimensional kernel, but its SVD holds only one
    # right singular vector, so neither one matrix nor a stack is answered
    with pytest.raises(ValueError, match=r"wide matrix \(1, 3\)"):
        svd_rank_kernel(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match=r"wide matrix \(4, 2, 3\)"):
        svd_rank_kernel(np.ones((4, 2, 3)))
    rank, kernel, _ = svd_rank_kernel(np.array([[1.0, 2.0, 3.0]]).T)
    assert rank == 1 and kernel.shape == (1, 0)


def test_generalized_cross_r3_matches_cross():
    rng = np.random.default_rng(3)
    for _ in range(20):
        J = rng.uniform(-1, 1, (3, 2))
        v = generalized_cross(J)
        assert np.allclose(v, np.cross(J[:, 0], J[:, 1]), atol=1e-12)


def test_generalized_cross_axes():
    J = np.zeros((3, 2))
    J[0, 0] = 1.0
    J[1, 1] = 1.0
    assert np.allclose(generalized_cross(J), [0, 0, 1])
    J2 = np.zeros((3, 2))
    J2[0, 0] = 1.0
    J2[2, 1] = 1.0
    assert np.allclose(generalized_cross(J2), [0, -1, 0])


def test_generalized_cross_orthogonality_r5():
    rng = np.random.default_rng(4)
    for _ in range(10):
        J = rng.uniform(-1, 1, (5, 4))
        v = generalized_cross(J)
        assert np.max(np.abs(J.T @ v)) < 1e-12 * np.linalg.norm(v)
        # norm identity: |v| = sqrt(det(J^T J))
        assert np.linalg.norm(v) == pytest.approx(
            np.sqrt(np.linalg.det(J.T @ J)), rel=1e-9
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generalized_cross_stack_matches_single_and_lu_route(n):
    rng = np.random.default_rng(20 + n)
    J = rng.uniform(-1, 1, (2, 3, n + 1, n))
    V = generalized_cross(J)
    assert V.shape == (2, 3, n + 1)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(V[idx], generalized_cross(J[idx]))
    # the minors by pivoting LU, one determinant each
    lu = np.stack(
        [(-1) ** k * det(np.delete(J, k, axis=-2)) for k in range(n + 1)], axis=-1
    )
    err = np.abs(V - lu).max(axis=-1)
    assert np.all(err <= 1e-14 * np.abs(lu).max(axis=-1))


def test_generalized_cross_degenerate_raises():
    J = np.ones((3, 2))  # parallel columns
    with pytest.raises(HypothesisError, match="cross product norm"):
        generalized_cross(J)


def test_unit_normal():
    rng = np.random.default_rng(5)
    J = rng.uniform(-1, 1, (4, 3))
    N = unit_normal(J)
    assert np.linalg.norm(N) == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(J.T @ N)) < 1e-13


def test_cholesky_batched_vs_numpy():
    rng = np.random.default_rng(6)
    M = rng.uniform(-1, 1, (10, 3, 3))
    g = np.einsum("bij,bkj->bik", M, M) + 0.5 * np.eye(3)
    L = cholesky_spd(g)
    assert np.allclose(np.einsum("bij,bkj->bik", L, L), g, atol=1e-12)
    assert np.allclose(L, np.linalg.cholesky(g), atol=1e-12)
    with pytest.raises(HypothesisError, match="cholesky pivot"):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_max_principal_angle():
    B1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    B2 = B1.copy()
    assert max_principal_angle(B1, B2) == pytest.approx(0.0, abs=1e-7)
    th = 0.3
    B3 = np.array([[np.cos(th), 0.0], [0.0, 1.0], [np.sin(th), 0.0]])
    assert max_principal_angle(B1, B3) == pytest.approx(th, abs=1e-12)
    empty = np.zeros((3, 0))
    assert max_principal_angle(empty, empty) == 0.0
    with pytest.raises(ValueError, match="subspace dimensions differ"):
        max_principal_angle(B1, np.zeros((3, 1)))


# ------------------------------------------------------------------ stacks


def _mixed_stack(rng, n, m=None, size=12):
    """Random matrices, a zero matrix and members of every rank 1..n-1."""
    m = n if m is None else m
    A = rng.uniform(-1, 1, (size, m, n))
    A[1] = 0.0
    for r in range(1, min(m, n)):
        A[1 + r] = rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, n))
    return A


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lu_solve_det_on_stacks(n):
    rng = np.random.default_rng(10 + n)
    A = rng.uniform(-1, 1, (7, n, n)) + n * np.eye(n)
    LU, perm = linalg.lu_factor(A)
    for i in range(len(A)):
        lu_i, perm_i = linalg.lu_factor(A[i])
        assert np.array_equal(LU[i], lu_i) and np.array_equal(perm[i], perm_i)
        L = np.tril(LU[i], -1) + np.eye(n)
        assert np.allclose(L @ np.triu(LU[i]), A[i][perm[i]], atol=1e-13)

    B = rng.uniform(-1, 1, (7, n, 3))
    X = solve(A, B)
    shared = solve(A, B[0])
    for i in range(len(A)):
        assert np.array_equal(X[i], solve(A[i], B[i]))
        assert np.array_equal(shared[i], solve(A[i], B[0]))
    assert np.allclose(X, np.linalg.solve(A, B), atol=1e-12)
    with pytest.raises(ValueError, match="1-d right-hand side"):
        solve(A, B[0, :, 0])

    S = _mixed_stack(rng, n)  # members 1..n are singular, the rest not
    d = det(S)
    assert d.shape == (len(S),)
    singular = np.arange(1, n + 1)
    assert np.all(d[singular] == 0.0)
    assert np.all(np.delete(d, singular) != 0.0)
    for i in range(len(S)):
        assert d[i] == det(S[i])
    assert np.allclose(
        np.delete(d, singular), np.delete(np.linalg.det(S), singular), rtol=1e-10
    )
    with pytest.raises(HypothesisError, match=r"column \d of matrix \(1,\)"):
        linalg.lu_factor(S)
    # the first failing column is named, also when max|A| dwarfs 1
    big = 1e13 * A[0]
    big[:, 0] = 0.0
    with pytest.raises(HypothesisError, match="pivot at column 0 at or below"):
        linalg.lu_factor(big)
    S[singular] = np.eye(n)
    S[10, :, -1] = S[10, :, 0]
    where = rf"column {n - 1} of matrix \(1, 4\)"
    with pytest.raises(HypothesisError, match=where):
        solve(S.reshape(2, 6, n, n), np.eye(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("dm", [-1, 0, 1])
def test_jacobi_svd_on_stacks(n, dm):
    _check_svd_stack(_mixed_stack(np.random.default_rng(20 + n), n, m=n + dm))


@pytest.mark.parametrize("m, n", [(9, 8), (9, 1), (16, 3)])
def test_tall_stack_members_match_single_calls(m, n):
    # numpy's reduce adds 8 or more contiguous terms, as of one matrix, pairwise
    A = _mixed_stack(np.random.default_rng(70 + m + n), n, m=m)
    _check_svd_stack(A)
    G = gram(A)
    for i in range(len(A)):
        assert np.array_equal(G[i], gram(A[i]))


def _check_svd_stack(A):
    U, s, Vt = jacobi_svd(A)
    for i in range(len(A)):
        u, si, vt = jacobi_svd(A[i])
        assert np.array_equal(U[i], u)
        assert np.array_equal(s[i], si)
        assert np.array_equal(Vt[i], vt)
    assert np.allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-12)
    assert np.allclose(U * s[:, None, :] @ Vt, A, atol=1e-12)
    assert np.all(s[1] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_kernel_and_angle_on_stacks(n):
    rng = np.random.default_rng(30 + n)
    A = _mixed_stack(rng, n)
    rank, V, s = svd_rank_kernel(A)
    oracle = np.linalg.svd(A, compute_uv=False)
    assert np.array_equal(rank, np.sum(oracle > 1e-9 * oracle[:, :1], axis=1))
    assert rank[1] == 0
    assert sorted(set(rank.tolist())) == list(range(n + 1))
    for i in range(len(A)):
        r_i, k_i, s_i = svd_rank_kernel(A[i])
        assert rank[i] == r_i and np.array_equal(s[i], s_i)
        assert np.array_equal(V[i][:, rank[i]:], k_i)
        assert np.allclose(A[i] @ k_i, 0.0, atol=1e-12)

    for k in range(n + 1):
        B1 = np.linalg.qr(rng.uniform(-1, 1, (6, n, n)))[0][..., :k]
        B2 = np.linalg.qr(rng.uniform(-1, 1, (6, n, n)))[0][..., :k]
        angle = max_principal_angle(B1, B2)
        assert angle.shape == (6,)
        for i in range(6):
            assert angle[i] == max_principal_angle(B1[i], B2[i])
        if k:
            cos = np.linalg.svd(np.swapaxes(B1, -1, -2) @ B2, compute_uv=False)
            assert np.allclose(angle, np.arccos(np.clip(cos[:, -1], -1, 1)), atol=1e-7)
        else:
            assert np.all(angle == 0.0)


def test_library_never_calls_numpy_linalg():
    src = Path(linalg.__file__).parent
    offenders = [
        p.name
        for p in sorted(src.rglob("*.py"))
        if "numpy.linalg" in p.read_text() or "np.linalg" in p.read_text()
    ]
    assert offenders == []


# ------------------------------------------------- plain-Python reference


def _reference_eliminate(A, rtol):
    """Partial pivoting on one matrix in plain Python loops: the first
    maximal |entry| of a column wins, rows swap, and the first pivot at or
    below rtol * max|A| ends it.  Returns (LU rows, perm, det, failed
    column or -1); det is exactly 0.0 for a failed matrix."""
    a = [[float(x) for x in row] for row in A]
    n = len(a)
    floor = rtol * max(abs(x) for row in a for x in row)
    perm, d = list(range(n)), 1.0
    for k in range(n):
        p = k
        for r in range(k + 1, n):
            if abs(a[r][k]) > abs(a[p][k]):
                p = r
        if abs(a[p][k]) <= floor:
            return None, None, 0.0, k
        if p != k:
            a[k], a[p] = a[p], a[k]
            perm[k], perm[p] = perm[p], perm[k]
            d = -d
        for r in range(k + 1, n):
            a[r][k] /= a[k][k]
            for c in range(k + 1, n):
                a[r][c] -= a[r][k] * a[k][c]
    for k in range(n):
        d *= a[k][k]
    return a, perm, d, -1


def _reference_substitute(lu, perm, B):
    """Solve L U X = P B column by column in plain Python, in the order of
    ``solve``: forward by columns of L, then backward by columns of U."""
    X = [[float(x) for x in B[p]] for p in perm]
    n = len(lu)
    for j in range(n):
        for i in range(j + 1, n):
            X[i] = [x - lu[i][j] * y for x, y in zip(X[i], X[j])]
    for j in range(n - 1, -1, -1):
        X[j] = [x / lu[j][j] for x in X[j]]
        for i in range(j):
            X[i] = [x - lu[i][j] * y for x, y in zip(X[i], X[j])]
    return np.array(X)


# few distinct magnitudes, so column maxima tie and members come out singular
_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 0.5]),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


@st.composite
def _square_stacks(draw):
    """A stack (S, n, n) whose members are random, or have a zero column, a
    repeated row (exactly singular) or a column equal to another's negative."""
    n, size = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    A = np.array(draw(st.lists(_ENTRY, min_size=size * n * n, max_size=size * n * n)))
    A = A.reshape(size, n, n)
    for M in A:
        kind = draw(st.sampled_from(["random", "zero column", "repeated row", "tied"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "zero column":
            M[:, j] = 0.0
        elif kind == "repeated row" and i != j:
            M[i] = M[j]
        elif kind == "tied" and i != j:
            M[:, i] = -M[:, j]
    return A


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_square_stacks())
def test_elimination_matches_a_plain_python_reference(A):
    refs = [_reference_eliminate(M, linalg.PIVOT_RTOL) for M in A]
    d = det(A)
    for i, M in enumerate(A):
        want = _reference_eliminate(M, linalg.DET_RTOL)[2]
        assert d[i] == want and det(M) == want  # bit-equal, the exact 0.0 too
        assert np.signbit(d[i]) == np.signbit(want)
        lu, perm, _, fail = refs[i]
        if fail >= 0:
            with pytest.raises(HypothesisError, match=f"pivot at column {fail} at"):
                linalg.lu_factor(M)
        else:
            LU, p = linalg.lu_factor(M)
            assert np.array_equal(LU, lu) and p.tolist() == perm
    failed = [i for i, ref in enumerate(refs) if ref[3] >= 0]
    if failed:
        where = rf"pivot at column {refs[failed[0]][3]} of matrix \({failed[0]},\) "
        with pytest.raises(HypothesisError, match=where):
            linalg.lu_factor(A)
    else:
        LU, perm = linalg.lu_factor(A)
        for i, (lu, p, _, _) in enumerate(refs):
            assert np.array_equal(LU[i], lu) and perm[i].tolist() == p
        # members that swap rows and members that do not, in one stack
        B = np.cumsum(A, axis=-1)
        X = solve(A, B)
        for i, (lu, p, _, _) in enumerate(refs):
            assert np.array_equal(X[i], _reference_substitute(lu, p, B[i]))
            assert np.array_equal(X[i], solve(A[i], B[i]))


# ------------------------------------------------------- the other kernels


def test_cholesky_stack_members_match_single_calls():
    rng = np.random.default_rng(40)
    for n in range(1, 9):
        M = rng.uniform(-1, 1, (2, 3, n, n))
        g = np.einsum("...ij,...kj->...ik", M, M) + 0.1 * np.eye(n)
        L = cholesky_spd(g)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(L[idx], cholesky_spd(g[idx]))


def test_cholesky_gate_names_the_failing_column():
    with pytest.raises(HypothesisError, match=r"cholesky pivot -1\.000e\+00 at column 2$"):
        cholesky_spd(np.diag([1.0, 2.0, -1.0, 4.0]))
    # the first column at which any member fails, with the smallest pivot there
    g = np.stack([np.diag([1.0, 1.0, 1.0, -3.0]), np.diag([1.0, -2.0, 1.0, 1.0])])
    with pytest.raises(HypothesisError, match=r"pivot -2\.000e\+00 at column 1$"):
        cholesky_spd(g)
    with pytest.raises(HypothesisError, match=r"pivot nan at column 0$"):
        cholesky_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _spd_stack(rng, n, cond, S):
    """S random SPD matrices (n, n, S), batch-last, of condition number cond."""
    Q = np.linalg.qr(rng.standard_normal((S, n, n)))[0]
    g = np.einsum("sij,j,skj->sik", Q, np.geomspace(1.0, 1.0 / cond, n), Q)
    return np.ascontiguousarray((0.5 * (g + g.swapaxes(1, 2))).transpose(1, 2, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_cholesky_solve_agrees_with_solve(n, cond):
    # an (n, n) right-hand side, as A = g^-1 b, and a vector, as g^-1 ds:
    # two backward-stable solvers differ by up to about cond * eps, so the
    # substitution is held to 1e-14 * cond of LU with partial pivoting, and
    # its residual to 1e-14 of |g| |x|, at every condition number
    rng = np.random.default_rng(70 + n)
    G = _spd_stack(rng, n, cond, 200)
    L = cholesky_spd(G, last=True)
    g = G.transpose(2, 0, 1)
    for B in (rng.standard_normal((n, n, 200)), rng.standard_normal((n, 200))):
        X, b = np.moveaxis(cholesky_solve(L, B), -1, 0), np.moveaxis(B, -1, 0)
        Y = solve(g, b[..., None])[..., 0] if B.ndim == 2 else solve(g, b)
        scale = np.abs(Y).reshape(200, -1).max(axis=1)
        rel = np.abs(X - Y).reshape(200, -1).max(axis=1) / scale
        assert rel.max() <= 1e-14 * cond
        resid = np.einsum("sij,sj...->si...", g, X) - b
        size = np.abs(g).max(axis=(1, 2)) * np.abs(X).reshape(200, -1).max(axis=1)
        assert (np.abs(resid).reshape(200, -1).max(axis=1) / size).max() <= 1e-14


def test_cholesky_solve_members_match_single_calls():
    rng = np.random.default_rng(71)
    G = _spd_stack(rng, 3, 1e3, 2 * 3).reshape(3, 3, 2, 3)
    L, B = cholesky_spd(G, last=True), rng.standard_normal((3, 4, 2, 3))
    X = cholesky_solve(L, B, (2, 3))
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(L[..., i, j], cholesky_spd(G[..., i, j]))
        alone = cholesky_solve(L[..., i, j], B[..., i, j])
        assert np.array_equal(X[..., i, j], alone)


def test_cholesky_solve_gates_with_the_messages_of_solve():
    # g = diag(1, 1e-13) is positive definite, but its second pivot is at or
    # below PIVOT_RTOL * max|g|: the gate names the matrix by its place
    g = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.diag([1e-13, 1.0]), np.eye(2)])
    G = np.ascontiguousarray(g.reshape(2, 2, 2, 2).transpose(2, 3, 0, 1))
    L, B = cholesky_spd(G, last=True), np.ones((2, 2, 2))
    message = r"pivot at column 1 of matrix \(0, 1\) at or below 1e-12\*max\|A\|$"
    with pytest.raises(HypothesisError, match=message):
        cholesky_solve(L, B, (2, 2))
    with pytest.raises(HypothesisError, match=message):  # LU's gate, on the same stack
        solve(g.reshape(2, 2, 2, 2), np.ones((2, 2, 2, 1)))
    with pytest.raises(HypothesisError, match=r"pivot at column 0 at or below"):
        cholesky_solve(L[..., 1, 0], np.ones(2))
    with pytest.raises(HypothesisError, match="right-hand side contains non-finite"):
        cholesky_solve(L[..., 0, 0], np.array([1.0, np.nan]))


def test_jacobi_svd_of_one_tall_matrix():
    # the gauge fit's shape: 2 * 729 rows, five columns, with a column of ones
    rng = np.random.default_rng(41)
    D = np.zeros((1458, 5))
    D[:729, :4] = rng.uniform(-2, 2, (729, 4))
    D[:729, 4] = 1.0
    D[729:, :4] = rng.uniform(-1, 1, (729, 4))
    _, s, _ = jacobi_svd(D)
    ref = np.linalg.svd(D, compute_uv=False)
    assert np.all(np.abs(s - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("n", range(1, 9))
def test_gram_vs_numpy(n):
    rng = np.random.default_rng(50 + n)
    J = rng.uniform(-1, 1, (2, 3, n + 1, n))
    G, ref = gram(J), np.swapaxes(J, -1, -2) @ J
    assert G.shape == ref.shape
    assert np.all(np.abs(G - ref) <= 1e-15 * np.abs(ref).max())
    assert np.array_equal(G, np.swapaxes(G, -1, -2))
    for idx in np.ndindex(2, 3):
        assert np.array_equal(G[idx], gram(J[idx]))


def _cholesky_solve_stack_first(L, B):
    """``cholesky_solve`` with a stack axis in front, as the other routines
    take it; moving it last makes views, so a write still reaches the caller."""
    if L.ndim > 2:
        L, B = (np.moveaxis(x, 0, -1) for x in (L, B))
    return cholesky_solve(L, B, L.shape[2:])


def _library_calls(rng, n=3):
    """(routine, arguments) for every public routine, on one matrix each."""
    A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
    J = rng.uniform(-1, 1, (n + 1, n))
    B1 = np.linalg.qr(rng.uniform(-1, 1, (n, n)))[0][:, :2]
    B2 = np.linalg.qr(rng.uniform(-1, 1, (n, n)))[0][:, :2]
    return [
        (linalg.lu_factor, (A,)),
        (solve, (A, rng.uniform(-1, 1, (n, 2)))),
        (det, (A,)),
        (jacobi_svd, (J,)),
        (jacobi_svd, (J.T,)),
        (svd_rank_kernel, (J,)),
        (generalized_cross, (J,)),
        (unit_normal, (J,)),
        (check_cross_norm, (np.ones(()), J)),
        (cholesky_spd, (J.T @ J,)),
        (_cholesky_solve_stack_first, (np.linalg.cholesky(A @ A.T), J[:n])),
        (gram, (J,)),
        (max_principal_angle, (B1, B2)),
    ]


@pytest.mark.parametrize("stack", [(), (1,)], ids=["single", "one-member stack"])
def test_no_routine_writes_into_its_arguments(stack):
    # moving (1, n, n) to (n, n, 1) gives an array that is already
    # contiguous, so a routine that writes must copy, not only reorder
    for routine, args in _library_calls(np.random.default_rng(60)):
        args = tuple(np.array(np.broadcast_to(a, stack + a.shape)) for a in args)
        before = [a.copy() for a in args]
        out = routine(*args)
        for x in out if isinstance(out, tuple) else (out,):
            if isinstance(x, np.ndarray) and x.flags.writeable:
                x[...] = 7.0  # an output sharing memory with an argument shows below
        for a, b in zip(args, before):
            assert np.array_equal(a, b), routine.__name__
