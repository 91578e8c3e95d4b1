"""Jet arithmetic tests.

The independent oracle here is central finite differencing (one Richardson
level) applied to plain-float functions; jets must agree with it without
sharing any code path.  Hand-derived closed-form derivative values are
frozen inline where the calculus is short enough to do by hand.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodeform import catalog, jet
from isodeform.errors import HypothesisError
from isodeform.geometry import ChartJets, chart_jets
from isodeform.jet import (
    jet_space,
    mat_det,
    mat_inv,
    mat_mul,
)


# ---------------------------------------------------------------- FD oracle


def fd1(f, x, i, h=1e-5):
    """d f / d x_i by central differences with one Richardson level."""

    def central(hh):
        xp = list(x)
        xm = list(x)
        xp[i] += hh
        xm[i] -= hh
        return (f(xp) - f(xm)) / (2 * hh)

    return (4 * central(h / 2) - central(h)) / 3


def fd2(f, x, i, j, h=1e-3):
    return fd1(lambda y: fd1(f, y, i, h), x, j, h)


def fd3(f, x, i, j, k, h=5e-3):
    return fd1(lambda y: fd2(f, y, i, j, h), x, k, h)


# ---------------------------------------------------------------- seeds


def test_variable_seed():
    sp = jet_space(2, 3)
    u = sp.variable(0, 3.0)
    assert u.value == 3.0
    assert np.array_equal(u.d1, [1.0, 0.0])
    assert np.array_equal(u.d2(), np.zeros((2, 2)))
    assert np.array_equal(u.d3(), np.zeros((2, 2, 2)))


def test_constant_seed():
    sp = jet_space(3, 2)
    c = sp.constant(2.5)
    assert c.value == 2.5
    assert np.array_equal(c.d1, np.zeros(3))


def test_variable_index_out_of_range():
    sp = jet_space(2, 2)
    with pytest.raises(ValueError, match="variable index 2 out of range"):
        sp.variable(2, 0.0)


# ---------------------------------------------------------------- arithmetic


def test_reciprocal_known_values():
    # 1/x at x=2: value 1/2, d1 -1/4, d2 2/x^3 = 1/4, d3 -6/x^4 = -3/8
    sp = jet_space(1, 3)
    x = sp.variable(0, 2.0)
    r = 1.0 / x
    assert r.value == pytest.approx(0.5, abs=1e-15)
    assert r.d1[0] == pytest.approx(-0.25, abs=1e-15)
    assert r.d2()[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert r.d3()[0, 0, 0] == pytest.approx(-0.375, abs=1e-15)


def test_sqrt_chain_known_values():
    # sqrt(x^2+1) at x=1: value sqrt2, d1 x/sqrt(x^2+1) = 1/sqrt2,
    # d2 = 1/(x^2+1)^(3/2) = 1/(2 sqrt2)
    sp = jet_space(1, 2)
    x = sp.variable(0, 1.0)
    r = jet.sqrt(x * x + 1.0)
    assert r.value == pytest.approx(math.sqrt(2), abs=1e-15)
    assert r.d1[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert r.d2()[0, 0] == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-15)


def test_polynomial_fourth_derivative_exact():
    sp = jet_space(1, 4)
    x = sp.variable(0, 1.7)
    p = x**4
    assert p.d4()[0, 0, 0, 0] == pytest.approx(24.0, rel=1e-14)
    assert p.d3()[0, 0, 0] == pytest.approx(24 * 1.7, rel=1e-14)


def test_product_rule_cross_term():
    sp = jet_space(2, 2)
    x = sp.variable(0, 2.0)
    y = sp.variable(1, 5.0)
    p = x * y
    assert p.value == 10.0
    assert np.array_equal(p.d1, [5.0, 2.0])
    assert p.d2()[0, 1] == 1.0 and p.d2()[1, 0] == 1.0


def test_scalar_mixing():
    sp = jet_space(1, 2)
    x = sp.variable(0, 4.0)
    r = (3.0 * x - 1.0) / 2.0 + 0.5
    assert r.value == pytest.approx(6.0)
    assert r.d1[0] == pytest.approx(1.5)
    r2 = 2.0 / x
    assert r2.d1[0] == pytest.approx(-2.0 / 16.0)


@pytest.mark.parametrize(
    "fn,jfn",
    [
        (math.sin, jet.sin),
        (math.cos, jet.cos),
        (math.exp, jet.exp),
        (math.log, jet.log),
        (math.sqrt, jet.sqrt),
    ],
)
def test_univariate_vs_fd(fn, jfn):
    def scalar_f(x):
        return fn(0.3 * x[0] ** 2 + x[0] + 0.8)

    sp = jet_space(1, 3)
    x = sp.variable(0, 0.9)
    r = jfn(0.3 * x * x + x + 0.8)
    assert r.value == pytest.approx(scalar_f([0.9]), rel=1e-15)
    assert r.d1[0] == pytest.approx(fd1(scalar_f, [0.9], 0), rel=1e-8)
    assert r.d2()[0, 0] == pytest.approx(fd2(scalar_f, [0.9], 0, 0), rel=1e-6)
    assert r.d3()[0, 0, 0] == pytest.approx(fd3(scalar_f, [0.9], 0, 0, 0), rel=2e-4)


def test_multivariate_mixed_partials_vs_fd():
    def scalar_f(x):
        return math.sin(x[0] * x[1] ** 2) + math.exp(x[0] - x[1])

    sp = jet_space(2, 3)
    x = sp.variable(0, 0.7)
    y = sp.variable(1, 1.3)
    r = jet.sin(x * y * y) + jet.exp(x - y)
    pt = [0.7, 1.3]
    for i in range(2):
        assert r.d1[i] == pytest.approx(fd1(scalar_f, pt, i), rel=1e-8)
        for j in range(2):
            assert r.d2()[i, j] == pytest.approx(fd2(scalar_f, pt, i, j), rel=1e-6)
    assert r.d3()[0, 0, 1] == pytest.approx(fd3(scalar_f, pt, 0, 0, 1), rel=2e-4)
    assert r.d3()[1, 1, 0] == pytest.approx(fd3(scalar_f, pt, 1, 1, 0), rel=2e-4)


def test_integer_power_matches_repeated_multiplication():
    sp = jet_space(1, 4)
    x = sp.variable(0, -1.3)  # negative base fine for integer powers
    assert np.allclose((x**5).coef, (x * x * x * x * x).coef, rtol=1e-14)
    inv2 = x**-2
    assert inv2.value == pytest.approx((-1.3) ** -2, rel=1e-14)


def test_noninteger_power_vs_fd():
    def scalar_f(x):
        return (x[0] ** 2 + 0.5) ** 1.7

    sp = jet_space(1, 3)
    x = sp.variable(0, 1.1)
    r = jet.powf(x * x + 0.5, 1.7)
    pt = [1.1]
    assert r.value == pytest.approx(scalar_f(pt), rel=1e-15)
    assert r.d1[0] == pytest.approx(fd1(scalar_f, pt, 0), rel=1e-8)
    assert r.d2()[0, 0] == pytest.approx(fd2(scalar_f, pt, 0, 0), rel=1e-6)


# ---------------------------------------------------------------- structure


def test_symmetry_is_bit_exact():
    sp = jet_space(3, 4)
    x = sp.variable(0, 0.4)
    y = sp.variable(1, -0.8)
    z = sp.variable(2, 1.9)
    r = jet.sin(x * y) * jet.exp(z) / (x * x + y * y + 3.0) + (x + y * z) ** 3
    d2, d3, d4 = r.d2(), r.d3(), r.d4()
    assert np.array_equal(d2, d2.T)
    for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        assert np.array_equal(d3, np.transpose(d3, perm))
    for perm in [(1, 0, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3)]:
        assert np.array_equal(d4, np.transpose(d4, perm))


def test_full_derivatives_are_a_gather_times_the_factorials():
    rng = np.random.default_rng(12)
    space = jet_space(3, 4)
    T = jet.JetScalar(space, rng.standard_normal((2, 3, space.size, 5, 7)), ndim=2)
    for k, d in enumerate((lambda: T.d1, T.d2, T.d3, T.d4), start=1):
        idx, fac = space._deriv_tables[k]
        assert np.array_equal(d(), T.coef.take(idx, axis=2) * fac[..., None, None])


def test_diff_lowers_order_to_derivative_jet():
    sp = jet_space(2, 3)
    x = sp.variable(0, 1.2)
    y = sp.variable(1, 0.3)
    f = x * x * y + y * y * y  # df/dy = x^2 + 3y^2
    dy = f.diff(1)
    assert dy.order == 2
    assert dy.value == pytest.approx(1.2**2 + 3 * 0.3**2, rel=1e-14)
    assert dy.d1[0] == pytest.approx(2 * 1.2, rel=1e-14)
    assert dy.d1[1] == pytest.approx(6 * 0.3, rel=1e-14)
    assert dy.d2()[0, 0] == pytest.approx(2.0, rel=1e-14)


def test_truncated_is_prefix():
    sp = jet_space(2, 4)
    x = sp.variable(0, 0.5)
    y = sp.variable(1, 0.25)
    f = jet.exp(x * y) * (x + 2.0)
    t = f.truncated(2)
    assert t.order == 2
    assert np.array_equal(t.coef, f.coef[: jet_space(2, 2).size])


def test_mixed_space_error():
    a = jet_space(2, 3).variable(0, 1.0)
    b = jet_space(2, 2).variable(0, 1.0)
    c = jet_space(3, 3).variable(0, 1.0)
    for other in (b, c):
        with pytest.raises(ValueError, match="mixed jets"):
            _ = a + other


def test_domain_errors():
    sp = jet_space(1, 2)
    x = sp.variable(0, 0.0)
    with pytest.raises(HypothesisError, match="division by a jet with value 0.0"):
        _ = 1.0 / x
    with pytest.raises(HypothesisError, match="log of a jet with value 0.0"):
        jet.log(x)
    with pytest.raises(HypothesisError, match="sqrt of a jet with value -2.0"):
        jet.sqrt(sp.variable(0, -2.0))
    with pytest.raises(HypothesisError, match="power of a jet with value -2.0"):
        jet.powf(sp.variable(0, -2.0), 0.5)


# ---------------------------------------------------------------- ring axioms


def _random_jet(sp, rng):
    return jet.JetScalar(sp, rng.uniform(-2, 2, size=sp.size))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 10_000))
def test_ring_axioms(n, k, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(n, k)
    a, b, c = (_random_jet(sp, rng) for _ in range(3))
    scale = max(np.abs(a.coef).max(), np.abs(b.coef).max(), np.abs(c.coef).max(), 1)
    # commutativity and associativity of *
    assert np.allclose((a * b).coef, (b * a).coef, atol=1e-14 * scale**2)
    assert np.allclose(
        ((a * b) * c).coef, (a * (b * c)).coef, atol=1e-13 * scale**3
    )
    # distributivity
    assert np.allclose(
        (a * (b + c)).coef, (a * b + a * c).coef, atol=1e-13 * scale**2
    )
    # additive group
    assert np.allclose(((a + b) - b).coef, a.coef, atol=1e-14 * scale)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_division_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(n, 3)
    a = _random_jet(sp, rng)
    b = _random_jet(sp, rng)
    b.coef[0] = 1.5 + abs(b.coef[0])  # keep b a unit
    r = (a / b) * b
    assert np.allclose(r.coef, a.coef, atol=1e-12 * max(1, np.abs(a.coef).max()))


# ---------------------------------------------------------------- batching


def _batch_formula(xs):
    acc = jet.sin(xs[0]) / (xs[-1] * xs[-1] + 0.5) + jet.sqrt(xs[0])
    for x in xs[1:]:
        acc = acc * x + jet.cos(x)
    return acc


def _pair_order_product(sp, a, b):
    """Reference product: each slot summed over (i, j) in loop order."""
    out = [None] * sp.size
    for i, x in enumerate(sp.monomials):
        for j, y in enumerate(sp.monomials):
            t = sp.index.get(tuple(p + q for p, q in zip(x, y)))
            if t is not None:
                out[t] = a[i] * b[j] if out[t] is None else out[t] + a[i] * b[j]
    return np.array(out)


@pytest.mark.parametrize("n,k", [(1, 3), (3, 2), (4, 3), (4, 4)])
def test_batch_matches_scalar_loop_exactly(n, k):
    # every member of a batched result is bit-equal to the scalar result,
    # whatever the batch shape, including broadcast axes of length 1, and
    # a product sums each slot in pair order
    rng = np.random.default_rng(10 * n + k)
    sp = jet_space(n, k)
    pts = rng.uniform(0.2, 1.4, (7, n))
    rb = _batch_formula([sp.variable(i, pts[:, i]) for i in range(n)])
    for m, p in enumerate(pts):
        rs = _batch_formula([sp.variable(i, p[i]) for i in range(n)])
        assert np.array_equal(rb.coef[:, m], rs.coef)
    a = jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, 1, 1)))
    b = jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, 3, 5)))
    a0 = jet.JetScalar(sp, a.coef[:, 0, 0])
    ab, ba = a * b, b * a
    assert ab.coef.shape == ba.coef.shape == (sp.size, 3, 5)
    for i, j in np.ndindex(3, 5):
        bij = jet.JetScalar(sp, b.coef[:, i, j])
        assert np.array_equal(ab.coef[:, i, j], (a0 * bij).coef)
        assert np.array_equal(ba.coef[:, i, j], (bij * a0).coef)
    assert np.array_equal(ab.coef[:, 0, 0], _pair_order_product(sp, a0.coef, b.coef[:, 0, 0]))
    # at batch 1024, (4, 3) and (4, 4) gather more than GATHER_BUDGET doubles
    # and take the per-rank path; (1, 3) and (3, 2) still gather whole (the
    # budget's sides at the workloads' own shapes are pinned below)
    big = jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, 1024)))
    big2 = jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, 1024)))
    col = jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, 1)))
    assert (len(sp._mul_ii) * 1024 > jet.GATHER_BUDGET) == (n == 4)
    for x, y in ((big, big2), (col, big), (big, col)):
        expect = _pair_order_product(sp, x.coef, y.coef)
        assert np.array_equal((x * y).coef, expect)


@pytest.mark.parametrize(
    "n,k,batch,gathers",
    # the workloads' largest product that gathers whole (order 2 at a
    # 1024-point chunk in four variables) and their smallest that does not
    # (order 3 on a 9^3 grid in three), both bit-equal to the pair-order sums
    [(4, 2, 1024, True), (3, 3, 729, False)],
)
def test_gather_budget_sides_at_workload_shapes(monkeypatch, n, k, batch, gathers):
    sp = jet_space(n, k)
    assert (len(sp._mul_ii) * batch <= jet.GATHER_BUDGET) == gathers
    # drop the other path's table, so only the expected path can run
    monkeypatch.setattr(sp, "_mul_rank_pairs" if gathers else "_mul_ranks", None)
    rng = np.random.default_rng(batch)
    x, y = (jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, batch))) for _ in "xy")
    col = jet.JetScalar(sp, rng.uniform(-2, 2, (sp.size, 1)))
    for a, b in ((x, y), (col, y), (x, col)):
        assert np.array_equal((a * b).coef, _pair_order_product(sp, a.coef, b.coef))


def test_batch_domain_error_reports():
    sp = jet_space(1, 2)
    x = sp.variable(0, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(HypothesisError, match="division by a jet with value 0.0"):
        _ = 1.0 / x


# ---------------------------------------------------------------- jet matrices


def test_mat_det_inv_on_floats():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        M = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
        det = mat_det(M)
        assert det == pytest.approx(np.linalg.det(M), rel=1e-10)
        inv, _ = mat_inv(M)
        assert np.allclose(inv, np.linalg.inv(M), atol=1e-12)


def _ref_det(M):
    """Plain recursive cofactor expansion along the first row."""
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    acc = None
    for j in range(n):
        term = M[0][j] * _ref_det([row[:j] + row[j + 1 :] for row in M[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _drop(rows, i):
    return rows[:i] + rows[i + 1 :]


def _random_jets(sp, rng, shape, batch=3):
    """A jet tensor of the given shape with random coefficients."""
    return jet.JetScalar(sp, rng.uniform(-1, 1, shape + (sp.size, batch)), len(shape))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shared_minors_match_plain_expansion_exactly(n):
    # mat_det, mat_inv and Njet share minors, and each determinant is still
    # the first-row expansion of its matrix, bit for bit
    rng = np.random.default_rng(40 + n)
    sp = jet_space(2, 2)
    M = _random_jets(sp, rng, (n, n)) + (n + 1.0) * np.eye(n)
    rows = [list(M[i]) for i in range(n)]
    det = _ref_det(rows)
    assert np.array_equal(mat_det(M).coef, det.coef)
    inv, det2 = mat_inv(M)
    assert np.array_equal(det2.coef, det.coef)
    rdet = jet.recip(det)
    for i, j in np.ndindex(n, n):
        cof = _ref_det([_drop(r, j) for r in _drop(rows, i)]) if n > 1 else 1.0
        if (i + j) % 2:
            cof = -cof
        assert np.array_equal(inv[j, i].coef, (cof * rdet).coef)

    comps = list(_random_jets(jet_space(n, 2), rng, (n + 1,)))
    cj = ChartJets(comps, np.zeros((3, n)))
    J = [[c.diff(k) for k in range(n)] for c in comps]
    cross = [_ref_det(_drop(J, k)) for k in range(n + 1)]
    cross = [-c if k % 2 else c for k, c in enumerate(cross)]
    normsq = cross[0] * cross[0]
    for c in cross[1:]:
        normsq = normsq + c * c
    rnorm = jet.recip(jet.sqrt(normsq))
    for Nk, c in zip(cj.Njet, cross):
        assert np.array_equal(Nk.coef, (c * rnorm).coef)


def test_mat_inv_products(monkeypatch):
    # a 4x4 inverse of order-3 jets: det, then the 16 cofactors from the
    # shared minors.  Each minor computed on its own took 203 products.
    count = [0]
    mul = jet.JetScalar.__mul__

    def counting(a, b):
        count[0] += isinstance(b, jet.JetScalar)
        return mul(a, b)

    M = _random_jets(jet_space(4, 3), np.random.default_rng(7), (4, 4))
    monkeypatch.setattr(jet.JetScalar, "__mul__", counting)
    mat_inv(M)
    assert count[0] == 107


def test_njet_degenerate_normal_uses_the_cross_gate():
    sp = jet_space(2, 1)
    x, y = sp.variable(0, 0.3), sp.variable(1, 0.4)
    # (u1 + u2, u1 + u2, 2 u1 + 2 u2): both tangents are parallel
    cj = ChartJets([x + y, x + y, 2.0 * (x + y)], np.array([0.3, 0.4]))
    with pytest.raises(HypothesisError, match="cross product norm"):
        cj.Njet


def test_mat_inv_over_jets():
    sp = jet_space(2, 3)
    x = sp.variable(0, 0.3)
    y = sp.variable(1, -0.4)
    M = jet.stack([[2.0 + x * x, x * y], [x * y, 3.0 + jet.sin(y)]])
    inv, det = mat_inv(M)
    assert det.value == pytest.approx(
        (2 + 0.09) * (3 + math.sin(-0.4)) - (0.3 * -0.4) ** 2, rel=1e-14
    )
    eye = mat_mul(M, inv)
    for i in range(2):
        for j in range(2):
            expect = 1.0 if i == j else 0.0
            assert np.allclose(eye[i, j].coef[0], expect, atol=1e-13)
            assert np.allclose(eye[i, j].coef[1:], 0.0, atol=1e-13)


# ---------------------------------------------------------------- jet tensors


@pytest.mark.parametrize("n,k", [(3, 3), (4, 2), (4, 4)])
def test_tensor_products_are_entrywise_and_batch_independent(n, k):
    # elementwise products (tensor axes broadcast) and the contractions of a
    # 1024-point batch: every member is bit-equal to the member taken alone,
    # and every entry to its sum of scalar jet products, k ascending
    rng = np.random.default_rng(100 * n + k)
    sp = jet_space(n, k)
    A = _random_jets(sp, rng, (2, 3), batch=1024)
    B = _random_jets(sp, rng, (3, 2), batch=1024)
    C = _random_jets(sp, rng, (2, 3), batch=1024)
    h = _random_jets(sp, rng, (), batch=1024)
    results = {
        "AC": (lambda A, B, C, h: A * C),
        "hA": (lambda A, B, C, h: h * A),
        "AB": (lambda A, B, C, h: mat_mul(A, B)),
        "sum": (lambda A, B, C, h: jet.contract(zip(A, C))),
    }
    for name, fn in results.items():
        whole = fn(A, B, C, h)
        for m in (0, 517, 1023):
            alone = fn(*(jet.JetScalar(sp, x.coef[..., m], x.ndim) for x in (A, B, C, h)))
            assert np.array_equal(whole.coef[..., m], alone.coef), (name, m)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal((A * C)[i, j].coef, (A[i, j] * C[i, j]).coef)
        assert np.array_equal((h * A)[i, j].coef, (h * A[i, j]).coef)
    AB = mat_mul(A, B)
    for i, j in np.ndindex(2, 2):
        ref = A[i, 0] * B[0, j] + A[i, 1] * B[1, j] + A[i, 2] * B[2, j]
        assert np.array_equal(AB[i, j].coef, ref.coef)
    total = jet.contract(zip(A, C))
    assert np.array_equal(total.coef, (A[0] * C[0] + A[1] * C[1]).coef)


# ---------------------------------------------------------------- structural zeros


def _dependent_jets(sp, rng, deps, batch=3):
    """A vector of jets, entry p random on the monomials in the variables of
    the set deps[p] and zero on every other."""
    coef = rng.uniform(-1, 1, (len(deps), sp.size, batch))
    for p, dep in enumerate(deps):
        for slot, m in enumerate(sp.monomials):
            if any(e and v not in dep for v, e in enumerate(m)):
                coef[p, slot] = 0.0
    return jet.JetScalar(sp, coef, 1)


def _stripped(T):
    """T with its pattern dropped: every operation on it does all the arithmetic."""
    return jet.JetScalar(T.space, T.coef.copy(), T.ndim)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_patterns_skip_only_zeros(data):
    # zeros come from the gradients of jets that do not depend on a
    # variable; every operation that skips them gives the coefficients of
    # the same operation on the stripped copies (equal as floats: a skipped
    # zero is +0 where a product may give -0), and every entry it marks zero
    # holds only zeros
    n = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, 3))
    subsets = st.sets(st.integers(0, n - 1), max_size=n)
    deps = data.draw(st.lists(subsets, min_size=n + 1, max_size=n + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    sp = jet_space(n, k + 1)
    X = _dependent_jets(sp, rng, deps).grad()  # (n + 1, n)
    Y = _dependent_jets(sp, rng, deps[::-1]).grad()
    assert np.array_equal(X.nz, [[v in dep for v in range(n)] for dep in deps])
    A, B = X[:n], Y[1:]
    shift = 10.0 * n * np.eye(n)  # diagonally dominant, so det is a unit
    cases = {
        "product": lambda A, B, X: A * B,
        "scalar product": lambda A, B, X: A[0, 1] * B,
        "sum": lambda A, B, X: A + B,
        "difference": lambda A, B, X: A - B.T,
        "contract": lambda A, B, X: jet.contract(zip(A, B)),
        "mat_mul": lambda A, B, X: mat_mul(A, B),
        "mat_det": lambda A, B, X: mat_det(A + shift),
        "mat_inv": lambda A, B, X: mat_inv(shift - A)[0],
        "cross_product": lambda A, B, X: jet.stack(jet.cross_product(lambda r, c: X[r, c], n)),
    }
    for name, fn in cases.items():
        out = fn(A, B, X)
        ref = fn(_stripped(A), _stripped(B), _stripped(X))
        assert ref.nz is None
        assert np.array_equal(out.coef, ref.coef), name
        if out.nz is not None:
            zero = ~np.broadcast_to(out.nz, out.shape)
            assert not out.coef[zero].any(), name
    assert np.array_equal((A * B).nz, A.nz & B.nz)


def test_zero_patterns_of_an_empty_batch():
    # a batch of no points has no coefficient to read: every entry is zero,
    # and every tensor keeps its shape
    A = chart_jets(catalog.sphcyl4(), np.zeros((0, 4)), 4).Ajet
    assert A.coef.shape == (4, 4, 15, 0)
    assert not A.nz.any()


def test_no_object_arrays_in_the_package():
    # jets and their tensors are coefficient arrays, never numpy object arrays
    src = Path(jet.__file__).resolve().parent
    sites = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "dtype=object" in line.replace(" ", "")
    ]
    assert sites == []
