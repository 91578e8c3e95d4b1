"""sympy as an independent oracle for the chart jets: every Taylor
coefficient of each catalog chart, up to order 4, against sympy's symbolic
derivatives divided by alpha!, evaluated at 30 digits; and the frame's
Christoffel symbols and curvature tensor against the same derivatives
pushed through the metric algebra in mpmath."""

import itertools
import math

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from isodeform import catalog, expr  # noqa: E402
from isodeform.geometry import chart_jets, frame_from_jets  # noqa: E402


def to_sympy(nd, u):
    """The DSL AST as a sympy expression; each literal is its double exactly."""
    if isinstance(nd, expr.Num):
        return sympy.Rational(nd.value)
    if isinstance(nd, expr.Pi):
        return sympy.pi
    if isinstance(nd, expr.Var):
        return u[nd.index]
    if isinstance(nd, expr.Neg):
        return -to_sympy(nd.child, u)
    if isinstance(nd, expr.Call):
        return getattr(sympy, nd.name)(to_sympy(nd.arg, u))
    a, b = to_sympy(nd.left, u), to_sympy(nd.right, u)
    if nd.op == "+":
        return a + b
    if nd.op == "-":
        return a - b
    if nd.op == "*":
        return a * b
    if nd.op == "/":
        return a / b
    return a**b


def taylor_coefficients(f, u, monomials):
    """d^alpha f / alpha! for each alpha, each derivative taken from one of
    lower degree (the monomials are in graded order)."""
    derivs = {}
    for alpha in monomials:
        if sum(alpha) == 0:
            derivs[alpha] = f
            continue
        v = next(i for i, a in enumerate(alpha) if a)
        lower = alpha[:v] + (alpha[v] - 1,) + alpha[v + 1 :]
        derivs[alpha] = sympy.diff(derivs[lower], u[v])
    return [derivs[a] / math.prod(math.factorial(k) for k in a) for a in monomials]


def _sample_points(chart, count, seed):
    lo, hi = np.array(chart.lo), np.array(chart.hi)
    rng = np.random.default_rng(seed)
    return lo + (hi - lo) * rng.uniform(0.1, 0.9, (count, chart.n))


@pytest.mark.parametrize("name", sorted(catalog.CATALOG))
def test_chart_jets_match_sympy_taylor_coefficients(name):
    chart = catalog.build(name)
    n = chart.n
    u = sympy.symbols(f"u1:{n + 1}")
    pts = _sample_points(chart, 3, 3)
    cj = chart_jets(chart, pts, 4)
    monomials = cj.comps[0].space.monomials
    for comp, jt in zip(chart.components, cj.comps):
        exact = sympy.lambdify(
            u, taylor_coefficients(to_sympy(comp, u), u, monomials), modules="mpmath"
        )
        got = np.broadcast_to(jt.coef, (len(monomials), len(pts)))
        with mpmath.workdps(30):
            for m, p in enumerate(pts):
                want = np.array([float(w) for w in exact(*map(mpmath.mpf, p))])
                err = np.abs(got[:, m] - want)
                assert np.all(err <= 1e-13 * np.abs(want)), (expr.to_string(comp), p)


def _partials(chart, u, order):
    """Callable: point -> {sorted index tuple: d_idx f as mpf vectors}, for
    every derivative index tuple of length 1..order."""
    keys = [
        idx
        for k in range(1, order + 1)
        for idx in itertools.combinations_with_replacement(range(chart.n), k)
    ]
    comps = [to_sympy(c, u) for c in chart.components]
    derivs = []
    for comp in comps:
        table = {(): comp}
        for idx in keys:
            table[idx] = sympy.diff(table[idx[:-1]], u[idx[-1]])
        derivs += [table[idx] for idx in keys]
    exact = sympy.lambdify(u, derivs, modules="mpmath")

    def at(p):
        flat = exact(*map(mpmath.mpf, p))
        return {
            idx: [flat[c * len(keys) + k] for c in range(len(comps))]
            for k, idx in enumerate(keys)
        }

    return at


def _curvature_reference(d, n):
    """(Gamma[k, i, j], R[l, k, i, j]) as arrays of mpf from the partials
    ``d`` of f, with R(e_i, e_j) e_k = R^l_kij e_l."""
    rn = range(n)

    def D(*idx):
        return d[tuple(sorted(idx))]

    def dot(a, b):
        return mpmath.fsum(x * y for x, y in zip(a, b))

    def tensor(rank, entry):
        out = np.empty((n,) * rank, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = entry(*idx)
        return out

    g = tensor(2, lambda i, j: dot(D(i), D(j)))
    ginv = np.array(mpmath.inverse(mpmath.matrix(g.tolist())).tolist(), dtype=object)
    # the product rule on g_ij = <d_i f, d_j f>: dg[l, i, j] = d_l g_ij and
    # ddg[m, l, i, j] = d_m d_l g_ij
    dg = tensor(3, lambda l, i, j: dot(D(i, l), D(j)) + dot(D(i), D(j, l)))
    ddg = tensor(
        4,
        lambda m, l, i, j: dot(D(i, l, m), D(j)) + dot(D(i, l), D(j, m))
        + dot(D(i, m), D(j, l)) + dot(D(i), D(j, l, m)),
    )
    # d_l g^{km} = -g^{ka} d_l g_ab g^{bm}
    dginv = tensor(
        3,
        lambda l, k, m: -mpmath.fsum(
            ginv[k, a] * dg[l, a, b] * ginv[b, m] for a in rn for b in rn
        ),
    )
    # first kind, Gamma_{m,ij} = (d_i g_jm + d_j g_im - d_m g_ij) / 2, and d_l of it
    first = tensor(3, lambda m, i, j: (dg[i, j, m] + dg[j, i, m] - dg[m, i, j]) / 2)
    dfirst = tensor(
        4,
        lambda l, m, i, j: (ddg[l, i, j, m] + ddg[l, j, i, m] - ddg[l, m, i, j]) / 2,
    )
    Gamma = tensor(
        3, lambda k, i, j: mpmath.fsum(ginv[k, m] * first[m, i, j] for m in rn)
    )
    # dGamma[l, k, i, j] = d_l Gamma^k_ij
    dGamma = tensor(
        4,
        lambda l, k, i, j: mpmath.fsum(
            dginv[l, k, m] * first[m, i, j] + ginv[k, m] * dfirst[l, m, i, j]
            for m in rn
        ),
    )
    R = tensor(
        4,
        lambda l, k, i, j: dGamma[i, l, j, k] - dGamma[j, l, i, k]
        + mpmath.fsum(
            Gamma[l, i, m] * Gamma[m, j, k] - Gamma[l, j, m] * Gamma[m, i, k]
            for m in rn
        ),
    )
    return Gamma, R


@pytest.mark.parametrize("name", ["sphere3", "graph3", "sphcyl4"])
def test_frame_curvature_matches_sympy(name):
    # Gamma and R of the order-4 frame, against sympy's derivatives of f up
    # to order 3 with g, g^{-1}, Gamma and R formed in 30-digit arithmetic;
    # each tensor is compared relative to its largest entry, R on the pairs
    # i < j that the frame holds
    chart = catalog.build(name)
    n = chart.n
    iu, ju = np.triu_indices(n, 1)
    u = sympy.symbols(f"u1:{n + 1}")
    pts = _sample_points(chart, 2, 5)
    frame = frame_from_jets(chart_jets(chart, pts, 4))
    partials = _partials(chart, u, 3)
    with mpmath.workdps(30):
        for m, p in enumerate(pts):
            Gamma, R = _curvature_reference(partials(p), n)
            for got, want in ((frame.Gamma[m], Gamma), (frame.R[m], R[..., iu, ju])):
                want = want.astype(float)
                err = np.abs(got - want).max()
                assert err <= 1e-12 * np.abs(want).max(), (name, p, err)
