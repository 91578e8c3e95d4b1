"""sympy as an independent oracle for the chart jets: every Taylor
coefficient of each catalog chart, up to order 4, against sympy's symbolic
derivatives divided by alpha!, evaluated at 30 digits."""

import math

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from isodeform import catalog, expr  # noqa: E402
from isodeform.geometry import chart_jets  # noqa: E402


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


@pytest.mark.parametrize("name", sorted(catalog.CATALOG))
def test_chart_jets_match_sympy_taylor_coefficients(name):
    chart = catalog.build(name)
    n = chart.n
    u = sympy.symbols(f"u1:{n + 1}")
    lo, hi = np.array(chart.lo), np.array(chart.hi)
    pts = lo + (hi - lo) * np.random.default_rng(3).uniform(0.1, 0.9, (3, n))
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
