"""Shared test utilities: finite-difference oracles, the split of an ambient
vector along a frame, staircase path integrals from any base, random
expressions and read-only loads of the benchmark's modules."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from isodeform import deformation, expr
from isodeform.quadrature import DEFAULT_TOL


def fd_grad(f, x, i, h=1e-5):
    """Central difference with one Richardson level (independent oracle)."""

    def central(hh):
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[i] += hh
        xm[i] -= hh
        return (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * hh)

    return (4 * central(h / 2) - central(h)) / 3


def fd_hess(f, x, i, j, h=1e-3):
    return fd_grad(lambda y: fd_grad(f, y, i, h), x, j, h)


def decompose_ambient(frame, vec):
    """Split an ambient vector (field) into df(Z_top) + h N.

    Returns (Z_top, h) with Z_top in coordinate components.  vec may be a
    single (n+1,) vector or a batch matching the frame.
    """
    vec = np.broadcast_to(np.asarray(vec, dtype=float), frame.f.shape)
    h = np.einsum("...p,...p->...", vec, frame.N)
    tang = vec - h[..., None] * frame.N
    rhs = np.einsum("...pk,...p->...k", frame.J, tang)
    Z = np.einsum("...kl,...l->...k", frame.g_inv, rhs)
    return Z, h


def staircase_immersion(chart, source, base, targets, axis_order=None):
    """The integrals of omega = df o Q from ``base`` to the targets (K, n)
    along staircases in ``axis_order`` (index order by default), at the
    quadrature's DEFAULT_TOL: (K, dim), or (K, 1) zeros when no leg moves.
    The path integrals that ``path_integral_immersion`` takes from
    ``path_base`` in index order, from any base in any order."""
    X = np.asarray(targets, dtype=float)
    order = list(range(X.shape[1]) if axis_order is None else axis_order)
    return deformation._staircase(
        lambda p: deformation._omega_values(chart, source, p),
        np.broadcast_to(np.asarray(base, dtype=float), X.shape), X,
        np.broadcast_to(order, (len(X), len(order))), DEFAULT_TOL,
    )


def random_ast(rng, n_vars, depth):
    """Random AST whose evaluation is domain-safe on positive-ish inputs.

    log/sqrt arguments are forced positive by squaring-plus-shift; divisions
    get a shifted positive denominator; exponents are small literals.
    """
    if depth <= 0:
        r = rng.random()
        if r < 0.45:
            return expr.Var(int(rng.integers(0, n_vars)))
        if r < 0.5:
            return expr.Pi()
        return expr.Num(round(float(rng.uniform(0, 3)), 3))
    r = rng.random()
    sub = lambda: random_ast(rng, n_vars, depth - 1)
    if r < 0.12:
        return expr.Neg(sub())
    if r < 0.30:
        name = str(rng.choice(["sin", "cos", "exp", "log", "sqrt"]))
        arg = sub()
        if name in ("log", "sqrt"):
            arg = expr.BinOp("+", expr.BinOp("*", arg, arg), expr.Num(0.7))
        if name == "exp":
            # keep magnitudes sane
            arg = expr.BinOp("*", expr.Num(0.2), expr.Call("sin", arg))
        return expr.Call(name, arg)
    if r < 0.42:
        denom = expr.BinOp("+", expr.BinOp("*", sub(), sub()), expr.Num(1.1))
        return expr.BinOp("/", sub(), denom)
    if r < 0.54:
        e = int(rng.integers(2, 4))
        return expr.BinOp("^", sub(), expr.Num(e))
    op = str(rng.choice(["+", "-", "*"]))
    return expr.BinOp(op, sub(), sub())


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_benchmark_module(name):
    """``perfbench/<name>.py`` as a module, loaded read-only: no bytecode
    cache is written next to the benchmark's files."""
    spec = importlib.util.spec_from_file_location(f"_{name}_under_test", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module
