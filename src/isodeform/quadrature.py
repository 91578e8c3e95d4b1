"""Adaptive composite Gauss-Legendre quadrature on segments.

16 nodes per panel; the panel count doubles until a level passes one of two
tests, absolute in the max norm: its Legendre tail sum_p |half_p| (|c_14| +
|c_15|) is below tol, so a smooth integrand passes on one panel, or it agrees
with the previous level to tol.  The tail is zero for an integrand that
vanishes at all 16 nodes of a panel, such as P_16^2; the integrands here are
analytic on short legs.  Integrands are called once per level with every
node at once (shape (m,)) and may return per-node vectors (shape (m, d)).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

GL_NODES, GL_WEIGHTS = leggauss(16)
# row k maps node values v to c_k = (k + 1/2) sum_j w_j P_k(x_j) v_j
LEGENDRE_TRANSFORM = (np.arange(16) + 0.5)[:, None] * legvander(GL_NODES, 15).T * GL_WEIGHTS

DEFAULT_TOL = 1e-10
MAX_LEVELS = 12


class QuadratureError(RuntimeError):
    pass


def integrate_segment(fn, a: float, b: float, tol: float = DEFAULT_TOL,
                      max_levels: int = MAX_LEVELS):
    """Integrate fn over [a, b].  fn maps an (m,) array of parameters to an
    (m,) or (m, d) array of integrand values."""
    if a == b:
        probe = np.asarray(fn(np.array([a])))
        return np.zeros(probe.shape[1:])
    prev = None
    for level in range(max_levels + 1):
        panels = 2**level
        edges = np.linspace(a, b, panels + 1)
        mid = (edges[:-1] + edges[1:]) / 2  # (panels,)
        half = (edges[1:] - edges[:-1]) / 2
        ts = (mid[:, None] + half[:, None] * GL_NODES[None, :]).reshape(-1)
        vals = np.asarray(fn(ts), dtype=float)
        vals = vals.reshape(panels, len(GL_NODES), *vals.shape[1:])
        w = GL_WEIGHTS.reshape(1, -1, *([1] * (vals.ndim - 2)))
        est = np.sum(vals * w * half.reshape(-1, *([1] * (vals.ndim - 1))), axis=(0, 1))
        c = np.abs(np.einsum("kj,pj...->pk...", LEGENDRE_TRANSFORM[14:], vals))
        tail = np.max(np.einsum("p,p...->...", np.abs(half), c[:, 0] + c[:, 1]))
        err = tail if prev is None else np.minimum(tail, np.max(np.abs(est - prev)))
        if err < tol:
            return est
        prev = est
    raise QuadratureError(
        f"no convergence to {tol:.1e} after {max_levels} bisection levels on "
        f"[{a}, {b}]: last error estimate {err:.1e} at level {level}"
    )
