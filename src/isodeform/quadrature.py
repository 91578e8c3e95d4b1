"""Adaptive composite Gauss-Legendre quadrature of a batch of legs on [0, 1].

16 nodes per panel; the panel count doubles until a level passes one of two
tests, absolute in the max norm over a leg's components: its Legendre tail
sum_p half_p (|c_14| + |c_15|) is below tol, so a smooth integrand passes
on one panel, or it agrees with the previous level to tol.  The tail is zero
for an integrand that vanishes at all 16 nodes of a panel, such as P_16^2;
the integrands here are analytic on short legs.  The integrand is called
once per level with every node at once (shape (m,)) and returns one row per
leg still running; each leg stops on its own test (Shampine, J. Comput.
Appl. Math. 211, 2008).
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationError


def _legendre(x: np.ndarray, k: int) -> np.ndarray:
    """P_0 .. P_k at x, shape (k + 1, *x.shape), by the three-term recurrence."""
    P = [np.ones_like(x), x]
    for j in range(1, k):
        P.append((P[j] * x * (2 * j + 1) - P[j - 1] * j) / (j + 1))
    return np.array(P[:k + 1])


def _gauss_legendre(m: int):
    """Nodes (ascending) and weights of the m-point Gauss-Legendre rule."""
    x = -np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))  # within 1e-3
    for _ in range(6):  # Newton converges quadratically from there
        P = _legendre(x, m)
        dP = m * (x * P[m] - P[m - 1]) / (x * x - 1)
        x = x - P[m] / dP
    return x, 2 / ((1 - x * x) * dP**2)


GL_NODES, GL_WEIGHTS = _gauss_legendre(16)
# row k maps node values v to c_k = (k + 1/2) sum_j w_j P_k(x_j) v_j
LEGENDRE_TRANSFORM = (np.arange(16) + 0.5)[:, None] * _legendre(GL_NODES, 15) * GL_WEIGHTS

DEFAULT_TOL = 1e-10
MAX_LEVELS = 12


class QuadratureError(VerificationError):
    """A path integral that does not converge: F cannot be certified."""


def integrate_segment(fn, tol: float, retire):
    """Integrate a batch of L legs over [0, 1] in at most MAX_LEVELS
    bisection levels: shape (L, ...).  fn maps an (m,) array of parameters
    to the values (m, L', ...) of the L' legs still running.  After each
    unfinished level ``retire(keep)`` gets a mask over those legs, false
    for accepted."""
    for level in range(MAX_LEVELS + 1):
        panels = 2**level
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = (edges[:-1] + edges[1:]) / 2  # (panels,)
        half = (edges[1:] - edges[:-1]) / 2
        ts = (mid[:, None] + half[:, None] * GL_NODES[None, :]).reshape(-1)
        vals = np.asarray(fn(ts), dtype=float)
        if level == 0:  # one row per leg
            out = np.zeros(vals.shape[1:])
            running, prev = np.arange(len(out)), None
        vals = vals.reshape(panels, len(GL_NODES), len(running), -1)  # (p, j, leg, comp)
        est = np.sum(vals * GL_WEIGHTS[:, None, None] * half[:, None, None, None],
                     axis=(0, 1))
        c = np.abs(np.einsum("kj,pjlc->pklc", LEGENDRE_TRANSFORM[14:], vals))
        err = np.einsum("p,plc->lc", half, c[:, 0] + c[:, 1]).max(axis=1)
        if prev is not None:
            err = np.minimum(err, np.abs(est - prev).max(axis=1))
        done = err < tol
        out.reshape(len(out), -1)[running[done]] = est[done]
        if done.all():
            return out
        retire(~done)
        running, prev = running[~done], est[~done]
    raise QuadratureError(
        f"no convergence to {tol:.1e} after {MAX_LEVELS} bisection levels on "
        f"[0.0, 1.0]: {len(running)} of {len(out)} legs above tol, last error "
        f"estimate {err[~done].max():.1e} at level {level}"
    )
