"""Deformation operators Q and the geometry they induce.

A deformation operator is a field of g-self-adjoint endomorphisms Q of the
tangent bundle.  The deformation theory additionally requires Q to commute
with the shape operator A and to satisfy the same Codazzi identity A does:

    (nabla_X Q) Y = (nabla_Y Q) X.

Four ways to specify Q are supported:

* ``Parallel(t)``: Q = Id - t A (the operator of the parallel surface at
  distance t).
* ``GHPair(g_source, h_source)``: Q = Hess(g) - h A for scalar DSL fields
  g, h.  Such a Q is automatically Codazzi and commuting provided the pair
  satisfies the gradient constraint A(grad g) = -grad h, which is verified
  numerically here.
* ``MinusA()``: Q = -A.
* ``Explicit(entries)``: an n x n matrix of DSL sources giving the
  components Q^k_j(u).  Only g-self-adjointness is checked at construction;
  commutation and the Codazzi identity are reported as residuals so that
  broken inputs can be detected by the verification suites.

The DSL specs parse their sources once and keep the ASTs.  Q is built as
jets by ``q_jets`` for the sample, or as values by ``explicit_q_values``
and ``q_from_scalar_values`` for the path integrands; both routes share one
g-self-adjointness gate and one gradient-constraint gate.

``codazzi_frame_from_jets`` extracts pointwise values (Q, its inverse,
covariant derivative) from the jets of ``q_jets`` with a nonsingularity
gate, and the ``deformed_*`` functions build the metric g~ = g(Q., Q.),
its Levi-Civita connection, and its curvature, each compared against the
closed-form route the deformation theory predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from . import expr as exprmod
from .errors import HypothesisError
from .geometry import (
    ChartJets,
    Frame,
    FrameError,
    _move,
    _trunc_mat,
    SELF_ADJOINT_TOL,
    christoffel_jets,
    curvature_values,
    jet_partials,
)
from .expr import ExprAst
from .jet import JetScalar, d1_values, mat_inv, mat_mul, values
from .linalg import NotSPDError, cholesky_spd, jacobi_svd, solve

GH_CONSTRAINT_TOL = 1e-8
Q_RANK_RTOL = 1e-9


@dataclass(frozen=True)
class Parallel:
    t: float


@dataclass(frozen=True)
class GHPair:
    """Q = Hess(g) - h A from DSL sources; ``asts(n)`` parses them once per n."""

    g_source: str
    h_source: str
    _parsed: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def asts(self, n: int) -> Tuple[ExprAst, ExprAst]:
        """(g, h) parsed for an n-variable chart."""
        if n not in self._parsed:
            self._parsed[n] = (
                exprmod.parse(self.g_source, n), exprmod.parse(self.h_source, n)
            )
        return self._parsed[n]


@dataclass(frozen=True)
class MinusA:
    pass


@dataclass(frozen=True)
class Explicit:
    """Q^k_j given entrywise; the entries are parsed and interned once, when built."""

    entries: Tuple[Tuple[str, ...], ...]  # row k gives Q^k_1 .. Q^k_n
    _parsed: tuple = field(init=False, compare=False, repr=False)
    shared: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        parsed, shared = exprmod.intern(self.entries, len(self.entries))
        object.__setattr__(self, "_parsed", tuple(a for row in parsed for a in row))
        object.__setattr__(self, "shared", shared)

    def asts(self, n: int) -> Tuple[ExprAst, ...]:
        """The n x n entry ASTs row by row, the order ``shared`` counts their
        uses in; ValueError when the entries are not n x n."""
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError(
                f"explicit Q needs {n}x{n} entries, got "
                f"{len(self.entries)} rows"
            )
        return self._parsed


CodazziSpec = Union[Parallel, GHPair, MinusA, Explicit]


def gh_pair_jets(cj: ChartJets, spec: GHPair) -> Tuple[JetScalar, JetScalar]:
    """Evaluate the scalar pair at full jet order."""
    g_ast, h_ast = spec.asts(cj.n)
    return (
        exprmod.eval_jet(g_ast, cj.u, cj.order),
        exprmod.eval_jet(h_ast, cj.u, cj.order),
    )


def gh_constraint_residual_field(
    A: np.ndarray, g: np.ndarray, grad_s: np.ndarray, grad_h: np.ndarray
) -> np.ndarray:
    """|A(grad s) + grad h|_g per point, relative to the gradient sizes.

    Float stacks: A and g (*b, n, n), the contravariant gradients (*b, n).
    The pair induces a Codazzi, commuting Q exactly when this vanishes, so
    it is the one gate of both routes to Q: raises HypothesisError when the
    residual exceeds GH_CONSTRAINT_TOL anywhere.
    """
    mism = np.einsum("...kj,...j->...k", A, grad_s) + grad_h

    def gn(vec):
        return np.sqrt(np.einsum("...i,...ij,...j->...", vec, g, vec))

    resid = gn(mism) / (1.0 + gn(grad_s) + gn(grad_h))
    worst = float(resid.max())
    if worst > GH_CONSTRAINT_TOL:
        raise HypothesisError(
            "scalar pair violates the gradient constraint "
            f"A(grad g) = -grad h: residual {worst:.3e} > {GH_CONSTRAINT_TOL}"
        )
    return resid


def q_jets(cj: ChartJets, spec: CodazziSpec) -> np.ndarray:
    """Jets of Q at order K-2, hypothesis-checked where construction allows.

    GHPair verifies the gradient constraint; Explicit verifies
    g-self-adjointness.  Commutation with A and the Codazzi identity are
    *not* checked here; use the residual functions below.
    """
    n = cj.n
    if isinstance(spec, Parallel):
        A, Q = cj.Ajet, np.empty((n, n), dtype=object)
        for i, j in np.ndindex(n, n):
            Q[i, j] = float(i == j) - spec.t * A[i, j]
        return Q
    if isinstance(spec, MinusA):
        return -cj.Ajet
    if isinstance(spec, GHPair):
        return q_from_scalar_jets(cj, *gh_pair_jets(cj, spec))[0]
    if isinstance(spec, Explicit):
        Q = np.empty((n, n), dtype=object)
        Q.flat[:] = exprmod.eval_jets(spec.asts(n), cj.u, cj.order - 2, spec.shared)
        g = _move(values(cj.metric(0)), 2)
        _check_explicit_self_adjoint(g, _move(values(Q), 2))
        return Q
    raise TypeError(f"unknown Codazzi spec {spec!r}")


def q_from_scalar_jets(
    cj: ChartJets, s: JetScalar, h: JetScalar
) -> Tuple[np.ndarray, np.ndarray]:
    """Q = Hess(s) - h A from scalar jets (s at full order, h at >= K-2),
    and the gradient-constraint field it was gated on.

    Raises HypothesisError when the constraint fails; see ``GHPair``.
    """
    gh_field = gh_constraint_residual_field(
        _move(values(cj.Ajet), 2),
        _move(values(cj.metric(0)), 2),
        _move(values(cj.scalar_grad_jets(s.truncated(1))), 1),
        _move(values(cj.scalar_grad_jets(h.truncated(1))), 1),
    )
    n = cj.n
    hess = cj.scalar_hess_jets(s)
    ht = h.truncated(cj.order - 2)
    A = cj.Ajet
    Q = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            Q[i, j] = hess[i, j] - ht * A[i, j]
    return Q, gh_field


def _check_explicit_self_adjoint(g: np.ndarray, Q: np.ndarray) -> None:
    """Raise HypothesisError unless the float stack Q is g-self-adjoint."""
    gQ = g @ Q
    scale = max(1.0, float(np.abs(gQ).max()))
    worst = float(np.abs(gQ - gQ.swapaxes(-1, -2)).max())
    if worst > SELF_ADJOINT_TOL * scale:
        raise HypothesisError(
            f"explicit Q is not g-self-adjoint: |gQ - (gQ)^T| = {worst:.3e}"
        )


# ------------------------------------------------------------ values only
#
# The path integrands need Q's values at each quadrature node and nothing
# else.  These build them in floats from the chart's J and d2f, through the
# same gates as ``q_jets``, with the same exception classes.


def explicit_q_values(spec: Explicit, u: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Q (*batch, n, n) of an explicit spec at points u, by one
    ``eval_values`` call on its entries (shared subtrees and their domain
    gates once), gated on g-self-adjointness with g = J^T J."""
    n = u.shape[-1]
    Q = np.empty(u.shape[:-1] + (n * n,))
    for k, v in enumerate(exprmod.eval_values(spec.asts(n), u, spec.shared)):
        Q[..., k] = v
    Q = Q.reshape(u.shape[:-1] + (n, n))
    _check_explicit_self_adjoint(J.swapaxes(-1, -2) @ J, Q)
    return Q


def q_from_scalar_values(
    J: np.ndarray,
    d2f: np.ndarray,
    g: np.ndarray,
    A: np.ndarray,
    s: JetScalar,
    h: JetScalar,
) -> np.ndarray:
    """Q = Hess(s) - h A (*batch, n, n) in floats, gated like the jet route.

    Reads the values of ds, d2s, h and dh off the pair's jets; with
    Gamma^k_ij = g^{kl} <d_l f, d_i d_j f>, Hess s = g^{-1}(d2s - Gamma.ds).
    """
    batch, n = J.shape[:-2], J.shape[-1]
    ds, dh = np.moveaxis(jet_partials([s, h], 1, batch), -2, 0)
    grads = solve(g, np.stack([ds, dh], axis=-1))
    gh_constraint_residual_field(A, g, grads[..., 0], grads[..., 1])
    Jd2f = np.einsum("...pl,...pij->...lij", J, d2f).reshape(batch + (n, n * n))
    Gamma = solve(g, Jd2f).reshape(batch + (n, n, n))
    d2s = jet_partials([s], 2, batch)[..., 0, :, :]
    hess = solve(g, d2s - np.einsum("...mil,...m->...il", Gamma, ds))
    return hess - jet_partials([h], 0, batch)[..., None] * A


# ------------------------------------------------------- pointwise values


@dataclass
class CodazziFrame:
    """Pointwise values of Q and its first covariant derivative.

    Layouts match ``Frame``: batch axes lead.  ``dQ[..., k, j, i]`` holds
    the raw partial d_i Q^k_j; ``nablaQ[..., i, k, j]`` the covariant
    derivative (nabla_i Q)^k_j.
    """

    Q: np.ndarray
    Q_inv: np.ndarray
    dQ: np.ndarray
    nablaQ: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray


def codazzi_frame_from_jets(
    qj: np.ndarray, frame: Frame, rank_rtol: float = Q_RANK_RTOL
) -> CodazziFrame:
    """Extract Q values from its jets, with the nonsingularity gate.

    Raises HypothesisError when Q is numerically singular anywhere in the
    batch; the deformation theory needs an invertible operator.
    """
    if qj[0, 0].space.order < 1:
        raise FrameError("Q jets need order >= 1 for covariant derivatives")
    Qv = _move(values(qj), 2)
    dQ = _move(d1_values(qj), 3)
    _, sig, _ = jacobi_svd(Qv)
    smin, smax = sig[..., -1], sig[..., 0]
    # floor the scale at 1 so a uniformly tiny Q counts as singular too
    if np.any(smin <= rank_rtol * np.maximum(smax, 1.0)):
        worst = float(smin.min())
        raise HypothesisError(
            f"deformation operator is numerically singular: "
            f"min singular value {worst:.3e}"
        )
    Q_inv = solve(Qv, np.eye(Qv.shape[-1]))
    Gv = frame.Gamma
    nablaQ = (
        np.einsum("...kji->...ikj", dQ)
        + np.einsum("...kil,...lj->...ikj", Gv, Qv)
        - np.einsum("...lij,...kl->...ikj", Gv, Qv)
    )
    return CodazziFrame(
        Q=Qv, Q_inv=Q_inv, dQ=dQ, nablaQ=nablaQ, sigma_min=smin, sigma_max=smax
    )


# ------------------------------------------------------------- residuals


def commutator_residual_field(frame: Frame, cf: CodazziFrame) -> np.ndarray:
    """max |(QA - AQ)^k_j| per point."""
    QA = np.einsum("...km,...mj->...kj", cf.Q, frame.A)
    AQ = np.einsum("...km,...mj->...kj", frame.A, cf.Q)
    return np.abs(QA - AQ).max(axis=(-1, -2))


def codazzi_Q_residual_field(frame: Frame, cf: CodazziFrame) -> np.ndarray:
    """max_{i,j} |(nabla_i Q)e_j - (nabla_j Q)e_i|_g per point."""
    anti = cf.nablaQ - np.einsum("...ikj->...jki", cf.nablaQ)
    # g-norm over the k axis, max over i, j
    sq = np.einsum("...ikj,...kl,...ilj->...ij", anti, frame.g, anti)
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=(-1, -2))


def deformed_metric(frame: Frame, cf: CodazziFrame) -> np.ndarray:
    """g~_ij = g(Q e_i, Q e_j); checked symmetric positive definite."""
    gt = np.einsum("...ki,...kl,...lj->...ij", cf.Q, frame.g, cf.Q)
    gt = 0.5 * (gt + gt.swapaxes(-1, -2))
    try:
        cholesky_spd(gt)
    except NotSPDError as e:
        raise HypothesisError(f"deformed metric is not positive definite: {e}")
    return gt


def deformed_metric_jets(cj: ChartJets, qj: np.ndarray) -> np.ndarray:
    """Jets of g~ = Q^T g Q at order K-2, symmetrized structurally."""
    n = cj.n
    order = qj[0, 0].space.order
    gt = mat_mul(mat_mul(qj.T, cj.metric(order)), qj)
    for i in range(n):
        for j in range(i + 1, n):
            m = (gt[i, j] + gt[j, i]) * 0.5
            gt[i, j] = gt[j, i] = m
    return gt


def deformed_christoffel_jets(cj: ChartJets, qj: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols of the deformed metric, from its jets.

    g~ has order K-2; its inverse is built at K-3, the order the symbols
    read.  Build them once and pass them to both deformed residual fields.
    """
    gt = deformed_metric_jets(cj, qj)

    def gate(det):
        if np.any(values(det) <= 0.0):
            raise HypothesisError("deformed metric is singular on the sample")

    return christoffel_jets(gt, mat_inv(_trunc_mat(gt, gt[0, 0].order - 1), gate)[0])


def deformed_connection_residual_field(
    cj: ChartJets, frame: Frame, cf: CodazziFrame, Gt: np.ndarray
) -> np.ndarray:
    """Two routes to the deformed connection must agree.

    Route 1 differentiates the deformed metric (pure Riemannian geometry):
    ``Gt`` is ``deformed_christoffel_jets(cj, qj)``.  Route 2 is the closed
    form Gamma~^k_ij = (Q^-1)^k_m (d_i Q^m_j + Gamma^m_il Q^l_j) predicted
    for commuting Codazzi operators.
    """
    if cj.order < 3:
        raise FrameError("deformed connection needs jet order >= 3")
    G1 = _move(values(Gt), 3)
    dQ_kij = np.einsum("...kji->...kij", cf.dQ)
    term = dQ_kij + np.einsum("...mil,...lj->...mij", frame.Gamma, cf.Q)
    G2 = np.einsum("...km,...mij->...kij", cf.Q_inv, term)
    diff = np.abs(G1 - G2).max(axis=(-1, -2, -3))
    # Christoffels are not tensorial, so normalize by their own scale to
    # keep the comparison meaningful when entries are large
    scale = np.maximum(1.0, np.abs(G1).max(axis=(-1, -2, -3)))
    return diff / scale


def deformed_curvature_residual_field(
    cj: ChartJets, frame: Frame, cf: CodazziFrame, Gt: np.ndarray
) -> np.ndarray:
    """|R~ - Q^-1 R(.,.) Q| per point, max over all components.

    R~ comes from differentiating the deformed Christoffel symbols ``Gt``
    (``deformed_christoffel_jets``); the conjugated tensor is the closed
    form the deformation theory predicts.  Needs jet order 4.
    """
    if cj.order < 4:
        raise FrameError("deformed curvature needs jet order 4")
    Rt = curvature_values(Gt)
    # pairwise contraction: a single three-operand loop is about 4x slower
    conj = np.einsum(
        "...lm,...msij,...sk->...lkij", cf.Q_inv, frame.R, cf.Q, optimize=True
    )
    return np.abs(Rt - conj).max(axis=(-1, -2, -3, -4))
