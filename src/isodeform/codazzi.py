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

``codazzi_frame_from_jets`` extracts pointwise values (Q, its inverse,
covariant derivative) from the jets of ``q_jets`` with a nonsingularity
gate, and the ``deformed_*`` functions build the metric g~ = g(Q., Q.),
its Levi-Civita connection, and its curvature, each compared against the
closed-form route the deformation theory predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .jet import JetScalar, d1_values, mat_inv, mat_mul, values
from .linalg import NotSPDError, cholesky_spd, jacobi_svd, solve

GH_CONSTRAINT_TOL = 1e-8
Q_RANK_RTOL = 1e-9


@dataclass(frozen=True)
class Parallel:
    t: float


@dataclass(frozen=True)
class GHPair:
    g_source: str
    h_source: str


@dataclass(frozen=True)
class MinusA:
    pass


@dataclass(frozen=True)
class Explicit:
    entries: Tuple[Tuple[str, ...], ...]  # row k gives Q^k_1 .. Q^k_n


CodazziSpec = Union[Parallel, GHPair, MinusA, Explicit]


def _identity_minus(cj: ChartJets, scale: float) -> np.ndarray:
    """Jets of Id - scale * A at order K-2."""
    n = cj.n
    A = cj.Ajet
    Q = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            Q[i, j] = (1.0 if i == j else 0.0) - scale * A[i, j]
    return Q


def gh_pair_jets(cj: ChartJets, spec: GHPair) -> Tuple[JetScalar, JetScalar]:
    """Evaluate the scalar pair at full jet order."""
    n = cj.n
    g_ast = exprmod.parse(spec.g_source, n)
    h_ast = exprmod.parse(spec.h_source, n)
    return (
        exprmod.eval_jet(g_ast, cj.u, cj.order),
        exprmod.eval_jet(h_ast, cj.u, cj.order),
    )


def gh_constraint_residual_field(
    cj: ChartJets, s: JetScalar, h: JetScalar
) -> np.ndarray:
    """|A(grad g) + grad h|_g per point, relative to the gradient sizes.

    The pair induces a Codazzi, commuting Q exactly when this vanishes.
    """
    Av = _move(values(cj.Ajet), 2)
    gv = _move(values(cj.gjet), 2)
    grad_g = _move(values(cj.scalar_grad_jets(s)), 1)
    grad_h = _move(values(cj.scalar_grad_jets(h)), 1)
    mism = np.einsum("...kj,...j->...k", Av, grad_g) + grad_h

    def gn(vec):
        return np.sqrt(np.einsum("...i,...ij,...j->...", vec, gv, vec))

    scale = 1.0 + gn(grad_g) + gn(grad_h)
    return gn(mism) / scale


def q_jets(cj: ChartJets, spec: CodazziSpec) -> np.ndarray:
    """Jets of Q at order K-2, hypothesis-checked where construction allows.

    GHPair verifies the gradient constraint; Explicit verifies
    g-self-adjointness.  Commutation with A and the Codazzi identity are
    *not* checked here; use the residual functions below.
    """
    n = cj.n
    if isinstance(spec, Parallel):
        return _identity_minus(cj, spec.t)
    if isinstance(spec, MinusA):
        A = cj.Ajet
        Q = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                Q[i, j] = -A[i, j]
        return Q
    if isinstance(spec, GHPair):
        return q_from_scalar_jets(cj, *gh_pair_jets(cj, spec))[0]
    if isinstance(spec, Explicit):
        if len(spec.entries) != n or any(len(r) != n for r in spec.entries):
            raise ValueError(
                f"explicit Q needs {n}x{n} entries, got "
                f"{len(spec.entries)} rows"
            )
        Q = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                ast = exprmod.parse(spec.entries[i][j], n)
                Q[i, j] = exprmod.eval_jet(ast, cj.u, cj.order - 2)
        _check_explicit_self_adjoint(cj, Q)
        return Q
    raise TypeError(f"unknown Codazzi spec {spec!r}")


def q_from_scalar_jets(
    cj: ChartJets, s: JetScalar, h: JetScalar
) -> Tuple[np.ndarray, np.ndarray]:
    """Q = Hess(s) - h A from scalar jets (s at full order, h at >= K-2),
    and the gradient-constraint field it was gated on.

    Raises HypothesisError when the constraint fails; see ``GHPair``.
    """
    field = gh_constraint_residual_field(cj, s, h)
    worst = float(field.max())
    if worst > GH_CONSTRAINT_TOL:
        raise HypothesisError(
            "scalar pair violates the gradient constraint "
            f"A(grad g) = -grad h: residual {worst:.3e} > {GH_CONSTRAINT_TOL}"
        )
    n = cj.n
    hess = cj.scalar_hess_jets(s)
    ht = h.truncated(cj.order - 2)
    A = cj.Ajet
    Q = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            Q[i, j] = hess[i, j] - ht * A[i, j]
    return Q, field


def _check_explicit_self_adjoint(cj: ChartJets, Q: np.ndarray) -> None:
    gv = _move(values(cj.gjet), 2)
    Qv = _move(values(Q), 2)
    gQ = np.einsum("...ik,...kj->...ij", gv, Qv)
    scale = max(1.0, float(np.abs(gQ).max()))
    worst = float(np.abs(gQ - gQ.swapaxes(-1, -2)).max())
    if worst > SELF_ADJOINT_TOL * scale:
        raise HypothesisError(
            f"explicit Q is not g-self-adjoint: |gQ - (gQ)^T| = {worst:.3e}"
        )


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
    g = _trunc_mat(cj.gjet, order)
    QT = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            QT[i, j] = qj[j, i]
    gt = mat_mul(mat_mul(QT, g), qj)
    for i in range(n):
        for j in range(i + 1, n):
            m = (gt[i, j] + gt[j, i]) * 0.5
            gt[i, j] = gt[j, i] = m
    return gt


def deformed_christoffel_jets(cj: ChartJets, qj: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols of the deformed metric, from its jets."""
    gt = deformed_metric_jets(cj, qj)
    gt_inv, det = mat_inv(gt)
    if np.any(values(det) <= 0.0):
        raise HypothesisError("deformed metric is singular on the sample")
    return christoffel_jets(gt, gt_inv)


def deformed_connection_residual_field(
    cj: ChartJets, frame: Frame, cf: CodazziFrame, qj: np.ndarray
) -> np.ndarray:
    """Two routes to the deformed connection must agree.

    Route 1 differentiates the deformed metric (pure Riemannian geometry);
    route 2 is the closed form Gamma~^k_ij = (Q^-1)^k_m (d_i Q^m_j +
    Gamma^m_il Q^l_j) predicted for commuting Codazzi operators.
    """
    if cj.order < 3:
        raise FrameError("deformed connection needs jet order >= 3")
    G1 = _move(values(deformed_christoffel_jets(cj, qj)), 3)
    dQ_kij = np.einsum("...kji->...kij", cf.dQ)
    term = dQ_kij + np.einsum("...mil,...lj->...mij", frame.Gamma, cf.Q)
    G2 = np.einsum("...km,...mij->...kij", cf.Q_inv, term)
    diff = np.abs(G1 - G2).max(axis=(-1, -2, -3))
    # Christoffels are not tensorial, so normalize by their own scale to
    # keep the comparison meaningful when entries are large
    scale = np.maximum(1.0, np.abs(G1).max(axis=(-1, -2, -3)))
    return diff / scale


def deformed_curvature_residual_field(
    cj: ChartJets, frame: Frame, cf: CodazziFrame, qj: np.ndarray
) -> np.ndarray:
    """|R~ - Q^-1 R(.,.) Q| per point, max over all components.

    R~ comes from differentiating the deformed Christoffel symbols; the
    conjugated tensor is the closed form the deformation theory predicts.
    Needs jet order 4.
    """
    if cj.order < 4:
        raise FrameError("deformed curvature needs jet order 4")
    Rt = curvature_values(deformed_christoffel_jets(cj, qj))
    conj = np.einsum(
        "...lm,...msij,...sk->...lkij", cf.Q_inv, frame.R, cf.Q
    )
    return np.abs(Rt - conj).max(axis=(-1, -2, -3, -4))
