"""Deformation operators Q and the geometry they induce.

A deformation operator is a field of g-self-adjoint endomorphisms Q of the
tangent bundle.  The deformation theory additionally requires Q to commute
with the shape operator A and to satisfy the same Codazzi identity A does:

    (nabla_X Q) Y = (nabla_Y Q) X.

A deformation source gives Q.  Every source answers the three calls of the
``Source`` protocol, so no caller tests which kind it holds:

* ``q_jets(cj)``: Q's jets at order K-2, plus the pair's jets and the
  gradient-constraint field when Q is built from a scalar pair (else None);
* ``q_values(cj, vf)``: Q (n, n, S) in floats for the path integrands, from
  the slice's ``geometry.ValueFrame``, behind the same gates as ``q_jets``;
* ``pair()``: the scalar pair (g, h) whose closed form F = df(grad g) + h N
  realizes Q, or None when F exists only as the path integral of df o Q.

The five sources:

* ``Parallel(t)``: Q = Id - t A, the operator of the parallel hypersurface
  at distance t; its pair is ``gh_parallel_offset(t)``.
* ``MinusA()``: Q = -A; its pair is ``gh_gauss_translation()``.
* ``GHPair(g_source, h_source)`` for scalar DSL fields, and ``GHPairData``
  for jet-building callables: Q = Hess(g) - h A.  Such a Q is Codazzi and
  commuting exactly when the pair satisfies the gradient constraint
  A(grad g) = -grad h, which both routes to Q gate on.
* ``Explicit(entries)``: an n x n matrix of DSL sources giving the
  components Q^k_j(u), with no pair.  Only g-self-adjointness is gated;
  commutation and the Codazzi identity are reported as residuals so that
  broken inputs can be detected by the verification suites.

The DSL sources parse once and keep the ASTs.

``codazzi_frame_from_jets`` extracts pointwise values (Q, its inverse,
covariant derivative) from the jets of ``q_jets`` with a finiteness and a
nonsingularity gate, and the ``deformed_*`` functions build the metric
g~ = g(Q., Q.), its Levi-Civita connection, and its curvature, each
compared against the closed-form route the deformation theory predicts.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from . import expr as exprmod
from .errors import HypothesisError
from .geometry import (
    ChartJets,
    Frame,
    SELF_ADJOINT_TOL,
    ValueFrame,
    christoffel_jets,
    curvature_values,
    jet_partials,
)
from .expr import ExprAst
from .jet import JetScalar, contract, d1_values, mat_inv, mat_mul, stack, values
from .linalg import cholesky_spd, index_sum, jacobi_svd, solve
from .record import Record

GH_CONSTRAINT_TOL = 1e-8
Q_RANK_RTOL = 1e-9  # Q singular: sigma_min <= Q_RANK_RTOL * max(sigma_max, 1)
# chart jet order K of the checks that read Q: Q and g~ are built at K-2,
# Gamma~ at K-3, and the deformed curvature differentiates Gamma~, so K = 4
Q_CHECK_ORDER = 4

PairJets = Tuple[JetScalar, JetScalar]
QJets = Tuple[JetScalar, Optional[PairJets], Optional[np.ndarray]]


class Source(Protocol):
    """What every deformation source answers; see the module docstring."""

    reads: Tuple[str, ...]  # the frame's chart-jet builds that q_jets reads again

    def q_jets(self, cj: ChartJets) -> QJets: ...

    def q_values(self, cj: ChartJets, vf: ValueFrame) -> np.ndarray: ...

    def pair(self) -> Optional["GHPairData"]: ...


def q_jets(cj: ChartJets, source: Source) -> QJets:
    """``source.q_jets(cj)``, gated where construction allows; commutation
    and the Codazzi identity are left to the residual functions below.
    The suites and ``verify_deformation`` build Q through this name, which
    the layer trace in ``perfbench/layertrace.py`` times."""
    return source.q_jets(cj)


class _Direct(Record):
    """A source whose Q is one expression ``_q`` in A, which serves A's
    jets (an (n, n) jet tensor) and a float stack of A alike."""

    __slots__ = ()
    reads = ("Ajet",)

    def q_jets(self, cj: ChartJets) -> QJets:
        return self._q(cj.Ajet), None, None

    def q_values(self, cj: ChartJets, vf: ValueFrame) -> np.ndarray:
        return np.moveaxis(self._q(np.moveaxis(vf.A, -1, 0)), 0, -1)


class Parallel(_Direct):
    __slots__ = ("t",)
    _key = lambda self: (self.t,)

    def __init__(self, t: float):
        self.t = t

    def _q(self, A: np.ndarray) -> np.ndarray:
        return np.eye(A.shape[-1]) - self.t * A

    def pair(self) -> "GHPairData":
        return gh_parallel_offset(self.t)


class MinusA(_Direct):
    __slots__ = ()

    def _q(self, A: np.ndarray) -> np.ndarray:
        return -A

    def pair(self) -> "GHPairData":
        return gh_gauss_translation()


class _FromPair(Record):
    """A source whose Q = Hess(s) - h A comes from its scalar pair."""

    __slots__ = ()
    reads = ("comps", "ginv", "Ajet")

    def q_jets(self, cj: ChartJets) -> QJets:
        """Q from the pair's jets (s at full order, h at K-1), and the
        gradient-constraint field it was gated on."""
        s, h = pair = pair_jets(cj, self.pair())
        gh_field = gh_constraint_residual_field(
            values(cj.Ajet),
            values(cj.metric(0)),
            values(cj.scalar_grad_jets(s.truncated(1))),
            values(cj.scalar_grad_jets(h.truncated(1))),
        )
        Q = cj.scalar_hess_jets(s) - h.truncated(cj.order - 2) * cj.Ajet
        return Q, pair, gh_field

    def q_values(self, cj: ChartJets, vf: ValueFrame) -> np.ndarray:
        """Hess s - h A (n, n, S) in floats, gated like the jet route.

        Reads the values of ds, d2s, h and dh off the pair's jets; with
        Gamma^k_ij = g^{kl} <d_l f, d_i d_j f>, Hess s = g^{-1}(d2s - Gamma.ds).
        """
        s, h = pair_jets(cj, self.pair())
        batch, n, A = cj.batch_shape, cj.n, vf.A
        dsh = jet_partials([s, h], 1, batch, last=True).swapaxes(0, 1)  # (n, 2, S)
        # a non-finite gradient is the gate's to refuse, not the solve's
        grads = vf.solve(dsh) if np.isfinite(dsh).all() else np.full(dsh.shape, np.nan)
        gh_constraint_residual_field(
            *(np.moveaxis(x, -1, 0) for x in (A, vf.g, grads[:, 0], grads[:, 1]))
        )
        Jd2f = index_sum(vf.J[:, :, None, None] * vf.d2f[:, None])  # (n, n, n, S)
        Gamma = vf.solve(Jd2f.reshape(n, n * n, -1)).reshape(Jd2f.shape)
        d2s = jet_partials([s], 2, batch, last=True)[0]
        hess = vf.solve(d2s - index_sum(Gamma * dsh[:, 0, None, None]))
        return hess - jet_partials([h], 0, batch, last=True)[0] * A


class GHPair(_FromPair):
    """Q = Hess(g) - h A from DSL sources; ``asts(n)`` parses them once per n."""

    __slots__ = ("g_source", "h_source", "_parsed")
    _key = lambda self: (self.g_source, self.h_source)

    def __init__(self, g_source: str, h_source: str):
        self.g_source, self.h_source, self._parsed = g_source, h_source, {}

    def asts(self, n: int) -> Tuple[ExprAst, ExprAst]:
        """(g, h) parsed for an n-variable chart."""
        if n not in self._parsed:
            self._parsed[n] = (
                exprmod.parse(self.g_source, n), exprmod.parse(self.h_source, n)
            )
        return self._parsed[n]

    def pair(self) -> "GHPairData":
        def g_fn(cj: ChartJets) -> JetScalar:
            return exprmod.eval_jet(self.asts(cj.n)[0], cj.u, cj.order)

        def h_fn(cj: ChartJets) -> JetScalar:
            return exprmod.eval_jet(self.asts(cj.n)[1], cj.u, cj.order)

        return GHPairData(g_fn, h_fn)


class GHPairData(_FromPair):
    """A scalar pair given as jet-building callables.

    ``g_fn`` must return a jet at the chart jets' full order; ``h_fn`` at
    order >= K-1.  ``h_value``, when given, maps the chart jets and the
    float unit normal, batch-last (dim, S), to the values of h (S,), so the
    closed-form F needs no jets of h.
    """

    __slots__ = ("g_fn", "h_fn", "h_value")
    _key = lambda self: (self.g_fn, self.h_fn, self.h_value)

    def __init__(self, g_fn: Callable[[ChartJets], JetScalar],
                 h_fn: Callable[[ChartJets], JetScalar],
                 h_value: Optional[Callable[[ChartJets, np.ndarray], np.ndarray]] = None):
        self.g_fn, self.h_fn, self.h_value = g_fn, h_fn, h_value

    def pair(self) -> "GHPairData":
        return self


def pair_jets(cj: ChartJets, pair: GHPairData) -> PairJets:
    """The pair's jets: s at the chart jets' full order, h at K-1."""
    s = pair.g_fn(cj)
    h = pair.h_fn(cj)
    if h.space.order > cj.order - 1:
        h = h.truncated(cj.order - 1)
    return s, h


def gh_parallel_offset(t: float) -> GHPairData:
    """The pair (|f|^2/2, <f, N> + t), whose operator is Id - t A."""

    def g_fn(cj: ChartJets) -> JetScalar:
        return contract(zip(cj.comps, cj.comps)) * 0.5

    def h_fn(cj: ChartJets) -> JetScalar:
        return contract(zip(cj.comps.truncated(cj.order - 1), cj.Njet)) + t

    def h_value(cj: ChartJets, N: np.ndarray) -> np.ndarray:
        return index_sum(jet_partials(cj.comps, 0, cj.batch_shape, last=True) * N) + t

    return GHPairData(g_fn, h_fn, h_value=h_value)


def gh_gauss_translation(a: Optional[Sequence[float]] = None) -> GHPairData:
    """The pair (<f, a>, <N, a> + 1), whose operator is -A and F = a + N."""
    avec = None if a is None else [float(x) for x in a]

    def coeffs(cj: ChartJets) -> List[float]:
        if avec is None:
            return [0.0] * (cj.n + 1)
        if len(avec) != cj.n + 1:
            raise ValueError(
                f"translation vector length {len(avec)} != ambient "
                f"dimension {cj.n + 1}"
            )
        return avec

    def g_fn(cj: ChartJets) -> JetScalar:
        return contract(zip(cj.comps, coeffs(cj)))

    def h_fn(cj: ChartJets) -> JetScalar:
        return contract(zip(cj.Njet, coeffs(cj))) + 1.0

    def h_value(cj: ChartJets, N: np.ndarray) -> np.ndarray:
        return index_sum(np.asarray(coeffs(cj))[:, None] * N) + 1.0

    return GHPairData(g_fn, h_fn, h_value=h_value)


class Explicit(Record):
    """Q^k_j given entrywise; the entries are parsed and interned once, when built."""

    __slots__ = ("entries", "_parsed", "shared")
    _key = lambda self: (self.entries,)
    reads = ()

    def __init__(self, entries: Tuple[Tuple[str, ...], ...]):  # row k gives Q^k_1 .. Q^k_n
        self.entries = entries
        parsed, self.shared = exprmod.intern(entries, len(entries))
        self._parsed = tuple(a for row in parsed for a in row)

    def asts(self, n: int) -> Tuple[ExprAst, ...]:
        """The n x n entry ASTs row by row, the order ``shared`` counts their
        uses in; ValueError when the entries are not n x n."""
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError(
                f"explicit Q needs {n}x{n} entries, got "
                f"{len(self.entries)} rows"
            )
        return self._parsed

    def q_jets(self, cj: ChartJets) -> QJets:
        n = cj.n
        entries = exprmod.eval_jets(self.asts(n), cj.u, cj.order - 2, self.shared)
        Q = stack([entries[k : k + n] for k in range(0, n * n, n)])
        _check_explicit_self_adjoint(cj.metric(0).value, Q.value)
        return Q, None, None

    def q_values(self, cj: ChartJets, vf: ValueFrame) -> np.ndarray:
        """Q by one ``eval_values`` call on the entries (shared subtrees and
        their domain gates once), gated on g-self-adjointness with vf's g."""
        u, n = cj.u, cj.n
        Q = np.empty((n * n,) + u.shape[:-1])
        for k, v in enumerate(exprmod.eval_values(self.asts(n), u, self.shared)):
            Q[k] = v
        Q = Q.reshape(n, n, -1)
        _check_explicit_self_adjoint(vf.g, Q)
        return Q

    def pair(self) -> None:
        return None


def gh_constraint_residual_field(
    A: np.ndarray, g: np.ndarray, grad_s: np.ndarray, grad_h: np.ndarray
) -> np.ndarray:
    """|A(grad s) + grad h|_g per point, relative to the gradient sizes.

    Float stacks: A and g (*b, n, n), the contravariant gradients (*b, n).
    The pair induces a Codazzi, commuting Q exactly when this vanishes, so
    it is the one gate of both routes to Q: raises HypothesisError unless
    the residual is within GH_CONSTRAINT_TOL everywhere (NaN is not).
    """
    mism = np.einsum("...kj,...j->...k", A, grad_s) + grad_h

    def gn(vec):
        return np.sqrt(np.einsum("...i,...ij,...j->...", vec, g, vec))

    resid = gn(mism) / (1.0 + gn(grad_s) + gn(grad_h))
    worst = float(resid.max())
    if not worst <= GH_CONSTRAINT_TOL:
        raise HypothesisError(
            "scalar pair violates the gradient constraint "
            f"A(grad g) = -grad h: residual {worst:.3e} > {GH_CONSTRAINT_TOL}"
        )
    return resid


def self_adjoint_violation(
    g: np.ndarray, Q: np.ndarray, tol: float
) -> Optional[float]:
    """|gQ - (gQ)^T| over the batch-last float stacks g, Q (n, n, ...), gQ
    summed in index order, unless it is within tol * max(1, |gQ|) (max
    norms), in which case None.  NaN is never within."""
    gQ = index_sum(g[:, :, None] * Q[None], 1)
    worst = float(np.abs(gQ - gQ.swapaxes(0, 1)).max())
    return None if worst <= tol * max(1.0, float(np.abs(gQ).max())) else worst


def _check_explicit_self_adjoint(g: np.ndarray, Q: np.ndarray) -> None:
    """Raise HypothesisError unless the batch-last float stack Q is g-self-adjoint."""
    worst = self_adjoint_violation(g, Q, SELF_ADJOINT_TOL)
    if worst is not None:
        raise HypothesisError(
            f"explicit Q is not g-self-adjoint: |gQ - (gQ)^T| = {worst:.3e}"
        )


# ------------------------------------------------------- pointwise values


class CodazziFrame:
    """Pointwise values of Q and its first covariant derivative.

    Layouts match ``Frame``: batch axes lead.  ``dQ[..., k, j, i]`` holds
    the raw partial d_i Q^k_j; ``nablaQ[..., i, k, j]`` the covariant
    derivative (nabla_i Q)^k_j.
    """

    __slots__ = ("Q", "Q_inv", "dQ", "nablaQ", "sigma_min", "sigma_max")

    def __init__(self, Q, Q_inv, dQ, nablaQ, sigma_min, sigma_max):
        self.Q, self.Q_inv, self.dQ, self.nablaQ = Q, Q_inv, dQ, nablaQ
        self.sigma_min, self.sigma_max = sigma_min, sigma_max


def codazzi_frame_from_jets(qj: JetScalar, frame: Frame) -> CodazziFrame:
    """Extract Q values from its jets, with the nonsingularity gate.

    Raises HypothesisError when Q, or a singular value of it, is not finite,
    or when Q is numerically singular anywhere in the batch; the
    deformation theory needs an invertible operator.
    """
    if qj.order < 1:
        raise ValueError("Q jets need order >= 1 for covariant derivatives")
    Qv = values(qj)
    dQ = d1_values(qj)
    _, sig, _ = jacobi_svd(Qv)
    if not (np.isfinite(Qv).all() and np.isfinite(sig).all()):
        raise HypothesisError(
            "deformation operator is not finite: its entries or singular "
            "values overflow or are NaN"
        )
    smin, smax = sig[..., -1], sig[..., 0]
    # floor the scale at 1 so a uniformly tiny Q counts as singular too
    if np.any(smin <= Q_RANK_RTOL * np.maximum(smax, 1.0)):
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


def deformed_metric(g: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """g~_ij = g(Q e_i, Q e_j) from values; checked symmetric positive definite."""
    gt = np.einsum("...ki,...kl,...lj->...ij", Q, g, Q)
    gt = 0.5 * (gt + gt.swapaxes(-1, -2))
    try:
        cholesky_spd(gt)
    except HypothesisError as e:
        raise HypothesisError(f"deformed metric is not positive definite: {e}")
    return gt


def deformed_metric_jets(cj: ChartJets, qj: JetScalar) -> JetScalar:
    """Jets of g~ = Q^T g Q at order K-2, symmetrized structurally."""
    gt = mat_mul(mat_mul(qj.T, cj.metric(qj.order)), qj)
    gt = gt + gt.T
    gt.coef *= 0.5
    return gt


def deformed_christoffel_jets(cj: ChartJets, qj: JetScalar) -> JetScalar:
    """Levi-Civita symbols of the deformed metric, from its jets.

    g~ has order K-2; its inverse is built at K-3, the order the symbols
    read.  Build them once and pass them to both deformed residual fields.
    """
    gt = deformed_metric_jets(cj, qj)

    def gate(det):
        if np.any(values(det) <= 0.0):
            raise HypothesisError("deformed metric is singular on the sample")

    return christoffel_jets(gt, mat_inv(gt.truncated(gt.order - 1), gate)[0])


def deformed_connection_residual_field(
    cj: ChartJets, frame: Frame, cf: CodazziFrame, Gt: JetScalar
) -> np.ndarray:
    """Two routes to the deformed connection must agree.

    Route 1 differentiates the deformed metric (pure Riemannian geometry):
    ``Gt`` is ``deformed_christoffel_jets(cj, qj)``.  Route 2 is the closed
    form Gamma~^k_ij = (Q^-1)^k_m (d_i Q^m_j + Gamma^m_il Q^l_j) predicted
    for commuting Codazzi operators.
    """
    if cj.order < 3:
        raise ValueError("deformed connection needs jet order >= 3")
    G1 = values(Gt)
    dQ_kij = np.einsum("...kji->...kij", cf.dQ)
    term = dQ_kij + np.einsum("...mil,...lj->...mij", frame.Gamma, cf.Q)
    G2 = np.einsum("...km,...mij->...kij", cf.Q_inv, term)
    diff = np.abs(G1 - G2).max(axis=(-1, -2, -3))
    # Christoffels are not tensorial, so normalize by their own scale to
    # keep the comparison meaningful when entries are large
    scale = np.maximum(1.0, np.abs(G1).max(axis=(-1, -2, -3)))
    return diff / scale


def deformed_curvature_residual_field(
    cj: ChartJets, frame: Frame, cf: CodazziFrame, Gt: JetScalar
) -> np.ndarray:
    """|R~ - Q^-1 R(.,.) Q| per point, max over the components R holds.

    R~ comes from differentiating the deformed Christoffel symbols ``Gt``
    (``deformed_christoffel_jets``); the conjugated tensor is the closed
    form the deformation theory predicts.  Needs jet order 4.
    """
    if cj.order < 4:
        raise ValueError("deformed curvature needs jet order 4")
    Rt = curvature_values(Gt)
    # pairwise contraction: a single three-operand loop is about 4x slower
    Rt -= np.einsum(
        "...lm,...msp,...sk->...lkp", cf.Q_inv, frame.R, cf.Q, optimize=True
    )
    return np.abs(Rt, out=Rt).max(axis=(-1, -2, -3))
