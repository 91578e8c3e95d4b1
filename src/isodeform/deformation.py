"""Constructing and verifying the deformed immersion.

Given a chart f and a commuting Codazzi operator Q, the deformation theory
produces a second immersion F of the same domain with dF = df o Q, inducing
the metric g~(X, Y) = g(QX, QY).  When the deformation source has a scalar
pair (``source.pair()`` is not None), Q = Hess(g) - h A and F has the
closed form

    F = df(grad g) + h N,

which this module pushes through the same jet pipeline as f itself, so
every geometric quantity of F is computed from scratch rather than assumed.
For a source with no pair, F is instead recovered by integrating the
1-form omega = df o Q along staircase paths; the loop integrals of omega
measure how far Q is from being integrable at all.  A path integrand needs
values only, so at each quadrature node it builds order-2 chart jets once,
reads J off their coefficients, and has ``source.q_values`` form Q (and F
for the extraction covector J^T F) in float stack algebra, under the same
gates as the jet route on the sample.

``verify_deformation`` checks the theory's claims about F pointwise on a
sample: dF = df o Q, induced metric, shape operator A~ = sign(det Q) Q^-1 A
with a single global sign, Gauss map equal to the original up to that sign,
the wedge identity (Q A~ X) ^ (Q A~ Y) = (A X) ^ (A Y), and equality of the
kernels of A and A~.  ``extract_gh`` runs the construction backwards from
an immersion to a scalar pair; ``gauge_fit`` identifies two pairs modulo
the affine gauge (g, h) -> (g + <f, a> + c, h + <N, a>).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codazzi import (
    CodazziFrame,
    GHPairData,
    Source,
    codazzi_frame_from_jets,
    deformed_metric,
    pair_jets,
    q_jets,
)
from .errors import HypothesisError
from .geometry import (
    CHUNK,
    GRID_SHRINK,
    Chart,
    ChartJets,
    Frame,
    chart_jets,
    codazzi_A_residual_field,
    decompose_ambient,
    fd_stencil,
    frame_from_jets,
    grid_axes,
    jet_partials,
    metric_normal_values,
)
from .jet import JetScalar, values
from .linalg import (
    cholesky_spd,
    det,
    jacobi_svd,
    max_principal_angle,
    solve,
    svd_rank_kernel,
    unit_normal,
)
from .quadrature import integrate_segment


class KernelMismatchError(ValueError):
    """Ranks of A and the deformed shape operator disagree."""

    def __init__(self, rank_A: int, rank_At: int, u: Sequence[float]):
        self.rank_A = rank_A
        self.rank_At = rank_At
        super().__init__(
            f"kernel dimensions differ at u = {','.join(f'{x:.6f}' for x in u)}: "
            f"rank A = {rank_A}, rank deformed A = {rank_At}"
        )


# ------------------------------------------------------- closed-form F


def immersion_jets(cj: ChartJets, s: JetScalar, h: JetScalar) -> np.ndarray:
    """Component jets of F = df(grad s) + h N, at order K-1."""
    grad = cj.scalar_grad_jets(s)
    ht = h if h.space.order == cj.order - 1 else h.truncated(cj.order - 1)
    J = cj.Jjet
    N = cj.Njet
    dim = len(cj.comps)
    F = np.empty(dim, dtype=object)
    for p in range(dim):
        acc = ht * N[p]
        for k in range(cj.n):
            acc = acc + J[p, k] * grad[k]
        F[p] = acc
    return F


def closed_form_immersion(
    chart: Chart, source: Source
) -> Callable[[Union[np.ndarray, ChartJets]], np.ndarray]:
    """Evaluator of a pair-backed deformation's F, values only.

    The evaluator maps points (*batch, n), or the chart's order-2 jets at
    them when the caller has built those already, to F = J g^{-1} ds + h N
    there, shape (*batch, dim), with no jet matrices.
    """
    pair = source.pair()
    if pair is None:
        raise ValueError("closed-form evaluation needs a scalar pair source")

    def F_fn(x: Union[np.ndarray, ChartJets]) -> np.ndarray:
        cj = x if isinstance(x, ChartJets) else chart_jets(chart, x, order=2)
        batch = cj.batch_shape
        J = jet_partials(cj.comps, 1, batch)
        g, N = metric_normal_values(J)
        ds = jet_partials([pair.g_fn(cj)], 1, batch)
        grad = solve(g, ds.swapaxes(-1, -2))[..., 0]
        if pair.h_value is not None:
            h_val = pair.h_value(cj, N)[..., None]
        else:
            h_val = jet_partials([pair.h_fn(cj)], 0, batch)
        return np.einsum("...pk,...k->...p", J, grad) + h_val * N

    return F_fn


# ------------------------------------------------------------ verification


@dataclass
class DeformationCheck:
    """Pointwise residual fields for every claim about F, plus the sign.

    All ``*_field`` members have one entry per sample point; ``sign`` is
    the global orientation factor sign(det Q) relating the two Gauss maps
    and shape operators.
    """

    sign: int
    pair_q_residual: float
    dF_field: np.ndarray
    metric_field: np.ndarray
    shape_field: np.ndarray
    selfadjoint_field: np.ndarray
    codazzi_At_field: np.ndarray
    gauss_field: np.ndarray
    wedge_field: np.ndarray
    kernel_angle_field: np.ndarray
    frame: Frame
    frameF: Frame
    cf: CodazziFrame

    @property
    def dF_residual(self) -> float:
        return float(self.dF_field.max())

    @property
    def metric_residual(self) -> float:
        return float(self.metric_field.max())

    @property
    def shape_residual(self) -> float:
        return float(self.shape_field.max())

    @property
    def selfadjoint_residual(self) -> float:
        return float(self.selfadjoint_field.max())

    @property
    def codazzi_At_residual(self) -> float:
        return float(self.codazzi_At_field.max())

    @property
    def gauss_residual(self) -> float:
        return float(self.gauss_field.max())

    @property
    def wedge_residual(self) -> float:
        return float(self.wedge_field.max())

    @property
    def kernel_angle(self) -> float:
        return float(self.kernel_angle_field.max())


def global_det_sign(Q: np.ndarray) -> int:
    """sign(det Q), which every matrix of the stack Q (..., n, n) must share.

    Raises HypothesisError otherwise: the sign relating the two Gauss maps
    and shape operators is then not globally defined.
    """
    signs = np.ravel(np.sign(det(Q)))
    if np.any(signs != signs[0]):
        raise HypothesisError(
            "sign(det Q) changes over the sample; the deformation sign "
            "is not globally defined"
        )
    return int(signs[0])


def _ortho_operator(L: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Conjugate operator T into g-orthonormal coordinates: L^T T L^{-T}."""
    n = L.shape[-1]
    LT = np.swapaxes(L.reshape(-1, n, n), -1, -2)
    return (LT @ T.reshape(-1, n, n) @ solve(LT, np.eye(n))).reshape(T.shape)


def _pair_minors(M: np.ndarray) -> np.ndarray:
    """All 2x2 minors det M[[p,q],[i,j]] for p<q, i<j: shape (*b, P, P)."""
    n = M.shape[-1]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    P = len(pairs)
    out = np.empty(M.shape[:-2] + (P, P))
    for a, (p, q) in enumerate(pairs):
        for b_, (i, j) in enumerate(pairs):
            out[..., a, b_] = (
                M[..., p, i] * M[..., q, j] - M[..., p, j] * M[..., q, i]
            )
    return out


def wedge_identity_field(
    frame: Frame, cf: CodazziFrame, Atilde: np.ndarray
) -> np.ndarray:
    """max |(Q A~ X)^(Q A~ Y) - (A X)^(A Y)| over basis 2-planes, per point.

    Wedges are taken in g-orthonormal coordinates so the numbers are frame
    independent.
    """
    L = cholesky_spd(frame.g)
    QAt = np.einsum("...km,...mj->...kj", cf.Q, Atilde)
    M1 = _pair_minors(_ortho_operator(L, QAt))
    M2 = _pair_minors(_ortho_operator(L, frame.A))
    return np.abs(M1 - M2).max(axis=(-1, -2))


def kernel_angle_field(
    frame: Frame, Atilde: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Largest principal angle between ker A and ker A~ per point.

    Raises KernelMismatchError, naming the first such point by its chart
    coordinates, when the numerical ranks disagree anywhere.
    """
    n = frame.n
    r1, V1, _ = svd_rank_kernel(frame.A.reshape(-1, n, n), tol)
    r2, V2, _ = svd_rank_kernel(Atilde.reshape(-1, n, n), tol)
    bad = np.flatnonzero(r1 != r2)
    if bad.size:
        m = bad[0]
        raise KernelMismatchError(int(r1[m]), int(r2[m]), frame.u.reshape(-1, n)[m])
    out = np.empty(len(r1))
    for r in set(r1.tolist()):  # kernels of one rank form a stack
        at = r1 == r
        out[at] = max_principal_angle(V1[at][..., r:], V2[at][..., r:])
    return out.reshape(frame.A.shape[:-2])


def verify_deformation(
    chart: Chart, pts: np.ndarray, source: Source, order: int = 4
) -> DeformationCheck:
    """Build F in closed form and check every pointwise claim about it.

    Builds the chart jets, frame and Q frame at ``pts`` and hands them to
    ``deformation_check_from_jets``, the per-chunk body the deformation
    suite runs on the jets it shares with the other suites.
    """
    cj = chart_jets(chart, pts, order)
    frame = frame_from_jets(cj)
    qj, pair, _ = q_jets(cj, source)
    cf = codazzi_frame_from_jets(qj, frame)
    return deformation_check_from_jets(
        cj, frame, cf, global_det_sign(cf.Q), source, pair
    )


def deformation_check_from_jets(
    cj: ChartJets,
    frame: Frame,
    cf: CodazziFrame,
    sign: int,
    source: Source,
    pair: Optional[Tuple[JetScalar, JetScalar]],
) -> DeformationCheck:
    """Every pointwise claim about the closed-form F, from built jets.

    ``cf`` is the Q frame of ``source`` on ``frame`` and ``sign`` its
    sign(det Q), already checked uniform on the batch.  ``pair`` is the
    scalar pair's jets when ``q_jets`` built Q from them, and then
    ``pair_q_residual`` is 0.  Otherwise (None) Q was direct: the jets of
    ``source.pair()`` are built here, and ``pair_q_residual`` compares Q
    with the operator they induce.
    """
    pair_q_residual = 0.0
    if pair is None:
        pair_data = source.pair()
        if pair_data is None:
            raise ValueError("verify_deformation needs a scalar pair source")
        q_par, pair, _ = pair_data.q_jets(cj)
        q_par = np.moveaxis(values(q_par).astype(float), (0, 1), (-2, -1))
        pair_q_residual = float(np.abs(cf.Q - q_par).max())
    s, h = pair

    cjF = ChartJets(list(immersion_jets(cj, s, h)), cj.u)
    frameF = frame_from_jets(cjF)

    JQ = np.einsum("...pk,...kj->...pj", frame.J, cf.Q)
    dF_field = np.abs(frameF.J - JQ).max(axis=(-1, -2))
    gt = deformed_metric(frame, cf)
    metric_field = np.abs(frameF.g - gt).max(axis=(-1, -2))
    Atilde = frameF.A
    QinvA = np.einsum("...km,...mj->...kj", cf.Q_inv, frame.A)
    shape_field = np.abs(Atilde - sign * QinvA).max(axis=(-1, -2))
    # A~ must be self-adjoint for the induced metric and Codazzi for the
    # induced connection; both come straight out of the F frame
    gAt = np.einsum("...ik,...kj->...ij", frameF.g, Atilde)
    selfadj_field = np.abs(gAt - np.swapaxes(gAt, -1, -2)).max(axis=(-1, -2))
    if frameF.nablaA is not None:
        codazzi_At_field = codazzi_A_residual_field(frameF)
    else:
        codazzi_At_field = np.zeros(shape_field.shape)
    gauss_field = np.abs(frameF.N - sign * frame.N).max(axis=-1)
    wedge_field = wedge_identity_field(frame, cf, Atilde)
    kernel_field = kernel_angle_field(frame, Atilde)
    return DeformationCheck(
        sign=sign,
        pair_q_residual=pair_q_residual,
        dF_field=dF_field,
        metric_field=metric_field,
        shape_field=shape_field,
        selfadjoint_field=selfadj_field,
        codazzi_At_field=codazzi_At_field,
        gauss_field=gauss_field,
        wedge_field=wedge_field,
        kernel_angle_field=kernel_field,
        frame=frame,
        frameF=frameF,
        cf=cf,
    )


# ----------------------------------------------------- path integration
#
# Every path integral goes through one leg kernel, ``_leg_integrals``: a
# covector field callback pts (m, n) -> (m, d, n) integrated along a batch
# of straight legs in one quadrature call, each leg retired once it has
# converged.  ``_staircase`` chains axis-parallel legs from a batch of starts
# to a batch of targets, each path with its own axis order, in one kernel
# call that integrates each distinct (start, step) leg once, however many
# paths share it; ``_grid_staircase`` fills a sample grid from one kernel
# call.  A leg's integral does not depend on the batch it runs in: the
# integrand is evaluated point by point (stacked products by matmul), and
# each leg is accepted on its own test.


def _omega_values(
    chart: Chart, source: Source, pts: np.ndarray
) -> np.ndarray:
    """Values of the 1-form omega = df o Q: shape (*batch, dim, n).

    Values only: one build of order-2 chart jets per slice, whose
    coefficients give J here and d2f to ``source.q_values``, under the same
    gates as the sample pass.  On an exactly singular metric those raise
    NotSPDError or DegenerateJacobianError, where the jet route's cofactor
    inverse raises JetDomainError.
    """
    cj = chart_jets(chart, pts, order=2)
    J = jet_partials(cj.comps, 1, cj.batch_shape)
    return J @ source.q_values(cj, J)


def _leg_integrals(covector, starts, steps, tol: float) -> np.ndarray:
    """Integrals of the covector along the legs starts -> starts + steps.

    ``starts`` and ``steps`` are (L, n); returns shape (L, d).  With
    t = start + s step every leg runs over s in [0, 1], its integrand the
    covector contracted with its step, so the batch is one quadrature call
    in which each leg is held to the same absolute ``tol`` and is no longer
    evaluated once it has converged.  The covector is evaluated in slices
    of ``CHUNK`` points to bound memory.
    """
    legs = [starts, steps]

    def fn(s: np.ndarray) -> np.ndarray:
        a, v = legs
        pts = (a + s[:, None, None] * v).reshape(-1, a.shape[1])
        vs = np.broadcast_to(v, (len(s),) + v.shape).reshape(pts.shape)
        return np.concatenate([
            np.einsum("pdn,pn->pd", covector(pts[lo:lo + CHUNK]), vs[lo:lo + CHUNK])
            for lo in range(0, len(pts), CHUNK)
        ]).reshape(len(s), len(a), -1)

    def retire(keep: np.ndarray) -> None:
        legs[:] = legs[0][keep], legs[1][keep]

    return integrate_segment(fn, 0.0, 1.0, tol=tol, retire=retire)


def _staircase(covector, starts, X, orders, tol: float) -> np.ndarray:
    """Integral of the covector from each row of ``starts`` (P, n) to the
    same row of X along the axes orders[i] in turn: (P, d).

    Zero-length legs are dropped, and each distinct (start, step) leg of
    the rest is integrated once, in one kernel call; every path adds the
    integral of each of its legs to its sum in axis order.  (P, 1) zeros
    when no leg moves.
    """
    cur = np.array(starts, dtype=float)
    legs = []
    for ax in np.transpose(orders):
        on = np.arange(X.shape[1]) == ax[:, None]  # each path's axis, (P, n)
        step = np.where(on, X - cur, 0.0)
        moved = step.any(axis=1)
        legs.append((cur[moved], step[moved], np.flatnonzero(moved)))
        cur = np.where(on, X, cur)
    a, v, owner = (np.concatenate(part) for part in zip(*legs))
    if not len(owner):
        return np.zeros((len(X), 1))
    n = X.shape[1]
    distinct, leg = np.unique(np.hstack([a, v]), axis=0, return_inverse=True)
    seg = _leg_integrals(covector, distinct[:, :n], distinct[:, n:], tol)
    total = np.zeros((len(X), seg.shape[1]))
    np.add.at(total, owner, seg[leg.reshape(-1)])  # numpy 2.0 gives leg 2-D
    return total


def _grid_staircase(covector, axes, start, order, tol: float) -> np.ndarray:
    """``start`` (d,) plus the covector's integral from the first point of
    the grid with per-axis samples ``axes`` to every grid point: (*res, d).

    Axis by axis, every step of every line through the block already filled
    is one leg; the legs of all axes are one kernel call, and a cumulative
    sum along each axis in turn then chains the steps.
    """
    n = len(axes)
    blocks, legs = [], []
    for i, ax in enumerate(order):
        line_axes = [a if j in order[:i] else a[:1] for j, a in enumerate(axes)]
        line_axes[ax] = axes[ax][:-1]
        starts = np.stack(np.meshgrid(*line_axes, indexing="ij"), axis=-1)
        steps = np.zeros(starts.shape)
        steps[..., ax] = np.diff(axes[ax]).reshape([-1 if j == ax else 1 for j in range(n)])
        blocks.append(starts.shape[:-1])
        legs.append((starts.reshape(-1, n), steps.reshape(-1, n)))
    seg = _leg_integrals(covector, *(np.concatenate(p) for p in zip(*legs)), tol)
    F = np.reshape(start, (1,) * n + (-1,))
    bounds = np.cumsum([np.prod(b, dtype=int) for b in blocks])[:-1]
    for ax, block, part in zip(order, blocks, np.split(seg, bounds)):
        F = np.cumsum(np.concatenate([F, part.reshape(block + (-1,))], axis=ax), axis=ax)
    return F


@dataclass(frozen=True)
class LoopRect:
    """An axis-aligned rectangle loop inside the chart domain.

    The loop runs through the 2-plane of axes (axis_a, axis_b) at the
    remaining coordinates of ``base``, clockwise in the (a, b) plane:
    the b-first staircase minus the a-first staircase between the corners
    (a0, b0) and (a1, b1).
    """

    axis_a: int
    axis_b: int
    a0: float
    a1: float
    b0: float
    b1: float
    base: Tuple[float, ...]


def _circulation(covector, rects: Sequence[LoopRect], tol: float) -> np.ndarray:
    """Clockwise circulation of the covector around each rectangle: (R, d).

    The b-first and a-first staircases of every rectangle are one
    ``_staircase`` call, so all loops share one quadrature call.
    """
    corners = np.array([(r.base, r.base) for r in rects], dtype=float)  # (R, 2, n)
    for c, r in zip(corners, rects):
        c[:, [r.axis_a, r.axis_b]] = (r.a0, r.b0), (r.a1, r.b1)
    starts, ends = np.concatenate([corners, corners]).transpose(1, 0, 2)
    orders = [(r.axis_b, r.axis_a) for r in rects] + [(r.axis_a, r.axis_b) for r in rects]
    paths = _staircase(covector, starts, ends, np.array(orders), tol)
    return paths[:len(rects)] - paths[len(rects):]


def omega_loop_integral(
    chart: Chart, source: Source, rect, tol: float = 1e-10
) -> np.ndarray:
    """Clockwise circulation of omega around ``rect``: shape (dim,) for one
    LoopRect, (R, dim) for a sequence of R, all in one quadrature call."""
    rects = [rect] if isinstance(rect, LoopRect) else rect
    loops = _circulation(lambda p: _omega_values(chart, source, p), rects, tol)
    return loops[0] if isinstance(rect, LoopRect) else loops


def default_loop_rects(chart: Chart, margin: float = 0.02) -> List[LoopRect]:
    """One spanning rectangle per adjacent axis pair, through the center."""
    rects = []
    center = chart.center()
    for k in range(chart.n - 1):
        a, b = k, k + 1
        pad_a = margin * (chart.hi[a] - chart.lo[a])
        pad_b = margin * (chart.hi[b] - chart.lo[b])
        a0, a1 = chart.lo[a] + pad_a, chart.hi[a] - pad_a
        b0, b1 = chart.lo[b] + pad_b, chart.hi[b] - pad_b
        rects.append(
            LoopRect(
                axis_a=a, axis_b=b, a0=a0, a1=a1, b0=b0, b1=b1,
                base=tuple(center),
            )
        )
        # an off-center quarter rectangle as well: symmetric integrands can
        # cancel exactly over the centered spanning rectangle
        rects.append(
            LoopRect(
                axis_a=a, axis_b=b,
                a0=0.5 * (a0 + a1), a1=a1,
                b0=0.5 * (b0 + b1), b1=b1,
                base=tuple(center),
            )
        )
    return rects


def omega_loop_residual(
    chart: Chart,
    source: Source,
    rects: Optional[Sequence[LoopRect]] = None,
    tol: float = 1e-10,
) -> Tuple[float, List[np.ndarray]]:
    """Worst loop-integral magnitude over the rectangles, plus each loop."""
    if rects is None:
        rects = default_loop_rects(chart)
    loops = list(omega_loop_integral(chart, source, rects, tol))
    worst = max(float(np.abs(v).max()) for v in loops)
    return worst, loops


def path_integral_immersion(
    chart: Chart,
    source: Source,
    base: Sequence[float],
    targets: Sequence[float],
    F0: Optional[Sequence[float]] = None,
    axis_order: Optional[Sequence[int]] = None,
    tol: float = 1e-10,
) -> np.ndarray:
    """F at each target by integrating omega along axis-ordered staircases.

    ``targets`` is one point, shape (n,), giving F with shape (dim,), or a
    batch, shape (K, n), giving shape (K, dim).  The staircase legs of every
    target and axis are one quadrature call, each leg held to the same
    absolute ``tol`` on its own; a target on the base gives exactly F0.
    """
    base = np.asarray(base, dtype=float)
    targets = np.asarray(targets, dtype=float)
    X = np.atleast_2d(targets)
    F = np.zeros((len(X), chart.ambient_dim))
    if F0 is not None:
        F += np.asarray(F0, dtype=float)
    order = range(X.shape[1]) if axis_order is None else axis_order
    F += _staircase(
        lambda p: _omega_values(chart, source, p), np.broadcast_to(base, X.shape),
        X, np.broadcast_to(order, (len(X), len(order))), tol,
    )
    return F if targets.ndim > 1 else F[0]


def path_integral_on_grid(
    chart: Chart,
    source: Source,
    res,
    F0: Optional[Sequence[float]] = None,
    axis_order: Optional[Sequence[int]] = None,
    tol: float = 1e-10,
) -> Tuple[np.ndarray, np.ndarray]:
    """F on the whole sample grid by shared-prefix staircase integration.

    Returns (mesh points with shape (*res, n), F values with shape
    (*res, dim)).  The steps along every axis share one adaptive quadrature
    call, each accepted on its own, and a cumulative sum per axis chains
    them.
    """
    axes = grid_axes(chart, res)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    start = np.zeros(chart.ambient_dim) if F0 is None else np.asarray(F0, float)
    order = range(chart.n) if axis_order is None else axis_order
    F = _grid_staircase(
        lambda p: _omega_values(chart, source, p), axes, start, order, tol
    )
    return mesh, F


def path_dependence_residual(
    chart: Chart, source: Source, res, tol: float = 1e-10
) -> float:
    """max |F_forward - F_reversed| over the grid; zero iff omega is exact."""
    _, F1 = path_integral_on_grid(chart, source, res, tol=tol)
    _, F2 = path_integral_on_grid(
        chart, source, res, axis_order=list(reversed(range(chart.n))), tol=tol
    )
    return float(np.abs(F1 - F2).max())


@dataclass
class FDFrame:
    """First and second order data of a path-integral immersion, by FD.

    Used for operators with no scalar pair, where F exists only through
    quadrature.  Accuracy is limited by the difference step; expect ~1e-9
    on first derivatives and ~1e-6 on second derivatives.
    """

    f: np.ndarray
    J: np.ndarray
    N: np.ndarray
    g: np.ndarray
    b: np.ndarray
    A: np.ndarray


def fd_deformed_frame(
    chart: Chart,
    source: Source,
    u: Sequence[float],
    step: float = 1e-3,
    tol: float = 1e-12,
    base: Optional[Sequence[float]] = None,
) -> FDFrame:
    """Finite-difference frame of the staircase-integrated immersion.

    The Richardson stencil around ``u`` is collected first and integrated
    in one batched ``path_integral_immersion`` call, one quadrature call in
    which every staircase leg is held to ``tol`` on its own.
    """
    if base is None:
        lo = np.asarray(chart.lo)
        base = lo + GRID_SHRINK * (np.asarray(chart.hi) - lo)

    def key(x: np.ndarray) -> tuple:
        return tuple(np.round(x, 12))

    # first pass: record the deduplicated stencil; second: read F off it
    stencil = {}

    def record(x: np.ndarray) -> np.ndarray:
        stencil.setdefault(key(x), x)
        return np.zeros(chart.ambient_dim)

    fd_stencil(chart, record, u, step, 10 * step)
    Fv = path_integral_immersion(
        chart, source, base, np.array(list(stencil.values())), tol=tol
    )
    row = dict(zip(stencil, Fv))
    f, J, d2 = fd_stencil(chart, lambda x: row[key(x)], u, step, 10 * step)

    N = unit_normal(J)
    g = J.T @ J
    b = np.einsum("p,pij->ij", N, d2)
    A = solve(g, b)
    return FDFrame(f=f, J=J, N=N, g=g, b=b, A=A)


# ------------------------------------------------------------- extraction


@dataclass
class GridPair:
    """Scalar pair sampled on a mesh grid, as produced by ``extract_gh``."""

    points: np.ndarray  # (*res, n)
    g: np.ndarray       # (*res,)
    h: np.ndarray       # (*res,)
    grad_g: np.ndarray  # (*res, n) contravariant components
    closed_residual: float


def extract_gh(
    chart: Chart,
    F_fn: Callable[[ChartJets], np.ndarray],
    res,
    tol: float = 1e-10,
) -> GridPair:
    """Recover the scalar pair of an immersion with dF = df o Q.

    ``F_fn`` maps the chart's order-2 jets at a batch of points to F there,
    as the evaluator of ``closed_form_immersion`` does.  Decomposes F
    pointwise into df(Z) + h N, checks that the covector field
    g(Z, .) = J^T F is closed via rectangle loop integrals, and integrates
    it along staircase paths to produce g with g(base corner) = 0.
    """
    axes = grid_axes(chart, res)
    shape = tuple(len(ax) for ax in axes)
    n = chart.n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    flat = mesh.reshape(-1, n)
    cj = chart_jets(chart, flat, order=2)
    Z, h = decompose_ambient(frame_from_jets(cj), F_fn(cj))

    def zeta_at(pts: np.ndarray) -> np.ndarray:
        # g(Z, .) = J^T (F - h N) = J^T F as a one-row field, shape (m, 1, n)
        cj = chart_jets(chart, pts, order=2)
        J = jet_partials(cj.comps, 1, cj.batch_shape)
        return np.einsum("...pk,...p->...k", J, F_fn(cj))[..., None, :]

    closed = float(np.abs(_circulation(zeta_at, default_loop_rects(chart), tol)).max())
    g_grid = _grid_staircase(zeta_at, axes, np.zeros(1), range(n), tol)
    return GridPair(
        points=mesh,
        g=g_grid[..., 0],
        h=h.reshape(shape),
        grad_g=Z.reshape(shape + (n,)),
        closed_residual=closed,
    )


def pair_on_grid(chart: Chart, pair: GHPairData, res) -> GridPair:
    """Sample a pair's (g, h, grad g) on the grid, for gauge comparison."""
    axes = grid_axes(chart, res)
    shape = tuple(len(ax) for ax in axes)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    flat = mesh.reshape(-1, chart.n)
    cj = chart_jets(chart, flat, order=2)
    s, h = pair_jets(cj, pair)
    grad = values(cj.scalar_grad_jets(s.truncated(1))).astype(float)  # (n, m)
    return GridPair(
        points=mesh,
        g=np.asarray(s.value, dtype=float).reshape(shape),
        h=np.asarray(h.value, dtype=float).reshape(shape),
        grad_g=np.moveaxis(grad, 0, -1).reshape(shape + (chart.n,)),
        closed_residual=0.0,
    )


@dataclass
class GaugeFit:
    """Best affine gauge (a, c) matching pair2 = pair1 + gauge."""

    a: np.ndarray
    c: float
    residual: float
    cond: float


def gauge_fit(chart: Chart, pair1: GridPair, pair2: GridPair) -> GaugeFit:
    """Least-squares gauge between two sampled pairs on the same grid.

    Solves for (a, c) minimizing the joint residual of
    g2 = g1 + <f, a> + c and h2 = h1 + <N, a> over all sample points.
    """
    if pair1.points.shape != pair2.points.shape:
        raise ValueError("pairs sampled on different grids")
    n = chart.n
    flat = pair1.points.reshape(-1, n)
    frame = frame_from_jets(chart_jets(chart, flat, order=2))
    dim = chart.ambient_dim
    m = flat.shape[0]
    D = np.zeros((2 * m, dim + 1))
    D[:m, :dim] = frame.f
    D[:m, dim] = 1.0
    D[m:, :dim] = frame.N
    rhs = np.concatenate(
        [
            (pair2.g - pair1.g).reshape(-1),
            (pair2.h - pair1.h).reshape(-1),
        ]
    )
    x = solve(D.T @ D, D.T @ rhs)
    _, s, _ = jacobi_svd(D)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    residual = float(np.abs(D @ x - rhs).max())
    return GaugeFit(a=x[:dim], c=float(x[dim]), residual=residual, cond=cond)
