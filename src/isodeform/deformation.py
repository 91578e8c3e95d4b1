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
around rectangles, each given by its two corners (an (R, 2, n) array),
measure how far Q is from being integrable at all.  A path integrand needs
values only: at each slice of quadrature nodes it builds order-2 chart jets
once, and their ``ValueFrame`` factors g once for every solve that forms Q
(and F for the extraction covector J^T F), under the jet route's gates.

``verify_deformation`` checks the theory's claims about F pointwise on a
sample: dF = df o Q, induced metric, shape operator A~ = sign(det Q) Q^-1 A
with a single global sign, Gauss map equal to the original up to that sign,
the wedge identity (Q A~ X) ^ (Q A~ Y) = (A X) ^ (A Y), and equality of the
kernels of A and A~.  Its ``DeformationCheck`` keys each claim's residual
field by the deformation suite's check name, and the suite reports them
in the order of ``suites.CHECKS``.  For a source with no pair, ``fd_deformed_frame``
differentiates the path-integrated F at a batch of probe points, all in
one quadrature call.  Path integrals are held to the quadrature's
``DEFAULT_TOL``, those of the FD stencil to ``FD_QUAD_TOL``, and F's start
at ``path_base``, on a mesh slice along its fixed coordinates first.
``extract_gh`` runs the construction backwards from an immersion to a
scalar pair on the grid, returning (g, h, closedness); ``gauge_fit``
identifies two such pairs, given their differences, modulo the affine
gauge (g, h) -> (g + <f, a> + c, h + <N, a>).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .codazzi import (
    Q_CHECK_ORDER,
    CodazziFrame,
    GHPairData,
    Source,
    codazzi_frame_from_jets,
    deformed_metric,
    pair_jets,
    q_jets,
)
from .errors import HypothesisError, VerificationError
from .geometry import (
    CHUNK,
    GRID_SHRINK,
    Chart,
    ChartJets,
    Frame,
    ValueFrame,
    chart_jets,
    codazzi_A_residual_field,
    fd_stencil,
    frame_from_jets,
    grid_axes,
    jet_partials,
)
from .jet import JetScalar, minor_dets, values
from .linalg import (
    cholesky_solve,
    cholesky_spd,
    det,
    gram,
    index_sum,
    jacobi_svd,
    max_principal_angle,
    solve,
    svd_rank_kernel,
    unit_normal,
)
from .quadrature import DEFAULT_TOL, integrate_segment

FD_STEP = 1e-3  # first-difference step of F; see fd_second_step
FD_QUAD_TOL = 1e-12  # quadrature tolerance of F on its FD stencil


# ------------------------------------------------------- closed-form F


def immersion_jets(cj: ChartJets, s: JetScalar, h: JetScalar) -> JetScalar:
    """The component jets of F = df(grad s) + h N, a vector at order K-1."""
    F = h.truncated(cj.order - 1) * cj.Njet
    for k, grad_k in enumerate(cj.scalar_grad_jets(s)):
        F = F + cj.Jjet[:, k] * grad_k
    return F


def closed_form_immersion(
    chart: Chart, source: Source
) -> Callable[[Union[np.ndarray, ChartJets]], np.ndarray]:
    """Evaluator of a pair-backed deformation's F, values only.

    The evaluator maps points (*batch, n), or the chart's order-2 jets at
    them or those jets' ``ValueFrame`` when the caller has built one already,
    to F = J g^{-1} ds + h N there, shape (*batch, dim), from the ValueFrame,
    with no jet matrices.
    """
    pair = source.pair()
    if pair is None:
        raise ValueError("closed-form evaluation needs a scalar pair source")

    def F_fn(x: Union[np.ndarray, ChartJets, ValueFrame]) -> np.ndarray:
        vf = x if isinstance(x, ValueFrame) else ValueFrame(
            x if isinstance(x, ChartJets) else chart_jets(chart, x, order=2))
        cj, batch = vf.cj, vf.batch
        N = vf.N  # the gates of g and the normal ahead of the solve's
        grad = vf.solve(jet_partials([pair.g_fn(cj)], 1, batch, last=True)[0])
        if pair.h_value is not None:
            h = pair.h_value(cj, N)
        else:
            h = jet_partials([pair.h_fn(cj)], 0, batch, last=True)[0]
        F = index_sum(vf.J * grad, 1) + h * N
        return np.ascontiguousarray(F.T).reshape(batch + F.shape[:1])

    return F_fn


# ------------------------------------------------------------ verification


class DeformationCheck:
    """Pointwise residual fields for every claim about F, plus the sign.

    ``fields`` maps the deformation suite's pointwise check names, ``dF``
    through ``kernel_angle``, to residual fields with one entry per sample
    point; ``sign`` is the global orientation factor sign(det Q)
    relating the two Gauss maps and shape operators.
    """

    __slots__ = ("sign", "pair_q_residual", "fields", "frame", "frameF", "cf")

    def __init__(self, sign: int, pair_q_residual: float, fields: Dict[str, np.ndarray],
                 frame: Frame, frameF: Frame, cf: CodazziFrame):
        self.sign, self.pair_q_residual, self.fields = sign, pair_q_residual, fields
        self.frame, self.frameF, self.cf = frame, frameF, cf


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


def wedge_identity_field(
    frame: Frame, cf: CodazziFrame, Atilde: np.ndarray
) -> np.ndarray:
    """max |(Q A~ X)^(Q A~ Y) - (A X)^(A Y)| over basis 2-planes, per point.

    Wedges are taken in g-orthonormal coordinates so the numbers are frame
    independent.
    """
    L = cholesky_spd(frame.g)
    QAt = np.einsum("...km,...mj->...kj", cf.Q, Atilde)
    planes = tuple(combinations(range(frame.n), 2))
    minors = tuple((rows, cols) for rows in planes for cols in planes)

    def wedges(M: np.ndarray) -> np.ndarray:  # every 2x2 minor, (*b, P * P)
        return np.stack(list(minor_dets(lambda r, c: M[..., r, c], minors)), axis=-1)

    M1 = wedges(_ortho_operator(L, QAt))
    M2 = wedges(_ortho_operator(L, frame.A))
    return np.abs(M1 - M2).max(axis=-1)


def kernel_angle_field(frame: Frame, Atilde: np.ndarray) -> np.ndarray:
    """Largest principal angle between ker A and ker A~ per point.

    Raises VerificationError, naming the first such point by its chart
    coordinates, when the numerical ranks (``linalg.RANK_RTOL``) disagree
    anywhere.
    """
    n = frame.n
    r1, V1, _ = svd_rank_kernel(frame.A.reshape(-1, n, n))
    r2, V2, _ = svd_rank_kernel(Atilde.reshape(-1, n, n))
    bad = np.flatnonzero(r1 != r2)
    if bad.size:
        m = bad[0]
        raise VerificationError(
            "kernel dimensions differ at u = "
            f"{','.join(f'{x:.6f}' for x in frame.u.reshape(-1, n)[m])}: "
            f"rank A = {int(r1[m])}, rank deformed A = {int(r2[m])}"
        )
    out = np.empty(len(r1))
    for r in set(r1.tolist()):  # kernels of one rank form a stack
        at = r1 == r
        out[at] = max_principal_angle(V1[at][..., r:], V2[at][..., r:])
    return out.reshape(frame.A.shape[:-2])


def verify_deformation(
    chart: Chart, pts: np.ndarray, source: Source
) -> DeformationCheck:
    """Build F in closed form and check every pointwise claim about it.

    Builds the chart jets at ``Q_CHECK_ORDER`` (each once: the pair's
    ``ChartJets.build_for_pair``), the frame and the Q frame at ``pts`` and
    hands them to ``deformation_check_from_jets``, the per-chunk body the
    deformation suite runs on the jets it shares with the other suites.
    """
    cj = chart_jets(chart, pts, Q_CHECK_ORDER)
    cj.build_for_pair()
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
        pair_q_residual = float(np.abs(cf.Q - values(q_par)).max())
    s, h = pair

    cjF = ChartJets(immersion_jets(cj, s, h), cj.u)
    frameF = frame_from_jets(cjF)

    JQ = np.einsum("...pk,...kj->...pj", frame.J, cf.Q)
    Atilde = frameF.A
    QinvA = np.einsum("...km,...mj->...kj", cf.Q_inv, frame.A)
    # A~ must be self-adjoint for the induced metric and Codazzi for the
    # induced connection; both come straight out of the F frame
    gAt = np.einsum("...ik,...kj->...ij", frameF.g, Atilde)
    fields = {
        "dF": np.abs(frameF.J - JQ).max(axis=(-1, -2)),
        "metric": np.abs(frameF.g - deformed_metric(frame.g, cf.Q)).max(axis=(-1, -2)),
        "shape": np.abs(Atilde - sign * QinvA).max(axis=(-1, -2)),
        "selfadjoint_At": np.abs(gAt - np.swapaxes(gAt, -1, -2)).max(axis=(-1, -2)),
        "codazzi_At": codazzi_A_residual_field(frameF),
        "gauss_congruence": np.abs(frameF.N - sign * frame.N).max(axis=-1),
        "wedge": wedge_identity_field(frame, cf, Atilde),
        "kernel_angle": kernel_angle_field(frame, Atilde),
    }
    return DeformationCheck(
        sign=sign,
        pair_q_residual=pair_q_residual,
        fields=fields,
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
# paths share it; ``_grid_staircase`` fills a sample grid, or a slice of
# it, from one kernel call.  A leg's integral does not depend on the batch
# it runs in: the integrand is evaluated point by point, and each leg is
# accepted on its own test: a slice is one batch-last ``ValueFrame``, whose
# products are sums over matrix indices in index order, with no BLAS.  A
# slice of ``_slice_points(n)`` points holds as many order-2 chart-jet
# coefficients as one ``CHUNK``-point order-4 chunk of the sample pass.


def _slice_points(n: int) -> int:
    """Points per integrand slice on an n-dimensional chart; reads ``CHUNK`` at each call."""
    return CHUNK * comb(n + 4, 4) // comb(n + 2, 2)


def _omega_values(
    chart: Chart, source: Source, pts: np.ndarray
) -> np.ndarray:
    """Values of the 1-form omega = df o Q: shape (*batch, dim, n).

    Values only: one build of order-2 chart jets per slice, whose
    ``ValueFrame`` factors g once for ``source.q_values``, under the same
    gates as the sample pass: on an exactly singular metric they raise
    HypothesisError, as the jet route does.  J Q is moved once.
    """
    cj = chart_jets(chart, pts, order=2)
    vf = ValueFrame(cj)
    omega = index_sum(vf.J[:, :, None] * source.q_values(cj, vf)[None], 1)
    return np.ascontiguousarray(omega.transpose(2, 0, 1)).reshape(pts.shape[:-1] + (-1, cj.n))


def _leg_integrals(covector, starts, steps, tol: float) -> np.ndarray:
    """Integrals of the covector along the legs starts -> starts + steps.

    ``starts`` and ``steps`` are (L, n); returns shape (L, d).  With
    t = start + s step every leg runs over s in [0, 1], its integrand the
    covector contracted with its step, so the batch is one quadrature call
    in which each leg is held to the same absolute ``tol`` and is no longer
    evaluated once it has converged.  The covector is evaluated in slices
    of ``_slice_points(n)`` points to bound memory.
    """
    legs = [starts, steps]
    size = _slice_points(starts.shape[1])

    def fn(s: np.ndarray) -> np.ndarray:
        a, v = legs
        pts = (a + s[:, None, None] * v).reshape(-1, a.shape[1])
        vs = np.broadcast_to(v, (len(s),) + v.shape).reshape(pts.shape)
        return np.concatenate([
            np.einsum("pdn,pn->pd", covector(pts[lo:lo + size]), vs[lo:lo + size])
            for lo in range(0, len(pts), size)
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


def _grid_staircase(covector, axes, start, order, tol: float, fixed) -> np.ndarray:
    """``start`` (d,) plus the covector's integral from the first point of
    the grid with per-axis samples ``axes`` to every grid point: (*res, d).

    Axis by axis, every step of every line through the block already filled
    is one leg; the legs of all axes are one kernel call, and a cumulative
    sum along each axis in turn then chains the steps.  An axis in
    ``fixed`` (axis -> value) is swept first, from its first sample through
    those below the value up to the value, and keeps only that last one.
    """
    n = len(axes)
    axes = list(axes)
    for k, v in fixed.items():
        a = axes[k]
        axes[k] = a[:1] if v == a[0] else np.concatenate([a[:1], a[1:][a[1:] < v], [v]])
    order = [k for k in order if k in fixed] + [k for k in order if k not in fixed]
    blocks, legs = [], []
    for i, ax in enumerate(order):
        line_axes = [a if j in order[:i] else a[:1] for j, a in enumerate(axes)]
        line_axes[ax] = axes[ax][:-1]
        starts = np.stack(np.meshgrid(*line_axes, indexing="ij"), axis=-1)
        steps = np.zeros(starts.shape)
        steps[..., ax] = np.diff(axes[ax]).reshape([-1 if j == ax else 1 for j in range(n)])
        blocks.append(starts.shape[:-1])
        legs.append((starts.reshape(-1, n), steps.reshape(-1, n)))
        axes[ax] = axes[ax][-1:] if ax in fixed else axes[ax]
    seg = _leg_integrals(covector, *(np.concatenate(p) for p in zip(*legs)), tol)
    F = np.reshape(start, (1,) * n + (-1,))
    bounds = np.cumsum([np.prod(b, dtype=int) for b in blocks])[:-1]
    for ax, block, part in zip(order, blocks, np.split(seg, bounds)):
        F = np.cumsum(np.concatenate([F, part.reshape(block + seg.shape[1:])], axis=ax), axis=ax)
        F = F.take([-1], axis=ax) if ax in fixed else F
    return F


def _circulation(covector, corners, tol: float) -> np.ndarray:
    """Clockwise circulation of the covector around each rectangle: (R, d).

    ``corners`` (R, 2, n) holds each rectangle's corners (a0, b0) and
    (a1, b1) in the 2-plane of the two axes a < b in which they differ, at
    the corners' common remaining coordinates.  The loop is the b-first
    staircase minus the a-first one between them; the staircases of every
    rectangle are one ``_staircase`` call, so all loops share one quadrature
    call.  Raises ValueError unless the corners of every rectangle differ
    in exactly two axes.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.ndim != 3 or corners.shape[1] != 2:
        raise ValueError(f"loop corners must have shape (R, 2, n), got {corners.shape}")
    differ = corners[:, 0] != corners[:, 1]
    if np.any(differ.sum(axis=1) != 2):
        raise ValueError("a loop rectangle's two corners must differ in exactly two axes")
    a, b = np.nonzero(differ)[1].reshape(-1, 2).T
    starts, ends = np.concatenate([corners, corners]).transpose(1, 0, 2)
    orders = np.concatenate([np.stack([b, a], axis=1), np.stack([a, b], axis=1)])
    paths = _staircase(covector, starts, ends, orders, tol)
    return paths[:len(corners)] - paths[len(corners):]


def omega_loop_integral(chart: Chart, source: Source, corners) -> np.ndarray:
    """Clockwise circulation of omega around each rectangle of ``corners``
    (R, 2, n), as ``_circulation`` reads them: (R, dim), all in one
    quadrature call."""
    return _circulation(lambda p: _omega_values(chart, source, p), corners, DEFAULT_TOL)


def default_loop_rects(chart: Chart) -> np.ndarray:
    """Corners (R, 2, n) of one spanning rectangle per adjacent axis pair,
    through the center, padded from the box as the sample grid is
    (``GRID_SHRINK``)."""
    rects = []
    center = chart.center()
    for a in range(chart.n - 1):
        lo, hi = center.copy(), center.copy()
        for k in (a, a + 1):
            pad = GRID_SHRINK * (chart.hi[k] - chart.lo[k])
            lo[k], hi[k] = chart.lo[k] + pad, chart.hi[k] - pad
        rects.append((lo, hi))
        # an off-center quarter rectangle as well: symmetric integrands can
        # cancel exactly over the centered spanning rectangle
        rects.append((0.5 * (lo + hi), hi))
    return np.array(rects)


def path_base(chart: Chart) -> np.ndarray:
    """The base point of F's path integrals from a chart: the box corner lo
    moved in by GRID_SHRINK of the box per side, the sample grid's first
    point."""
    lo = np.asarray(chart.lo)
    return lo + GRID_SHRINK * (np.asarray(chart.hi) - lo)


def path_integral_immersion(
    chart: Chart,
    source: Source,
    base: Sequence[float],
    targets: Sequence[float],
    F0: Optional[Sequence[float]] = None,
    axis_order: Optional[Sequence[int]] = None,
    tol: float = DEFAULT_TOL,
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
    axis_order: Optional[Sequence[int]] = None,
    fixed: Optional[Dict[int, float]] = None,
) -> np.ndarray:
    """F on the whole sample grid by shared-prefix staircase integration,
    with F = 0 at the grid's first point, ``path_base``: shape (*res, dim).

    The steps along every axis share one adaptive quadrature call, each
    accepted on its own, and a cumulative sum per axis chains them.
    ``fixed`` (axis -> value, as ``mesh.parse_slice`` gives it) cuts
    a slice, length 1 along each fixed axis, swept first through the grid
    nodes below its value up to the value.  So where omega is not closed,
    F is that of the staircase along the fixed axes, then the free ones.
    """
    order = range(chart.n) if axis_order is None else axis_order
    return _grid_staircase(
        lambda p: _omega_values(chart, source, p),
        grid_axes(chart, res), np.zeros(chart.ambient_dim), order, DEFAULT_TOL, fixed or {},
    )


class FDFrame:
    """First and second order data of a path-integral immersion, by FD.

    Used for operators with no scalar pair, where F exists only through
    quadrature.  Accuracy is limited by the difference step; expect ~1e-9
    on first derivatives and ~1e-6 on second derivatives.
    """

    __slots__ = ("f", "J", "N", "g", "b", "A")

    def __init__(self, f, J, N, g, b, A):
        self.f, self.J, self.N, self.g, self.b, self.A = f, J, N, g, b, A


def fd_second_step() -> float:
    """F's second-difference step, 10 * FD_STEP at the time of the call."""
    return 10 * FD_STEP


def fd_deformed_frame(chart: Chart, source: Source, u: Sequence[float]) -> FDFrame:
    """Finite-difference frames of the staircase-integrated immersion at
    the probe points ``u``: one point (n,), or a batch (..., n) whose frame
    members carry its batch axes in front.

    The Richardson stencils of every probe, at steps FD_STEP and
    ``fd_second_step()``, are integrated from ``path_base`` in one
    ``path_integral_immersion`` call, one quadrature call in which every
    staircase leg is held to ``FD_QUAD_TOL`` on its own.  g and N are gated
    as on the jet route: g's Cholesky gate, then the normal's.
    """
    base = path_base(chart)
    f, J, d2 = fd_stencil(
        chart,
        lambda x: path_integral_immersion(chart, source, base, x, tol=FD_QUAD_TOL),
        u, FD_STEP, fd_second_step(),
    )
    g = gram(J)
    cholesky_spd(g)
    N = unit_normal(J)
    b = np.einsum("...p,...pij->...ij", N, d2)
    return FDFrame(f=f, J=J, N=N, g=g, b=b, A=solve(g, b))


# ------------------------------------------------------------- extraction


def grid_frame(chart: Chart, res) -> Frame:
    """The chart's order-2 frame on the sample grid, with batch shape
    ``res`` (the mesh (*res, n) is its ``u``): what ``extract_gh``,
    ``pair_on_grid`` and ``gauge_fit`` read."""
    mesh = np.stack(np.meshgrid(*grid_axes(chart, res), indexing="ij"), axis=-1)
    return frame_from_jets(chart_jets(chart, mesh, order=2))


def extract_gh(
    chart: Chart, F_fn: Callable[[ChartJets], np.ndarray], frame: Frame
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Recover the scalar pair of an immersion with dF = df o Q on the grid:
    (g, h, closedness), g and h with shape (*res,).

    ``frame`` is the chart's ``grid_frame`` and ``F_fn`` maps the chart's
    order-2 jets at a batch of points, or their ``ValueFrame``, to F there,
    as the evaluator of ``closed_form_immersion`` does.  Reads h = <F, N>
    off F on the grid, checks that the covector field g(Z, .) = J^T F of
    F = df(Z) + h N is closed via rectangle loop integrals (closedness:
    their largest component), and integrates it along staircase paths to
    produce g with g(base corner) = 0.
    """
    h = np.einsum("...p,...p->...", F_fn(frame.jets), frame.N)

    def zeta_at(pts: np.ndarray) -> np.ndarray:
        # g(Z, .) = J^T (F - h N) = J^T F as a one-row field, shape (m, 1, n),
        # summed in index order with the J that F's evaluator read
        vf = ValueFrame(chart_jets(chart, pts, order=2))
        return index_sum(vf.J * F_fn(vf).T[:, None]).T[:, None]

    closed = float(np.abs(_circulation(zeta_at, default_loop_rects(chart), DEFAULT_TOL)).max())
    axes = grid_axes(chart, frame.u.shape[:-1])
    g_grid = _grid_staircase(zeta_at, axes, np.zeros(1), range(chart.n), DEFAULT_TOL, {})
    return g_grid[..., 0], h, closed


def pair_on_grid(pair: GHPairData, frame: Frame) -> Tuple[np.ndarray, np.ndarray]:
    """Sample a pair's (g, h) on the chart's ``grid_frame``, for gauge
    comparison: each with shape (*res,)."""
    cj = frame.jets
    gh = jet_partials(pair_jets(cj, pair), 0, cj.batch_shape)  # a constant is broadcast
    return gh[..., 0], gh[..., 1]


class GaugeFit:
    """Best affine gauge (a, c) matching pair2 = pair1 + gauge."""

    def __init__(self, a: np.ndarray, c: float, residual: float, cond: float):
        self.a, self.c, self.residual, self.cond = a, c, residual, cond


def gauge_design(frame: Frame):
    """What the ``gauge_fit``s on ``frame``'s grid share: the design matrix D,
    its condition number (one SVD) and the Cholesky factor of D^T D."""
    dim = frame.f.shape[-1]
    m = frame.f.size // dim
    D = np.zeros((2 * m, dim + 1))
    D[:m, :dim] = frame.f.reshape(m, dim)
    D[:m, dim] = 1.0
    D[m:, :dim] = frame.N.reshape(m, dim)
    _, s, _ = jacobi_svd(D)
    return D, float(s[0] / s[-1]) if s[-1] > 0 else np.inf, cholesky_spd(D.T @ D)


def gauge_fit(frame: Frame, dg: np.ndarray, dh: np.ndarray, design=None) -> GaugeFit:
    """Least-squares gauge between two sampled pairs on the same grid.

    ``dg`` = g2 - g1 and ``dh`` = h2 - h1 are the pairs' differences on the
    grid of ``frame``, the chart's ``grid_frame``; ``design`` is its
    ``gauge_design`` or None.  Solves the normal equations for (a, c)
    minimizing the joint residual of g2 = g1 + <f, a> + c and
    h2 = h1 + <N, a> over all sample points.
    """
    if not np.shape(dg) == np.shape(dh) == frame.u.shape[:-1]:
        raise ValueError("pairs sampled on different grids")
    D, cond, L = design or gauge_design(frame)
    rhs = np.concatenate([np.reshape(dg, -1), np.reshape(dh, -1)])
    x = cholesky_solve(L, D.T @ rhs)
    residual = float(np.abs(D @ x - rhs).max())
    dim = D.shape[1] - 1
    return GaugeFit(a=x[:dim], c=float(x[dim]), residual=residual, cond=cond)
