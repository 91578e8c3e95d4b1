"""Pointwise geometry of a parametrized hypersurface immersion.

Everything derives from jets of the chart components f_1..f_{n+1}: Jacobian,
unit normal (generalized cross product in coordinate index order), first and
second fundamental forms, shape operator A = g^{-1} b, Christoffel symbols,
curvature tensor, and the covariant derivative of A.  The computation is a
single code path over the jet ring, so a deformed immersion assembled from
jets re-enters the very same pipeline.

Index conventions (0-based everywhere):
    J[p, k]        = d f_p / d u_k          (columns are coordinate tangents)
    g[i, j]        = <d_i f, d_j f>
    b[i, j]        = <d_i d_j f, N>
    A[k, j]        : A e_j = A[:, j],  A = g^{-1} b
    Gamma[k, i, j] = Gamma^k_{ij}
    R[l, k, i, j]  : R(e_i, e_j) e_k = R^l_{kij} e_l
    nablaA[i, k, j]= (nabla_i A)^k_j

Sign convention: the Weingarten identity dN(X) = -J(A X) holds with the
cross-product normal; it is a checked residual, not an assumption.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import expr as exprmod
from . import jet as jetmod
from .errors import HypothesisError, SceneError
from .expr import ExprAst
from .jet import JetScalar, contract, cross_product, d1_values, mat_inv, mat_mul, stack, values
from .linalg import check_cross_norm, cholesky_solve, cholesky_spd, cross_last, index_sum
from .linalg import svd_rank_kernel

GRID_SHRINK = 0.02  # grids sample the open box shrunk by this per side
CHUNK = 1024  # points per sample-pass chunk, bounding memory; integrand slices derive from it
SELF_ADJOINT_TOL = 1e-10
FRAME_READS = ("comps", "jacobian", "normal", "bjet", "ginv", "Ajet", "christoffel")  # all but g
ORACLE_STEP = 1e-5  # difference step of fd_oracle


class Chart:
    """An immersion f: box in R^n -> R^{n+1} with DSL components.

    The components are interned as one row when the chart is built
    (``expr.intern``); ``shared`` is the use count by id of each subtree they
    repeat, so ``chart_jets`` evaluates it once.
    """

    __slots__ = ("n", "components", "lo", "hi", "label", "shared")

    def __init__(self, n: int, components: tuple[ExprAst, ...], lo: tuple[float, ...],
                 hi: tuple[float, ...], label: str = "chart"):
        (self.components,), self.shared = exprmod.intern((components,), n)
        self.n, self.lo, self.hi, self.label = n, lo, hi, label

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    def contains(self, u) -> bool:
        u = np.asarray(u, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(np.all(u >= lo) and np.all(u <= hi))

    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2


def make_chart(component_sources, domain, label="chart") -> Chart:
    """Parse and validate a chart.

    component_sources: n+1 DSL strings (or pre-built ASTs);
    domain: n pairs (lo, hi).  Validation checks the box is nondegenerate,
    and that the chart is defined and its Jacobian has full rank at the box
    center.
    """
    n = len(domain)
    if len(component_sources) != n + 1:
        raise SceneError(
            f"{label}: need {n + 1} components for an n={n} chart, got "
            f"{len(component_sources)}"
        )
    comps = []
    for k, src in enumerate(component_sources):
        if isinstance(src, str):
            try:
                comps.append(exprmod.parse(src, n))
            except exprmod.ExprError as e:
                raise SceneError(f"{label}: component {k + 1}: {e}") from e
        else:
            comps.append(src)
    lo = tuple(float(a) for a, _ in domain)
    hi = tuple(float(b) for _, b in domain)
    for a, b in zip(lo, hi):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise SceneError(f"{label}: bad domain interval ({a}, {b})")
    chart = Chart(n, tuple(comps), lo, hi, label)
    try:
        cj = chart_jets(chart, chart.center(), order=2)
        cj.check_finite()
        vf = ValueFrame(cj)
        cross_last(vf.J)  # the normal's gate, then g's, as frame_from_jets orders them
        vf.L
    except exprmod.ExprError as e:
        raise SceneError(f"{label}: not defined at box center: {e}") from e
    except HypothesisError as e:
        raise SceneError(f"{label}: degenerate at box center: {e}") from e
    return chart


# ---------------------------------------------------------------- jet pipeline


class ChartJets:
    """Lazy jet-level geometric pipeline at a point (or point batch).

    Construct via :func:`chart_jets` for a chart, or directly from the
    component jets, a list or a vector jet (this is how a deformed
    immersion is re-analyzed through the same code path).  Every quantity
    is one jet tensor (``jet.JetScalar`` with tensor axes): ``comps`` (n+1),
    J (n+1, n), the normal (n+1), g, g^{-1}, b and A (n, n), the
    Christoffel symbols (n, n, n), a scalar's gradient (n) and Hessian
    operator (n, n).

    ``jacobian``, ``normal``, ``metric``, ``ginv`` and ``christoffel``
    build at the order asked for, or read the truncation of a higher
    build.  The frame and A read J, the normal, g and g^{-1} at K-2 (the
    normal and g at least 1), and Gamma one order below g, since its build
    reads g one order higher and g^{-1} at its own order; R reads Gamma at
    1, a scalar's Hessian at K-2, and a scalar pair's h, ``immersion_jets``
    and ``scalar_grad_jets`` of a full-order scalar read J, the normal and
    g^{-1} (``Jjet``, ``Njet``, ``ginv_jet``), and so g, at K-1.  A build,
    ``comps`` among them, lives until ``release``: ``frame_from_jets``
    releases each it reads after its last read there, unless told to keep it.
    """

    def __init__(self, comps, u: np.ndarray):
        self.comps = comps if isinstance(comps, JetScalar) else stack(comps)
        self.u = np.asarray(u, dtype=float)
        self.n = self.u.shape[-1]
        self.batch_shape = self.u.shape[:-1]
        if self.comps.shape != (self.n + 1,):
            raise ValueError(
                f"need {self.n + 1} component jets, got shape {self.comps.shape}"
            )
        self.order = self.comps.order
        self._built = {}  # quantity -> (order, jets) of its highest build

    def _memo(self, name, order, build):
        """``build(order)`` kept at the highest order built: a lower order is
        its truncation; a higher one drops the old build, then builds."""
        if self._built.get(name, (-1,))[0] < order:
            self._built.pop(name, None)
            self._built[name] = (order, build(order))
        return self._built[name][1].truncated(order)

    def release(self, *names):
        """Drop the builds ``names``: a later read builds one again, or fails for ``comps``."""
        for name in names:
            self._built.pop(name, None)
            self.__dict__.pop(name, None)

    def check_finite(self):
        """The frame's first gate: f and J are finite at every point."""
        if not (np.isfinite(self.comps.value).all() and np.isfinite(self.comps.d1).all()):
            raise HypothesisError("non-finite immersion values or Jacobian")

    def build_for_pair(self):
        """``check_finite``, then the normal and g^{-1} at K-1 and Gamma at K-2,
        which a scalar pair reads; a frame built next reads their truncations."""
        self.check_finite()
        self.normal(self.order - 1), self.ginv(self.order - 1), self.christoffel(self.order - 2)

    def jacobian(self, order):
        """Jets of J at ``order`` (at most K-1)."""
        return self._memo("jacobian", order, lambda o: self.comps.truncated(o + 1).grad())

    Jjet = property(lambda self: self.jacobian(self.order - 1))

    def normal(self, order):
        """Unit normal jets at ``order`` (at most K-1)."""
        return self._memo("normal", order, self._normal)

    def _normal(self, order):
        J = self.jacobian(order)
        cross = cross_product(lambda r, c: J[r, c], self.n)
        normsq = contract(zip(cross, cross))
        check_cross_norm(np.sqrt(np.asarray(normsq.value)), J.value)
        rnorm = jetmod.recip(jetmod.sqrt(normsq))
        return stack(cross) * rnorm

    Njet = property(lambda self: self.normal(self.order - 1))

    def metric(self, order):
        """Jets of g at ``order`` (at most K-1)."""
        return self._memo("metric", order, self._metric)

    def _metric(self, order):
        J = self.jacobian(order)
        return _symmetric(lambda i, j: contract(zip(J[:, i], J[:, j])), self.n)

    def ginv(self, order):
        """Jets of g^{-1} at ``order`` (at most K-1)."""
        return self._memo("ginv", order, self._ginv)

    def _ginv(self, order):
        def gate(det):
            if np.any(np.asarray(det.value) <= 0):
                raise HypothesisError(f"det g = {np.min(det.value):.3e} <= 0")

        return mat_inv(self.metric(order), gate)[0]

    ginv_jet = property(lambda self: self.ginv(self.order - 1))

    @cached_property
    def bjet(self):
        # b_ij = <d_j d_i f, N>; the second derivatives are read here only,
        # so they are built per entry and not kept
        f, N = self.comps, self.normal(self.order - 2)
        return _symmetric(
            lambda i, j: contract((fp.diff(i).diff(j), Np) for fp, Np in zip(f, N)), self.n
        )

    @cached_property
    def Ajet(self):
        return mat_mul(self.ginv(self.order - 2), self.bjet)

    def christoffel(self, order):
        """Christoffel symbol jets at ``order`` (at most K-2)."""
        return self._memo("christoffel", order, self._christoffel)

    def _christoffel(self, order):
        return christoffel_jets(self.metric(order + 1), self.ginv(order))

    def scalar_grad_jets(self, s: JetScalar):
        """Contravariant gradient of a scalar jet.

        Entries have order min(K, order of s) - 1, so scalars built at a
        lower order than the chart jets still work; pass ``s.truncated(1)``
        when only the gradient's values are read.
        """
        out = min(self.order, s.space.order) - 1
        return contract(zip(self.ginv(out).T, s.grad().truncated(out)))

    def scalar_hess_jets(self, s: JetScalar):
        """Hessian operator (nabla grad s as a (1,1) tensor), order K-2."""
        K = self.order
        ds = s.grad()
        G = self.christoffel(K - 2)
        # T_il = d_i d_l s - Gamma^m_il d_m s, and H^k_i = g^kl T_il
        T = ds.grad()
        for m, dm in enumerate(ds.truncated(K - 2)):
            T = T - G[m] * dm
        return mat_mul(self.ginv(K - 2), T.T)


def _symmetric(entry, n: int) -> JetScalar:
    """The tensor whose last two axes (n, n) hold the jet ``entry(i, j)`` at
    (i, j) and (j, i), for i <= j: symmetric bit for bit.  The entries, of
    one shape, are written as they come, and so are their patterns."""
    out, patterns = None, []
    for i, j in zip(*np.triu_indices(n)):
        e = entry(i, j)
        if out is None:
            d = e.ndim
            out = np.empty(e.coef.shape[:d] + (n, n) + e.coef.shape[d:])
        out[(slice(None),) * d + (i, j)] = out[(slice(None),) * d + (j, i)] = e.coef
        patterns += [((..., i, j), e.nz), ((..., j, i), e.nz)]
    return JetScalar(e.space, out, d + 2, jetmod._patterned(patterns, e.shape + (n, n)))


def christoffel_jets(gjet, ginv):
    """Gamma^k_{ij} = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), as jets
    one order below the metric jets; ``ginv`` is g^{-1} at that order.
    Shared by the base metric and any deformed metric."""
    n = gjet.shape[0]
    iu, ju = np.triu_indices(n)
    dg = gjet[iu, ju].grad()  # dg[table[i, j], l] = d_l g_ij
    table = np.empty((n, n), dtype=np.intp)  # the place of the pair i <= j
    table[iu, ju] = table[ju, iu] = np.arange(len(iu))

    def column(i, j):  # Gamma^k_ij for every k
        G = contract(
            (ginv[:, l], dg[table[j, l], i] + dg[table[i, l], j] - dg[table[i, j], l])
            for l in range(n)
        )
        G.coef *= 0.5
        return G

    return _symmetric(column, n)


def curvature_values(Gamma_jets) -> np.ndarray:
    """R[..., l, k, p] = R^l_{kij} from Christoffel jets of order >= 1, for (i, j)
    = ``np.triu_indices(n, 1)``[:, p]: R is antisymmetric in (i, j) by construction."""
    iu, ju = np.triu_indices(Gamma_jets.shape[0], 1)
    Gv = values(Gamma_jets)  # (*b, k, i, j)
    # d_i Gamma^l_jk - d_j Gamma^l_ik, from dG[..., k, i, j, m] = d_m Gamma^k_ij
    dG = np.einsum("...ljki->...lkij", d1_values(Gamma_jets))
    term1 = dG[..., iu, ju] - dG[..., ju, iu]
    del dG  # freed before the products, which are formed and added in place
    # Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    Gi, Gj = Gv[..., iu, :], Gv[..., ju, :]
    term2 = np.einsum("...lpm,...mpk->...lkp", Gi, Gj)
    term2 -= np.einsum("...lpm,...mpk->...lkp", Gj, Gi)
    return np.add(term1, term2, out=term1)


# ---------------------------------------------------------------- frames


class Frame:
    """Numeric first/second-order data at a point or batch of points.

    Batch axes (if any) lead; tensor indices trail: f and N (*b, n+1), J and
    dN (*b, n+1, n), d2f (*b, n+1, n, n), g, g_inv, b and A (*b, n, n), Gamma
    (*b, k, i, j) and nablaA (*b, i, k, j), which is None when the jet order
    was 2.  ``jets`` are the chart jets the frame was read from; R is built
    from them when first read, or by ``frame_from_jets`` before it frees Gamma's.
    """

    def __init__(self, u, order, f, J, d2f, N, dN, g, g_inv, b, A, Gamma, nablaA, jets):
        self.u, self.order, self.f, self.J, self.d2f, self.N, self.dN = u, order, f, J, d2f, N, dN
        self.g, self.g_inv, self.b, self.A, self.Gamma = g, g_inv, b, A, Gamma
        self.nablaA, self.jets = nablaA, jets

    @property
    def n(self) -> int:
        return self.J.shape[-1]

    @cached_property
    def R(self) -> np.ndarray | None:
        """R (*b, l, k, p) on the pairs p of ``curvature_values``, or None when
        the jet order was 2.  It reads Gamma at order 1, and so g at order 2,
        which only the curvature checks need: below jet order 4 they are built
        when R is first read."""
        return curvature_values(self.jets.christoffel(1)) if self.order >= 3 else None


def frame_from_jets(cj: ChartJets, keep=FRAME_READS, curvature=True) -> Frame:
    """Extract the numeric frame from the jet pipeline, with validity checks.

    ``keep`` names the builds the caller reads later, by default all that the
    frame reads; it releases each other one after its last read here, and
    Gamma's after building R unless ``curvature`` says that no one reads R."""

    last_read = lambda *names: cj.release(*(name for name in names if name not in keep))

    if cj.order < 2:
        raise ValueError(f"jet order {cj.order} < 2 cannot produce a frame")
    cj.check_finite()
    f, J, d2f = (jet_partials(cj.comps, k, cj.batch_shape) for k in (0, 1, 2))
    Nj = cj.normal(max(cj.order - 2, 1))  # dN needs order 1
    N, dN = values(Nj), d1_values(Nj)
    # g is read at K-2, at least 1 for Gamma, built at the order g affords
    go = max(cj.order - 3, 0)
    g = values(cj.metric(go + 1))
    last_read("jacobian")
    b = values(cj.bjet)
    last_read("comps", "normal")
    g_inv = values(cj.ginv(cj.order - 2))
    A = values(cj.Ajet)
    last_read("bjet")
    cholesky_spd(g)  # raises HypothesisError when g is not positive definite
    gA = np.einsum("...ij,...jk->...ik", g, A)
    scale = np.maximum(1.0, np.abs(gA).max())
    if np.abs(gA - gA.swapaxes(-1, -2)).max() > SELF_ADJOINT_TOL * scale:
        raise HypothesisError("shape operator lost g-self-adjointness")
    Gamma = values(cj.christoffel(go))
    last_read("ginv")
    nablaA = None
    if cj.order >= 3:
        dA = d1_values(cj.Ajet)  # (*b, k, j, i) = d_i A^k_j
        nablaA = (
            np.einsum("...kji->...ikj", dA)
            + np.einsum("...kil,...lj->...ikj", Gamma, A)
            - np.einsum("...lij,...kl->...ikj", Gamma, A)
        )
    frame = Frame(
        u=cj.u, order=cj.order, f=f, J=J, d2f=d2f, N=N, dN=dN,
        g=g, g_inv=g_inv, b=b, A=A, Gamma=Gamma, nablaA=nablaA, jets=cj,
    )
    if cj.order >= 4 and curvature and "christoffel" not in keep:
        frame.R  # the last read of Gamma's jets
    last_read("Ajet", "christoffel")
    return frame


# ---------------------------------------------------------------- values only


def jet_partials(jets, k: int, batch_shape, last: bool = False) -> np.ndarray:
    """Order-k partials of a vector jet, or of a list of scalar jets taken as
    one: floats (*batch_shape, len(jets), n, ...); with ``last`` (len(jets), n, ..., S).

    k is 0 (values), 1 or 2, read off the coefficients with no jet arithmetic.
    A jet that is constant over the batch has batch axes of length 1; they
    are broadcast to ``batch_shape``.
    """
    if not isinstance(jets, JetScalar):
        jets = stack([j.truncated(k) for j in jets])
    d = jets.value if k == 0 else jets.d1 if k == 1 else jets.d2()
    d = np.broadcast_to(d, d.shape[: k + 1] + tuple(batch_shape))
    if last:
        return d.reshape(d.shape[: k + 1] + (-1,))
    return np.moveaxis(np.ascontiguousarray(d), range(k + 1), range(-k - 1, 0))


class ValueFrame:
    """Floats batch-last at the S points of chart jets ``cj``: J (n+1, n, S), g = J^T J
    summed in index order and, when read, d2f, g's Cholesky factor L, N and A =
    g^{-1} N.d2f, under the jet route's gates; ``solve`` substitutes with L."""

    def __init__(self, cj: ChartJets):
        self.cj, self.batch = cj, cj.batch_shape
        self.J = jet_partials(cj.comps, 1, self.batch, last=True)
        self.g = index_sum(self.J[:, :, None] * self.J[:, None])

    L = cached_property(lambda self: cholesky_spd(self.g, last=True))
    d2f = cached_property(lambda self: jet_partials(self.cj.comps, 2, self.batch, last=True))
    A = cached_property(lambda self: self.solve(index_sum(self.N[:, None, None] * self.d2f)))

    @cached_property
    def N(self) -> np.ndarray:
        self.L  # g's gate speaks before the normal's
        v, norm = cross_last(self.J)
        return np.stack(v) / norm

    def solve(self, B: np.ndarray) -> np.ndarray:  # B (n, S) or (n, k, S)
        return cholesky_solve(self.L, B, self.batch)


def chart_jets(chart: Chart, u, order: int = 3) -> ChartJets:
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != chart.n:
        raise SceneError(f"point dimension {u.shape[-1]} != chart n={chart.n}")
    if order not in (2, 3, 4):
        raise ValueError(f"jet order must be 2, 3 or 4, got {order}")
    lo = np.asarray(chart.lo)
    hi = np.asarray(chart.hi)
    if np.any(u < lo) or np.any(u > hi):
        bad = np.argwhere((u < lo) | (u > hi))
        raise SceneError(
            f"point outside domain of {chart.label}: first offender index "
            f"{tuple(bad[0])}"
        )
    return ChartJets(exprmod.eval_jets(chart.components, u, order, chart.shared), u)


def frame_at(chart: Chart, u, order: int = 3) -> Frame:
    """Full geometric frame at a single point or batch of points."""
    return frame_from_jets(chart_jets(chart, u, order))


# ---------------------------------------------------------------- residuals
#
# Each residual field returns one value per batch point; callers reduce it
# with max so a single number certifies the whole sample.


def weingarten_residual_field(frame: Frame) -> np.ndarray:
    """max_i | d_i N + J (A e_i) | (ambient Euclidean norm)."""
    JA = np.einsum("...pk,...ki->...pi", frame.J, frame.A)
    diff = frame.dN + JA
    return np.sqrt(np.einsum("...pi,...pi->...i", diff, diff)).max(axis=-1)


def gauss_residual_field(frame: Frame) -> np.ndarray:
    """Gauss equation: R(e_i,e_j)e_k = <Ae_j,e_k> Ae_i - <Ae_i,e_k> Ae_j,
    residual in the g-norm, maxed over k and the pairs i < j that R holds."""
    if frame.R is None:
        raise ValueError("curvature needs jet order >= 3")
    iu, ju = np.triu_indices(frame.n, 1)
    gA = np.einsum("...ij,...jk->...ik", frame.g, frame.A)[..., None, :, :]  # (*b, 1, k, j)
    diff = frame.R - (gA[..., ju] * frame.A[..., None, iu] - gA[..., iu] * frame.A[..., None, ju])
    norms = np.sqrt(np.abs(np.einsum("...lkp,...lm,...mkp->...kp", diff, frame.g, diff)))
    return norms.max(axis=(-1, -2))


def codazzi_A_residual_field(frame: Frame) -> np.ndarray:
    """| (nabla_i A) e_j - (nabla_j A) e_i |_g maxed over i,j."""
    if frame.nablaA is None:
        raise ValueError("nabla A needs jet order >= 3")
    D = frame.nablaA - np.einsum("...ikj->...jki", frame.nablaA)
    norms = np.sqrt(np.abs(np.einsum("...ikj,...kl,...ilj->...ij", D, frame.g, D)))
    return norms.max(axis=(-1, -2))


def metric_compat_residual_field(frame: Frame) -> np.ndarray:
    """nabla g = 0: d_l g_ij - Gamma^k_li g_kj - Gamma^k_lj g_ik."""
    # d_l g_ij = sum_p (d2f[p,l,i] J[p,j] + J[p,i] d2f[p,l,j])
    dg = np.einsum("...pli,...pj->...ijl", frame.d2f, frame.J) + np.einsum(
        "...pi,...plj->...ijl", frame.J, frame.d2f
    )
    corr = np.einsum("...kli,...kj->...ijl", frame.Gamma, frame.g) + np.einsum(
        "...klj,...ik->...ijl", frame.Gamma, frame.g
    )
    return np.abs(dg - corr).max(axis=(-1, -2, -3))


def bianchi_first_residual_field(frame: Frame) -> np.ndarray:
    """R^l_{kij} + R^l_{ijk} + R^l_{jki} = 0, on R unpacked from its pairs
    (R^l_{kji} = -R^l_{kij}, R^l_{kii} = 0) with the batch last, R's memory order."""
    if frame.R is None:
        raise ValueError("curvature needs jet order >= 3")
    n, P, nb = frame.n, frame.R.shape[-1], frame.R.ndim - 3
    iu, ju = np.triu_indices(n, 1)
    at = np.full((n, n), 2 * P)  # R^l_kii reads the zero appended
    at[iu, ju], at[ju, iu] = np.arange(P), np.arange(P, 2 * P)
    R = np.moveaxis(frame.R, range(nb), range(-nb, 0))
    R = np.concatenate([R, -R, np.zeros_like(R[:, :, :1])], 2)[:, :, at]
    cyc = R + np.einsum("lkij...->ljki...", R) + np.einsum("lkij...->lijk...", R)
    return np.abs(cyc).max(axis=(0, 1, 2, 3))


def gauss_formula_residual_field(frame: Frame) -> np.ndarray:
    """Ambient Gauss formula: d_i d_j f = Gamma^k_ij d_k f + b_ij N."""
    rhs = np.einsum("...kij,...pk->...pij", frame.Gamma, frame.J) + np.einsum(
        "...ij,...p->...pij", frame.b, frame.N
    )
    return np.abs(frame.d2f - rhs).max(axis=(-1, -2, -3))


# ---------------------------------------------------------------- utilities


def rank_A_field(frame: Frame) -> np.ndarray:
    """Pointwise numerical rank of the shape operator (``linalg.RANK_RTOL``)."""
    return svd_rank_kernel(frame.A)[0]


def stencil_fits(chart: Chart, u, h2: float):
    """Per point of u (..., n): whether it sits at least 2*h2 inside the
    chart box, as ``fd_stencil`` with second-derivative step h2 needs."""
    lo, hi = np.asarray(chart.lo), np.asarray(chart.hi)
    return np.all((u - lo >= 2 * h2) & (hi - u >= 2 * h2), axis=-1)


def fd_stencil(chart: Chart, F, u, step: float, h2: float):
    """Richardson central differences (F(u), dF, d2F) at the centres u
    (..., n): shapes (..., d), (..., d, n) and (..., d, n, n).

    F maps points (m, n) to values (m, d) and is called once, on every
    stencil point of every centre.  First derivatives combine the steps
    ``step`` and ``step/2``, second derivatives ``h2`` and ``h2/2``; every
    centre must sit at least 2*h2 inside the chart box.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(stencil_fits(chart, u, h2)):
        raise SceneError(
            f"point too close to the boundary: the stencil needs {2 * h2:g} of clearance"
        )
    n = u.shape[-1]
    # stencil point k of every centre is the centre moved by moves[k]
    moves = {(): 0}
    for i in range(n):
        for h in (step, step / 2, h2, h2 / 2):
            for s in (h, -h):
                moves.setdefault(((i, s),), len(moves))
        for j in range(i + 1, n):
            for h in (h2, h2 / 2):
                for s, t in ((h, h), (h, -h), (-h, h), (-h, -h)):
                    moves.setdefault(((i, s), (j, t)), len(moves))
    X = np.repeat(u[..., None, :], len(moves), axis=-2)
    for move, k in moves.items():
        for i, h in move:
            X[..., k, i] += h
    V = F(X.reshape(-1, n))
    V = V.reshape(u.shape[:-1] + (len(moves), V.shape[-1]))

    def at(*move):
        return V[..., moves[move], :]

    def richardson(diff, h):
        return (4 * diff(h / 2) - diff(h)) / 3

    f = at()
    J = np.empty(f.shape + (n,))
    d2 = np.empty(f.shape + (n, n))
    for i in range(n):
        J[..., i] = richardson(lambda h: (at((i, h)) - at((i, -h))) / (2 * h), step)
        d2[..., i, i] = richardson(
            lambda h: (at((i, h)) - 2 * f + at((i, -h))) / h**2, h2
        )
        for j in range(i + 1, n):
            d2[..., i, j] = d2[..., j, i] = richardson(
                lambda h: (
                    at((i, h), (j, h)) - at((i, h), (j, -h))
                    - at((i, -h), (j, h)) + at((i, -h), (j, -h))
                ) / (4 * h**2),
                h2,
            )
    return f, J, d2


def fd_oracle(chart: Chart, u):
    """Finite-difference values (f, J, d2f) at the points u (..., n).

    ``fd_stencil`` over the value-only expression path (independent of the
    jet machinery), one ``eval_values`` call for the whole stencil, at step
    ORACLE_STEP.  Second derivatives use 100 * ORACLE_STEP to keep
    cancellation noise well under the comparison tolerances, so every point
    must sit at least 200 * ORACLE_STEP inside the domain.
    """

    def fval(x):
        vals = exprmod.eval_values(chart.components, x, chart.shared)
        return np.stack([np.broadcast_to(v, len(x)) for v in vals], axis=-1)

    return fd_stencil(chart, fval, u, ORACLE_STEP, 100 * ORACLE_STEP)


def grid_axes(chart: Chart, res) -> list[np.ndarray]:
    """Per-axis sample positions: the open box shrunk by 2% per side."""
    if np.isscalar(res):
        res = [int(res)] * chart.n
    if len(res) != chart.n or any(r < 2 for r in res):
        raise ValueError(f"bad grid resolution {res} for n={chart.n}")
    axes = []
    for k in range(chart.n):
        lo, hi = chart.lo[k], chart.hi[k]
        pad = GRID_SHRINK * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, int(res[k])))
    return axes


def grid_points(chart: Chart, res) -> np.ndarray:
    """Sample grid flattened to (m, n), first axis varying slowest."""
    axes = grid_axes(chart, res)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)
