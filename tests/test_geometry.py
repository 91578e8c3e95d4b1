"""Frame pipeline tests against hand-derived closed forms and FD oracles."""

import numpy as np
import pytest

from isodeform import catalog, codazzi, expr as exprmod, geometry, jet
from isodeform.geometry import (
    ChartError,
    DomainError,
    chart_jets,
    decompose_ambient,
    fd_oracle,
    frame_at,
    grid_axes,
    grid_points,
    make_chart,
    rank_A_field,
)
from isodeform.geometry import _trunc_mat
from isodeform.jet import mat_inv, values
from isodeform.linalg import NotSPDError, svd_rank_kernel


# ------------------------------------------------------------ closed forms
#
# Oracle values below are classical formulas worked out by hand for the
# catalog parametrizations, not outputs of the code under test.


def test_sphere_metric_normal_shape():
    # round sphere radius 2 in iterated polar coordinates:
    #   g = diag(r^2, r^2 sin^2 u1, r^2 sin^2 u1 sin^2 u2)
    #   N = f / r (outward),  A = -(1/r) Id
    r = 2.0
    u = np.array([0.7, 0.8, 0.9])
    fr = frame_at(catalog.sphere3(r), u)
    s1, s2 = np.sin(u[0]), np.sin(u[1])
    g_exact = np.diag([r**2, r**2 * s1**2, r**2 * s1**2 * s2**2])
    assert np.allclose(fr.g, g_exact, atol=1e-12)
    assert np.allclose(fr.N, fr.f / r, atol=1e-12)
    assert np.allclose(fr.A, -np.eye(3) / r, atol=1e-12)
    assert np.allclose(fr.b, -fr.g / r, atol=1e-12)


def test_sphere_curvature_tensor():
    # constant curvature c = 1/r^2:  R^l_kij = c (g_jk d^l_i - g_ik d^l_j)
    r = 2.0
    fr = frame_at(catalog.sphere3(r), [0.6, 0.9, 1.0])
    eye = np.eye(3)
    R_exact = (
        np.einsum("jk,li->lkij", fr.g, eye) - np.einsum("ik,lj->lkij", fr.g, eye)
    ) / r**2
    assert np.abs(fr.R - R_exact).max() < 1e-12


def test_torus_principal_curvatures():
    # outward normal torus: kappa = -cos u2 / (R + r cos u2) and -1/r,
    # g = diag((R + r cos u2)^2, r^2)
    R, r = 2.0, 0.5
    u = np.array([1.0, 1.2])
    fr = frame_at(catalog.torus2(R, r), u)
    w = R + r * np.cos(u[1])
    assert np.allclose(fr.g, np.diag([w**2, r**2]), atol=1e-12)
    kappas = np.sort(np.linalg.eigvals(fr.A).real)
    assert np.allclose(kappas, sorted([-np.cos(u[1]) / w, -1 / r]), atol=1e-12)


def test_graph_frame_closed_form():
    # Monge graph (u, phi(u)): g = I + dphi dphi^T, N = (dphi, -1)/w,
    # b = -Hess(phi)/w with w = sqrt(1 + |dphi|^2)
    ch = catalog.graph3()
    u = np.array([0.2, -0.1, 0.3])
    fr = frame_at(ch, u)
    dphi = 2.0 * np.array([u[0], 2 * u[1], 3 * u[2]])
    hess = 2.0 * np.diag([1.0, 2.0, 3.0])
    w = np.sqrt(1 + dphi @ dphi)
    assert np.allclose(fr.g, np.eye(3) + np.outer(dphi, dphi), atol=1e-12)
    assert np.allclose(fr.N, np.append(dphi, -1.0) / w, atol=1e-12)
    assert np.allclose(fr.b, -hess / w, atol=1e-12)
    assert np.allclose(fr.A, np.linalg.solve(fr.g, fr.b), atol=1e-12)


def test_graph_center_frame():
    fr = frame_at(catalog.graph3(), [0.0, 0.0, 0.0])
    assert np.allclose(fr.g, np.eye(3), atol=1e-15)
    assert np.allclose(fr.N, [0, 0, 0, -1], atol=1e-15)
    assert np.allclose(fr.A, -np.diag([2.0, 4.0, 6.0]), atol=1e-15)
    assert np.abs(fr.Gamma).max() < 1e-15


# ------------------------------------------------------- FD oracle checks


CHART_POINTS = [
    (catalog.sphere3(2.0), [0.7, 0.8, 0.9]),
    (catalog.torus2(), [1.0, 1.2]),
    (catalog.graph3(), [0.2, -0.1, 0.3]),
    (catalog.ellipsoid3(), [0.5, 0.95, 0.62]),
    (catalog.sphcyl4(), [0.7, 0.8, 0.9, 0.1]),
]


@pytest.mark.parametrize(
    "chart,u", CHART_POINTS, ids=[c.label for c, _ in CHART_POINTS]
)
def test_frame_matches_fd(chart, u):
    fr = frame_at(chart, u)
    f, J, d2f = fd_oracle(chart, np.asarray(u, dtype=float))
    assert np.allclose(fr.f, f, atol=1e-14)
    assert np.abs(fr.J - J).max() < 1e-9
    assert np.abs(fr.d2f - d2f).max() < 1e-7
    # derived quantities against the FD route
    assert np.abs(fr.g - J.T @ J).max() < 1e-8
    assert np.abs(fr.b - np.einsum("p,pij->ij", fr.N, d2f)).max() < 1e-7


@pytest.mark.parametrize(
    "chart,u", CHART_POINTS, ids=[c.label for c, _ in CHART_POINTS]
)
def test_christoffel_matches_fd_of_metric(chart, u):
    u = np.asarray(u, dtype=float)
    fr = frame_at(chart, u)
    n = chart.n
    h = 1e-4
    dg = np.empty((n, n, n))  # dg[k] = d_k g
    for k in range(n):
        def gat(x):
            return frame_at(chart, x, order=2).g

        up, um = u.copy(), u.copy()
        up[k] += h
        um[k] -= h
        c1 = (gat(up) - gat(um)) / (2 * h)
        up, um = u.copy(), u.copy()
        up[k] += h / 2
        um[k] -= h / 2
        c2 = (gat(up) - gat(um)) / h
        dg[k] = (4 * c2 - c1) / 3
    # Koszul: Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2
    koszul = dg + dg.transpose(1, 0, 2) - np.einsum("lij->ijl", dg)
    Gamma_fd = 0.5 * np.einsum("kl,ijl->kij", fr.g_inv, koszul)
    assert np.abs(fr.Gamma - Gamma_fd).max() < 1e-7


# -------------------------------------------------- structural identities


GRID_CHARTS = [
    catalog.sphere3(1.3),
    catalog.torus2(),
    catalog.graph3(),
    catalog.ellipsoid3(),
]


@pytest.mark.parametrize("chart", GRID_CHARTS, ids=[c.label for c in GRID_CHARTS])
def test_residual_fields_on_grid(chart):
    pts = grid_points(chart, 4)
    fr = frame_at(chart, pts)
    assert geometry.weingarten_residual_field(fr).max() < 1e-9
    assert geometry.gauss_residual_field(fr).max() < 1e-9
    assert geometry.codazzi_A_residual_field(fr).max() < 1e-9
    assert geometry.metric_compat_residual_field(fr).max() < 1e-9
    assert geometry.bianchi_first_residual_field(fr).max() < 1e-9
    assert geometry.gauss_formula_residual_field(fr).max() < 1e-9


def test_decompose_ambient_roundtrip():
    rng = np.random.default_rng(7)
    fr = frame_at(catalog.ellipsoid3(), [0.5, 0.95, 0.62])
    Z = rng.standard_normal(3)
    h = 0.37
    vec = fr.J @ Z + h * fr.N
    Z2, h2 = decompose_ambient(fr, vec)
    assert np.allclose(Z2, Z, atol=1e-12)
    assert abs(h2 - h) < 1e-12


def test_decompose_ambient_batched():
    ch = catalog.sphere3(2.0)
    pts = grid_points(ch, 3)
    fr = frame_at(ch, pts)
    Z, h = decompose_ambient(fr, fr.N)
    assert np.abs(Z).max() < 1e-12
    assert np.allclose(h, 1.0, atol=1e-12)


def _scalar_grad_hess(chart, u, s_ast):
    """Contravariant gradient and Hessian operator of a scalar DSL field at
    one point, from order-3 chart jets."""
    cj = chart_jets(chart, u, 3)
    s = exprmod.eval_jet(s_ast, cj.u, 3)
    return values(cj.scalar_grad_jets(s)), values(cj.scalar_hess_jets(s))


def test_scalar_grad_hess_vs_hand_derivatives():
    ch = catalog.graph3()
    u = np.array([0.2, -0.1, 0.3])
    s_ast = exprmod.parse("u1^2*u2 + 0.3*u3", 3)
    grad, hess = _scalar_grad_hess(ch, u, s_ast)
    fr = frame_at(ch, u)
    ds = np.array([2 * u[0] * u[1], u[0] ** 2, 0.3])
    dds = np.array([[2 * u[1], 2 * u[0], 0], [2 * u[0], 0, 0], [0, 0, 0.0]])
    assert np.allclose(grad, fr.g_inv @ ds, atol=1e-12)
    hess_exact = fr.g_inv @ (dds - np.einsum("mlj,m->lj", fr.Gamma, ds))
    assert np.abs(hess - hess_exact).max() < 1e-11


@pytest.mark.parametrize(
    "chart,u",
    [(catalog.sphere3(2.0), [0.7, 0.8, 0.9]), (catalog.graph3(), [0.2, -0.1, 0.3])],
    ids=["sphere3", "graph3"],
)
def test_position_hessian_identity(chart, u):
    # Hess(|f|^2 / 2) = Id + <f, N> A for any immersed hypersurface
    s_sum = None
    for c in chart.components:
        term = exprmod.mul(c, c)
        s_sum = term if s_sum is None else exprmod.add(s_sum, term)
    s_ast = exprmod.mul(exprmod.num(0.5), s_sum)
    grad, hess = _scalar_grad_hess(chart, u, s_ast)
    fr = frame_at(chart, np.asarray(u, dtype=float))
    Zf, hf = decompose_ambient(fr, fr.f)
    assert np.allclose(grad, Zf, atol=1e-11)
    assert np.abs(hess - (np.eye(chart.n) + hf * fr.A)).max() < 1e-10


# ----------------------------------------------------------- rank and grids


def test_rank_plane_is_zero():
    fr = frame_at(catalog.plane2(), grid_points(catalog.plane2(), 3))
    assert np.all(rank_A_field(fr) == 0)


def test_rank_sphere_full():
    ch = catalog.sphere3(2.0)
    fr = frame_at(ch, grid_points(ch, 3))
    assert np.all(rank_A_field(fr) == 3)


def test_rank_cylinder_kernel_is_axis():
    ch = catalog.sphcyl4()
    fr = frame_at(ch, [0.7, 0.8, 0.9, 0.1])
    rank, kernel, _ = svd_rank_kernel(fr.A)
    assert rank == 3
    assert kernel.shape == (4, 1)
    assert np.allclose(np.abs(kernel[:, 0]), [0, 0, 0, 1], atol=1e-12)


def test_grid_axes_shrink_and_shape():
    ch = catalog.graph3()
    axes = grid_axes(ch, 5)
    assert len(axes) == 3
    for ax in axes:
        assert ax[0] == pytest.approx(-0.5 + 0.02)
        assert ax[-1] == pytest.approx(0.5 - 0.02)
        assert len(ax) == 5
    axes234 = grid_axes(ch, [2, 3, 4])
    pts = grid_points(ch, [2, 3, 4])
    assert pts.shape == (24, 3)
    # first axis varies slowest
    assert np.all(pts[:12, 0] == axes234[0][0])
    assert np.all(pts[12:, 0] == axes234[0][1])


def test_batched_frame_matches_pointwise():
    ch = catalog.torus2()
    pts = grid_points(ch, 3)
    fr = frame_at(ch, pts)
    for m in (0, 4, 8):
        single = frame_at(ch, pts[m])
        assert np.abs(fr.g[m] - single.g).max() < 1e-14
        assert np.abs(fr.A[m] - single.A).max() < 1e-14
        assert np.abs(fr.R[m] - single.R).max() < 1e-14


# ------------------------------------------------------------------ errors


@pytest.mark.parametrize("name,order,most", [("sphere3", 2, 4), ("sphcyl4", 4, 4), ("graph3", 2, 0)])
def test_chart_jets_product_count(monkeypatch, name, order, most):
    # shared subtrees once, literals as floats and seeded functions of a
    # coordinate leave one product per distinct factor; evaluating each
    # component alone by plain jet arithmetic took 27, 45 and 8
    chart = catalog.build(name)
    u = grid_points(chart, 4)
    products = []
    mul = jet.JetScalar.__mul__

    def counting(a, b):
        products.append(isinstance(b, jet.JetScalar))
        return mul(a, b)

    monkeypatch.setattr(jet.JetScalar, "__mul__", counting)
    chart_jets(chart, u, order)
    assert sum(products) <= most


def test_point_outside_domain():
    with pytest.raises(DomainError, match="outside"):
        frame_at(catalog.sphere3(2.0), [0.7, 0.8, 2.0])


def test_wrong_point_dimension():
    with pytest.raises(DomainError):
        frame_at(catalog.sphere3(2.0), [0.7, 0.8])


def test_bad_jet_order():
    with pytest.raises(ValueError, match="order"):
        frame_at(catalog.sphere3(2.0), [0.7, 0.8, 0.9], order=5)


def test_make_chart_rejects_bad_source():
    with pytest.raises(ChartError):
        make_chart(["u1", "u2", "frob(u1)"], [(0, 1), (0, 1)])


def test_make_chart_rejects_degenerate():
    with pytest.raises(ChartError):
        make_chart(["u1", "u1", "0"], [(0, 1), (0, 1)])


_CHARTS_BY_N = {2: catalog.torus2, 3: catalog.sphere3, 4: catalog.sphcyl4}


def _coefs_equal(trimmed, full, order):
    return all(
        np.array_equal(t.coef, f.truncated(order).coef)
        for t, f in zip(np.ravel(trimmed), np.ravel(full))
    )


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_trimmed_builds_equal_truncated_full_builds(n, K):
    # g, g^{-1}, N and Gamma built at the order their readers ask for are,
    # coefficient by coefficient, the truncations of the full builds: order
    # K-1 for g, g^{-1} and N, and K-2 for Gamma
    chart = _CHARTS_BY_N[n]()
    pts = grid_points(chart, 3)[::7]
    full = chart_jets(chart, pts, K)
    ginv_full, normal_full = full.ginv(K - 1), full.normal(K - 1)
    metric_full, gamma_full = full.metric(K - 1), full.christoffel(K - 2)
    trim = chart_jets(chart, pts, K)
    assert _coefs_equal(trim.ginv(K - 2), ginv_full, K - 2)
    assert _coefs_equal(trim.normal(max(K - 2, 1)), normal_full, max(K - 2, 1))
    assert _coefs_equal(trim.metric(K - 2), metric_full, K - 2)
    go = min(K - 2, 1)
    assert _coefs_equal(trim.christoffel(go), gamma_full, go)
    # a gradient read for its values alone may come from the order-1 scalar
    s = exprmod.eval_jet(exprmod.parse("u1^2*u2 + sin(u1)", n), pts, K)
    assert np.array_equal(
        values(trim.scalar_grad_jets(s.truncated(1))),
        values(full.scalar_grad_jets(s)),
    )
    if K >= 3:
        # the deformed metric (order K-2) is inverted at K-3 for its symbols
        qj = codazzi.q_jets(full, codazzi.Parallel(0.1))[0]
        gt = codazzi.deformed_metric_jets(full, qj)
        gt_inv = mat_inv(gt)[0]
        assert _coefs_equal(mat_inv(_trunc_mat(gt, K - 3))[0], gt_inv, K - 3)
        Gt = codazzi.deformed_christoffel_jets(full, qj)
        ref = geometry.christoffel_jets(gt, _trunc_mat(gt_inv, K - 3))
        assert _coefs_equal(Gt, ref, K - 3)


def test_singular_metric_raises_not_spd():
    # J has rank 1 on u2 = 0, so det g is exactly 0 there: the gate on det
    # must fire before the cofactor inverse divides by it
    ch = make_chart(
        ["u1 + 0.1*u2", "u1 + 0.1*u2 + u2^2", "u2^3"], [(0, 1), (-0.5, 1)]
    )
    cj = chart_jets(ch, [[0.3, 0.0]], order=3)
    with pytest.raises(NotSPDError, match="det g"):
        cj.ginv_jet


def test_make_chart_rejects_bad_domain():
    with pytest.raises(ChartError):
        make_chart(["u1", "u2", "0"], [(0, 1), (1, 0)])
    with pytest.raises(ChartError):
        make_chart(["u1", "u2", "0"], [(0, 1)])


def test_order_two_frame_has_no_curvature():
    fr = frame_at(catalog.sphere3(2.0), [0.7, 0.8, 0.9], order=2)
    assert fr.R is None and fr.nablaA is None
    assert fr.Gamma is not None


def test_order_four_consistent_with_three():
    ch = catalog.sphere3(2.0)
    u = [0.7, 0.8, 0.9]
    f3 = frame_at(ch, u, order=3)
    f4 = frame_at(ch, u, order=4)
    assert np.abs(f3.g - f4.g).max() < 1e-14
    assert np.abs(f3.A - f4.A).max() < 1e-13
    assert np.abs(f3.R - f4.R).max() < 1e-13


def test_fd_oracle_boundary_guard():
    with pytest.raises(DomainError, match="boundary"):
        fd_oracle(catalog.sphere3(2.0), np.array([0.4005, 0.8, 0.9]))
