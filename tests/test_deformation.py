"""Deformed-immersion tests: closed forms, loops, extraction, gauge."""

import numpy as np
import pytest

from isodeform import catalog, codazzi, deformation as dfm, expr as exprmod, suites
from isodeform.codazzi import (
    Explicit,
    GHPair,
    MinusA,
    Parallel,
    gh_gauss_translation,
    gh_parallel_offset,
)
from isodeform.deformation import (
    KernelMismatchError,
    LoopRect,
    closed_form_immersion,
    default_loop_rects,
    extract_gh,
    fd_deformed_frame,
    gauge_fit,
    global_det_sign,
    kernel_angle_field,
    omega_loop_integral,
    omega_loop_residual,
    pair_on_grid,
    path_dependence_residual,
    path_integral_immersion,
    path_integral_on_grid,
    verify_deformation,
)
from isodeform.errors import HypothesisError
from isodeform.geometry import (
    CHUNK,
    GRID_SHRINK,
    chart_jets,
    grid_axes,
    grid_points,
    jet_partials,
    make_chart,
)
from isodeform.jet import values
from isodeform.linalg import DegenerateJacobianError, LinalgError


def test_parallel_sphere_closed_form():
    # parallel surface of the r=2 sphere at t=1: F = f + N = (3/2) f, a
    # radius-3 sphere, so the deformed shape operator is -Id/3
    ch = catalog.sphere3(2.0)
    chk = verify_deformation(ch, grid_points(ch, 3), Parallel(1.0))
    assert chk.sign == 1
    assert chk.pair_q_residual < 1e-12
    assert np.abs(chk.frameF.f - 1.5 * chk.frame.f).max() < 1e-12
    assert np.abs(chk.frameF.A + np.eye(3) / 3).max() < 1e-12
    for field in (
        chk.dF_field,
        chk.metric_field,
        chk.shape_field,
        chk.selfadjoint_field,
        chk.codazzi_At_field,
        chk.gauss_field,
        chk.wedge_field,
        chk.kernel_angle_field,
    ):
        assert field.max() < 1e-12


def test_gauss_translation_is_unit_sphere():
    # F = a + N maps the sphere chart to the translated unit sphere
    ch = catalog.sphere3(2.0)
    a = np.array([0.3, -0.2, 0.5, 0.1])
    chk = verify_deformation(ch, grid_points(ch, 3), gh_gauss_translation(a))
    assert chk.sign == 1
    assert np.abs(chk.frameF.f - (a + chk.frame.N)).max() < 1e-12
    assert np.abs(chk.frameF.A + np.eye(3)).max() < 1e-11
    assert chk.dF_residual < 1e-11
    assert chk.metric_residual < 1e-11
    assert chk.shape_residual < 1e-11
    assert chk.gauss_residual < 1e-12
    assert chk.wedge_residual < 1e-11


@pytest.mark.parametrize(
    "chart,source",
    [
        (catalog.torus2(), Parallel(0.1)),
        (catalog.graph3(), Parallel(0.05)),
        (catalog.ellipsoid3(), gh_gauss_translation([0.1, 0.0, -0.2, 0.05])),
    ],
    ids=["torus-parallel", "graph-parallel", "ellipsoid-gauss"],
)
def test_deformation_claims_on_grid(chart, source):
    chk = verify_deformation(chart, grid_points(chart, 3), source)
    assert chk.pair_q_residual < 1e-11
    assert chk.dF_residual < 1e-11
    assert chk.metric_residual < 1e-11
    assert chk.shape_residual < 1e-9
    assert chk.selfadjoint_residual < 1e-11
    assert chk.codazzi_At_residual < 1e-9
    assert chk.gauss_residual < 1e-11
    assert chk.wedge_residual < 1e-10
    assert chk.kernel_angle < 1e-8


def test_negative_sign_branch():
    # Gauss map of a saddle graph: Q = -A has negative determinant, so the
    # deformed chart normal flips and the sign resolves to -1
    ch = catalog.graph3("0.1*(u1^2 + 2*u2^2 - 3*u3^2)")
    chk = verify_deformation(ch, grid_points(ch, 3), gh_gauss_translation())
    assert chk.sign == -1
    assert np.abs(chk.frameF.f - chk.frame.N).max() < 1e-12
    assert chk.dF_residual < 1e-12
    assert chk.shape_residual < 1e-10
    assert chk.gauss_residual < 1e-12
    assert chk.wedge_residual < 1e-11


def test_cylinder_kernel_preserved():
    ch = catalog.sphcyl4()
    chk = verify_deformation(ch, grid_points(ch, 3), Parallel(0.3))
    assert chk.kernel_angle < 1e-8
    assert chk.wedge_residual < 1e-10
    assert chk.shape_residual < 1e-10


def test_kernel_mismatch_raises():
    ch = catalog.sphcyl4()
    pts = grid_points(ch, 2)
    chk = verify_deformation(ch, pts, Parallel(0.3))
    broken = chk.frameF.A + 0.5 * np.eye(4)
    with pytest.raises(KernelMismatchError, match="rank"):
        kernel_angle_field(chk.frame, broken)
    # one later point only: the message names it by its chart coordinates
    broken = chk.frameF.A.copy()
    broken[11] += 0.5 * np.eye(4)
    with pytest.raises(KernelMismatchError) as err:
        kernel_angle_field(chk.frame, broken)
    where = ",".join(f"{x:.6f}" for x in pts[11])
    assert f"at u = {where}:" in str(err.value)
    assert (err.value.rank_A, err.value.rank_At) == (3, 4)


def test_global_det_sign_gate():
    assert global_det_sign(np.stack([np.eye(3), np.diag([2.0, 1.0, 3.0])])) == 1
    assert global_det_sign(-np.eye(3)[None]) == -1
    with pytest.raises(HypothesisError, match=r"sign\(det Q\) changes"):
        global_det_sign(np.stack([np.eye(2), np.diag([1.0, -2.0])]))


def test_plane_loop_control_exact():
    # flat plane with Q = diag(1, 1 + u1): the circulation around the unit
    # square is exactly -1 in the second ambient component
    pl = catalog.plane2()
    spec = Explicit((("1", "0"), ("0", "1 + u1")))
    rect = LoopRect(0, 1, 0.0, 1.0, 0.0, 1.0, base=(0.0, 0.0))
    loop = omega_loop_integral(pl, spec, rect)
    assert np.allclose(loop, [0.0, -1.0, 0.0], atol=1e-12)
    assert path_dependence_residual(pl, spec, 3) > 1.0


@pytest.mark.parametrize("axis_order", [[0, 1], [1, 0]])
def test_grid_sweep_matches_point_staircase_where_path_matters(axis_order):
    # omega = df o diag(1, 1 + u1) on the plane is not exact, so F depends on
    # the path; the grid sweep and the point staircase follow the same
    # staircase to every grid point and must agree there
    pl = catalog.plane2()
    spec = Explicit((("1", "0"), ("0", "1 + u1")))
    mesh, Fg = path_integral_on_grid(pl, spec, (4, 5), axis_order=axis_order)
    flat = mesh.reshape(-1, 2)
    Fp = path_integral_immersion(
        pl, spec, flat[0], flat, axis_order=axis_order
    )
    assert Fg.shape == (4, 5, 3)
    assert np.abs(Fg.reshape(-1, 3) - Fp).max() < 1e-12
    # u2 is integrated at u1 = x1 (u1 first) or at u1 = x0 (u2 first)
    du = flat - flat[0]
    u1 = flat[:, 0] if axis_order == [0, 1] else flat[0, 0]
    expected = np.stack([du[:, 0], (1 + u1) * du[:, 1], 0 * du[:, 0]], axis=-1)
    assert np.abs(Fp - expected).max() < 1e-12


def test_loops_vanish_for_integrable_sources():
    worst, loops = omega_loop_residual(catalog.sphere3(2.0), Parallel(1.0))
    assert worst < 1e-9
    # one spanning and one off-center rectangle per adjacent axis pair
    assert len(loops) == 2 * 2
    worst, _ = omega_loop_residual(catalog.graph3(), Parallel(0.05))
    assert worst < 1e-9
    assert (
        path_dependence_residual(catalog.torus2(), Parallel(0.1), 4) < 1e-9
    )


def test_path_integral_matches_closed_form():
    ch = catalog.sphere3(2.0)
    F_fn = closed_form_immersion(ch, Parallel(1.0))
    mesh, Fgrid = path_integral_on_grid(ch, Parallel(1.0), 3)
    flat = mesh.reshape(-1, 3)
    Fc = F_fn(flat).reshape(Fgrid.shape)
    offset = Fc[(0,) * 3] - Fgrid[(0,) * 3]
    assert np.abs(Fgrid + offset - Fc).max() < 1e-11


def test_path_integral_single_target():
    ch = catalog.torus2()
    F_fn = closed_form_immersion(ch, Parallel(0.1))
    base = np.array([0.5, 0.6])
    target = np.array([4.0, 5.0])
    F0 = F_fn(base[None])[0]
    F1 = path_integral_immersion(ch, Parallel(0.1), base, target, F0=F0)
    F2 = path_integral_immersion(
        ch, Parallel(0.1), base, target, F0=F0, axis_order=[1, 0]
    )
    expected = F_fn(target[None])[0]
    assert F1.shape == F2.shape == (3,)
    assert np.abs(F1 - expected).max() < 1e-11
    assert np.abs(F2 - expected).max() < 1e-11


@pytest.mark.parametrize("axis_order", [[0, 1], [1, 0]])
def test_path_integral_target_batch(axis_order):
    # one batched call must reproduce the single-target integrals, including
    # base itself and targets whose staircase has a zero-length leg; the
    # grid rows push the integrand past one CHUNK of points per call
    ch = catalog.torus2()
    F_fn = closed_form_immersion(ch, Parallel(0.1))
    base = np.array([0.5, 0.6])
    special = [[4.0, 5.0], [0.5, 0.6], [0.5, 5.0], [4.0, 0.6], [2.0, 3.0]]
    grid = grid_points(ch, 9)
    targets = np.concatenate([special, grid])
    assert 16 * len(targets) > CHUNK
    F0 = F_fn(base[None])[0]
    Fb = path_integral_immersion(
        ch, Parallel(0.1), base, targets, F0=F0, axis_order=axis_order
    )
    assert Fb.shape == (len(targets), 3)
    assert np.abs(Fb - F_fn(targets)).max() < 1e-11
    np.testing.assert_array_equal(Fb[1], F0)
    for x, row in zip(targets[: len(special)], Fb):
        single = path_integral_immersion(
            ch, Parallel(0.1), base, x, F0=F0, axis_order=axis_order
        )
        assert np.abs(row - single).max() < 1e-11


def test_extract_and_gauge_roundtrip():
    ch = catalog.graph3()
    pair = gh_parallel_offset(0.05)
    ext = extract_gh(ch, closed_form_immersion(ch, pair), 4)
    true = pair_on_grid(ch, pair, 4)
    assert ext.closed_residual < 1e-10
    assert np.abs(ext.h - true.h).max() < 1e-12
    assert np.abs(ext.grad_g - true.grad_g).max() < 1e-11
    fit = gauge_fit(ch, ext, true)
    # extraction fixes g(base) = 0, so the gauge is a pure constant
    assert np.abs(fit.a).max() < 1e-10
    base_idx = (0,) * 3
    assert fit.c == pytest.approx(true.g[base_idx], abs=1e-10)
    assert fit.residual < 1e-10
    assert np.isfinite(fit.cond)


def test_gauge_recovers_translation_vector():
    ch = catalog.sphere3(2.0)
    a0 = np.array([0.3, -0.2, 0.5, 0.1])
    ext = extract_gh(ch, closed_form_immersion(ch, gh_gauss_translation(a0)), 4)
    zero = pair_on_grid(ch, gh_gauss_translation(), 4)
    fit = gauge_fit(ch, zero, ext)
    assert np.abs(fit.a - a0).max() < 1e-9
    assert fit.residual < 1e-9


def test_gauge_detects_non_gauge_difference():
    ch = catalog.graph3()
    pair = gh_parallel_offset(0.05)
    true = pair_on_grid(ch, pair, 4)
    ext = extract_gh(ch, closed_form_immersion(ch, pair), 4)
    ext.h = ext.h + 0.01 * true.points[..., 0]
    fit = gauge_fit(ch, ext, true)
    assert fit.residual > 1e-3


def test_fd_frame_matches_closed_form_route():
    # the same deformation given entrywise must produce the same F-frame;
    # Id - t A is diagonal in torus coordinates with closed-form entries
    R, r, t = 2.0, 0.5, 0.1
    ch = catalog.torus2(R, r)
    entries = (
        (f"1 + {t}*cos(u2)/({R} + {r}*cos(u2))", "0"),
        ("0", f"{1 + t / r}"),
    )
    u = np.array([2.0, 3.0])
    fd = fd_deformed_frame(ch, Explicit(entries), u)
    chk = verify_deformation(ch, u[None], Parallel(t))
    # F itself differs by the integration constant; derivatives must match
    assert np.abs(fd.J - chk.frameF.J[0]).max() < 1e-8
    assert np.abs(fd.N - chk.frameF.N[0]).max() < 1e-8
    assert np.abs(fd.g - chk.frameF.g[0]).max() < 1e-8
    assert np.abs(fd.A - chk.frameF.A[0]).max() < 1e-5


def test_explicit_source_has_no_closed_form():
    ch = catalog.plane2()
    spec = Explicit((("1", "0"), ("0", "1")))
    with pytest.raises(ValueError, match="pair"):
        verify_deformation(ch, grid_points(ch, 2), spec)


def test_immersion_frame_orders():
    ch = catalog.sphere3(2.0)
    chk = verify_deformation(ch, grid_points(ch, 2), Parallel(1.0), order=4)
    assert chk.frameF.order == 3
    assert chk.frameF.R is not None


# ------------------------------------------------- value-only integrands

_PHI = "u1^2 + 2*u2^2 + 3*u3^2"
_W = "(sqrt(1 + 4*u1^2 + 16*u2^2 + 36*u3^2))"


def _graph_explicit(t):
    # Id - t A of the graph of _PHI, entrywise: the benchmark's explicit Q
    grad, hess = ("(2*u1)", "(4*u2)", "(6*u3)"), ("2", "4", "6")
    return Explicit(tuple(
        tuple(
            f"{int(k == j)} + {t}*({int(k == j)} - {grad[k]}*{grad[j]}/{_W}^2)"
            f"*{hess[j]}/{_W}"
            for j in range(3)
        )
        for k in range(3)
    ))


_VALUE_SOURCES = {
    "parallel": Parallel(0.05),
    "minusA": MinusA(),
    "gh": GHPair(
        f"0.5*(u1^2 + u2^2 + u3^2 + ({_PHI})^2)",
        f"(2*u1^2 + 4*u2^2 + 6*u3^2 - ({_PHI}))/{_W} + 0.05",
    ),
    "parallel_offset": gh_parallel_offset(0.05),
    "gauss_translation": gh_gauss_translation([0.3, -0.2, 0.5, 0.1]),
    "explicit": _graph_explicit(0.05),
}


@pytest.mark.parametrize("name", list(_VALUE_SOURCES))
def test_value_integrand_matches_jet_route(name):
    # omega from values only must equal J Q with Q from the jet route
    source = _VALUE_SOURCES[name]
    ch = catalog.graph3()
    pts = np.random.default_rng(7).uniform(-0.45, 0.45, (500, 3))
    cj = chart_jets(ch, pts, order=2)
    Jv = np.moveaxis(values(cj.Jjet), (0, 1), (-2, -1))
    Qv = np.moveaxis(values(codazzi.q_jets(cj, source)[0]), (0, 1), (-2, -1))
    expected = np.einsum("...pk,...kj->...pj", Jv, Qv)
    omega = dfm._omega_values(ch, source, pts)
    assert omega.shape == (500, 4, 3)
    assert np.abs(omega - expected).max() <= 1e-13 * np.abs(expected).max()


def test_value_integrand_keeps_the_gates():
    # every gate of the jet route still fires at the quadrature nodes
    plane = catalog.plane2()
    with pytest.raises(HypothesisError, match="not g-self-adjoint"):
        path_integral_immersion(
            plane, Explicit((("1", "u1"), ("0", "1"))), [0.2, 0.2], [0.8, 0.8]
        )
    with pytest.raises(HypothesisError, match="gradient constraint"):
        path_integral_immersion(
            catalog.sphere3(2.0), GHPair("u1", "u2"), [0.6] * 3, [0.9] * 3
        )
    # J has rank 1 on u2 = 0, where the first leg runs
    ch = make_chart(
        ["u1 + 0.1*u2", "u1 + 0.1*u2 + u2^2", "u2^3"], [(0, 1), (-0.5, 1)]
    )
    with pytest.raises(DegenerateJacobianError):
        path_integral_immersion(
            ch, gh_parallel_offset(0.1), [0.5, 0.0], [1.0, 0.5]
        )
    for source in (Parallel(0.1), MinusA(), GHPair("0*u1", "1 + 0*u2")):
        with pytest.raises(LinalgError):
            path_integral_immersion(ch, source, [0.5, 0.0], [1.0, 0.5])


def test_grid_integral_builds_no_q_jets(monkeypatch):
    calls = []
    ch = catalog.graph3()
    for source in (Parallel(0.05), GHPair("0*u1", "1 + 0*u2"), _graph_explicit(0.05)):
        build = type(source).q_jets

        def counting(*args, build=build, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(type(source), "q_jets", counting)
        path_integral_on_grid(ch, source, 3)
    assert calls == []


def test_extract_builds_chart_jets_once_per_slice(monkeypatch):
    # one chart-jet build per evaluation of F: on the grid, and in every
    # slice of the covector integrand
    jets = []
    build = dfm.chart_jets

    def counting_jets(*args, **kwargs):
        jets.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(dfm, "chart_jets", counting_jets)
    ch = catalog.sphere3(2.0)
    F_fn = closed_form_immersion(ch, Parallel(1.0))
    slices = []

    def counting_F(cj):
        slices.append(1)
        return F_fn(cj)

    extract_gh(ch, counting_F, 3)
    assert len(slices) > 1
    assert len(jets) == len(slices)


def test_sphere_grid_integral_takes_one_panel_per_segment(monkeypatch):
    # omega is analytic on every leg, so each leg is accepted on the
    # Legendre tail of its first 16-node panel: the whole grid is one
    # quadrature call that evaluates the integrand once, at 16 parameters
    nodes = []
    integrate = dfm.integrate_segment

    def counting(fn, *args, **kwargs):
        calls = []

        def counted(t):
            calls.append(len(t))
            return fn(t)

        out = integrate(counted, *args, **kwargs)
        nodes.append(calls)
        return out

    monkeypatch.setattr(dfm, "integrate_segment", counting)
    path_integral_on_grid(catalog.sphere3(2.0), Parallel(1.0), 5)
    assert nodes == [[16]]


@pytest.mark.parametrize("case", ["parallel", "explicit", "non_integrable"])
def test_batched_loops_match_one_rectangle_at_a_time(case):
    ch, source = {
        "parallel": (catalog.graph3(), Parallel(0.05)),
        "explicit": (catalog.graph3(), _graph_explicit(0.3)),
        # symmetric, so self-adjoint for the plane's flat metric
        "non_integrable": (catalog.plane2(), Explicit(
            (("1 + u2^2", "0.3*u1"), ("0.3*u1", "1 + sin(2*u1)"))
        )),
    }[case]
    rects = default_loop_rects(ch)
    batch = omega_loop_integral(ch, source, rects)
    assert batch.shape == (len(rects), ch.ambient_dim)
    single = np.array([omega_loop_integral(ch, source, r) for r in rects])
    assert np.abs(batch - single).max() <= 1e-12
    if case == "non_integrable":
        assert np.abs(batch).max() > 0.1


def test_staircase_targets_on_base_lines_give_f0_exactly():
    # targets share one or two coordinates with the base, so some of their
    # legs have zero length; the base itself has no leg at all
    ch = catalog.graph3()
    source = _graph_explicit(0.3)
    base = np.array([-0.2, 0.1, 0.3])
    F0 = np.array([1.0, -2.0, 0.5, 3.0])
    targets = np.array([
        [0.4, 0.1, 0.3], [-0.2, -0.4, 0.3], [-0.2, 0.1, -0.1],
        [0.4, -0.4, 0.3], base, [0.4, 0.2, -0.3], base,
    ])
    F = path_integral_immersion(ch, source, base, targets, F0=F0)
    np.testing.assert_array_equal(F[4], F0)
    np.testing.assert_array_equal(F[6], F0)
    np.testing.assert_array_equal(path_integral_immersion(ch, source, base, base, F0=F0), F0)
    for x, row in zip(targets, F):
        single = path_integral_immersion(ch, source, base, x, F0=F0)
        assert np.abs(row - single).max() <= 1e-13


def test_one_quadrature_call_per_path_family(monkeypatch):
    calls = []
    integrate = dfm.integrate_segment

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    def count(run) -> int:
        before = len(calls)
        run()
        return len(calls) - before

    monkeypatch.setattr(dfm, "integrate_segment", counting)
    ch = catalog.graph3()
    source = _graph_explicit(0.3)
    targets = grid_points(ch, 3)
    assert count(lambda: path_integral_immersion(ch, source, targets[0], targets)) == 1
    assert count(lambda: path_integral_on_grid(ch, source, 4)) == 1
    assert count(lambda: suites._loop_check(ch, source, suites.DEFAULT_TOL)) == 1
    assert count(lambda: fd_deformed_frame(ch, source, [0.1, 0.0, -0.1])) == 1

    circulation = dfm._circulation
    inside = []

    def counted_circulation(*args, **kwargs):
        out = []
        inside.append(count(lambda: out.append(circulation(*args, **kwargs))))
        return out[0]

    monkeypatch.setattr(dfm, "_circulation", counted_circulation)
    extract_gh(ch, closed_form_immersion(ch, Parallel(0.05)), 3)
    assert inside == [1]


def test_explicit_values_share_subtrees_bit_identically(monkeypatch):
    source = _graph_explicit(0.05)
    assert source.shared
    ch = catalog.graph3()
    pts = np.random.default_rng(3).uniform(-0.45, 0.45, (400, 3))
    cj = chart_jets(ch, pts, order=2)
    J = jet_partials(cj.comps, 1, cj.batch_shape)
    Q = source.q_values(cj, J)
    for i, row in enumerate(source.entries):
        for j, text in enumerate(row):
            alone = exprmod.eval_value(exprmod.parse(text, 3), pts)
            assert np.array_equal(Q[..., i, j], alone)
    # the use counts are exact: each shared value is dropped after its last use
    memos = []
    reader = exprmod._memo_reader

    def recorded(ev_node, memo):
        memos.append(memo)
        return reader(ev_node, memo)

    monkeypatch.setattr(exprmod, "_memo_reader", recorded)
    exprmod.eval_values(source.asts(3), pts, source.shared)
    assert memos == [{}]


def _staircase_legs(base, targets):
    """The (start, step) rows of the axis-order staircases base -> targets
    with a nonzero step, as a set."""
    rows = set()
    for x in targets:
        cur = np.array(base, dtype=float)
        for k in range(len(cur)):
            if x[k] != cur[k]:
                step = np.zeros(len(cur))
                step[k] = x[k] - cur[k]
                rows.add(tuple(cur) + tuple(step))
                cur[k] = x[k]
    return rows


def test_staircase_integrates_each_distinct_leg_once(monkeypatch):
    legs = []
    integrals = dfm._leg_integrals

    def recording(covector, starts, steps, tol):
        legs.append(np.hstack([starts, steps]))
        return integrals(covector, starts, steps, tol)

    monkeypatch.setattr(dfm, "_leg_integrals", recording)
    ch = catalog.graph3()
    source = _graph_explicit(0.05)
    base = np.asarray(ch.lo) + GRID_SHRINK * (np.asarray(ch.hi) - np.asarray(ch.lo))
    # an FD stencil, and a mesh slice at u3 = 0.1: many paths share legs
    fd_deformed_frame(ch, source, [0.1, 0.0, -0.1])
    stencil = legs.pop()
    axes = grid_axes(ch, 5)
    a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
    grid = np.stack([a.ravel(), b.ravel(), np.full(a.size, 0.1)], axis=-1)
    path_integral_immersion(ch, source, base, grid)
    (mesh,) = legs
    assert len(mesh) == len(_staircase_legs(base, grid)) < 2 * len(grid)
    assert set(map(tuple, mesh)) == _staircase_legs(base, grid)
    assert len(np.unique(stencil, axis=0)) == len(stencil)


def test_shared_legs_integrate_bit_identically_to_single_targets():
    ch = catalog.graph3()
    source = _graph_explicit(0.05)
    base = np.array([-0.3, -0.2, 0.1])
    axes = grid_axes(ch, 3)
    a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
    targets = np.stack([a.ravel(), b.ravel(), np.full(a.size, 0.1)], axis=-1)
    F = path_integral_immersion(ch, source, base, targets)
    for x, row in zip(targets, F):
        np.testing.assert_array_equal(row, path_integral_immersion(ch, source, base, x))


@pytest.mark.parametrize(
    "source", [Parallel(0.05), gh_parallel_offset(0.05), _graph_explicit(0.05)],
    ids=["parallel", "parallel_offset", "explicit"],
)
def test_omega_values_do_not_depend_on_the_batch(source):
    # a leg integrated once for every path that shares it relies on this
    ch = catalog.graph3()
    pts = np.random.default_rng(5).uniform(-0.45, 0.45, (CHUNK + 100, 3))
    whole = dfm._omega_values(ch, source, pts)
    rev = pts[::-1]
    parts = [dfm._omega_values(ch, source, rev[:CHUNK]),
             dfm._omega_values(ch, source, rev[CHUNK:])]
    np.testing.assert_array_equal(np.concatenate(parts)[::-1], whole)


def test_shared_divisor_is_gated_once_per_slice(monkeypatch):
    source = _graph_explicit(0.05)
    divisors = set()

    def walk(nd):
        if isinstance(nd, exprmod.BinOp) and nd.op == "/":
            divisors.add(id(nd.right))
        for kid in vars(nd).values():
            if isinstance(kid, exprmod.ExprAst):
                walk(kid)

    for ast in source.asts(3):
        walk(ast)
    assert len(divisors) == 2  # W^2 and W, each shared by all nine entries
    calls = []
    require = exprmod._require_divisor

    def counting(*args):
        calls.append(1)
        return require(*args)

    monkeypatch.setattr(exprmod, "_require_divisor", counting)
    ch = catalog.graph3()
    pts = np.random.default_rng(3).uniform(-0.45, 0.45, (50, 3))
    cj = chart_jets(ch, pts, order=2)
    source.q_values(cj, jet_partials(cj.comps, 1, cj.batch_shape))
    assert len(calls) == len(divisors)
