"""Suite orchestration: reports, determinism, rank gate, skip logic."""

import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import load_benchmark_module

from isodeform import catalog, codazzi, deformation, expr, geometry, jet, suites
from isodeform.errors import HypothesisError, SceneError
from isodeform.report import FAIL, PASS, SKIP
from isodeform.scene import load_scene, parse_scene
from isodeform.suites import CHECKS, DEFAULT_TOL, resolve_tolerances, run_suites

SPHERE = """
[chart]
catalog = sphere3
r = 2
[codazzi]
variant = parallel
t = 1
[run]
grid = 4
"""


@pytest.fixture(scope="module")
def sphere_report():
    return run_suites(parse_scene(SPHERE))


def test_full_pass_report(sphere_report):
    rep = sphere_report
    assert not rep.failed
    assert rep.sign == 1
    assert rep.rank_min == 3 and rep.rank_max == 3
    assert rep.suites == ("geometry", "codazzi", "deformation", "roundtrip")
    names = [c.name for c in rep.checks]
    # every suite contributed
    for expected in ("gauss", "commutator", "metric", "roundtrip_gauge"):
        assert expected in names
    assert all(c.verdict == PASS for c in rep.checks)
    assert rep.wall_time > 0


def test_report_text_is_stable_modulo_wall_time(sphere_report):
    rep2 = run_suites(parse_scene(SPHERE))

    def strip(text):
        return "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("wall_time_s:")
        )

    assert strip(sphere_report.to_text()) == strip(rep2.to_text())


def test_json_dict_roundtrips_through_json(sphere_report):
    import json

    blob = json.dumps(sphere_report.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["result"] == "pass"
    assert len(back["checks"]) == len(sphere_report.checks)


def test_single_point_mode_skips_grid_checks():
    rep = run_suites(parse_scene(SPHERE), point=(0.6, 0.7, 0.8))
    assert not rep.failed
    assert any("single-point rerun" in w for w in rep.warnings)
    skipped = {c.name for c in rep.checks if c.verdict == SKIP}
    assert {"loop", "path_vs_closed", "path_order_swap"} <= skipped


def test_single_point_outside_domain():
    with pytest.raises(SceneError) as exc:
        run_suites(parse_scene(SPHERE), point=(9.0, 9.0, 9.0))
    assert "outside the chart domain" in str(exc.value)


def test_single_point_wrong_arity():
    with pytest.raises(SceneError):
        run_suites(parse_scene(SPHERE), point=(0.5, 0.5))


def test_rank_gate_refuses_flat_plane():
    scene = parse_scene(
        "[chart]\ncatalog = plane2\n[codazzi]\nvariant = parallel\nt = 0.5\n"
        "[run]\ngrid = 4\nsuites = deformation\n"
    )
    with pytest.raises(HypothesisError) as exc:
        run_suites(scene)
    msg = str(exc.value)
    assert "rank A >= 3 violated" in msg
    assert "certified rank 0" in msg


def test_explicit_det_sign_change_refused():
    # det Q = u1 - 0.8 changes sign inside the sample grid
    scene = parse_scene(
        "[chart]\ncatalog = sphere3\n[codazzi]\nvariant = explicit\n"
        "q11 = u1 - 0.8\nq12 = 0\nq13 = 0\nq21 = 0\nq22 = 1\nq23 = 0\n"
        "q31 = 0\nq32 = 0\nq33 = 1\n[run]\ngrid = 4\nsuites = deformation\n"
    )
    with pytest.raises(HypothesisError, match=r"sign\(det Q\) changes"):
        run_suites(scene)


def test_low_dimension_full_rank_warns_but_runs():
    scene = parse_scene(
        "[chart]\ncatalog = torus2\n[codazzi]\nvariant = parallel\nt = 0.1\n"
        "[run]\ngrid = 4\nsuites = deformation\n"
    )
    rep = run_suites(scene)
    assert not rep.failed
    assert any("n=2 chart" in w for w in rep.warnings)
    assert rep.rank_min == 2


def test_geometry_order2_skips_curvature_checks():
    scene = parse_scene(
        "[chart]\ncatalog = sphere3\nr = 2\n[run]\ngrid = 3\norder = 2\n"
        "suites = geometry\n"
    )
    rep = run_suites(scene)
    skipped = {c.name for c in rep.checks if c.verdict == SKIP}
    assert {"gauss", "codazzi_A", "bianchi1"} <= skipped
    assert rep.find("weingarten").verdict == PASS


def test_tolerance_override_changes_verdict():
    scene = parse_scene(
        SPHERE.replace("[run]", "[run]\ntol_metric = 1e-18")
    )
    rep = run_suites(scene)
    assert rep.find("metric").verdict == FAIL
    assert rep.failed


def test_resolve_tolerances_rejects_unknown():
    with pytest.raises(SceneError) as exc:
        resolve_tolerances({"warp": 1e-6})
    assert "unknown tolerance: warp" in str(exc.value)
    merged = resolve_tolerances({"metric": 1e-3})
    assert merged["metric"] == 1e-3
    assert merged["loop"] == DEFAULT_TOL["loop"]


def test_noncommuting_explicit_fails_and_skips_roundtrip():
    scene = parse_scene(
        """
[chart]
catalog = graph3
[codazzi]
variant = explicit
q11 = 3.0 - (2*u1)*(2*u1)*3.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q12 = 0 - (2*u1)*(4*u2)*1.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q13 = 0 - (2*u1)*(6*u3)*2.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q21 = 0 - (4*u2)*(2*u1)*3.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q22 = 1.0 - (4*u2)*(4*u2)*1.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q23 = 0 - (4*u2)*(6*u3)*2.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q31 = 0 - (6*u3)*(2*u1)*3.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q32 = 0 - (6*u3)*(4*u2)*1.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
q33 = 2.0 - (6*u3)*(6*u3)*2.0/(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)
[run]
grid = 3
"""
    )
    rep = run_suites(scene)
    assert rep.find("commutator").max_residual > 1e-3
    assert rep.find("fd_metric").max_residual > 1e-3
    assert {c.name for c in rep.failed} >= {"commutator", "fd_metric"}
    # explicit operators carry no scalar pair, so roundtrip is skipped
    assert rep.find("roundtrip_gauge").verdict == SKIP


IDENTITY_Q = """
[chart]
catalog = sphere3
[codazzi]
variant = explicit
q11 = 1
q12 = 0
q13 = 0
q21 = 0
q22 = 1
q23 = 0
q31 = 0
q32 = 0
q33 = 1
[run]
grid = 3
suites = deformation
"""


def test_fd_probe_too_close_to_the_boundary_is_skipped():
    # the FD stencil of F needs 2*h2 = 0.02 of room; 0.405 is 0.005 inside
    rep = run_suites(parse_scene(IDENTITY_Q), point=(0.405, 0.8, 0.9))
    for name in ("fd_jacobian", "fd_metric", "fd_gauss", "fd_shape"):
        check = rep.find(name)
        assert check.verdict == SKIP
        assert check.note == (
            "no interior probe point: point too close to the boundary: the "
            "stencil needs 0.02 of clearance"
        )
    inside = run_suites(parse_scene(IDENTITY_Q), point=(0.6, 0.8, 0.9))
    assert inside.find("fd_metric").verdict == PASS


@pytest.mark.parametrize("point", [None, (0.1, 0.0, -0.1)], ids=["grid", "point"])
def test_fd_probes_read_the_sample_pass(monkeypatch, point):
    # J Q, g~, N and Q^-1 A at the FD probes come from the chunk that holds
    # each probe: past the sample pass only the order-2 integrands build
    # chart jets, and the deformed metric's gate sees the probes alone
    text = load_benchmark_module("workloads").WORKLOADS["explicit"].scene_text(0)
    scene = parse_scene(re.sub(r"grid=\d+", "grid=5", text))
    orders, gated = [], []
    build_jets = geometry.chart_jets
    metric = codazzi.deformed_metric

    def counting_jets(chart, u, order=3):
        orders.append(order)
        return build_jets(chart, u, order)

    def counting_metric(g, Q):
        gated.append(len(g))
        return metric(g, Q)

    monkeypatch.setattr(suites, "CHUNK", 50)
    for mod in (suites, deformation):
        monkeypatch.setattr(mod, "chart_jets", counting_jets)
    monkeypatch.setattr(suites, "deformed_metric", counting_metric)
    rep = run_suites(scene, point=point)
    assert not rep.failed
    assert all(rep.find(name).verdict == PASS for name in ("fd_jacobian", "fd_shape"))
    chunks = 1 if point else 3  # 125 grid points in slices of 50
    assert orders[:chunks] == [4] * chunks and set(orders[chunks:]) == {2}
    assert sum(gated) == (1 if point else 3) and len(gated) == chunks


def test_expression_error_in_the_fd_frame_propagates(monkeypatch):
    # only a probe too close to the boundary skips the FD checks; an
    # expression evaluated outside its domain is a scene error, not a skip
    def broken(*args, **kwargs):
        raise expr.ExprError("log of a jet with value -1.0", (0, 7))

    monkeypatch.setattr(suites, "fd_deformed_frame", broken)
    with pytest.raises(expr.ExprError, match="log of a jet with value"):
        run_suites(parse_scene(IDENTITY_Q))


def test_constant_scalar_pair_runs_every_suite():
    # g = 0.5, h = 1 gives Q = -A; a constant expression's jet has batch
    # axes of length 1, which the roundtrip's grid sample broadcasts
    scene = parse_scene(
        "[chart]\ncatalog = sphere3\n[codazzi]\nvariant = gh\ng = 0.5\nh = 1\n"
        "[run]\ngrid = 3\n"
    )
    rep = run_suites(scene)
    assert not rep.failed
    assert rep.find("roundtrip_gauge").verdict == PASS


def test_worst_point_is_reproducible(sphere_report):
    # rerunning at the reported worst point reproduces the residual scale
    chk = sphere_report.find("metric")
    rep = run_suites(parse_scene(SPHERE), point=chk.worst_point)
    again = rep.find("metric")
    assert again.max_residual <= 10 * max(chk.max_residual, 1e-15)


def test_pair_suite_sweeps_the_grid_once_per_axis_order(monkeypatch):
    # path_vs_closed and path_order_swap share one forward and one reversed
    # grid sweep
    orders = []
    sweep = deformation.path_integral_on_grid

    def counting(*args, **kwargs):
        orders.append(kwargs.get("axis_order"))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(suites, "path_integral_on_grid", counting)
    monkeypatch.setattr(deformation, "path_integral_on_grid", counting)
    rep = run_suites(parse_scene(SPHERE.replace("grid = 4", "grid = 3")))
    assert not rep.failed
    assert orders == [None, [2, 1, 0]]


def test_grid_frame_is_built_once_per_run(monkeypatch):
    # path_vs_closed, extract_gh, pair_on_grid, both gauge fits and the
    # synthetic gauge shift all read one order-2 frame of the sample grid
    scene = parse_scene(SPHERE + "suites = deformation, roundtrip\n")
    grid = geometry.grid_points(scene.chart, scene.grid)
    grid_builds = []
    build_jets = geometry.chart_jets

    def counting_jets(chart, u, order=3):
        u = np.asarray(u, dtype=float)
        if order == 2 and np.array_equal(u.reshape(-1, chart.n), grid):
            grid_builds.append(u.shape)
        return build_jets(chart, u, order)

    for module in (geometry, deformation, suites):
        monkeypatch.setattr(module, "chart_jets", counting_jets)
    rep = run_suites(scene)
    assert len(grid_builds) == 1
    assert [(c.name, c.verdict) for c in rep.checks] == [
        (name, PASS)
        for name in (
            "pair_q", "dF", "metric", "shape", "selfadjoint_At", "codazzi_At",
            "gauss_congruence", "wedge", "kernel_angle", "loop",
            "path_vs_closed", "path_order_swap", "extract_closedness",
            "roundtrip_gauge", "gauge_recovery",
        )
    ]


def test_sample_pass_builds_jets_and_q_frame_once_per_chunk(monkeypatch):
    # every pointwise suite reads one order-4 chart jet and one Q frame per
    # CHUNK slice; three slices of the 27-point grid make that count visible
    monkeypatch.setattr(suites, "CHUNK", 10)
    jet_orders = []
    q_frames = []
    build_jets = geometry.chart_jets
    build_q_frame = codazzi.codazzi_frame_from_jets

    def counting_jets(chart, u, order=3):
        jet_orders.append(order)
        return build_jets(chart, u, order)

    def counting_q_frame(*args, **kwargs):
        q_frames.append(1)
        return build_q_frame(*args, **kwargs)

    for mod in (suites, deformation):
        monkeypatch.setattr(mod, "chart_jets", counting_jets)
        monkeypatch.setattr(mod, "codazzi_frame_from_jets", counting_q_frame)
    scene = parse_scene(SPHERE.replace("grid = 4", "grid = 3"))
    assert scene.suites == ("geometry", "codazzi", "deformation", "roundtrip")
    rep = run_suites(scene)
    assert not rep.failed
    assert jet_orders.count(4) == 3
    assert len(q_frames) == 3


@pytest.mark.parametrize(
    "suites_run, builds",
    [("deformation", 0), ("geometry,deformation", 3), ("codazzi", 3), ("geometry", 3)],
)
def test_sample_pass_builds_R_only_for_its_readers(monkeypatch, suites_run, builds):
    # R is read by geometry's gauss and bianchi1 and by codazzi's deformed
    # curvature; an explicit Q's deformation suite reads none of it, so a
    # deformation-only pass never builds it; three slices of 27 points
    text = load_benchmark_module("workloads").WORKLOADS["explicit"].scene_text(0)
    text = re.sub(r"suites=.*", f"suites={suites_run}", re.sub(r"grid=\d+", "grid=3", text))
    monkeypatch.setattr(suites, "CHUNK", 10)
    calls = []
    build = geometry.curvature_values

    def counting(Gamma_jets):
        calls.append(1)
        return build(Gamma_jets)

    monkeypatch.setattr(geometry, "curvature_values", counting)
    assert not run_suites(parse_scene(text)).failed
    assert len(calls) == builds


def test_sample_pass_builds_deformed_metric_once_per_chunk(monkeypatch):
    # the deformed connection and curvature read one build of the deformed
    # Christoffel jets; building them per field made this count 6
    monkeypatch.setattr(suites, "CHUNK", 10)
    calls = []
    build = codazzi.deformed_metric_jets

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(codazzi, "deformed_metric_jets", counting)
    rep = run_suites(parse_scene(SPHERE.replace("grid = 4", "grid = 3")))
    assert not rep.failed
    assert len(calls) == 3


def test_sample_pass_evaluates_scalar_pair_once_per_chunk(monkeypatch):
    # Q, the gh_constraint field and F all read one evaluation of g and h
    g_ast, h_ast = expr.parse("0*u1", 3), expr.parse("1+0*u2", 3)
    calls = {"g": 0, "h": 0}
    eval_jet = expr.eval_jet

    def counting(ast, *args, **kwargs):
        for name, target in (("g", g_ast), ("h", h_ast)):
            calls[name] += ast == target
        return eval_jet(ast, *args, **kwargs)

    monkeypatch.setattr(expr, "eval_jet", counting)
    scene = parse_scene(
        "[chart]\ncatalog = sphere3\n[codazzi]\nvariant = gh\n"
        "g = 0*u1\nh = 1+0*u2\n[run]\nsuites = codazzi, deformation\n"
    )
    rep = run_suites(scene, point=[0.6, 0.7, 0.8])
    assert not rep.failed
    assert "gh_constraint" in [c.name for c in rep.checks]
    assert calls == {"g": 1, "h": 1}


def _count_jet_builds(monkeypatch):
    """Record the order of every chart jet and inverse built, and of every
    Jacobian, normal, metric, g^{-1} and Christoffel build of order-4 jets,
    the sample pass's."""
    names = ("chart", "jacobian", "normal", "metric", "ginv", "christoffel", "inverse")
    built = {name: [] for name in names}
    build_jets = geometry.chart_jets
    inverse = geometry.mat_inv
    memo = geometry.ChartJets._memo

    def counting_jets(chart, u, order=3):
        built["chart"].append(order)
        return build_jets(chart, u, order)

    def counting_memo(cj, name, order, build):
        def counting_build(o):
            # the lower-order build is dropped before a higher one is made
            assert name not in cj._built
            if cj.order == 4:
                built[name].append(o)
            return build(o)

        return memo(cj, name, order, counting_build)

    def counting_inverse(M, gate=None):
        built["inverse"].append(M.order)
        return inverse(M, gate)

    for mod in (suites, deformation):
        monkeypatch.setattr(mod, "chart_jets", counting_jets)
    monkeypatch.setattr(geometry.ChartJets, "_memo", counting_memo)
    for mod in (geometry, codazzi):
        monkeypatch.setattr(mod, "mat_inv", counting_inverse)
    return built


def test_sample_pass_builds_jets_at_the_order_read(monkeypatch):
    # order-4 chart jets on a 4-dim chart: the pass reads the normal, g and
    # g^{-1} at order 2, the Christoffel symbols at order 1 and the deformed
    # inverse at order 1, so nothing of order 3 is built, and the rank of A
    # comes from the same frame
    scene = parse_scene(
        "[chart]\ncatalog = sphcyl4\n[codazzi]\nvariant = parallel\nt = 0.2\n"
        "[run]\ngrid = 3\norder = 4\nsuites = geometry, codazzi\n"
    )
    monkeypatch.setattr(suites, "CHUNK", 30)
    built = _count_jet_builds(monkeypatch)
    products = [0]
    mul = jet.JetScalar.__mul__

    def counting_mul(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(jet.JetScalar, "__mul__", counting_mul)
    monkeypatch.setattr(jet.JetScalar, "__rmul__", counting_mul)
    rep = run_suites(scene)
    assert not rep.failed
    assert rep.rank_min == rep.rank_max == 3
    assert built["chart"] == [4, 4, 4]
    assert built["normal"] == built["metric"] == [2, 2, 2]
    assert built["christoffel"] == [1, 1, 1]
    assert sorted(set(built["inverse"])) == [1, 2]
    # 3264 products; 5112 with the normal and g^{-1} at order 3, the
    # deformed inverse at order 2 and a separate order-2 rank pass
    assert products[0] <= 3264


def test_sample_pass_skips_the_products_a_chart_makes_zero(monkeypatch):
    # sphcyl4 is sphere3 times a line: J, g, b, A, Q and the deformed metric
    # have zero blocks, and no product of scalar jets multiplies by them
    scene = parse_scene(
        "[chart]\ncatalog = sphcyl4\n[codazzi]\nvariant = parallel\nt = 0.2\n"
        "[run]\ngrid = 3\norder = 4\nsuites = geometry, codazzi\n"
    )
    monkeypatch.setattr(suites, "CHUNK", 30)
    kernel = [0]
    product = jet._product

    def counting_product(sp, a, b, sa, sb, *rest):
        kernel[0] += (sa, sb) == (0, 0)  # one scalar jet product, entry or not
        return product(sp, a, b, sa, sb, *rest)

    monkeypatch.setattr(jet, "_product", counting_product)
    rep = run_suites(scene)
    assert not rep.failed
    # 2835 without the zero patterns
    assert kernel[0] == 1050


@pytest.mark.parametrize("workload", ["pointwise", "grid_pair", "explicit"])
def test_zero_patterns_leave_the_benchmark_reports_unchanged(monkeypatch, workload):
    # the benchmark's scenes at seed 0 on 4 points per axis: with no entry
    # ever known to be zero, every product and minor is computed, and the
    # text reports are the same byte for byte but for the timing line
    text = load_benchmark_module("workloads").WORKLOADS[workload].scene_text(0)
    scene = parse_scene(re.sub(r"grid=\d+", "grid=4", text))

    def report():
        lines = run_suites(scene).to_text().splitlines(True)
        return "".join(line for line in lines if not line.startswith("wall_time_s:"))

    skipping = report()
    monkeypatch.setattr(jet, "_seed_pattern", lambda coef, ndim: None)
    assert report() == skipping


def test_pair_scene_builds_the_full_order_normal_once_per_chunk(monkeypatch):
    # the pair's h and F read J, the normal, g and g^{-1} at K-1 = 3, and
    # its Hessian the Christoffel symbols at K-2 = 2: one build of each per
    # chunk, made before the frame, which reads their truncations
    scene = parse_scene(
        SPHERE.replace("grid = 4", "grid = 3\nsuites = geometry, codazzi, deformation")
    )
    monkeypatch.setattr(suites, "CHUNK", 10)
    built = _count_jet_builds(monkeypatch)
    rep = run_suites(scene)
    assert not rep.failed
    assert built["chart"].count(4) == 3
    for name in ("jacobian", "normal", "metric", "ginv"):
        assert built[name] == [3, 3, 3]
    assert built["christoffel"] == [2, 2, 2]


def test_verify_deformation_builds_each_chart_jet_once(monkeypatch):
    # the sample pass's pair builds, before the frame: J, the normal, g and
    # g^{-1} at K-1 = 3 and Gamma at K-2 = 2, each once, and nothing lower
    chart = catalog.sphere3()
    built = _count_jet_builds(monkeypatch)
    deformation.verify_deformation(chart, geometry.grid_points(chart, 3), codazzi.Parallel(1.0))
    assert built["chart"] == [4]
    for name in ("jacobian", "normal", "metric", "ginv"):
        assert built[name] == [3]
    assert built["christoffel"] == [2]


def test_codazzi_only_scalar_pair_builds_no_order3_normal_or_inverse(monkeypatch):
    # with no deformation suite, only Q's Hessian reads past the frame's
    # orders: Gamma at K-2 and g^{-1} at K-2, never the normal or g^{-1} at K-1
    scene = parse_scene(
        "[chart]\ncatalog = sphere3\n[codazzi]\nvariant = gh\n"
        "g = 0*u1\nh = 1+0*u2\n[run]\ngrid = 3\nsuites = codazzi\n"
    )
    monkeypatch.setattr(suites, "CHUNK", 10)
    built = _count_jet_builds(monkeypatch)
    rep = run_suites(scene)
    assert not rep.failed
    assert built["normal"] == built["ginv"] == [2, 2, 2]
    assert 3 not in built["inverse"]


def test_pair_scene_gates_a_non_finite_chart_before_its_builds():
    # finite at the box center, overflowing at u1 = 1: the pair's builds
    # ahead of the frame leave the frame's first gate to speak first
    scene = parse_scene(
        "[chart]\nn = 3\nf1 = u1\nf2 = u2\nf3 = u3\nf4 = exp(800*u1^4)\n"
        + "".join(f"domain{k} = 0.2,1\n" for k in (1, 2, 3))
        + "[codazzi]\nvariant = parallel\nt = 0.1\n"
        "[run]\ngrid = 3\nsuites = codazzi, deformation\n"
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        HypothesisError, match="^non-finite immersion values or Jacobian$"
    ):
        run_suites(scene)


def test_sample_pass_peak_memory_of_one_chunk():
    # 625 points of sphcyl4 make one order-4 chunk, whose components take
    # 5 x 70 coefficients per point (1.75 MB); the frame frees each jet after
    # its last read and the pass peaks below 7 times that (about 5.8; 8.1
    # when the jets lived until Q was built, 12 when until the chunk ended)
    scene = parse_scene(
        "[chart]\ncatalog = sphcyl4\nr = 1\n[codazzi]\nvariant = parallel\n"
        "t = 0.3\n[run]\ngrid = 5\norder = 4\nsuites = geometry, codazzi\n"
    )
    pts = geometry.grid_points(scene.chart, scene.grid)
    no_probes = np.arange(0)
    suites._sample_pass(scene, pts, no_probes)  # fills the jet-space tables
    tracemalloc.start()
    try:
        suites._sample_pass(scene, pts, no_probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * (5 * 70 * len(pts) * 8)


@pytest.mark.parametrize("chart_name", ["graph3", "sphcyl4"])
def test_integrand_slice_peak_memory_of_its_chart_coefficients(chart_name):
    # one full slice of omega on graph3 with the explicit workload's Q and
    # on sphcyl4 with Parallel: its order-2 chart jets take (n + 1) x
    # C(n+2, 2) coefficients per point, as many as one order-4 sample chunk,
    # and the slice peaks below 6 times them (about 2.7 and 4.4 today),
    # under the sample chunk's bound above
    scene = parse_scene(
        load_benchmark_module("workloads").WORKLOADS["explicit"].scene_text(0)
        if chart_name == "graph3" else
        "[chart]\ncatalog = sphcyl4\nr = 1\n[codazzi]\nvariant = parallel\nt = 0.3\n"
    )
    chart, n = scene.chart, scene.chart.n
    size = deformation._slice_points(n)
    pts = np.random.default_rng(0).uniform(chart.lo, chart.hi, (size, n))
    deformation._omega_values(chart, scene.spec, pts)  # fills the jet-space tables
    tracemalloc.start()
    try:
        deformation._omega_values(chart, scene.spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * ((n + 1) * math.comb(n + 2, 2) * size * 8)


@pytest.mark.parametrize(
    "workload, suites_run, grid",
    [("explicit", "codazzi,deformation", 4), ("grid_pair", "deformation,roundtrip", 5)],
)
def test_reports_do_not_depend_on_the_integrand_slice(monkeypatch, workload, suites_run, grid):
    # graph3 with the explicit workload's Q and sphere3 with Parallel: a
    # leg's integral does not depend on the slice its nodes are evaluated
    # in, so slices of 1,024 points and of deformation._slice_points give
    # the same text report byte for byte but for the timing line; at this
    # grid some slice of the new size holds more than 1,024 points
    text = load_benchmark_module("workloads").WORKLOADS[workload].scene_text(0)
    text = re.sub(r"suites=.*", f"suites={suites_run}", re.sub(r"grid=\d+", f"grid={grid}", text))
    scene = parse_scene(text)
    sizes = []
    leg_integrals = deformation._leg_integrals

    def recording(covector, starts, steps, tol):
        def sized(pts):
            sizes.append(len(pts))
            return covector(pts)

        return leg_integrals(sized, starts, steps, tol)

    def report():
        sizes.clear()
        lines = run_suites(scene).to_text().splitlines(True)
        return "".join(line for line in lines if not line.startswith("wall_time_s:"))

    monkeypatch.setattr(deformation, "_leg_integrals", recording)
    sliced = report()
    assert max(sizes) > 1024
    monkeypatch.setattr(deformation, "_slice_points", lambda n: 1024)
    assert report() == sliced
    assert max(sizes) == 1024


@pytest.mark.parametrize("suite", ["deformation", "roundtrip"])
def test_rank_gate_fires_inside_the_pass(monkeypatch, suite):
    # 1089 points make two chunks; the first one's frame trips the gate, and
    # a roundtrip-only scene builds nothing but the order-2 frame for it
    scene = parse_scene(
        "[chart]\ncatalog = plane2\n[codazzi]\nvariant = parallel\nt = 0.5\n"
        f"[run]\ngrid = 33\nsuites = {suite}\n"
    )
    built = _count_jet_builds(monkeypatch)
    with pytest.raises(HypothesisError) as exc:
        run_suites(scene)
    msg = str(exc.value)
    assert "rank A >= 3 violated" in msg
    assert "certified rank 0" in msg
    assert built["chart"] == [4 if suite == "deformation" else 2]


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("catalog_name", ["sphere3", "graph3"])
def test_geometry_checks_do_not_depend_on_jet_order(catalog_name, order):
    # with codazzi requested the pass runs at order 4; the geometry checks
    # must read exactly as they do at the scene order
    text = (
        f"[chart]\ncatalog = {catalog_name}\n[codazzi]\nvariant = parallel\n"
        f"t = 0.1\n[run]\ngrid = 4\norder = {order}\n"
    )
    alone = run_suites(parse_scene(text + "suites = geometry\n"))
    mixed = run_suites(parse_scene(text + "suites = geometry, codazzi\n"))
    geo_checks = [c for c in mixed.checks if c.suite == "geometry"]
    assert geo_checks == alone.checks
    assert len(geo_checks) == 6


def test_geometry_only_scene_does_not_build_q():
    # Q is not g-self-adjoint, which q_jets refuses; geometry never needs Q
    scene = parse_scene(
        "[chart]\ncatalog = sphere3\n[codazzi]\nvariant = explicit\n"
        "q11 = 1\nq12 = u1\nq13 = 0\nq21 = 0\nq22 = 1\nq23 = 0\n"
        "q31 = 0\nq32 = 0\nq33 = 1\n[run]\ngrid = 3\nsuites = geometry\n"
    )
    assert any("not g-self-adjoint" in w for w in scene.warnings)
    rep = run_suites(scene)
    assert not rep.failed
    assert [c.suite for c in rep.checks] == ["geometry"] * 6
    with pytest.raises(HypothesisError, match="not g-self-adjoint"):
        run_suites(dataclasses.replace(scene, suites=("geometry", "codazzi")))


@pytest.mark.parametrize(
    "codazzi_body",
    [
        "variant = explicit\nq11 = 1 + 0.05*u1\nq12 = 0\nq13 = 0\n"
        "q21 = 0\nq22 = 1 + 0.05*u1\nq23 = 0\nq31 = 0\nq32 = 0\n"
        "q33 = 1 + 0.05*u1\n",
        "variant = gh\ng = 0*u1\nh = 1 + 0*u2\n",
    ],
    ids=["explicit", "gh"],
)
def test_run_parses_no_dsl_after_load(tmp_path, monkeypatch, codazzi_body):
    # the spec keeps the ASTs parsed when the scene was loaded, so neither
    # the sample pass nor any path integrand parses again
    path = tmp_path / "scene.scene"
    path.write_text(
        f"[chart]\ncatalog = graph3\n[codazzi]\n{codazzi_body}"
        "[run]\ngrid = 3\nsuites = codazzi, deformation\n"
    )
    scene = load_scene(str(path))
    calls = []
    parse = expr.parse

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(expr, "parse", counting)
    rep = run_suites(scene)
    assert "deformation" in {c.suite for c in rep.checks}
    assert calls == []


_W = "(sqrt(1 + 4*u1^2 + 16*u2^2 + 36*u3^2))"
_GRAD, _HESS = ("(2*u1)", "(4*u2)", "(6*u3)"), ("2", "4", "6")
# Id - 0.05 A of graph3, entrywise
_GRAPH_EXPLICIT = "".join(
    f"q{k + 1}{j + 1} = {int(k == j)} + 0.05*({int(k == j)} - "
    f"{_GRAD[k]}*{_GRAD[j]}/{_W}^2)*{_HESS[j]}/{_W}\n"
    for k in range(3)
    for j in range(3)
)
_CODAZZI = [("codazzi", n, PASS) for n in ("commutator", "codazzi_Q")]
_CURVED = [("codazzi", n, PASS) for n in ("deformed_connection", "deformed_curvature")]
_POINTWISE = [
    ("deformation", n, PASS)
    for n in ("dF", "metric", "shape", "selfadjoint_At", "codazzi_At",
              "gauss_congruence", "wedge", "kernel_angle", "loop",
              "path_vs_closed", "path_order_swap")
]
_ROUNDTRIP = ("extract_closedness", "roundtrip_gauge", "gauge_recovery")
_PAIR_CHECKS = [("deformation", "pair_q", PASS)] + _POINTWISE
_VARIANT_CHECKS = {
    "parallel": (
        "sphere3\nr = 2\n[codazzi]\nvariant = parallel\nt = 1\n",
        _CODAZZI + _CURVED + _PAIR_CHECKS,
    ),
    "minusA": (
        "sphere3\n[codazzi]\nvariant = minusA\n",
        _CODAZZI + _CURVED + _PAIR_CHECKS,
    ),
    "gh": (
        "sphere3\n[codazzi]\nvariant = gh\ng = 0*u1\nh = 1 + 0*u2\n",
        _CODAZZI + [("codazzi", "gh_constraint", PASS)] + _CURVED + _POINTWISE,
    ),
    "explicit": (
        "graph3\n[codazzi]\nvariant = explicit\n" + _GRAPH_EXPLICIT,
        _CODAZZI + _CURVED
        + [("deformation", n, PASS) for n in ("loop", "path_order_swap", "fd_jacobian",
                                             "fd_metric", "fd_gauss", "fd_shape")],
    ),
}


@pytest.mark.parametrize("variant", list(_VARIANT_CHECKS))
def test_each_variant_reports_its_own_check_list(variant):
    # pair_q only where a direct Q has a pair, gh_constraint only where Q
    # came from a pair, and a roundtrip only where there is a pair at all
    body, expected = _VARIANT_CHECKS[variant]
    rep = run_suites(parse_scene(
        f"[chart]\ncatalog = {body}[run]\ngrid = 3\n"
        "suites = codazzi, deformation, roundtrip\n"
    ))
    roundtrip = SKIP if variant == "explicit" else PASS
    expected = expected + [("roundtrip", n, roundtrip) for n in _ROUNDTRIP]
    assert [(c.suite, c.name, c.verdict) for c in rep.checks] == expected


def test_check_table_has_no_dead_row_and_no_unlisted_check():
    # the variant scenes, one single-point and one order-2 run report only
    # rows of the table, in table order, as a pass or a skip; every row
    # passes in one of them, since a row skipped everywhere is dead
    reports = [
        run_suites(parse_scene(
            f"[chart]\ncatalog = {body}[run]\ngrid = 3\n"
            "suites = codazzi, deformation, roundtrip\n"
        ))
        for body, _ in _VARIANT_CHECKS.values()
    ]
    reports.append(run_suites(parse_scene(SPHERE), point=(0.6, 0.7, 0.8)))
    reports.append(run_suites(parse_scene(
        "[chart]\ncatalog = sphere3\nr = 2\n[run]\ngrid = 3\norder = 2\n"
        "suites = geometry\n"
    )))
    rows = [(c.suite, c.name) for c in CHECKS]
    assert len(set(rows)) == len(DEFAULT_TOL) == len(rows)
    passed = set()
    for rep in reports:
        got = [(c.suite, c.name) for c in rep.checks]
        assert all(c.verdict in (PASS, SKIP) for c in rep.checks)
        assert got == [row for row in rows if row in got]
        passed.update((c.suite, c.name) for c in rep.checks if c.verdict == PASS)
    assert passed == set(rows)
    with pytest.raises(KeyError):  # a suite cannot report a check with no row
        suites._emit("codazzi", {"metric": np.zeros(1)}, None, DEFAULT_TOL)


def test_readme_check_list_matches_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Checks and default tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if line.startswith("| ") and cells[0] != "suite":
            rows.append((cells[0], cells[1], float(cells[2])))
    assert rows == [(c.suite, c.name, c.tol) for c in CHECKS]
