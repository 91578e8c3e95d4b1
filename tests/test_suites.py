"""Suite orchestration: reports, determinism, rank gate, skip logic."""

import dataclasses

import numpy as np
import pytest

from isodeform import codazzi, deformation, expr, geometry, jet, suites
from isodeform.errors import HypothesisError, SceneError
from isodeform.report import FAIL, PASS, SKIP
from isodeform.scene import load_scene, parse_scene
from isodeform.suites import DEFAULT_TOL, resolve_tolerances, run_suites

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
    """Record the order of every chart jet, normal, metric, Christoffel and
    inverse built."""
    built = {"chart": [], "normal": [], "metric": [], "christoffel": [], "inverse": []}
    build_jets = geometry.chart_jets
    inverse = geometry.mat_inv

    def counting_jets(chart, u, order=3):
        built["chart"].append(order)
        return build_jets(chart, u, order)

    def counting(name, build):
        def counting_build(cj, order):
            # the lower-order build is dropped before a higher one is made
            assert name not in cj._built
            built[name].append(order)
            return build(cj, order)

        return counting_build

    def counting_inverse(M, gate=None):
        built["inverse"].append(M[0, 0].order)
        return inverse(M, gate)

    for mod in (suites, deformation):
        monkeypatch.setattr(mod, "chart_jets", counting_jets)
    for name in ("normal", "metric", "christoffel"):
        attr = "_" + name
        build = getattr(geometry.ChartJets, attr)
        monkeypatch.setattr(geometry.ChartJets, attr, counting(name, build))
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


def test_pair_scene_builds_the_full_order_normal_once_per_chunk(monkeypatch):
    # the pair's h and F read the normal and g at K-1 = 3, and its Hessian
    # the Christoffel symbols at K-2 = 2: one build of each per chunk, made
    # after the frame's lower-order build is dropped
    scene = parse_scene(
        SPHERE.replace("grid = 4", "grid = 3\nsuites = geometry, codazzi, deformation")
    )
    monkeypatch.setattr(suites, "CHUNK", 10)
    built = _count_jet_builds(monkeypatch)
    rep = run_suites(scene)
    assert not rep.failed
    assert built["chart"].count(4) == 3
    assert built["normal"].count(3) == built["metric"].count(3) == 3
    assert built["christoffel"].count(2) == 3


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
