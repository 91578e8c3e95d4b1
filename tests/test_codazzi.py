"""Deformation-operator tests against closed forms and negative controls."""

import ast
from pathlib import Path

import numpy as np
import pytest

from isodeform import catalog, codazzi, deformation, expr as exprmod, geometry
from isodeform.codazzi import (
    Explicit,
    GHPair,
    MinusA,
    Parallel,
    codazzi_Q_residual_field,
    commutator_residual_field,
    deformed_connection_residual_field,
    deformed_curvature_residual_field,
    deformed_metric,
    deformed_metric_jets,
    q_jets,
)
from isodeform.errors import HypothesisError
from isodeform.geometry import ValueFrame, chart_jets, frame_from_jets, grid_points
from isodeform.jet import values


def setup_case(chart, u, spec, order=3):
    cj = chart_jets(chart, u, order)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, spec)[0]
    cf = codazzi.codazzi_frame_from_jets(qj, frame)
    return cj, frame, qj, cf


def test_parallel_and_minus_a_jets_are_entrywise_exact():
    # q_jets builds Id - tA and -A (the latter by object-array negation)
    # with each entry's own jet arithmetic, so the coefficients are equal
    cj = chart_jets(catalog.graph3(), [[0.1, 0.2, -0.3], [0.2, 0.0, 0.1]], 3)
    A = cj.Ajet
    for spec, entry in (
        (Parallel(0.3), lambda i, j: (1.0 if i == j else 0.0) - 0.3 * A[i, j]),
        (MinusA(), lambda i, j: -A[i, j]),
    ):
        Q = q_jets(cj, spec)[0]
        for i, j in np.ndindex(3, 3):
            assert np.array_equal(Q[i, j].coef, entry(i, j).coef)


def test_parallel_on_sphere_is_scalar():
    # A = -Id/r, so Q = Id - tA = (1 + t/r) Id
    ch = catalog.sphere3(2.0)
    cj, frame, qj, cf = setup_case(ch, [0.7, 0.8, 0.9], Parallel(1.0), order=4)
    assert np.allclose(cf.Q, 1.5 * np.eye(3), atol=1e-12)
    assert np.allclose(cf.Q_inv, np.eye(3) / 1.5, atol=1e-12)
    assert commutator_residual_field(frame, cf).max() < 1e-13
    assert codazzi_Q_residual_field(frame, cf).max() < 1e-10
    gt = deformed_metric(frame.g, cf.Q)
    assert np.allclose(gt, 2.25 * frame.g, atol=1e-12)
    # scalar constant Q leaves the connection and curvature unchanged
    Gt = codazzi.deformed_christoffel_jets(cj, qj)
    assert deformed_connection_residual_field(cj, frame, cf, Gt).max() < 1e-10
    assert deformed_curvature_residual_field(cj, frame, cf, Gt).max() < 1e-9
    G1 = values(Gt)
    assert np.abs(G1 - frame.Gamma).max() < 1e-10


def _curvature_residuals(cj, frame, qj, cf):
    Gt = codazzi.deformed_christoffel_jets(cj, qj)
    return (
        geometry.gauss_residual_field(frame).max(),
        geometry.bianchi_first_residual_field(frame).max(),
        deformed_curvature_residual_field(cj, frame, cf, Gt).max(),
    )


def test_curvature_checks_see_one_packed_entry_moved(monkeypatch):
    # R holds only its pairs i < j; each check reading it must still see a
    # change of one of them: R^0_{2 01} of the frame for gauss, bianchi1 and
    # the deformed curvature, R~^0_{2 01} of the deformed side for the last
    pts = [[0.6, 0.7, 0.8, 0.1], [0.9, 1.1, 0.5, -0.2]]
    case = setup_case(catalog.sphcyl4(), pts, Parallel(0.3), order=4)
    assert max(_curvature_residuals(*case)) < 1e-9
    frame = case[1]
    frame.R[..., 0, 2, 0] += 1e-6
    assert min(_curvature_residuals(*case)) >= 1e-7
    frame.R[..., 0, 2, 0] -= 1e-6
    real = codazzi.curvature_values

    def moved(Gamma_jets):
        R = real(Gamma_jets)
        R[..., 0, 2, 0] += 1e-6
        return R

    monkeypatch.setattr(codazzi, "curvature_values", moved)
    assert _curvature_residuals(*case)[2] >= 1e-7


def test_gauss_translation_pair_gives_minus_A():
    # g = <f, a>, h = <N, a> + 1 yields Q = -A for any constant a;
    # on the sphere N = f/r makes h expressible from g
    ch = catalog.sphere3(2.0)
    a = [0.3, -0.2, 0.5, 0.1]
    g_src = " + ".join(
        f"{ai!r}*({exprmod.to_string(c)})" for ai, c in zip(a, ch.components)
    )
    h_src = f"0.5*({g_src}) + 1"
    u = np.array([0.7, 0.8, 0.9])
    cj = chart_jets(ch, u, 3)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, GHPair(g_src, h_src))[0]
    assert np.allclose(values(qj), -frame.A, atol=1e-10)
    qj2 = q_jets(cj, MinusA())[0]
    assert np.allclose(
        values(qj), values(qj2), atol=1e-10
    )


def test_constant_pair_matches_parallel_on_sphere():
    # |f|^2/2 and <f,N> are constant on the sphere, so the parallel pair
    # (g, h) = (r^2/2, r + t) has hess(g) = 0 and Q = -(r + t) A
    ch = catalog.sphere3(2.0)
    u = np.array([0.7, 0.8, 0.9])
    cj = chart_jets(ch, u, 3)
    q_gh = values(q_jets(cj, GHPair("2", "3"))[0])
    q_par = values(q_jets(cj, Parallel(1.0))[0])
    assert np.allclose(q_gh, q_par, atol=1e-12)
    assert np.allclose(q_gh, 1.5 * np.eye(3), atol=1e-12)


def test_graph_parallel_pair_from_dsl_fields():
    # Monge graph: |f|^2/2 and <f,N> + t have closed DSL forms; the induced
    # Q must equal Id - t A
    ch = catalog.graph3()
    phi = "u1^2 + 2*u2^2 + 3*u3^2"
    w2 = "(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)"
    g_src = f"0.5*(u1^2 + u2^2 + u3^2 + ({phi})^2)"
    h_src = f"(2*u1^2 + 4*u2^2 + 6*u3^2 - ({phi}))/sqrt({w2}) + 0.05"
    pts = grid_points(ch, 3)
    cj = chart_jets(ch, pts, 3)
    frame = frame_from_jets(cj)
    qv = values(q_jets(cj, GHPair(g_src, h_src))[0])
    expected = np.eye(3) - 0.05 * frame.A
    assert np.abs(qv - expected).max() < 1e-11


def test_gh_gradient_constraint_violation_raises():
    ch = catalog.sphere3(2.0)
    cj = chart_jets(ch, [0.7, 0.8, 0.9], 3)
    with pytest.raises(HypothesisError, match="gradient constraint"):
        q_jets(cj, GHPair("u1", "u2"))


@pytest.mark.parametrize(
    "chart,spec,order",
    [
        (catalog.torus2(), Parallel(0.1), 4),
        (catalog.graph3(), Parallel(0.05), 4),
        (catalog.ellipsoid3(), MinusA(), 4),
    ],
    ids=["torus-parallel", "graph-parallel", "ellipsoid-minusA"],
)
def test_deformed_geometry_identities_on_grid(chart, spec, order):
    pts = grid_points(chart, 3)
    cj = chart_jets(chart, pts, order)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, spec)[0]
    cf = codazzi.codazzi_frame_from_jets(qj, frame)
    assert commutator_residual_field(frame, cf).max() < 1e-12
    assert codazzi_Q_residual_field(frame, cf).max() < 1e-9
    Gt = codazzi.deformed_christoffel_jets(cj, qj)
    assert deformed_connection_residual_field(cj, frame, cf, Gt).max() < 1e-9
    assert deformed_curvature_residual_field(cj, frame, cf, Gt).max() < 1e-7
    gt = deformed_metric(frame.g, cf.Q)
    gt_jets = values(deformed_metric_jets(cj, qj))
    assert np.abs(gt - gt_jets).max() < 1e-13


def test_singular_q_raises():
    ch = catalog.sphere3(2.0)
    cj = chart_jets(ch, [0.7, 0.8, 0.9], 3)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, Parallel(-2.0))[0]  # Id + 2A = 0 on the r=2 sphere
    with pytest.raises(HypothesisError, match="singular"):
        codazzi.codazzi_frame_from_jets(qj, frame)
    # an exactly singular deformed metric meets its gate before any division
    cj = chart_jets(catalog.plane2(), [0.3, 0.4], 3)
    qj = q_jets(cj, Explicit((("1", "0"), ("0", "0"))))[0]
    with pytest.raises(HypothesisError, match="deformed metric is singular"):
        codazzi.deformed_christoffel_jets(cj, qj)


def test_explicit_rejects_non_self_adjoint():
    ch = catalog.plane2()
    cj = chart_jets(ch, [0.3, 0.4], 3)
    with pytest.raises(HypothesisError, match="self-adjoint"):
        q_jets(cj, Explicit((("1", "u1"), ("0", "1"))))


def test_explicit_diagonal_plane_breaks_codazzi():
    # Q = diag(1, 1 + u1) on the flat plane is self-adjoint and commutes
    # with A = 0 but is not a Codazzi tensor
    ch = catalog.plane2()
    cj = chart_jets(ch, [0.3, 0.4], 3)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, Explicit((("1", "0"), ("0", "1 + u1"))))[0]
    cf = codazzi.codazzi_frame_from_jets(qj, frame)
    assert commutator_residual_field(frame, cf).max() < 1e-15
    assert codazzi_Q_residual_field(frame, cf).max() == pytest.approx(1.0)


def test_noncommuting_control_detected():
    # Q = g^{-1} S with constant diagonal S: g-self-adjoint by construction
    # (gQ = S) yet [Q, A] != 0 away from the critical point of phi.  S must
    # not be proportional to Hess(phi) or Q would commute after all.
    ch = catalog.graph3()
    dphi = ["2*u1", "4*u2", "6*u3"]
    w2 = "(1 + 4*u1^2 + 16*u2^2 + 36*u3^2)"
    S = [3.0, 1.0, 2.0]
    entries = tuple(
        tuple(
            f"{S[j]} - {S[j]}*{dphi[i]}*{dphi[j]}/{w2}"
            if i == j
            else f"-({S[j]}*{dphi[i]}*{dphi[j]}/{w2})"
            for j in range(3)
        )
        for i in range(3)
    )
    pts = grid_points(ch, 3)
    cj = chart_jets(ch, pts, 3)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, Explicit(entries))[0]  # self-adjointness check passes
    cf = codazzi.codazzi_frame_from_jets(qj, frame)
    gv = values(cj.metric(0))
    gQ = np.einsum("...ik,...kj->...ij", gv, cf.Q)
    assert np.abs(gQ - np.diag(S)).max() < 1e-12
    assert commutator_residual_field(frame, cf).max() > 1e-3


def test_curvature_needs_order_four():
    ch = catalog.torus2()
    cj, frame, qj, cf = setup_case(ch, [1.0, 1.2], Parallel(0.1), order=3)
    Gt = codazzi.deformed_christoffel_jets(cj, qj)
    assert deformed_connection_residual_field(cj, frame, cf, Gt).max() < 1e-9
    with pytest.raises(ValueError, match="deformed curvature needs jet order 4"):
        deformed_curvature_residual_field(cj, frame, cf, Gt)


def test_explicit_entry_shape_checked():
    ch = catalog.plane2()
    cj = chart_jets(ch, [0.3, 0.4], 3)
    with pytest.raises(ValueError, match="entries"):
        q_jets(cj, Explicit((("1",),)))


def test_explicit_shared_subtree_error_keeps_its_offset():
    # log(u1 - 5) occurs in both diagonal entries, at offsets 6 and 0; once
    # interned it is one node, and the error still names the first occurrence
    # in evaluation order, as evaluating the entries one by one does
    spec = Explicit((("1 + 2*log(u1 - 5)", "0"), ("0", "log(u1 - 5)")))
    assert spec.asts(2)[0].right.right is spec.asts(2)[3]
    u = np.array([[0.3, 0.4], [0.5, 0.6]])
    with pytest.raises(exprmod.ExprError, match="log of a jet with value") as alone:
        exprmod.eval_values((exprmod.parse(spec.entries[0][0], 2),), u)[0]
    cj = chart_jets(catalog.plane2(), u, 2)
    with pytest.raises(exprmod.ExprError, match="log of a jet with value") as shared:
        spec.q_values(cj, ValueFrame(cj))
    assert shared.value.span == alone.value.span == (6, 17)
    assert str(shared.value) == str(alone.value)
    # the jet row reads the same shared node
    with pytest.raises(exprmod.ExprError, match="log of a jet") as jets:
        q_jets(chart_jets(catalog.plane2(), u, 3), spec)
    assert jets.value.span == (6, 17)
    assert str(jets.value) == str(alone.value)


_NAN = "u1*(exp(800) - exp(800))"  # inf - inf: NaN at every point


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "spec, message",
    [
        (
            Explicit(((_NAN, "0", "0"), ("0", "1", "0"), ("0", "0", "1"))),
            "not g-self-adjoint",
        ),
        (GHPair(_NAN, "1"), "gradient constraint"),
    ],
    ids=["explicit", "gh"],
)
def test_q_gates_refuse_nan(spec, message):
    # a NaN residual is not within any tolerance, on the jet route to Q and
    # on the value route of the path integrand alike
    chart = catalog.sphere3(2.0)
    cj = chart_jets(chart, [[0.7, 0.8, 0.9]], 3)
    with pytest.raises(HypothesisError, match=message):
        q_jets(cj, spec)
    with pytest.raises(HypothesisError, match=message):
        deformation.path_integral_immersion(
            chart, spec, [0.5, 0.5, 0.5], [[0.7, 0.8, 0.9]]
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowed_q_is_not_called_singular():
    # Q = Id - tA is finite at t = 1e308, but its singular values overflow
    cj = chart_jets(catalog.sphere3(), [0.7, 0.8, 0.9], 3)
    qj = q_jets(cj, Parallel(1e308))[0]
    assert np.isfinite(values(qj)).all()
    with pytest.raises(HypothesisError, match="not finite"):
        codazzi.codazzi_frame_from_jets(qj, frame_from_jets(cj))


def test_only_codazzi_tests_the_type_of_a_source():
    # callers ask a source for its Q and its pair; they never test its type
    sources = {
        name for name, obj in vars(codazzi).items()
        if isinstance(obj, type) and hasattr(obj, "q_values")
    }
    assert {"Parallel", "MinusA", "GHPair", "GHPairData", "Explicit"} <= sources
    offenders = []
    for path in sorted(Path(codazzi.__file__).parent.rglob("*.py")):
        if path.name == "codazzi.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) != "isinstance":
                continue
            named = {
                getattr(n, "id", getattr(n, "attr", None))
                for n in ast.walk(node.args[1])
            }
            if named & sources:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
