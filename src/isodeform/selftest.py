"""Built-in acceptance suite: eleven criteria, one pass/fail line each.

Every criterion pins its chart, operator, grid, and tolerance explicitly so
the suite is a complete, reproducible statement of what this package claims
to compute.  ``run_selftest`` prints one line per criterion and returns
True iff all pass; the test suite calls the same criterion functions.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import catalog
from .codazzi import (
    Explicit,
    Parallel,
    codazzi_frame_from_jets,
    deformed_christoffel_jets,
    deformed_connection_residual_field,
    deformed_curvature_residual_field,
    gh_gauss_translation,
    q_jets,
)
from .deformation import (
    LoopRect,
    closed_form_immersion,
    extract_gh,
    gauge_fit,
    grid_frame,
    omega_loop_integral,
    omega_loop_residual,
    pair_on_grid,
    path_dependence_residual,
    path_integral_on_grid,
    verify_deformation,
)
from .expr import (
    BinOp,
    Call,
    FUNCTIONS,
    Neg,
    Num,
    Pi,
    Var,
    parse,
    to_string,
)
from .geometry import (
    chart_jets,
    codazzi_A_residual_field,
    fd_oracle,
    frame_at,
    frame_from_jets,
    gauss_residual_field,
    grid_points,
    weingarten_residual_field,
)
from .scene import parse_scene
from .suites import run_suites

Verdict = Tuple[bool, str]

# The four deformation configurations the criteria reuse.  Cached so the
# Gauss-map congruence criterion can look at every run without recomputing.
_RUN_PARAMS = {
    "sphere": (lambda: catalog.build("sphere3", r=2.0), Parallel(1.0), 9),
    "translation": (
        lambda: catalog.build("graph3"),
        gh_gauss_translation((0.3, -0.1, 0.2, 0.5)),
        9,
    ),
    "graph": (lambda: catalog.build("graph3"), Parallel(0.05), 9),
    "sphcyl": (lambda: catalog.build("sphcyl4", r=1.0), Parallel(0.3), 5),
}
_RUN_CACHE: Dict[str, tuple] = {}


def _deformation_run(key: str):
    """(chart, spec, DeformationCheck) for one named configuration."""
    if key not in _RUN_CACHE:
        make, spec, res = _RUN_PARAMS[key]
        chart = make()
        pts = grid_points(chart, res)
        _RUN_CACHE[key] = (chart, spec, verify_deformation(chart, pts, spec, order=4))
    return _RUN_CACHE[key]


def criterion_structure_equations() -> Verdict:
    """Gauss, Codazzi, and Weingarten residuals on three catalog charts."""
    charts = (
        catalog.build("sphere3", r=2.0),
        catalog.build("ellipsoid3", a=2.0, b=1.5, c=1.0, d=1.0),
        catalog.build("graph3"),
    )
    worst = 0.0
    for chart in charts:
        frame = frame_from_jets(chart_jets(chart, grid_points(chart, 9), 3))
        worst = max(
            worst,
            float(gauss_residual_field(frame).max()),
            float(codazzi_A_residual_field(frame).max()),
            float(weingarten_residual_field(frame).max()),
        )
    return worst < 1e-8, (
        f"worst structure-equation residual {worst:.3e} on "
        f"sphere3/ellipsoid3/graph3 9^3 grids (tol 1e-8)"
    )


def criterion_sphere_parallel_offset() -> Verdict:
    """Offset of the round sphere: F = 1.5 f with A~ = -Id/3."""
    chart, _, chk = _deformation_run("sphere")
    scaled = float(np.abs(chk.frameF.f - 1.5 * chk.frame.f).max())
    metric = float(np.abs(chk.frameF.g - 2.25 * chk.frame.g).max())
    eye = np.eye(chart.n)
    shape = float(np.abs(chk.frameF.A + eye / 3.0).max())
    ok = scaled < 1e-10 and metric < 1e-10 and shape < 1e-9 and chk.sign == 1
    return ok, (
        f"|F - 1.5f| {scaled:.3e} (tol 1e-10), |gF - 2.25g| {metric:.3e} "
        f"(tol 1e-10), |AF + Id/3| {shape:.3e} (tol 1e-9), sign {chk.sign:+d}"
    )


def criterion_gauss_translation() -> Verdict:
    """Translated Gauss map: F = a + N with the third fundamental form."""
    _, spec, chk = _deformation_run("translation")
    a = np.array([0.3, -0.1, 0.2, 0.5])
    shift = float(np.abs(chk.frameF.f - (a + chk.frame.N)).max())
    third = np.einsum(
        "...ik,...km,...mj->...ij", chk.frame.g, chk.frame.A, chk.frame.A
    )
    metric = float(np.abs(chk.frameF.g - third).max())
    ok = shift < 1e-10 and metric < 1e-9
    return ok, (
        f"|F - (a + N)| {shift:.3e} (tol 1e-10), "
        f"|gF - g A^2| {metric:.3e} (tol 1e-9)"
    )


def criterion_metric_realization() -> Verdict:
    """dF = J Q and induced metric g Q^2 on a generic graph chart."""
    _, _, chk = _deformation_run("graph")
    gQQ = np.einsum(
        "...ik,...km,...mj->...ij", chk.frame.g, chk.cf.Q, chk.cf.Q
    )
    metric = float(np.abs(chk.frameF.g - gQQ).max())
    dF = chk.dF_residual
    ok = metric < 1e-9 and dF < 1e-9
    return ok, (
        f"|gF - g Q^2| {metric:.3e} (tol 1e-9), "
        f"|dF - J Q| {dF:.3e} (tol 1e-9)"
    )


def criterion_deformed_connection_curvature() -> Verdict:
    """Deformed Christoffel symbols and curvature on the graph chart."""
    chart = catalog.build("graph3")
    spec = Parallel(0.05)
    cj = chart_jets(chart, grid_points(chart, 9), 4)
    frame = frame_from_jets(cj)
    qj = q_jets(cj, spec)[0]
    cf = codazzi_frame_from_jets(qj, frame)
    Gt = deformed_christoffel_jets(cj, qj)
    conn = float(deformed_connection_residual_field(cj, frame, cf, Gt).max())
    curv = float(deformed_curvature_residual_field(cj, frame, cf, Gt).max())
    ok = conn < 1e-7 and curv < 1e-6
    return ok, (
        f"connection residual {conn:.3e} (tol 1e-7), "
        f"curvature residual {curv:.3e} (tol 1e-6)"
    )


def criterion_loop_and_path_integration() -> Verdict:
    """omega is closed and its path integral rebuilds F up to a constant."""
    worst_loop = worst_spread = worst_swap = 0.0
    for key in ("sphere", "graph"):
        chart, spec, _ = _deformation_run(key)
        worst_loop = max(worst_loop, omega_loop_residual(chart, spec)[0])
        mesh, Fp = path_integral_on_grid(chart, spec, 9)
        flat = mesh.reshape(-1, chart.n)
        diff = Fp.reshape(-1, chart.ambient_dim) - closed_form_immersion(
            chart, spec
        )(flat)
        spread = float((diff.max(axis=0) - diff.min(axis=0)).max())
        worst_spread = max(worst_spread, spread)
        worst_swap = max(worst_swap, path_dependence_residual(chart, spec, 5))
    ok = worst_loop < 1e-9 and worst_spread < 1e-7 and worst_swap < 1e-8
    return ok, (
        f"loop residual {worst_loop:.3e} (tol 1e-9), constant-offset spread "
        f"{worst_spread:.3e} (tol 1e-7), order swap {worst_swap:.3e} (tol 1e-8)"
    )


def criterion_wedge_and_kernel() -> Verdict:
    """Wedge identity and kernel alignment on a rank-3 chart in R^5."""
    _, _, chk = _deformation_run("sphcyl")
    wedge = chk.wedge_residual
    angle = chk.kernel_angle
    ok = wedge < 1e-9 and angle < 1e-6
    return ok, (
        f"wedge residual {wedge:.3e} (tol 1e-9), "
        f"kernel principal angle {angle:.3e} rad (tol 1e-6)"
    )


def criterion_gauss_map_congruence() -> Verdict:
    """The Gauss maps of f and F agree up to the global sign, on all runs."""
    worst = max(
        _deformation_run(key)[2].gauss_residual for key in _RUN_PARAMS
    )
    return worst < 1e-9, (
        f"worst |N_F - sign N| {worst:.3e} over "
        f"{len(_RUN_PARAMS)} deformation runs (tol 1e-9)"
    )


def criterion_roundtrip_gauge() -> Verdict:
    """Recover (g, h) from F alone, up to the affine gauge freedom."""
    chart = catalog.build("sphere3", r=2.0)
    spec = Parallel(1.0)
    fr = grid_frame(chart, 7)
    ext = extract_gh(chart, closed_form_immersion(chart, spec), fr)
    true = pair_on_grid(spec.pair(), fr)
    fit = gauge_fit(fr, ext, true)
    # synthetic shift with known gauge: g + <f,a> + c, h + <N,a>
    a0 = np.array([0.3, -0.1, 0.2, 0.5])
    c0 = 1.7
    shifted = type(true)(
        points=true.points,
        g=true.g + fr.f @ a0 + c0,
        h=true.h + fr.N @ a0,
        grad_g=true.grad_g,
        closed_residual=0.0,
    )
    fit2 = gauge_fit(fr, true, shifted)
    recovery = max(float(np.abs(fit2.a - a0).max()), abs(float(fit2.c) - c0))
    ok = fit.residual < 1e-6 and recovery < 1e-8
    return ok, (
        f"gauge-fit residual {fit.residual:.3e} (tol 1e-6), "
        f"synthetic (a, c) recovered to {recovery:.3e} (tol 1e-8)"
    )


_NONCOMMUTING_SCENE = """
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
suites = codazzi, deformation
"""

_PLANE_SCENE = """
[chart]
catalog = plane2
[codazzi]
variant = parallel
t = 0.5
[run]
grid = 5
suites = deformation
"""


def criterion_negative_controls() -> Verdict:
    """Non-Codazzi, non-commuting, and rank-deficient inputs must fail."""
    # (a) Q = diag(1, 1 + u1) on the flat plane is not Codazzi; the unit
    # square circulation of omega picks up exactly (0, -1, 0).
    plane = catalog.build("plane2")
    spec = Explicit((("1", "0"), ("0", "1 + u1")))
    rect = LoopRect(0, 1, 0.0, 1.0, 0.0, 1.0, (0.0, 0.0))
    loop = omega_loop_integral(plane, spec, rect)
    loop_err = float(np.abs(loop - np.array([0.0, -1.0, 0.0])).max())
    loop_ok = loop_err <= 1e-8

    # (b) Q = g^{-1} diag(3,1,2) on graph3 is self-adjoint but does not
    # commute with A; commutator and metric-realization checks must blow up.
    report = run_suites(parse_scene(_NONCOMMUTING_SCENE))
    comm = report.find("commutator").max_residual
    metr = report.find("fd_metric").max_residual
    noncomm_ok = comm > 1e-3 and metr > 1e-3 and bool(report.failed)

    # (c) the flat plane has A = 0, so the rank gate must refuse with
    # exit code 3 at the CLI boundary.
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plane.scene")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_PLANE_SCENE)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli_main(["verify", path])
    gate_ok = code == 3 and "rank A >= 3 violated" in err.getvalue()

    ok = loop_ok and noncomm_ok and gate_ok
    return ok, (
        f"unit-square loop error {loop_err:.3e} vs (0,-1,0) (tol 1e-8); "
        f"non-commuting commutator {comm:.3e} and metric realization "
        f"{metr:.3e} (both > 1e-3, report {report.to_json_dict()['result']}); "
        f"rank gate exit code {code}"
    )


def _random_ast(rng: np.random.Generator, depth: int, n_vars: int):
    """Random expression tree; leaves only at depth 0."""
    kind = rng.integers(0, 4) if depth > 0 else 3
    if kind == 0:
        return Neg(_random_ast(rng, depth - 1, n_vars))
    if kind == 1:
        op = "+-*/^"[rng.integers(0, 5)]
        return BinOp(
            op,
            _random_ast(rng, depth - 1, n_vars),
            _random_ast(rng, depth - 1, n_vars),
        )
    if kind == 2:
        name = FUNCTIONS[rng.integers(0, len(FUNCTIONS))]
        return Call(name, _random_ast(rng, depth - 1, n_vars))
    leaf = rng.integers(0, 3)
    if leaf == 0:
        return Pi()
    if leaf == 1:
        return Var(int(rng.integers(0, n_vars)))
    return Num(float(np.round(rng.uniform(0, 10), 6)))


def criterion_oracle_agreement() -> Verdict:
    """Jets vs finite differences, and printer/parser fixpoint."""
    rng = np.random.default_rng(20260816)
    charts = [
        catalog.build("plane2"),
        catalog.build("torus2", R=2.0, r=0.5),
        catalog.build("sphere3", r=2.0),
        catalog.build("ellipsoid3", a=2.0, b=1.5, c=1.0, d=1.0),
        catalog.build("graph3"),
        catalog.build("sphcyl4", r=1.0),
    ]
    worst = 0.0
    for k in range(100):
        chart = charts[k % len(charts)]
        lo = np.asarray(chart.lo)
        hi = np.asarray(chart.hi)
        pad = 0.05 * (hi - lo)
        u = rng.uniform(lo + pad, hi - pad)
        f, J, d2f = fd_oracle(chart, u)
        fr = frame_at(chart, u, order=2)
        for jet_val, fd_val in ((fr.f, f), (fr.J, J), (fr.d2f, d2f)):
            err = np.abs(jet_val - fd_val).max() / max(1.0, np.abs(fd_val).max())
            worst = max(worst, float(err))
    fd_ok = worst < 1e-5

    fixpoints = 0
    for _ in range(500):
        ast = _random_ast(rng, depth=int(rng.integers(1, 5)), n_vars=3)
        text = to_string(ast)
        reparsed = parse(text, 3)
        if reparsed == ast and to_string(reparsed) == text:
            fixpoints += 1
    parse_ok = fixpoints == 500

    ok = fd_ok and parse_ok
    return ok, (
        f"jet vs finite-difference relative error {worst:.3e} over 100 "
        f"random points (tol 1e-5); parser fixpoint {fixpoints}/500"
    )


CRITERIA: List[Tuple[str, Callable[[], Verdict]]] = [
    ("structure-equations", criterion_structure_equations),
    ("sphere-parallel-offset", criterion_sphere_parallel_offset),
    ("gauss-translation", criterion_gauss_translation),
    ("metric-realization", criterion_metric_realization),
    ("deformed-connection-curvature", criterion_deformed_connection_curvature),
    ("loop-and-path-integration", criterion_loop_and_path_integration),
    ("wedge-and-kernel", criterion_wedge_and_kernel),
    ("gauss-map-congruence", criterion_gauss_map_congruence),
    ("roundtrip-gauge", criterion_roundtrip_gauge),
    ("negative-controls", criterion_negative_controls),
    ("oracle-agreement", criterion_oracle_agreement),
]


def run_selftest(stream=None) -> bool:
    """Run all acceptance criteria; print one line each; True iff all pass."""
    out = stream if stream is not None else sys.stdout
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out, flush=True)
        all_ok = all_ok and ok
    return all_ok
