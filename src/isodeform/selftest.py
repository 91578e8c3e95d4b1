"""Built-in acceptance suite: eleven criteria, one pass/fail line each.

Every criterion pins its chart, operator, grid, and tolerance explicitly so
the suite is a complete, reproducible statement of what this package claims
to compute.  Seven criteria are verdicts of the suites themselves: each
names scenes, built here in code, and checks of their reports, and passes
iff every named check does; each scene runs once through ``run_suites``,
at the default tolerances except where a scene sets its own.  The
sphere-offset and Gauss-translation examples, the negative controls and
the oracle agreement have their own code.  ``run_selftest`` prints one
line per criterion and returns True iff all pass; the test suite calls the
same criterion functions.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import tempfile
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import catalog
from .codazzi import Explicit, Parallel, gh_gauss_translation
from .deformation import (
    DeformationCheck,
    omega_loop_integral,
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
from .geometry import fd_oracle, frame_at, grid_points
from .report import PASS, VerificationReport
from .scene import Scene, parse_scene
from .suites import run_suites

Verdict = Tuple[bool, str]

_STRUCTURE = ("gauss", "codazzi_A", "weingarten")


def _scene(chart, spec, res: int, suites, order: int = 4, tol=None) -> Scene:
    return Scene(
        chart=chart,
        spec=spec,
        grid=(res,) * chart.n,
        order=order,
        suites=suites,
        tol=tol or {},
    )


def _structure_scene(chart) -> Scene:
    return _scene(chart, None, 9, ("geometry",), 3, dict.fromkeys(_STRUCTURE, 1e-8))


# The scenes the criteria run, by name.
_SCENES: Dict[str, Callable[[], Scene]] = {
    "sphere3": lambda: _structure_scene(catalog.build("sphere3", r=2.0)),
    "ellipsoid3": lambda: _structure_scene(
        catalog.build("ellipsoid3", a=2.0, b=1.5, c=1.0, d=1.0)
    ),
    "graph3": lambda: _structure_scene(catalog.build("graph3")),
    "sphere": lambda: _scene(
        catalog.build("sphere3", r=2.0), Parallel(1.0), 9, ("deformation",)
    ),
    "translation": lambda: _scene(
        catalog.build("graph3"),
        gh_gauss_translation((0.3, -0.1, 0.2, 0.5)),
        9,
        ("deformation",),
    ),
    "graph": lambda: _scene(
        catalog.build("graph3"), Parallel(0.05), 9, ("codazzi", "deformation")
    ),
    "sphcyl": lambda: _scene(
        catalog.build("sphcyl4", r=1.0), Parallel(0.3), 5, ("deformation",)
    ),
    "roundtrip": lambda: _scene(
        catalog.build("sphere3", r=2.0), Parallel(1.0), 7, ("roundtrip",)
    ),
}


@functools.lru_cache(maxsize=None)
def _report(key: str) -> VerificationReport:
    return run_suites(_SCENES[key]())


def _from_suites(keys: Sequence[str], names: Sequence[str]) -> Callable[[], Verdict]:
    """The criterion whose verdict is that of the checks ``names`` in the
    reports of the scenes ``keys``; its detail gives each check's worst
    residual over them."""

    def criterion() -> Verdict:
        reports = [_report(key) for key in keys]
        ok, parts = True, []
        for name in names:
            found = [rep.find(name) for rep in reports]
            ok = ok and all(c.verdict == PASS for c in found)
            worst = max(c.max_residual for c in found)
            parts.append(f"{name} {worst:.3e} (tol {found[0].tolerance:.0e})")
        runs = "/".join(f"{rep.chart_label} {rep.grid[0]}^{rep.n}" for rep in reports)
        return ok, f"{', '.join(parts)} on {runs}"

    return criterion


@functools.lru_cache(maxsize=None)
def _deformation_run(key: str) -> DeformationCheck:
    """``verify_deformation`` on one named scene's grid."""
    scene = _SCENES[key]()
    pts = grid_points(scene.chart, scene.grid)
    return verify_deformation(scene.chart, pts, scene.spec)


def criterion_sphere_parallel_offset() -> Verdict:
    """Offset of the round sphere: F = 1.5 f with A~ = -Id/3."""
    chk = _deformation_run("sphere")
    scaled = float(np.abs(chk.frameF.f - 1.5 * chk.frame.f).max())
    metric = float(np.abs(chk.frameF.g - 2.25 * chk.frame.g).max())
    eye = np.eye(chk.frame.n)
    shape = float(np.abs(chk.frameF.A + eye / 3.0).max())
    ok = scaled < 1e-10 and metric < 1e-10 and shape < 1e-9 and chk.sign == 1
    return ok, (
        f"|F - 1.5f| {scaled:.3e} (tol 1e-10), |gF - 2.25g| {metric:.3e} "
        f"(tol 1e-10), |AF + Id/3| {shape:.3e} (tol 1e-9), sign {chk.sign:+d}"
    )


def criterion_gauss_translation() -> Verdict:
    """Translated Gauss map: F = a + N with the third fundamental form."""
    chk = _deformation_run("translation")
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
    loop = omega_loop_integral(plane, spec, [[(0, 0), (1, 1)]])[0]
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
    # the 100 points in draw order, then one batched call per chart
    points: List[list] = [[] for _ in charts]
    for k in range(100):
        chart = charts[k % len(charts)]
        lo, hi = np.asarray(chart.lo), np.asarray(chart.hi)
        pad = 0.05 * (hi - lo)
        points[k % len(charts)].append(rng.uniform(lo + pad, hi - pad))
    worst = 0.0
    for chart, u in zip(charts, map(np.array, points)):
        fr = frame_at(chart, u, order=2)
        for jet_val, fd_val in zip((fr.f, fr.J, fr.d2f), fd_oracle(chart, u)):
            axes = tuple(range(1, fd_val.ndim))  # per point
            err = np.abs(jet_val - fd_val).max(axes) / np.maximum(
                1.0, np.abs(fd_val).max(axes)
            )
            worst = max(worst, float(err.max()))
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
    ("structure-equations", _from_suites(("sphere3", "ellipsoid3", "graph3"), _STRUCTURE)),
    ("sphere-parallel-offset", criterion_sphere_parallel_offset),
    ("gauss-translation", criterion_gauss_translation),
    ("metric-realization", _from_suites(("graph",), ("metric", "dF"))),
    (
        "deformed-connection-curvature",
        _from_suites(("graph",), ("deformed_connection", "deformed_curvature")),
    ),
    (
        "loop-and-path-integration",
        _from_suites(("sphere", "graph"), ("loop", "path_vs_closed", "path_order_swap")),
    ),
    ("wedge-and-kernel", _from_suites(("sphcyl",), ("wedge", "kernel_angle"))),
    (
        "gauss-map-congruence",
        _from_suites(("sphere", "translation", "graph", "sphcyl"), ("gauss_congruence",)),
    ),
    ("roundtrip-gauge", _from_suites(("roundtrip",), ("roundtrip_gauge", "gauge_recovery"))),
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
