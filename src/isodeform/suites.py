"""Verification suites: batches of named residual checks over a sample grid.

Four suites cover the deformation theory end to end:

* ``geometry``: structure equations of the undeformed chart (Weingarten,
  Gauss formula, metric compatibility, Gauss equation, Codazzi equation,
  first Bianchi identity).
* ``codazzi``: the deformation operator Q (commutation with A, the Codazzi
  identity for Q, the scalar-pair gradient constraint, and the two-route
  checks of the deformed connection and curvature).
* ``deformation``: the deformed immersion F (dF = df o Q, induced metric,
  shape operator with its global sign, self-adjointness and Codazzi
  property of the deformed shape operator, Gauss map congruence, wedge
  identity, kernel matching, loop integrals and path independence).
* ``roundtrip``: recovery of the scalar pair from F and the affine-gauge
  fit between recovered and original pairs.

The suites ask the deformation source what it offers (see ``codazzi``).
``gh_constraint`` is reported when Q came with a gradient-constraint
field, ``pair_q`` when a direct Q was compared with its pair's Q.  With no
pair, F exists only through quadrature: loops, path order and FD probes
check it, and the roundtrip is skipped.

All pointwise work is one pass over the sample in CHUNK slices.  Each
slice builds its chart jets and frame once, and the jets and frame of Q
once when codazzi or deformation runs (with the jets of a scalar pair that
defines Q, and its gradient-constraint field); the geometry, codazzi and
deformation suites read those and put their fields into one name -> field
table, from which the checks are made.  The jet order K is 4 when codazzi
or deformation runs, else the scene order when geometry runs, else 2;
geometry fields do not depend on it, and geometry skips its curvature
checks when the scene order is below 3.  J is built at K-1; the normal,
g and g^{-1} at K-2 (the normal at least 1) and the Christoffel symbols
at min(K-2, 1), which reads g one order higher.  A scalar pair's Hessian
reads the symbols at K-2, and its h and F the normal and g^{-1} at K-1.
The deformed metric is built at K-2 and its inverse at K-3.

Each slice certifies the rank hypothesis from its frame, before building
Q: when deformation or roundtrip runs, a rank of A below 3 (below n for
n < 3 charts, which get a warning instead) is refused with a
HypothesisError, since the rigidity claims assume rank A >= 3.  Grid path
integrals, FD probes and the roundtrip suite run after the pass.
Reductions happen in index order so identical scenes produce identical
reports.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import geometry as geo
from .codazzi import (
    codazzi_frame_from_jets,
    codazzi_Q_residual_field,
    commutator_residual_field,
    deformed_christoffel_jets,
    deformed_connection_residual_field,
    deformed_curvature_residual_field,
    deformed_metric,
    q_jets,
)
from .deformation import (
    closed_form_immersion,
    default_loop_rects,
    deformation_check_from_jets,
    extract_gh,
    fd_deformed_frame,
    gauge_fit,
    global_det_sign,
    GridPair,
    omega_loop_integral,
    pair_on_grid,
    path_dependence_residual,
    path_integral_on_grid,
)
from .errors import HypothesisError, SceneError
from .geometry import CHUNK, chart_jets, frame_from_jets, grid_points, rank_A_field
from .report import (
    CheckResult,
    FAIL,
    PASS,
    VerificationReport,
    check_from_field,
    check_skipped,
)
from .scene import Scene

# Default tolerances.  Jet-identity residuals at K=3 sit at ~1e-13 in double
# precision, so 1e-9 leaves three orders of headroom; checks that cross a
# quadrature or a K=4 second-derivative path get 1e-6/1e-7; FD cross-checks
# inherit the difference-step accuracy.
DEFAULT_TOL: Dict[str, float] = {
    # geometry
    "weingarten": 1e-9,
    "gauss_formula": 1e-9,
    "metric_compat": 1e-9,
    "gauss": 1e-9,
    "codazzi_A": 1e-9,
    "bianchi1": 1e-9,
    # codazzi
    "commutator": 1e-9,
    "codazzi_Q": 1e-8,
    "gh_constraint": 1e-8,
    "deformed_connection": 1e-7,
    "deformed_curvature": 1e-6,
    # deformation
    "pair_q": 1e-8,
    "dF": 1e-9,
    "metric": 1e-9,
    "shape": 1e-9,
    "selfadjoint_At": 1e-9,
    "codazzi_At": 1e-6,
    "gauss_congruence": 1e-9,
    "wedge": 1e-9,
    "kernel_angle": 1e-6,
    "loop": 1e-9,
    "path_vs_closed": 1e-7,
    "path_order_swap": 1e-8,
    "fd_jacobian": 1e-6,
    "fd_metric": 1e-6,
    "fd_gauss": 1e-6,
    "fd_shape": 1e-4,
    # roundtrip
    "extract_closedness": 1e-6,
    "roundtrip_gauge": 1e-6,
    "gauge_recovery": 1e-8,
}

_NO_GRID_NOTE = "needs a full grid; skipped in single-point mode"


def _chunks(m: int):
    for lo in range(0, m, CHUNK):
        yield lo, min(lo + CHUNK, m)


def _scalar_check(
    suite: str, name: str, value: float, tolerance: float, note: str = ""
) -> CheckResult:
    verdict = PASS if value <= tolerance else FAIL
    return CheckResult(
        suite=suite,
        name=name,
        max_residual=float(value),
        mean_residual=float(value),
        worst_point=None,
        tolerance=tolerance,
        verdict=verdict,
        note=note,
    )


# ---------------------------------------------------------- sample pass

# check name -> residual field of the frame
_GEOMETRY = {
    "weingarten": geo.weingarten_residual_field,
    "gauss_formula": geo.gauss_formula_residual_field,
    "metric_compat": geo.metric_compat_residual_field,
    "gauss": geo.gauss_residual_field,
    "codazzi_A": geo.codazzi_A_residual_field,
    "bianchi1": geo.bianchi_first_residual_field,
}
_CURVATURE = ("gauss", "codazzi_A", "bianchi1")
# check name -> DeformationCheck field
_DEFORMATION = {
    "dF": "dF_field",
    "metric": "metric_field",
    "shape": "shape_field",
    "selfadjoint_At": "selfadjoint_field",
    "codazzi_At": "codazzi_At_field",
    "gauss_congruence": "gauss_field",
    "wedge": "wedge_field",
    "kernel_angle": "kernel_angle_field",
}


def _sample_pass(scene: Scene, pts: np.ndarray) -> Dict[str, np.ndarray]:
    """One pass over the sample: check name -> field over ``pts``."""
    table: Dict[str, List[np.ndarray]] = {}
    for lo, hi in _chunks(len(pts)):
        for name, field in _chunk_fields(scene, pts[lo:hi]).items():
            table.setdefault(name, []).append(field)
    return {name: np.concatenate(parts) for name, parts in table.items()}


def _rank_range(fr, n: int, suites) -> np.ndarray:
    """Rank of A over one chunk's frame, gated when a suite needs it >= 3."""
    ranks = rank_A_field(fr)
    gated = [s for s in suites if s in ("deformation", "roundtrip")]
    if gated and ranks.min() < min(3, n):
        raise HypothesisError(
            f"rank A >= 3 violated: certified rank {ranks.min()} over the "
            f"sample (required by suites: {', '.join(gated)})"
        )
    return ranks


def _chunk_fields(scene: Scene, pts: np.ndarray) -> Dict[str, np.ndarray]:
    """Every pointwise field at one chunk, from one build of its jets.

    See the module docstring for the jet order.  The rank of A is gated
    right after the frame, before Q.  ``sign_Q`` holds one Q: the chunk's
    sign(det Q) gate has made its sign uniform.  The jets die on return,
    before the next chunk builds its own, which keeps the peak memory at
    one chunk's jets.
    """
    chart, spec, suites = scene.chart, scene.spec, scene.suites
    needs_q = "codazzi" in suites or "deformation" in suites
    order = 4 if needs_q else (scene.order if "geometry" in suites else 2)
    cj = chart_jets(chart, pts, order)
    fr = frame_from_jets(cj)
    fields: Dict[str, np.ndarray] = {"rank_A": _rank_range(fr, chart.n, suites)}
    if "geometry" in suites:
        for name, residual in _GEOMETRY.items():
            if scene.order >= 3 or name not in _CURVATURE:
                fields[name] = residual(fr)
    if not needs_q:
        return fields
    qj, pair, gh_field = q_jets(cj, spec)
    cf = codazzi_frame_from_jets(qj, fr)
    if "codazzi" in suites:
        fields["commutator"] = commutator_residual_field(fr, cf)
        fields["codazzi_Q"] = codazzi_Q_residual_field(fr, cf)
        if gh_field is not None:
            fields["gh_constraint"] = gh_field
        Gt = deformed_christoffel_jets(cj, qj)
        fields["deformed_connection"] = deformed_connection_residual_field(
            cj, fr, cf, Gt
        )
        fields["deformed_curvature"] = deformed_curvature_residual_field(
            cj, fr, cf, Gt
        )
    if "deformation" in suites:
        sign = global_det_sign(cf.Q)
        fields["sign_Q"] = cf.Q.reshape(-1, chart.n, chart.n)[:1]
        if spec.pair() is not None:
            chk = deformation_check_from_jets(cj, fr, cf, sign, spec, pair)
            if pair is None:  # a direct Q, compared with its pair's
                fields["pair_q"] = np.array([chk.pair_q_residual])
            for name, attr in _DEFORMATION.items():
                fields[name] = getattr(chk, attr)
    return fields


def _geometry_suite(fields, pts, order, tol) -> List[CheckResult]:
    checks = []
    for name in _GEOMETRY:
        if name in _CURVATURE and order < 3:
            checks.append(
                check_skipped("geometry", name, tol[name], "needs jet order >= 3")
            )
            continue
        checks.append(check_from_field("geometry", name, fields[name], pts, tol[name]))
    return checks


def _codazzi_suite(fields, pts, tol) -> List[CheckResult]:
    names = ["commutator", "codazzi_Q"]
    if "gh_constraint" in fields:
        names.append("gh_constraint")
    names += ["deformed_connection", "deformed_curvature"]
    return [
        check_from_field("codazzi", name, fields[name], pts, tol[name])
        for name in names
    ]


# ---------------------------------------------------------- deformation


def _loop_check(chart, spec, tol) -> CheckResult:
    rects = default_loop_rects(chart)
    loops = omega_loop_integral(chart, spec, rects)
    centers = np.array([r.base for r in rects], dtype=float)
    for c, r in zip(centers, rects):
        c[[r.axis_a, r.axis_b]] = 0.5 * (r.a0 + r.a1), 0.5 * (r.b0 + r.b1)
    return check_from_field(
        "deformation",
        "loop",
        np.abs(loops).max(axis=1),
        centers,
        tol["loop"],
        note="worst point is the center of the worst rectangle",
    )


def _path_vs_closed_check(chart, spec, mesh, Fp, tol) -> CheckResult:
    flat = mesh.reshape(-1, chart.n)
    Fc = closed_form_immersion(chart, spec)(flat)
    diff = Fp.reshape(-1, chart.ambient_dim) - Fc
    # both immersions have the same differential, so diff must be a single
    # constant ambient vector; its componentwise spread is the residual
    spread = diff.max(axis=0) - diff.min(axis=0)
    dev = np.abs(diff - diff.mean(axis=0)).max(axis=-1)
    idx = int(np.argmax(dev))
    mx = float(spread.max())
    return CheckResult(
        suite="deformation",
        name="path_vs_closed",
        max_residual=mx,
        mean_residual=float(spread.mean()),
        worst_point=tuple(float(x) for x in flat[idx]),
        tolerance=tol["path_vs_closed"],
        verdict=PASS if mx <= tol["path_vs_closed"] else FAIL,
        note="componentwise spread of F_path - F_closed over the grid",
    )


def _deformation_pair_suite(
    chart, spec, fields, pts, grid, tol, grid_mode
) -> List[CheckResult]:
    checks = []
    if "pair_q" in fields:
        checks.append(
            _scalar_check(
                "deformation",
                "pair_q",
                float(fields["pair_q"].max()),
                tol["pair_q"],
                note="direct Q route vs scalar-pair Q route",
            )
        )
    for name in _DEFORMATION:
        checks.append(
            check_from_field("deformation", name, fields[name], pts, tol[name])
        )
    if grid_mode:
        checks.append(_loop_check(chart, spec, tol))
        # one forward and one reversed sweep feed both path checks
        mesh, F_fwd = path_integral_on_grid(chart, spec, grid)
        _, F_rev = path_integral_on_grid(
            chart, spec, grid, axis_order=list(reversed(range(chart.n)))
        )
        checks.append(_path_vs_closed_check(chart, spec, mesh, F_fwd, tol))
        swap = float(np.abs(F_fwd - F_rev).max())
        checks.append(
            _scalar_check(
                "deformation", "path_order_swap", swap, tol["path_order_swap"]
            )
        )
    else:
        for name in ("loop", "path_vs_closed", "path_order_swap"):
            checks.append(
                check_skipped("deformation", name, tol[name], _NO_GRID_NOTE)
            )
    return checks


def _fd_probe_points(chart, grid, pts, grid_mode) -> np.ndarray:
    if not grid_mode:
        return pts
    axes = geo.grid_axes(chart, grid)
    shape = tuple(len(ax) for ax in axes)
    center = tuple(s // 2 for s in shape)
    probes = {center}
    lowered = list(center)
    lowered[0] = 1
    probes.add(tuple(lowered))
    raised = list(center)
    raised[-1] = shape[-1] - 2
    probes.add(tuple(raised))
    out = []
    for multi in sorted(probes):
        out.append([axes[k][multi[k]] for k in range(chart.n)])
    return np.array(out)


def _deformation_explicit_suite(
    chart, spec, pts, grid, tol, grid_mode, sign
) -> List[CheckResult]:
    checks: List[CheckResult] = []
    if grid_mode:
        checks.append(_loop_check(chart, spec, tol))
        swap = path_dependence_residual(chart, spec, grid)
        checks.append(
            _scalar_check(
                "deformation", "path_order_swap", swap, tol["path_order_swap"]
            )
        )
    else:
        for name in ("loop", "path_order_swap"):
            checks.append(
                check_skipped("deformation", name, tol[name], _NO_GRID_NOTE)
            )

    # F exists only through quadrature here: cross-check its FD frame
    # against the operator route at a few interior probe points
    probes = _fd_probe_points(chart, grid, pts, grid_mode)
    cj = chart_jets(chart, probes, 3)
    fr = frame_from_jets(cj)
    cf = codazzi_frame_from_jets(q_jets(cj, spec)[0], fr)
    gt = deformed_metric(fr, cf)
    JQ = np.einsum("...pk,...kj->...pj", fr.J, cf.Q)
    QinvA = np.einsum("...km,...mj->...kj", cf.Q_inv, fr.A)
    rows = {name: [] for name in ("fd_jacobian", "fd_metric", "fd_gauss", "fd_shape")}
    used = []
    skipped_note = ""
    for k, u in enumerate(probes):
        try:
            fd = fd_deformed_frame(chart, spec, u)
        except geo.DomainError as e:
            skipped_note = str(e)
            continue
        used.append(u)
        rows["fd_jacobian"].append(np.abs(fd.J - JQ[k]).max())
        rows["fd_metric"].append(np.abs(fd.g - gt[k]).max())
        rows["fd_gauss"].append(np.abs(fd.N - sign * fr.N[k]).max())
        rows["fd_shape"].append(np.abs(fd.A - sign * QinvA[k]).max())
    for name in ("fd_jacobian", "fd_metric", "fd_gauss", "fd_shape"):
        if not used:
            checks.append(
                check_skipped(
                    "deformation", name, tol[name],
                    f"no interior probe point: {skipped_note}",
                )
            )
            continue
        checks.append(
            check_from_field(
                "deformation",
                name,
                np.array(rows[name]),
                np.array(used),
                tol[name],
                note="finite differences of the path-integrated immersion",
            )
        )
    return checks


# ------------------------------------------------------------ roundtrip


def _roundtrip_suite(chart, spec, grid, tol, grid_mode) -> List[CheckResult]:
    names = ("extract_closedness", "roundtrip_gauge", "gauge_recovery")
    pair = spec.pair()
    if pair is None:
        return [
            check_skipped(
                "roundtrip", n, tol[n], "explicit operators carry no scalar pair"
            )
            for n in names
        ]
    if not grid_mode:
        return [
            check_skipped("roundtrip", n, tol[n], _NO_GRID_NOTE) for n in names
        ]
    ext = extract_gh(chart, closed_form_immersion(chart, spec), grid)
    true = pair_on_grid(chart, pair, grid)
    fit = gauge_fit(chart, ext, true)
    checks = [
        _scalar_check(
            "roundtrip",
            "extract_closedness",
            ext.closed_residual,
            tol["extract_closedness"],
            note="loop integrals of the recovered 1-form g(grad g, .)",
        ),
        _scalar_check(
            "roundtrip",
            "roundtrip_gauge",
            fit.residual,
            tol["roundtrip_gauge"],
            note=f"gauge-fit misfit, condition number {fit.cond:.3e}",
        ),
    ]
    # synthetic gauge shift with known ground truth
    dim = chart.ambient_dim
    a0 = np.array([0.3, -0.1, 0.2, 0.5, 0.15][:dim])
    c0 = 1.7
    flat = true.points.reshape(-1, chart.n)
    fr = frame_from_jets(chart_jets(chart, flat, order=2))
    shape = true.g.shape
    shifted = GridPair(
        points=true.points,
        g=true.g + (fr.f @ a0).reshape(shape) + c0,
        h=true.h + (fr.N @ a0).reshape(shape),
        grad_g=true.grad_g,
        closed_residual=0.0,
    )
    fit2 = gauge_fit(chart, true, shifted)
    recovery = max(
        float(np.abs(fit2.a - a0).max()), abs(float(fit2.c) - c0)
    )
    checks.append(
        _scalar_check(
            "roundtrip",
            "gauge_recovery",
            recovery,
            tol["gauge_recovery"],
            note="recovery of a synthetic affine gauge (a, c)",
        )
    )
    return checks


# ------------------------------------------------------------ orchestrator


def resolve_tolerances(overrides: Dict[str, float]) -> Dict[str, float]:
    """Merge user overrides into the default tolerance table."""
    tol = dict(DEFAULT_TOL)
    for name, value in overrides.items():
        if name not in DEFAULT_TOL:
            known = ", ".join(sorted(DEFAULT_TOL))
            raise SceneError(f"unknown tolerance: {name} (known: {known})")
        if not (np.isfinite(value) and value > 0):
            raise SceneError(f"tolerance {name} must be positive and finite")
        tol[name] = float(value)
    return tol


def run_suites(
    scene: Scene, point: Optional[Sequence[float]] = None
) -> VerificationReport:
    """Run the scene's suites; return the report (exceptions = exit 3/4)."""
    t0 = time.perf_counter()
    chart = scene.chart
    spec = scene.spec
    tol = resolve_tolerances(dict(scene.tol))
    warnings = list(scene.warnings)

    if point is not None:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (chart.n,):
            raise SceneError(
                f"point has {pt.size} coordinates, chart needs {chart.n}"
            )
        if not chart.contains(pt):
            raise SceneError(f"point {pt.tolist()} outside the chart domain")
        pts = pt[None, :]
        grid = (1,) * chart.n
        grid_mode = False
        warnings.append("single-point rerun; grid-based checks skipped")
    else:
        pts = grid_points(chart, scene.grid)
        grid = scene.grid
        grid_mode = True

    fields = _sample_pass(scene, pts)
    if chart.n < 3 and {"deformation", "roundtrip"} & set(scene.suites):
        warnings.append(
            "n=2 chart: rank A >= 3 cannot hold; deformation claims "
            "are checked pedagogically only"
        )
    sign: Optional[int] = None
    checks: List[CheckResult] = []
    for suite in scene.suites:
        if suite == "geometry":
            checks += _geometry_suite(fields, pts, scene.order, tol)
        elif suite == "codazzi":
            checks += _codazzi_suite(fields, pts, tol)
        elif suite == "deformation":
            sign = global_det_sign(fields["sign_Q"])
            if spec.pair() is None:
                checks += _deformation_explicit_suite(
                    chart, spec, pts, grid, tol, grid_mode, sign
                )
            else:
                checks += _deformation_pair_suite(
                    chart, spec, fields, pts, grid, tol, grid_mode
                )
        elif suite == "roundtrip":
            checks += _roundtrip_suite(chart, spec, grid, tol, grid_mode)

    return VerificationReport(
        chart_label=chart.label,
        n=chart.n,
        ambient_dim=chart.ambient_dim,
        grid=tuple(grid),
        order=scene.order,
        suites=scene.suites,
        rank_min=int(fields["rank_A"].min()),
        rank_max=int(fields["rank_A"].max()),
        sign=sign,
        warnings=tuple(warnings),
        checks=checks,
        wall_time=time.perf_counter() - t0,
    )
