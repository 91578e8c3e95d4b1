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

``CHECKS`` fixes each check's identity, default tolerance and report
order: a suite reports the checks it found in table order.  The suites
ask the deformation source what it offers (see ``codazzi``).
``gh_constraint`` is reported when Q came with a gradient-constraint
field, ``pair_q`` when a direct Q was compared with its pair's Q.  With no
pair, F exists only through quadrature: loops, path order and FD probes
check it, and the roundtrip is skipped.

All pointwise work is one pass over the sample in CHUNK slices.  Each
slice builds its chart jets and frame once, and the jets and frame of Q
once when codazzi or deformation runs (with the jets of a scalar pair that
defines Q, and its gradient-constraint field); the geometry, codazzi and
deformation suites read those and put their fields into one table,
suite -> check name -> field, with ``sample`` holding the rank of A and
one Q for the sign gate.  The jet order K is ``Q_CHECK_ORDER`` (4) when
codazzi or deformation runs, else the scene order when geometry runs, else 2;
geometry fields do not depend on it, and geometry skips its curvature
checks when the scene order is below 3.  ``ChartJets`` says at which
order each reader reads each chart jet.  The frame releases each build
after its last read there (``geometry.frame_from_jets``), Gamma's after R
when a check reads R (codazzi, or geometry at scene order 3 or more), but
keeps what the slice reads later: what Q's source ``reads``, and below
K = 4 f and g^{-1}, from which R builds g and Gamma one order above the
frame's (as does a Q from a scalar pair, which reads Gamma at K-2).  Once
Q is built only g~ reads the jets, through g, and the rest is released,
unless a pair scene's h, F and Hessian read the normal, J, g and g^{-1}
at K-1 and Gamma at K-2: the slice builds these once, before the frame
(after its finiteness gate), which reads their truncations and keeps
them.  The deformed metric is built at K-2 and its inverse at K-3.

Each slice certifies the rank hypothesis from its frame, before building
Q: when deformation or roundtrip runs, a rank of A below 3 (below n for
n < 3 charts, which get a warning instead) is refused with a
HypothesisError, since the rigidity claims assume rank A >= 3.  Grid path
integrals, FD probes and the roundtrip suite run after the pass.  Both
deformation suites check F's path integrals alike: the loops (corner
pairs, each reported at its centre), then one forward and one reversed
grid sweep for ``path_order_swap`` and, for a pair scene,
``path_vs_closed``.  All FD probes of F are one quadrature call.  On a
grid, a pair scene's ``path_vs_closed`` and roundtrip read one order-2
frame of the grid (``grid_frame``), built once per run; the roundtrip
fits the gauge to the differences of plain (g, h) arrays, the
``extract_gh`` pair against the source's.  Reductions happen in index
order so identical scenes produce identical reports.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import geometry as geo
from .codazzi import (
    Q_CHECK_ORDER,
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
    fd_second_step,
    gauge_design,
    gauge_fit,
    global_det_sign,
    grid_frame,
    omega_loop_integral,
    pair_on_grid,
    path_integral_on_grid,
)
from .errors import HypothesisError, SceneError
from .geometry import CHUNK, FRAME_READS, chart_jets, frame_from_jets, grid_points, rank_A_field
from .report import (
    CheckResult,
    FAIL,
    PASS,
    VerificationReport,
    check_from_field,
    check_skipped,
)

if TYPE_CHECKING:
    from .scene import Scene


class Check(NamedTuple):
    """One row of ``CHECKS``; ``residual`` computes a geometry check's
    field from the frame, which needs jets of order ``order``."""

    suite: str
    name: str
    tol: float
    residual: Optional[Callable[[geo.Frame], np.ndarray]] = None
    order: int = 2


# Every check, in report order.  Jet-identity residuals at K=3 sit at
# ~1e-13 in double precision, so 1e-9 leaves three orders of headroom;
# checks that cross a quadrature or a K=4 second-derivative path get
# 1e-6/1e-7; FD cross-checks inherit the difference-step accuracy.
CHECKS = (
    Check("geometry", "weingarten", 1e-9, geo.weingarten_residual_field),
    Check("geometry", "gauss_formula", 1e-9, geo.gauss_formula_residual_field),
    Check("geometry", "metric_compat", 1e-9, geo.metric_compat_residual_field),
    Check("geometry", "gauss", 1e-9, geo.gauss_residual_field, 3),
    Check("geometry", "codazzi_A", 1e-9, geo.codazzi_A_residual_field, 3),
    Check("geometry", "bianchi1", 1e-9, geo.bianchi_first_residual_field, 3),
    Check("codazzi", "commutator", 1e-9),
    Check("codazzi", "codazzi_Q", 1e-8),
    Check("codazzi", "gh_constraint", 1e-8),
    Check("codazzi", "deformed_connection", 1e-7),
    Check("codazzi", "deformed_curvature", 1e-6),
    Check("deformation", "pair_q", 1e-8),
    Check("deformation", "dF", 1e-9),
    Check("deformation", "metric", 1e-9),
    Check("deformation", "shape", 1e-9),
    Check("deformation", "selfadjoint_At", 1e-9),
    Check("deformation", "codazzi_At", 1e-6),
    Check("deformation", "gauss_congruence", 1e-9),
    Check("deformation", "wedge", 1e-9),
    Check("deformation", "kernel_angle", 1e-6),
    Check("deformation", "loop", 1e-9),
    Check("deformation", "path_vs_closed", 1e-7),
    Check("deformation", "path_order_swap", 1e-8),
    Check("deformation", "fd_jacobian", 1e-6),
    Check("deformation", "fd_metric", 1e-6),
    Check("deformation", "fd_gauss", 1e-6),
    Check("deformation", "fd_shape", 1e-4),
    Check("roundtrip", "extract_closedness", 1e-6),
    Check("roundtrip", "roundtrip_gauge", 1e-6),
    Check("roundtrip", "gauge_recovery", 1e-8),
)
DEFAULT_TOL: Dict[str, float] = {c.name: c.tol for c in CHECKS}

_NO_GRID_NOTE = "needs a full grid; skipped in single-point mode"


def _chunks(m: int):
    for lo in range(0, m, CHUNK):
        yield lo, min(lo + CHUNK, m)


def _emit(suite: str, found: dict, pts, tol) -> List[CheckResult]:
    """The checks of ``suite`` that it found, in table order.  ``found``
    maps a check name to a field over ``pts``, a (field, points, note)
    triple, a finished ``CheckResult`` or a skip note; a name with no row
    of ``suite`` raises KeyError."""
    rows = {c.name: i for i, c in enumerate(CHECKS) if c.suite == suite}
    checks = []
    for name in sorted(found, key=rows.__getitem__):
        got, t = found[name], tol[name]
        if isinstance(got, str):
            got = check_skipped(suite, name, t, got)
        elif isinstance(got, tuple):
            got = check_from_field(suite, name, got[0], got[1], t, note=got[2])
        elif not isinstance(got, CheckResult):
            got = check_from_field(suite, name, got, pts, t)
        checks.append(got)
    return checks


# ---------------------------------------------------------- sample pass

Fields = Dict[str, Dict[str, np.ndarray]]


def _sample_pass(scene: Scene, pts: np.ndarray, probes: np.ndarray) -> Fields:
    """One pass over the sample: suite -> check name -> field over ``pts``,
    or over the rows ``probes`` (ascending) for an explicit deformation."""
    table: Dict[str, Dict[str, List[np.ndarray]]] = {}
    for lo, hi in _chunks(len(pts)):
        at = probes[(probes >= lo) & (probes < hi)] - lo
        for suite, named in _chunk_fields(scene, pts[lo:hi], at).items():
            for name, field in named.items():
                table.setdefault(suite, {}).setdefault(name, []).append(field)
    return {
        suite: {name: np.concatenate(parts) for name, parts in named.items()}
        for suite, named in table.items()
    }


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


def _chunk_fields(scene: Scene, pts: np.ndarray, probes: np.ndarray) -> Fields:
    """Every pointwise field at one chunk, from one build of its jets.

    ``sample`` holds the rank of A and, in ``sign_Q``, one Q: the chunk's
    sign(det Q) gate has made its sign uniform.  With no pair, the
    deformation entries are the operator side of the FD checks at the chunk
    rows ``probes``.  See the module docstring for the jet orders and when
    each build is released.  The rank of A is gated right after the frame,
    before Q.  What is left dies on return, before the next chunk builds
    its jets, which keeps the peak memory below one chunk's jets.
    """
    chart, spec, suites = scene.chart, scene.spec, scene.suites
    needs_q = "codazzi" in suites or "deformation" in suites
    order = Q_CHECK_ORDER if needs_q else (scene.order if "geometry" in suites else 2)
    reads_pair = "deformation" in suites and spec.pair() is not None
    cj = chart_jets(chart, pts, order)
    keep = list(spec.reads) if needs_q else ["comps", "ginv"]  # for Q, or R below K = 4
    if reads_pair:  # h, F and the Hessian read what build_for_pair builds
        cj.build_for_pair()
        keep += ["comps", "jacobian", "normal", "ginv", "christoffel"]
    reads_R = "codazzi" in suites or ("geometry" in suites and scene.order >= 3)
    fr = frame_from_jets(cj, keep, curvature=reads_R)
    sample = {"rank_A": _rank_range(fr, chart.n, suites)}
    fields: Fields = {"sample": sample}
    if needs_q:
        qj, pair, gh_field = q_jets(cj, spec)
        cf = codazzi_frame_from_jets(qj, fr)
        if not reads_pair:  # only g~ reads the chart jets after Q, through g
            cj.release(*FRAME_READS)
    if "geometry" in suites:
        fields["geometry"] = {
            c.name: c.residual(fr)
            for c in CHECKS
            if c.suite == "geometry" and scene.order >= c.order
        }
    if not needs_q:
        return fields
    if "codazzi" in suites:
        named = fields["codazzi"] = {
            "commutator": commutator_residual_field(fr, cf),
            "codazzi_Q": codazzi_Q_residual_field(fr, cf),
        }
        Gt = deformed_christoffel_jets(cj, qj)
        named["deformed_connection"] = deformed_connection_residual_field(cj, fr, cf, Gt)
        named["deformed_curvature"] = deformed_curvature_residual_field(cj, fr, cf, Gt)
        if gh_field is not None:
            named["gh_constraint"] = gh_field
    if "deformation" in suites:
        sign = global_det_sign(cf.Q)
        sample["sign_Q"] = cf.Q.reshape(-1, chart.n, chart.n)[:1]
        if spec.pair() is not None:
            chk = deformation_check_from_jets(cj, fr, cf, sign, spec, pair)
            named = fields["deformation"] = dict(chk.fields)
            if pair is None:  # a direct Q, compared with its pair's
                named["pair_q"] = np.array([chk.pair_q_residual])
        else:
            # a constant Q has batch axes of length 1
            Q, Q_inv = (np.broadcast_to(M, fr.g.shape)[probes] for M in (cf.Q, cf.Q_inv))
            fields["deformation"] = {
                "JQ": np.einsum("...pk,...kj->...pj", fr.J[probes], Q),
                "metric": deformed_metric(fr.g[probes], Q),
                "N": fr.N[probes],
                "QinvA": np.einsum("...km,...mj->...kj", Q_inv, fr.A[probes]),
            }
    return fields


def _geometry_suite(fields, pts, order, tol) -> List[CheckResult]:
    low = {c.name: f"needs jet order >= {c.order}" for c in CHECKS if c.order > order}
    return _emit("geometry", {**low, **fields}, pts, tol)


def _codazzi_suite(fields, pts, tol) -> List[CheckResult]:
    return _emit("codazzi", fields, pts, tol)


# ---------------------------------------------------------- deformation


def _loop_check(chart, spec, tol) -> CheckResult:
    corners = default_loop_rects(chart)
    loops = omega_loop_integral(chart, spec, corners)
    return check_from_field(
        "deformation",
        "loop",
        np.abs(loops).max(axis=1),
        corners.mean(axis=1),
        tol["loop"],
        note="worst point is the center of the worst rectangle",
    )


def _path_vs_closed_check(chart, spec, grid_fr, Fp, tol) -> CheckResult:
    flat = grid_fr.u.reshape(-1, chart.n)
    Fc = closed_form_immersion(chart, spec)(grid_fr.jets)
    diff = (Fp - Fc).reshape(-1, chart.ambient_dim)
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


def _path_checks(chart, spec, grid, tol, grid_fr) -> List[CheckResult]:
    """The checks of F by quadrature: ``loop``, ``path_vs_closed`` for a
    pair source (F_path against the closed form on ``grid_fr``) and
    ``path_order_swap``, from one forward and one reversed sweep of the
    grid; all skipped in single-point mode, where ``grid`` is None."""
    pair = spec.pair() is not None
    if grid is None:
        names = ("loop", "path_order_swap") + ("path_vs_closed",) * pair
        return _emit("deformation", dict.fromkeys(names, _NO_GRID_NOTE), None, tol)
    found = {"loop": _loop_check(chart, spec, tol)}
    F_fwd = path_integral_on_grid(chart, spec, grid)
    F_rev = path_integral_on_grid(chart, spec, grid, axis_order=list(reversed(range(chart.n))))
    if pair:
        found["path_vs_closed"] = _path_vs_closed_check(chart, spec, grid_fr, F_fwd, tol)
    found["path_order_swap"] = (np.abs(F_fwd - F_rev).max(), None, "")
    return _emit("deformation", found, None, tol)


def _deformation_pair_suite(
    chart, spec, fields, pts, grid, tol, grid_fr
) -> List[CheckResult]:
    found = dict(fields)
    if "pair_q" in found:
        note = "direct Q route vs scalar-pair Q route"
        found["pair_q"] = (found["pair_q"].max(), None, note)
    found.update((c.name, c) for c in _path_checks(chart, spec, grid, tol, grid_fr))
    return _emit("deformation", found, pts, tol)


def _fd_probe_index(chart, grid, pts) -> np.ndarray:
    """Ascending indices into ``pts`` of the points at which F's FD frame is
    probed: the centre of the grid and two off-centre nodes, or every point
    when ``grid`` is None; less those too close to the boundary for the
    stencil of ``fd_deformed_frame``."""
    index = np.arange(len(pts))
    if grid is not None:
        shape = tuple(grid)
        center = tuple(s // 2 for s in shape)
        lowered = (1,) + center[1:]
        raised = center[:-1] + (shape[-1] - 2,)
        index = np.array(sorted({np.ravel_multi_index(m, shape) for m in (center, lowered, raised)}))
    return index[geo.stencil_fits(chart, pts[index], fd_second_step())]


def _deformation_explicit_suite(chart, spec, ref, probes, grid, tol, sign) -> List[CheckResult]:
    found = {c.name: c for c in _path_checks(chart, spec, grid, tol, None)}
    # F exists only through quadrature here: cross-check its FD frame
    # against the operator route at a few interior probe points
    if not len(probes):
        note = (
            "no interior probe point: point too close to the boundary: the "
            f"stencil needs {2 * fd_second_step():g} of clearance"
        )
        found.update((c.name, note) for c in CHECKS if c.name.startswith("fd_"))
    else:
        fd = fd_deformed_frame(chart, spec, probes)
        note = "finite differences of the path-integrated immersion"
        found.update((name, (row, probes, note)) for name, row in {
            "fd_jacobian": np.abs(fd.J - ref["JQ"]).max(axis=(-1, -2)),
            "fd_metric": np.abs(fd.g - ref["metric"]).max(axis=(-1, -2)),
            "fd_gauss": np.abs(fd.N - sign * ref["N"]).max(axis=-1),
            "fd_shape": np.abs(fd.A - sign * ref["QinvA"]).max(axis=(-1, -2)),
        }.items())
    return _emit("deformation", found, None, tol)


# ------------------------------------------------------------ roundtrip


def _roundtrip_suite(chart, spec, grid_fr, tol) -> List[CheckResult]:
    pair = spec.pair()
    if pair is None or grid_fr is None:
        note = "explicit operators carry no scalar pair" if pair is None else _NO_GRID_NOTE
        skipped = {c.name: note for c in CHECKS if c.suite == "roundtrip"}
        return _emit("roundtrip", skipped, None, tol)
    g1, h1, closedness = extract_gh(chart, closed_form_immersion(chart, spec), grid_fr)
    g0, h0 = pair_on_grid(pair, grid_fr)
    design = gauge_design(grid_fr)  # one SVD for both fits
    fit = gauge_fit(grid_fr, g0 - g1, h0 - h1, design)
    # synthetic gauge shift with known ground truth; the five values repeat
    # in higher ambient dimensions
    dim = chart.ambient_dim
    a0 = np.resize([0.3, -0.1, 0.2, 0.5, 0.15], dim)
    c0 = 1.7
    f_a0 = (grid_fr.f.reshape(-1, dim) @ a0).reshape(g0.shape)
    N_a0 = (grid_fr.N.reshape(-1, dim) @ a0).reshape(g0.shape)
    # the differences of the shifted pair and g0, h0 as sampled, rounding and all
    fit2 = gauge_fit(grid_fr, (g0 + f_a0 + c0) - g0, (h0 + N_a0) - h0, design)
    recovery = max(float(np.abs(fit2.a - a0).max()), abs(float(fit2.c) - c0))
    closed = "loop integrals of the recovered 1-form g(grad g, .)"
    misfit = f"gauge-fit misfit, condition number {fit.cond:.3e}"
    return _emit("roundtrip", {
        "extract_closedness": (closedness, None, closed),
        "roundtrip_gauge": (fit.residual, None, misfit),
        "gauge_recovery": (recovery, None, "recovery of a synthetic affine gauge (a, c)"),
    }, None, tol)


# ------------------------------------------------------------ orchestrator


def resolve_tolerances(overrides: Dict[str, float]) -> Dict[str, float]:
    """Merge user overrides into the default tolerance table."""
    tol = dict(DEFAULT_TOL)
    for name, value in overrides.items():
        if name not in DEFAULT_TOL:
            known = ", ".join(sorted(DEFAULT_TOL))
            raise SceneError(f"unknown tolerance: {name} (known: {known})")
        if not (np.isfinite(value) and value > 0):
            raise SceneError(f"tolerance must be positive and finite: {name}")
        tol[name] = float(value)
    return tol


def run_suites(
    scene: Scene, point: Optional[Sequence[float]] = None
) -> VerificationReport:
    """Run the scene's suites; return the report, or raise one of the
    three error kinds of ``errors``."""
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
        grid = None
        warnings.append("single-point rerun; grid-based checks skipped")
    else:
        pts = grid_points(chart, scene.grid)
        grid = scene.grid

    probes = _fd_probe_index(chart, grid, pts)  # read with no scalar pair only
    fields = _sample_pass(scene, pts, probes)
    if chart.n < 3 and {"deformation", "roundtrip"} & set(scene.suites):
        warnings.append(
            "n=2 chart: rank A >= 3 cannot hold; deformation claims "
            "are checked pedagogically only"
        )
    # the grid's order-2 frame, built once for path_vs_closed and the roundtrip
    grid_fr = None
    pair_suites = {"deformation", "roundtrip"} & set(scene.suites)
    if grid is not None and pair_suites and spec.pair() is not None:
        grid_fr = grid_frame(chart, grid)
    sign: Optional[int] = None
    checks: List[CheckResult] = []
    for suite in scene.suites:
        if suite == "geometry":
            checks += _geometry_suite(fields[suite], pts, scene.order, tol)
        elif suite == "codazzi":
            checks += _codazzi_suite(fields[suite], pts, tol)
        elif suite == "deformation":
            sign = global_det_sign(fields["sample"]["sign_Q"])
            if spec.pair() is None:
                checks += _deformation_explicit_suite(
                    chart, spec, fields[suite], pts[probes], grid, tol, sign
                )
            else:
                checks += _deformation_pair_suite(
                    chart, spec, fields[suite], pts, grid, tol, grid_fr
                )
        elif suite == "roundtrip":
            checks += _roundtrip_suite(chart, spec, grid_fr, tol)

    return VerificationReport(
        chart_label=chart.label,
        n=chart.n,
        ambient_dim=chart.ambient_dim,
        grid=tuple(grid or (1,) * chart.n),
        order=scene.order,
        suites=scene.suites,
        rank_min=int(fields["sample"]["rank_A"].min()),
        rank_max=int(fields["sample"]["rank_A"].max()),
        sign=sign,
        warnings=tuple(warnings),
        checks=checks,
        wall_time=time.perf_counter() - t0,
    )
