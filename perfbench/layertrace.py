"""Outside-in layer trace of isodeform.

``traced(recorder)`` wraps the public functions of each layer from outside
the package and undoes it on exit, so nothing under ``src/`` changes.
``from .x import y`` copies names, so each wrapper is rebound in every
``isodeform.*`` namespace that holds the original object.  Every call is
aggregated per (span name, parent span name) into call count, total time
and self time (total minus the time of wrapped child calls).  Calls outside
the jet layer are also kept one span each, as (id, name, start, end,
parent id); the jet calls are too many for that and stay aggregated.

``layer_metrics`` reduces one recorder to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable

import numpy as np

import isodeform
from isodeform.jet import JetScalar
from isodeform.quadrature import QuadratureError

_LINALG = (
    "lu_factor", "solve", "det", "jacobi_svd", "svd_rank_kernel",
    "generalized_cross", "unit_normal", "cholesky_spd", "max_principal_angle",
)
_DEFORMED = (
    "deformed_metric", "deformed_metric_jets", "deformed_christoffel_jets",
    "deformed_connection_residual_field", "deformed_curvature_residual_field",
)
_SUITES = (
    "_rank_range", "_geometry_suite", "_codazzi_suite",
    "_deformation_pair_suite", "_deformation_explicit_suite", "_roundtrip_suite",
)

# (module under isodeform, attribute or Class.method, span name)
TARGETS = (
    [
        ("jet", "JetScalar.__mul__", "jet.mul"),
        ("jet", "JetScalar.__rmul__", "jet.mul"),
        ("jet", "mat_det", "jet.mat_det"),
        ("jet", "mat_inv", "jet.mat_inv"),
        ("jet", "mat_mul", "jet.mat_mul"),
        ("jet", "values", "jet.values"),
        ("jet", "d1_values", "jet.d1_values"),
        ("expr", "parse", "expr.parse"),
        ("expr", "eval_jet", "expr.eval_jet"),
        ("geometry", "chart_jets", "geometry.chart_jets"),
        ("geometry", "frame_from_jets", "geometry.frame_from_jets"),
        ("codazzi", "q_jets", "codazzi.q_jets"),
        ("codazzi", "codazzi_frame_from_jets", "codazzi.frame_from_jets"),
        ("quadrature", "integrate_segment", "quadrature.integrate_segment"),
        ("deformation", "verify_deformation", "deformation.verify_deformation"),
        ("deformation", "path_integral_on_grid", "deformation.path_integral_on_grid"),
        ("deformation", "path_integral_immersion", "deformation.path_integral_immersion"),
        ("deformation", "omega_loop_integral", "deformation.omega_loop_integral"),
        ("deformation", "extract_gh", "deformation.extract_gh"),
        ("deformation", "fd_deformed_frame", "deformation.fd_deformed_frame"),
        ("scene", "parse_scene", "scene.parse_scene"),
        ("report", "VerificationReport.to_text", "report.to_text"),
        ("report", "VerificationReport.to_json_dict", "report.to_json_dict"),
        ("mesh", "export_mesh", "mesh.export_mesh"),
    ]
    + [("linalg", name, f"linalg.{name}") for name in _LINALG]
    + [("codazzi", name, f"codazzi.{name}") for name in _DEFORMED]
    + [("suites", name, f"suites.{name}") for name in _SUITES]
)


class Recorder:
    """Spans and counters of one traced phase (one verify, one mesh export)."""

    def __init__(self):
        # (name, parent name) -> [calls, total_s, self_s]
        self.agg: Dict[tuple, list] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.missing: list = []
        self._stack = [[None, 0.0, -1]]  # [name, child time, span id]
        self._next_id = 0

    @property
    def parent(self):
        return self._stack[-1][0]

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        frame = [name, 0.0, self._next_id]
        self._next_id += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            parent[1] += dt
            key = (name, parent[0])
            entry = self.agg.get(key)
            if entry is None:
                entry = self.agg[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - frame[1]
            if not name.startswith("jet."):
                self.spans.append((frame[2], name, t0, t1, parent[2]))

    # -- reductions --------------------------------------------------------

    def calls(self, names: Iterable[str], outer: bool = False) -> int:
        names = set(names)
        return sum(
            e[0] for (n, p), e in self.agg.items()
            if n in names and not (outer and p in names)
        )

    def total(self, names: Iterable[str]) -> float:
        """Wall time inside the named spans, counting nested ones once."""
        names = set(names)
        return sum(
            e[1] for (n, p), e in self.agg.items() if n in names and p not in names
        )

    def self_time(self, names: Iterable[str]) -> float:
        names = set(names)
        return sum(e[2] for (n, _), e in self.agg.items() if n in names)

    def to_json(self) -> dict:
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (n, p), e in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
            "missing": self.missing,
        }


def _pairs(space) -> int:
    """Coefficient products of one jet product, from the public monomials."""
    degrees = [sum(m) for m in space.monomials]
    return sum(1 for a in degrees for b in degrees if a + b <= space.order)


def _make_wrapper(rec: Recorder, name: str, fn):
    if name == "jet.mul":
        pair_counts: Dict[object, int] = {}

        def mul(self, other):
            if isinstance(other, JetScalar):
                space = self.space
                pairs = pair_counts.get(space)
                if pairs is None:
                    pairs = pair_counts[space] = _pairs(space)
                a, b = self.coef, other.coef
                if a.shape == b.shape:
                    batch = a.size // a.shape[0]
                else:
                    batch = math.prod(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
                rec.counts["jet.mul_products"] += pairs * batch
            return rec.call(name, fn, (self, other), {})

        return mul

    if name == "quadrature.integrate_segment":

        def integrate_segment(integrand, *args, **kwargs):
            last = [0]

            def counted(ts):
                last[0] = len(ts)
                rec.counts["quadrature.nodes"] += len(ts)
                return rec.call("quadrature.integrand", integrand, (ts,), {})

            try:
                out = rec.call(name, fn, (counted,) + args, kwargs)
            except QuadratureError:
                rec.counts["quadrature.failures"] += 1
                raise
            # the last level evaluated is the one whose estimate is returned
            rec.counts["quadrature.accepted_nodes"] += last[0]
            return out

        return integrate_segment

    if name == "geometry.chart_jets":

        def chart_jets(chart, u, *args, **kwargs):
            order = args[0] if args else kwargs.get("order", 3)
            points = math.prod(np.shape(u)[:-1])
            rec.counts[f"geometry.jet_points.o{order}"] += points
            return rec.call(name, fn, (chart, u) + args, kwargs)

        return chart_jets

    if name.startswith("linalg."):

        def linalg_call(*args, **kwargs):
            parent = rec.parent
            if args and not (parent and parent.startswith("linalg.")):
                shape = np.shape(args[0])
                rec.counts["linalg.matrices"] += (
                    math.prod(shape[:-2]) if len(shape) >= 2 else 1
                )
            return rec.call(name, fn, args, kwargs)

        return linalg_call

    def plain(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    return plain


@contextmanager
def traced(rec: Recorder):
    """Wrap every target for the duration of the block, recording into rec."""
    modules = [isodeform] + [
        m for k, m in list(sys.modules.items())
        if k.startswith("isodeform.") and m is not None
    ]
    patches = []
    try:
        for mod_name, attr, span in TARGETS:
            mod = sys.modules.get(f"isodeform.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    rec.missing.append(f"{mod_name}.{attr}")
                    continue
                patches.append((cls, meth, orig))
                setattr(cls, meth, _make_wrapper(rec, span, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                rec.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = _make_wrapper(rec, span, orig)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    patches.append((m, key, orig))
                    setattr(m, key, wrapper)
        yield rec
    finally:
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)


def layer_metrics(verify: Recorder, setup: Recorder, mesh: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced op: its set-up, verify and mesh phases."""
    r = verify
    linalg = [f"linalg.{n}" for n in _LINALG]
    nodes = r.counts["quadrature.nodes"]
    seg = ["quadrature.integrate_segment"]
    return {
        "jet.mul_calls": r.calls(["jet.mul"]),
        "jet.mul_s": r.total(["jet.mul"]),
        "jet.mul_products": r.counts["jet.mul_products"],
        "jet.matrix_s": r.total(["jet.mat_det", "jet.mat_inv", "jet.mat_mul"]),
        "jet.extract_s": r.total(["jet.values", "jet.d1_values"]),
        "expr.parse_calls": r.calls(["expr.parse"]),
        "expr.parse_s": r.total(["expr.parse"]),
        "expr.eval_jet_calls": r.calls(["expr.eval_jet"]),
        "expr.eval_jet_self_s": r.self_time(["expr.eval_jet"]),
        "linalg.calls": r.calls(linalg, outer=True),
        "linalg.matrices": r.counts["linalg.matrices"],
        "linalg.s": r.total(linalg),
        "geometry.chart_jets_calls": r.calls(["geometry.chart_jets"]),
        **{
            f"geometry.jet_points.o{k}": r.counts[f"geometry.jet_points.o{k}"]
            for k in (2, 3, 4)
        },
        "geometry.frame_calls": r.calls(["geometry.frame_from_jets"]),
        "geometry.frame_self_s": r.self_time(["geometry.frame_from_jets"]),
        "codazzi.q_jets_calls": r.calls(["codazzi.q_jets"]),
        "codazzi.q_jets_s": r.total(["codazzi.q_jets"]),
        "codazzi.frame_s": r.total(["codazzi.frame_from_jets"]),
        "codazzi.deformed_s": r.total([f"codazzi.{n}" for n in _DEFORMED]),
        "quadrature.segments": r.calls(seg),
        "quadrature.integrand_calls": r.calls(["quadrature.integrand"]),
        "quadrature.nodes": nodes,
        "quadrature.accepted_node_share": (
            r.counts["quadrature.accepted_nodes"] / nodes if nodes else 0.0
        ),
        "quadrature.self_s": r.self_time(seg),
        "quadrature.integrand_s": r.total(["quadrature.integrand"]),
        "quadrature.failures": r.counts["quadrature.failures"],
        "deformation.verify_s": r.total(["deformation.verify_deformation"]),
        "deformation.path_grid_calls": r.calls(["deformation.path_integral_on_grid"]),
        "deformation.path_grid_s": r.total(["deformation.path_integral_on_grid"]),
        "deformation.path_point_calls": r.calls(["deformation.path_integral_immersion"]),
        "deformation.path_point_s": r.total(["deformation.path_integral_immersion"]),
        "deformation.loop_s": r.total(["deformation.omega_loop_integral"]),
        "deformation.extract_s": r.total(["deformation.extract_gh"]),
        "deformation.fd_frame_s": r.total(["deformation.fd_deformed_frame"]),
        "suites.rank_gate_s": r.total(["suites._rank_range"]),
        "suites.geometry_s": r.total(["suites._geometry_suite"]),
        "suites.codazzi_s": r.total(["suites._codazzi_suite"]),
        "suites.deformation_s": r.total(
            ["suites._deformation_pair_suite", "suites._deformation_explicit_suite"]
        ),
        "suites.roundtrip_s": r.total(["suites._roundtrip_suite"]),
        "scene.parse_s": setup.total(["scene.parse_scene"]),
        "report.render_s": r.total(["report.to_text", "report.to_json_dict"]),
        "mesh.export_s": mesh.total(["mesh.export_mesh"]),
        "mesh.path_point_calls": mesh.calls(["deformation.path_integral_immersion"]),
        "mesh.parse_calls": mesh.calls(["expr.parse"]),
        "mesh.quadrature_nodes": mesh.counts["quadrature.nodes"],
    }
