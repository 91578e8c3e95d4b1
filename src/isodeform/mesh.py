"""Wavefront OBJ export of the original and deformed surfaces.

The mesh is a quad grid over a 2-parameter patch: the chart itself for
n = 2, or a coordinate slice (all but two coordinates fixed) for higher n.
Vertices are the first three ambient coordinates, optionally after picking
a different triple with ``project``.  The file holds two objects, ``f``
(the original immersion) and ``F`` (the deformed one), so any OBJ viewer
shows both surfaces in one scene.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .deformation import closed_form_immersion, path_integral_immersion
from .errors import SceneError
from .geometry import GRID_SHRINK, chart_jets, grid_axes, jet_partials
from .scene import Scene


def parse_slice(spec: str, n: int) -> Dict[int, float]:
    """Parse "u3=0.7,u4=0.1" into {axis_index: value} with 0-based axes."""
    fixed: Dict[int, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or not key.startswith("u"):
            raise SceneError(f"slice: expected u<k>=value, got {part!r}")
        try:
            axis = int(key[1:]) - 1
        except ValueError:
            raise SceneError(f"slice: bad coordinate name {key!r}")
        if not (0 <= axis < n):
            raise SceneError(f"slice: coordinate {key} outside u1..u{n}")
        if axis in fixed:
            raise SceneError(f"slice: coordinate {key} fixed twice")
        try:
            fixed[axis] = float(val)
        except ValueError:
            raise SceneError(f"slice: bad value {val!r} for {key}")
    return fixed


def _slice_grid(
    scene: Scene, fixed: Dict[int, float]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    chart = scene.chart
    n = chart.n
    free = [k for k in range(n) if k not in fixed]
    if len(free) != 2:
        raise SceneError(
            f"mesh needs exactly 2 free coordinates, got {len(free)} "
            f"(fix {n - 2} of {n} with --slice)"
        )
    for axis, value in fixed.items():
        if not (chart.lo[axis] <= value <= chart.hi[axis]):
            raise SceneError(
                f"slice: u{axis + 1}={value} outside "
                f"[{chart.lo[axis]}, {chart.hi[axis]}]"
            )
    axes = grid_axes(chart, scene.grid)
    a, b = free
    ta, tb = np.meshgrid(axes[a], axes[b], indexing="ij")
    pts = np.empty(ta.shape + (n,))
    for axis, value in fixed.items():
        pts[..., axis] = value
    pts[..., a] = ta
    pts[..., b] = tb
    return pts.reshape(-1, n), (len(axes[a]), len(axes[b]))


def _surface_values(scene: Scene, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    chart = scene.chart
    cj = chart_jets(chart, pts, order=2)
    fv = jet_partials(cj.comps, 0, cj.batch_shape)
    if scene.spec is None:
        raise SceneError("missing section: codazzi (mesh exports f and F)")
    if scene.spec.pair() is None:
        # no closed form: integrate the 1-form df o Q to all vertices at once
        base = np.asarray(chart.lo) + GRID_SHRINK * (
            np.asarray(chart.hi) - np.asarray(chart.lo)
        )
        Fv = path_integral_immersion(chart, scene.spec, base, pts)
    else:
        Fv = closed_form_immersion(chart, scene.spec)(cj)
    return fv, Fv


def _project(vals: np.ndarray, project: Optional[Sequence[int]]) -> np.ndarray:
    if project is None:
        idx = (0, 1, 2)
    else:
        idx = tuple(i - 1 for i in project)
    return vals[..., list(idx)]


def export_mesh(
    scene: Scene,
    out_path: str,
    slice_spec: Optional[str] = None,
    project: Optional[Sequence[int]] = None,
) -> Tuple[int, int]:
    """Write the f/F quad meshes as OBJ; returns (vertices, quads) per object."""
    chart = scene.chart
    fixed = parse_slice(slice_spec, chart.n) if slice_spec else {}
    pts, (ra, rb) = _slice_grid(scene, fixed)
    fv, Fv = _surface_values(scene, pts)
    if project is None:
        project = scene.project
    if project is not None:
        for i in project:
            if not (1 <= i <= chart.ambient_dim):
                raise SceneError(
                    f"project: index {i} outside 1..{chart.ambient_dim}"
                )
    f3 = _project(fv, project)
    F3 = _project(Fv, project)

    lines: List[str] = ["# isodeform surface pair"]
    offset = 0
    for name, verts in (("f", f3), ("F", F3)):
        lines.append(f"o {name}")
        for v in verts:
            lines.append("v " + " ".join(f"{x:.8f}" for x in v))
        for i in range(ra - 1):
            for j in range(rb - 1):
                v00 = offset + i * rb + j + 1
                v01 = v00 + 1
                v10 = v00 + rb
                v11 = v10 + 1
                lines.append(f"f {v00} {v10} {v11} {v01}")
        offset += len(verts)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return ra * rb, (ra - 1) * (rb - 1)
