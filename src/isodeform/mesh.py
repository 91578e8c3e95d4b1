"""Wavefront OBJ export of the original and deformed surfaces.

The mesh is a quad grid over a 2-parameter patch: the chart itself for
n = 2, or a coordinate slice (all but two coordinates fixed) for higher n.
Vertices are the first three ambient coordinates, optionally after picking
a different triple with ``project``.  The file holds two objects, ``f``
(the original immersion) then ``F`` (the deformed one), so any OBJ viewer
shows both surfaces in one scene.  Each object is its ``o`` line, one
``v`` line per grid node, row-major, with each coordinate printed by
``%.8f``, and one ``f`` quad per grid cell; vertices are numbered from 1
across both objects.

An explicit Q's F = int df o Q starts at ``path_base`` and runs along the
fixed coordinates, through the grid nodes up to the slice values, then
shares the prefixes of the free ones, in one quadrature call.  It is the
per-vertex staircase's F only where omega = df o Q is closed (the ``loop``
check).  Inputs are checked before any jet or quadrature work.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .deformation import closed_form_immersion, path_integral_on_grid
from .errors import SceneError
from .geometry import chart_jets, grid_axes, jet_partials
from .scene import Scene, write_output


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
    cut = [np.array([fixed[k]]) if k in fixed else a for k, a in enumerate(axes)]
    pts = np.empty(tuple(map(len, cut)) + (n,))
    for k, line in enumerate(np.meshgrid(*cut, indexing="ij", sparse=True)):
        pts[..., k] = line
    return pts.reshape(-1, n), tuple(len(axes[k]) for k in free)


def _surface_values(
    scene: Scene, pts: np.ndarray, fixed: Dict[int, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """f and F at the slice grid ``pts``, cut from the scene grid at ``fixed``."""
    chart, spec = scene.chart, scene.spec
    if spec is None:
        raise SceneError("missing section: codazzi (mesh exports f and F)")
    cj = chart_jets(chart, pts, order=2)
    fv = jet_partials(cj.comps, 0, cj.batch_shape)
    if spec.pair() is None:
        # no closed form: one shared-prefix sweep of the slice grid
        Fv = path_integral_on_grid(chart, spec, scene.grid, fixed=fixed)
        return fv, Fv.reshape(-1, chart.ambient_dim)
    return fv, closed_form_immersion(chart, spec)(cj)


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
    if project is None:
        project = scene.project
    if project is not None:
        for i in project:
            if not (1 <= i <= chart.ambient_dim):
                raise SceneError(
                    f"project: index {i} outside 1..{chart.ambient_dim}"
                )
    fv, Fv = _surface_values(scene, pts, fixed)
    write_output(out_path, obj_text(_project(fv, project), _project(Fv, project), ra, rb))
    return ra * rb, (ra - 1) * (rb - 1)


def obj_text(f3: np.ndarray, F3: np.ndarray, ra: int, rb: int) -> str:
    """The OBJ text of the vertex grids f3 and F3, each (ra * rb, 3) in row-major
    grid order: one quad per grid cell, numbered across both objects from 1."""
    cell = np.arange(ra * rb).reshape(ra, rb)[:-1, :-1].reshape(-1, 1)
    quads = (cell + [0, rb, rb + 1, 1]).reshape(-1)  # v00 v10 v11 v01 of each cell
    vertex, faces = "v" + " %.8f" * f3.shape[1] + "\n", "f %d %d %d %d\n" * len(cell)
    text = ["# isodeform surface pair\n"]
    for name, verts, first in (("f", f3, 1), ("F", F3, 1 + ra * rb)):
        text += [f"o {name}\n", vertex * len(verts) % tuple(verts.reshape(-1).tolist())]
        text.append(faces % tuple((quads + first).tolist()))
    return "".join(text)
