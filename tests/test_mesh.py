"""OBJ export: vertex/face combinatorics, slicing, and projection."""

import numpy as np
import pytest

from isodeform.errors import SceneError
from isodeform.mesh import _slice_grid, _surface_values, export_mesh, parse_slice
from isodeform.scene import parse_scene

TORUS = """
[chart]
catalog = torus2
[codazzi]
variant = parallel
t = 0.2
[run]
grid = 3
"""

SPHERE = """
[chart]
catalog = sphere3
r = 2
[codazzi]
variant = parallel
t = 1
[run]
grid = 3
"""


def _read_obj(path):
    objects = {}
    current = None
    for line in open(path, encoding="utf-8"):
        parts = line.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "o":
            current = parts[1]
            objects[current] = {"v": [], "f": []}
        elif parts[0] == "v":
            objects[current]["v"].append([float(x) for x in parts[1:]])
        elif parts[0] == "f":
            objects[current]["f"].append([int(x) for x in parts[1:]])
    return objects


def test_two_objects_with_quads(tmp_path):
    out = str(tmp_path / "torus.obj")
    nv, nq = export_mesh(parse_scene(TORUS), out)
    assert (nv, nq) == (9, 4)
    objs = _read_obj(out)
    assert set(objs) == {"f", "F"}
    for name in ("f", "F"):
        verts = np.array(objs[name]["v"])
        assert verts.shape == (9, 3)
        assert np.isfinite(verts).all()
        assert len(objs[name]["f"]) == 4
        for quad in objs[name]["f"]:
            assert len(quad) == 4 and len(set(quad)) == 4
    # face indices are global across both objects (OBJ numbering is 1-based)
    f_idx = {i for quad in objs["f"]["f"] for i in quad}
    F_idx = {i for quad in objs["F"]["f"] for i in quad}
    assert f_idx <= set(range(1, 10))
    assert F_idx <= set(range(10, 19))
    # the two surfaces are genuinely distinct point sets
    assert np.abs(np.array(objs["f"]["v"]) - np.array(objs["F"]["v"])).max() > 1e-3


def test_slice_reduces_to_two_free_axes(tmp_path):
    out = str(tmp_path / "sphere.obj")
    nv, nq = export_mesh(parse_scene(SPHERE), out, slice_spec="u3=0.7")
    assert (nv, nq) == (9, 4)
    objs = _read_obj(out)
    # concentric spheres of radius 2 and 3 (parallel offset with t=1)
    r_f = np.linalg.norm(np.array(objs["f"]["v"]), axis=1)
    # the default projection keeps the first three of four ambient
    # coordinates, so projected radii only bound the true ones
    assert (r_f <= 2 + 1e-9).all()


def test_slice_parsing():
    assert parse_slice("u3=0.7", 4) == {2: 0.7}
    assert parse_slice("u3 = 0.5, u4 = 0.25", 4) == {2: 0.5, 3: 0.25}


@pytest.mark.parametrize(
    "spec, n, message",
    [
        ("u3:0.7", 3, "expected u<k>=value"),
        ("ux=0.7", 3, "bad coordinate name"),
        ("u9=0.7", 3, "outside u1..u3"),
        ("u3=0.7,u3=0.8", 3, "fixed twice"),
        ("u3=seven", 3, "bad value"),
    ],
)
def test_slice_errors(spec, n, message):
    with pytest.raises(SceneError) as exc:
        parse_slice(spec, n)
    assert message in str(exc.value)


def test_mesh_needs_exactly_two_free_axes(tmp_path):
    out = str(tmp_path / "x.obj")
    with pytest.raises(SceneError) as exc:
        export_mesh(parse_scene(SPHERE), out)
    assert "exactly 2 free coordinates" in str(exc.value)
    with pytest.raises(SceneError):
        export_mesh(parse_scene(TORUS), out, slice_spec="u1=2.0")


def test_slice_value_must_be_inside_domain(tmp_path):
    out = str(tmp_path / "x.obj")
    with pytest.raises(SceneError) as exc:
        export_mesh(parse_scene(SPHERE), out, slice_spec="u3=9.0")
    assert "outside" in str(exc.value)


def test_mesh_requires_codazzi_section(tmp_path):
    scene = parse_scene("[chart]\ncatalog = torus2\n[run]\nsuites = geometry\n")
    with pytest.raises(SceneError) as exc:
        export_mesh(scene, str(tmp_path / "x.obj"))
    assert "mesh exports f and F" in str(exc.value)


def test_projection_for_high_ambient_dimension(tmp_path):
    scene = parse_scene(
        "[chart]\ncatalog = sphcyl4\nr = 1\n[codazzi]\nvariant = parallel\n"
        "t = 0.3\n[run]\ngrid = 3\n"
    )
    out = str(tmp_path / "sc.obj")
    nv, nq = export_mesh(scene, out, slice_spec="u3=0.5,u4=0.4", project=(1, 2, 5))
    assert (nv, nq) == (9, 4)
    with pytest.raises(SceneError) as exc:
        export_mesh(scene, out, slice_spec="u3=0.5,u4=0.4", project=(1, 2, 6))
    assert "project" in str(exc.value)


def test_explicit_variant_uses_path_integration(tmp_path):
    # diag(p(u1), 1) is Codazzi on the flat plane, so the integrated F is
    # path-independent: F = (u1 + 0.05 u1^2, u2, 0) up to a translation
    scene = parse_scene(
        """
[chart]
catalog = plane2
[codazzi]
variant = explicit
q11 = 1 + 0.1*u1
q12 = 0
q21 = 0
q22 = 1
[run]
grid = 3
"""
    )
    out = str(tmp_path / "pe.obj")
    nv, nq = export_mesh(scene, out)
    assert (nv, nq) == (9, 4)
    objs = _read_obj(out)
    assert np.isfinite(np.array(objs["F"]["v"])).all()
    pts, _ = _slice_grid(scene, {})
    _, Fv = _surface_values(scene, pts)
    u1, u2 = pts[:, 0], pts[:, 1]
    exact = np.stack([u1 + 0.05 * u1**2, u2, np.zeros_like(u1)], axis=-1)
    shift = exact[0] - Fv[0]
    assert np.abs(Fv + shift - exact).max() < 1e-9


def test_parallel_offset_moves_along_the_normal(tmp_path):
    # for the torus with t=0.2 every F vertex sits exactly t from its
    # f vertex, along the surface normal
    out = str(tmp_path / "t.obj")
    export_mesh(parse_scene(TORUS), out)
    objs = _read_obj(out)
    d = np.array(objs["F"]["v"]) - np.array(objs["f"]["v"])
    np.testing.assert_allclose(np.linalg.norm(d, axis=1), 0.2, atol=1e-9)
