"""OBJ export: vertex/face combinatorics, slicing, and projection."""

import numpy as np
import pytest
from conftest import staircase_immersion

from isodeform import cli, deformation, mesh
from isodeform.deformation import path_base, path_integral_on_grid
from isodeform.errors import SceneError
from isodeform.geometry import grid_axes
from isodeform.mesh import _project, _slice_grid, _surface_values, export_mesh, obj_text, parse_slice
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

# Q = (1 + 0.3 u1 + 0.2 u2) Id is self-adjoint but not Codazzi on the graph:
# omega = df o Q is not closed, d omega = d(0.3 u1 + 0.2 u2) ^ df, so its F
# depends on the path
NONCLOSED = """
[chart]
catalog = graph3
[codazzi]
variant = explicit
q11 = 1 + 0.3*u1 + 0.2*u2
q12 = 0
q13 = 0
q21 = 0
q22 = 1 + 0.3*u1 + 0.2*u2
q23 = 0
q31 = 0
q32 = 0
q33 = 1 + 0.3*u1 + 0.2*u2
[run]
grid = 4
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


def _reference_obj(f3, F3, ra, rb):
    """The OBJ text as a per-coordinate formatter writes it: 8 decimals, the
    objects f then F, faces numbered from 1 across both objects."""
    lines = ["# isodeform surface pair"]
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
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, slice_spec, project",
    [(TORUS, None, None), (SPHERE, "u3=0.7", (4, 1, 2)), (NONCLOSED, "u3=0.1", None)],
    ids=["torus2", "sphere3-slice-project", "explicit"],
)
def test_obj_bytes_match_the_per_coordinate_formatter(tmp_path, text, slice_spec, project):
    scene = parse_scene(text)
    out = tmp_path / "m.obj"
    export_mesh(scene, str(out), slice_spec=slice_spec, project=project)
    fixed = parse_slice(slice_spec, scene.chart.n) if slice_spec else {}
    pts, (ra, rb) = _slice_grid(scene, fixed)
    fv, Fv = _surface_values(scene, pts, fixed)
    expected = _reference_obj(_project(fv, project), _project(Fv, project), ra, rb)
    assert out.read_bytes() == expected.encode("utf-8")


def test_obj_text_prints_signed_zero_nan_and_inf_as_the_reference():
    f3 = np.array([[-1e-12, -0.0, 0.0], [np.nan, np.inf, -np.inf],
                   [1.234567895, -2.5, 1e20], [3.0, -1e-9, 5e-9],
                   [0.1, 0.2, 0.3], [-7.0, 8.0, -9.0]])
    F3 = -f3[::-1]
    text = obj_text(f3, F3, 2, 3)
    assert text == _reference_obj(f3, F3, 2, 3)
    assert "v -0.00000000 -0.00000000 0.00000000\n" in text
    assert "v nan inf -inf\n" in text
    assert text.endswith("f 7 10 11 8\nf 8 11 12 9\n")


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
    _, Fv = _surface_values(scene, pts, {})
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


def test_mesh_f_is_the_grid_sweep_of_the_plane():
    # on the plane with Q = diag(1, 1 + u1), omega is not closed; the mesh
    # of an n = 2 chart is the verify's forward grid sweep, bit for bit
    scene = parse_scene(
        "[chart]\ncatalog = plane2\n[codazzi]\nvariant = explicit\n"
        "q11 = 1\nq12 = 0\nq21 = 0\nq22 = 1 + u1\n[run]\ngrid = 4\n"
    )
    pts, _ = _slice_grid(scene, {})
    _, Fv = _surface_values(scene, pts, {})
    Fg = path_integral_on_grid(scene.chart, scene.spec, scene.grid)
    np.testing.assert_array_equal(Fv, Fg.reshape(-1, 3))


def test_mesh_slice_integrates_the_fixed_coordinates_first():
    scene = parse_scene(NONCLOSED)
    ch, spec = scene.chart, scene.spec
    fixed = {2: 0.1}
    pts, _ = _slice_grid(scene, fixed)
    _, Fv = _surface_values(scene, pts, fixed)
    base = path_base(ch)
    fixed_first = staircase_immersion(ch, spec, base, pts, (2, 0, 1))
    assert np.abs(Fv - fixed_first).max() < 1e-12
    # the convention matters here: the index-order staircase is another F
    assert np.abs(Fv - staircase_immersion(ch, spec, base, pts)).max() > 1e-2


@pytest.mark.parametrize(
    "where",
    ["below_first_node", "first_node", "interior_node", "between_nodes", "above_last_node"],
)
def test_edge_slices_match_the_fixed_first_staircase(tmp_path, where):
    # below the first node the u3 cut runs backwards; at it, there is none
    scene = parse_scene(NONCLOSED)
    ch = scene.chart
    nodes = grid_axes(ch, scene.grid)[2]
    value = float({
        "below_first_node": 0.5 * (ch.lo[2] + nodes[0]),
        "first_node": nodes[0],
        "interior_node": nodes[1],
        "between_nodes": 0.5 * (nodes[1] + nodes[2]),
        "above_last_node": ch.hi[2],
    }[where])
    spec = f"u3={value!r}"
    assert export_mesh(scene, str(tmp_path / "e.obj"), slice_spec=spec) == (16, 9)
    fixed = parse_slice(spec, 3)
    assert fixed == {2: value}
    pts, _ = _slice_grid(scene, fixed)
    _, Fv = _surface_values(scene, pts, fixed)
    Fp = staircase_immersion(ch, scene.spec, path_base(ch), pts, (2, 0, 1))
    assert np.abs(Fv - Fp).max() < 1e-12
    if where == "first_node":
        np.testing.assert_array_equal(Fv[0], 0.0)


def _no_work(monkeypatch):
    """Record every chart jet build of the mesh and every quadrature call."""
    calls = []
    for module, name in ((mesh, "chart_jets"), (deformation, "integrate_segment")):
        original = getattr(module, name)

        def recording(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return calls


def test_bad_projection_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    calls = _no_work(monkeypatch)
    p = tmp_path / "g.scene"
    p.write_text(NONCLOSED)
    out = str(tmp_path / "g.obj")
    code = cli.main(["mesh", str(p), "--out", out, "--slice", "u3=0.1", "--project", "1,2,9"])
    assert code == 4
    assert "scene error: --project: index 9 outside 1..4" in capsys.readouterr().err
    with pytest.raises(SceneError, match=r"project: index 9 outside 1\.\.4"):
        export_mesh(parse_scene(NONCLOSED), out, slice_spec="u3=0.1", project=(1, 2, 9))
    assert calls == []


def test_missing_codazzi_section_is_refused_before_any_work(tmp_path, monkeypatch):
    calls = _no_work(monkeypatch)
    scene = parse_scene("[chart]\ncatalog = torus2\n[run]\nsuites = geometry\n")
    with pytest.raises(SceneError, match="mesh exports f and F"):
        export_mesh(scene, str(tmp_path / "x.obj"))
    assert calls == []
