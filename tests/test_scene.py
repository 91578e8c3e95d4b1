"""Scene file parsing: the line-oriented key=value format with sections."""

import numpy as np
import pytest
from conftest import load_benchmark_module

from isodeform import geometry
from isodeform.codazzi import Explicit, GHPair, MinusA, Parallel
from isodeform.errors import SceneError
from isodeform.scene import SUITES, load_scene, parse_scene

GOOD = """
# a comment line
[chart]
catalog = sphere3
r = 2

[codazzi]
variant = parallel
t = 1

[run]
grid = 5
order = 3
suites = deformation, geometry
tol_metric = 1e-8
"""


def test_catalog_scene_fields():
    sc = parse_scene(GOOD)
    assert sc.chart.label == "sphere3"
    assert sc.chart.n == 3
    assert sc.spec == Parallel(1.0)
    assert sc.grid == (5, 5, 5)
    assert sc.order == 3
    # canonical suite order, independent of the spelling in the file
    assert sc.suites == ("geometry", "deformation")
    assert sc.tol == {"metric": 1e-8}
    assert sc.warnings == ()


def test_defaults_without_run_section():
    sc = parse_scene("[chart]\ncatalog = torus2\n[codazzi]\nvariant = minusA\n")
    assert sc.grid == (9, 9)
    assert sc.order == 4
    assert sc.suites == SUITES
    assert sc.spec == MinusA()


def test_inline_chart():
    sc = parse_scene(
        """
[chart]
n = 2
f1 = u1
f2 = u2
f3 = u1^2 - u2^2
domain1 = -1, 1
domain2 = -1, 1
[codazzi]
variant = gh
g = "u1*u2"
h = "0.1*u1"
[run]
grid = 3, 4
suites = geometry
"""
    )
    assert sc.chart.n == 2
    assert sc.chart.ambient_dim == 3
    assert sc.grid == (3, 4)
    assert sc.spec == GHPair("u1*u2", "0.1*u1")
    np.testing.assert_allclose(sc.chart.lo, [-1, -1])
    np.testing.assert_allclose(sc.chart.hi, [1, 1])


def test_explicit_variant_and_center_warning():
    # q12 != q21 for the flat metric: load-time warning, not an error
    sc = parse_scene(
        """
[chart]
catalog = plane2
[codazzi]
variant = explicit
q11 = 1
q12 = u1
q21 = 0
q22 = 1
[run]
suites = codazzi
"""
    )
    assert isinstance(sc.spec, Explicit)
    assert sc.spec.entries == (("1", "u1"), ("0", "1"))
    assert len(sc.warnings) == 1
    assert "not g-self-adjoint" in sc.warnings[0]


@pytest.mark.parametrize("workload", ["pointwise", "grid_pair", "explicit"])
def test_load_scene_builds_no_jet_frame(monkeypatch, tmp_path, workload):
    # the sphcyl4, sphere3 and explicit graph3 scenes of the benchmark: the
    # chart's centre gate and the explicit centre warning read value frames
    path = tmp_path / "w.scene"
    path.write_text(load_benchmark_module("workloads").WORKLOADS[workload].scene_text(0))
    frames = []
    build = geometry.frame_from_jets

    def counting(cj):
        frames.append(1)
        return build(cj)

    monkeypatch.setattr(geometry, "frame_from_jets", counting)
    scene = load_scene(str(path))
    assert frames == []
    assert scene.chart.label in ("sphcyl4", "sphere3", "graph3")


def test_geometry_only_scene_needs_no_codazzi():
    sc = parse_scene("[chart]\ncatalog = plane2\n[run]\nsuites = geometry\n")
    assert sc.spec is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("[codazzi]\nvariant = minusA\n", "missing section: chart"),
        ("[chart\ncatalog = plane2\n", "line 1: malformed section header"),
        ("[nope]\n", "line 1: unknown section: nope"),
        ("[chart]\n[chart]\n", "line 2: duplicate section: chart"),
        ("[chart]\ncatalog plane2\n", "line 2: expected key=value"),
        ("catalog = plane2\n", "line 1: key outside any section"),
        ("[chart]\n= plane2\n", "line 2: empty key"),
        ("[chart]\ncatalog = plane2\ncatalog = torus2\n", "line 3: duplicate key: catalog"),
        ("[chart]\ncatalog = plane9\n", "unknown catalog"),
        ("[chart]\ncatalog = sphere3\nr = two\n", "[chart] r: expected a number"),
        ("[chart]\nn = 1\n", "n must be at least 2"),
        ("[chart]\nn = 2\nf1 = u1\nf2 = u2\n", "missing key in [chart]: f3"),
        (
            "[chart]\nn = 2\nf1 = u1\nf2 = u2\nf3 = u3\ndomain1 = 0,1\ndomain2 = 0,1\n",
            "variable u3 out of range",
        ),
        ("[chart]\ncatalog = plane2\nbogus = 3\n", "unexpected keyword argument 'bogus'"),
        ("[chart]\ncatalog = plane2\n[codazzi]\nt = 1\n", "missing key in [codazzi]: variant"),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = spin\n",
            "variant must be parallel, gh, minusA or explicit",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = parallel\n",
            "missing key in [codazzi]: t",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = parallel\nt = 1\nextra = 2\n",
            "unknown key in [codazzi]: extra",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = gh\ng = u1 +\nh = 0\n",
            "[codazzi] g",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\ngrid = 2\n",
            "grid: resolution must be >= 3",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\ngrid = 3,3,3\n",
            "expected one value or 2",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\norder = 5\n",
            "order must be 2, 3 or 4",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\nsuites = magic\n",
            "unknown suite 'magic'",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\ntol_metric = -1\n",
            "tolerance must be positive",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\ntol_warp = 1e-3\n",
            "unknown tolerance: warp",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\nproject = 1,2\n",
            "project: expected three coordinate indices",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = minusA\n[run]\nproject = 1,2,9\n",
            "project: index 9 outside 1..3",
        ),
        (
            "[chart]\ncatalog = plane2\n[run]\nsuites = deformation\n",
            "missing section: codazzi (required by suites: deformation)",
        ),
        (
            "[chart]\ncatalog = plane2\n[codazzi]\nvariant = explicit\nq11 = 1\n",
            "missing key in [codazzi]: q12",
        ),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(SceneError) as exc:
        parse_scene(text)
    assert message in str(exc.value)


def test_parse_is_deterministic():
    a = parse_scene(GOOD)
    b = parse_scene(GOOD)
    assert a.grid == b.grid and a.suites == b.suites and a.tol == b.tol
    assert a.spec == b.spec
    assert a.chart.label == b.chart.label


def test_load_scene_missing_file(tmp_path):
    with pytest.raises(SceneError) as exc:
        load_scene(str(tmp_path / "nope.scene"))
    assert "cannot read scene file" in str(exc.value)


def test_load_scene_roundtrip(tmp_path):
    p = tmp_path / "s.scene"
    p.write_text(GOOD)
    sc = load_scene(str(p))
    assert sc.grid == (5, 5, 5)


def test_quoted_values_are_unquoted():
    sc = parse_scene(
        '[chart]\ncatalog = graph3\nphi = "u1^2 + u2*u3 + 0.3*u3^2"\n'
        "[codazzi]\nvariant = minusA\n"
    )
    assert sc.chart.label == "graph3"
