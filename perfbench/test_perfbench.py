"""Smoke tests of the benchmark's own code.

    python3 -m pytest perfbench

They run each workload's scene at a 3^n grid, so they take seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import isodeform  # noqa: E402
from layertrace import Recorder, layer_metrics, traced  # noqa: E402
from run import MICRO_SPACES, UNITS, Case, margin_digits, mesh_errors, without_wall_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _small(name: str):
    scene = isodeform.parse_scene(WORKLOADS[name].scene_text(0))
    return dataclasses.replace(scene, grid=(3,) * scene.chart.n)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_report_matches_untraced(name):
    scene = _small(name)
    plain = isodeform.run_suites(scene)
    rec = Recorder()
    with traced(rec):
        report = isodeform.run_suites(scene)
    assert without_wall_time(report.to_text()) == without_wall_time(plain.to_text())
    assert margin_digits(report) == margin_digits(plain)
    assert rec.missing == []
    assert rec.calls(["jet.mul"]) > 0


def test_trace_restores_every_binding():
    jet_cls = isodeform.jet.JetScalar
    before = (jet_cls.__mul__, jet_cls.__rmul__, isodeform.suites.chart_jets,
              isodeform.run_suites, isodeform.expr.parse)
    with traced(Recorder()):
        assert isodeform.suites.chart_jets is not before[2]
        assert isodeform.suites.chart_jets is isodeform.geometry.chart_jets
    after = (jet_cls.__mul__, jet_cls.__rmul__, isodeform.suites.chart_jets,
             isodeform.run_suites, isodeform.expr.parse)
    assert after == before


def test_layer_counts_on_small_explicit_scene():
    scene = _small("explicit")
    verify, mesh = Recorder(), Recorder()
    with traced(verify):
        isodeform.run_suites(scene)
    metrics = layer_metrics(verify, Recorder(), mesh)
    # one interior finite-difference probe at 3^3, 49 staircase integrals
    assert metrics["deformation.path_point_calls"] == 49
    assert metrics["expr.parse_calls"] > 0
    assert 0 < metrics["quadrature.accepted_node_share"] < 1
    assert metrics["quadrature.failures"] == 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    layer = layer_metrics(Recorder(), Recorder(), Recorder())
    reported = set(layer) | {"trace.overhead_s"} | {
        f"jet.mul_us.n{n}k{k}" for n, k in MICRO_SPACES
    }
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seeded_scenes():
    for name, wl in WORKLOADS.items():
        assert wl.scene_text(7) == wl.scene_text(7)
        assert wl.scene_text(7) != wl.scene_text(8)
        for key, (lo, hi) in wl.ranges.items():
            assert lo <= float(wl.params(7)[key]) <= hi
    assert WORKLOADS["pointwise"].params(0) == {"r": "1", "t": "0.3"}
    assert WORKLOADS["grid_pair"].params(0) == {"r": "2", "t": "1"}
    assert WORKLOADS["explicit"].params(0) == {"t": "0.05"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_mesh_check_catches_a_moved_vertex(name, tmp_path):
    wl = WORKLOADS[name]
    scene = _small(name)
    mesh_path = tmp_path / "m.obj"
    counts = isodeform.export_mesh(scene, str(mesh_path), slice_spec=wl.mesh_slice)
    case = Case(iso=isodeform, wl=wl, params=wl.params(0), scene=scene,
                scene_path=tmp_path / "unused.scene", mesh_path=mesh_path,
                expected={"mesh": list(counts)})
    assert mesh_errors(case, counts) == []
    lines = mesh_path.read_text().splitlines()
    last_v = max(i for i, ln in enumerate(lines) if ln.startswith("v "))
    x, y, z = (float(c) for c in lines[last_v].split()[1:])
    lines[last_v] = f"v {x + 1e-5:.8f} {y:.8f} {z:.8f}"
    mesh_path.write_text("\n".join(lines) + "\n")
    assert mesh_errors(case, counts) != []
