"""End-to-end CLI runs: exit-code contract, report output, JSON, mesh."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isodeform

# the CLI subprocess imports the same isodeform as this test run
SRC = str(Path(isodeform.__file__).resolve().parents[1])

GOOD = """
[chart]
catalog = sphere3
r = 2
[codazzi]
variant = parallel
t = 1
[run]
grid = 4
suites = geometry, deformation
"""

PLANE = """
[chart]
catalog = plane2
[codazzi]
variant = parallel
t = 0.5
[run]
suites = deformation
"""

TORUS = """
[chart]
catalog = torus2
[codazzi]
variant = parallel
t = 0.1
[run]
grid = 3
"""


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "isodeform.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")},
    )


@pytest.fixture()
def good_scene(tmp_path):
    p = tmp_path / "good.scene"
    p.write_text(GOOD)
    return str(p)


def test_verify_pass_exit_zero(good_scene):
    res = run_cli("verify", good_scene)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("report: isodeform\n")
    assert "result: pass" in res.stdout
    assert "check: metric" in res.stdout
    assert "sign: +1" in res.stdout


def test_verify_json_output(good_scene, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", good_scene, "--json", str(out))
    assert res.returncode == 0
    blob = json.loads(out.read_text())
    assert blob["result"] == "pass"
    assert blob["chart"] == "sphere3"
    assert any(c["name"] == "wedge" for c in blob["checks"])


def test_report_determinism_modulo_wall_time(good_scene):
    def strip(text):
        return "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("wall_time_s:")
        )

    a = run_cli("verify", good_scene)
    b = run_cli("verify", good_scene)
    assert strip(a.stdout) == strip(b.stdout)


def test_rank_gate_exit_three(tmp_path):
    p = tmp_path / "plane.scene"
    p.write_text(PLANE)
    res = run_cli("verify", str(p))
    assert res.returncode == 3
    assert "rank A >= 3 violated" in res.stderr


@pytest.mark.parametrize("suite", ["deformation", "roundtrip"])
def test_rank_gate_exit_three_on_a_two_chunk_grid(tmp_path, suite):
    p = tmp_path / "plane.scene"
    p.write_text(PLANE.replace("suites = deformation", f"grid = 33\nsuites = {suite}"))
    res = run_cli("verify", str(p))
    assert res.returncode == 3
    assert "rank A >= 3 violated: certified rank 0" in res.stderr


def test_overflowed_q_exit_three(tmp_path):
    p = tmp_path / "huge.scene"
    p.write_text(GOOD.replace("t = 1", "t = 1e308"))
    res = run_cli("verify", str(p))
    assert res.returncode == 3
    assert "deformation operator is not finite" in res.stderr


def test_parse_error_exit_four(tmp_path):
    p = tmp_path / "bad.scene"
    p.write_text("[chart]\ncatalog = sphere3\nr = two\n")
    res = run_cli("verify", str(p))
    assert res.returncode == 4
    assert "scene error" in res.stderr


def test_missing_file_exit_four():
    res = run_cli("verify", "/nonexistent/path.scene")
    assert res.returncode == 4


def test_verification_failure_exit_two(good_scene):
    res = run_cli("verify", good_scene, "--tol", "metric=1e-18")
    assert res.returncode == 2
    assert "result: FAIL" in res.stdout


def test_unknown_tolerance_exit_four(good_scene):
    res = run_cli("verify", good_scene, "--tol", "warp=1e-6")
    assert res.returncode == 4
    assert "unknown tolerance" in res.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_exit_four(good_scene, value):
    res = run_cli("verify", good_scene, "--tol", f"weingarten={value}")
    assert res.returncode == 4
    assert "positive and finite" in res.stderr


def test_expression_domain_violation_exit_four(tmp_path):
    # log(u1) is defined at the box center but not on the whole grid
    p = tmp_path / "log.scene"
    p.write_text(
        "[chart]\nn = 2\nf1 = u1\nf2 = u2\nf3 = log(u1)\n"
        "domain1 = -0.5,1\ndomain2 = 0,1\n[run]\nsuites = geometry\n"
    )
    res = run_cli("verify", str(p))
    assert res.returncode == 4
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("domain error: log")
    assert "np.float64" not in res.stderr
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "f3,domain1,stderr",
    [
        ("log(u1)", "-0.5,1", "domain error: log of a jet with value -0.47 (at offset 0)"),
        ("sqrt(u1)", "-0.5,1", "domain error: sqrt of a jet with value -0.47 (at offset 0)"),
        ("u1^-2", "-1,1", "division by a jet with value 0.0 (at offset 0)"),
        ("u1/0", "0,1", "division by a jet with value 0.0 (at offset 0)"),
        ("u1/(2-2)", "0,1", "division by a jet with value 0.0 (at offset 0)"),
    ],
)
def test_chart_domain_rules_exit_four(tmp_path, f3, domain1, stderr):
    # log and sqrt fail on the grid; the divisions already at the box center
    p = tmp_path / "dom.scene"
    p.write_text(
        f"[chart]\nn = 2\nf1 = u1\nf2 = u2\nf3 = {f3}\ndomain1 = {domain1}\n"
        "domain2 = -1,1\n[run]\ngrid = 3\nsuites = geometry\n"
    )
    res = run_cli("verify", str(p))
    assert res.returncode == 4
    assert res.stderr.rstrip().endswith(stderr)
    assert len(res.stderr.splitlines()) == 1


def test_operator_domain_violation_in_mesh_exit_four(tmp_path):
    # q11 is undefined at quadrature nodes of the path-integrated mesh
    p = tmp_path / "qlog.scene"
    p.write_text(
        "[chart]\ncatalog = plane2\n[codazzi]\nvariant = explicit\n"
        "q11 = 1 + 0.1*log(u1)\nq12 = 0\nq21 = 0\nq22 = 1\n"
        "[run]\ngrid = 3\n"
    )
    res = run_cli("mesh", str(p), "--out", str(tmp_path / "q.obj"))
    assert res.returncode == 4
    assert res.stderr.startswith("domain error: log")
    # the message names the offending value, as a plain number
    assert re.search(r"-\d+\.\d+", res.stderr)
    assert "np.float64" not in res.stderr


def test_point_mode(good_scene):
    res = run_cli("verify", good_scene, "--point", "0.6,0.7,0.8")
    assert res.returncode == 0, res.stderr
    assert "single-point rerun" in res.stdout
    bad = run_cli("verify", good_scene, "--point", "0.6,0.7")
    assert bad.returncode == 4
    outside = run_cli("verify", good_scene, "--point", "9,9,9")
    assert outside.returncode == 4


def test_grid_override(good_scene):
    res = run_cli("verify", good_scene, "--grid", "3")
    assert res.returncode == 0
    assert "grid: 3,3,3" in res.stdout
    bad = run_cli("verify", good_scene, "--grid", "2")
    assert bad.returncode == 4


def test_mesh_subcommand(tmp_path):
    p = tmp_path / "torus.scene"
    p.write_text(TORUS)
    out = tmp_path / "torus.obj"
    res = run_cli("mesh", str(p), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "9 vertices" in res.stdout
    text = out.read_text()
    assert "o f" in text and "o F" in text

    res2 = run_cli("mesh", str(p), "--out", str(out), "--slice", "u1=99")
    assert res2.returncode == 4

    res3 = run_cli("mesh", str(p), "--out", str(out), "--project", "1,1,2")
    assert res3.returncode == 4
    assert "--project: indices must be distinct" in res3.stderr


def test_project_messages_name_their_origin(tmp_path):
    # one parsing rule for the flag and the scene key; the message says
    # which one was wrong
    p = tmp_path / "torus.scene"
    p.write_text(TORUS)
    out = tmp_path / "torus.obj"
    res = run_cli("mesh", str(p), "--out", str(out), "--project", "1,2,9")
    assert res.returncode == 4
    assert "scene error: --project: index 9 outside 1..3" in res.stderr
    p.write_text(TORUS + "project = 1,2,x\n")
    res = run_cli("mesh", str(p), "--out", str(out))
    assert res.returncode == 4
    assert "scene error: [run] project: expected an integer, got 'x'" in res.stderr


def test_help_lists_subcommands():
    res = run_cli("--help")
    assert res.returncode == 0
    for sub in ("verify", "mesh", "selftest"):
        assert sub in res.stdout


def test_geometry_only_scene_with_non_self_adjoint_q_exit_zero(tmp_path):
    # the explicit Q below is not g-self-adjoint, but only geometry runs,
    # and geometry never builds Q
    p = tmp_path / "geometry.scene"
    p.write_text(
        "[chart]\ncatalog = sphere3\n[codazzi]\nvariant = explicit\n"
        "q11 = 1\nq12 = u1\nq13 = 0\nq21 = 0\nq22 = 1\nq23 = 0\n"
        "q31 = 0\nq32 = 0\nq33 = 1\n[run]\ngrid = 3\nsuites = geometry\n"
    )
    res = run_cli("verify", str(p))
    assert res.returncode == 0, res.stderr
    assert "result: pass" in res.stdout
    assert "check: weingarten" in res.stdout
