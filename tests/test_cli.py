"""End-to-end CLI runs: exit-code contract, report output, JSON, mesh."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isodeform
from isodeform import cli

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
    # numpy's overflow warnings stay off stderr: the verdict is its one line
    assert res.stderr.startswith("hypothesis violated: deformation operator is not finite")
    assert len(res.stderr.splitlines()) == 1


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_has_one_message_in_scene_and_flag(capsys, tmp_path, value):
    # the scene's tol_ key and --tol reach the same gate, resolve_tolerances
    p = tmp_path / "tol.scene"
    p.write_text(GOOD + f"tol_weingarten = {value}\n")
    assert cli.main(["verify", str(p)]) == 4
    from_scene = capsys.readouterr().err
    p.write_text(GOOD)
    assert cli.main(["verify", str(p), "--tol", f"weingarten={value}"]) == 4
    assert capsys.readouterr().err == from_scene == (
        "scene error: tolerance must be positive and finite: weingarten\n"
    )


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
    assert res.stderr.startswith("scene error: log")
    assert "np.float64" not in res.stderr
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "f3,domain1,stderr",
    [
        ("log(u1)", "-0.5,1", "scene error: log of a jet with value -0.47 (at offset 0)"),
        ("sqrt(u1)", "-0.5,1", "scene error: sqrt of a jet with value -0.47 (at offset 0)"),
        ("u1^-2", "-1,1", "division by a jet with value 0.0 (at offset 0)"),
        ("u1/0", "0,1", "division by a jet with value 0.0 (at offset 0)"),
        ("u1/(2-2)", "0,1", "division by a jet with value 0.0 (at offset 0)"),
        (
            "log(u1)",
            "-1,1",
            "scene error: chart: not defined at box center: "
            "log of a jet with value 0.0 (at offset 0)",
        ),
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
    assert res.stderr.startswith("scene error: log")
    # the message names the offending value, as a plain number
    assert re.search(r"-\d+\.\d+", res.stderr)
    assert "np.float64" not in res.stderr


def test_operator_domain_violation_reads_alike_in_verify_and_mesh(capsys, tmp_path):
    # verify meets log(u1 + 0.3) < 0 on the jet route of its sample pass,
    # mesh on the value route of its path integrals: one rule, one text
    p = tmp_path / "qlog3.scene"
    p.write_text(
        "[chart]\ncatalog = graph3\n[codazzi]\n"
        + _explicit(3, "log(u1 + 0.3) + 1", (1, 1))
        + "\n[run]\ngrid = 5\n"
    )
    assert cli.main(["verify", str(p)]) == 4
    verify = capsys.readouterr().err
    assert cli.main(["mesh", str(p), "--out", str(tmp_path / "q.obj"), "--slice", "u3=0"]) == 4
    mesh = capsys.readouterr().err
    assert mesh == verify == "scene error: log of a jet with value -0.18 (at offset 0)\n"


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


def test_mesh_refuses_unknown_scene_tolerance(tmp_path):
    # a scene's tol_ keys are checked at load, so mesh exits 4 like verify
    p = tmp_path / "warp.scene"
    p.write_text(GOOD.replace("[run]", "[run]\ntol_warp = 1e-3"))
    out = tmp_path / "warp.obj"
    res = run_cli("mesh", str(p), "--out", str(out), "--slice", "u3=0.9")
    assert res.returncode == 4
    assert "scene error: unknown tolerance: warp" in res.stderr
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["verify"], "the following arguments are required: scene"),
        (["verify", "s.scene", "--grid", "abc"], "invalid int value: 'abc'"),
        (["bogus"], "invalid choice: 'bogus'"),
    ],
    ids=["no_command", "no_scene", "bad_grid", "unknown_command"],
)
def test_usage_error_exit_four(capsys, argv, message):
    # a usage error is unusable input; exit 2 belongs to a failed claim
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("scene error: isodeform")
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "mesh"])
def test_unwritable_output_exit_four(capsys, tmp_path, command):
    p = tmp_path / "torus.scene"
    p.write_text(TORUS.replace("grid = 3", "grid = 3\nsuites = geometry"))
    out = str(tmp_path / "missing" / "out")
    flag = "--json" if command == "verify" else "--out"
    assert cli.main([command, str(p), flag, out]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"scene error: cannot write output file {out}: ")
    assert "No such file or directory" in err
    assert len(err.splitlines()) == 1


def test_nan_scalar_pair_exit_three_without_warnings(tmp_path):
    # inf - inf makes g NaN; numpy's warnings about it stay off stderr, and
    # the gradient-constraint gate refuses the pair
    p = tmp_path / "nan.scene"
    pair = "variant = gh\ng = u1*(exp(800) - exp(800))\nh = 1"
    p.write_text(GOOD.replace("variant = parallel\nt = 1", pair))
    res = run_cli("verify", str(p))
    assert res.returncode == 3
    assert res.stderr.startswith("hypothesis violated: scalar pair violates the gradient")
    assert len(res.stderr.splitlines()) == 1


SPHCYL4 = """
[chart]
catalog = sphcyl4
[codazzi]
variant = parallel
t = 0.3
[run]
grid = 3
order = 4
suites = geometry, codazzi
"""
_NAN_PAIR = "variant = gh\ng = u1*(exp(800) - exp(800))\nh = 1"


def _explicit(n, entry, at):
    """An explicit identity Q with ``entry`` at (row, column) ``at``."""
    return "variant = explicit\n" + "\n".join(
        f"q{i}{j} = {entry if (i, j) == at else int(i == j)}"
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def _inline_chart(f4):
    return (
        "[chart]\nn = 3\nf1 = u1\nf2 = u2\nf3 = u3\nf4 = " + f4 + "\n"
        + "".join(f"domain{k} = 0.2,1\n" for k in (1, 2, 3))
        + "[codazzi]\nvariant = parallel\nt = 0.1\n[run]\ngrid = 3\n"
    )


_PAIR_NAN = (
    "hypothesis violated: scalar pair violates the gradient constraint "
    "A(grad g) = -grad h: residual nan > 1e-08"
)
_Q_INF = (
    "hypothesis violated: deformation operator is not finite: its entries or "
    "singular values overflow or are NaN"
)
_Q_NAN = "hypothesis violated: explicit Q is not g-self-adjoint: |gQ - (gQ)^T| = nan"
_DIVIDE = "scene error: division by a jet with value 0.0 (at offset 0)"
_SPHCYL_T = "variant = parallel\nt = 0.3"
_GOOD_T = "variant = parallel\nt = 1"


@pytest.mark.parametrize(
    "scene, code, message",
    [
        (GOOD.replace(_GOOD_T, _NAN_PAIR), 3, _PAIR_NAN),
        (SPHCYL4.replace(_SPHCYL_T, _NAN_PAIR), 3, _PAIR_NAN),
        (SPHCYL4.replace(_SPHCYL_T, "variant = gh\ng = u1\nh = exp(800)*u4"), 3, _PAIR_NAN),
        (GOOD.replace("t = 1", "t = 1e308"), 3, _Q_INF),
        (SPHCYL4.replace("t = 0.3", "t = 1e308"), 3, _Q_INF),
        (GOOD.replace(_GOOD_T, _explicit(3, "exp(800)", (1, 2))), 3, _Q_NAN),
        (SPHCYL4.replace(_SPHCYL_T, _explicit(4, "exp(800)", (1, 4))), 3, _Q_NAN),
        (
            _inline_chart("exp(800)"),
            4,
            "scene error: chart: degenerate at box center: non-finite immersion "
            "values or Jacobian",
        ),
        (GOOD.replace(_GOOD_T, _explicit(3, "1/0", (1, 1))), 4, _DIVIDE),
        (SPHCYL4.replace(_SPHCYL_T, _explicit(4, "u1/0", (4, 4))), 4, _DIVIDE),
        (
            _inline_chart("1/0"),
            4,
            "scene error: chart: not defined at box center: division by a jet "
            "with value 0.0 (at offset 0)",
        ),
        (
            GOOD.replace(_GOOD_T, "variant = gh\ng = u1\nh = u1/0"),
            4,
            "scene error: division by a jet with value 0.0 (at offset 0)",
        ),
    ],
    ids=[
        "nan-pair", "nan-pair-sphcyl4", "inf-h-sphcyl4", "t-1e308", "t-1e308-sphcyl4",
        "exp800-q", "exp800-q-sphcyl4", "exp800-chart", "1/0-q", "u1/0-q-sphcyl4",
        "1/0-chart", "u1/0-h",
    ],
)
def test_non_finite_gates_fire_where_zero_entries_are_skipped(
    capsys, tmp_path, scene, code, message
):
    # a product with an entry known to be zero is zero, also where the other
    # factor is NaN or inf; every gate that refuses a non-finite value still
    # fires, on sphcyl4 (whose J, g, b, A and Q have zero blocks) as on
    # sphere3 and inline charts, with the exit code and the one line of before
    p = tmp_path / "nonfinite.scene"
    p.write_text(scene)
    assert cli.main(["verify", str(p)]) == code
    assert capsys.readouterr().err == message + "\n"


def test_roundtrip_in_ambient_dimension_six_exit_zero(tmp_path):
    # the synthetic gauge of the roundtrip suite spans every ambient axis,
    # also past the fifth
    p = tmp_path / "graph5.scene"
    domains = "".join(f"domain{k} = -0.5, 0.5\n" for k in range(1, 6))
    p.write_text(
        "[chart]\nn = 5\n"
        + "".join(f"f{k} = u{k}\n" for k in range(1, 6))
        + "f6 = u1^2 + 2*u2^2 + 3*u3^2 + 4*u4^2 + 5*u5^2\n"
        + domains
        + "[codazzi]\nvariant = parallel\nt = 0.1\n"
        "[run]\ngrid = 3\nsuites = roundtrip\n"
    )
    res = run_cli("verify", str(p))
    assert res.returncode == 0, res.stderr
    assert "ambient: 6" in res.stdout
    assert "check: gauge_recovery" in res.stdout and "result: pass" in res.stdout
