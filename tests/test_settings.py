"""Numerical settings: each is one module constant, read when it is used,
so a test moves every reader of a setting by monkeypatching its constant."""

import ast
from pathlib import Path

import numpy as np

from isodeform import catalog, deformation as dfm, geometry, linalg, suites
from isodeform.codazzi import Parallel

SRC = Path(__file__).resolve().parent.parent / "src" / "isodeform"

SETTING_NAMES = {"tol", "rtol", "rank_rtol", "step", "margin", "max_levels", "max_sweeps"}
# input forms with more than one value in use, not settings
INPUT_FORMS = {("selftest", "_scene", "tol")}


def defaulted_settings(src: Path) -> set:
    """(module, function, parameter) for every defaulted parameter of a
    function under ``src`` whose name is one of SETTING_NAMES."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            named = pos[len(pos) - len(a.defaults):] + [
                k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            found |= {
                (path.stem, node.name, p.arg) for p in named if p.arg in SETTING_NAMES
            }
    return found


def test_no_function_takes_a_setting_as_a_defaulted_parameter():
    assert defaulted_settings(SRC) - INPUT_FORMS == set()


def test_every_input_form_exemption_names_a_defaulted_setting():
    # an exemption goes with its parameter, so it cannot cover a later one
    assert INPUT_FORMS - defaulted_settings(SRC) == set()


def test_fd_step_moves_the_probe_filter_and_the_stencil_together(monkeypatch):
    ch = catalog.graph3()
    u = ch.center()
    near = u.copy()
    near[0] = ch.lo[0] + 0.03  # inside 2 * 10 * FD_STEP at FD_STEP 2e-3 only
    pts = np.array([u, near])
    np.testing.assert_array_equal(pts[suites._fd_probe_index(ch, None, pts)], pts)

    seen = []
    integrate = dfm.path_integral_immersion

    def recording(chart, source, x):
        seen.append(np.array(x))
        return integrate(chart, source, x)

    monkeypatch.setattr(dfm, "path_integral_immersion", recording)
    monkeypatch.setattr(dfm, "FD_STEP", 2e-3)
    np.testing.assert_array_equal(pts[suites._fd_probe_index(ch, None, pts)], pts[:1])
    dfm.fd_deformed_frame(ch, Parallel(0.05), u)
    (stencil,) = seen
    moves = np.unique(np.round(stencil[:, 0] - u[0], 9))
    h = [1e-3, 2e-3, 1e-2, 2e-2]  # FD_STEP and 10 * FD_STEP, each also halved
    assert np.allclose(moves, sorted([-x for x in h] + [0.0] + h))


def test_rank_threshold_is_read_by_every_rank_decision(monkeypatch):
    A = np.diag([1.0, 1e-8, 0.0])
    assert linalg.svd_rank_kernel(A)[0] == 2
    monkeypatch.setattr(linalg, "RANK_RTOL", 1e-7)
    assert linalg.svd_rank_kernel(A)[0] == 1
    fr = geometry.frame_at(catalog.sphere3(2.0), [0.7, 0.8, 0.9])
    assert geometry.rank_A_field(fr) == 3
    fr.A = np.diag([1.0, 1e-8, 1.0])
    assert geometry.rank_A_field(fr) == 2
    # the kernels of A and A~ are e2 and e3 at this threshold, none below it
    Atilde = np.diag([1.0, 1.0, 1e-8])
    assert np.isclose(dfm.kernel_angle_field(fr, Atilde), np.pi / 2)
    monkeypatch.setattr(linalg, "RANK_RTOL", 1e-9)
    assert dfm.kernel_angle_field(fr, Atilde) == 0.0


def test_path_base_is_the_first_grid_point():
    for ch in (catalog.sphere3(2.0), catalog.graph3(), catalog.sphcyl4(1.0)):
        np.testing.assert_array_equal(dfm.path_base(ch), geometry.grid_points(ch, 3)[0])
