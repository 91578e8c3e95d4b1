"""Fuzzing of the CLI contract: every argv and every scene text ends in exit
0, 2, 3 or 4 (``cli.main`` returns the code), never in another exception.

Scenes come from a small grammar: catalog and inline charts, each Codazzi
variant, suite lists and run keys, with DSL fragments that overflow, divide
by zero or leave their domain; flags include malformed values and outputs
that cannot be written.  Each example puts its faults, if any, in one part
(chart, operator, run keys or flags), so the others stay sound and most
examples reach the suites.  Grids stay at 3 or 4 points per axis, and 3 on
a four-dimensional chart, only because run time grows as grid^n.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isodeform import cli

# catalog name -> chart dimension n
CATALOG = {"plane2": 2, "torus2": 2, "sphere3": 3, "ellipsoid3": 3, "graph3": 3, "sphcyl4": 4}

SOUND = ("u1", "u2", "0.5", "1 + 0.1*u1", "u1*u2", "sin(u1)", "exp(u2)", "log(u1 + 2)")
FAULTY = (
    "log(u1)", "sqrt(u1 - 0.7)", "1/0", "u1^-2", "u1/(2-2)", "exp(800)", "1e308*u1",
    "u1*(exp(800) - exp(800))", "u1 +", "frob(u1)", "u9", "",
)
PARTS = ("chart", "codazzi", "run", "flags")


def _pick(faulty: bool, sound, bad):
    """One of ``sound``, or of ``sound`` and ``bad`` in the faulty part."""
    return st.sampled_from(tuple(sound) + (tuple(bad) if faulty else ()))


@st.composite
def _chart(draw, faulty):
    """[chart] text and the chart dimension n."""
    if draw(st.booleans()):
        name = draw(_pick(faulty, sorted(CATALOG), ["bogus"]))
        text = f"catalog = {name}\n"
        if name == "sphere3" and draw(st.booleans()):
            text += f"r = {draw(_pick(faulty, ['0.5', '2'], ['0', '-1', '1e308', 'x']))}\n"
        return text, CATALOG.get(name, 3)
    n = draw(st.sampled_from([2, 3]))
    lines = [f"n = {n}"]
    for k in range(1, n + 2):
        sound = [f"u{k}"] if k <= n else ["u1*u1 + u2*u2", "sin(u1) + u2", "exp(u1)*u2"]
        lines.append(f"f{k} = {draw(_pick(faulty, sound, FAULTY))}")
    for k in range(1, n + 1):
        domain = draw(_pick(faulty, ["0.2,1", "-1,1"], ["1,0", "0,x", "0.5"]))
        lines.append(f"domain{k} = {domain}")
    return "\n".join(lines) + "\n", n


@st.composite
def _codazzi(draw, faulty, n):
    variant = draw(_pick(faulty, ["parallel", "minusA", "gh", "explicit"], ["bogus"]))
    lines = [f"variant = {variant}"]
    if variant == "parallel":
        lines.append(f"t = {draw(_pick(faulty, ['0.1', '1', '-2'], ['1e308', '0', 'nan', 'x']))}")
    elif variant == "gh":
        lines.append(f"g = {draw(_pick(faulty, SOUND, FAULTY))}")
        lines.append(f"h = {draw(_pick(faulty, ['1', 'u2'], FAULTY))}")
    elif variant == "explicit":
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                plain = ["1", "2", "1 + 0.1*u1"] if i == j else ["0"] * 3
                entry = draw(_pick(faulty, plain * 2 + list(SOUND), FAULTY))
                lines.append(f"q{i}{j} = {entry}")
    return "\n".join(lines) + "\n"


@st.composite
def _run(draw, faulty, n):
    names = ["geometry", "codazzi", "deformation", "roundtrip"]
    suites = draw(st.lists(
        _pick(faulty, names, ["bogus"]), min_size=1, max_size=4, unique=True,
    ))
    lines = [f"suites = {', '.join(suites)}"]
    grids = ["3"] if n >= 4 else ["3", "4", ",".join(["3"] * n)]
    lines.append(f"grid = {draw(_pick(faulty, grids, ['2', 'x', '3,3,3,3,3']))}")
    if draw(st.booleans()):
        lines.append(f"order = {draw(_pick(faulty, ['2', '3', '4'], ['5', 'x']))}")
    if draw(st.booleans()):
        name = draw(st.sampled_from(["weingarten", "commutator", "metric"]))
        lines.append(f"tol_{name} = {draw(_pick(faulty, ['1e-3', '1e-30'], ['0', '-1', 'nan']))}")
    if draw(st.booleans()):
        lines.append(f"project = {draw(_pick(faulty, ['1,2,3', '3,2,1'], ['1,1,2', '3,2,9']))}")
    return "\n".join(lines) + "\n"


@st.composite
def _scene(draw, fault):
    chart, n = draw(_chart(fault == "chart"))
    text = f"[chart]\n{chart}"
    if fault == "codazzi" or draw(st.sampled_from([True] * 5 + [False])):
        text += f"[codazzi]\n{draw(_codazzi(fault == 'codazzi', n))}"
    text += f"[run]\n{draw(_run(fault == 'run', n))}"
    return text, n


@st.composite
def _argv(draw, faulty, scene, out_dir, n):
    """argv for verify or mesh; a faulty one may name an unwritable output."""
    out = draw(_pick(faulty, [str(out_dir / "out")], [str(out_dir / "missing" / "out")]))
    if draw(st.sampled_from(["verify"] * 3 + ["mesh"])) == "verify":
        argv = ["verify", scene]
        if draw(st.sampled_from([False] * 3 + [True])):
            point = ",".join(["0.7"] * n)
            bad = ["0.7", "a,b", "9,9,9", point + ",1"]
            argv += ["--point", draw(_pick(faulty, [point], bad))]
        if draw(st.booleans()):
            bad = ["warp=1", "metric=nan", "metric", "=1"]
            argv += ["--tol", draw(_pick(faulty, ["gauss=1e-3", "gauss=1e-30"], bad))]
        if draw(st.booleans()):
            argv += ["--grid", draw(_pick(faulty, ["3"], ["2", "abc", "-1"]))]
        if draw(st.booleans()):
            argv += ["--json", out]
        return argv
    argv = ["mesh", scene, "--out", out]
    if n > 2:
        fixed = "u3=0.7" if n == 3 else "u3=0.7,u4=0.1"
        argv += ["--slice", draw(_pick(faulty, [fixed], ["u9=1", "u1=x", "u3"]))]
    if draw(st.booleans()):
        argv += ["--project", draw(_pick(faulty, ["1,2,3"], ["1,1,2", "a"]))]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_cli_exit_code_contract(out_dir, data):
    fault = data.draw(st.sampled_from((None, None) + PARTS), label="fault")
    text, n = data.draw(_scene(fault), label="scene")
    scene = out_dir / "fuzz.scene"
    scene.write_text(text)
    argv = data.draw(_argv(fault == "flags", str(scene), out_dir, n), label="argv")
    assert cli.main(argv) in (0, 2, 3, 4)
