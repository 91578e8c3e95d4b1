"""The output comparison of ``tools/same_outputs.py`` on one small scene."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

TORUS = """
[chart]
catalog = torus2
[codazzi]
variant = parallel
t = 0.1
[run]
grid = 3
"""


def test_a_checkout_matches_itself_and_a_doctored_output_differs():
    scenes = [("torus", TORUS, "")]
    first = same_outputs.outputs(same_outputs.ROOT, scenes)
    second = same_outputs.outputs(same_outputs.ROOT, scenes)
    assert same_outputs.differences(first, second) == []
    assert first["torus verify exit"] == first["torus mesh exit"] == 0
    assert "wall_time_s" not in first["torus verify stdout"]
    assert "wall_time_s" not in first["torus verify json"]
    assert first["torus mesh obj"].startswith(b"# isodeform surface pair\n")
    doctored = dict(second, **{"torus mesh obj": second["torus mesh obj"] + b"\n"})
    assert same_outputs.differences(first, doctored) == ["torus mesh obj"]
    del doctored["torus verify stderr"]
    assert same_outputs.differences(first, doctored) == ["torus verify stderr", "torus mesh obj"]


def test_workload_scenes_come_from_the_benchmark_workloads():
    scenes = same_outputs.workload_scenes([0, 3])
    labels = [label for label, _, _ in scenes]
    workloads = ("pointwise", "grid_pair", "explicit")
    assert labels == [f"{w}-seed{s}" for w in workloads for s in (0, 3)]
    assert all(text.startswith("[chart]") and "=" in cut for _, text, cut in scenes)
