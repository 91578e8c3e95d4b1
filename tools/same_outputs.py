"""Whether a change leaves every output of the CLI as its parent's.

    python3 tools/same_outputs.py --parent DIR

For every workload that this checkout's BENCHMARK.json declares, at seeds
0, 3 and 7, the scene text and mesh slice come from this checkout's
``perfbench/workloads.py``.  In each checkout, with that checkout's
``src/`` alone on PYTHONPATH, fresh processes run
``python3 -m isodeform.cli verify SCENE --json OUT`` and
``mesh SCENE --out OBJ --slice SLICE``, and ``selftest`` once.  Each item
compared is one output of one command: stdout (less the report's
``wall_time_s:`` line), the JSON report (less ``wall_time_s``), stderr,
the exit code and the OBJ file's bytes.  Prints every item that differs
and exits 1 if any does, else prints how many were the same.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 3, 7)


def workload_scenes(seeds) -> list:
    """(label, scene text, mesh slice) of every benchmark workload at each seed."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the module's dataclass looks itself up
    spec.loader.exec_module(module)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [
        (f"{name}-seed{seed}", module.WORKLOADS[name].scene_text(seed),
         module.WORKLOADS[name].mesh_slice)
        for name in names for seed in seeds
    ]


def _cli(checkout: Path, cwd: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "isodeform.cli", *args], cwd=cwd, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
    )


def _without_wall_time(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(True) if not line.startswith("wall_time_s:"))


def outputs(checkout: Path, scenes) -> dict:
    """item -> output of the checkout's CLI for the scenes.  Every command
    runs in a fresh process in a temporary directory of its own, under the
    same relative file names."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, text, mesh_slice in scenes:
            work = os.path.join(tmp, label)
            os.mkdir(work)
            Path(work, "scene.txt").write_text(text)
            verify = _cli(checkout, work, "verify", "scene.txt", "--json", "report.json")
            report = Path(work, "report.json")
            blob = json.loads(report.read_text()) if report.exists() else None
            if blob is not None:
                blob.pop("wall_time_s", None)
            mesh = _cli(checkout, work, "mesh", "scene.txt", "--out", "mesh.obj",
                        "--slice", mesh_slice)
            obj = Path(work, "mesh.obj")
            out.update({
                f"{label} verify stdout": _without_wall_time(verify.stdout),
                f"{label} verify json": blob,
                f"{label} verify stderr": verify.stderr,
                f"{label} verify exit": verify.returncode,
                f"{label} mesh stdout": mesh.stdout,
                f"{label} mesh obj": obj.read_bytes() if obj.exists() else None,
                f"{label} mesh stderr": mesh.stderr,
                f"{label} mesh exit": mesh.returncode,
            })
    return out


def selftest_outputs(checkout: Path) -> dict:
    """item -> output of the checkout's ``selftest``, run in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        run = _cli(checkout, tmp, "selftest")
    return {"selftest stdout": run.stdout, "selftest stderr": run.stderr,
            "selftest exit": run.returncode}


def differences(parent: dict, change: dict) -> list:
    """The items, in order, whose outputs differ or that one side lacks."""
    return [item for item in dict.fromkeys([*parent, *change])
            if item not in parent or item not in change or parent[item] != change[item]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    args = parser.parse_args(argv)
    scenes = workload_scenes(SEEDS)
    parent = {**outputs(args.parent.resolve(), scenes), **selftest_outputs(args.parent.resolve())}
    change = {**outputs(ROOT, scenes), **selftest_outputs(ROOT)}
    differ = differences(parent, change)
    for item in differ:
        print(f"differs: {item}")
    if not differ:
        print(f"same: all {len(change)} items")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
