"""The benchmark's layer trace wraps package names; each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    # read-only: no bytecode cache is written next to the benchmark's files
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_layertrace_target_resolves():
    targets = _load_layertrace().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        obj = importlib.import_module(f"isodeform.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"isodeform.{module_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"isodeform.{module_name}.{attr} is not callable"
