"""The benchmark's layer trace wraps package names; each must still exist."""

import importlib

from conftest import load_benchmark_module


def test_every_layertrace_target_resolves():
    targets = load_benchmark_module("layertrace").TARGETS
    assert targets
    for module_name, attr, _ in targets:
        obj = importlib.import_module(f"isodeform.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"isodeform.{module_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"isodeform.{module_name}.{attr} is not callable"
