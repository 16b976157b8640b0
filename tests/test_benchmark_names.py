"""The benchmark's tracer wraps kflow functions and model classes by name
(perfbench/tracer.py); a rename that it does not follow would only show
when the benchmark runs.  This checks every name it lists against kflow."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("span, module, attr", tracer.FUNCTIONS)
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("cls_name", tracer.MODEL_CLASSES)
def test_traced_model_class_resolves(cls_name):
    assert isinstance(getattr(importlib.import_module("kflow.ambient"), cls_name), type)
