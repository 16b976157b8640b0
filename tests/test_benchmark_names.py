"""The benchmark wraps kflow functions and model classes by name
(perfbench/tracer.py) and calls a few kflow functions directly
(perfbench/child.py, perfbench/workloads.py); a rename that it does not
follow would only show when the benchmark runs.  This checks every name it
uses against kflow."""

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


# Called directly by perfbench/child.py and perfbench/workloads.py.
CALLED = (
    ("kflow.cli", "build_model"),
    ("kflow.cli", "build_grid"),
    ("kflow.cli", "main"),
    ("kflow.config", "load_json"),
    ("kflow.config", "resolve_run_config"),
    ("kflow.immersion", "compute_geometry"),
    ("kflow.immersion", "load_grid"),
)


@pytest.mark.parametrize("module, attr", CALLED)
def test_called_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
