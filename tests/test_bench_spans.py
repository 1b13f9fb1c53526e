"""The benchmark's span names against the package they trace.

perfbench/spans.py names its layers `<module>.<function>` and reads some
of the wrapped functions' arguments by name. A name that no function
carries reads 0 on every workload instead of failing, so this checks
each one against morphguard, reading spans.py without changing it.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()

# Span name -> the parameters its counter reads from the wrapped call.
COUNTED_ARGUMENTS = {
    "datagen.pair_protocol": {"universe", "samples"},
    "encoder.train": {"dataset", "config"},
    "datagen.save_dataset": {"path"},
    "datagen.save_protocol": {"path"},
    "datagen.load_dataset": {"path"},
    "datagen.load_protocol": {"path"},
}


def span_names():
    names = set(SPANS.COUNTERS) | set(SPANS.RECIPE_ENTRIES)
    names.update(name for group in SPANS.TIME_GROUPS.values() for name in group)
    names.update(SPANS.SELF_TIMES.values())
    names.update(SPANS.CALL_COUNTS.values())
    names.update(name for group, _ in SPANS.WORK_COUNTS.values() for name in group)
    return sorted(names)


def function_of(name):
    module, _, attr = name.partition(".")
    return getattr(importlib.import_module(f"morphguard.{module}"), attr, None)


def test_every_span_module_is_a_layer():
    assert {name.partition(".")[0] for name in span_names()} <= set(SPANS.LAYER_MODULES)


@pytest.mark.parametrize("name", span_names())
def test_span_names_a_function_of_its_module(name):
    fn = function_of(name)
    assert isinstance(fn, types.FunctionType), f"morphguard has no function {name}"
    assert fn.__module__ == f"morphguard.{name.partition('.')[0]}"


@pytest.mark.parametrize("name", sorted(COUNTED_ARGUMENTS))
def test_counted_arguments_are_parameters(name):
    assert name in SPANS.COUNTERS
    assert COUNTED_ARGUMENTS[name] <= set(inspect.signature(function_of(name)).parameters)
