"""The benchmark's tracer wraps package functions by name and reads some of
their arguments by position; these tests fail when a rename or a shifted
parameter would break it, before a traced benchmark run does."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(tracing):
    for module_name, names in tracing._WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr, _ in names:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    ("module_name", "attr", "slot", "name"),
    (
        ("deepmta.trainer", "forward_batch", 3, "training"),
        ("deepmta.attribution", "forward_batch", 3, "training"),
        ("deepmta.attribution", "masked_accuracy_batch", 2, "masks"),
        ("deepmta.cli", "attribute_journey", 1, "journey"),
        ("deepmta.trainer", "backward_batch", 1, "grad_logits"),
    ),
)
def test_positional_slots_read_by_describe(module_name, attr, slot, name):
    # the slots the tracer's _describe_* functions read as args[slot]
    fn = getattr(importlib.import_module(module_name), attr)
    assert list(inspect.signature(fn).parameters)[slot] == name
