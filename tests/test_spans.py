"""The benchmark's traced pass wraps functions by module attribute; a rename
in gridrecover would make ``--trace 1`` fail, so every target must exist."""

import importlib
from pathlib import Path


def test_every_span_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    spans = importlib.import_module("perfbench.spans")
    assert spans.LAYER_FUNCTIONS
    for module, attr, name, _ in spans.LAYER_FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
