"""The benchmark's traced pass wraps functions by module attribute and reads
attributes of what they return; a rename in gridrecover, or a new form of
what a wrapped function returns, would make ``--trace 1`` fail."""

import importlib
from pathlib import Path

import pytest

from gridrecover.recovery import RecoveryConfig, recover


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    return importlib.import_module("perfbench.spans")


def test_every_span_target_exists(spans):
    assert spans.LAYER_FUNCTIONS
    for module, attr, name, _ in spans.LAYER_FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
        if module.__name__ == "gridrecover.recovery":
            # the loop looks these up as its own globals, where the wrapper goes
            assert attr in vars(module), f"{attr} ({name}) is not a global of gridrecover.recovery"


def test_traced_recover_yields_layer_metrics(spans, table1_states):
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span("recover"):
            _, trace = recover(table1_states, RecoveryConfig(seed=3, max_stale_iterations=8))
    metrics, bases = spans.layer_metrics(tracer, [list(trace)])
    assert set(metrics) <= set(spans.LAYER_UNITS)
    assert metrics["recovery.iterations"] == len(trace)
    assert metrics["vandermonde.bytes_built"] > 0  # system.matrix.shape
    assert metrics["nnls.lstsq_solves"] > 0  # result.iterations
    assert metrics["sparsify.draws"] > 0  # outcome.t
    assert metrics["nnls.kkt_max"] <= 1e-8
    # every refit goes through the spanned solver, so the KKT bound sees it
    assert metrics["nnls.refit_calls"] == metrics["vandermonde.restrict_calls"] > 0
    assert "1 traced recover calls" in bases["per-call means"]
