"""In-memory spans around the layer functions of gridrecover, set from outside.

A :class:`Tracer` replaces module attributes with timing wrappers for the
duration of a ``with tracer.installed():`` block and puts the originals back
afterwards.  Wrappers sit where the callers look the functions up: the
recovery loop resolves ``assemble``, ``nnls_solve`` and the rest as globals of
``gridrecover.recovery``, data synthesis resolves ``solve_power_flow`` in
``gridrecover.states``, and the benchmark calls ``gridrecover.io`` through the
module.  Each call becomes one span (name, start, end, parent, attributes);
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import gridrecover.io as gio
import gridrecover.recovery as grec
import gridrecover.states as gstates


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bytes_built(system, args) -> dict:
    rows, cols = system.matrix.shape
    return {"bytes": 8 * rows * cols}


def _restrict_attrs(system, args) -> dict:
    return {**_bytes_built(system, args), "candidate": frozenset(args[1])}


def _nnls_attrs(result, args) -> dict:
    return {"lstsq": result.iterations, "kkt": result.kkt_residual}


def _sparsify_attrs(outcome, args) -> dict:
    return {"draws": outcome.t}


def _file_attrs(result, args) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attributes taken from (result, args))
LAYER_FUNCTIONS = (
    (grec, "assemble", "vandermonde.assemble", _bytes_built),
    (grec, "restrict", "vandermonde.restrict", _restrict_attrs),
    (grec, "condition_number", "vandermonde.condition_number", None),
    (grec, "network_from_columns", "vandermonde.network_from_columns", None),
    (grec, "nnls_solve", "nnls.solve", _nnls_attrs),
    (grec, "sparsify_ac", "sparsify.sparsify_ac", _sparsify_attrs),
    (grec, "states_rms", "states.rms", None),
    (gstates, "solve_power_flow", "states.solve_power_flow", None),
    (gio, "save_states_csv", "io.save_states_csv", _file_attrs),
    (gio, "load_states_csv", "io.load_states_csv", None),
)


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record.attrs.update(describe(result, args))
                return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, describe in LAYER_FUNCTIONS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def descendants(self, index: int) -> list[Span]:
        """Every span below ``index``; spans are appended in start order."""
        out, inside = [], {index}
        end = self.spans[index].end
        for i in range(index + 1, len(self.spans)):
            s = self.spans[i]
            if s.start > end:
                break
            if s.parent in inside:
                inside.add(i)
                out.append(s)
        return out

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def to_records(self) -> list[dict]:
        out = []
        for s in self.spans:
            attrs = {k: v for k, v in s.attrs.items() if k != "candidate"}
            out.append(
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **attrs}
            )
        return out


LAYER_UNITS = {
    "nnls.initial_s": "s",
    "nnls.refit_s": "s",
    "nnls.refit_calls": "count",
    "nnls.lstsq_solves": "count",
    "nnls.kkt_max": "abs",
    "vandermonde.assemble_s": "s",
    "vandermonde.restrict_s": "s",
    "vandermonde.restrict_calls": "count",
    "vandermonde.cond_s": "s",
    "vandermonde.cond_calls": "count",
    "vandermonde.bytes_built": "B",
    "sparsify.s": "s",
    "sparsify.calls": "count",
    "sparsify.draws": "count",
    "sparsify.max_draws": "count",
    "states.generate_s": "s",
    "states.newton_solves": "count",
    "states.rms_check_s": "s",
    "recovery.iterations": "count",
    "recovery.accepted": "count",
    "recovery.rejected_rms": "count",
    "recovery.no_reduction": "count",
    "recovery.self_s": "s",
    "recovery.useful_refit_ratio": "ratio",
    "recovery.repeat_refit_ratio": "ratio",
    "io.save_states_s": "s",
    "io.load_states_s": "s",
    "io.states_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _seconds(spans) -> float:
    return sum(s.seconds for s in spans)


def layer_metrics(tracer: Tracer, rows_by_recover: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass.

    Times are medians over the spans' owning unit (one ``recover`` call, one
    ``setup`` or one file operation); counts are means per ``recover`` call,
    which repeat exactly for a fixed seed.  ``rows_by_recover`` holds the
    trace rows of each traced ``recover`` call, in order.  Returns the
    metrics and the bases of the ratios.
    """
    recovers = tracer.named("recover")
    per = defaultdict(list)
    kkt_max = 0.0
    max_draws = 0
    repeated = refits = 0
    for index in recovers:
        below = defaultdict(list)
        for s in tracer.descendants(index):
            below[s.name].append(s)
        nnls = below["nnls.solve"]
        restricts = below["vandermonde.restrict"]
        sparsifies = below["sparsify.sparsify_ac"]
        built = below["vandermonde.assemble"] + restricts
        per["initial_s"].append(nnls[0].seconds if nnls else 0.0)
        per["refit_s"].append(_seconds(nnls[1:]))
        per["refit_calls"].append(len(nnls[1:]))
        per["lstsq"].append(sum(s.attrs["lstsq"] for s in nnls))
        per["assemble_s"].append(_seconds(below["vandermonde.assemble"]))
        per["restrict_s"].append(_seconds(restricts))
        per["restrict_calls"].append(len(restricts))
        per["cond_s"].append(_seconds(below["vandermonde.condition_number"]))
        per["cond_calls"].append(len(below["vandermonde.condition_number"]))
        per["bytes"].append(sum(s.attrs["bytes"] for s in built))
        per["sparsify_s"].append(_seconds(sparsifies))
        per["sparsify_calls"].append(len(sparsifies))
        per["draws"].append(sum(s.attrs["draws"] for s in sparsifies))
        children = [s for group in below.values() for s in group if s.parent == index]
        per["self_s"].append(tracer.spans[index].seconds - _seconds(children))
        per["rms_s"].append(_seconds(below["states.rms"]))
        kkt_max = max([kkt_max] + [s.attrs["kkt"] for s in nnls])
        max_draws = max([max_draws] + [s.attrs["draws"] for s in sparsifies])
        seen: set = set()
        for s in restricts:
            refits += 1
            repeated += s.attrs["candidate"] in seen
            seen.add(s.attrs["candidate"])

    # the benchmark re-checks every recovered network in a "check" span
    checks = [tracer.spans[i].seconds for i in tracer.named("check")]
    rms_check = [a + b for a, b in zip(per["rms_s"], checks)]

    setups = tracer.named("states.generate")
    newton = [
        sum(1 for s in tracer.descendants(i) if s.name == "states.solve_power_flow")
        for i in setups
    ]
    saves = [tracer.spans[i] for i in tracer.named("io.save_states_csv")]
    loads = [tracer.spans[i] for i in tracer.named("io.load_states_csv")]

    events = [r.event for rows in rows_by_recover for r in rows]
    accepted = events.count(grec.EVENT_ACCEPTED)
    calls = max(len(recovers), 1)
    metrics = {
        "nnls.initial_s": median(per["initial_s"]),
        "nnls.refit_s": median(per["refit_s"]),
        "nnls.refit_calls": _mean(per["refit_calls"]),
        "nnls.lstsq_solves": _mean(per["lstsq"]),
        "nnls.kkt_max": kkt_max,
        "vandermonde.assemble_s": median(per["assemble_s"]),
        "vandermonde.restrict_s": median(per["restrict_s"]),
        "vandermonde.restrict_calls": _mean(per["restrict_calls"]),
        "vandermonde.cond_s": median(per["cond_s"]),
        "vandermonde.cond_calls": _mean(per["cond_calls"]),
        "vandermonde.bytes_built": _mean(per["bytes"]),
        "sparsify.s": median(per["sparsify_s"]),
        "sparsify.calls": _mean(per["sparsify_calls"]),
        "sparsify.draws": _mean(per["draws"]),
        "sparsify.max_draws": float(max_draws),
        "states.generate_s": median([tracer.spans[i].seconds for i in setups]),
        "states.newton_solves": _mean(newton),
        "states.rms_check_s": median(rms_check),
        "recovery.iterations": len(events) / calls,
        "recovery.accepted": accepted / calls,
        "recovery.rejected_rms": events.count(grec.EVENT_REJECTED_RMS) / calls,
        "recovery.no_reduction": events.count(grec.EVENT_NO_REDUCTION) / calls,
        "recovery.self_s": median(per["self_s"]),
        "recovery.useful_refit_ratio": accepted / refits if refits else 0.0,
        "recovery.repeat_refit_ratio": repeated / refits if refits else 0.0,
        "io.save_states_s": median([s.seconds for s in saves]),
        "io.load_states_s": median([s.seconds for s in loads]),
        "io.states_bytes": _mean([s.attrs.get("bytes", 0) for s in saves]),
    }
    bases = {
        "recovery.useful_refit_ratio": f"{accepted} accepted / {refits} refits",
        "recovery.repeat_refit_ratio": f"{repeated} repeated / {refits} refits",
        "per-call means": f"{len(recovers)} traced recover calls",
    }
    return metrics, bases
