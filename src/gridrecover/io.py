"""On-disk formats: network JSON, state-set CSV, trace CSV, reports.

Floats are written with ``repr``, which is the shortest form that parses back
to the identical double, so every round trip is exact.  JSON files are
strict JSON: a non-finite float is written as its ``repr`` string ("inf",
"-inf", "nan"), which ``float`` reads back.  Every input file is read as
UTF-8 text.  Every CSV file is written by one writer and read by one row
reader, which reports a line that csv cannot parse as malformed.
"""

from __future__ import annotations

import csv
import json
import math
import typing
from dataclasses import fields
from io import StringIO
from pathlib import Path

import numpy as np

from .network import AC, DC, Network, _integral, _real
from .recovery import EVENTS, RecoveryTrace, TraceRow
from .sparsify import EdgeStatistics
from .states import StateSet


class FormatError(ValueError):
    """Input file does not match the expected schema."""


def network_to_dict(net: Network) -> dict:
    return {
        "kind": net.kind,
        "n": net.n,
        "edges": [
            {"j": j, "k": k, "c": float(c), "s": float(s)}
            for (j, k), c, s in zip(net.edges, net.c, net.s)
        ],
    }


def network_from_dict(data: dict) -> Network:
    try:
        kind = data["kind"]
        n = _integral(data["n"], "n")
        raw = data["edges"]
        edges = [tuple(_integral(e[end], f"edges[{i}].{end}") for end in "jk") for i, e in enumerate(raw)]
        c = [_real(e["c"], f"edges[{i}].c") for i, e in enumerate(raw)]
        s = [_real(e.get("s", 0.0), f"edges[{i}].s") for i, e in enumerate(raw)]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed network object: {exc}") from exc
    try:
        return Network(kind, n, tuple(edges), np.array(c), np.array(s))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _read(path) -> StringIO:
    """An input file's text, its line ends as written; a file that is not
    UTF-8 raises FormatError naming it."""
    try:
        return StringIO(Path(path).read_bytes().decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _finite(value):
    """``value`` with every non-finite float, in lists and dicts too,
    replaced by its repr string."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))  # float(): numpy's own repr names its type
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def save_json(data, path) -> None:
    """Write ``data`` as indented, strict JSON: the one form of every JSON file."""
    Path(path).write_text(json.dumps(_finite(data), indent=2, allow_nan=False) + "\n")


def save_network(net: Network, path) -> None:
    save_json(network_to_dict(net), path)


def load_network(path) -> Network:
    fh = _read(path)
    try:
        return network_from_dict(json.load(fh))
    # a JSONDecodeError names its line and a FormatError its field; json's
    # limits raise a plain ValueError (integer digits) or a RecursionError
    # (nesting depth)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _save_csv(path, header, rows) -> None:
    """Write a CSV file: the header, then the rows; the one form of every CSV file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_rows(path):
    """A CSV input as csv reads it: the header first, None for an empty
    file, then the line number and fields of each non-blank row.  A line
    that csv rejects, such as one with a field past csv's size limit,
    raises FormatError naming the file and the line."""
    reader = csv.reader(_read(path))
    try:
        yield next(reader, None)
        yield from ((reader.line_num, row) for row in reader if row)
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc


def _parsed_rows(path, rows, types, what: str):
    """The line number and parsed fields of each of the (line, fields)
    ``rows``, field i parsed by ``types[i]``; a row of another length, or a
    field that its type rejects with ValueError, raises FormatError naming
    the line."""
    for line, row in rows:
        if len(row) != len(types):
            raise FormatError(f"{path}:{line}: expected {len(types)} fields, got {len(row)}")
        try:
            parsed = [parse(cell) for parse, cell in zip(types, row)]
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: non-numeric {what} entry: {exc}") from exc
        yield line, parsed


# State CSV layout: one row per state, per node the fields below in order,
# so columns i::len(fields) hold field i of every node; a field's lower-case
# name is its StateSet array.
_STATE_FIELDS = {DC: ("e", "P"), AC: ("e", "f", "P", "Q")}


def _state_header(kind: str, n: int) -> list[str]:
    return [f"{name}_{j}" for j in range(1, n + 1) for name in _STATE_FIELDS[kind]]


def save_states_csv(states: StateSet, path) -> None:
    fields = _STATE_FIELDS[states.kind]
    data = np.empty((states.m, len(fields) * states.n))
    for i, name in enumerate(fields):
        data[:, i :: len(fields)] = getattr(states, name.lower())
    _save_csv(path, _state_header(states.kind, states.n), (map(repr, row) for row in data.tolist()))


def load_states_csv(path) -> StateSet:
    rows = _csv_rows(path)
    header = next(rows)
    if header is None:
        raise FormatError(f"{path}: empty state file")
    kind = AC if "f_1" in header else DC
    per_node = len(_STATE_FIELDS[kind])
    n, rem = divmod(len(header), per_node)
    if rem or n < 1 or header != _state_header(kind, n):
        raise FormatError(f"{path}: unexpected state header {header!r}")
    parsed = list(_parsed_rows(path, rows, (float,) * len(header), "state"))
    if not parsed:
        raise FormatError(f"{path}: no state rows")
    data = np.array([values for _, values in parsed])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise FormatError(
            f"{path}:{parsed[r][0]}: non-finite value {float(data[r, c])!r} in column {header[c]}"
        )
    columns = [data[:, i::per_node] for i in range(per_node)]
    return StateSet.dc(*columns) if kind == DC else StateSet(AC, *columns)


# Trace CSV layout: one column per TraceRow field, in field order; each cell
# parses back with the field's type
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
_TRACE_TYPES = tuple(typing.get_type_hints(TraceRow)[name] for name in TRACE_COLUMNS)


def save_trace_csv(trace: RecoveryTrace, path) -> None:
    _save_csv(path, TRACE_COLUMNS, ([getattr(r, name) for name in TRACE_COLUMNS] for r in trace))


def load_trace_csv(path) -> RecoveryTrace:
    rows = _csv_rows(path)
    header = next(rows)
    if header != list(TRACE_COLUMNS):
        raise FormatError(f"{path}: unexpected trace header {header!r}")
    trace = RecoveryTrace()
    for line, cells in _parsed_rows(path, rows, _TRACE_TYPES, "trace"):
        row = TraceRow(*cells)
        if row.event not in EVENTS:
            raise FormatError(f"{path}:{line}: unknown event {row.event!r}")
        trace.append(row)
    return trace


def render_trace_table(trace: RecoveryTrace, include_all: bool = False) -> str:
    """Text table of a run; by default only rows where the network changed."""
    shown = 6 if include_all else 5  # the event column only with every row
    table = [["iteration", "edges", "rms", "kappa", "epsilon", "event"][:shown]] + [
        [str(r.iteration), str(r.edges), f"{r.rms:.3e}", f"{r.kappa:.3e}", f"{r.epsilon:.4f}", r.event][:shown]
        for r in (trace if include_all else trace.filtered())
    ]
    # each column as wide as its widest cell, the header's included
    fmt = "  ".join(f"{{:>{max(map(len, column))}}}" for column in zip(*table))
    return "\n".join(fmt.format(*row) for row in table)


def save_edge_statistics_csv(stats_by_graph: dict[str, EdgeStatistics], path) -> None:
    """CSV of per-edge statistics; one block per labelled graph."""
    rows = (
        [label, j, k, repr(float(r)), repr(float(lev)), repr(float(p))]
        for label, stats in stats_by_graph.items()
        for (j, k), r, lev, p in zip(stats.edges, stats.r_eff, stats.leverage, stats.p)
    )
    _save_csv(path, ["graph", "j", "k", "r_eff", "leverage", "p"], rows)
