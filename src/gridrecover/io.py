"""On-disk formats: network JSON, state-set CSV, trace CSV, reports.

Floats are written with ``repr``, which is the shortest form that parses back
to the identical double, so every round trip is exact.
"""

from __future__ import annotations

import csv
import json
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from .network import AC, DC, Network
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


def _integer(value, where: str) -> int:
    """An integral number as an int; a fraction or a boolean raises FormatError."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return int(value)


def network_from_dict(data: dict) -> Network:
    try:
        kind = data["kind"]
        n = _integer(data["n"], "n")
        raw = data["edges"]
        edges = [tuple(_integer(e[end], f"edges[{i}].{end}") for end in "jk") for i, e in enumerate(raw)]
        c = [float(e["c"]) for e in raw]
        s = [float(e.get("s", 0.0)) for e in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed network object: {exc}") from exc
    try:
        return Network(kind, n, tuple(edges), np.array(c), np.array(s))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_network(net: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path) -> Network:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return network_from_dict(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_state_header(states.kind, states.n))
        writer.writerows(map(repr, row) for row in data.tolist())


def load_states_csv(path) -> StateSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty state file") from None
        rows = [(reader.line_num, row) for row in reader if row]
    kind = AC if "f_1" in header else DC
    per_node = len(_STATE_FIELDS[kind])
    n, rem = divmod(len(header), per_node)
    if rem or n < 1 or header != _state_header(kind, n):
        raise FormatError(f"{path}: unexpected state header {header!r}")
    if not rows:
        raise FormatError(f"{path}: no state rows")
    values = []
    for line, row in rows:
        if len(row) != len(header):
            raise FormatError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        try:
            values.append([float(x) for x in row])
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: non-numeric state entry: {exc}") from exc
    data = np.array(values)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise FormatError(
            f"{path}:{rows[r][0]}: non-finite value {float(data[r, c])!r} in column {header[c]}"
        )
    columns = [data[:, i::per_node] for i in range(per_node)]
    return StateSet.dc(*columns) if kind == DC else StateSet(AC, *columns)


# Trace CSV layout: one column per TraceRow field, in field order; each cell
# parses back with the field's type
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
_TRACE_TYPES = tuple(typing.get_type_hints(TraceRow)[name] for name in TRACE_COLUMNS)


def save_trace_csv(trace: RecoveryTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([getattr(r, name) for name in TRACE_COLUMNS] for r in trace)


def load_trace_csv(path) -> RecoveryTrace:
    trace = RecoveryTrace()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise FormatError(f"{path}: unexpected trace header {header!r}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(TRACE_COLUMNS):
                raise FormatError(f"{where}: expected {len(TRACE_COLUMNS)} fields, got {len(row)}")
            try:
                parsed = TraceRow(*(parse(cell) for parse, cell in zip(_TRACE_TYPES, row)))
            except ValueError as exc:
                raise FormatError(f"{where}: non-numeric trace entry: {exc}") from exc
            if parsed.event not in EVENTS:
                raise FormatError(f"{where}: unknown event {parsed.event!r}")
            trace.append(parsed)
    return trace


def render_trace_table(trace: RecoveryTrace, include_all: bool = False) -> str:
    """Text table of a run; by default only rows where the network changed."""
    rows = list(trace) if include_all else trace.filtered()
    header = ["iteration", "edges", "rms", "kappa", "epsilon"]
    if include_all:
        header.append("event")
    body = []
    for r in rows:
        line = [str(r.iteration), str(r.edges), f"{r.rms:.3e}", f"{r.kappa:.3e}", f"{r.epsilon:.4f}"]
        if include_all:
            line.append(r.event)
        body.append(line)
    widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines += [fmt.format(*row) for row in body]
    return "\n".join(lines)


def save_edge_statistics_csv(stats_by_graph: dict[str, EdgeStatistics], path) -> None:
    """CSV of per-edge statistics; one block per labelled graph."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graph", "j", "k", "r_eff", "leverage", "p"])
        for label, stats in stats_by_graph.items():
            for (j, k), r, lev, p in zip(stats.edges, stats.r_eff, stats.leverage, stats.p):
                writer.writerow([label, j, k, repr(float(r)), repr(float(lev)), repr(float(p))])
