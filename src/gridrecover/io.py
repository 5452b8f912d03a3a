"""On-disk formats: network JSON, state-set CSV, trace CSV, reports.

Floats are written with ``repr``, which is the shortest form that parses back
to the identical double, so every round trip is exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import BoundReport
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


def network_from_dict(data: dict) -> Network:
    try:
        kind = data["kind"]
        n = int(data["n"])
        raw = data["edges"]
        edges = [(int(e["j"]), int(e["k"])) for e in raw]
        c = [float(e["c"]) for e in raw]
        s = [float(e.get("s", 0.0)) for e in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed network object: {exc}") from exc
    try:
        return Network(kind, n, tuple(edges), np.array(c), np.array(s))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_network(net: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_dict(json.load(fh))


def _state_header(kind: str, n: int) -> list[str]:
    if kind == DC:
        return [name for j in range(1, n + 1) for name in (f"e_{j}", f"P_{j}")]
    return [name for j in range(1, n + 1) for name in (f"e_{j}", f"f_{j}", f"P_{j}", f"Q_{j}")]


def save_states_csv(states: StateSet, path) -> None:
    n = states.n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_state_header(states.kind, n))
        for k in range(states.m):
            row = []
            for j in range(n):
                if states.kind == DC:
                    row += [repr(float(states.e[k, j])), repr(float(states.p[k, j]))]
                else:
                    row += [
                        repr(float(states.e[k, j])),
                        repr(float(states.f[k, j])),
                        repr(float(states.p[k, j])),
                        repr(float(states.q[k, j])),
                    ]
            writer.writerow(row)


def load_states_csv(path) -> StateSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty state file") from None
        rows = [(reader.line_num, row) for row in reader if row]
    kind = AC if "f_1" in header else DC
    per_node = 4 if kind == AC else 2
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
    if kind == DC:
        e, p = data[:, 0::2], data[:, 1::2]
        return StateSet.dc(e, p)
    return StateSet(AC, data[:, 0::4], data[:, 1::4], data[:, 2::4], data[:, 3::4])


TRACE_COLUMNS = ("iteration", "edges", "rms", "kappa", "epsilon", "event")


def save_trace_csv(trace: RecoveryTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace:
            writer.writerow(
                [r.iteration, r.edges, repr(r.rms), repr(r.kappa), repr(r.epsilon), r.event]
            )


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
            if len(row) != 6 or row[5] not in EVENTS:
                raise FormatError(f"{where}: malformed trace row {row!r}")
            try:
                numbers = (int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4]))
            except ValueError as exc:
                raise FormatError(f"{where}: non-numeric trace entry: {exc}") from exc
            trace.append(TraceRow(*numbers, row[5]))
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


def bound_report_to_dict(report: BoundReport) -> dict:
    return asdict(report)
