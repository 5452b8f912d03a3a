import errno
import hashlib
import json
import logging
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gridrecover.cli
import gridrecover.recovery
import gridrecover.sparsify as sparsify
from gridrecover import io
from gridrecover.builtins import builtin_network, builtin_scenario
from gridrecover.cli import build_parser, main
from gridrecover.network import Network, split_graphs
from gridrecover.nnls import NnlsError, NnlsResult
from gridrecover.recovery import EVENTS, RecoveryConfig, RecoveryError, RecoveryTrace, TraceRow, recover
from gridrecover.sparsify import effective_resistances
from gridrecover.states import StateSet, generate_scenario, generate_voltage_driven, rms
from helpers import draining_states, flat_states, random_ac_network, random_dc_network


def test_network_json_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 7)
        path = tmp_path / "net.json"
        io.save_network(net, path)
        assert io.load_network(path) == net


def test_network_json_exact_floats(tmp_path):
    # a value with no short decimal form must survive the round trip bit-for-bit
    c = np.array([0.1 + 2**-40, 75.98000000000001])
    net = Network.dc(3, ((1, 2), (2, 3)), c)
    path = tmp_path / "net.json"
    io.save_network(net, path)
    assert np.array_equal(io.load_network(path).c, c)


def test_network_json_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    for text in (
        '{"kind": "dc", "n": 3}',
        '{"kind": "dc", "n": "three", "edges": []}',
        '{"kind": "dc", "n": 3, "edges": [{"j": 1, "k": 2, "c": "abc"}]}',
    ):
        path.write_text(text)
        with pytest.raises(io.FormatError):
            io.load_network(path)


@pytest.mark.parametrize(
    "edges, message",
    [
        ('[{"j": 2, "k": 2, "c": 1.0}]', r"loop edge \(2,2\) is not allowed"),
        ('[{"j": 1, "k": 2, "c": 1.0}, {"j": 2, "k": 1, "c": 1.0}]', r"duplicate edge \(1,2\)"),
    ],
)
def test_network_json_rejects_edges_that_fail_validation(tmp_path, edges, message):
    path = tmp_path / "net.json"
    path.write_text(f'{{"kind": "dc", "n": 3, "edges": {edges}}}')
    with pytest.raises(io.FormatError, match=f"net.json: {message}"):
        io.load_network(path)


@pytest.mark.parametrize(
    "edges, n, where",
    [
        ('[{"j": 1, "k": 2, "c": 1.0}]', "6.7", "n must be an integer, got 6.7"),
        ('[{"j": 1, "k": 2, "c": 1.0}]', "true", "n must be an integer, got True"),
        (
            '[{"j": 1, "k": 2, "c": 1.0}, {"j": 1.9, "k": 3, "c": 1.0}]',
            "3",
            r"edges\[1\].j must be an integer, got 1.9",
        ),
        ('[{"j": 1, "k": false, "c": 1.0}]', "3", r"edges\[0\].k must be an integer, got False"),
    ],
)
def test_network_json_rejects_non_integral_indices(tmp_path, capsys, edges, n, where):
    path = tmp_path / "net.json"
    path.write_text(f'{{"kind": "dc", "n": {n}, "edges": {edges}}}')
    with pytest.raises(io.FormatError, match=where):
        io.load_network(path)
    # estimate stops at the file, before the states are read or a fit is made
    out = tmp_path / "out"
    assert main(["estimate", "--network", str(path), "--states", str(tmp_path / "absent.csv"),
                 "--out-dir", str(out)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n, edge, where",
    [
        ('"3"', '{"j": 1, "k": 2, "c": 1.0}', "n must be an integer, got '3'"),
        ("3", '{"j": 1, "k": 2, "c": true}', r"edges\[0\].c must be a number, got True"),
        ("3", '{"j": 1, "k": 2, "c": "1e3"}', r"edges\[0\].c must be a number, got '1e3'"),
        ("3", '{"j": 1, "k": 2, "c": 1.0, "s": null}', r"edges\[0\].s must be a number, got None"),
    ],
)
def test_network_json_rejects_fields_that_are_not_numbers(tmp_path, capsys, n, edge, where):
    path = tmp_path / "net.json"
    path.write_text(f'{{"kind": "dc", "n": {n}, "edges": [{edge}]}}')
    with pytest.raises(io.FormatError, match=where):
        io.load_network(path)
    # generate stops at the file, before any state is drawn or any output written
    out = tmp_path / "out"
    assert main(["generate", "--network", str(path), "--m", "3", "--out-dir", str(out)]) == 2
    assert re.search(where, capsys.readouterr().err)
    assert not out.exists()


def test_network_json_takes_integral_floats(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"kind": "dc", "n": 3.0, "edges": [{"j": 1, "k": 2.0, "c": 1.5}]}')
    net = io.load_network(path)
    assert (net.n, net.edges) == (3, ((1, 2),))
    assert isinstance(net.n, int) and all(isinstance(j, int) for e in net.edges for j in e)


def test_states_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 5)
        states = generate_voltage_driven(net, 12, seed=3)
        path = tmp_path / "states.csv"
        io.save_states_csv(states, path)
        assert io.load_states_csv(path) == states


def test_states_csv_header_layout(tmp_path):
    states = StateSet.dc([[1.0, 1.1]], [[0.5, -0.5]])
    path = tmp_path / "dc.csv"
    io.save_states_csv(states, path)
    header = path.read_text().splitlines()[0]
    assert header == "e_1,P_1,e_2,P_2"
    ac = StateSet("ac", [[1.0]], [[0.1]], [[0.2]], [[0.3]])
    io.save_states_csv(ac, tmp_path / "ac.csv")
    assert (tmp_path / "ac.csv").read_text().splitlines()[0] == "e_1,f_1,P_1,Q_1"


def test_states_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("e_1,P_1\n1.0\n")
    with pytest.raises(io.FormatError):
        io.load_states_csv(path)
    path.write_text("e_1,nope\n1.0,2.0\n")
    with pytest.raises(io.FormatError):
        io.load_states_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [("", "bad.csv: empty state file"), ("e_1,P_1,e_2,P_2\n\n", "bad.csv: no state rows")],
)
def test_states_csv_without_rows(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(io.FormatError, match=message):
        io.load_states_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_states_csv_rejects_non_finite_with_line_and_column(tmp_path, bad):
    path = tmp_path / "states.csv"
    path.write_text(f"e_1,P_1,e_2,P_2\n1.0,0.5,1.1,-0.5\n1.0,0.5,1.1,{bad}\n")
    with pytest.raises(io.FormatError, match=rf"states.csv:3: non-finite value {bad} in column P_2"):
        io.load_states_csv(path)


def test_trace_round_trip_and_column_order(tmp_path):
    trace = RecoveryTrace()
    trace.append(TraceRow(1, 15, 1.011e-6, 1.04e4, 0.1, "initial"))
    trace.append(TraceRow(2, 9, 9.415e-7, 4.316e3, 0.1, "accepted"))
    trace.append(TraceRow(3, 9, 2.2e-3, float("inf"), 0.1, "rejected_rms"))
    path = tmp_path / "trace.csv"
    io.save_trace_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "iteration,edges,rms,kappa,epsilon,event"
    back = io.load_trace_csv(path)
    assert back.rows == trace.rows
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("9.415e-07", "abc")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(io.FormatError, match=r"trace.csv:3: non-numeric trace entry"):
        io.load_trace_csv(path)


def _small_ac_run():
    """A noisy small_ac recovery at six times its noise floor: 16 rows,
    every event among them."""
    net = builtin_network("small_ac", 1)
    states = generate_scenario(net, builtin_scenario("small_ac", sigma=1e-6), 60, seed=1)
    return recover(states, RecoveryConfig(seed=1, tol=6 * rms(net, states), max_stale_iterations=10))


def test_a_recovered_trace_round_trips_through_csv(tmp_path):
    # the loop's rows hold their fits and the file's rows floats: the same values
    _, trace = _small_ac_run()
    assert {r.event for r in trace} == set(EVENTS)
    io.save_trace_csv(trace, tmp_path / "trace.csv")
    assert io.load_trace_csv(tmp_path / "trace.csv").rows == trace.rows


def test_trace_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iteration,edges,rms,kappa,epsilon,event\n\n1,15,1e-06,10.0,0.1,initial\n\n")
    assert io.load_trace_csv(path).rows == [TraceRow(1, 15, 1e-6, 10.0, 0.1, "initial")]


@pytest.mark.parametrize(
    "text, message",
    [
        ("iteration,edges,rms\n", r"trace.csv: unexpected trace header \['iteration', 'edges', 'rms'\]"),
        ("", "trace.csv: unexpected trace header None"),
        (
            "iteration,edges,rms,kappa,epsilon,event\n1,15,1e-06,10.0,initial\n",
            "trace.csv:2: expected 6 fields, got 5",
        ),
        (
            "iteration,edges,rms,kappa,epsilon,event\n1,15,1e-06,10.0,0.1,restarted\n",
            "trace.csv:2: unknown event 'restarted'",
        ),
    ],
)
def test_trace_csv_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(io.FormatError, match=message):
        io.load_trace_csv(path)


def test_unknown_builtin_names_the_choices():
    with pytest.raises(ValueError, match=r"unknown builtin 'heawood'; choose from \('table1_dc'"):
        builtin_network("heawood")


def test_render_trace_table_filters_unchanged_rows():
    trace = RecoveryTrace()
    trace.append(TraceRow(1, 15, 1e-6, 1e4, 0.1, "initial"))
    trace.append(TraceRow(2, 15, 1e-6, 1e4, 0.1, "no_edge_reduction"))
    trace.append(TraceRow(3, 9, 2e-7, 5e3, 0.15, "accepted"))
    table = io.render_trace_table(trace)
    lines = table.splitlines()
    assert len(lines) == 3  # header + two changed rows
    assert "no_edge_reduction" not in table
    full = io.render_trace_table(trace, include_all=True)
    assert len(full.splitlines()) == 4


@pytest.mark.parametrize(("epsilon", "shown"), [(1e-5, "1.000e-05"), (0.1, "1.000e-01"), (1e200, "1.000e+200")])
def test_render_trace_table_shows_epsilon_as_rms_and_kappa(epsilon, shown):
    # in the format of rms and kappa: a small epsilon keeps its digits and a large one stays narrow
    trace = RecoveryTrace([TraceRow(1, 15, 1e-6, 1e4, epsilon, "initial")])
    header, row = io.render_trace_table(trace).splitlines()
    assert row.split() == ["1", "15", "1.000e-06", "1.000e+04", shown]
    assert len(row) == len(header) < 60


def test_cli_recover_with_a_huge_eps_prints_a_narrow_table(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "20", "--seed", "3", "--out-dir", str(out)]) == 0
    main(["recover", "--states", str(out / "states.csv"), "--eps", "1e200", "--max-iterations", "3",
          "--out-dir", str(out)])
    table = capsys.readouterr().out.splitlines()[1:-1]  # between the generate line and the final line
    assert table[0].split() == ["iteration", "edges", "rms", "kappa", "epsilon"]
    assert table[1].split()[-1] == "1.000e+200" and max(map(len, table)) < 60


# --- CLI -------------------------------------------------------------------


def test_cli_generate_recover_round_trip(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        ["generate", "--builtin", "table1_dc", "--m", "120", "--seed", "7",
         "--out-dir", str(out)]
    )
    assert code == 0
    net = io.load_network(out / "network.json")
    assert np.allclose(net.c, [0.5799, 75.980, 75.979, 0.4698, 94.599, 79.909])
    states = io.load_states_csv(out / "states.csv")
    assert states.m == 120
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance == {"builtin": "table1_dc", "zero": [],
                          "p_range": [-0.015, 0.0], "q_range": [0.0, 0.0],
                          "m": 120, "seed": 7, "noise": 0.0}

    code = main(
        ["recover", "--states", str(out / "states.csv"), "--tol", "1e-5",
         "--seed", "1", "--out-dir", str(out)]
    )
    assert code == 0
    recovered = io.load_network(out / "recovered.json")
    assert set(recovered.edges) == set(net.edges)
    trace = io.load_trace_csv(out / "trace.csv")
    assert trace.rows[0].edges == 15
    # one file per artefact; the table is printed, not written
    assert sorted(p.name for p in out.iterdir()) == [
        "network.json", "provenance.json", "recovered.json", "states.csv", "trace.csv"]
    assert io.render_trace_table(trace) in capsys.readouterr().out


def test_cli_generate_small_ac_provenance_is_pinned(tmp_path):
    # the scenario's sampling layout, its zero-injection node and Q range included
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "small_ac", "--m", "5", "--seed", "2",
                 "--noise", "1e-6", "--out-dir", str(out)]) == 0
    expected = {"builtin": "small_ac", "zero": [3],
                "p_range": [-0.1, 0.0], "q_range": [-0.05, 0.05],
                "m": 5, "seed": 2, "noise": 1e-6}
    assert (out / "provenance.json").read_text() == json.dumps(expected, indent=2) + "\n"


def test_cli_estimate_round_trip(tmp_path):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "50", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    states = io.load_states_csv(out / "states.csv")
    assert np.array_equal(states.p[:, 1], np.zeros(states.m))  # silent middle node
    assert main(["estimate", "--network", str(out / "network.json"),
                 "--states", str(out / "states.csv"), "--out-dir", str(out)]) == 0
    result = json.loads((out / "estimate.json").read_text())
    assert result["rms"] <= 1e-8
    got = {(e["j"], e["k"]): e["c"] for e in result["network"]["edges"]}
    assert got[(1, 2)] == pytest.approx(2.0, abs=1e-6)
    assert got[(2, 3)] == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize(
    "other, message",
    [(Network.ac(3, ((1, 2), (2, 3)), [2.0, 3.0], [1.0, 1.0]),
      "network kind 'ac' != state kind 'dc'"),
     (Network.dc(6, ((1, 2), (2, 3)), [2.0, 3.0]), "network has n=6, states have n=3")],
    ids=["kind", "n"],
)
def test_cli_estimate_rejects_mismatched_network(tmp_path, capsys, other, message):
    # the edges all fit the 3-node states, so only the check stops the fit
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "20", "--out-dir", str(out)]) == 0
    io.save_network(other, tmp_path / "other.json")
    capsys.readouterr()
    assert main(["estimate", "--network", str(tmp_path / "other.json"),
                 "--states", str(out / "states.csv"), "--out-dir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


def test_cli_sparsify_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    net_dir = tmp_path / "net"
    assert main(["generate", "--builtin", "table1_dc", "--m", "1",
                 "--out-dir", str(net_dir)]) == 0
    for out in (out_a, out_b):
        assert main(["sparsify", "--network", str(net_dir / "network.json"),
                     "--eps", "1", "--seed", "3", "--out-dir", str(out)]) == 0
    assert (out_a / "sparsified.json").read_bytes() == (out_b / "sparsified.json").read_bytes()
    assert (out_a / "edge_stats.csv").read_bytes() == (out_b / "edge_stats.csv").read_bytes()


def test_cli_sparsify_susceptance_only_ac_network(tmp_path):
    # sparsify_ac samples the susceptance row only, and the statistics follow it
    net = Network.ac(3, ((1, 2), (1, 3), (2, 3)), np.zeros(3), [1.0, 2.0, 3.0])
    io.save_network(net, tmp_path / "net.json")
    assert main(["sparsify", "--network", str(tmp_path / "net.json"), "--eps", "1",
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "edge_stats.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.startswith("susceptance,") for row in rows)


@pytest.mark.parametrize("name, rows", [("table1_dc", 1), ("small_ac", 2)])
def test_cli_sparsify_inverts_each_weight_row_once(tmp_path, monkeypatch, name, rows):
    assert main(["generate", "--builtin", name, "--m", "1", "--out-dir", str(tmp_path)]) == 0
    inverses = []

    def counting_pseudo_inverse(L):
        inverses.append(L.shape)
        return pseudo_inverse(L)

    pseudo_inverse = sparsify._pseudo_inverse
    monkeypatch.setattr(sparsify, "_pseudo_inverse", counting_pseudo_inverse)
    assert main(["sparsify", "--network", str(tmp_path / "network.json"), "--eps", "0.7",
                 "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    assert len(inverses) == rows
    # the statistics sparsify_ac sampled by are those of each row on its own
    net = io.load_network(tmp_path / "network.json")
    graphs = dict(zip(("conductance", "susceptance"), split_graphs(net)))
    stats = {label: effective_resistances(g) for label, g in graphs.items() if np.any(g.c > 0)}
    io.save_edge_statistics_csv(stats, tmp_path / "expected.csv")
    assert (tmp_path / "edge_stats.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_cli_sparsify_rejects_infinite_eps(tmp_path, capsys):
    io.save_network(Network.dc(3, ((1, 2), (2, 3)), [2.0, 3.0]), tmp_path / "net.json")
    assert main(["sparsify", "--network", str(tmp_path / "net.json"), "--eps", "inf",
                 "--out-dir", str(tmp_path)]) == 1
    assert "eps must be positive" in capsys.readouterr().err
    assert not (tmp_path / "sparsified.json").exists()


def test_cli_sparsify_takes_one_draw_when_eps_squared_overflows(tmp_path, capsys):
    io.save_network(Network.dc(3, ((1, 2), (2, 3)), [2.0, 3.0]), tmp_path / "net.json")
    assert main(["sparsify", "--network", str(tmp_path / "net.json"), "--eps", "1e200",
                 "--out-dir", str(tmp_path)]) == 0
    assert "(t=1)" in capsys.readouterr().out


def test_cli_bound_variants_ordered(tmp_path):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    args = ["bound", "--network", str(out / "network.json"),
            "--states", str(out / "states.csv"), "--eps", "0.5", "--out-dir", str(out)]
    assert main(args + ["--variant", "fine"]) == 0
    fine = json.loads((out / "bound.json").read_text())
    assert main(args + ["--variant", "coarse"]) == 0
    coarse = json.loads((out / "bound.json").read_text())
    assert coarse["bound_term"] >= fine["bound_term"]
    assert fine["variant"] == "fine" and coarse["variant"] == "coarse"


def test_cli_bound_ac_variant(tmp_path, capsys):
    ac, dc = tmp_path / "ac", tmp_path / "dc"
    for name, out in (("small_ac", ac), ("table1_dc", dc)):
        assert main(["generate", "--builtin", name, "--m", "40", "--seed", "2",
                     "--out-dir", str(out)]) == 0
    args = ["bound", "--eps", "0.5", "--variant", "ac"]
    assert main(args + ["--network", str(ac / "network.json"),
                        "--states", str(ac / "states.csv"), "--out-dir", str(ac)]) == 0
    report = json.loads((ac / "bound.json").read_text())
    assert report["variant"] == "ac"
    assert report["bound_total"] >= report["rms_base"]
    capsys.readouterr()
    assert main(args + ["--network", str(dc / "network.json"),
                        "--states", str(dc / "states.csv"), "--out-dir", str(dc)]) == 1
    assert "ac_delta needs an AC network and AC data" in capsys.readouterr().err
    assert not (dc / "bound.json").exists()


def test_cli_report_renders_and_rejects_malformed_trace(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "60", "--seed", "5",
                 "--out-dir", str(out)]) == 0
    assert main(["recover", "--states", str(out / "states.csv"),
                 "--out-dir", str(out), "--seed", "2"]) == 0
    capsys.readouterr()
    assert main(["report", "--trace", str(out / "trace.csv")]) == 0
    shown = capsys.readouterr().out
    trace = io.load_trace_csv(out / "trace.csv")
    assert shown == io.render_trace_table(trace) + "\n"
    assert main(["report", "--trace", str(out / "trace.csv"), "--all"]) == 0
    assert capsys.readouterr().out == io.render_trace_table(trace, include_all=True) + "\n"
    lines = (out / "trace.csv").read_text().splitlines()
    lines[1] = "x" + lines[1]  # non-numeric iteration on line 2
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--trace", str(out / "trace.csv")]) == 2
    assert "trace.csv:2:" in capsys.readouterr().err


def test_cli_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "dc", "n": 3, "edges": [ BROKEN')
    code = main(["sparsify", "--network", str(bad), "--eps", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    assert err.startswith(f"parse error: {bad}: ")


def test_cli_missing_file_exits_2(tmp_path, capsys):
    code = main(["estimate", "--network", str(tmp_path / "absent.json"),
                 "--states", str(tmp_path / "absent.csv"), "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    ("args", "named"),
    [(["estimate", "--network", "absent.json", "--states", "absent.csv", "--out-dir", "out"], "absent.json"),
     (["report", "--trace", "a_dir"], "a_dir"),
     (["generate", "--builtin", "path3_dc", "--m", "2", "--out-dir", "a_file"], "a_file")],
    ids=["missing", "directory", "out-dir-is-a-file"],
)
def test_cli_os_error_on_a_named_path_exits_2(tmp_path, capsys, monkeypatch, args, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    before = sorted(tmp_path.iterdir())
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"file error: {named}: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before and (tmp_path / "a_file").is_file()


def test_cli_main_reraises_an_os_error_that_names_no_path(monkeypatch):
    # such as a disk filling up mid-write: not a bad input, so not exit 2
    def full_disk(args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(gridrecover.cli, "cmd_report", full_disk)
    with pytest.raises(OSError) as exc:
        main(["report", "--trace", "trace.csv"])
    assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, None)


@pytest.mark.parametrize(
    ("loader", "args"),
    [(io.load_states_csv, ["recover", "--states", "{bad}", "--out-dir", "{out}"]),
     (io.load_network, ["estimate", "--network", "{bad}", "--states", "{bad}", "--out-dir", "{out}"]),
     (io.load_trace_csv, ["report", "--trace", "{bad}"])],
    ids=["states", "network", "trace"],
)
def test_an_input_that_is_not_utf8_is_a_malformed_file(tmp_path, capsys, loader, args):
    bad, out = tmp_path / "bin.csv", tmp_path / "out"
    bad.write_bytes(bytes([0x80, 0x81, 0xFF]))
    with pytest.raises(io.FormatError, match=f"^{re.escape(str(bad))}: not UTF-8 text: .*byte 0x80"):
        loader(bad)
    assert main([a.format(bad=bad, out=out) for a in args]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {bad}: not UTF-8 text")
    assert not out.exists()


# each input runs into a limit of Python's parsers: csv's field size
# (131,072 characters), json's nesting depth and the 4,300-digit integer
TOO_LONG_FIELD = "1" * 140_000
TOO_DEEP_JSON = "[" * 100_000 + "]" * 100_000
TOO_LONG_INTEGER = '{"kind": "dc", "n": 2, "edges": [{"j": 1, "k": 2, "c": 1' + "0" * 5000 + "}]}"


@pytest.mark.parametrize(
    ("loader", "text", "args", "message"),
    [(io.load_states_csv, f"e_1,P_1,e_2,P_2\n1.0,0.1,0.9,{TOO_LONG_FIELD}\n",
      ["recover", "--states", "{bad}", "--out-dir", "{out}"], ":2: field larger than field limit (131072)"),
     (io.load_trace_csv, f"iteration,edges,rms,kappa,epsilon,event\n1,3,{TOO_LONG_FIELD},1.0,0.1,initial\n",
      ["report", "--trace", "{bad}"], ":2: field larger than field limit (131072)"),
     (io.load_network, TOO_DEEP_JSON,
      ["sparsify", "--network", "{bad}", "--eps", "1", "--out-dir", "{out}"], ": maximum recursion depth exceeded"),
     (io.load_network, TOO_DEEP_JSON,
      ["generate", "--network", "{bad}", "--out-dir", "{out}"], ": maximum recursion depth exceeded"),
     (io.load_network, TOO_LONG_INTEGER,
      ["estimate", "--network", "{bad}", "--states", "{bad}", "--out-dir", "{out}"], ": Exceeds the limit (4300 digits)"),
     (io.load_network, TOO_LONG_INTEGER,
      ["bound", "--network", "{bad}", "--states", "{bad}", "--eps", "0.1", "--out-dir", "{out}"],
      ": Exceeds the limit (4300 digits)")],
    ids=["recover-field", "report-field", "sparsify-depth", "generate-depth", "estimate-digits", "bound-digits"],
)
def test_an_input_past_a_parser_limit_is_a_malformed_file(tmp_path, capsys, loader, text, args, message):
    bad, out = tmp_path / "input", tmp_path / "out"
    bad.write_text(text)
    with pytest.raises(io.FormatError, match=f"^{re.escape(str(bad) + message)}"):
        loader(bad)
    assert main([a.format(bad=bad, out=out) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {bad}{message}") and err.count("\n") == 1
    assert not out.exists()


def _strict_json(path):
    """A JSON file parsed by a strict parser, which rejects NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_save_json_writes_non_finite_floats_as_strings(tmp_path):
    data = {"a": [float("nan"), -float("inf"), 1.5], "b": (np.float64("inf"), 2), "c": "x"}
    io.save_json(data, tmp_path / "x.json")
    assert _strict_json(tmp_path / "x.json") == {"a": ["nan", "-inf", 1.5], "b": ["inf", 2], "c": "x"}


def test_cli_estimate_writes_an_infinite_kappa_as_strict_json(tmp_path):
    # the complete graph on path3_dc's silent middle node is the criterion-5
    # degeneracy: its fit has kappa = inf
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "20", "--out-dir", str(out)]) == 0
    io.save_network(Network.dc(3, ((1, 2), (1, 3), (2, 3)), [1.0, 1.0, 1.0]), tmp_path / "k3.json")
    assert main(["estimate", "--network", str(tmp_path / "k3.json"),
                 "--states", str(out / "states.csv"), "--out-dir", str(out)]) == 0
    result = _strict_json(out / "estimate.json")
    assert result["kappa"] == "inf" and float(result["kappa"]) == float("inf")


def test_cli_recover_nonzero_exit_when_over_tol(tmp_path):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "60", "--seed", "9",
                 "--noise", "1e-4", "--out-dir", str(out)]) == 0
    code = main(["recover", "--states", str(out / "states.csv"), "--tol", "1e-12",
                 "--max-stale", "2", "--seed", "0", "--out-dir", str(out)])
    assert code == 1


@pytest.mark.parametrize("trials", ["1", "2"])
def test_cli_recover_malformed_states_leave_no_directory(tmp_path, capsys, trials):
    # the states are read before the output directory is made, as every
    # other command reads its inputs first
    data = tmp_path / "data"
    assert main(["generate", "--builtin", "path3_dc", "--m", "2", "--out-dir", str(data)]) == 0
    header, first, second = (data / "states.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, first, "x" + second[second.index(","):]]) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["recover", "--states", str(bad), "--trials", trials, "--out-dir", str(out)]) == 2
    assert "parse error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["1", "2"])
@pytest.mark.parametrize(("make", "code"), [(flat_states, 0), (draining_states, 1)], ids=["flat", "draining"])
def test_cli_recover_returns_an_empty_held_network(tmp_path, capsys, trials, make, code):
    # the empty network fits the flat data with rms 0; on the draining data
    # nothing fits, and the run exits 1 on its rms, not on a failed draw
    states, out = tmp_path / "states.csv", tmp_path / "out"
    io.save_states_csv(make(), states)
    assert main(["recover", "--states", str(states), "--trials", trials, "--out-dir", str(out)]) == code
    assert "error: " not in capsys.readouterr().err
    if trials == "1":
        assert io.load_network(out / "recovered.json").edges == ()
        assert [r.event for r in io.load_trace_csv(out / "trace.csv")] == ["initial"]
    else:
        summary = json.loads((out / "trials.json").read_text())
        assert summary["edge_counts"] == [0, 0] and summary["successes"] == 2 * (code == 0)


def test_cli_recover_failed_initial_fit_exits_1(tmp_path, capsys, monkeypatch):
    def failing_solve(A, b, from_all=False):
        raise NnlsError("stub: no convergence", NnlsResult(np.zeros(A.shape[1]), 1.0, 1.0, 1))

    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "20", "--out-dir", str(out)]) == 0
    monkeypatch.setattr(gridrecover.recovery, "nnls_solve", failing_solve)
    capsys.readouterr()
    assert main(["recover", "--states", str(out / "states.csv"), "--out-dir", str(out)]) == 1
    assert "error: initial estimation failed: stub: no convergence" in capsys.readouterr().err
    # the trace has no row before the initial fit, and there is no network to keep
    assert (out / "trace.csv").read_text() == "iteration,edges,rms,kappa,epsilon,event\n"
    assert not (out / "recovered.json").exists()


@pytest.mark.parametrize(
    "noise, tol",
    [
        ("0", "1e-15"),  # exact data, tol below its roundoff rms: the initial fit is not certified
    ],
    ids=["exact"],
)
def test_cli_recover_sample_count_overflow_exits_1(tmp_path, capsys, noise, tol):
    # every refit misses the tolerance, so eps shrinks by psi per iteration
    # until 8 n ln(n) / eps^2 passes 2^63
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "7",
                 "--noise", noise, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["recover", "--states", str(out / "states.csv"), "--tol", tol,
                 "--max-stale", "60", "--out-dir", str(out)])
    assert code == 1
    assert "at n=6 needs" in capsys.readouterr().err
    # the failed run keeps its iterations and its held network
    assert len(io.load_trace_csv(out / "trace.csv")) > 40
    assert io.load_network(out / "recovered.json").n == 6


def test_cli_generate_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["generate", "--builtin", "heawood_dc", "--m", "15", "--seed", "21",
                     "--out-dir", str(out)]) == 0
    assert (out_a / "network.json").read_bytes() == (out_b / "network.json").read_bytes()
    assert (out_a / "states.csv").read_bytes() == (out_b / "states.csv").read_bytes()


def test_cli_generate_noise_sets_rms_scale(tmp_path):
    from gridrecover.states import rms

    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "80", "--seed", "6",
                 "--noise", "1e-6", "--out-dir", str(out)]) == 0
    net = io.load_network(out / "network.json")
    states = io.load_states_csv(out / "states.csv")
    level = rms(net, states)
    # voltage noise is amplified by the conductance scale (~1e2 here)
    assert 1e-8 < level < 1e-3


@pytest.mark.parametrize("noise", ["0", "1e-6"])
def test_cli_generate_from_network(tmp_path, noise):
    from gridrecover.states import rms

    source = tmp_path / "source"
    assert main(["generate", "--builtin", "table1_dc", "--m", "1", "--out-dir", str(source)]) == 0
    out = tmp_path / "exp"
    assert main(["generate", "--network", str(source / "network.json"), "--m", "50",
                 "--seed", "1", "--noise", noise, "--out-dir", str(out)]) == 0
    net = io.load_network(out / "network.json")
    assert net == io.load_network(source / "network.json")
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance == {"network": str(source / "network.json"), "sampling": "voltage_driven",
                          "m": 50, "seed": 1, "noise": float(noise)}
    states = io.load_states_csv(out / "states.csv")
    assert states.m == 50
    assert (rms(net, states) <= 1e-12) == (noise == "0")


def test_cli_generate_from_network_draws_noise_apart_from_other_seeds(tmp_path):
    # voltages and noise come from two children of SeedSequence(seed), as for
    # a builtin, so the noise of --seed 0 is not default_rng(1), the stream
    # that --seed 1's voltages used to come from
    source = tmp_path / "source"
    assert main(["generate", "--builtin", "table1_dc", "--m", "1", "--out-dir", str(source)]) == 0
    runs = {}
    for seed, noise in (("0", "0"), ("0", "1e-3")):
        out = tmp_path / f"seed{seed}-noise{noise}"
        assert main(["generate", "--network", str(source / "network.json"), "--m", "4",
                     "--seed", seed, "--noise", noise, "--out-dir", str(out)]) == 0
        runs[seed, noise] = io.load_states_csv(out / "states.csv")
    n = runs["0", "0"].e.shape[1]
    voltage_ss, noise_ss = np.random.SeedSequence(0).spawn(2)
    assert np.array_equal(runs["0", "0"].e, np.random.default_rng(voltage_ss).uniform(0.9, 1.1, (4, n)))
    drawn = (runs["0", "1e-3"].e - runs["0", "0"].e) / 1e-3
    assert np.allclose(drawn, np.random.default_rng(noise_ss).standard_normal((4, n)), atol=1e-9)
    assert not np.allclose(drawn, np.random.default_rng(1).standard_normal((4, n)), atol=1e-3)


SEED_MESSAGE = "--seed: must be non-negative, got -1"


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["generate", "--m", "5"], "--builtin"),
        (["generate", "--builtin", "table1_dc", "--network", "net.json", "--m", "5"], "--builtin"),
        (["report", "--trace", "trace.csv"], "unrecognized arguments: --out-dir"),
        (["generate", "--builtin", "table1_dc", "--m", "5", "--seed", "-1"], SEED_MESSAGE),
        (["sparsify", "--network", "network.json", "--eps", "1", "--seed", "-1"], SEED_MESSAGE),
        (["recover", "--states", "states.csv", "--seed", "-1"], SEED_MESSAGE),
        (["recover", "--states", "states.csv", "--stop-on-tree"],
         "unrecognized arguments: --stop-on-tree"),
    ],
    ids=["generate-neither-source", "generate-both-sources", "report-out-dir",
         "generate-negative-seed", "sparsify-negative-seed", "recover-negative-seed",
         "recover-stop-on-tree"],
)
def test_cli_rejects_while_parsing(tmp_path, capsys, args, message):
    # argparse exits before any (missing) input is read or output written
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_generate_rejects_bad_noise(tmp_path, capsys, value):
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--builtin", "table1_dc", "--m", "5", "--noise", value,
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_generate_rejects_m_below_one(tmp_path, capsys, value):
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--builtin", "table1_dc", "--m", value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
def test_cli_bound_coarse_rejects_a_vmax_that_is_not_finite_or_below_vmin(tmp_path, capsys, value):
    data = tmp_path / "data"
    assert main(["generate", "--builtin", "table1_dc", "--m", "20", "--seed", "2",
                 "--out-dir", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["bound", "--network", str(data / "network.json"),
                 "--states", str(data / "states.csv"), "--eps", "0.5", "--variant", "coarse",
                 "--vmin", "0.8", "--vmax", value, "--out-dir", str(out)]) == 1
    assert f"need a finite vmax >= vmin, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bound_coarse_rejects_a_vmax_whose_square_overflows(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--builtin", "table1_dc", "--m", "20", "--seed", "2",
                 "--out-dir", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["bound", "--network", str(data / "network.json"),
                 "--states", str(data / "states.csv"), "--eps", "0.5", "--variant", "coarse",
                 "--vmax", "1e200", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: vmax=1e+200 squared overflows a float\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_bound_rejects_bad_eps(tmp_path, capsys, value):
    # checked while parsing, before the (missing) files are read
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--network", str(tmp_path / "network.json"),
              "--states", str(tmp_path / "states.csv"), "--eps", value,
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "bound.json").exists()


@pytest.mark.parametrize("flag", ["--vmin", "--vmax"])
@pytest.mark.parametrize("variant", [[], ["--variant", "fine"], ["--variant", "ac"]])
def test_cli_bound_takes_vmin_and_vmax_with_the_coarse_variant_only(tmp_path, capsys, variant, flag):
    # only the coarse certificate reads them; checked before the (missing) files are read
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--network", str(tmp_path / "network.json"),
              "--states", str(tmp_path / "states.csv"), "--eps", "0.5", *variant,
              flag, "nan", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: only --variant coarse reads it" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bound_coarse_defaults_to_the_voltage_range(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--builtin", "table1_dc", "--m", "20", "--seed", "2",
                 "--out-dir", str(data)]) == 0
    reports = []
    for limits in ([], ["--vmin", "0.9"], ["--vmin", "0.9", "--vmax", "1.1"]):
        out = tmp_path / f"out{len(limits)}"
        assert main(["bound", "--network", str(data / "network.json"),
                     "--states", str(data / "states.csv"), "--eps", "0.5", "--variant", "coarse",
                     *limits, "--out-dir", str(out)]) == 0
        reports.append((out / "bound.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


# sha256 of states.csv from `generate --builtin NAME --m 50 --seed 5 --noise 1e-6`,
# written by the per-state Newton loop that the batched solve replaced
STATES_SHA256 = {
    "table1_dc": "afa5373e2f1f67eb3b5ef2c946a331f37387df3899efac3e0a47f8e5d2b8acce",
    "heawood_dc": "524fe5ba2641e88ae20a3c1537a30ed338fd42f052f0b77215472e1713d1d724",
    "path3_dc": "30310b6f5efe0d07209f091e0685dafdb891fdfb7144cc468c8cc325f857b2ba",
    "small_ac": "9b2dcd64b905fa1daa20ef49bfd0d90071e3a3d7a567acff2f46cc88b3b0e0fd",
}


@pytest.mark.parametrize("name", sorted(STATES_SHA256))
def test_cli_generate_states_are_pinned(tmp_path, name):
    out = tmp_path / name
    assert main(["generate", "--builtin", name, "--m", "50", "--seed", "5",
                 "--noise", "1e-6", "--out-dir", str(out)]) == 0
    digest = hashlib.sha256((out / "states.csv").read_bytes()).hexdigest()
    assert digest == STATES_SHA256[name]


def test_cli_trials_fan_out(tmp_path):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "80", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    code = main(["recover", "--states", str(out / "states.csv"), "--trials", "3",
                 "--workers", "2", "--seed", "10", "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "trials.json").read_text())
    assert summary["successes"] == 3
    assert len(summary["trials"]) == 3
    assert summary["trials"][0]["seed"] == 10


def test_cli_trials_entries_hold_exactly_the_replayed_keys(tmp_path):
    """Each ``trials.json`` entry holds seed, edges, rms, iterations and
    success, and nothing else.

    The benchmark's ac_trials workload (``perfbench/workloads._replay``)
    reruns each trial in-process and compares its dict with the entry for
    equality, so a new key, such as the reason a run stopped, makes every
    ac_trials unit read incorrect.  Such a key lands together with a replay
    that compares only the keys it replays, and this test changes with it.
    """
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "20", "--seed", "4", "--out-dir", str(out)]) == 0
    main(["recover", "--states", str(out / "states.csv"), "--trials", "2", "--out-dir", str(out)])
    trials = json.loads((out / "trials.json").read_text())["trials"]
    assert len(trials) == 2
    for trial in trials:
        assert set(trial) == {"seed", "edges", "rms", "iterations", "success"}


@pytest.mark.parametrize("workers", [["--workers", "4"], []])
def test_cli_trials_assemble_the_complete_graph_once(tmp_path, monkeypatch, workers):
    # the complete-graph system and its fit are the same for every seed, so
    # --trials 3 assembles once and refits only restrictions of that system
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    assemble, calls = gridrecover.recovery.assemble, []

    def counting_assemble(edges, states):
        calls.append(len(edges))
        return assemble(edges, states)

    monkeypatch.setattr(gridrecover.recovery, "assemble", counting_assemble)
    code = main(["recover", "--states", str(out / "states.csv"), "--trials", "3", *workers,
                 "--max-stale", "5", "--out-dir", str(out)])
    assert code in (0, 1)
    assert len(json.loads((out / "trials.json").read_text())["trials"]) == 3
    assert calls == [15]  # the 15 edges of the complete graph on 6 nodes


def test_cli_trials_identical_for_one_and_two_workers(tmp_path):
    # --workers is accepted and ignored: with 1, with 2 and without it the
    # command writes the same bytes, and each trial is the standalone run of
    # its seed
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "small_ac", "--m", "60", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    codes, summaries = set(), set()
    for name, workers in (("one", ["--workers", "1"]), ("two", ["--workers", "2"]), ("none", [])):
        run = tmp_path / name
        codes.add(main(["recover", "--states", str(out / "states.csv"), "--trials", "3", *workers,
                        "--seed", "9", "--max-stale", "10", "--out-dir", str(run)]))
        summaries.add((run / "trials.json").read_bytes())
    assert len(codes) == 1 and len(summaries) == 1
    states = io.load_states_csv(out / "states.csv")
    standalone = [recover(states, RecoveryConfig(seed=9 + i, max_stale_iterations=10)) for i in range(3)]
    trials = json.loads(summaries.pop())["trials"]
    assert [(t["seed"], t["edges"], t["iterations"]) for t in trials] == [
        (9 + i, len(net.edges), len(trace)) for i, (net, trace) in enumerate(standalone)
    ]
    assert all(len(trace) > 1 for _, trace in standalone)


def test_cli_trials_fail_once_when_the_initial_fit_fails(tmp_path, capsys, monkeypatch):
    # the complete-graph fit is shared by every trial, so its failure is
    # reported once, before any trial, after a single solve
    solves = []

    def failing_solve(A, b, from_all=False):
        solves.append(A.shape)
        raise NnlsError("stub: no convergence", NnlsResult(np.zeros(A.shape[1]), 1.0, 1.0, 1))

    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", "20", "--out-dir", str(out)]) == 0
    monkeypatch.setattr(gridrecover.recovery, "nnls_solve", failing_solve)
    capsys.readouterr()
    code = main(["recover", "--states", str(out / "states.csv"), "--trials", "3",
                 "--out-dir", str(out)])
    assert code == 1 and len(solves) == 1
    assert capsys.readouterr().err == "error: initial estimation failed: stub: no convergence\n"
    assert not (out / "trials.json").exists()


def test_cli_trials_warn_once_about_the_complete_graph_fit(tmp_path, caplog):
    # tol below the noise: the complete-graph fit misses it, which the
    # command logs once however many trials share that fit
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "7",
                 "--noise", "1e-4", "--out-dir", str(out)]) == 0
    with caplog.at_level(logging.WARNING, logger="gridrecover.recovery"):
        code = main(["recover", "--states", str(out / "states.csv"), "--tol", "1e-9",
                     "--trials", "3", "--out-dir", str(out)])
    assert code == 1
    warnings = [r.getMessage() for r in caplog.records if r.name == "gridrecover.recovery"]
    assert len(warnings) == 1 and "complete-graph fit rms" in warnings[0]


def test_cli_failing_trial_fails_the_command(tmp_path, capfd):
    # the data of test_cli_recover_sample_count_overflow_exits_1: the trial
    # raises RecoveryError, and the command reports it as a single run
    # would, with no traceback
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "7",
                 "--out-dir", str(out)]) == 0
    capfd.readouterr()
    code = main(["recover", "--states", str(out / "states.csv"), "--tol", "1e-15",
                 "--max-stale", "60", "--trials", "2", "--workers", "2",
                 "--out-dir", str(out)])
    err = capfd.readouterr().err
    assert code == 1
    assert "error: sparsification failed at iteration" in err and "at n=6 needs" in err
    assert "Traceback" not in err


def test_cli_trials_certified_at_row_1_stop_there(tmp_path, capsys):
    # tol is below the noise, so each trial's complete-graph fit is already
    # certified: it stops at iteration 1 on the fit's 9 positive edges, which
    # miss the tolerance, and the command fails on its rms, not on a draw
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "7",
                 "--noise", "1e-4", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["recover", "--states", str(out / "states.csv"), "--tol", "1e-9",
                 "--trials", "2", "--out-dir", str(out)])
    assert code == 1
    trials = json.loads((out / "trials.json").read_text())["trials"]
    assert [(t["iterations"], t["edges"], t["success"]) for t in trials] == [(1, 9, False)] * 2


def test_cli_trials_reject_malformed_states_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_head(*args, **kwargs):
        raise AssertionError("the complete graph was fitted")

    monkeypatch.setattr(gridrecover.recovery, "head", no_head)
    path = tmp_path / "states.csv"
    path.write_text("e_1,P_1,e_2,P_2\n1.0,0.5,1.1,-0.5\n1.0,oops,1.1,-0.5\n")
    code = main(["recover", "--states", str(path), "--trials", "3", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "states.csv:3: non-numeric state entry" in capsys.readouterr().err


def test_cli_trials_run_without_a_process_pool(tmp_path):
    # the trials run in turn in the command's own process: a --trials 2 run
    # loads neither multiprocessing nor concurrent.futures
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    code = (
        "import sys, gridrecover.cli\n"
        "code = gridrecover.cli.main(sys.argv[1:])\n"
        "print(code, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, "recover", "--states", str(out / "states.csv"),
                          "--trials", "2", "--workers", "2", "--out-dir", str(out)],
                         capture_output=True, text=True, check=True, env=env)
    assert run.stdout.splitlines()[-1].split() == ["0", "False", "False"]
    assert len(json.loads((out / "trials.json").read_text())["trials"]) == 2


@pytest.mark.parametrize("value", ["basic_format", "_styles", "bogus"])
def test_cli_log_value_that_is_not_a_level_means_warning(tmp_path, value):
    # BASIC_FORMAT and _STYLES are attributes of logging but not levels; run in
    # a child process, since under pytest's log handlers basicConfig does nothing
    env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1]), "GRIDRECOVER_LOG": value}
    missing = tmp_path / "trace.csv"
    run = subprocess.run([sys.executable, "-m", "gridrecover.cli", "report", "--trace", str(missing)],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (2, f"file error: {missing}: No such file or directory\n")


def test_cli_trials_read_the_states_once(tmp_path, monkeypatch):
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "table1_dc", "--m", "40", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    load_states_csv, loads = io.load_states_csv, []

    def counting_load(path):
        loads.append(path)
        return load_states_csv(path)

    monkeypatch.setattr(io, "load_states_csv", counting_load)
    # nor do the trials run a condition-number SVD: trials.json reads no row's kappa
    svds = []
    monkeypatch.setattr(gridrecover.recovery, "condition_number", svds.append)
    code = main(["recover", "--states", str(out / "states.csv"), "--trials", "3",
                 "--max-stale", "5", "--out-dir", str(out)])
    assert code in (0, 1)
    assert len(json.loads((out / "trials.json").read_text())["trials"]) == 3
    assert loads == [str(out / "states.csv")] and svds == []


def test_recovery_error_survives_pickling():
    trace = RecoveryTrace()
    trace.append(TraceRow(1, 15, 1.011e-6, 1.04e4, 0.1, "initial"))
    trace.append(TraceRow(2, 9, 2.5e-5, float("inf"), 0.1, "rejected_rms"))
    net = Network.dc(3, ((1, 2), (2, 3)), [2.0, 3.0])
    exc = pickle.loads(pickle.dumps(RecoveryError("estimation failed at iteration 2", trace, net)))
    assert isinstance(exc, RecoveryError)
    assert str(exc) == "estimation failed at iteration 2"
    assert exc.trace.rows == trace.rows
    assert exc.network.edges == net.edges and np.array_equal(exc.network.c, net.c)
    assert pickle.loads(pickle.dumps(RecoveryError("initial estimation failed", trace, None))).network is None


def test_a_pickled_recovery_error_carries_its_rows_values_and_no_fit():
    # a row of the loop holds the fit it reports, and pickles as its six
    # values, kappa computed: a pickled error carries no system
    net, trace = _small_ac_run()
    back = pickle.loads(pickle.dumps(RecoveryError("estimation failed", trace, net))).trace
    assert back.rows == trace.rows
    assert [r.kappa.hex() for r in back] == [r.kappa.hex() for r in trace]
    assert len(pickle.dumps(trace.rows)) <= 64 * len(trace)


def _path3_with_state_entry(tmp_path, column, value, state=5, m=20):
    """path3_dc data of m states whose state ``state`` (line state + 1) has
    ``value`` in ``column``; returns the recover and estimate command lines
    on it."""
    out = tmp_path / "exp"
    assert main(["generate", "--builtin", "path3_dc", "--m", str(m), "--seed", "3",
                 "--out-dir", str(out)]) == 0
    lines = (out / "states.csv").read_text().splitlines()
    fields = lines[state].split(",")
    fields[column] = value
    lines[state] = ",".join(fields)
    (out / "states.csv").write_text("\n".join(lines) + "\n")
    return (["recover", "--states", str(out / "states.csv"), "--out-dir", str(out)],
            ["estimate", "--network", str(out / "network.json"),
             "--states", str(out / "states.csv"), "--out-dir", str(out)])


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_cli_non_finite_state_exits_2(tmp_path, capsys, bad):
    commands = _path3_with_state_entry(tmp_path, 3, bad)  # P_2
    capsys.readouterr()
    for args in commands:
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "states.csv:6:" in err and "column P_2" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflowing_state_names_state(tmp_path, capsys):
    # e_2 is finite, but its square is not
    commands = _path3_with_state_entry(tmp_path, 2, "1e200")
    capsys.readouterr()
    for args in commands:
        assert main(args) == 1
        assert "state 5, node 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflow_past_the_first_block_names_state(tmp_path, capsys):
    # state 30 of 40 reaches the factor with the second block of states
    commands = _path3_with_state_entry(tmp_path, 2, "1e200", state=30, m=40)
    capsys.readouterr()
    for args in commands:
        assert main(args) == 1
        assert "state 30, node 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflowing_fit_residual_exits_1(tmp_path, capsys):
    # P_2 leaves the design matrix finite, but the residual norm overflows
    commands = _path3_with_state_entry(tmp_path, 3, "1e200")
    capsys.readouterr()
    for args in commands:
        assert main(args) == 1
        assert "fit residual overflows to inf; rescale the data" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trials", "--workers", "--max-stale", "--max-iterations"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_rejects_counts_below_one(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--states", str(tmp_path / "states.csv"), flag, value,
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err



@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "nan", "eps0 must be positive"),
        ("--eps", "inf", "eps0 must be positive"),
        ("--psi", "nan", "psi must exceed 1"),
        ("--psi", "inf", "psi must exceed 1"),
        ("--tol", "nan", "tol must be positive"),
        ("--max-time", "-1", "max_wall_time must be positive"),
    ],
)
def test_cli_recover_rejects_bad_knobs_before_fitting(tmp_path, capsys, flag, value, message):
    # the knobs are checked before the states file is read
    assert main(["recover", "--states", str(tmp_path / "missing.csv"), flag, value,
                 "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_cli_recover_defaults_are_the_config_defaults():
    # getattr fails for a RecoveryConfig field that has no recover option
    args = build_parser().parse_args(["recover", "--states", "x"])
    cfg = RecoveryConfig(**{f.name: getattr(args, f.name) for f in fields(RecoveryConfig)})
    assert cfg == RecoveryConfig()
