import logging
import tracemalloc

import numpy as np
import pytest

import gridrecover.recovery
from gridrecover.network import Network
from gridrecover.recovery import (
    EVENT_ACCEPTED,
    EVENT_INITIAL,
    EVENT_NO_REDUCTION,
    EVENT_REJECTED_RMS,
    RecoveryConfig,
    RecoveryTrace,
    TraceRow,
    recover,
    should_stop,
)
from gridrecover.states import StateSet, add_noise, generate_scenario, rms
from gridrecover.vandermonde import restrict


def test_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(psi=1.0)
    with pytest.raises(ValueError):
        RecoveryConfig(eps0=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(tol=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(max_iterations=None, max_wall_time=None, max_stale_iterations=None)
    RecoveryConfig(max_stale_iterations=None, stop_on_tree=True)  # one criterion is enough


def test_recover_fits_each_candidate_edge_set_once(monkeypatch, table1_states):
    restricted = []

    def counting_restrict(system, edges):
        restricted.append(tuple(edges))
        return restrict(system, edges)

    monkeypatch.setattr(gridrecover.recovery, "restrict", counting_restrict)
    _, trace = recover(table1_states, RecoveryConfig(seed=3))
    refits = [r for r in trace if r.event in (EVENT_ACCEPTED, EVENT_REJECTED_RMS) and r.edges]
    # sparsification draws the same candidates again; each is fitted once
    assert len(restricted) == len(set(restricted)) < len(refits)


def test_recover_table1_exact(table1_network, table1_states):
    cfg = RecoveryConfig(eps0=0.1, psi=1.5, tol=1e-5, seed=3)
    net, trace = recover(table1_states, cfg=cfg)
    assert set(net.edges) == set(table1_network.edges)
    assert rms(net, table1_states) <= 1e-5
    assert trace.rows[0].event == EVENT_INITIAL
    assert trace.rows[0].edges == 15
    assert trace.rows[0].epsilon == 0.1


def test_recover_loose_tolerance_drops_weak_edge_only(table1_network, table1_states):
    for seed in range(3):
        net, _ = recover(table1_states, cfg=RecoveryConfig(tol=1e-3, seed=seed))
        assert (3, 4) in net.edges
        assert rms(net, table1_states) <= 1e-3


def test_recover_accept_everything_under_huge_tolerance(table1_states):
    cfg = RecoveryConfig(tol=1e6, seed=1, max_stale_iterations=10)
    net, trace = recover(table1_states, cfg=cfg)
    sizes = [r.edges for r in trace if r.event in (EVENT_INITIAL, EVENT_ACCEPTED)]
    assert sizes == sorted(sizes, reverse=True)
    assert all(r.event != EVENT_REJECTED_RMS for r in trace)
    assert trace.stale_iterations() >= 10


def test_recover_accepted_rows_strictly_shrink(table1_states):
    _, trace = recover(table1_states, cfg=RecoveryConfig(seed=5))
    sizes = [r.edges for r in trace.filtered()]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_recover_epsilon_trajectory_rule(table1_states):
    cfg = RecoveryConfig(tol=1e-7, seed=2, max_stale_iterations=15)
    _, trace = recover(table1_states, cfg=cfg)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if prev.event == EVENT_NO_REDUCTION:
            assert cur.epsilon == pytest.approx(prev.epsilon * cfg.psi, rel=1e-12)
        elif prev.event == EVENT_REJECTED_RMS:
            assert cur.epsilon == pytest.approx(prev.epsilon / cfg.psi, rel=1e-12)
        else:
            assert cur.epsilon == prev.epsilon


def test_recover_deterministic(table1_states):
    cfg = RecoveryConfig(seed=11)
    a_net, a_trace = recover(table1_states, cfg=cfg)
    b_net, b_trace = recover(table1_states, cfg=cfg)
    assert a_net == b_net
    assert a_trace.rows == b_trace.rows


def test_recover_warns_when_initial_fit_misses_tol(table1_states, caplog):
    noisy = add_noise(table1_states, 1e-4, seed=0)
    cfg = RecoveryConfig(tol=1e-9, seed=0, max_iterations=3)
    with caplog.at_level(logging.WARNING, logger="gridrecover.recovery"):
        recover(noisy, cfg=cfg)
    assert any("exceeds tol" in rec.message for rec in caplog.records)


def test_recover_below_noise_floor_stays_small(table1_states):
    # every refit misses tol, so eps shrinks each iteration and the draw count
    # 8 n ln n / eps^2 passes 1e13; sampling must not allocate per draw
    noisy = add_noise(table1_states, 1e-4, seed=0)
    tracemalloc.start()
    try:
        _, trace = recover(noisy, cfg=RecoveryConfig(tol=1e-9, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.event for r in trace][1:] == [EVENT_REJECTED_RMS] * 30
    assert trace.rows[-1].epsilon < 1e-6
    assert peak < 50 * 2**20


def test_recover_validates_inputs():
    with pytest.raises(ValueError, match="two nodes"):
        recover(StateSet.dc([[1.0]], [[0.0]]))


def test_recover_ac_small_ring():
    from gridrecover.builtins import builtin_scenario, small_ac

    net = small_ac(seed=4)
    states = generate_scenario(net, builtin_scenario("small_ac"), 150, seed=4)
    rec, trace = recover(states, cfg=RecoveryConfig(seed=4))
    assert rms(rec, states) <= 1e-5
    assert len(rec.edges) <= len(net.edges)


def _stub_trace(events):
    trace = RecoveryTrace()
    for i, ev in enumerate(events, start=1):
        trace.append(TraceRow(i, 10 - i, 1e-9, 10.0, 0.1, ev))
    return trace


def test_should_stop_reasons():
    cfg = RecoveryConfig(max_iterations=5, max_wall_time=60.0, max_stale_iterations=3)
    trace = _stub_trace([EVENT_INITIAL])
    assert should_stop(trace, cfg, elapsed=61.0) == (True, "time")
    assert should_stop(trace, cfg, elapsed=0.0) == (False, "")
    long = _stub_trace([EVENT_INITIAL] + [EVENT_ACCEPTED] * 4)
    assert should_stop(long, cfg, elapsed=0.0) == (True, "iterations")
    stale = _stub_trace([EVENT_INITIAL, EVENT_NO_REDUCTION, EVENT_REJECTED_RMS, EVENT_NO_REDUCTION])
    assert should_stop(stale, cfg, elapsed=0.0) == (True, "stale")


def test_should_stop_on_tree():
    cfg = RecoveryConfig(stop_on_tree=True, max_stale_iterations=None)
    trace = _stub_trace([EVENT_INITIAL])
    path = Network.dc(3, ((1, 2), (2, 3)), [1.0, 1.0])
    triangle = Network.dc(3, ((1, 2), (2, 3), (1, 3)), [1.0, 1.0, 1.0])
    assert should_stop(trace, cfg, net=path) == (True, "tree")
    assert should_stop(trace, cfg, net=triangle) == (False, "")


def test_stale_counter():
    trace = _stub_trace(
        [EVENT_INITIAL, EVENT_ACCEPTED, EVENT_NO_REDUCTION, EVENT_REJECTED_RMS]
    )
    assert trace.stale_iterations() == 2
    assert len(trace.filtered()) == 2
