import hashlib
import logging
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import gridrecover.recovery
import gridrecover.sparsify as sparsify
import gridrecover.vandermonde
from gridrecover.builtins import BUILTINS, builtin_network, builtin_scenario
from gridrecover.network import DC, Network, complete_edges
from gridrecover.nnls import NnlsError, NnlsResult
from gridrecover.recovery import (
    _minimal,
    MINIMAL_ROUNDOFF_UNITS,
    EVENT_ACCEPTED,
    EVENT_INITIAL,
    EVENT_NO_REDUCTION,
    EVENT_REJECTED_RMS,
    Fit,
    RecoveryConfig,
    RecoveryError,
    RecoveryTrace,
    TraceRow,
    fit,
    head,
    loop,
    recover,
)
from gridrecover.states import StateSet, add_noise, generate_scenario, rms
from gridrecover.vandermonde import (
    VandermondeSystem,
    _deletion_residuals,
    _real_form,
    assemble,
    restrict,
)
from helpers import draining_states, flat_states
from oracles import legacy_scenario, sparsify_eager


def test_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(psi=1.0)
    with pytest.raises(ValueError):
        RecoveryConfig(eps0=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(tol=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(max_iterations=None, max_wall_time=None, max_stale_iterations=None)
    with pytest.raises(ValueError, match="enable at least one stopping criterion"):
        RecoveryConfig(max_stale_iterations=None, max_wall_time=math.inf)  # no limit at all
    RecoveryConfig(max_stale_iterations=None, max_iterations=1)  # one criterion is enough
    nan = float("nan")
    for field, value, message in (
        ("eps0", nan, "eps0 must be positive"),
        ("eps0", float("inf"), "eps0 must be positive"),
        ("psi", nan, "psi must exceed 1"),
        ("psi", float("inf"), "psi must exceed 1"),
        ("tol", nan, "tol must be positive"),
        ("max_iterations", 0, "max_iterations must be at least 1"),
        ("max_stale_iterations", 0, "max_stale_iterations must be at least 1"),
        ("max_stale_iterations", -3, "max_stale_iterations must be at least 1"),
        ("max_wall_time", 0.0, "max_wall_time must be positive"),
        ("max_wall_time", -1.0, "max_wall_time must be positive"),
        ("max_wall_time", nan, "max_wall_time must be positive"),
        ("seed", -1, "seed must be non-negative, got -1"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("max_iterations", 2.5, "max_iterations must be an integer, got 2.5"),
        ("max_stale_iterations", 2.5, "max_stale_iterations must be an integer, got 2.5"),
        ("max_stale_iterations", True, "max_stale_iterations must be an integer, got True"),
        ("tol", True, "tol must be a number, got True"),
        ("tol", "1e-5", "tol must be a number, got '1e-5'"),
        ("eps0", "0.1", "eps0 must be a number"),
        ("eps0", np.bool_(True), "eps0 must be a number"),
        ("psi", None, "psi must be a number, got None"),
        ("max_wall_time", "3", "max_wall_time must be a number, got '3'"),
        ("max_wall_time", False, "max_wall_time must be a number"),
    ):
        with pytest.raises(ValueError, match=message):
            RecoveryConfig(**{field: value})
    RecoveryConfig(max_iterations=1, max_stale_iterations=1, max_wall_time=1e-3)
    # numpy integers and integral floats are integers, stored as ints
    cfg = RecoveryConfig(seed=3.0, max_iterations=np.int32(2), max_stale_iterations=np.int64(4))
    assert (cfg.seed, cfg.max_iterations, cfg.max_stale_iterations) == (3, 2, 4)
    assert {type(cfg.seed), type(cfg.max_iterations), type(cfg.max_stale_iterations)} == {int}
    # any real number is a number, and a float keeps its bits
    cfg = RecoveryConfig(eps0=np.float64(0.2), psi=2, tol=0.1 + 0.2, max_wall_time=np.float32(1.5))
    assert cfg.tol == 0.1 + 0.2 and type(cfg.tol) is float and cfg.psi == 2


def test_config_stores_its_real_fields_as_floats(table1_states):
    cfg = RecoveryConfig(eps0=1, psi=np.float32(1.5), tol=np.float32(1e-5), max_wall_time=np.int64(60))
    values = (cfg.eps0, cfg.psi, cfg.tol, cfg.max_wall_time)
    assert values == (1.0, 1.5, float(np.float32(1e-5)), 60.0)
    assert {type(v) for v in values} == {float}
    # a float keeps its bits
    cfg = RecoveryConfig(eps0=0.1 + 0.2, psi=np.float64(1.1), tol=1e-5 / 3, max_wall_time=0.7)
    assert [v.hex() for v in (cfg.eps0, cfg.psi, cfg.tol, cfg.max_wall_time)] == [
        v.hex() for v in (0.1 + 0.2, 1.1, 1e-5 / 3, 0.7)
    ]
    # an int eps0 gives trace rows whose epsilon is the float TraceRow declares
    _, trace = recover(table1_states, RecoveryConfig(eps0=1, seed=0, max_iterations=3))
    assert len(trace) == 3 and all(type(r.epsilon) is float for r in trace)


def test_recover_refits_every_candidate_and_repeats_its_bits(monkeypatch, table1_states):
    restricted = []

    def counting_restrict(system, edges):
        restricted.append(tuple(edges))
        return restrict(system, edges)

    monkeypatch.setattr(gridrecover.recovery, "restrict", counting_restrict)
    # at tol 1e-2 the run accepts down to two edges and draws some candidates
    # more than once; at 1e-5 the first accepted network is already minimal,
    # and the run ends after one refit
    _, trace = recover(table1_states, RecoveryConfig(tol=1e-2, seed=0))
    refits = [r for r in trace if r.event in (EVENT_ACCEPTED, EVENT_REJECTED_RMS)]
    # each refit row is the fit of its own restriction, in order
    assert len(restricted) == len(refits) == 15 and len(set(restricted)) == 9
    bits = {}
    for edges, row in zip(restricted, refits):
        if row.event == EVENT_REJECTED_RMS:
            assert row.edges == len(edges)
        else:  # the held network drops the candidate's zero-weight edges
            assert row.edges <= len(edges)
        # a candidate drawn again is fitted by the same arithmetic: same bits
        assert bits.setdefault(edges, (row.rms.hex(), row.kappa.hex())) == (row.rms.hex(), row.kappa.hex())


@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_candidates_are_factored_once(monkeypatch, name):
    # each refit runs one Householder QR, its own re-compression: the warm
    # start takes that triangle as its factor; the minimal test of an
    # accepted refit with every weight positive takes that triangle too, and
    # runs no QR
    states, cfg = _builtin_run(name, 1e-6, 1)
    fit = gridrecover.recovery.fit
    minimal = gridrecover.recovery._minimal
    qr = np.linalg.qr
    qrs_per_refit, calls, minimal_qrs = [], [], []

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    def watched_fit(system):
        calls.clear()
        result = fit(system)
        if system.matrix.shape[0] > system.matrix.shape[1] and result.nnls.iterations == 1:
            qrs_per_refit.append(len(calls))
        return result

    def watched_minimal(held, tol):
        calls.clear()
        certified = minimal(held, tol)
        minimal_qrs.append((bool(np.all(held.nnls.w > 0)), certified, len(calls)))
        return certified

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(gridrecover.recovery, "fit", watched_fit)
    monkeypatch.setattr(gridrecover.recovery, "_minimal", watched_minimal)
    _, trace = recover(states, cfg)
    assert qrs_per_refit and set(qrs_per_refit) == {1}
    assert all(qrs == 0 for positive, _, qrs in minimal_qrs if positive)
    assert all(qrs <= 1 for _, _, qrs in minimal_qrs)
    assert minimal_qrs[-1][:2] == (True, True)  # the run ends certified, without a QR


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
    assert _rescanned_stale_count(trace.rows) >= 10


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


def test_recover_rechecks_rms_only_for_the_info_log(monkeypatch, table1_states, caplog):
    states_rms, checks = gridrecover.recovery.states_rms, []

    def counting_rms(net, states):
        checks.append(net.edges)
        return states_rms(net, states)

    monkeypatch.setattr(gridrecover.recovery, "states_rms", counting_rms)
    cfg = RecoveryConfig(seed=0, max_iterations=3)
    with caplog.at_level(logging.WARNING, logger="gridrecover.recovery"):
        recover(table1_states, cfg=cfg)
    assert checks == []
    with caplog.at_level(logging.INFO, logger="gridrecover.recovery"):
        net, _ = recover(table1_states, cfg=cfg)
    assert checks == [net.edges]
    assert any("re-checked" in rec.message for rec in caplog.records)


def _roundoff_states():
    """The exact states of ``gridrecover generate --builtin table1_dc --m 40
    --seed 7``: their complete-graph fit has rms 9.1e-14, and at tol 1e-15
    the certificate's roundoff room leaves that fit uncertified."""
    net_seed, data_seed = np.random.SeedSequence(7).spawn(2)
    net = builtin_network("table1_dc", net_seed)
    return generate_scenario(net, builtin_scenario("table1_dc"), 40, seed=data_seed)


def test_recover_below_noise_floor_stays_small():
    # tol is below the roundoff of the data's rms, so every refit misses it,
    # eps shrinks each iteration and the draw count 8 n ln n / eps^2 passes
    # 1e13; sampling must not allocate per draw
    states = _roundoff_states()
    tracemalloc.start()
    try:
        _, trace = recover(states, cfg=RecoveryConfig(tol=1e-15, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.event for r in trace][1:] == [EVENT_REJECTED_RMS] * 30
    assert trace.rows[-1].epsilon < 1e-6
    assert peak < 50 * 2**20


def test_recover_validates_inputs():
    with pytest.raises(ValueError, match="two nodes"):
        recover(StateSet.dc([[1.0]], [[0.0]]))


def test_recover_failed_refit_keeps_the_rows_and_the_held_network(monkeypatch, table1_states):
    held, initial = recover(table1_states, RecoveryConfig(seed=1, max_iterations=1))
    solve, calls = gridrecover.recovery.nnls_solve, []

    def solve_once(A, b, from_all=False):
        calls.append(A.shape)
        if len(calls) > 1:
            raise NnlsError("stub: no convergence", NnlsResult(np.zeros(A.shape[1]), 1.0, 1.0, 1))
        return solve(A, b)

    # the solver fails on the first candidate, after the initial fit
    monkeypatch.setattr(gridrecover.recovery, "nnls_solve", solve_once)
    with pytest.raises(RecoveryError) as exc:
        recover(table1_states, RecoveryConfig(seed=1))
    rows = exc.value.trace.rows
    assert len(calls) == 2
    assert str(exc.value) == f"estimation failed at iteration {len(rows) + 1}: stub: no convergence"
    assert rows[0] == initial.rows[0]
    assert all(r.event == EVENT_NO_REDUCTION for r in rows[1:])
    assert exc.value.network.edges == held.edges
    assert np.array_equal(exc.value.network.c, held.c)


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


@pytest.mark.parametrize(
    ("limits", "reason", "rows", "noise"),
    [
        (dict(max_iterations=1), "iterations", 1, 0.0),
        (dict(max_wall_time=1e-9), "time", 1, 0.0),
        (dict(max_wall_time=1e-9, max_iterations=1), "time", 1, 0.0),  # time is checked first
        (dict(tol=1e-14, max_stale_iterations=3), "stale", 4, 0.0),  # every refit rejected
        ({}, "minimal", 2, 0.0),
        # tol below the noise: the complete-graph fit is already certified
        (dict(tol=1e-9), "minimal", 1, 1e-4),
    ],
    ids=["iterations", "time", "time-before-iterations", "stale", "minimal", "minimal-at-row-1"],
)
def test_recover_stop_reasons(table1_states, caplog, limits, reason, rows, noise):
    states = add_noise(table1_states, noise, seed=0) if noise else table1_states
    with caplog.at_level(logging.INFO, logger="gridrecover.recovery"):
        _, trace = recover(states, RecoveryConfig(seed=0, **limits))
    stops = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stopping")]
    assert stops == [f"stopping after iteration {rows} ({reason})"]
    assert len(trace) == rows
    assert trace.stop == reason
    if reason == "stale":
        assert [r.event for r in trace.rows[1:]] == [EVENT_REJECTED_RMS] * 3


def test_stale_counter():
    trace = _stub_trace(
        [EVENT_INITIAL, EVENT_ACCEPTED, EVENT_NO_REDUCTION, EVENT_REJECTED_RMS]
    )
    assert len(trace.filtered()) == 2


def _rescanned_stale_count(rows):
    count = 0
    for row in reversed(rows):
        if row.event in (EVENT_INITIAL, EVENT_ACCEPTED):
            break
        count += 1
    return count


def _builtin_run(name, sigma, seed):
    """60 states of a builtin and a config whose tol is 1.5 times the noise
    floor (1e-5 on exact data), so that noisy runs accept several times.
    The states are :func:`oracles.legacy_scenario`'s, the data these runs'
    paths were found on."""
    net = builtin_network(name, seed)
    states = legacy_scenario(net, builtin_scenario(name, sigma=sigma), 60, seed=seed)
    tol = 1.5 * rms(net, states) if sigma else 1e-5
    return states, RecoveryConfig(seed=seed, tol=tol, max_stale_iterations=10)


def _long_run(name):
    """A run of :func:`_builtin_run` at 6 times the noise floor: on
    heawood_dc a subset of the last held network still fits there, so the
    run is not ended by minimality but by its stale count, after 19
    iterations; small_ac ends on a minimal network after 16."""
    states, cfg = _builtin_run(name, 1e-6, 1)
    return states, replace(cfg, tol=4 * cfg.tol)


def _legacy_heawood_noisy(instance):
    """The 300 legacy_scenario states of perfbench's heawood_noisy instance
    ``instance`` and its true network."""
    net_seed, data_seed = np.random.SeedSequence(instance).spawn(2)
    truth = builtin_network("heawood_dc", net_seed)
    return truth, legacy_scenario(truth, builtin_scenario("heawood_dc", sigma=1e-6), 300, seed=data_seed)


# sha256 over the e, f, p and q bytes, in order, of the data sets of each
# group as generate_scenario made them before it drew from one generator
LEGACY_SHA256 = {
    # _builtin_run's data: every builtin, sigma 0, 1e-6 and 1e-5, seeds 0-3
    "builtin runs": "9b18773d8a50ffa2125d6dd16297489ebc1857c0dd46ec47c867495c9b2c1977",
    # the declared set's small_ac sigma 1e-6 seeds 1, 2 and 10
    "declared small_ac": "f97d84a9df41923b0a2f6693fff117181fa741da18938148da35d72b94658e02",
    # perfbench heawood_noisy instances 13012, 204018 and 911007
    "heawood_noisy": "604e65b534beb55fc73201884330c7b25fba05bd7ba88d8bd3ef85af9b3fcfb8",
}


def _legacy_group(group):
    if group == "builtin runs":
        for name in BUILTINS:
            for sigma in (0.0, 1e-6, 1e-5):
                for seed in range(4):
                    yield _builtin_run(name, sigma, seed)[0]
    elif group == "declared small_ac":
        for seed in (1, 2, 10):
            net_seed, data_seed = np.random.SeedSequence(seed).spawn(2)
            net = builtin_network("small_ac", net_seed)
            yield legacy_scenario(net, builtin_scenario("small_ac", sigma=1e-6), 120, seed=data_seed)
    else:
        for instance in (13012, 204018, 911007):
            yield _legacy_heawood_noisy(instance)[1]


@pytest.mark.parametrize("group", sorted(LEGACY_SHA256))
def test_named_cases_keep_their_legacy_data(group):
    digest = hashlib.sha256()
    for states in _legacy_group(group):
        for a in ("e", "f", "p", "q"):
            digest.update(getattr(states, a).tobytes())
    assert digest.hexdigest() == LEGACY_SHA256[group]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1e-6])
@pytest.mark.parametrize("name", BUILTINS)
def test_kept_statistics_change_no_result(monkeypatch, name, sigma, seed):
    states, cfg = _builtin_run(name, sigma, seed)
    net, trace = recover(states, cfg)
    sparsify_ac = gridrecover.recovery.sparsify_ac

    def fresh_sparsify(held, eps, seed):
        # drop the kept statistics, so every draw computes them afresh
        held.__dict__.pop("_sampling", None)
        return sparsify_ac(held, eps, seed)

    monkeypatch.setattr(gridrecover.recovery, "sparsify_ac", fresh_sparsify)
    fresh_net, fresh_trace = recover(states, cfg)
    assert trace.rows == fresh_trace.rows
    assert net.edges == fresh_net.edges
    assert np.array_equal(net.c, fresh_net.c) and np.array_equal(net.s, fresh_net.s)


def _hex_rows(trace):
    return [
        (r.iteration, r.event, r.edges, r.rms.hex(), r.kappa.hex(), r.epsilon.hex()) for r in trace
    ]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1e-6])
@pytest.mark.parametrize("name", BUILTINS)
def test_lazy_draw_weights_change_no_result(monkeypatch, name, sigma, seed):
    # the loop keeps the drawn edges of an outcome whose weights are derived
    # only when read; a sampler that computes every weight at the draw and
    # keeps the edges of positive weight must give the same run, bit for bit
    states, cfg = _builtin_run(name, sigma, seed)
    net, trace = recover(states, cfg)
    monkeypatch.setattr(gridrecover.recovery, "sparsify_ac", sparsify_eager)
    eager_net, eager_trace = recover(states, cfg)
    assert _hex_rows(trace) == _hex_rows(eager_trace)
    assert net == eager_net


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1e-6])
@pytest.mark.parametrize("name", BUILTINS)
def test_kappa_is_computed_on_first_read_once_per_fit(monkeypatch, name, sigma, seed):
    # recover runs no condition-number SVD; reading the rows' kappa runs one
    # per fit, the complete graph's and each refit's, whose rows a
    # no_edge_reduction row repeats, and gives the bits of a fit that
    # computes its kappa at once
    states, cfg = _builtin_run(name, sigma, seed)
    matrices = []
    condition_number = gridrecover.recovery.condition_number

    def counting(A):
        matrices.append(A)
        return condition_number(A)

    monkeypatch.setattr(gridrecover.recovery, "condition_number", counting)
    _, trace = recover(states, cfg)
    assert matrices == []
    rows = _hex_rows(trace)
    fits = sum(r.event != EVENT_NO_REDUCTION for r in trace)
    assert len(matrices) == len({id(A) for A in matrices}) == fits
    assert _hex_rows(trace) == rows and len(matrices) == fits  # read again, from the fits' caches

    def eager_fit(system):
        estimate = fit(system)
        assert estimate.kappa >= 1  # computed with the fit
        return estimate

    monkeypatch.setattr(gridrecover.recovery, "fit", eager_fit)
    _, eager_trace = recover(states, cfg)
    assert _hex_rows(eager_trace) == rows


def test_a_row_holding_its_fit_is_its_six_values(table1_states):
    initial = head(table1_states).initial
    row = TraceRow(1, 15, initial.rms, initial, 0.1, EVENT_INITIAL)
    plain = TraceRow(1, 15, initial.rms, initial.kappa, 0.1, EVENT_INITIAL)
    assert row == plain and hash(row) == hash(plain) and repr(row) == repr(plain)
    assert [f.name for f in fields(TraceRow)] == ["iteration", "edges", "rms", "kappa", "epsilon", "event"]


def _head_state(start):
    """Everything a loop reads from a head, as bytes and values."""
    initial = start.initial
    system = initial.system
    arrays = (system.matrix, system.rhs, initial.nnls.w)
    scalars = (system.rho, initial.rms, initial.kappa, initial.nnls.objective)
    return [a.tobytes() for a in arrays], scalars, system.edges


@pytest.mark.parametrize(("name", "sigma"), [("small_ac", 1e-6), ("table1_dc", 0.0), ("table1_dc", 1e-6)])
def test_loops_from_one_head_are_standalone_runs(name, sigma):
    # the loops of several seeds and of two tolerances share one head in
    # turn, in either order, and each is the standalone run of its seed and
    # tol bit for bit; no loop changes what the next reads from the head
    states, cfg = _builtin_run(name, sigma, 3)
    cfgs = [replace(cfg, seed=s, tol=tol) for tol in (cfg.tol, 4 * cfg.tol) for s in range(3, 8)]
    runs = [recover(states, c) for c in cfgs]
    assert all(len(trace) > 1 for _, trace in runs)  # every run draws
    start = head(states)
    before = _head_state(start)
    for c, (run_net, run_trace) in [*zip(cfgs, runs), *zip(cfgs[::-1], runs[::-1])]:
        net, trace = loop(start, c)
        assert _hex_rows(trace) == _hex_rows(run_trace) and trace.stop == run_trace.stop
        assert net == run_net
        assert _head_state(start) == before


def test_a_loop_counts_the_heads_seconds_against_max_wall_time(table1_states):
    cfg = RecoveryConfig(seed=0, max_wall_time=60.0)
    start = head(table1_states)
    assert not _minimal(start.initial, cfg.tol) and 0 < start.seconds < 60.0
    _, trace = loop(replace(start, seconds=60.0), cfg)
    assert (len(trace), trace.stop) == (1, "time")
    _, trace = loop(start, cfg)
    assert len(trace) > 1 and trace.stop == "minimal"


@pytest.mark.parametrize(
    ("tol", "message"),
    [
        (-1, "tol must be positive"),
        (0, "tol must be positive"),
        (float("nan"), "tol must be positive"),
        (True, "tol must be a number, got True"),
        ("x", "tol must be a number, got 'x'"),
        (None, "tol must be a number, got None"),
    ],
)
def test_head_refuses_a_tol_before_assembling(monkeypatch, caplog, table1_states, tol, message):
    # the head takes no tol: a run's tol is checked by RecoveryConfig, so a
    # bad one neither assembles the complete graph for the head nor logs the
    # warning of a fit that misses it
    assembled = []
    monkeypatch.setattr(gridrecover.recovery, "assemble", lambda *args: assembled.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        recover(table1_states, RecoveryConfig(tol=tol))
    assert assembled == [] and caplog.records == []


@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_the_loop_reads_only_the_edges_of_a_draw(monkeypatch, name):
    read = []
    graph = sparsify.SparsifyOutcome.graph

    def spy(self):
        read.append("graph")
        return graph.__get__(self, sparsify.SparsifyOutcome)

    monkeypatch.setattr(sparsify.SparsifyOutcome, "graph", property(spy))
    states, cfg = _long_run(name)
    net, trace = recover(states, cfg)
    assert read == [] and len(trace) > 10
    outcome = sparsify.sparsify_ac(net, 0.5, 0)  # the spy sees a read
    assert outcome.graph.edges == outcome.edges and read == ["graph"]


@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_recover_samples_each_held_network_once(monkeypatch, name):
    states, cfg = _long_run(name)
    pseudo_inverse = sparsify._pseudo_inverse
    sparsify_ac = gridrecover.recovery.sparsify_ac
    derived = Network._derived.__func__
    normalized = Network.normalized
    post_init = Network.__post_init__
    held, inverses, refits, validated = {}, [], [], []
    inside = {"sparsify": False, "normalized": False}
    builds = []  # the flags of inside at each build through Network._derived

    def counting_pseudo_inverse(L):
        inverses.append(L.shape)
        return pseudo_inverse(L)

    def watched(flag, function):
        def call(*args):
            inside[flag] = True
            try:
                return function(*args)
            finally:
                inside[flag] = False

        return call

    def watched_sparsify(net, eps, seed):
        held[id(net)] = net
        return watched("sparsify", sparsify_ac)(net, eps, seed)

    def watched_derived(cls, *parts):
        builds.append(dict(inside))
        return derived(cls, *parts)

    def watched_post_init(self):
        validated.append(self)
        post_init(self)

    def counting_restrict(system, edges):
        refits.append(edges)
        return restrict(system, edges)

    monkeypatch.setattr(sparsify, "_pseudo_inverse", counting_pseudo_inverse)
    monkeypatch.setattr(gridrecover.recovery, "sparsify_ac", watched_sparsify)
    monkeypatch.setattr(gridrecover.recovery, "restrict", counting_restrict)
    monkeypatch.setattr(Network, "_derived", classmethod(watched_derived))
    monkeypatch.setattr(Network, "normalized", watched("normalized", normalized))
    monkeypatch.setattr(Network, "__post_init__", watched_post_init)
    _, trace = recover(states, cfg)
    # one network is held from each initial or accepted row to the next; a
    # run that ends on a minimal network never samples that last one
    minimal = _rescanned_stale_count(trace.rows) < cfg.max_stale_iterations
    assert minimal == (name == "small_ac")
    accepted = sum(row.event == EVENT_ACCEPTED for row in trace)
    assert len(held) == 1 + accepted - minimal == len(trace.filtered()) - minimal > 2
    rows = sum(int(np.any(net.c > 0)) + int(np.any(net.s > 0)) for net in held.values())
    assert rows == len(held) * (2 if name == "small_ac" else 1)
    assert len(inverses) == rows
    # every network of a run is cut from the validated system or from a
    # validated network, so none is validated again: for the initial fit
    # (the first held network) and for each accepted refit, the fit's
    # network is read from its solution and then pruned by normalized; none
    # is built for a draw or a rejected refit
    assert validated == []
    assert not any(b["sparsify"] for b in builds)
    assert len(refits) > accepted
    assert [b["normalized"] for b in builds] == [False, True] * (1 + accepted)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1e-6])
@pytest.mark.parametrize("name", BUILTINS)
def test_ending_on_a_minimal_network_changes_no_result(monkeypatch, name, sigma, seed):
    # a run that ends once its held network is minimal returns the edges the
    # run without that stop returns after its stale iterations, and its
    # trace is the head of that run's trace
    states, cfg = _builtin_run(name, sigma, seed)
    net, trace = recover(states, cfg)
    monkeypatch.setattr(gridrecover.recovery, "_minimal", lambda held, tol: False)
    stale_net, stale_trace = recover(states, cfg)
    assert _rescanned_stale_count(stale_trace.rows) == cfg.max_stale_iterations
    assert trace.rows == stale_trace.rows[: len(trace)]
    assert net.edges == stale_net.edges
    if len(trace) == 1:
        # certified at the complete-graph fit (path3_dc's exact seeds and
        # sigma 1e-6 seed 1), whose positive part the run returns; the stale
        # run accepts the same edges refitted, equal up to their last bits
        assert name == "path3_dc"
        initial = fit(assemble(complete_edges(states.n), states))
        positive = initial.network.normalized()
        assert net.c.tobytes() == positive.c.tobytes() and net.s.tobytes() == positive.s.tobytes()
        np.testing.assert_allclose(net.c, stale_net.c, rtol=1e-12)
        np.testing.assert_array_equal(net.s, stale_net.s)
    else:
        assert net.c.tobytes() == stale_net.c.tobytes() and net.s.tobytes() == stale_net.s.tobytes()
    if sigma == 0.0:  # exact data: the initial fit or the first accepted network is minimal
        assert [r.event for r in trace] in ([EVENT_INITIAL], [EVENT_INITIAL, EVENT_ACCEPTED])


def test_a_held_network_with_a_removable_edge_is_not_minimal():
    # the long heawood run ends on 21 edges, one of which can go within tol
    states, cfg = _long_run("heawood_dc")
    net, _ = recover(states, cfg)
    full = assemble(complete_edges(states.n), states)
    held = fit(restrict(full, net.edges))
    assert np.all(held.nnls.w > 0) and held.rms <= cfg.tol
    subsets = [net.edges[:i] + net.edges[i + 1 :] for i in range(len(net.edges))]
    fits = [fit(restrict(full, subset)).rms for subset in subsets]
    assert sum(rms <= cfg.tol for rms in fits) == 1
    assert not _minimal(held, cfg.tol)
    # nor at the tolerance that subset just meets; at 0.99 times that no
    # one-edge deletion fits, and the bound certifies the network
    assert not _minimal(held, min(fits))
    assert _minimal(held, 0.99 * min(fits))


@pytest.mark.parametrize("sigma", [0.0, 1e-6])
def test_the_certificates_room_on_ac_is_the_real_forms(sigma):
    # the room is taken on the real form the solver fits: 2p real columns
    # and that form's own Frobenius product, twice the complex triangle's;
    # the certificate flips at the tolerance that room leaves, where the
    # room of the complex view (4x narrower) would flip 1e-10 later
    net = builtin_network("small_ac", 0)
    states = generate_scenario(net, builtin_scenario("small_ac", sigma=sigma), 120, seed=2)
    held = fit(restrict(assemble(complete_edges(net.n), states), net.edges))
    assert np.all(held.nnls.w > 0)  # so the held system is the certified triangle
    residuals, cols, frobenius = _deletion_residuals(held.system)
    M, rhs = _real_form(held.system)
    kappa = np.linalg.norm(M) * np.linalg.norm(np.linalg.inv(M))
    # the certificate reads the real form's units from vandermonde
    assert cols == M.shape[1] and frobenius == pytest.approx(kappa, rel=1e-12)
    b = math.hypot(np.linalg.norm(rhs), held.system.rho)
    room = MINIMAL_ROUNDOFF_UNITS * M.shape[1] * np.finfo(float).eps * kappa * b
    flip = (math.sqrt(residuals.min()) - room) / math.sqrt(held.system.rows)
    assert 0.75 * room > 1e-11 * flip * math.sqrt(held.system.rows)
    assert _minimal(held, (1 - 1e-11) * flip)
    assert not _minimal(held, (1 + 1e-11) * flip)


def _triangle_system(matrix, rhs):
    """A DC system on the triangle's three edges whose factor is ``matrix``."""
    edges = ((1, 2), (1, 3), (2, 3))
    return VandermondeSystem(DC, 3, np.array(matrix, float), np.array(rhs, float), edges, 0.0, 3)


def test_a_held_fit_without_a_positive_weight_is_minimal():
    # every gradient is positive at w = 0, so the fit keeps no edge: its
    # network has no proper subset, and it is certified however loose the
    # tolerance
    held = fit(_triangle_system(np.eye(3), [-1.0, -1.0, -1.0]))
    assert not held.nnls.w.any()
    assert _minimal(held, 10 * held.rms)


@pytest.mark.parametrize("make", [flat_states, draining_states], ids=["flat", "draining"])
def test_a_held_network_without_an_edge_stops_minimal(caplog, make):
    # the complete graph's fit weights no edge, so the held network is empty:
    # it has no proper subset and no draw can be made from it
    cfg = RecoveryConfig()
    with caplog.at_level(logging.INFO, logger="gridrecover.recovery"):
        net, trace = recover(make(), cfg)
    assert (net.n, net.edges) == (3, ())
    assert [(r.iteration, r.edges, r.event) for r in trace] == [(1, 3, EVENT_INITIAL)]
    stops = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stopping")]
    assert stops == ["stopping after iteration 1 (minimal)"]
    warned = any("exceeds tol" in r.getMessage() for r in caplog.records)
    if make is flat_states:
        assert trace.rows[0].rms == 0.0 and not warned
    else:  # no network fits: the run warns, and the empty one is still returned
        assert trace.rows[0].rms > cfg.tol and warned


@pytest.mark.parametrize("name", BUILTINS)
def test_a_tol_below_the_complete_graph_fit_stops_at_row_1(caplog, name):
    # no subset of the complete graph's columns fits better than all of them,
    # so on noisy data whose tol is half the complete-graph rms the initial
    # fit is certified, and the run returns its positive part with no draw
    states, cfg = _builtin_run(name, 1e-5, 0)
    initial = fit(assemble(complete_edges(states.n), states))
    with caplog.at_level(logging.INFO, logger="gridrecover.recovery"):
        net, trace = recover(states, replace(cfg, tol=0.5 * initial.rms))
    assert [(r.iteration, r.rms, r.event) for r in trace] == [(1, initial.rms, EVENT_INITIAL)]
    stops = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stopping")]
    assert stops == ["stopping after iteration 1 (minimal)"]
    positive = initial.network.normalized()
    assert net.edges == positive.edges
    assert net.c.tobytes() == positive.c.tobytes() and net.s.tobytes() == positive.s.tobytes()
    # one head serves that tol and the run's own, whose loop draws: each loop
    # certifies the head's fit at its own tol, whichever ran before it
    start = head(states)
    for tol in (cfg.tol, 0.5 * initial.rms, cfg.tol):
        _, trace = loop(start, replace(cfg, tol=tol))
        assert (len(trace) == 1) == (tol < cfg.tol)


@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_no_edge_reduction_rows_repeat_the_held_row(name):
    states, cfg = _long_run(name)
    _, trace = recover(states, cfg)
    repeated = 0
    for row in trace:
        if row.event in (EVENT_INITIAL, EVENT_ACCEPTED):
            held = row
        elif row.event == EVENT_NO_REDUCTION:
            assert (row.edges, row.rms.hex(), row.kappa.hex()) == (held.edges, held.rms.hex(), held.kappa.hex())
            repeated += 1
    assert repeated > 0


def test_a_held_fit_on_a_rank_deficient_triangle_is_not_minimal():
    # edges (1, 2) and (1, 3) have the same column, and the weights (1, 1, 1)
    # fit exactly, as do (2, 0, 1) and (0, 2, 1): either edge can go.  The
    # held triangle fails the solver's rank test, so it certifies nothing
    system = _triangle_system([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [2.0, 0.0, 1.0])
    w = np.ones(3)
    held = Fit(system, 0.0, NnlsResult(w, 0.0, 0.0, 1))
    assert np.array_equal(system.matrix @ w, system.rhs)
    assert not _minimal(held, 1e-3)


def _cold_start(monkeypatch):
    """Make every fit start the solver from w = 0, whatever ``from_all`` says."""
    solve = gridrecover.recovery.nnls_solve
    monkeypatch.setattr(gridrecover.recovery, "nnls_solve", lambda A, b, from_all=False: solve(A, b))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1e-6])
@pytest.mark.parametrize("name", BUILTINS)
def test_back_substitution_changes_no_decision(monkeypatch, name, sigma, seed):
    # the warm start, whose first solve is the back-substitution of every
    # column, against the cold start on every candidate
    states, cfg = _builtin_run(name, sigma, seed)
    _, trace = recover(states, cfg)
    _cold_start(monkeypatch)
    _, cold_trace = recover(states, cfg)
    for row, cold in zip(trace.rows, cold_trace.rows):
        if (row.iteration, row.event, row.edges) != (cold.iteration, cold.event, cold.edges):
            # such as where the cold fit stopped short of the optimum
            assert row.rms <= cold.rms
            break
        assert row.rms == pytest.approx(cold.rms, rel=1e-6, abs=1e-12)
    else:
        assert len(trace) == len(cold_trace)


def test_warm_start_keeps_the_column_the_cold_fit_drops(monkeypatch):
    # heawood_noisy instance 13012: at iteration 2 the active-set solver's
    # absolute KKT test stops one column short on the accepted candidate, so
    # its fit keeps 28 edges; every least-squares weight of the candidate is
    # positive, and the warm start's back-substitution keeps all 29 (on the
    # instance's legacy data)
    truth, states = _legacy_heawood_noisy(13012)
    cfg = RecoveryConfig(tol=1.5 * rms(truth, states), seed=13012, max_iterations=2)
    fits = []
    fit = gridrecover.recovery.fit

    def recording_fit(system):
        fits.append((system, fit(system)))
        return fits[-1][1]

    monkeypatch.setattr(gridrecover.recovery, "fit", recording_fit)
    _, trace = recover(states, cfg)
    assert [(r.iteration, r.event, r.edges) for r in trace] == [
        (1, EVENT_INITIAL, 91),
        (2, EVENT_ACCEPTED, 29),
    ]
    system, accepted = fits[1]
    assert len(system.edges) == 29
    assert np.all(accepted.nnls.w > 0) and accepted.nnls.iterations == 1
    _cold_start(monkeypatch)
    cold = fit(system)
    assert accepted.rms <= cold.rms
