import re
from dataclasses import replace

import numpy as np
import pytest

from gridrecover.network import Network
from gridrecover.states import (
    PowerFlowError,
    Scenario,
    StateSet,
    add_noise,
    generate_scenario,
    generate_voltage_driven,
    residuals,
    rms,
    solve_power_flow,
)
import gridrecover.states as gstates
from gridrecover.builtins import builtin_network, builtin_scenario
from helpers import random_ac_network, random_dc_network
from oracles import direct_residuals, newton_per_state, scenario_per_state

PATH3 = Network.dc(3, ((1, 2), (2, 3)), [1.0, 1.0])


def test_residuals_flat_state_zero_power():
    states = StateSet.dc([[1.0, 1.0, 1.0]], [[0.0, 0.0, 0.0]])
    assert np.array_equal(residuals(PATH3, states), np.zeros(3))


def test_residuals_hand_computed_exact_state():
    # voltage ramp 1.1 / 1.0 / 0.9 pushes 0.11 in at node 1 and 0.09 out at 3
    states = StateSet.dc([[1.1, 1.0, 0.9]], [[0.11, 0.0, -0.09]])
    assert np.allclose(residuals(PATH3, states), 0.0, atol=1e-15)


def test_residuals_ac_with_zero_imaginary_parts_match_dc():
    rng = np.random.default_rng(0)
    dc_net = random_dc_network(rng, 5)
    ac_net = Network.ac(5, dc_net.edges, dc_net.c, np.zeros(len(dc_net.edges)))
    e = rng.uniform(0.9, 1.1, (4, 5))
    p = rng.normal(0, 0.1, (4, 5))
    z = np.zeros_like(e)
    dc_states = StateSet.dc(e, p)
    ac_states = StateSet("ac", e, z, p, z)
    r_ac = residuals(ac_net, ac_states).reshape(4, 10)
    # real/complex BLAS accumulation orders differ, so equal only to rounding
    assert np.allclose(r_ac[:, 0::2].ravel(), residuals(dc_net, dc_states),
                       rtol=1e-13, atol=1e-14)
    assert np.array_equal(r_ac[:, 1::2], np.zeros((4, 5)))


def test_residuals_match_termwise_oracle():
    rng = np.random.default_rng(1)
    for make in (random_dc_network, random_ac_network):
        for _ in range(10):
            net = make(rng, int(rng.integers(3, 8)))
            states = generate_voltage_driven(net, 5, seed=int(rng.integers(1 << 30)))
            got = residuals(net, states)
            want = direct_residuals(net, states)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_residuals_unchanged_by_zero_weight_edge():
    rng = np.random.default_rng(2)
    net = random_dc_network(rng, 6)
    states = generate_voltage_driven(net, 8, seed=5)
    spare = next(e for e in ((1, 2), (1, 3), (1, 4)) if e not in net.edges)
    bigger = Network.dc(6, net.edges + (spare,), np.append(net.c, 0.0))
    assert np.array_equal(residuals(net, states), residuals(bigger, states))


def test_residuals_invariant_under_node_relabeling():
    rng = np.random.default_rng(3)
    net = random_dc_network(rng, 6)
    states = generate_voltage_driven(net, 7, seed=9)
    perm = rng.permutation(6)  # old 0-based index -> new
    relabeled = Network.dc(
        6, tuple((perm[j - 1] + 1, perm[k - 1] + 1) for j, k in net.edges), net.c
    )
    inv = np.argsort(perm)
    permuted = StateSet.dc(states.e[:, inv], states.p[:, inv])
    r_old = residuals(net, states).reshape(states.m, 6)
    r_new = residuals(relabeled, permuted).reshape(states.m, 6)
    assert np.allclose(r_new, r_old[:, inv], rtol=1e-12, atol=1e-14)


def test_rms_normalization_all_ones_residual():
    # an edgeless network leaves residual = -P, so P = -1 gives residual 1
    net = Network.dc(4, (), [])
    states = StateSet.dc(np.ones((5, 4)), -np.ones((5, 4)))
    assert rms(net, states) == pytest.approx(1.0, abs=1e-15)


def test_rms_dimension_checks():
    states = StateSet.dc(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        rms(Network.dc(4, (), []), states)
    with pytest.raises(ValueError):
        rms(Network.ac(3, (), [], []), states)


def test_voltage_driven_states_are_exact():
    rng = np.random.default_rng(4)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 6)
        states = generate_voltage_driven(net, 50, seed=12)
        assert len(states) == states.m == 50
        assert rms(net, states) <= 1e-12
        mag = np.abs(states.voltage())
        assert mag.min() >= 0.9 and mag.max() <= 1.1


def test_voltage_driven_dissipation_nonnegative():
    rng = np.random.default_rng(5)
    net = random_dc_network(rng, 7)
    states = generate_voltage_driven(net, 40, seed=3)
    assert np.all(states.p.sum(axis=1) >= -1e-12)


def test_voltage_driven_deterministic():
    net = PATH3
    a = generate_voltage_driven(net, 10, seed=42)
    b = generate_voltage_driven(net, 10, seed=42)
    assert a == b
    assert a != generate_voltage_driven(net, 10, seed=43)


def test_scenario_validation():
    for bad in (
        dict(zero=(1,)),  # the slack cannot be silent
        dict(p_range=(0.0, -0.1)),
        dict(q_range=(0.0, np.inf)),
        dict(p_range=(np.nan, 0.0)),
        dict(sigma=-1.0),
        dict(sigma=np.nan),
        dict(sigma=np.inf),
    ):
        with pytest.raises(ValueError):
            Scenario(**bad)
    assert Scenario(zero=(2, 3)).zero == (2, 3)


@pytest.mark.parametrize("field", ["p_range", "q_range"])
def test_scenario_rejects_a_range_whose_width_overflows(field):
    # both ends are finite, but a draw lo + (hi - lo) * u would be inf or nan
    with pytest.raises(ValueError, match=r"^bad sampling range \(-1e\+308, 1e\+308\): .*hi - lo finite$"):
        Scenario(**{field: (-1e308, 1e308)})
    assert getattr(Scenario(**{field: (-1e308, 0.0)}), field) == (-1e308, 0.0)


def test_generate_scenario_exact_and_zero_injection(table1_network):
    scen = Scenario(zero=(2,), p_range=(-0.01, 0.0))
    states = generate_scenario(table1_network, scen, 30, seed=1)
    assert rms(table1_network, states) <= 1e-10
    assert np.array_equal(states.p[:, 1], np.zeros(30))


def test_generate_scenario_slack_absorbs_generation(table1_states):
    # only node 1 generates, so conservation forces its injection >= 0
    assert np.all(table1_states.p[:, 0] >= 0.0)
    assert np.all(table1_states.p[:, 1:] <= 0.0)


@pytest.mark.parametrize(
    ("name", "scen"),
    [
        ("heawood_dc", builtin_scenario("heawood_dc")),
        ("heawood_dc", builtin_scenario("heawood_dc", sigma=1e-6)),
        ("table1_dc", Scenario(p_range=(0.0, 0.01))),  # the slack absorbs power
    ],
)
def test_generate_scenario_dc_f_and_q_are_positive_zeros(name, scen):
    # a DC Newton voltage's imaginary part stays +0.0, and that is f
    states = generate_scenario(builtin_network(name, 2), scen, 40, seed=5)
    assert name != "table1_dc" or np.all(states.p[:, 0] < 0.0)
    for a in (states.f, states.q):
        assert np.all(a == 0.0) and not np.signbit(a).any()


def test_generate_scenario_deterministic(table1_network):
    scen = Scenario(p_range=(-0.01, 0.0))
    a = generate_scenario(table1_network, scen, 20, seed=8)
    b = generate_scenario(table1_network, scen, 20, seed=8)
    assert a == b


@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_generate_scenario_leaves_a_seed_sequence_as_it_was(name):
    net, scen = builtin_network(name, 0), builtin_scenario(name, sigma=1e-6)
    ss = np.random.SeedSequence(5)
    first, second = (generate_scenario(net, scen, 5, seed=ss) for _ in range(2))
    assert ss.n_children_spawned == 0
    for a in ("e", "f", "p", "q"):
        assert getattr(first, a).tobytes() == getattr(second, a).tobytes()


@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_generate_scenario_from_a_seed_sequence_that_has_spawned_equals_the_oracle(name):
    # the generator is seeded from the sequence's pool, which children
    # spawned before do not change
    net, scen = builtin_network(name, 0), builtin_scenario(name, sigma=1e-6)
    ss = np.random.SeedSequence(5)
    ss.spawn(3)
    got = generate_scenario(net, scen, 20, seed=ss)
    assert got == scenario_per_state(net, scen, 20, seed=ss)
    assert got == generate_scenario(net, scen, 20, seed=np.random.SeedSequence(5))
    assert ss.n_children_spawned == 3


def test_generate_scenario_ac_residuals_small():
    rng = np.random.default_rng(6)
    net = random_ac_network(rng, 5, wrange=(5.0, 50.0))
    scen = Scenario(p_range=(-0.05, 0.0), q_range=(-0.02, 0.02))
    states = generate_scenario(net, scen, 25, seed=2)
    assert rms(net, states) <= 1e-10
    assert np.any(states.f != 0)


def test_generate_scenario_noise_shifts_rms(table1_network):
    scen = Scenario(p_range=(-0.01, 0.0), sigma=1e-6)
    noisy = generate_scenario(table1_network, scen, 50, seed=3)
    level = rms(table1_network, noisy)
    assert 1e-8 < level < 1e-3
    # the noise is drawn after the states, so it is all that differs from
    # the noise-free states of the same seed
    exact = generate_scenario(table1_network, replace(scen, sigma=0.0), 50, seed=3)
    for a in ("e", "p"):
        assert 0.5e-6 < np.std(getattr(noisy, a) - getattr(exact, a)) < 2e-6


def test_generate_scenario_infeasible_load_names_state():
    # a 0.1 load cannot cross a 0.05-conductance edge: past the nose point
    weak = Network.dc(2, ((1, 2),), [0.05])
    scen = Scenario(p_range=(-0.1, -0.1))
    with pytest.raises(PowerFlowError, match="state 0"):
        generate_scenario(weak, scen, 3, seed=0)


def test_generate_scenario_range_violation_reports_retries():
    # feasible but far below the 0.9 floor on every draw
    droopy = Network.dc(2, ((1, 2),), [0.6])
    scen = Scenario(p_range=(-0.09, -0.08))
    message = "state 0: voltages left [0.9, 1.1] in 50 attempts"
    assert _outcome(scenario_per_state, droopy, scen, 2, seed=0) == message
    with pytest.raises(PowerFlowError, match=f"^{re.escape(message)}$"):
        generate_scenario(droopy, scen, 2, seed=0)


def test_solve_power_flow_matches_injections():
    rng = np.random.default_rng(7)
    net = random_dc_network(rng, 6, wrange=(5.0, 20.0))
    p = np.concatenate([[0.0], rng.uniform(-0.05, 0.0, 5)])
    v = solve_power_flow(net, p[None, :])[0]
    assert v[0] == 1.0
    with pytest.raises(ValueError, match=r"injections must be \(m, 6\) arrays"):
        solve_power_flow(net, p)  # one state is a stack of one row
    states = StateSet.dc(v.real[None, :], p[None, :])
    r = residuals(net, states)
    assert np.max(np.abs(r[1:])) <= 1e-12  # non-slack equations solved


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_set_rejects_non_finite_values(bad):
    e = np.ones((2, 3))
    p = np.zeros((2, 3))
    p[1, 2] = bad
    with pytest.raises(ValueError, match="p contains a non-finite value"):
        StateSet.dc(e, p)
    e[0, 0] = bad
    with pytest.raises(ValueError, match="e contains a non-finite value"):
        StateSet("ac", e, np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))


def _state_arrays(**changes):
    """(kind, e, f, p, q) of two flat DC states on three nodes, with changes."""
    zeros = np.zeros((2, 3))
    return dict(dict(kind="dc", e=np.ones((2, 3)), f=zeros, p=zeros, q=zeros), **changes)


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(kind="DC"), "kind must be 'dc' or 'ac', got 'DC'"),
        (dict(p=np.zeros(3)), r"p must be a 2-D \(m, n\) array, got shape \(3,\)"),
        (dict(q=np.zeros((2, 4))), r"e is \(2, 3\), q is \(2, 4\)"),
        (
            {name: np.ones((0, 3)) for name in "efpq"},
            r"need at least one state and one node, got shape \(0, 3\)",
        ),
        (dict(f=np.eye(2, 3)), r"DC states must have f = Q = 0, got f\[0, 0\] != 0"),
        (dict(q=np.eye(2, 3)[::-1]), r"DC states must have f = Q = 0, got q\[0, 1\] != 0"),
    ],
)
def test_state_set_rejects_malformed_input(changes, message):
    with pytest.raises(ValueError, match=message):
        StateSet(**_state_arrays(**changes))


def test_generators_reject_m_below_1():
    with pytest.raises(ValueError, match="need m >= 1, got m=0"):
        generate_voltage_driven(PATH3, 0)
    with pytest.raises(ValueError, match="need m >= 1, got m=0"):
        generate_scenario(PATH3, Scenario(), 0)


@pytest.mark.parametrize(
    "m, message",
    [(2.5, "m must be an integer, got 2.5"), (np.inf, "m must be an integer, got inf"),
     ("3", "m must be an integer, got '3'"), (True, "m must be an integer, got True")],
)
def test_generators_reject_a_non_integral_m(m, message):
    with pytest.raises(ValueError, match=message):
        generate_voltage_driven(PATH3, m)
    with pytest.raises(ValueError, match=message):
        generate_scenario(PATH3, Scenario(), m)


def test_generators_take_an_integral_float_m_as_an_int():
    assert generate_voltage_driven(PATH3, 3.0, seed=1) == generate_voltage_driven(PATH3, 3, seed=1)
    net, scen = builtin_network("table1_dc"), builtin_scenario("table1_dc")
    assert generate_scenario(net, scen, np.float64(3), seed=1) == generate_scenario(net, scen, 3, seed=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(zero=(1,)), "zero-injection node 1 must be 2 or higher: node 1 is the slack"),
        (dict(zero=(2, 0)), "zero-injection node 0 must be 2 or higher: node 1 is the slack"),
        (dict(zero=(np.int64(-2),)), "zero-injection node -2 must be 2 or higher: node 1 is the slack"),
        (dict(zero=(2.5,)), "zero-injection node must be an integer, got 2.5"),
        (dict(zero=(2, True)), "zero-injection node must be an integer, got True"),
        (dict(zero=(1.0,)), "zero-injection node 1 must be 2 or higher: node 1 is the slack"),
    ],
)
def test_scenario_rejects_non_integral_nodes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Scenario(**kwargs)


def test_scenario_takes_integral_float_nodes_as_ints():
    scen = Scenario(zero=(3.0,))
    assert scen.zero == (3,) and type(scen.zero[0]) is int
    # node 3 injects nothing, exactly as with zero=(3,)
    states = generate_scenario(PATH3, Scenario(zero=(3.0,), p_range=(-0.1, -0.01)), 4, seed=2)
    assert np.all(states.p[:, 2] == 0.0)
    assert states == generate_scenario(PATH3, Scenario(zero=(3,), p_range=(-0.1, -0.01)), 4, seed=2)


def test_generate_scenario_rejects_a_disconnected_network():
    split = Network.dc(4, ((1, 2), (3, 4)), [1.0, 1.0])
    with pytest.raises(PowerFlowError, match="must be connected"):
        generate_scenario(split, Scenario(), 2)


@pytest.mark.parametrize("zero", [(4,), (2, 4.0), (np.int64(7), 2)])
def test_zero_injection_node_outside_the_network_is_rejected_before_any_solve(monkeypatch, zero):
    scen = Scenario(zero=zero)
    monkeypatch.setattr(gstates, "admittance_matrix", None)  # no solve may start
    first = next(j for j in scen.zero if j > 3)
    with pytest.raises(ValueError, match=rf"^zero-injection node {first} is not in 2\.\.3$"):
        generate_scenario(PATH3, scen, 2)


def test_add_noise_zero_sigma_is_identity(table1_states):
    assert add_noise(table1_states, 0.0) is table1_states


@pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
def test_add_noise_rejects_bad_sigma(table1_states, sigma):
    with pytest.raises(ValueError, match="noise stddev"):
        add_noise(table1_states, sigma)


def _outcome(generate, *args, **kwargs):
    """The states, or the message of the PowerFlowError raised instead."""
    try:
        return generate(*args, **kwargs)
    except PowerFlowError as exc:
        return str(exc)


def _counting_solves(monkeypatch):
    """Record the number of states in each solve_power_flow call."""
    calls = []
    solve = gstates.solve_power_flow

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(gstates, "solve_power_flow", counted)
    return calls


def _ring(rng, n, ac):
    """A ring whose conductances make loads up to 0.25 leave the voltage
    window in about half of the draws."""
    edges = tuple((j, j + 1) for j in range(1, n)) + ((1, n),)
    c = rng.uniform(1.5, 6.0, n)
    if ac:
        return Network.ac(n, edges, c, rng.uniform(1.5, 6.0, n))
    return Network.dc(n, edges, c)


@pytest.mark.parametrize(
    "name, sigma, seed",
    [("heawood_dc", 0.0, 1), ("heawood_dc", 1e-6, 2), ("small_ac", 0.0, 3),
     ("small_ac", 1e-6, 4), ("path3_dc", 0.0, 5), ("table1_dc", 1e-6, 6)],
)
def test_generate_scenario_equals_the_per_state_oracle_on_builtins(name, sigma, seed):
    # small_ac and path3_dc each have a zero-injection node
    net = builtin_network(name, seed)
    scen = builtin_scenario(name, sigma=sigma)
    got = generate_scenario(net, scen, 60, seed=seed)
    assert got == scenario_per_state(net, scen, 60, seed=seed)


def test_generate_scenario_equals_the_per_state_oracle_when_states_retry(monkeypatch):
    calls = _counting_solves(monkeypatch)
    rng = np.random.default_rng(11)
    rounds, outcomes = [], []
    for i in range(12):
        n = int(rng.integers(3, 8))
        net = _ring(rng, n, ac=i % 2 == 1)
        zero = (int(rng.integers(2, n + 1)),) if i % 3 == 0 else ()
        scen = Scenario(zero=zero, p_range=(-0.25, 0.0), q_range=(-0.1, 0.1))
        seed = int(rng.integers(1 << 30))
        calls.clear()
        got = _outcome(generate_scenario, net, scen, 30, seed=seed)
        rounds.append(list(calls))
        outcomes.append(got)
        assert _outcome(scenario_per_state, net, scen, 30, seed=seed) == got
    # every round is one call on the states still pending, some states were
    # drawn again, and an error names the first state in order whose draws
    # failed, which need not be the row that failed first, and a state past
    # 0 can fail after rounds of retries
    assert all(r[0] == 30 for r in rounds)
    assert max(len(r) for r in rounds) > 2
    assert sum(isinstance(o, StateSet) for o in outcomes) >= 6
    failed_late = outcomes.index("state 8: damping failed to reduce the mismatch")
    assert len(rounds[failed_late]) > 2
    assert "state 0: damping failed to reduce the mismatch" in outcomes


@pytest.mark.parametrize("make", [random_dc_network, random_ac_network])
def test_stacked_solve_power_flow_equals_row_by_row_calls(make):
    rng = np.random.default_rng(8)
    net = make(rng, 6, wrange=(1.0, 6.0))
    p = np.column_stack([np.zeros(7), rng.uniform(-0.3, 0.0, (7, 5))])
    q = np.column_stack([np.zeros(7), rng.uniform(-0.1, 0.1, (7, 5))])
    stacked = solve_power_flow(net, p, q)
    assert stacked.shape == (7, 6) and np.all(stacked[:, 0] == 1)  # the slack's voltage
    for row in range(7):
        alone = solve_power_flow(net, p[row:row + 1], q[row:row + 1])[0]
        assert np.array_equal(stacked[row], alone)
        assert np.array_equal(alone, newton_per_state(net, p[row], q[row]))


def test_stacked_solve_power_flow_names_the_failed_row():
    # past the nose point of a unit edge; a load of 0.5 steps onto a zero Jacobian
    line = Network.dc(2, ((1, 2),), [1.0])
    p = np.array([[0.0, -0.1], [0.0, -0.5], [0.0, -0.3], [0.0, -0.2]])
    with pytest.raises(PowerFlowError, match="^row 1: singular power-flow Jacobian$") as exc:
        solve_power_flow(line, p)
    assert exc.value.row == 1
    with pytest.raises(PowerFlowError, match="^row 0: damping failed") as exc:
        solve_power_flow(line, p[2:3])
    assert exc.value.row == 0
    # the rows that did not fail are the rows solved alone
    assert np.array_equal(solve_power_flow(line, p[[0, 3]])[1], solve_power_flow(line, p[3:4])[0])


@pytest.mark.parametrize("make", [random_dc_network, random_ac_network])
def test_a_failed_stacked_solve_keeps_the_rows_before_the_failed_one(make):
    rng = np.random.default_rng(10)
    net = make(rng, 5, wrange=(1.0, 3.0))
    p = np.column_stack([np.zeros(6), rng.uniform(-0.3, 0.0, (6, 4))])
    p[3, 1:] = -50.0  # far past the nose point
    with pytest.raises(PowerFlowError) as exc:
        solve_power_flow(net, p)
    assert exc.value.row == 3 and exc.value.solved.shape == (3, 5)
    assert np.array_equal(exc.value.solved, solve_power_flow(net, p[:3]))


def test_generate_scenario_singular_jacobian_names_the_state():
    line = Network.dc(2, ((1, 2),), [1.0])
    scen = Scenario(p_range=(-0.5, -0.5))
    message = "state 0: singular power-flow Jacobian"
    assert _outcome(scenario_per_state, line, scen, 3, seed=0) == message
    with pytest.raises(PowerFlowError, match=f"^{message}$"):
        generate_scenario(line, scen, 3, seed=0)


def test_generate_scenario_no_convergence_names_the_first_failed_state(monkeypatch):
    # with two Newton steps only the lightest loads reach the tolerance
    monkeypatch.setattr(gstates, "NEWTON_MAX_ITER", 2)
    net = builtin_network("table1_dc")
    scen = Scenario(p_range=(-3e-4, 0.0))
    want = _outcome(scenario_per_state, net, scen, 40, seed=2)
    assert want.startswith("state ") and not want.startswith("state 0:")
    assert want.endswith("no convergence after 2 Newton iterations")
    calls = _counting_solves(monkeypatch)
    with pytest.raises(PowerFlowError) as exc:
        generate_scenario(net, scen, 40, seed=2)
    assert str(exc.value) == want
    # the rows before the failed one keep the voltages of the failed call
    assert calls == [40]
