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
from helpers import random_ac_network, random_dc_network
from oracles import direct_residuals

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
    spare = next(e for e in ((1, 2), (1, 3), (1, 4)) if not net.has_edge(*e))
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


def test_voltage_driven_rejects_bad_range():
    with pytest.raises(ValueError):
        generate_voltage_driven(PATH3, 5, vrange=(0.0, 1.1))
    with pytest.raises(ValueError):
        generate_voltage_driven(PATH3, 5, vrange=(1.2, 1.1))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(("power", "power"), ((0, 1), (0, 1)), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Scenario(("slack", "slack"), ((0, 1), (0, 1)), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Scenario(("slack", "power"), ((1, 0), (1, 0)), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Scenario.single_slack(3, sigma=-1.0)


def test_generate_scenario_exact_and_zero_injection(table1_network):
    scen = Scenario.single_slack(6, zero=(2,), p_range=(-0.01, 0.0))
    states = generate_scenario(table1_network, scen, 30, seed=1)
    assert rms(table1_network, states) <= 1e-10
    assert np.array_equal(states.p[:, 1], np.zeros(30))


def test_generate_scenario_slack_absorbs_generation(table1_states):
    # only node 1 generates, so conservation forces its injection >= 0
    assert np.all(table1_states.p[:, 0] >= 0.0)
    assert np.all(table1_states.p[:, 1:] <= 0.0)


def test_generate_scenario_deterministic(table1_network):
    scen = Scenario.single_slack(6, p_range=(-0.01, 0.0))
    a = generate_scenario(table1_network, scen, 20, seed=8)
    b = generate_scenario(table1_network, scen, 20, seed=8)
    assert a == b


def test_generate_scenario_ac_residuals_small():
    rng = np.random.default_rng(6)
    net = random_ac_network(rng, 5, wrange=(5.0, 50.0))
    scen = Scenario.single_slack(5, p_range=(-0.05, 0.0), q_range=(-0.02, 0.02))
    states = generate_scenario(net, scen, 25, seed=2)
    assert rms(net, states) <= 1e-10
    assert np.any(states.f != 0)


def test_generate_scenario_noise_shifts_rms(table1_network):
    scen = Scenario.single_slack(6, p_range=(-0.01, 0.0), sigma=1e-6)
    noisy = generate_scenario(table1_network, scen, 50, seed=3)
    level = rms(table1_network, noisy)
    assert 1e-8 < level < 1e-3


def test_generate_scenario_infeasible_load_names_state():
    # a 0.1 load cannot cross a 0.05-conductance edge: past the nose point
    weak = Network.dc(2, ((1, 2),), [0.05])
    scen = Scenario.single_slack(2, p_range=(-0.1, -0.1))
    with pytest.raises(PowerFlowError, match="state 0"):
        generate_scenario(weak, scen, 3, seed=0)


def test_generate_scenario_range_violation_reports_retries():
    # feasible but far below the 0.9 floor on every draw
    droopy = Network.dc(2, ((1, 2),), [0.6])
    scen = Scenario.single_slack(2, p_range=(-0.09, -0.08))
    with pytest.raises(PowerFlowError, match="attempts"):
        generate_scenario(droopy, scen, 2, seed=0, max_retries=5)


def test_solve_power_flow_matches_injections():
    rng = np.random.default_rng(7)
    net = random_dc_network(rng, 6, wrange=(5.0, 20.0))
    p = np.concatenate([[0.0], rng.uniform(-0.05, 0.0, 5)])
    v = solve_power_flow(net, p, slack=1)
    assert v[0] == 1.0
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


def test_add_noise_zero_sigma_is_identity(table1_states):
    assert add_noise(table1_states, 0.0) is table1_states
