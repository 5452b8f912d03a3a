import re

import numpy as np
import pytest

from gridrecover.network import Network, complete_edges
from gridrecover.states import StateSet, generate_scenario, generate_voltage_driven, residuals, Scenario
from gridrecover.vandermonde import (
    assemble,
    condition_number,
    network_from_columns,
    parameter_vector,
    restrict,
)
from helpers import random_ac_network, random_dc_network

K3 = ((1, 2), (1, 3), (2, 3))


def path3_states(m=50, seed=0, c12=2.0, c23=3.0):
    """Exact states of the 3-node path with no injection at the middle node."""
    net = Network.dc(3, ((1, 2), (2, 3)), [c12, c23])
    scen = Scenario(3, zero=(2,), p_range=(-0.1, -0.01))
    return net, generate_scenario(net, scen, m, seed=seed)


def one_state(states, k):
    """State k of a data set as a one-state set, whose system is its row block."""
    rows = slice(k, k + 1)
    return StateSet(states.kind, states.e[rows], states.f[rows], states.p[rows], states.q[rows])


def test_row_block_flat_voltage_is_zero():
    x = StateSet.dc([[1.0, 1.0, 1.0]], [[0.0] * 3])
    assert np.array_equal(assemble(K3, x).matrix, np.zeros((3, 3)))


def test_row_block_dc_matches_quadratic_formula():
    e = np.array([1.05, 0.97, 1.01])
    x = StateSet.dc([e], [[0.0] * 3])
    B = assemble(K3, x).matrix
    expected = np.array(
        [
            [e[0] ** 2 - e[0] * e[1], e[0] ** 2 - e[0] * e[2], 0.0],
            [e[1] ** 2 - e[0] * e[1], 0.0, e[1] ** 2 - e[1] * e[2]],
            [0.0, e[2] ** 2 - e[0] * e[2], e[2] ** 2 - e[1] * e[2]],
        ]
    )
    assert np.allclose(B, expected, atol=1e-15)
    # each column touches exactly the two endpoint rows
    assert np.array_equal(B != 0, expected != 0)


def test_row_block_ac_zero_imag_replicates_dc_pattern():
    e = np.array([1.05, 0.97, 1.01])
    dc = assemble(K3, StateSet.dc([e], [[0.0] * 3])).matrix
    z = np.zeros((1, 3))
    ac = assemble(K3, StateSet("ac", [e], z, z, z)).matrix
    assert np.array_equal(ac[0::2, 0::2], dc)  # alpha in the g-row/c-column grid
    assert np.array_equal(ac[1::2, 1::2], dc)  # and again in the h-row/s-column grid
    assert np.array_equal(ac[0::2, 1::2], np.zeros((3, 3)))  # beta terms vanish
    assert np.array_equal(ac[1::2, 0::2], np.zeros((3, 3)))


def test_assemble_stacks_states_in_order():
    rng = np.random.default_rng(1)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 4)
        states = generate_voltage_driven(net, 6, seed=2)
        system = assemble(net.edges, states)
        blocks = [assemble(net.edges, one_state(states, k)).matrix for k in range(6)]
        assert np.array_equal(system.matrix, np.vstack(blocks))


def test_assemble_rejects_empty_edge_set():
    states = StateSet.dc(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        assemble((), states)


def test_residual_identity_against_states_module():
    rng = np.random.default_rng(2)
    for make in (random_dc_network, random_ac_network):
        for _ in range(10):
            net = make(rng, int(rng.integers(3, 8)))
            states = generate_voltage_driven(net, 6, seed=int(rng.integers(1 << 30)))
            system = assemble(net.edges, states)
            w = parameter_vector(net)
            lhs = system.matrix @ w - system.rhs
            rhs = residuals(net, states)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


def test_dc_columns_have_two_nonzero_rows_per_state():
    rng = np.random.default_rng(3)
    net = random_dc_network(rng, 6)
    states = generate_voltage_driven(net, 9, seed=4)
    system = assemble(net.edges, states)
    nonzeros = (system.matrix != 0).sum(axis=0)
    assert np.all(nonzeros <= 2 * states.m)


def test_column_subset_coherence():
    rng = np.random.default_rng(4)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 6)
        states = generate_voltage_driven(net, 5, seed=5)
        full = assemble(complete_edges(6), states)
        sub_edges = net.edges[: len(net.edges) // 2 + 1]
        direct = assemble(sub_edges, states)
        restricted = restrict(full, sub_edges)
        assert np.array_equal(direct.matrix, restricted.matrix)
        assert direct.edges == restricted.edges
        assert np.array_equal(direct.rhs, restricted.rhs)
        missing = sorted(set(complete_edges(6)) - set(sub_edges))
        with pytest.raises(ValueError, match=re.escape(f"edges {missing} not present")):
            restrict(direct, complete_edges(6))


def test_kernel_vector_of_silent_middle_node_data():
    c12, c23 = 2.0, 3.0
    _, states = path3_states(m=20, c12=c12, c23=c23)
    system = assemble(K3, states)
    z = np.array([-1 - c12 / c23, 1.0, -1 - c23 / c12])
    assert np.max(np.abs(system.matrix @ z)) < 1e-12


def test_condition_number_orthonormal_columns():
    q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((12, 4)))
    assert condition_number(q) == pytest.approx(1.0, rel=1e-10)


def test_condition_number_sentinel_on_rank_deficiency():
    _, states = path3_states(m=30)
    assert condition_number(assemble(K3, states)) == float("inf")
    assert condition_number(np.zeros((4, 2))) == float("inf")


def test_condition_number_drops_on_true_topology(table1_network, table1_states):
    full = condition_number(assemble(complete_edges(6), table1_states))
    true = condition_number(assemble(table1_network.edges, table1_states))
    assert true <= full


def test_ac_beta_columns_vanish_for_real_data():
    rng = np.random.default_rng(7)
    net = random_ac_network(rng, 4)
    e = rng.uniform(0.9, 1.1, (5, 4))
    z = np.zeros_like(e)
    states = StateSet("ac", e, z, rng.normal(size=(5, 4)), z)
    system = assemble(net.edges, states)
    # with f = 0 every beta entry vanishes, leaving the two alpha diagonals
    assert np.count_nonzero(system.matrix[0::2, 1::2]) == 0  # g-rows, s-columns
    assert np.count_nonzero(system.matrix[1::2, 0::2]) == 0  # h-rows, c-columns
    assert np.count_nonzero(system.matrix[1::2, 1::2]) > 0


def test_parameter_vector_round_trip():
    rng = np.random.default_rng(8)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 5)
        w = parameter_vector(net)
        rebuilt = network_from_columns(
            assemble(net.edges, generate_voltage_driven(net, 1, seed=0)), w
        )
        assert set(rebuilt.edges) == set(net.edges)
        assert np.allclose(parameter_vector(rebuilt), w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_assemble_rejects_overflow_with_state_and_node(kind):
    e = np.ones((3, 3))
    e[1, 2] = 1e200  # finite, but e^2 overflows in the rows of node 3
    z = np.zeros((3, 3))
    states = StateSet.dc(e, z) if kind == "dc" else StateSet("ac", e, z, z, z)
    with pytest.raises(ValueError, match=r"state 2, node 3: design-matrix entry overflows"):
        assemble(K3, states)
