import re

import numpy as np
import pytest

from gridrecover.network import (
    Network,
    admittance_matrix,
    complete_edges,
    connectivity,
    is_connected,
    laplacian,
    series_equivalent,
    split_graphs,
)
from gridrecover.bounds import dc_bound, dc_bound_coarse
from gridrecover.sparsify import is_epsilon_approximation, sample_count, sparsify_ac
from gridrecover.states import Scenario, add_noise
from gridrecover.vandermonde import VandermondeSystem, network_from_columns, parameter_vector
from helpers import random_graph
from oracles import laplacian_by_edge_loop


def test_laplacian_triangle_unit_weights():
    g = Network.dc(3, ((1, 2), (1, 3), (2, 3)), np.ones(3))
    expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.array_equal(laplacian(g), expected)


def test_laplacian_single_edge():
    g = Network.dc(2, ((1, 2),), [5.0])
    assert np.array_equal(laplacian(g), np.array([[5.0, -5.0], [-5.0, 5.0]]))
    # one real Laplacian cannot hold susceptances
    with pytest.raises(ValueError, match="split_graphs"):
        laplacian(Network.ac(2, ((1, 2),), [5.0], [1.0]))


def test_laplacian_path_kernel_is_constant_vector():
    g = Network.dc(3, ((1, 2), (2, 3)), [2.0, 3.0])
    L = laplacian(g)
    vals, vecs = np.linalg.eigh(L)
    assert np.sum(np.abs(vals) < 1e-12) == 1
    null = vecs[:, np.argmin(np.abs(vals))]
    assert np.allclose(null, null[0] * np.ones(3), atol=1e-12)


def test_laplacian_properties_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 12)), int(rng.integers(1, 12)))
        L = laplacian(g)
        assert np.array_equal(L, L.T)
        assert np.allclose(L @ np.ones(g.n), 0.0, atol=1e-12)
        for _ in range(100):
            z = rng.standard_normal(g.n)
            assert z @ L @ z >= -1e-10


def test_laplacian_bit_identical_to_edge_loop():
    rng = np.random.default_rng(12)
    graphs = [Network.dc(3, (), [])]
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 15)), int(rng.integers(1, 40)))
        c = np.where(rng.random(len(g.edges)) < 0.3, 0.0, g.c)  # zero weights too
        graphs.append(Network.dc(g.n, g.edges, c))
    for g in graphs:
        # same bytes: the same sums in the same order, and +0.0 off the edges
        assert laplacian(g).tobytes() == laplacian_by_edge_loop(g).tobytes()


def test_admittance_dc_is_real():
    net = Network.dc(3, ((1, 2), (2, 3)), [1.0, 2.0])
    L = admittance_matrix(net)
    assert np.array_equal(L.imag, np.zeros((3, 3)))


def test_admittance_single_ac_edge():
    net = Network.ac(2, ((1, 2),), [1.0], [2.0])
    L = admittance_matrix(net)
    expected = np.array([[1 - 2j, -1 + 2j], [-1 + 2j, 1 - 2j]])
    assert np.array_equal(L, expected)


def test_admittance_column_sums_zero():
    rng = np.random.default_rng(3)
    net = Network.ac(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)),
                     rng.uniform(0, 5, 5), rng.uniform(0, 5, 5))
    assert np.allclose(admittance_matrix(net).sum(axis=0), 0.0, atol=1e-12)


def test_admittance_equals_split_laplacians():
    rng = np.random.default_rng(4)
    net = Network.ac(4, ((1, 2), (1, 3), (2, 4)), rng.uniform(0, 9, 3), rng.uniform(0, 9, 3))
    cg, sg = split_graphs(net)
    assert np.array_equal(admittance_matrix(net), laplacian(cg) - 1j * laplacian(sg))


def test_series_equivalent_basic():
    assert series_equivalent(1.0, 1.0) == 0.5
    assert series_equivalent(2.0, 2.0) == 1.0


def test_series_equivalent_reported_ac_value():
    w = series_equivalent(16.7913 - 2.6154j, 1.1999 - 3.8157j)
    assert abs(w.real - 1.6852) < 5e-4
    assert abs(w.imag - (-3.1333)) < 5e-4


def test_series_equivalent_commutative_and_below_min():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(0.1, 20, 2)
        assert series_equivalent(a, b) == series_equivalent(b, a)
        assert series_equivalent(a, b) < min(a, b)


def test_series_equivalent_rejects_zero():
    with pytest.raises(ValueError):
        series_equivalent(0.0, 1.0)
    with pytest.raises(ValueError):
        series_equivalent(3.0, 0j)


def test_series_equivalent_rejects_admittances_that_cancel():
    with pytest.raises(ValueError, match="admittances cancel"):
        series_equivalent(1.0 - 2.0j, -1.0 + 2.0j)


def test_split_graphs_dc_has_zero_susceptance_side():
    net = Network.dc(3, ((1, 2),), [4.0])
    cg, sg = split_graphs(net)
    assert np.array_equal(cg.c, [4.0])
    assert np.array_equal(sg.c, [0.0])


def test_split_graphs_ac_weights():
    net = Network.ac(2, ((1, 2),), [1.0], [2.0])
    cg, sg = split_graphs(net)
    assert cg.c[0] == 1.0 and sg.c[0] == 2.0


def test_connectivity_path_is_tree():
    g = Network.dc(3, ((1, 2), (2, 3)), [1.0, 1.0])
    assert connectivity(g).tolist() == [0, 0, 0]
    assert is_connected(g)


def test_connectivity_two_disjoint_edges():
    g = Network.dc(4, ((1, 2), (3, 4)), [1.0, 1.0])
    assert connectivity(g).tolist() == [0, 0, 1, 1]
    assert not is_connected(g)


def test_connectivity_triangle_not_a_tree():
    g = Network.dc(3, ((1, 2), (1, 3), (2, 3)), np.ones(3))
    assert is_connected(g)


def test_connectivity_ignores_zero_weight_edges():
    g = Network.dc(3, ((1, 2), (2, 3)), [1.0, 0.0])
    assert connectivity(g).tolist() == [0, 0, 1] and not is_connected(g)
    # an AC edge with zero conductance but positive susceptance is present
    ac = Network.ac(3, ((1, 2), (2, 3)), [1.0, 0.0], [0.0, 2.0])
    assert connectivity(ac).tolist() == [0, 0, 0] and is_connected(ac)
    dead = Network.ac(3, ((1, 2), (2, 3)), [1.0, 0.0], [0.0, 0.0])
    assert connectivity(dead).tolist() == [0, 0, 1] and not is_connected(dead)


def test_edges_canonicalized_and_validated():
    net = Network.dc(3, ((2, 1),), [1.0])
    assert net.edges == ((1, 2),)
    with pytest.raises(ValueError):
        Network.dc(3, ((1, 1),), [1.0])
    with pytest.raises(ValueError):
        Network.dc(3, ((1, 2), (2, 1)), [1.0, 1.0])
    with pytest.raises(ValueError):
        Network.dc(3, ((1, 4),), [1.0])
    with pytest.raises(ValueError):
        Network.dc(3, ((1, 2),), [-1.0])
    with pytest.raises(ValueError):
        Network(kind="dc", n=2, edges=((1, 2),), c=np.array([1.0]), s=np.array([2.0]))


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3.5, [(1, 2)], "n must be an integer, got 3.5"),
        (True, [], "n must be an integer, got True"),
        (3, [(1.5, 2)], r"edge \(1.5, 2\): node id must be an integer, got 1.5"),
        (3, [(1, 2), (2, np.True_)], r"edge \(2, np.True_\): node id must be an integer"),
        (float("inf"), [], "n must be an integer, got inf"),
        (float("nan"), [], "n must be an integer, got nan"),
        (None, [], "n must be an integer, got None"),
        ("3", [], "n must be an integer, got '3'"),
        (3, [(1, "2")], r"edge \(1, '2'\): node id must be an integer, got '2'"),
        (3, [(1, "2.5")], r"edge \(1, '2.5'\): node id must be an integer, got '2.5'"),
    ],
)
def test_network_rejects_non_integral_node_ids(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Network.dc(n, edges, np.ones(len(edges)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Network.dc(2, [(1, 2)], ["1.5"]), r"conductances\[0\] must be a number, got '1.5'"),
        (lambda: Network.dc(2, [(1, 2)], [True]), r"conductances\[0\] must be a number, got True"),
        (lambda: Network.dc(3, [(1, 2), (2, 3)], [2.0, True]), r"conductances\[1\] must be a number"),
        (lambda: Network.dc(2, [(1, 2)], np.array([True])), r"conductances\[0\] must be a number"),
        (lambda: Network.dc(2, [(1, 2)], [None]), r"conductances\[0\] must be a number, got None"),
        (lambda: Network.ac(2, [(1, 2)], [1.0], np.array(["1"])), r"susceptances\[0\] must be a number"),
    ],
)
def test_network_rejects_weights_that_are_not_numbers(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_network_takes_integer_and_numpy_weights():
    for c in ([2, np.float32(0.5)], np.array([2, 0]), np.array([2.0, 0.5]), (np.int64(2), 0.5)):
        net = Network.dc(3, [(1, 2), (2, 3)], c)
        assert net.c.dtype == float and np.array_equal(net.c, np.asarray(c, dtype=float))


def test_network_takes_integral_floats_and_numpy_integers_as_ints():
    net = Network.dc(np.int64(3), [(2.0, np.int64(1))], [1.0])
    assert (net.n, net.edges) == (3, ((1, 2),))
    assert type(net.n) is int and all(type(j) is int for j in net.edges[0])


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: Network.dc(3, [(1, 2), (2, 3)], [1.0]),
            r"conductances must have one entry per edge: shape \(1,\) for 2 edges",
        ),
        (
            lambda: Network.ac(3, [(1, 2)], [1.0], [1.0, 2.0]),
            r"susceptances must have one entry per edge: shape \(2,\) for 1 edges",
        ),
        (lambda: Network("DC", 3, (), [], []), "kind must be 'dc' or 'ac', got 'DC'"),
        (lambda: Network.dc(0, [], []), "need at least one node, got n=0"),
    ],
)
def test_network_rejects_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def _pair_message(name, pair):
    return rf"{name} must be a pair of numbers \(lo, hi\), got {re.escape(repr(pair))}"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda g, x: dc_bound(g, x, "x"), "eps must be a number, got 'x'", id="dc_bound"),
        pytest.param(lambda g, x: dc_bound_coarse(g, x, [0.5], 0.9, 1.1), r"eps must be a number, got \[0.5\]",
                     id="dc_bound_coarse"),
        pytest.param(lambda g, x: dc_bound_coarse(g, x, 0.1, 0.9, "x"), "vmax must be a number, got 'x'",
                     id="coarse_vmax_string"),
        pytest.param(lambda g, x: dc_bound_coarse(g, x, 0.1, 0.9, None), "vmax must be a number, got None",
                     id="coarse_vmax_none"),
        pytest.param(lambda g, x: dc_bound_coarse(g, x, 0.1, True, 1.1), "vmin must be a number, got True",
                     id="coarse_vmin_bool"),
        pytest.param(lambda g, x: sample_count(6, "x"), "eps must be a number, got 'x'", id="sample_count"),
        pytest.param(lambda g, x: sparsify_ac(g, "x"), "eps must be a number, got 'x'", id="sparsify_ac"),
        pytest.param(lambda g, x: is_epsilon_approximation(g, g, None), "eps must be a number, got None",
                     id="is_epsilon_approximation"),
        pytest.param(lambda g, x: add_noise(x, "x"), "noise stddev must be a number, got 'x'", id="add_noise"),
        pytest.param(lambda g, x: Scenario(sigma="x"), "noise stddev must be a number, got 'x'", id="sigma"),
        pytest.param(lambda g, x: Scenario(sigma=True), "noise stddev must be a number, got True", id="sigma_bool"),
        pytest.param(lambda g, x: Scenario(p_range=0.1), _pair_message("p_range", 0.1), id="p_range_scalar"),
        pytest.param(lambda g, x: Scenario(p_range=("a", "b")), _pair_message("p_range", ("a", "b")),
                     id="p_range_strings"),
        pytest.param(lambda g, x: Scenario(q_range=(0.0,)), _pair_message("q_range", (0.0,)), id="q_range_one_end"),
        pytest.param(lambda g, x: Scenario(q_range=(0.0, None)), _pair_message("q_range", (0.0, None)),
                     id="q_range_none"),
    ],
)
def test_a_real_input_that_is_not_a_number_raises_value_error_naming_it(table1_network, table1_states, call, message):
    # the value goes through _real before any comparison, so no TypeError escapes
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(table1_network, table1_states)


def test_real_inputs_take_numpy_scalars(table1_network, table1_states):
    assert dc_bound(table1_network, table1_states, np.float64(0.5)) == dc_bound(table1_network, table1_states, 0.5)
    assert is_epsilon_approximation(table1_network, table1_network, np.float32(0.0))
    scen = Scenario(p_range=(np.float32(-0.5), np.int64(0)), q_range=np.array([-1, 1]), sigma=np.float64(1e-6))
    assert scen == Scenario(p_range=(-0.5, 0.0), q_range=(-1.0, 1.0), sigma=1e-6)
    assert all(type(x) is float for x in (*scen.p_range, *scen.q_range, scen.sigma))


def test_weight_lookup_is_symmetric():
    # parameter_vector reads each edge's (c, s) whichever end comes first; 0 for absent edges
    net = Network.ac(3, ((1, 2),), [1.5], [0.5])
    assert parameter_vector(net, ((2, 1), (3, 1))).tolist() == [1.5, 0.5, 0.0, 0.0]


def test_normalized_drops_dead_edges():
    net = Network.ac(3, ((1, 2), (1, 3), (2, 3)), [1.0, 0.0, 0.0], [0.0, 2.0, 0.0])
    pruned = net.normalized()
    assert pruned.edges == ((1, 2), (1, 3))


def _random_networks(kind, seed, count=50):
    """Random networks of the kind on 2..8 nodes, in any edge order, about
    two in five weights zero."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        pool = [(k, j) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        edges = [pool[i] for i in rng.permutation(len(pool))[: int(rng.integers(1, len(pool) + 1))]]
        c, s = rng.uniform(0.1, 10.0, (2, len(edges))) * (rng.random((2, len(edges))) > 0.4)
        yield Network.dc(n, edges, c) if kind == "dc" else Network.ac(n, edges, c, s)


def _assert_built_alike(derived, built):
    """``derived`` equals ``built``, the network the validating constructor
    built from the same parts: the same fields, field types, weight bits and
    read-only weights."""
    assert type(derived) is Network and derived == built
    assert derived.__dict__.keys() == built.__dict__.keys()
    assert type(derived.n) is int
    for a, b in ((derived.c, built.c), (derived.s, built.s)):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
        assert not a.flags.writeable and not b.flags.writeable


@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_normalized_equals_the_network_built_from_its_parts(kind):
    # the pruned copy is cut from a validated network without validating it
    # again: it must be the network the constructor builds from the same parts
    for net in _random_networks(kind, 23 + (kind == "ac")):
        keep = (net.c > 0) | (net.s > 0)
        parts = [e for e, k in zip(net.edges, keep) if k], net.c[keep], net.s[keep]
        _assert_built_alike(net.normalized(), Network(net.kind, net.n, *parts))


@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_derived_networks_equal_the_networks_built_from_their_parts(kind):
    # the split graphs, a solution's network and a sample's network are cut
    # from a validated network or system, and only their weights are checked
    checked = 0
    for net in _random_networks(kind, 31 + (kind == "ac")):
        for g, w in zip(split_graphs(net), (net.c, net.s)):
            _assert_built_alike(g, Network.dc(net.n, net.edges, w))
        edges = tuple(sorted(net.edges))
        k = len(parameter_vector(net))
        system = VandermondeSystem(net.kind, net.n, np.eye(k), np.zeros(k), edges, 0.0, k)
        fitted = network_from_columns(system, parameter_vector(net))
        order = [net.edges.index(e) for e in edges]
        _assert_built_alike(fitted, Network(net.kind, net.n, edges, net.c[order], net.s[order]))
        if np.any(net.c > 0) or np.any(net.s > 0):
            outcome = sparsify_ac(net, 0.5, checked)
            graph = outcome.graph
            _assert_built_alike(graph, Network(net.kind, net.n, outcome.edges, graph.c, graph.s))
            checked += 1
    assert checked > 40


def test_complete_edges_count_and_order():
    edges = complete_edges(4)
    assert edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(complete_edges(14)) == 91
