import numpy as np
import pytest

from gridrecover.network import (
    Network,
    admittance_matrix,
    complete_edges,
    connectivity,
    component_count,
    is_connected,
    is_spanning_tree,
    laplacian,
    series_equivalent,
    split_graphs,
)
from helpers import random_graph


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
    assert component_count(g) == 1
    assert is_connected(g)
    assert is_spanning_tree(g)


def test_connectivity_two_disjoint_edges():
    g = Network.dc(4, ((1, 2), (3, 4)), [1.0, 1.0])
    labels = connectivity(g)
    assert component_count(g) == 2
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_connectivity_triangle_not_a_tree():
    g = Network.dc(3, ((1, 2), (1, 3), (2, 3)), np.ones(3))
    assert is_connected(g)
    assert not is_spanning_tree(g)


def test_connectivity_ignores_zero_weight_edges():
    g = Network.dc(3, ((1, 2), (2, 3)), [1.0, 0.0])
    assert component_count(g) == 2
    # an AC edge with zero conductance but positive susceptance is present
    ac = Network.ac(3, ((1, 2), (2, 3)), [1.0, 0.0], [0.0, 2.0])
    assert component_count(ac) == 1
    assert is_spanning_tree(ac)
    dead = Network.ac(3, ((1, 2), (2, 3)), [1.0, 0.0], [0.0, 0.0])
    assert component_count(dead) == 2
    assert not is_spanning_tree(dead)


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


def test_weight_lookup_is_symmetric():
    net = Network.ac(3, ((1, 2),), [1.5], [0.5])
    assert net.weight(1, 2) == net.weight(2, 1) == 1.5 - 0.5j
    assert net.weight(1, 3) == 0.0


def test_normalized_drops_dead_edges():
    net = Network.ac(3, ((1, 2), (1, 3), (2, 3)), [1.0, 0.0, 0.0], [0.0, 2.0, 0.0])
    pruned = net.normalized()
    assert pruned.edges == ((1, 2), (1, 3))


def test_complete_edges_count_and_order():
    edges = complete_edges(4)
    assert edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(complete_edges(14)) == 91
