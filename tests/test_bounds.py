import numpy as np
import pytest

from gridrecover.bounds import ac_bound, ac_delta, dc_bound, dc_bound_coarse, phi_vector
from gridrecover.network import Network, laplacian, split_graphs
from gridrecover.sparsify import is_epsilon_approximation, sparsify_ac
from gridrecover.states import StateSet, generate_voltage_driven, rms
from helpers import random_ac_network, random_dc_network


def flat_states(m, n):
    return StateSet.dc(np.ones((m, n)), np.zeros((m, n)))


def test_phi_flat_voltages_is_all_ones():
    states = flat_states(4, 3)
    phi = phi_vector(states)
    assert np.array_equal(phi, np.ones(12))


def test_phi_single_state_two_nodes():
    states = StateSet.dc([[1.0, 2.0]], [[0.0, 0.0]])
    # (1 + 1/2) / (1 + 1/4)
    assert np.allclose(phi_vector(states), 1.2)


def test_phi_minimizes_block_constant_mismatch():
    rng = np.random.default_rng(0)
    states = StateSet.dc(rng.uniform(0.9, 1.1, (6, 5)), np.zeros((6, 5)))
    phi = phi_vector(states).reshape(6, 5)
    best = np.linalg.norm(1.0 - phi / states.e)
    for _ in range(100):
        lam = rng.uniform(0.5, 1.5, 6)
        trial = np.linalg.norm(1.0 - lam[:, None] / states.e)
        assert trial >= best - 1e-12


def test_phi_rejects_ac_and_zero_voltage():
    with pytest.raises(ValueError):
        phi_vector(StateSet("ac", np.ones((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2))))
    e = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        phi_vector(StateSet.dc(e, np.zeros_like(e)))


def test_dc_bound_zero_at_flat_voltage():
    net = Network.dc(3, ((1, 2), (2, 3)), [1.0, 2.0])
    states = flat_states(5, 3)
    report = dc_bound(net, states, eps=0.7)
    assert report.bound_term == 0.0
    assert report.bound_total == report.rms_base


def test_dc_bound_invariant_under_state_duplication():
    rng = np.random.default_rng(1)
    net = random_dc_network(rng, 5)
    states = generate_voltage_driven(net, 10, seed=2)
    doubled = StateSet.dc(np.vstack([states.e, states.e]), np.vstack([states.p, states.p]))
    a = dc_bound(net, states, 0.5)
    b = dc_bound(net, doubled, 0.5)
    assert a.bound_term == pytest.approx(b.bound_term, rel=1e-12)


def test_dc_bound_holds_on_verified_sparsifications():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        net = random_dc_network(rng, int(rng.integers(5, 9)))
        g = split_graphs(net)[0]
        eps = float(rng.choice([0.3, 0.5, 1.0]))
        out = sparsify_ac(g, eps, seed=int(rng.integers(1 << 30)))
        if not is_epsilon_approximation(g, out.graph, eps):
            continue
        checked += 1
        states = generate_voltage_driven(net, 20, seed=int(rng.integers(1 << 30)))
        report = dc_bound(net, states, eps)
        sparse_net = Network.dc(net.n, out.graph.edges, out.graph.c)
        assert rms(sparse_net, states) <= report.bound_total + 1e-9


def test_coarse_bound_formula_and_ordering():
    net = Network.dc(3, ((1, 2), (2, 3)), [1.0, 2.0])
    n_l = np.max(np.abs(np.linalg.eigvalsh(laplacian(split_graphs(net)[0]))))
    states = StateSet.dc(np.full((4, 3), 1.0), np.zeros((4, 3)))
    vmin, vmax = 0.9, 1.1
    report = dc_bound_coarse(net, states, 0.3, vmin, vmax)
    assert report.bound_term == pytest.approx(vmax**2 * (1 - vmin) / vmin * n_l, rel=1e-12)
    flat = dc_bound_coarse(net, states, 0.3, 1.0, 1.0)
    assert flat.bound_term == 0.0


def test_coarse_dominates_fine():
    rng = np.random.default_rng(3)
    for _ in range(50):
        net = random_dc_network(rng, int(rng.integers(4, 9)))
        states = generate_voltage_driven(net, 8, seed=int(rng.integers(1 << 30)))
        fine = dc_bound(net, states, 0.4)
        coarse = dc_bound_coarse(net, states, 0.4, 0.9, 1.1)
        assert coarse.bound_term >= fine.bound_term - 1e-12
        assert coarse.bound_total >= fine.bound_total - 1e-12


def test_coarse_bound_input_validation():
    net = Network.dc(2, ((1, 2),), [1.0])
    states = flat_states(2, 2)
    with pytest.raises(ValueError):
        dc_bound_coarse(net, states, 0.1, 0.0, 1.1)
    with pytest.raises(ValueError):
        dc_bound_coarse(net, states, 0.1, 1.1, 1.2)  # vmin > 1
    narrow = StateSet.dc(np.full((2, 2), 1.3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dc_bound_coarse(net, narrow, 0.1, 0.9, 1.1)


def test_dc_bound_kind_mismatch():
    net = Network.ac(2, ((1, 2),), [1.0], [1.0])
    with pytest.raises(ValueError):
        dc_bound(net, flat_states(2, 2), 0.1)


def test_ac_delta_reduces_to_dc_factor_for_real_data():
    rng = np.random.default_rng(4)
    dc_net = random_dc_network(rng, 5)
    ac_net = Network.ac(5, dc_net.edges, dc_net.c, np.zeros(len(dc_net.edges)))
    e = rng.uniform(0.9, 1.1, (7, 5))
    z = np.zeros_like(e)
    ac_states = StateSet("ac", e, z, z, z)
    m, n = e.shape
    # with f = 0 and no susceptance only the conductance block term survives
    L = laplacian(split_graphs(dc_net)[0])
    expected = np.sqrt(m * n) * max(
        np.max(np.abs(np.linalg.eigvalsh(L * np.outer(row, row)))) for row in e
    )
    assert ac_delta(ac_net, ac_states) == pytest.approx(expected, rel=1e-12)


def test_ac_delta_scales_with_duplicated_states():
    rng = np.random.default_rng(5)
    net = random_ac_network(rng, 4)
    one = generate_voltage_driven(net, 1, seed=6)
    m = 9
    many = StateSet(
        "ac",
        np.repeat(one.e, m, axis=0),
        np.repeat(one.f, m, axis=0),
        np.repeat(one.p, m, axis=0),
        np.repeat(one.q, m, axis=0),
    )
    assert ac_delta(net, many) == pytest.approx(np.sqrt(m) * ac_delta(net, one), rel=1e-12)


def test_ac_bound_holds_on_verified_sparsifications():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 25:
        net = random_ac_network(rng, int(rng.integers(4, 8)))
        eps = float(rng.choice([0.5, 1.0]))
        out = sparsify_ac(net, eps, seed=int(rng.integers(1 << 30)))
        if not is_epsilon_approximation(net, out.graph, eps):
            continue
        checked += 1
        states = generate_voltage_driven(net, 15, seed=int(rng.integers(1 << 30)))
        report = ac_bound(net, states, eps)
        assert rms(out.graph, states) <= report.bound_total + 1e-9


def test_ac_delta_kind_mismatch():
    net = Network.dc(2, ((1, 2),), [1.0])
    with pytest.raises(ValueError):
        ac_delta(net, flat_states(2, 2))


BAD_EPS = [-1.0, np.nan, np.inf]


@pytest.mark.parametrize("eps", BAD_EPS)
def test_dc_bound_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite and non-negative"):
        dc_bound(Network.dc(2, ((1, 2),), [1.0]), flat_states(2, 2), eps)


@pytest.mark.parametrize("eps", BAD_EPS)
def test_coarse_bound_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite and non-negative"):
        dc_bound_coarse(Network.dc(2, ((1, 2),), [1.0]), flat_states(2, 2), eps, 0.9, 1.1)


@pytest.mark.parametrize("eps", BAD_EPS)
def test_ac_bound_rejects_bad_eps(eps):
    net = Network.ac(2, ((1, 2),), [1.0], [1.0])
    states = generate_voltage_driven(net, 3, seed=0)
    with pytest.raises(ValueError, match="eps must be finite and non-negative"):
        ac_bound(net, states, eps)
