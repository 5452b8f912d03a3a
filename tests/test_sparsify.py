import math
import re
import sys

import numpy as np
import pytest

from gridrecover.builtins import small_ac, table1_dc
from gridrecover.network import Network, connectivity, split_graphs
from gridrecover.sparsify import (
    effective_resistances,
    is_epsilon_approximation,
    sample_count,
    sparsify_ac,
)
from helpers import random_connected_graph, random_graph
from oracles import resistance_by_grounded_solve, sparsify_eager, sparsify_two_graphs

TRIANGLE = Network.dc(3, ((1, 2), (1, 3), (2, 3)), np.ones(3))


def test_triangle_statistics():
    stats = effective_resistances(TRIANGLE)
    assert np.allclose(stats.r_eff, 2.0 / 3.0, atol=1e-12)
    assert np.allclose(stats.leverage, 2.0 / 3.0, atol=1e-12)
    assert np.allclose(stats.p, 1.0 / 3.0, atol=1e-12)


def test_bridges_have_unit_leverage():
    g = split_graphs(table1_dc())[0]
    stats = effective_resistances(g)
    for bridge in ((3, 4), (4, 5), (4, 6)):
        assert stats.leverage[stats.edges.index(bridge)] == pytest.approx(1.0, abs=1e-9)


def test_resistances_match_grounded_solve_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 12)))
        stats = effective_resistances(g)
        for (j, k), r in zip(stats.edges, stats.r_eff):
            assert r == pytest.approx(resistance_by_grounded_solve(g, j, k), abs=1e-9)


def test_leverage_sum_identity_random_graphs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(3, 21))
        g = random_graph(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)), wrange=(0.1, 50.0))
        if not np.any(g.c > 0):
            continue
        stats = effective_resistances(g)
        comps = int(connectivity(g).max()) + 1
        assert stats.leverage.sum() == pytest.approx(n - comps, abs=1e-9)
        assert stats.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_leverage_bounds_and_bridge_characterization():
    rng = np.random.default_rng(2)
    for _ in range(15):
        g = random_connected_graph(rng, 8, extra_edges=3)
        stats = effective_resistances(g)
        assert np.all(stats.leverage >= -1e-12)
        assert np.all(stats.leverage <= 1 + 1e-12)
        comps = int(connectivity(g).max()) + 1
        for i, (j, k) in enumerate(stats.edges):
            without = Network.dc(
                g.n,
                tuple(e for e in stats.edges if e != (j, k)),
                np.array([w for e, w in zip(stats.edges, stats.w) if e != (j, k)]),
            )
            creates_cut = (int(connectivity(without).max()) + 1) > comps
            assert creates_cut == (abs(stats.leverage[i] - 1.0) < 1e-9)


def test_effective_resistances_requires_positive_edge():
    with pytest.raises(ValueError):
        effective_resistances(Network.dc(3, ((1, 2),), [0.0]))


def test_effective_resistances_rejects_an_ac_network():
    with pytest.raises(ValueError, match="effective_resistances needs a DC network, got ac"):
        effective_resistances(Network.ac(2, ((1, 2),), [1.0], [1.0]))


def test_sample_count_formula():
    assert sample_count(6, 1.0) == math.ceil(8 * 6 * math.log(6))
    assert sample_count(6, 0.1) == math.ceil(8 * 6 * math.log(6) / 0.01)
    assert sample_count(1, 5.0) == 1
    assert sample_count(6, math.sqrt(sys.float_info.max)) == 1  # the largest eps with a finite square
    # an eps whose square overflows takes the formula's limit
    assert sample_count(6, 1.5e154) == 1
    assert sample_count(6, sys.float_info.max) == 1
    with pytest.raises(ValueError):
        sample_count(5, 0.0)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps must be positive"):
            sample_count(5, eps)


@pytest.mark.parametrize("n", [True, 6.5, "6", None])
def test_sample_count_rejects_a_node_count_that_is_not_an_integer(n):
    # n goes through _integral before the formula, so True is not taken as 1
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        sample_count(n, 0.5)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_count_rejects_a_node_count_below_1(n):
    # ln(n) is undefined there: the count names n, not the math domain
    with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
        sample_count(n, 0.5)


def test_sample_count_past_int64_names_eps_and_n():
    # 8 * 6 * ln 6 / eps^2 = 86 / eps^2 crosses 2^63 (~9.2e18) near eps = 3.05e-9
    assert sample_count(6, 3.1e-9) < 2**63
    for eps in (3.0e-9, 1e-200):  # 1e-200 squared underflows to 0
        with pytest.raises(ValueError, match=f"eps={eps:.3g} at n=6 .* more than 2\\^63"):
            sample_count(6, eps)


def test_single_edge_graph_reproduces_weight_exactly():
    g = Network.dc(2, ((1, 2),), [7.5])
    out = sparsify_ac(g, 1.0, seed=0)
    assert out.graph.edges == ((1, 2),)
    assert out.graph.c[0] == pytest.approx(7.5, abs=1e-12)


def test_sparsify_tiny_eps_keeps_every_edge_near_its_weight():
    # t is about 2.6e13 draws: their counts must come without a draw array
    g = Network.dc(3, ((1, 2), (1, 3), (2, 3)), [1.0, 2.0, 3.0])
    out = sparsify_ac(g, 1e-6, seed=0)
    assert out.t > 10**13
    assert out.graph.edges == g.edges
    assert np.allclose(out.graph.c, g.c, rtol=1e-4, atol=0.0)


def test_sparsify_deterministic_and_subset():
    g = split_graphs(table1_dc())[0]
    a = sparsify_ac(g, 1.0, seed=3)
    b = sparsify_ac(g, 1.0, seed=3)
    assert a.graph == b.graph
    assert set(a.graph.edges) <= set(g.edges)
    assert np.all(a.graph.c > 0)


def test_sparsify_unbiased_on_triangle():
    total = np.zeros(3)
    trials = 2000
    for seed in range(trials):
        out = sparsify_ac(TRIANGLE, 1.0, seed=seed)
        for e, w in zip(out.graph.edges, out.graph.c):
            total[TRIANGLE.edges.index(e)] += w
    assert np.allclose(total / trials, 1.0, rtol=0.05)


def test_sparsify_keeps_bridges_drops_weak_shorted_edge():
    g = split_graphs(table1_dc())[0]
    present_34 = 0
    absent_12 = 0
    for seed in range(1000):
        edges = sparsify_ac(g, 1.0, seed=seed).graph.edges
        present_34 += (3, 4) in edges
        absent_12 += (1, 2) not in edges
    assert present_34 >= 990
    assert absent_12 >= 500


def test_sparsify_zero_weight_edges_never_sampled():
    g = Network.dc(3, ((1, 2), (2, 3), (1, 3)), [1.0, 1.0, 0.0])
    for seed in range(50):
        assert (1, 3) not in sparsify_ac(g, 0.5, seed=seed).graph.edges


def test_sparsify_ac_dc_kind_delegates():
    net = table1_dc()
    out_net = sparsify_ac(net, 1.0, seed=5)
    out_graph = sparsify_two_graphs(split_graphs(net)[0], 1.0, seed=5)
    assert isinstance(out_net.graph, Network)
    assert out_net.t == out_graph.t
    assert out_net.graph.edges == out_graph.graph.edges
    assert np.array_equal(out_net.graph.c, out_graph.graph.c)
    assert np.all(out_net.graph.s == 0)


def test_sparsify_ac_without_susceptance_uses_conductance_side_only():
    net = Network.ac(3, ((1, 2), (2, 3)), [1.0, 2.0], [0.0, 0.0])
    out = sparsify_ac(net, 0.5, seed=1)
    assert np.all(out.graph.s == 0)
    assert len(out.graph.edges) >= 1


def test_sparsify_ac_susceptance_only_network():
    net = Network.ac(3, ((1, 2), (2, 3)), [0.0, 0.0], [1.0, 2.0])
    out = sparsify_ac(net, 0.5, seed=2)
    assert np.all(out.graph.c == 0)
    assert len(out.graph.edges) >= 1
    with pytest.raises(ValueError):
        sparsify_ac(Network.ac(2, ((1, 2),), [0.0], [0.0]), 0.5, seed=0)


def test_sparsify_ac_zero_fills_single_sided_edges():
    rng = np.random.default_rng(3)
    found = False
    net = small_ac(seed=1)
    for seed in range(100):
        out = sparsify_ac(net, 1.0, seed=seed)
        single = (out.graph.c == 0) | (out.graph.s == 0)
        if np.any(single):
            found = True
            assert np.all((out.graph.c + out.graph.s)[single] > 0)
            break
    assert found, "no seed produced a one-sided edge at eps=1"


def _random_network(rng, shape: str) -> Network:
    """Random edges of 2..7 nodes in shuffled order, about a third of the
    weights zero; ``shape`` is dc, ac, c_only or s_only."""
    n = int(rng.integers(2, 8))
    pool = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    pick = rng.permutation(len(pool))[: int(rng.integers(1, len(pool) + 1))]
    edges = tuple(pool[i] for i in pick)
    c, s = rng.uniform(0.1, 10.0, (2, len(edges))) * (rng.random((2, len(edges))) > 0.3)
    if shape == "dc":
        return Network.dc(n, edges, c)
    c *= shape != "s_only"
    s *= shape != "c_only"
    return Network.ac(n, edges, c, s)


def _outcome_or_error(sparsify, net, eps, seed):
    try:
        return sparsify(net, eps, seed), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("net", [small_ac(0), table1_dc()], ids=["ac", "dc"])
def test_sparsify_ac_leaves_a_seed_sequence_as_it_was(net):
    ss = np.random.SeedSequence(5)
    ss.spawn(1)  # a sequence that has spawned before
    first, second = (sparsify_ac(net, 0.5, ss) for _ in range(2))
    assert ss.n_children_spawned == 1
    assert first.edges == second.edges
    g, h = first.graph, second.graph
    assert g.c.tobytes() == h.c.tobytes() and g.s.tobytes() == h.s.tobytes()


def test_sparsify_ac_draws_past_32_bits_of_children():
    # numpy counts children in a uint32, and no draw takes a child, so a
    # sequence at the end of that count draws, and is left as it was
    ss = np.random.SeedSequence(9, n_children_spawned=2**32 - 1)
    pool = ss.pool.tobytes()
    for net in (small_ac(0), table1_dc()):
        assert sparsify_ac(net, 0.5, ss).t >= 1
    assert ss.n_children_spawned == 2**32 - 1 and ss.pool.tobytes() == pool


@pytest.mark.parametrize("net", [small_ac(0), table1_dc()], ids=["ac", "dc"])
def test_sparsify_ac_takes_a_generator_as_its_default_rng(net):
    # a Generator is drawn from as default_rng(seed) would draw, and advanced
    rng = np.random.default_rng(5)
    got, want = sparsify_ac(net, 0.5, rng), sparsify_ac(net, 0.5, 5)
    assert got.edges == want.edges and got.t == want.t
    g, h = got.graph, want.graph
    assert g.c.tobytes() == h.c.tobytes() and g.s.tobytes() == h.s.tobytes()
    assert rng.bit_generator.state != np.random.default_rng(5).bit_generator.state


@pytest.mark.parametrize("as_sequence", [False, True])
@pytest.mark.parametrize("shape", ["dc", "ac", "c_only", "s_only"])
def test_sparsify_ac_matches_two_graph_oracle(shape, as_sequence):
    rng = np.random.default_rng(["dc", "ac", "c_only", "s_only"].index(shape) + 10 * as_sequence)
    errors = 0
    for _ in range(60):
        net = _random_network(rng, shape)
        eps = float(rng.uniform(0.05, 2.0))
        entropy = int(rng.integers(2**32))
        # neither side advances a SeedSequence seed, so both can take the same one
        seed = np.random.SeedSequence(entropy) if as_sequence else entropy
        out, err = _outcome_or_error(sparsify_ac, net, eps, seed)
        ref, ref_err = _outcome_or_error(sparsify_two_graphs, net, eps, seed)
        if ref_err is not None:
            errors += 1
            # a DC network with no positive weight now reads "network", as AC did
            assert err == ref_err.replace("graph has", "network has")
            continue
        assert err is None and out.t == ref.t
        g, h = out.graph, ref.graph
        assert g.kind == net.kind
        # kept edges stay in input order; the two-graph merge sorted them
        assert g.edges == tuple(e for e in net.edges if e in set(h.edges))
        assert dict(zip(g.edges, zip(g.c, g.s))) == dict(zip(h.edges, zip(h.c, h.s)))
        if g.edges == h.edges:
            assert np.array_equal(g.c, h.c) and np.array_equal(g.s, h.s)
        assert np.all(g.c >= 0) and np.all(g.s >= 0) and np.all((g.c > 0) | (g.s > 0))
    assert 0 < errors < 60


@pytest.mark.parametrize("shape", ["dc", "ac", "c_only", "s_only"])
def test_sparsify_ac_weights_read_later_are_the_weights_of_the_draw(shape):
    # the outcome keeps the drawn edges and derives c and s when first read:
    # the same bits as weights computed at the draw, kept where positive
    rng = np.random.default_rng(["dc", "ac", "c_only", "s_only"].index(shape) + 40)
    for _ in range(60):
        net = _random_network(rng, shape)
        eps, seed = float(rng.uniform(0.05, 2.0)), int(rng.integers(2**32))
        out, err = _outcome_or_error(sparsify_ac, net, eps, seed)
        ref, ref_err = _outcome_or_error(sparsify_eager, net, eps, seed)
        assert err == ref_err
        if err is None:
            assert out.edges == ref.edges and out.t == ref.t
            g = out.graph
            assert g.c.tobytes() == ref.c.tobytes() and g.s.tobytes() == ref.s.tobytes()
            assert g == ref.graph


@pytest.mark.parametrize("net", [small_ac(0), table1_dc()], ids=["ac", "dc"])
def test_sparsify_ac_weights_are_the_read_only_weights_of_its_graph(net):
    g = sparsify_ac(net, 0.5, 3).graph
    for w in (g.c, g.s):
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0] = -5.0
    assert np.all(g.c >= 0) and np.all(g.s >= 0)


@pytest.mark.parametrize(
    "net, eps",
    [
        (Network.dc(3, ((1, 2),), [0.0]), 1.0),
        (Network.ac(2, ((1, 2),), [0.0], [0.0]), 1.0),
        (TRIANGLE, 1e-9),
        (small_ac(seed=1), 3e-9),
    ],
)
def test_sparsify_errors_match_two_graph_oracle(net, eps):
    _, err = _outcome_or_error(sparsify_ac, net, eps, 0)
    _, ref_err = _outcome_or_error(sparsify_two_graphs, net, eps, 0)
    assert ref_err is not None
    assert err == ref_err.replace("graph has", "network has")


def test_is_epsilon_approximation_identity_and_boundary():
    g = random_connected_graph(np.random.default_rng(4), 6)
    assert is_epsilon_approximation(g, g, 0.0)
    scaled = Network.dc(g.n, g.edges, 1.5 * g.c)
    assert is_epsilon_approximation(g, scaled, 0.5)
    assert not is_epsilon_approximation(g, scaled, 0.4999)
    as_ac = Network.ac(g.n, g.edges, g.c, g.c)
    with pytest.raises(ValueError, match="kind"):
        is_epsilon_approximation(g, as_ac, 1.0)
    with pytest.raises(ValueError, match="vertex set"):
        is_epsilon_approximation(g, Network.dc(g.n + 1, g.edges, g.c), 1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_is_epsilon_approximation_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match=f"eps must be finite and non-negative, got {eps}"):
        is_epsilon_approximation(TRIANGLE, TRIANGLE, eps)


def test_is_epsilon_approximation_fails_without_bridge():
    g = split_graphs(table1_dc())[0]
    keep = [e != (3, 4) for e in g.edges]
    cut = Network.dc(g.n, tuple(e for e, k in zip(g.edges, keep) if k), g.c[np.array(keep)])
    for eps in (0.1, 1.0, 10.0, 1000.0):
        assert not is_epsilon_approximation(g, cut, eps)


def test_epsilon_approximation_success_rates():
    g = split_graphs(table1_dc())[0]
    hits = sum(
        is_epsilon_approximation(g, sparsify_ac(g, 1.0, seed).graph, 1.0)
        for seed in range(400)
    )
    assert hits >= 180  # guaranteed rate is 1/2; observed is far higher

    net = small_ac(seed=2)
    ac_hits = sum(
        is_epsilon_approximation(net, sparsify_ac(net, 1.0, seed).graph, 1.0)
        for seed in range(400)
    )
    assert ac_hits >= 100  # guaranteed rate is 1/4


def test_expected_weight_identity_per_draw():
    # every kept weight is count * w / (t p): check the reweighting directly
    g = TRIANGLE
    out = sparsify_ac(g, 2.0, seed=9)
    stats = effective_resistances(g)
    for e, w in zip(out.graph.edges, out.graph.c):
        i = stats.edges.index(e)
        unit = stats.w[i] / (out.t * stats.p[i])
        assert w / unit == pytest.approx(round(w / unit), abs=1e-9)
