"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from gridrecover.network import Network


def random_connected_graph(rng, n, extra_edges=4, wrange=(0.5, 10.0)) -> Network:
    """Random spanning tree plus chords; always connected."""
    edges: set[tuple[int, int]] = set()
    order = rng.permutation(n) + 1
    for i in range(1, n):
        a, b = int(order[rng.integers(0, i)]), int(order[i])
        edges.add((min(a, b), max(a, b)))
    target = min(n * (n - 1) // 2, n - 1 + extra_edges)
    while len(edges) < target:
        a, b = (int(x) for x in rng.integers(1, n + 1, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edge_tuple = tuple(sorted(edges))
    return Network.dc(n, edge_tuple, rng.uniform(*wrange, len(edge_tuple)))


def random_graph(rng, n, n_edges, wrange=(0.0, 10.0)) -> Network:
    """Random (possibly disconnected) graph, zero weights allowed."""
    all_edges = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    pick = rng.choice(len(all_edges), size=min(n_edges, len(all_edges)), replace=False)
    edges = tuple(all_edges[i] for i in sorted(pick))
    return Network.dc(n, edges, rng.uniform(*wrange, len(edges)))


def random_dc_network(rng, n, extra_edges=4, wrange=(0.5, 10.0)) -> Network:
    return random_connected_graph(rng, n, extra_edges, wrange)


def random_ac_network(rng, n, extra_edges=4, wrange=(0.5, 10.0)) -> Network:
    g = random_connected_graph(rng, n, extra_edges, wrange)
    s = rng.uniform(*wrange, len(g.edges))
    return Network.ac(n, g.edges, g.c, s)
