"""Shipped example networks and their data-generation scenarios.

These cover the reproducible experiment families: the 6-node DC network with
three bridges and a weight spread of two orders of magnitude, a 14-node DC
network on the Heawood topology with randomized conductances, the 3-node path
with a silent middle node (whose complete-graph fit is degenerate), and a
small AC ring with a degree-2 zero-injection node that admits an exact series
collapse.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .network import Network
from .states import Scenario

TABLE1_EDGES = ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6))
TABLE1_CONDUCTANCES = (0.5799, 75.980, 75.979, 0.4698, 94.599, 79.909)

# Heawood graph: 14-cycle plus the chords of the [5, -5]^7 LCF code.
HEAWOOD_EDGES = tuple(
    [(i, i + 1) for i in range(1, 14)]
    + [(1, 14)]
    + [(1, 6), (3, 8), (5, 10), (7, 12), (9, 14), (2, 11), (4, 13)]
)

SMALL_AC_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4))
SMALL_AC_ZERO_NODE = 3  # degree 2, so its two edges admit a series collapse

WEIGHT_RANGE = (0.5, 100.0)  # uniform range of the randomized builtin weights


def table1_dc() -> Network:
    """Six nodes: a weakly shorted triangle feeding three bridges."""
    return Network.dc(6, TABLE1_EDGES, TABLE1_CONDUCTANCES)


def heawood_dc(seed=0) -> Network:
    """Heawood topology (14 nodes, 21 edges) with uniform random conductances."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(*WEIGHT_RANGE, size=len(HEAWOOD_EDGES))
    return Network.dc(14, HEAWOOD_EDGES, c)


def path3_dc() -> Network:
    """Three-node path; with no injection at node 2 the complete-graph fit
    has a whole segment of exact solutions."""
    return Network.dc(3, ((1, 2), (2, 3)), (2.0, 3.0))


def small_ac(seed=0) -> Network:
    """Six-node AC ring plus one chord, random conductances and susceptances."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(*WEIGHT_RANGE, size=len(SMALL_AC_EDGES))
    s = rng.uniform(*WEIGHT_RANGE, size=len(SMALL_AC_EDGES))
    return Network.ac(6, SMALL_AC_EDGES, c, s)


# name -> (network from a seed, data-sampling scenario).  Node 1, the slack,
# feeds the network; every other node draws a uniform load.  The load
# ranges are chosen to keep voltages within states.VOLTAGE_RANGE; they are
# documented here rather than taken from any external protocol.
BUILTINS = {
    # the 0.47-conductance bridge feeds three nodes; bigger loads than this
    # push its voltage drop past the 0.9 floor
    "table1_dc": (lambda seed: table1_dc(), Scenario(p_range=(-0.015, 0.0))),
    "heawood_dc": (heawood_dc, Scenario(p_range=(-0.1, 0.0))),
    "path3_dc": (lambda seed: path3_dc(), Scenario(zero=(2,), p_range=(-0.1, -0.01))),
    "small_ac": (
        small_ac,
        Scenario(zero=(SMALL_AC_ZERO_NODE,), p_range=(-0.1, 0.0), q_range=(-0.05, 0.05)),
    ),
}


def _builtin(name: str):
    try:
        return BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; choose from {tuple(BUILTINS)}") from None


def builtin_network(name: str, seed=0) -> Network:
    return _builtin(name)[0](seed)


def builtin_scenario(name: str, sigma: float = 0.0) -> Scenario:
    """Data-sampling scenario of the named builtin, with noise stddev ``sigma``."""
    return replace(_builtin(name)[1], sigma=sigma)
