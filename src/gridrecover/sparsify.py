"""Spectral sparsification by effective-resistance importance sampling.

Edges are sampled with replacement, with probability proportional to
conductance times effective resistance (the leverage).  Each drawn edge is
added with weight w/(t*p), summing over repeated draws, which makes the
expected output Laplacian equal the input one.  An AC network has two weight
rows, conductances and susceptances, and each is sampled on its own.  An
output is a multiplicative eps-approximation of the input with probability at
least 1/2 for eps in (0, 1] (1/4 on AC, where both rows must pass).

Leverages have a circuit meaning: the fraction of the end-to-end conductance
between an edge's endpoints carried by the edge itself.  They are 1 exactly
on bridges and sum to n minus the number of connected components.

The statistics of a network depend on nothing but the network, which is
immutable, so they are computed once per ``Network`` object and kept on it:
the recovery loop samples one held network again and again until it accepts
another.  A sample is its draw counts and the edges they keep.  The sampled
``Network`` (``SparsifyOutcome.graph``), whose weights are the sample's, is
built from the counts when first read; the recovery loop reads only the
edges, so a draw it does not accept builds no weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .network import DC, Edge, Network, _finite_non_negative, _integral, _laplacian, _real, laplacian, spectral_norm, split_graphs

PSD_TOL = 1e-9
KERNEL_RTOL = 1e-12
WEIGHT_ROWS = ("conductance", "susceptance")  # the names of the weight rows c and s


@dataclass(frozen=True, eq=False)
class EdgeStatistics:
    """Per-edge effective resistance, leverage, and sampling probability.

    Covers the positive-weight edges of the graph it was computed from;
    zero-weight edges never enter the sampling distribution.
    """

    edges: tuple[Edge, ...]
    w: np.ndarray
    r_eff: np.ndarray
    leverage: np.ndarray
    p: np.ndarray


@dataclass(frozen=True, eq=False)
class SparsifyOutcome:
    """Result of one sparsification run: the kept edges of a ``kind`` network
    on nodes 1..n, in input order, and the number of draws t per weight row.

    An edge is kept when a row drew it at least once.  In the sampled
    network, ``graph``, which is built from the draw counts when it is first
    read, its conductance and susceptance are count * w / (t * p) of each
    row that drew it and 0 for a row that did not."""

    kind: str
    n: int
    edges: tuple[Edge, ...]
    t: int
    # (row index, positions, statistics, counts) of each sampled weight row,
    # positions and counts over the row's positive entries
    _draws: tuple = field(repr=False)
    _keep: np.ndarray = field(repr=False)  # the kept edges, as a mask over the input's

    @cached_property
    def graph(self) -> Network:
        """The sampled network, its weights computed from the counts on first read."""
        w = np.zeros((2, len(self._keep)))
        for i, at, row, counts in self._draws:
            # p is 0 where a resistance clips to 0, so divide drawn entries only
            drawn = counts > 0
            w[i, at[drawn]] = counts[drawn] * row.w[drawn] / (self.t * row.p[drawn])
        return Network._derived(self.kind, self.n, self.edges, *w[:, self._keep])


def _pseudo_inverse(L: np.ndarray) -> np.ndarray:
    """Laplacian pseudoinverse by eigendecomposition with a kernel cut-off."""
    vals, vecs = np.linalg.eigh(L)
    scale = float(np.max(np.abs(vals), initial=0.0))
    inv = np.zeros_like(vals)
    keep = np.abs(vals) > KERNEL_RTOL * scale
    inv[keep] = 1.0 / vals[keep]
    return (vecs * inv) @ vecs.T


def _row_statistics(n: int, edges: tuple[Edge, ...], w: np.ndarray):
    """Positions of one weight row's positive entries, and their statistics;
    zero entries add nothing to the Laplacian."""
    at = np.flatnonzero(w > 0)
    Lp = _pseudo_inverse(_laplacian(n, edges, w))
    a, b = (np.array(edges).reshape(-1, 2)[at] - 1).T
    r = np.maximum(Lp[a, a] + Lp[b, b] - 2.0 * Lp[a, b], 0.0)
    leverage = w[at] * r
    stats = EdgeStatistics(tuple(edges[i] for i in at), w[at], r, leverage, leverage / leverage.sum())
    for array in (at, stats.w, stats.r_eff, stats.leverage, stats.p):
        array.setflags(write=False)  # shared by every later call on the network
    return at, stats


def _statistics(net: Network) -> dict[str, tuple[np.ndarray, EdgeStatistics]]:
    """:func:`_row_statistics` of each weight row with a positive entry, by
    row name, conductances first; computed on the first call and kept on the
    network for every later one."""
    stats = net.__dict__.get("_sampling")
    if stats is None:
        stats = {
            label: _row_statistics(net.n, net.edges, w)
            for label, w in zip(WEIGHT_ROWS, (net.c, net.s))
            if np.any(w > 0)
        }
        object.__setattr__(net, "_sampling", stats)
    return stats


def row_statistics(net: Network) -> dict[str, EdgeStatistics]:
    """Statistics of each weight row with a positive entry, the rows that
    :func:`sparsify_ac` samples, by row name: "conductance", then
    "susceptance"."""
    return {label: stats for label, (_, stats) in _statistics(net).items()}


def effective_resistances(g: Network) -> EdgeStatistics:
    """Effective resistance and sampling statistics of the positive edges.

    Resistances come from the Laplacian pseudoinverse, so graphs that are
    disconnected on their positive support are handled per component.
    """
    if g.kind != DC:
        raise ValueError(f"effective_resistances needs a DC network, got {g.kind}")
    if not np.any(g.c > 0):
        raise ValueError("graph has no positive-weight edge")
    return row_statistics(g)["conductance"]


def sample_count(n: int, eps: float) -> int:
    """Number of draws, 8*n*ln(n)/eps^2 rounded up and at least 1.

    An eps whose square overflows a float, above about 1.34e154, takes the
    formula's limit, 1 draw.  Raises ValueError when n is not an integer of
    at least 1, when eps is not a number or not positive and finite, or
    when the count reaches 2^63, which no int64 holds.
    """
    n, eps = _integral(n, "n"), _real(eps, "eps")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if eps > math.sqrt(np.finfo(float).max):  # eps**2 overflows: the formula's limit
        return 1
    # eps**2 underflows to 0 for eps below ~1e-162, far past the cap anyway
    draws = 8.0 * n * math.log(n) / eps**2 if eps**2 > 0 else math.inf
    if not draws < 2.0**63:
        raise ValueError(
            f"eps={eps:.3g} at n={n} needs 8 n ln(n) / eps^2 = {draws:.3g} draws,"
            " more than 2^63"
        )
    return max(1, math.ceil(draws))


def sparsify_ac(net: Network, eps: float, seed=0) -> SparsifyOutcome:
    """Sample a reweighted subnetwork of the positive-weight edges.

    Each weight row with a positive entry (conductances, and on AC networks
    susceptances) takes t draws of its own, in that order, from one
    ``default_rng(seed)``.  An int, a list of ints or a SeedSequence as
    ``seed`` gives the same draws on every call, and a SeedSequence is not
    advanced; a Generator is drawn from and advanced, as numpy's own
    functions do.  A drawn entry becomes count * w / (t * p), so its
    expectation over seeds is w; an entry with no draws is 0.  The edges
    drawn by either row are kept, in input order.  The draw is made here;
    the sampled network and its weights are derived from its counts when
    the outcome's ``graph`` is first read.
    """
    t = sample_count(net.n, eps)
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(net.edges), dtype=bool)
    draws = []
    stats = _statistics(net)
    for i, label in enumerate(WEIGHT_ROWS):
        if label not in stats:
            continue
        at, row = stats[label]
        # the draw counts of t draws with replacement, in O(edges) memory and
        # time; they sum to t >= 1, and a drawn entry's weight is at least
        # w / t, positive unless w is within a factor t of the smallest double
        counts = rng.multinomial(t, row.p)
        keep[at[counts > 0]] = True
        draws.append((i, at, row, counts))
    if not draws:
        raise ValueError("network has no positive-weight edge")
    return SparsifyOutcome(net.kind, net.n, tuple(compress(net.edges, keep)), t, tuple(draws), keep)


def is_epsilon_approximation(net: Network, net2: Network, eps: float) -> bool:
    """Check the two-sided quadratic-form inequality between Laplacians.

    True iff (1+eps)*L - L' and L' - L/(1+eps) are both positive
    semidefinite, with eigenvalues allowed to dip to -PSD_TOL*||L||.  The
    conductance and the susceptance Laplacians (:func:`split_graphs`) must
    both pass; a DC network's susceptance pair is all zero and passes.
    """
    if net.kind != net2.kind:
        raise ValueError("networks must share the kind")
    if net.n != net2.n:
        raise ValueError("graphs must share the vertex set")
    _finite_non_negative(eps, "eps")
    for g, g2 in zip(split_graphs(net), split_graphs(net2)):
        L, L2 = laplacian(g), laplacian(g2)
        slack = PSD_TOL * spectral_norm(L)
        upper = (1.0 + eps) * L - L2
        lower = L2 - L / (1.0 + eps)
        if not (
            np.min(np.linalg.eigvalsh(upper)) >= -slack
            and np.min(np.linalg.eigvalsh(lower)) >= -slack
        ):
            return False
    return True
