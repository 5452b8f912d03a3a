"""Spectral sparsification by effective-resistance importance sampling.

Edges are sampled with replacement, with probability proportional to
conductance times effective resistance (the leverage).  Each drawn edge is
added with weight w/(t*p), summing over repeated draws, which makes the
expected output Laplacian equal the input one.  An output is a multiplicative
eps-approximation of the input with probability at least 1/2 for eps in
(0, 1] (1/4 for the per-graph AC split).

Leverages have a circuit meaning: the fraction of the end-to-end conductance
between an edge's endpoints carried by the edge itself.  They are 1 exactly
on bridges and sum to n minus the number of connected components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import DC, Edge, Network, laplacian, spectral_norm, split_graphs

PSD_TOL = 1e-9
KERNEL_RTOL = 1e-12


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

    def for_edge(self, j: int, k: int) -> tuple[float, float, float]:
        if j > k:
            j, k = k, j
        i = self.edges.index((j, k))
        return float(self.r_eff[i]), float(self.leverage[i]), float(self.p[i])


@dataclass(frozen=True, eq=False)
class SparsifyOutcome:
    """Result of one sparsification run."""

    graph: Network
    t: int

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges


def _pseudo_inverse(L: np.ndarray) -> np.ndarray:
    """Laplacian pseudoinverse by eigendecomposition with a kernel cut-off."""
    vals, vecs = np.linalg.eigh(L)
    scale = float(np.max(np.abs(vals), initial=0.0))
    if scale == 0.0:
        return np.zeros_like(L)
    inv = np.zeros_like(vals)
    keep = np.abs(vals) > KERNEL_RTOL * scale
    inv[keep] = 1.0 / vals[keep]
    return (vecs * inv) @ vecs.T


def effective_resistances(g: Network) -> EdgeStatistics:
    """Effective resistance and sampling statistics of the positive edges.

    Resistances come from the Laplacian pseudoinverse, so graphs that are
    disconnected on their positive support are handled per component.
    """
    pos = g.normalized()
    if not pos.edges:
        raise ValueError("graph has no positive-weight edge")
    Lp = _pseudo_inverse(laplacian(pos))
    idx = np.array([(j - 1, k - 1) for j, k in pos.edges])
    a, b = idx[:, 0], idx[:, 1]
    r = Lp[a, a] + Lp[b, b] - 2.0 * Lp[a, b]
    r = np.maximum(r, 0.0)
    leverage = pos.c * r
    p = leverage / leverage.sum()
    return EdgeStatistics(pos.edges, pos.c, r, leverage, p)


def sample_count(n: int, eps: float) -> int:
    """Number of draws, 8*n*ln(n)/eps^2 rounded up and at least 1."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return max(1, math.ceil(8.0 * n * math.log(n) / eps**2))


def sparsify_dc(g: Network, eps: float, seed=0) -> SparsifyOutcome:
    """Sample a reweighted subgraph of the positive-weight edges.

    Deterministic for a fixed seed.  Every output weight is
    count * w / (t * p) for its draw count, so the expectation over seeds of
    each output weight equals the input weight.
    """
    stats = effective_resistances(g)
    t = sample_count(g.n, eps)
    # the draw counts of t draws with replacement, in O(edges) memory and time
    counts = np.random.default_rng(seed).multinomial(t, stats.p)
    keep = counts > 0
    new_w = counts[keep] * stats.w[keep] / (t * stats.p[keep])
    edges = tuple(e for e, k in zip(stats.edges, keep) if k)
    return SparsifyOutcome(Network.dc(g.n, edges, new_w), t)


def sparsify_ac(net: Network, eps: float, seed=0) -> SparsifyOutcome:
    """Sparsify a network; AC conductance and susceptance graphs run separately.

    The output edge set is the union of the two kept sets; a weight missing
    from one side is zero-filled.  DC networks delegate straight to
    :func:`sparsify_dc`, with the same seed.
    """
    if net.kind == DC:
        return sparsify_dc(net, eps, seed)

    cg, sg = split_graphs(net)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    c_seed, s_seed = ss.spawn(2)
    sides: list[dict[Edge, float]] = []
    t = sample_count(net.n, eps)
    for graph, side_seed in ((cg, c_seed), (sg, s_seed)):
        if np.any(graph.c > 0):
            out = sparsify_dc(graph, eps, side_seed)
            sides.append(dict(zip(out.graph.edges, out.graph.c)))
        else:
            sides.append({})
    c_side, s_side = sides
    if not c_side and not s_side:
        raise ValueError("network has no positive-weight edge")
    edges = tuple(sorted(set(c_side) | set(s_side)))
    c = np.array([c_side.get(e, 0.0) for e in edges])
    s = np.array([s_side.get(e, 0.0) for e in edges])
    return SparsifyOutcome(Network.ac(net.n, edges, c, s), t)


def is_epsilon_approximation(
    net: Network, net2: Network, eps: float, tol: float = PSD_TOL
) -> bool:
    """Check the two-sided quadratic-form inequality between Laplacians.

    True iff (1+eps)*L - L' and L' - L/(1+eps) are both positive
    semidefinite, with eigenvalues allowed to dip to -tol*||L||.  On AC
    networks the conductance and the susceptance Laplacians must both pass.
    """
    if net.kind != net2.kind:
        raise ValueError("networks must share the kind")
    if net.n != net2.n:
        raise ValueError("graphs must share the vertex set")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    pairs = [(net, net2)] if net.kind == DC else zip(split_graphs(net), split_graphs(net2))
    for g, g2 in pairs:
        L = laplacian(g)
        L2 = laplacian(g2)
        slack = tol * spectral_norm(L)
        upper = (1.0 + eps) * L - L2
        lower = L2 - L / (1.0 + eps)
        if not (
            np.min(np.linalg.eigvalsh(upper)) >= -slack
            and np.min(np.linalg.eigvalsh(lower)) >= -slack
        ):
            return False
    return True
