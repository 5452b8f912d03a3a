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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_eps
from .network import DC, Edge, Network, _laplacian, spectral_norm

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


def _row_statistics(n: int, edges: tuple[Edge, ...], w: np.ndarray):
    """Mask of one weight row's positive entries, and their resistances,
    leverages and probabilities; zero entries add nothing to the Laplacian."""
    pos = w > 0
    Lp = _pseudo_inverse(_laplacian(n, edges, w))
    a, b = (np.array(edges).reshape(-1, 2)[pos] - 1).T
    r = np.maximum(Lp[a, a] + Lp[b, b] - 2.0 * Lp[a, b], 0.0)
    leverage = w[pos] * r
    return pos, r, leverage, leverage / leverage.sum()


def effective_resistances(g: Network) -> EdgeStatistics:
    """Effective resistance and sampling statistics of the positive edges.

    Resistances come from the Laplacian pseudoinverse, so graphs that are
    disconnected on their positive support are handled per component.
    """
    if g.kind != DC:
        raise ValueError("effective_resistances needs a DC network")
    if not np.any(g.c > 0):
        raise ValueError("graph has no positive-weight edge")
    pos, r, leverage, p = _row_statistics(g.n, g.edges, g.c)
    edges = tuple(e for e, k in zip(g.edges, pos) if k)
    return EdgeStatistics(edges, g.c[pos], r, leverage, p)


def sample_count(n: int, eps: float) -> int:
    """Number of draws, 8*n*ln(n)/eps^2 rounded up and at least 1.

    Raises ValueError when eps is not positive or the count reaches 2^63,
    which no int64 holds.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
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
    susceptances) takes t draws of its own: from ``seed`` on DC, from the two
    children of its SeedSequence on AC, conductances first.  A drawn entry
    becomes count * w / (t * p), so its expectation over seeds is w; an entry
    with no draws is 0.  The edges with any positive weight are kept, in
    input order.
    """
    t = sample_count(net.n, eps)
    if net.kind == DC:
        seeds = (seed, None)  # the susceptance row is all zero and draws nothing
    else:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        seeds = ss.spawn(2)
    out = np.zeros((2, len(net.edges)))
    for w, row_seed, new_w in zip((net.c, net.s), seeds, out):
        if not np.any(w > 0):
            continue
        pos, _, _, p = _row_statistics(net.n, net.edges, w)
        # the draw counts of t draws with replacement, in O(edges) memory and
        # time; p is 0 where a resistance clips to 0, so divide drawn entries only
        counts = np.random.default_rng(row_seed).multinomial(t, p)
        drawn = counts > 0
        at = np.flatnonzero(pos)[drawn]
        new_w[at] = counts[drawn] * w[at] / (t * p[drawn])
    keep = np.any(out > 0, axis=0)
    if not keep.any():
        raise ValueError("network has no positive-weight edge")
    edges = tuple(e for e, k in zip(net.edges, keep) if k)
    return SparsifyOutcome(Network(net.kind, net.n, edges, *out[:, keep]), t)


def is_epsilon_approximation(net: Network, net2: Network, eps: float) -> bool:
    """Check the two-sided quadratic-form inequality between Laplacians.

    True iff (1+eps)*L - L' and L' - L/(1+eps) are both positive
    semidefinite, with eigenvalues allowed to dip to -PSD_TOL*||L||.  On AC
    networks the conductance and the susceptance Laplacians must both pass.
    """
    if net.kind != net2.kind:
        raise ValueError("networks must share the kind")
    if net.n != net2.n:
        raise ValueError("graphs must share the vertex set")
    _check_eps(eps)
    rows = ((net.c, net2.c),) if net.kind == DC else ((net.c, net2.c), (net.s, net2.s))
    for w, w2 in rows:
        L = _laplacian(net.n, net.edges, w)
        L2 = _laplacian(net.n, net2.edges, w2)
        slack = PSD_TOL * spectral_norm(L)
        upper = (1.0 + eps) * L - L2
        lower = L2 - L / (1.0 + eps)
        if not (
            np.min(np.linalg.eigvalsh(upper)) >= -slack
            and np.min(np.linalg.eigvalsh(lower)) >= -slack
        ):
            return False
    return True
