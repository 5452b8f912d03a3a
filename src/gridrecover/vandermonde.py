"""Design-matrix assembly for power-flow parameter fitting.

For a candidate edge set E and a data set of m states, the stacked
coefficient matrix has one row per power-flow equation per state and one
column per edge parameter; multiplying it by a parameter vector and
subtracting the stacked injection vector reproduces every residual.  DC
systems are nm x |E| with entries e_j*(e_j - e_k); AC systems are
2nm x 2|E| with 2x2 blocks [[a, -b], [b, a]] built from
a = e_j^2 + f_j^2 - e_j*e_k - f_j*f_k and b = e_j*f_k - e_k*f_j.

Column layout: the edges are sorted lexicographically; a DC system has one
column per edge, an AC system two, the conductance c then the susceptance s,
so column 2t is c and column 2t + 1 is s of edge t.  The layout is
deterministic across runs, a subset system is exactly a column restriction
of a larger one, and only this module decodes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .network import DC, Edge, Network, _canonical_edges
from .states import StateSet

RANK_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class VandermondeSystem:
    """Assembled system: matrix, response vector, and its sorted edges."""

    kind: str
    n: int
    matrix: np.ndarray
    rhs: np.ndarray
    edges: tuple[Edge, ...]

    def __post_init__(self):
        self.matrix.flags.writeable = False
        self.rhs.flags.writeable = False


def _sorted_edges(n: int, edges: Iterable[Edge]) -> tuple[Edge, ...]:
    canon = _canonical_edges(n, edges)
    if not canon:
        raise ValueError("edge set must be nonempty")
    return tuple(sorted(canon))


def assemble(edges: Iterable[Edge], states: StateSet) -> VandermondeSystem:
    """Stack the per-state blocks over the whole data set.

    For any parameter vector w laid out per the column layout,
    ``matrix @ w - rhs`` equals the residual vector of the corresponding
    network on these states.  The matrix is column-major: the solver gathers
    column subsets of it.  Raises ValueError naming the 1-based state and
    node when an entry overflows to a non-finite value.
    """
    edges = _sorted_edges(states.n, edges)
    E, F = states.e, states.f
    m, n = E.shape
    if states.kind == DC:
        M = np.zeros((n * m, len(edges)), order="F")
        base = np.arange(m) * n
        for t, (j, k) in enumerate(edges):
            a, b = j - 1, k - 1
            M[base + a, t] = E[:, a] * E[:, a] - E[:, a] * E[:, b]
            M[base + b, t] = E[:, b] * E[:, b] - E[:, b] * E[:, a]
        rhs = states.p.ravel().copy()
    else:
        M = np.zeros((2 * n * m, 2 * len(edges)), order="F")
        base = np.arange(m) * 2 * n
        for t, (j, k) in enumerate(edges):
            a, b = j - 1, k - 1
            ea, eb, fa, fb = E[:, a], E[:, b], F[:, a], F[:, b]
            alpha_jk = ea * ea + fa * fa - ea * eb - fa * fb
            alpha_kj = eb * eb + fb * fb - eb * ea - fb * fa
            beta_jk = ea * fb - eb * fa
            M[base + 2 * a, 2 * t] = alpha_jk
            M[base + 2 * a, 2 * t + 1] = -beta_jk
            M[base + 2 * a + 1, 2 * t] = beta_jk
            M[base + 2 * a + 1, 2 * t + 1] = alpha_jk
            M[base + 2 * b, 2 * t] = alpha_kj
            M[base + 2 * b, 2 * t + 1] = beta_jk
            M[base + 2 * b + 1, 2 * t] = -beta_jk
            M[base + 2 * b + 1, 2 * t + 1] = alpha_kj
        out = np.empty((m, 2 * n))
        out[:, 0::2] = states.p
        out[:, 1::2] = states.q
        rhs = out.ravel()
    # min/max propagate nan and expose +-inf without a full-size temporary
    if not (np.isfinite(M.min()) and np.isfinite(M.max())):
        row = int(np.argwhere(~np.isfinite(M))[0, 0])
        per_state = M.shape[0] // m
        state, node = divmod(row, per_state)
        node //= per_state // n
        raise ValueError(
            f"state {state + 1}, node {node + 1}: design-matrix entry overflows to a"
            " non-finite value; rescale the data"
        )
    return VandermondeSystem(states.kind, n, M, rhs, edges)


def restrict(system: VandermondeSystem, edges: Iterable[Edge]) -> VandermondeSystem:
    """Column restriction to a subset of edges; identical to re-assembling,
    memory order included."""
    sub = _sorted_edges(system.n, edges)
    position = {e: t for t, e in enumerate(system.edges)}
    missing = [e for e in sub if e not in position]
    if missing:
        raise ValueError(f"edges {missing} not present in the system")
    idx = np.array([position[e] for e in sub])
    if system.kind != DC:
        idx = np.column_stack((2 * idx, 2 * idx + 1)).ravel()
    # a column gather is column-major like assemble's output, so BLAS sums a
    # restriction's products in the same order as a re-assembled system's
    return VandermondeSystem(system.kind, system.n, system.matrix[:, idx], system.rhs, sub)


def condition_number(system) -> float:
    """sigma_max / sigma_min; +inf when rank-deficient, i.e. sigma_min < RANK_RTOL * sigma_max."""
    A = system.matrix if isinstance(system, VandermondeSystem) else np.asarray(system)
    sv = np.linalg.svd(A, compute_uv=False)
    smax = float(sv[0])
    if smax == 0.0:
        return float("inf")
    smin = float(sv[-1])
    if smin / smax < RANK_RTOL:
        return float("inf")
    return smax / smin


def parameter_vector(net: Network, edges: Iterable[Edge] | None = None) -> np.ndarray:
    """Network weights laid out in the column order of :func:`assemble`.

    Edges absent from the network contribute zeros.
    """
    edges = _sorted_edges(net.n, net.edges if edges is None else edges)
    idx = [net.edge_index(*e) if net.has_edge(*e) else None for e in edges]
    c = np.array([0.0 if i is None else net.c[i] for i in idx])
    if net.kind == DC:
        return c
    w = np.empty(2 * len(edges))
    w[0::2] = c
    w[1::2] = [0.0 if i is None else net.s[i] for i in idx]
    return w


def network_from_columns(system: VandermondeSystem, w: np.ndarray) -> Network:
    """Inverse of :func:`parameter_vector`: the network a solution describes."""
    w = np.asarray(w, dtype=float)
    if w.shape != (system.matrix.shape[1],):
        raise ValueError("solution length must match the system's columns")
    if system.kind == DC:
        return Network.dc(system.n, system.edges, w)
    return Network.ac(system.n, system.edges, w[0::2], w[1::2])
