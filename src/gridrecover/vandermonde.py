"""Design-matrix assembly for power-flow parameter fitting.

For a candidate edge set E and a data set of m states, the equations have
one row per power-flow equation per state and one column per edge
parameter; multiplying them by a parameter vector and subtracting the
injections reproduces every residual.  DC systems are nm x |E| with entries
e_j*(e_j - e_k); AC systems are 2nm x 2|E| with 2x2 blocks [[a, -b], [b, a]]
built from a = e_j^2 + f_j^2 - e_j*e_k - f_j*f_k and b = e_j*f_k - e_k*f_j.

That tall matrix A and its injections b are never held whole.  ``assemble``
builds them a block of states at a time and folds each block into the
(k+1) x (k+1) upper-triangular factor R of ``[A | b]`` (sequential TSQR;
Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34(1), 2012).  A
:class:`VandermondeSystem` keeps ``matrix``, the k columns of R; ``rhs``,
c = R[:k, k]; ``rho``, |R[k, k]|; and ``rows``, the number of equations.
Since ``||A w - b||^2 = ||R[:k, :k] w - c||^2 + rho^2``, least squares on
(matrix, rhs) solves the tall problem without the normal equations, and
``matrix`` has the singular values of A.

Column layout: the edges are sorted lexicographically; a DC system has one
column per edge, an AC system two, the conductance c then the susceptance s,
so column 2t is c and column 2t + 1 is s of edge t.  The layout is
deterministic across runs, the equations of a subset are exactly a column
restriction of a larger set's, so are the columns of its factor, and only
this module decodes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .network import DC, Edge, Network, _canonical_edges
from .states import StateSet

RANK_RTOL = 1e-13
# states per block of equations folded into the factor; bounds the rows held
_BLOCK_STATES = 25


@dataclass(frozen=True, eq=False)
class VandermondeSystem:
    """A least-squares system on a sorted edge set, in compressed form.

    For every parameter vector w in the column layout,
    ``||A w - b||^2 = ||matrix @ w - rhs||^2 + rho^2``, where A and b are the
    ``rows`` stacked equations and injections of the data.
    """

    kind: str
    n: int
    matrix: np.ndarray
    rhs: np.ndarray
    edges: tuple[Edge, ...]
    rho: float
    rows: int

    def __post_init__(self):
        self.matrix.flags.writeable = False
        self.rhs.flags.writeable = False


def _sorted_edges(n: int, edges: Iterable[Edge]) -> tuple[Edge, ...]:
    canon = _canonical_edges(n, edges)
    if not canon:
        raise ValueError("edge set must be nonempty")
    return tuple(sorted(canon))


def _rows(edges: tuple[Edge, ...], states: StateSet, block: slice = slice(None)) -> np.ndarray:
    """Equations of the states in ``block`` for sorted edges, as ``[A | b]``.

    One row per equation: A in the column layout and b the injections, so
    that ``A @ w - b`` is the residual vector of those states.  The array is
    column-major.  Raises ValueError naming the 1-based state and node when
    an entry of A overflows to a non-finite value.
    """
    E, F = states.e[block], states.f[block]
    m, n = E.shape
    j, k = (np.array(edges) - 1).T  # 0-based endpoints, one per edge
    t = np.arange(len(edges))
    Ej, Ek = E[:, j], E[:, k]  # (m, |E|): each state's voltages at each edge's ends
    if states.kind == DC:
        out = np.zeros((n * m, len(edges) + 1), order="F")
        base = np.arange(m)[:, None] * n
        out[base + j, t] = Ej * Ej - Ej * Ek
        out[base + k, t] = Ek * Ek - Ek * Ej
        out[:, -1] = states.p[block].ravel()
    else:
        Fj, Fk = F[:, j], F[:, k]
        alpha_jk = Ej * Ej + Fj * Fj - Ej * Ek - Fj * Fk
        alpha_kj = Ek * Ek + Fk * Fk - Ek * Ej - Fk * Fj
        beta_jk = Ej * Fk - Ek * Fj
        out = np.zeros((2 * n * m, 2 * len(edges) + 1), order="F")
        base = np.arange(m)[:, None] * 2 * n
        c, s = 2 * t, 2 * t + 1
        out[base + 2 * j, c] = alpha_jk
        out[base + 2 * j, s] = -beta_jk
        out[base + 2 * j + 1, c] = beta_jk
        out[base + 2 * j + 1, s] = alpha_jk
        out[base + 2 * k, c] = alpha_kj
        out[base + 2 * k, s] = beta_jk
        out[base + 2 * k + 1, c] = -beta_jk
        out[base + 2 * k + 1, s] = alpha_kj
        out[0::2, -1] = states.p[block].ravel()
        out[1::2, -1] = states.q[block].ravel()
    A = out[:, :-1]
    # min/max propagate nan and expose +-inf without a full-size temporary
    if not (np.isfinite(A.min()) and np.isfinite(A.max())):
        row = int(np.argwhere(~np.isfinite(A))[0, 0])
        per_state = A.shape[0] // m
        state, node = divmod(row, per_state)
        node //= per_state // n
        first = block.indices(states.m)[0]
        raise ValueError(
            f"state {first + state + 1}, node {node + 1}: design-matrix entry overflows"
            " to a non-finite value; rescale the data"
        )
    return out


def assemble(edges: Iterable[Edge], states: StateSet) -> VandermondeSystem:
    """The system of the edges on the whole data set, compressed as it is built.

    The equations are built ``_BLOCK_STATES`` states at a time, and each block
    ``[A_blk | b_blk]`` is folded into the upper-triangular factor R of
    ``[A | b]`` by a QR of ``[R; block]`` (sequential TSQR).  So ``matrix``
    holds the first k columns of R, ``rhs`` its last column above the
    diagonal and ``rho`` the modulus of its corner.  Raises ValueError naming
    the 1-based state and node when an entry overflows to a non-finite value.
    """
    edges = _sorted_edges(states.n, edges)
    R, rows = None, 0
    for first in range(0, states.m, _BLOCK_STATES):
        block = _rows(edges, states, slice(first, first + _BLOCK_STATES))
        rows += len(block)
        R = np.linalg.qr(block if R is None else np.vstack((R, block)), mode="r")
    # fewer equations than columns leave R trapezoidal, with no corner
    k = R.shape[1] - 1
    rho = float(abs(R[k, k])) if R.shape[0] > k else 0.0
    # column-major, since restrict and the solver gather column subsets of it
    matrix = np.asfortranarray(R[:k, :k])
    return VandermondeSystem(states.kind, states.n, matrix, R[:k, k].copy(), edges, rho, rows)


def restrict(system: VandermondeSystem, edges: Iterable[Edge]) -> VandermondeSystem:
    """The system of a subset of the edges: the same columns of the factor.

    Gathering the columns of R that belong to the subset gives, with the
    same ``rhs``, ``rho`` and ``rows``, the residual of the subset's
    equations for every parameter vector.
    """
    sub = _sorted_edges(system.n, edges)
    position = {e: t for t, e in enumerate(system.edges)}
    missing = [e for e in sub if e not in position]
    if missing:
        raise ValueError(f"edges {missing} not present in the system")
    idx = np.array([position[e] for e in sub])
    if system.kind != DC:
        idx = np.column_stack((2 * idx, 2 * idx + 1)).ravel()
    return replace(system, matrix=system.matrix[:, idx], edges=sub)


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
