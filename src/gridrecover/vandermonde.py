"""Design-matrix assembly for power-flow parameter fitting.

For a candidate edge set E and a data set of m states, the equations have
one row per node per state and one column per edge; multiplying them by a
parameter vector and subtracting the injections reproduces every residual.
DC systems are real, nm x |E| with entries e_j*(e_j - e_k) and injections
p.  AC systems are complex, nm x |E| with entries a + i*b =
V_j*conj(V_j - V_k), a = e_j^2 + f_j^2 - e_j*e_k - f_j*f_k and b = e_j*f_k -
e_k*f_j, acting on the edge weight c + i*s, and injections p + i*q; j is the
node of the equation and k the far end of the edge.  Their real form, with
2x2 blocks [[a, -b], [b, a]] acting on (c, s), is the 2nm x 2|E| system of
the real and reactive power equations (equivalent real forms of complex
systems; Day & Heroux, SIAM J. Sci. Comput. 23(2), 2001).

That tall matrix A and its injections b are never held whole.  An equation
of node v touches only the columns of v's edges (at most n - 1 edges) and
the rhs, so ``assemble`` builds v's equations a block of states at a time
straight into those columns alone, and folds them into a small triangular
factor of v's own, all n nodes in one batched QR per block (sequential
TSQR; Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34(1),
2012).  After the last block, one QR of the n node factors, scattered back
into the column layout, gives the upper-triangular factor R of ``[A | b]``;
the equations of a node without an edge touch only the rhs and end up in
its corner.  Both kinds take this one path, DC in real numbers and AC in
complex ones, one equation per node and state and one column per edge.  A
:class:`VandermondeSystem` keeps ``matrix``, the k columns of R, k being
A's number of columns; ``rhs``, c = R[:k, k]; ``rho``, |R[k, k]|; and
``rows``, the number of real equations.  Since ``||A w - b||^2 =
||R[:k, :k] w - c||^2 + rho^2``, least squares on (matrix, rhs) solves the
tall problem without the normal equations, and ``matrix`` has the singular
values of A.

Column layout: the edges are sorted lexicographically and edge t owns
column t, on AC as on DC.  The layout is deterministic across runs, the
equations of a subset are exactly a column restriction of a larger set's,
and so are the columns of its factor.  :func:`restrict` gathers the columns
of an edge subset from a system, :func:`compressed` folds those of the kept
edges into a square system of their own, and :func:`_deletion_residuals`
bounds, edge by edge, the residual left when the edge's column is deleted.
The solver alone needs real numbers, since c >= 0 and s >= 0 constrain the
real and imaginary parts of an AC weight apart: :func:`_real_form` writes a
system in the real (c, s) layout, two columns per AC edge, the conductance
c then the susceptance s, each complex entry x as the block
[[Re x, -Im x], [Im x, Re x]] and each rhs entry as the pair (Re x, Im x).
LAPACK's complex Householder QR leaves a real diagonal, so the real form of
a triangle is upper triangular too.  A solution in that layout is read back
by :func:`network_from_columns` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

import numpy as np

from .network import AC, DC, Edge, Network, _canonical_edges
from .nnls import _raw_triangle, _triangle
from .states import StateSet

RANK_RTOL = 1e-13
# real weights per edge, which are also real equations per node and state: c, then s on AC
_WIDTH = {DC: 1, AC: 2}
# states per block of equations folded into the node factors; bounds the rows held
_BLOCK_STATES = 25


@dataclass(frozen=True, eq=False)
class VandermondeSystem:
    """A least-squares system on a sorted edge set, in compressed form.

    For every parameter vector w, one entry per edge, c + i*s on AC,
    ``||A w - b||^2 = ||matrix @ w - rhs||^2 + rho^2``, where A and b are the
    stacked equations and injections of the data, ``rows`` real equations.
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


def _incidence(n: int, edges: tuple[Edge, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's edges as (n, d) tables, d the largest degree.

    ``edge[v, i]`` is the index of v's i-th edge in sorted order and
    ``far[v, i]`` its other end (0-based); ``pad[v, i]`` marks the slots past
    v's degree, where both tables hold 0.
    """
    ends = (np.array(edges) - 1).ravel()  # both ends of edge 0, then of edge 1, ...
    at = np.argsort(ends, kind="stable")  # the ends node by node, each node's edges in order
    degree = np.bincount(ends, minlength=n)
    pad = np.arange(degree.max()) >= degree[:, None]
    edge, far = np.zeros((2,) + pad.shape, dtype=int)
    edge[~pad], far[~pad] = at // 2, ends[at ^ 1]
    return edge, far, pad


def _node_equations(far: np.ndarray, pad: np.ndarray, states: StateSet, first: int) -> np.ndarray:
    """The equations of ``_BLOCK_STATES`` states from ``first``, node by node.

    ``far`` and ``pad`` are the tables of :func:`_incidence`.  Row s of
    ``out[v]`` is the equation of node v in state s of the block.  Its slots
    are v's edges in order, zeros in the padding, and the injection last.
    Over an edge to u, node v's entry is a = e_v^2 - e_v*e_u on DC, real,
    and a + i*b on AC, complex, with a = e_v^2 + f_v^2 - e_v*e_u - f_v*f_u
    and b = e_v*f_u - e_u*f_v (V_v*conj(V_v - V_u)), and injection p + i*q.
    Raises ValueError naming the 1-based state and node when an entry
    overflows to a non-finite value.
    """
    block = slice(first, first + _BLOCK_STATES)
    E = states.e[block].T  # (n, S)
    ev, eu = E[:, None, :], E[far]  # (n, 1, S) and (n, d, S): v's voltage, the far ends'
    if states.kind == DC:
        parts, injections = [ev * ev - ev * eu], [states.p]
    else:
        F = states.f[block].T
        fv, fu = F[:, None, :], F[far]
        parts, injections = [ev * ev + fv * fv - ev * eu - fv * fu, ev * fu - eu * fv], [states.p, states.q]
    n, d, S = parts[0].shape
    out = np.empty((n, S, d + 1), complex if states.kind == AC else float)
    # the real part, then on AC the imaginary one; on a real array .real is the array
    for view, x, injection in zip((out.real, out.imag), parts, injections):
        x[pad] = 0.0
        view[:, :, :-1] = x.transpose(0, 2, 1)
        view[:, :, -1] = injection[block].T
    # min/max propagate nan and expose +-inf without a full-size temporary;
    # the injections are finite, and out is contiguous, so its float view
    # holds both parts of an AC entry and needs no buffer either
    values = out.view(float)
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        state, node = np.argwhere(~np.isfinite(out).all(axis=2).T)[0]
        raise ValueError(
            f"state {first + state + 1}, node {node + 1}: design-matrix entry overflows"
            " to a non-finite value; rescale the data"
        )
    return out


def assemble(edges: Iterable[Edge], states: StateSet) -> VandermondeSystem:
    """The system of the edges on the whole data set, compressed as it is built.

    The fold has two levels.  Every equation of node v touches only the
    columns of v's edges and the rhs, so the equations are built
    ``_BLOCK_STATES`` states at a time straight into each node's own slots
    (:func:`_node_equations`), narrower nodes padded by zero slots, and
    folded into a small triangular factor per node: one batched QR per
    block over all n nodes.  After the last block the n node factors are
    scattered into the column layout, and one QR of that stack gives the
    upper-triangular factor R of ``[A | b]``.  So ``matrix`` holds the first
    k columns of R, ``rhs`` its last column above the diagonal and ``rho``
    the modulus of its corner.  On AC every step runs on complex entries,
    one column per edge, and ``matrix`` and ``rhs`` are complex too.
    Raises ValueError naming the 1-based state and node when an entry
    overflows to a non-finite value.

    Memory: the stack of the n node factors, n * min(m, d + 1) rows of
    |E| + 1 numbers, real on DC and complex on AC (900 x 436 for 200
    states of DC n = 30), is the only array of its size, and the peak is
    that stack and numpy's copy of it inside the final QR.  Each QR, of a
    block fold or of the final merge, is taken in ``mode="raw"``: the
    block, the old node factors and the stack are dropped as soon as they
    are no longer needed, and R is read from the upper triangle of numpy's
    factored copy afterwards, the final one by ``nnls._raw_triangle``, so
    no triangular copy sits beside the stack and its copy.
    """
    edges = _sorted_edges(states.n, edges)
    n = states.n
    k = len(edges)
    edge, far, pad = _incidence(n, edges)
    # node v's slot -> column: its edges, then the rhs column k; (node, slot)
    # lists the slots that are not padding
    node, slot = np.nonzero(np.append(~pad, np.ones((n, 1), bool), axis=1))
    col = np.append(edge, np.full((n, 1), k), axis=1)[node, slot]
    factors = None
    for first in range(0, states.m, _BLOCK_STATES):
        block = _node_equations(far, pad, states, first)
        stack = block if factors is None else np.concatenate((factors, block), axis=1)
        del block, factors
        h, _ = np.linalg.qr(stack, mode="raw")
        del stack
        factors = np.triu(h.swapaxes(1, 2)[:, : min(h.shape[1:])])
        del h
    stacked = np.zeros((n, factors.shape[1], k + 1), factors.dtype)
    stacked[node, :, col] = factors[node, :, slot]
    del factors
    h, _ = np.linalg.qr(stacked.reshape(-1, k + 1), mode="raw")
    del stacked
    R, rhs, rho = _raw_triangle(h)
    del h
    rows = _WIDTH[states.kind] * n * states.m
    # column-major, since restrict and the solver gather column subsets of it
    return VandermondeSystem(states.kind, n, np.asfortranarray(R), rhs.copy(), edges, rho, rows)


def restrict(system: VandermondeSystem, edges: Iterable[Edge]) -> VandermondeSystem:
    """The system of a subset of the edges: the same columns of the factor.

    Gathering the columns of R that belong to the subset gives, with the
    same ``rhs``, ``rho`` and ``rows``, the residual of the subset's
    equations for every parameter vector.  An edge set is checked where it
    enters this module, in :func:`assemble` or here: the subset is
    validated and sorted, and every edge must be one of the system's.
    """
    sub = _sorted_edges(system.n, edges)
    position = {e: t for t, e in enumerate(system.edges)}
    missing = [e for e in sub if e not in position]
    if missing:
        raise ValueError(f"edges {missing} not present in the system")
    cols = [position[e] for e in sub]
    return VandermondeSystem(
        system.kind, system.n, system.matrix[:, cols], system.rhs, sub, system.rho, system.rows
    )


def compressed(system: VandermondeSystem, keep: np.ndarray | None = None) -> VandermondeSystem:
    """The square system of the kept edges, every edge when ``keep`` is None.

    ``keep`` masks the system's edges.  One Householder QR of their columns
    with the rhs (``nnls._triangle``), complex on AC, gives a triangle with
    the singular values of those columns, a new rhs and a corner, which
    joins ``rho`` by ``hypot``; so the result keeps, for every parameter
    vector of the kept edges, the residual of the data's equations.  A
    square triangle with every edge kept is returned as its own factor, bit
    for bit.
    """
    keep = np.ones(len(system.edges), dtype=bool) if keep is None else keep
    R, rhs, corner = _triangle(system.matrix, system.rhs, keep)
    edges = tuple(compress(system.edges, keep))
    return VandermondeSystem(system.kind, system.n, R, rhs, edges, float(np.hypot(system.rho, corner)), system.rows)


def _deletion_residuals(system: VandermondeSystem) -> tuple[np.ndarray, int, float]:
    """Each edge's least-squares residual, squared, once its column is
    deleted, for a full-rank square system; then the number of columns and
    the Frobenius product ||R||_F ||R^-1||_F of its real (c, s) form.

    With R the triangle and y its least-squares weights, deleting the column
    of edge e leaves the residual ``rho^2 + |y_e|^2 / ||row e of R^-1||^2``:
    the column-deletion identity, one formula for both kinds, taken for every
    edge at once as a ratio: each row's squared norm is one dot product, by
    which y_e is divided before its product with conj(y_e), as a 1 x 1 solve
    would round it.  On AC it is least squares
    without the edge's (c, s) pair of the real form, whose rows of R^-1 are
    the real form of the complex ones.  That form has two columns per AC
    edge, and each of its Frobenius norms is sqrt(2) times the complex
    one's, so its product is twice R's.  The product is at least the 2-norm
    condition number of R.
    """
    R = system.matrix
    Rinv = np.linalg.inv(R)
    y = np.linalg.solve(R, system.rhs)
    # conj is the array itself on DC, and so is .real
    squares = (Rinv[:, None, :] @ Rinv.conj()[:, :, None]).real.ravel()
    raised = (y.conj() * (y / squares)).real
    width = _WIDTH[system.kind]
    return system.rho * system.rho + raised, width * R.shape[1], width * float(np.linalg.norm(R) * np.linalg.norm(Rinv))


def condition_number(A: np.ndarray) -> float:
    """sigma_max / sigma_min of a matrix; +inf when rank-deficient, i.e.
    sigma_min < RANK_RTOL * sigma_max.

    An AC system's complex matrix has the singular values of its real form,
    each counted twice there, so both give the same ratio."""
    if A.shape[0] < A.shape[1]:  # fewer rows than columns: a null space
        return float("inf")
    sv = np.linalg.svd(A, compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    if smax == 0.0 or smin / smax < RANK_RTOL:
        return float("inf")
    return smax / smin


def _real_form(system: VandermondeSystem) -> tuple[np.ndarray, np.ndarray]:
    """The system's matrix and rhs in the real (c, s) layout the solver takes.

    DC is real already.  On AC each entry x of the matrix becomes the block
    [[Re x, -Im x], [Im x, Re x]] and each entry of the rhs the pair
    (Re x, Im x), so the real weights (c_t, s_t) of edge t act as c_t + i*s_t
    does on the complex system, with the same residual norm.  The real form
    of a triangle with a real diagonal is upper triangular."""
    R, rhs = system.matrix, system.rhs
    if system.kind == DC:
        return R, rhs
    # column-major, as assemble writes a triangle
    real = np.empty((2 * R.shape[0], 2 * R.shape[1]), order="F")
    real[0::2, 0::2] = real[1::2, 1::2] = R.real
    real[1::2, 0::2] = R.imag
    real[0::2, 1::2] = -R.imag
    # the rhs of a compressed system is a strided column of its triangle
    return real, np.ascontiguousarray(rhs).view(float)


def parameter_vector(net: Network, edges: Iterable[Edge] | None = None) -> np.ndarray:
    """Network weights in the real (c, s) layout of :func:`_real_form`.

    Edges absent from the network contribute zeros.
    """
    edges = _sorted_edges(net.n, net.edges if edges is None else edges)
    weights = dict(zip(net.edges, np.column_stack((net.c, net.s))))
    table = np.array([weights.get(e, (0.0, 0.0)) for e in edges])
    return table[:, : _WIDTH[net.kind]].ravel()


def network_from_columns(system: VandermondeSystem, w: np.ndarray) -> Network:
    """Inverse of :func:`parameter_vector`: the network a solution in the
    real (c, s) layout describes, zero-weight edges included.

    Its edges are the system's, validated when the system was built, so only
    the weights ``w`` are checked, their number against the system's real
    columns first."""
    w = np.asarray(w)
    columns = _WIDTH[system.kind] * len(system.edges)
    if w.shape != (columns,):
        raise ValueError(f"solution length must match the system's real columns: {w.shape} for {columns}")
    c, s = (w, np.zeros(len(w))) if system.kind == DC else (w[0::2], w[1::2])
    return Network._derived(system.kind, system.n, system.edges, c, s)
