"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths it verifies: residuals are
accumulated termwise from the defining sums, effective resistances come from
grounded linear solves instead of the eigendecomposition pseudoinverse, the
NNLS oracle enumerates every active set, null spaces come from a full SVD, the
tall system is built from the defining sums, one unit weight per column, and
the tall fit solves those stacked equations themselves instead of their
triangular factor.
"""

from __future__ import annotations

from itertools import combinations
from types import SimpleNamespace

import numpy as np

from gridrecover.nnls import solve as nnls_solve
from gridrecover.recovery import Fit
from gridrecover.states import StateSet
from gridrecover.vandermonde import VandermondeSystem, condition_number, network_from_columns


def direct_residuals(net, states) -> np.ndarray:
    """Power-flow residuals accumulated edge by edge from the defining sums."""
    out = []
    for k in range(states.m):
        e, f = states.e[k], states.f[k]
        p, q = states.p[k], states.q[k]
        g = -p.astype(float).copy()
        h = -q.astype(float).copy()
        for (j, l), c, s in zip(net.edges, net.c, net.s):
            a, b = j - 1, l - 1
            for x, y in ((a, b), (b, a)):
                alpha = e[x] * e[x] + f[x] * f[x] - e[x] * e[y] - f[x] * f[y]
                beta = e[x] * f[y] - e[y] * f[x]
                g[x] += c * alpha - s * beta
                h[x] += c * beta + s * alpha
        if states.kind == "dc":
            out.extend(g)
        else:
            for x in range(states.n):
                out.extend((g[x], h[x]))
    return np.array(out)


def laplacian_by_edge_loop(g) -> np.ndarray:
    """Laplacian of a graph accumulated one edge at a time, in edge order."""
    L = np.zeros((g.n, g.n))
    for (j, k), w in zip(g.edges, g.c):
        a, b = j - 1, k - 1
        L[a, b] -= w
        L[b, a] -= w
        L[a, a] += w
        L[b, b] += w
    return L


def resistance_by_grounded_solve(g, j: int, k: int) -> float:
    """Effective resistance from a direct current-injection solve.

    Grounds node 1 of the component, injects a unit current at j and extracts
    it at k, and reads off the potential difference.  Uses a plain dense
    solve, not the pseudoinverse.
    """
    from gridrecover.network import connectivity, laplacian

    pos = g.normalized()
    labels = connectivity(pos)
    if labels[j - 1] != labels[k - 1]:
        raise ValueError("endpoints lie in different components")
    comp = np.flatnonzero(labels == labels[j - 1])
    L = laplacian(pos)[np.ix_(comp, comp)]
    rhs = np.zeros(len(comp))
    rhs[list(comp).index(j - 1)] = 1.0
    rhs[list(comp).index(k - 1)] -= 1.0
    x = np.zeros(len(comp))
    x[1:] = np.linalg.solve(L[1:, 1:], rhs[1:])  # node comp[0] grounded
    return float(x[list(comp).index(j - 1)] - x[list(comp).index(k - 1)])


def series_conductance(c1: float, c2: float) -> float:
    return c1 * c2 / (c1 + c2)


def triangle_bridge_leverages(c: dict) -> dict:
    """Closed-form leverages of the 6-node triangle-plus-bridges layout.

    ``c`` maps the six edges to conductances.  Within the triangle each edge
    competes with the series path through the third node; the three bridge
    edges carry their full end-to-end connection.
    """
    lev = {
        (1, 2): c[(1, 2)] / (c[(1, 2)] + series_conductance(c[(1, 3)], c[(2, 3)])),
        (1, 3): c[(1, 3)] / (c[(1, 3)] + series_conductance(c[(1, 2)], c[(2, 3)])),
        (2, 3): c[(2, 3)] / (c[(2, 3)] + series_conductance(c[(1, 2)], c[(1, 3)])),
        (3, 4): 1.0,
        (4, 5): 1.0,
        (4, 6): 1.0,
    }
    return lev


def exhaustive_nnls(A, b, feas_tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Global NNLS optimum by brute force over all column subsets.

    For each subset the unconstrained least-squares solution is kept when it
    is (numerically) non-negative; the best feasible objective wins.  Only
    usable for small column counts.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k = A.shape[1]
    best_w = np.zeros(k)
    best_obj = float(np.linalg.norm(b))
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            idx = list(subset)
            z, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if np.any(z < -feas_tol):
                continue
            w = np.zeros(k)
            w[idx] = np.clip(z, 0.0, None)
            obj = float(np.linalg.norm(A @ w - b))
            if obj < best_obj:
                best_obj, best_w = obj, w
    return best_w, best_obj


def kernel_basis(A, rtol: float = 1e-13) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space of A, as columns.

    Diagnostic for degenerate systems where the optimum is a segment rather
    than a point.
    """
    A = np.asarray(A, dtype=float)
    _, sv, vt = np.linalg.svd(A)
    if sv.size == 0 or sv[0] == 0.0:
        return np.eye(A.shape[1])
    rank = int(np.sum(sv / sv[0] >= rtol))
    return vt[rank:].T


def tall_system(edges, states) -> VandermondeSystem:
    """The stacked equations of the edges as a system with rho = 0: every
    row of the data, one per equation, uncompressed.

    Column t holds the residuals, from :func:`direct_residuals`, of a unit
    weight on parameter t alone with zero injections (conductance then
    susceptance of each edge for AC), and the rhs holds the injections.  The
    matrix is column-major, as the one of ``assemble`` is."""
    edges = tuple(sorted(edges))
    zero = np.zeros_like(states.p)
    silent = StateSet(states.kind, states.e, states.f, zero, zero)
    units = ((1.0, 0.0),) if states.kind == "dc" else ((1.0, 0.0), (0.0, 1.0))
    columns = [
        direct_residuals(SimpleNamespace(edges=(e,), c=(c,), s=(s,)), silent)
        for e in edges
        for c, s in units
    ]
    rhs = (states.p if states.kind == "dc" else np.stack((states.p, states.q), axis=2)).ravel()
    return VandermondeSystem(states.kind, states.n, np.array(columns).T, rhs, edges, 0.0, len(rhs))


def tall_fit(edges, states) -> Fit:
    """NNLS on the tall matrix of the edges, its rms over all equations, and
    the condition number from the SVD of the tall matrix."""
    system = tall_system(edges, states)
    result = nnls_solve(system.matrix, system.rhs)
    rms = float(result.objective / np.sqrt(system.matrix.shape[0]))
    return Fit(
        network_from_columns(system, result.w), rms, condition_number(system.matrix), result
    )
