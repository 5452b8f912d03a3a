"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths it verifies: residuals are
accumulated termwise from the defining sums, effective resistances come from
grounded linear solves instead of the eigendecomposition pseudoinverse, one
NNLS oracle enumerates every active set and the other solves each active-set
step afresh by least squares instead of factoring the passive columns, null spaces
come from a full SVD, the tall system is built from the defining sums, one
unit weight per column, and the tall fit solves those stacked equations
themselves instead of their triangular factor, Newton power flow solves one state at a time, each
with its own admittance matrix, Jacobian and linear solve, scenario data
draws one uniform at a time, and AC
sparsification splits a network into its conductance and susceptance graphs,
sparsifies each as its own network and merges the kept edges by name,
while the eager sampler takes the library's draws but computes every weight
at the draw and keeps the edges of positive weight.
The reference assembly shares the library's per-node equations but takes
every QR with ``mode="r"``, as the library did before it read R out of
numpy's factored copy.  The fewest-edge search, by contrast, fits with the
library's own ``fit(restrict(full, subset))``, the computation the recovery
loop accepts a candidate by: what it checks is the loop's search, not the
fit.  ``legacy_scenario`` is no oracle of today's code: it makes the
scenario data of the earlier layout, one generator per state, which the
tests of specific recovery paths keep as their cases.
"""

from __future__ import annotations

from itertools import combinations
from types import SimpleNamespace

import numpy as np

import gridrecover.states as gstates
from gridrecover.network import (
    DC,
    Edge,
    Network,
    admittance_matrix,
    is_connected,
    laplacian,
    split_graphs,
)
from gridrecover.nnls import FALLBACK_RTOL, KKT_TOL, NnlsError, NnlsResult, _kkt_residual
from gridrecover.recovery import Fit, fit
from gridrecover.sparsify import (
    WEIGHT_ROWS,
    EdgeStatistics,
    _pseudo_inverse,
    row_statistics,
    sample_count,
)
from gridrecover.states import PowerFlowError, StateSet, add_noise
from gridrecover.vandermonde import (
    _BLOCK_STATES,
    VandermondeSystem,
    _incidence,
    _node_equations,
    _sorted_edges,
    compressed,
    restrict,
)


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

    For each subset of linearly independent columns the unconstrained
    least-squares solution is kept when it is (numerically) non-negative; the
    best feasible objective wins.  Some optimum has an independent support,
    so skipping the dependent subsets loses nothing, and it keeps a subset
    that is independent only through roundoff from fitting that roundoff
    with huge weights.  Independence is the numerical rank, at the
    ``matrix_rank`` tolerance of the whole of A.  Only usable for small
    column counts.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k = A.shape[1]
    rank_tol = max(A.shape) * np.finfo(float).eps * np.linalg.norm(A, 2)
    best_w = np.zeros(k)
    best_obj = float(np.linalg.norm(b))
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            idx = list(subset)
            if np.linalg.matrix_rank(A[:, idx], tol=rank_tol) < size:
                continue
            z, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if np.any(z < -feas_tol):
                continue
            w = np.zeros(k)
            w[idx] = np.clip(z, 0.0, None)
            obj = float(np.linalg.norm(A @ w - b))
            if obj < best_obj:
                best_obj, best_w = obj, w
    return best_w, best_obj


def nnls_lstsq(A, b, *, from_all: bool = False) -> NnlsResult:
    """NNLS by the steps of ``gridrecover.nnls.solve``, every least-squares
    solve made afresh.

    The same Lawson-Hanson phase (entering rule and iteration cap), handing
    its passive set to the same block principal pivoting at the first
    least-squares solve with a weight at or below zero or on a passive set
    that fails the rank test, but each passive set is solved by minimum-norm
    ``np.linalg.lstsq`` on its columns instead of through an updated QR
    factor or a Householder QR, and the result is returned whatever its KKT
    residual.  The rank test here asks for at least as many rows as columns
    and singular values above ``FALLBACK_RTOL`` times the largest.  With
    ``from_all``, a system that passes it starts the block pivoting from
    every column, as the solver's warm start does.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k = A.shape[1]
    max_iter = max(10 * k, 100)

    def least_squares(passive):
        z = np.zeros(k)
        if np.any(passive):
            z[passive], *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
        return z

    def result(w, passive, iterations):
        grad = -(A.T @ (b - A @ w))
        return NnlsResult(w, float(np.linalg.norm(A @ w - b)), _kkt_residual(grad, passive), iterations)

    def capped(best, iterations):
        return NnlsError(f"no convergence within {max_iter} least-squares solves", result(*best, iterations))

    def full_rank(cols):
        sv = np.linalg.svd(A[:, cols], compute_uv=False)
        wide = np.count_nonzero(cols) > len(b)
        return not wide and np.all(sv > FALLBACK_RTOL * np.max(sv, initial=0.0))

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    iterations = 0
    if from_all and full_rank(~passive):
        best = (x, passive.copy())
        passive[:] = True
        z = least_squares(passive)
        iterations = 1
    else:
        # Lawson-Hanson while every passive weight stays positive
        while True:
            grad = -(A.T @ (b - A @ x))
            candidates = ~passive & (-grad > KKT_TOL)
            if not np.any(candidates):
                return result(x, passive, iterations)
            best = (x, passive.copy())
            # enter the column with the most negative gradient; argmax takes the
            # first (= lowest-index) maximum on ties
            passive[int(np.argmax(np.where(candidates, -grad, -np.inf)))] = True
            z = least_squares(passive)
            iterations += 1
            if iterations > max_iter:
                raise capped(best, iterations)
            if not (np.all(z[passive] > 0) and full_rank(passive)):
                break
            x = z
    # block principal pivoting: move every infeasible index while their count
    # falls, and after three exchanges in a row that do not lower it the
    # lowest infeasible index alone
    fewest, spare = k + 1, 3
    while True:
        grad = -(A.T @ (b - A @ z))
        infeasible = (passive & (z < 0)) | (~passive & (grad < -KKT_TOL))
        if not np.any(infeasible):
            return result(z, passive, iterations)
        if np.all(z[passive] >= 0) and np.linalg.norm(A @ z - b) < np.linalg.norm(A @ best[0] - b):
            best = (z, passive.copy())
        if np.count_nonzero(infeasible) < fewest:
            fewest, spare = np.count_nonzero(infeasible), 3
        elif spare > 0:
            spare -= 1
        else:
            lowest = int(np.flatnonzero(infeasible)[0])
            infeasible = np.zeros(k, dtype=bool)
            infeasible[lowest] = True
        passive = passive != infeasible
        z = least_squares(passive)
        iterations += 1
        if iterations > max_iter:
            raise capped(best, iterations)


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


def tall_complex(edges, states) -> VandermondeSystem:
    """:func:`tall_system` in the library's layout, one column per edge: the
    same system on DC, and on AC the complex one whose real form it is.
    Each equation's rows g and h become the row g + i*h, the conductance
    column of each edge its column (the susceptance column is i times it)
    and the rhs p + i*q; ``rows`` still counts real equations."""
    tall = tall_system(edges, states)
    if states.kind == DC:
        return tall
    M, b = tall.matrix, tall.rhs
    matrix = np.array((M[0::2, 0::2] + 1j * M[1::2, 0::2]).T).T  # column-major, as tall_system's
    return VandermondeSystem(states.kind, states.n, matrix, b[0::2] + 1j * b[1::2], tall.edges, 0.0, tall.rows)


def assemble_reference(edges, states) -> VandermondeSystem:
    """:func:`gridrecover.vandermonde.assemble` as it was before it read R
    out of numpy's factored copy: the same blocks and folds, each QR taken
    with ``mode="r"``, whose triangular copy sat beside the stack and
    numpy's copy of it.  The same LAPACK calls on the same values, so the
    system is the same bit for bit.  On AC the folds run on complex entries,
    and the triangle and rhs are complex."""
    edges = _sorted_edges(states.n, edges)
    n = states.n
    r = 1 if states.kind == DC else 2
    k = len(edges)
    edge, far, pad = _incidence(n, edges)
    node, slot = np.nonzero(np.append(~pad, np.ones((n, 1), bool), axis=1))
    col = np.append(edge, np.full((n, 1), k), axis=1)[node, slot]
    factors = None
    for first in range(0, states.m, _BLOCK_STATES):
        stack = _node_equations(far, pad, states, first)
        if factors is not None:
            stack = np.concatenate((factors, stack), axis=1)
        factors = np.linalg.qr(stack, mode="r")
    stacked = np.zeros((n, factors.shape[1], k + 1), factors.dtype)
    stacked[node, :, col] = factors[node, :, slot]
    R = np.linalg.qr(stacked.reshape(-1, k + 1), mode="r")
    rho = float(abs(R[k, k])) if R.shape[0] > k else 0.0
    matrix, rhs = R[:k, :k], R[:k, k]
    return VandermondeSystem(states.kind, n, np.asfortranarray(matrix), rhs.copy(), edges, rho, r * n * states.m)


def tall_fit(edges, states) -> Fit:
    """NNLS on the tall matrix of the edges and its rms over all equations;
    the fit's kappa is the condition number from the SVD of the tall matrix."""
    system = tall_system(edges, states)
    result = nnls_lstsq(system.matrix, system.rhs)
    rms = float(result.objective / np.sqrt(system.matrix.shape[0]))
    return Fit(system, rms, result)


def newton_jacobian(L, v, inj, ns, dc: bool) -> np.ndarray:
    """Jacobian of one state's non-slack mismatch, with ``inj`` = conj(L v),
    from the complex formula: the full (n, n) derivatives by e and f, then
    their ``np.ix_(ns, ns)`` blocks (the real part of the e block alone on
    DC networks)."""
    d_de = np.diag(inj) + v[:, None] * np.conj(L)
    block = np.ix_(ns, ns)
    if dc:
        return d_de.real[block]
    d_df = 1j * np.diag(inj) - 1j * (v[:, None] * np.conj(L))
    return np.block(
        [[d_de.real[block], d_df.real[block]], [d_de.imag[block], d_df.imag[block]]]
    )


def newton_per_state(net, p, q=None) -> np.ndarray:
    """Newton power flow on one state (1-D injections), node 1 the slack, with
    scalar damping: the per-state loop that ``states.solve_power_flow`` runs
    on a stack."""
    n = net.n
    L = admittance_matrix(net)
    ns = np.arange(1, n)
    target = np.asarray(p, dtype=float) + 1j * (
        np.zeros(n) if q is None else np.asarray(q, dtype=float)
    )
    v = np.ones(n, dtype=complex)
    dc = net.kind == DC

    def mismatch(vv):
        d = vv * np.conj(L @ vv) - target
        if dc:
            return d.real[ns]
        return np.concatenate([d.real[ns], d.imag[ns]])

    f = mismatch(v)
    for _ in range(gstates.NEWTON_MAX_ITER):
        fnorm = np.max(np.abs(f))
        if fnorm <= gstates.NEWTON_TOL:
            return v
        try:
            step = np.linalg.solve(newton_jacobian(L, v, np.conj(L @ v), ns, dc), -f)
            dv = np.zeros(n, dtype=complex)
            dv[ns] = step if dc else step[: len(ns)] + 1j * step[len(ns):]
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError("singular power-flow Jacobian") from exc
        alpha = 1.0
        for _ in range(30):
            v_new = v + alpha * dv
            f_new = mismatch(v_new)
            if np.max(np.abs(f_new)) < fnorm:
                break
            alpha *= 0.5
        else:
            raise PowerFlowError("damping failed to reduce the mismatch")
        v, f = v_new, f_new
    if np.max(np.abs(f)) <= gstates.NEWTON_TOL:
        return v
    raise PowerFlowError(f"no convergence after {gstates.NEWTON_MAX_ITER} Newton iterations")


def scenario_per_state(net, scen, m: int, seed=0) -> StateSet:
    """``states.generate_scenario`` assembled one state at a time from one
    generator, ``default_rng(seed)``: each round draws the loads of every
    pending state, in index order, one ``uniform`` at a time, then solves
    each of them by :func:`newton_per_state`; a state whose voltages left
    the range stays pending, and a state that fails ends the round for the
    states after it.  The noise is drawn from the same generator last."""
    if not is_connected(net):
        raise PowerFlowError("network must be connected to solve power flow")
    loads = [j for j in range(1, net.n) if j + 1 not in scen.zero]
    vmin, vmax = gstates.VOLTAGE_RANGE
    dc = net.kind == DC
    L = admittance_matrix(net)
    rng = np.random.default_rng(seed)
    P = np.zeros((m, net.n))
    Q = np.zeros((m, net.n))
    V = np.empty((m, net.n), dtype=complex)
    pending = list(range(m))
    error = None
    for _ in range(gstates.MAX_RETRIES):
        for k in pending:
            for j in loads:
                P[k, j] = rng.uniform(*scen.p_range)
                if not dc:
                    Q[k, j] = rng.uniform(*scen.q_range)
        out_of_range = []
        for k in pending:
            try:
                v = newton_per_state(net, P[k], Q[k])
            except PowerFlowError as exc:
                error = PowerFlowError(f"state {k}: {exc}")
                break
            if np.all((np.abs(v) >= vmin) & (np.abs(v) <= vmax)):
                V[k] = v
            else:
                out_of_range.append(k)
        pending = out_of_range
        if not pending:
            break
    else:
        error = PowerFlowError(
            f"state {pending[0]}: voltages left [{vmin}, {vmax}] in {gstates.MAX_RETRIES} attempts"
        )
    if error is not None:
        raise error
    for k in range(m):
        s_model = V[k] * np.conj(V[k] @ L)
        P[k, 0] = s_model.real[0]
        if not dc:
            Q[k, 0] = s_model.imag[0]
    F = np.zeros_like(P) if dc else V.imag
    return add_noise(StateSet(net.kind, V.real, F, P, Q), scen.sigma, rng)


def legacy_scenario(net, scen, m: int, seed=0) -> StateSet:
    """The scenario data ``states.generate_scenario`` made before it drew
    from one generator: state k draws its loads one by one from its own
    ``default_rng`` of the k-th child that ``spawn`` makes of the seed (a
    SeedSequence given as ``seed`` spawns them, and is advanced) and is
    solved by :func:`newton_per_state` until its voltages stay in range; the
    noise is drawn from child m.  Tests whose data reached a specific path
    take their states from here, so that each keeps its case."""
    if not is_connected(net):
        raise PowerFlowError("network must be connected to solve power flow")
    loads = [j for j in range(1, net.n) if j + 1 not in scen.zero]
    vmin, vmax = gstates.VOLTAGE_RANGE
    dc = net.kind == DC
    L = admittance_matrix(net)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(m + 1)
    E = np.empty((m, net.n))
    F = np.zeros((m, net.n))
    P = np.empty((m, net.n))
    Q = np.zeros((m, net.n))
    for k in range(m):
        rng = np.random.default_rng(children[k])
        for _ in range(gstates.MAX_RETRIES):
            p = np.zeros(net.n)
            q = np.zeros(net.n)
            for j in loads:
                p[j] = rng.uniform(*scen.p_range)
                if not dc:
                    q[j] = rng.uniform(*scen.q_range)
            try:
                v = newton_per_state(net, p, q)
            except PowerFlowError as exc:
                raise PowerFlowError(f"state {k}: {exc}") from exc
            if np.all((np.abs(v) >= vmin) & (np.abs(v) <= vmax)):
                break
        else:
            raise PowerFlowError(
                f"state {k}: voltages left [{vmin}, {vmax}] in {gstates.MAX_RETRIES} attempts"
            )
        s_model = v * np.conj(v @ L)
        p[0] = s_model.real[0]
        q[0] = s_model.imag[0]
        E[k], P[k] = v.real, p
        if not dc:
            F[k], Q[k] = v.imag, q
    out = StateSet(net.kind, E, F, P, Q)
    if scen.sigma > 0:
        out = add_noise(out, scen.sigma, children[m])
    return out


def _positive_graph_statistics(g) -> EdgeStatistics:
    """Sampling statistics of a graph's positive edges, on its normalized copy."""
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


def _sparsify_graph(g, eps: float, seed=0) -> SimpleNamespace:
    """Sparsify one graph (a DC network) as a network of its own: the
    sampled ``graph`` and the draw count ``t``."""
    stats = _positive_graph_statistics(g)
    t = sample_count(g.n, eps)
    # the draw counts of t draws with replacement, in O(edges) memory and time
    counts = np.random.default_rng(seed).multinomial(t, stats.p)
    keep = counts > 0
    new_w = counts[keep] * stats.w[keep] / (t * stats.p[keep])
    edges = tuple(e for e, k in zip(stats.edges, keep) if k)
    return SimpleNamespace(graph=Network.dc(g.n, edges, new_w), t=t)


def sparsify_two_graphs(net, eps: float, seed=0) -> SimpleNamespace:
    """Sparsification through the conductance and susceptance graphs.

    A DC network is sparsified as one graph with ``seed``.  An AC network is
    split into its two graphs, sparsified in turn from one
    ``default_rng(seed)``, conductances first; the output holds the sorted
    union of the two kept edge sets, a weight missing from one side
    zero-filled.
    """
    if net.kind == DC:
        return _sparsify_graph(net, eps, seed)

    rng = np.random.default_rng(seed)
    sides: list[dict[Edge, float]] = []
    t = sample_count(net.n, eps)
    for graph in split_graphs(net):
        if np.any(graph.c > 0):
            out = _sparsify_graph(graph, eps, rng)
            sides.append(dict(zip(out.graph.edges, out.graph.c)))
        else:
            sides.append({})
    c_side, s_side = sides
    if not c_side and not s_side:
        raise ValueError("network has no positive-weight edge")
    edges = tuple(sorted(set(c_side) | set(s_side)))
    c = np.array([c_side.get(e, 0.0) for e in edges])
    s = np.array([s_side.get(e, 0.0) for e in edges])
    return SimpleNamespace(graph=Network.ac(net.n, edges, c, s), t=t)


def sparsify_eager(net, eps: float, seed=0) -> SimpleNamespace:
    """``sparsify_ac``'s draws, with every weight computed at the draw.

    Each sampled row's weights, count * w / (t * p) where drawn and 0
    elsewhere, are written into one array over the input's edges, and an
    edge is kept where one of its weights is positive; the outcome holds
    the kept ``edges``, ``c``, ``s``, ``t`` and the sampled ``graph``.
    """
    t = sample_count(net.n, eps)
    rng = np.random.default_rng(seed)
    stats = row_statistics(net)
    out = np.zeros((2, len(net.edges)))
    for label, w, new_w in zip(WEIGHT_ROWS, (net.c, net.s), out):
        if label not in stats:
            continue
        row = stats[label]
        at = np.flatnonzero(w > 0)
        counts = rng.multinomial(t, row.p)
        drawn = counts > 0
        new_w[at[drawn]] = counts[drawn] * row.w[drawn] / (t * row.p[drawn])
    keep = np.any(out > 0, axis=0)
    if not keep.any():
        raise ValueError("network has no positive-weight edge")
    c, s = out[:, keep]
    edges = tuple(e for e, k in zip(net.edges, keep) if k)
    return SimpleNamespace(edges=edges, c=c, s=s, t=t, graph=Network(net.kind, net.n, edges, c, s))


def fewest_edges(full: VandermondeSystem, tol: float) -> tuple[Edge, ...] | None:
    """The fewest edges of ``full`` whose fit is within ``tol``, by exhaustive search.

    Every subset of the complete system's edges is tried in order of size,
    each fitted by ``fit(restrict(full, subset))`` and feasible when its rms
    is at most ``tol``; the first feasible size wins.  Ties go to the first
    subset in ``itertools.combinations`` order over ``full.edges``, which is
    the lexicographically smallest sorted edge set.  The empty set is
    feasible when the injections' own rms is within ``tol``; None is
    returned when not even all the edges are.

    A subset whose least-squares residual alone, the ``rho`` of its
    compressed system, already puts its rms above ``tol`` is skipped without
    a fit: ``fit`` takes that same compressed system and its residual is
    ``hypot`` of the NNLS objective and that ``rho``, so the skip rejects
    exactly the subsets the fit would, bit for bit, only sooner.
    """
    if np.hypot(np.linalg.norm(full.rhs), full.rho) / np.sqrt(full.rows) <= tol:
        return ()
    for size in range(1, len(full.edges) + 1):
        for subset in combinations(full.edges, size):
            system = restrict(full, subset)
            if compressed(system).rho / np.sqrt(system.rows) > tol:
                continue
            if fit(system).rms <= tol:
                return subset
    return None
