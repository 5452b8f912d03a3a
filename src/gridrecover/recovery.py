"""Sparse network recovery: alternate sparsification and re-estimation.

The loop starts from a non-negative least-squares fit on the complete graph,
then repeatedly sparsifies the current network and re-estimates parameters on
the surviving edges.  A sparsification that fails to drop edges loosens the
closeness parameter (eps *= psi); a re-estimation whose rms exceeds the
tolerance tightens it (eps /= psi); an accepted network strictly shrinks the
edge set.  Iteration 1 is the complete-graph fit itself.

All candidate systems are column restrictions of the complete-graph system,
assembled once per run into its triangular factor, and every one is
estimated by :func:`fit`.  A run keeps the rms and condition number of each
rejected candidate by its edge set: sparsification often draws an edge set
the run has already rejected, and the kept pair then stands in for a new
restriction and solve.  An accepted edge set is never drawn again, since
every later candidate has fewer edges than the network it is drawn from.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .network import Network, complete_edges, is_spanning_tree
from .nnls import NnlsError, NnlsResult, back_substitute, solve as nnls_solve
from .sparsify import sparsify_ac
from .states import StateSet, rms as states_rms
from .vandermonde import VandermondeSystem, assemble, condition_number, network_from_columns, restrict

log = logging.getLogger("gridrecover.recovery")

EVENT_INITIAL = "initial"
EVENT_ACCEPTED = "accepted"
EVENT_REJECTED_RMS = "rejected_rms"
EVENT_NO_REDUCTION = "no_edge_reduction"

EVENTS = (EVENT_INITIAL, EVENT_ACCEPTED, EVENT_REJECTED_RMS, EVENT_NO_REDUCTION)


@dataclass
class RecoveryConfig:
    """Knobs of the recovery loop.

    ``eps0`` is the starting closeness parameter and ``psi > 1`` its
    exploration factor, both finite.  ``tol`` is the rms acceptance
    tolerance.  At least one stopping criterion must be enabled; the
    iteration counts must be at least 1 and the wall time positive.
    """

    eps0: float = 0.1
    psi: float = 1.5
    tol: float = 1e-5
    seed: int = 0
    max_iterations: int | None = None
    max_wall_time: float | None = None
    max_stale_iterations: int | None = 30
    stop_on_tree: bool = False

    def __post_init__(self):
        # written as "not lo < x < hi" so that nan is rejected too
        if not 0 < self.eps0 < math.inf:
            raise ValueError("eps0 must be positive and finite")
        if not 1 < self.psi < math.inf:
            raise ValueError("psi must exceed 1 and be finite")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_stale_iterations is not None and self.max_stale_iterations < 1:
            raise ValueError("max_stale_iterations must be at least 1")
        if self.max_wall_time is not None and not self.max_wall_time > 0:
            raise ValueError("max_wall_time must be positive")
        if not (
            self.max_iterations is not None
            or self.max_wall_time is not None
            or self.max_stale_iterations is not None
            or self.stop_on_tree
        ):
            raise ValueError("enable at least one stopping criterion")


@dataclass(frozen=True, eq=False)
class Fit:
    """A parameter estimate on a fixed edge set: the system it solved, its
    rms fitting error over all the equations of the data, the condition
    number of that system, and the solver's result.  ``network`` is the
    network the NNLS solution describes (zero-weight edges included), built
    on first read.

    A system with more rows than columns, such as a candidate cut from the
    complete graph's factor, is compressed again first: one QR of
    ``[matrix | rhs]`` gives a square triangle with the singular values of
    ``matrix``, so ``kappa`` is that of ``matrix``, a new rhs, and a corner
    that joins ``rho`` by ``hypot``.  ``system`` is that square system.  Its
    back-substitution is the least-squares solution; when it has full rank
    and every weight is positive, that solution is the NNLS optimum, taken
    as the fit in one least-squares solve (:func:`nnls.back_substitute`).
    Otherwise the active-set solver runs on the square system.  Either way
    ``nnls.objective`` is the square system's residual norm, which leaves
    out ``rho`` and the corner; ``rms`` is ``hypot(nnls.objective, rho,
    corner) / sqrt(rows)``, the rms of the data's residuals."""

    system: VandermondeSystem
    rms: float
    kappa: float
    nnls: NnlsResult

    @cached_property
    def network(self) -> Network:
        return network_from_columns(self.system, self.nnls.w)


def fit(system: VandermondeSystem) -> Fit:
    """Best non-negative parameters for the system's edges.

    A system with more rows than columns is re-compressed to a square
    triangle and fitted by back-substitution when its least-squares weights
    are all positive, by the active-set solver otherwise; a square system,
    such as the complete graph's or an assembled one, always goes to the
    active-set solver.  Raises ValueError when the residual norm overflows,
    and :class:`NnlsError` when the solver does not converge or ends above
    ``nnls.KKT_TOL``.
    """
    rows, cols = system.matrix.shape
    result = None
    if rows > cols:
        R = np.linalg.qr(np.column_stack((system.matrix, system.rhs)), mode="r")
        rho = float(np.hypot(system.rho, R[cols, cols]))
        system = replace(system, matrix=R[:cols, :cols], rhs=R[:cols, cols], rho=rho)
        result = back_substitute(system.matrix, system.rhs)
    if result is None:
        try:
            result = nnls_solve(system.matrix, system.rhs)
        except NnlsError as exc:
            _residual(exc.result, system)  # an overflow is the clearer report
            raise
    fit_rms = float(_residual(result, system) / np.sqrt(system.rows))
    return Fit(system, fit_rms, condition_number(system), result)


def _residual(result: NnlsResult, system: VandermondeSystem) -> float:
    """The residual norm over the data's equations, ||A w - b||^2 being
    ||matrix w - rhs||^2 + rho^2; raises ValueError when it overflows."""
    residual = float(np.hypot(result.objective, system.rho))
    if not np.isfinite(residual):
        raise ValueError(f"fit residual overflows to {residual}; rescale the data")
    return residual


@dataclass(frozen=True)
class TraceRow:
    """One loop iteration.  ``edges``/``rms``/``kappa`` describe the fitted
    network of the iteration: the held one for 'initial'/'accepted'/
    'no_edge_reduction' rows, the rejected candidate for 'rejected_rms' rows.
    ``epsilon`` is the value used by the sparsification of that iteration."""

    iteration: int
    edges: int
    rms: float
    kappa: float
    epsilon: float
    event: str


@dataclass
class RecoveryTrace:
    """Full per-iteration log of one recovery run."""

    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def filtered(self) -> list[TraceRow]:
        """Rows where the held network changed (the published-table view)."""
        return [r for r in self.rows if r.event in (EVENT_INITIAL, EVENT_ACCEPTED)]

    def stale_iterations(self) -> int:
        """Consecutive trailing iterations without an accepted change."""
        count = 0
        for row in reversed(self.rows):
            if row.event in (EVENT_INITIAL, EVENT_ACCEPTED):
                break
            count += 1
        return count


class RecoveryError(RuntimeError):
    """Recovery aborted; carries the partial trace and the held network (None
    before the initial fit), zero-weight edges pruned."""

    def __init__(self, message: str, trace: RecoveryTrace, network: Network | None):
        super().__init__(message)
        self.trace = trace
        self.network = network

    def __reduce__(self):
        # rebuilt from all three arguments, so the error crosses a process boundary
        return type(self), (*self.args, self.trace, self.network)


def should_stop(
    trace: RecoveryTrace,
    cfg: RecoveryConfig,
    elapsed: float = 0.0,
    net: Network | None = None,
) -> tuple[bool, str]:
    """Evaluate the enabled stopping criteria against the current run."""
    if cfg.max_wall_time is not None and elapsed >= cfg.max_wall_time:
        return True, "time"
    if cfg.max_iterations is not None and len(trace) >= cfg.max_iterations:
        return True, "iterations"
    if (
        cfg.max_stale_iterations is not None
        and trace.stale_iterations() >= cfg.max_stale_iterations
    ):
        return True, "stale"
    if cfg.stop_on_tree and net is not None and is_spanning_tree(net):
        return True, "tree"
    return False, ""


def recover(states: StateSet, cfg: RecoveryConfig | None = None) -> tuple[Network, RecoveryTrace]:
    """Recover a sparse network fitting the data within cfg.tol.

    Returns the last accepted network (zero-weight edges pruned) and the full
    trace; a run that cannot go on raises :class:`RecoveryError`.  If the
    initial complete-graph fit already exceeds the tolerance a warning is
    logged and the loop proceeds: re-estimation after sparsification
    frequently lands below it anyway.
    """
    cfg = RecoveryConfig() if cfg is None else cfg
    n = states.n
    if n < 2:
        raise ValueError("need at least two nodes")

    t0 = time.monotonic()
    trace = RecoveryTrace()
    full = assemble(complete_edges(n), states)
    try:
        held = fit(full)
    except NnlsError as exc:
        raise RecoveryError(f"initial estimation failed: {exc}", trace, None) from exc
    cur = held.network
    trace.append(TraceRow(1, len(cur.edges), held.rms, held.kappa, cfg.eps0, EVENT_INITIAL))
    if held.rms > cfg.tol:
        log.warning(
            "complete-graph fit rms %.3e exceeds tol %.3e; continuing", held.rms, cfg.tol
        )

    eps = cfg.eps0
    iteration = 1
    rejected: dict[tuple, tuple[float, float]] = {}  # (rms, kappa) by candidate edge set
    while True:
        stop, reason = should_stop(trace, cfg, time.monotonic() - t0, cur)
        if stop:
            log.info("stopping after iteration %d (%s)", iteration, reason)
            break
        iteration += 1
        eps_used = eps
        try:
            outcome = sparsify_ac(cur, eps, np.random.SeedSequence([cfg.seed, iteration]))
        except ValueError as exc:  # such as eps shrunk past the 2^63-draw limit
            raise RecoveryError(
                f"sparsification failed at iteration {iteration}: {exc}", trace, cur.normalized()
            ) from exc
        candidate_edges = outcome.edges
        if len(candidate_edges) < len(cur.edges):
            if candidate_edges not in rejected:
                try:
                    refit = fit(restrict(full, candidate_edges))
                except NnlsError as exc:
                    raise RecoveryError(
                        f"estimation failed at iteration {iteration}: {exc}",
                        trace,
                        cur.normalized(),
                    ) from exc
                if refit.rms <= cfg.tol:
                    cur, held = refit.network.normalized(), refit
                    trace.append(
                        TraceRow(iteration, len(cur.edges), held.rms, held.kappa, eps_used, EVENT_ACCEPTED)
                    )
                    continue
                rejected[candidate_edges] = (refit.rms, refit.kappa)
            eps = eps / cfg.psi
            trace.append(
                TraceRow(
                    iteration, len(candidate_edges), *rejected[candidate_edges], eps_used, EVENT_REJECTED_RMS
                )
            )
        else:
            eps = eps * cfg.psi
            trace.append(
                TraceRow(
                    iteration, len(cur.edges), held.rms, held.kappa, eps_used, EVENT_NO_REDUCTION
                )
            )

    final = cur.normalized()
    if log.isEnabledFor(logging.INFO):  # the re-check costs a pass over the data
        log.info(
            "recovered %d edges, rms %.3e (re-checked %.3e)",
            len(final.edges),
            held.rms,
            states_rms(final, states),
        )
    return final, trace
