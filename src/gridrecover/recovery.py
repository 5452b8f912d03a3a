"""Sparse network recovery: alternate sparsification and re-estimation.

The loop starts from a non-negative least-squares fit on the complete graph,
then repeatedly sparsifies the current network and re-estimates parameters on
the surviving edges.  A sparsification that fails to drop edges loosens the
closeness parameter (eps *= psi); a re-estimation whose rms exceeds the
tolerance tightens it (eps /= psi); an accepted network strictly shrinks the
edge set.  Iteration 1 is the complete-graph fit itself.

All candidate systems are column restrictions of the complete-graph system,
assembled once per run into its triangular factor, and every one is
estimated by :func:`fit`.  A run keeps each refit by its candidate edge set:
sparsification often draws an edge set the run has already fitted, and the
kept fit then stands in for a new restriction and solve.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .network import Network, complete_edges, is_spanning_tree
from .nnls import NnlsError, NnlsResult, solve as nnls_solve
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
    exploration factor.  ``tol`` is the rms acceptance tolerance.  At least
    one stopping criterion must be enabled; the iteration counts must be at
    least 1 and the wall time positive.
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
        # written as "not x > 0" so that nan is rejected too
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if not self.psi > 1:
            raise ValueError("psi must exceed 1")
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
    """A parameter estimate on a fixed edge set: the network the NNLS
    solution describes (zero-weight edges included), its rms fitting error
    over all the equations of the data, the condition number of its system,
    and the solver's result.

    The solver runs on the compressed system, so ``nnls.objective`` is
    ``||matrix @ w - rhs||``, which leaves out the system's ``rho``; ``rms``
    is ``hypot(nnls.objective, rho) / sqrt(rows)``, the rms of the data's
    residuals."""

    network: Network
    rms: float
    kappa: float
    nnls: NnlsResult


def fit(system: VandermondeSystem, tol: float = 1e-8) -> Fit:
    """Best non-negative parameters for the system's edges.

    ``tol`` bounds the KKT residual of the NNLS solve.  Raises ValueError
    when the residual norm overflows, and :class:`NnlsError` when the solver
    does not converge.
    """
    result = nnls_solve(system.matrix, system.rhs, tol=tol)
    # ||A w - b||^2 = ||matrix w - rhs||^2 + rho^2 over the data's equations
    residual = np.hypot(result.objective, system.rho)
    if not np.isfinite(residual):
        raise ValueError(f"fit residual overflows to {residual}; rescale the data")
    fit_rms = float(residual / np.sqrt(system.rows))
    return Fit(network_from_columns(system, result.w), fit_rms, condition_number(system), result)


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
    refits: dict[tuple, Fit] = {}  # by candidate edge set
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
        candidate_edges = outcome.graph.edges
        if 0 < len(candidate_edges) < len(cur.edges):
            refit = refits.get(candidate_edges)
            if refit is None:
                try:
                    refit = refits[candidate_edges] = fit(restrict(full, candidate_edges))
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
            else:
                eps = eps / cfg.psi
                trace.append(
                    TraceRow(
                        iteration, len(candidate_edges), refit.rms, refit.kappa, eps_used, EVENT_REJECTED_RMS
                    )
                )
        elif len(candidate_edges) == 0:
            # nothing survived; treat like an over-aggressive (rejected) draw
            eps = eps / cfg.psi
            trace.append(
                TraceRow(iteration, 0, float("inf"), float("inf"), eps_used, EVENT_REJECTED_RMS)
            )
        else:
            eps = eps * cfg.psi
            trace.append(
                TraceRow(
                    iteration, len(cur.edges), held.rms, held.kappa, eps_used, EVENT_NO_REDUCTION
                )
            )

    final = cur.normalized()
    log.info(
        "recovered %d edges, rms %.3e (re-checked %.3e)",
        len(final.edges),
        held.rms,
        states_rms(final, states),
    )
    return final, trace
