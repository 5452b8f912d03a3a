"""Sparse network recovery: alternate sparsification and re-estimation.

The loop starts from a non-negative least-squares fit on the complete graph,
then repeatedly sparsifies the current network and re-estimates parameters on
the surviving edges.  A sparsification that fails to drop edges loosens the
closeness parameter (eps *= psi); a re-estimation whose rms exceeds the
tolerance tightens it (eps /= psi); an accepted network strictly shrinks the
edge set.  Iteration 1 is the complete-graph fit itself.  Before each
further iteration the loop checks, in this order, whether it stops:

- ``minimal``: deleting any one edge from the held fit would raise the rms
  past the tolerance, least squares on the remaining edges included, and
  every later candidate lies inside such a deletion; a held fit with no
  positive weight has no proper subset at all (see :func:`_minimal`).  The
  initial fit is held as an accepted one is, so this can end iteration 1;
- ``time``: ``max_wall_time`` seconds have passed since the run began;
- ``iterations``: the trace has ``max_iterations`` rows;
- ``stale``: ``max_stale_iterations`` rows have followed the held fit's.

It logs the reason at INFO, as ``stopping after iteration N (reason)``, and
records it as the trace's ``stop``.

A run is two steps, and :func:`recover` is exactly them.  :func:`head`
assembles the complete graph and fits it; neither depends on the seed or
the tolerance, so one :class:`Head` serves the loops of any number of
seeds at any tolerances.  :func:`loop` then runs one seed's iterations
from it, certifying the complete graph's fit at its tolerance as it
certifies each accepted one.  All candidate systems are column
restrictions of the complete-graph system, assembled once per head into
its triangular factor, and every one is estimated by :func:`fit`.  A
draw's decision needs only its edge set: the loop reads the edges of each
sparsification outcome and never its weights or sampled network, which
are therefore never built.  Likewise no decision reads a fit's condition
number: each trace row holds the fit it reports, and the SVD behind its
``kappa`` runs on first read, once per fit, so ``recover`` itself runs none.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .network import Network, _integral, _kept, _real, complete_edges
from .nnls import NnlsError, NnlsResult, _full_rank, solve as nnls_solve
from .sparsify import sparsify_ac
from .states import StateSet, rms as states_rms
from .vandermonde import (
    VandermondeSystem,
    _deletion_residuals,
    _real_form,
    assemble,
    compressed,
    condition_number,
    network_from_columns,
    restrict,
)

log = logging.getLogger("gridrecover.recovery")

EVENT_INITIAL = "initial"
EVENT_ACCEPTED = "accepted"
EVENT_REJECTED_RMS = "rejected_rms"
EVENT_NO_REDUCTION = "no_edge_reduction"

EVENTS = (EVENT_INITIAL, EVENT_ACCEPTED, EVENT_REJECTED_RMS, EVENT_NO_REDUCTION)

# A held network is certified minimal only when each edge's deletion bound
# clears the acceptance threshold tol * sqrt(rows) by this many units of
# p * eps * kappa * ||b|| (p real columns, kappa the Frobenius condition
# number ||R||_F ||R^-1||_F of their triangle, b the data's injections).
# That unit is the scale of the roundoff in a least-squares residual
# computed through a Householder QR of p columns (Higham, *Accuracy and
# Stability of Numerical Algorithms*, 2002, ch. 20), and the bound and a
# candidate's own rms are both such residuals; the hundredfold room covers
# the constants those error bounds leave out.  Both are taken on the real
# form the solver fits, as vandermonde._deletion_residuals gives them: an AC
# triangle of p complex columns counts 2p real ones, and twice its own
# Frobenius product, which is the real form's.
MINIMAL_ROUNDOFF_UNITS = 100


@dataclass
class RecoveryConfig:
    """Knobs of the recovery loop.

    ``eps0`` is the starting closeness parameter and ``psi > 1`` its
    exploration factor, both finite.  ``tol`` is the rms acceptance
    tolerance.  These three and the wall time are numbers, not booleans or
    strings.  ``seed`` is a non-negative integer, as numpy's seed
    sequences take.  At least one finite limit must be set; the iteration
    counts must be integers of at least 1 and the wall time positive.  An
    integral float such as ``3.0`` is taken as its int, and any real
    number given for the four real fields, an int or a numpy scalar, is
    stored as a Python float.
    """

    eps0: float = 0.1
    psi: float = 1.5
    tol: float = 1e-5
    seed: int = 0
    max_iterations: int | None = None
    max_wall_time: float | None = None
    max_stale_iterations: int | None = 30

    def __post_init__(self):
        # written as "not lo < x < hi" so that nan is rejected too
        if not 0 < (eps0 := _real(self.eps0, "eps0")) < math.inf:
            raise ValueError("eps0 must be positive and finite")
        if not 1 < (psi := _real(self.psi, "psi")) < math.inf:
            raise ValueError("psi must exceed 1 and be finite")
        if not (tol := _real(self.tol, "tol")) > 0:
            raise ValueError("tol must be positive")
        self.seed = _integral(self.seed, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("max_iterations", "max_stale_iterations"):
            value = getattr(self, name)
            if value is not None and (value := _integral(value, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
            setattr(self, name, value)
        if (wall := self.max_wall_time) is not None and not (wall := _real(wall, "max_wall_time")) > 0:
            raise ValueError("max_wall_time must be positive")
        self.eps0, self.psi, self.tol, self.max_wall_time = eps0, psi, tol, wall
        # None sets no limit, and neither does an infinite wall time
        limits = (self.max_iterations, self.max_stale_iterations, self.max_wall_time or math.inf)
        if limits == (None, None, math.inf):
            raise ValueError("enable at least one stopping criterion")


@dataclass(frozen=True, eq=False)
class Fit:
    """A parameter estimate on a fixed edge set: the system it solved, its
    rms fitting error over all the equations of the data, and the solver's
    result.  ``network`` is the network the NNLS solution describes
    (zero-weight edges included), built on first read by
    :func:`vandermonde.network_from_columns`, the one reader of the
    solver's (c, s) layout: the loop holds its
    :meth:`~network.Network.normalized` part, and :func:`_minimal` reads
    the edges it keeps.  ``kappa``, the condition number of the system's
    matrix, is computed on first read too, once per fit: it is a diagnostic
    that the trace reports and no decision reads, and its SVD costs as much
    as the complete graph's assembly.

    A system with more rows than columns, such as a candidate cut from the
    complete graph's factor, is compressed again first
    (:func:`vandermonde.compressed`): ``system`` is that square system, with
    the singular values of the candidate's matrix, so ``kappa`` is that
    matrix's, and the solver starts from all its columns (``from_all``):
    when it has full rank and every least-squares weight is positive, its
    back-substitution is the fit, in one least-squares solve.  The solver
    takes the system in its real (c, s) form (:func:`vandermonde._real_form`),
    the system itself on DC, so ``nnls.w`` holds each edge's conductance, and
    on AC its susceptance after it.  Either way ``nnls.objective`` is the
    square system's residual norm, which leaves out ``rho``; ``rms`` is
    ``hypot(nnls.objective, rho) / sqrt(rows)``, the rms of the data's
    residuals.

    That re-compression, complex on AC, is the one factorization of a
    candidate: the real form of a triangle is upper triangular, and the
    solver takes a square upper-triangular system as its own factor.  A
    fit's arrays have only its system's columns: the candidate's matrix,
    ``[matrix | rhs]`` and numpy's factored copy of that (the buffer is
    dropped before the triangle is cut from the copy), then the real form
    and the solver's factor of it (``nnls._PassiveQR``).  The complete
    graph's fit is the largest: its solver's factor, beside the triangle
    and on AC the real form, sets a run's allocation peak on AC and on DC
    from n = 20 up, and the assembly sets it on smaller DC networks.  The
    README states these peaks in bytes."""

    system: VandermondeSystem
    rms: float
    nnls: NnlsResult

    @cached_property
    def network(self) -> Network:
        return network_from_columns(self.system, self.nnls.w)

    @cached_property
    def kappa(self) -> float:
        return condition_number(self.system.matrix)


def fit(system: VandermondeSystem) -> Fit:
    """Best non-negative parameters for the system's edges.

    A system with more rows than columns is re-compressed to a square
    system (:func:`vandermonde.compressed`) and fitted from all its columns,
    which the solver's warm start takes when the triangle has full rank; a
    square system, such as the complete graph's or an assembled one, is
    fitted from w = 0.  The solver gets the real (c, s) form of the system
    (:func:`vandermonde._real_form`), the one step that needs it.  The
    fit's ``kappa`` is left to its first read.  Raises ValueError when the
    residual norm overflows, and :class:`NnlsError` when the solver does not
    converge or ends above ``nnls.KKT_TOL``.
    """
    rows, cols = system.matrix.shape
    system = compressed(system) if rows > cols else system
    try:
        result = nnls_solve(*_real_form(system), from_all=rows > cols)
    except NnlsError as exc:
        _residual(exc.result, system)  # an overflow is the clearer report
        raise
    fit_rms = float(_residual(result, system) / np.sqrt(system.rows))
    return Fit(system, fit_rms, result)


def _residual(result: NnlsResult, system: VandermondeSystem) -> float:
    """The residual norm over the data's equations, ||A w - b||^2 being
    ||matrix w - rhs||^2 + rho^2; raises ValueError when it overflows."""
    residual = float(np.hypot(result.objective, system.rho))
    if not np.isfinite(residual):
        raise ValueError(f"fit residual overflows to {residual}; rescale the data")
    return residual


def _minimal(held: Fit, tol: float) -> bool:
    """Whether no proper subset of the held network's edges can fit within ``tol``.

    Every later candidate is drawn from the held network H, so one with
    fewer edges lies inside H minus some edge e, and NNLS on its columns
    does no better than unconstrained least squares on H minus e, whose
    squared residual :func:`vandermonde._deletion_residuals` gives for
    every e at once.  H is minimal when each exceeds ``rows * tol^2``, with
    the room of ``MINIMAL_ROUNDOFF_UNITS``.  A held fit with no positive
    weight is minimal: its network has no edge, so no proper subset and no
    draw.  A triangle that fails the solver's rank test
    (``nnls._full_rank``) certifies nothing.

    The triangle comes from :func:`vandermonde.compressed` on H's edges,
    those the held fit's network keeps (``network._kept``).  When every
    held weight is positive the held system is already that triangle, so
    no QR is run.
    """
    system, net = held.system, held.network
    keep = _kept(net.c, net.s)
    if not keep.any():
        return True
    kept = compressed(system, keep)
    if not _full_rank(kept.matrix):
        return False
    residuals, cols, kappa = _deletion_residuals(kept)  # in the real form's units
    b = math.hypot(np.linalg.norm(system.rhs), system.rho)  # ||b|| of the data
    roundoff = MINIMAL_ROUNDOFF_UNITS * cols * np.finfo(float).eps * kappa * b
    threshold = tol * math.sqrt(system.rows) + roundoff
    return bool(np.min(residuals) > threshold * threshold)


class _FitKappa:
    """The ``kappa`` field of a :class:`TraceRow`: it stores a float or the
    :class:`Fit` the row reports, and reads as the float or that fit's
    ``kappa``.  Raising AttributeError on the class leaves the field
    without a default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, row, owner=None):
        if row is None:
            raise AttributeError(self.name)
        value = row.__dict__[self.name]
        return value.kappa if isinstance(value, Fit) else value

    def __set__(self, row, value):
        row.__dict__[self.name] = value


@dataclass(frozen=True)
class TraceRow:
    """One loop iteration.  ``edges``/``rms``/``kappa`` describe the fitted
    network of the iteration: the held one for 'initial'/'accepted'/
    'no_edge_reduction' rows, the rejected candidate for 'rejected_rms' rows.
    ``epsilon`` is the value used by the sparsification of that iteration.

    ``kappa`` is given as a float, as a row read from CSV gives it, or as
    the :class:`Fit` the row reports, as the loop gives it: then it reads
    as that fit's ``kappa``, computed on first read, once per fit, so rows
    that repeat one fit share its one SVD.  Either way a row compares,
    hashes and prints by its six values, and it pickles as them, so a
    pickled trace carries no fit.

    The last 'initial' or 'accepted' row is the loop's record of its held
    fit, and a 'no_edge_reduction' row repeats it.  Its ``edges`` is also the
    draw bound: a candidate must have fewer edges to be refitted.  On an
    'accepted' row that is the held network's positive edges; on the
    'initial' row it is every edge of the complete graph, zero-weight ones
    included, so the first draw is bounded by that count.  A run certified
    minimal at that row returns the complete-graph fit's positive edges,
    which can be fewer than the row shows."""

    iteration: int
    edges: int
    rms: float
    kappa: float = _FitKappa()
    epsilon: float
    event: str

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class RecoveryTrace:
    """Full per-iteration log of one recovery run.  ``stop`` is the reason
    the loop stopped, ``minimal``, ``time``, ``iterations`` or ``stale``
    (see the module docstring); it is None on a trace read back from CSV
    and on the partial trace of a :class:`RecoveryError`.  The loop checks
    ``minimal`` first, so a run is certified (:func:`_minimal`) exactly
    when ``stop`` is ``minimal``, and needs no field of its own to say so."""

    rows: list[TraceRow] = field(default_factory=list)
    stop: str | None = None

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def filtered(self) -> list[TraceRow]:
        """Rows where the held network changed (the published-table view)."""
        return [r for r in self.rows if r.event in (EVENT_INITIAL, EVENT_ACCEPTED)]


class RecoveryError(RuntimeError):
    """Recovery aborted; carries the partial trace and the held network (None
    before the initial fit), zero-weight edges pruned."""

    def __init__(self, message: str, trace: RecoveryTrace, network: Network | None):
        super().__init__(message)
        self.trace = trace
        self.network = network

    def __reduce__(self):
        # rebuilt from all three arguments, so the error crosses a process
        # boundary when a caller runs recover in a process pool of its own
        return type(self), (*self.args, self.trace, self.network)


@dataclass(frozen=True, eq=False)
class Head:
    """The part of a run that neither the seed nor the tolerance changes,
    computed by :func:`head`: the data, the complete graph's ``initial``
    fit and the ``seconds`` both took.  The complete graph's system is
    square or wide, so :func:`fit` keeps it as it is: ``initial.system`` is
    the system every candidate is cut from.

    :func:`loop` only reads a head: restriction and refits copy from its
    systems' read-only arrays, each loop cuts its own held network from
    ``initial.network``, and the head's caches, that network, built on the
    first loop's read, and ``initial.kappa``, built on the first read of a
    loop's first row, depend on nothing else, so the loops of several seeds
    and tolerances can share one head in turn."""

    states: StateSet
    initial: Fit
    seconds: float


def head(states: StateSet) -> Head:
    """Assemble the complete graph and fit it.

    Raises ValueError on fewer than two nodes, and :class:`RecoveryError`
    with an empty trace and no network when the fit fails.
    """
    if states.n < 2:
        raise ValueError("need at least two nodes")
    t0 = time.monotonic()
    try:
        initial = fit(assemble(complete_edges(states.n), states))
    except NnlsError as exc:
        raise RecoveryError(f"initial estimation failed: {exc}", RecoveryTrace(), None) from exc
    return Head(states, initial, time.monotonic() - t0)


def _warned_head(states: StateSet, tol: float) -> Head:
    """:func:`head`, with a warning when the complete-graph fit's rms exceeds
    ``tol``: a subset of the complete graph's columns cannot fit better than
    all of them.  :func:`recover` takes its head here, and so does
    ``recover --trials``, so the warning is logged once per run or command."""
    start = head(states)
    if (rms := start.initial.rms) > tol:
        log.warning("complete-graph fit rms %.3e exceeds tol %.3e; no subset of its edges fits better", rms, tol)
    return start


def loop(start: Head, cfg: RecoveryConfig) -> tuple[Network, RecoveryTrace]:
    """One seed's run from a head, as :func:`recover` returns it.  The
    complete graph's fit is certified at ``cfg.tol`` (:func:`_minimal`)
    before the first stop check, as each accepted refit is.  The wall-time
    limit counts the head's seconds too, so a run on a shared head stops
    when a run of its own would."""
    t0 = time.monotonic() - start.seconds
    initial = held_fit = start.initial
    minimal = _minimal(initial, cfg.tol)  # no later candidate can be accepted
    trace = RecoveryTrace()
    # the held network, zero-weight edges pruned: they add nothing to the
    # Laplacian, so they change no draw; held is its trace row, whose edge
    # count bounds the draws and includes them until the first accept
    cur = initial.network.normalized()
    held = TraceRow(1, len(initial.system.edges), initial.rms, initial, cfg.eps0, EVENT_INITIAL)
    trace.append(held)

    eps = cfg.eps0
    # the iteration under way is len(trace) + 1: every iteration appends one row
    while True:
        reason = (  # a limit of None is no limit
            "minimal" if minimal
            else "time" if time.monotonic() - t0 >= (cfg.max_wall_time or math.inf)
            else "iterations" if len(trace) >= (cfg.max_iterations or math.inf)
            else "stale" if len(trace) - held.iteration >= (cfg.max_stale_iterations or math.inf)
            else None
        )
        if reason:
            log.info("stopping after iteration %d (%s)", len(trace), reason)
            trace.stop = reason
            break
        try:
            outcome = sparsify_ac(cur, eps, np.random.SeedSequence([cfg.seed, len(trace) + 1]))
        except ValueError as exc:  # such as eps shrunk past the 2^63-draw limit
            raise RecoveryError(
                f"sparsification failed at iteration {len(trace) + 1}: {exc}", trace, cur
            ) from exc
        candidate_edges = outcome.edges
        if len(candidate_edges) < held.edges:
            try:
                refit = fit(restrict(initial.system, candidate_edges))
            except NnlsError as exc:
                raise RecoveryError(
                    f"estimation failed at iteration {len(trace) + 1}: {exc}", trace, cur
                ) from exc
            if refit.rms <= cfg.tol:
                held_fit, cur = refit, refit.network.normalized()
                minimal = _minimal(refit, cfg.tol)
                held = TraceRow(len(trace) + 1, len(cur.edges), refit.rms, refit, eps, EVENT_ACCEPTED)
                trace.append(held)
                continue
            trace.append(
                TraceRow(len(trace) + 1, len(candidate_edges), refit.rms, refit, eps, EVENT_REJECTED_RMS)
            )
            eps = eps / cfg.psi
        else:  # the held row again, built from its fit: reading its kappa would run the SVD
            trace.append(TraceRow(len(trace) + 1, held.edges, held.rms, held_fit, eps, EVENT_NO_REDUCTION))
            eps = eps * cfg.psi

    if log.isEnabledFor(logging.INFO):  # the re-check costs a pass over the data
        log.info(
            "recovered %d edges, rms %.3e (re-checked %.3e)",
            len(cur.edges),
            held.rms,
            states_rms(cur, start.states),
        )
    return cur, trace


def recover(states: StateSet, cfg: RecoveryConfig | None = None) -> tuple[Network, RecoveryTrace]:
    """Recover a sparse network fitting the data within cfg.tol.

    Returns the last held network (the complete-graph fit or the last
    accepted one, zero-weight edges pruned) and the full trace; a run that
    cannot go on raises :class:`RecoveryError`.  This is :func:`head` and
    then :func:`loop`, which certifies the complete-graph fit at ``cfg.tol``
    as it certifies each accepted refit (:func:`_minimal`), so a run whose
    initial fit is already minimal stops at iteration 1 before any draw.
    That includes a fit with no positive-weight edge, such as that of data
    with no flow, which is returned with no edge, and a fit whose rms
    exceeds the tolerance: a subset of the complete graph's columns cannot
    fit better than all of them, so such a run is logged with a warning,
    once, and goes on only when the certificate's roundoff room or rank
    test leaves the fit uncertified.
    """
    cfg = RecoveryConfig() if cfg is None else cfg
    return loop(_warned_head(states, cfg.tol), cfg)
