"""Non-negative least squares: Lawson-Hanson until its first drop, then
block principal pivoting.

The solver runs in two phases and satisfies the KKT conditions up to
least-squares precision, unlike interior-point solvers that stop at a
duality-gap tolerance.  No step forms the normal equations, which would
square the condition number.

**Lawson-Hanson phase** (Lawson & Hanson, *Solving Least Squares Problems*,
1974, ch. 23).  From w = 0, the column with the most negative gradient
enters the passive set, lowest index on ties, and the passive columns are
solved by least squares, as long as some gradient on the zero set is below
``-KKT_TOL`` (an absolute test).  A column enters at every step, so the
solver keeps a QR factor of the passive columns from step to step and a
least-squares solve is one product with the inverse of its triangular R.
An entering column is appended by Gram-Schmidt with one reorthogonalization
(CGS2).  While every passive weight stays positive this phase is all there
is; a system whose optimum is reached that way, such as a tall one whose
least-squares solution is positive, never leaves it.

**Block phase** (Júdice & Pires, *Comput. Oper. Res.* 21(5), 1994; Kim &
Park, *SIAM J. Sci. Comput.* 33(6), 2011).  The first least-squares solve
that gives a passive weight at or below zero would make Lawson-Hanson step
back and drop columns one at a time; instead its passive set F is handed,
with that solution, to block principal pivoting, and the factor above is
released first.  Each block iteration takes the infeasible indices, a
negative weight on F or a gradient below ``-KKT_TOL`` on the zero set, and
moves every one of them to the other set while their count keeps falling.
After ``FULL_EXCHANGES_WITHOUT_PROGRESS`` full exchanges in a row that do not
lower it, only the lowest infeasible index moves, which guarantees
termination on full column rank.  F is then solved afresh by one Householder
QR of ``[A_F | b]`` and a back-substitution.  The phase stops on signs: no
weight on F below zero and no gradient on the zero set below ``-KKT_TOL``.

When a diagonal entry of R falls to ``FALLBACK_RTOL`` times the largest norm
among the passive columns, or there are more passive columns than rows, the
passive set is numerically rank-deficient (degenerate topologies have such
sets), and its solve is minimum-norm least squares on those columns
(``np.linalg.lstsq``).  In the Lawson-Hanson phase a deficient factor stays
so, since columns only enter there.

Both phases count least-squares solves in ``iterations`` against one cap.
A result whose KKT residual exceeds ``KKT_TOL`` is not returned: it is
raised with :class:`NnlsError`, as is the best feasible iterate at the cap.

A system whose unconstrained least-squares solution is strictly positive
needs no active-set step: on full column rank that solution is the unique
minimizer over all w, so over w >= 0 as well, and it meets the KKT
conditions with an empty zero set and a zero gradient (Lawson & Hanson,
ch. 23).  :func:`solve` would reach it from w = 0 by one step per column.
:func:`back_substitute` takes a square upper triangle, as a re-compressed
system is, applies the same rank test as the factor above, solves it by one
back-substitution and returns that solution only when every weight is
positive and the KKT residual is at most ``KKT_TOL``; otherwise the caller
runs :func:`solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the KKT residual accepted at termination
KKT_TOL = 1e-8
# a diagonal entry of R at or below this fraction of the largest passive
# column norm marks the passive set rank-deficient
FALLBACK_RTOL = 1e-10
# least-squares solves allowed on k columns: max(ITERATIONS_PER_COLUMN * k, MIN_ITERATIONS)
ITERATIONS_PER_COLUMN = 10
MIN_ITERATIONS = 100
# full exchanges the block phase makes in a row without lowering the
# infeasible count before it moves one index at a time
FULL_EXCHANGES_WITHOUT_PROGRESS = 3


@dataclass
class NnlsResult:
    """Solution w >= 0 with optimality diagnostics.

    ``objective`` is ||A w - b||; ``kkt_residual`` is the largest violation
    of the optimality conditions (gradient >= 0 on the zero set, gradient = 0
    on the positive set), at most ``KKT_TOL`` at termination; ``iterations``
    counts least-squares solves.
    """

    w: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


class NnlsError(RuntimeError):
    """No solution within ``KKT_TOL`` or within the iteration cap; carries
    the result returned in its place (the best feasible iterate at the cap)."""

    def __init__(self, message: str, result: NnlsResult):
        super().__init__(message)
        self.result = result


def _kkt_residual(grad: np.ndarray, passive: np.ndarray) -> float:
    viol = 0.0
    if np.any(~passive):
        viol = max(viol, float(np.max(-grad[~passive], initial=0.0)))
    if np.any(passive):
        viol = max(viol, float(np.max(np.abs(grad[passive]), initial=0.0)))
    return viol


def _full_rank(R: np.ndarray) -> bool:
    """Whether every diagonal entry of the upper triangle R exceeds
    ``FALLBACK_RTOL`` times its largest column norm."""
    return bool(np.min(np.abs(np.diag(R))) > FALLBACK_RTOL * np.max(np.linalg.norm(R, axis=0)))


class _PassiveQR:
    """QR factor of A's passive columns, in the order they entered.

    With p = len(cols) and no rank deficiency, ``q[:, :p] @ R`` is
    ``A[:, cols]`` for an upper-triangular R whose inverse is
    ``rinv[:p, :p]``, and ``qtb[:p]`` is ``q[:, :p].T @ b``.  R^-1 grows a
    column at a time as columns enter, so a solve is one triangular product;
    inverted that way (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sec. 14.2, method 2) it gives the solve the
    componentwise forward error bound of back-substitution.  A
    rank-deficient set stays so when columns are added, so the factor stops
    growing once ``deficient`` is set and only ``cols`` is kept.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, k = A.shape
        size = min(m, k)  # a full-rank passive set has at most this many columns
        self.A, self.b = A, b
        self.q = np.empty((m, size), order="F")
        self.rinv = np.zeros((size, size))
        self.qtb = np.empty(size)
        self.cols: list[int] = []
        self.deficient = False
        self._scale = 0.0  # largest norm among the factored columns
        self._smallest = np.inf  # smallest diagonal entry of R, in modulus

    def append(self, j: int) -> None:
        p = len(self.cols)
        self.cols.append(j)
        if self.deficient:
            return
        if p == len(self.qtb):  # more columns than rows
            self.deficient = True
            return
        a = self.A[:, j]
        Q = self.q[:, :p]
        h = Q.T @ a
        v = a - Q @ h
        again = Q.T @ v  # the second pass restores what cancellation lost
        v -= Q @ again
        h += again
        d = math.sqrt(v @ v)
        self._scale = max(self._scale, math.sqrt(a @ a))
        self._smallest = min(self._smallest, d)
        if self._smallest <= FALLBACK_RTOL * self._scale:
            self.deficient = True
            return
        # R gains the column (h, d): its inverse gains (-R^-1 h / d, 1 / d)
        self.rinv[:p, p] = self.rinv[:p, :p] @ h / -d
        self.rinv[p, p] = 1.0 / d
        self.q[:, p] = v / d
        self.qtb[p] = self.q[:, p] @ self.b

    def least_squares(self, passive: np.ndarray) -> np.ndarray:
        """Least-squares weights on the passive columns, zero elsewhere."""
        z = np.zeros(self.A.shape[1])
        if self.deficient:
            z[passive], *_ = np.linalg.lstsq(self.A[:, passive], self.b, rcond=None)
        else:
            p = len(self.cols)
            z[self.cols] = self.rinv[:p, :p] @ self.qtb[:p]
        return z


def _passive_least_squares(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares weights on the passive columns, zero elsewhere, from one
    Householder QR of ``[A_F | b]`` and a back-substitution; minimum-norm
    ``lstsq`` when the passive set is rank-deficient or wider than tall."""
    z = np.zeros(A.shape[1])
    cols = A[:, passive]
    p = cols.shape[1]
    if p == 0:
        return z
    if p <= A.shape[0]:
        R = np.linalg.qr(np.column_stack((cols, b)), mode="r")
        if _full_rank(R[:p, :p]):
            # LU of a triangular matrix takes no row swap: this is a back-substitution
            z[passive] = np.linalg.solve(R[:p, :p], R[:p, p])
            return z
    z[passive], *_ = np.linalg.lstsq(cols, b, rcond=None)
    return z


def back_substitute(R, b) -> NnlsResult | None:
    """The NNLS optimum of a square upper triangle R, when it is R^-1 b.

    Returns None when a diagonal entry of R is at or below ``FALLBACK_RTOL``
    times its largest column norm, when a weight of R^-1 b is not positive,
    or when the KKT residual exceeds ``KKT_TOL``; a result counts one
    least-squares solve.
    """
    R = np.asarray(R, dtype=float)
    b = np.asarray(b, dtype=float)
    k = len(b)
    if R.shape != (k, k) or b.ndim != 1 or k == 0:
        raise ValueError("R must be (k, k) and b must be (k,) with k >= 1")
    if not _full_rank(R):
        return None
    # LU of a triangular matrix takes no row swap: this is a back-substitution
    w = np.linalg.solve(R, b)
    if not (w > 0).all():
        return None
    resid = b - R @ w
    kkt = _kkt_residual(-(R.T @ resid), np.ones(k, dtype=bool))
    if kkt > KKT_TOL:
        return None
    return NnlsResult(w, float(np.linalg.norm(resid)), kkt, 1)


def solve(A, b) -> NnlsResult:
    """Minimize ||A w - b|| subject to w >= 0.

    Raises :class:`NnlsError` when the KKT residual at termination exceeds
    ``KKT_TOL``, with that result attached, and when more than
    max(ITERATIONS_PER_COLUMN * k, MIN_ITERATIONS) least-squares solves are
    needed on k columns, with the best feasible iterate attached.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be (m, k) and b must be (m,) with matching m")
    k = A.shape[1]
    max_iter = max(ITERATIONS_PER_COLUMN * k, MIN_ITERATIONS)

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    factor = _PassiveQR(A, b)
    iterations = 0
    while True:
        resid = b - A @ x
        grad = -(A.T @ resid)  # gradient of 0.5 ||A w - b||^2
        candidates = ~passive & (-grad > KKT_TOL)
        if not candidates.any():
            return _checked(x, resid, grad, passive, iterations)
        feasible = (x, resid, grad, passive.copy())
        # enter the column with the most negative gradient; argmax takes the
        # first (= lowest-index) maximum on ties
        entering = int(np.argmax(np.where(candidates, -grad, -np.inf)))
        passive[entering] = True
        factor.append(entering)
        z = factor.least_squares(passive)
        iterations += 1
        if iterations > max_iter:
            raise _capped(max_iter, feasible, iterations)
        if not (z[passive] > 0).all():
            del factor  # the block phase solves afresh: free q and R^-1 first
            return _block_phase(A, b, passive, z, feasible, iterations, max_iter)
        x = z


def _block_phase(A, b, passive, z, feasible, iterations, max_iter) -> NnlsResult:
    """Block principal pivoting from ``passive`` and its least-squares
    solution ``z``; ``feasible`` is the last feasible iterate, as the
    (w, residual, gradient, passive set) of :func:`_result`."""
    best = float(np.linalg.norm(feasible[1]))
    fewest, spare = len(z) + 1, FULL_EXCHANGES_WITHOUT_PROGRESS
    while True:
        resid = b - A @ z
        grad = -(A.T @ resid)
        negative = passive & (z < 0)
        infeasible = negative | (~passive & (grad < -KKT_TOL))
        count = int(np.count_nonzero(infeasible))
        if count == 0:
            return _checked(z, resid, grad, passive, iterations)
        objective = float(np.linalg.norm(resid))
        if not negative.any() and objective < best:
            feasible, best = (z, resid, grad, passive.copy()), objective
        if count < fewest:
            fewest, spare = count, FULL_EXCHANGES_WITHOUT_PROGRESS
        elif spare > 0:
            spare -= 1
        else:  # move the lowest infeasible index alone
            infeasible = np.arange(len(z)) == np.argmax(infeasible)
        passive ^= infeasible
        z = _passive_least_squares(A, b, passive)
        iterations += 1
        if iterations > max_iter:
            raise _capped(max_iter, feasible, iterations)


def _result(w, resid, grad, passive, iterations) -> NnlsResult:
    return NnlsResult(w, float(np.linalg.norm(resid)), _kkt_residual(grad, passive), iterations)


def _checked(w, resid, grad, passive, iterations) -> NnlsResult:
    """The result at termination, raised when its KKT residual exceeds ``KKT_TOL``."""
    result = _result(w, resid, grad, passive, iterations)
    if result.kkt_residual > KKT_TOL:
        raise NnlsError(f"KKT residual {result.kkt_residual:.3g} exceeds {KKT_TOL:g}", result)
    return result


def _capped(max_iter, feasible, iterations) -> NnlsError:
    return NnlsError(
        f"no convergence within {max_iter} least-squares solves", _result(*feasible, iterations)
    )
