"""Non-negative least squares by the Lawson-Hanson active-set method.

The solver terminates in finitely many steps at this problem scale and
satisfies the KKT conditions exactly (up to least-squares precision), unlike
interior-point solvers that stop at a duality-gap tolerance.  Ties in the
entering-index choice go to the lowest index, which keeps runs
deterministic.

Every active-set step adds one column to the passive set or removes some, so
the solver keeps a QR factor of the passive columns from step to step
(Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23-24), and a
least-squares solve is one product with the inverse of its triangular R.
An entering column is appended by Gram-Schmidt with one reorthogonalization
(CGS2); after columns leave, which is rarer, the remaining ones are factored
afresh by one Householder QR.  No step forms the normal equations, which
would square the condition number.

When a diagonal entry of R falls to ``FALLBACK_RTOL`` times the largest norm
among the passive columns, the passive set is numerically rank-deficient
(degenerate topologies have such sets).  Its solves are then minimum-norm
least squares on those columns (``np.linalg.lstsq``), until a column leaves
and a fresh factor has full rank again.

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
    """Iteration cap exceeded; carries the best iterate found so far."""

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

    def remove(self, leaving: np.ndarray) -> None:
        """Drop the columns marked in ``leaving`` and factor the rest afresh."""
        self.cols = [j for j in self.cols if not leaving[j]]
        p = len(self.cols)
        self._scale, self._smallest = 0.0, np.inf
        self.deficient = p > len(self.qtb)
        if self.deficient or p == 0:
            return
        Q, R = np.linalg.qr(self.A[:, self.cols])
        self._scale = float(np.max(np.linalg.norm(R, axis=0)))
        self._smallest = float(np.min(np.abs(np.diag(R))))
        self.deficient = self._smallest <= FALLBACK_RTOL * self._scale
        if self.deficient:
            return
        self.q[:, :p] = Q
        # LU of a triangular matrix takes no row swap: each column is a back-substitution
        self.rinv[:p, :p] = np.linalg.inv(R)
        self.qtb[:p] = Q.T @ self.b

    def least_squares(self, passive: np.ndarray) -> np.ndarray:
        """Least-squares weights on the passive columns, zero elsewhere."""
        z = np.zeros(self.A.shape[1])
        if self.deficient:
            z[passive], *_ = np.linalg.lstsq(self.A[:, passive], self.b, rcond=None)
        else:
            p = len(self.cols)
            z[self.cols] = self.rinv[:p, :p] @ self.qtb[:p]
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
    if np.min(np.abs(np.diag(R))) <= FALLBACK_RTOL * np.max(np.linalg.norm(R, axis=0)):
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

    ``KKT_TOL`` bounds the KKT residual accepted at termination.  Raises
    :class:`NnlsError` with the best iterate attached if more than
    max(ITERATIONS_PER_COLUMN * k, MIN_ITERATIONS) least-squares solves are
    needed on k columns.
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

    def fail(msg: str) -> NnlsError:
        resid = b - A @ x
        grad = -(A.T @ resid)
        return NnlsError(
            msg,
            NnlsResult(x.copy(), float(np.linalg.norm(resid)), _kkt_residual(grad, passive), iterations),
        )

    while True:
        # Solve the unconstrained LS on the passive columns, stepping back to
        # the boundary (and shrinking the passive set) until it is feasible.
        while factor.cols:
            z = factor.least_squares(passive)
            iterations += 1
            if iterations > max_iter:
                raise fail(f"no convergence within {max_iter} least-squares solves")
            if (z[passive] > 0).all():
                x = z
                break
            blocking = passive & (z <= 0)
            denom = x[blocking] - z[blocking]
            ratios = np.where(denom > 0, x[blocking] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(np.min(ratios))
            x = np.maximum(x + alpha * (z - x), 0.0)
            # coordinates that hit the boundary leave the passive set exactly
            hit = np.zeros(k, dtype=bool)
            hit[np.flatnonzero(blocking)[ratios <= alpha]] = True
            x[hit] = 0.0
            passive &= ~hit
            factor.remove(hit)
        else:
            x = np.zeros(k)

        resid = b - A @ x
        grad = -(A.T @ resid)  # gradient of 0.5 ||A w - b||^2
        candidates = ~passive & (-grad > KKT_TOL)
        if not candidates.any():
            return NnlsResult(
                x, float(np.linalg.norm(resid)), _kkt_residual(grad, passive), iterations
            )
        # enter the column with the most negative gradient; argmax takes the
        # first (= lowest-index) maximum on ties
        scores = np.where(candidates, -grad, -np.inf)
        entering = int(np.argmax(scores))
        passive[entering] = True
        factor.append(entering)
