"""Non-negative least squares by the Lawson-Hanson active-set method.

The solver terminates in finitely many steps at this problem scale and
satisfies the KKT conditions exactly (up to least-squares precision), unlike
interior-point solvers that stop at a duality-gap tolerance.  Inner
unconstrained solves use minimum-norm least squares so rank-deficient column
sets (degenerate topologies have them) do not break the iteration.  Ties in
the entering-index choice go to the lowest index, which keeps runs
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NnlsResult:
    """Solution w >= 0 with optimality diagnostics.

    ``objective`` is ||A w - b||; ``kkt_residual`` is the largest violation
    of the optimality conditions (gradient >= -tol on the zero set, |gradient|
    <= tol on the positive set); ``iterations`` counts least-squares solves.
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


def solve(A, b, tol: float = 1e-8, max_iter: int | None = None, x0=None) -> NnlsResult:
    """Minimize ||A w - b|| subject to w >= 0.

    ``tol`` bounds the KKT residual accepted at termination.  ``x0`` is an
    optional non-negative warm start; only its positive support is used to
    seed the passive set.  Raises :class:`NnlsError` with the best iterate
    attached if the iteration cap is exceeded.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be (m, k) and b must be (m,) with matching m")
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, k = A.shape
    if max_iter is None:
        max_iter = max(10 * k, 100)

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (k,) or np.any(x0 < 0):
            raise ValueError("x0 must be a non-negative vector of length k")
        passive = x0 > 0

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
        while np.any(passive):
            z_sub, *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            iterations += 1
            if iterations > max_iter:
                raise fail(f"no convergence within {max_iter} least-squares solves")
            if np.all(z_sub > 0):
                x = np.zeros(k)
                x[passive] = z_sub
                break
            z = np.zeros(k)
            z[passive] = z_sub
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
        else:
            x = np.zeros(k)

        resid = b - A @ x
        grad = -(A.T @ resid)  # gradient of 0.5 ||A w - b||^2
        candidates = ~passive & (-grad > tol)
        if not np.any(candidates):
            return NnlsResult(
                x, float(np.linalg.norm(resid)), _kkt_residual(grad, passive), iterations
            )
        # enter the column with the most negative gradient; argmax takes the
        # first (= lowest-index) maximum on ties
        scores = np.where(candidates, -grad, -np.inf)
        passive[int(np.argmax(scores))] = True

