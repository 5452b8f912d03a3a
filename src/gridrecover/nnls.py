"""Non-negative least squares: Lawson-Hanson until its first drop or
rank-deficient step, then block principal pivoting.

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
(CGS2).  While the factor stays full rank and every passive weight
positive this phase is all there is; a system whose optimum is reached that
way, such as a tall one whose least-squares solution is positive, never
leaves it.

**Block phase** (Júdice & Pires, *Comput. Oper. Res.* 21(5), 1994; Kim &
Park, *SIAM J. Sci. Comput.* 33(6), 2011).  The first least-squares solve
that gives a passive weight at or below zero would make Lawson-Hanson step
back and drop columns one at a time; instead its passive set F is handed,
with that solution, to block principal pivoting, and the factor above is
released first.  So is the first passive set the factor cannot take (see
below).  Each block iteration takes the infeasible indices, a negative
weight on F or a gradient below ``-KKT_TOL`` on the zero set, and moves
every one of them to the other set while their count keeps falling.
After ``FULL_EXCHANGES_WITHOUT_PROGRESS`` full exchanges in a row that do not
lower it, only the lowest infeasible index moves, which guarantees
termination on full column rank.  F is then solved afresh by one Householder
QR of ``[A_F | b]`` and a back-substitution.  The phase stops on signs: no
weight on F below zero and no gradient on the zero set below ``-KKT_TOL``.

When a diagonal entry of R falls to ``FALLBACK_RTOL`` times the largest norm
among the passive columns, or there are more passive columns than rows, the
passive set is numerically rank-deficient (degenerate topologies have such
sets).  The Lawson-Hanson factor refuses a column that would make it so, and
the step that entered it hands its passive set to the block phase, as a
weight at or below zero does: the block phase owns every set the factor
cannot take.  Its solve of a set that fails the same test on the
Householder R is minimum-norm least squares on those columns
(``np.linalg.lstsq``); the hand-over solve is the block phase's.

Both phases count least-squares solves in ``iterations`` against one cap.
A result whose KKT residual exceeds ``KKT_TOL`` is not returned: it is
raised with :class:`NnlsError`, as is the best feasible iterate at the cap.

**Warm start.**  ``solve(A, b, from_all=True)`` starts the block phase from
every column: one Householder QR of ``[A | b]``, the rank test above and a
back-substitution give its first iterate, and w = 0 is the feasible
iterate it has to beat.  That QR and that rank test are written once, as
:func:`_triangle` and :func:`_full_rank`; ``vandermonde.compressed``
takes the square system of a column subset from the same :func:`_triangle`,
and ``recovery._minimal`` tests its held triangle's rank with
:func:`_full_rank`.  R, Q^T b and the corner are cut from a factor of
``[A | b]`` in one place, :func:`_triangle_parts`, which also cuts
``vandermonde.assemble``'s.  A square upper-triangular A, such
as a candidate triangle of ``recovery.fit``, is that QR's R already (it
would come back bit for bit), so it is not factored again.  A system
whose least-squares solution is strictly positive then stops after that
one solve: on full column rank that solution is the unique minimizer over
all w, so over w >= 0 as well, and it meets the KKT conditions with an
empty zero set and a zero gradient (Lawson & Hanson, ch. 23).  A mixed-sign solution is
pivoted from there, in a few solves where the cold start takes one step
per entering column.  A system that fails the rank test starts cold
instead: its first solve would be the minimum-norm least-squares solution
of every column, and on a degenerate system pivoting from there can end
on a denser point of the optimal face than the cold start reaches (16 of
16 weights positive against 12 on a small_ac candidate), which changes the
run's later decisions.
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
    """The largest of -grad on the zero set, |grad| on the passive set and 0;
    0.0 first, so that no violation reads +0.0 where numpy's max gives -0.0."""
    return max(0.0, float(np.where(passive, np.abs(grad), -grad).max(initial=0.0)))


class _PassiveQR:
    """QR factor of A's passive columns, in the order they entered.

    With p = len(cols), ``q[:, :p] @ R`` is ``A[:, cols]`` for an
    upper-triangular R whose inverse is ``rinv[:p, :p]``, and ``qtb[:p]`` is
    ``q[:, :p].T @ b``.  R^-1 grows a column at a time as columns enter, so a
    solve is one triangular product; inverted that way (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, sec. 14.2, method 2) it
    gives the solve the componentwise forward error bound of
    back-substitution.  The factor is always full rank: a column that would
    make it deficient is refused, and its passive set is the block phase's.

    The factor is sized once, for the min(m, k) columns a full-rank passive
    set can have: ``q`` and R^-1 hold m x min(m, k) and min(m, k)^2
    numbers.  Every solver call in a recovery run is on a triangle no
    larger than the real form of the complete graph's factor, which on AC
    has two columns per edge.  The complete graph's fit sets a run's
    allocation peak on AC and on DC from n = 20 up: ``q`` and R^-1 beside
    the triangle, and on AC beside its real form too.  On smaller DC
    networks (n = 14) the merge of ``vandermonde.assemble`` sets it.  The
    README states these peaks in bytes.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, k = A.shape
        size = min(m, k)  # a full-rank passive set has at most this many columns
        self.A, self.b = A, b
        self.q = np.empty((m, size), order="F")
        self.rinv = np.zeros((size, size))
        self.qtb = np.empty(size)
        self.cols: list[int] = []
        self._scale = 0.0  # largest norm among the factored columns
        self._smallest = np.inf  # smallest diagonal entry of R, in modulus

    def append(self, j: int) -> bool:
        """Factor column j in; False, with the factor unchanged, when the
        passive columns would outnumber the rows or fail the rank test."""
        p = len(self.cols)
        if p == len(self.qtb):
            return False
        a = self.A[:, j]
        Q = self.q[:, :p]
        h = Q.T @ a
        v = a - Q @ h
        again = Q.T @ v  # the second pass restores what cancellation lost
        v -= Q @ again
        h += again
        d = math.sqrt(v @ v)
        scale, smallest = max(self._scale, math.sqrt(a @ a)), min(self._smallest, d)
        if smallest <= FALLBACK_RTOL * scale:
            return False
        self._scale, self._smallest = scale, smallest
        # R gains the column (h, d): its inverse gains (-R^-1 h / d, 1 / d)
        self.rinv[:p, p] = self.rinv[:p, :p] @ h / -d
        self.rinv[p, p] = 1.0 / d
        self.q[:, p] = v / d
        self.qtb[p] = self.q[:, p] @ self.b
        self.cols.append(j)
        return True

    def least_squares(self) -> np.ndarray:
        """Least-squares weights on the factored columns, zero elsewhere."""
        z = np.zeros(self.A.shape[1])
        p = len(self.cols)
        z[self.cols] = self.rinv[:p, :p] @ self.qtb[:p]
        return z


def _triangle(A: np.ndarray, b: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """R, Q^T b and the corner |R[p, p]| of one Householder QR of
    ``[A_cols | b]``, p the number of columns in the mask ``cols``; the
    corner is 0.0 when there are no more than p rows.  On complex A and b,
    R and Q^H b are complex, and LAPACK leaves R's diagonal real.

    ``[A_cols | b]`` is written into one column-major buffer of their
    dtype, which numpy's QR copies without a transpose and which is dropped
    once that copy is factored; R is read as a copy of the upper triangle
    of its first p + 1 rows.  A square upper-triangular A with every column
    taken is its own factor: a Householder QR of ``[A | b]`` returns it bit
    for bit, so it is not run."""
    m, k = A.shape
    p = int(np.count_nonzero(cols))
    if p == k == m and not np.tril(A, -1).any():
        return A, b, 0.0
    Ab = np.empty((m, p + 1), np.result_type(A, b), order="F")
    Ab[:, :p] = A if p == k else A[:, cols]
    Ab[:, p] = b
    h, _ = np.linalg.qr(Ab, mode="raw")
    del Ab
    return _triangle_parts(_clear_below(h.T[: p + 1].copy()))


def _clear_below(x: np.ndarray) -> np.ndarray:
    """x with its entries below the diagonal set to zero in place, the
    values ``np.triu`` gives; unlike ``np.triu`` this fills no buffer from
    a column-major view, such as numpy's factored copy of a QR input."""
    x[np.tri(*x.shape, -1, dtype=bool)] = 0
    return x


def _triangle_parts(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """R, Q^T b and the corner |R[p, p]| of the upper-triangular factor T of
    a p + 1 column ``[A | b]``, as views of T; fewer rows than p + 1 leave R
    trapezoidal and the corner 0.0."""
    p = T.shape[1] - 1
    return T[:p, :p], T[:p, p], float(abs(T[p, p])) if T.shape[0] > p else 0.0


def _full_rank(R: np.ndarray) -> bool:
    """Whether the triangle R of p columns has p diagonal entries, each
    above FALLBACK_RTOL times the largest column norm, R real or complex;
    einsum sums the squared moduli, on a real R without a temporary of its
    size (conj and .real are R and the sums themselves there)."""
    if R.shape[0] < R.shape[1]:
        return False
    scale = math.sqrt(np.einsum("ij,ij->j", R.conj(), R).real.max())
    return bool(np.min(np.abs(np.diag(R))) > FALLBACK_RTOL * scale)


def _back_substitution(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray | None:
    """Least-squares weights on the passive columns, zero elsewhere, from the
    :func:`_triangle` of ``[A_F | b]`` and a back-substitution; None when
    the passive set is rank-deficient or wider than tall."""
    z = np.zeros(A.shape[1])
    if not passive.any():
        return z
    R, qtb, _ = _triangle(A, b, passive)
    if not _full_rank(R):
        return None
    # LU of a triangular matrix takes no row swap: this is a back-substitution
    z[passive] = np.linalg.solve(R, qtb)
    return z


def _passive_least_squares(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """:func:`_back_substitution`, or minimum-norm ``lstsq`` where it declines."""
    z = _back_substitution(A, b, passive)
    if z is None:
        z = np.zeros(A.shape[1])
        z[passive], *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
    return z


def solve(A, b, *, from_all: bool = False) -> NnlsResult:
    """Minimize ||A w - b|| subject to w >= 0.

    With ``from_all``, block principal pivoting starts from every column
    when A as a whole passes the rank test; otherwise, and by default, the
    solver starts from w = 0.  Raises :class:`NnlsError` when the KKT
    residual at termination exceeds ``KKT_TOL``, with that result attached,
    and when more than max(ITERATIONS_PER_COLUMN * k, MIN_ITERATIONS)
    least-squares solves are needed on k columns, with the best feasible
    iterate attached.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be (m, k) and b must be (m,) with matching m")
    k = A.shape[1]
    max_iter = max(ITERATIONS_PER_COLUMN * k, MIN_ITERATIONS)

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    z = _back_substitution(A, b, ~passive) if from_all else None
    if z is not None:  # block pivoting from every column, w = 0 the iterate to beat
        return _block_phase(A, b, ~passive, z, (x, b, -(A.T @ b), passive), 1, max_iter)
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
        full_rank = factor.append(entering)
        z = factor.least_squares() if full_rank else _passive_least_squares(A, b, passive)
        iterations += 1
        if iterations > max_iter:
            raise _capped(max_iter, feasible, iterations)
        if not (full_rank and (z[passive] > 0).all()):
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
