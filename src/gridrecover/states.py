"""Measurement states: power-flow residuals, rms fitting error, data synthesis.

A state is the per-node snapshot (voltage, injected power) of a network at
one instant.  DC states have real voltage e and active power P; AC states add
the imaginary voltage part f and reactive power Q.  Exact states satisfy the
power-flow equations, whose vector of evaluations is

    diag(v) * conj(L) * conj(v) - S

with L the admittance matrix; the DC case is the real restriction e*(L e) - P.

Synthetic states come either from random voltages with their implied powers
(``generate_voltage_driven``) or from random injections solved for their
voltages by Newton power flow (``generate_scenario``).  Node 1 is the
slack: its voltage is pinned at 1 and its injection balances the network.
``solve_power_flow`` runs Newton on a whole (m, n) stack of injections at
once, one row per state, and each row gets the same bits as a solve of
that state alone.  Its Jacobians are built on the non-slack block, nodes
2..n, only, from the real and imaginary parts of v * conj(L) cut to that
block, with the injections added on the diagonals; each entry is the same
floating-point operation as in the complex formula diag(inj) + v * conj(L),
so the voltages keep their bits.

A scenario draws from one generator, ``default_rng(seed)``: each retry
round draws the injections of the states still pending, in index order,
and the noise comes last, from the same generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .network import AC, DC, Network, _finite_non_negative, _integral, _real, admittance_matrix, is_connected


class PowerFlowError(RuntimeError):
    """Power-flow solve failed (non-convergence, singular Jacobian, bad range).

    A failed row of a stacked solve is named: ``row`` is its index,
    ``reason`` the message without it, and ``solved`` the voltages of the
    rows before it, which all converged, each with the bits of a solve of
    that row alone.
    """

    def __init__(self, reason: str, row: int | None = None, solved: np.ndarray | None = None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason, self.row, self.solved = reason, row, solved


@dataclass(frozen=True, eq=False)
class StateSet:
    """m states of one network kind, stored as (m, n) arrays."""

    kind: str
    e: np.ndarray
    f: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if self.kind not in (DC, AC):
            raise ValueError(f"kind must be 'dc' or 'ac', got {self.kind!r}")
        arrays = {}
        for name in ("e", "f", "p", "q"):
            a = np.array(getattr(self, name), dtype=float)
            if a.ndim != 2:
                raise ValueError(f"{name} must be a 2-D (m, n) array, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains a non-finite value")
            a.setflags(write=False)
            arrays[name] = a
            object.__setattr__(self, name, a)
        shape = arrays["e"].shape
        for name, a in arrays.items():
            if a.shape != shape:
                raise ValueError(f"state arrays must share one shape: e is {shape}, {name} is {a.shape}")
        if shape[0] < 1 or shape[1] < 1:
            raise ValueError(f"need at least one state and one node, got shape {shape}")
        if self.kind == DC:
            for name in ("f", "q"):
                if np.any(arrays[name]):
                    i, j = np.argwhere(arrays[name])[0]
                    raise ValueError(f"DC states must have f = Q = 0, got {name}[{i}, {j}] != 0")

    @property
    def m(self) -> int:
        return self.e.shape[0]

    @property
    def n(self) -> int:
        return self.e.shape[1]

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other):
        return (
            isinstance(other, StateSet)
            and self.kind == other.kind
            and all(
                np.array_equal(getattr(self, a), getattr(other, a))
                for a in ("e", "f", "p", "q")
            )
        )

    def voltage(self) -> np.ndarray:
        return self.e + 1j * self.f

    def power(self) -> np.ndarray:
        return self.p + 1j * self.q

    @classmethod
    def dc(cls, e, p) -> "StateSet":
        e = np.asarray(e, dtype=float)
        return cls(DC, e, np.zeros_like(e), p, np.zeros_like(e))


VOLTAGE_RANGE = (0.9, 1.1)  # window of every synthesized voltage magnitude
ANGLE_RANGE = 0.1  # AC voltage-driven angles are uniform in [-ANGLE_RANGE, ANGLE_RANGE]
NEWTON_TOL = 1e-12  # infinity norm of the power-flow mismatch at convergence
NEWTON_MAX_ITER = 50
MAX_RETRIES = 50  # scenario draws per state before its voltages count as out of range


@dataclass(frozen=True)
class Scenario:
    """Sampling layout for synthetic data on any network.

    Node 1 is the slack: voltage pinned at 1, power absorbs the balance.
    The nodes in ``zero``, each 2 or higher, inject nothing, exactly.  Every
    other node draws P uniformly from ``p_range`` and, on AC networks, Q from
    ``q_range``.  ``sigma`` is the stddev of the Gaussian noise added to every
    measured component afterwards.  The nodes are ints and the other fields
    floats once made; the network's node count is checked against ``zero``
    when states are generated.
    """

    zero: tuple[int, ...] = ()
    p_range: tuple[float, float] = (-0.1, 0.0)
    q_range: tuple[float, float] = (0.0, 0.0)
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "zero", tuple(_integral(j, "zero-injection node") for j in self.zero))
        for j in self.zero:
            if j < 2:
                raise ValueError(f"zero-injection node {j} must be 2 or higher: node 1 is the slack")
        for name in ("p_range", "q_range"):
            pair = getattr(self, name)
            try:
                lo, hi = (_real(x, name) for x in pair)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a pair of numbers (lo, hi), got {pair!r}") from None
            # a draw is lo + (hi - lo) * u, so its width must be finite too
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi) or math.isinf(hi - lo):
                raise ValueError(f"bad sampling range ({lo}, {hi}): need finite lo <= hi, hi - lo finite")
            object.__setattr__(self, name, (lo, hi))
        object.__setattr__(self, "sigma", _finite_non_negative(self.sigma, "noise stddev"))


def _state_count(m) -> int:
    """``m`` as an int, checked to be at least 1."""
    m = _integral(m, "m")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return m


def _check_compatible(net: Network, states: StateSet) -> None:
    if net.kind != states.kind:
        raise ValueError(f"network kind {net.kind!r} != state kind {states.kind!r}")
    if net.n != states.n:
        raise ValueError(f"network has n={net.n}, states have n={states.n}")


def residuals(net: Network, states: StateSet) -> np.ndarray:
    """Power-flow equation evaluations at every state, state-major.

    DC: length n*m, per state the n values e*(L e) - P.  AC: length 2*n*m,
    per state the real and imaginary residual parts interleaved per node.
    """
    _check_compatible(net, states)
    L = admittance_matrix(net)
    if net.kind == DC:
        e = states.e
        r = e * (e @ L.real) - states.p  # L symmetric, so rows e @ L = (L e)^T
        return r.ravel()
    r = _exact_powers(L, states.voltage()) - states.power()
    return r.view(float).ravel()  # a complex entry is stored as its real, then its imaginary part


def rms(net: Network, states: StateSet) -> float:
    """Root-mean-square of all power-flow residuals over the data set."""
    r = residuals(net, states)
    return float(np.linalg.norm(r) / np.sqrt(r.size))


def _exact_powers(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex power vector making (v, S) an exact state of the network with
    admittance matrix L."""
    return v * np.conj(v @ L)


def generate_voltage_driven(net: Network, m: int, seed=0) -> StateSet:
    """Exact states from i.i.d. uniform voltages; powers derived to match.

    Any voltage vector paired with its implied injections satisfies the
    power-flow equations by construction, so the output rms is zero up to
    rounding.  Magnitudes are uniform in VOLTAGE_RANGE; AC voltages also get
    a uniform angle in [-ANGLE_RANGE, ANGLE_RANGE].
    """
    m = _state_count(m)
    rng = np.random.default_rng(seed)
    if net.kind == DC:
        e = rng.uniform(*VOLTAGE_RANGE, size=(m, net.n))
        v = e.astype(complex)
    else:
        mag = rng.uniform(*VOLTAGE_RANGE, size=(m, net.n))
        ang = rng.uniform(-ANGLE_RANGE, ANGLE_RANGE, size=(m, net.n))
        v = mag * np.exp(1j * ang)
    S = _exact_powers(admittance_matrix(net), v)
    return StateSet(net.kind, v.real, v.imag, S.real, S.imag)


def solve_power_flow(net: Network, p: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Newton power flow: voltages matching the injections at nodes 2..n.

    ``p`` and ``q`` (zero when omitted) hold the injections of one state per
    row, shape (m, n); the result is the (m, n) complex voltages.  Node 1,
    the slack, has its voltage pinned at 1; its injection is left free.

    Every row starts flat (v = 1) and takes Newton steps on its own: the
    admittance matrix is built once and cut to the non-slack block once, the
    mismatch is one matrix-vector product per row, the Jacobians are built
    on that block directly (:func:`_jacobian`, the entries of the complex
    formula, bit for bit) and solved as one (rows, k, k) stack, each
    row's step is halved until the infinity norm of its mismatch decreases,
    and a row stops once that norm is at most NEWTON_TOL.  So each row gets
    the bits it would get alone.  A singular Jacobian, a failed damping or
    no convergence in NEWTON_MAX_ITER steps raises PowerFlowError for the
    failed row of lowest index, after the other rows have finished; the
    error keeps the voltages of the rows before that one as ``solved``.
    """
    n = net.n
    P = np.asarray(p, dtype=float)
    Q = np.zeros_like(P) if q is None else np.asarray(q, dtype=float)
    if P.ndim != 2 or P.shape[1] != n or Q.shape != P.shape:
        raise ValueError(f"injections must be (m, {n}) arrays of one shape")
    L = admittance_matrix(net)
    conj_block = np.conj(L[1:, 1:])  # the non-slack block, contiguous
    k = n - 1
    target = P + 1j * Q
    dc = net.kind == DC

    def mismatch(v, rows):
        # one gemv per row: a gemm over the stack would round differently
        inj = np.conj((L @ v[..., None])[..., 0])
        d = v * inj - target[rows]
        # a max is exact in any order, so the row maxima below take the
        # layout that reduces faster: DC a column-major copy of the strided
        # view of d (about three times faster than the view), AC |f| taken
        # column-major (about twice as fast as row-major at 300 rows, about
        # a microsecond slower below some 30 rows)
        f = np.asfortranarray(d.real[:, 1:]) if dc else np.concatenate([d.real[:, 1:], d.imag[:, 1:]], axis=1)
        return f, inj, np.max(np.abs(f, order="F"), axis=1, initial=0.0)

    V = np.ones(P.shape, dtype=complex)
    failed: dict[int, str] = {}
    rows = np.arange(len(P))  # the rows still iterating, and their v, f, inj, |f|
    v = V.copy()
    f, inj, fnorm = mismatch(v, rows)
    for it in range(NEWTON_MAX_ITER + 1):  # the last pass only checks
        done = fnorm <= NEWTON_TOL
        V[rows[done]] = v[done]
        rows, v, f, inj, fnorm = (a[~done] for a in (rows, v, f, inj, fnorm))
        if not rows.size or it == NEWTON_MAX_ITER:
            break
        step, solved = _solve_stack(_jacobian(v, inj, conj_block, dc), -f)
        failed.update(dict.fromkeys(rows[~solved].tolist(), "singular power-flow Jacobian"))
        dv = np.zeros(v.shape, dtype=complex)
        dv[:, 1:] = step if dc else step[:, :k] + 1j * step[:, k:]
        trying = np.flatnonzero(solved)
        for halvings in range(30):  # every row still trying has halved its step as often
            v_new = v[trying] + 0.5**halvings * dv[trying]
            f_new, inj_new, norm_new = mismatch(v_new, rows[trying])
            better = norm_new < fnorm[trying]
            took = trying[better]
            v[took], f[took], inj[took], fnorm[took] = (
                v_new[better], f_new[better], inj_new[better], norm_new[better]
            )
            trying = trying[~better]
            if not trying.size:
                break
        failed.update(dict.fromkeys(rows[trying].tolist(), "damping failed to reduce the mismatch"))
        solved[trying] = False
        rows, v, f, inj, fnorm = (a[solved] for a in (rows, v, f, inj, fnorm))
    reason = f"no convergence after {NEWTON_MAX_ITER} Newton iterations"
    failed.update(dict.fromkeys(rows.tolist(), reason))
    if failed:
        row = min(failed)
        raise PowerFlowError(failed[row], row=row, solved=V[:row])
    return V


def _jacobian(v: np.ndarray, inj: np.ndarray, conj_block: np.ndarray, dc: bool) -> np.ndarray:
    """Newton Jacobians of the mismatch at nodes 2..n, one per row of ``v``.

    ``inj`` is conj(L v) per row and ``conj_block`` is conj(L)[1:, 1:], the
    block without node 1, the slack.  The derivative of v * conj(L v) by e
    is diag(inj) + v[:, None] * conj(L), and by f it is 1j times diag(inj)
    - v[:, None] * conj(L).  With a and b the real and imaginary parts of
    v[1:, None] * conj_block and D = diag(inj at 1:), the AC Jacobian is
    [[a + D.re, b - D.im], [b + D.im, -a + D.re]] and the DC one is
    a + D.re, where v is real and a is v[1:].re times conj_block.re.  The block is built directly, with no (n, n) temporary.
    Each entry is the IEEE operation of the complex formula on the same
    operands, up to order and exact negations and products by 0 and 1, so it
    has the same value; an off-diagonal entry skips the formula's added
    zero, which can only change the sign of a zero.
    """
    k = len(conj_block)
    d = np.arange(k)
    inj = inj[:, 1:]
    if dc:
        jac = v[:, 1:].real[:, :, None] * conj_block.real
        jac[:, d, d] += inj.real
        return jac
    v_l = v[:, 1:, None] * conj_block
    jac = np.empty((len(v), 2 * k, 2 * k))
    jac[:, :k, :k] = v_l.real
    jac[:, :k, k:] = v_l.imag
    jac[:, k:, :k] = v_l.imag
    np.negative(v_l.real, out=jac[:, k:, k:])
    jac[:, d, d] += inj.real
    jac[:, d, k + d] -= inj.imag
    jac[:, k + d, d] += inj.imag
    jac[:, k + d, k + d] += inj.real
    return jac


def _solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a_i x_i = b_i for a stack of square systems: the solutions, and
    a mask of the systems that were solved (zero solutions where a_i is
    singular).  Each system gets the bits of a solve on its own."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.zeros_like(b)
    solved = np.ones(len(b), dtype=bool)
    for i in range(len(b)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return x, solved


def generate_scenario(net: Network, scen: Scenario, m: int, seed=0) -> StateSet:
    """Sample injections per the scenario and solve power flow for all states.

    Residuals of the output are at the Newton tolerance (<= 1e-10 rms) before
    noise.  Everything is drawn from one generator, ``default_rng(seed)``
    (a SeedSequence given as ``seed`` is not advanced).  Each round draws
    the injections of the states whose voltages are still pending, as one
    (states, loads, P then Q) array of uniforms in index order, and solves
    them in one batched solve_power_flow call; a state whose voltage
    magnitude left VOLTAGE_RANGE draws again, up to MAX_RETRIES times.  The
    noise is drawn after the last round, so a seed's noise-free states do
    not depend on ``scen.sigma``.  An error names the first state, in
    order, whose draws failed.  A zero-injection node past the network's n
    raises ValueError before any solve.
    """
    outside = [j for j in scen.zero if j > net.n]
    if outside:
        raise ValueError(f"zero-injection node {outside[0]} is not in 2..{net.n}")
    m = _state_count(m)
    if not is_connected(net):
        raise PowerFlowError("network must be connected to solve power flow")

    loads = np.array([j for j in range(1, net.n) if j + 1 not in scen.zero], int)
    vmin, vmax = VOLTAGE_RANGE
    dc = net.kind == DC
    rng = np.random.default_rng(seed)
    # AC draws (P, Q) per load, in that order; numpy's uniform is lo + (hi - lo) * u
    lo, hi = np.array([scen.p_range] if dc else [scen.p_range, scen.q_range], dtype=float).T
    P = np.zeros((m, net.n))
    Q = np.zeros((m, net.n))
    V = np.empty((m, net.n), dtype=complex)
    pending = np.arange(m)  # states without voltages in VOLTAGE_RANGE yet
    error = None  # the failure of the first state, in order, seen so far

    for _ in range(MAX_RETRIES):
        draws = lo + (hi - lo) * rng.random((pending.size, loads.size, lo.size))
        P[pending[:, None], loads] = draws[..., 0]
        if not dc:
            Q[pending[:, None], loads] = draws[..., 1]
        try:
            v = solve_power_flow(net, P[pending], Q[pending])
        except PowerFlowError as exc:
            # states after the failed one no longer matter; those before it
            # converged (rows are independent) and keep their voltages
            error = PowerFlowError(f"state {pending[exc.row]}: {exc.reason}")
            error.__cause__ = exc
            pending, v = pending[: exc.row], exc.solved
        mag = np.abs(v)
        ok = np.all((mag >= vmin) & (mag <= vmax), axis=1)
        V[pending[ok]] = v[ok]
        pending = pending[~ok]
        if not pending.size:
            break
    else:
        error = PowerFlowError(
            f"state {pending[0]}: voltages left [{vmin}, {vmax}] in {MAX_RETRIES} attempts"
        )
    if error is not None:
        raise error

    # the slack injection balances the network exactly; sampled/zero nodes
    # keep their drawn values so zero-injection nodes stay exactly zero.
    # V[:, None, :] keeps one gemv per state: V @ L would round differently.
    # a DC Newton voltage's imaginary part stays +0.0, so V.imag is f on DC too
    S = _exact_powers(admittance_matrix(net), V[:, None, :])[:, 0]
    P[:, 0] = S.real[:, 0]
    if not dc:
        Q[:, 0] = S.imag[:, 0]
    return add_noise(StateSet(net.kind, V.real, V.imag, P, Q), scen.sigma, rng)


def add_noise(states: StateSet, sigma: float, seed=0) -> StateSet:
    """Additive i.i.d. Gaussian noise on every measured component."""
    if _finite_non_negative(sigma, "noise stddev") == 0:
        return states
    rng = np.random.default_rng(seed)
    measured = ("e", "p") if states.kind == DC else ("e", "p", "f", "q")  # in draw order
    return replace(states, **{a: getattr(states, a) + sigma * rng.standard_normal(states.e.shape) for a in measured})
