"""Measurement states: power-flow residuals, rms fitting error, data synthesis.

A state is the per-node snapshot (voltage, injected power) of a network at
one instant.  DC states have real voltage e and active power P; AC states add
the imaginary voltage part f and reactive power Q.  Exact states satisfy the
power-flow equations, whose vector of evaluations is

    diag(v) * conj(L) * conj(v) - S

with L the admittance matrix; the DC case is the real restriction e*(L e) - P.

Synthetic states come either from random voltages with their implied powers
(``generate_voltage_driven``) or from random injections solved for their
voltages by Newton power flow (``generate_scenario``).  ``solve_power_flow``
runs Newton on a whole (m, n) stack of injections at once, one row per
state, and each row gets the same bits as a solve of that state alone.  Its
Jacobians are built on the non-slack block only, from the real and
imaginary parts of v * conj(L) cut to the non-slack nodes, with the
injections added on the diagonals; each entry is the same floating-point
operation as in the complex formula diag(inj) + v * conj(L), so the
voltages keep their bits.

Each scenario state draws its injections from its own stream: numpy's
``default_rng(child)`` for its child of the seed, numbered as ``ss.spawn``
would number it.  The streams of all states are computed at once, as
arrays over the states: the children's SeedSequence pools, the PCG64
seeding, and each draw as a 128-bit LCG step with the XSL-RR output, bit
for bit as numpy makes them one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .network import AC, DC, Network, _child, _child_index, _finite_non_negative, _integral, _seed_sequence, admittance_matrix, is_connected


class PowerFlowError(RuntimeError):
    """Power-flow solve failed (non-convergence, singular Jacobian, bad range).

    A failed row of a stacked solve is named: ``row`` is its index and
    ``reason`` the message without it.
    """

    def __init__(self, reason: str, row: int | None = None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason, self.row = reason, row


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
    """Sampling layout for synthetic data on n nodes.

    Node ``slack`` (1-based) is the slack: voltage pinned at 1, power absorbs
    the balance.  The nodes in ``zero`` inject nothing, exactly.  Every other
    node draws P uniformly from ``p_range`` and, on AC networks, Q from
    ``q_range``.  ``sigma`` is the stddev of the Gaussian noise added to every
    measured component afterwards.
    """

    n: int
    slack: int = 1
    zero: tuple[int, ...] = ()
    p_range: tuple[float, float] = (-0.1, 0.0)
    q_range: tuple[float, float] = (0.0, 0.0)
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n, "n"))
        object.__setattr__(self, "slack", _slack_node(self.slack, self.n))
        object.__setattr__(self, "zero", tuple(_integral(j, "zero-injection node") for j in self.zero))
        for j in self.zero:
            if not 1 <= j <= self.n or j == self.slack:
                raise ValueError(f"zero-injection node {j} must be a non-slack node in 1..{self.n}")
        for lo, hi in (self.p_range, self.q_range):
            # a draw is lo + (hi - lo) * u, so its width must be finite too
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi) or np.isinf(float(hi) - float(lo)):
                raise ValueError(f"bad sampling range ({lo}, {hi}): need finite lo <= hi, hi - lo finite")
        _finite_non_negative(self.sigma, "noise stddev")


def _slack_node(slack, n: int) -> int:
    """``slack`` as an int, checked to be a node in 1..n."""
    node = _integral(slack, "slack node")
    if not 1 <= node <= n:
        raise ValueError(f"slack node {slack} is not in 1..{n}")
    return node


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
    out = np.empty((states.m, 2 * states.n))
    out[:, 0::2] = r.real
    out[:, 1::2] = r.imag
    return out.ravel()


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


def solve_power_flow(
    net: Network,
    p: np.ndarray,
    q: np.ndarray | None = None,
    slack: int = 1,
) -> np.ndarray:
    """Newton power flow: voltages matching the injections at non-slack nodes.

    ``p`` and ``q`` (zero when omitted) hold the injections of one state per
    row, shape (m, n); the result is the (m, n) complex voltages.  The slack
    node's voltage is pinned at 1; its injection is left free.

    Every row starts flat (v = 1) and takes Newton steps on its own: the
    admittance matrix is built once and cut to the non-slack block once, the
    mismatch is one matrix-vector product per row, the Jacobians are built
    on that block directly (:func:`_jacobian`, the entries of the complex
    formula, bit for bit) and solved as one (rows, k, k) stack, each
    row's step is halved until the infinity norm of its mismatch decreases,
    and a row stops once that norm is at most NEWTON_TOL.  So each row gets
    the bits it would get alone.  A singular Jacobian, a failed damping or
    no convergence in NEWTON_MAX_ITER steps raises PowerFlowError for the
    failed row of lowest index, after the other rows have finished.
    """
    n = net.n
    P = np.asarray(p, dtype=float)
    Q = np.zeros_like(P) if q is None else np.asarray(q, dtype=float)
    if P.ndim != 2 or P.shape[1] != n or Q.shape != P.shape:
        raise ValueError(f"injections must be (m, {n}) arrays of one shape")
    slack = _slack_node(slack, n)
    L = admittance_matrix(net)
    ns = np.array([j for j in range(n) if j != slack - 1])
    conj_block = np.conj(L)[np.ix_(ns, ns)]
    k = len(ns)
    target = P + 1j * Q
    dc = net.kind == DC

    def mismatch(v, rows):
        # one gemv per row: a gemm over the stack would round differently
        inj = np.conj((L @ v[..., None])[..., 0])
        d = v * inj - target[rows]
        f = d.real[:, ns] if dc else np.concatenate([d.real[:, ns], d.imag[:, ns]], axis=1)
        return f, inj, np.max(np.abs(f), axis=1, initial=0.0)

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
        step, solved = _solve_stack(_jacobian(v, inj, conj_block, ns, dc), -f)
        failed.update(dict.fromkeys(rows[~solved].tolist(), "singular power-flow Jacobian"))
        dv = np.zeros(v.shape, dtype=complex)
        dv[:, ns] = step if dc else step[:, :k] + 1j * step[:, k:]
        alpha = np.ones((len(rows), 1))
        trying = np.flatnonzero(solved)
        for _ in range(30):
            v_new = v[trying] + alpha[trying] * dv[trying]
            f_new, inj_new, norm_new = mismatch(v_new, rows[trying])
            better = norm_new < fnorm[trying]
            took = trying[better]
            v[took], f[took], inj[took], fnorm[took] = (
                v_new[better], f_new[better], inj_new[better], norm_new[better]
            )
            trying = trying[~better]
            if not trying.size:
                break
            alpha[trying] *= 0.5
        failed.update(dict.fromkeys(rows[trying].tolist(), "damping failed to reduce the mismatch"))
        solved[trying] = False
        rows, v, f, inj, fnorm = (a[solved] for a in (rows, v, f, inj, fnorm))
    reason = f"no convergence after {NEWTON_MAX_ITER} Newton iterations"
    failed.update(dict.fromkeys(rows.tolist(), reason))
    if failed:
        row = min(failed)
        raise PowerFlowError(failed[row], row=row)
    return V


def _jacobian(
    v: np.ndarray, inj: np.ndarray, conj_block: np.ndarray, ns: np.ndarray, dc: bool
) -> np.ndarray:
    """Newton Jacobians of the non-slack mismatch, one per row of ``v``.

    ``inj`` is conj(L v) per row and ``conj_block`` is conj(L)[np.ix_(ns, ns)].
    The derivative of v * conj(L v) by e is diag(inj) + v[:, None] * conj(L),
    and by f it is 1j times diag(inj) - v[:, None] * conj(L).  With a and b
    the real and imaginary parts of v[ns, None] * conj_block and D = diag(inj
    at ns), the AC Jacobian is [[a + D.re, b - D.im], [b + D.im, -a + D.re]]
    and the DC one is a + D.re, where v is real and a is v[ns].re times
    conj_block.re.  The block is built directly, with no (n, n) temporary.
    Each entry is the IEEE operation of the complex formula on the same
    operands, up to order and exact negations and products by 0 and 1, so it
    has the same value; an off-diagonal entry skips the formula's added
    zero, which can only change the sign of a zero.
    """
    d = np.arange(len(ns))
    inj = inj[:, ns]
    if dc:
        jac = v[:, ns].real[:, :, None] * conj_block.real
        jac[:, d, d] += inj.real
        return jac
    k = len(ns)
    v_l = v[:, ns, None] * conj_block
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


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into a pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating state words from a pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_M1, _M0 = np.uint64(_PCG_MULT >> 32 & _MASK32), np.uint64(_PCG_MULT & _MASK32)  # _MULT_LO's limbs
# shifts and masks as uint64 scalars: a Python int beside a uint64 operand
# could change the result's dtype under numpy's legacy promotion
_U1, _U11, _U32, _U58, _U63, _U64, _LOW = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64, _MASK32))


def _uint32_words(x) -> list[int]:
    """Entropy as numpy's SeedSequence reads it: an int as its little-endian
    32-bit words (0 as one word), and a sequence as its items' words in
    order.  numpy parses a string item by rules of its own, which are not
    copied here, so one is refused."""
    if isinstance(x, str):
        raise ValueError(f"seed items must be integers, got {x!r}")
    if not isinstance(x, (int, np.integer)):
        return [w for item in x for w in _uint32_words(item)]
    x = int(x)  # SeedSequence has refused a negative one
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """One step of numpy's SeedSequence hash of ``value``, an int below
    2**32 or a uint32 array, with the running constant ``const``: the
    hashed value and the next constant.  Every int here is below 2**32, so
    it keeps an array's uint32 dtype under either numpy promotion rule."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """numpy's SeedSequence mix of two words, ints or uint32 arrays alike."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _child_pools(ss: np.random.SeedSequence, count: int) -> np.ndarray:
    """(count, pool_size) uint32: the entropy pools of the ``count``
    children that ``ss.spawn(count)`` would make, without making them.

    A child's entropy words are its parent's entropy (zero-padded to the
    pool size), the parent's spawn key and last its own index.  Only that
    index differs between children, so the pool is mixed up to it once, and
    every child's index is mixed in as an array.
    """
    size = ss.pool_size
    words = _uint32_words(ss.entropy)
    words += [0] * (size - len(words)) + _uint32_words(ss.spawn_key)
    const = _INIT_A
    pool = []
    for w in words[:size]:
        h, const = _hash(w, const, _MULT_A)
        pool.append(h)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in words[size:]:
        for dst in range(size):
            h, const = _hash(w, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # each index is below 2**32, so it is one word
    index = np.arange(ss.n_children_spawned, _child_index(ss, count - 1) + 1, dtype=np.uint32)
    pools = np.empty((count, size), dtype=np.uint32)
    for dst in range(size):
        h, const = _hash(index, const, _MULT_A)
        pools[:, dst] = _mix(np.full(count, pool[dst], dtype=np.uint32), h)
    return pools


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on the (hi, lo)
    uint64 halves of a stack of states.  uint64 products wrap mod 2**64;
    the high half of lo times the multiplier's low half is summed from
    32-bit limb products, which uint64 holds exactly."""
    a0, a1 = lo & _LOW, lo >> _U32
    p00, p01, p10 = a0 * _M0, a0 * _M1, a1 * _M0
    mid = (p00 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    mulhi = a1 * _M1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    lo_out = lo * _MULT_LO + inc_lo
    hi_out = mulhi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (lo_out < inc_lo)
    return hi_out, lo_out


def _pcg64_streams(pools: np.ndarray) -> np.ndarray:
    """(4, count) uint64: the state (high, low half) and increment (high,
    low) of ``default_rng(child)``'s PCG64 for each child's pool.

    The pool yields four uint64 words (numpy's ``generate_state(4,
    np.uint64)``): the initial state and the sequence; PCG64 seeds as
    O'Neill's ``srandom`` does, inc = 2 * sequence + 1 and a step, the
    initial state added, a step.
    """
    const = _INIT_B
    words = []
    for i in range(8):
        w, const = _hash(pools[:, i % pools.shape[1]], const, _MULT_B)
        words.append(w.astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (words[2 * j] | words[2 * j + 1] << _U32 for j in range(4))
    inc_hi, inc_lo = q_hi << _U1 | q_lo >> _U63, q_lo << _U1 | _U1
    lo = inc_lo + s_lo
    hi, lo = _lcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo])


def _random(streams: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """(len(rows), k): the next k doubles of the PCG64 streams ``rows`` of
    ``streams`` (:func:`_pcg64_streams`), as ``Generator.random`` draws
    them, and those streams advanced past them.  A draw is one step and
    the XSL-RR output x, as the double (x >> 11) * 2**-53."""
    hi, lo, inc_hi, inc_lo = streams[:, rows]
    out = np.empty((k, len(hi)), dtype=np.uint64)
    for j in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        out[j] = x >> rot | x << (_U64 - rot & _U63)
    streams[:2, rows] = hi, lo
    return (out.T >> _U11) * 2.0**-53


def generate_scenario(net: Network, scen: Scenario, m: int, seed=0) -> StateSet:
    """Sample injections per the scenario and solve power flow for all states.

    Residuals of the output are at the Newton tolerance (<= 1e-10 rms) before
    noise.  State k draws from numpy's ``default_rng(child)`` stream of the
    k-th child of the seed (children as ``ss.spawn`` would number them),
    computed for all states at once, so the output is deterministic and
    shardable; the noise is drawn from child m.  A SeedSequence given as
    ``seed`` is not advanced.  Each round solves the states whose
    voltages are still pending in one batched solve_power_flow call; a state
    whose voltage magnitude left VOLTAGE_RANGE draws again, up to
    MAX_RETRIES times.  An error names the first state, in order, whose
    draws failed.
    """
    if scen.n != net.n:
        raise ValueError(f"scenario is for n={scen.n}, network has n={net.n}")
    m = _state_count(m)
    if not is_connected(net):
        raise PowerFlowError("network must be connected to solve power flow")

    slack = scen.slack
    loads = np.array([j for j in range(net.n) if j + 1 != slack and j + 1 not in scen.zero], int)
    vmin, vmax = VOLTAGE_RANGE
    dc = net.kind == DC
    ss = _seed_sequence(seed)
    streams = _pcg64_streams(_child_pools(ss, m))
    noise = _child(ss, m) if scen.sigma > 0 else None  # refused here, before any solve
    # AC draws (P, Q) per load, in that order; numpy's uniform is lo + (hi - lo) * u
    lo, hi = np.array([scen.p_range] if dc else [scen.p_range, scen.q_range], dtype=float).T
    P = np.zeros((m, net.n))
    Q = np.zeros((m, net.n))
    V = np.empty((m, net.n), dtype=complex)
    pending = np.arange(m)  # states without voltages in VOLTAGE_RANGE yet
    error = None  # the failure of the first state, in order, seen so far

    for _ in range(MAX_RETRIES):
        u = _random(streams, pending, loads.size * lo.size).reshape(pending.size, loads.size, lo.size)
        draws = lo + (hi - lo) * u
        P[np.ix_(pending, loads)] = draws[..., 0]
        if not dc:
            Q[np.ix_(pending, loads)] = draws[..., 1]
        try:
            v = solve_power_flow(net, P[pending], Q[pending], slack=slack)
        except PowerFlowError as exc:
            # states after the failed one no longer matter; those before it
            # solved (rows are independent) and still need their answer
            error = PowerFlowError(f"state {pending[exc.row]}: {exc.reason}")
            error.__cause__ = exc
            pending = pending[: exc.row]
            if not pending.size:
                break
            v = solve_power_flow(net, P[pending], Q[pending], slack=slack)
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
    S = _exact_powers(admittance_matrix(net), V[:, None, :])[:, 0]
    P[:, slack - 1] = S.real[:, slack - 1]
    if dc:
        out = StateSet.dc(V.real, P)
    else:
        Q[:, slack - 1] = S.imag[:, slack - 1]
        out = StateSet(AC, V.real, V.imag, P, Q)
    return add_noise(out, scen.sigma, noise)


def add_noise(states: StateSet, sigma: float, seed=0) -> StateSet:
    """Additive i.i.d. Gaussian noise on every measured component."""
    if _finite_non_negative(sigma, "noise stddev") == 0:
        return states
    rng = np.random.default_rng(seed)
    measured = ("e", "p") if states.kind == DC else ("e", "p", "f", "q")  # in draw order
    return replace(states, **{a: getattr(states, a) + sigma * rng.standard_normal(states.e.shape) for a in measured})
