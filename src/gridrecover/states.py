"""Measurement states: power-flow residuals, rms fitting error, data synthesis.

A state is the per-node snapshot (voltage, injected power) of a network at
one instant.  DC states have real voltage e and active power P; AC states add
the imaginary voltage part f and reactive power Q.  Exact states satisfy the
power-flow equations, whose vector of evaluations is

    diag(v) * conj(L) * conj(v) - S

with L the admittance matrix; the DC case is the real restriction e*(L e) - P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import AC, DC, Network, admittance_matrix, is_connected


class PowerFlowError(RuntimeError):
    """Power-flow solve failed (non-convergence, singular Jacobian, bad range)."""


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
                raise ValueError(f"{name} must be a 2-D (m, n) array")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains a non-finite value")
            a.setflags(write=False)
            arrays[name] = a
            object.__setattr__(self, name, a)
        shape = arrays["e"].shape
        if any(a.shape != shape for a in arrays.values()):
            raise ValueError("state arrays must share one (m, n) shape")
        if shape[0] < 1 or shape[1] < 1:
            raise ValueError("need at least one state and one node")
        if self.kind == DC and (np.any(arrays["f"] != 0) or np.any(arrays["q"] != 0)):
            raise ValueError("DC states must have f = Q = 0")

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


ROLE_SLACK = "slack"
ROLE_POWER = "power"
ROLE_ZERO = "zero"


@dataclass(frozen=True)
class Scenario:
    """Per-node sampling roles for synthetic data.

    Exactly one node is the slack (voltage pinned at 1, power absorbs the
    balance); 'power' nodes draw injections uniformly from their range;
    'zero' nodes inject nothing, exactly.  ``sigma`` is the stddev of the
    Gaussian noise added to every measured component afterwards.
    """

    roles: tuple[str, ...]
    p_ranges: tuple[tuple[float, float], ...]
    q_ranges: tuple[tuple[float, float], ...]
    sigma: float = 0.0

    def __post_init__(self):
        n = len(self.roles)
        if sum(r == ROLE_SLACK for r in self.roles) != 1:
            raise ValueError("scenario needs exactly one slack node")
        for r in self.roles:
            if r not in (ROLE_SLACK, ROLE_POWER, ROLE_ZERO):
                raise ValueError(f"unknown role {r!r}")
        if len(self.p_ranges) != n or len(self.q_ranges) != n:
            raise ValueError("per-node ranges must match the number of roles")
        for lo, hi in (*self.p_ranges, *self.q_ranges):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bad sampling range ({lo}, {hi})")
        if self.sigma < 0:
            raise ValueError("noise stddev must be non-negative")

    @property
    def n(self) -> int:
        return len(self.roles)

    @property
    def slack(self) -> int:
        """1-based slack node id."""
        return self.roles.index(ROLE_SLACK) + 1

    @classmethod
    def single_slack(
        cls,
        n: int,
        slack: int = 1,
        zero: tuple[int, ...] = (),
        p_range: tuple[float, float] = (-0.1, 0.0),
        q_range: tuple[float, float] = (0.0, 0.0),
        sigma: float = 0.0,
    ) -> "Scenario":
        """Common layout: one slack, some zero-injection nodes, loads elsewhere."""
        roles = []
        for j in range(1, n + 1):
            if j == slack:
                roles.append(ROLE_SLACK)
            elif j in zero:
                roles.append(ROLE_ZERO)
            else:
                roles.append(ROLE_POWER)
        return cls(tuple(roles), ((p_range,) * n), ((q_range,) * n), sigma)


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
    v = states.voltage()
    r = v * np.conj(v @ L) - states.power()
    out = np.empty((states.m, 2 * states.n))
    out[:, 0::2] = r.real
    out[:, 1::2] = r.imag
    return out.ravel()


def rms(net: Network, states: StateSet) -> float:
    """Root-mean-square of all power-flow residuals over the data set."""
    r = residuals(net, states)
    return float(np.linalg.norm(r) / np.sqrt(r.size))


def _exact_powers(net: Network, v: np.ndarray) -> np.ndarray:
    """Complex power vector making (v, S) an exact state of the network."""
    L = admittance_matrix(net)
    return v * np.conj(v @ L)


def generate_voltage_driven(
    net: Network,
    m: int,
    vrange: tuple[float, float] = (0.9, 1.1),
    seed=0,
    angle_range: float = 0.1,
) -> StateSet:
    """Exact states from i.i.d. uniform voltages; powers derived to match.

    Any voltage vector paired with its implied injections satisfies the
    power-flow equations by construction, so the output rms is zero up to
    rounding.  AC voltages get a uniform angle in [-angle_range, angle_range].
    """
    vmin, vmax = vrange
    if not (0 < vmin <= vmax):
        raise ValueError(f"invalid voltage range ({vmin}, {vmax})")
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    if net.kind == DC:
        e = rng.uniform(vmin, vmax, size=(m, net.n))
        v = e.astype(complex)
    else:
        mag = rng.uniform(vmin, vmax, size=(m, net.n))
        ang = rng.uniform(-angle_range, angle_range, size=(m, net.n))
        v = mag * np.exp(1j * ang)
    S = _exact_powers(net, v)
    return StateSet(net.kind, v.real, v.imag, S.real, S.imag)


def solve_power_flow(
    net: Network,
    p: np.ndarray,
    q: np.ndarray | None = None,
    slack: int = 1,
    v0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Newton power flow: voltages matching the injections at non-slack nodes.

    The slack node's voltage is pinned at 1; its injection is left free.
    Starts flat (v = 1) and damps each step by halving until the infinity
    norm of the mismatch decreases.  Returns the complex voltage vector.
    """
    n = net.n
    L = admittance_matrix(net)
    ns = np.array([j for j in range(n) if j != slack - 1])
    target = np.asarray(p, dtype=float) + 1j * (
        np.zeros(n) if q is None else np.asarray(q, dtype=float)
    )
    v = np.ones(n, dtype=complex) if v0 is None else np.asarray(v0, dtype=complex).copy()
    v[slack - 1] = 1.0
    dc = net.kind == DC

    def mismatch(vv):
        d = vv * np.conj(L @ vv) - target
        if dc:
            return d.real[ns]
        return np.concatenate([d.real[ns], d.imag[ns]])

    f = mismatch(v)
    for _ in range(max_iter):
        fnorm = np.max(np.abs(f))
        if fnorm <= tol:
            return v
        inj = np.conj(L @ v)
        d_de = np.diag(inj) + v[:, None] * np.conj(L)
        try:
            if dc:
                jac = d_de.real[np.ix_(ns, ns)]
                step = np.linalg.solve(jac, -f)
                dv = np.zeros(n, dtype=complex)
                dv[ns] = step
            else:
                d_df = 1j * np.diag(inj) - 1j * (v[:, None] * np.conj(L))
                jac = np.block(
                    [
                        [d_de.real[np.ix_(ns, ns)], d_df.real[np.ix_(ns, ns)]],
                        [d_de.imag[np.ix_(ns, ns)], d_df.imag[np.ix_(ns, ns)]],
                    ]
                )
                step = np.linalg.solve(jac, -f)
                k = len(ns)
                dv = np.zeros(n, dtype=complex)
                dv[ns] = step[:k] + 1j * step[k:]
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
    if np.max(np.abs(f)) <= tol:
        return v
    raise PowerFlowError(f"no convergence after {max_iter} Newton iterations")


def generate_scenario(
    net: Network,
    scen: Scenario,
    m: int,
    seed=0,
    vrange: tuple[float, float] = (0.9, 1.1),
    max_retries: int = 50,
) -> StateSet:
    """Sample injections per the scenario and solve power flow for each state.

    Residuals of the output are at the Newton tolerance (<= 1e-10 rms) before
    noise.  States whose voltage magnitude leaves ``vrange`` are resampled up
    to ``max_retries`` times.  Per-state RNG substreams are derived from the
    seed, so the output is deterministic and shardable.
    """
    if scen.n != net.n:
        raise ValueError(f"scenario is for n={scen.n}, network has n={net.n}")
    if m < 1:
        raise ValueError("need m >= 1")
    if not is_connected(net):
        raise PowerFlowError("network must be connected to solve power flow")
    vmin, vmax = vrange
    if not (0 < vmin <= vmax):
        raise ValueError(f"invalid voltage range ({vmin}, {vmax})")

    slack = scen.slack
    dc = net.kind == DC
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(m + 1)
    E = np.empty((m, net.n))
    F = np.zeros((m, net.n))
    P = np.empty((m, net.n))
    Q = np.zeros((m, net.n))

    for k in range(m):
        rng = np.random.default_rng(children[k])
        for _ in range(max_retries):
            p = np.zeros(net.n)
            q = np.zeros(net.n)
            for j, role in enumerate(scen.roles):
                if role == ROLE_POWER:
                    p[j] = rng.uniform(*scen.p_ranges[j])
                    if not dc:
                        q[j] = rng.uniform(*scen.q_ranges[j])
            try:
                v = solve_power_flow(net, p, q, slack=slack)
            except PowerFlowError as exc:
                raise PowerFlowError(f"state {k}: {exc}") from exc
            if np.all((np.abs(v) >= vmin) & (np.abs(v) <= vmax)):
                break
        else:
            raise PowerFlowError(
                f"state {k}: voltages left [{vmin}, {vmax}] in {max_retries} attempts"
            )
        # the slack injection balances the network exactly; sampled/zero nodes
        # keep their drawn values so zero-injection nodes stay exactly zero
        s_model = _exact_powers(net, v)
        p[slack - 1] = s_model.real[slack - 1]
        q[slack - 1] = s_model.imag[slack - 1]
        E[k], P[k] = v.real, p
        if not dc:
            F[k], Q[k] = v.imag, q

    out = StateSet(net.kind, E, F, P, Q)
    if scen.sigma > 0:
        out = add_noise(out, scen.sigma, children[m])
    return out


def add_noise(states: StateSet, sigma: float, seed=0) -> StateSet:
    """Additive i.i.d. Gaussian noise on every measured component."""
    if sigma < 0:
        raise ValueError("noise stddev must be non-negative")
    if sigma == 0:
        return states
    rng = np.random.default_rng(seed)
    shape = states.e.shape
    e = states.e + sigma * rng.standard_normal(shape)
    p = states.p + sigma * rng.standard_normal(shape)
    if states.kind == DC:
        return StateSet(DC, e, np.zeros(shape), p, np.zeros(shape))
    f = states.f + sigma * rng.standard_normal(shape)
    q = states.q + sigma * rng.standard_normal(shape)
    return StateSet(AC, e, f, p, q)
