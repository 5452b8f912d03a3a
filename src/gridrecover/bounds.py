"""Certified upper bounds on the rms growth caused by sparsification.

If a network G' is an eps-approximation of G, its rms on a fixed data set
cannot exceed rms(G) plus eps times a quantity that depends only on G and
the data.  The DC bound multiplies the spectral norm of the voltage-conjugated
block Laplacian by the distance from the all-ones vector to the best
block-constant voltage rescaling.  The coarse variant replaces both factors
by voltage-range constants.  The AC bound uses a single data/network
functional built from the split conductance/susceptance Laplacians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import AC, DC, Network, laplacian, spectral_norm, split_graphs
from .states import StateSet, rms


@dataclass(frozen=True)
class BoundReport:
    """rms growth certificate: rms(G') <= rms_base + epsilon * bound_term."""

    rms_base: float
    epsilon: float
    bound_term: float
    bound_total: float
    variant: str  # "fine" | "coarse" | "ac"


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and non-negative, got {eps}")


def _max_block_norm(L: np.ndarray, diag: np.ndarray) -> float:
    """max_k || D_k L D_k ||_2 over per-state diagonals D_k (rows of diag)."""
    return max((spectral_norm(L * np.outer(d, d)) for d in diag), default=0.0)


def phi_vector(states: StateSet) -> np.ndarray:
    """Optimal block-constant voltage rescaling, one constant per state.

    Block k holds (sum_j 1/e_j) / (sum_j 1/e_j^2) of that state, the value
    minimizing || 1 - V^{-1} lambda || over block-constant lambda.  Defined
    for DC data (real voltages).
    """
    if states.kind != DC:
        raise ValueError("phi_vector is defined for DC data")
    e = states.e
    if np.any(e == 0):
        raise ValueError("states contain a zero voltage")
    lam = (1.0 / e).sum(axis=1) / (1.0 / e**2).sum(axis=1)
    return np.repeat(lam, states.n)


def dc_bound(net: Network, states: StateSet, eps: float) -> BoundReport:
    """Certificate for DC sparsification at closeness eps.

    bound_term = max_k ||V_k L V_k|| * ||1 - V^{-1} phi|| / sqrt(m n); the
    block maximum is the spectral norm of the full voltage-conjugated block
    Laplacian.
    """
    _check_eps(eps)
    if net.kind != DC or states.kind != DC:
        raise ValueError(f"dc_bound needs a DC network and DC data, got {net.kind} and {states.kind}")
    if net.n != states.n:
        raise ValueError(f"network and data disagree on n: {net.n} against {states.n}")
    mismatch = 1.0 - phi_vector(states) / states.e.ravel()
    L = laplacian(net)
    norm_vlv = _max_block_norm(L, states.e)
    term = norm_vlv * float(np.linalg.norm(mismatch)) / math.sqrt(states.m * states.n)
    base = rms(net, states)
    return BoundReport(base, eps, term, base + eps * term, "fine")


def dc_bound_coarse(
    net: Network, states: StateSet, eps: float, vmin: float, vmax: float
) -> BoundReport:
    """Range-only certificate, always at least as large as the fine one.

    bound_term = vmax^2 * (1 - vmin)/vmin * ||L||; requires declared bounds
    0 < vmin <= |v| <= vmax with vmin <= 1 to hold on the data.
    """
    _check_eps(eps)
    if net.kind != DC or states.kind != DC:
        raise ValueError(
            f"dc_bound_coarse needs a DC network and DC data, got {net.kind} and {states.kind}"
        )
    if not (0 < vmin <= 1):
        raise ValueError("need 0 < vmin <= 1")
    # written as "not lo <= x < hi" so that nan is rejected too
    if not vmin <= vmax < math.inf:
        raise ValueError(f"need a finite vmax >= vmin, got {vmax}")
    v = np.abs(states.e)
    if np.any(v < vmin) or np.any(v > vmax):
        raise ValueError(f"voltages leave the declared range [{vmin}, {vmax}]")
    L = laplacian(net)
    term = vmax**2 * (1.0 - vmin) / vmin * spectral_norm(L)
    base = rms(net, states)
    return BoundReport(base, eps, term, base + eps * term, "coarse")


def ac_delta(net: Network, states: StateSet) -> float:
    """Data/network functional entering the AC certificate.

    Combines, per split Laplacian, the maximum voltage-conjugated block norm
    scaled by sqrt(m n) with cross terms built from the largest voltage
    components and the Euclidean norms of the stacked voltage parts.
    """
    if net.kind != AC or states.kind != AC:
        raise ValueError(f"ac_delta needs an AC network and AC data, got {net.kind} and {states.kind}")
    if net.n != states.n:
        raise ValueError(f"network and data disagree on n: {net.n} against {states.n}")
    cg, sg = split_graphs(net)
    Lc, Ls = laplacian(cg), laplacian(sg)
    E, F = states.e, states.f
    root_mn = math.sqrt(states.m * states.n)
    n_e = float(np.max(np.abs(E)))
    n_f = float(np.max(np.abs(F)))
    n_e1 = float(np.linalg.norm(E))
    n_f1 = float(np.linalg.norm(F))
    cross = n_e * n_f1 + n_f * n_e1
    t1 = root_mn * (_max_block_norm(Lc, E) + _max_block_norm(Lc, F)) + spectral_norm(Ls) * cross
    t2 = root_mn * (_max_block_norm(Ls, E) + _max_block_norm(Ls, F)) + spectral_norm(Lc) * cross
    return math.hypot(t1, t2)


def ac_bound(net: Network, states: StateSet, eps: float) -> BoundReport:
    """AC certificate: rms(G') <= rms(G) + eps * delta / sqrt(2 m n)."""
    _check_eps(eps)
    delta = ac_delta(net, states)
    term = delta / math.sqrt(2 * states.m * states.n)
    base = rms(net, states)
    return BoundReport(base, eps, term, base + eps * term, "ac")
