"""Electrical network model: weighted graphs, Laplacian and admittance matrices.

A network is an undirected graph without loops.  Each edge of a DC network
carries a non-negative conductance; an AC edge carries a non-negative
conductance and susceptance, combined into the complex admittance ``c - i*s``.
A weighted graph is a DC network, weighted by its conductances.  Matrices
are dense; the intended scale is a few dozen nodes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, int]

DC = "dc"
AC = "ac"


def _integral(value, what: str) -> int:
    """An integral number as an int; anything else (a fraction, an infinity,
    nan, a boolean, a string, None) raises ValueError naming ``what``."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _finite_non_negative(value, what: str) -> float:
    """``value`` as a float (:func:`_real`), checked to be finite and
    non-negative; raises ValueError naming ``what``."""
    value = _real(value, what)
    # written as "not lo <= x < hi" so that nan is rejected too
    if not 0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and non-negative, got {value}")
    return value


def _oriented(j: int, k: int) -> Edge:
    """The edge (j, k) with its lower end first."""
    return (j, k) if j < k else (k, j)


def _canonical_edges(n: int, edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    """Validate 1-based endpoints and orient every edge as (j, k) with j < k."""
    out: list[Edge] = []
    seen: set[Edge] = set()
    for j, k in edges:
        if type(j) is not int or type(k) is not int:  # the loop's own edges hold ints
            where = f"edge ({j!r}, {k!r}): node id"
            j, k = _integral(j, where), _integral(k, where)
        if j == k:
            raise ValueError(f"loop edge ({j},{j}) is not allowed")
        if not (1 <= j <= n and 1 <= k <= n):
            raise ValueError(f"edge ({j},{k}) out of range for n={n}")
        j, k = _oriented(j, k)
        if (j, k) in seen:
            raise ValueError(f"duplicate edge ({j},{k})")
        seen.add((j, k))
        out.append((j, k))
    return tuple(out)


def _real(value, what: str) -> float:
    """A real number as a float; a boolean, a string or any other value
    raises ValueError naming ``what``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _weight_array(values, count: int, label: str) -> np.ndarray:
    """The weights as a new read-only float array, one per edge; raises
    ValueError unless they are numbers, finite and non-negative."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        values = [_real(v, f"{label}[{i}]") for i, v in enumerate(values)]
    w = np.array(values, dtype=float)
    if w.shape != (count,):
        raise ValueError(f"{label} must have one entry per edge: shape {w.shape} for {count} edges")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"{label} must be finite and non-negative")
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class Network:
    """Electrical network: nodes 1..n, canonical edges, per-edge weights.

    ``kind`` is ``"dc"`` or ``"ac"``.  DC networks must have all
    susceptances equal to zero.  Zero-weight edges are allowed (they do not
    change the state space) but are dropped by :meth:`normalized`.  A network
    never changes, so values derived from it may be kept on the object, as
    :mod:`.sparsify` keeps its sampling statistics.
    """

    kind: str
    n: int
    edges: tuple[Edge, ...]
    c: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if self.kind not in (DC, AC):
            raise ValueError(f"kind must be 'dc' or 'ac', got {self.kind!r}")
        n = _integral(self.n, "n")
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        self._fill(self.kind, n, _canonical_edges(n, self.edges), self.c, self.s)

    @classmethod
    def _derived(cls, kind: str, n: int, edges: tuple[Edge, ...], c, s) -> "Network":
        """A network on edges cut, in order, from a validated network or
        system of this ``kind`` and ``n``: only the weights are checked, so
        it equals the network the constructor builds from the same parts."""
        net = object.__new__(cls)
        net._fill(kind, n, edges, c, s)
        return net

    def _fill(self, kind: str, n: int, edges: tuple[Edge, ...], c, s) -> None:
        """Check the weights and set every field of a network whose kind, n
        and edges are valid."""
        c = _weight_array(c, len(edges), "conductances")
        s = _weight_array(s, len(edges), "susceptances")
        if kind == DC and np.any(s != 0):
            raise ValueError("DC networks must have zero susceptance everywhere")
        self.__dict__.update(kind=kind, n=n, edges=edges, c=c, s=s)

    @classmethod
    def dc(cls, n: int, edges, conductances) -> "Network":
        edges = tuple(edges)
        return cls(DC, n, edges, conductances, np.zeros(len(edges)))

    @classmethod
    def ac(cls, n: int, edges, conductances, susceptances) -> "Network":
        return cls(AC, n, tuple(edges), conductances, susceptances)

    def __eq__(self, other):
        return (
            isinstance(other, Network)
            and self.kind == other.kind
            and self.n == other.n
            and self.edges == other.edges
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.s, other.s)
        )

    def normalized(self) -> "Network":
        """Drop edges whose conductance and susceptance are both zero: the
        network of the edges :func:`_kept` masks."""
        keep = _kept(self.c, self.s)
        return Network._derived(self.kind, self.n, tuple(compress(self.edges, keep)), self.c[keep], self.s[keep])


def _kept(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The mask of the edges a network keeps: a positive conductance or
    susceptance."""
    return (c > 0) | (s > 0)


def split_graphs(net: Network) -> tuple[Network, Network]:
    """Conductance and susceptance graphs: DC networks on the same edges,
    weighted by c and by s."""
    zero = np.zeros(len(net.edges))
    return tuple(Network._derived(DC, net.n, net.edges, w, zero) for w in (net.c, net.s))


def _laplacian(n: int, edges: tuple[Edge, ...], w: np.ndarray) -> np.ndarray:
    """Dense Laplacian: -w on edges, weighted degrees on the diagonal."""
    L = np.zeros((n, n))
    ends = np.array(edges, dtype=int).reshape(-1, 2) - 1
    a, b = ends.T
    L[a, b] = L[b, a] = 0.0 - w  # 0.0 - w, not -w: a zero weight stays +0.0
    # the endpoints in edge order (a0, b0, a1, b1, ...): bincount sums each
    # degree in the order of the edges, as an edge-by-edge loop would
    L.flat[:: n + 1] = np.bincount(ends.ravel(), np.repeat(w, 2), n)
    return L


def laplacian(g: Network) -> np.ndarray:
    """Laplacian of a graph (a DC network), weighted by its conductances.

    AC networks raise, since one real Laplacian cannot hold their
    susceptances; take those from :func:`split_graphs`.
    """
    if g.kind != DC:
        raise ValueError("laplacian needs a DC network; split an AC one with split_graphs")
    return _laplacian(g.n, g.edges, g.c)


def spectral_norm(L: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(L)), initial=0.0))


def admittance_matrix(net: Network) -> np.ndarray:
    """Complex admittance matrix, the conductance Laplacian minus i times the
    susceptance Laplacian.  For DC networks the imaginary part is identically
    zero (but the dtype is still complex)."""
    # called once per Newton solve: skip building the two split networks
    return _laplacian(net.n, net.edges, net.c) - 1j * _laplacian(net.n, net.edges, net.s)


def series_equivalent(w1: complex, w2: complex) -> complex:
    """Admittance of the single edge equivalent to two edges in series.

    Satisfies 1/w = 1/w1 + 1/w2.  Open circuits (zero admittance) have no
    series equivalent and raise ValueError.
    """
    if w1 == 0 or w2 == 0:
        raise ValueError("series equivalent of a zero admittance is undefined")
    total = w1 + w2
    if total == 0:
        raise ValueError("admittances cancel; series equivalent is unbounded")
    return w1 * w2 / total


def connectivity(g: Network) -> np.ndarray:
    """Component label per node.  Edges with zero conductance and zero
    susceptance are treated as absent.

    Labels are 0-based and increase with the smallest node of each component.
    """
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, k in g.normalized().edges:
        ra, rb = find(j - 1), find(k - 1)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    roots = [find(a) for a in range(g.n)]
    relabel: dict[int, int] = {}
    labels = np.empty(g.n, dtype=int)
    for a, r in enumerate(roots):
        labels[a] = relabel.setdefault(r, len(relabel))
    return labels


def is_connected(g: Network) -> bool:
    return not connectivity(g).any()


def complete_edges(n: int) -> tuple[Edge, ...]:
    """All n(n-1)/2 edges of the complete graph, in lexicographic order."""
    return tuple((j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1))
