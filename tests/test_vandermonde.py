import re
import tracemalloc
from itertools import compress

import numpy as np
import pytest

from gridrecover.builtins import BUILTINS, builtin_network, builtin_scenario
from gridrecover.network import Network, _kept, complete_edges
from gridrecover.nnls import _triangle
from gridrecover.states import (
    Scenario,
    StateSet,
    add_noise,
    generate_scenario,
    generate_voltage_driven,
    residuals,
)
from gridrecover.vandermonde import (
    _BLOCK_STATES,
    _deletion_residuals,
    _incidence,
    _node_equations,
    _real_form,
    assemble,
    compressed,
    condition_number,
    network_from_columns,
    parameter_vector,
    restrict,
)
from helpers import random_ac_network, random_dc_network
from oracles import assemble_reference, tall_complex, tall_system

K3 = ((1, 2), (1, 3), (2, 3))


def path3_states(m=50, seed=0, c12=2.0, c23=3.0):
    """Exact states of the 3-node path with no injection at the middle node."""
    net = Network.dc(3, ((1, 2), (2, 3)), [c12, c23])
    scen = Scenario(3, zero=(2,), p_range=(-0.1, -0.01))
    return net, generate_scenario(net, scen, m, seed=seed)


def one_state(states, k):
    """State k of a data set as a one-state set, whose rows are its row block."""
    rows = slice(k, k + 1)
    return StateSet(states.kind, states.e[rows], states.f[rows], states.p[rows], states.q[rows])


def test_row_block_flat_voltage_is_zero():
    x = StateSet.dc([[1.0, 1.0, 1.0]], [[0.0] * 3])
    assert np.array_equal(tall_system(K3, x).matrix, np.zeros((3, 3)))


def test_row_block_dc_matches_quadratic_formula():
    e = np.array([1.05, 0.97, 1.01])
    x = StateSet.dc([e], [[0.0] * 3])
    B = tall_system(K3, x).matrix
    expected = np.array(
        [
            [e[0] ** 2 - e[0] * e[1], e[0] ** 2 - e[0] * e[2], 0.0],
            [e[1] ** 2 - e[0] * e[1], 0.0, e[1] ** 2 - e[1] * e[2]],
            [0.0, e[2] ** 2 - e[0] * e[2], e[2] ** 2 - e[1] * e[2]],
        ]
    )
    assert np.allclose(B, expected, atol=1e-15)
    # each column touches exactly the two endpoint rows
    assert np.array_equal(B != 0, expected != 0)


def test_row_block_ac_zero_imag_replicates_dc_pattern():
    e = np.array([1.05, 0.97, 1.01])
    dc = tall_system(K3, StateSet.dc([e], [[0.0] * 3])).matrix
    z = np.zeros((1, 3))
    ac = tall_system(K3, StateSet("ac", [e], z, z, z)).matrix
    assert np.array_equal(ac[0::2, 0::2], dc)  # alpha in the g-row/c-column grid
    assert np.array_equal(ac[1::2, 1::2], dc)  # and again in the h-row/s-column grid
    assert np.array_equal(ac[0::2, 1::2], np.zeros((3, 3)))  # beta terms vanish
    assert np.array_equal(ac[1::2, 0::2], np.zeros((3, 3)))


@pytest.mark.parametrize("kind", ["dc", "ac"])
@pytest.mark.parametrize(
    "edges",
    [
        tuple(e for e in complete_edges(5) if 3 not in e),  # node 3 has no edge
        ((1, 2), (1, 3), (1, 4), (2, 3), (4, 5)),  # degrees 3, 2, 2, 2, 1
    ],
    ids=["isolated-node", "unequal-degrees"],
)
def test_node_equations_are_the_oracle_rows_of_each_node(kind, edges):
    n, m = 5, 30  # two blocks, the second one short
    r = 1 if kind == "dc" else 2
    net = (random_dc_network if kind == "dc" else random_ac_network)(np.random.default_rng(11), n)
    states = add_noise(generate_voltage_driven(net, m, seed=12), 1e-3, seed=13)
    tall = tall_system(edges, states)
    d = max(sum(v in e for e in edges) for v in range(1, n + 1))
    _, far, pad = _incidence(n, edges)
    for first in range(0, m, _BLOCK_STATES):
        block = range(first, min(first + _BLOCK_STATES, m))
        stack = _node_equations(far, pad, states, first)
        assert stack.shape == (n, len(block), d + 1)
        assert stack.dtype == (float if kind == "dc" else complex)
        for v in range(n):
            # the oracle's first row of v in each state and the first column
            # of each of v's edges; on AC the second row is the imaginary part
            rows = np.array([r * (n * s + v) for s in block])
            cols = [r * t for t, e in enumerate(edges) if v + 1 in e]

            def oracle(i):
                return np.column_stack((tall.matrix[np.ix_(rows + i, cols)], tall.rhs[rows + i]))

            expected = oracle(0) if kind == "dc" else oracle(0) + 1j * oracle(1)
            assert np.array_equal(stack[v, :, : len(cols)], expected[:, :-1])
            assert not np.any(stack[v, :, len(cols) : -1])  # the padding
            assert np.array_equal(stack[v, :, -1], expected[:, -1])


def test_assemble_stacks_states_in_order():
    rng = np.random.default_rng(1)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 4)
        states = generate_voltage_driven(net, 6, seed=2)
        system = tall_system(net.edges, states)
        blocks = [tall_system(net.edges, one_state(states, k)).matrix for k in range(6)]
        assert np.array_equal(system.matrix, np.vstack(blocks))


def test_assemble_rejects_empty_edge_set():
    states = StateSet.dc(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        assemble((), states)


def test_residual_identity_against_states_module():
    rng = np.random.default_rng(2)
    for make in (random_dc_network, random_ac_network):
        for _ in range(10):
            net = make(rng, int(rng.integers(3, 8)))
            states = generate_voltage_driven(net, 6, seed=int(rng.integers(1 << 30)))
            system = tall_system(net.edges, states)
            w = parameter_vector(net)
            lhs = system.matrix @ w - system.rhs
            rhs = residuals(net, states)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


def test_dc_columns_have_two_nonzero_rows_per_state():
    rng = np.random.default_rng(3)
    net = random_dc_network(rng, 6)
    states = generate_voltage_driven(net, 9, seed=4)
    system = tall_system(net.edges, states)
    nonzeros = (system.matrix != 0).sum(axis=0)
    assert np.all(nonzeros <= 2 * states.m)


def test_column_subset_coherence():
    rng = np.random.default_rng(4)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 6)
        states = generate_voltage_driven(net, 5, seed=5)
        full = tall_complex(complete_edges(6), states)
        sub_edges = net.edges[: len(net.edges) // 2 + 1]
        direct = tall_complex(sub_edges, states)
        restricted = restrict(full, sub_edges)
        assert np.array_equal(direct.matrix, restricted.matrix)
        assert direct.edges == restricted.edges
        assert np.array_equal(direct.rhs, restricted.rhs)
        missing = sorted(set(complete_edges(6)) - set(sub_edges))
        with pytest.raises(ValueError, match=re.escape(f"edges {missing} not present")):
            restrict(direct, complete_edges(6))


def test_restrict_validates_what_is_not_the_systems_own_edge_order():
    states = generate_voltage_driven(random_dc_network(np.random.default_rng(5), 5), 5, seed=6)
    full = tall_system(complete_edges(5), states)
    own = ((1, 2), (2, 4), (3, 5))
    expected = restrict(full, own)
    # reversed, unsorted or numpy ids: validated, oriented and sorted first
    for edges in (((4, 2), (1, 2), (5, 3)), [[np.int64(1), 2], (2, 4), (3, 5)]):
        got = restrict(full, edges)
        assert got.edges == own and got.matrix.tobytes() == expected.matrix.tobytes()
    for edges, message in (
        ((), "edge set must be nonempty"),
        (((1, 2), (1, 2)), r"duplicate edge \(1,2\)"),
        (((True, 2),), "node id must be an integer, got True"),
        (((1, 6),), r"edge \(1,6\) out of range for n=5"),
    ):
        with pytest.raises(ValueError, match=message):
            restrict(full, edges)


def uniform_weights(rng, system):
    """Random weights, one per edge: c + i*s on AC."""
    c, s = rng.uniform(0, 10, (2, len(system.edges)))
    return c + 1j * s if system.kind == "ac" else c


def assert_factor_of_rows(system, tall, rng):
    """The compressed system keeps every residual norm of the rows and their
    singular values: ||A w - b|| = hypot(||R w - c||, rho), with ``tall``
    in the one-column-per-edge layout, complex on AC."""
    assert system.matrix.dtype == tall.matrix.dtype
    assert system.rows == tall.rows == tall.rhs.size * (2 if system.kind == "ac" else 1)
    for _ in range(5):
        w = uniform_weights(rng, tall)
        compressed = np.hypot(np.linalg.norm(system.matrix @ w - system.rhs), system.rho)
        assert compressed == pytest.approx(np.linalg.norm(tall.matrix @ w - tall.rhs), rel=1e-12)
    sv = np.linalg.svd(system.matrix, compute_uv=False)
    assert np.allclose(sv, np.linalg.svd(tall.matrix, compute_uv=False), rtol=1e-12, atol=1e-12 * sv[0])


def test_factor_keeps_residual_norms_and_singular_values():
    rng = np.random.default_rng(9)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 5)
        # 60 noisy states: three blocks folded in, and a nonzero rho
        states = add_noise(generate_voltage_driven(net, 60, seed=10), 1e-3, seed=11)
        system = assemble(complete_edges(5), states)
        tall = tall_complex(complete_edges(5), states)
        assert system.matrix.shape == (tall.matrix.shape[1],) * 2
        assert system.rho > 0
        assert_factor_of_rows(system, tall, rng)


@pytest.mark.parametrize("kind", ["dc", "ac"])
@pytest.mark.parametrize(
    "n, m, edges",
    [
        # node 3 has no edge, so all of its equations go into rho
        (5, 30, tuple(e for e in complete_edges(5) if 3 not in e)),
        # fewer equations per node than columns, and fewer in all than columns
        (5, 1, complete_edges(5)),
        (5, 2, complete_edges(5)),
        # the network's own edges: nodes of unequal degree, padded to the widest
        (8, 40, None),
        # 60 states of n = 12: each node's factor keeps fewer rows than it folds
        (12, 60, complete_edges(12)),
    ],
    ids=["isolated-node", "one-state", "two-states", "unequal-degrees", "n12-60-states"],
)
def test_node_local_fold_keeps_norms_and_singular_values(kind, n, m, edges):
    rng = np.random.default_rng(100 * n + m)
    net = (random_dc_network if kind == "dc" else random_ac_network)(rng, n)
    states = add_noise(generate_voltage_driven(net, m, seed=m), 1e-3, seed=m + 1)
    edges = net.edges if edges is None else edges
    system = assemble(edges, states)
    assert_factor_of_rows(system, tall_complex(edges, states), rng)
    assert_same_bits(system, assemble_reference(edges, states))


@pytest.mark.parametrize("sigma", [0.0, 1e-6])
def test_real_form_of_an_ac_triangle_is_its_own_factor(sigma):
    net = builtin_network("small_ac", 0)
    states = generate_scenario(net, builtin_scenario("small_ac", sigma=sigma), 120, seed=2)
    full = assemble(complete_edges(net.n), states)
    candidate = restrict(full, net.edges)
    assert candidate.matrix.shape[0] > candidate.matrix.shape[1]  # compressed by a complex QR
    for system in (full, compressed(candidate)):
        T = system.matrix
        assert T.dtype == complex and T.shape == (len(system.edges),) * 2
        assert not np.diagonal(T).imag.any()  # LAPACK's complex QR leaves it real
        M, rhs = _real_form(system)
        assert M.shape == (2 * len(system.edges),) * 2
        assert not np.tril(M, -1).any()  # exactly upper triangular
        # [[Re, -Im], [Im, Re]] per entry, and the pair (Re, Im) per rhs entry
        assert np.array_equal(M[0::2, 0::2], T.real) and np.array_equal(M[1::2, 1::2], T.real)
        assert np.array_equal(M[1::2, 0::2], T.imag) and np.array_equal(M[0::2, 1::2], -T.imag)
        assert np.array_equal(rhs[0::2] + 1j * rhs[1::2], system.rhs)
        # so the fit takes it as its own factor, with no second QR
        R, c, corner = _triangle(M, rhs, np.ones(M.shape[1], dtype=bool))
        assert R is M and c is rhs and corner == 0.0


def test_real_form_of_a_dc_system_is_the_system():
    _, states = path3_states(m=30)
    system = assemble(K3, states)
    M, rhs = _real_form(system)
    assert M is system.matrix and rhs is system.rhs


def assert_same_bits(system, reference):
    assert system.edges == reference.edges
    assert (system.kind, system.n, system.rho, system.rows) == (
        reference.kind,
        reference.n,
        reference.rho,
        reference.rows,
    )
    assert system.matrix.tobytes() == reference.matrix.tobytes()
    assert system.matrix.strides == reference.matrix.strides
    assert system.rhs.tobytes() == reference.rhs.tobytes()


@pytest.mark.parametrize("name", BUILTINS)
def test_assembly_is_the_reference_fold_bit_for_bit_on_the_builtins(name):
    net = builtin_network(name, 0)
    states = generate_scenario(net, builtin_scenario(name, sigma=1e-6), 80, seed=1)
    for edges in (complete_edges(net.n), net.edges):
        assert_same_bits(assemble(edges, states), assemble_reference(edges, states))


def test_assembly_is_the_reference_fold_bit_for_bit_at_dc30_size():
    # the benchmark's dc30 shape: n = 30, 200 states, a 900 x 436 stack
    net = random_dc_network(np.random.default_rng(30), 30, extra_edges=15, wrange=(0.5, 100.0))
    states = generate_voltage_driven(net, 200, seed=31)
    edges = complete_edges(30)
    assert_same_bits(assemble(edges, states), assemble_reference(edges, states))


def test_assembly_memory_is_bounded_by_the_block_not_by_m():
    net = random_dc_network(np.random.default_rng(13), 30)
    edges = complete_edges(30)
    assemble(edges, generate_voltage_driven(net, 2, seed=0))  # first-call set-up, untraced
    peaks = []
    for m in (100, 400):
        states = generate_voltage_driven(net, m, seed=m)
        tracemalloc.start()
        try:
            assemble(edges, states)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    # the 30 node factors of 30 x 436 each, stacked for the final QR, and
    # numpy's copy of that stack: nothing else of its size is alive then
    stack = 8 * 30 * 30 * 436
    assert max(peaks) <= 2.1 * stack


def test_kernel_vector_of_silent_middle_node_data():
    c12, c23 = 2.0, 3.0
    _, states = path3_states(m=20, c12=c12, c23=c23)
    system = assemble(K3, states)
    z = np.array([-1 - c12 / c23, 1.0, -1 - c23 / c12])
    assert np.max(np.abs(system.matrix @ z)) < 1e-12


def test_condition_number_orthonormal_columns():
    q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((12, 4)))
    assert condition_number(q) == pytest.approx(1.0, rel=1e-10)


def test_condition_number_sentinel_on_rank_deficiency():
    _, states = path3_states(m=30)
    assert condition_number(assemble(K3, states).matrix) == float("inf")
    assert condition_number(np.zeros((4, 2))) == float("inf")
    # more columns than rows: a null space, whatever the singular values
    assert condition_number(np.random.default_rng(0).standard_normal((2, 4))) == float("inf")


@pytest.mark.parametrize("sigma", [0.0, 1e-6])
def test_condition_number_of_an_ac_system_is_its_real_forms(sigma):
    net = builtin_network("small_ac", 0)
    states = generate_scenario(net, builtin_scenario("small_ac", sigma=sigma), 120, seed=2)
    full = assemble(complete_edges(net.n), states)
    candidate = compressed(restrict(full, net.edges))
    assert np.isfinite(condition_number(candidate.matrix))
    # exact data leave the complete graph's triangle rank-deficient: inf in both
    for system in (full, candidate):
        assert condition_number(system.matrix) == pytest.approx(condition_number(_real_form(system)[0]), rel=1e-12)


def test_condition_number_sentinel_on_a_rank_deficient_ac_system():
    # the AC path with a silent middle node: the kernel of the DC case
    net = Network.ac(3, ((1, 2), (2, 3)), [2.0, 3.0], [1.0, 0.5])
    scen = Scenario(3, zero=(2,), p_range=(-0.1, -0.01), q_range=(-0.05, 0.0))
    system = assemble(K3, generate_scenario(net, scen, 30, seed=0))
    assert system.matrix.dtype == complex and system.matrix.shape == (3, 3)
    assert condition_number(system.matrix) == float("inf")
    assert condition_number(_real_form(system)[0]) == float("inf")


def test_condition_number_drops_on_true_topology(table1_network, table1_states):
    full = condition_number(assemble(complete_edges(6), table1_states).matrix)
    true = condition_number(assemble(table1_network.edges, table1_states).matrix)
    assert true <= full


def test_ac_beta_columns_vanish_for_real_data():
    rng = np.random.default_rng(7)
    net = random_ac_network(rng, 4)
    e = rng.uniform(0.9, 1.1, (5, 4))
    z = np.zeros_like(e)
    states = StateSet("ac", e, z, rng.normal(size=(5, 4)), z)
    system = tall_system(net.edges, states)
    # with f = 0 every beta entry vanishes, leaving the two alpha diagonals
    assert np.count_nonzero(system.matrix[0::2, 1::2]) == 0  # g-rows, s-columns
    assert np.count_nonzero(system.matrix[1::2, 0::2]) == 0  # h-rows, c-columns
    assert np.count_nonzero(system.matrix[1::2, 1::2]) > 0


def test_parameter_vector_round_trip():
    rng = np.random.default_rng(8)
    for make in (random_dc_network, random_ac_network):
        net = make(rng, 5)
        w = parameter_vector(net)
        system = assemble(net.edges, generate_voltage_driven(net, 1, seed=0))
        rebuilt = network_from_columns(system, w)
        assert set(rebuilt.edges) == set(net.edges)
        assert np.allclose(parameter_vector(rebuilt), w)
        with pytest.raises(ValueError, match=rf"columns: \({len(w) + 1},\) for {len(w)}"):
            network_from_columns(system, np.append(w, 1.0))
        # the edges are the system's; the weights are checked
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            network_from_columns(system, -w)
        with pytest.raises(ValueError, match=r"conductances\[0\] must be a number"):
            network_from_columns(system, w > 0)
        with pytest.raises(ValueError, match=r"conductances\[0\] must be a number"):
            network_from_columns(system, w.astype(str))


@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_a_solution_of_the_wrong_length_is_rejected(kind):
    net = (random_dc_network if kind == "dc" else random_ac_network)(np.random.default_rng(9), 5)
    system = assemble(net.edges, generate_voltage_driven(net, 2, seed=0))
    w = parameter_vector(net)
    assert len(w) == (1 if kind == "dc" else 2) * len(net.edges) == _real_form(system)[0].shape[1]
    # one short, one long, and on AC one weight per edge where each edge has two
    message = rf"solution length must match the system's real columns: .* for {len(w)}$"
    for wrong in [w[:-1], np.append(w, 1.0)] + ([w[: len(net.edges)]] if kind == "ac" else []):
        with pytest.raises(ValueError, match=message):
            network_from_columns(system, wrong)


@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_compressed_keeps_the_residual_of_the_kept_edges(kind):
    rng = np.random.default_rng(11)
    net = (random_dc_network if kind == "dc" else random_ac_network)(rng, 5)
    full = assemble(complete_edges(5), generate_voltage_driven(net, 4, seed=1))
    tall = restrict(full, net.edges)
    assert tall.matrix.shape[0] > tall.matrix.shape[1]
    keep = np.arange(len(tall.edges)) % 2 == 0
    kept = compressed(tall, keep)
    assert kept.edges == tuple(compress(tall.edges, keep))
    assert kept.matrix.shape == (int(keep.sum()),) * 2
    assert not np.tril(kept.matrix, -1).any()
    reference = restrict(tall, kept.edges)
    for _ in range(5):
        w = uniform_weights(rng, kept)
        assert np.hypot(np.linalg.norm(kept.matrix @ w - kept.rhs), kept.rho) == pytest.approx(
            np.hypot(np.linalg.norm(reference.matrix @ w - reference.rhs), reference.rho), rel=1e-12
        )
    sv = np.linalg.svd(kept.matrix, compute_uv=False)
    assert np.allclose(sv, np.linalg.svd(reference.matrix, compute_uv=False), rtol=1e-12)
    assert compressed(tall).edges == tall.edges
    # every edge of a square triangle: the system is its own factor
    whole = compressed(full)
    assert whole.matrix is full.matrix and whole.rhs is full.rhs and whole.rho == full.rho


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["heawood_dc", "small_ac"])
def test_deletion_residuals_are_least_squares_without_each_edge(name, seed):
    net = builtin_network(name, seed)
    states = generate_scenario(net, builtin_scenario(name, sigma=1e-6), 60, seed=seed)
    kept = compressed(restrict(assemble(complete_edges(net.n), states), net.edges))
    residuals, cols, kappa = _deletion_residuals(kept)
    assert residuals.shape == (len(net.edges),)
    # least squares on the real form the solver fits, without the edge's
    # column on DC and its (c, s) pair of columns on AC
    R, rhs = _real_form(kept)
    r = R.shape[1] // len(net.edges)
    assert r == (1 if name == "heawood_dc" else 2) and cols == R.shape[1]
    for t in range(len(net.edges)):
        others = np.delete(R, np.s_[r * t : r * t + r], axis=1)
        y = np.linalg.lstsq(others, rhs, rcond=None)[0]
        brute = kept.rho**2 + np.linalg.norm(others @ y - rhs) ** 2
        assert residuals[t] == pytest.approx(brute, rel=1e-9)
    # the real form's Frobenius product: r times the triangle's, bit for bit
    T = kept.matrix
    assert kappa == r * float(np.linalg.norm(T) * np.linalg.norm(np.linalg.inv(T)))
    assert kappa == pytest.approx(np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R)), rel=1e-12)
    assert kappa >= condition_number(R)


@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_kept_edges_are_those_a_solution_weights_positively(kind):
    rng = np.random.default_rng(5)
    net = (random_dc_network if kind == "dc" else random_ac_network)(rng, 6)
    system = assemble(net.edges, generate_voltage_driven(net, 5, seed=2))
    for _ in range(5):
        w = rng.choice([0.0, 0.5], size=_real_form(system)[0].shape[1])
        net = network_from_columns(system, w)
        positive = (w.reshape(len(system.edges), -1) > 0).any(axis=1)  # any of the edge's columns
        assert np.array_equal(_kept(net.c, net.s), positive)
        assert net.normalized().edges == tuple(compress(system.edges, positive))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_assemble_rejects_overflow_with_state_and_node(kind):
    e = np.ones((3, 3))
    e[1, 2] = 1e200  # finite, but e^2 overflows in the rows of node 3
    z = np.zeros((3, 3))
    states = StateSet.dc(e, z) if kind == "dc" else StateSet("ac", e, z, z, z)
    with pytest.raises(ValueError, match=r"state 2, node 3: design-matrix entry overflows"):
        assemble(K3, states)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_assemble_names_an_overflow_in_the_imaginary_part_alone():
    # node 1's entry over its edge to node 3 has a finite real part,
    # 1e240 - 1e120, and an imaginary part e_1*f_3 = 1e320 that overflows;
    # node 3's own real part f_3^2 overflows too, but node 1 comes first
    e, f = np.ones((3, 3)), np.zeros((3, 3))
    e[1, 0], f[1, 2] = 1e120, 1e200
    z = np.zeros((3, 3))
    with pytest.raises(ValueError, match=r"state 2, node 1: design-matrix entry overflows"):
        assemble(K3, StateSet("ac", e, f, z, z))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["dc", "ac"])
def test_assemble_names_an_overflow_past_the_first_block(kind):
    e = np.ones((40, 3))
    e[29, 1] = 1e200  # state 30 is folded in with the second block of states
    assert 30 > _BLOCK_STATES
    z = np.zeros((40, 3))
    states = StateSet.dc(e, z) if kind == "dc" else StateSet("ac", e, z, z, z)
    with pytest.raises(ValueError, match=r"state 30, node 2: design-matrix entry overflows"):
        assemble(K3, states)
