"""Property tests of the column layout, of the compressed fit on random
networks and edge subsets, and of the NNLS solver on rank-deficient systems.

The equations of a subset cut from the complete graph's must be the subset's
own, bit for bit; a parameter vector must survive the trip through the
layout and back; a fit on the triangular factor, restricted or re-assembled,
must agree with the fit on the tall equations to roundoff; NNLS must meet
its KKT bound and the global optimum where columns repeat or depend on each
other; its factored solves must take the same active-set steps as
solving every step afresh by least squares, from w = 0 and from all
columns; the Newton Jacobian built on
the non-slack block must equal the complex formula's block, at any slack;
and no proper subset of a network the recovery loop certifies minimal may
fit within its tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridrecover.network import DC, admittance_matrix, complete_edges
from gridrecover.nnls import solve as nnls_solve
from gridrecover.recovery import _minimal, fit
from gridrecover.states import _jacobian, add_noise, generate_voltage_driven
from gridrecover.vandermonde import (
    assemble,
    network_from_columns,
    parameter_vector,
    restrict,
)
from helpers import random_ac_network, random_dc_network
from oracles import exhaustive_nnls, newton_jacobian, nnls_lstsq, tall_complex, tall_fit

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    """A random DC or AC network, exact states of it, and an edge subset S."""
    make = draw(st.sampled_from([random_dc_network, random_ac_network]))
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    net = make(np.random.default_rng(seed), n, extra_edges=draw(st.integers(0, 4)))
    # up to 60 states, so that assembly folds up to three blocks into its factor
    states = generate_voltage_driven(net, draw(st.integers(1, 60)), seed=seed)
    subset = draw(st.lists(st.sampled_from(complete_edges(n)), min_size=1, unique=True))
    return net, states, subset


@PROPERTY
@given(cases())
def test_restriction_equals_reassembly(case):
    net, states, subset = case
    restricted = restrict(tall_complex(complete_edges(net.n), states), subset)
    direct = tall_complex(subset, states)
    assert restricted.edges == direct.edges == tuple(sorted(subset))
    assert restricted.matrix.tobytes() == direct.matrix.tobytes()
    assert restricted.matrix.strides == direct.matrix.strides  # memory order too
    assert restricted.rhs.tobytes() == direct.rhs.tobytes()


@PROPERTY
@given(cases())
def test_parameter_vector_round_trips_through_the_layout(case):
    net, states, subset = case
    system = assemble(subset, states)
    w = parameter_vector(net, system.edges)
    rebuilt = network_from_columns(system, w)
    assert rebuilt.kind == net.kind and rebuilt.edges == system.edges
    assert parameter_vector(rebuilt, system.edges).tobytes() == w.tobytes()
    weights = dict(zip(net.edges, zip(net.c, net.s)))
    for e, c, s in zip(rebuilt.edges, rebuilt.c, rebuilt.s):
        assert (c, s) == weights.get(e, (0.0, 0.0))  # 0 for edges absent from net


@PROPERTY
@given(cases())
def test_compressed_fits_agree_with_the_tall_fit(case):
    net, states, subset = case
    tall = tall_fit(subset, states)
    cut = fit(restrict(assemble(complete_edges(net.n), states), subset))
    built = fit(assemble(subset, states))
    for compressed in (cut, built):
        assert compressed.network.edges == tall.network.edges
        assert np.isinf(compressed.kappa) == np.isinf(tall.kappa)
        assert abs(compressed.rms - tall.rms) <= 1e-13
        if tall.kappa < 1e6:
            assert abs(compressed.kappa - tall.kappa) <= 1e-10 * tall.kappa
            scale = np.max(np.abs(tall.nnls.w))
            assert np.max(np.abs(compressed.nnls.w - tall.nnls.w)) <= 1e-10 * scale


@st.composite
def rank_deficient_systems(draw):
    """At most 8 columns, some of them copies or combinations of others, and
    a rhs that is random or reachable with non-negative weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 12))
    columns = list(rng.standard_normal((draw(st.integers(1, 5)), m)))
    for copy in draw(st.lists(st.booleans(), min_size=1, max_size=8 - len(columns))):
        if copy:
            columns.append(columns[rng.integers(len(columns))].copy())
        else:
            columns.append(rng.standard_normal(len(columns)) @ np.array(columns))
    A = np.array(columns)[rng.permutation(len(columns))].T
    b = A @ rng.uniform(0, 2, A.shape[1]) if draw(st.booleans()) else rng.standard_normal(m)
    return A, b


@PROPERTY
@given(rank_deficient_systems())
def test_nnls_meets_kkt_and_the_optimum_on_rank_deficient_systems(system):
    A, b = system
    assert np.linalg.matrix_rank(A) < A.shape[1]
    result = nnls_solve(A, b)
    _, best = exhaustive_nnls(A, b)
    assert np.all(result.w >= 0)
    assert result.kkt_residual <= 1e-8
    assert abs(result.objective - best) <= 1e-12 * (np.linalg.norm(b) + 1.0)


@st.composite
def wide_systems(draw):
    """A random system with fewer rows than columns, the shape of the
    trapezoidal factor ``assemble`` returns for fewer equations than columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 10))
    A = rng.standard_normal((draw(st.integers(1, k - 1)), k))
    # weights of both signs leave some columns at zero in the optimum
    b = A @ rng.uniform(-1, 2, k) if draw(st.booleans()) else rng.standard_normal(A.shape[0])
    return A, b


@st.composite
def nnls_systems(draw):
    """A random tall or square system, or one of :func:`wide_systems` or
    :func:`rank_deficient_systems`, and the solver's start: ``from_all``
    drawn for tall and square systems, False for the others."""
    shape = draw(st.sampled_from(["tall", "square", "wide", "rank-deficient"]))
    if shape == "wide":
        return *draw(wide_systems()), False
    if shape == "rank-deficient":
        return *draw(rank_deficient_systems()), False
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 10))
    m = k if shape == "square" else draw(st.integers(k + 1, 3 * k + 4))
    A = rng.standard_normal((m, k))
    # weights of both signs leave some columns at zero in the optimum
    b = A @ rng.uniform(-1, 2, k) if draw(st.booleans()) else rng.standard_normal(m)
    return A, b, draw(st.booleans())


@PROPERTY
@given(nnls_systems())
def test_nnls_takes_the_steps_of_the_least_squares_oracle(system):
    A, b, from_all = system
    result, oracle = nnls_solve(A, b, from_all=from_all), nnls_lstsq(A, b, from_all=from_all)
    assert result.iterations == oracle.iterations
    # identical columns can tie in the entering rule to one ulp of A.T @ resid,
    # and either copy may then enter: compare the weights per group of copies
    _, group = np.unique(A.T, axis=0, return_inverse=True)

    def per_group(v):
        return np.bincount(group.ravel(), weights=v)

    assert np.array_equal(per_group(result.w > 0), per_group(oracle.w > 0))
    assert np.max(np.abs(per_group(result.w) - per_group(oracle.w))) <= 1e-9 * np.max(np.abs(oracle.w))
    tol = 1e-12 * (np.linalg.norm(b) + 1.0)
    for objective in (oracle.objective, exhaustive_nnls(A, b)[1]):
        assert abs(result.objective - objective) <= tol


@PROPERTY
@given(nnls_systems())
def test_nnls_objective_matches_scipy(system):
    optimize = pytest.importorskip("scipy.optimize")
    A, b, from_all = system
    _, objective = optimize.nnls(A, b)
    result = nnls_solve(A, b, from_all=from_all)
    assert abs(result.objective - objective) <= 1e-12 * (np.linalg.norm(b) + 1.0)


@PROPERTY
@given(wide_systems())
def test_nnls_on_wide_systems_takes_the_oracle_steps_to_the_optimum(system):
    optimize = pytest.importorskip("scipy.optimize")
    A, b = system
    result, oracle = nnls_solve(A, b), nnls_lstsq(A, b)
    assert np.array_equal(result.w > 0, oracle.w > 0)
    assert result.iterations == oracle.iterations
    assert np.max(np.abs(result.w - oracle.w)) <= 1e-9 * np.max(np.abs(oracle.w))
    tol = 1e-12 * (np.linalg.norm(b) + 1.0)
    for objective in (oracle.objective, optimize.nnls(A, b)[1], exhaustive_nnls(A, b)[1]):
        assert abs(result.objective - objective) <= tol


@st.composite
def jacobian_cases(draw):
    """A random DC or AC network and a stack of voltages.

    DC voltages are real with an imaginary zero of either sign, as Newton
    steps leave them; AC voltages have any angle within half a radian."""
    make = draw(st.sampled_from([random_dc_network, random_ac_network]))
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = make(rng, n, extra_edges=draw(st.integers(0, 4)))
    m = draw(st.integers(1, 4))
    v = rng.uniform(0.8, 1.2, (m, n)).astype(complex)
    if net.kind == DC:
        v.imag = draw(st.sampled_from([0.0, -0.0]))
    else:
        v *= np.exp(1j * rng.uniform(-0.5, 0.5, (m, n)))
    return net, v


@PROPERTY
@given(jacobian_cases())
def test_newton_jacobian_equals_the_complex_formula(case):
    # the block of nodes 2..n: node 1 is the slack
    net, v = case
    L = admittance_matrix(net)
    ns = np.arange(1, net.n)
    inj = np.conj((L @ v[..., None])[..., 0])
    dc = net.kind == DC
    got = _jacobian(v, inj, np.conj(L[1:, 1:]), dc)
    assert got.shape == (len(v),) + 2 * ((1 if dc else 2) * len(ns),)
    for row in range(len(v)):
        # equal values; only the sign of an off-diagonal zero may differ
        assert np.array_equal(got[row], newton_jacobian(L, v[row], inj[row], ns, dc))


@st.composite
def held_fits(draw):
    """The complete graph's system of a random DC or AC network's states,
    exact or noisy; a fit on the network's edges and up to three others, as
    the loop holds one; a tolerance; and a seed for subsets."""
    make = draw(st.sampled_from([random_dc_network, random_ac_network]))
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    net = make(rng, n, extra_edges=draw(st.integers(0, 3)))
    # a few states leave the complete graph's system wider than tall
    states = generate_voltage_driven(net, draw(st.integers(1, 40)), seed=seed)
    sigma = draw(st.sampled_from([0.0, 1e-6, 1e-4]))
    if sigma:
        states = add_noise(states, sigma, seed=seed)
    full = assemble(complete_edges(n), states)
    extra = draw(st.lists(st.sampled_from(complete_edges(n)), max_size=3, unique=True))
    held = fit(restrict(full, set(net.edges) | set(extra)))
    # relative to the rms of the injections, from roundoff up to all of it,
    # log-uniform (hypothesis would favour the ends of a drawn range)
    scale = np.hypot(np.linalg.norm(full.rhs), full.rho) / np.sqrt(full.rows)
    return full, held, scale * 10.0 ** rng.uniform(-9, 0), seed


@PROPERTY
@given(held_fits())
def test_no_proper_subset_of_a_minimal_network_fits(case):
    full, held, tol, seed = case
    rng = np.random.default_rng(seed + 1)
    edges = held.network.normalized().edges
    subsets = [edges[:i] + edges[i + 1 :] for i in range(len(edges))]
    for _ in range(3):  # and smaller ones
        size = int(rng.integers(1, len(edges))) if len(edges) > 1 else 0
        subsets.append([edges[i] for i in sorted(rng.choice(len(edges), size, replace=False))])
    fits = [fit(restrict(full, subset)).rms for subset in subsets if subset]
    if _minimal(held, tol):
        assert all(rms > tol for rms in fits)
    # least squares on a one-edge deletion, by lstsq: at a tolerance that
    # meets it, no network is minimal, whatever the signs of its weights
    deletions = [restrict(full, subset) for subset in subsets[: len(edges)] if subset]
    if deletions:
        floor = min(
            np.hypot(np.linalg.norm(cut.matrix @ np.linalg.lstsq(cut.matrix, cut.rhs)[0] - cut.rhs), cut.rho)
            / np.sqrt(cut.rows)
            for cut in deletions
        )
        assert not _minimal(held, (1 + 1e-6) * floor)
