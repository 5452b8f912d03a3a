"""Property tests of the column layout, of the compressed fit on random
networks and edge subsets, and of the NNLS solver on rank-deficient systems.

The equations of a subset cut from the complete graph's must be the subset's
own, bit for bit; a parameter vector must survive the trip through the
layout and back; a fit on the triangular factor, restricted or re-assembled,
must agree with the fit on the tall equations to roundoff; NNLS must meet
its KKT bound and the global optimum where columns repeat or depend on each
other; and its factored solves must take the same active-set steps as
solving every step afresh by least squares.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridrecover.network import complete_edges
from gridrecover.nnls import solve as nnls_solve
from gridrecover.recovery import fit
from gridrecover.states import generate_voltage_driven
from gridrecover.vandermonde import assemble, network_from_columns, parameter_vector, restrict
from helpers import random_ac_network, random_dc_network
from oracles import exhaustive_nnls, nnls_lstsq, tall_fit, tall_system

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
    restricted = restrict(tall_system(complete_edges(net.n), states), subset)
    direct = tall_system(subset, states)
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
    for e in system.edges:
        assert rebuilt.weight(*e) == net.weight(*e)  # 0 for edges absent from net


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
    :func:`rank_deficient_systems`."""
    shape = draw(st.sampled_from(["tall", "square", "wide", "rank-deficient"]))
    if shape == "wide":
        return draw(wide_systems())
    if shape == "rank-deficient":
        return draw(rank_deficient_systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 10))
    m = k if shape == "square" else draw(st.integers(k + 1, 3 * k + 4))
    A = rng.standard_normal((m, k))
    # weights of both signs leave some columns at zero in the optimum
    b = A @ rng.uniform(-1, 2, k) if draw(st.booleans()) else rng.standard_normal(m)
    return A, b


@PROPERTY
@given(nnls_systems())
def test_nnls_takes_the_steps_of_the_least_squares_oracle(system):
    A, b = system
    result, oracle = nnls_solve(A, b), nnls_lstsq(A, b)
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
    A, b = system
    _, objective = optimize.nnls(A, b)
    assert abs(nnls_solve(A, b).objective - objective) <= 1e-12 * (np.linalg.norm(b) + 1.0)


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
