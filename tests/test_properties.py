"""Property tests of the column layout on random networks and edge subsets.

A subset system cut from the complete-graph system must be the system
assembled for the subset and fit the same, both bit for bit; a parameter
vector must survive the trip through the layout and back.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gridrecover.network import complete_edges
from gridrecover.recovery import fit
from gridrecover.states import generate_voltage_driven
from gridrecover.vandermonde import assemble, network_from_columns, parameter_vector, restrict
from helpers import random_ac_network, random_dc_network

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    """A random DC or AC network, exact states of it, and an edge subset S."""
    make = draw(st.sampled_from([random_dc_network, random_ac_network]))
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    net = make(np.random.default_rng(seed), n, extra_edges=draw(st.integers(0, 4)))
    states = generate_voltage_driven(net, draw(st.integers(1, 8)), seed=seed)
    subset = draw(st.lists(st.sampled_from(complete_edges(n)), min_size=1, unique=True))
    return net, states, subset


@PROPERTY
@given(cases())
def test_restriction_equals_reassembly(case):
    net, states, subset = case
    restricted = restrict(assemble(complete_edges(net.n), states), subset)
    direct = assemble(subset, states)
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
def test_fit_on_restriction_equals_fit_on_reassembly(case):
    net, states, subset = case
    cut = fit(restrict(assemble(complete_edges(net.n), states), subset))
    built = fit(assemble(subset, states))
    assert cut.network.edges == built.network.edges
    assert (cut.rms, cut.kappa) == (built.rms, built.kappa)
    assert cut.nnls.w.tobytes() == built.nnls.w.tobytes()
