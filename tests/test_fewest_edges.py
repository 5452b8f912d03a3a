"""The recovery loop against the fewest-edge oracle (``oracles.fewest_edges``).

The paper asks for few edges within the tolerance; the oracle finds the
fewest by trying every subset of the complete graph in order of size.  On
the small builtins the loop reaches that count, and on any data no network
the loop returns can have fewer edges than the oracle's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import SeedSequence

from gridrecover.builtins import builtin_network, builtin_scenario
from gridrecover.network import complete_edges
from gridrecover.recovery import RecoveryConfig, fit, recover
from gridrecover.states import add_noise, generate_scenario, generate_voltage_driven, rms
from gridrecover.vandermonde import assemble
from helpers import flat_states, random_dc_network
from oracles import fewest_edges


def _declared_run(name, sigma, seed):
    """The states of one run of ``tests/declared_set.py``: 120 of them,
    drawn as ``gridrecover generate --builtin NAME --seed SEED`` draws them,
    with the true network and the complete graph's system."""
    net_seed, data_seed = SeedSequence(seed).spawn(2)
    net = builtin_network(name, net_seed)
    states = generate_scenario(net, builtin_scenario(name, sigma=sigma), 120, seed=data_seed)
    return net, states, assemble(complete_edges(net.n), states)


@pytest.mark.parametrize("seed", range(20))
def test_the_declared_path3_dc_runs_need_only_the_series_collapse(seed):
    # node 2 injects nothing, so its two edges collapse into one from 1 to 3;
    # the declared tolerances: 1e-5 on exact data, 1.0 and 1.5 times the true
    # network's rms on noisy data
    for sigma in (0.0, 1e-6, 1e-5):
        net, states, full = _declared_run("path3_dc", sigma, seed)
        tols = [1e-5] if sigma == 0.0 else [f * rms(net, states) for f in (1.0, 1.5)]
        for tol in tols:
            assert fewest_edges(full, tol) == ((1, 3),)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_path3_dc_recovers_the_fewest_edges(seed):
    _, states, full = _declared_run("path3_dc", 0.0, seed)
    net, _ = recover(states, RecoveryConfig(seed=seed, tol=1e-5))
    assert len(net.edges) == len(fewest_edges(full, 1e-5)) == 1


def test_exact_table1_dc_needs_its_six_edges():
    truth, states, full = _declared_run("table1_dc", 0.0, 0)
    assert fewest_edges(full, 1e-5) == truth.edges
    assert len(truth.edges) == 6


def test_data_with_no_flow_need_no_edge():
    states = flat_states()
    assert fewest_edges(assemble(complete_edges(states.n), states), 1e-5) == ()


@st.composite
def small_dc_runs(draw):
    """A random DC network on 3 to 5 nodes, voltage-driven states of it,
    exact or noisy, and a tolerance, log-uniform from the rms of the
    injections, which the empty edge set meets, down to the complete
    graph's fit rms, which no subset beats, so that the oracle has a count
    to compare, and past that for one run in five, where it has none."""
    n = draw(st.integers(3, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    net = random_dc_network(rng, n, extra_edges=draw(st.integers(0, 3)))
    states = generate_voltage_driven(net, draw(st.integers(1, 30)), seed=seed)
    sigma = draw(st.sampled_from([0.0, 1e-6, 1e-4]))
    if sigma:
        states = add_noise(states, sigma, seed=seed)
    full = assemble(complete_edges(n), states)
    top = np.hypot(np.linalg.norm(full.rhs), full.rho) / np.sqrt(full.rows)
    floor = max(fit(full).rms, 1e-15 * top)  # an exact fit's rms can round to 0
    return states, full, top * (floor / top) ** rng.uniform(0.0, 1.25), seed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_dc_runs())
def test_recover_never_returns_fewer_edges_than_the_oracle(run):
    states, full, tol, seed = run
    fewest = fewest_edges(full, tol)
    net, _ = recover(states, RecoveryConfig(seed=seed, tol=tol, max_stale_iterations=10))
    if fewest is None:  # not even the complete graph fits: no count to compare
        assert rms(net, states) > tol
    else:
        assert len(net.edges) >= len(fewest)
