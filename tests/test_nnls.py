import numpy as np
import pytest

from gridrecover.network import Network
from gridrecover.nnls import NnlsError, solve
from gridrecover.recovery import fit
from gridrecover.vandermonde import assemble
from oracles import kernel_basis, tall_fit
from test_vandermonde import K3, path3_states


def test_clamped_identity():
    res = solve(np.eye(2), np.array([1.0, -1.0]))
    assert np.array_equal(res.w, [1.0, 0.0])
    assert res.objective == pytest.approx(1.0)
    assert res.kkt_residual <= 1e-8


def test_matches_exhaustive_oracle_on_random_instances():
    from oracles import exhaustive_nnls

    rng = np.random.default_rng(0)
    for _ in range(40):
        A = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        res = solve(A, b)
        _, oracle_obj = exhaustive_nnls(A, b)
        assert res.objective <= oracle_obj + 1e-6
        assert res.objective >= oracle_obj - 1e-6
        assert np.all(res.w >= 0)
        assert res.kkt_residual <= 1e-8


def test_objective_is_global_minimum_under_perturbations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        res = solve(A, b)
        for _ in range(100):
            trial = np.clip(res.w + rng.normal(0, 0.1, 5), 0, None)
            assert np.linalg.norm(A @ trial - b) >= res.objective - 1e-9


def test_column_restriction_never_improves():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = rng.standard_normal((15, 6))
        b = rng.standard_normal(15)
        full = solve(A, b).objective
        cols = rng.choice(6, size=4, replace=False)
        sub = solve(A[:, sorted(cols)], b).objective
        assert sub >= full - 1e-10


def test_unique_solution_reached_from_warm_starts():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 5))
    b = rng.standard_normal(30)
    base = solve(A, b)
    for _ in range(10):
        res = solve(A, b, x0=rng.uniform(0, 2, 5))
        assert np.allclose(res.w, base.w, atol=1e-6)


def test_iteration_cap_raises_with_best_iterate():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((20, 8))
    b = rng.standard_normal(20)
    with pytest.raises(NnlsError) as info:
        solve(A, b, max_iter=1)
    best = info.value.result
    assert best.w.shape == (8,)
    assert np.all(best.w >= 0)
    assert best.objective <= np.linalg.norm(b) + 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        solve(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones(2), tol=0.0)
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones(2), x0=np.array([-1.0, 0.0]))


def test_parameter_estimation_round_trip():
    rng = np.random.default_rng(5)
    from helpers import random_dc_network
    from gridrecover.states import generate_voltage_driven

    net = random_dc_network(rng, 6, wrange=(0.5, 5.0))
    states = generate_voltage_driven(net, 40, seed=6)
    result = fit(assemble(net.edges, states))
    w, fit_rms = result.nnls.w, result.rms
    assert fit_rms <= 1e-10
    expected = [net.c[net.edge_index(*e)] for e in sorted(net.edges)]
    assert np.allclose(w, expected, atol=1e-6)


def test_path_topology_estimation_is_unique():
    c12, c23 = 2.0, 3.0
    net, states = path3_states(m=50, c12=c12, c23=c23)
    result = fit(assemble(net.edges, states))
    w, fit_rms = result.nnls.w, result.rms
    assert fit_rms <= 1e-10
    assert np.allclose(w, [c12, c23], atol=1e-6)


def test_complete_graph_estimation_lands_on_solution_segment():
    c12, c23 = 2.0, 3.0
    _, states = path3_states(m=50, c12=c12, c23=c23)
    system = assemble(K3, states)
    result = fit(system)
    res, rms = result.nnls, result.rms
    assert rms <= 1e-8
    # every exact fit is (c12, 0, c23) + delta * z for delta in [0, c12*c23/(c12+c23)]
    z = np.array([-1 - c12 / c23, 1.0, -1 - c23 / c12])
    delta = res.w[1]
    assert -1e-9 <= delta <= c12 * c23 / (c12 + c23) + 1e-9
    assert np.allclose(res.w, np.array([c12, 0.0, c23]) + delta * z, atol=1e-6)
    # the degeneracy is visible in the kernel and the condition sentinel
    assert kernel_basis(system.matrix).shape[1] == 1
    assert result.kappa == float("inf")


def test_zero_weight_edge_column_does_not_change_objective():
    c12, c23 = 2.0, 3.0
    net, states = path3_states(m=30, c12=c12, c23=c23)
    narrow = tall_fit(net.edges, states).nnls
    wide = tall_fit(K3, states).nnls
    assert wide.objective <= narrow.objective + 1e-10
