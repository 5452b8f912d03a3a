import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridrecover.nnls
from gridrecover.network import complete_edges
from gridrecover.nnls import FALLBACK_RTOL, KKT_TOL, NnlsError, _full_rank, _triangle, solve
from gridrecover.recovery import fit
from gridrecover.states import generate_voltage_driven
from gridrecover.vandermonde import assemble
from helpers import random_dc_network
from oracles import exhaustive_nnls, kernel_basis, nnls_lstsq, tall_fit
from test_vandermonde import K3, path3_states


def test_clamped_identity():
    res = solve(np.eye(2), np.array([1.0, -1.0]))
    assert np.array_equal(res.w, [1.0, 0.0])
    assert res.objective == pytest.approx(1.0)
    assert res.kkt_residual <= 1e-8


def test_matches_exhaustive_oracle_on_random_instances():
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


def test_iteration_cap_raises_with_best_iterate(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((20, 8))
    b = rng.standard_normal(20)
    monkeypatch.setattr(gridrecover.nnls, "ITERATIONS_PER_COLUMN", 0)
    monkeypatch.setattr(gridrecover.nnls, "MIN_ITERATIONS", 1)
    with pytest.raises(NnlsError, match="within 1 least-squares solves") as info:
        solve(A, b)
    best = info.value.result
    assert best.w.shape == (8,)
    assert np.all(best.w >= 0)
    assert best.objective <= np.linalg.norm(b) + 1e-12


def test_nearly_collinear_columns_keep_the_factor_orthogonal():
    # columns within 1e-5 of one another: one Gram-Schmidt pass would leave
    # Q far from orthogonal, and w off the oracle's by about 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = 1.0 + 1e-5 * rng.standard_normal((12, 6))
        b = A @ rng.uniform(0.5, 2.0, 6)
        res, oracle = solve(A, b), nnls_lstsq(A, b)
        assert res.iterations == oracle.iterations
        assert np.max(np.abs(res.w - oracle.w)) <= 1e-9 * np.max(np.abs(oracle.w))


def test_nearly_dependent_column_falls_back_to_least_squares(monkeypatch):
    # a3 lies 1e-11 off the plane of a1 and a2, and b leans 1e4 out of that
    # plane along u: once a1 and a2 are passive, a3's gradient is -1e-7, so
    # it enters, with a diagonal entry of R below FALLBACK_RTOL times the
    # column norms; the factor refuses it, so the block phase takes over
    # from the minimum-norm solve on all three, which gives a1 and a2
    # negative weights, moves both out and a2 back in, and solves those
    # full-rank sets by Householder QR
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    plane, u = basis[:, :2], basis[:, 2]
    a1, a2 = rng.standard_normal((2, 6)) @ (plane @ plane.T)
    A = np.column_stack((a1, a2, (a1 + a2) / 2 + 1e-11 * u))
    b = a1 + 2 * a2 + 1e4 * u
    gathered = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(a, *args, **kwargs):
        gathered.append(a.shape)
        return lstsq(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    res = solve(A, b)
    assert gathered == [(6, 3)]  # one minimum-norm solve, on all three columns
    monkeypatch.undo()
    assert res.kkt_residual <= 1e-8
    _, best = exhaustive_nnls(A, b)
    assert abs(res.objective - best) <= 1e-12 * np.linalg.norm(b)
    oracle = nnls_lstsq(A, b)
    assert res.iterations == oracle.iterations
    assert np.allclose(res.w, oracle.w, rtol=0, atol=1e-9)


def test_the_factor_refuses_a_column_it_cannot_take():
    # column 2 lies 1e-11 off the plane of columns 0 and 1, and column 5 would
    # be a fifth passive column on four rows: append returns False for each
    # and leaves the factored columns and their solve as they were
    rng = np.random.default_rng(3)
    P = rng.standard_normal((4, 2))
    u = rng.standard_normal(4)
    u -= P @ np.linalg.lstsq(P, u, rcond=None)[0]
    A = np.column_stack((P, P @ [1.0, 2.0] + 1e-11 * u / np.linalg.norm(u), rng.standard_normal((4, 3))))
    b = rng.standard_normal(4)
    for factored, refused in (([0, 1], 2), ([0, 1, 3, 4], 5)):
        factor = gridrecover.nnls._PassiveQR(A, b)
        assert [factor.append(j) for j in factored] == [True] * len(factored)
        before = factor.least_squares()
        assert factor.append(refused) is False
        assert factor.cols == factored
        assert factor.least_squares().tobytes() == before.tobytes()


def _scaled_square(seed):
    """A 3x3 system whose columns are scaled over six decades."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3, 3)
    return A, rng.standard_normal(3)


def test_block_phase_moves_one_index_when_full_exchanges_cycle(monkeypatch):
    # from the passive set Lawson-Hanson hands over, full exchanges visit
    # {2}, {1}, {0, 1, 2} and {2} again: three in a row that do not lower the
    # infeasible count, after which the lowest infeasible index moves alone
    A, b = _scaled_square(1723)
    res = solve(A, b)
    _, best = exhaustive_nnls(A, b)
    assert abs(res.objective - best) <= 1e-12 * np.linalg.norm(b)
    assert res.kkt_residual <= KKT_TOL
    assert res.iterations == nnls_lstsq(A, b).iterations == 8
    # with full exchanges alone the block phase cycles until the cap
    monkeypatch.setattr(gridrecover.nnls, "FULL_EXCHANGES_WITHOUT_PROGRESS", 10**9)
    with pytest.raises(NnlsError, match="within 100 least-squares solves"):
        solve(A, b)


def test_iteration_cap_in_the_block_phase_raises_with_the_best_feasible_iterate(monkeypatch):
    # Lawson-Hanson's second solve hands over to the block phase, whose
    # first solve is feasible (no negative weight) but not optimal
    A, b = _scaled_square(70)
    assert solve(A, b).iterations == 4
    block_solves = []
    solve_passive = gridrecover.nnls._passive_least_squares

    def counting(A, b, passive):
        block_solves.append(passive.copy())
        return solve_passive(A, b, passive)

    monkeypatch.setattr(gridrecover.nnls, "_passive_least_squares", counting)
    monkeypatch.setattr(gridrecover.nnls, "ITERATIONS_PER_COLUMN", 0)
    best = []
    for cap in (2, 3):
        block_solves.clear()
        monkeypatch.setattr(gridrecover.nnls, "MIN_ITERATIONS", cap)
        with pytest.raises(NnlsError, match=f"within {cap} least-squares solves") as info:
            solve(A, b)
        result = info.value.result
        assert result.iterations == cap + 1
        assert len(block_solves) == cap - 1  # the solve past the cap is the block phase's
        assert np.all(result.w >= 0)
        assert result.objective == pytest.approx(np.linalg.norm(A @ result.w - b), rel=1e-12)
        best.append(result)
    # at cap 2 the last Lawson-Hanson iterate, at cap 3 the block phase's better one
    assert np.count_nonzero(best[0].w) == 1 and best[1].objective < best[0].objective


def _near_dependent_system(seed):
    """6x3 or 6x4: the last column 1e-11 off the span of the others, and b
    leaning 1e3 to 1e5 out of that span."""
    rng = np.random.default_rng(seed)
    k = 3 + seed % 2
    P = rng.standard_normal((6, k - 1))
    c = rng.standard_normal(k - 1)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    A = np.column_stack((P, P @ c + 1e-11 * u))
    b = P @ rng.standard_normal(k - 1) + 10.0 ** rng.uniform(3, 5) * u
    return A, b


def test_a_result_above_the_kkt_bound_is_raised():
    # the minimum-norm fallback takes such a passive set as full rank and fits
    # the out-of-span part of b with weights near 1e15, leaving gradients far
    # above KKT_TOL: that result comes with NnlsError, never as a return
    raised = 0
    for seed in range(40):
        A, b = _near_dependent_system(seed)
        try:
            res = solve(A, b)
        except NnlsError as exc:
            raised += 1
            assert str(exc).startswith("KKT residual")
            assert exc.result.kkt_residual > KKT_TOL
            assert np.all(exc.result.w >= 0)
        else:
            assert res.kkt_residual <= KKT_TOL
    assert raised > 0


def test_input_validation():
    for from_all in (False, True):
        for A, b in ((np.eye(3), np.ones(2)), (np.ones(3), np.ones(3)), (np.eye(3), np.ones((3, 1)))):
            with pytest.raises(ValueError):
                solve(A, b, from_all=from_all)
    with pytest.raises(TypeError):
        solve(np.eye(3), np.ones(3), True)  # from_all is keyword-only


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def triangles(draw):
    """The square upper triangle of a random tall system, and a generator
    for its solution."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 10))
    R = np.linalg.qr(rng.standard_normal((draw(st.integers(k + 1, 3 * k + 4)), k)), mode="r")
    return R, rng


def _outcome(A, b, **kwargs):
    """The solver's result, or the one its NnlsError carries."""
    try:
        return solve(A, b, **kwargs)
    except NnlsError as exc:
        return exc.result


@PROPERTY
@given(triangles())
def test_back_substitution_is_the_optimum_of_a_positive_solution(case):
    R, rng = case
    b = R @ rng.uniform(0.5, 2.0, R.shape[1])
    result = solve(R, b, from_all=True)
    assert result.iterations == 1
    assert np.all(result.w > 0) and result.kkt_residual <= KKT_TOL
    # the warm start's one solve is a back-substitution on R itself: a
    # Householder QR of [R | b] would return it bit for bit, so none is run
    Rb = np.column_stack((R, b))
    assert np.linalg.qr(Rb, mode="r").tobytes() == Rb.tobytes()
    # the one triangle of the solver and the recovery loop: on every column
    # it is R itself, and on a column subset it is numpy's mode "r" QR of
    # [A_cols | b], bytes and corner included
    for cols in (np.ones(R.shape[1], dtype=bool), rng.random(R.shape[1]) < 0.5):
        p = int(np.count_nonzero(cols))
        T = np.linalg.qr(np.column_stack((R[:, cols], b)), mode="r")
        triangle, qtb, corner = _triangle(R, b, cols)
        assert triangle.tobytes() == T[:p, :p].tobytes() and qtb.tobytes() == T[:p, p].tobytes()
        assert corner == (abs(T[p, p]) if T.shape[0] > p else 0.0)
    w = np.linalg.solve(R, b)
    assert result.w.tobytes() == w.tobytes()
    assert result.objective == float(np.linalg.norm(b - R @ w))
    reference, *_ = np.linalg.lstsq(R, b, rcond=None)
    assert np.max(np.abs(result.w - reference)) <= 1e-12 * np.max(np.abs(reference))
    # both objectives are roundoff; the cold start's is no smaller
    assert result.objective <= solve(R, b).objective + 1e-15 * np.linalg.norm(b)


@PROPERTY
@given(triangles())
def test_back_substitution_declines_a_mixed_sign_solution(case):
    # the back-substitution has a negative weight, so block pivoting goes on
    # from it to the optimum
    R, rng = case
    w = rng.uniform(0.5, 2.0, R.shape[1])
    w[rng.integers(R.shape[1])] = -rng.uniform(0.5, 2.0)
    b = R @ w
    result = solve(R, b, from_all=True)
    assert result.iterations > 1 and np.all(result.w >= 0)
    assert result.kkt_residual <= KKT_TOL
    _, best = exhaustive_nnls(R, b)
    assert abs(result.objective - best) <= 1e-12 * (np.linalg.norm(b) + 1.0)


@PROPERTY
@given(triangles(), st.sampled_from([1.0, 0.5, 0.0]))
def test_back_substitution_declines_a_rank_deficient_triangle(case, fraction):
    R, rng = case
    j = rng.integers(R.shape[1])
    R[j, j] = 0.0
    scale = float(np.max(np.linalg.norm(R, axis=0)))
    R[j, j] = fraction * FALLBACK_RTOL * scale
    # a positive solution, so the rank test alone sends it to the cold start
    b = R @ rng.uniform(0.5, 2.0, R.shape[1])
    warm, cold = _outcome(R, b, from_all=True), _outcome(R, b)
    assert warm.w.tobytes() == cold.w.tobytes()
    assert (warm.objective, warm.kkt_residual, warm.iterations) == (
        cold.objective,
        cold.kkt_residual,
        cold.iterations,
    )


@pytest.mark.parametrize("scale, full", [(1.0, False), (1e-2, True)])
def test_rank_test_of_a_complex_triangle_is_its_real_forms(scale, full):
    # column 2's entries i and 1 square to a sum of 0 but have moduli
    # squared summing to 2: at scale 1 the diagonal 1e-11 is below
    # FALLBACK_RTOL times that column's norm, at scale 1e-2 above it
    R = np.array([[1e-11, 1j * scale], [0.0, scale]])
    real = np.zeros((4, 4))
    real[0::2, 0::2] = real[1::2, 1::2] = R.real
    real[1::2, 0::2], real[0::2, 1::2] = R.imag, -R.imag
    assert _full_rank(R) == _full_rank(real) == full


def test_parameter_estimation_round_trip():
    rng = np.random.default_rng(5)
    from helpers import random_dc_network
    from gridrecover.states import generate_voltage_driven

    net = random_dc_network(rng, 6, wrange=(0.5, 5.0))
    states = generate_voltage_driven(net, 40, seed=6)
    result = fit(assemble(net.edges, states))
    w, fit_rms = result.nnls.w, result.rms
    assert fit_rms <= 1e-10
    expected = [net.c[net.edges.index(e)] for e in sorted(net.edges)]
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


def test_exhaustive_oracle_does_not_fit_roundoff_on_a_rank_one_system():
    # 2x7, every column a copy or a weighted sum of the first: rank one, but
    # some column pairs are independent through roundoff alone, and least
    # squares on such a pair fits b with weights near 1e14
    rng = np.random.default_rng(381)
    columns = [rng.standard_normal(2)]
    for copy in rng.random(6) < 0.5:
        if copy:
            columns.append(columns[rng.integers(len(columns))].copy())
        else:
            columns.append(rng.standard_normal(len(columns)) @ np.array(columns))
    A = np.array(columns).T
    b = rng.standard_normal(2)
    assert np.linalg.matrix_rank(A) == 1
    w, best = exhaustive_nnls(A, b)
    # the cone of the columns is the ray of the first when none points
    # against it, else the whole line through it
    u = A[:, 0] / np.linalg.norm(A[:, 0])
    along = u @ A
    t = u @ b if np.any(along < 0) else max(u @ b, 0.0)
    assert best == pytest.approx(np.linalg.norm(b - t * u), rel=1e-12)
    assert np.linalg.norm(A @ w - b) == pytest.approx(best, rel=1e-12)
    assert np.max(w) < 1e3
    assert abs(solve(A, b).objective - best) <= 1e-12 * (np.linalg.norm(b) + 1.0)


def test_warm_start_on_a_triangle_runs_no_qr(monkeypatch):
    rng = np.random.default_rng(8)
    R = np.linalg.qr(rng.standard_normal((30, 12)), mode="r")
    b = R @ rng.uniform(0.5, 2.0, 12)
    qr, calls = np.linalg.qr, []

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    assert solve(R, b, from_all=True).iterations == 1
    assert calls == []
    solve(R[:, ::-1], b, from_all=True)  # square, not triangular: factored
    assert calls == [(12, 13)]


def _peak(call, *args):
    """The tracemalloc peak of ``call(*args)`` and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_cold_complete_graph_fit_peaks_below_its_assembly():
    # the dc30 benchmark shape: a 435 x 435 complete-graph factor whose cold
    # fit ends with the 44 true edges passive.  The solver's factor is sized
    # for every column, and the fit with its condition number still peaks
    # below the assembly's stack of node factors, so the assembly sets the
    # peak of a recovery run
    net = random_dc_network(np.random.default_rng(30), 30, extra_edges=15, wrange=(0.5, 100.0))
    states = generate_voltage_driven(net, 200, seed=31)
    fit(assemble(complete_edges(3), generate_voltage_driven(net, 2, seed=0)))  # first-call set-up, untraced
    assembly_peak, full = _peak(assemble, complete_edges(30), states)
    fit_peak, held = _peak(fit, full)
    assert int(np.count_nonzero(held.nnls.w)) == len(net.edges)
    assert fit_peak < assembly_peak
