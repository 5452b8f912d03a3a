"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Statistical criteria use fixed seeds throughout.
"""

import numpy as np
import pytest

from gridrecover.bounds import ac_bound, dc_bound, dc_bound_coarse
from gridrecover.builtins import builtin_scenario, heawood_dc, small_ac, table1_dc
from gridrecover.network import Network, complete_edges, series_equivalent, split_graphs
from gridrecover.nnls import solve as nnls_solve
from gridrecover.recovery import RecoveryConfig, fit, recover
from gridrecover.sparsify import effective_resistances, is_epsilon_approximation, sparsify_ac
from gridrecover.states import Scenario, generate_scenario, generate_voltage_driven, rms
from gridrecover.vandermonde import assemble
from helpers import random_ac_network, random_connected_graph, random_dc_network, random_graph
from oracles import exhaustive_nnls, triangle_bridge_leverages


def check(num, desc, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_series_equivalence_reproduction():
    got = series_equivalent(16.7913 - 2.6154j, 1.1999 - 3.8157j)
    err = max(abs(got.real - 1.6852), abs(got.imag - (-3.1333)))
    check(1, "series equivalent of the two reported admittances", err < 5e-4,
          f"got {got:.5f}, err {err:.2e}")


def test_criterion_02_bridge_and_triangle_leverages():
    net = table1_dc()
    stats = effective_resistances(split_graphs(net)[0])
    oracle = triangle_bridge_leverages(
        {e: c for e, c in zip(net.edges, net.c)}
    )
    worst = 0.0
    for edge in net.edges:
        _, lev, _ = stats.for_edge(*edge)
        worst = max(worst, abs(lev - oracle[edge]))
    bridges_ok = all(
        abs(stats.for_edge(*e)[1] - 1.0) <= 1e-9 for e in ((3, 4), (4, 5), (4, 6))
    )
    check(2, "bridge leverages 1.0 and triangle leverages vs series-parallel oracle",
          bridges_ok and worst <= 1e-9, f"max |diff| {worst:.2e}")


def test_criterion_03_leverage_sum_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    tested = 0
    while tested < 50:
        n = int(rng.integers(3, 21))
        g = random_graph(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)), wrange=(0.1, 50.0))
        if not np.any(g.c > 0):
            continue
        tested += 1
        from gridrecover.network import connectivity

        stats = effective_resistances(g)
        comps = int(connectivity(g).max()) + 1
        worst = max(worst, abs(float(stats.leverage.sum()) - (n - comps)))
    check(3, "leverage sum equals n - components on 50 random graphs",
          worst <= 1e-9, f"max |diff| {worst:.2e}")


def test_criterion_04_nnls_against_exhaustive_oracle():
    rng = np.random.default_rng(7)
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(100):
        m = int(rng.integers(4, 13))
        k = int(rng.integers(2, 7))
        A = rng.standard_normal((m, k))
        b = rng.standard_normal(m)
        res = nnls_solve(A, b)
        _, oracle_obj = exhaustive_nnls(A, b)
        worst_obj = max(worst_obj, abs(res.objective - oracle_obj))
        worst_kkt = max(worst_kkt, res.kkt_residual)
    check(4, "NNLS objective matches brute-force active sets on 100 instances",
          worst_obj <= 1e-6 and worst_kkt <= 1e-8,
          f"max |obj diff| {worst_obj:.2e}, max KKT {worst_kkt:.2e}")


def test_criterion_05_silent_node_degeneracy():
    c12, c23 = 2.0, 3.0
    net = Network.dc(3, ((1, 2), (2, 3)), [c12, c23])
    scen = Scenario(3, zero=(2,), p_range=(-0.1, -0.01))
    states = generate_scenario(net, scen, 50, seed=17)

    path_fit = fit(assemble(net.edges, states))
    w_path, rms_path = path_fit.nnls.w, path_fit.rms
    part_a = rms_path <= 1e-8 and np.allclose(w_path, [c12, c23], atol=1e-6)

    k3_fit = fit(assemble(complete_edges(3), states))
    res, k3_rms = k3_fit.nnls, k3_fit.rms
    z = np.array([-1 - c12 / c23, 1.0, -1 - c23 / c12])
    delta = res.w[1]
    on_segment = (
        -1e-9 <= delta <= c12 * c23 / (c12 + c23) + 1e-9
        and np.allclose(res.w, np.array([c12, 0.0, c23]) + delta * z, atol=1e-6)
    )
    part_b = k3_rms <= 1e-8 and on_segment
    part_c = k3_fit.kappa == float("inf")  # sigma_min / sigma_max of R, not A^T A
    check(5, "silent-middle-node fit: unique on path, segment + sentinel on K3",
          part_a and part_b and part_c,
          f"path rms {rms_path:.1e}, K3 rms {k3_rms:.1e}, delta {delta:.4f}")


def test_criterion_06_sparsifier_success_rates():
    g = split_graphs(table1_dc())[0]
    dc_hits = sum(
        is_epsilon_approximation(g, sparsify_ac(g, 1.0, seed).graph, 1.0)
        for seed in range(400)
    )
    net = small_ac(seed=2)
    ac_hits = sum(
        is_epsilon_approximation(net, sparsify_ac(net, 1.0, seed).graph, 1.0)
        for seed in range(400)
    )
    check(6, "eps=1 sparsifications verified at >=45% DC / >=20% AC of 400 runs",
          dc_hits >= 0.45 * 400 and ac_hits >= 0.20 * 400,
          f"DC {dc_hits}/400, AC {ac_hits}/400")


def test_criterion_07_rms_growth_certificates():
    rng = np.random.default_rng(99)
    dc_checked = ac_checked = 0
    violations = 0
    coarse_below_fine = 0
    while dc_checked < 60:
        net = random_dc_network(rng, int(rng.integers(5, 10)))
        g = split_graphs(net)[0]
        eps = float(rng.choice([0.3, 0.5, 1.0]))
        out = sparsify_ac(g, eps, seed=int(rng.integers(1 << 30)))
        if not is_epsilon_approximation(g, out.graph, eps):
            continue
        dc_checked += 1
        states = generate_voltage_driven(net, 25, seed=int(rng.integers(1 << 30)))
        fine = dc_bound(net, states, eps)
        sparse = Network.dc(net.n, out.graph.edges, out.graph.c)
        if rms(sparse, states) > fine.bound_total + 1e-9:
            violations += 1
        coarse = dc_bound_coarse(net, states, eps, 0.9, 1.1)
        if coarse.bound_term < fine.bound_term - 1e-12:
            coarse_below_fine += 1
    while ac_checked < 40:
        net = random_ac_network(rng, int(rng.integers(4, 8)))
        eps = float(rng.choice([0.5, 1.0]))
        out = sparsify_ac(net, eps, seed=int(rng.integers(1 << 30)))
        if not is_epsilon_approximation(net, out.graph, eps):
            continue
        ac_checked += 1
        states = generate_voltage_driven(net, 25, seed=int(rng.integers(1 << 30)))
        report = ac_bound(net, states, eps)
        if rms(out.graph, states) > report.bound_total + 1e-9:
            violations += 1
    check(7, "certified rms bounds hold on 100 verified sparsifications",
          violations == 0 and coarse_below_fine == 0,
          f"violations {violations}, coarse<fine {coarse_below_fine}")


def test_criterion_08_six_node_recovery(table1_network, table1_states):
    net = table1_network
    exact_hits = 0
    for seed in range(10):
        rec, _ = recover(table1_states, cfg=RecoveryConfig(eps0=0.1, psi=1.5, tol=1e-5, seed=seed))
        if set(rec.edges) != set(net.edges):
            continue
        err = max(
            abs(rec.c[rec.edge_index(*e)] - net.c[net.edge_index(*e)]) for e in net.edges
        )
        if err <= 1e-3:
            exact_hits += 1
    bridge_kept = 0
    for seed in range(10):
        rec, _ = recover(table1_states, cfg=RecoveryConfig(eps0=0.1, psi=1.5, tol=1e-3, seed=seed))
        if (3, 4) in rec.edges and rms(rec, table1_states) <= 1e-3:
            bridge_kept += 1
    check(8, "6-node recovery: exact net >=7/10 at tol 1e-5; bridge kept 10/10 at 1e-3",
          exact_hits >= 7 and bridge_kept == 10,
          f"exact {exact_hits}/10, bridge kept {bridge_kept}/10")


def test_criterion_09_heawood_scale_recovery():
    exact = 0
    kappa_drops = 0
    for run in range(10):
        net = heawood_dc(seed=run)
        states = generate_scenario(net, builtin_scenario("heawood_dc"), 300, seed=run + 100)
        rec, trace = recover(states, cfg=RecoveryConfig(eps0=0.1, psi=1.5, tol=1e-5, seed=run))
        if set(rec.edges) == set(net.edges):
            exact += 1
        changed = trace.filtered()
        if changed[-1].kappa < changed[0].kappa:
            kappa_drops += 1
    check(9, "Heawood recovery: exact 21-edge topology >=6/10, kappa drops 10/10",
          exact >= 6 and kappa_drops == 10, f"exact {exact}/10, kappa drops {kappa_drops}/10")


def test_criterion_10_ac_recovery_with_series_collapse():
    good = 0
    collapses_checked = 0
    collapse_ok = True
    for run in range(10):
        net = small_ac(seed=run)
        states = generate_scenario(net, builtin_scenario("small_ac"), 300, seed=run + 50)
        rec, _ = recover(states, cfg=RecoveryConfig(eps0=0.1, psi=1.5, tol=1e-5, seed=run))
        if rms(rec, states) > 1e-5:
            continue
        true_w = {e: complex(c, -s) for e, c, s in zip(net.edges, net.c, net.s)}
        surviving = [e for e in rec.edges if e in true_w]
        err = max(
            (abs(complex(rec.c[rec.edge_index(*e)], -rec.s[rec.edge_index(*e)]) - true_w[e])
             for e in surviving),
            default=0.0,
        )
        if err <= 1e-3:
            good += 1
        # the degree-2 silent node may be replaced by its series equivalent
        collapsed_topology = (set(net.edges) - {(2, 3), (3, 4)}) | {(2, 4)}
        if set(rec.edges) == collapsed_topology:
            collapses_checked += 1
            got = complex(rec.c[rec.edge_index(2, 4)], -rec.s[rec.edge_index(2, 4)])
            want = series_equivalent(true_w[(2, 3)], true_w[(3, 4)])
            if abs(got - want) > 1e-3:
                collapse_ok = False
    check(10, "AC recovery: rms<=tol with accurate surviving edges >=6/10;"
              " series collapses match the equivalent admittance",
          good >= 6 and collapse_ok,
          f"good {good}/10, collapses checked {collapses_checked}")
