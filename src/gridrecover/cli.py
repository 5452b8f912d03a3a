"""Command-line surface: generate, estimate, sparsify, bound, recover, report.

Exit codes: 0 success, 1 solver or runtime failure, 2 bad input files or
arguments.  Set GRIDRECOVER_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .bounds import ac_bound, dc_bound, dc_bound_coarse
from .builtins import BUILTIN_NAMES, builtin_network, builtin_scenario
from .network import AC, split_graphs
from .nnls import NnlsError
from .recovery import RecoveryConfig, RecoveryError, fit, recover
from .sparsify import effective_resistances, sparsify_ac
from .states import (
    VOLTAGE_RANGE,
    PowerFlowError,
    _check_compatible,
    add_noise,
    generate_scenario,
    generate_voltage_driven,
    rms,
)
from .vandermonde import assemble

log = logging.getLogger("gridrecover.cli")


def _configure_logging() -> None:
    level = os.environ.get("GRIDRECOVER_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    out = _out_dir(args)
    if args.builtin:
        net_seed, data_seed = np.random.SeedSequence(args.seed).spawn(2)
        net = builtin_network(args.builtin, net_seed)
        scen = builtin_scenario(args.builtin, sigma=args.noise)
        states = generate_scenario(net, scen, args.m, seed=data_seed)
        provenance = {
            "builtin": args.builtin,
            "slack": scen.slack,
            "zero": list(scen.zero),
            "p_range": list(scen.p_range),
            "q_range": list(scen.q_range),
        }
    elif args.network:
        net = io.load_network(args.network)
        states = generate_voltage_driven(net, args.m, seed=args.seed)
        if args.noise:
            states = add_noise(states, args.noise, seed=args.seed + 1)
        provenance = {"network": str(args.network), "sampling": "voltage_driven"}
    else:
        print("generate: need --builtin or --network", file=sys.stderr)
        return 2
    provenance.update({"m": args.m, "seed": args.seed, "noise": args.noise})
    io.save_network(net, out / "network.json")
    io.save_states_csv(states, out / "states.csv")
    (out / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")
    print(f"wrote {out / 'network.json'}, {out / 'states.csv'} ({states.m} states)")
    return 0


def cmd_estimate(args) -> int:
    net = io.load_network(args.network)
    states = io.load_states_csv(args.states)
    _check_compatible(net, states)
    result = fit(assemble(net.edges, states), tol=args.tol)
    payload = {
        "network": io.network_to_dict(result.network),
        "rms": result.rms,
        "kappa": result.kappa,
        "kkt_residual": result.nnls.kkt_residual,
        "iterations": result.nnls.iterations,
    }
    out = _out_dir(args)
    (out / "estimate.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"rms {result.rms:.3e}  kappa {result.kappa:.3e}  -> {out / 'estimate.json'}")
    return 0


def cmd_sparsify(args) -> int:
    net = io.load_network(args.network)
    outcome = sparsify_ac(net, args.eps, args.seed)
    out = _out_dir(args)
    io.save_network(outcome.graph, out / "sparsified.json")
    cg, sg = split_graphs(net)
    stats = {"conductance": effective_resistances(cg)}
    if net.kind == AC and np.any(sg.c > 0):
        stats["susceptance"] = effective_resistances(sg)
    io.save_edge_statistics_csv(stats, out / "edge_stats.csv")
    print(
        f"kept {len(outcome.edges)} of {len(net.edges)} edges (t={outcome.t})"
        f" -> {out / 'sparsified.json'}"
    )
    return 0


def cmd_bound(args) -> int:
    net = io.load_network(args.network)
    states = io.load_states_csv(args.states)
    if args.variant == "fine":
        report = dc_bound(net, states, args.eps)
    elif args.variant == "coarse":
        report = dc_bound_coarse(net, states, args.eps, args.vmin, args.vmax)
    else:
        report = ac_bound(net, states, args.eps)
    out = _out_dir(args)
    (out / "bound.json").write_text(json.dumps(io.bound_report_to_dict(report), indent=2) + "\n")
    print(
        f"rms {report.rms_base:.3e} + eps*{report.bound_term:.3e}"
        f" = {report.bound_total:.3e} ({report.variant})"
    )
    return 0


def _recovery_config(args) -> RecoveryConfig:
    return RecoveryConfig(
        eps0=args.eps,
        psi=args.psi,
        tol=args.tol,
        seed=args.seed,
        max_iterations=args.max_iterations,
        max_wall_time=args.max_time,
        max_stale_iterations=args.max_stale,
        stop_on_tree=args.stop_on_tree,
    )


def _run_trial(payload) -> dict:
    """One seeded recovery; module-level so worker processes can import it."""
    states_path, cfg = payload
    states = io.load_states_csv(states_path)
    net, trace = recover(states, cfg=cfg)
    final_rms = rms(net, states)
    return {
        "seed": cfg.seed,
        "edges": len(net.edges),
        "rms": float(final_rms),
        "iterations": len(trace),
        "success": bool(final_rms <= cfg.tol),
    }


def cmd_recover(args) -> int:
    out = _out_dir(args)
    cfg = _recovery_config(args)
    if args.trials > 1:
        payloads = [(args.states, replace(cfg, seed=args.seed + i)) for i in range(args.trials)]
        workers = args.workers or min(args.trials, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_run_trial, payloads))
        successes = sum(t["success"] for t in trials)
        summary = {
            "trials": trials,
            "successes": successes,
            "success_rate": successes / len(trials),
            "edge_counts": sorted(t["edges"] for t in trials),
        }
        (out / "trials.json").write_text(json.dumps(summary, indent=2) + "\n")
        print(f"{successes}/{len(trials)} trials reached rms <= {args.tol:g}")
        return 0 if successes == len(trials) else 1

    states = io.load_states_csv(args.states)
    try:
        net, trace = recover(states, cfg=cfg)
    except RecoveryError as exc:
        # a failed run keeps its iterations and its last held network
        io.save_trace_csv(exc.trace, out / "trace.csv")
        if exc.network is not None:
            io.save_network(exc.network, out / "recovered.json")
        raise
    io.save_network(net, out / "recovered.json")
    io.save_trace_csv(trace, out / "trace.csv")
    table = io.render_trace_table(trace)
    (out / "table.txt").write_text(table + "\n")
    print(table)
    final_rms = rms(net, states)
    print(f"final: {len(net.edges)} edges, rms {final_rms:.3e}")
    return 0 if final_rms <= cfg.tol else 1


def cmd_report(args) -> int:
    trace = io.load_trace_csv(args.trace)
    print(io.render_trace_table(trace, include_all=args.all))
    if args.out_dir:
        out = _out_dir(args)
        series = "\n".join(f"{r.iteration},{r.epsilon!r}" for r in trace)
        (out / "epsilon_series.csv").write_text("iteration,epsilon\n" + series + "\n")
        print(f"wrote {out / 'epsilon_series.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrecover",
        description="Recover sparse electrical networks from node measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a network and measurement states")
    p.add_argument("--builtin", choices=BUILTIN_NAMES)
    p.add_argument("--network", help="network JSON to sample voltage-driven states from")
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=_non_negative_float, default=0.0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("estimate", help="fit parameters on a fixed topology")
    p.add_argument("--network", required=True)
    p.add_argument("--states", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sparsify", help="sample a spectral sparsifier of a network")
    p.add_argument("--network", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("bound", help="rms-growth certificate for a sparsification")
    p.add_argument("--network", required=True)
    p.add_argument("--states", required=True)
    p.add_argument("--eps", type=_non_negative_float, required=True)
    p.add_argument("--variant", choices=("fine", "coarse", "ac"), default="fine")
    p.add_argument("--vmin", type=float, default=VOLTAGE_RANGE[0])
    p.add_argument("--vmax", type=float, default=VOLTAGE_RANGE[1])
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("recover", help="recover a sparse topology and parameters")
    p.add_argument("--states", required=True)
    p.add_argument("--eps", type=float, default=0.1, help="initial closeness parameter")
    p.add_argument("--psi", type=float, default=1.5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=_positive_int, default=None)
    p.add_argument("--max-time", type=float, default=None)
    p.add_argument("--max-stale", type=_positive_int, default=30)
    p.add_argument("--stop-on-tree", action="store_true")
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--workers", type=_positive_int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("report", help="render a recovery trace as a table")
    p.add_argument("--trace", required=True)
    p.add_argument("--all", action="store_true", help="include unchanged iterations")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}", file=sys.stderr)
        return 2
    except io.FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (PowerFlowError, NnlsError, RecoveryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
