"""Command-line surface: generate, estimate, sparsify, bound, recover, report.

Exit codes: 0 success, 1 solver or runtime failure, 2 bad input files or
arguments, or an OS error on a named path (a missing input, a directory
where a file is expected, an output directory that cannot be made).  The
real values the library checks exit 1 when out of range, as its ValueError
does: ``recover --eps``, ``--psi``, ``--tol`` and ``--max-time``,
``sparsify --eps``, and the coarse ``bound``'s ``--vmin`` and ``--vmax``;
either of those two given to another ``bound`` variant exits 2.
Set GRIDRECOVER_LOG=debug|info|warning to control verbosity; a value that
is not a level means warning.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import io
from .bounds import ac_bound, dc_bound, dc_bound_coarse
from .builtins import BUILTINS, builtin_network, builtin_scenario
from .network import _children
from .nnls import NnlsError
from .recovery import RecoveryConfig, RecoveryError, _warned_head, fit, loop, recover
from .sparsify import row_statistics, sparsify_ac
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
    level = getattr(logging, os.environ.get("GRIDRECOVER_LOG", "warning").upper(), None)
    # logging has attributes that are not levels, such as BASIC_FORMAT: those mean warning too
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
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
    # a builtin's network and states, or voltage-driven states and their noise
    first, second = _children(args.seed, 2)
    if args.builtin:
        net = builtin_network(args.builtin, first)
        scen = builtin_scenario(args.builtin, sigma=args.noise)
        states = generate_scenario(net, scen, args.m, seed=second)
        # the scenario's sampling layout; its sigma is written as noise
        layout = {k: v for k, v in asdict(scen).items() if k != "sigma"}
        provenance = {"builtin": args.builtin, **layout}
    else:
        net = io.load_network(args.network)
        states = add_noise(generate_voltage_driven(net, args.m, seed=first), args.noise, seed=second)
        provenance = {"network": str(args.network), "sampling": "voltage_driven"}
    provenance.update({"m": args.m, "seed": args.seed, "noise": args.noise})
    out = _out_dir(args)
    io.save_network(net, out / "network.json")
    io.save_states_csv(states, out / "states.csv")
    io.save_json(provenance, out / "provenance.json")
    print(f"wrote {out / 'network.json'}, {out / 'states.csv'} ({states.m} states)")
    return 0


def cmd_estimate(args) -> int:
    net = io.load_network(args.network)
    states = io.load_states_csv(args.states)
    _check_compatible(net, states)
    result = fit(assemble(net.edges, states))
    payload = {
        "network": io.network_to_dict(result.network),
        "rms": result.rms,
        "kappa": result.kappa,
        "kkt_residual": result.nnls.kkt_residual,
        "iterations": result.nnls.iterations,
    }
    out = _out_dir(args)
    io.save_json(payload, out / "estimate.json")
    print(f"rms {result.rms:.3e}  kappa {result.kappa:.3e}  -> {out / 'estimate.json'}")
    return 0


def cmd_sparsify(args) -> int:
    net = io.load_network(args.network)
    outcome = sparsify_ac(net, args.eps, args.seed)
    out = _out_dir(args)
    io.save_network(outcome.graph, out / "sparsified.json")
    io.save_edge_statistics_csv(row_statistics(net), out / "edge_stats.csv")
    print(
        f"kept {len(outcome.graph.edges)} of {len(net.edges)} edges (t={outcome.t})"
        f" -> {out / 'sparsified.json'}"
    )
    return 0


def cmd_bound(args) -> int:
    limits = {"--vmin": args.vmin, "--vmax": args.vmax}
    for flag in (f for f, v in limits.items() if v is not None and args.variant != "coarse"):
        args.usage_error(f"argument {flag}: only --variant coarse reads it")
    net = io.load_network(args.network)
    states = io.load_states_csv(args.states)
    if args.variant == "fine":
        report = dc_bound(net, states, args.eps)
    elif args.variant == "coarse":
        vmin, vmax = (d if v is None else v for v, d in zip(limits.values(), VOLTAGE_RANGE))
        report = dc_bound_coarse(net, states, args.eps, vmin, vmax)
    else:
        report = ac_bound(net, states, args.eps)
    out = _out_dir(args)
    io.save_json(asdict(report), out / "bound.json")
    print(
        f"rms {report.rms_base:.3e} + eps*{report.bound_term:.3e}"
        f" = {report.bound_total:.3e} ({report.variant})"
    )
    return 0


def _summary(states, cfg: RecoveryConfig, net, trace) -> dict:
    """One seeded run's outcome, its network re-checked against the data."""
    final_rms = float(rms(net, states))
    return {
        "seed": cfg.seed,
        "edges": len(net.edges),
        "rms": final_rms,
        "iterations": len(trace),
        "success": final_rms <= cfg.tol,
    }


def cmd_recover(args) -> int:
    cfg = RecoveryConfig(**{f.name: getattr(args, f.name) for f in fields(RecoveryConfig)})
    states = io.load_states_csv(args.states)
    out = _out_dir(args)  # only once the states are read: bad input leaves no directory
    if args.trials > 1:
        # the complete-graph fit is the same for every seed: computed once,
        # and warned about once, then each seed's loop runs from it in turn
        start = _warned_head(states, cfg.tol)
        cfgs = [replace(cfg, seed=cfg.seed + i) for i in range(args.trials)]
        trials = [_summary(states, c, *loop(start, c)) for c in cfgs]
        successes = sum(t["success"] for t in trials)
        summary = {
            "trials": trials,
            "successes": successes,
            "success_rate": successes / len(trials),
            "edge_counts": sorted(t["edges"] for t in trials),
        }
        io.save_json(summary, out / "trials.json")
        print(f"{successes}/{len(trials)} trials reached rms <= {cfg.tol:g}")
        return 0 if successes == len(trials) else 1

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
    print(io.render_trace_table(trace))
    result = _summary(states, cfg, net, trace)
    print(f"final: {result['edges']} edges, rms {result['rms']:.3e}")
    return 0 if result["success"] else 1


def cmd_report(args) -> int:
    trace = io.load_trace_csv(args.trace)
    print(io.render_trace_table(trace, include_all=args.all))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrecover",
        description="Recover sparse electrical networks from node measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        """A subcommand that runs ``func`` and takes the options of ``parents``."""
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    # the options that several commands share, each declared once
    network, states, out_dir = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    network.add_argument("--network", required=True)
    states.add_argument("--states", required=True)
    out_dir.add_argument("--out-dir", default=".")

    p = command("generate", cmd_generate, "synthesize a network and measurement states", out_dir)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=BUILTINS)
    source.add_argument("--network", help="network JSON to sample voltage-driven states from")
    p.add_argument("--m", type=_positive_int, default=200)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--noise", type=_non_negative_float, default=0.0)

    command("estimate", cmd_estimate, "fit parameters on a fixed topology", network, states, out_dir)

    p = command("sparsify", cmd_sparsify, "sample a spectral sparsifier of a network", network, out_dir)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = command("bound", cmd_bound, "rms-growth certificate for a sparsification", network, states, out_dir)
    p.add_argument("--eps", type=_non_negative_float, required=True)
    p.add_argument("--variant", choices=("fine", "coarse", "ac"), default="fine")
    for flag, default in zip(("--vmin", "--vmax"), VOLTAGE_RANGE):
        p.add_argument(flag, type=float, help=f"--variant coarse only (default {default})")
    p.set_defaults(usage_error=p.error)

    # one option per RecoveryConfig field, stored under the field's name
    cfg = RecoveryConfig()
    p = command("recover", cmd_recover, "recover a sparse topology and parameters", states, out_dir)
    p.add_argument("--eps", dest="eps0", type=float, default=cfg.eps0,
                   help="initial closeness parameter")
    p.add_argument("--psi", type=float, default=cfg.psi)
    p.add_argument("--tol", type=float, default=cfg.tol)
    p.add_argument("--seed", type=_non_negative_int, default=cfg.seed)
    p.add_argument("--max-iterations", type=_positive_int, default=cfg.max_iterations)
    p.add_argument("--max-time", dest="max_wall_time", type=float, default=cfg.max_wall_time)
    p.add_argument("--max-stale", dest="max_stale_iterations", type=_positive_int,
                   default=cfg.max_stale_iterations,
                   help="stop after this many iterations without an accept; a run stops"
                        " sooner once deleting any one edge from the held fit would raise"
                        " the rms past --tol")
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="accepted and ignored: the trials run in turn in one process")

    p = command("report", cmd_report, "render a recovery trace as a table")
    p.add_argument("--trace", required=True)
    p.add_argument("--all", action="store_true", help="include unchanged iterations")

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except io.FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not about a named path, such as a disk filling up mid-write: exit 1
            raise
        print(f"file error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (PowerFlowError, NnlsError, RecoveryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
