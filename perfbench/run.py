"""Recovery benchmark: time to recovery and accuracy, end to end and per layer.

    python3 perfbench/run.py --workload heawood --seed 1 --seconds 16 --trace 0

``--trace 0`` times an untraced pass and prints the end-to-end metrics;
``--trace 1`` runs every unit untraced and then traced and prints the
per-layer metrics.  The last line of standard output is one JSON
object; the full record (environment, every instance with its trace
fingerprint, spans) goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the machine has two cores and the
# ac_trials workload runs two worker processes.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_VARIABLES:
    os.environ[_name] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A runaway allocation (such as an unbounded sparsifier sample count) becomes
# a MemoryError, counted as a failed operation, instead of swapping the box.
ADDRESS_LIMIT_BYTES = 3 * 2**30
DEADLINE_S = 130.0
OUT = HERE / "out"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ[name] for name in BLAS_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "address_limit_bytes": ADDRESS_LIMIT_BYTES,
        "commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridrecover" / "__init__.py").is_file():
        print(f"error: no gridrecover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from spans import LAYER_UNITS, Tracer, layer_metrics, median

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT_BYTES, hard))

    started = time.perf_counter()
    units = max(wl.MIN_UNITS, round(args.seconds * wl.UNITS_PER_SECOND[args.workload]))
    if args.trace:
        units = max(2, math.ceil(units / 2))
    seeds = [wl.instance_seed(args.seed, i) for i in range(units)]
    cli = args.workload == "ac_trials"
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "units_planned": units}
    try:
        if cli:
            wl.cli_warm_up(work)
        # The untimed tracemalloc pass comes first, so that it also warms the
        # allocator and the linear-algebra paths before anything is timed.
        peaks, peak_errors = [], []
        for s in seeds[: 1 if args.trace else wl.PEAK_INSTANCES]:
            try:
                peaks.append(wl.peak_alloc_bytes(args.workload, s))
            except Exception as exc:  # counted like any other failed recover call
                peak_errors.append(f"peak_alloc pass, seed {s}: {type(exc).__name__}: {exc}")

        def run_unit(s, span=None):
            if cli:
                return (wl.run_cli_unit(s, work) if span is None
                        else wl.replay_cli_unit_traced(s, work, span))
            return wl.run_inprocess_unit(args.workload, s, span or wl.no_span)

        # With --trace 1 each unit runs untraced and then traced, back to
        # back, so that drift in host speed cancels in the overhead ratio.
        host, tracer = wl.HostReference(), Tracer()
        host.sample(5)
        plain, traced = [], []
        for s in seeds:
            if time.perf_counter() - started > DEADLINE_S:
                record["stopped_at_deadline"] = True
                break
            host.sample()
            plain.append(run_unit(s))
            if args.trace:
                with tracer.installed():
                    traced.append(run_unit(s, tracer.span))

        trials = [t for u in plain for t in u.trials]
        problems = [p for u in plain for p in u.problems]
        attempted = len(trials) + len(peaks) + len(peak_errors)
        failed = sum(t.failed for t in trials) + len(peak_errors)
        problems += peak_errors
        ok = [t for t in trials if not t.failed]
        if not trials:
            problems.append("no instance ran before the deadline")
        problems += [f"trial {t.seed}: re-checked rms {t.rms!r} above tol" for t in ok
                     if not t.success]
        problems += [f"trial {t.seed}: re-checked rms {t.rms!r} disagrees with the trace"
                     for t in ok if not t.consistent]
        lines = []

        record["peak_alloc_bytes"] = peaks
        if args.trace == 0:
            timed = max(len(trials), 1)
            metrics = {
                "recover_s": (median([t.recover_s for t in trials]), "s"),
                "setup_s": (median([u.setup_s for u in plain]), "s"),
                "success_rate": (sum(t.success for t in ok) / timed, "fraction"),
                "exact_topology_rate": (sum(t.exact for t in ok) / timed, "fraction"),
                "peak_alloc_mb": (median(peaks) / 1e6, "MB"),
            }
            lines.append(
                f"strict_topology_rate {sum(t.strict_exact for t in ok) / timed!r} fraction"
                " (edge set equal to the generating network, no series collapse allowed)"
            )
        else:
            traced_trials = [t for u in traced for t in u.trials]
            problems += [p for u in traced for p in u.problems]
            attempted += len(traced_trials)
            failed += sum(t.failed for t in traced_trials)
            plain_prints = [t.fingerprint for t in trials]
            traced_prints = [t.fingerprint for t in traced_trials]
            if plain_prints != traced_prints:
                problems.append("untraced and traced passes disagree on trace fingerprints")
            record["traced_fingerprints"] = traced_prints
            layers, bases = layer_metrics(
                tracer, [t.rows for t in traced_trials if not t.failed]
            )
            inproc = median([t.inproc_s for t in trials])
            traced_inproc = median([t.inproc_s for t in traced_trials])
            layers["trace.overhead_ratio"] = median(
                [b.inproc_s / a.inproc_s for a, b in zip(trials, traced_trials)]
            )
            record["bases"] = bases
            lines += [f"base of {name}: {base}" for name, base in bases.items()]
            metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
            lines.append(
                f"tracing overhead: traced recover {traced_inproc!r} s against untraced"
                f" {inproc!r} s (wall medians over {len(trials)} recover calls each);"
                " trace.overhead_ratio is the median of the paired ratios"
            )
            if cli:
                lines.append("ac_trials per-layer figures come from a serial in-process replay"
                             " of the trials (load CSV, recover, re-check); the command's"
                             " worker processes are not traced")
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            with open(spans_path, "w") as fh:
                for rec in tracer.to_records():
                    fh.write(json.dumps(rec) + "\n")
            lines.append(f"spans: {spans_path.relative_to(ROOT)}")

        lines.append(f"ops_failed {failed / attempted!r} fraction ({failed} of {attempted})")
        factor = host.factor()
        record["host_factor"] = factor
        record["wall_metrics"] = {k: v for k, (v, u) in metrics.items() if u == "s"}
        lines.append(f"host factor {factor!r}: times below are wall seconds x factor; wall"
                     f" seconds: {json.dumps(record['wall_metrics'])}")
        metrics = {k: (v * factor if u == "s" else v, u) for k, (v, u) in metrics.items()}
        correct = failed == 0 and not problems
        run_print = wl.run_fingerprint([t.fingerprint for t in trials])
        lines.insert(0, f"workload {args.workload} seed {args.seed}: {len(plain)} units,"
                        f" {len(trials)} recover calls timed, run fingerprint {run_print}")
        record.update({
            "correct": correct, "attempted": attempted, "failed": failed,
            "problems": problems, "run_fingerprint": run_print,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "units": [u.record() for u in plain],
            "wall_s": time.perf_counter() - started,
        })
        result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"environment: {json.dumps(env)}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
