"""Digest of the declared set of recovery runs, for bit-for-bit comparisons.

Run it in two checkouts and compare the last line::

    python3 tests/declared_set.py            # the digests
    python3 tests/declared_set.py --listing  # one line per run, then the digests
    python3 tests/declared_set.py --kernels  # the digests under each BLAS kernel

The set is every builtin x noise sigma in {0, 1e-6, 1e-5} x seeds 0-19, with
120 states drawn as ``gridrecover generate --builtin NAME --seed SEED`` draws
them.  Exact data is recovered at tol 1e-5, noisy data at 1.0 and 1.5 times
the rms of the true network on the data: 400 runs.  Each data set's complete
graph is fitted once (``recovery.head``), and each of its runs is a
``recovery.loop`` from that one head, which ``recover`` equals bit for bit:
the two runs of a noisy data set share a head across their two tols, and a
head that fails is recorded as the error of each of its runs.  Each run
contributes
every trace row (floats as hex), the returned edges and the bytes of their
conductances and susceptances, or the message of a ``RecoveryError`` and
the rows of its partial trace.  The listing names, per run, its trace rows,
last event, returned edge count, whether those are the true edges, and the
run's own digest, so that a change of results can be read run by run.

The last line ends with two more digests, which hold no float bits (the
tol is computed from the data, so its bits change with the BLAS kernel).
``edge sets`` is over the returned edges alone: each run's builtin, sigma,
seed and tol factor with the edges it returns, or with its error's type.
``events`` is over the path each run took: its key with the event and the
edge count of every trace row, of its partial trace on an error.

``--kernels`` runs the set again in one child process per
``OPENBLAS_CORETYPE`` of ``KERNELS`` and prints each child's last line, or
its exit code and last error line when it fails, as it does on a CPU
without the kernel's instructions; it sets no variable outside those
children.  Under numpy 2.4.6's bundled OpenBLAS, on a 2-CPU Intel Xeon
with AVX-512 (SkylakeX is its default kernel), it read::

    ===========  ==========  ==================  ==================  ==================
    kernel       trace rows  digest              edge sets           events
    ===========  ==========  ==================  ==================  ==================
    SkylakeX     6156        26a34deafc16d2a6…   9146d58f800e4e7b…   801c4cec3febf6be…
    Haswell      6184        81f032ddba23fd71…   9146d58f800e4e7b…   59e8cfe330b95db3…
    Sandybridge  6199        84870fd64f81e097…   9146d58f800e4e7b…   2f460ca107689be8…
    Prescott     6200        3a7b2d39029d47a6…   9146d58f800e4e7b…   5bbc9a7eacee7b28…
    ===========  ==========  ==================  ==================  ==================

Every kernel returns the same edges, but on some runs Haswell, Sandybridge
and Prescott reach them by other paths, with more trace rows.  Which exact
runs have a complete-graph fit certified minimal, and so stop at iteration
1, also depends on the kernel: table1_dc seeds 1, 11 and 19 under
SkylakeX, 1, 18 and 19 under Haswell, 1, 16 and 18 and small_ac seed 7
under Sandybridge, and 1, 16 and 19 under Prescott.

The script imports ``gridrecover`` from the ``src`` directory of its own
checkout and pins one BLAS thread before numpy loads: float bits depend on
the BLAS build and its thread count, so compare the trace digest only on
one machine.  pytest does not collect this file.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from numpy.random import SeedSequence  # noqa: E402

from gridrecover.builtins import BUILTINS, builtin_network, builtin_scenario  # noqa: E402
from gridrecover.recovery import RecoveryConfig, RecoveryError, head, loop  # noqa: E402
from gridrecover.states import generate_scenario, rms  # noqa: E402

STATES = 120
SIGMAS = (0.0, 1e-6, 1e-5)
SEEDS = range(20)
EXACT_TOL = 1e-5
NOISY_TOL_FACTORS = (1.0, 1.5)
# the OPENBLAS_CORETYPE values that --kernels runs the set under
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")


def data_sets():
    """(builtin, sigma, seed, true network, states, [(tol factor or None, config), ...]) of
    each data set, with the runs made on it."""
    for name in BUILTINS:
        for sigma in SIGMAS:
            for seed in SEEDS:
                net_seed, data_seed = SeedSequence(seed).spawn(2)
                net = builtin_network(name, net_seed)
                states = generate_scenario(net, builtin_scenario(name, sigma=sigma), STATES, seed=data_seed)
                if sigma == 0.0:
                    configs = [(None, RecoveryConfig(seed=seed, tol=EXACT_TOL))]
                else:
                    floor = rms(net, states)
                    configs = [(f, RecoveryConfig(seed=seed, tol=f * floor)) for f in NOISY_TOL_FACTORS]
                yield name, sigma, seed, net, states, configs


def runs():
    """(builtin, sigma, seed, tol factor or None, true network, config, outcome) of each
    run, its outcome being the (network, trace) of its loop, or the RecoveryError of its
    loop or of its data set's shared head."""
    for name, sigma, seed, net, states, configs in data_sets():
        try:
            start = head(states)
        except RecoveryError as exc:
            start = exc
        for factor, cfg in configs:
            try:
                outcome = start if isinstance(start, RecoveryError) else loop(start, cfg)
            except RecoveryError as exc:
                outcome = exc
            yield name, sigma, seed, factor, net, cfg, outcome


def _rows(trace) -> str:
    return "".join(
        f"{r.iteration} {r.edges} {r.rms.hex()} {r.kappa.hex()} {r.epsilon.hex()} {r.event}\n" for r in trace
    )


def _events(trace) -> str:
    return " ".join(f"{r.event}:{r.edges}" for r in trace)


def kernels() -> int:
    """Run the set once per BLAS kernel, each in a child process of its own,
    and print each child's last line; a child that fails, for example on a
    CPU without the kernel's instructions, is reported with its exit code."""
    for kernel in KERNELS:
        child = subprocess.run(
            [sys.executable, __file__], env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            capture_output=True, text=True, check=False,
        )
        if child.returncode == 0:
            print(f"{kernel}: {child.stdout.splitlines()[-1]}")
        else:  # a child killed by a signal, such as SIGILL, has a negative code
            print(f"{kernel}: exit code {child.returncode}: {(child.stderr.splitlines() or [''])[-1]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--listing", action="store_true", help="print one line per run before the digest")
    parser.add_argument("--kernels", action="store_true", help="run the set under each BLAS kernel of KERNELS")
    args = parser.parse_args(argv)
    if args.kernels:
        return kernels()
    total, edge_sets, events = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = rows = 0
    for name, sigma, seed, factor, truth, cfg, outcome in runs():
        key = f"{name} {sigma!r} {seed} {factor!r}"
        run = f"{key} {cfg.tol.hex()}\n"
        if isinstance(outcome, RecoveryError):
            edge_sets.update(f"{key} error {type(outcome).__name__}\n".encode())
            events.update(f"{key} {_events(outcome.trace)}\n".encode())
            run += f"error {outcome}\n{_rows(outcome.trace)}"
            rows += len(outcome.trace)
            summary = f"{len(outcome.trace)} rows, error: {outcome}"
            weights = b""
        else:
            net, trace = outcome
            edge_sets.update(f"{key} {net.edges}\n".encode())
            events.update(f"{key} {_events(trace)}\n".encode())
            run += _rows(trace) + f"{net.edges}\n"
            rows += len(trace)
            summary = (
                f"{len(trace)} rows, last {trace.rows[-1].event}, {len(net.edges)} edges,"
                f" exact {set(net.edges) == set(truth.edges)}"
            )
            weights = net.c.tobytes() + net.s.tobytes()
        digest = hashlib.sha256(run.encode() + weights).hexdigest()
        total.update(digest.encode())
        count += 1
        if args.listing:
            tol = "exact" if factor is None else factor
            print(f"{name} sigma={sigma:g} seed={seed} tol={tol}: {summary} {digest[:16]}")
    print(
        f"{count} runs, {rows} trace rows, digest {total.hexdigest()}, edge sets {edge_sets.hexdigest()},"
        f" events {events.hexdigest()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
