"""Workload instances and the passes that run them.

Every instance is derived from the workload seed and its index alone, the
same way ``gridrecover generate --seed`` derives its network and data, so a
seed always yields the same inputs.  The library is driven through its public
functions, the ``ac_trials`` workload through the command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gridrecover.io as gio
import gridrecover.recovery as grec
import gridrecover.states as gstates
from gridrecover.builtins import SMALL_AC_ZERO_NODE, builtin_network, builtin_scenario
from gridrecover.network import Network

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("heawood", "heawood_noisy", "dc30", "ac_trials")

# Units (set-up, recover, check) per second of --seconds.  A run does
# seconds x rate units, so its work, and with it the set of instances, is
# fixed by --seconds and --seed alone: two commits measured with the same
# arguments time the same instances.  The rates match the reference box (a
# 2-CPU x86 VM, one BLAS thread), except for ac_trials: its command times
# spread widest, so it does about 1.3x as many units and runs longer.
UNITS_PER_SECOND = {"heawood": 1.25, "heawood_noisy": 1.25, "dc30": 0.38, "ac_trials": 0.6}
MIN_UNITS = 3
# peak_alloc_mb is the median over this many instances; it varies with the
# loop's path on noisy data
PEAK_INSTANCES = 3

HEAWOOD_STATES = 300
HEAWOOD_NOISE = 1e-6
NOISY_TOL_FACTOR = 1.5
DC30_NODES = 30
DC30_CHORDS = 15
DC30_STATES = 200
AC_STATES = 300
AC_TRIALS = 8
AC_WORKERS = 2
TOL = 1e-5
CLI_TIMEOUT_S = 120.0


# Median time of one HostReference sample on the reference box.
REFERENCE_NOMINAL_S = 0.05


class HostReference:
    """A fixed computation, independent of gridrecover, timed before every unit.

    On a shared virtual machine the same recover call drifts by a third
    within minutes, and this computation drifts with it: least squares on
    column subsets of a tall matrix, a gradient product and an interpreter
    loop, the kinds of work recovery spends its time on.  Times are reported
    scaled by ``REFERENCE_NOMINAL_S / median(samples)``: seconds on the
    reference box at its usual speed.  A slower program still reads slower.
    """

    def __init__(self):
        rng = np.random.default_rng(20230413)
        self.a = rng.standard_normal((4200, 91))
        self.b = rng.standard_normal(4200)
        self.columns = [rng.permutation(91)[:k] for k in (30, 50, 70, 90)]
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            for cols in self.columns:
                np.linalg.lstsq(self.a[:, cols], self.b, rcond=None)
            self.a.T @ self.b
            total = 0
            for i in range(20000):
                total += i % 7
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


def no_span(name):
    return nullcontext()


def instance_seed(seed: int, index: int) -> int:
    """Integer seed of one instance, as ``generate --seed`` would take it."""
    return seed * 1000 + index


def fingerprint(rows, edges) -> str:
    """Hash of each trace row's (iteration, event, edges) and the final edge set."""
    h = hashlib.sha256()
    for r in rows:
        h.update(f"{r.iteration},{r.event},{r.edges};".encode())
    h.update(repr(sorted(edges)).encode())
    return h.hexdigest()[:16]


def run_fingerprint(prints: list) -> str:
    """Hash of a run's instance fingerprints, in instance order."""
    return hashlib.sha256(",".join(prints).encode()).hexdigest()[:16]


def held_rms(rows) -> float:
    """rms the trace reports for the network ``recover`` returns."""
    held = [r for r in rows if r.event in (grec.EVENT_INITIAL, grec.EVENT_ACCEPTED)]
    return held[-1].rms


def series_collapse(net: Network, node: int) -> set:
    """Edge set with a degree-2 node replaced by one edge between its neighbours."""
    ends = [e for e in net.edges if node in e]
    a, b = sorted(j if j != node else k for j, k in ends)
    return (set(net.edges) - set(ends)) | {(a, b)}


def random_dc30(ss) -> Network:
    """Random spanning tree on 30 nodes plus 15 chords, conductances U(0.5, 100)."""
    rng = np.random.default_rng(ss)
    order = rng.permutation(DC30_NODES) + 1
    edges = set()
    for i in range(1, DC30_NODES):
        j, k = int(order[rng.integers(i)]), int(order[i])
        edges.add((min(j, k), max(j, k)))
    free = [
        (j, k)
        for j in range(1, DC30_NODES + 1)
        for k in range(j + 1, DC30_NODES + 1)
        if (j, k) not in edges
    ]
    for p in rng.choice(len(free), DC30_CHORDS, replace=False):
        edges.add(free[p])
    edges = sorted(edges)
    return Network.dc(DC30_NODES, edges, rng.uniform(0.5, 100.0, len(edges)))


@dataclass
class Instance:
    truth: Network
    states: gstates.StateSet
    tol: float
    accepted_topologies: tuple


def build_instance(workload: str, s: int, span=no_span) -> Instance:
    """Network and states of instance seed ``s`` (the timed set-up)."""
    net_ss, data_ss = np.random.SeedSequence(s).spawn(2)
    if workload == "dc30":
        net = random_dc30(net_ss)
        with span("states.generate"):
            states = gstates.generate_voltage_driven(net, DC30_STATES, seed=data_ss)
        return Instance(net, states, TOL, (set(net.edges),))
    if workload == "ac_trials":
        net = builtin_network("small_ac", net_ss)
        with span("states.generate"):
            states = gstates.generate_scenario(
                net, builtin_scenario("small_ac"), AC_STATES, seed=data_ss
            )
        return ac_instance(net, states)
    sigma = HEAWOOD_NOISE if workload == "heawood_noisy" else 0.0
    net = builtin_network("heawood_dc", net_ss)
    with span("states.generate"):
        states = gstates.generate_scenario(
            net, builtin_scenario("heawood_dc", sigma=sigma), HEAWOOD_STATES, seed=data_ss
        )
    tol = NOISY_TOL_FACTOR * gstates.rms(net, states) if sigma else TOL
    return Instance(net, states, tol, (set(net.edges),))


def ac_instance(net: Network, states) -> Instance:
    # the silent degree-2 node is indistinguishable from its series
    # equivalent in the data, so the collapsed topology is also exact
    topologies = (set(net.edges), series_collapse(net, SMALL_AC_ZERO_NODE))
    return Instance(net, states, TOL, topologies)


@dataclass
class Trial:
    """One ``recover`` call and its check."""

    seed: int
    recover_s: float = float("nan")  # as the user sees it: per trial of the command
    inproc_s: float = float("nan")  # the recover() call in this process
    failed: bool = False
    error: str = ""
    fingerprint: str = ""
    rms: float = float("nan")
    success: bool = False
    exact: bool = False
    strict_exact: bool = False
    consistent: bool = False
    summary: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def record(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "rows"}


@dataclass
class Unit:
    """One set-up and the trials on its data."""

    seed: int
    setup_s: float = float("nan")
    trials: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def record(self) -> dict:
        return {
            "seed": self.seed,
            "setup_s": self.setup_s,
            "problems": self.problems,
            "trials": [t.record() for t in self.trials],
        }


def run_trial(inst: Instance, states, trial_seed: int, span=no_span) -> Trial:
    """Recover, then re-check the returned network against the data."""
    trial = Trial(trial_seed)
    cfg = grec.RecoveryConfig(tol=inst.tol, seed=trial_seed)
    t0 = time.perf_counter()
    try:
        with span("recover"):
            net, trace = grec.recover(states, cfg=cfg)
        trial.inproc_s = trial.recover_s = time.perf_counter() - t0
        with span("check"):
            trial.rms = gstates.rms(net, states)
    except Exception as exc:  # any exception is a failed operation, counted
        if math.isnan(trial.inproc_s):
            trial.inproc_s = trial.recover_s = time.perf_counter() - t0
        trial.failed = True
        trial.error = f"{type(exc).__name__}: {exc}"[:500]
        return trial
    trial.rows = list(trace)
    trial.fingerprint = fingerprint(trial.rows, net.edges)
    trial.success = trial.rms <= inst.tol
    edges = set(net.edges)
    trial.exact = any(edges == t for t in inst.accepted_topologies)
    trial.strict_exact = edges == set(inst.truth.edges)
    trial.consistent = abs(trial.rms - held_rms(trial.rows)) <= 1e-3 * inst.tol
    trial.summary = {
        "edges": len(net.edges),
        "rms": float(trial.rms),
        "iterations": len(trace),
        "success": bool(trial.success),
    }
    return trial


def run_inprocess_unit(workload: str, s: int, span=no_span) -> Unit:
    unit = Unit(s)
    t0 = time.perf_counter()
    with span("setup"):
        inst = build_instance(workload, s, span)
    unit.setup_s = time.perf_counter() - t0
    unit.trials.append(run_trial(inst, inst.states, s, span))
    return unit


def peak_alloc_bytes(workload: str, s: int) -> int:
    """tracemalloc peak of one ``recover`` call on instance seed ``s``."""
    inst = build_instance(workload, s)
    cfg = grec.RecoveryConfig(tol=inst.tol, seed=s)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        grec.recover(inst.states, cfg=cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- the command-line workload -------------------------------------------


def _cli(args: list, log: Path) -> int:
    """Run ``gridrecover <args>`` in its own session and wait for all of it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridrecover.cli", *map(str, args)],
            stdout=out,
            stderr=out,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -signal.SIGKILL


def cli_warm_up(work: Path) -> None:
    _cli(["generate", "--builtin", "small_ac", "--m", "5", "--out-dir", work / "warm"],
         work / "warm.log")


def run_cli_unit(s: int, work: Path) -> Unit:
    """``generate`` then ``recover --trials``, timed as a user sees them.

    The worker processes are out of reach, so every trial is then replayed
    in this process from the same CSV (load, recover, re-check); the replay
    must reproduce each trial's edge count, rms and iteration count exactly.
    """
    unit = Unit(s)
    gen, rec, log = work / f"gen{s}", work / f"rec{s}", work / f"u{s}.log"
    t0 = time.perf_counter()
    code = _cli(["generate", "--builtin", "small_ac", "--m", AC_STATES, "--seed", s,
                 "--out-dir", gen], log)
    unit.setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    if code == 0:
        code = _cli(["recover", "--states", gen / "states.csv", "--trials", AC_TRIALS,
                     "--workers", AC_WORKERS, "--seed", s, "--tol", TOL, "--out-dir", rec], log)
    per_trial_s = (time.perf_counter() - t0) / AC_TRIALS
    summaries = _cli_trials(rec)
    if code not in (0, 1) or summaries is None:
        tail = log.read_text(errors="replace")[-500:] if log.exists() else ""
        unit.trials = [
            Trial(s + j, per_trial_s, failed=True, error=f"exit {code}: {tail}")
            for j in range(AC_TRIALS)
        ]
        return unit
    inst = ac_instance(gio.load_network(gen / "network.json"), None)
    _replay(inst, gen / "states.csv", summaries, unit)
    for trial in unit.trials:
        trial.recover_s = per_trial_s
    return unit


def replay_cli_unit_traced(s: int, work: Path, span) -> Unit:
    """Traced replay of a unit :func:`run_cli_unit` ran: the data is
    synthesised in-process again and must write a byte-identical CSV."""
    unit = Unit(s)
    summaries = _cli_trials(work / f"rec{s}")
    if summaries is None:
        unit.problems.append("the command run left no trials to replay")
        return unit
    csv_path = work / f"replay{s}.csv"
    t0 = time.perf_counter()
    with span("setup"):
        inst = build_instance("ac_trials", s, span)
        gio.save_states_csv(inst.states, csv_path)
    unit.setup_s = time.perf_counter() - t0
    if csv_path.read_bytes() != (work / f"gen{s}" / "states.csv").read_bytes():
        unit.problems.append("in-process data synthesis differs from the generate command")
    _replay(inst, csv_path, summaries, unit, span)
    return unit


def _cli_trials(rec: Path):
    path = rec / "trials.json"
    return json.loads(path.read_text())["trials"] if path.exists() else None


def _replay(inst: Instance, csv_path: Path, summaries: list, unit: Unit, span=no_span) -> None:
    """Each worker re-reads the CSV, so each replayed trial does too."""
    for cli_trial in summaries:
        with span("trial"):
            states = gio.load_states_csv(csv_path)
            trial = run_trial(inst, states, cli_trial["seed"], span)
        if not trial.failed and {"seed": trial.seed, **trial.summary} != cli_trial:
            unit.problems.append(f"command trial {cli_trial} != replay {trial.summary}")
        unit.trials.append(trial)
