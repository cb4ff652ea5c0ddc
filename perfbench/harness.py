"""Shared machinery: staged set-up, scaled round timing, statistics and the
result line.

A run is: several fresh set-ups (each phase timed on its own through the
layers' public calls), a fixed number of warm-up rounds, then a fixed
number of measured rounds. Each round is bracketed by host-reference
samples (see ``hostref``) and its times are scaled by the bracket's
factor before they are pooled.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from hostref import REF_NOMINAL_MS, HostClock
from layers import LayerTotals, closed_roots, validate_round

from repro.constraints.assertions import AssertionViolation
from repro.storage.pager import IOStats


class BenchError(Exception):
    """The benchmark cannot measure what it promises (too few samples for
    a percentile, a view it reads was not materialized)."""


# -- set-up ---------------------------------------------------------------------------


class SetupTimer:
    """Times named set-up phases, each scaled by its own host bracket."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self.clock.bracket()
        started = time.perf_counter()
        yield
        raw = time.perf_counter() - started
        self.phases[name] = self.phases.get(name, 0.0) + raw * self.clock.bracket()


@dataclass
class Views:
    """The optimizer's chosen view set, materialized and maintained."""

    maintainer: Any
    roots: dict[str, int]


def build_views(
    timer: SetupTimer,
    db,
    views: dict[str, Any],
    txn_types,
    charge_root_update: bool,
) -> Views:
    """Build the DAG, estimator, optimal view set and maintainer through
    the layers' public calls — the steps ``AssertionSystem`` takes — timing
    each as its own phase."""
    from repro.core.optimizer import optimal_view_set
    from repro.cost.estimates import DagEstimator
    from repro.cost.model import CostConfig
    from repro.cost.page_io import PageIOCostModel
    from repro.dag.builder import build_multi_dag
    from repro.ivm.maintainer import ViewMaintainer
    from repro.storage.statistics import Catalog

    with timer.phase("dag.build"):
        dag = build_multi_dag(views)
        roots = {name: dag.root_of(name) for name in views}
    with timer.phase("cost.estimate"):
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        root_group = next(iter(roots.values())) if len(roots) == 1 else None
        cost_model = PageIOCostModel(
            dag.memo,
            estimator,
            CostConfig(charge_root_update=charge_root_update, root_group=root_group),
        )
    with timer.phase("core.optimize"):
        plan = optimal_view_set(dag, txn_types, cost_model, estimator)
    with timer.phase("ivm.materialize"):
        maintainer = ViewMaintainer(
            db,
            dag,
            plan.best_marking,
            txn_types,
            {name: p.track for name, p in plan.best.per_txn.items()},
            estimator,
            cost_model,
            charge_root_update=charge_root_update,
        )
        maintainer.materialize()
    return Views(maintainer, roots)


def view_rows(maintainer) -> int:
    return sum(maintainer.view_contents(g).total() for g in maintainer.marking)


# -- rounds -----------------------------------------------------------------------------


@dataclass
class RoundLog:
    """What one round did, in raw (unscaled) seconds."""

    commit_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    read_io: int = 0
    #: engine commits: one per commit, one per group-committed wave
    engine_commits: int = 0
    rejected: int = 0
    commit_io: IOStats = field(default_factory=IOStats)
    attempted: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: traced rounds, per commit: (root span, external latency, time queued
    #: before the root span opened), in seconds
    traced: list[tuple[Any, float, float]] = field(default_factory=list)
    #: serve-durable: (batch size, per-rider queue waits in seconds)
    batches: list[tuple[int, list[float]]] = field(default_factory=list)

    def commit_done(self, seconds: float, io: IOStats) -> None:
        self.commit_s.append(seconds)
        self.commit_io = self.commit_io + io
        self.engine_commits += 1
        self.attempted += 1

    def wave_done(self, latencies: list[float], io: IOStats) -> None:
        """A group of commits that rode one batch and share its I/O."""
        self.commit_s += latencies
        self.commit_io = self.commit_io + io
        self.engine_commits += 1
        self.attempted += len(latencies)

    def read_done(self, seconds: float, io: IOStats) -> None:
        self.read_s.append(seconds)
        self.read_io += io.total
        self.attempted += 1

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)


class Totals:
    """Scaled samples pooled over the measured rounds."""

    def __init__(self) -> None:
        self.commit_ms: list[float] = []
        self.read_ms: list[float] = []
        self.read_io = 0
        self.ops = 0
        self.scaled_s = 0.0
        self.rounds = 0
        self.engine_commits = 0
        self.rejected = 0
        self.attempted = 0
        self.mismatches: list[str] = []
        self.commit_io = IOStats()
        #: scaled commit latencies (ms), split by traced/untraced rounds
        self.commit_ms_by_trace: dict[bool, list[float]] = {True: [], False: []}
        self.layers = LayerTotals()

    def fold(self, log: RoundLog, elapsed: float, scale: float, traced: bool) -> None:
        self.rounds += 1
        commit_ms = [s * 1e3 * scale for s in log.commit_s]
        self.commit_ms += commit_ms
        self.commit_ms_by_trace[traced] += commit_ms
        self.read_ms += [s * 1e3 * scale for s in log.read_s]
        self.read_io += log.read_io
        self.ops += len(log.commit_s) + len(log.read_s)
        self.scaled_s += elapsed * scale
        self.engine_commits += log.engine_commits
        self.rejected += log.rejected
        self.attempted += log.attempted
        self.mismatches += log.mismatches
        self.commit_io = self.commit_io + log.commit_io
        for root, latency, wait in log.traced:
            self.layers.add_commit(root, latency, scale, wait)
        for size, waits in log.batches:
            self.layers.add_batch(size, waits, scale)


def measure(workload, world, clock: HostClock, seconds: float, trace: bool) -> Totals:
    """Warm up, then run the fixed number of rounds that takes ``seconds``
    on a host running the reference kernel in ``REF_NOMINAL_MS``.

    The round count depends only on ``seconds``, never on how fast this
    host happens to be, so every run of a seed does identical work: the
    database ages the same way and page I/O repeats exactly. With
    ``trace`` every other pair of rounds runs under a
    :class:`~repro.obs.trace.Tracer`, so traced and untraced commit times
    come from the same stretch of host time."""
    from repro.obs.trace import Tracer

    for _ in range(workload.WARMUP_ROUNDS):  # caches, kernels, heap layout
        workload.run_round(world, workload.plan_round(world), RoundLog(), tracer=None)
    totals = Totals()
    tracer = Tracer() if trace else None
    clock.bracket()
    for i in range(max(workload.MIN_ROUNDS, round(seconds * workload.ROUNDS_PER_S))):
        # pairs of rounds, so a workload alternating two kinds of round
        # has both kinds traced and untraced
        traced = trace and i // 2 % 2 == 1
        ops = workload.plan_round(world)
        log = RoundLog()
        started = time.perf_counter()
        workload.run_round(world, ops, log, tracer=tracer if traced else None)
        elapsed = time.perf_counter() - started
        totals.fold(log, elapsed, clock.bracket(), traced)
    return totals


def run_client(engine, ops: list[tuple], log: RoundLog, tracer) -> None:
    """Run one round's ops from a single client, in order.

    ``("commit", txn, predicted_ok)`` commits through ``Engine.execute``
    under a benchmark-opened ``engine.execute`` span (the root of the
    commit's trace); an assertion rejection is an outcome, checked against
    the prediction. ``("read", query, expected_rows)`` reads through
    ``Engine.select``."""
    counter = engine.db.counter
    engine.set_tracer(tracer)
    for kind, arg, expected in ops:
        if kind == "read":
            started = time.perf_counter()
            rows, io = engine.select(arg)
            log.read_done(time.perf_counter() - started, io)
            if rows != expected:
                log.mismatch(f"read {arg}: got {rows}, expected {expected}")
            continue
        before = counter.snapshot()
        span = engine.tracer.span("engine.execute")
        started = time.perf_counter()
        try:
            with span:
                engine.execute(arg)
            ok = True
        except AssertionViolation:
            ok = False
        latency = time.perf_counter() - started
        log.commit_done(latency, counter.snapshot() - before)
        if not ok:
            log.rejected += 1
        if ok != expected:
            log.mismatch(f"{arg.type_name} committed={ok}, predicted {expected}")
        if tracer is not None:
            log.traced.append((span, latency, 0.0))
    if tracer is not None:
        closed_roots(tracer)
        validate_round(tracer)
        tracer.reset()
        engine.set_tracer(None)


def verify_state(model, db, maintainer) -> list[str]:
    """Base relations against the generator's model, and every
    materialized view against recomputation."""
    from repro.ivm.maintainer import MaintenanceError

    out = model.mismatches(db)
    try:
        maintainer.verify()
    except MaintenanceError as exc:
        out.append(str(exc))
    return out


# -- statistics -----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses a sample too small to leave ten
    values beyond it."""
    ordered = sorted(values)
    beyond = len(ordered) * (1 - q / 100)
    if q > 50 and beyond < 10:
        raise BenchError(f"p{q:g} needs 10 samples beyond it; have {len(ordered)}")
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment metadata ----------------------------------------------------------------


def environment(root: str) -> dict[str, Any]:
    from repro.algebra.compile import default_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": default_backend(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "ref_nominal_ms": REF_NOMINAL_MS,
    }


def _git_sha(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- output ----------------------------------------------------------------------------


def emit(result: dict[str, Any], detail: dict[str, Any]) -> None:
    """Print the detail line, then the result as the last stdout line."""
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()

