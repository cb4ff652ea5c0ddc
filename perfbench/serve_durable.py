"""serve-durable: waves of single-row commits through the group committer
onto WAL-backed pages, with a snapshot read after each wave.

The only workload that runs group composition, WAL append, page apply,
buffer-pool eviction (about 100 data pages against the default 64-page
pool), periodic checkpoints (every 128 commits, the spikes in
``commit_p95_ms``) and epoch-log snapshot reads. Flush policy
``wal_sync="normal"``: every commit is flushed to the OS and fsync waits
for a checkpoint; it must be the same on both sides of any comparison.

One client thread submits a wave of 8 commits, one from each of 8
disjoint department slices, and waits for all of them; with the
committer that makes two threads. The interpreter's switch interval is
raised for the run so the committer cannot take the interpreter lock
while a wave is half submitted: every batch then holds exactly one wave,
which the checks require, and page I/O repeats exactly.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import corp
from harness import RoundLog, SetupTimer, verify_state
from layers import closed_roots, validate_round

from repro.engine import DeferredPolicy, Engine
from repro.server.commit import GroupCommitter

NAME = "serve-durable"
#: set-up takes about half a second, so setup_s is a median of several
N_SETUPS = 9
WARMUP_ROUNDS = 1
#: rounds a run at nominal host speed completes per second
ROUNDS_PER_S = 76
#: five reads a round; traced rounds read nothing
MIN_ROUNDS = 60
WAVE = 8
#: odd, so the 128-commit checkpoint period falls in traced and untraced
#: rounds alike
WAVES_PER_ROUND = 5
#: seconds a wave may take before the run is declared hung
WAVE_TIMEOUT = 60.0
#: far above any collector pause (a full collection of this heap takes up
#: to half a second), so the client thread keeps the lock until it blocks
SWITCH_INTERVAL = 5.0


def build(timer: SetupTimer, seed: int, scratch: str) -> corp.CorpWorld:
    path = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    world = corp.setup(timer, seed, durable_path=path)
    with timer.phase("engine.build"):
        world.engine = Engine(
            world.views.maintainer,
            policy=DeferredPolicy(batch_size=1),
            assertion_roots=world.views.roots,
        )
        world.committer = GroupCommitter(world.engine, max_batch=WAVE).start()
    world.path = path
    return world


def plan_round(world: corp.CorpWorld) -> list[tuple]:
    rng, model = world.rng, world.model
    waves = []
    for _ in range(WAVES_PER_ROUND):
        txns = []
        for j in range(WAVE):
            dname = rng.choice(model.dnames[j::WAVE])
            txn, ok = model.write(rng, dname, on_emp=rng.random() < 0.5, violate=False)
            assert ok, "benign changes never break the assertion"
            txns.append(txn)
        waves.append((txns, corp.sums_query(world, dname), model.expected_sum(dname)))
    return waves


def run_round(world: corp.CorpWorld, waves: list[tuple], log: RoundLog, tracer) -> None:
    """Traced rounds skip the snapshot reads: the tracer keeps one span
    stack for all threads, so a client-side span could interleave with the
    committer's."""
    engine, committer = world.engine, world.committer
    counter = world.db.counter
    engine.set_tracer(tracer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        for txns, query, expected in waves:
            before = counter.snapshot()
            requests = [committer.submit(txn) for txn in txns]
            try:
                results = [request.wait(WAVE_TIMEOUT) for request in requests]
            except Exception as exc:  # a rider failed: record, keep the run going
                log.mismatch(f"wave commit failed: {exc!r}")
                continue
            latencies = [request.latency for request in requests]
            log.wave_done(latencies, counter.snapshot() - before)
            _check_batch(committer, results, log)
            if tracer is not None:
                # A rider's latency runs from submit to resolve on the
                # committer's clock; its queue wait is the part the
                # group_commit span does not cover, so the span tree plus
                # the longest wait accounts for the longest latency.
                root = closed_roots(tracer)[-1]
                waits = [latency - root.seconds for latency in latencies]
                log.traced.append((root, max(latencies), max(waits)))
                log.batches.append((root.attrs.get("size", 0), waits))
                continue
            started = time.perf_counter()
            epoch = engine.pin_epoch()
            try:
                rows, io = engine.select(query, epoch=epoch)
            finally:
                engine.unpin_epoch(epoch)
            log.read_done(time.perf_counter() - started, io)
            if rows != expected:
                log.mismatch(f"snapshot read: got {rows}, expected {expected}")
    finally:
        sys.setswitchinterval(interval)
    if tracer is not None:
        validate_round(tracer)
        tracer.reset()
        engine.set_tracer(None)


def _check_batch(committer: GroupCommitter, results: list, log: RoundLog) -> None:
    """One wave must ride exactly one batch of exactly the wave size, and
    its composed commit must report no assertion violation."""
    seqs = {result.batch for result in results}
    record = committer.batches[-1]
    if seqs != {record.seq} or record.size != WAVE or record.replayed:
        log.mismatch(f"wave split or replayed: batches {sorted(seqs)}, last size {record.size}")
    elif record.batch_result is None or record.batch_result.new_violations:
        log.mismatch(f"batch {record.seq} reported violations")


def final_checks(world: corp.CorpWorld) -> list[str]:
    """The oracle, then recovery: reopening the directory must give back
    every relation exactly as the acknowledged commits left it."""
    from repro.storage.database import Database

    world.committer.close()
    out = verify_state(world.model, world.db, world.views.maintainer)
    live = {rel.name: rel.contents() for rel in world.db}
    world.db.durable.close()
    reopened = Database(durable_path=world.path)
    try:
        recovered = {rel.name: rel.contents() for rel in reopened}
    finally:
        reopened.durable.close()
    if recovered.keys() != live.keys():
        out.append(f"recovered relations {sorted(recovered)} != {sorted(live)}")
    out += [f"{name} not recovered" for name in live if recovered.get(name) != live[name]]
    return out


def close(world: corp.CorpWorld) -> None:
    world.committer.close()
    world.db.durable.close()
    if os.path.isdir(world.path):
        shutil.rmtree(world.path)
