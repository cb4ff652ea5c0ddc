"""corp-oltp: one client, single-row commits checked by an assertion, with
point reads of a materialized view in between.

One-row deltas make the fixed per-commit cost dominate: the engine,
policy, undo journal, plan and commit caches and the assertion check,
while bulk storage work is tiny. Reads beside writes expose a change that
speeds commits at the cost of reads, or the reverse.
"""

from __future__ import annotations

import corp
from harness import RoundLog, SetupTimer, run_client, verify_state

from repro.engine import Engine, EnforcingPolicy

NAME = "corp-oltp"
#: set-up takes a few tenths of a second, so setup_s is a median of many
N_SETUPS = 15
WARMUP_ROUNDS = 1
#: rounds a run at nominal host speed completes per second
ROUNDS_PER_S = 44
#: 30 reads a round on average
MIN_ROUNDS = 20
ROUND_OPS = 100
WRITE_SHARE = 0.7
#: share of writes drawn to break the assertion (each predicted rejected)
VIOLATE_SHARE = 0.01


def build(timer: SetupTimer, seed: int, scratch: str) -> corp.CorpWorld:
    world = corp.setup(timer, seed)
    with timer.phase("engine.build"):
        world.engine = Engine(
            world.views.maintainer,
            policy=EnforcingPolicy(),
            assertion_roots=world.views.roots,
        )
    return world


def plan_round(world: corp.CorpWorld) -> list[tuple]:
    rng, model = world.rng, world.model
    ops = []
    for _ in range(ROUND_OPS):
        dname = rng.choice(model.dnames)
        if rng.random() < WRITE_SHARE:
            txn, ok = model.write(
                rng, dname, on_emp=rng.random() < 0.5, violate=rng.random() < VIOLATE_SHARE
            )
            ops.append(("commit", txn, ok))
        else:
            ops.append(("read", corp.sums_query(world, dname), model.expected_sum(dname)))
    return ops


def run_round(world: corp.CorpWorld, ops: list[tuple], log: RoundLog, tracer) -> None:
    run_client(world.engine, ops, log, tracer)


def final_checks(world: corp.CorpWorld) -> list[str]:
    return verify_state(world.model, world.db, world.views.maintainer)


def close(world: corp.CorpWorld) -> None:
    return None
