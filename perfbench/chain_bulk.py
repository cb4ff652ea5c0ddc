"""chain-bulk: bulk 200-row modifications of a five-way chain join.

Bulk deltas put most commit time into delta propagation (the maintainer's
fetch queries) and storage write-back (row apply and index upkeep), and
the optimizer does real work at set-up. Per-commit fixed overhead is
negligible here. A point read of the root view after every commit keeps
a read latency on this workload too; reads take about a third of its
time.

A round is a single commit or read: the shortest unit, so the host
brackets around it follow host drift closely.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from harness import RoundLog, SetupTimer, Views, build_views, run_client, verify_state

from repro.algebra.multiset import Multiset
from repro.algebra.operators import Scan, Select
from repro.algebra.predicates import Compare
from repro.algebra.scalar import col, lit
from repro.engine import Engine, ImmediatePolicy
from repro.ivm.delta import Delta
from repro.workload.generators import chain_schema, chain_view, generate_chain_data
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

NAME = "chain-bulk"
#: set-up takes seconds; three fresh ones per run give its median
N_SETUPS = 3
#: view rows replaced by commits end up scattered through the heap, which
#: slows view scans; 200 commits reach that steady state before timing
WARMUP_ROUNDS = 400
#: rounds a run at nominal host speed completes per second
ROUNDS_PER_S = 90
#: a read every second round: 400 rounds give the 200 reads a p95 needs
MIN_ROUNDS = 400
K = 5
ROWS = 30_000
BATCH = 200
#: the dataset is fixed; ``--seed`` drives the transaction and read stream,
#: so every seed runs against the same data and plan
DATA_SEED = 0


class ChainModel:
    """R1..Rk as the generator believes them to be, keyed by K{i}."""

    def __init__(self, data: dict[str, list[tuple]]) -> None:
        self.rel = {name: {row[1]: row for row in rows} for name, rows in data.items()}

    def modify(self, rng: random.Random, i: int) -> Transaction:
        """A BATCH-row change of V{i} on distinct random rows of R{i}."""
        rows = self.rel[f"R{i}"]
        pairs = []
        for key in rng.sample(range(ROWS), BATCH):
            old = rows[key]
            new = (old[0], old[1], old[2] + rng.choice((-1, 1)) * rng.randint(1, 5))
            rows[key] = new
            pairs.append((old, new))
        return Transaction(f">R{i}", {f"R{i}": Delta.modification(pairs)})

    def view_row(self, names: tuple[str, ...], key: int) -> Multiset:
        """The one chain-join row whose K{k} is ``key``: follow the
        references back from R{k} to R1."""
        values = {}
        for i in range(K, 0, -1):
            prev, key, v = self.rel[f"R{i}"][key]
            values.update({f"K{i}": key, f"V{i}": v, f"K{i-1}": prev})
            key = prev
        return Multiset([tuple(values[n] for n in names)])

    def mismatches(self, db) -> list[str]:
        return [
            f"{name} differs from the generator's state"
            for name, rows in self.rel.items()
            if db.relation(name).contents() != Multiset(rows.values())
        ]


@dataclass
class ChainWorld:
    db: object
    views: Views
    engine: object
    model: ChainModel
    root_view: Scan
    rng: random.Random
    rounds: int = 0


def txn_types() -> list[TransactionType]:
    return [
        TransactionType(
            f">R{i}",
            {f"R{i}": UpdateSpec(modifies=BATCH, modified_columns=frozenset({f"V{i}"}))},
        )
        for i in range(1, K + 1)
    ]


@functools.cache
def dataset() -> dict[str, list[tuple]]:
    """The fixed input rows, generated once per process (rows are tuples,
    so set-ups can share them)."""
    return generate_chain_data(K, ROWS, DATA_SEED)


def build(timer: SetupTimer, seed: int, scratch: str) -> ChainWorld:
    from repro.storage.database import Database

    data = dataset()
    db = Database()
    for i in range(1, K + 1):
        # one bracket per relation: short phases track host drift better
        with timer.phase("storage.load"):
            db.create_relation(
                f"R{i}", chain_schema(i), data[f"R{i}"], indexes=[[f"K{i-1}"], [f"K{i}"]]
            )
    views = build_views(timer, db, {"V": chain_view(K)}, txn_types(), False)
    with timer.phase("engine.build"):
        engine = Engine(views.maintainer, policy=ImmediatePolicy())
    maintainer = views.maintainer
    root = views.roots["V"]
    root_view = Scan(maintainer.view_name(root), maintainer.memo.group(root).schema)
    return ChainWorld(db, views, engine, ChainModel(data), root_view, random.Random(seed))


def plan_round(world: ChainWorld) -> list[tuple]:
    """Odd rounds commit >R1 .. >R5 in turn; even rounds read the root
    view."""
    rng, model = world.rng, world.model
    world.rounds += 1
    if world.rounds % 2:
        return [("commit", model.modify(rng, 1 + world.rounds // 2 % K), True)]
    key = rng.randrange(ROWS)
    query = Select(world.root_view, Compare("=", col(f"K{K}"), lit(key)))
    return [("read", query, model.view_row(world.root_view.schema.names, key))]


def run_round(world: ChainWorld, ops: list[tuple], log: RoundLog, tracer) -> None:
    run_client(world.engine, ops, log, tracer)


def final_checks(world: ChainWorld) -> list[str]:
    return verify_state(world.model, world.db, world.views.maintainer)


def close(world: ChainWorld) -> None:
    return None
