"""The paper's Section 3.6 corporate database, shared by corp-oltp and
serve-durable: generator, oracle and set-up.

``CorpModel`` is the generator's own logical state. It draws single-row
salary and budget changes and predicts each one's outcome from its
per-department salary sums and budgets, so a rejection by the
``DeptConstraint`` assertion is checked against a prediction rather than
assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from harness import BenchError, SetupTimer, Views, build_views

from repro.algebra.multiset import Multiset
from repro.algebra.operators import Scan, Select
from repro.algebra.predicates import Compare
from repro.algebra.scalar import col, lit
from repro.ivm.delta import Delta
from repro.shell import DEPT_CONSTRAINT
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, generate_corporate_db
from repro.workload.transactions import Transaction, paper_transactions

N_DEPTS = 1000
EMPS_PER_DEPT = 10
#: budgets above ten maximum salaries, so the assertion holds at load time
BUDGET_RANGE = (800, 1200)
#: the dataset is fixed; ``--seed`` drives the operation stream, so every
#: seed runs against the same data and plan
DATA_SEED = 0


class CorpModel:
    """Dept and Emp as the generator believes them to be."""

    def __init__(self, data: dict[str, list[tuple]]) -> None:
        self.dept = {row[0]: row for row in data["Dept"]}
        self.emp = {row[0]: row for row in data["Emp"]}
        self.staff: dict[str, list[str]] = {d: [] for d in self.dept}
        self.salsum = dict.fromkeys(self.dept, 0)
        for ename, dname, salary in data["Emp"]:
            self.staff[dname].append(ename)
            self.salsum[dname] += salary
        self.dnames = sorted(self.dept)

    def write(
        self, rng: random.Random, dname: str, on_emp: bool, violate: bool
    ) -> tuple[Transaction, bool]:
        """One single-row change in department ``dname`` and whether the
        assertion admits it; an admitted change is applied to the model."""
        budget = self.dept[dname][2]
        total = self.salsum[dname]
        if on_emp:
            old = self.emp[rng.choice(self.staff[dname])]
            if violate:
                change = budget - total + rng.randint(1, 20)
            else:
                change = rng.choice((-1, 1)) * rng.randint(1, 10)
                if total + change > budget or old[2] + change < 1:
                    change = -change
            new = (old[0], old[1], old[2] + change)
            ok = total + change <= budget
            if ok:
                self.emp[old[0]] = new
                self.salsum[dname] = total + change
            return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}), ok
        old = self.dept[dname]
        if violate:
            target = total - rng.randint(1, 20)
        else:
            target = budget + rng.choice((-1, 1)) * rng.randint(1, 50)
            if target < total:
                target = budget + (budget - target)
        new = (old[0], old[1], target)
        ok = total <= target
        if ok:
            self.dept[dname] = new
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])}), ok

    def expected_sum(self, dname: str) -> Multiset:
        return Multiset([(dname, self.salsum[dname])])

    def mismatches(self, db) -> list[str]:
        """Base relations against the model."""
        out = []
        for name, rows in (("Dept", self.dept), ("Emp", self.emp)):
            if db.relation(name).contents() != Multiset(rows.values()):
                out.append(f"{name} differs from the generator's state")
        return out


@dataclass
class CorpWorld:
    db: object
    views: Views
    model: CorpModel
    sums_view: Scan
    rng: random.Random
    engine: object = None
    #: serve-durable only: the group committer and the data directory
    committer: object = None
    path: str | None = None


def setup(timer: SetupTimer, seed: int, durable_path: str | None = None) -> CorpWorld:
    """Load the dataset, then translate, optimize and materialize the
    assertion's view set, each step timed as its own phase."""
    from repro.sql.translate import translate_sql
    from repro.storage.database import Database

    data = generate_corporate_db(
        N_DEPTS, EMPS_PER_DEPT, seed=DATA_SEED, budget_range=BUDGET_RANGE
    )
    with timer.phase("storage.load"):
        db = Database(durable_path=durable_path, wal_sync="normal" if durable_path else None)
        db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    with timer.phase("sql.translate"):
        assertion = translate_sql(DEPT_CONSTRAINT, {r.name: r.schema for r in db})
    views = build_views(
        timer, db, {assertion.name: assertion.expr}, paper_transactions(), True
    )
    return CorpWorld(db, views, CorpModel(data), _sums_view(views), random.Random(seed))


def _sums_view(views: Views) -> Scan:
    """The materialized per-department salary sums (the paper's SumOfSals)."""
    maintainer = views.maintainer
    roots = set(views.roots.values())
    for gid in sorted(maintainer.marking - roots):
        schema = maintainer.memo.group(gid).schema
        if schema.names[0] == "DName" and len(schema.names) == 2:
            return Scan(maintainer.view_name(gid), schema)
    raise BenchError("the optimizer did not materialize SumOfSals")


def sums_query(world: CorpWorld, dname: str) -> Select:
    return Select(world.sums_view, Compare("=", col("DName"), lit(dname)))
