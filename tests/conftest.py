"""Shared fixtures: the paper's running example, wired end to end."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import (
    ADEPTS_SCHEMA,
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_adepts,
    generate_corporate_db,
    problem_dept_tree,
)
from repro.workload.transactions import paper_transactions

# Every Hypothesis failure prints a @reproduce_failure blob that replays it
# exactly. Exploration stays random; per-test @settings still set
# max_examples and deadline.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture(scope="session")
def paper_dag():
    """Expanded expression DAG of ProblemDept (session-scoped: read-only)."""
    return build_dag(problem_dept_tree())


@pytest.fixture(scope="session")
def paper_catalog():
    return Catalog.paper_catalog()


@pytest.fixture(scope="session")
def paper_estimator(paper_dag, paper_catalog):
    return DagEstimator(paper_dag.memo, paper_catalog)


@pytest.fixture(scope="session")
def paper_cost_model(paper_dag, paper_estimator):
    return PageIOCostModel(
        paper_dag.memo,
        paper_estimator,
        CostConfig(charge_root_update=False, root_group=paper_dag.root),
    )


@pytest.fixture(scope="session")
def paper_txns():
    return paper_transactions()


@pytest.fixture(scope="session")
def paper_groups(paper_dag):
    """Named handles on the paper's Figure 2 nodes within our DAG."""
    memo = paper_dag.memo
    emp = memo.leaf_group_id("Emp")
    dept = memo.leaf_group_id("Dept")
    join = agg = sumofsals = select = None
    for group in memo.groups():
        if group.is_leaf:
            continue
        labels = [op.label() for op in group.ops]
        names = set(group.schema.names)
        if any(label.startswith("Join") for label in labels) and "Salary" in names:
            join = group.id
        if names == {"Budget", "DName", "SalSum"} and any(
            label.startswith("Select") for label in labels
        ):
            select = group.id
        elif names == {"Budget", "DName", "SalSum"}:
            agg = group.id
        if names == {"DName", "SalSum"}:
            sumofsals = group.id
    assert None not in (join, agg, sumofsals, select)
    return {
        "Emp": emp,
        "Dept": dept,
        "join": join,  # the paper's N4 (Emp ⋈ Dept)
        "agg": agg,  # the paper's N2 (grouped by DName, Budget)
        "select": select,  # σ(SumSal > Budget)
        "SumOfSals": sumofsals,  # the paper's N3
        "root": paper_dag.root,
    }


@pytest.fixture
def small_paper_db():
    """A small, fast instance of the corporate database (20 depts × 5)."""
    db = Database()
    data = generate_corporate_db(20, 5, seed=7)
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    return db


@pytest.fixture
def full_paper_db():
    """The paper's 1000-department, 10000-employee instance."""
    db = Database()
    data = generate_corporate_db(1000, 10, seed=0)
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    return db


@pytest.fixture
def adepts_db(small_paper_db):
    small_paper_db.create_relation(
        "ADepts",
        ADEPTS_SCHEMA,
        generate_adepts(20, 4, seed=3),
        indexes=[["DName"]],
    )
    return small_paper_db
