"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The end-to-end cases run every workload at its minimum length on a seed
other than the one used while tuning, in both modes, and require every
correctness check to pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
from layers import LayerTotals  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.1",
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload, trace):
    proc = run(workload, seed=2, trace=trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in section
    ]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_page_io_repeats_exactly_for_a_seed(workload):
    values = []
    for _ in range(2):
        proc = run(workload, seed=3, trace=0)
        assert proc.returncode == 0, proc.stderr[-2000:]
        values.append(json.loads(proc.stdout.splitlines()[-1])["metrics"]["page_io_per_commit"])
    assert values[0] == values[1]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("corp-oltp", seed=1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_add_up_to_the_root_span():
    from repro.obs.trace import Tracer

    tracer = Tracer()
    with tracer.span("engine.execute") as root:
        with tracer.span("txn"):
            with tracer.span("track_op"):
                with tracer.span("fetch", keys=3):
                    sum(range(10_000))
            with tracer.span("base_apply"):
                sum(range(10_000))
    totals = LayerTotals()
    totals.add_commit(root, latency=root.seconds, scale=1.0)
    assert totals.path_error() < 1e-9
    metrics = totals.metrics()
    assert metrics["ivm.fetch_keys"] == 3
    parts = ("engine.txn_self_ms", "ivm.track_op_self_ms", "ivm.fetch_ms", "storage.base_apply_ms")
    assert sum(metrics[p] for p in parts) == pytest.approx(root.seconds * 1e3)


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(harness.BenchError):
        harness.percentile([float(i) for i in range(100)], 95)
    assert harness.percentile([float(i) for i in range(1, 201)], 95) == 190.0
    assert harness.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_corp_model_predicts_assertion_outcomes():
    import random

    import corp

    from repro.workload.paperdb import generate_corporate_db

    data = generate_corporate_db(5, 10, seed=0, budget_range=corp.BUDGET_RANGE)
    model = corp.CorpModel(data)
    rng = random.Random(0)
    dname = model.dnames[0]
    for on_emp in (True, False):
        before = (dict(model.dept), dict(model.emp), dict(model.salsum))
        _, ok = model.write(rng, dname, on_emp=on_emp, violate=True)
        assert not ok
        assert (model.dept, model.emp, model.salsum) == before
        _, ok = model.write(rng, dname, on_emp=on_emp, violate=False)
        assert ok
        assert model.salsum[dname] <= model.dept[dname][2]


def test_chain_model_reads_match_the_view():
    import chain_bulk

    from repro.algebra.evaluate import evaluate
    from repro.storage.database import Database
    from repro.workload.generators import chain_schema, chain_view, generate_chain_data

    data = generate_chain_data(chain_bulk.K, 40, seed=0)
    db = Database()
    for i in range(1, chain_bulk.K + 1):
        db.create_relation(f"R{i}", chain_schema(i), data[f"R{i}"])
    view = chain_view(chain_bulk.K)
    contents = evaluate(view, db)
    model = chain_bulk.ChainModel(data)
    names = view.schema.names
    last = names.index(f"K{chain_bulk.K}")
    for key in range(40):
        expected = [row for row in contents.rows() if row[last] == key]
        assert list(model.view_row(names, key).rows()) == expected
