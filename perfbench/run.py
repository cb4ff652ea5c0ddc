"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corp-oltp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (from a run that alternates traced and untraced rounds). The last
stdout line is the result object; the line before it carries the
environment metadata, sample counts and unscaled host figures. ``all``
runs every workload in its own process and prints each one's result
before a combined last line. The exit code is 0 only when every
correctness check passed; 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "chain-bulk": "chain_bulk",
    "corp-oltp": "corp_oltp",
    "serve-durable": "serve_durable",
}


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for a section of BENCHMARK.json, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        return run_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it


def run_workload(args: argparse.Namespace, scratch: str) -> int:
    import importlib

    import harness
    from hostref import HostClock
    from layers import PATH_TOLERANCE

    from repro.algebra.compile import plan_cache

    workload = importlib.import_module(WORKLOADS[args.workload])
    clock = HostClock()
    setups: list[dict[str, float]] = []
    world = None
    for _ in range(workload.N_SETUPS):
        if world is not None:
            workload.close(world)
            world = None
            gc.collect()  # free the discarded set-up before building the next
        timer = harness.SetupTimer(clock)
        world = workload.build(timer, args.seed, scratch)
        setups.append(timer.phases)

    maintainer = world.views.maintainer
    durable = world.db.durable
    pc, cc = plan_cache(), maintainer.commit_cache_stats
    plan_before = (pc.hits, pc.misses)
    commit_before = (cc.hits, cc.misses)
    durable_before = durable.stats.snapshot() if durable is not None else None

    totals = harness.measure(workload, world, clock, args.seconds, bool(args.trace))

    views_chosen = len(maintainer.marking)
    view_rows = harness.view_rows(maintainer)
    durable_delta = durable.stats.since(durable_before) if durable is not None else None
    failures = workload.final_checks(world)
    workload.close(world)

    mismatches = totals.mismatches + failures
    path_error = totals.layers.path_error()
    if args.trace and path_error > PATH_TOLERANCE:
        mismatches.append(
            f"commit-path self times miss the measured latency by {path_error:.1%}"
        )
    failed = len(mismatches)
    attempted = max(totals.attempted, 1)

    if args.trace:
        metrics = layer_metrics(
            totals,
            setups,
            clock,
            views_chosen=views_chosen,
            view_rows=view_rows,
            plan=(pc.hits - plan_before[0], pc.misses - plan_before[1]),
            commit_cache=(cc.hits - commit_before[0], cc.misses - commit_before[1]),
            durable=durable_delta,
        )
        units = metric_units("per_layer")
    else:
        metrics = {
            "setup_s": statistics.median([sum(p.values()) for p in setups]),
            "throughput_ops_s": totals.ops / totals.scaled_s,
            "commit_p50_ms": harness.percentile(totals.commit_ms, 50),
            "commit_p95_ms": harness.percentile(totals.commit_ms, 95),
            "read_p50_ms": harness.percentile(totals.read_ms, 50),
            "read_p95_ms": harness.percentile(totals.read_ms, 95),
            "page_io_per_commit": totals.commit_io.total / len(totals.commit_ms),
            "peak_rss_mb": harness.peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = metric_units("end_to_end")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": harness.environment(ROOT),
        "samples": {
            "setups": len(setups),
            "rounds": totals.rounds,
            "commits": len(totals.commit_ms),
            "reads": len(totals.read_ms),
            "host_ref": len(clock.samples_ms),
        },
        "host_ref_ms": {
            "median": statistics.median(clock.samples_ms),
            "min": min(clock.samples_ms),
            "max": max(clock.samples_ms),
        },
        "setup_phases_s": setups,
        "rejected": totals.rejected,
        "path_error": path_error,
        "mismatches": mismatches[:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    harness.emit(result, detail)
    return 0 if failed == 0 else 1


def layer_metrics(
    totals, setups, clock, *, views_chosen, view_rows, plan, commit_cache, durable
) -> dict[str, float]:
    def rate(pair: tuple[int, int]) -> float:
        return pair[0] / (pair[0] + pair[1]) if pair[0] + pair[1] else 0.0

    def phase(name: str) -> float:
        return statistics.median([p.get(name, 0.0) for p in setups])

    commits = max(len(totals.commit_ms), 1)
    engine_commits = max(totals.engine_commits, 1)
    reads = len(totals.read_ms)
    io = totals.commit_io
    out = totals.layers.metrics()
    out.update(
        {
            "core.optimize_s": phase("core.optimize"),
            "ivm.materialize_s": phase("ivm.materialize"),
            "storage.load_s": phase("storage.load"),
            "core.views_chosen": views_chosen,
            "storage.view_rows": view_rows,
            "ivm.commit_cache_hit_rate": rate(commit_cache),
            "algebra.plan_cache_hit_rate": rate(plan),
            "storage.tuple_reads": io.tuple_reads / commits,
            "storage.index_reads": io.index_reads / commits,
            "storage.tuple_writes": io.tuple_writes / commits,
            "storage.index_writes": io.index_writes / commits,
            "engine.select_ms": sum(totals.read_ms) / reads if reads else 0.0,
            "engine.select_io": totals.read_io / reads if reads else 0.0,
            "env.host_ref_ms": statistics.median(clock.samples_ms),
            "env.trace_overhead": trace_overhead(totals),
        }
    )
    d = durable or {}
    out.update(
        {
            "durable.wal_bytes": d.get("wal_bytes", 0) / engine_commits,
            "durable.page_writes": d.get("page_writes", 0) / engine_commits,
            "durable.evictions": d.get("evictions", 0) / engine_commits,
            "durable.pool_hit_rate": rate((d.get("pool_hits", 0), d.get("pool_misses", 0))),
            "durable.checkpoints": d.get("checkpoints", 0) * 1000 / engine_commits,
        }
    )
    return out


def trace_overhead(totals) -> float:
    """Traced over untraced commit throughput, from interleaved rounds:
    the ratio of median commit latencies, so a collector pause in one
    commit does not decide it."""
    traced, untraced = totals.commit_ms_by_trace[True], totals.commit_ms_by_trace[False]
    if not traced or not untraced:
        return 0.0
    return statistics.median(untraced) / statistics.median(traced)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"{name}: {json.dumps(result)}")
        code = code or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
