"""Per-layer split of traced commits.

A layer's self time is its span's duration minus the part its child spans
cover, so the self times of one commit's span tree add up to the root
span's duration. In chain-bulk and corp-oltp the benchmark opens the root
itself (``engine.execute`` around ``Engine.execute``) and checks the tree
against its own clock: the self times must cover the commit latency it
measured within 5%. In serve-durable the root is the committer's
``group_commit`` span and a rider's queue wait is, by definition, the part
of its submit-to-resolve latency that span does not cover.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

#: span name -> per-layer metric its self time is charged to
SPAN_METRIC = {
    "engine.execute": "engine.txn_self_ms",
    "txn": "engine.txn_self_ms",
    "defer": "engine.txn_self_ms",
    "rollback": "engine.rollback_ms",
    "track_op": "ivm.track_op_self_ms",
    "fetch": "ivm.fetch_ms",
    "base_apply": "storage.base_apply_ms",
    "view_apply": "storage.view_apply_ms",
    "assertion_check": "constraints.check_ms",
    "wal_append": "durable.wal_append_ms",
    "wal_fsync": "durable.wal_fsync_ms",
    "page_apply": "durable.page_apply_ms",
    "checkpoint_pages": "durable.checkpoint_ms",
    "checkpoint_record": "durable.checkpoint_ms",
    "group_commit": "server.group_commit_self_ms",
}

#: metrics reported per traced commit (the rest have their own base)
PER_COMMIT = sorted(
    set(SPAN_METRIC.values()) - {"engine.rollback_ms", "durable.checkpoint_ms"}
)

#: the commit-path self times must sum to the external latency within this
PATH_TOLERANCE = 0.05


def self_seconds(span) -> float:
    return span.seconds - sum(child.seconds for child in span.children)


class LayerTotals:
    """Scaled per-layer self times pooled over traced commits."""

    def __init__(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)
        self.commits = 0
        self.rejected = 0
        self.checkpoints = 0
        self.fetch_keys = 0
        self.path_s = 0.0
        self.latency_s = 0.0
        self.batch_sizes: list[int] = []
        self.queue_wait_ms: list[float] = []

    def add_commit(self, root, latency: float, scale: float, wait: float = 0.0) -> None:
        """Fold one commit's span tree; ``latency`` is the benchmark's own
        measurement of it and ``wait`` any time the commit spent queued
        before its root span opened (both raw seconds)."""
        self.commits += 1
        path = wait
        for span in root.walk():
            own = self_seconds(span)
            path += own
            metric = SPAN_METRIC.get(span.name)
            if metric is not None:
                self.ms[metric] += own * 1e3 * scale
            if span.name == "fetch":
                self.fetch_keys += int(span.attrs.get("keys", 0))
            elif span.name == "rollback":
                self.rejected += 1
            elif span.name == "checkpoint_record":
                self.checkpoints += 1
        self.path_s += path
        self.latency_s += latency

    def add_batch(self, size: int, waits: list[float], scale: float) -> None:
        self.batch_sizes.append(size)
        self.queue_wait_ms += [w * 1e3 * scale for w in waits]

    def path_error(self) -> float:
        """Relative gap between summed self times and external latency."""
        if not self.latency_s:
            return 0.0
        return abs(self.path_s - self.latency_s) / self.latency_s

    def metrics(self) -> dict[str, float]:
        n = max(self.commits, 1)
        out = {name: self.ms.get(name, 0.0) / n for name in PER_COMMIT}
        out["engine.rollback_ms"] = (
            self.ms.get("engine.rollback_ms", 0.0) / self.rejected if self.rejected else 0.0
        )
        out["durable.checkpoint_ms"] = (
            self.ms.get("durable.checkpoint_ms", 0.0) / self.checkpoints
            if self.checkpoints
            else 0.0
        )
        out["ivm.fetch_keys"] = self.fetch_keys / n
        out["server.batch_size"] = (
            sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0
        )
        out["server.queue_wait_ms"] = (
            sum(self.queue_wait_ms) / len(self.queue_wait_ms) if self.queue_wait_ms else 0.0
        )
        return out


def validate_round(tracer) -> None:
    """Schema-check the round's trace before it is reset."""
    from repro.obs.trace import trace_to_json, validate_trace

    validate_trace(trace_to_json(tracer))


def closed_roots(tracer) -> list[Any]:
    """The round's root spans, once every one has exited.

    ``Tracer`` keeps one span stack for all threads; the committer thread
    resolves its riders from inside its ``group_commit`` span, so the
    client thread may wake before that span has closed. Reset only after it
    has.
    """
    import time

    deadline = time.monotonic() + 10.0
    while any(root.seconds == 0.0 for root in tracer.roots):
        if time.monotonic() > deadline:
            raise RuntimeError("a traced span never closed")
        time.sleep(0)
    return list(tracer.roots)
