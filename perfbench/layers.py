"""Reduce the traced run's spans to the per-layer metrics.

A span is ``[name, start_ns, end_ns, id, parent_id, trace_id, thread,
facts]``; ids are unique per process.  Self time is a span's duration
minus the time its direct child spans cover.  Unless a metric says
otherwise it is taken over the spans that start inside the timed phase;
the set-up metrics (``*.open_s``, ``build_s``, ``materialize_s``, ...)
over the launch, from spawn to the warm-up response.  A metric whose
layer the workload never enters is ``None`` here ("n/a" in the report).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

#: (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("cli.protocol_us", "us"), ("cli.render_us", "us"),
    ("sched.queue_wait_us", "us"), ("sched.queue_wait_us.p99", "us"),
    ("sched.batch_size", "count"), ("sched.coalesced_share", "fraction"),
    ("sched.busy_s", "s"), ("sched.rejected", "count"),
    ("sched.sharded.scatter_us", "us"), ("sched.sharded.merge_us", "us"),
    ("sched.sharded.busy_ratio", "ratio"),
    ("sched.sharded.worker_mem_mb", "MB"), ("sched.sharded.failed", "count"),
    ("serve.acquire_us", "us"), ("serve.swap_ms", "ms"),
    ("serve.degraded", "count"),
    ("api.score_us", "us"), ("api.score_batch_us", "us"),
    ("api.batch_candidates", "count"), ("api.top_k_us", "us"),
    ("api.with_mutations_ms", "ms"), ("api.open_s", "s"),
    ("core.topk.self_us", "us"), ("core.topk.scored_share", "fraction"),
    ("core.montecarlo.batch_self_us", "us"),
    ("core.montecarlo.first_batch_ms", "ms"),
    ("core.montecarlo.sem_gate_share", "fraction"),
    ("core.montecarlo.walks_met_share", "fraction"),
    ("core.montecarlo.walks_pruned_share", "fraction"),
    ("core.walk_index.first_meetings_us", "us"),
    ("core.walk_index.build_s", "s"),
    ("backends.kernel_us", "us"), ("backends.rows", "count"),
    ("backends.ns_per_row", "ns"),
    ("core.dynamic.promote_ms", "ms"), ("core.dynamic.mutate_ms", "ms"),
    ("core.dynamic.walks_resampled", "count"),
    ("semantics.materialize_s", "s"),
    ("store.open_s", "s"), ("store.shard_check_s", "s"),
    ("trace.overhead", "fraction"), ("trace.unattributed_share", "fraction"),
]


def nearest_rank(values, q: float) -> float:
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[max(int(np.ceil(q * ordered.size)) - 1, 0)])


def _median(values):
    return float(np.median(values)) if len(values) else None


def _mean(values):
    return float(np.mean(values)) if len(values) else None


def load_spans(directory: Path) -> list:
    """Every process's spans, each tagged with its pid."""
    spans = []
    for path in sorted(directory.glob("spans-*.json")):
        data = json.loads(path.read_text())
        pid = data["pid"]
        spans.extend([*record, pid] for record in data["spans"])
    return spans


class _Index:
    def __init__(self, spans: list, setup: tuple, timed: tuple) -> None:
        self.spans = spans
        self.setup = setup
        self.timed = timed
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for span in spans:
            self.by_name[span[0]].append(span)
            if span[4]:
                self.children[(span[8], span[4])].append(span)

    def named(self, name: str, window: str = "timed") -> list:
        lo, hi = self.setup if window == "setup" else self.timed
        return [s for s in self.by_name[name] if lo <= s[1] <= hi]

    def durations(self, name: str, scale: float) -> list:
        return [(s[2] - s[1]) / scale for s in self.named(name)]

    def self_times(self, name: str, scale: float) -> list:
        out = []
        for span in self.named(name):
            inner = sum(c[2] - c[1] for c in self.children[(span[8], span[3])])
            out.append((span[2] - span[1] - inner) / scale)
        return out

    def setup_total(self, name: str):
        spans = self.named(name, "setup")
        return sum(s[2] - s[1] for s in spans) / 1e9 if spans else None


def _counter(dump: dict, name: str, **labels) -> float:
    family = dump.get("counters", {}).get(name, {})
    return sum(
        sample["value"] for sample in family.get("samples", [])
        if all(sample["labels"].get(k, "").startswith(v)
               for k, v in labels.items())
    )


def _share(part: float, whole: float):
    return part / whole if whole else None


def _union_ns(intervals: list, lo: int, hi: int) -> int:
    covered, edge = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            covered += end - start
            edge = end
    return covered


def reduce(
    spans: list,
    setup: tuple,
    timed: tuple,
    reads: list,
    dump: dict,
    worker_pss: dict,
    qps_traced: float,
    qps_plain: float,
) -> dict:
    """Per-layer metrics of one traced session.

    *reads* holds ``(seq, sent_ns, received_ns, response, line)`` for
    each timed read line: the server's submission number, the client's
    times, the parsed response and the line's place among every line of
    the session (which is also the printer's response order);
    *worker_pss* the PSS in MB of each shard worker at the end of the
    timed phase.
    """
    ix = _Index(spans, setup, timed)
    m: dict = {}

    requests = {s[7]["seq"]: s for s in ix.by_name["sched.request"]}
    protocol = [
        (received - sent - (requests[seq][2] - requests[seq][1])) / 1e3
        for seq, sent, received, _, _ in reads if seq in requests
    ]
    m["cli.protocol_us"] = _median(protocol)

    # The printer thread renders each response: as_dict, then dumps.
    dumps = ix.by_name["cli.dumps"]
    printer = max(
        {s[6] for s in dumps}, key=lambda t: sum(s[6] == t for s in dumps)
    ) if dumps else None
    render_spans = sorted(
        (s for s in ix.by_name["cli.as_dict"] + dumps if s[6] == printer),
        key=lambda s: s[1],
    )
    renders, pending, render_intervals = [], [], []
    for span in render_spans:
        pending.append(span)
        if span[0] == "cli.dumps":
            render_intervals.append([(s[1], s[2]) for s in pending])
            if ix.timed[0] <= span[1] <= ix.timed[1]:
                renders.append(sum(s[2] - s[1] for s in pending) / 1e3)
            pending = []
    m["cli.render_us"] = _median(renders)

    plans = ix.named("sched.plan_groups")
    read_seqs = {seq for seq, *_ in reads}
    queued = [r for p in plans for r in p[7]["requests"] if r[0] in read_seqs]
    waits = [(r[2] - r[1]) * 1e6 for r in queued]
    m["sched.queue_wait_us"] = _median(waits)
    m["sched.queue_wait_us.p99"] = nearest_rank(waits, 0.99) if waits else None
    m["sched.batch_size"] = _mean([p[7]["n"] for p in plans])
    scores = [r for r in queued if r[4] == "score"]
    m["sched.coalesced_share"] = _share(
        sum(r[3] > 1 for r in scores), len(scores))
    # A worker is busy from taking a batch until its last request is done.
    busy = [
        max(requests[r[0]][2] for r in p[7]["requests"]) - p[1]
        for p in plans if p[7]["requests"]
    ]
    m["sched.busy_s"] = sum(busy) / 1e9 if plans else None
    m["sched.rejected"] = _counter(dump, "serve_requests_total",
                                   outcome="rejected")

    shard_spans = (ix.named("sched.sharded.top_k_positions")
                   + ix.named("sched.sharded.score_positions"))
    sharded = bool(shard_spans)
    timings = [r[3].get("timings", {}) for r in reads]
    m["sched.sharded.scatter_us"] = _median(
        [t["scatter_us"] for t in timings if "scatter_us" in t]
    ) if sharded else None
    m["sched.sharded.merge_us"] = _median(
        [t["merge_us"] for t in timings if "merge_us" in t]
    ) if sharded else None
    per_worker = defaultdict(int)
    for span in shard_spans:
        if not span[4]:
            per_worker[span[8]] += span[2] - span[1]
    m["sched.sharded.busy_ratio"] = (
        max(per_worker.values()) / np.mean(list(per_worker.values()))
        if per_worker else None)
    m["sched.sharded.worker_mem_mb"] = (
        max(worker_pss.values()) if sharded and worker_pss else None)
    m["sched.sharded.failed"] = (
        _counter(dump, "shard_requests_total")
        - _counter(dump, "shard_requests_total", outcome="ok")
    ) if sharded else None

    m["serve.acquire_us"] = _median(ix.durations("serve.acquire", 1e3))
    m["serve.swap_ms"] = _median(ix.durations("serve.apply_mutations", 1e6))
    m["serve.degraded"] = sum(bool(r[3].get("degraded")) for r in reads)

    m["api.score_us"] = _median(ix.durations("api.score", 1e3))
    m["api.score_batch_us"] = _median(ix.durations("api.score_batch", 1e3))
    m["api.batch_candidates"] = _mean(
        [s[7]["m"] for s in ix.named("api.score_batch")])
    m["api.top_k_us"] = _median(ix.durations("api.top_k", 1e3))
    m["api.with_mutations_ms"] = _median(
        ix.durations("api.with_mutations", 1e6))
    m["api.open_s"] = ix.setup_total("api.open")

    topk = ix.named("core.topk.top_k_similar")
    m["core.topk.self_us"] = _median(
        ix.self_times("core.topk.top_k_similar", 1e3))
    m["core.topk.scored_share"] = _share(
        sum(s[7]["scored"] for s in topk), sum(s[7]["offered"] for s in topk))

    m["core.montecarlo.batch_self_us"] = _median(
        ix.self_times("core.montecarlo.similarity_batch", 1e3))
    firsts = [
        (s[2] - s[1]) / 1e6 for s in ix.by_name[
            "core.montecarlo.similarity_batch"]
        if s[7]["first"] and ix.setup[0] <= s[1] <= ix.timed[1]
    ]
    m["core.montecarlo.first_batch_ms"] = _median(firsts)
    estimator = dict(method="mc", estimator="semsim")
    m["core.montecarlo.sem_gate_share"] = _share(
        _counter(dump, "estimator_sem_gate_hits_total", **estimator),
        _counter(dump, "estimator_queries_total", **estimator))
    met = _counter(dump, "estimator_walks_met_total", **estimator)
    m["core.montecarlo.walks_met_share"] = _share(
        met, _counter(dump, "estimator_walks_examined_total", **estimator))
    m["core.montecarlo.walks_pruned_share"] = _share(
        _counter(dump, "estimator_walks_pruned_total", **estimator), met)

    m["core.walk_index.first_meetings_us"] = _median(
        ix.durations("core.walk_index.first_meetings_batch", 1e3))
    m["core.walk_index.build_s"] = ix.setup_total("core.walk_index.build")

    kernels = ix.named("backends.batch_walk_scores")
    rows = sum(s[7]["rows"] for s in kernels)
    m["backends.kernel_us"] = _median(
        ix.durations("backends.batch_walk_scores", 1e3))
    m["backends.rows"] = _mean([s[7]["rows"] for s in kernels])
    m["backends.ns_per_row"] = (
        sum(s[2] - s[1] for s in kernels) / rows if rows else None)

    m["core.dynamic.promote_ms"] = _median(
        ix.durations("core.dynamic.from_walk_index", 1e6))
    m["core.dynamic.mutate_ms"] = _median(
        ix.durations("core.dynamic.mutate", 1e6))
    m["core.dynamic.walks_resampled"] = _mean(
        [s[7]["resampled"] for s in ix.named("core.dynamic.mutate")])

    m["semantics.materialize_s"] = ix.setup_total("semantics.from_measure")
    m["store.open_s"] = ix.setup_total("store.read_artifact")
    m["store.shard_check_s"] = ix.setup_total("store.validate_shard_set")

    m["trace.overhead"] = qps_traced / qps_plain - 1.0
    # Latency no layer span covers: the pipes, the reader thread before
    # submit, and the in-order wait between completion and rendering.
    covered = total = 0
    for seq, sent, received, _, line in reads:
        intervals = list(render_intervals[line]) if line < len(
            render_intervals) else []
        if seq in requests:
            intervals.append((requests[seq][1], requests[seq][2]))
        covered += _union_ns(intervals, sent, received)
        total += received - sent
    m["trace.unattributed_share"] = 1.0 - covered / total if total else None
    return m
