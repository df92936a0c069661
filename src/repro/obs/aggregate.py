"""Mergeable registry snapshots — the cross-process aggregation algebra.

A *snapshot* is a plain-dict, pickle/JSON-safe capture of one
:class:`~repro.obs.registry.MetricsRegistry` at a point in time:

.. code-block:: python

    {
        "version": 1,
        "ts": 1723111111.0,          # capture wall time
        "pid": 4242,                 # capturing process
        "families": {
            "kernel_seconds": {
                "kind": "histogram",
                "help": "...",
                "labelnames": ["backend", "kernel"],
                "buckets": [0.0001, ...],          # upper bounds, no +Inf
                "samples": [
                    {"labels": {"backend": "blocked", "kernel": "batch_walk_scores"},
                     "counts": [3, 1, ..., 0],     # RAW per-bucket, last = +Inf
                     "sum": 0.0123, "count": 4},
                ],
            },
            ...
        },
    }

Counter/gauge samples carry ``{"labels": ..., "value": ...}`` instead
(gauge samples additionally carry the capture ``ts`` once folded, so
"latest write wins" survives multi-source merges).

The algebra this module provides, used by
:class:`~repro.sched.sharded.ShardedRuntime` to fold shard-worker
registries into the router's view:

* :func:`collect_snapshot` — capture a registry (histograms keep their
  **raw** bucket counts, which is what makes merging exact);
* :func:`snapshot_diff` — ``after - before`` for counters and histogram
  buckets (a shrinking value means the source process restarted, and the
  ``after`` state is taken whole); gauges report their latest value;
* :func:`fold_snapshot` — merge one snapshot into an accumulator in
  place, optionally stamping extra labels (``{"shard": "0"}``) on every
  folded sample.  Counters and histogram buckets **add** (bucket layouts
  are fixed per family, so the merge is exact, not approximate); gauges
  keep the value with the newest capture timestamp;
* :func:`merge_snapshots` — the pure n-ary form;
* :func:`snapshot_as_dict` — re-shape a snapshot into the exact
  ``MetricsRegistry.as_dict()`` JSON layout (cumulative buckets, ``+Inf``
  keys), so aggregated dumps stay parseable by every existing consumer
  (``scripts/check_metrics.py``, the CI smoke jobs).

Unlike a live registry — whose families carry *fixed* label-name sets —
a snapshot family may hold samples with heterogeneous labels: the
router's own ``kernel_seconds{backend,kernel}`` series coexist with
folded worker series carrying an extra ``shard`` label.  That is why
aggregation happens at the snapshot level instead of re-registering
shard-labelled families into the live registry (which would ``ValueError``
on the labelname mismatch — by design).
"""

from __future__ import annotations

import copy
import os
import time
from typing import Iterable, Mapping

from repro.obs.registry import (
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "SnapshotError",
    "collect_snapshot",
    "empty_snapshot",
    "snapshot_diff",
    "fold_snapshot",
    "merge_snapshots",
    "snapshot_as_dict",
]

SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Two snapshots disagree structurally (kind or bucket layout)."""


def empty_snapshot(ts: float | None = None) -> dict:
    """A snapshot with no families — the identity element of the fold."""
    return {
        "version": SNAPSHOT_VERSION,
        "ts": time.time() if ts is None else float(ts),
        "pid": os.getpid(),
        "families": {},
    }


def collect_snapshot(
    registry: MetricsRegistry | None = None, *, ts: float | None = None
) -> dict:
    """Capture *registry* (default: the process registry) as a snapshot.

    Histogram samples keep their **raw** per-bucket counts (last slot is
    the implicit ``+Inf`` bucket) — cumulative counts do not add across
    processes, raw counts do.
    """
    registry = registry if registry is not None else get_registry()
    snapshot = empty_snapshot(ts)
    families = snapshot["families"]
    for family in registry.families():
        entry: dict = {
            "kind": family.kind,
            "help": family.help,
            "labelnames": list(family.labelnames),
            "samples": [],
        }
        if isinstance(family, Histogram):
            entry["buckets"] = [float(b) for b in family.buckets]
            for labels, child in family.samples():
                with child._lock:
                    counts = list(child._bucket_counts)
                    total = child._sum
                    count = child._count
                entry["samples"].append({
                    "labels": dict(labels),
                    "counts": counts,
                    "sum": total,
                    "count": count,
                })
        else:
            for labels, child in family.samples():
                entry["samples"].append(
                    {"labels": dict(labels), "value": child.value}
                )
        families[family.name] = entry
    return snapshot


def _sample_key(labels: Mapping[str, str]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_compatible(name: str, target: dict, source: dict) -> None:
    if target["kind"] != source["kind"]:
        raise SnapshotError(
            f"family {name!r} is a {target['kind']} in one snapshot and a "
            f"{source['kind']} in the other"
        )
    if target["kind"] == "histogram" and list(target.get("buckets", ())) != list(
        source.get("buckets", ())
    ):
        raise SnapshotError(
            f"histogram {name!r} has different bucket layouts across "
            "snapshots — merging bucket-wise would be lossy, refusing"
        )


def snapshot_diff(before: Mapping, after: Mapping, *, prune: bool = False) -> dict:
    """``after - before`` as a new snapshot (the delta a puller folds).

    Counters and histogram buckets subtract; a value that *shrank* means
    the source process restarted and re-counted from zero, so the
    ``after`` state is taken whole (never a negative delta).  Gauges take
    the ``after`` value — a gauge delta is meaningless.  Families or
    samples absent from *before* pass through unchanged.

    With ``prune=True`` the delta drops samples that carry no new
    information: zero-delta counters and histograms, and gauge samples
    whose value is unchanged since *before*.  Families left empty are
    dropped too.  This is how a forked shard worker avoids re-reporting
    registry state it inherited from the router at fork time (which would
    double-count parent samples and stamp a second ``shard`` label onto
    series the router already labelled).
    """
    delta = {
        "version": SNAPSHOT_VERSION,
        "ts": after.get("ts", time.time()),
        "pid": after.get("pid", os.getpid()),
        "families": {},
    }
    before_families = before.get("families", {})
    for name, entry in after.get("families", {}).items():
        prior = before_families.get(name)
        if prior is not None:
            _check_compatible(name, prior, entry)
        new_entry = {k: v for k, v in entry.items() if k != "samples"}
        new_entry["samples"] = []
        prior_samples = {}
        if prior is not None:
            prior_samples = {
                _sample_key(s["labels"]): s for s in prior["samples"]
            }
        for sample in entry["samples"]:
            old = prior_samples.get(_sample_key(sample["labels"]))
            if entry["kind"] == "histogram":
                new_sample = dict(sample, counts=list(sample["counts"]))
                if old is not None:
                    counts = [
                        n - o for n, o in zip(sample["counts"], old["counts"])
                    ]
                    if min(counts, default=0) >= 0 and sample["count"] >= old["count"]:
                        new_sample["counts"] = counts
                        new_sample["sum"] = sample["sum"] - old["sum"]
                        new_sample["count"] = sample["count"] - old["count"]
                    # else: counter reset — keep the after state whole
                if prune and new_sample["count"] == 0 and not any(
                    new_sample["counts"]
                ):
                    continue
            elif entry["kind"] == "counter":
                new_sample = dict(sample)
                if old is not None and sample["value"] >= old["value"]:
                    new_sample["value"] = sample["value"] - old["value"]
                if prune and new_sample["value"] == 0:
                    continue
            else:  # gauge: latest value, stamped with the capture time
                if prune and old is not None and sample["value"] == old["value"]:
                    continue
                new_sample = dict(sample)
                new_sample.setdefault("ts", delta["ts"])
            new_entry["samples"].append(new_sample)
        if prune and not new_entry["samples"]:
            continue
        delta["families"][name] = new_entry
    return delta


def fold_snapshot(
    target: dict,
    source: Mapping,
    extra_labels: Mapping[str, str] | None = None,
) -> dict:
    """Merge *source* into *target* in place; returns *target*.

    *extra_labels* (e.g. ``{"shard": "0"}``) are stamped onto every
    folded sample — colliding with a label the sample already carries is
    an error, not a silent overwrite.  Counters and histogram
    buckets/sums/counts add; gauge conflicts keep the value whose
    snapshot ``ts`` is newest.
    """
    extra = {str(k): str(v) for k, v in (extra_labels or {}).items()}
    source_ts = float(source.get("ts", 0.0))
    target_families = target.setdefault("families", {})
    for name, entry in source.get("families", {}).items():
        existing = target_families.get(name)
        if existing is None:
            existing = {k: v for k, v in entry.items() if k != "samples"}
            labelnames = list(entry.get("labelnames", ()))
            for label in extra:
                if label not in labelnames:
                    labelnames.append(label)
            existing["labelnames"] = labelnames
            existing["samples"] = []
            target_families[name] = existing
        else:
            _check_compatible(name, existing, entry)
            for label in extra:
                if label not in existing["labelnames"]:
                    existing["labelnames"].append(label)
        by_key = {
            _sample_key(s["labels"]): s for s in existing["samples"]
        }
        for sample in entry["samples"]:
            labels = dict(sample["labels"])
            for label, value in extra.items():
                if label in labels and labels[label] != value:
                    raise SnapshotError(
                        f"cannot stamp label {label}={value!r} on a "
                        f"{name!r} sample already labelled "
                        f"{label}={labels[label]!r}"
                    )
                labels[label] = value
            key = _sample_key(labels)
            current = by_key.get(key)
            if current is None:
                merged = copy.deepcopy(dict(sample, labels=labels))
                if entry["kind"] == "gauge":
                    merged.setdefault("ts", source_ts)
                existing["samples"].append(merged)
                by_key[key] = merged
            elif entry["kind"] == "histogram":
                current["counts"] = [
                    a + b for a, b in zip(current["counts"], sample["counts"])
                ]
                current["sum"] += sample["sum"]
                current["count"] += sample["count"]
            elif entry["kind"] == "counter":
                current["value"] += sample["value"]
            else:  # gauge: newest capture wins
                sample_ts = float(sample.get("ts", source_ts))
                if sample_ts >= float(current.get("ts", 0.0)):
                    current["value"] = sample["value"]
                    current["ts"] = sample_ts
    target["ts"] = max(float(target.get("ts", 0.0)), source_ts)
    return target


def merge_snapshots(
    base: Mapping | None,
    parts: Iterable[tuple[Mapping, Mapping[str, str] | None]] = (),
) -> dict:
    """Pure n-ary fold: deep-copy *base*, fold each ``(snapshot, extra)``."""
    out = copy.deepcopy(dict(base)) if base is not None else empty_snapshot()
    for snapshot, extra_labels in parts:
        fold_snapshot(out, snapshot, extra_labels)
    return out


def snapshot_as_dict(snapshot: Mapping) -> dict:
    """Re-shape *snapshot* into the ``MetricsRegistry.as_dict()`` layout.

    Same three sections (``counters``/``gauges``/``histograms``), same
    cumulative-bucket keys (``repr(bound)`` / ``"+Inf"``), so an
    aggregated dump is indistinguishable in shape from a single-process
    one and every existing JSON consumer keeps working.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for name in sorted(snapshot.get("families", {})):
        entry = snapshot["families"][name]
        kind = entry["kind"]
        samples = []
        if kind == "histogram":
            bounds = [float(b) for b in entry.get("buckets", ())]
            for sample in entry["samples"]:
                cumulative: dict[str, int] = {}
                running = 0
                for bound, count in zip(
                    (*bounds, float("inf")), sample["counts"]
                ):
                    running += count
                    key = "+Inf" if bound == float("inf") else repr(bound)
                    cumulative[key] = running
                samples.append({
                    "labels": dict(sample["labels"]),
                    "buckets": cumulative,
                    "sum": sample["sum"],
                    "count": sample["count"],
                })
            section = out["histograms"]
        else:
            for sample in entry["samples"]:
                samples.append({
                    "labels": dict(sample["labels"]),
                    "value": sample["value"],
                })
            section = out["gauges" if kind == "gauge" else "counters"]
        section[name] = {
            "help": entry.get("help", ""),
            "labelnames": list(entry.get("labelnames", ())),
            "samples": samples,
        }
    return out
