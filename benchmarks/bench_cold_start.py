"""Cold vs warm start — the payoff of the content-addressed artifact store.

The paper's Fig. 4 framing splits similarity serving into *preprocessing*
(walk sampling, the semantic matrix, SO products — or the full fixed-point
iteration) and *querying* (array lookups).  The artifact store persists the
preprocessing half, so a process restart pays only a manifest read plus
``np.load(mmap_mode="r")`` — no recomputation, and the OS page cache shares
the mapped bytes across every process serving the same artifact.

Measured here, on the Table 4 / Fig 4 Amazon-like instance:

* time-to-first-query cold (build everything) vs warm (open the store) for
  both methods — the headline claim is **warm >= 10x faster**;
* bit-identical scores between the cold and warm engines;
* for N forked readers of one artifact, read from each reader's own
  ``/proc/self/smaps``: every array file is still mapped after it opened
  the artifact and answered a query, and the mappings hold less resident
  than the arrays' size, so the readers share the page cache instead of
  copying the arrays.
"""

from __future__ import annotations

import multiprocessing
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import QueryEngine

from _shared import fmt_sci

DECAY = 0.6
THETA = 0.05
SEED = 5
NUM_QUERY_PAIRS = 25
MIN_WARM_SPEEDUP = 10.0


def _query_pairs(bundle, count: int):
    rng = np.random.default_rng(99)
    entities = bundle.entity_nodes
    return [
        tuple(entities[int(k)] for k in rng.choice(len(entities), 2, replace=False))
        for _ in range(count)
    ]


def _time_to_first_query(build, pair) -> tuple[float, float, "QueryEngine"]:
    """Return (seconds to construct + answer one query, that score, engine)."""
    start = time.perf_counter()
    engine = build()
    score = engine.score(*pair)
    return time.perf_counter() - start, score, engine


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-store")


@pytest.mark.parametrize("method", ["mc", "iterative"])
def test_cold_vs_warm_first_query(benchmark, show, amazon_small, store_dir, method):
    bundle = amazon_small
    pairs = _query_pairs(bundle, NUM_QUERY_PAIRS)

    def cold():
        return QueryEngine(
            bundle.graph, bundle.measure, method=method,
            decay=DECAY, theta=THETA, seed=SEED, cache_dir=store_dir,
        )

    cold_seconds, cold_score, cold_engine = _time_to_first_query(cold, pairs[0])
    # Second construction hits the artifact written through by the first.
    warm_seconds, warm_score, warm_engine = benchmark.pedantic(
        _time_to_first_query, args=(cold, pairs[0]), rounds=1, iterations=1
    )
    speedup = cold_seconds / warm_seconds

    cold_scores = [cold_engine.score(u, v) for u, v in pairs]
    warm_scores = [warm_engine.score(u, v) for u, v in pairs]

    lines = [
        f"=== Cold vs warm start ({method}) on {bundle.name} ===",
        f"graph: {bundle.graph.num_nodes} nodes, {bundle.graph.num_edges} edges",
        "",
        fmt_sci("time-to-first-query (s)", [cold_seconds, warm_seconds]),
        f"{'':28}{'cold':>12}{'warm':>12}",
        f"warm speedup: {speedup:.1f}x  (required >= {MIN_WARM_SPEEDUP:.0f}x)",
        f"scores bit-identical over {len(pairs)} pairs: "
        f"{cold_scores == warm_scores}",
    ]
    show(f"cold_start_{method}", lines)

    assert warm_score == cold_score
    assert cold_scores == warm_scores, "warm engine must be bit-identical"
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm start only {speedup:.1f}x faster than cold "
        f"(cold={cold_seconds:.3f}s warm={warm_seconds:.3f}s)"
    )


_MAPPING = re.compile(r"^[0-9a-f]+-[0-9a-f]+ ")


def _mapped_resident_bytes(files: set[str]) -> dict[str, int]:
    """Resident bytes of this process's mappings of *files*, per file.

    Read from ``/proc/self/smaps``: each mapping's header line names its
    file, and its ``Rss`` line counts the pages this process has mapped
    in.  A file that appears in no mapping is absent from the result.
    """
    resident: dict[str, int] = {}
    current = None
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if _MAPPING.match(line):
                fields = line.split(maxsplit=5)
                name = fields[5].strip() if len(fields) == 6 else None
                current = name if name in files else None
            elif current is not None and line.startswith("Rss:"):
                kib = int(line.split()[1])
                resident[current] = resident.get(current, 0) + kib * 1024
    return resident


def _reader(path, pair, queue):
    files = {str(file.resolve()) for file in Path(path).glob("*.npy")}
    engine = QueryEngine.open(path)
    score = engine.score(*pair)
    queue.put((score, _mapped_resident_bytes(files)))


def test_forked_readers_share_pages(show, amazon_small, store_dir):
    """N processes serving one artifact must not each copy its arrays.

    A reader that copied an array would drop its mapping (or, copying
    after a full read, hold it all resident), so the check reads the
    reader's own mappings rather than its RSS growth, which the
    manifest, graph and index objects dominate.
    """
    bundle = amazon_small
    pair = _query_pairs(bundle, 1)[0]
    engine = QueryEngine(
        bundle.graph, bundle.measure, method="mc",
        decay=DECAY, theta=THETA, seed=SEED,
    )
    path = store_dir / "shared-artifact"
    engine.save(path)
    expected = engine.score(*pair)
    npy_files = sorted(path.glob("*.npy"))
    artifact_bytes = sum(file.stat().st_size for file in npy_files)

    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    readers = [
        context.Process(target=_reader, args=(path, pair, queue))
        for _ in range(4)
    ]
    for process in readers:
        process.start()
    results = [queue.get(timeout=60) for _ in readers]
    for process in readers:
        process.join(timeout=60)

    scores = [score for score, _ in results]
    mapped = [len(resident) for _, resident in results]
    resident = [sum(per_file.values()) for _, per_file in results]
    lines = [
        f"=== {len(readers)} forked readers, one mmap artifact ===",
        f"artifact array files: {len(npy_files)}, bytes: {artifact_bytes}",
        f"array files still mapped per reader: {mapped}",
        f"resident bytes of those mappings per reader: {resident}",
        f"all scores identical to the saving engine: "
        f"{all(score == expected for score in scores)}",
        "Each reader keeps every array mapped and holds only the pages its",
        "query touched: np.load(mmap_mode='r') shares the page cache",
        "instead of copying arrays.",
    ]
    show("cold_start_forked_readers", lines)

    assert all(score == expected for score in scores)
    for count, held in zip(mapped, resident):
        # no array was copied out of its mapping ...
        assert count == len(npy_files)
        # ... and demand paging faulted in well under the whole artifact
        assert held < artifact_bytes
