#!/usr/bin/env python
"""CI mutation-soak: a live serve session must track a cold rebuild.

Two subcommands around one ``repro serve --index`` session:

``generate INDEX SESSION_OUT EXPECTED_OUT``
    Derives a deterministic ~100-mutation schedule (edge inserts,
    re-weights, deletes — all between nodes the index already knows, so
    the bundle's semantic measure stays valid) from the artifact's own
    graph, interleaves it with queries, and writes

    * ``SESSION_OUT`` — the protocol lines to pipe into ``repro serve``
      (mutations, mid-soak queries, a final block of ``BATCH`` lines,
      ``HEALTH``);
    * ``EXPECTED_OUT`` — the final block's scores from an *offline cold
      rebuild*: a fresh ``QueryEngine`` sampled on the mutated graph with
      the artifact's own seed, walk count, length, policy, decay and
      theta — no incremental code involved — plus the schedule size.

``verify SERVE_OUT EXPECTED_OUT``
    Parses the serve session's stdout and fails (exit 1) unless

    * the session became ready and nothing was degraded;
    * every mutation line was acknowledged (``mutated: true``) with a
      strictly increasing epoch;
    * the final ``BATCH`` block is **bit-identical** to the offline cold
      rebuild — the incremental-maintenance guarantee, end to end, for
      the walk tensor and for the step tables and ``SO`` matrix each
      generation swap carries over;
    * the closing HEALTH snapshot reports every mutation applied.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Mutation count for the soak (inserts + re-weights + deletes).
NUM_MUTATIONS = 100
#: A query is interleaved after every Nth mutation.
QUERY_EVERY = 5
#: Final query block: sources scored after the full schedule, each as a
#: ``BATCH`` line over ``NUM_FINAL_CANDIDATES`` candidates.
NUM_FINAL_PAIRS = 10
NUM_FINAL_CANDIDATES = 8
SCHEDULE_SEED = 20260808


def _fail(message: str) -> "NoReturn":  # noqa: F821 - py3.11 typing-lite
    print(f"check_mutation_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _build_schedule(graph, rng):
    """A deterministic mutation schedule legal at every step.

    Tracks the evolving edge set on a local replica so deletes always
    hit a live edge and inserts never create self-loops; weights stay in
    a small integer range so re-weights are visible in the tensors.
    """
    nodes = sorted(graph.nodes(), key=str)
    schedule = []
    for _ in range(NUM_MUTATIONS):
        kinds = ["insert", "reweight"]
        if graph.num_edges > len(nodes):  # keep the graph connected-ish
            kinds.append("delete")
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "delete":
            edges = list(graph.edges())
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
            graph.remove_edge(u, v)
            schedule.append(("remove_edge", u, v))
            continue
        if kind == "reweight":
            edges = list(graph.edges())
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
        else:
            while True:
                i, j = rng.integers(len(nodes), size=2)
                if i != j:
                    break
            u, v = nodes[int(i)], nodes[int(j)]
        weight = float(rng.integers(1, 6))
        graph.add_edge(u, v, weight=weight)
        schedule.append(("add_edge", u, v, weight))
    return schedule


def _query_pairs(graph, rng, count):
    nodes = sorted(graph.nodes(), key=str)
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(len(nodes), size=2)
        if i != j:
            pairs.append((nodes[int(i)], nodes[int(j)]))
    return pairs


def _batch_candidates(graph, rng, u):
    nodes = [node for node in sorted(graph.nodes(), key=str) if node != u]
    picks = rng.choice(len(nodes), size=NUM_FINAL_CANDIDATES, replace=False)
    return [nodes[int(i)] for i in picks]


def _generate(index_path: str, session_out: str, expected_out: str) -> int:
    import numpy as np

    from repro.api import QueryEngine
    from repro.core.walk_index import WalkPolicy
    from repro.store import read_artifact

    engine = QueryEngine.open(index_path)
    params = read_artifact(index_path).meta["params"]
    rng = np.random.default_rng(SCHEDULE_SEED)
    final_graph = engine.graph.copy()
    schedule = _build_schedule(final_graph, rng)
    final_pairs = _query_pairs(engine.graph, rng, NUM_FINAL_PAIRS)
    final_batches = [
        (u, _batch_candidates(engine.graph, rng, u)) for u, _v in final_pairs
    ]

    lines = []
    for position, mutation in enumerate(schedule):
        if mutation[0] == "remove_edge":
            lines.append(f"DELEDGE {mutation[1]} {mutation[2]}")
        else:
            lines.append(
                f"UPDATE {mutation[1]} {mutation[2]} {mutation[3]}"
            )
        if (position + 1) % QUERY_EVERY == 0:
            u, v = final_pairs[(position // QUERY_EVERY) % len(final_pairs)]
            lines.append(f"{u} {v}")
    for u, candidates in final_batches:
        lines.append(f"BATCH {u} {' '.join(candidates)}")
    lines.append("HEALTH")
    Path(session_out).write_text("\n".join(lines) + "\n", encoding="utf-8")

    # the offline oracle: a cold build on the final graph with the
    # artifact's own parameters, scored on the batch path
    cold = QueryEngine(
        final_graph,
        engine.measure,
        method="mc",
        decay=params["decay"],
        theta=params["theta"],
        num_walks=params["num_walks"],
        length=params["length"],
        policy=WalkPolicy(params["policy"]),
        seed=params["seed"],
    )
    expected = {
        "mutations": len(schedule),
        "batches": [[u, candidates] for u, candidates in final_batches],
        "scores": [
            [float(x) for x in cold.score_batch(u, candidates)]
            for u, candidates in final_batches
        ],
    }
    Path(expected_out).write_text(json.dumps(expected), encoding="utf-8")
    print(
        f"check_mutation_smoke: wrote {len(schedule)} mutations, "
        f"{len(lines)} protocol lines, {len(final_batches)} oracle batches"
    )
    return 0


def _verify(serve_out: str, expected_out: str) -> int:
    expected = json.loads(Path(expected_out).read_text(encoding="utf-8"))
    responses = [
        json.loads(line)
        for line in Path(serve_out).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not responses or not responses[0].get("ready"):
        _fail("serve session never became ready")
    body = responses[1:]

    errors = [r for r in body if "error" in r]
    if errors:
        _fail(f"{len(errors)} protocol errors, first: {errors[0]}")
    degraded = [r for r in body if r.get("degraded")]
    if degraded:
        _fail(f"{len(degraded)} degraded responses, first: {degraded[0]}")

    acks = [r for r in body if r.get("mutated")]
    if len(acks) != expected["mutations"]:
        _fail(
            f"expected {expected['mutations']} mutation acks, "
            f"got {len(acks)}"
        )
    epochs = [ack["epoch"] for ack in acks]
    if epochs != sorted(set(epochs)):
        _fail(f"mutation epochs not strictly increasing: {epochs[:10]}...")

    final = [r for r in body if "values" in r]
    if len(final) != len(expected["batches"]):
        _fail(
            f"expected {len(expected['batches'])} final batches, "
            f"session produced {len(final)}"
        )
    for response, (u, candidates), scores in zip(
        final, expected["batches"], expected["scores"]
    ):
        if [response["u"], response["candidates"]] != [u, candidates]:
            _fail(f"final batch order drifted: {response} vs {(u, candidates)}")
        if response["values"] != scores:
            _fail(
                f"batch scores for {u} drifted from the cold rebuild: "
                f"{response['values']} != {scores}"
            )

    health = responses[-1]
    if health.get("mutations_applied") != expected["mutations"]:
        _fail(
            "HEALTH reports "
            f"{health.get('mutations_applied')} mutations applied, "
            f"expected {expected['mutations']}"
        )
    print(
        "check_mutation_smoke: OK — "
        f"{expected['mutations']} live mutations, final "
        f"{len(expected['batches'])} batches bit-identical to a cold rebuild"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "generate":
        return _generate(argv[1], argv[2], argv[3])
    if len(argv) == 3 and argv[0] == "verify":
        return _verify(argv[1], argv[2])
    _fail(
        "usage: check_mutation_smoke.py generate INDEX SESSION_OUT "
        "EXPECTED_OUT | verify SERVE_OUT EXPECTED_OUT"
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
