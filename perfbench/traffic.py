"""Seeded request lists for the three workloads.

Each run replays a fixed list generated from its workload seed (the same
work in every run, not a fixed duration).  The list length scales with
``--seconds`` through a nominal rate per workload.  An untraced run
launches the server ``Workload.launches`` times and replays the list in
phases on the last launches (see ``Workload.phases``); every phase holds
at least ``MIN_READS`` reads, and run.py cuts each phase into windows of
at least ``MIN_READS`` reads, so that each window's nearest-rank p99
keeps at least ten samples beyond it.  The quality probes are fixed, not
seeded: like the graph, they are part of the benchmark's constant
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Server launches per untraced run; setup_s is their median.  pair-hot's
# launches are cold builds of ~6 s each; the others open IDX in ~1 s.
COLD_LAUNCHES = 3
WARM_LAUNCHES = 5
PAIR_RATE = 3000      # reads per second of --seconds on pair-hot
TOPK_RATE = 30        # TOPK lines per second on topk-sharded
UPDATE_RATE = 100     # reads per second on update-mixed
MIN_READS = 1010      # reads per phase and per window
MUTATION_EVERY = 200  # reads between two mutation lines on update-mixed
ZIPF_S = 1.1
TOPK = 10
PROBE_SEED = 7
PAIR_PROBE_SOURCES = 25
TOPK_PROBE_SOURCES = 50


@dataclass
class Line:
    text: str
    kind: str  # "pair", "batch", "topk" or "mutation"
    key: tuple = ()


@dataclass
class Workload:
    name: str
    serve_args: list
    window: int
    warmup: list
    timed: list
    probe: list = field(default_factory=list)
    # What the untraced run replays, one list per launch on its last
    # launches: the timing metrics are medians over the windows of these
    # phases.
    phases: list = field(default_factory=list)
    launches: int = WARM_LAUNCHES


class Refs:
    """The prepared graph facts and reference answers (see prepare.py)."""

    def __init__(self, graph: dict, arrays, topk: dict) -> None:
        self.nodes = graph["nodes"]
        self.entities = graph["entities"]
        self.authors = graph["authors"]
        self.edges = {(u, v) for u, v in graph["edges"]}
        self.position = {node: i for i, node in enumerate(self.nodes)}
        self.candidates = arrays["candidates"]
        self.pair_mc = arrays["pair_mc"]
        self.oracle = arrays["oracle"]
        self.topk = topk

    def pair_text(self, row: int, col: int) -> str:
        return f"{self.authors[row]} {self.nodes[self.candidates[row, col]]}"

    def batch_line(self, row: int) -> Line:
        cands = " ".join(self.nodes[p] for p in self.candidates[row])
        return Line(f"BATCH {self.authors[row]} {cands}", "batch", (row,))


def _zipf_rows(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """Zipf(s) ranks over *count* authors, mapped through a seeded order."""
    order = rng.permutation(count)
    weights = 1.0 / np.arange(1, count + 1) ** ZIPF_S
    ranks = rng.choice(count, size=size, p=weights / weights.sum())
    return order[ranks]


def _pair_lines(rng, refs: Refs, size: int) -> list:
    rows = _zipf_rows(rng, len(refs.authors), size)
    cols = rng.integers(0, refs.candidates.shape[1], size=size)
    return [
        Line(refs.pair_text(r, c), "pair", (int(r), int(c)))
        for r, c in zip(rows, cols)
    ]


def _topk_probe(refs: Refs) -> list:
    rng = np.random.default_rng(PROBE_SEED)
    picks = rng.choice(len(refs.entities), TOPK_PROBE_SOURCES, replace=False)
    return [
        Line(f"TOPK {refs.entities[i]} {TOPK}", "topk", (refs.entities[i],))
        for i in sorted(picks)
    ]


def _pair_probe(refs: Refs) -> list:
    rng = np.random.default_rng(PROBE_SEED + 1)
    rows = rng.choice(len(refs.authors), PAIR_PROBE_SOURCES, replace=False)
    return [refs.batch_line(int(r)) for r in sorted(rows)]


def _mutations(rng, refs: Refs, count: int) -> list:
    """UPDATE (insert or re-weight) and DELEDGE of a stream-inserted edge."""
    rows = _zipf_rows(rng, len(refs.authors), count)
    cols = rng.integers(0, refs.candidates.shape[1], size=count)
    inserted: list = []
    lines = []
    for k, (row, col) in enumerate(zip(rows, cols)):
        if k % 3 == 2 and inserted:
            u, v = inserted.pop(int(rng.integers(len(inserted))))
            lines.append(Line(f"DELEDGE {u} {v}", "mutation",
                              ("remove_edge", u, v)))
            continue
        u = refs.authors[row]
        v = refs.nodes[refs.candidates[row, col]]
        weight = round(float(rng.uniform(0.5, 2.0)), 3)
        if (u, v) not in refs.edges and (u, v) not in inserted:
            inserted.append((u, v))
        lines.append(Line(f"UPDATE {u} {v} {weight}", "mutation",
                          ("add_edge", u, v, weight)))
    return lines


def build(name: str, seed: int, seconds: int, refs: Refs) -> Workload:
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    warm_pair = [refs.batch_line(0)]
    if name == "pair-hot":
        # The list is split over all launches: each phase gets its own
        # lines, and the distinct pairs behind err_mean triple.
        size = max(seconds * PAIR_RATE // COLD_LAUNCHES, MIN_READS)
        timed = _pair_lines(rng, refs, size * COLD_LAUNCHES)
        return Workload(
            name, ["bundle.json", "--estimator", "mc"], 32, warm_pair,
            timed, _topk_probe(refs),
            [timed[k:k + size] for k in range(0, len(timed), size)],
            COLD_LAUNCHES,
        )
    if name == "topk-sharded":
        reads = max(seconds * TOPK_RATE, MIN_READS)
        order = np.concatenate([
            rng.permutation(len(refs.entities))
            for _ in range(reads // len(refs.entities) + 1)
        ])[:reads]
        timed = [
            Line(f"TOPK {refs.entities[i]} {TOPK}", "topk",
                 (refs.entities[i],))
            for i in order
        ]
        warm = [Line(f"TOPK {refs.entities[0]} {TOPK}", "topk",
                     (refs.entities[0],))]
        # One line in flight makes a phase of MIN_READS last ~30 s, so only
        # the last launch replays the list.
        return Workload(
            name, ["--index", "idx", "--shards", "2", "--estimator", "mc"],
            1, warm, timed, phases=[timed],
        )
    if name == "update-mixed":
        reads = max(seconds * UPDATE_RATE, MIN_READS)
        pairs = _pair_lines(rng, refs, reads)
        # No mutation follows the last read: the timed phase ends on reads
        # of the final generation.
        mutations = iter(_mutations(rng, refs, (reads - 1) // MUTATION_EVERY))
        timed = []
        for i, line in enumerate(pairs, start=1):
            timed.append(line)
            if i % MUTATION_EVERY == 0 and i < reads:
                timed.append(next(mutations))
        # Every launch replays the whole list from the same index, so every
        # phase passes through the same generations and one offline replay
        # checks them all.
        return Workload(
            name, ["--index", "idx", "--estimator", "mc"], 32, warm_pair,
            timed, _pair_probe(refs) + _topk_probe(refs),
            [timed] * WARM_LAUNCHES,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pair-hot", "topk-sharded", "update-mixed")
