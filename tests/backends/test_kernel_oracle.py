"""The kernel against the oracle on hand-built requests.

No valid graph reaches the kernel's bail-out: weights are > 0 and Lin's
``sem`` lies in (0, 1], so every ``SO`` and ``Q`` cell is positive.  These
requests take a real :class:`~repro.core.WalkIndex` and plant zero and
negative cells in copies of its ``SO`` matrix and ``Q`` array, so the
walks hit bail-outs, θ cuts and meetings in every mix.  Each request runs
through both of the kernel's bodies (the step loop and the dense round)
at every block size, with the switch between them moved across every
live count, and must equal the oracle's totals and all three counters.
"""

import numpy as np
import pytest

from repro.backends import BackendConfig, BlockedBackend, WalkScoreRequest
from repro.backends import blocked
from repro.core import MonteCarloSemSim, WalkIndex
from repro.semantics import MatrixMeasure

from tests.backends.numpy_ref import NumpyBackend
from tests.conftest import build_taxonomy_graph

LENGTH = 10
#: Dense-tail thresholds: the step loop all the way (0), the switch at
#: several live counts, and the dense round from the start.
TAIL_ROWS = (0, 1, 2, 7, 128, 10**9)


@pytest.fixture(scope="module")
def parts():
    graph, measure = build_taxonomy_graph()
    index = WalkIndex(graph, num_walks=40, length=LENGTH, seed=11)
    matrix = MatrixMeasure.from_measure(measure, list(graph.nodes()))
    estimator = MonteCarloSemSim(index, matrix)
    estimator._ensure_so_matrix()
    rng = np.random.default_rng(27)
    clean_so = estimator._so_matrix
    so = clean_so.copy()
    q = index.tables.q.copy()
    # ~1 in 8 SO cells and Q slots collapse to zero or go negative.
    for table in (so.reshape(-1), q):
        planted = rng.random(table.size) < 0.125
        table[planted] = rng.choice([0.0, -0.5], size=int(planted.sum()))
    return index, estimator._sem_matrix, so, q, clean_so


def _request(parts, shape, theta, so_lookup=None):
    index, sem, so, q, _ = parts
    n = sem.shape[0]
    rng = np.random.default_rng(5)
    if shape == "shared":
        positions = np.array([v for v in range(n) if v != 2], dtype=np.int64)
        pos_u = np.full(positions.size, 2, dtype=np.int64)
        meetings = index.first_meetings_pairs(2, positions)
    else:
        pos_u = rng.integers(n, size=24).astype(np.int64)
        positions = rng.integers(n, size=24).astype(np.int64)
        meetings = index.first_meetings_pairs(pos_u, positions)
        if shape == "one-long":
            # Every met walk stops after step 0 but one, which runs to the
            # last step: the live set falls from all rows to one at once.
            meetings = np.where(meetings >= 1, 1, -1)
            meetings[np.unravel_index(np.argmax(meetings), meetings.shape)] = (
                LENGTH
            )
    tables = index.tables
    return WalkScoreRequest(
        walks=index.walks, offsets=index.offsets, indptr=tables.indptr,
        weights=tables.weights, q=q, pos_u=pos_u, positions=positions,
        meetings=meetings, sem_matrix=sem, decay=0.6, theta=theta,
        so_matrix=None if so_lookup else so, so_lookup=so_lookup,
    )


def _counters(result):
    return result.walks_met, result.so_evaluations, result.walks_pruned


@pytest.mark.parametrize("theta", [None, 0.0, 0.05, 1.0])
@pytest.mark.parametrize("shape", ["shared", "per-pair", "one-long"])
@pytest.mark.parametrize("sling", [False, True])
def test_kernel_equals_oracle(parts, monkeypatch, theta, shape, sling):
    so = parts[2]

    def lookup_into(calls):
        def so_lookup(a, b):
            calls.append((a, b))
            return float(so[a, b])
        return so_lookup if sling else None

    expected_calls = []
    expected = NumpyBackend().batch_walk_scores(
        _request(parts, shape, theta, lookup_into(expected_calls))
    )
    assert expected.walks_met > 0
    if theta in (0.05, 1.0) and shape != "one-long":
        assert expected.walks_pruned > 0
    for tail in TAIL_ROWS:
        monkeypatch.setattr(blocked, "_DENSE_TAIL_ROWS", tail)
        for block_rows in (1, 3, 4096):
            calls = []
            backend = BlockedBackend(BackendConfig(block_rows=block_rows))
            got = backend.batch_walk_scores(
                _request(parts, shape, theta, lookup_into(calls))
            )
            np.testing.assert_array_equal(got.totals, expected.totals)
            assert _counters(got) == _counters(expected)
            if block_rows == 4096:
                # one block: the lookup sees the oracle's cells, in order
                assert calls == expected_calls
            else:
                assert set(calls) == set(expected_calls)


def test_planted_cells_change_the_scores(parts):
    """The planted zero and negative cells are reached: the same request
    with the clean tables gives other totals."""
    index, _, _, _, clean_so = parts
    request = _request(parts, "per-pair", None)
    planted = NumpyBackend().batch_walk_scores(request)
    request.so_matrix = clean_so
    request.q = index.tables.q
    clean = NumpyBackend().batch_walk_scores(request)
    assert not np.array_equal(planted.totals, clean.totals)
