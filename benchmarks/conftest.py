"""Shared fixtures and reporting for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure from the paper's
evaluation section.  Results are printed to the terminal (through
``capsys.disabled()`` so they survive pytest's capture) *and* appended to
``benchmarks/results/<name>.txt`` for later inspection; the pytest-benchmark
plugin additionally times the representative kernels.

Scale note: every dataset here is a scaled-down synthetic stand-in (see
DESIGN.md §3), so absolute numbers differ from the paper — the claims being
reproduced are the *relative* ones (who wins, by what factor, where the
trends go).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks._shared import metrics_delta, metrics_snapshot
from repro.datasets import aminer_like, amazon_like, wikipedia_like, wordnet_like

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_backend():
    """The name of the walk-score kernel the benches' engines run."""
    from repro.backends import resolve_backend

    return resolve_backend().name

#: nodeid -> registry growth during that bench, written at session end.
_METRICS_BY_BENCH: dict[str, dict] = {}


@pytest.fixture(autouse=True)
def _capture_bench_metrics(request):
    """Record what each bench put into the metrics registry.

    The per-bench deltas (plus a final whole-registry dump) land in
    ``benchmarks/results/metrics.json`` — the observability counterpart of
    the per-bench ``.txt`` reports.
    """
    before = metrics_snapshot()
    yield
    delta = metrics_delta(before)
    if delta:
        _METRICS_BY_BENCH[request.node.nodeid] = delta


def pytest_sessionfinish(session, exitstatus):
    if not _METRICS_BY_BENCH:
        return
    from repro.backends import resolve_backend
    from repro.obs.registry import get_registry

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "backend": resolve_backend().name,
        "per_bench_delta": _METRICS_BY_BENCH,
        "registry": get_registry().as_dict(),
    }
    path = RESULTS_DIR / "metrics.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="session")
def report(capsys=None):
    """Return a callable that prints + persists one experiment report."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(name: str, lines: list[str]) -> None:
        text = "\n".join(lines)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return emit


@pytest.fixture
def show(capsys, report):
    """Print an experiment report to the live terminal and persist it."""

    def emit(name: str, lines: list[str]) -> None:
        report(name, lines)
        with capsys.disabled():
            print()
            for line in lines:
                print(line)

    return emit


# ---------------------------------------------------------------------------
# Session-scoped datasets (built once, reused across benches).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def aminer_small():
    """AMiner-like instance for exact iterative computations."""
    return aminer_like(num_authors=150, num_terms=80, seed=11)


@pytest.fixture(scope="session")
def aminer_er():
    """AMiner-like instance with planted duplicates for Fig 5b."""
    return aminer_like(num_authors=220, num_terms=110, seed=13)


@pytest.fixture(scope="session")
def amazon_small():
    """Amazon-like instance for Table 4 / Fig 4."""
    return amazon_like(num_products=200, seed=17)


@pytest.fixture(scope="session")
def amazon_lp():
    """Amazon-like instance for link prediction (Fig 5a).

    Affinity 0.45: co-purchases correlate with the taxonomy but are not
    determined by it (real co-purchases cross categories constantly), so
    neither pure structure nor pure semantics suffices — the regime the
    paper's Figure 5(a) describes.
    """
    return amazon_like(num_products=220, semantic_affinity=0.45, seed=19)


@pytest.fixture(scope="session")
def wikipedia_small():
    return wikipedia_like(num_articles=220, seed=23)


@pytest.fixture(scope="session")
def wordnet_small():
    return wordnet_like(depth=6, seed=29)
