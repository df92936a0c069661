"""Estimator accuracy gauges, registered once for the core package.

The counters mirrored by :class:`~repro.core.montecarlo.EstimatorStats`
say how much *work* an estimator did; these gauges say how much
*statistical quality* the latest answer carried — the numbers an operator
reads next to a latency dashboard to judge whether a fast answer was also
a trustworthy one:

``engine_final_residual{engine=}``
    the stopping-rule residual the last fixed-point solve ended on (the
    iterative engine's accuracy: how far from the fixed point it stopped);
``engine_walk_count{engine, estimator}``
    the per-node walk budget ``n_w`` behind the MC estimators — the
    sample size every estimate divides by;
``engine_effective_walks{engine, estimator}``
    mean **met** coupled walks per scored pair of the latest batch — the
    effective sample size actually contributing to each estimate (far
    below ``n_w`` for dissimilar pairs, which is exactly the variance
    story the paper's confidence bounds are about);
``estimator_tables_built_total{mode}``
    the MC SemSim estimator's lookup tables (the per-step tables and the
    ``SO`` matrix, one count each) built in full (``mode="full"``) or
    carried over from the previous index generation (``"carried"``) — a
    generation swap that falls back to a full build shows up here.

Kept in one module (mirroring :mod:`repro.sched.metrics`) so the
iterative solver, both MC estimators and the shard-worker engine share
families instead of re-registering, and so ``docs/observability.md`` has
one source of truth.
"""

from __future__ import annotations

from repro.obs.registry import get_registry

_REGISTRY = get_registry()

ENGINE_FINAL_RESIDUAL = _REGISTRY.gauge(
    "engine_final_residual",
    help="Stopping-rule residual (max absolute off-diagonal change) the "
    "last fixed-point solve ended on — below the tolerance when it "
    "converged, above it when the iteration cap cut the solve short.",
    labelnames=("engine",),
)
ENGINE_WALK_COUNT = _REGISTRY.gauge(
    "engine_walk_count",
    help="Per-node walk budget n_w of the MC walk index behind the "
    "estimator — the sample size every estimate divides by.",
    labelnames=("engine", "estimator"),
)
ENGINE_EFFECTIVE_WALKS = _REGISTRY.gauge(
    "engine_effective_walks",
    help="Mean met coupled walks per scored pair of the latest batch — "
    "the effective sample size actually contributing to each estimate.",
    labelnames=("engine", "estimator"),
)
ESTIMATOR_TABLES_BUILT = _REGISTRY.counter(
    "estimator_tables_built_total",
    help="MC SemSim lookup tables (step tables, SO matrix; one count "
    "each) built in full or carried over from the previous index "
    "generation.",
    labelnames=("mode",),
)
