"""SemSim core: the paper's contribution plus its SimRank scaffolding.

Layered as the paper presents it:

* :mod:`repro.core.iterative` — the shared fixed-point machinery
  (Section 2.3), both a vectorised numpy engine and a literal dict-based
  reference engine;
* :mod:`repro.core.semsim` / :mod:`repro.core.simrank` — the public
  measure-level entry points;
* :mod:`repro.core.decay` — decay-factor upper bounds (Theorem 2.3(5));
* :mod:`repro.core.sarw` / :mod:`repro.core.pair_engine` — the random
  surfer-pairs model (Section 3);
* :mod:`repro.core.walk_index` / :mod:`repro.core.montecarlo` /
  :mod:`repro.core.naive_mc` — the Monte-Carlo frameworks (Section 4),
  including the Importance-Sampling estimator of Algorithm 1 and its
  pruning;
* :mod:`repro.core.sling` — the SLING-style precomputed-probability index;
* :mod:`repro.core.topk` — single-source / top-k queries with semantic
  candidate pruning (Prop. 2.5).
"""

from repro.core.iterative import IterationTrace, iterate_fixed_point
from repro.core.simrank import SimRank, simrank_scores
from repro.core.semsim import SemSim, semsim_scores
from repro.core.decay import decay_contraction_bound, decay_paper_bound
from repro.core.sarw import SemanticAwareWalker, sarw_step_distribution
from repro.core.pair_engine import semsim_via_pair_graph, simrank_via_pair_graph
from repro.core.walk_index import WalkIndex, WalkPolicy
from repro.core.montecarlo import MonteCarloSemSim, MonteCarloSimRank
from repro.core.naive_mc import NaivePairSampler
from repro.core.sling import SlingIndex
from repro.core.topk import ConfidentRanking, top_k_confident, top_k_similar
from repro.core.bounds import (
    deviation_probability,
    interchange_probability,
    plan_index,
    required_truncation,
    required_walks,
)
from repro.core.single_source import single_source_exact
from repro.core.dynamic import DynamicWalkIndex
from repro.core.join import candidate_pairs, similarity_join
from repro.core.walk_index import load_walk_index, save_walk_index

__all__ = [
    "IterationTrace",
    "iterate_fixed_point",
    "SimRank",
    "simrank_scores",
    "SemSim",
    "semsim_scores",
    "decay_paper_bound",
    "decay_contraction_bound",
    "SemanticAwareWalker",
    "sarw_step_distribution",
    "semsim_via_pair_graph",
    "simrank_via_pair_graph",
    "WalkIndex",
    "WalkPolicy",
    "MonteCarloSemSim",
    "MonteCarloSimRank",
    "NaivePairSampler",
    "SlingIndex",
    "top_k_similar",
    "top_k_confident",
    "ConfidentRanking",
    "required_truncation",
    "required_walks",
    "deviation_probability",
    "interchange_probability",
    "plan_index",
    "single_source_exact",
    "DynamicWalkIndex",
    "candidate_pairs",
    "similarity_join",
    "save_walk_index",
    "load_walk_index",
]
