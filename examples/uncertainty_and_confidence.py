"""Statistically confident rankings.

Monte-Carlo estimates carry sampling error; Prop. 4.3 says far-apart
scores essentially never swap ranks, while close ones may.
``top_k_confident`` surfaces exactly which rank boundaries are settled.

Run:  python examples/uncertainty_and_confidence.py
"""

from repro.core import MonteCarloSemSim, WalkIndex, top_k_confident
from repro.datasets import aminer_like


def main() -> None:
    data = aminer_like(num_authors=100, num_terms=50, seed=9)
    graph, measure = data.graph, data.measure
    print(f"Bibliographic network: {graph}")
    print()

    author_a = data.entity_nodes[0]
    index = WalkIndex(graph, num_walks=150, length=12, seed=2)
    estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
    ranking = top_k_confident(author_a, data.entity_nodes, 5, estimator)
    print(f"Top-5 most similar to {author_a} (MC estimates ± 95% half-width):")
    for (node, estimate, half), settled in zip(ranking.ranking, ranking.separated):
        marker = "settled" if settled else "could swap with the next rank"
        print(f"    {node:<14} {estimate:.4f} ± {half:.4f}   [{marker}]")


if __name__ == "__main__":
    main()
