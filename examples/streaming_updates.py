"""Similarity under a stream of graph updates.

Information networks are dynamic (the paper's Section 7): collaborations
accumulate, products get co-purchased.  This example shows the incremental
path: plan the walk index from the (eps, delta) accuracy target using the
paper's Prop. 4.2 bounds, build it once, then apply edge updates — only the
walks visiting the touched node are resampled — and keep querying without
ever rebuilding from scratch.

Run:  python examples/streaming_updates.py
"""

from repro.core import DynamicWalkIndex, MonteCarloSemSim, plan_index
from repro.datasets import aminer_like


def main() -> None:
    data = aminer_like(num_authors=120, num_terms=60, seed=5)
    graph, measure = data.graph, data.measure
    print(f"Bibliographic network: {graph}")

    # Plan the index from the accuracy target (Prop. 4.2). The analytic
    # bound is conservative; we cap it at the paper's practical defaults.
    planned_walks, planned_length = plan_index(
        decay=0.6, epsilon=0.1, delta=0.05, num_nodes=graph.num_nodes
    )
    num_walks = min(planned_walks, 300)
    length = max(planned_length, 10)
    print(f"Prop. 4.2 plan for (eps=0.1, delta=0.05): n_w={planned_walks}, "
          f"t={planned_length}; using n_w={num_walks}, t={length}")
    print()

    index = DynamicWalkIndex(graph, num_walks=num_walks, length=length, seed=0)
    author_a, author_b = data.entity_nodes[0], data.entity_nodes[1]

    def report(tag: str) -> None:
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=0.05)
        score = estimator.similarity(author_a, author_b)
        candidates = data.entity_nodes[:40]
        scores = estimator.similarity_batch(author_a, candidates)
        ranked = sorted(
            zip(candidates, scores.tolist()), key=lambda item: -item[1]
        )
        closest = [node for node, _ in ranked if node != author_a][:3]
        print(f"{tag}: semsim({author_a}, {author_b}) = {score:.4f}; "
              f"closest to {author_a}: {closest}")

    report("before updates")

    # The two authors start collaborating — repeatedly.
    for round_number in range(1, 4):
        resampled = index.add_edge(author_a, author_b, weight=float(round_number))
        resampled += index.add_edge(author_b, author_a, weight=float(round_number))
        print(f"  round {round_number}: collaboration weight -> {round_number} "
              f"({resampled} walks resampled, not {index.storage_entries} rebuilt)")
        report(f"after round {round_number}")
    print()
    print(f"Total: {index.updates_applied} updates, "
          f"{index.walks_resampled} walk resamples over "
          f"{index.storage_entries} stored steps.")


if __name__ == "__main__":
    main()
