"""Co-purchase recommendation on an Amazon-like product network.

Demonstrates the scalable query path of the library: instead of the exact
(quadratic) iterative engine, we precompute a reverse-walk index once and
answer top-k queries with the Importance-Sampling Monte-Carlo estimator of
Algorithm 1 — with pruning (θ = 0.05) and the SLING-style index, the
configuration the paper shows to run at SimRank speed.

Run:  python examples/product_recommendations.py
"""

import time

from repro import MonteCarloSemSim, SlingIndex, WalkIndex, top_k_similar
from repro.datasets import amazon_like


def main() -> None:
    print("Generating an Amazon-like co-purchase network...")
    data = amazon_like(num_products=300, seed=7)
    graph, measure = data.graph, data.measure
    print(f"  {graph} with a {len(data.taxonomy)}-concept category taxonomy")
    print()

    print("Preprocessing: 150 reverse walks of length 15 per node + SLING index")
    start = time.perf_counter()
    walk_index = WalkIndex(graph, num_walks=150, length=15, seed=0)
    sling = SlingIndex(graph, measure, theta=0.1)
    print(f"  built in {time.perf_counter() - start:.2f}s "
          f"({walk_index.storage_bytes / 1024:.0f} KiB of walks and step offsets, "
          f"{sling.num_entries} indexed pairs)")
    print()

    estimator = MonteCarloSemSim(
        walk_index, measure, decay=0.6, theta=0.05, pair_index=sling
    )

    # Recommend for a handful of products; the semantic upper bound
    # (Prop. 2.5) prunes the candidate scan.
    for query in data.entity_nodes[:3]:
        category = data.extras["categories"][query]
        start = time.perf_counter()
        recommendations = top_k_similar(
            query, data.entity_nodes, 5, estimator.similarity, measure=measure
        )
        elapsed = (time.perf_counter() - start) * 1000
        print(f"Customers who bought {query} (category {category}) may like "
              f"[{elapsed:.1f} ms]:")
        for product, score in recommendations:
            print(f"    {product:<22} score={score:.4f} "
                  f"(category {data.extras['categories'][product]})")
        print()


if __name__ == "__main__":
    main()
