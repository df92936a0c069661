"""Assemble every persisted benchmark table into one REPORT.md.

Run after the benchmark suite:

    pytest benchmarks/ --benchmark-only
    python benchmarks/make_report.py          # writes benchmarks/REPORT.md
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent / "REPORT.md"

ORDER = [
    "fig3_convergence_aminer",
    "fig3_convergence_wikipedia",
    "table3_reduced_graph_aminer",
    "table3_reduced_graph_wikipedia",
    "table3_losslessness",
    "fig4a_time_vs_num_walks",
    "fig4b_time_vs_walk_length",
    "fig4_sling_memory",
    "table4_accuracy_aminer",
    "table4_accuracy_amazon",
    "table5_relatedness_wikipedia",
    "table5_relatedness_wordnet",
    "fig5a_link_prediction",
    "fig5b_entity_resolution",
    "preprocessing_walk_index",
    "preprocessing_lin",
    "preprocessing_scaling",
    "ablation_edge_labels",
    "ablation_proposal",
    "ablation_theta",
    "ablation_naive_mc",
    "topk_semantic_bound",
    "batch_queries",
    "batch_queries_backend",
    "single_source",
    "dynamic_updates",
    "extension_prank",
    "clustering",
    "scaling_profile",
    "scaling_sparse_engine",
    "join",
    "serve_throughput",
    "serve_sharded",
    "obs_overhead",
    "cold_start_forked_readers",
]


def main() -> None:
    """Concatenate all result tables (known order first, extras after)."""
    sections: list[str] = [
        "# Reproduction report",
        "",
        "Generated from `benchmarks/results/*.txt`; see EXPERIMENTS.md for",
        "the paper-vs-measured discussion of every table below.",
        "",
    ]
    metrics_path = RESULTS / "metrics.json"
    if metrics_path.exists():
        backend = json.loads(metrics_path.read_text(encoding="utf-8")).get(
            "backend"
        )
        if backend:
            sections += [
                f"Walk-score kernel for the recorded run: `{backend}`.",
                "",
            ]
    seen = set()
    names = ORDER + sorted(
        p.stem for p in RESULTS.glob("*.txt") if p.stem not in ORDER
    )
    for name in names:
        path = RESULTS / f"{name}.txt"
        if not path.exists() or name in seen:
            continue
        seen.add(name)
        sections.append("```")
        sections.append(path.read_text(encoding="utf-8").rstrip())
        sections.append("```")
        sections.append("")
    OUTPUT.write_text("\n".join(sections), encoding="utf-8")
    print(f"wrote {OUTPUT} ({len(seen)} sections)")


if __name__ == "__main__":
    main()
