"""Run every workload over a set of seeds, and compare sets of such runs.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/set-a.jsonl
    python3 perfbench/steadiness.py --compare perfbench/results/set-a.jsonl \\
        perfbench/results/set-b.jsonl perfbench/results/set-fresh.jsonl

``--seeds`` runs ``run.py --trace 0`` on every workload for each seed, at
``BENCHMARK.json``'s ``run_seconds``, and appends each result line to
``--out``.  Workloads run interleaved, seed by seed, so a slow stretch of
the box lands on all of them.

``--compare`` prints a Markdown table over the given sets, the first one
being the base.  For each workload and end-to-end metric it gives every
set's median and spread -- the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median -- and how much worse each later set's median is than the base's,
as a share of the base's.  ``!`` marks a spread above a third of the
metric's bound, ``‼`` a spread or a median shift above the bound.
``setup_s`` is left out of the spread check: only its median is compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NO_SPREAD_CHECK = {"setup_s"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(seeds: list, out: Path) -> None:
    spec = _spec()
    with out.open("a") as sink:
        for seed in seeds:
            for workload in spec["workloads"]:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload["name"], "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=False,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                sink.write(json.dumps({
                    "workload": workload["name"], "seed": seed,
                    "exit": proc.returncode, "result": result,
                }) + "\n")
                sink.flush()
                print(workload["name"], seed, proc.returncode,
                      file=sys.stderr, flush=True)


def load(path: Path) -> tuple:
    """({workload: {metric: [values]}}, [failed or wrong runs]) of a file."""
    values: dict = {}
    bad = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row["exit"] != 0 or not (row["result"] or {}).get("correct"):
            bad.append(f"{row['workload']} seed {row['seed']} "
                       f"(exit {row['exit']})")
            continue
        for name, metric in row["result"]["metrics"].items():
            values.setdefault(row["workload"], {}).setdefault(
                name, []).append(metric["value"])
    return values, bad


def summary(series: list) -> tuple:
    """(median, spread) of one metric's values; no spread for one value."""
    median = statistics.median(series)
    if len(series) < 2:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(series, n=4)
    return median, (q3 - q1) / median


def report(paths: list) -> int:
    """Print the comparison table; return how many checks went over."""
    metrics = {m["name"]: m for m in _spec()["end_to_end"]}
    names = [p.stem.removeprefix("set-") for p in paths]
    sets = [load(path) for path in paths]
    for name, (values, bad) in zip(names, sets):
        runs = {w: len(next(iter(v.values()))) for w, v in values.items()}
        print(f"- set `{name}`: runs per workload {runs}; failed or wrong "
              f"runs: {', '.join(bad) or 'none'}")
    print()
    header = (["workload", "metric", "bound"]
              + [f"{n} {col}" for n in names for col in ("median", "spread")]
              + [f"{n} vs {names[0]}" for n in names[1:]])
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    over = 0
    base = sets[0][0]
    for workload, base_metrics in base.items():
        for metric in base_metrics:
            bound = metrics[metric]["bound"]
            cells = [workload, metric, f"{bound}"]
            medians = []
            for values, _ in sets:
                median, spread = summary(values[workload][metric])
                medians.append(median)
                flag = ""
                if metric not in NO_SPREAD_CHECK:
                    flag = (" ‼" if spread > bound
                            else " !" if spread > bound / 3 else "")
                    over += spread > bound
                cells += [f"{median:.5g}", f"{spread:.1%}{flag}"]
            sign = 1 if metrics[metric]["better"] == "lower" else -1
            for median in medians[1:]:
                worse = sign * (median - medians[0]) / medians[0]
                over += worse > bound
                cells.append(f"{worse:+.1%}" + (" ‼" if worse > bound
                                                else ""))
            print("| " + " | ".join(cells) + " |")
    print()
    print(f"{over} spread(s) or median shift(s) above their bound")
    return over


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", help="run this range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="append results here")
    parser.add_argument("--compare", type=Path, nargs="*", default=[],
                        help="result files to compare (the first is the base)")
    args = parser.parse_args()
    if args.seeds:
        if args.out is None:
            parser.error("--seeds needs --out")
        run_set(_seeds(args.seeds), args.out)
    report([args.out] if args.seeds else args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
