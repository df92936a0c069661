"""The repo's benchmark: ``repro serve`` end to end, and layer by layer.

    python3 perfbench/run.py --workload pair-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` launches ``repro serve`` three (pair-hot) or five times
(``setup_s`` is the median), drives the workload's seeded request list
through the line protocol in the phases the workload defines -- one per
launch, on the last launches -- checks every answer and prints the
end-to-end metrics, the timing ones as medians over windows of at least
1,010 reads.  ``--trace 1`` runs the whole list once untraced and once
through ``traced_serve.py`` and prints the per-layer metrics.  The last
stdout line is the JSON result; the line before it is the run record.  A
wrong answer prints ``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# One thread per BLAS/OpenMP pool, in this client (numpy is first imported
# after this line) and in every server process it starts.
THREAD_PINS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

# Keep the benchmark's directory free of byte-code caches.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOLERANCE = 1e-12  # the repo's batch == scalar contract (absolute)

END_TO_END = [
    ("qps", "req/s"), ("p50_ms", "ms"), ("p99_ms", "ms"), ("setup_s", "s"),
    ("mem_mb", "MB"), ("err_mean", "score"), ("overlap10", "fraction"),
]
# Printed with the end-to-end table and kept in the run record, but not
# in the result line: neither exists on every workload with a nonzero
# value (the result's attempted/failed carry fail_share).
REPORTED_ONLY = [("update_ms", "ms"), ("fail_share", "fraction")]


@dataclass
class Timed:
    """One timed phase: its lines, their times and responses, and memory."""

    lines: list
    sent: list
    received: list
    responses: list
    pss: list  # {pid: MB} samples taken during the phase

    @property
    def qps(self) -> float:
        answered = sum("error" not in r for r in self.responses)
        return answered / ((self.received[-1] - self.sent[0]) / 1e9)

    def mem_mb(self, pid: int | None = None) -> float:
        """Median over the samples of the summed (or one process's) PSS."""
        import numpy as np

        return float(np.median([
            sum(sample.values()) if pid is None else sample[pid]
            for sample in self.pss
        ]))


@dataclass
class Session:
    """What one ``run_session`` observed."""

    setups: list = field(default_factory=list)
    setup_window: tuple = (0, 0)
    warm: list = field(default_factory=list)   # (line, response) pairs
    timed: list = field(default_factory=list)  # Timed, one per part
    probe: list = field(default_factory=list)
    server_pid: int = 0
    banner: dict = field(default_factory=dict)
    exit_codes: list = field(default_factory=list)


def server_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_session(wl, cache: Path, env: dict, launches: int, phases: list,
                probe: bool, spans: Path | None = None) -> Session:
    """Launch the server *launches* times; the last ``len(phases)`` launches
    each replay one phase, the last one then the probe."""
    from client import Server

    serve = ["serve", *wl.serve_args]
    if spans is None:
        argv = [sys.executable, "-m", "repro", *serve]
    else:
        argv = [sys.executable, str(HERE / "traced_serve.py"), str(spans),
                *serve, "--timings", "--metrics-out",
                str(spans / "metrics.json")]
    session = Session()
    log = cache / "serve.log"
    first_timed = launches - len(phases)
    for launch in range(launches):
        server = Server(argv, cache, env, log)
        try:
            warm = server.exchange([line.text for line in wl.warmup])
            ready = time.monotonic_ns()
            session.warm += list(zip(wl.warmup, warm))
            session.setups.append((ready - server.spawned_ns) / 1e9)
            session.setup_window = (server.spawned_ns, ready)
            session.banner = server.banner
            if launch >= first_timed:
                lines = phases[launch - first_timed]
                session.timed.append(Timed(lines, *server.closed_loop(
                    [line.text for line in lines], wl.window)))
                session.server_pid = server.proc.pid
            if launch == launches - 1 and probe and wl.probe:
                session.probe = server.exchange(
                    [line.text for line in wl.probe])
            session.exit_codes.append(server.close())
        finally:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
    return session


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

class Checker:
    """Counts error responses and answers that differ from a reference."""

    def __init__(self) -> None:
        self.failed = 0
        self.mismatches: list = []

    def response(self, what: str, response: dict) -> bool:
        if "error" in response:
            self.failed += 1
            return False
        if response.get("degraded"):
            self.mismatches.append(f"{what}: answered degraded")
            return False
        return True

    def values(self, what: str, got, expected) -> None:
        import numpy as np

        got = np.asarray(got, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if got.shape != expected.shape or np.any(
                np.abs(got - expected) > TOLERANCE):
            self.mismatches.append(f"{what}: {got.tolist()} != "
                                   f"{expected.tolist()}")

    def topk(self, what: str, got: list, expected: list) -> None:
        if [n for n, _ in got] != [n for n, _ in expected]:
            self.mismatches.append(f"{what}: {got} != {expected}")
        else:
            self.values(what, [s for _, s in got], [s for _, s in expected])


def check_base(wl, refs, lines: list, responses: list, checker: Checker):
    """Check lines answered from the unmutated index against the refs."""
    for line, response in zip(lines, responses):
        what = f"{wl.name} {line.text[:60]!r}"
        if not checker.response(what, response) or line.kind == "mutation":
            continue
        if line.kind == "pair":
            row, col = line.key
            checker.values(what, [response["value"]],
                           [refs.pair_mc[row, col]])
        elif line.kind == "batch":
            checker.values(what, response["values"],
                           refs.pair_mc[line.key[0]])
        else:
            checker.topk(what, response["results"],
                         refs.topk[line.key[0]]["mc"])


def check_mutated(wl, cache: Path, refs, session: Session,
                  checker: Checker):
    """update-mixed: replay each generation offline, then the whole log.

    Every phase replays ``wl.timed`` from the same index.  Reads answered
    before a phase's first mutation are checked against the base
    references; reads after its mutation *g* against
    ``QueryEngine.open(idx)`` with the first *g* mutations applied
    (scalar ``score``, within the batch == scalar contract).  Returns
    ``QueryEngine.open(idx).with_mutations(log)`` -- the engine the final
    probe must equal.
    """
    from repro.api import QueryEngine

    base, later = [], defaultdict(lambda: defaultdict(list))
    log = [line.key for line in wl.timed if line.kind == "mutation"]
    for timed in session.timed:
        applied = 0
        for line, response in zip(timed.lines, timed.responses):
            what = f"{wl.name} {line.text!r}"
            if line.kind == "mutation":
                if (checker.response(what, response)
                        and not response.get("mutated")):
                    checker.mismatches.append(f"{line.text!r}: {response}")
                applied += 1
            elif not applied:
                base.append((line, response))
            elif checker.response(what, response):
                later[applied][line.text].append(response["value"])
    check_base(wl, refs, [b[0] for b in base], [b[1] for b in base], checker)
    engine = QueryEngine.open(cache / "idx")
    for generation, mutation in enumerate(log, start=1):
        engine = engine.with_mutations([mutation])
        for text, values in later[generation].items():
            u, v = text.split()
            expected = engine.score(u, v)
            checker.values(f"{wl.name} generation {generation} {text!r}",
                           values, [expected] * len(values))
    return QueryEngine.open(cache / "idx").with_mutations(log)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def windows(timed: Timed) -> list:
    """A phase's line indices cut into consecutive windows of at least
    ``MIN_READS`` reads (phases of fewer than twice that are one window)."""
    import numpy as np

    from traffic import MIN_READS

    reads = sum(line.kind != "mutation" for line in timed.lines)
    return np.array_split(np.arange(len(timed.lines)),
                          max(reads // MIN_READS, 1))


def latency_metrics(wl, session: Session) -> dict:
    """qps, p50_ms and p99_ms per window of every timed phase, then the
    median over the windows: a stall or a slow stretch of the box moves
    the few windows it falls in, not the run's value."""
    import numpy as np

    from layers import nearest_rank

    per_window = defaultdict(list)
    updates = []
    for timed in session.timed:
        for window in windows(timed):
            reads = []
            for k in window:
                ms = (timed.received[k] - timed.sent[k]) / 1e6
                (updates if timed.lines[k].kind == "mutation"
                 else reads).append(ms)
            beyond = len(reads) - int(np.ceil(0.99 * len(reads)))
            if beyond < 10:
                raise SystemExit(f"{wl.name}: only {beyond} reads beyond p99")
            answered = sum("error" not in timed.responses[k] for k in window)
            wall = timed.received[window[-1]] - timed.sent[window[0]]
            per_window["qps"].append(answered / (wall / 1e9))
            per_window["p50_ms"].append(np.median(reads))
            per_window["p99_ms"].append(nearest_rank(reads, 0.99))
        per_window["mem_mb"].append(timed.mem_mb())  # one value per phase
    values = {name: float(np.median(v)) for name, v in per_window.items()}
    values["setup_s"] = float(np.median(session.setups))
    if updates:
        values["update_ms"] = float(np.median(updates))
    return values


def overlap(served: list, exact: list) -> float:
    return len({n for n, _ in served} & set(exact)) / len(exact)


def quality(wl, refs, session: Session, final=None) -> dict:
    """err_mean over distinct served pairs; overlap10 against exact top-10."""
    import numpy as np

    pos = refs.position
    answered = [(line, response) for timed in session.timed
                for line, response in zip(timed.lines, timed.responses)
                if "error" not in response]
    if wl.name == "topk-sharded":
        errors = {}
        overlaps = []
        for line, response in answered:
            u = line.key[0]
            for node, score in response["results"]:
                errors[(u, node)] = abs(score - refs.oracle[pos[u], pos[node]])
            overlaps.append(overlap(response["results"],
                                    refs.topk[u]["exact"]))
        return {"err_mean": float(np.mean(list(errors.values()))),
                "overlap10": float(np.mean(overlaps))}
    topk_probe = [(line, r) for line, r in zip(wl.probe, session.probe)
                  if line.kind == "topk" and "error" not in r]
    if final is None:  # pair-hot: the timed pairs and the base oracle
        errors = {}
        for line, response in answered:
            row, col = line.key
            exact = refs.oracle[pos[refs.authors[row]],
                                refs.candidates[row, col]]
            errors[line.key] = abs(response["value"] - exact)
        exact_topk = [refs.topk[line.key[0]]["exact"]
                      for line, _ in topk_probe]
        err = float(np.mean(list(errors.values())))
    else:  # update-mixed: the final probe and the final graph's oracle
        from repro.api import QueryEngine

        exact_engine = QueryEngine(final.graph, final.measure,
                                   method="iterative")
        diffs = []
        for line, response in zip(wl.probe, session.probe):
            if line.kind == "batch" and "error" not in response:
                u, *cands = line.text.split()[1:]
                diffs.extend(np.abs(np.asarray(response["values"])
                                    - exact_engine.score_batch(u, cands)))
        exact_topk = [[n for n, _ in exact_engine.top_k(line.key[0], 10)]
                      for line, _ in topk_probe]
        err = float(np.mean(diffs))
    overlaps = [overlap(r["results"], exact)
                for (_, r), exact in zip(topk_probe, exact_topk)]
    return {"err_mean": err, "overlap10": float(np.mean(overlaps))}


def check_final_probe(wl, final, session: Session, checker: Checker):
    for line, response in zip(wl.probe, session.probe):
        what = f"{wl.name} final probe {line.text[:60]!r}"
        if not checker.response(what, response):
            continue
        if line.kind == "batch":
            u, *cands = line.text.split()[1:]
            checker.values(what, response["values"],
                           final.score_batch(u, cands))
        else:
            checker.topk(what, response["results"],
                         [[n, s] for n, s in final.top_k(line.key[0], 10)])


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def run_record(args, wl, session: Session) -> dict:
    import numpy as np
    import scipy

    from prepare import source_digest

    digest, lines = source_digest(ROOT)
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        ).stdout.strip() or None
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha,
        "src_sha256": digest, "src_lines": lines,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "backend": session.banner.get("backend"),
        "thread_pins": THREAD_PINS, "window": wl.window,
        "timed_lines": len(wl.timed),
        "phase_lines": [len(phase) for phase in
                        (wl.phases if args.trace == 0 else [wl.timed])],
        "mutations": sum(line.kind == "mutation" for line in wl.timed),
        "windows": sum(len(windows(timed)) for timed in session.timed),
        "setups_s": session.setups, "exit_codes": session.exit_codes,
    }


def _print_table(title: str, rows: list) -> None:
    print(title)
    for name, unit, value in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit}")


def main(argv=None) -> int:
    from traffic import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import layers
    import traffic
    from prepare import prepare

    env = server_env()
    cache = prepare(ROOT, sys.executable, env)
    with np.load(cache / "refs.npz") as arrays:
        refs = traffic.Refs(
            json.loads((cache / "graph.json").read_text()), dict(arrays),
            json.loads((cache / "topk_refs.json").read_text()),
        )
    wl = traffic.build(args.workload, args.seed, args.seconds, refs)
    checker = Checker()
    sessions = []

    def check(session: Session) -> object:
        check_base(wl, refs, *zip(*session.warm), checker)
        if wl.name == "update-mixed":
            return check_mutated(wl, cache, refs, session, checker)
        for timed in session.timed:
            check_base(wl, refs, timed.lines, timed.responses, checker)
        check_base(wl, refs, wl.probe, session.probe, checker)
        return None

    if args.trace == 0:
        session = run_session(wl, cache, env, wl.launches, wl.phases,
                              probe=True)
        sessions.append(session)
        final = check(session)
        if final is not None:
            check_final_probe(wl, final, session, checker)
        values = latency_metrics(wl, session)
        values.update(quality(wl, refs, session, final))
        units = END_TO_END + REPORTED_ONLY
        attempted = (wl.launches * len(wl.warmup)
                     + sum(map(len, wl.phases)) + len(wl.probe))
    else:
        spans = cache / "spans"
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir()
        plain = run_session(wl, cache, env, 1, [wl.timed], probe=False)
        traced = run_session(wl, cache, env, 1, [wl.timed], probe=False,
                             spans=spans)
        sessions += [plain, traced]
        for session in sessions:
            check(session)
        (timed,) = traced.timed
        # The server numbers its submissions from 1, warm-up lines first;
        # mutation lines are applied, not submitted.
        seqs = iter(range(len(wl.warmup) + 1, len(wl.warmup) + len(wl.timed)
                          + 1))
        reads = [
            (next(seqs), timed.sent[k], timed.received[k],
             timed.responses[k], len(wl.warmup) + k)
            for k, line in enumerate(wl.timed) if line.kind != "mutation"
        ]
        worker_pss = {pid: timed.mem_mb(pid) for pid in timed.pss[-1]
                      if pid != traced.server_pid}
        values = layers.reduce(
            layers.load_spans(spans), traced.setup_window,
            (timed.sent[0], timed.received[-1]), reads,
            json.loads((spans / "metrics.json").read_text()), worker_pss,
            timed.qps, plain.timed[0].qps,
        )
        units = layers.METRICS
        attempted = 2 * (len(wl.warmup) + len(wl.timed))

    bad_exit = [c for s in sessions for c in s.exit_codes if c != 0]
    if bad_exit:
        checker.mismatches.append(f"server exit codes {bad_exit}")
    values["fail_share"] = checker.failed / attempted
    correct = not checker.mismatches and checker.failed == 0
    for mismatch in checker.mismatches[:20]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)

    kind = "per-layer" if args.trace else "end-to-end"
    phases = [wl.timed] if args.trace else wl.phases
    _print_table(
        f"perfbench {wl.name} seed={args.seed} {kind} ("
        f"{' + '.join(str(len(phase)) for phase in phases)} timed lines, "
        f"{wl.window} in flight)",
        [(name, unit, values.get(name)) for name, unit in units],
    )
    record = run_record(args, wl, sessions[-1])
    record["not_applicable"] = [n for n, _ in units if values.get(n) is None]
    record["wall_s"] = time.monotonic() - started
    if args.trace == 0:
        record["reported_only"] = {n: values.get(n) for n, _ in REPORTED_ONLY}
    print(json.dumps({"record": record}))
    reported = END_TO_END if args.trace == 0 else layers.METRICS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {
            # n/a (a layer this workload never enters) reads 0 here
            name: {"value": values[name] if values.get(name) is not None
                   else 0, "unit": unit}
            for name, unit in reported
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
