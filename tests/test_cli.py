"""Unit tests for the command-line interface."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDemo:
    def test_demo_shows_the_flip(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "picks Bo" in out
        assert "picks John" in out


class TestGenerateAndInspect:
    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "wordnet.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    def test_info(self, bundle_path, capsys):
        assert main(["info", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "wordnet-like" in out
        assert "decay bound" in out

    def test_query_iterative(self, bundle_path, capsys):
        assert main(["query", str(bundle_path), "n3", "n4"]) == 0
        out = capsys.readouterr().out
        assert "semsim(n3, n4)" in out
        assert "simrank(n3, n4)" in out

    def test_query_mc(self, bundle_path, capsys):
        assert main([
            "query", str(bundle_path), "n3", "n4",
            "--method", "mc", "--walks", "50", "--length", "8",
        ]) == 0
        assert "[mc]" in capsys.readouterr().out

    def test_topk(self, bundle_path, capsys):
        assert main(["topk", str(bundle_path), "n3", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "top-3" in out
        # three ranked lines under the header
        assert len([l for l in out.splitlines() if l.startswith("  n")]) == 3


class TestIndexCommands:
    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-index") / "wordnet.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    @pytest.fixture(scope="class")
    def index_path(self, bundle_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-index") / "wordnet.idx"
        assert main([
            "index", "build", str(bundle_path), "--out", str(path),
            "--method", "mc", "--walks", "30", "--length", "6", "--seed", "5",
        ]) == 0
        return path

    def test_index_build_reports_arrays(self, bundle_path, tmp_path, capsys):
        out_path = tmp_path / "it.idx"
        assert main([
            "index", "build", str(bundle_path), "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote engine artifact" in out
        assert (out_path / "manifest.json").is_file()

    def test_index_build_walks_out(self, bundle_path, tmp_path, capsys):
        out_path = tmp_path / "mc.idx"
        walks_path = tmp_path / "walks.npz"
        assert main([
            "index", "build", str(bundle_path), "--out", str(out_path),
            "--method", "mc", "--walks-out", str(walks_path),
        ]) == 0
        assert walks_path.is_file()

    def test_index_info(self, index_path, capsys):
        assert main(["index", "info", str(index_path)]) == 0
        out = capsys.readouterr().out
        assert "method: mc" in out
        assert "walks" in out

    def test_query_from_index(self, index_path, capsys):
        assert main(["query", "--index", str(index_path), "n3", "n4"]) == 0
        out = capsys.readouterr().out
        assert "from index" in out

    def test_query_from_index_matches_bundle(self, bundle_path, index_path, capsys):
        assert main(["query", "--index", str(index_path), "n3", "n4"]) == 0
        from_index = capsys.readouterr().out
        assert main([
            "query", str(bundle_path), "n3", "n4",
            "--method", "mc", "--walks", "30", "--length", "6", "--seed", "5",
        ]) == 0
        from_bundle = capsys.readouterr().out
        score = next(
            line.split("=")[1].split("[")[0].strip()
            for line in from_index.splitlines() if line.startswith("semsim")
        )
        assert score in from_bundle

    def test_topk_from_index(self, index_path, capsys):
        assert main(["topk", "--index", str(index_path), "n3", "-k", "3"]) == 0
        assert "top-3" in capsys.readouterr().out

    def test_query_with_cache_hits_second_time(self, bundle_path, tmp_path, capsys):
        cache = tmp_path / "store"
        args = ["query", str(bundle_path), "n3", "n4", "--cache", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert any(cache.iterdir())

    def test_index_unknown_node(self, index_path, capsys):
        assert main(["query", "--index", str(index_path), "ghost", "n3"]) == 2
        assert "not in the index" in capsys.readouterr().err

    def test_missing_bundle_and_index(self, capsys):
        assert main(["query", "n3", "n4"]) == 2
        assert "--index" in capsys.readouterr().err

    def test_index_info_missing_artifact(self, tmp_path, capsys):
        assert main(["index", "info", str(tmp_path / "absent")]) == 2
        assert "no artifact" in capsys.readouterr().err


class TestEstimatorFamilies:
    """The --method/--estimator option and the `estimators list` view."""

    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-est") / "wordnet.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    def test_estimators_list_names_all_families(self, capsys):
        assert main(["estimators", "list"]) == 0
        out = capsys.readouterr().out
        families = [line.split()[0] for line in out.splitlines()
                    if line.startswith("  ") and not line.startswith("    ")]
        assert families == ["iterative", "mc"]
        assert "mutations" in out and "shardable" in out

    def test_method_and_estimator_are_one_option(self, bundle_path, capsys):
        parse = build_parser().parse_args
        base = ["query", str(bundle_path), "n3", "n4"]
        assert parse(base).method == "iterative"
        assert parse([*base, "--method", "mc"]).method == "mc"
        assert parse([*base, "--estimator", "mc"]).method == "mc"
        # one option: the last spelling given wins
        assert parse(
            [*base, "--method", "mc", "--estimator", "iterative"]
        ).method == "iterative"
        assert not hasattr(parse(base), "estimator")
        assert main([*base, "--estimator", "mc", "--walks", "20"]) == 0
        assert "[mc]" in capsys.readouterr().out

    def test_unknown_estimator_rejected(self, bundle_path, capsys):
        # besides a typo, deleted engine families and lowrank's --rank
        base = ["query", str(bundle_path), "n3", "n4"]
        for extra in (["--estimator", "exact"], ["--estimator", "lowrank"],
                      ["--method", "linear"], ["--rank", "8"]):
            with pytest.raises(SystemExit):
                main([*base, *extra])


class TestServe:
    """The `serve` line protocol: ready banner, responses, health, errors."""

    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "wn.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    def _serve(self, bundle_path, stdin_text, monkeypatch, capsys, *extra):
        import io
        import json as _json
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin_text))
        assert main([
            "serve", str(bundle_path),
            "--method", "mc", "--walks", "30", "--seed", "2", *extra,
        ]) == 0
        out = capsys.readouterr().out
        return [_json.loads(line) for line in out.splitlines() if line]

    def test_session_answers_health_and_errors(
        self, bundle_path, monkeypatch, capsys
    ):
        banner, answer, health, missing, malformed = self._serve(
            bundle_path,
            "n3 n4\nHEALTH\nghost n3\nonly-one-token\n\n",
            monkeypatch, capsys,
        )
        assert banner["ready"] and not banner["degraded"]
        assert answer["u"] == "n3" and answer["v"] == "n4"
        assert 0.0 <= answer["value"] <= 1.0
        assert answer["method"] == "mc" and not answer["degraded"]
        assert health["circuit"] == "closed" and health["generation"] == 1
        assert missing["kind"] == "not_found" and "ghost" in missing["error"]
        assert "expected 'u v'" in malformed["error"]

    def test_response_matches_direct_engine(
        self, bundle_path, monkeypatch, capsys
    ):
        from repro.api import QueryEngine
        from repro.datasets.io import load_bundle_json

        (_, answer) = self._serve(
            bundle_path, "n3 n4\n", monkeypatch, capsys
        )
        bundle = load_bundle_json(bundle_path)
        engine = QueryEngine(
            bundle.graph, bundle.measure, method="mc", num_walks=30, seed=2
        )
        assert answer["value"] == engine.score("n3", "n4")

    def test_deadline_flag_is_threaded_through(
        self, bundle_path, monkeypatch, capsys
    ):
        banner, health = self._serve(
            bundle_path, "HEALTH\n", monkeypatch, capsys,
            "--deadline-ms", "60000", "--max-retries", "1",
        )
        assert banner["deadline_ms"] == 60000.0
        assert health["deadline_ms"] == 60000.0

    def test_scheduler_flags_land_in_the_banner(
        self, bundle_path, monkeypatch, capsys
    ):
        (banner,) = self._serve(
            bundle_path, "", monkeypatch, capsys,
            "--workers", "3", "--max-batch", "16",
            "--max-wait-us", "0", "--queue-depth", "7",
        )
        assert banner["workers"] == 3
        assert banner["max_batch"] == 16
        assert banner["queue_watermark"] == 7
        assert banner["backend"] == "blocked"  # the engine's kernel

    def test_batch_and_topk_protocol_lines(self, bundle_path, monkeypatch, capsys):
        from repro.api import QueryEngine
        from repro.datasets.io import load_bundle_json

        responses = self._serve(
            bundle_path,
            "BATCH n3 n4 n5\nTOPK n3 2\nBATCH n3\nTOPK n3 two\n",
            monkeypatch, capsys,
        )
        _, batch, topk, bad_batch, bad_topk = responses
        bundle = load_bundle_json(bundle_path)
        engine = QueryEngine(
            bundle.graph, bundle.measure, method="mc", num_walks=30, seed=2
        )
        expected = engine.score_batch("n3", ["n4", "n5"])
        assert batch["candidates"] == ["n4", "n5"]
        assert batch["values"] == [float(v) for v in expected]
        assert topk["k"] == 2 and len(topk["results"]) == 2
        assert topk["results"] == [
            [str(n), s] for n, s in engine.top_k("n3", 2)
        ]
        assert "BATCH u v1" in bad_batch["error"]
        assert "integer k" in bad_topk["error"]

    def test_pipelined_responses_come_back_in_request_order(
        self, bundle_path, monkeypatch, capsys
    ):
        # many requests written without reading a single response: the
        # drain on EOF must flush every answer, in request order
        pairs = [("n3", "n4"), ("n4", "n5"), ("n3", "n5"), ("n5", "n6")] * 5
        stdin_text = "".join(f"{u} {v}\n" for u, v in pairs)
        responses = self._serve(
            bundle_path, stdin_text, monkeypatch, capsys,
            "--workers", "4", "--max-batch", "8",
        )
        answers = responses[1:]  # drop the ready banner
        assert len(answers) == len(pairs)
        assert [(a["u"], a["v"]) for a in answers] == list(pairs)
        # identical pairs got identical values regardless of scheduling
        by_pair = {}
        for answer in answers:
            by_pair.setdefault((answer["u"], answer["v"]), set()).add(
                answer["value"]
            )
        assert all(len(values) == 1 for values in by_pair.values())

    def test_degraded_stack_answers_from_the_exact_table(
        self, bundle_path, tmp_path, monkeypatch, capsys
    ):
        import threading

        from repro.api import QueryEngine
        from repro.datasets.io import load_bundle_json

        # the walk tensor is missing and so is its directory, so the
        # background rebuild's save fails too and the stack stays degraded
        responses = self._serve(
            bundle_path, "n3 n4\nBATCH n3 n4 n5\nTOPK n3 3\n",
            monkeypatch, capsys,
            "--estimator", "mc", "--max-retries", "0",
            "--walks-file", str(tmp_path / "missing" / "w.npz"),
        )
        for thread in threading.enumerate():
            if thread.name == "repro-serve-rebuild":
                thread.join(timeout=60)
                assert not thread.is_alive()
        banner, pair, batch, topk = responses
        assert banner["degraded"] and banner["method"] == "iterative"
        for response in (pair, batch, topk):
            assert response["degraded"] is True
            assert response["method"] == "iterative"
            assert "tier" not in response
        bundle = load_bundle_json(bundle_path)
        exact = QueryEngine(bundle.graph, bundle.measure, method="iterative")
        assert pair["value"] == exact.score("n3", "n4")
        assert batch["values"] == [
            float(v) for v in exact.score_batch("n3", ["n4", "n5"])
        ]
        assert batch["values"][0] == pair["value"]
        assert topk["results"] == [
            [str(n), s] for n, s in exact.top_k("n3", 3)
        ]

    def test_sigint_drains_and_exits_zero(self, bundle_path, monkeypatch, capsys):
        import json as _json
        import sys as _sys

        class InterruptedStdin:
            """Yields two requests, then simulates Ctrl-C mid-session."""

            def __iter__(self):
                yield "n3 n4\n"
                yield "n4 n5\n"
                raise KeyboardInterrupt

        monkeypatch.setattr(_sys, "stdin", InterruptedStdin())
        assert main([
            "serve", str(bundle_path),
            "--method", "mc", "--walks", "30", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        responses = [_json.loads(line) for line in out.splitlines() if line]
        # both in-flight requests were answered before exit
        assert [(r.get("u"), r.get("v")) for r in responses[1:]] == [
            ("n3", "n4"), ("n4", "n5"),
        ]


class TestShardedServe:
    """`serve --shards`: multi-process scatter-gather over one index."""

    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve-shards") / "wn.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    @pytest.fixture(scope="class")
    def index_path(self, bundle_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve-shards") / "wn.idx"
        assert main([
            "index", "build", str(bundle_path), "--out", str(path),
            "--method", "mc", "--walks", "30", "--length", "6", "--seed", "5",
        ]) == 0
        return path

    def _serve(self, stdin_text, monkeypatch, capsys, *argv):
        import io
        import json as _json
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin_text))
        assert main(["serve", *argv]) == 0
        out = capsys.readouterr().out
        return [_json.loads(line) for line in out.splitlines() if line]

    def test_serve_shards_requires_index(self, bundle_path, capsys):
        assert main(["serve", str(bundle_path), "--shards", "2"]) == 2
        assert "--shards requires --index" in capsys.readouterr().err

    def test_sharded_serve_matches_unsharded(
        self, index_path, monkeypatch, capsys
    ):
        stdin_text = "n3 n4\nBATCH n3 n4 n5 n6\nTOPK n3 3\n"
        sharded = self._serve(
            stdin_text, monkeypatch, capsys,
            "--index", str(index_path),
            "--shards", "2",
        )
        plain = self._serve(
            stdin_text, monkeypatch, capsys, "--index", str(index_path)
        )
        banner = sharded[0]
        assert banner["ready"]
        assert len(banner["shards"]) == 2
        assert all(not shard["quarantined"] for shard in banner["shards"])
        # responses are bit-identical to the single-process runtime
        assert sharded[1]["value"] == plain[1]["value"]
        assert sharded[2]["values"] == plain[2]["values"]
        assert sharded[3]["results"] == plain[3]["results"]
        assert not any(r["degraded"] for r in sharded[1:])

    def test_health_before_eof_reports_the_live_shards(
        self, index_path, monkeypatch, capsys
    ):
        # HEALTH is the last line: its snapshot is taken when the line is
        # read, before EOF starts the drain that closes the shard clients
        _, _, health = self._serve(
            "n3 n4\nHEALTH\n", monkeypatch, capsys,
            "--index", str(index_path), "--shards", "2",
        )
        assert health["runtime_closed"] is False
        assert [s["running"] for s in health["shards"]] == [True, True]

    def test_rebuilt_index_is_served_without_shard_artifacts(
        self, bundle_path, tmp_path, monkeypatch, capsys
    ):
        import io
        import json as _json
        import sys as _sys

        index = tmp_path / "wn.idx"

        def build(seed):
            assert main([
                "index", "build", str(bundle_path), "--out", str(index),
                "--method", "mc", "--walks", "30", "--length", "6",
                "--seed", str(seed),
            ]) == 0
            capsys.readouterr()

        def serve_once(*extra):
            monkeypatch.setattr(
                _sys, "stdin", io.StringIO("BATCH n3 n4 n5 n6\n")
            )
            assert main(["serve", "--index", str(index), *extra]) == 0
            return [
                _json.loads(line)
                for line in capsys.readouterr().out.splitlines() if line
            ]

        build(5)
        serve_once("--shards", "2")

        # rebuild in place: same node count, different walks — the shard
        # workers open the index itself, so they serve the new build
        build(11)
        plain = serve_once()
        sharded = serve_once("--shards", "2")
        assert sharded[1]["values"] == plain[1]["values"]
        # nothing is written beside the index
        assert sorted(path.name for path in tmp_path.iterdir()) == ["wn.idx"]
        assert not (tmp_path / "wn.idx.shards-2").exists()

    @pytest.mark.concurrency
    def test_sigterm_drains_and_exits_zero(self, index_path):
        import json as _json
        import os
        import signal as _signal
        import subprocess
        import sys as _sys

        src = str(
            __import__("pathlib").Path(__file__).resolve().parents[1] / "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve",
             "--index", str(index_path), "--shards", "2"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, text=True,
        )
        try:
            banner = _json.loads(proc.stdout.readline())
            assert banner["ready"] and len(banner["shards"]) == 2
            proc.stdin.write("n3 n4\n")
            proc.stdin.flush()
            answer = _json.loads(proc.stdout.readline())
            assert answer["u"] == "n3" and not answer["degraded"]
            proc.send_signal(_signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)


class TestServeAllocatorPolicy:
    """`repro serve` maps large arrays, so retired generations return to the OS."""

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's"
    )
    def test_glibc_accepts_both_thresholds(self):
        import repro

        # a child process: the policy is process-wide and would outlive
        # the test
        probe = subprocess.run(
            [sys.executable, "-c",
             "from repro.cli import _release_retired_arrays_to_os as policy; "
             "print(policy())"],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert probe.stdout.strip() == "True"

    def test_missing_mallopt_is_a_no_op(self, monkeypatch):
        import repro.cli as cli

        class NoMallopt:
            pass

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: NoMallopt())
        assert cli._release_retired_arrays_to_os() is False


class TestErrorPaths:
    def test_missing_bundle_file(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "/nonexistent/bundle.json"])
        assert excinfo.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_query_node(self, tmp_path, capsys):
        path = tmp_path / "wn.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        assert main(["query", str(path), "ghost", "n3"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_unknown_topk_node(self, tmp_path, capsys):
        path = tmp_path / "wn.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        assert main(["topk", str(path), "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_bundle_with_incomplete_ic_rejected(self, tmp_path, capsys):
        import json

        path = tmp_path / "wn.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        payload = json.loads(path.read_text())
        del payload["ic"]["n0"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        for argv in (
            ["query", str(path), "n3", "n4", "--method", "mc"],
            ["info", str(path)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "'n0'" in err
            assert "Traceback" not in err


class TestObservabilityFlags:
    """--log-json / --trace-out / --metrics-out and `metrics dump`."""

    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-obs") / "wordnet.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    @pytest.fixture(autouse=True)
    def _clean_obs_state(self):
        yield
        from repro.obs.logging import reset_logging
        from repro.obs.trace import set_trace_writer

        reset_logging()
        set_trace_writer(None)

    def test_metrics_out_file_carries_core_families(
        self, bundle_path, tmp_path, capsys
    ):
        import json as _json

        from repro.obs.registry import get_registry, snapshot_delta

        metrics_path = tmp_path / "metrics.json"
        before = get_registry().snapshot()
        assert main([
            "query", str(bundle_path), "n3", "n4",
            "--method", "mc", "--walks", "20",
            "--cache", str(tmp_path / "store"),
            "--metrics-out", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        dump = _json.loads(metrics_path.read_text())
        latency = dump["histograms"]["query_latency_seconds"]["samples"]
        assert any(
            s["labels"] == {"method": "mc", "mode": "single"} and s["count"] > 0
            for s in latency
        )
        assert "walk_index_build_seconds" in dump["histograms"]
        # this run started with an empty cache: one miss, no hit
        delta = snapshot_delta(before, get_registry().snapshot())
        assert delta["counters"]["store_cache_miss_total"] == 1
        assert "store_cache_hit_total" not in delta["counters"]
        assert delta["histograms"]["walk_index_build_seconds_count"] >= 1

    def test_second_cached_run_records_a_hit(self, bundle_path, tmp_path, capsys):
        from repro.obs.registry import get_registry, snapshot_delta

        args = [
            "query", str(bundle_path), "n3", "n4",
            "--method", "mc", "--walks", "20",
            "--cache", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        before = get_registry().snapshot()
        assert main(args) == 0
        capsys.readouterr()
        delta = snapshot_delta(before, get_registry().snapshot())
        assert delta["counters"]["store_cache_hit_total"] == 1
        assert "store_cache_miss_total" not in delta["counters"]

    def test_metrics_out_stdout_appends_parseable_json(
        self, bundle_path, capsys
    ):
        import json as _json

        assert main([
            "query", str(bundle_path), "n3", "n4", "--metrics-out", "-",
        ]) == 0
        out = capsys.readouterr().out
        json_start = out.index("\n{")  # the dump follows the query output
        dump = _json.loads(out[json_start:])
        assert set(dump) == {"counters", "gauges", "histograms"}

    def test_trace_out_writes_span_lines(self, bundle_path, tmp_path, capsys):
        import json as _json

        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "query", str(bundle_path), "n3", "n4",
            "--method", "mc", "--walks", "20",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        lines = [
            _json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert lines, "trace file must not be empty"
        spans = {line["span"] for line in lines}
        assert "walk_index.build" in spans
        assert "engine.build" in spans
        assert all(line["status"] == "ok" for line in lines)
        assert all(line["wall_seconds"] >= 0 for line in lines)

    def test_log_json_emits_structured_events_on_stderr(
        self, bundle_path, tmp_path, capsys
    ):
        import json as _json

        assert main([
            "query", str(bundle_path), "n3", "n4",
            "--method", "mc", "--walks", "20",
            "--cache", str(tmp_path / "store"),
            "--log-json",
        ]) == 0
        err = capsys.readouterr().err
        events = [_json.loads(line) for line in err.splitlines()]
        assert {"cache.miss", "engine.build"} <= {e["event"] for e in events}
        assert all(e["logger"].startswith("repro") for e in events)

    def test_metrics_dump_json(self, capsys):
        import json as _json

        assert main(["metrics", "dump"]) == 0
        dump = _json.loads(capsys.readouterr().out)
        assert "query_latency_seconds" in dump["histograms"]
        assert "store_cache_hit_total" in dump["counters"]

    def test_metrics_dump_prometheus(self, capsys):
        assert main(["metrics", "dump", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE query_latency_seconds histogram" in out
        assert "# TYPE store_cache_hit_total counter" in out
        assert 'le="+Inf"' in out

    def test_metrics_dump_to_file(self, tmp_path, capsys):
        import json as _json

        out_path = tmp_path / "registry.json"
        assert main(["metrics", "dump", "--out", str(out_path)]) == 0
        assert "wrote metrics" in capsys.readouterr().out
        assert "counters" in _json.loads(out_path.read_text())

    def test_metrics_out_flushes_even_on_error_exit(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", str(tmp_path / "absent.json"), "a", "b",
                "--metrics-out", str(metrics_path),
            ])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert metrics_path.exists()


class TestDistributedServeObservability:
    """serve --metrics-out/--timings/--metrics-port, metrics dump --scrape."""

    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve-obs") / "wn.json"
        assert main(["generate", "wordnet", "--out", str(path), "--seed", "1"]) == 0
        return path

    @pytest.fixture(scope="class")
    def index_path(self, bundle_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve-obs") / "wn.idx"
        assert main([
            "index", "build", str(bundle_path), "--out", str(path),
            "--method", "mc", "--walks", "30", "--length", "6", "--seed", "5",
        ]) == 0
        return path

    def _serve(self, stdin_text, monkeypatch, capsys, *argv):
        import io
        import json as _json
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin_text))
        assert main(["serve", *argv]) == 0
        captured = capsys.readouterr()
        lines = [
            _json.loads(line) for line in captured.out.splitlines() if line
        ]
        return lines, captured.err

    def test_metrics_out_stdout_routes_to_stderr(
        self, bundle_path, monkeypatch, capsys
    ):
        """`serve --metrics-out -` must keep stdout pure protocol.

        The generic finalizer appends the dump to stdout (fine for
        `query`); under `serve` that would corrupt the response stream,
        so the dump goes to stderr instead.
        """
        import json as _json

        lines, err = self._serve(
            "n3 n4\n", monkeypatch, capsys,
            str(bundle_path), "--method", "mc", "--walks", "30",
            "--seed", "2", "--metrics-out", "-",
        )
        banner, answer = lines  # every stdout line parsed as protocol JSON
        assert banner["ready"] and answer["u"] == "n3"
        dump = _json.loads(err)
        assert set(dump) == {"counters", "gauges", "histograms"}
        assert "serve_requests_total" in dump["counters"]

    def test_sharded_metrics_out_carries_worker_shard_series(
        self, index_path, tmp_path, monkeypatch, capsys
    ):
        """The serve-owned dump is the merged view: worker kernel series
        appear under their shard label even though the router process
        never ran those kernels."""
        import json as _json

        metrics_path = tmp_path / "metrics.json"
        lines, _ = self._serve(
            "TOPK n3 3\n", monkeypatch, capsys,
            "--index", str(index_path), "--shards", "2",
            "--metrics-out", str(metrics_path),
        )
        assert lines[1]["k"] == 3 and not lines[1]["degraded"]
        dump = _json.loads(metrics_path.read_text())
        shards = {
            s["labels"].get("shard")
            for s in dump["histograms"]["kernel_seconds"]["samples"]
        }
        assert {"0", "1"} <= shards

    def test_timings_flag_annotates_every_response(
        self, bundle_path, monkeypatch, capsys
    ):
        lines, _ = self._serve(
            "n3 n4\nBATCH n3 n4 n5\nTOPK n3 2\n", monkeypatch, capsys,
            str(bundle_path), "--method", "mc", "--walks", "30",
            "--seed", "2", "--timings",
        )
        _, pair, batch, topk = lines
        for response in (pair, batch, topk):
            assert len(response["trace_id"]) == 16
            assert set(response["timings"]) == {
                "queue_us", "scatter_us", "kernel_us", "merge_us",
            }
            assert all(v >= 0 for v in response["timings"].values())
        # distinct admissions get distinct traces
        assert pair["trace_id"] != topk["trace_id"]

    def test_without_timings_responses_stay_byte_stable(
        self, bundle_path, monkeypatch, capsys
    ):
        lines, _ = self._serve(
            "n3 n4\nBATCH n3 n4 n5\n", monkeypatch, capsys,
            str(bundle_path), "--method", "mc", "--walks", "30",
            "--seed", "2",
        )
        for response in lines[1:]:
            assert "trace_id" not in response
            assert "timings" not in response

    def test_metrics_port_serves_live_scrapes_mid_session(
        self, bundle_path, monkeypatch, capsys
    ):
        """--metrics-port 0 binds an ephemeral port, publishes it in the
        banner, and answers /metrics and /health while requests flow."""
        import json as _json
        import sys as _sys
        import urllib.request

        results = {}

        class ScrapingStdin:
            """Reads the banner mid-session, scrapes, then sends work."""

            def __iter__(self):
                banner = _json.loads(
                    capsys.readouterr().out.splitlines()[0]
                )
                results["banner"] = banner
                base = f"http://127.0.0.1:{banner['metrics_port']}"
                for name, path in (
                    ("prom", "/metrics"),
                    ("json", "/metrics?format=json"),
                    ("health", "/health"),
                ):
                    with urllib.request.urlopen(
                        base + path, timeout=10.0
                    ) as response:
                        results[name] = response.read().decode()
                yield "n3 n4\n"

        monkeypatch.setattr(_sys, "stdin", ScrapingStdin())
        assert main([
            "serve", str(bundle_path), "--method", "mc", "--walks", "30",
            "--seed", "2", "--metrics-port", "0",
        ]) == 0
        assert results["banner"]["metrics_port"] > 0
        assert "# TYPE" in results["prom"]
        assert "counters" in _json.loads(results["json"])
        assert _json.loads(results["health"])["circuit"] == "closed"
        # the remaining stdout is the answer to the post-scrape request
        answer = _json.loads(capsys.readouterr().out.splitlines()[-1])
        assert answer["u"] == "n3" and answer["v"] == "n4"

    def test_metrics_dump_scrape_round_trips(self, capsys):
        from repro.obs.export import render_prometheus
        from repro.obs.http import MetricsServer

        with MetricsServer(render=lambda fmt: render_prometheus()) as srv:
            assert main([
                "metrics", "dump", "--scrape", f"{srv.host}:{srv.port}",
                "--format", "prom",
            ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE store_cache_hit_total counter" in out

    def test_metrics_dump_scrape_unreachable_is_error(self, capsys):
        from repro.obs.http import MetricsServer

        server = MetricsServer(render=lambda fmt: "")
        server.start()
        address = f"{server.host}:{server.port}"
        server.close()  # port now refuses connections
        assert main(["metrics", "dump", "--scrape", address]) == 2
        assert "scrape" in capsys.readouterr().err
