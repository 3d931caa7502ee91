"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_stats_single_dataset(self, capsys):
        assert main(["stats", "acm", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "acm:" in out
        assert "classes" in out

    def test_stats_all_datasets(self, capsys):
        assert main(["stats", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        for name in ("acm", "dblp", "yelp"):
            assert f"{name}:" in out

    def test_train_reports_score(self, capsys):
        assert main(["train", "acm", "--epochs", "2", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "micro-F1" in out
        assert "s/epoch" in out

    def test_one_shard_reports_latency_and_a_warm_pass(
        self, capsys, monkeypatch, tmp_path
    ):
        """One shard, inline, is one server behind the router: the report
        gives the op latency percentiles and a rung mix per pass, the
        replayed pass is answered from the cache alone, and --metrics-out
        holds the serving series next to training's."""
        monkeypatch.chdir(tmp_path)  # the three artifacts land in the cwd
        assert main([
            "serve-cluster", "--dataset", "acm", "--shards", "1",
            "--epochs", "1", "--requests", "60", "--scale", "0.5",
            "--metrics-out", "metrics.jsonl",
        ]) == 0
        out = capsys.readouterr().out
        for marker in ("p50", "p95", "p99", "1 shards over the inline transport",
                       "(0 rung-count mismatches)", "rung mix, cold"):
            assert marker in out, f"serve-cluster output missing {marker!r}"
        assert "rung mix, warm    cache 60\n" in out
        names = {
            json.loads(line)["name"]
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        }
        assert {"train/loss", "serve_latency_seconds"} <= names

    def test_serve_bench_command_is_gone(self, capsys):
        """serve-cluster --shards 1 is the lone server; its twin went."""
        with pytest.raises(SystemExit):
            main(["serve-bench", "--dataset", "acm"])
        assert "'serve-bench'" in capsys.readouterr().err

    def test_train_metrics_out_dumps_registry(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "train", "acm", "--epochs", "2", "--scale", "0.5",
            "--metrics-out", str(metrics),
        ]) == 0
        records = [
            json.loads(line)
            for line in metrics.read_text().splitlines() if line
        ]
        assert records, "train --metrics-out wrote an empty file"
        names = {record["name"] for record in records}
        assert "train/loss" in names
        assert "train/messages" in names

    def test_profile_writes_trace_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "profile", "acm", "--epochs", "2", "--scale", "0.5",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        for marker in ("op-level profile", "matmul", "per-epoch training series",
                       "wide msgs", "KL fires"):
            assert marker in out, f"profile output missing {marker!r}"
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events, "profile wrote an empty Chrome trace"
        assert all(event["ph"] == "X" for event in events)
        span_names = {event["name"] for event in events}
        for expected in ("trainer.epoch", "trainer.batch", "widen.forward",
                         "graph.sample"):
            assert expected in span_names
        records = [
            json.loads(line)
            for line in metrics.read_text().splitlines() if line
        ]
        names = {record["name"] for record in records}
        for series in ("train/loss", "train/micro_f1", "train/messages",
                       "train/kl_trigger_fires", "op_calls"):
            assert series in names, f"metrics.jsonl missing series {series!r}"
        # Profiling must uninstall cleanly: the engine is back to stock.
        from repro.tensor import ops, tensor as tensor_module

        assert tensor_module.get_profiler() is None
        assert not hasattr(ops.matmul, "__wrapped__")

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            main(["stats", "imaginary"])

    def test_forward_mode_flag_is_gone(self, capsys):
        """There is one forward at run time; argparse refuses the old knob."""
        with pytest.raises(SystemExit):
            main(["train", "acm", "--forward-mode", "per_node"])
        assert "--forward-mode" in capsys.readouterr().err

    def test_tune_kernels_command_is_gone(self, capsys):
        """Kernel thresholds are constants; there is nothing to tune."""
        with pytest.raises(SystemExit):
            main(["tune-kernels"])
        assert "tune-kernels" in capsys.readouterr().err

    def test_trace_command_is_gone(self, capsys):
        """serve-cluster is the traced fleet run; its twin command went."""
        with pytest.raises(SystemExit):
            main(["trace", "--smoke"])
        assert "'trace'" in capsys.readouterr().err


class TestServeClusterCli:
    def test_smoke_with_transport_and_metrics_port(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)  # the three artifacts land in the cwd
        assert main([
            "serve-cluster", "acm", "--smoke", "--shards", "2",
            "--transport", "socket", "--metrics-port", "0",
            "--prometheus-out", "cluster.prom",
        ]) == 0
        printed = capsys.readouterr().out
        for marker in ("socket transport", "shard 1: ", "scatter groups of 8",
                       "(0 rung-count mismatches)", "rung mix", "compute ",
                       "SLO               p50", "process lanes",
                       "attribution records", "Prometheus samples"):
            assert marker in printed, f"serve-cluster output missing {marker!r}"
        assert "metrics endpoint live at http://127.0.0.1:" in printed
        records = [
            json.loads(line)
            for line in (tmp_path / "attribution.jsonl").read_text().splitlines()
        ]
        # Two passes of 48 requests in groups of 8: twelve ops.
        assert len(records) == 12
        assert len({record["trace_id"] for record in records}) == 12
        assert all(sum(r["rungs"].values()) == r["nodes"] for r in records)
        slo = json.loads((tmp_path / "slo_report.json").read_text())
        assert slo["window_count"] == 12
        events = json.loads((tmp_path / "dist_trace.json").read_text())
        assert len({e["pid"] for e in events["traceEvents"] if e["ph"] == "X"}) >= 2
        assert 'shard="1"' in (tmp_path / "cluster.prom").read_text()

    def test_failed_replay_leaks_nothing(self, monkeypatch, tmp_path):
        """An exception mid-run still takes the socket worker processes
        and the ``/metrics`` listener down with it."""
        import threading

        from repro.cluster import ClusterRouter, fleet

        spawned = []
        popen = fleet.subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        def boom(self, *args, **kwargs):
            raise RuntimeError("replay blew up")

        monkeypatch.setattr(fleet.subprocess, "Popen", recording_popen)
        monkeypatch.setattr(ClusterRouter, "embed", boom)
        monkeypatch.chdir(tmp_path)  # serve-cluster writes its reports to the cwd
        with pytest.raises(RuntimeError, match="replay blew up"):
            main([
                "serve-cluster", "acm", "--smoke", "--shards", "2",
                "--transport", "socket", "--metrics-port", "0",
            ])
        assert len(spawned) == 2
        assert all(process.poll() is not None for process in spawned)
        assert not [
            thread for thread in threading.enumerate()
            if thread.name.startswith("metrics-http-")
        ]


class TestStoreCli:
    def test_store_build_then_serve_one_shard(
        self, capsys, monkeypatch, tmp_path
    ):
        store_dir = tmp_path / "acm-store"
        assert main([
            "store-build", "acm", "--scale", "0.3", "--epochs", "1",
            "--out", str(store_dir),
        ]) == 0
        printed = capsys.readouterr().out
        assert "materialized" in printed
        assert " B/row = " in printed  # rows x bytes per row = total
        assert "params digest" in printed
        assert store_dir.is_file()  # one file, no staging file beside it
        assert [path.name for path in tmp_path.iterdir()] == ["acm-store"]

        # Same dataset/seed/epochs/scale reproduce the same parameters, so
        # the trained-in-place one-shard serve-cluster accepts the store's
        # digest, and the cold pass reads rows from it.
        monkeypatch.chdir(tmp_path)
        assert main([
            "serve-cluster", "--dataset", "acm", "--shards", "1", "--scale",
            "0.3", "--epochs", "1", "--requests", "40", "--store", str(store_dir),
        ]) == 0
        printed = capsys.readouterr().out
        assert "store: sliced" in printed
        (lookups,) = [
            line for line in printed.splitlines() if line.startswith("store lookups")
        ]
        hits = int(lookups.split("hit ")[1].split(" ")[0])
        assert hits > 0, lookups

    def test_store_build_refuses_a_directory_before_training(
        self, capsys, monkeypatch, tmp_path
    ):
        """A directory at --out is refused with one line and a non-zero
        exit, before a single epoch is trained."""
        from repro.core import WidenClassifier

        fits = []
        monkeypatch.setattr(
            WidenClassifier, "fit", lambda *args, **kwargs: fits.append(args)
        )
        assert main([
            "store-build", "acm", "--scale", "0.3", "--epochs", "1",
            "--out", str(tmp_path),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro store-build: error: store ")
        assert "is a directory" in captured.err
        assert fits == []

    def test_serve_cluster_accepts_store(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        store_dir = tmp_path / "acm-store"
        assert main([
            "store-build", "acm", "--scale", "0.3", "--epochs", "1",
            "--out", str(store_dir),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve-cluster", "acm", "--smoke", "--shards", "2",
            "--store", str(store_dir),
        ]) == 0
        printed = capsys.readouterr().out
        assert "store: sliced" in printed
        assert "(0 rung-count mismatches)" in printed
        rungs = {}
        for line in (tmp_path / "attribution.jsonl").read_text().splitlines():
            for rung, count in json.loads(line)["rungs"].items():
                rungs[rung] = rungs.get(rung, 0) + count
        assert rungs.get("store", 0) > 0
