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
            "serve-cluster", "acm", "--shards", "1",
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
            main(["serve-bench", "acm"])
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

    def test_train_trace_out_writes_trace_and_metrics(self, capsys, tmp_path):
        """train --trace-out is the profiled run: the op table on stdout,
        the Chrome trace, and op_calls beside training's series."""
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "train", "acm", "--epochs", "2", "--scale", "0.5",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        for marker in ("op-level profile", "matmul", "micro-F1"):
            assert marker in out, f"train --trace-out output missing {marker!r}"
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events, "train --trace-out wrote an empty Chrome trace"
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

    def test_train_trace_out_refuses_a_fleet(self, capsys, monkeypatch):
        """A fleet has no trace lanes: --trace-out with --shards is one
        error line and exit 2, before any training."""
        from repro.core import WidenClassifier

        fits = []
        monkeypatch.setattr(
            WidenClassifier, "fit", lambda *args, **kwargs: fits.append(args)
        )
        assert main([
            "train", "acm", "--shards", "2", "--trace-out", "trace.json",
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro train: error: --trace-out")
        assert fits == []

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

    def test_profile_command_is_gone(self, capsys):
        """train --trace-out is the profiled run; its twin command went."""
        with pytest.raises(SystemExit):
            main(["profile", "acm"])
        assert "'profile'" in capsys.readouterr().err

    def test_compare_command_is_gone(self, capsys):
        """benchmarks/bench_table2_transductive.py measures Table 2."""
        with pytest.raises(SystemExit):
            main(["compare", "acm"])
        assert "'compare'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("group", "4"), ("zipf", "1.2"), ("batch-size", "8"),
        ("cache-capacity", "64"), ("slo-threshold", "0.1"),
        ("slo-objective", "0.9"), ("dataset", "acm"),
    ])
    def test_removed_flags_are_refused(self, capsys, name, value):
        """serve-cluster sends 8-node ops to servers and an SLO monitor on
        the library's defaults; the dataset is the positional argument."""
        with pytest.raises(SystemExit):
            main(["serve-cluster", "acm", f"--{name}", value])
        assert f"unrecognized arguments: --{name}" in capsys.readouterr().err


class TestAddresses:
    """--listen and --workers take host:port, a port in 0-65535; a bad one
    is one error line and exit 2 before any work."""

    @pytest.mark.parametrize("listen", ["127.0.0.1:abc", "127.0.0.1:99999", "8080"])
    def test_shard_worker_refuses_a_bad_listen_address(self, capsys, listen):
        assert main(["shard-worker", "--listen", listen]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro shard-worker: error: --listen: ")
        assert repr(listen) in err

    @pytest.mark.parametrize("command, extra", [
        ("serve-cluster", []), ("train", ["--shards", "2"]),
    ])
    def test_workers_are_checked_before_training(
        self, capsys, monkeypatch, command, extra
    ):
        from repro.core import WidenClassifier

        fits = []
        monkeypatch.setattr(
            WidenClassifier, "fit", lambda *args, **kwargs: fits.append(args)
        )
        assert main([
            command, "acm", "--transport", "socket",
            "--workers", "127.0.0.1:7001,127.0.0.1:abc", *extra,
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro {command}: error: --workers: ")
        assert "'127.0.0.1:abc'" in err
        assert fits == []

    def test_parse_address(self):
        from repro.cluster.fleet import parse_address

        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_address("worker-3.local:65535") == ("worker-3.local", 65535)
        for bad in ("127.0.0.1:65536", "127.0.0.1:", ":80", "80", "h:-1", "h:²"):
            with pytest.raises(ValueError, match="is not host:port"):
                parse_address(bad)


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
        for key in ("target", "window_count", "compliance", "burn_rate",
                    "p50_s", "p95_s", "p99_s", "slow_requests"):
            assert key in slo, f"SLO report missing {key}"
        events = json.loads((tmp_path / "dist_trace.json").read_text())
        assert len({e["pid"] for e in events["traceEvents"] if e["ph"] == "X"}) >= 2
        assert any(e["name"].startswith("shard.") for e in events["traceEvents"])
        prom = (tmp_path / "cluster.prom").read_text()
        assert 'shard="1"' in prom
        for shard in ("0", "1"):
            # Each worker process reports its own peak resident set.
            assert f'process_peak_resident_bytes{{shard="{shard}"}}' in prom, shard

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
            "serve-cluster", "acm", "--shards", "1", "--scale",
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
