"""Retired names stay retired.

Each row is a simplification PR's promise that what it deleted does not come
back under ``src/repro``: ``(pattern, PR, reason, allowed paths)``.  An
allowed path is relative to ``src/repro``; one ending in ``/`` allows a whole
package.  A failing row names its PR and reason and lists every offending
``file:line``.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

RETIRED = [
    (
        r"os\.environ\.get|os\.getenv|Path\.home|expanduser",
        22,
        "no hidden inputs: src/ reads no environment variable and no home directory",
        (),
    ),
    (
        r"RequestRecord|ServeRequest|_scatter_gather_observed|_handle_traced"
        r"|_unwrap_serve|_nearest_rank",
        23,
        "a request is one telemetry row: the per-node record shapes and the twin paths",
        (),
    ),
    (
        r"serving_reach|reports_read_sets|refresh_graph_caches|CHECKPOINT_CLASSES"
        r"|load_checkpoint_classifier|_identity_free|_has_head|_tracks_reads",
        25,
        "one serving contract: the pre-read-set serving fallbacks and capability probes",
        (),
    ),
    (
        r"\bgather_mul|sddmm|segment_softmax|segment_matmul|SPARSE_MIN_WASTE"
        r"|select_kernel|causal_pairs|wide_sampling|make_skewed|powerlaw"
        r"|pareto_alpha|obs\.timing",
        27,
        "one kernel family, one sampling policy, one way to time a block",
        (),
    ),
    (
        r"UnsupervisedWidenTrainer|LinkPredictionTrainer|anchors_per_epoch"
        r"|edges_per_epoch|_clipped",
        28,
        "objectives on the one loop: the hand-rolled fit loops, their knobs and clip list",
        (),
    ),
    (
        r"walk_length",
        28,
        "WIDEN's walks take their length from the config; Node2Vec's is its own knob",
        ("baselines/node2vec.py",),
    ),
    (
        r"random_walk\(",
        28,
        "only graph/ calls the per-walk reference sampler",
        ("graph/",),
    ),
    (
        r"MutationLog|mutation_log_capacity|refresh_baseline|before_mutation"
        r"|record_mutation|fleet_rebuilds_total|_ShardBaseline|_SocketPendingReply"
        r"|_ResolvedReply|_PayloadField",
        30,
        "recovery rebuilds from the coordinator's present: the log, baselines and extra reply types",
        (),
    ),
    (
        r"getattr\([^)]*\"is_down\"",
        30,
        "Transport declares is_down; nothing probes for it",
        (),
    ),
    (
        r"sample_neighbor_matrix|sample_typed_neighbor_matrix|_represent\b"
        r"|_sgns_update|_NodeLevelAttention|_sample_path_neighbors|node2vec_walk\b",
        31,
        "baselines on the array path: the per-node sampler loops, HGT's recursion, "
        "the per-pair SGNS loop, HAN's copy of GAT's layer, the per-walk node2vec walker",
        (),
    ),
    (
        r"migrate_checkpoint|_stored_config|TRAINER_STATE_KEY|load_records"
        r"|forward_mode|sample_seeding",
        33,
        "the checkpoint is arrays: no migration, no legacy-config ladder, no record round trip",
        (),
    ),
    (
        r"import pickle",
        33,
        "nothing on disk or on the wire is a pickle: the wire is one JSON-header array codec",
        (),
    ),
    (
        r"TrainWorker|_maybe_flush_prometheus|flush_prometheus|prometheus_interval"
        r"|prometheus_path|slow_log_capacity|checkpoint_every|start_timeout"
        r"|request_timeout|max-frame-bytes",
        34,
        "one shard protocol: one client stub, and the fleet's timeouts are constants",
        (),
    ),
    (
        r"heartbeat_interval|heartbeat_misses|max_frame_bytes",
        34,
        "the frame bound and the heartbeat cadence are the wire's own defaults",
        ("cluster/net.py",),
    ),
    (
        r"networkx|StepLR|CosineLR|optim\.schedulers|classification_report|\bTanh\b"
        r"|\bSequential\b|xavier_normal|he_uniform|metapath_neighbors|RngMixin"
        r"|write_jsonl|read_jsonl|get_tracer|to_router_time|traces_started"
        r"|read_checkpoint_metadata|invalidation_records",
        38,
        "src/ holds what the system runs: HeteroGraph is its own graph library, "
        "Chrome export is the one span format, and a telemetry window keeps totals",
        (),
    ),
    (
        r"ShardPlanner|place_new_nodes|partition_edge_cut|owner_of|\bedge_cut",
        40,
        "a shard owns id % S: no partition, no edge cut, no stored or grown owner map",
        (),
    ),
    (
        r"partition_seed",
        40,
        "ownership has no seed; ClusterRouter.from_checkpoint drops the benchmark's argument",
        ("cluster/router.py",),
    ),
    (
        r"_handle_replay|_handle_reset|_handle_telemetry|pull_telemetry|_pull_telemetry"
        r"|reset_telemetry|requests_routed|_cmd_trace",
        41,
        "one way into a fleet: scatter-gather over the serve envelope, no "
        "logical-clock replay, its envelope kinds or its twin command",
        (),
    ),
    (
        r"_clear_totals|invalidation_kept_entries"
        r"|[Tt]elemetry\.(reset|latencies|summary|format_report)\b",
        43,
        "a served request leaves no row behind: Telemetry keeps no window, and a "
        "pass is reported from its own answers (repro.serve.loadgen)",
        (),
    ),
    (
        r"logical_seconds|_slowest|process_time",
        44,
        "the fleet runs on the coordinator's wall clock: no per-shard CPU stamps, "
        "no logical training clock",
        (),
    ),
    (
        r"\bdist_tracing\b|\bslo_target\b",
        44,
        "one way to turn on request observability: enable_dist_tracing() / enable_slo()",
        (),
    ),
    (
        r"export_grads|train_grads|train_apply",
        45,
        "a training step is one exchange: the gradients ride the microbatch reply "
        "and the update rides the next envelope",
        (),
    ),
    (
        r"max_wait",
        45,
        "every op is answered now, on a shard and on a lone server: no batching "
        "deadline",
        (),
    ),
    (
        r"\bSGD\b",
        41,
        "Adam is the optimizer the trainers run; SGD had no caller",
        (),
    ),
    (
        r"MicroBatcher|reset_clock|_busy_until|_poll_deadline|ServeResult|max-wait"
        r"|queue_depth",
        50,
        "one clock on the serve path: a lone server answers ops on the wall clock, "
        "with no batching deadline, no modelled queue and no pickup by request id",
        (),
    ),
    (
        r"TraceEvent|--rate\b|\brate=",
        50,
        "a trace is node ids sent as ops: no arrival times, no arrival rate",
        (),
    ),
    (
        r"self\.batch_size\[",
        52,
        "a telemetry row has no batch_size column: nothing read it",
        (),
    ),
    (
        r"np\.savez|np\.save\b|np\.load\b|\.npz|meta\.json",
        52,
        "one file format: every checkpoint, store and training shard is one "
        "codec record frame, published by one atomic rename",
        (),
    ),
    (
        r"serve-bench|cold_single_requests|format_report|pass_report"
        r"|node_hit_histogram",
        54,
        "one serving command, one pass report: serve-cluster --shards 1 is the "
        "lone server, and its report is read off the router's attribution records",
        (),
    ),
    (
        r"num_heads",
        55,
        "PASS° and PASS▷ are single-head attention (Eqs. 3 and 5): no head count "
        "and no head selector in the fused node; only the checkpoint loader names "
        "the key, to drop num_heads=1 and refuse any other count",
        ("core/classifier.py",),
    ),
    (
        r"class Optimizer\b|optim\.Optimizer\b|import .*\bOptimizer\b|_slot_names"
        r"|_load_slots|_load_scalars|\bbetas\b",
        55,
        "Adam is the one optimizer: no base class, no slot hooks, its betas and "
        "eps are constants",
        (),
    ),
    (
        r"return_reads|warmup_passes",
        55,
        "a keyword every caller passed one value becomes that value: serving "
        "embeddings come with their read sets, and inductive embedding warms once",
        (),
    ),
    (
        r"queue_wait",
        55,
        "an op reports one critical path, submit to answer: a chunk start minus "
        "a submit time counted the op's own earlier chunks, not load",
        (),
    ),
    (
        r"_cmd_profile|_cmd_compare|dataset_flag"
        r"|args\.(group|zipf|batch_size|cache_capacity|slo_threshold|slo_objective)\b",
        56,
        "the CLI runs the system: train --trace-out is the profiled run, "
        "bench_table2_transductive.py measures Table 2, and serve-cluster sends "
        "8-node ops to servers and an SLO monitor on the library's defaults",
        (),
    ),
]

TESTS = SRC.parents[1] / "tests"

#: Comparisons between two measured durations: which side wins depends on
#: the host and on what ran first, not on the code (a cold first epoch).
#: A test compares counted work instead; wall time is the benchmarks'.
WALL_TIME_RACE = re.compile(
    r"(epoch_seconds|latency_mean)\w*\W.*[<>].*(epoch_seconds|latency_mean)"
)


def _allowed(relative: str, allowed) -> bool:
    return any(
        relative.startswith(path) if path.endswith("/") else relative == path
        for path in allowed
    )


def _row_id(index: int) -> str:
    pr = RETIRED[index][1]
    same_pr = [i for i, row in enumerate(RETIRED) if row[1] == pr]
    return f"pr{pr}" if len(same_pr) == 1 else f"pr{pr}-{same_pr.index(index) + 1}"


@pytest.mark.parametrize(
    "pattern, pr, reason, allowed", RETIRED, ids=[_row_id(i) for i in range(len(RETIRED))]
)
def test_retired_names_stay_gone(pattern, pr, reason, allowed):
    regex = re.compile(pattern)
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if _allowed(relative, allowed):
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if regex.search(line):
                hits.append(f"src/repro/{relative}:{number}: {line.strip()}")
    assert not hits, f"PR {pr}: {reason}\n" + "\n".join(hits)


def test_tests_compare_work_not_wall_time():
    hits = [
        f"tests/{path.name}:{number}: {line.strip()}"
        for path in sorted(TESTS.glob("test_*.py"))
        if path.name != "test_retired.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if WALL_TIME_RACE.search(line)
    ]
    assert not hits, "compare counted work, not two wall times:\n" + "\n".join(hits)
