"""One shard protocol for serving and training.

Every kind in ``ENVELOPE_KINDS`` is sent by one client stub
(:class:`~repro.cluster.worker.ShardWorker`) and answered by one dispatch
(:meth:`~repro.cluster.engine.ShardEngine.handle`), whichever engine family
is behind the transport.  Also here: the refusals on that path, each
provoked and its message asserted.
"""

import ast
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterRouter,
    DistributedTrainer,
    build_engine_from_args,
)
from repro.cluster import worker as worker_module
from repro.cluster.engine import ShardEngine, TrainEngine
from repro.cluster.transport import ENVELOPE_KINDS, WIRE_KINDS, Envelope
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.obs.dist import make_trace_ctx


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.4)


@pytest.fixture(scope="module")
def checkpoint(acm, tmp_path_factory):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=0)
    path = tmp_path_factory.mktemp("protocol") / "widen.ckpt"
    model.save(path)
    return path


@pytest.fixture
def router(acm, checkpoint):
    with ClusterRouter.from_checkpoint(checkpoint, acm.graph, 2) as router:
        yield router


@pytest.fixture
def trainer(acm, checkpoint):
    with DistributedTrainer(checkpoint, acm.graph, 2) as trainer:
        yield trainer


def _handled_kinds(engine_class) -> set:
    return {
        name[len("_handle_"):]
        for name in dir(engine_class)
        if name.startswith("_handle_")
    }


def test_the_engines_answer_exactly_the_envelope_kinds():
    assert len(set(ENVELOPE_KINDS)) == len(ENVELOPE_KINDS)
    assert _handled_kinds(ShardEngine) | _handled_kinds(TrainEngine) == set(
        ENVELOPE_KINDS
    )
    assert "handle" not in vars(TrainEngine)


def _envelope_kinds(path: Path) -> set:
    """The kinds of every ``Envelope(kind=...)`` built in ``path``; each
    must be a literal."""
    kinds = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Envelope":
            (kind,) = [kw.value for kw in node.keywords if kw.arg == "kind"]
            assert isinstance(kind, ast.Constant), f"{path}: {ast.unparse(node)}"
            kinds.add(kind.value)
    return kinds


def test_one_stub_sends_every_kind():
    """The stub sends every kind but ``shutdown``; anywhere else in the
    package an envelope is the wire's own — the spawn handshake, a
    heartbeat, a shutdown."""
    stub = Path(worker_module.__file__)
    assert _envelope_kinds(stub) == set(ENVELOPE_KINDS) - {"shutdown"}
    for path in stub.parents[1].rglob("*.py"):
        if path != stub:
            assert _envelope_kinds(path) <= {"spawn", "clock", "shutdown"}, path


@pytest.mark.parametrize("family", ["router", "trainer"])
def test_an_unknown_kind_comes_back_as_an_error_reply(family, request):
    fleet = request.getfixturevalue(family)
    engine = fleet.workers[0].transport.engine
    reply = fleet.workers[0].transport.send(Envelope(kind="bogus")).wait(30)
    assert not reply.ok
    assert reply.error["type"] == "ValueError"
    assert "unknown envelope kind 'bogus'" in reply.error["message"]
    assert engine.registry.counter("shard_errors_total", kind="bogus").value == 1.0


@pytest.mark.parametrize("kind", ["replay", "telemetry", "reset"])
def test_the_logical_clock_kinds_are_unknown(router, kind):
    """The cluster's one request path is ``serve``: the old replay kinds
    are refused off the wire and answered as unknown by an engine."""
    assert kind not in WIRE_KINDS
    reply = router.workers[0].transport.send(Envelope(kind=kind)).wait(30)
    assert not reply.ok
    assert f"unknown envelope kind {kind!r}" in reply.error["message"]


@pytest.mark.parametrize("kind", ["train_grads", "train_apply"])
def test_the_separate_sync_kinds_are_unknown(trainer, kind):
    """A training step is one exchange: the gradients ride the
    ``train_microbatch`` reply and the update rides the next envelope, so
    the old gradient-export and update kinds are refused off the wire and
    answered as unknown by an engine."""
    assert kind not in WIRE_KINDS
    reply = trainer.workers[0].transport.send(Envelope(kind=kind)).wait(30)
    assert not reply.ok
    assert f"unknown envelope kind {kind!r}" in reply.error["message"]


def test_one_epoch_is_one_envelope_per_step(acm, trainer):
    """Every engine of a 2-shard fleet handles one ``train_epoch_begin``,
    one ``train_microbatch`` per global step and one ``train_epoch_end``
    in an epoch — nothing else."""
    seen = []
    for worker in trainer.workers:
        engine = worker.transport.engine
        kinds = []
        seen.append(kinds)

        def counting(envelope, handle=engine.handle, kinds=kinds):
            kinds.append(envelope.kind)
            return handle(envelope)

        engine.handle = counting
    trainer.fit(acm.split.train, 1)
    steps = -(-acm.split.train.size // trainer.config.batch_size)
    assert steps > 1
    for kinds in seen:
        assert kinds == (
            ["train_epoch_begin"]
            + ["train_microbatch"] * steps
            + ["train_epoch_end"]
        )


def test_a_traced_train_envelope_ships_its_spans(acm, trainer):
    worker = trainer.workers[0]
    worker.begin_epoch(acm.split.train).result(30)
    reply = worker.transport.send(
        Envelope(
            kind="train_microbatch",
            payload={"start": 0},
            trace_ctx=make_trace_ctx("train-1"),
        )
    ).wait(60)
    assert reply.ok
    assert reply.trace["shard"] == 0
    names = [span["name"] for span in reply.trace["spans"]]
    assert "shard.train_microbatch" in names
    untraced = worker.finish_epoch(None).wait(30)
    assert untraced.ok and untraced.trace is None


@pytest.fixture(scope="module")
def train_payloads(acm, checkpoint):
    """Shard 0's reply payload to every ``train_*`` kind, by kind: one
    epoch of one microbatch (its gradients ride the reply and come back as
    the epoch's last update), then the replica's checkpoint."""
    with DistributedTrainer(checkpoint, acm.graph, 2) as trainer:
        worker = trainer.workers[0]
        payloads = {
            "train_epoch_begin": worker.begin_epoch(acm.split.train).result(60),
            "train_microbatch": worker.run_microbatch(0, None).result(60),
        }
        update = (payloads["train_microbatch"]["grads"], None)
        payloads["train_epoch_end"] = worker.finish_epoch(update).result(60)
        payloads["train_checkpoint"] = worker.checkpoint().result(60)
    return payloads


@pytest.mark.parametrize(
    "kind", [k for k in ENVELOPE_KINDS if k == "serve" or k.startswith("train_")]
)
def test_replies_carry_no_compute_stamp(kind, request, train_payloads):
    """The fleet runs on the coordinator's wall clock: no engine stamps
    its own handler time into a reply."""
    if kind == "serve":
        router = request.getfixturevalue("router")
        payload = router.workers[0].submit_serve([0], "embed").result(30)
    else:
        payload = train_payloads[kind]
    assert isinstance(payload, dict) and "seconds" not in payload


def test_an_unknown_engine_family_is_refused():
    with pytest.raises(ValueError, match="unknown engine family 'bogus'"):
        build_engine_from_args({"engine": "bogus"})


def test_a_static_fleet_needs_one_address_per_shard(acm, checkpoint):
    with pytest.raises(ValueError, match="workers= names 1 addresses for 2 shards"):
        ClusterRouter(
            checkpoint, acm.graph, 2, transport="socket", workers=["127.0.0.1:1"]
        )


def test_a_closed_router_refuses_calls(router):
    router.close()
    with pytest.raises(RuntimeError, match="cluster router is closed"):
        router.embed([0])


def test_a_closed_trainer_refuses_calls(acm, trainer):
    trainer.close()
    with pytest.raises(RuntimeError, match="distributed trainer is closed"):
        trainer.fit(acm.split.train, 1)


def test_tracing_and_slo_outputs_need_them_enabled(router, tmp_path):
    with pytest.raises(RuntimeError, match="distributed tracing is not enabled"):
        router.write_dist_trace(tmp_path / "trace.json")
    with pytest.raises(RuntimeError, match="SLO monitoring is not enabled"):
        router.slo_report()
