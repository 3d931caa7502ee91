"""One ``Fleet`` under serving and training.

:class:`~repro.cluster.router.ClusterRouter` and
:class:`~repro.cluster.train.DistributedTrainer` bring their shard engines
up through the same :class:`~repro.cluster.fleet.Fleet`, every engine is
built by ``build_engine_from_args`` from one arguments schema, and a
recovery respawns through the method bring-up used.  (What the fleet then
*serves* and *trains* is pinned bit for bit in ``test_transport.py``,
``test_net.py`` and ``test_train_loop.py``.)
"""

import time

import numpy as np
import pytest

from repro.cluster import ClusterPlan, ClusterRouter, DistributedTrainer
from repro.cluster import fleet as fleet_module
from repro.cluster import router as router_module
from repro.cluster.fleet import Fleet, LocalWorkerSpawner
from repro.cluster.transport import WorkerDown
from repro.core import WidenClassifier
from repro.datasets import make_acm

SCHEMA = frozenset({
    "engine", "spec_payload", "checkpoint", "checkpoint_bytes", "config",
    "serving_state",
})


def fresh_graph():
    return make_acm(seed=0, scale=0.4).graph


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Zero-epoch checkpoint: serving and training engines both spawn
    from it."""
    acm = make_acm(seed=0, scale=0.4)
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=0)
    path = tmp_path_factory.mktemp("fleet") / "widen.npz"
    model.save(path)
    return path


def test_router_and_trainer_hand_engines_one_args_schema(checkpoint, monkeypatch):
    seen = []
    real = fleet_module.build_engine_from_args

    def recording(args):
        seen.append(args)
        return real(args)

    monkeypatch.setattr(fleet_module, "build_engine_from_args", recording)
    with ClusterRouter.from_checkpoint(
        checkpoint, fresh_graph(), 2, seed=7
    ) as router, DistributedTrainer(checkpoint, fresh_graph(), 2) as trainer:
        for ours, theirs in zip(router.plan.shards, trainer.plan.shards, strict=True):
            np.testing.assert_array_equal(ours.owned, theirs.owned)
    assert [args["engine"] for args in seen] == ["serve", "serve", "train", "train"]
    assert {frozenset(args) for args in seen} == {SCHEMA}


def test_recover_respawns_through_the_method_bring_up_used(checkpoint, monkeypatch):
    opened = []
    real_open = Fleet.open

    def recording_open(self, shard_id, args):
        opened.append((shard_id, frozenset(args)))
        return real_open(self, shard_id, args)

    monkeypatch.setattr(Fleet, "open", recording_open)
    router = ClusterRouter.from_checkpoint(
        checkpoint, fresh_graph(), 2, transport="socket", seed=7
    )
    try:
        assert [shard for shard, _ in opened] == [0, 1]
        probe = np.arange(8)
        before = router.embed(probe)
        router.fleet.registry.kill(1)
        np.testing.assert_array_equal(router.embed(probe), before)
        assert [shard for shard, _ in opened] == [0, 1, 1]
        assert {keys for _, keys in opened} == {SCHEMA}
        assert router.workers[1].transport is router.fleet.transports[1]
        assert router.workers[1].respawns == 1
    finally:
        router.close()


def test_failed_bring_up_tears_down_what_it_started(checkpoint, monkeypatch):
    built = []
    real = fleet_module.build_engine_from_args

    def second_shard_fails(args):
        if built:
            raise RuntimeError("no such shard")
        built.append(real(args))
        return built[0]

    monkeypatch.setattr(fleet_module, "build_engine_from_args", second_shard_fails)
    with pytest.raises(RuntimeError, match="no such shard"):
        ClusterRouter.from_checkpoint(checkpoint, fresh_graph(), 2, seed=7)
    assert built[0].closed


def test_router_that_fails_after_bring_up_closes_its_fleet(checkpoint, monkeypatch):
    """``dist_tracing=True`` runs the clock handshake after the workers are
    up; when it fails there is no router to close, so the constructor
    closes the fleet itself."""
    built, closed = [], []
    real_build, real_close = fleet_module.build_engine_from_args, Fleet.close

    def recording_build(args):
        built.append(real_build(args))
        return built[-1]

    def recording_close(self):
        closed.append(self)
        real_close(self)

    def handshake_fails(*args, shard_id, **kwargs):
        raise WorkerDown(shard_id, "connection_reset", "clock probe failed")

    monkeypatch.setattr(fleet_module, "build_engine_from_args", recording_build)
    monkeypatch.setattr(Fleet, "close", recording_close)
    monkeypatch.setattr(router_module, "clock_handshake", handshake_fails)
    with pytest.raises(WorkerDown, match="clock probe failed"):
        ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, seed=7, dist_tracing=True
        )
    assert len(closed) == 1
    assert len(built) == 2 and all(engine.closed for engine in built)


def test_spawner_startup_timeout_fires_on_a_silent_child(tmp_path, monkeypatch):
    """A child that neither prints its LISTENING line nor exits is killed
    and reaped at ``startup_timeout``, not waited on until it finishes."""
    script = tmp_path / "silent-python"
    script.write_text("#!/bin/sh\nexec sleep 20\n")
    script.chmod(0o755)
    children = []
    real_popen = fleet_module.subprocess.Popen

    def recording_popen(*args, **kwargs):
        children.append(real_popen(*args, **kwargs))
        return children[-1]

    monkeypatch.setattr(fleet_module.subprocess, "Popen", recording_popen)
    spawner = LocalWorkerSpawner(python=str(script), startup_timeout=1.0)
    start = time.monotonic()
    with pytest.raises(WorkerDown, match="no LISTENING line within 1 s") as down:
        spawner.spawn_all([3])
    assert time.monotonic() - start < 2 * spawner.startup_timeout
    assert (down.value.shard_id, down.value.reason) == (3, "spawn_failed")
    (child,) = children
    assert child.returncode is not None and child.stdout.closed



def fake_python(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def test_spawner_starts_every_child_before_reading_any(tmp_path, monkeypatch):
    """Three children that each take 1 s to listen come up in about one
    start-up, not three: all are started before the first line is read."""
    script = fake_python(
        tmp_path / "slow-python",
        "sleep 1\necho 'LISTENING 127.0.0.1 4242'\nexec sleep 20\n",
    )
    children, started_at_first_wait = [], []
    real_popen, real_select = fleet_module.subprocess.Popen, fleet_module.select.select

    def recording_popen(*args, **kwargs):
        children.append(real_popen(*args, **kwargs))
        return children[-1]

    def recording_select(*args):
        if not started_at_first_wait:
            started_at_first_wait.append(len(children))
        return real_select(*args)

    monkeypatch.setattr(fleet_module.subprocess, "Popen", recording_popen)
    monkeypatch.setattr(fleet_module.select, "select", recording_select)
    spawner = LocalWorkerSpawner(python=script, startup_timeout=10.0)
    start = time.monotonic()
    try:
        handles = spawner.spawn_all([0, 1, 2])
        elapsed = time.monotonic() - start
    finally:
        for child in children:
            child.kill()
            child.wait()
            child.stdout.close()
    assert started_at_first_wait == [3]
    assert elapsed < 2.0
    assert [(h.shard_id, h.port) for h in handles] == [(0, 4242), (1, 4242), (2, 4242)]


def test_failed_spawn_reaps_every_child_and_says_why(tmp_path, monkeypatch):
    """The second child dies at start-up: bring-up raises its
    ``spawn_failed`` with the tail of its stderr, and the first child,
    already listening, is reaped too."""
    # Which child fails is told to it, not raced for: the children start
    # together, so a shared marker file could go to either one.
    script = fake_python(
        tmp_path / "flaky-python",
        'if [ "$FAKE_CHILD" = 0 ]; then\n'
        "  echo 'LISTENING 127.0.0.1 4242'\n"
        "  exec sleep 20\n"
        "fi\n"
        "echo 'ImportError: no module named bogus' >&2\n"
        "exit 1\n",
    )
    children = []
    real_popen = fleet_module.subprocess.Popen

    def recording_popen(*args, **kwargs):
        kwargs["env"] = dict(kwargs["env"], FAKE_CHILD=str(len(children)))
        children.append(real_popen(*args, **kwargs))
        return children[-1]

    monkeypatch.setattr(fleet_module.subprocess, "Popen", recording_popen)
    fleet = Fleet("socket")
    fleet.registry.spawner = LocalWorkerSpawner(python=script, startup_timeout=10.0)
    shards = ClusterPlan(fresh_graph(), 2).shards
    with pytest.raises(WorkerDown) as down:
        fleet.bring_up("serve", shards, [None, None], [{}, {}])
    assert (down.value.shard_id, down.value.reason) == (1, "spawn_failed")
    assert "rc=1" in down.value.detail
    assert "ImportError: no module named bogus" in down.value.detail
    assert len(children) == 2 and fleet.transports == []
    assert all(child.poll() is not None and child.stdout.closed for child in children)

class TestTrainerRefusals:
    @pytest.mark.parametrize("name", ["thread", "mp"])
    def test_removed_transport_names(self, checkpoint, name):
        with pytest.raises(ValueError, match="'inline', 'socket'"):
            DistributedTrainer(checkpoint, fresh_graph(), 2, transport=name)

    def test_replace_mode_checkpoint(self, tmp_path):
        acm = make_acm(seed=0, scale=0.4)
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=2, embedding_mode="replace"
        )
        model.fit(acm.graph, acm.split.train[:40], epochs=0)
        model.save(tmp_path / "replace.npz")
        with pytest.raises(ValueError, match='embedding_mode="project"'):
            DistributedTrainer(tmp_path / "replace.npz", acm.graph, 2)
