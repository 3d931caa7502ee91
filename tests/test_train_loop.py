"""The phase-based TrainLoop and data-parallel distributed training.

Three tiers of equivalence, mirroring the serving cluster's
indistinguishability claims:

1. **Refactor bit-exactness** — the phase-decomposed
   :class:`~repro.core.train_loop.TrainLoop` driving one
   :class:`LocalTrainClient` reproduces the pre-refactor monolithic
   ``WidenTrainer.fit`` *bit for bit* on a pinned seed (the loss curve
   below was recorded against the monolith before the decomposition).
2. **1-shard = single-process** — a :class:`DistributedTrainer` with one
   inline shard is the single-process loop behind the wire codec;
   losses, F1 curves and final parameters must be identical to the last
   bit.
3. **N-shard loss-curve equivalence** — under the determinism gate
   (no dropout, no downsampling; neighbor sets are keyed by ``(seed,
   node)`` on every shard as they are in one process) a 2- or
   4-shard fleet differs from single-process only by float reassociation
   of the per-shard loss/gradient sums: within 1e-10, on every transport.

Plus elastic resume: a fleet killed at an epoch boundary and resumed from
its checkpoint directory finishes bit-identical to an uninterrupted run.
"""

import json

import numpy as np
import pytest

from repro.cluster.train import DistributedTrainer
from repro.core import WidenClassifier
from repro.core.train_loop import LocalTrainClient, TrainLoop, reduce_gradients
from repro.datasets import make_acm

# make_acm(seed=0, scale=0.4), WidenClassifier(seed=7), 4 epochs.  First
# recorded against the pre-refactor monolithic WidenTrainer.fit and held
# bit for bit through every refactor since; re-pinned once, in PR 19, when
# the counter-keyed sampler moved every sampled set (before: losses
# 1.1159382092097185 … 1.083323745844926, parameter sum 1576.8994904951423).
PINNED_LOSSES = [
    1.135143434897526,
    1.096351012593887,
    1.0826719233496476,
    1.074572903605479,
]
PINNED_MICRO = [0.2708333333333333, 0.4375, 0.4375, 0.4375]
PINNED_PARAM_SUM = 1584.8211867192429

# Multi-shard == single-process wants shard-invariant randomness: neighbor
# sets are keyed by (seed, node) wherever they are drawn; the gate removes
# the dropout stream and the drop stream.  What remains is float
# reassociation from splitting sums across shards.
GATE = dict(dropout=0.0, downsample_mode="off")


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.4)


@pytest.fixture(scope="module")
def base_checkpoint(acm, tmp_path_factory):
    """Zero-epoch checkpoint: the spawn seed every replica restores."""
    path = tmp_path_factory.mktemp("train-base") / "base.npz"
    clf = WidenClassifier(seed=7)
    clf.fit(acm.graph, acm.split.train, epochs=0)
    clf.save(path)
    return path


@pytest.fixture(scope="module")
def gate_checkpoint(acm, tmp_path_factory):
    path = tmp_path_factory.mktemp("train-gate") / "base.npz"
    clf = WidenClassifier(seed=7, **GATE)
    clf.fit(acm.graph, acm.split.train, epochs=0)
    clf.save(path)
    return path


def flat_params(classifier):
    return np.concatenate([p.data.ravel() for p in classifier.model.parameters()])


# ---------------------------------------------------------------------------
# Tier 1: the refactored loop reproduces the pre-refactor monolith
# ---------------------------------------------------------------------------


class TestRefactorBitExactness:
    def test_single_process_matches_pinned_monolith_run(self, acm):
        clf = WidenClassifier(seed=7)
        clf.fit(acm.graph, acm.split.train, epochs=4)
        history = clf.trainer.history
        assert list(history.losses) == PINNED_LOSSES
        assert list(history.train_micro_f1) == PINNED_MICRO
        assert float(np.sum(np.abs(flat_params(clf)))) == PINNED_PARAM_SUM

    def test_train_loop_is_the_fit_path(self, acm):
        """fit() literally runs TrainLoop over a LocalTrainClient; driving
        the loop by hand gives the same pinned curve."""
        clf = WidenClassifier(seed=7)
        clf.fit(acm.graph, acm.split.train, epochs=0)
        loop = TrainLoop(
            [LocalTrainClient(clf.trainer)], clf.config, history=clf.trainer.history
        )
        history = loop.run(acm.split.train, 4)
        assert list(history.losses) == PINNED_LOSSES


# ---------------------------------------------------------------------------
# Tier 2: 1-shard distributed == single-process, bit for bit
# ---------------------------------------------------------------------------


class TestOneShardIsSingleProcess:
    def test_inline_one_shard_bit_identical(self, acm, base_checkpoint):
        single = WidenClassifier.load(base_checkpoint, graph=acm.graph)
        single.fit(acm.graph, acm.split.train, epochs=4)
        assert list(single.trainer.history.losses) == PINNED_LOSSES

        with DistributedTrainer(
            base_checkpoint, acm.graph, 1, transport="inline"
        ) as fleet:
            history = fleet.fit(acm.split.train, 4)
            trained = fleet.classifier()
        assert list(history.losses) == PINNED_LOSSES
        assert list(history.train_micro_f1) == list(
            single.trainer.history.train_micro_f1
        )
        np.testing.assert_array_equal(flat_params(trained), flat_params(single))


# ---------------------------------------------------------------------------
# Tier 3: multi-shard loss-curve equivalence under the determinism gate
# ---------------------------------------------------------------------------


class TestMultiShardEquivalence:
    @pytest.fixture(scope="class")
    def gate_single_losses(self, acm, gate_checkpoint):
        single = WidenClassifier.load(gate_checkpoint, graph=acm.graph)
        single.fit(acm.graph, acm.split.train, epochs=3)
        return np.asarray(single.trainer.history.losses)

    @pytest.mark.parametrize(
        "num_shards,transport", [(2, "inline"), (2, "socket"), (4, "socket")]
    )
    def test_fleet_matches_single_process(
        self, acm, gate_checkpoint, gate_single_losses, num_shards, transport
    ):
        with DistributedTrainer(
            gate_checkpoint, acm.graph, num_shards, transport=transport
        ) as fleet:
            history = fleet.fit(acm.split.train, 3)
        gap = np.max(np.abs(np.asarray(history.losses) - gate_single_losses))
        assert gap <= 1e-10

    def test_replicas_share_parameters(self, acm, gate_checkpoint, tmp_path):
        """Every replica applies the same reduced update each global step,
        so any shard's parameters are the fleet's model (each shard's
        checkpoint still differs in its private rng/neighbor state)."""
        with DistributedTrainer(
            gate_checkpoint, acm.graph, 2, transport="inline"
        ) as fleet:
            fleet.fit(acm.split.train, 2)
            fleet.save_checkpoints(tmp_path / "fleet")
        replicas = [
            WidenClassifier.load(tmp_path / "fleet" / f"shard-{k}.npz")
            for k in range(2)
        ]
        np.testing.assert_array_equal(
            flat_params(replicas[0]), flat_params(replicas[1])
        )


# ---------------------------------------------------------------------------
# Elastic resume
# ---------------------------------------------------------------------------


class TestElasticResume:
    def test_kill_and_resume_bit_identical(self, acm, base_checkpoint, tmp_path):
        with DistributedTrainer(
            base_checkpoint, acm.graph, 2, transport="socket"
        ) as fleet:
            uninterrupted = fleet.fit(acm.split.train, 4)
            full_params = flat_params(fleet.classifier())
        full_losses = list(uninterrupted.losses)

        ckdir = tmp_path / "fleet"
        first = DistributedTrainer(
            base_checkpoint, acm.graph, 2, transport="socket"
        )
        first.fit(acm.split.train, 2, checkpoint_dir=ckdir)
        part = list(first.history.losses)
        first.close()  # the "kill": only the checkpoint directory survives

        with DistributedTrainer.resume(
            ckdir, acm.graph, transport="socket"
        ) as second:
            second.fit(acm.split.train, 2)
            part += list(second.history.losses)
            resumed_params = flat_params(second.classifier())

        assert part == full_losses
        np.testing.assert_array_equal(resumed_params, full_params)

    def test_resume_refuses_a_format_1_manifest(self, acm, base_checkpoint, tmp_path):
        """A format-1 directory's shards hold rng and neighbor state for a
        partition's owned nodes; resuming them under ``id % S`` would
        silently diverge, so resume refuses the directory and says why."""
        ckdir = tmp_path / "fleet"
        with DistributedTrainer(
            base_checkpoint, acm.graph, 2, transport="inline"
        ) as fleet:
            fleet.save_checkpoints(ckdir)
        manifest_path = ckdir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == 2 and "partition_seed" not in manifest
        manifest.update(format=1, partition_seed=3)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest format 1, not 2") as refused:
            DistributedTrainer.resume(ckdir, acm.graph)
        assert "id % num_shards" in str(refused.value)

    def test_resume_refuses_torn_directory(self, acm, base_checkpoint, tmp_path):
        ckdir = tmp_path / "fleet"
        with DistributedTrainer(
            base_checkpoint, acm.graph, 2, transport="inline"
        ) as fleet:
            fleet.save_checkpoints(ckdir)
        (ckdir / "shard-1.npz").unlink()
        with pytest.raises(FileNotFoundError):
            DistributedTrainer.resume(ckdir, acm.graph)


# ---------------------------------------------------------------------------
# The reduction itself
# ---------------------------------------------------------------------------


class TestReduceGradients:
    def test_single_contributor_passes_through_unscaled(self):
        grads = [np.array([1.0, 2.0]), None]
        out = reduce_gradients([grads], [5], 5)
        assert out[0] is grads[0]  # not even copied: bit-exact 1-shard path
        assert out[1] is None

    def test_weighted_by_node_count(self):
        a = [np.array([1.0])]
        b = [np.array([5.0])]
        out = reduce_gradients([a, b], [1, 3], 4)
        np.testing.assert_allclose(out[0], [0.25 * 1.0 + 0.75 * 5.0])

    def test_none_is_zero(self):
        a = [np.array([2.0]), None]
        b = [None, None]
        out = reduce_gradients([a, b], [1, 1], 2)
        np.testing.assert_allclose(out[0], [1.0])
        assert out[1] is None

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            reduce_gradients([[np.zeros(1)], []], [1, 1], 2)


# ---------------------------------------------------------------------------
# Guard rails + observability
# ---------------------------------------------------------------------------


class TestGuardsAndMetrics:
    def test_a_loop_needs_a_client(self):
        config = WidenClassifier(seed=7).config
        with pytest.raises(ValueError, match="needs at least one client"):
            TrainLoop([], config)

    def test_replace_mode_rejected(self, acm, tmp_path):
        clf = WidenClassifier(seed=7, embedding_mode="replace")
        clf.fit(acm.graph, acm.split.train, epochs=0)
        path = tmp_path / "replace.npz"
        clf.save(path)
        with pytest.raises(ValueError, match="project"):
            DistributedTrainer(path, acm.graph, 2)

    def test_shard_checkpoints_must_match_the_plan(self, acm, base_checkpoint):
        with pytest.raises(ValueError, match="names 1 files for 2 shards"):
            DistributedTrainer(
                base_checkpoint, acm.graph, 2, shard_checkpoints=[base_checkpoint]
            )

    def test_training_metrics_merge_shard_labeled(self, acm, base_checkpoint):
        with DistributedTrainer(
            base_checkpoint, acm.graph, 2, transport="inline"
        ) as fleet:
            fleet.fit(acm.split.train, 1)
            text = fleet.render_prometheus()
        for name in (
            "train_shard_step_seconds",
            "train_grad_reduce_seconds",
            "train_sync_bytes_total",
        ):
            assert name in text
        assert 'shard="0"' in text and 'shard="1"' in text

    def test_engine_answers_error_replies(self, acm, base_checkpoint):
        from repro.cluster.transport import Envelope

        with DistributedTrainer(
            base_checkpoint, acm.graph, 1, transport="inline"
        ) as fleet:
            engine = fleet.workers[0].transport.engine
            reply = engine.handle(Envelope(kind="train_microbatch", payload={"start": 0}))
            assert not reply.ok  # microbatch before epoch_begin
            assert "shard_errors_total" in engine.registry.render_prometheus()

    def test_fleet_refuses_unlabeled_training_nodes(self, acm, base_checkpoint):
        """A fleet reaches the classification objective's label check
        through the same trainer phase a single-process fit does."""
        unlabeled = np.flatnonzero(acm.graph.labels < 0)[:4]
        with DistributedTrainer(
            base_checkpoint, acm.graph, 1, transport="inline"
        ) as fleet:
            with pytest.raises(Exception, match="must be labeled"):
                fleet.fit(unlabeled, 1)
