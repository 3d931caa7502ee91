"""Model persistence: save/load round trips for WIDEN and baselines."""

import numpy as np
import pytest

from repro.core import WidenClassifier
from repro.baselines import GCN
from repro.datasets import make_acm


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0)


class TestPersistence:
    def test_widen_checkpoint_roundtrip(self, acm, tmp_path):
        """WidenClassifier.save/load round-trips parameters AND the
        hyperparameters/schema, so no build-only ``fit(epochs=0)`` hack is
        needed to reconstruct the architecture."""
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=3)
        path = tmp_path / "widen.npz"
        model.save(path)

        fresh = WidenClassifier.load(path, graph=acm.graph)
        assert fresh.config == model.config
        for name, value in model.model.state_dict().items():
            np.testing.assert_allclose(fresh.model.state_dict()[name], value)
        # The restored classifier predicts without ever calling fit().
        predictions = fresh.predict(acm.split.test[:40])
        assert predictions.shape == (40,)

    def test_trainer_rng_state_roundtrip(self, acm):
        """rng_state/load_rng_state make the trainer's stochastic streams
        (shuffle, downsampling, sampling, dropout) repeat exactly."""
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        snapshot = model.trainer.rng_state()
        first = model.trainer._shuffle_rng.random(8)
        model.trainer.load_rng_state(snapshot)
        second = model.trainer._shuffle_rng.random(8)
        np.testing.assert_array_equal(first, second)

    def test_checkpoint_restores_trainer_rng(self, acm, tmp_path):
        """A v2 checkpoint carries the trainer rng snapshot; bind() applies
        it so the restored run repeats the original's stochastic decisions."""
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "widen-rng.npz"
        model.save(path)
        expected = model.trainer._shuffle_rng.random(8)

        meta = WidenClassifier.read_checkpoint_metadata(path)
        assert meta["format_version"] >= 2
        assert "trainer_rng" in meta

        fresh = WidenClassifier.load(path, graph=acm.graph)
        np.testing.assert_array_equal(
            fresh.trainer._shuffle_rng.random(8), expected
        )

    def test_v1_checkpoint_without_rng_still_loads(self, acm, tmp_path):
        """Forward compatibility: a checkpoint missing "trainer_rng" (v1)
        restores normally, just without the stream snapshot."""
        import json

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "widen-v1.npz"
        model.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["__checkpoint__"]))
        meta.pop("trainer_rng")
        meta["format_version"] = 1
        arrays["__checkpoint__"] = json.dumps(meta)
        np.savez(path, **arrays)

        fresh = WidenClassifier.load(path, graph=acm.graph)
        assert fresh.predict(acm.split.test[:10]).shape == (10,)

    def test_widen_module_layer_still_works(self, acm, tmp_path):
        """The low-level Module.save/load layer stays available underneath."""
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "widen-params.npz"
        model.model.save(path)

        fresh = WidenClassifier(seed=99, dim=16, num_wide=6, num_deep=5)
        fresh.fit(acm.graph, acm.split.train[:48], epochs=0)  # build only
        fresh.model.load(path)
        for name, value in model.model.state_dict().items():
            np.testing.assert_allclose(fresh.model.state_dict()[name], value)

    def test_gcn_roundtrip_predictions_identical(self, acm, tmp_path):
        model = GCN(seed=0)
        model.fit(acm.graph, acm.split.train, epochs=10)
        before = model.predict(acm.split.test)
        path = tmp_path / "gcn.npz"
        model.net.save(path)

        fresh = GCN(seed=123)
        fresh.fit(acm.graph, acm.split.train, epochs=0)
        fresh.net.load(path)
        after = fresh.predict(acm.split.test)
        np.testing.assert_array_equal(before, after)

    def test_load_rejects_mismatched_architecture(self, acm, tmp_path):
        small = WidenClassifier(seed=0, dim=8, num_wide=4, num_deep=3)
        small.fit(acm.graph, acm.split.train[:16], epochs=1)
        path = tmp_path / "small.npz"
        small.model.save(path)

        big = WidenClassifier(seed=0, dim=32, num_wide=4, num_deep=3)
        big.fit(acm.graph, acm.split.train[:16], epochs=0)
        with pytest.raises(ValueError):
            big.model.load(path)

    def test_classifier_load_rejects_bare_parameter_file(self, acm, tmp_path):
        model = WidenClassifier(seed=0, dim=8, num_wide=4, num_deep=3)
        model.fit(acm.graph, acm.split.train[:16], epochs=1)
        path = tmp_path / "params-only.npz"
        model.model.save(path)  # Module layer: no metadata entry
        with pytest.raises(ValueError, match="bare parameter file"):
            WidenClassifier.load(path)


class TestCheckpointV3:
    """Format v3: optimizer + trainer state ride in the checkpoint, so a
    restored run *continues* training exactly where the original stopped."""

    def _fit_kwargs(self, acm):
        return dict(graph=acm.graph, train_nodes=acm.split.train[:48])

    def test_resume_continues_bit_exact(self, acm, tmp_path):
        """fit(2); save; load; fit(2) lands on the same bits as fit(4)."""
        full = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        full.fit(acm.graph, acm.split.train[:48], epochs=4)

        half = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        half.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "resume.npz"
        half.save(path)
        resumed = WidenClassifier.load(path, graph=acm.graph)
        resumed.fit(acm.graph, acm.split.train[:48], epochs=2)

        want = full.model.state_dict()
        got = resumed.model.state_dict()
        assert set(want) == set(got)
        for name, value in want.items():
            np.testing.assert_array_equal(got[name], value, err_msg=name)

    def test_checkpoint_carries_optimizer_state(self, acm, tmp_path):
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "v3.npz"
        model.save(path)

        meta = WidenClassifier.read_checkpoint_metadata(path)
        assert meta["format_version"] == 3
        fresh = WidenClassifier.load(path, graph=acm.graph)
        state = fresh.trainer.optimizer.state_dict()
        want = model.trainer.optimizer.state_dict()
        assert state["step_count"] == want["step_count"] > 0
        for name, slots in want["slots"].items():
            for got_arr, want_arr in zip(state["slots"][name], slots):
                np.testing.assert_array_equal(got_arr, want_arr)

    def _downgrade_to_v2(self, path):
        """Rewrite a fresh checkpoint as a faithful v2: no trainer-state
        blob, format_version 2."""
        import json

        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays.pop("__trainer_state__", None)
        meta = json.loads(str(arrays["__checkpoint__"]))
        meta["format_version"] = 2
        arrays["__checkpoint__"] = json.dumps(meta)
        np.savez(path, **arrays)

    def test_migrate_v2_to_v3(self, acm, tmp_path):
        from repro.core import migrate_checkpoint

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "v2.npz"
        model.save(path)
        self._downgrade_to_v2(path)

        meta = migrate_checkpoint(path)
        assert meta["format_version"] == 3
        assert meta["migrated_from_version"] == 2
        # Migrated checkpoints load; they simply have no optimizer state.
        fresh = WidenClassifier.load(path, graph=acm.graph)
        assert fresh.predict(acm.split.test[:10]).shape == (10,)

    def test_migrate_is_idempotent_and_supports_out_path(self, acm, tmp_path):
        from repro.core import migrate_checkpoint

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "old.npz"
        model.save(path)
        self._downgrade_to_v2(path)

        out = tmp_path / "migrated.npz"
        meta = migrate_checkpoint(path, out_path=out)
        assert meta["format_version"] == 3
        # The source is untouched when out_path is given.
        source_meta = WidenClassifier.read_checkpoint_metadata(path)
        assert source_meta["format_version"] == 2
        # Running again on the migrated file changes nothing.
        again = migrate_checkpoint(out)
        assert again["format_version"] == 3
        assert again["migrated_from_version"] == 2

    @staticmethod
    def _store_config(path, **entries):
        """Rewrite a v3 checkpoint's stored config with ``entries`` added, as
        a writer from when those fields existed would have left it."""
        import json

        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["__checkpoint__"]))
        assert meta["format_version"] == 3
        meta["config"].update(entries)
        arrays["__checkpoint__"] = json.dumps(meta)
        np.savez(path, **arrays)

    @pytest.mark.parametrize("retired", ["sparse", "auto", "per_node"])
    def test_retired_forward_modes_load_as_batched(self, acm, tmp_path, retired):
        """v3 checkpoints written while ``forward_mode`` existed — naming
        kernels ("sparse", "auto") or the per-node loop — are the one model
        there is: same parameters, same answers, no version bump."""
        from repro.core import migrate_checkpoint

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / f"{retired}.npz"
        model.save(path)
        self._store_config(path, forward_mode=retired)

        fresh = WidenClassifier.load(path, graph=acm.graph)
        assert fresh.config == model.config
        probe = acm.split.test[:10]
        np.testing.assert_array_equal(
            fresh.embed_for_serving(probe, acm.graph, seed=5),
            model.embed_for_serving(probe, acm.graph, seed=5),
        )
        migrated = migrate_checkpoint(path)
        assert migrated["format_version"] == 3
        assert "forward_mode" not in migrated["config"]
        stored = WidenClassifier.read_checkpoint_metadata(path)
        assert "forward_mode" not in stored["config"]

    def test_replace_sampling_checkpoints_load_with_the_key_dropped(
        self, acm, tmp_path
    ):
        """Every checkpoint written while ``WidenConfig`` had a wide
        sampling policy stores ``"replace"``: the policy that remains, so the
        key is dropped and the model serves as it did."""
        from repro.core import migrate_checkpoint

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "replace.npz"
        model.save(path)
        self._store_config(path, wide_sampling="replace")

        fresh = WidenClassifier.load(path, graph=acm.graph)
        assert fresh.config == model.config
        probe = acm.split.test[:10]
        np.testing.assert_array_equal(
            fresh.embed_for_serving(probe, acm.graph, seed=5),
            model.embed_for_serving(probe, acm.graph, seed=5),
        )
        assert "wide_sampling" not in migrate_checkpoint(path)["config"]

    def test_unique_sampling_checkpoints_are_refused(self, acm, tmp_path):
        """A model trained on ``"unique"`` draws would serve neighborhoods
        it never saw: loading and migrating refuse it by name."""
        from repro.core import migrate_checkpoint

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "unique.npz"
        model.save(path)
        self._store_config(path, wide_sampling="unique")

        refusal = r"wide_sampling='unique'.*sampling policy is gone"
        with pytest.raises(ValueError, match=refusal):
            WidenClassifier.load(path, graph=acm.graph)
        with pytest.raises(ValueError, match=refusal):
            WidenClassifier.load(path)
        with pytest.raises(ValueError, match=refusal):
            migrate_checkpoint(path)

    @pytest.mark.parametrize("policy", ["replace", "unique"])
    def test_the_sampling_policy_is_not_a_config_field(self, policy):
        from repro.core import WidenConfig

        with pytest.raises(TypeError, match="wide_sampling"):
            WidenConfig(wide_sampling=policy)
        with pytest.raises(TypeError, match="wide_sampling"):
            WidenClassifier(seed=0, wide_sampling=policy)

    def test_per_node_checkpoint_gets_read_sets_and_store(self, tmp_path):
        """A checkpoint saved under ``forward_mode="per_node"`` used to be
        refused a store and invalidated by reach.  Loaded now, it attaches
        a store built for it and a write drops exactly the cache entries
        whose samples read a changed adjacency list."""
        from collections import Counter

        from repro.serve import InferenceServer
        from repro.store import build_store

        dataset = make_acm(seed=0, scale=0.5)
        graph = dataset.graph
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(graph, dataset.split.train[:40], epochs=1)
        path = tmp_path / "per_node.npz"
        model.save(path)
        self._store_config(path, forward_mode="per_node")

        served = WidenClassifier.load(path, graph=graph)
        store = build_store(served, graph, tmp_path / "store", seed=7)
        server = InferenceServer(served, graph, seed=7, store=store)
        nodes = [int(node) for node in dataset.split.test[:6]]
        oracle = InferenceServer(model, graph, seed=7).embed(nodes)
        np.testing.assert_array_equal(server.embed(nodes), oracle)
        summary = server.telemetry.summary()
        assert summary["store_hits"] == len(nodes)

        _, reads = served.embed_for_serving_batch(
            np.asarray(nodes), graph, 7, return_reads=True
        )
        author = int(graph.nodes_of_type("author")[0])
        server.add_edges("paper-author", [nodes[0]], [author])
        dependents = {
            node for node, read_set in zip(nodes, reads)
            if {nodes[0], author} & set(read_set.tolist())
        }
        assert nodes[0] in dependents and len(dependents) < len(nodes)
        assert server.cache.node_invalidations == Counter(dependents)

    @pytest.mark.parametrize("seeding", ["stream", "per_node"])
    def test_sample_seeding_checkpoints_resume_their_sets(
        self, acm, tmp_path, seeding
    ):
        """A checkpoint written while ``WidenConfig.sample_seeding`` existed
        stores the key and one of two ``rng_state["store"]`` shapes: the raw
        bit-generator state (``"stream"``) or ``{"stream", "base_seed"}``
        (``"per_node"``).  Both load with the key dropped and every stored
        set as it was; a node first touched after the resume draws keyed by
        the stored base seed — for a stream checkpoint, by the next integer
        of the stored stream."""
        import json

        from repro.core.state import NeighborStateStore

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / f"{seeding}.npz"
        model.save(path)
        stream = np.random.default_rng(11)
        stored = stream.bit_generator.state
        expected_seed = 1234 if seeding == "per_node" else int(
            stream.integers(2**63 - 1)
        )
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["__checkpoint__"]))
        meta["config"]["sample_seeding"] = seeding
        meta["trainer_rng"]["store"] = (
            {"stream": stored, "base_seed": 1234} if seeding == "per_node" else stored
        )
        arrays["__checkpoint__"] = json.dumps(meta)
        np.savez(path, **arrays)

        resumed = WidenClassifier.load(path, graph=acm.graph)
        assert resumed.config == model.config
        assert not hasattr(resumed.config, "sample_seeding")
        want, got = model.trainer.store.records(), resumed.trainer.store.records()
        assert list(got) == list(want)
        for node, record in want.items():
            np.testing.assert_array_equal(got[node].wide.nodes, record.wide.nodes)
            np.testing.assert_array_equal(got[node].wide.etypes, record.wide.etypes)
            for walk, kept in zip(got[node].deep, record.deep):
                np.testing.assert_array_equal(walk.nodes, kept.nodes)
                np.testing.assert_array_equal(walk.etypes, kept.etypes)

        unseen = int(acm.split.test[0])
        assert unseen not in resumed.trainer.store
        config = model.config
        keyed = NeighborStateStore(
            acm.graph, config.num_wide, config.num_deep, config.num_deep_walks,
            rng=expected_seed,
        ).get(unseen)
        first_touch = resumed.trainer.store.get(unseen)
        np.testing.assert_array_equal(first_touch.wide.nodes, keyed.wide.nodes)
        for walk, want_walk in zip(first_touch.deep, keyed.deep):
            np.testing.assert_array_equal(walk.nodes, want_walk.nodes)
        assert WidenClassifier.read_checkpoint_metadata(path)["config"][
            "sample_seeding"
        ] == seeding  # loading rewrites nothing

    def test_newer_versions_are_refused(self, acm, tmp_path):
        import json

        from repro.core import migrate_checkpoint

        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "future.npz"
        model.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["__checkpoint__"]))
        meta["format_version"] = 99
        arrays["__checkpoint__"] = json.dumps(meta)
        np.savez(path, **arrays)

        with pytest.raises(ValueError, match="version"):
            WidenClassifier.load(path, graph=acm.graph)
        with pytest.raises(ValueError, match="version"):
            migrate_checkpoint(path)
