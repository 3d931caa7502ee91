"""Model persistence: save/load round trips for WIDEN and baselines."""

import json
import re

import numpy as np
import pytest

from repro.codec import ProtocolError, Record, publish, read_record
from repro.core import NeighborTable, RelayRecipe, WidenClassifier
from repro.core.classifier import CHECKPOINT_FORMAT_VERSION
from repro.core.relay import flatten_recipes, unflatten_recipes
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
        path = tmp_path / "widen.ckpt"
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
        """A checkpoint carries the trainer rng snapshot; bind() applies it
        so the restored run repeats the original's stochastic decisions."""
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "widen-rng.ckpt"
        model.save(path)
        expected = model.trainer._shuffle_rng.random(8)

        meta = read_metadata(path)
        assert "trainer_rng" in meta

        fresh = WidenClassifier.load(path, graph=acm.graph)
        np.testing.assert_array_equal(
            fresh.trainer._shuffle_rng.random(8), expected
        )

    def test_gcn_roundtrip_predictions_identical(self, acm):
        model = GCN(seed=0)
        model.fit(acm.graph, acm.split.train, epochs=10)
        before = model.predict(acm.split.test)

        fresh = GCN(seed=123)
        fresh.fit(acm.graph, acm.split.train, epochs=0)
        fresh.net.load_state_dict(model.net.state_dict())
        after = fresh.predict(acm.split.test)
        np.testing.assert_array_equal(before, after)

    def test_load_rejects_mismatched_architecture(self, acm):
        small = WidenClassifier(seed=0, dim=8, num_wide=4, num_deep=3)
        small.fit(acm.graph, acm.split.train[:16], epochs=1)

        big = WidenClassifier(seed=0, dim=32, num_wide=4, num_deep=3)
        big.fit(acm.graph, acm.split.train[:16], epochs=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            big.model.load_state_dict(small.model.state_dict())
        with pytest.raises(KeyError, match="missing"):
            big.model.load_state_dict({})

    def test_classifier_load_rejects_a_file_of_another_kind(self, tmp_path):
        path = tmp_path / "store-file"
        publish(path, Record("store", {"meta": {"format_version": 5}}))
        with pytest.raises(
            ProtocolError, match="expected a checkpoint file, got a 'store' file"
        ):
            WidenClassifier.load(path)

    def test_a_v4_checkpoint_is_refused_with_the_rebuild_command(self, tmp_path):
        """A v4 checkpoint was a zip of arrays and a JSON string."""
        path = tmp_path / "v4.npz"
        meta = {"format_version": 4, "class": "widen"}
        np.savez(path, __checkpoint__=json.dumps(meta), w=np.zeros(3))
        with pytest.raises(
            ProtocolError,
            match="not a v5 checkpoint.*python -m repro train <dataset> "
            "--shards 1 --checkpoint-out DIR",
        ):
            WidenClassifier.load(path)
        with pytest.raises(ProtocolError, match="not a v5 checkpoint"):
            WidenClassifier.load(path.read_bytes())


def read_metadata(path) -> dict:
    """The metadata of a checkpoint, read without copying any weights."""
    return read_record(path, "checkpoint")["meta"]


def rewrite_checkpoint(path, drop=(), **meta_entries):
    """Rewrite a checkpoint with the trainer arrays in ``drop`` removed and
    the metadata entries in ``meta_entries`` replaced."""
    payload = read_record(path, "checkpoint")
    payload["meta"].update(meta_entries)
    for name in drop:
        del payload["trainer"][name]
    publish(path, Record("checkpoint", payload))


def assert_same_parameters(got, want):
    want, got = want.model.state_dict(), got.model.state_dict()
    assert set(want) == set(got)
    for name, value in want.items():
        np.testing.assert_array_equal(got[name], value, err_msg=name)


class TestCheckpointV3:
    """The checkpoint carries the optimizer and trainer state, so a restored
    run *continues* training exactly where the original stopped.  Since
    format v4 that state is plain named arrays beside the parameters (the
    class keeps the name it had at v3)."""

    def test_resume_continues_bit_exact(self, acm, tmp_path):
        """fit(2); save; load; fit(2) lands on the same bits as fit(4)."""
        full = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        full.fit(acm.graph, acm.split.train[:48], epochs=4)

        half = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        half.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "resume.ckpt"
        half.save(path)
        resumed = WidenClassifier.load(path, graph=acm.graph)
        resumed.fit(acm.graph, acm.split.train[:48], epochs=2)

        assert_same_parameters(resumed, full)

    def test_resaving_an_unbound_classifier_keeps_its_training_state(
        self, acm, tmp_path
    ):
        """load(a) → save(b) → load(b, graph) → fit(2) equals fit(4): a
        classifier loaded without a graph writes back the rng streams and
        training state it is holding for its first bind()."""
        full = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        full.fit(acm.graph, acm.split.train[:48], epochs=4)

        half = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        half.fit(acm.graph, acm.split.train[:48], epochs=2)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        half.save(first)
        WidenClassifier.load(first).save(second)
        resumed = WidenClassifier.load(second, graph=acm.graph)
        resumed.fit(acm.graph, acm.split.train[:48], epochs=2)

        assert_same_parameters(resumed, full)

    def test_relays_round_trip_bit_exact(self, acm, tmp_path):
        """Downsampling on every epoch nests relay recipes; save and load
        give back every table column and every recipe tree, and the resumed
        fit lands on the live trainer's bits."""
        config = dict(
            seed=0, dim=16, num_wide=6, num_deep=6, trigger="always",
            wide_floor=1, deep_floor=1,
        )
        nodes = acm.split.train[:24]
        live = WidenClassifier(**config)
        live.fit(acm.graph, nodes, epochs=3)
        table = live.trainer.store.table
        assert max(recipe.depth() for recipe in table.relays.values()) >= 2
        path = tmp_path / "relays.ckpt"
        live.save(path)

        loaded = WidenClassifier.load(path, graph=acm.graph)
        got = loaded.trainer.store.table
        assert got.size == table.size
        for name in NeighborTable._COLUMNS:
            np.testing.assert_array_equal(
                getattr(got, name)[: got.size], getattr(table, name)[: table.size],
                err_msg=name,
            )
        assert got.relays == table.relays

        live.fit(acm.graph, nodes, epochs=2)
        loaded.fit(acm.graph, nodes, epochs=2)
        assert_same_parameters(loaded, live)
        assert loaded.trainer.store.table.relays == live.trainer.store.table.relays

    def test_recipe_tables_invert(self):
        leaf = RelayRecipe(outer=2, deleted_node=7, deleted=1)
        nested = RelayRecipe(
            outer=RelayRecipe(outer=leaf, deleted_node=3, deleted=0),
            deleted_node=9,
            deleted=RelayRecipe(outer=4, deleted_node=5, deleted=leaf),
        )
        table, roots = flatten_recipes([leaf, nested])
        assert table.dtype == np.int64 and table.shape == (6, 3)
        # Children first: every reference points at an earlier row.
        for k, (outer, _, deleted) in enumerate(table.tolist()):
            for spec in (outer, deleted):
                assert spec >= 0 or -1 - spec < k
        assert unflatten_recipes(table, roots) == [leaf, nested]
        empty = flatten_recipes([])
        assert empty[0].shape == (0, 3) and unflatten_recipes(*empty) == []

    def test_every_key_loads_without_pickle(self, acm, tmp_path):
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, embedding_mode="replace"
        )
        model.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "arrays.ckpt"
        model.save(path)
        payload = read_record(path, "checkpoint")
        dtypes = {
            name: array.dtype
            for group in ("parameters", "trainer")
            for name, array in payload[group].items()
        }
        assert "node_state" in payload["trainer"]
        assert "relay_recipes" in payload["trainer"]
        assert not [name for name, dtype in dtypes.items() if dtype == object]

    def test_checkpoint_carries_optimizer_state(self, acm, tmp_path):
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=2)
        path = tmp_path / "v5.ckpt"
        model.save(path)

        meta = read_metadata(path)
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 5
        assert (meta["class"], meta["config"]["dim"], meta["schema"]["num_classes"]) == (
            "widen", 16, acm.graph.num_classes
        )
        fresh = WidenClassifier.load(path, graph=acm.graph)
        state = fresh.trainer.optimizer.state_dict()
        want = model.trainer.optimizer.state_dict()
        assert state["step_count"] == want["step_count"] > 0
        assert meta["trainer"]["step_count"] == want["step_count"]
        for name, slots in want["slots"].items():
            for got_arr, want_arr in zip(state["slots"][name], slots):
                np.testing.assert_array_equal(got_arr, want_arr)

    @pytest.fixture
    def saved(self, acm, tmp_path):
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        path = tmp_path / "saved.ckpt"
        model.save(path)
        return path

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_versions_are_refused_with_the_rebuild_command(
        self, acm, saved, version
    ):
        rewrite_checkpoint(saved, format_version=version)
        refusal = (
            f"format v{version}; this code reads only v5.*python -m repro train "
            "<dataset> --shards 1 --checkpoint-out DIR"
        )
        with pytest.raises(ValueError, match=refusal):
            WidenClassifier.load(saved, graph=acm.graph)

    def test_unique_sampling_checkpoints_are_refused(self, acm, saved):
        """A v3 checkpoint from when ``WidenConfig`` had a sampling policy
        is refused by its version, before its config is read."""
        meta = read_metadata(saved)
        rewrite_checkpoint(
            saved, format_version=3, config=dict(meta["config"], wide_sampling="unique")
        )
        with pytest.raises(ValueError, match="format v3;.*--checkpoint-out DIR"):
            WidenClassifier.load(saved)

    @pytest.mark.parametrize(
        "missing", ["deep_relay", "relay_recipes", "moment2.0", "targets"]
    )
    def test_a_missing_trainer_array_is_refused_by_name(self, acm, saved, missing):
        rewrite_checkpoint(saved, drop=[missing])
        with pytest.raises(ValueError, match=f"no '{re.escape(missing)}' array"):
            WidenClassifier.load(saved, graph=acm.graph)

    def test_a_checkpoint_of_another_class_is_refused(self, saved):
        rewrite_checkpoint(saved, **{"class": "gcn"})
        with pytest.raises(ValueError, match="holds a 'gcn' model, not 'widen'"):
            WidenClassifier.load(saved)

    def test_bind_before_the_model_exists_is_refused(self, acm):
        with pytest.raises(RuntimeError, match=r"bind\(\) before the model exists"):
            WidenClassifier(seed=0).bind(acm.graph)

    def test_a_node_state_of_another_shape_is_refused(self, acm, tmp_path):
        """A replace-mode checkpoint's node-state table is indexed by the
        graph it was trained on; a graph of another size is refused."""
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, embedding_mode="replace"
        )
        model.fit(acm.graph, acm.split.train[:24], epochs=1)
        path = tmp_path / "replace.ckpt"
        model.save(path)
        smaller = make_acm(seed=0, scale=0.5).graph
        with pytest.raises(ValueError, match="node-state table that does not match"):
            WidenClassifier.load(path, graph=smaller)

    @pytest.mark.parametrize("policy", ["replace", "unique"])
    def test_the_sampling_policy_is_not_a_config_field(self, policy):
        from repro.core import WidenConfig

        with pytest.raises(TypeError, match="wide_sampling"):
            WidenConfig(wide_sampling=policy)
        with pytest.raises(TypeError, match="wide_sampling"):
            WidenClassifier(seed=0, wide_sampling=policy)

    def test_newer_versions_are_refused(self, acm, saved):
        rewrite_checkpoint(saved, format_version=99)
        with pytest.raises(ValueError, match="v99, newer than this code's v5"):
            WidenClassifier.load(saved, graph=acm.graph)

    def test_a_key_of_an_option_made_constant_is_dropped(self, acm, saved, tmp_path):
        """A v5 checkpoint written while ``WidenConfig`` still had
        ``num_heads`` loads, at ``num_heads=1``, as one without it."""
        plain = tmp_path / "plain.ckpt"
        plain.write_bytes(saved.read_bytes())
        rewrite_checkpoint(saved, config=dict(read_metadata(saved)["config"], num_heads=1))
        loaded = WidenClassifier.load(saved, graph=acm.graph)
        reference = WidenClassifier.load(plain, graph=acm.graph)
        assert loaded.config == reference.config
        assert_same_parameters(loaded, reference)

    @pytest.mark.parametrize("heads", [2, 4])
    def test_an_option_made_constant_set_off_its_constant_is_refused(
        self, acm, saved, heads
    ):
        """Multi-head ``w_q`` / ``w_k`` / ``w_v`` have the single-head shapes,
        so such a checkpoint would load and serve a different model."""
        rewrite_checkpoint(
            saved, config=dict(read_metadata(saved)["config"], num_heads=heads)
        )
        with pytest.raises(ValueError, match=f"num_heads={heads}.*hard-wires num_heads=1"):
            WidenClassifier.load(saved, graph=acm.graph)

    def test_an_unknown_config_key_is_refused(self, acm, saved):
        rewrite_checkpoint(
            saved, config=dict(read_metadata(saved)["config"], future_option=True)
        )
        with pytest.raises(TypeError, match="future_option"):
            WidenClassifier.load(saved, graph=acm.graph)
