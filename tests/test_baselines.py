"""Tests for the eight baseline models (shared contract + model specifics)."""

import numpy as np
import pytest

from repro.baselines import BASELINES, GAT, GCN, GTN, HAN, HGT, FastGCN, GraphSAGE, Node2Vec
from repro.baselines.common import sample_neighbors
from repro.baselines.han import default_metapaths
from repro.datasets import make_acm
from repro.graph import GraphBuilder, metapath_adjacency
from repro.graph.metapath import compose_adjacency
from repro.obs.profiler import OpProfiler
from repro.tensor import Tensor, no_grad
from tests.helpers import per_node_hgt


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0)


def make(name, **kw):
    kw.setdefault("seed", 0)
    if name == "han":
        kw.setdefault("target_type", "paper")
    return BASELINES[name](**kw)


class TestSharedContract:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_fit_records_history(self, acm, name):
        model = make(name)
        epochs = 1 if name == "node2vec" else 3
        model.fit(acm.graph, acm.split.train[:48], epochs=epochs)
        assert len(model.losses) == epochs
        assert len(model.epoch_seconds) == epochs
        assert all(np.isfinite(loss) for loss in model.losses)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_predict_shape_and_range(self, acm, name):
        model = make(name)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        predictions = model.predict(acm.split.test[:20])
        assert predictions.shape == (20,)
        assert predictions.min() >= 0
        assert predictions.max() < acm.num_classes

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_embed_shape(self, acm, name):
        model = make(name)
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        embeddings = model.embed(acm.split.test[:10])
        assert embeddings.shape[0] == 10
        assert np.isfinite(embeddings).all()

    def test_predict_before_fit_raises(self, acm):
        with pytest.raises(RuntimeError, match="gcn: predict/embed called before fit"):
            GCN(seed=0).predict(np.array([0]))

    def test_fit_rejects_unlabeled(self, acm):
        unlabeled = np.flatnonzero(acm.graph.labels < 0)[:4]
        with pytest.raises(ValueError, match="all training nodes must be labeled"):
            GCN(seed=0).fit(acm.graph, unlabeled, epochs=1)

    def test_fit_rejects_different_graph_without_rebind(self, acm):
        model = GCN(seed=0)
        model.fit(acm.graph, acm.split.train[:16], epochs=1)
        sub, _ = acm.graph.subgraph(np.arange(500))
        with pytest.raises(ValueError, match="same graph each time"):
            model.fit(sub, np.array([0]), epochs=1)

    def test_rebind_before_fit_raises(self, acm):
        with pytest.raises(RuntimeError, match=r"rebind\(\) before the first fit\(\)"):
            GCN(seed=0).rebind(acm.graph)

    def test_num_parameters_positive(self, acm):
        model = GCN(seed=0)
        model.fit(acm.graph, acm.split.train[:16], epochs=1)
        assert model.num_parameters() > 0


class TestLearning:
    @pytest.mark.parametrize("name", ["gcn", "gat", "graphsage", "han", "gtn"])
    def test_loss_decreases_with_training(self, acm, name):
        model = make(name)
        model.fit(acm.graph, acm.split.train, epochs=8)
        assert model.losses[-1] < model.losses[0]

    def test_gcn_beats_chance(self, acm):
        model = GCN(seed=0)
        model.fit(acm.graph, acm.split.train, epochs=30)
        predictions = model.predict(acm.split.test)
        accuracy = (predictions == acm.graph.labels[acm.split.test]).mean()
        assert accuracy > 0.6

    def test_graphsage_inductive_prediction(self, acm):
        """GraphSAGE must predict on a graph it never saw during training."""
        holdout = acm.split.test[:50]
        train_graph, _ = acm.graph.remove_nodes(holdout)
        labeled = np.flatnonzero(train_graph.labels >= 0)[:100]
        model = GraphSAGE(seed=0)
        model.fit(train_graph, labeled, epochs=5)
        predictions = model.predict(holdout, graph=acm.graph)
        assert predictions.shape == (50,)

    def test_node2vec_rejects_inductive(self, acm):
        model = Node2Vec(seed=0)
        model.fit(acm.graph, acm.split.train[:32], epochs=1)
        sub, _ = acm.graph.subgraph(np.arange(500))
        with pytest.raises(ValueError, match="node2vec is transductive-only"):
            model.predict(np.array([0]), graph=sub)

    def test_node2vec_embeddings_cover_all_nodes(self, acm):
        model = Node2Vec(seed=0)
        model.fit(acm.graph, acm.split.train[:32], epochs=1)
        assert model.embeddings.shape == (acm.graph.num_nodes, model.dim)


class TestModelSpecifics:
    def test_fastgcn_importance_distribution(self, acm):
        model = FastGCN(seed=0)
        model.fit(acm.graph, acm.split.train[:32], epochs=1)
        assert model._importance.sum() == pytest.approx(1.0)
        assert (model._importance >= 0).all()

    def test_gtn_selection_parameters_receive_gradients(self, acm):
        model = GTN(seed=0)
        model.fit(acm.graph, acm.split.train[:32], epochs=1)
        # After one step the selection logits must have moved off zero init.
        assert np.abs(model.net.selection.data).sum() > 0

    def test_gtn_propagates_through_the_composed_metapath_adjacency(self, acm):
        """GTN mixes and applies its soft adjacencies hop by hop; the
        materialized product ``compose_adjacency`` builds, times the
        transformed features, is the same propagation."""
        model = GTN(seed=0, hops=3)
        model.fit(acm.graph, acm.split.train[:32], epochs=1)
        # Far-from-uniform selections, so the hop order shows.
        selection = model.net.selection.data
        selection[...] = np.random.default_rng(0).normal(scale=2.0, size=selection.shape)
        adjacencies = model._adjacencies
        features = Tensor(acm.graph.features)
        with no_grad():
            got = model._propagate(features, adjacencies).data
            hidden = model.net.transform(features).data
        for channel in range(model.channels):
            weights = [
                np.exp(logits) / np.exp(logits).sum() for logits in selection[channel]
            ]
            composed = compose_adjacency(adjacencies, weights)
            want = np.maximum(composed @ hidden, 0.0)
            block = got[:, channel * model.hidden : (channel + 1) * model.hidden]
            np.testing.assert_allclose(block, want, rtol=1e-12, atol=1e-12)

    def test_gtn_slowest_among_convolutional(self, acm):
        """The paper singles GTN out as the slowest method; verify it costs
        more per epoch than GCN on the same graph, in the work the op
        profiler counts (tensor-op calls and FLOPs), which does not depend
        on which model ran first the way a cold first epoch's time does."""
        work = {}
        for model in (GCN(seed=0), GTN(seed=0)):
            with OpProfiler() as profiler:
                model.fit(acm.graph, acm.split.train, epochs=3)
            work[model.name] = (profiler.total_calls, profiler.total_flops)
        assert work["gtn"][0] > work["gcn"][0]
        assert work["gtn"][1] > work["gcn"][1]

    def test_han_default_metapaths_are_symmetric_pairs(self, acm):
        paths = default_metapaths(acm.graph, "paper")
        assert paths == [
            ["paper-author", "paper-author"],
            ["paper-subject", "paper-subject"],
        ]

    def test_han_requires_metapaths_or_target_type(self, acm):
        model = HAN(seed=0)  # neither given
        with pytest.raises(ValueError, match="either explicit metapaths or a target_type"):
            model.fit(acm.graph, acm.split.train[:16], epochs=1)

    def test_han_default_metapaths_need_incident_edges(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        builder.add_edges("link", np.array([0]), np.array([1]))
        builder.add_nodes("b", 2)
        graph = builder.finalize()
        with pytest.raises(ValueError, match="no edges incident to node type 'b'"):
            default_metapaths(graph, "b")

    def test_han_explicit_metapaths(self, acm):
        model = HAN(metapaths=[["paper-author", "paper-author"]], seed=0)
        model.fit(acm.graph, acm.split.train[:32], epochs=2)
        assert len(model.net.path_attention) == 1

    def test_hgt_has_type_specific_parameters(self, acm):
        model = HGT(seed=0)
        model.fit(acm.graph, acm.split.train[:16], epochs=1)
        assert len(model.net.input_proj) == acm.graph.num_node_types
        assert len(model.net.layers) == model.num_layers
        layer = model.net.layers[0]
        assert len(layer.key_proj) == acm.graph.num_node_types
        assert len(layer.w_att) == acm.graph.num_edge_types_with_loops

    def test_hgt_rejects_zero_layers(self):
        with pytest.raises(ValueError, match="num_layers must be >= 1, got 0"):
            HGT(num_layers=0)

    def test_hgt_most_parameters(self, acm):
        """HGT's per-type/per-relation parameterization makes it the heaviest
        model — the overparameterization WIDEN's efficiency claim targets."""
        hgt, gcn = HGT(seed=0), GCN(seed=0)
        hgt.fit(acm.graph, acm.split.train[:16], epochs=1)
        gcn.fit(acm.graph, acm.split.train[:16], epochs=1)
        assert hgt.num_parameters() > 5 * gcn.num_parameters()

    def test_hgt_typewise_projection_is_per_row(self):
        """One gemm per type, rows put back in place: each row equals its
        own type's Linear, and each Linear's gradient sees only its rows."""
        from repro.baselines.hgt import _typewise
        from repro.nn import Linear
        from repro.tensor import Tensor

        linears = [Linear(4, 3, rng=seed) for seed in range(3)]
        x = Tensor(np.random.default_rng(0).normal(size=(7, 4)), requires_grad=True)
        types = np.array([2, 0, 2, 1, 0, 2, 2])
        out = _typewise(linears, x, types)
        for row, t in enumerate(types):
            expected = linears[t](Tensor(x.data[row : row + 1])).data[0]
            np.testing.assert_allclose(out.data[row], expected, rtol=1e-12, atol=1e-14)
        out.sum().backward()
        for t, linear in enumerate(linears):
            np.testing.assert_allclose(
                linear.weight.grad,
                np.outer(x.data[types == t].sum(axis=0), np.ones(3)),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_hgt_grid_forward_matches_the_per_node_reference(self, acm, num_layers):
        """Over the same sampled grids, the grid forward is the per-node HGT
        recursion: embeddings within 1e-12, every parameter gradient within
        1e-10 (a non-uniform edge prior, so the prior's gradient counts)."""
        from repro.tensor import Tensor

        graph = acm.graph
        model = HGT(num_layers=num_layers, seed=0)
        model.fit(graph, acm.split.train[:16], epochs=1)
        for layer in model.net.layers:
            layer.edge_prior.data = np.linspace(0.5, 1.5, layer.edge_prior.data.size)
        levels, grids = model._sample_levels(acm.split.test[:4], graph)
        weights = Tensor(np.random.default_rng(0).normal(size=(4, model.hidden)))
        params = dict(model.net.named_parameters())

        def run(forward):
            model.net.zero_grad()
            out = forward(levels, grids, graph)
            (out * weights).sum().backward()
            return out.data, {n: p.grad.copy() for n, p in params.items() if p.grad is not None}

        batched, batched_grads = run(model._propagate)
        reference, reference_grads = run(lambda *a: per_node_hgt(model, *a))
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-12)
        grads = [batched_grads, reference_grads]
        assert grads[0].keys() == grads[1].keys()
        assert any(name.endswith("edge_prior") for name in grads[0])
        for name in grads[0]:
            np.testing.assert_allclose(grads[0][name], grads[1][name], rtol=0, atol=1e-10, err_msg=name)

    def test_han_node_level_attention_is_gats_layer(self, acm):
        """HAN builds GAT's attention layer per meta path: the parameter names
        and initial values of the node-level attention it had of its own (one
        bias-free Linear, then two Xavier vectors, from three spawned rngs)."""
        from repro.baselines.gat import _GatLayer
        from repro.nn import Linear, init
        from repro.utils.rng import spawn_rngs

        model = HAN(target_type="paper", seed=5)
        model.fit(acm.graph, acm.split.train[:8], epochs=0)
        in_dim = acm.graph.features.shape[1]
        for path, attention in enumerate(model.net.path_attention):
            assert type(attention) is _GatLayer
            rngs = spawn_rngs(spawn_rngs(5, 10)[path], 3)  # HAN(seed=5)'s own draws
            expected = {
                "transform.weight": Linear(in_dim, model.hidden, bias=False, rng=rngs[0]).weight.data,
                "attn_self": init.xavier_uniform((model.hidden,), rng=rngs[1]),
                "attn_neigh": init.xavier_uniform((model.hidden,), rng=rngs[2]),
            }
            actual = {name: p.data for name, p in attention.named_parameters()}
            assert actual.keys() == expected.keys()
            for name, value in expected.items():
                np.testing.assert_array_equal(actual[name], value)

    def test_node2vec_sgns_step_sums_the_per_pair_gradients(self, acm):
        """The batched step against a per-pair loop at the same snapshot of
        the tables and the same negatives."""
        model = Node2Vec(seed=0)
        model.fit(acm.graph, acm.split.train[:8], epochs=0)
        model._context[:] = np.random.default_rng(1).normal(size=model._context.shape)
        centers, contexts = np.array([0, 2, 0, 7, 2]), np.array([1, 3, 1, 0, 9])
        emb, ctx = model.embeddings.copy(), model._context.copy()
        draws = np.random.default_rng(0)
        draws.bit_generator.state = model._rng.bit_generator.state
        negatives = draws.integers(0, acm.graph.num_nodes, size=(centers.size, model.negatives))
        new_emb, new_ctx, loss = emb.copy(), ctx.copy(), 0.0
        for center, context, negative in zip(centers, contexts, negatives):
            samples = np.concatenate(([context], negative))
            labels = (np.arange(samples.size) == 0).astype(float)
            sig = 1.0 / (1.0 + np.exp(-(ctx[samples] @ emb[center])))
            grad = sig - labels
            new_emb[center] -= model.learning_rate * grad @ ctx[samples]
            for sample, g in zip(samples, grad):
                new_ctx[sample] -= model.learning_rate * g * emb[center]
            loss -= np.log(sig[0]) + np.log(1 - sig[1:]).sum()
        assert model._sgns_step(centers, contexts) == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(model.embeddings, new_emb, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(model._context, new_ctx, rtol=1e-12, atol=1e-15)

    def test_node2vec_positions_cover_every_windowed_pair_once(self):
        """Stepping position by position visits each ``(center, context)``
        pair within ``window`` of a walk exactly once, short walks included."""
        model = Node2Vec(window=2, seed=0)
        walks = np.array([[0, 1, 2, 3, 4], [5, 6, 7, 0, 0], [8, 0, 0, 0, 0]])
        lengths = np.array([5, 3, 1])
        found = []
        for position in range(walks.shape[1]):
            centers, contexts = model._skipgram_pairs(walks, lengths, position)
            assert set(centers.tolist()) <= set(walks[lengths > position, position].tolist())
            found += list(zip(centers.tolist(), contexts.tolist()))
        expected = [
            (walk[i], walk[j])
            for walk, size in zip(walks.tolist(), lengths)
            for i in range(size) for j in range(size) if 0 < abs(i - j) <= 2
        ]
        assert sorted(found) == sorted(expected)

    @pytest.mark.parametrize("name, steps",[("graphsage", 3), ("fastgcn", 3), ("gcn", 1)])
    def test_one_loop_steps_once_per_batch(self, acm, name, steps):
        """The shared epoch loop: ``ceil(n / batch_size)`` steps for a
        minibatch model, one full batch for GCN / GTN."""
        model = make(name, batch_size=16) if name != "gcn" else make(name)
        model.fit(acm.graph, acm.split.train[:48], epochs=0)
        calls = []
        step = model.optimizer.step
        model.optimizer.step = lambda: calls.append(1) or step()
        model.fit(acm.graph, acm.split.train[:48], epochs=1)
        assert len(calls) == steps


def _sample(graph, nodes, k, rng):
    return sample_neighbors(graph.indptr, graph.indices, nodes, k, rng)


class TestNeighborSampling:
    def test_sample_neighbor_matrix_shape(self, acm):
        nodes = acm.split.train[:7]
        matrix = _sample(acm.graph, nodes, 4, np.random.default_rng(0))
        assert matrix.shape == (7, 4)
        for row, node in enumerate(nodes):
            neighbors = set(acm.graph.neighbors(int(node))[0].tolist())
            assert set(matrix[row].tolist()) <= neighbors | {int(node)}

    def test_isolated_node_falls_back_to_self(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        builder.add_edges("link", np.array([0]), np.array([1]))
        graph = builder.finalize()
        matrix = _sample(graph, np.array([2]), 3, np.random.default_rng(0))
        assert (matrix == 2).all()

    def test_typed_sampling_returns_real_edge_types(self, acm):
        """HGT's grids: one draw over per-edge ``(id, type)`` records, so an
        id and its type come from the same CSR entry."""
        nodes = acm.split.train[:5]
        model = HGT(num_layers=1, seed=0)
        _, [(ids, etypes)] = model._sample_levels(nodes, acm.graph)
        assert ids.shape == etypes.shape == (5, model.fanout)
        for node, row_ids, row_types in zip(nodes, ids, etypes):
            neighbors, types = acm.graph.neighbors(int(node))
            assert set(zip(row_ids.tolist(), row_types.tolist())) <= set(
                zip(neighbors.tolist(), types.tolist())
            )

    def test_typed_sampling_isolated_uses_self_loop_type(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        builder.add_edges("link", np.array([0]), np.array([1]))
        builder.add_nodes("b", 1)
        graph = builder.finalize()
        _, [(ids, etypes)] = HGT(num_layers=1, fanout=2, seed=0)._sample_levels(
            np.array([2]), graph
        )
        assert (ids == 2).all()
        assert (etypes == graph.self_loop_type(2)).all()

    def test_draws_are_one_uniform_call_scaled_by_degree(self):
        """Slot ``j`` of a row is ``⌊u · degree⌋`` into the node's list, with
        ``u`` from one ``rng.random((B, k))`` call on the caller's generator,
        so a node of known degree gets a uniform grid (with replacement)."""
        builder = GraphBuilder()
        builder.add_nodes("a", 6)
        builder.add_edges("link", np.zeros(4, np.int64), np.arange(1, 5))
        graph = builder.finalize()
        nodes = np.array([0, 5, 1])
        ids = _sample(graph, nodes, 7, np.random.default_rng(3))
        u = np.random.default_rng(3).random((3, 7))
        np.testing.assert_array_equal(ids[0], graph.indices[graph.indptr[0] + (u[0] * 4).astype(int)])
        assert (ids[1] == 5).all() and (ids[2] == 0).all()
        draws = _sample(graph, np.array([0]), 20000, np.random.default_rng(1))
        counts = np.bincount(draws[0], minlength=5)[1:]
        expected = draws.size / 4
        assert counts.sum() == draws.size
        assert ((counts - expected) ** 2 / expected).sum() < 16.3  # chi-square, 3 dof, p = 0.001

    def test_metapath_rows_go_through_the_same_sampler(self, acm):
        """HAN's meta-path CSR: every draw is a meta-path neighbor; a node
        without any repeats itself."""
        adjacency = metapath_adjacency(acm.graph, ["paper-author", "paper-author"])
        papers = acm.graph.nodes_of_type("paper")[:20]
        lonely = int(acm.graph.nodes_of_type("subject")[0])  # no paper-author edges
        nodes = np.append(papers, lonely)
        neighbors = sample_neighbors(
            adjacency.indptr, adjacency.indices, nodes, 6, np.random.default_rng(0)
        )
        assert neighbors.shape == (21, 6)
        assert adjacency.indptr[lonely] == adjacency.indptr[lonely + 1]
        assert (neighbors[-1] == lonely).all()
        for node, row in zip(papers, neighbors):
            start, stop = adjacency.indptr[node], adjacency.indptr[node + 1]
            assert set(row.tolist()) <= set(adjacency.indices[start:stop].tolist())
