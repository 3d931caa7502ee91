"""Shared test utilities: numerical gradient checking, the per-node
forward reference, the per-state downsampling-trigger reference, the
per-pair walk-context loss reference, the per-node HGT reference, the
store-lookup totals a serving test reads around a call, a payload's
trip through the wire codec, a partition's edge cut and a linear probe
on frozen embeddings."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.codec import Envelope, decode, encode
from repro.core.packing import AttentionGrid
from repro.core.relay import prune_deep, shrink_wide
from repro.nn import Linear
from repro.optim import Adam
from repro.tensor import functional as F, ops
from repro.tensor.tensor import Tensor, no_grad


def numeric_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. input ``wrt``."""
    base = [np.array(x, dtype=np.float64) for x in inputs]
    grad = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = fn(*[Tensor(b) for b in base]).item()
        flat[i] = original - eps
        low = fn(*[Tensor(b) for b in base]).item()
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    atol: float = 1e-6,
    rtol: float = 1e-5,
) -> None:
    """Assert autograd gradients of scalar ``fn`` match central differences."""
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(*tensors)
    assert out.data.size == 1, "gradient check requires a scalar output"
    out.backward()
    for index, tensor in enumerate(tensors):
        expected = numeric_grad(fn, inputs, wrt=index)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(expected)
        np.testing.assert_allclose(
            actual, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for input {index}",
        )


def attention_grid(rows: Sequence[np.ndarray]) -> AttentionGrid:
    """Trimmed per-set distributions as the grid ``forward_batch`` returns."""
    lengths = np.array([len(row) for row in rows], np.int64)
    weights = np.zeros((len(rows), int(lengths.max())))
    for s, row in enumerate(rows):
        weights[s, : len(row)] = row
    return AttentionGrid(weights, lengths)


def per_node_attentions(wide, deep, batch: int):
    """``forward_batch``'s two grids in ``WidenModel.forward``'s shape:
    ``(wide[b] | None, deep[b][phi])`` trimmed arrays per target."""
    wide_rows: List[Optional[np.ndarray]] = [None] * batch
    if wide is not None:
        wide_rows = wide.rows()
    deep_rows: List[List[np.ndarray]] = [[] for _ in range(batch)]
    if deep is not None:
        walks = deep.rows()
        phi = len(walks) // batch
        deep_rows = [walks[b * phi : (b + 1) * phi] for b in range(batch)]
    return wide_rows, deep_rows


def per_pair_walk_loss(table: Tensor, triples) -> Tensor:
    """The walk-context loss one score at a time — the reference for
    :func:`repro.core.objectives.walk_context_loss`.

    ``triples`` are ``(anchor, positive, negatives)`` rows of ``table``, one
    per anchor that has a context: a scalar ``ops.sum`` node per score, the
    scores stacked, one BCE — how the loss was written before it was
    batched.
    """
    scores, targets = [], []
    for anchor, positive, negatives in triples:
        anchor_vec = table[anchor]
        scores.append(ops.sum(anchor_vec * table[positive]) * 4.0)
        targets.append(1.0)
        for negative in negatives:
            scores.append(ops.sum(anchor_vec * table[negative]) * 4.0)
            targets.append(0.0)
    return F.binary_cross_entropy_with_logits(
        ops.stack(scores), np.asarray(targets)
    )


def per_node_hgt(model, levels, grids, graph) -> Tensor:
    """HGT one target at a time over fixed sampled grids — the reference for
    :meth:`repro.baselines.HGT._propagate`.

    ``levels`` / ``grids`` are what ``HGT._sample_levels`` returns: position
    ``i`` of level ``l`` attends over grid row ``grids[l][i]``, whose
    representations sit at positions ``len(levels[l]) + i·K + j`` of level
    ``l + 1``, and its own previous representation at position ``i`` there.
    The equations are the recursion the grid forward replaced: one-row
    ``Linear`` calls, a scalar ``ops.sum`` score per neighbor, the messages
    summed one by one.
    """
    net, k, num_layers = model.net, model.fanout, model.num_layers

    def represent(depth: int, position: int) -> Tensor:
        node = int(levels[depth][position])
        node_type = int(graph.node_types[node])
        if depth == num_layers:
            return net.input_proj[node_type](Tensor(graph.features[node]))
        layer = net.layers[num_layers - 1 - depth]
        h_target = represent(depth + 1, position)
        query = layer.query_proj[node_type](h_target)
        neighbors, edge_types = grids[depth]
        scores, messages = [], []
        for j in range(k):
            neighbor_type = int(graph.node_types[neighbors[position, j]])
            etype = int(edge_types[position, j])
            h_neighbor = represent(depth + 1, levels[depth].size + position * k + j)
            key = layer.key_proj[neighbor_type](h_neighbor)
            value = layer.value_proj[neighbor_type](h_neighbor)
            attended_key = layer.w_att[etype](key)
            prior = layer.edge_prior[etype]
            scores.append(ops.sum(query * attended_key) * prior / np.sqrt(model.hidden))
            messages.append(layer.w_msg[etype](value))
        alpha = F.softmax(ops.stack(scores), axis=-1)
        aggregated = alpha[0] * messages[0]
        for j in range(1, k):
            aggregated = aggregated + alpha[j] * messages[j]
        return ops.relu(layer.out(aggregated)) + h_target

    rows = [represent(0, i) for i in range(levels[0].size)]
    return F.l2_normalize(ops.stack(rows), axis=-1)


def use_per_node_forward(monkeypatch, model) -> None:
    """Make ``model.forward_batch`` a loop over ``WidenModel.forward``.

    Nothing under ``src/`` calls the per-node ``forward`` (the paper's
    literal one-target-at-a-time Algorithm 3); it is the reference.  With
    this patch a trainer built on ``model`` runs its whole loop —
    sampling, downsampling, loss, optimizer — over that reference, so the
    same trainer on an unpatched twin model must agree with it.  Every
    target reads the ``node_state`` its caller passed, i.e. the synchronous
    per-minibatch table semantics DESIGN.md keeps.
    """

    def forward_batch(batch, graph, node_state=None):
        outputs = [
            model.forward(state.wide.target, state, graph, node_state)
            for state in batch.records()
        ]
        embeddings, wide_attentions, deep_attentions = zip(*outputs)
        walks = [walk for deep in deep_attentions for walk in deep]
        return (
            ops.stack(list(embeddings)),
            attention_grid(wide_attentions) if model.config.use_wide else None,
            attention_grid(walks) if model.config.use_deep else None,
        )

    monkeypatch.setattr(model, "forward_batch", forward_batch)


def use_per_state_trigger(monkeypatch, trainer) -> None:
    """Make ``trainer._maybe_downsample`` the per-state loop it replaced.

    The reference for the batched trigger: one :class:`NeighborState`
    record at a time, one scalar ``F.kl_divergence`` per remembered
    distribution, signatures compared as tuples — Algorithms 1-2 and Eq. 9
    as the paper writes them.  The records are this oracle's own storage
    (``trainer.oracle_states``, node → record, trigger memory included);
    after every minibatch the sets it changed are copied into the
    trainer's table so the next forward packs them, and nothing is ever
    read back from the table's trigger memory.  A trainer patched this way
    must stay *equal* to an unpatched twin: sets, relay recipes, memory,
    ``_drop_rng``, every counter and the ordered ``kl_values``.
    """
    states = trainer.oracle_states = {}
    config = trainer.config

    def trigger_fires(trigger, prev_att, prev_signature, att, signature, threshold):
        """Eq. 9: KL between epochs' attention distributions over the SAME
        neighbor set; +∞ (no fire) when the set changed."""
        if trigger == "never":
            return False
        if trigger == "always":
            trainer._trigger_fired += 1
            return True
        if trainer._epoch < 1 or prev_att is None:
            return False  # Algorithm 3 line 9: only from the second epoch on
        if prev_signature != signature or prev_att.shape != att.shape:
            return False  # Eq. 9's "+∞ otherwise" branch
        divergence = F.kl_divergence(prev_att, att)
        trainer._trigger_checks += 1
        trainer._kl_values.append(divergence)
        trainer._kl_hist.observe(divergence)
        fired = divergence < threshold
        if fired:
            trainer._trigger_fired += 1
        return fired

    def downsample_one(state, wide_att, deep_atts):
        wide_drops = deep_drops = 0
        wide_mode = config.effective_wide_mode
        if (
            config.use_wide
            and wide_mode != "off"
            and wide_att is not None
            and len(state.wide) > config.wide_floor
        ):
            # Random downsampling (Table 4) removes the KL trigger entirely.
            trigger = "always" if wide_mode == "random" else config.trigger
            signature = state.wide_signature()
            if trigger_fires(
                trigger, state.prev_wide_attention, state.prev_wide_signature,
                wide_att, signature, config.wide_threshold,
            ):
                if wide_mode == "attentive":
                    state.wide = shrink_wide(state.wide, wide_att)
                else:
                    victim = int(trainer._drop_rng.integers(len(state.wide)))
                    state.wide = state.wide.drop(victim)
                wide_drops += 1
                state.prev_wide_attention = None
                state.prev_wide_signature = None
            else:
                state.prev_wide_attention = wide_att
                state.prev_wide_signature = signature

        deep_mode = config.effective_deep_mode
        if config.use_deep and deep_mode != "off":
            trigger = "always" if deep_mode == "random" else config.trigger
            for phi, att in enumerate(deep_atts):
                deep = state.deep[phi]
                if len(deep) <= config.deep_floor:
                    continue
                signature = state.deep_signature(phi)
                if trigger_fires(
                    trigger, state.prev_deep_attention[phi],
                    state.prev_deep_signature[phi], att, signature,
                    config.deep_threshold,
                ):
                    if deep_mode == "attentive":
                        state.deep[phi] = prune_deep(
                            deep, att, use_relay=config.use_relay
                        )
                    else:
                        victim = int(trainer._drop_rng.integers(len(deep)))
                        fake_att = np.ones(len(deep) + 1)
                        fake_att[victim + 1] = 0.0  # force the random victim
                        state.deep[phi] = prune_deep(
                            deep, fake_att, use_relay=config.use_relay
                        )
                    deep_drops += 1
                    state.prev_deep_attention[phi] = None
                    state.prev_deep_signature[phi] = None
                else:
                    state.prev_deep_attention[phi] = att
                    state.prev_deep_signature[phi] = signature
        return wide_drops, deep_drops

    def maybe_downsample(rows, wide_att, deep_att):
        table = trainer.store.table
        wide_atts, deep_atts = per_node_attentions(wide_att, deep_att, rows.size)
        wide_total = deep_total = 0
        for row, wide, deep in zip(rows.tolist(), wide_atts, deep_atts):
            node = int(table.targets[row])
            if node not in states:
                states[node] = table.record(row)
            state = states[node]
            wide_drops, deep_drops = downsample_one(state, wide, deep)
            if wide_drops:
                table.set_wide(row, state.wide)
            if deep_drops:
                for phi, walk in enumerate(state.deep):
                    table.set_walk(row, phi, walk)
            wide_total += wide_drops
            deep_total += deep_drops
        return wide_total, deep_total

    monkeypatch.setattr(trainer, "_maybe_downsample", maybe_downsample)


def store_totals(server) -> dict:
    """The server's running store-lookup totals."""
    telemetry = server.telemetry
    return {
        "lookups": telemetry.store_lookups,
        "hit": telemetry.store_hits,
        "stale": telemetry.store_stale,
        "absent": telemetry.store_absent,
    }


def store_delta(server, before: dict) -> dict:
    """What the server's store-lookup totals gained since ``before``."""
    return {key: value - before[key] for key, value in store_totals(server).items()}


def wire_round_trip(payload: dict) -> dict:
    """``payload`` as an engine receives it: encoded into a frame by the
    wire codec and decoded from it (plain data, arrays read back from a
    fresh buffer)."""
    return decode(encode(Envelope(kind="mutate", payload=payload)), Envelope).payload


def wire_size(payload: dict) -> int:
    """Bytes of the frame that carries ``payload`` in one envelope."""
    return len(encode(Envelope(kind="mutate", payload=payload)))


def edge_cut(graph, parts: List[np.ndarray]) -> int:
    """Number of directed edges crossing part boundaries."""
    assignment = np.empty(graph.num_nodes, dtype=np.int64)
    for part_id, nodes in enumerate(parts):
        assignment[nodes] = part_id
    return int((assignment[graph._src] != assignment[graph.indices]).sum())


def fit_classifier_probe(
    train_embeddings: np.ndarray,
    train_labels: np.ndarray,
    test_embeddings: np.ndarray,
    test_labels: np.ndarray,
    epochs: int = 150,
    seed: int = 0,
) -> float:
    """Train a linear probe on frozen embeddings; return its test accuracy.

    How much class signal embeddings learned without labels carry: one
    ``Linear`` over ``1 + max label`` classes, full-batch Adam.
    """
    num_classes = int(max(np.max(train_labels), np.max(test_labels))) + 1
    probe = Linear(train_embeddings.shape[1], num_classes, rng=seed)
    optimizer = Adam(probe.parameters(), lr=0.05)
    inputs = Tensor(train_embeddings)
    for _ in range(epochs):
        optimizer.zero_grad()
        F.cross_entropy(probe(inputs), train_labels).backward()
        optimizer.step()
    with no_grad():
        predictions = probe(Tensor(test_embeddings)).data.argmax(axis=1)
    return float((predictions == np.asarray(test_labels)).mean())
