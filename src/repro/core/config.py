"""Hyperparameters and ablation switches for WIDEN.

Defaults follow Section 4.4's unified setting, scaled down for single-CPU
experiments (the paper uses d=128, N_w=N_d=20, Φ=10 on a GPU).  Every
architectural ablation of Table 4 corresponds to one switch here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WidenConfig:
    """Configuration for :class:`~repro.core.model.WidenModel` and trainer."""

    # -- architecture ---------------------------------------------------
    dim: int = 32
    """Latent dimension d."""
    num_wide: int = 10
    """Initial wide neighbor sample size N_w (Definition 2)."""
    num_deep: int = 8
    """Deep random-walk length N_d (Definition 3)."""
    num_deep_walks: int = 2
    """Number of deep walk sequences Φ per target node."""
    dropout: float = 0.3
    """Feature dropout on message packs and the fused hidden layer during
    training.  Algorithm 3 fixes each node's neighbor sets across epochs, so
    without dropout the attention memorizes specific neighborhoods of the
    (small) labeled set; pack dropout is the standard mitigation."""

    # -- optimization (Algorithm 3) --------------------------------------
    learning_rate: float = 5e-3
    """τ.  The paper uses 1e-4 with many epochs; we scale up for few epochs."""
    weight_decay: float = 1e-4
    """L2 strength γ."""
    batch_size: int = 32
    """Minibatch size B."""
    grad_clip: float = 5.0
    """Global-norm gradient clip (0 disables)."""
    embedding_mode: str = "project"
    """How neighbor representations v_n enter message packs (Eq. 1-2).

    ``"project"`` — v_n is a fresh, trainable feature projection x_n G^node
    every forward pass (reading Section 2's "Embedding Initialization" as the
    definition of the current representation).  Gradients reach G^node
    through every pack, which trains markedly better at our scale.

    ``"replace"`` — Algorithm 3's literal update rule: each processed node's
    output v_t' overwrites a persistent embedding table, and neighbors read
    (detached) refined embeddings from it, spreading multi-hop information
    across epochs.  ``refresh_fraction`` controls how much of the rest of V
    is refreshed per epoch.  Kept for fidelity and exposed in the ablation
    benches."""
    refresh_fraction: float = 0.5
    """Fraction of non-training nodes whose embedding row is refreshed
    (forward-only, no gradient) each epoch.  Algorithm 3 iterates all of V
    while masking unlabeled nodes from the loss; refreshing a random subset
    per epoch approximates that at reduced cost.  0 disables."""

    # -- active downsampling ---------------------------------------------
    downsample_mode: str = "attentive"
    """``"attentive"`` (Algorithms 1-2), ``"random"`` (Table 4 rows 7-8) or
    ``"off"`` (Table 4 row 2, "No Downsampling")."""
    wide_downsample: str = ""
    """Per-side override for the wide set; empty inherits ``downsample_mode``.
    Table 4's "Random Downsampling for W(t)" randomizes only this side."""
    deep_downsample: str = ""
    """Per-side override for deep sequences; empty inherits
    ``downsample_mode``."""
    trigger: str = "kl"
    """``"kl"`` (Eq. 9), ``"always"`` or ``"never"`` — the KL trigger
    ablation called out in DESIGN.md."""
    wide_threshold: float = 1e-3
    """r° — KL threshold for wide downsampling."""
    deep_threshold: float = 1e-3
    """r▷ — KL threshold for deep downsampling."""
    wide_floor: int = 5
    """k° — minimum wide neighbor count preserved."""
    deep_floor: int = 5
    """k▷ — minimum deep sequence length preserved."""

    # -- architecture ablations (Table 4) ---------------------------------
    use_wide: bool = True
    """False reproduces "Removing Wide Neighbors"."""
    use_deep: bool = True
    """False reproduces "Removing Deep Neighbors"."""
    use_successive: bool = True
    """False removes the successive self-attention of Eq. 4."""
    use_relay: bool = True
    """False reproduces "Removing Relay Edges" (deep packs are dropped
    without contextualized relays)."""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.num_wide < 1 or self.num_deep < 1:
            raise ValueError("num_wide and num_deep must be >= 1")
        if self.num_deep_walks < 1:
            raise ValueError(f"num_deep_walks must be >= 1, got {self.num_deep_walks}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.embedding_mode not in ("project", "replace"):
            raise ValueError(f"unknown embedding_mode {self.embedding_mode!r}")
        if not 0.0 <= self.refresh_fraction <= 1.0:
            raise ValueError(
                f"refresh_fraction must be in [0, 1], got {self.refresh_fraction}"
            )
        if self.downsample_mode not in ("attentive", "random", "off"):
            raise ValueError(f"unknown downsample_mode {self.downsample_mode!r}")
        for side in (self.wide_downsample, self.deep_downsample):
            if side not in ("", "attentive", "random", "off"):
                raise ValueError(f"unknown per-side downsample mode {side!r}")
        if self.trigger not in ("kl", "always", "never"):
            raise ValueError(f"unknown trigger {self.trigger!r}")
        if not (self.use_wide or self.use_deep):
            raise ValueError("at least one of use_wide/use_deep must be on")
        if self.wide_floor < 1 or self.deep_floor < 1:
            raise ValueError("downsampling floors must be >= 1 (paper: k >= 1)")

    @property
    def effective_wide_mode(self) -> str:
        """Downsampling mode applied to wide sets."""
        return self.wide_downsample or self.downsample_mode

    @property
    def effective_deep_mode(self) -> str:
        """Downsampling mode applied to deep sequences."""
        return self.deep_downsample or self.downsample_mode
