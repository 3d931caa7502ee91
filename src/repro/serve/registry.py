"""Model registry: a directory of named, self-describing checkpoints.

The registry is deliberately thin — one checkpoint file per model name,
written and read through :meth:`WidenClassifier.save`/``load`` — so a
serving process can be pointed at a directory and restore any registered
model *without* knowing its hyperparameters, which travel inside the
checkpoint together with the dataset schema.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.core.classifier import WidenClassifier
from repro.graph import HeteroGraph


class ModelRegistry:
    """Named checkpoints under one root directory (``<root>/<name>.ckpt``)."""

    suffix = ".ckpt"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid model name {name!r}")
        return self.root / f"{name}{self.suffix}"

    def save(self, name: str, classifier: WidenClassifier) -> Path:
        """Checkpoint ``classifier`` under ``name``; returns the file path."""
        path = self.path(name)
        classifier.save(path)
        return path

    def load(
        self, name: str, graph: Optional[HeteroGraph] = None
    ) -> WidenClassifier:
        """Restore the named model, optionally binding a serving graph."""
        path = self.path(name)
        if not path.exists():
            raise FileNotFoundError(
                f"no checkpoint named {name!r} in {self.root} "
                f"(registered: {self.list() or 'none'})"
            )
        return WidenClassifier.load(path, graph=graph)

    def list(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob(f"*{self.suffix}"))

    def __contains__(self, name: str) -> bool:
        return self.path(name).exists()
