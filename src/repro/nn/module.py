"""``Module`` and ``Parameter``: a minimal layer/state system.

``Parameter`` is a :class:`~repro.tensor.Tensor` that always requires grad.
``Module`` discovers parameters and submodules assigned as attributes (like
PyTorch's ``nn.Module``) and offers iteration, grad reset, train/eval mode
and a flat ``state_dict`` that :meth:`Module.load_state_dict` restores
(strict on names and shapes).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; this base class finds them reflectively.  Lists of modules can
    be registered with :meth:`register_modules`.
    """

    def __init__(self) -> None:
        self._module_lists: Dict[str, List["Module"]] = {}
        self.training = True

    # -- discovery ------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr.startswith("_") and attr != "_module_lists":
                continue
            full = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
        for list_name, modules in self._module_lists.items():
            for i, module in enumerate(modules):
                yield from module.named_parameters(prefix=f"{prefix}{list_name}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> List["Module"]:
        """This module and every submodule, breadth first, in one frame."""
        found: List["Module"] = [self]
        for module in found:  # grows as it is read
            for value in vars(module).values():
                if isinstance(value, Module):
                    found.append(value)
            for group in module._module_lists.values():
                found.extend(group)
        return found

    def register_modules(self, name: str, modules: List["Module"]) -> List["Module"]:
        """Register a list of submodules under ``name`` (like ``ModuleList``)."""
        self._module_lists[name] = list(modules)
        return self._module_lists[name]

    # -- training state -------------------------------------------------

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def num_parameters(self) -> int:
        """Total scalar parameter count (used in efficiency reporting)."""
        return sum(param.data.size for param in self.parameters())

    # -- serialization ----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # -- call protocol ----------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
