"""Parameter containers and the small layer zoo used by the network blocks.

Modules register parameters and submodules in attribute-assignment order;
that order is the canonical parameter ordering for checkpoints and the
optimizer, so it must stay deterministic.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .autodiff import Tensor, depthwise_conv2d, layer_norm, matmul
from .rng import SplitMix64


class Module:
    """Base container tracking parameters and submodules in creation order."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())


class ModuleList(Module):
    """Sequence of submodules registered under their indices."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def param(data: np.ndarray) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: SplitMix64):
        super().__init__()
        std = 1.0 / np.sqrt(in_features)
        self.weight = param(rng.normal_array((in_features, out_features), 0.0, std))
        self.bias = param(np.zeros(out_features))

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = param(np.ones(dim))
        self.beta = param(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class DepthwiseConv2d(Module):
    def __init__(self, channels: int, kernel: int, rng: SplitMix64):
        super().__init__()
        std = 1.0 / kernel
        self.weight = param(rng.normal_array((channels, kernel, kernel), 0.0, std))
        self.bias = param(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return depthwise_conv2d(x, self.weight) + self.bias
