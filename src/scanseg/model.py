"""End-to-end assembly: dual-stream encoder, per-level fusion, decoder.

A single parameter set encodes both modality streams; fusion blocks merge
the two pyramids level by level; the decoder cascades from the deepest
level back up and emits per-pixel logits at the input resolution.  When the
second modality is absent the RGB input is fused with itself, so the same
weights serve both regimes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .autodiff import Tensor
from .blocks import DualStreamEncoder, StageConfig
from .decoder import Decoder
from .errors import CheckpointError, ConfigError, DimensionError
from .fusion import MMFFBlock, fuse_pyramids
from .nn import Module, ModuleList
from .rng import SplitMix64, mix64
from . import checkpoint as ckpt

__all__ = ["ModelConfig", "Model", "TOY_CONFIG", "TINY_CONFIG", "FULL_CONFIG"]

TASKS = ("saliency", "semantic")


@dataclass(frozen=True)
class ModelConfig:
    stages: StageConfig = field(default_factory=StageConfig)
    state: int = 4
    num_classes: int = 1
    task: str = "saliency"
    resolution: tuple = (32, 32)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.state < 1 or self.num_classes < 1:
            raise ConfigError(f"non-positive extent in {self}")
        div = self.stages.patch * (1 << (self.stages.num_stages - 1))
        h, w = self.resolution
        if h % div or w % div:
            raise ConfigError(
                f"resolution {h}x{w} must be divisible by "
                f"patch*2^(stages-1) = {div}")

    def to_json(self) -> str:
        d = asdict(self)
        d["stages"]["depths"] = list(self.stages.depths)
        d["stages"]["channels"] = list(self.stages.channels)
        d["resolution"] = list(self.resolution)
        return json.dumps(d, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        d = json.loads(text)
        stages = StageConfig(patch=d["stages"]["patch"],
                             depths=tuple(d["stages"]["depths"]),
                             channels=tuple(d["stages"]["channels"]))
        return ModelConfig(stages=stages, state=d["state"],
                           num_classes=d["num_classes"], task=d["task"],
                           resolution=tuple(d["resolution"]))


TOY_CONFIG = ModelConfig(
    stages=StageConfig(patch=4, depths=(2, 2), channels=(16, 32)),
    state=4, num_classes=1, task="saliency", resolution=(32, 32))

TINY_CONFIG = ModelConfig(
    stages=StageConfig(patch=4, depths=(1, 1), channels=(8, 16)),
    state=2, num_classes=1, task="saliency", resolution=(8, 8))

FULL_CONFIG = ModelConfig(
    stages=StageConfig(patch=4, depths=(2, 2, 9, 2),
                       channels=(64, 128, 256, 512)),
    state=16, num_classes=1, task="saliency", resolution=(480, 640))


class Model(Module):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = SplitMix64(mix64(seed ^ 0x5EED))
        self.encoder = DualStreamEncoder(cfg.stages, cfg.state, rng)
        self.fusion = ModuleList(
            [MMFFBlock(ch, cfg.state, rng) for ch in cfg.stages.channels])
        self.decoder = Decoder(cfg.stages.channels, cfg.state,
                               cfg.num_classes, rng)

    def _check_resolution(self, t: Tensor, name: str) -> None:
        h, w = self.cfg.resolution
        if t.shape[-2:] != (h, w):
            raise DimensionError(
                f"{name} resolution {t.shape[-2]}x{t.shape[-1]} does not "
                f"match model resolution {h}x{w}")

    def __call__(self, rgb: Tensor, xmod: Tensor | None = None) -> Tensor:
        self._check_resolution(rgb, "rgb input")
        if xmod is None:
            xmod = rgb
        self._check_resolution(xmod, "x-modality input")
        pyr_rgb, pyr_x = self.encoder(rgb, xmod)
        fused = fuse_pyramids(pyr_rgb, pyr_x, self.fusion)
        return self.decoder(fused, self.cfg.resolution)

    # -- persistence ----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        ckpt.save_params(list(self.named_parameters()), path)
        with open(config_path(path), "w") as fh:
            fh.write(self.cfg.to_json())

    def load_checkpoint(self, path: str) -> None:
        ckpt.load_params(list(self.named_parameters()), path)

    @staticmethod
    def from_checkpoint(path: str) -> "Model":
        cfg_path = config_path(path)
        with open(cfg_path) as fh:
            text = fh.read()
        try:
            cfg = ModelConfig.from_json(text)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed model config {cfg_path}: "
                f"{type(exc).__name__}: {exc}") from exc
        model = Model(cfg)
        model.load_checkpoint(path)
        return model


def config_path(ckpt_path: str) -> str:
    return f"{ckpt_path}.config.json"
