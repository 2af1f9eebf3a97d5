"""Encoder-side blocks: patch embedding, the scan encoder block, stage
downsampling, and the encoder that stacks them into a feature pyramid.

Images enter as ``(..., 3, H, W)``; the patch embedding turns them into
channels-last feature maps ``(..., H, W, C)``, the only feature layout from
there on, so every Linear, LayerNorm and depthwise convolution acts on the
trailing channel axis without conversion.

The encoder takes one image; the model runs both modality streams through
it, so its parameters accumulate gradient contributions from both passes.
Stage downsampling is 2x2 patch merging: the four spatial phases are
gathered channel-wise (4C) and linearly projected to 2C, which keeps the
/4, /8, /16, /32 pyramid schedule of a patch-4 stem with one merge per
stage transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Tensor, concat, silu
from .errors import ConfigError, DimensionError
from .nn import DepthwiseConv2d, LayerNorm, Linear, Module, ModuleList
from .rng import SplitMix64
from .ss2d import SS2DBlock, ss2d_forward

__all__ = ["StageConfig", "PatchEmbed", "EncoderBlock", "Downsample",
           "Encoder"]


def check_extent(name: str, value) -> None:
    """A config extent must be a positive int.  A float or a bool is a bad
    value (``ConfigError``); a value that is not a number fails the
    comparison with a ``TypeError``, the mark of a malformed field."""
    if isinstance(value, (bool, float)) or value < 1:
        raise ConfigError(f"{name} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class StageConfig:
    """Stem patch size plus per-stage depths and channel widths."""
    patch: int = 4
    depths: tuple = (2, 2)
    channels: tuple = (16, 32)

    def __post_init__(self):
        if not self.depths or len(self.depths) != len(self.channels):
            raise ConfigError(
                f"depths {self.depths} and channels {self.channels} disagree")
        check_extent("patch", self.patch)
        for name in ("depths", "channels"):
            for i, value in enumerate(getattr(self, name)):
                check_extent(f"{name}[{i}]", value)
        for a, b in zip(self.channels, self.channels[1:]):
            if b != 2 * a:
                raise ConfigError(
                    f"stage channels must double (patch merging), got "
                    f"{self.channels}")

    @property
    def num_stages(self) -> int:
        return len(self.depths)


class PatchEmbed(Module):
    """Non-overlapping p x p patches of a (..., C, H, W) image, linearly
    projected to a (..., H/p, W/p, out_ch) feature map."""

    def __init__(self, in_ch: int, out_ch: int, patch: int, rng: SplitMix64):
        super().__init__()
        self.in_ch = in_ch
        self.patch = patch
        self.proj = Linear(in_ch * patch * patch, out_ch, rng)

    def __call__(self, img: Tensor) -> Tensor:
        p = self.patch
        c, h, w = img.shape[-3], img.shape[-2], img.shape[-1]
        if c != self.in_ch:
            raise DimensionError(
                f"expected {self.in_ch}-channel input, got {img.shape}")
        if h % p or w % p:
            raise ConfigError(
                f"input {h}x{w} not divisible by patch size {p}")
        hp, wp = h // p, w // p
        lead = img.shape[:-3]
        nl = len(lead)
        x = img.reshape(lead + (c, hp, p, wp, p))
        # (..., c, hp, p, wp, p) -> (..., hp, wp, c, p, p)
        axes = tuple(range(nl)) + (nl + 1, nl + 3, nl, nl + 2, nl + 4)
        x = x.transpose(axes)
        x = x.reshape(lead + (hp, wp, c * p * p))
        return self.proj(x)


class EncoderBlock(Module):
    """LN -> linear -> depthwise conv -> SiLU -> SS2D -> linear, residual."""

    def __init__(self, channels: int, state: int, rng: SplitMix64):
        super().__init__()
        self.channels = channels
        self.norm = LayerNorm(channels)
        self.lin_in = Linear(channels, channels, rng)
        self.conv = DepthwiseConv2d(channels, 3, rng)
        self.ss2d = SS2DBlock(channels, state, rng)
        self.lin_out = Linear(channels, channels, rng)

    def __call__(self, f: Tensor) -> Tensor:
        if f.shape[-1] != self.channels:
            raise DimensionError(
                f"block expects {self.channels} channels, got {f.shape}")
        x = silu(self.conv(self.lin_in(self.norm(f))))
        return f + self.lin_out(ss2d_forward(x, self.ss2d))


class Downsample(Module):
    """2x2 patch merging: phase gather to 4C, linear projection to 2C."""

    def __init__(self, channels: int, rng: SplitMix64):
        super().__init__()
        self.channels = channels
        self.proj = Linear(4 * channels, 2 * channels, rng)

    @staticmethod
    def gather_phases(f: Tensor) -> Tensor:
        """(..., H, W, C) -> (..., H/2, W/2, 4C), phase-major channels."""
        h, w, c = f.shape[-3], f.shape[-2], f.shape[-1]
        if h % 2 or w % 2:
            raise ConfigError(f"downsample needs even extents, got {h}x{w}")
        lead = f.shape[:-3]
        x = f.reshape(lead + (h // 2, 2, w // 2, 2, c))
        nl = len(lead)
        # (..., h2, dy, w2, dx, c) -> (..., h2, w2, dy, dx, c)
        axes = tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4)
        x = x.transpose(axes)
        return x.reshape(lead + (h // 2, w // 2, 4 * c))

    def __call__(self, f: Tensor) -> Tensor:
        return self.proj(self.gather_phases(f))


class Encoder(Module):
    """Patch embedding plus the scan stages.

    Returns the image's feature pyramid, recorded at each stage output
    before the merge to the next stage.  A single-channel image is
    replicated to three channels first.
    """

    def __init__(self, cfg: StageConfig, state: int, rng: SplitMix64):
        super().__init__()
        self.cfg = cfg
        self.embed = PatchEmbed(3, cfg.channels[0], cfg.patch, rng)
        stages = []
        merges = []
        for i, (depth, ch) in enumerate(zip(cfg.depths, cfg.channels)):
            stages.append(ModuleList(
                [EncoderBlock(ch, state, rng) for _ in range(depth)]))
            if i + 1 < cfg.num_stages:
                merges.append(Downsample(ch, rng))
        self.stages = ModuleList(stages)
        self.merges = ModuleList(merges)

    def __call__(self, img: Tensor) -> list[Tensor]:
        if img.shape[-3] == 1:
            img = concat([img, img, img], axis=img.ndim - 3)
        x = self.embed(img)
        pyramid = []
        for i, stage in enumerate(self.stages):
            for block in stage:
                x = block(x)
            pyramid.append(x)
            if i < len(self.merges):
                x = self.merges[i](x)
        return pyramid
