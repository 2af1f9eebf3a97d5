"""Decoder: channel-to-space upsampling stages and the segmentation head.

Each stage doubles the spatial extent of the lower-resolution fused level
by rearranging channel groups of four into 2x2 spatial blocks (a fixed,
invertible layout — a literal random shuffle would not be trainable or
reproducible), projects to half the channels, and runs a 2D scan whose
readout matrix C is generated from the higher-resolution fused level.  The
higher-level feature then joins as a residual, followed by a projection.

The head is a 1x1 projection to class logits plus bilinear upsampling back
to the input resolution.
"""

from __future__ import annotations

from .autodiff import Tensor, bilinear_resize
from .errors import ConfigError, DimensionError
from .nn import Linear, Module, ModuleList
from .rng import SplitMix64
from .ss2d import SS2DBlock, ss2d_forward

__all__ = ["shuffle_upsample_rearrange", "UpsampleShuffle", "DecoderStage",
           "SegHead", "Decoder"]


def shuffle_upsample_rearrange(f: Tensor) -> Tensor:
    """(..., H, W, C) -> (..., 2H, 2W, C/4); group g of 4 channels fills the
    2x2 block in row-major order."""
    h, w, c = f.shape[-3], f.shape[-2], f.shape[-1]
    if c % 4:
        raise ConfigError(f"channel count {c} not divisible by 4")
    lead = f.shape[:-3]
    nl = len(lead)
    x = f.reshape(lead + (h, w, c // 4, 2, 2))
    # (..., h, w, c4, dy, dx) -> (..., h, dy, w, dx, c4)
    axes = tuple(range(nl)) + (nl, nl + 3, nl + 1, nl + 4, nl + 2)
    x = x.transpose(axes)
    return x.reshape(lead + (2 * h, 2 * w, c // 4))


class UpsampleShuffle(Module):
    """Channel-to-space rearrangement followed by projection to C/2."""

    def __init__(self, channels: int, rng: SplitMix64):
        super().__init__()
        if channels % 4:
            raise ConfigError(f"channel count {channels} not divisible by 4")
        self.channels = channels
        self.proj = Linear(channels // 4, channels // 2, rng)

    def __call__(self, f: Tensor) -> Tensor:
        return self.proj(shuffle_upsample_rearrange(f))


class DecoderStage(Module):
    """One upsampling stage.

    With a higher-resolution fused level: the scan input and its A, B,
    delta derive from the upsampled lower level, C derives from the higher
    level, and the higher level joins as the residual.  The last stage has
    no higher level left; its scan reads out through its own features and
    the residual is the upsampled input itself.
    """

    def __init__(self, low_channels: int, state: int, rng: SplitMix64):
        super().__init__()
        self.low_channels = low_channels
        self.out_channels = low_channels // 2
        self.up = UpsampleShuffle(low_channels, rng)
        self.ss2d = SS2DBlock(self.out_channels, state, rng)
        self.proj = Linear(self.out_channels, self.out_channels, rng)

    def __call__(self, f_low: Tensor, f_high: Tensor | None = None) -> Tensor:
        u = self.up(f_low)
        if f_high is not None:
            if u.shape[-3:] != f_high.shape[-3:]:
                raise DimensionError(
                    f"upsampled low level {u.shape} does not align with "
                    f"higher level {f_high.shape}")
            x = ss2d_forward(u, self.ss2d, c_source=f_high) + f_high
        else:
            x = ss2d_forward(u, self.ss2d) + u
        return self.proj(x)


class SegHead(Module):
    """1x1 projection of a (..., H, W, C) feature map to (..., K, H, W)
    logits, bilinearly upsampled to the target size."""

    def __init__(self, channels: int, num_classes: int, rng: SplitMix64):
        super().__init__()
        self.proj = Linear(channels, num_classes, rng)

    def __call__(self, f: Tensor, out_hw: tuple[int, int]) -> Tensor:
        h, w = f.shape[-3], f.shape[-2]
        nl = f.ndim - 3
        logits = self.proj(f).transpose(
            tuple(range(nl)) + (nl + 2, nl, nl + 1))
        if (h, w) == tuple(out_hw):
            return logits
        return bilinear_resize(logits, tuple(out_hw))


class Decoder(Module):
    """Cascade from the deepest fused level up through every earlier one.

    One stage per pyramid level: each of the first n-1 stages merges with
    the next-higher level, and the last stage upsamples past the shallowest
    level, so the logits live at half the patch stride before the head's
    final bilinear step.
    """

    def __init__(self, channels: tuple, state: int, num_classes: int,
                 rng: SplitMix64):
        super().__init__()
        self.channels = tuple(channels)
        self.stages = ModuleList(
            [DecoderStage(self.channels[i], state, rng)
             for i in range(len(self.channels) - 1, -1, -1)])
        self.head = SegHead(self.channels[0] // 2, num_classes, rng)

    def __call__(self, pyramid: list[Tensor], out_hw: tuple[int, int]) -> Tensor:
        if len(pyramid) != len(self.channels):
            raise DimensionError(
                f"decoder built for {len(self.channels)} levels, got "
                f"{len(pyramid)}")
        x = pyramid[-1]
        highers = list(reversed(pyramid[:-1])) + [None]
        for stage, f_high in zip(self.stages, highers):
            x = stage(x, f_high)
        return self.head(x, out_hw)
