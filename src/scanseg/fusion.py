"""Cross-modal feature fusion.

Each modality's features pass through their own linear layer and depthwise
convolution, are flattened, and the two sequences are joined end to end.
The joined sequence is scanned twice: once as-is and once reversed, so
state flows across the modality boundary in both directions; the reversed
output is flipped back and the two are summed.

Parameter wiring is crossed between the modalities: along the first half
(positions owned by the first modality) the transition quantities A, B,
delta come from that modality's own generator applied to its own features,
while the readout matrix C is generated from the *other* modality's
features at the corresponding positions — and symmetrically for the second
half.  The summed scan output is split back into the two halves, each half
is gated by a learnable per-channel scale (initialized to one), the halves
are concatenated along channels, and a linear projection restores the
input width.

When the second modality is missing the first is fused with itself, which
needs no retraining and keeps the interface uniform.
"""

from __future__ import annotations

from .autodiff import Tensor, concat, split
from .errors import DimensionError
from .nn import DepthwiseConv2d, Linear, Module, ModuleList, param
from .rng import SplitMix64
from .scan import (DiscretizedParams, SSMParams, discretize_zoh,
                   make_input_params, selective_scan)

import numpy as np

__all__ = ["MMFFBlock", "mmff_forward", "fuse_pyramids"]


class MMFFBlock(Module):
    """Fusion block for one pyramid level of width C."""

    def __init__(self, channels: int, state: int, rng: SplitMix64):
        super().__init__()
        self.channels = channels
        self.state = state
        self.lin_a = Linear(channels, channels, rng)
        self.conv_a = DepthwiseConv2d(channels, 3, rng)
        self.lin_b = Linear(channels, channels, rng)
        self.conv_b = DepthwiseConv2d(channels, 3, rng)
        # One generator per modality: w_B/w_delta/a_log drive the modality's
        # own half of the joined sequence, w_C is routed to the other half.
        self.gen_a = SSMParams(channels, state, rng)
        self.gen_b = SSMParams(channels, state, rng)
        self.scale_a = param(np.ones(channels))
        self.scale_b = param(np.ones(channels))
        self.proj = Linear(2 * channels, channels, rng)
        self._scan_fn = selective_scan  # swappable for stub-scan tests

    def _preprocess(self, f: Tensor, lin: Linear, conv: DepthwiseConv2d) -> Tensor:
        """(..., H, W, C) -> row-major sequence (..., L, C)."""
        x = conv(lin(f))
        return x.reshape(f.shape[:-3] + (-1, self.channels))

    def __call__(self, f_a: Tensor, f_b: Tensor | None = None) -> Tensor:
        return mmff_forward(f_a, f_b, self)


def _joined_scan_inputs(blk: MMFFBlock, seq_a: Tensor, seq_b: Tensor):
    """Joined sequence plus its crossed discretized parameters."""
    b_a, c_a, delta_a = make_input_params(seq_a, blk.gen_a)
    b_b, c_b, delta_b = make_input_params(seq_b, blk.gen_b)
    dp_a = discretize_zoh(blk.gen_a.state_matrix(), b_a, delta_a)
    dp_b = discretize_zoh(blk.gen_b.state_matrix(), b_b, delta_b)
    x = concat([seq_a, seq_b], axis=seq_a.ndim - 2)
    a_bar = concat([dp_a.a_bar, dp_b.a_bar], axis=seq_a.ndim - 2)
    b_bar = concat([dp_a.b_bar, dp_b.b_bar], axis=seq_a.ndim - 2)
    # Crossed readout: the first half is read out through C generated from
    # the second modality, and vice versa.
    c = concat([c_b, c_a], axis=seq_a.ndim - 2)
    return x, DiscretizedParams(a_bar, b_bar), c


def _bidirectional_scan(blk: MMFFBlock, x: Tensor, dp: DiscretizedParams,
                        c: Tensor) -> Tensor:
    axis_l = x.ndim - 2
    y_fwd = blk._scan_fn(x, dp, c)
    dp_rev = DiscretizedParams(dp.a_bar.flip(axis_l), dp.b_bar.flip(axis_l))
    y_rev = blk._scan_fn(x.flip(axis_l), dp_rev, c.flip(axis_l))
    return y_fwd + y_rev.flip(axis_l)


def mmff_forward(f_a: Tensor, f_b: Tensor | None, blk: MMFFBlock) -> Tensor:
    """Fuse two same-shape feature maps into one of identical shape."""
    if f_b is None:
        f_b = f_a
    if f_a.shape != f_b.shape:
        raise DimensionError(
            f"fusion inputs must match, got {f_a.shape} vs {f_b.shape}")
    if f_a.shape[-1] != blk.channels:
        raise DimensionError(
            f"fusion block expects {blk.channels} channels, got {f_a.shape}")
    length = f_a.shape[-3] * f_a.shape[-2]

    seq_a = blk._preprocess(f_a, blk.lin_a, blk.conv_a)
    seq_b = blk._preprocess(f_b, blk.lin_b, blk.conv_b)
    x, dp, c = _joined_scan_inputs(blk, seq_a, seq_b)
    y = _bidirectional_scan(blk, x, dp, c)

    half_a, half_b = split(y, [length, length], axis=y.ndim - 2)
    fused = concat([half_a * blk.scale_a, half_b * blk.scale_b],
                   axis=y.ndim - 1)
    return blk.proj(fused).reshape(f_a.shape)


def fuse_pyramids(pyr_a: list[Tensor], pyr_b: list[Tensor],
                  blocks: ModuleList) -> list[Tensor]:
    """Level-wise fusion of two aligned feature pyramids."""
    if not (len(pyr_a) == len(pyr_b) == len(blocks)):
        raise DimensionError(
            f"pyramid/block level counts differ: {len(pyr_a)}, {len(pyr_b)}, "
            f"{len(blocks)}")
    return [blk(a, b) for blk, a, b in zip(blocks, pyr_a, pyr_b)]
