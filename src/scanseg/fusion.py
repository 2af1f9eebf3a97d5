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
"""

from __future__ import annotations

from .autodiff import Tensor, concat, split
from .errors import DimensionError
from .nn import DepthwiseConv2d, Linear, Module, ModuleList, param
from .rng import SplitMix64
from .scan import SSMParams, make_input_params, selective_scan

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

    def __call__(self, f_a: Tensor, f_b: Tensor) -> Tensor:
        return mmff_forward(f_a, f_b, self)


def _joined_scan_inputs(blk: MMFFBlock, seq_a: Tensor, seq_b: Tensor):
    """Joined sequence x and its crossed A (per position), B, C, delta."""
    b_a, c_a, delta_a = make_input_params(seq_a, blk.gen_a)
    b_b, c_b, delta_b = make_input_params(seq_b, blk.gen_b)
    axis_l = seq_a.ndim - 2
    ones = Tensor(np.ones((seq_a.shape[-2], 1, 1)))
    a = concat([blk.gen_a.state_matrix() * ones,
                blk.gen_b.state_matrix() * ones], axis=0)
    x = concat([seq_a, seq_b], axis=axis_l)
    b = concat([b_a, b_b], axis=axis_l)
    delta = concat([delta_a, delta_b], axis=axis_l)
    # Crossed readout: the first half is read out through C generated from
    # the second modality, and vice versa.
    c = concat([c_b, c_a], axis=axis_l)
    return x, a, b, c, delta


def _bidirectional_scan(blk: MMFFBlock, x: Tensor, a: Tensor, b: Tensor,
                        c: Tensor, delta: Tensor) -> Tensor:
    axis_l = x.ndim - 2
    y_fwd = blk._scan_fn(x, a, b, c, delta)
    y_rev = blk._scan_fn(x.flip(axis_l), a.flip(0), b.flip(axis_l),
                         c.flip(axis_l), delta.flip(axis_l))
    return y_fwd + y_rev.flip(axis_l)


def mmff_forward(f_a: Tensor, f_b: Tensor, blk: MMFFBlock) -> Tensor:
    """Fuse two same-shape feature maps into one of identical shape."""
    if f_a.shape != f_b.shape:
        raise DimensionError(
            f"fusion inputs must match, got {f_a.shape} vs {f_b.shape}")
    if f_a.shape[-1] != blk.channels:
        raise DimensionError(
            f"fusion block expects {blk.channels} channels, got {f_a.shape}")
    length = f_a.shape[-3] * f_a.shape[-2]

    seq_a = blk._preprocess(f_a, blk.lin_a, blk.conv_a)
    seq_b = blk._preprocess(f_b, blk.lin_b, blk.conv_b)
    y = _bidirectional_scan(blk, *_joined_scan_inputs(blk, seq_a, seq_b))

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
