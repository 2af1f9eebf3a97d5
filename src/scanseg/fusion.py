"""Cross-modal feature fusion.

Each modality's features pass through their own linear layer and depthwise
convolution, are flattened, and the two sequences are joined end to end.
The joined sequence is scanned front to back and back to front with the
same A, B, C and delta, so state flows across the modality boundary in
both directions, and the two outputs are summed.  Both scans are one
``selective_scan`` call, which scans both ways, as SS2D's is: x, A, B, C
and delta are passed once, each with a way axis of extent 1, which both
ways share.

Parameter wiring is crossed between the modalities: along the first half
(positions owned by the first modality) the transition quantities A, B,
delta come from that modality's own generator applied to its own features,
while the readout matrix C is generated from the *other* modality's
features at the corresponding positions — and symmetrically for the second
half.  The two sequences are stacked on a modality axis and go through
``scan.scan_inputs``, the generator SS2D uses too; flipping that axis of C
crosses the readout, and a reshape joins the halves.  The joined sequence
switches generator halfway along L, and its C is crossed, so no one
projection of it gives B, C or delta as SS2D's scans project theirs: all
three are formed before the join, by ``scan.project``, and passed to the
scan as arrays.  The summed scan output's two halves are laid side by
side along channels, position by position, and gated by a learnable
per-channel scale for each half (initialized to one); a linear projection
restores the input width.  The model applies one block per pyramid level;
in self-fusion both inputs are the same RGB feature map.
"""

from __future__ import annotations

from .autodiff import Tensor, concat, stack
from .errors import DimensionError
from .nn import DepthwiseConv2d, Linear, Module, param
from .rng import SplitMix64
from .scan import SSMParams, project, scan_inputs, selective_scan

import numpy as np

__all__ = ["MMFFBlock"]


class MMFFBlock(Module):
    """Fusion block for one pyramid level of width C."""

    def __init__(self, channels: int, state: int, rng: SplitMix64):
        super().__init__()
        self.channels = channels
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

    def _preprocess(self, f: Tensor, lin: Linear, conv: DepthwiseConv2d) -> Tensor:
        """(..., H, W, C) -> row-major sequence (..., L, C)."""
        x = conv(lin(f))
        return x.reshape(f.shape[:-3] + (-1, self.channels))

    def __call__(self, f_a: Tensor, f_b: Tensor) -> Tensor:
        """Fuse two same-shape feature maps into one of identical shape."""
        if f_a.shape != f_b.shape:
            raise DimensionError(
                f"fusion inputs must match, got {f_a.shape} vs {f_b.shape}")
        if f_a.shape[-1] != self.channels:
            raise DimensionError(
                f"fusion block expects {self.channels} channels, got {f_a.shape}")
        length = f_a.shape[-3] * f_a.shape[-2]

        seq_a = self._preprocess(f_a, self.lin_a, self.conv_a)
        seq_b = self._preprocess(f_b, self.lin_b, self.conv_b)
        x, *args = _joined_scan_inputs(self, seq_a, seq_b)
        y = selective_scan(x, *args)

        # (..., 1, 2L, C) -> (..., 2, L, C) -> (..., L, 2, C) -> (..., L, 2C):
        # each position's two halves side by side, as the scales are.
        lead, k = y.shape[:-3], y.ndim - 3
        halves = y.reshape(lead + (2, length, self.channels)).transpose(
            tuple(range(k)) + (k + 1, k, k + 2))
        fused = (halves.reshape(lead + (length, 2 * self.channels))
                 * concat([self.scale_a, self.scale_b]))
        return self.proj(fused).reshape(f_a.shape)


def _joined_scan_inputs(blk: MMFFBlock, seq_a: Tensor, seq_b: Tensor):
    """Joined sequence x and its crossed A (per position), B, C, delta, each
    with a way axis of extent 1: both ways of the scan share them."""
    axis_k, length = seq_a.ndim - 2, seq_a.shape[-2]
    seqs = stack([seq_a, seq_b], axis=axis_k)              # (..., 2, L, C)
    a, *projs = scan_inputs(seqs, (blk.gen_a, blk.gen_b))
    b, c, delta = (project(seqs, p) for p in projs)
    # Crossed readout: the first half is read out through C generated from
    # the second modality, and vice versa.
    c = c.flip(axis_k)
    a = (a * Tensor(np.ones((length, 1, 1)))).reshape(  # (1, 2L, C, N)
        (1, 2 * length) + a.shape[-2:])

    def joined(t):
        """(..., 2, L, .) -> (..., 1, 2L, .): the halves end to end."""
        return t.reshape(t.shape[:-3] + (1, 2 * length, t.shape[-1]))

    return joined(seqs), a, joined(b), joined(c), joined(delta)
