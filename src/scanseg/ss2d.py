"""2D selective scan: cross-scan, four directional scans, cross-merge.

Feature maps are channels-last, ``(..., H, W, C)``, here and in every block
between the patch embedding and the segmentation head.  A map is read in
four directions — row-major from the top-left, its reversal, column-major
from the top-left, and its reversal — each scanned by its own parameter
set (through ``scan.scan_inputs``, fusion's generator too), and the four
outputs are restored to grid order and summed.  The cross-scan keeps two
sequences, row-major and column-major, ``(..., 2, L, C)``; the reversals
are the same sequences read back to front.  So SS2D makes one two-way
``selective_scan`` call over the pair, with a way axis of extent 1 after
the sequence axis: the four directions, in order, are 2 sequences by 2
ways, directions 0 and 2 the op's front way and 1 and 3 its back way, and
the op returns each sequence's two scans summed position by position
(Vision Mamba's bidirectional scan, Zhu et al., arXiv:2401.09417, on
VMamba's cross-scan, Liu et al., arXiv:2401.10166).  Each direction's B,
C and delta are projected from its own sequence, so the scan gets the
projections (w_B,), (w_C,) and (w_delta, delta_bias), each name one stack
over the four directions shaped (2, 2, ...), and forms them itself, block
by block, in forward and again in backward: of the scan's inputs the
graph keeps the two sequences and the weights only.  The two diagonal
corner orders named in the usual cross-scan formulation are realized as
the row-/column-major pair with reversals.

The layout is two numpy functions, ``_to_sequences`` (grid to the two
sequences) and ``_to_grid`` (undo each order and sum), each the other's
adjoint.  ``cross_scan`` and ``cross_merge`` record one graph node each,
whose backward is the other function.

The C projection of each directional scan may be sourced from a second
feature map (``c_source``); the decoder uses this to let higher-level
features steer how the hidden state is read out.  That C is formed as
graph ops and passed to the scan as an array, both ways' in position
order.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError
from .nn import LayerNorm, Module, ModuleList
from .rng import SplitMix64
from .scan import SSMParams, scan_inputs, selective_scan

__all__ = ["cross_scan", "cross_merge", "SS2DBlock", "ss2d_forward"]


def _to_sequences(f: np.ndarray) -> np.ndarray:
    """(..., H, W, C) -> (..., 2, L, C): row-major, then column-major."""
    seq_shape = f.shape[:-3] + (f.shape[-3] * f.shape[-2], f.shape[-1])
    rows = f.reshape(seq_shape)
    cols = np.swapaxes(f, -3, -2).reshape(seq_shape)
    return np.stack([rows, cols], axis=-3)


def _to_grid(y: np.ndarray, h: int, w: int) -> np.ndarray:
    """(..., 2, L, C) -> (..., H, W, C): undo each sequence's order, sum."""
    lead, c = y.shape[:-3], y.shape[-1]
    rows = y[..., 0, :, :].reshape(lead + (h, w, c))
    cols = y[..., 1, :, :].reshape(lead + (w, h, c))
    return rows + np.swapaxes(cols, -3, -2)


def cross_scan(f: Tensor) -> Tensor:
    """``_to_sequences`` as one node."""
    h, w = f.shape[-3], f.shape[-2]
    return Tensor._from_op(_to_sequences(f.data), (f,),
                           lambda g: (_to_grid(g, h, w),))


def cross_merge(y: Tensor, h: int, w: int) -> Tensor:
    """``_to_grid`` as one node."""
    return Tensor._from_op(_to_grid(y.data, h, w), (y,),
                           lambda g: (_to_sequences(g),))


class SS2DBlock(Module):
    """Four independent scan parameter sets over a shared channel width.

    The merged output passes through a channel LayerNorm, as in the VMamba
    module this block follows; the scan path's magnitude at initialization
    is the product of three input projections and would otherwise start
    orders of magnitude below the residual streams.
    """

    def __init__(self, channels: int, state: int, rng: SplitMix64):
        super().__init__()
        self.channels = channels
        self.directions = ModuleList(
            [SSMParams(channels, state, rng) for _ in range(4)])
        self.out_norm = LayerNorm(channels)


def ss2d_forward(f: Tensor, block: SS2DBlock,
                 c_source: Tensor | None = None) -> Tensor:
    """Cross-scan, one two-way selective scan, cross-merge.

    B and delta derive from ``f``'s directional sequences; C derives from
    ``c_source``'s sequences when given (same traversal orders), else from
    ``f``'s own.  What derives from ``f`` is formed inside
    ``selective_scan``.
    """
    if f.ndim < 3 or f.shape[-1] != block.channels:
        raise DimensionError(
            f"feature channels {f.shape} do not match block C={block.channels}")
    if c_source is not None and c_source.shape != f.shape:
        raise DimensionError(
            f"c_source shape {c_source.shape} must equal f shape {f.shape}")

    seqs = cross_scan(f)                                   # (..., 2, L, C)
    ways = seqs.shape[:-2] + (1,) + seqs.shape[-2:]        # (..., 2, 1, L, C)
    x = seqs.reshape(ways)
    cx = None if c_source is None else cross_scan(c_source).reshape(ways)
    dirs = block.directions
    y = selective_scan(x, *scan_inputs(x, (dirs[0:2], dirs[2:4]), cx),
                       both_ways=True)
    return block.out_norm(cross_merge(y.reshape(seqs.shape), f.shape[-3],
                                      f.shape[-2]))
