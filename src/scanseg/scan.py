"""Selective state-space scan: discretization, recurrence kernels, adjoint.

The continuous system

    h'(t) = A h(t) + B x(t),      y(t) = C h(t) + D x(t)

is discretized per position k with a timescale delta:

    a_bar = exp(delta * A),       b_bar = delta * B      (first-order rule)
    h_k   = a_bar_k * h_{k-1} + b_bar_k * x_k
    y_k   = C_k . h_k            (no D x_k skip term: no model block keeps one)

A is diagonal per channel and parameterized as -exp(a_log), so its entries
are strictly negative and a_bar stays in (0, 1].  B, C, delta are generated
from the input sequence, which is what makes the recurrence
content-dependent.  delta comes out of a softplus, which returns exactly 0
below about -745; zero is the rule's limit (a_bar = 1, b_bar = 0: the state
holds), so delta >= 0 is the domain and only a negative delta is rejected.

``scan_inputs`` is the one generator of A and of the projections of B, C
and delta: sequences each through their own ``SSMParams`` (fusion's two
modalities), or each way of each sequence through its own (SS2D's four
directions, two sequences by two ways), with one stack per parameter name.
It returns B as (w_B,), the projection B = x @ w_B, C likewise, and delta
as (w_delta, delta_bias), delta = softplus(x @ w_delta + delta_bias).
``project`` forms the array a projection stands for as graph ops.

``selective_scan`` is the differentiable op: it takes x, A, B, C and delta
and discretizes inside.  It goes along L in blocks of ``BLOCK`` positions.
For each block it builds a_bar = exp(delta*A) and delta*B*x time-major,
(T, ..., N, D), so each position's slice is contiguous and the elementwise
work runs along D; runs the recurrence from the state carried in; and
writes the block's part of y.  All it keeps for backward is the state
entering each block, O(L/BLOCK * D * N), beside the inputs the graph holds
anyway.  Backward walks the blocks back to front; for each it recomputes
a_bar, delta*B*x and the states from the saved state, runs the adjoint in
place, and reduces the block's share of the gradients for x, A, B, C and
delta.  The adjoint is carried as nu_k = a_bar_k * lambda_k, where
lambda_k = g_k C_k + nu_{k+1} is dL/dh_k: nu_k = a_bar_k * nu_{k+1} +
a_bar_k * g_k C_k is the forward recurrence run back to front, and
dL/d(delta*A)_k = nu_k * h_{k-1}.  A's gradient is that times delta,
contracted over the axes A is shared along without building the product.

The op scans x from the first position to the last and, with
``both_ways``, also from the last position to the first; y is the two
scans' outputs summed position by position.  That is Vision Mamba's
bidirectional scan (Zhu et al., arXiv:2401.09417): SS2D's reversed
directions and fusion's second scan are back ways.  A two-way call's
arguments carry a way axis, next to L as x's (extent 1) and B's, C's and
delta's, next to the matrix axes as a projection's and A's: extent 1 where
the ways share an argument (fusion's), 2 where each way has its own
(SS2D's).  Inside the op the ways sit on that axis in every block, and the
back way's block s..e-1 reads positions L-e..L-s-1 back to front.  So one
``block_inputs``, one state carry, one ``_scan_loop`` and one adjoint serve
both ways, at the per-position width of both together: at batch 1 a loop
of half that width costs nearly as much per position, so two one-way calls
would take close to twice as long.  y is written in each way's own order
and put in position order once, at the end, where the two ways' outputs
are summed.  The gradients are put in position order block by block
(``place``): where both ways share an argument, each position gets the
front way's share plus the back way's, whichever block comes first, so no
array of both ways' gradients is ever formed.  A one-way call's arguments
get way axes of extent 1, so one body serves both forms.

B, C and delta are each passed in one of two forms.  Fusion passes
arrays, which the graph keeps: its joined sequence switches generator
halfway along L and its C is crossed, so no projection of its x gives
them.  SS2D passes the projections, since its B, C and delta are
projected from the op's own x (C from a second map when the decoder gives
one, as an array).  The op then forms each block's B = x_blk @ w_B, C =
x_blk @ w_C and delta = softplus(x_blk @ w + bias) from that block of x,
in forward and again in backward: this is the recompute rule of Mamba's
fused scan (Gu & Dao, arXiv:2312.00752, section 3.3.2; Chen et al.,
arXiv:1604.06174), so the op keeps none of them, only x and the small
weights.  With OpenBLAS at the model's shapes, the block matmuls give the
same bits, row by row, as one matmul over all of x.  In backward, block
by block, a projection's gradient gp gives x_blk^T gp to w's gradient, the sum of gp
to the bias's and gp w^T to x's; delta's goes through the softplus first,
gpre = gdelta * sigmoid(pre).  The softplus is max(pre, 0) + log1p(e)
with e = exp(-|pre|) (``autodiff._softplus_e``), and the sigmoid reads
the same e, so a block's delta and its slope take one exp.  Summed block
by block, w_B's and w_C's gradients differ from one matmul's over all
positions by rounding only; keeping B's and C's gradients whole to match
that matmul's bits would hold 4 MiB more at the train-128 peak.  One
function, ``block_inputs``, is the source of each block's B, C and delta,
a slice of the given array or that recompute, and one block body serves
both sources.

Inside a block the recurrence runs as a plain loop, ``_scan_loop``: two
numpy calls per position on contiguous (..., N, D) slices.  It is the op's
one kernel: a chunked prefix kernel was measured at the model's step
widths (prod(lead) * D * N from 64 to 2048) and did not beat it end to end.

Every block array the op forms, forward or backward, is a view of a
slot (``_slot``): one flat float64 buffer per slot name, grown to the
largest block it has served and never shrunk.  Passes write into it with
``out=``, and a slot whose last reader is done takes the next array
(a_bar's slot holds C's block gradient once the adjoint has run).  A call
whose blocks hold at most ``KEPT`` states, (T, ..., W, N, D), takes its
slots from the op's workspace, shared by all such calls and kept between
them: about 3 MiB in a TOY training step at 32 to 128 px, 15 slots of at
most 512 KiB, and 1.8 MiB after an eval-256 forward.  Keeping them is the
point: freed temporaries went back to the kernel, and the next call
faulted the pages in again, about 6,000 minor faults per train-32 step.
The workspace is held through the graph's peak, and a train-128 step
that kept every call's slots, 2 MiB per full-size slot, peaked 9% higher
in resident memory.  So a wider call, SS2D's at D 16 and 32 at 64 and 128
px, takes its slots from a second pool, which is emptied at the end of
each pass; keeping a backward's slots for the next wide call read 2.7%
higher.  Nothing the op returns or keeps aliases a slot: y, the gradients
and the carried states are arrays of their own, so calls may interleave,
forward A, forward B, backward B, backward A.  The slots assume one
thread, as the autodiff engine does.

``BLOCK`` is chosen by measurement, with ``scan-bench``'s model-shape rows
and the benchmark's peak memory.  A training step's memory peaks inside a
scan backward, whose per-block (T, ..., N, D) temporaries shrink with the
block: 128 positions halve them against 256, ran as fast or faster at the
training shapes and slightly slower at some narrow eval ones.  y does not
depend on the block length; the gradients of projections and of a shared
A, summed block by block, do by rounding.

The array reference is ``discretize``, which keeps the op's delta >= 0
rule, followed by ``scan_sequential``, an allocate-per-step loop over
(..., L, D, N) arrays that shares no code with the op.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (Tensor, _softplus_e, _stable_sigmoid, _unbroadcast,
                       matmul, softplus, stack)
from .errors import DimensionError, DomainError
from .nn import Module, param
from .rng import SplitMix64

__all__ = [
    "SSMParams", "scan_inputs", "project", "discretize",
    "scan_sequential", "selective_scan",
]

BLOCK = 128   # positions per block; one state per block is kept for backward
KEPT = 1 << 16   # states in the widest block whose arrays outlive a pass

# The op's workspace: one flat float64 buffer per slot name, shared by the
# calls whose blocks hold at most KEPT states, grown to the largest size
# asked of it and never shrunk.  A wider call's slots live in _PASS, which
# is emptied at the end of each pass.
_WORKSPACE: dict[str, np.ndarray] = {}
_PASS: dict[str, np.ndarray] = {}


def _slot(name: str, shape, keep: bool) -> np.ndarray:
    """A C-contiguous ``shape`` view of slot ``name``, of the workspace if
    ``keep``, else of _PASS.  What it held before is overwritten; the view
    stays valid, but stale, once the slot is asked for again."""
    pool = _WORKSPACE if keep else _PASS
    size = math.prod(shape)
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = pool[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _contiguous(name: str, v: np.ndarray, keep: bool) -> np.ndarray:
    """v if it is C-contiguous, else a copy of it in slot ``name``."""
    if v.flags.c_contiguous:
        return v
    out = _slot(name, v.shape, keep)
    np.copyto(out, v)
    return out


class SSMParams(Module):
    """Learnable scan parameters for one direction.

    ``a_log`` realizes A = -exp(a_log) (diagonal per channel), initialized
    to log(1..N) so the N state lanes start with spread decay timescales.
    ``delta_bias`` is set so softplus(delta_bias) lands uniformly in
    [1e-3, 1e-1].
    """

    def __init__(self, channels: int, state: int, rng: SplitMix64):
        super().__init__()
        self.a_log = param(np.tile(np.log(np.arange(1, state + 1, dtype=np.float64)),
                                   (channels, 1)))
        std = 1.0 / np.sqrt(channels)
        self.w_B = param(rng.normal_array((channels, state), 0.0, std))
        self.w_C = param(rng.normal_array((channels, state), 0.0, std))
        self.w_delta = param(rng.normal_array((channels, channels), 0.0, std))
        u = 1e-3 + (1e-1 - 1e-3) * rng.uniform_array((channels,))
        self.delta_bias = param(np.log(np.expm1(u)))


def scan_inputs(seqs: Tensor, params, c_seqs: Tensor | None = None):
    """A and the projections of B, C and delta for parameter sets laid out
    as ``params`` is: K sets, one per sequence, or rows of them, one row
    per sequence and one set per way of a two-way ``selective_scan``.  In
    ``selective_scan``'s argument order.

    ``seqs`` is (..., K, L, D), or (..., R, 1, L, D) for R rows of W sets,
    the op's two-way x.  With G the sets' layout, (K,) or (R, W), each
    parameter name is one stack, as G + its shape.  Returns A (1, ..., *G,
    1, D, N), at rank seqs.ndim + 1; B's projection (w_B,) with w_B (*G,
    D, N); C's, (w_C,), or, when ``c_seqs`` (same shape as seqs) is given,
    C = c_seqs @ w_C as an array, since it does not project the scan's x;
    and delta's, (w_delta (*G, D, D), delta_bias (*G, 1, D)).  ``project``
    forms the arrays a projection stands for as graph ops.
    """
    grid = np.array(params, dtype=object)
    sets, lay = list(grid.flat), grid.shape
    d, n = sets[0].a_log.shape
    want = lay[:1] + (1,) * (len(lay) - 1)
    if seqs.shape[-2 - len(lay):-2] + seqs.shape[-1:] != want + (d,):
        raise DimensionError(
            f"sequences {seqs.shape} do not match {lay} parameter sets of "
            f"width {d}: expected (..., {', '.join(map(str, want))}, L, {d})")

    def stacked(attr, shape):
        """Every set's ``attr`` in one stack, as ``shape``."""
        t = stack([getattr(p, attr) for p in sets], axis=0)
        return t if t.shape == shape else t.reshape(shape)

    c = (stacked("w_C", lay + (d, n)),)
    if c_seqs is not None:
        c = project(c_seqs, c)
    a = (-stacked("a_log", (len(sets), d, n)).exp()).reshape(
        (1,) * (seqs.ndim - 2 - len(lay)) + lay + (1, d, n))
    delta = (stacked("w_delta", lay + (d, d)),
             stacked("delta_bias", lay + (1, d)))
    return a, (stacked("w_B", lay + (d, n)),), c, delta


def project(seqs: Tensor, proj) -> Tensor:
    """The array a projection of ``seqs`` stands for, as graph ops: seqs @ w
    for (w,), a B or C, and softplus(seqs @ w + bias) for (w, bias), a
    delta.  For a caller whose scan cannot take the projection itself."""
    w, *bias = proj
    pre = matmul(seqs, w)
    return softplus(pre + bias[0]) if bias else pre


def discretize(a, b, delta):
    """Array oracle's discretization: a_bar = exp(delta*A), b_bar = delta*B.

    a: (..., D, N), b: (..., L, N), delta: (..., L, D) with delta >= 0, the
    op's rule; returns a_bar, b_bar of shape (..., L, D, N).
    """
    a, b, delta = np.asarray(a), np.asarray(b), np.asarray(delta)
    if np.any(delta < 0):
        raise DomainError("delta must be non-negative")
    a_bar = np.exp(delta[..., :, :, None] * a[..., None, :, :])
    b_bar = delta[..., :, :, None] * b[..., :, None, :]
    return a_bar, b_bar


def _scan_loop(a: np.ndarray, b: np.ndarray, h0: np.ndarray) -> None:
    """b[t] <- a[t] * b[t-1] + b[t] in place along axis 0, from b[-1] = h0.
    Arrays are time-major; views of any stride work."""
    prev = h0
    tmp = np.empty_like(h0)
    for at, bt in zip(a, b):
        np.multiply(at, prev, out=tmp)
        np.add(bt, tmp, out=bt)
        prev = bt


def scan_sequential(x, a_bar, b_bar, c):
    """Oracle realization of the recurrence; forward only.

    x is (..., L, D), a_bar and b_bar (..., L, D, N), c (..., L, N); returns
    y_k = C_k . h_k with h_k = a_bar_k h_{k-1} + b_bar_k x_k from h_{-1} = 0.
    """
    xa, aa, ba, ca = map(np.asarray, (x, a_bar, b_bar, c))
    if xa.shape[-2:] != aa.shape[-3:-1] or aa.shape != ba.shape:
        raise DimensionError(
            f"scan shapes disagree: x {xa.shape}, a_bar {aa.shape}, "
            f"b_bar {ba.shape}")
    if ca.shape[-2] != xa.shape[-2] or ca.shape[-1] != aa.shape[-1]:
        raise DimensionError(
            f"C shape {ca.shape} does not match x {xa.shape} / state "
            f"{aa.shape}")
    bx = ba * xa[..., :, :, None]
    h = np.zeros(aa.shape[:-3] + aa.shape[-2:])
    hs = np.empty_like(bx)
    for k in range(aa.shape[-3]):
        h = aa[..., k, :, :] * h + bx[..., k, :, :]
        hs[..., k, :, :] = h
    return np.einsum("...ln,...ldn->...ld", ca, hs)


def _way_form(shape, axis):
    """``shape`` padded to rank -axis - 1, with a way axis of extent 1
    inserted at ``axis`` (negative): a one-way argument's two-way form."""
    shape = (1,) * (-1 - axis - len(shape)) + tuple(shape)
    return shape[:axis + 1] + (1,) + shape[axis + 1:]


def _check_op_shapes(x, a, sources, nw):
    """The op's argument shapes as passed, ``sources`` holding B's, C's and
    delta's: an array's shape, or the shapes of a projection of x, (w,) for
    B and C and (w, bias) for delta.  ``nw`` is 2 for a two-way call, whose
    arguments carry way axes, else 1.  Returns N, B's last extent."""
    def ways(shape, axis):
        """The two-way form of ``shape``, its way axis at ``nw``."""
        if nw == 1:
            shape = _way_form(shape, axis)
        if len(shape) < -axis or shape[axis] not in (1, nw):
            raise ValueError
        return shape[:axis] + (nw,) + shape[axis + 1:]

    def value(src, arity):
        """The two-way shape of the array a source stands for."""
        if not (src and isinstance(src[0], tuple)):
            return ways(src, -3)
        w, *bias = (ways(v, -3) for v in src)
        if len(src) != arity or w[-2] != xw[-1]:
            raise ValueError
        shape = np.broadcast_shapes(xw[:-2], w[:-2]) + (xw[-2], w[-1])
        if bias and np.broadcast_shapes(shape, bias[0]) != shape:
            raise ValueError
        return shape

    try:
        if len(x) < 2 or nw > 1 and (len(x) < 3 or x[-3] != 1):
            raise ValueError
        xw = ways(x, -3)
        b, c, delta = map(value, sources, (1, 1, 2))
        full = xw + b[-1:]
        ok = (b[:-1] == xw[:-1] and c == b and delta == xw
              and np.broadcast_shapes(ways(a, -4), full) == full)
    except (ValueError, IndexError):
        ok = False
    if not ok:
        b, c, delta = sources
        raise DimensionError(
            f"selective_scan shapes disagree: x {x}, A {a}, B {b}, C {c}, "
            f"delta {delta} (A must broadcast to {x} + (N,); B and C must "
            f"be (..., L, N), or (w,) with x @ w of that shape; delta must "
            f"match x, or be (w, bias) with x @ w + bias of x's shape; "
            f"both ways: x (..., 1, L, D), and a way axis of extent 1 or 2 "
            f"at -3 of B, C, delta and each w and bias, and at -4 of A)")
    return b[-1]


def _merge(dst, part, lo, hi, a, b):
    """dst[lo:hi] = part along axis 0, but added on positions [a, b), where
    the other way's part already is."""
    a, b = min(max(lo, a), hi), max(min(hi, b), lo)
    if a >= b:
        dst[lo:hi] = part
        return
    if a > lo:
        dst[lo:a] = part[:a - lo]
    dst[a:b] += part[a - lo:b - lo]
    if b < hi:
        dst[b:hi] = part[b - lo:]


def _rows(v):
    """v (..., N, D) as (..., N * D), a view."""
    return v.reshape(v.shape[:-2] + (-1,))


def _reduce_to(shape, p, q, keep):
    """The sum of p * q over the axes where ``shape`` has extent 1 and p
    does not, as one contraction into slot "ga" (``_slot``), in ``shape``;
    p is (..., N, D), q (..., D)."""
    ax = "abcdefghijklmnopqrstuvw"[:p.ndim]
    kept = [(a, m) for a, m, n in zip(ax, shape, p.shape) if m == n]
    red = np.einsum(f"{ax},{ax[:-2] + ax[-1]}->{''.join(a for a, _ in kept)}",
                    p, q, out=_slot("ga", tuple(m for _, m in kept), keep))
    return red.reshape(shape)


def selective_scan(x: Tensor, a: Tensor, b, c, delta,
                   both_ways: bool = False) -> Tensor:
    """Differentiable selective scan that discretizes inside.

    x is (..., L, D); A broadcasts to (..., L, D, N).  B and C are each a
    (..., L, N) Tensor or a projection (w,) of x, read as x @ w, with w
    broadcasting to (..., D, N).  delta is a (..., L, D) Tensor with delta
    >= 0 or a projection (w, bias), read as softplus(x @ w + bias), with w
    broadcasting to (..., D, D) and bias to (..., 1, D).  The op forms a
    projected B, C or delta block by block, in forward and again in
    backward, and keeps none of it.  The scan runs from the first position
    to the last; inputs may be strided views, flipped ones too.

    With ``both_ways`` the op also scans x from the last position to the
    first, and y is the sum of the two scans' outputs, position by
    position.  Axis -3 of x is then a way axis of extent 1, and every other
    argument has one too: axis -3 of B, C and delta and of each projection
    array, axis -4 of A.  Its extent is 1 where the ways share the argument
    and 2 for the front way's then the back way's; arrays are indexed by
    position as x is.  Returns y in x's shape; each gradient comes in its
    argument's shape, summed over the ways that share it.
    """
    nw = 2 if both_ways else 1
    xt, at = Tensor._ensure(x), Tensor._ensure(a)
    projected = [isinstance(v, tuple) for v in (b, c, delta)]
    groups = [tuple(map(Tensor._ensure, v if p else (v,)))
              for v, p in zip((b, c, delta), projected)]
    parents = [xt, at] + [t for grp in groups for t in grp]
    shapes = [t.shape for t in parents]
    n = _check_op_shapes(xt.shape, at.shape,
                         [tuple(t.shape for t in grp) if p else grp[0].shape
                          for grp, p in zip(groups, projected)], nw)
    if not projected[2] and np.any(groups[2][0].data < 0):
        raise DomainError("delta must be non-negative")

    def ways(t, axis=-3):
        """t's array in the two-way form: a one-way call's arguments get way
        axes of extent 1, so one body serves both call forms."""
        return t.data if both_ways else t.data.reshape(
            _way_form(t.shape, axis))

    xd, ad = ways(xt), ways(at, -4)
    srcs = [tuple(map(ways, grp)) for grp in groups]
    lead, (length, d) = xd.shape[:-3], xd.shape[-2:]

    def tm(v, axis=-2):
        """Time-major view of v: (L, ...) with L first."""
        axes = list(range(v.ndim))
        return v.transpose([axes.pop(axis)] + axes)

    def grid(v):
        """tm's inverse for axis -2: (T, ..., .) -> (..., T, .)."""
        return v.transpose(list(range(1, v.ndim - 1)) + [0, v.ndim - 1])

    def ways_block(v, s, e, axis, name, pos=0):
        """Block s..e-1 of v, whose positions run along axis ``pos`` and
        ways along ``axis``, for each way: the front way reads positions
        s..e-1, the back way L-e..L-s-1 back to front, so each way's block
        is in its own scan order.  One way's is a view of v, two ways' a
        copy in slot ``name``."""
        at = (slice(None),) * pos
        front = v[at + (slice(s, e),)]
        if nw == 1:
            return front
        blk = _slot(name, front.shape[:axis] + (nw,) + front.shape[axis + 1:],
                    keep)
        rest = (slice(None),) * (-1 - axis)
        blk[(..., 0) + rest] = front[(..., 0) + rest]
        rev = v[at + (slice(length - e, length - s),)]
        blk[(..., 1) + rest] = rev[at + (slice(None, None, -1),)][
            (..., -1) + rest]
        return blk

    def place(dst, blk, s, e):
        """Put block s..e-1 of each way, blk (T, ..., W, .) in the ways'
        scan orders, into dst, (L, ..., V, .) in position order: the back
        way's part reversed, on its own way where dst has two (V = 2), else
        added to the front way's.  Blocks come back to front; where the two
        ways' parts meet, the one placed second is added, so each position
        gets front + back once, whichever came first."""
        front, back = blk[..., :1, :], blk[::-1, ..., 1:, :]
        if nw == 1:
            dst[s:e] = front
        elif dst.shape[-2] == 2:
            dst[s:e, ..., :1, :] = front
            dst[length - e:length - s, ..., 1:, :] = back
        else:
            # The later blocks have filled the back way's positions before
            # L - e and the front way's from e on, this one's from s on.
            _merge(dst, front, s, e, 0, length - e)
            _merge(dst, back, length - e, length - s, s, length)

    projs = [src if p else None for src, p in zip(srcs, projected)]
    given = [None if p else tm(src[0]) for src, p in zip(srcs, projected)]

    def block_inputs(s, e):
        """x, B, C and delta of positions s..e-1 of each way: x as
        (..., W, T, D), the others time-major (T, ..., W, .); each a block
        of the given array or a recompute from x's block.  Last, for a
        projected delta, the softplus's input pre and its e = exp(-|pre|),
        (..., W, T, D), which give its slope.  Each is a view of an
        argument or of a slot."""
        x_blk = ways_block(xd, s, e, -3, "x", xd.ndim - 2)
        out, slope = [x_blk], None
        for name, v_tm, proj in zip(("b", "c", "delta"), given, projs):
            if v_tm is not None:
                out.append(ways_block(v_tm, s, e, -2, name))
                continue
            w, *bias = proj
            shape = lead + (nw, e - s, w.shape[-1])
            if bias:
                pre = np.matmul(x_blk, w, out=_slot("pre", shape, keep))
                pre += bias[0]
                delta_blk, ex = _softplus_e(pre, _slot(name, shape, keep),
                                            _slot("ex", shape, keep))
                out.append(tm(delta_blk))
                slope = pre, ex
            else:
                out.append(tm(np.matmul(x_blk, w,
                                        out=_slot(name, shape, keep))))
        return out + [slope]

    # States are kept as (N, D) per position so that the elementwise work
    # runs along D, the longer contiguous axis.  A becomes (L or 1, ...,
    # W, N, D), time-major, per position or shared.
    a_tm = tm(np.swapaxes(ad.reshape((1,) * (xd.ndim + 1 - ad.ndim)
                                     + ad.shape), -1, -2), -3)
    per_position = a_tm.shape[0] > 1
    # Projections' and a shared A's gradients are summed block by block,
    # so their rounding follows the block length: those calls take BLOCK
    # positions per way.  A call with neither has gradients that do not
    # depend on it, and takes BLOCK / W, so that its blocks' temporaries
    # are no larger with two ways than with one.
    step = BLOCK // nw if per_position and not any(projected) else BLOCK
    # The block's slots are the workspace's if it holds at most KEPT states.
    keep = math.prod(lead) * nw * min(step, length) * n * d <= KEPT
    bounds = [(s, min(s + step, length)) for s in range(0, length, step)]

    def a_block(s, e):
        return ways_block(a_tm, s, e, -3, "a") if per_position else a_tm

    def block_states(x_blk, b_blk, delta_blk, a_blk, h0):
        """delta, delta*x, a_bar and the states h of one block; the first
        two (T, ..., W, 1, D), the others (T, ..., W, N, D), the last three
        in slots."""
        dl = delta_blk[..., None, :]
        dx = np.multiply(dl, tm(x_blk)[..., None, :],
                         out=_slot("dx", dl.shape, keep))
        # C order, as every slot is: the inputs are strided views, and the
        # kernels step through contiguous (..., N, D) slices.
        full = dl.shape[:-2] + (n, d)
        a_bar = np.multiply(dl, a_blk, out=_slot("a_bar", full, keep))
        np.exp(a_bar, out=a_bar)
        h = np.multiply(dx, b_blk[..., :, None], out=_slot("h", full, keep))
        _scan_loop(a_bar, h, h0)
        return dl, dx, a_bar, h

    # y is written in each way's scan order and summed in position order
    # at the end; the gradients are put in position order block by block.
    y = np.empty(lead + (nw, length, d))
    y_tm = tm(y)
    starts = []                               # the state entering each block
    h0 = np.zeros(lead + (nw, n, d))
    for s, e in bounds:
        starts.append(h0)
        x_blk, b_blk, c_blk, delta_blk, _ = block_inputs(s, e)
        h = block_states(x_blk, b_blk, delta_blk, a_block(s, e), h0)[-1]
        np.matmul(c_blk[..., None, :], h, out=y_tm[s:e, ..., None, :])
        h0 = h[-1].copy()
    _PASS.clear()
    if nw == 2:
        y = y[..., :1, :, :] + y[..., 1:, ::-1, :]

    def backward(g):
        g_tm = tm(g.reshape(xd.shape))
        gx = np.empty(xd.shape)
        # A per position: its gradient is put in position order, as x's;
        # a shared A's is summed over the blocks, for each way.
        ga = (np.empty(a_tm.shape) if per_position
              else np.zeros(a_tm.shape[:-3] + (nw,) + a_tm.shape[-2:]))
        # Each source's gradients: a given array's, in its shape, filled
        # block by block, or its projection's w's and bias's, with the way
        # axis at W, summed.
        grads = [tuple(np.zeros(v.shape[:-3] + (nw,) + v.shape[-2:])
                       for v in proj) if proj is not None
                 else (np.empty(src[0].shape),)
                 for proj, src in zip(projs, srcs)]

        def through(i, gv, x_blk, gx_blk):
            """Pass gv, the time-major gradient of a block of the array
            source i's projection stands for, to the projection: with gp =
            gv as (..., W, T, .), x_blk^T gp to w's gradient, the sum of gp
            to the bias's and gp w^T to the block's x gradient, gx_blk."""
            (w, *_), (gw, *gbias) = projs[i], grads[i]
            gp = grid(gv)
            gw += _unbroadcast(np.swapaxes(x_blk, -1, -2) @ gp, gw.shape)
            if gbias:
                gbias[0] += _unbroadcast(gp, gbias[0].shape)
            gp_w = np.matmul(gp, np.swapaxes(w, -1, -2),
                             out=_slot("lam", x_blk.shape, keep))
            grid(gx_blk)[...] += gp_w

        nu0 = np.zeros(lead + (nw, n, d))     # nu at the next block's start
        for (s, e), h0 in zip(reversed(bounds), reversed(starts)):
            x_blk, b_blk, c_blk, delta_blk, slope = block_inputs(s, e)
            a_blk = _contiguous("a", a_block(s, e), keep)
            dl, dx, a_bar, h = block_states(x_blk, b_blk, delta_blk, a_blk,
                                            h0)
            g_blk = ways_block(g_tm, s, e, -2, "g")
            lam = np.multiply(c_blk[..., :, None], g_blk[..., None, :],
                              out=_slot("lam", h.shape, keep))
            # lam starts as dL/dh_k through y_k alone.  nu_k = a_bar_k *
            # lambda_k, where lambda_k = lam_k + nu_{k+1} is the full
            # adjoint: the same recurrence, run back to front.
            nu = np.multiply(a_bar, lam, out=_slot("nu", h.shape, keep))
            _scan_loop(a_bar[::-1], nu[::-1], nu0)
            lam[:-1] += nu[1:]
            lam[-1] += nu0
            nu0 = nu[0].copy()
            del a_bar
            gz = nu                                # dL/d(delta*A) = nu_k h_{k-1}
            gz[1:] *= h[:-1]
            gz[0] *= h0

            # A full-size slot is reused as soon as its last reader is done:
            # a_bar's holds C's gradient, h's delta's, nu's lam_b and, once
            # lam is read, lam's the temporaries; dx's holds x's gradient.
            gc = _slot("a_bar", c_blk.shape, keep)
            np.matmul(h, g_blk[..., :, None], out=gc[..., :, None])
            del h
            gd = _slot("h", delta_blk.shape, keep)
            np.einsum("...nd,...nd->...d", gz, a_blk, out=gd)
            red = _reduce_to((e - s if per_position else 1,) + ga.shape[1:-3]
                             + (nw,) + ga.shape[-2:], gz, delta_blk, keep)
            if per_position:
                place(_rows(ga), _rows(red), s, e)
            else:
                ga += red
            del gz, nu
            lam_b = np.matmul(b_blk[..., None, :], lam,
                              out=_slot("nu", dl.shape, keep))
            gb = _slot("gb", b_blk.shape, keep)
            np.matmul(lam, np.swapaxes(dx, -1, -2), out=gb[..., :, None])
            del lam
            gx_blk = np.multiply(lam_b, dl, out=dx)[..., 0, :]
            gd += np.multiply(lam_b[..., 0, :], tm(x_blk),
                              out=_slot("lam", gd.shape, keep))
            if projected[2]:
                # Through the softplus: d/dpre = sigmoid(pre), from its e.
                gd *= tm(_stable_sigmoid(*slope, overwrite=True))
            for i, gv in enumerate((gb, gc, gd)):
                if projected[i]:
                    through(i, gv, x_blk, gx_blk)
                else:
                    place(tm(grads[i][0]), gv, s, e)
            place(tm(gx), gx_blk, s, e)
        _PASS.clear()
    
        # In each argument's own shape, summed over the ways that share it.
        if ga.shape[-3] > ad.shape[-4]:
            ga = ga[..., :1, :, :] + ga[..., 1:, :, :]
        ga = np.swapaxes(np.moveaxis(ga, 0, -3), -1, -2)
        out = [gx, _unbroadcast(ga, (1,) * (ga.ndim - ad.ndim) + ad.shape)]
        for gv, src, proj in zip(grads, srcs, projs):
            if proj is None:
                out.append(gv[0])
            else:
                out.extend(_unbroadcast(gw, v.shape) for gw, v in zip(gv, src))
        return tuple(o.reshape(shape) for o, shape in zip(out, shapes))

    return Tensor._from_op(y.reshape(xt.shape), parents, backward)
