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
would take close to twice as long.  y and the gradients are written in
each way's own order and put back in position order once, at the end,
where a shared argument's two shares are summed.  A one-way call's
arguments get way axes of extent 1, so one body serves both forms.

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


def _reduce_to(out, p, q):
    """out += the sum of p * q over the axes where ``out`` has extent 1
    and p does not, as one contraction; p is (..., N, D), q (..., D)."""
    ax = "abcdefghijklmnopqrstuvw"[:p.ndim]
    keep = "".join(a for a, m, n in zip(ax, out.shape, p.shape)
                   if m == n)
    out += np.einsum(f"{ax},{ax[:-2] + ax[-1]}->{keep}", p, q).reshape(
        out.shape)


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

    def ways_block(v, s, e, axis, pos=0):
        """Block s..e-1 of v, whose positions run along axis ``pos`` and
        ways along ``axis``, for each way: the front way reads positions
        s..e-1, the back way L-e..L-s-1 back to front, so each way's block
        is in its own scan order."""
        at = (slice(None),) * pos
        front = v[at + (slice(s, e),)]
        if nw == 1:
            return front
        blk = np.empty(front.shape[:axis] + (nw,) + front.shape[axis + 1:])
        rest = (slice(None),) * (-1 - axis)
        blk[(..., 0) + rest] = front[(..., 0) + rest]
        rev = v[at + (slice(length - e, length - s),)]
        blk[(..., 1) + rest] = rev[at + (slice(None, None, -1),)][
            (..., -1) + rest]
        return blk

    def in_position_order(v, pos, axis, extent):
        """v, each way's part in its own scan order along axis ``pos``, its
        ways along ``axis``, in position order: the back way's reversed, and
        summed with the front's where the argument's way extent is 1."""
        if nw == 1:
            return v
        rest = (slice(None),) * (-1 - axis)
        front = v[(..., slice(0, 1)) + rest]
        back = np.flip(v, pos)[(..., slice(1, 2)) + rest]
        return front + back if extent == 1 else np.concatenate(
            (front, back), axis)

    projs = [src if p else None for src, p in zip(srcs, projected)]
    given = [None if p else tm(src[0]) for src, p in zip(srcs, projected)]

    def block_inputs(s, e):
        """x, B, C and delta of positions s..e-1 of each way: x as
        (..., W, T, D), the others time-major (T, ..., W, .); each a block
        of the given array or a recompute from x's block.  Last, for a
        projected delta, the softplus's input pre and its e = exp(-|pre|),
        (..., W, T, D), which give its slope."""
        x_blk = ways_block(xd, s, e, -3, xd.ndim - 2)
        out, slope = [x_blk], None
        for v_tm, proj in zip(given, projs):
            if v_tm is not None:
                out.append(ways_block(v_tm, s, e, -2))
            elif len(proj) == 2:
                pre = x_blk @ proj[0] + proj[1]
                delta_blk, ex = _softplus_e(pre)
                out.append(tm(delta_blk))
                slope = pre, ex
            else:
                out.append(tm(x_blk @ proj[0]))
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
    bounds = [(s, min(s + step, length)) for s in range(0, length, step)]

    def a_block(s, e):
        return ways_block(a_tm, s, e, -3) if per_position else a_tm

    def block_states(x_blk, b_blk, delta_blk, a_blk, h0):
        """delta, delta*x, a_bar and the states h of one block; the first
        two (T, ..., W, 1, D), the others (T, ..., W, N, D)."""
        dl = delta_blk[..., None, :]
        dx = dl * tm(x_blk)[..., None, :]
        # C order: the inputs are strided views, and the kernels step
        # through contiguous (..., N, D) slices.
        a_bar = np.multiply(dl, a_blk, order="C")
        np.exp(a_bar, out=a_bar)
        h = np.multiply(dx, b_blk[..., :, None], order="C")
        _scan_loop(a_bar, h, h0)
        return dl, dx, a_bar, h

    # Outputs and gradients are written block by block in each way's own
    # scan order, on a way axis next to L, and put back in position order
    # once, at the end.
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

    def backward(g):
        g_tm = tm(g.reshape(xd.shape))
        gx = np.empty(lead + (nw, length, d))
        gx_tm = tm(gx)
        ga = np.zeros(a_tm.shape[:-3] + (nw,) + a_tm.shape[-2:])
        # Each source's gradients: a given array's, (..., W, L, .), filled
        # block by block, or its projection's w's and bias's, with the way
        # axis at W, summed.
        grads = [tuple(np.zeros(v.shape[:-3] + (nw,) + v.shape[-2:])
                       for v in proj) if proj is not None
                 else (np.empty(lead + (nw, length, src[0].shape[-1])),)
                 for proj, src in zip(projs, srcs)]

        def through(i, gv, x_blk, s, e):
            """Pass gv, the time-major gradient of block s..e-1 of the array
            source i's projection stands for, to the projection: with gp =
            gv as (..., W, T, .), x_blk^T gp to w's gradient, the sum of gp
            to the bias's and gp w^T to x's."""
            (w, *_), (gw, *gbias) = projs[i], grads[i]
            gp = grid(gv)
            gw += _unbroadcast(np.swapaxes(x_blk, -1, -2) @ gp, gw.shape)
            if gbias:
                gbias[0] += _unbroadcast(gp, gbias[0].shape)
            gx[..., s:e, :] += gp @ np.swapaxes(w, -1, -2)

        nu0 = np.zeros(lead + (nw, n, d))     # nu at the next block's start
        for (s, e), h0 in zip(reversed(bounds), reversed(starts)):
            x_blk, b_blk, c_blk, delta_blk, slope = block_inputs(s, e)
            a_blk = np.ascontiguousarray(a_block(s, e))
            dl, dx, a_bar, h = block_states(x_blk, b_blk, delta_blk, a_blk,
                                            h0)
            g_blk = ways_block(g_tm, s, e, -2)
            lam = np.multiply(c_blk[..., :, None], g_blk[..., None, :],
                              order="C")
            # lam starts as dL/dh_k through y_k alone.  nu_k = a_bar_k *
            # lambda_k, where lambda_k = lam_k + nu_{k+1} is the full
            # adjoint: the same recurrence, run back to front.
            nu = a_bar * lam
            _scan_loop(a_bar[::-1], nu[::-1], nu0)
            lam[:-1] += nu[1:]
            lam[-1] += nu0
            nu0 = nu[0].copy()
            del a_bar
            gz = nu                                # dL/d(delta*A) = nu_k h_{k-1}
            gz[1:] *= h[:-1]
            gz[0] *= h0
            # Each full-size array is freed as soon as its last reader is
            # done, so the reductions' temporaries reuse its memory.
            gb, gc, gd = (np.empty(v.shape) if p else tm(gs[0])[s:e]
                          for v, gs, p in zip((b_blk, c_blk, delta_blk),
                                              grads, projected))
            np.matmul(h, g_blk[..., :, None], out=gc[..., :, None])
            del h
            np.einsum("...nd,...nd->...d", gz, a_blk, out=gd)
            _reduce_to(ga[s:e] if per_position else ga, gz, delta_blk)
            del gz, nu
            lam_b = np.matmul(b_blk[..., None, :], lam)
            np.matmul(lam, np.swapaxes(dx, -1, -2), out=gb[..., :, None])
            del lam
            np.multiply(lam_b, dl, out=gx_tm[s:e, ..., None, :])
            gd += lam_b[..., 0, :] * tm(x_blk)
            if projected[2]:
                # Through the softplus: d/dpre = sigmoid(pre), from its e.
                gd = gd * tm(_stable_sigmoid(*slope))
            for i, gv in enumerate((gb, gc, gd)):
                if projected[i]:
                    through(i, gv, x_blk, s, e)

        # In position order, in each argument's own shape.
        ga = np.swapaxes(np.moveaxis(
            in_position_order(ga, 0, -3, ad.shape[-4]), 0, -3), -1, -2)
        out = [in_position_order(gx, -2, -3, 1),
               _unbroadcast(ga, (1,) * (ga.ndim - ad.ndim) + ad.shape)]
        for gv, src, proj in zip(grads, srcs, projs):
            if proj is None:
                out.append(in_position_order(gv[0], -2, -3, src[0].shape[-3]))
            else:
                out.extend(_unbroadcast(gw, v.shape) for gw, v in zip(gv, src))
        return tuple(o.reshape(shape) for o, shape in zip(out, shapes))

    return Tensor._from_op(in_position_order(y, -2, -3, 1).reshape(xt.shape),
                           parents, backward)
