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
and delta: K sequences, each through its own ``SSMParams`` (SS2D's four
directions, fusion's two modalities).  It returns B as (w_B,), the
projection B = x @ w_B, C likewise, and delta as (w_delta, delta_bias),
delta = softplus(x @ w_delta + delta_bias).  ``project`` forms the array a
projection stands for as graph ops.

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

The op scans x from the first position to the last and, given ``back``, a
second (A, B, C, delta), also from the last position to the first; y is
the two scans' outputs summed position by position.  That is Vision
Mamba's bidirectional scan (Zhu et al., arXiv:2401.09417): SS2D's reversed
directions and fusion's second scan are back ways.  Inside the op the two
ways sit on a way axis next to L in every block, and the back way's block
s..e-1 reads positions L-e..L-s-1 back to front.  So one ``block_inputs``,
one state carry, one ``_scan_loop`` and one adjoint serve both ways, at
the per-position width of both together: at batch 1 a loop of half that
width costs nearly as much per position, so two one-way calls would take
close to twice as long.  y and the gradients are written in each way's own
order and put back in position order once, at the end.

B, C and delta are each passed in one of two forms, the same in both
ways.  Fusion passes arrays, which the graph keeps: its joined sequence
switches generator halfway along L and its C is crossed, so no projection
of its x gives them.  SS2D passes the projections, since its B, C and
delta are projected from the op's own x (C from a second map when the
decoder gives one, as an array).  Each way's weights are joined on the way
axis, and the op then forms each block's B = x_blk @ w_B, C = x_blk @ w_C and delta
= softplus(x_blk @ w + bias) from that block of x, in forward and again in
backward: this is the recompute rule of Mamba's fused scan (Gu & Dao,
arXiv:2312.00752, section 3.3.2; Chen et al., arXiv:1604.06174), so the op
keeps none of them, only x and the small weights.  With OpenBLAS at the
model's shapes, the block matmuls give the same bits, row by row, as one
matmul over all of x.  In backward, block by block, a
projection's gradient gp gives x_blk^T gp to w's gradient, the sum of gp
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


def scan_inputs(seqs: Tensor, params, c_seqs: Tensor | None = None,
                back: bool = False):
    """A and the projections of B, C and delta for K sequences, sequence k
    through ``params[k]``, in ``selective_scan``'s argument order.

    ``seqs`` is (..., K, L, D).  Returns A (1, ..., K, 1, D, N), at rank
    seqs.ndim + 1; B's projection (w_B,) with w_B (K, D, N); C's, (w_C,),
    or, when ``c_seqs`` (same shape) is given, C = c_seqs @ w_C as an
    array, since it does not project the scan's x; and delta's,
    (w_delta (K, D, D), delta_bias (K, 1, D)).  ``project`` forms the
    arrays a projection stands for as graph ops.

    ``back`` marks the parameter sets of the op's back way.  A C from
    ``c_seqs`` is then projected from the sequences read last position
    first, the order that way scans them, and flipped back to position
    order: the same values, with w_C's gradient summed over positions in
    the order of that way's scan.
    """
    k, (d, n) = len(params), params[0].a_log.shape
    if seqs.ndim < 3 or seqs.shape[-3:] != (k, seqs.shape[-2], d):
        raise DimensionError(
            f"sequences {seqs.shape} do not match {k} parameter sets of "
            f"width {d}: expected (..., {k}, L, {d})")

    def stacked(attr):
        return stack([getattr(p, attr) for p in params], axis=0)

    c = (stacked("w_C"),)
    if c_seqs is not None and back:
        c = project(c_seqs.flip(-2), c).flip(-2)
    elif c_seqs is not None:
        c = project(c_seqs, c)
    a = (-stacked("a_log").exp()).reshape(
        (1,) * (seqs.ndim - 3) + (k, 1, d, n))
    delta = (stacked("w_delta"), stacked("delta_bias").reshape(k, 1, d))
    return a, (stacked("w_B"),), c, delta


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


def _check_op_shapes(x, a, sources, way="selective_scan"):
    """``sources`` holds B's, C's and delta's: an array's shape, or the
    shapes of a projection of x, (w,) for B and C and (w, bias) for delta.
    Returns N, B's last extent."""
    def value(src, arity):
        """The shape of the array a source stands for."""
        if not (src and isinstance(src[0], tuple)):
            return src
        w, *bias = src
        if len(src) != arity or w[-2] != x[-1]:
            raise ValueError
        shape = np.broadcast_shapes(x[:-2], w[:-2]) + (x[-2], w[-1])
        if bias and np.broadcast_shapes(shape, bias[0]) != shape:
            raise ValueError
        return shape

    try:
        b, c, delta = map(value, sources, (1, 1, 2))
        full = x + b[-1:]
        ok = (len(x) >= 2 and b[:-1] == x[:-1] and c == b and delta == x
              and np.broadcast_shapes(a, full) == full)
    except (ValueError, IndexError):
        ok = False
    if not ok:
        b, c, delta = sources
        raise DimensionError(
            f"{way} shapes disagree: x {x}, A {a}, B {b}, C {c}, "
            f"delta {delta} (A must broadcast to {x} + (N,); B and C must "
            f"be (..., L, N), or (w,) with x @ w of that shape; delta must "
            f"match x, or be (w, bias) with x @ w + bias of x's shape)")
    return b[-1]


def _reduce_to(out, p, q):
    """out += the sum of p * q over the axes where ``out`` has extent 1
    and p does not, as one contraction; p is (..., N, D), q (..., D)."""
    ax = "abcdefghijklmnopqrstuvw"[:p.ndim]
    keep = "".join(a for a, m, n in zip(ax, out.shape, p.shape)
                   if m == n)
    out += np.einsum(f"{ax},{ax[:-2] + ax[-1]}->{keep}", p, q).reshape(
        out.shape)


def _way(v, k, axis):
    """Way k of v, whose way axis is ``axis`` (negative), as a view."""
    return v[(..., k) + (slice(None),) * (-1 - axis)]


def _join(arrays, axis):
    """The ways' arrays, broadcast to one shape, stacked on a way axis at
    ``axis``; one way's array is a view, with that axis of extent 1."""
    if len(arrays) == 1:
        return np.expand_dims(arrays[0], axis)
    return np.stack(np.broadcast_arrays(*arrays), axis)


def selective_scan(x: Tensor, a: Tensor, b, c, delta, back=None) -> Tensor:
    """Differentiable selective scan that discretizes inside.

    x is (..., L, D); A broadcasts to (..., L, D, N).  B and C are each a
    (..., L, N) Tensor or a projection (w,) of x, read as x @ w, with w
    broadcasting to (..., D, N).  delta is a (..., L, D) Tensor with delta
    >= 0 or a projection (w, bias), read as softplus(x @ w + bias), with w
    broadcasting to (..., D, D) and bias to (..., 1, D).  The op forms a
    projected B, C or delta block by block, in forward and again in
    backward, and keeps none of it.  The scan runs from the first position
    to the last; inputs may be strided views, flipped ones too.

    ``back``, when given, is a second (A, B, C, delta) in the same forms,
    B, C and delta each a projection where the front's is one; arrays are
    indexed by position as x is.  The op then also scans x from the last
    position to the first with those parameters, and y is the sum of the
    two scans' outputs, position by position.  Returns y of shape
    (..., L, D).
    """
    ways = [(a, b, c, delta)]
    if back is not None:
        if not (isinstance(back, (tuple, list)) and len(back) == 4):
            size = (f" of length {len(back)}" if hasattr(back, "__len__")
                    else "")
            raise DimensionError(
                f"selective_scan back must be a tuple (A, B, C, delta), "
                f"got a {type(back).__name__}{size}")
        ways.append(tuple(back))
    xt = Tensor._ensure(x)
    xd = xt.data
    projected = [isinstance(v, tuple) for v in (b, c, delta)]
    parents, a_datas, srcs = [xt], [], []   # srcs[k][i]: way k's source i
    for k, (av, *vs) in enumerate(ways):
        way = "selective_scan" + (" back" if k else "")
        if [isinstance(v, tuple) for v in vs] != projected:
            raise DimensionError(
                f"{way}: B, C and delta must each be a projection where "
                f"the front's is one, and an array where it is an array")
        at = Tensor._ensure(av)
        groups = [tuple(map(Tensor._ensure, v if p else (v,)))
                  for v, p in zip(vs, projected)]
        datas = [tuple(t.data for t in grp) for grp in groups]
        n = _check_op_shapes(xd.shape, at.data.shape,
                             [tuple(v.shape for v in dd) if p else dd[0].shape
                              for dd, p in zip(datas, projected)], way)
        if k and n != n_front:
            raise DimensionError(
                f"selective_scan back has N = {n}, the front N = {n_front}")
        n_front = n
        if not projected[2] and np.any(datas[2][0] < 0):
            raise DomainError("delta must be non-negative")
        parents += [at] + [t for grp in groups for t in grp]
        a_datas.append(at.data)
        srcs.append(datas)
    lead, (length, d) = xd.shape[:-2], xd.shape[-2:]
    nw = len(ways)

    def tm(v, axis=-2):
        """Time-major view of v: (L, ...) with L first."""
        axes = list(range(v.ndim))
        return v.transpose([axes.pop(axis)] + axes)

    def grid(v):
        """tm's inverse for axis -2: (T, ..., .) -> (..., T, .)."""
        return v.transpose(list(range(1, v.ndim - 1)) + [0, v.ndim - 1])

    def ways_block(vs, s, e, axis, pos=0):
        """Block s..e-1 of arrays, one per way, whose positions run along
        axis ``pos``, on a way axis at ``axis``: the front way reads
        positions s..e-1, the back way L-e..L-s-1 back to front, so each
        way's block is in its own scan order."""
        at = (slice(None),) * pos
        front = vs[0][at + (slice(s, e),)]
        ways_at = (..., None) + (slice(None),) * (-1 - axis)
        if nw == 1:
            return front[ways_at]
        shape = list(front[ways_at].shape)
        shape[axis] = nw
        blk = np.empty(shape)
        _way(blk, 0, axis)[...] = front
        rev = vs[1][at + (slice(length - e, length - s),)]
        _way(blk, 1, axis)[...] = rev[at + (slice(None, None, -1),)]
        return blk

    def merge(v):
        """The ways' outputs in v, (..., W, L, .), each in its own scan
        order, summed position by position."""
        front = v[..., 0, :, :]
        return front + v[..., 1, ::-1, :] if nw > 1 else front

    # A projection's arrays of both ways joined on a way axis next to the
    # matrix axes, as x's block is next to L: (..., W, D, N) and so on.
    joined = [tuple(_join(arrs, -3) for arrs in zip(*(w[i] for w in srcs)))
              if p else None for i, p in enumerate(projected)]
    given = [None if p else [tm(w[i][0]) for w in srcs]
             for i, p in enumerate(projected)]

    def block_inputs(s, e):
        """x, B, C and delta of positions s..e-1 of each way: x as
        (..., W, T, D), the others time-major (T, ..., W, .); each a block
        of the given array or a recompute from x's block.  Last, for a
        projected delta, the softplus's input pre and its e = exp(-|pre|),
        (..., W, T, D), which give its slope."""
        x_blk = ways_block([xd] * nw, s, e, -3, xd.ndim - 2)
        out, slope = [x_blk], None
        for v_tms, proj in zip(given, joined):
            if v_tms is not None:
                out.append(ways_block(v_tms, s, e, -2))
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
    # N, D) per way, time-major, per position or shared, at one shape.
    a_tms = np.broadcast_arrays(*(
        tm(np.swapaxes(ad.reshape((1,) * (xd.ndim + 1 - ad.ndim)
                                  + ad.shape), -1, -2), -3)
        for ad in a_datas))
    per_position = a_tms[0].shape[0] > 1
    a_shared = None if per_position else _join(a_tms, -3)
    # Projections' and a shared A's gradients are summed block by block,
    # so their rounding follows the block length: those calls take BLOCK
    # positions per way.  A call with neither has gradients that do not
    # depend on it, and takes BLOCK / W, so that its blocks' temporaries
    # are no larger with two ways than with one.
    step = BLOCK // nw if per_position and not any(projected) else BLOCK
    bounds = [(s, min(s + step, length)) for s in range(0, length, step)]

    def a_block(s, e):
        return ways_block(a_tms, s, e, -3) if per_position else a_shared

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
        g_tms = [tm(g)] * nw
        gx = np.empty(lead + (nw, length, d))
        gx_tm = tm(gx)
        a_shape = a_tms[0].shape
        ga = np.zeros(a_shape[:-2] + (nw,) + a_shape[-2:])   # time-major
        # Each source's gradients: a given array's, (..., W, L, .), filled
        # block by block, or the joined projection's w's and bias's, summed.
        grads = [tuple(map(np.zeros_like, proj)) if proj is not None
                 else (np.empty(lead + (nw, length,
                                        srcs[0][i][0].shape[-1])),)
                 for i, proj in enumerate(joined)]

        def through(i, gv, x_blk, s, e):
            """Pass gv, the time-major gradient of block s..e-1 of the array
            source i's projection stands for, to the projection: with gp =
            gv as (..., W, T, .), x_blk^T gp to w's gradient, the sum of gp
            to the bias's and gp w^T to x's."""
            (w, *bias), (gw, *gbias) = joined[i], grads[i]
            gp = grid(gv)
            gw += _unbroadcast(np.swapaxes(x_blk, -1, -2) @ gp, w.shape)
            if bias:
                gbias[0] += _unbroadcast(gp, bias[0].shape)
            gx[..., s:e, :] += gp @ np.swapaxes(w, -1, -2)

        nu0 = np.zeros(lead + (nw, n, d))     # nu at the next block's start
        for (s, e), h0 in zip(reversed(bounds), reversed(starts)):
            x_blk, b_blk, c_blk, delta_blk, slope = block_inputs(s, e)
            a_blk = np.ascontiguousarray(a_block(s, e))
            dl, dx, a_bar, h = block_states(x_blk, b_blk, delta_blk, a_blk,
                                            h0)
            g_blk = ways_block(g_tms, s, e, -2)
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

        # Back to each way's arguments, in position order.
        out = [merge(gx)]
        for k, (ad, datas) in enumerate(zip(a_datas, srcs)):
            order = -1 if k else 1
            ga_k = np.swapaxes(np.moveaxis(ga[::order, ..., k, :, :], 0, -3),
                               -1, -2)
            out.append(_unbroadcast(ga_k, (1,) * (ga_k.ndim - ad.ndim)
                                    + ad.shape).reshape(ad.shape))
            for gv, dd, proj in zip(grads, datas, joined):
                if proj is None:
                    out.append(gv[0][..., k, ::order, :])
                else:
                    out.extend(_unbroadcast(gw[..., k, :, :], v.shape)
                               for gw, v in zip(gv, dd))
        return tuple(out)

    return Tensor._from_op(merge(y), parents, backward)
