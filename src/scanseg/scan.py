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

``scan_inputs`` is the one generator of A, B, C and delta's projection: it
projects K sequences, each through its own ``SSMParams`` (SS2D's four
directions, fusion's two modalities), and returns delta as the pair
(w_delta, delta_bias) of delta = softplus(x @ w_delta + delta_bias).

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
The op scans one way only, first position to last.  A caller that scans
back to front passes ``Tensor.flip`` views of its inputs and flips y back,
which copies nothing.

delta is passed in one of two ways.  Fusion passes a (..., L, D) delta,
which the graph keeps.  SS2D passes the pair (w_delta, delta_bias), since
its delta is projected from the op's own x, and the op forms delta =
softplus(x @ w + bias) itself.  Forward forms the whole projection at once,
with the numpy calls of the graph ops it replaces, and drops it when it
returns.  Backward recomputes each block's delta from that block of x:
this is the recompute rule of Mamba's fused scan (Gu & Dao,
arXiv:2312.00752, section 3.3.2; Chen et al., arXiv:1604.06174), so the
op keeps no delta, only x and the small (D, D) and (1, D) pair.  The
block's gdelta then goes through the softplus, gpre = gdelta *
sigmoid(pre) with sigmoid(pre) = 1 - exp(-delta), and gives x_blk^T gpre
to w's gradient, the sum of gpre to the bias's and gpre w^T to x's.  Each
block's delta comes from one place, a slice of the given delta or that
recompute, and one block body serves both.

Inside a block the recurrence runs as a plain loop, ``_scan_loop``: two
numpy calls per position on contiguous (..., N, D) slices.  It is the op's
one kernel: a chunked prefix kernel was measured at the model's step
widths (prod(lead) * D * N from 64 to 2048) and did not beat it end to end.

``BLOCK`` is chosen by measurement, with ``scan-bench``'s model-shape rows
and the benchmark's peak memory.  A training step's memory peaks inside a
scan backward, whose per-block (T, ..., N, D) temporaries shrink with the
block: 128 positions halve them against 256, ran as fast or faster at the
training shapes and slightly slower at some narrow eval ones.  y does not
depend on the block length.

The array reference is ``discretize``, which keeps the op's delta >= 0
rule, followed by ``scan_sequential``, an allocate-per-step loop over
(..., L, D, N) arrays that shares no code with the op.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _unbroadcast, matmul, softplus, stack
from .errors import DimensionError, DomainError
from .nn import Module, param
from .rng import SplitMix64

__all__ = [
    "SSMParams", "scan_inputs", "project_delta", "discretize",
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
    """A, B, C and the delta projection for K sequences, sequence k
    through ``params[k]``.

    ``seqs`` is (..., K, L, D).  B and delta derive from ``seqs``; C derives
    from ``c_seqs`` (same shape) when given, else from ``seqs``.  Returns A
    (K, 1, D, N), B and C (..., K, L, N) and the pair (w_delta (K, D, D),
    delta_bias (K, 1, D)): ``selective_scan`` takes the pair in place of
    delta and projects ``seqs`` itself, and ``project_delta`` forms delta
    = softplus(seqs @ w_delta + delta_bias) as graph ops.
    """
    k, (d, n) = len(params), params[0].a_log.shape

    def stacked(attr):
        return stack([getattr(p, attr) for p in params], axis=0)

    b = matmul(seqs, stacked("w_B"))
    c = matmul(seqs if c_seqs is None else c_seqs, stacked("w_C"))
    proj = (stacked("w_delta"), stacked("delta_bias").reshape(k, 1, d))
    a = (-stacked("a_log").exp()).reshape((k, 1, d, n))
    return a, b, c, proj


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


def _check_op_shapes(x, a, b, c, delta):
    """``delta`` is delta's shape, or the pair of shapes (w, bias)."""
    full = x + b[-1:]
    try:
        if delta and isinstance(delta[0], tuple):
            w, bias = delta
            delta_ok = (w[-2:] == x[-1:] * 2 and np.broadcast_shapes(
                x, w[:-2] + x[-2:], bias) == x)
        else:
            delta_ok = delta == x
        ok = (len(x) >= 2 and b[:-1] == x[:-1] and c == b and delta_ok
              and np.broadcast_shapes(a, full) == full)
    except ValueError:
        ok = False
    if not ok:
        raise DimensionError(
            f"selective_scan shapes disagree: x {x}, A {a}, B {b}, C {c}, "
            f"delta {delta} (A must broadcast to {full}, and delta must "
            f"match x or be a (w, bias) projection of x to its shape)")


def _reduce_to(out, p, q):
    """out += the sum of p * q over the axes where ``out`` has extent 1
    and p does not, as one contraction; p is (..., N, D), q (..., D)."""
    ax = "abcdefghijklmnopqrstuvw"[:p.ndim]
    keep = "".join(a for a, m, n in zip(ax, out.shape, p.shape)
                   if m == n)
    out += np.einsum(f"{ax},{ax[:-2] + ax[-1]}->{keep}", p, q).reshape(
        out.shape)


def project_delta(seqs: Tensor, proj) -> Tensor:
    """delta = softplus(seqs @ w + bias) for ``proj`` = (w, bias), as graph
    ops: the delta a caller passes when it cannot pass the pair itself."""
    w, bias = proj
    return softplus(matmul(seqs, w) + bias)


def selective_scan(x: Tensor, a: Tensor, b: Tensor, c: Tensor,
                   delta) -> Tensor:
    """Differentiable selective scan that discretizes inside.

    x is (..., L, D), B and C (..., L, N); A broadcasts to (..., L, D, N).
    ``delta`` is either a (..., L, D) Tensor with delta >= 0, or the pair
    (w, bias) of a projection of x: w broadcasts to (..., D, D), bias to
    (..., 1, D), and the op forms delta = softplus(x @ w + bias) itself,
    keeping no delta for backward.  The scan runs from the first position
    to the last; inputs may be strided views, flipped ones too.  Returns y
    of shape (..., L, D).
    """
    projected = isinstance(delta, tuple)
    ins = tuple(map(Tensor._ensure,
                    (x, a, b, c) + (delta if projected else (delta,))))
    xd, ad, bd, cd = (t.data for t in ins[:4])
    dds = [t.data for t in ins[4:]]
    _check_op_shapes(xd.shape, ad.shape, bd.shape, cd.shape,
                     tuple(v.shape for v in dds) if projected
                     else dds[0].shape)
    lead, (length, d) = xd.shape[:-2], xd.shape[-2:]
    n = bd.shape[-1]

    def tm(v, axis=-2):
        """Time-major view of v: (L, ...) with L first."""
        return np.moveaxis(v, axis, 0)

    # The one source of each block's delta, (T, ..., D) time-major: a
    # recompute from x, or a slice of the given delta.
    if projected:
        wd, biasd = dds

        def block_delta(s, e):
            return tm(np.logaddexp(0.0, xd[..., s:e, :] @ wd + biasd))
    else:
        if np.any(dds[0] < 0):
            raise DomainError("delta must be non-negative")
        d_tm = tm(dds[0])

        def block_delta(s, e):
            return d_tm[s:e]

    # States are kept as (N, D) per position so that the elementwise work
    # runs along D, the longer contiguous axis.  A becomes (L or 1, ..., N, D):
    # time-major, per position or shared.
    a_nd = np.swapaxes(
        ad.reshape((1,) * (xd.ndim + 1 - ad.ndim) + ad.shape), -1, -2)
    a_tm = tm(a_nd, -3)
    per_position = a_tm.shape[0] > 1
    x_tm, b_tm, c_tm = tm(xd), tm(bd), tm(cd)
    bounds = [(s, min(s + BLOCK, length)) for s in range(0, length, BLOCK)]

    def a_block(s, e):
        return a_tm[s:e] if per_position else a_tm

    def block_states(delta_blk, a_blk, s, e, h0):
        """delta, delta*x, a_bar and the states h of positions s..e-1;
        the first two (T, ..., 1, D), the others (T, ..., N, D)."""
        dl = delta_blk[..., None, :]
        dx = dl * x_tm[s:e, ..., None, :]
        # C order: the inputs are strided views, and the kernels step
        # through contiguous (..., N, D) slices.
        a_bar = np.multiply(dl, a_blk, order="C")
        np.exp(a_bar, out=a_bar)
        h = np.multiply(dx, b_tm[s:e, ..., :, None], order="C")
        _scan_loop(a_bar, h, h0)
        return dl, dx, a_bar, h

    # Forward forms the whole delta at once; only this frame holds it.
    delta_fwd = block_delta(0, length)
    y = np.empty(xd.shape)
    y_tm = tm(y)
    starts = []                               # the state entering each block
    h0 = np.zeros(lead + (n, d))
    for s, e in bounds:
        starts.append(h0)
        h = block_states(delta_fwd[s:e], a_block(s, e), s, e, h0)[-1]
        np.matmul(c_tm[s:e, ..., None, :], h, out=y_tm[s:e, ..., None, :])
        h0 = h[-1].copy()

    def backward(g):
        g_tm = tm(g)
        gx, gb, gc = np.empty(xd.shape), np.empty(bd.shape), np.empty(cd.shape)
        ga = np.zeros(a_tm.shape)              # time-major
        gx_tm, gb_tm, gc_tm = tm(gx), tm(gb), tm(gc)
        if projected:
            gw, gbias = np.zeros(wd.shape), np.zeros(biasd.shape)
            w_t = np.swapaxes(wd, -1, -2)
        else:
            gdelta = np.empty(xd.shape)
            gdelta_tm = tm(gdelta)
        nu0 = np.zeros(lead + (n, d))          # nu at the next block's start
        for (s, e), h0 in zip(reversed(bounds), reversed(starts)):
            delta_blk = block_delta(s, e)
            a_blk = np.ascontiguousarray(a_block(s, e))
            dl, dx, a_bar, h = block_states(delta_blk, a_blk, s, e, h0)
            gs = g_tm[s:e, ..., None, :]
            lam = np.multiply(c_tm[s:e, ..., :, None], gs, order="C")
            # lam starts as dL/dh_k through y_k alone.  nu_k = a_bar_k *
            # lambda_k, where lambda_k = lam_k + nu_{k+1} is the full
            # adjoint: the same recurrence, run back to front.
            nu = a_bar * lam
            _scan_loop(a_bar[::-1], nu[::-1], nu0)
            lam[:-1] += nu[1:]
            lam[-1] += nu0
            nu0 = nu[0].copy()
            gz = nu                                # dL/d(delta*A) = nu_k h_{k-1}
            gz[1:] *= h[:-1]
            gz[0] *= h0
            lam_b = np.matmul(b_tm[s:e, ..., None, :], lam)
            np.multiply(lam_b, dl, out=gx_tm[s:e, ..., None, :])
            gd = np.empty(delta_blk.shape) if projected else gdelta_tm[s:e]
            np.einsum("...nd,...nd->...d", gz, a_blk, out=gd)
            gd += lam_b[..., 0, :] * x_tm[s:e]
            np.matmul(lam, np.swapaxes(dx, -1, -2),
                      out=gb_tm[s:e, ..., :, None])
            np.matmul(h, g_tm[s:e, ..., :, None], out=gc_tm[s:e, ..., :, None])
            _reduce_to(ga[s:e] if per_position else ga, gz, delta_blk)
            if projected:
                # Through the softplus: d/dpre = sigmoid(pre) = 1 - exp(-delta).
                gpre = np.moveaxis(gd * -np.expm1(-delta_blk), 0, -2)
                gw += _unbroadcast(
                    np.swapaxes(xd[..., s:e, :], -1, -2) @ gpre, wd.shape)
                gbias += _unbroadcast(gpre, biasd.shape)
                gx[..., s:e, :] += gpre @ w_t
        ga = np.swapaxes(np.moveaxis(ga, 0, -3), -1, -2)
        grads = (gx, ga.reshape(ad.shape), gb, gc)
        return grads + ((gw, gbias) if projected else (gdelta,))

    return Tensor._from_op(y, ins, backward)
