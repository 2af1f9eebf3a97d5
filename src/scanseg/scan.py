"""Selective state-space scan: discretization, recurrence kernels, adjoint.

The continuous system

    h'(t) = A h(t) + B x(t),      y(t) = C h(t) + D x(t)

is discretized per position k with a timescale delta:

    a_bar = exp(delta * A),       b_bar = delta * B      (first-order rule)
    h_k   = a_bar_k * h_{k-1} + b_bar_k * x_k
    y_k   = C_k . h_k            (+ d_skip * x_k when the residual term is kept)

A is diagonal per channel and parameterized as -exp(a_log), so its entries
are strictly negative and a_bar stays in (0, 1].  B, C, delta are generated
from the input sequence, which is what makes the recurrence
content-dependent.  delta comes out of a softplus, which returns exactly 0
below about -745; zero is the rule's limit (a_bar = 1, b_bar = 0: the state
holds), so delta >= 0 is the domain and only a negative delta is rejected.

``selective_scan`` is the differentiable op: it takes x, A, B, C and delta,
discretizes inside, runs ``scan_chunked``'s kernel, and reduces the
gradients for delta, A and B analytically from the adjoint
lambda_k = gsrc_k + a_bar_{k+1} * lambda_{k+1}, which runs the same kernel
on flipped arrays.  The kernel splits the sequence into chunks, composes
each chunk's affine action h -> a*h + b position by position (all chunks
advanced together, so the per-position Python cost is paid once per chunk
offset instead of once per element), then resolves the chunk carries in a
short sequential pass.

The array oracle is ``discretize_zoh`` (delta > 0) or ``_discretize_arrays``
(unchecked) followed by ``scan_sequential``, the plain loop, which
``scan_chunked`` matches up to floating-point reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _unbroadcast, matmul, softplus
from .errors import ConfigError, DimensionError, DomainError
from .nn import Module, param
from .rng import SplitMix64

__all__ = [
    "SSMParams", "DiscretizedParams", "make_input_params",
    "discretize_zoh", "scan_sequential", "scan_chunked", "selective_scan",
    "default_chunk",
]


class SSMParams(Module):
    """Learnable scan parameters for one direction.

    ``a_log`` realizes A = -exp(a_log) (diagonal per channel), initialized
    to log(1..N) so the N state lanes start with spread decay timescales.
    ``delta_bias`` is set so softplus(delta_bias) lands uniformly in
    [1e-3, 1e-1].  The skip term d_skip is optional; no model block
    keeps it.
    """

    def __init__(self, channels: int, state: int, rng: SplitMix64,
                 with_skip: bool = False):
        super().__init__()
        self.channels = channels
        self.state = state
        self.a_log = param(np.tile(np.log(np.arange(1, state + 1, dtype=np.float64)),
                                   (channels, 1)))
        std = 1.0 / np.sqrt(channels)
        self.w_B = param(rng.normal_array((channels, state), 0.0, std))
        self.w_C = param(rng.normal_array((channels, state), 0.0, std))
        self.w_delta = param(rng.normal_array((channels, channels), 0.0, std))
        u = 1e-3 + (1e-1 - 1e-3) * rng.uniform_array((channels,))
        self.delta_bias = param(np.log(np.expm1(u)))
        self.d_skip = param(np.ones(channels)) if with_skip else None

    def state_matrix(self) -> Tensor:
        """A = -exp(a_log); strictly negative."""
        return -self.a_log.exp()


@dataclass
class DiscretizedParams:
    """Per-position discretized transition and input maps, (..., L, D, N)."""
    a_bar: object
    b_bar: object


def make_input_params(x: Tensor, p: SSMParams):
    """Input-dependent B, C, delta for a sequence x of shape (..., L, D)."""
    if x.shape[-1] != p.channels:
        raise DimensionError(
            f"sequence channels {x.shape} do not match params D={p.channels}")
    b = matmul(x, p.w_B)
    c = matmul(x, p.w_C)
    delta = softplus(matmul(x, p.w_delta) + p.delta_bias)
    return b, c, delta


def _discretize_arrays(a: np.ndarray, b: np.ndarray, delta: np.ndarray):
    """Kernel-level discretization on raw arrays, no domain checks.

    a: (..., D, N), b: (..., L, N), delta: (..., L, D); returns
    a_bar, b_bar of shape (..., L, D, N).
    """
    a_bar = np.exp(delta[..., :, :, None] * a[..., None, :, :])
    b_bar = delta[..., :, :, None] * b[..., :, None, :]
    return a_bar, b_bar


def discretize_zoh(a, b, delta) -> DiscretizedParams:
    """Array oracle: discretize (A, B) with timescale delta > 0.

    a_bar = exp(delta*A) elementwise; b_bar uses the first-order rule
    delta*B.  The model path discretizes inside ``selective_scan`` instead.
    """
    a, b, delta = np.asarray(a), np.asarray(b), np.asarray(delta)
    if np.any(delta <= 0):
        raise DomainError("delta must be strictly positive")
    a_bar, b_bar = _discretize_arrays(a, b, delta)
    return DiscretizedParams(a_bar=a_bar, b_bar=b_bar)


def _emit(c: np.ndarray, h: np.ndarray, x: np.ndarray, d_skip) -> np.ndarray:
    """y_k = C_k . h_k (+ d_skip * x_k)."""
    y = np.einsum("...ln,...ldn->...ld", c, h)
    if d_skip is not None:
        y = y + d_skip * x
    return y


def _scan_core_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference recurrence h_k = a_k h_{k-1} + b_k from h_{-1} = 0."""
    length = a.shape[-3]
    h = np.zeros(a.shape[:-3] + a.shape[-2:], dtype=a.dtype)
    out = np.empty_like(a)
    for k in range(length):
        h = a[..., k, :, :] * h + b[..., k, :, :]
        out[..., k, :, :] = h
    return out


def _scan_core_chunked(a: np.ndarray, b: np.ndarray, chunk: int) -> np.ndarray:
    """Chunked recurrence; see module docstring for the three phases."""
    length = a.shape[-3]
    size = min(chunk, length)
    n_chunks = -(-length // size)
    padded = n_chunks * size
    if padded != length:
        pad = [(0, 0)] * a.ndim
        pad[-3] = (0, padded - length)
        a = np.pad(a, pad, constant_values=1.0)  # identity affine maps
        b = np.pad(b, pad, constant_values=0.0)
    lead = a.shape[:-3]
    dn = a.shape[-2:]
    a = a.reshape(lead + (n_chunks, size) + dn)
    b = b.reshape(lead + (n_chunks, size) + dn)

    # Phase 1: all chunks advanced together, one step per in-chunk offset.
    htilde = np.empty_like(a)
    prefix = np.empty_like(a)
    h = np.zeros(lead + (n_chunks,) + dn, dtype=a.dtype)
    p = np.ones(lead + (n_chunks,) + dn, dtype=a.dtype)
    for s in range(size):
        h = a[..., s, :, :] * h + b[..., s, :, :]
        p = p * a[..., s, :, :]
        htilde[..., s, :, :] = h
        prefix[..., s, :, :] = p

    # Phase 2: sequential carry across chunks.
    carries = np.zeros(lead + (n_chunks,) + dn, dtype=a.dtype)
    state = np.zeros(lead + dn, dtype=a.dtype)
    for c in range(n_chunks):
        carries[..., c, :, :] = state
        state = prefix[..., c, -1, :, :] * state + htilde[..., c, -1, :, :]

    # Phase 3: combine carries with intra-chunk partial states.
    full = prefix * carries[..., :, None, :, :] + htilde
    full = full.reshape(lead + (padded,) + dn)
    return full[..., :length, :, :]


def default_chunk(length: int) -> int:
    """Near-sqrt chunk size; balances the two sequential phases."""
    return max(8, min(64, int(round(np.sqrt(max(length, 1))))))


def _check_scan_shapes(x, a_bar, b_bar, c):
    if x.shape[-2:] != a_bar.shape[-3:-1] or a_bar.shape != b_bar.shape:
        raise DimensionError(
            f"scan shapes disagree: x {x.shape}, a_bar {a_bar.shape}, "
            f"b_bar {b_bar.shape}")
    if c.shape[-2] != x.shape[-2] or c.shape[-1] != a_bar.shape[-1]:
        raise DimensionError(
            f"C shape {c.shape} does not match x {x.shape} / state "
            f"{a_bar.shape}")


def scan_sequential(x, dp: DiscretizedParams, c, d_skip=None):
    """Oracle realization of the recurrence; forward only."""
    xa, aa, ba, ca = map(np.asarray, (x, dp.a_bar, dp.b_bar, c))
    _check_scan_shapes(xa, aa, ba, ca)
    h = _scan_core_loop(aa, ba * xa[..., :, :, None])
    return _emit(ca, h, xa, d_skip)


def scan_chunked(x, dp: DiscretizedParams, c, d_skip=None, chunk: int = 64):
    """Chunked scan; equals the oracle up to floating-point reassociation."""
    if chunk < 1:
        raise ConfigError(f"chunk must be a positive int, got {chunk}")
    xa, aa, ba, ca = map(np.asarray, (x, dp.a_bar, dp.b_bar, c))
    _check_scan_shapes(xa, aa, ba, ca)
    h = _scan_core_chunked(aa, ba * xa[..., :, :, None], chunk)
    return _emit(ca, h, xa, d_skip)


def _reverse_scan(a: np.ndarray, src: np.ndarray, chunk: int) -> np.ndarray:
    """lambda_k = src_k + a_{k+1} * lambda_{k+1}, evaluated back to front."""
    a_next = np.concatenate(
        [a[..., 1:, :, :], np.ones_like(a[..., :1, :, :])], axis=-3)
    fm = np.flip(a_next, axis=-3)
    fs = np.flip(src, axis=-3)
    lam = _scan_core_chunked(fm, fs, chunk)
    return np.flip(lam, axis=-3)


def _check_op_shapes(x, a, b, c, delta, d_skip):
    full = x + b[-1:]
    try:
        ok = (len(x) >= 2 and b[:-1] == x[:-1] and c == b and delta == x
              and np.broadcast_shapes(a, full) == full
              and np.broadcast_shapes(d_skip or (), x) == x)
    except ValueError:
        ok = False
    if not ok:
        raise DimensionError(
            f"selective_scan shapes disagree: x {x}, A {a}, B {b}, C {c}, "
            f"delta {delta}, d_skip {d_skip} (A must broadcast to {full})")


def selective_scan(x: Tensor, a: Tensor, b: Tensor, c: Tensor, delta: Tensor,
                   d_skip: Tensor | None = None) -> Tensor:
    """Differentiable selective scan that discretizes inside.

    x and delta are (..., L, D), B and C (..., L, N); A broadcasts to
    (..., L, D, N) and d_skip, when given, to (..., L, D).  delta must be
    >= 0.  Returns y of shape (..., L, D).
    """
    xt, at, bt, ct, dt = map(Tensor._ensure, (x, a, b, c, delta))
    st = Tensor._ensure(d_skip) if d_skip is not None else None
    xd, ad, bd, cd, dd = xt.data, at.data, bt.data, ct.data, dt.data
    sd = st.data if st is not None else None
    _check_op_shapes(xd.shape, ad.shape, bd.shape, cd.shape, dd.shape,
                     sd.shape if sd is not None else None)
    if np.any(dd < 0):
        raise DomainError("delta must be non-negative")
    size = default_chunk(xd.shape[-2])

    dl = dd[..., None]
    a_bar = np.exp(dl * ad)
    h = _scan_core_chunked(a_bar, dl * bd[..., None, :] * xd[..., None], size)
    y = _emit(cd, h, xd, sd)

    def backward(g):
        lam = _reverse_scan(a_bar, np.einsum("...ld,...ln->...ldn", g, cd),
                            size)
        gz = np.zeros_like(lam)                # w.r.t. z = delta * A
        np.multiply(lam[..., 1:, :, :], h[..., :-1, :, :],
                    out=gz[..., 1:, :, :])     # lambda_k * h_{k-1}
        gz *= a_bar
        lam_b = np.einsum("...ldn,...ln->...ld", lam, bd)
        gx = lam_b * dd
        gdelta = np.einsum("...n,...n->...", gz, ad) + lam_b * xd
        ga = _unbroadcast(gz * dl, ad.shape)
        gb = np.einsum("...ldn,...ld->...ln", lam, xd * dd)
        gc = np.einsum("...ld,...ldn->...ln", g, h)
        if st is None:
            return gx, ga, gb, gc, gdelta
        return (gx + g * sd, ga, gb, gc, gdelta,
                _unbroadcast(g * xd, sd.shape))

    parents = (xt, at, bt, ct, dt) + ((st,) if st is not None else ())
    return Tensor._from_op(y, parents, backward)
