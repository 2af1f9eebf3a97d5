"""Dense-tensor engine with reverse-mode differentiation.

Tensors wrap float64 numpy arrays.  Each tensor also has a small graph
``Node``: whether it takes a gradient, its parents' nodes, the backward
closure and ``grad``.  The differentiation graph links nodes only, and a
node never refers to a tensor or to its data; each closure captures exactly
the arrays and shapes its backward reads.  So an intermediate array that no
backward reads is freed as soon as forward drops its tensor, not when
backward reaches its consumer.  ``backward()`` on a scalar loss walks the
graph in reverse topological order and accumulates (sums) chain-rule
contributions into ``grad`` buffers, so parameters shared between several
consumers — e.g. the two encoder streams — receive the sum of both paths.

``Tensor.grad``, ``Tensor._parents`` (the parents' nodes) and
``Tensor._backward_fn`` read and assign the fields of the tensor's node.

A recorded graph supports exactly one backward pass, and the walk releases
it as it goes: each node's closure and parent links are dropped once the
closure has run, and so is the ``grad`` of every non-leaf node other than
the root.  Afterwards only leaves (parameters and tensors made with
``requires_grad=True``) and the root keep ``grad``.  A second call raises
``GraphError``.

Inside ``with no_grad():`` operations record nothing: outputs keep no
parents and no closure and have ``requires_grad=False``, so each
intermediate is freed as soon as nothing else refers to it.  Parameters
keep ``requires_grad=True``.  Inference runs in this scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, GraphError

__all__ = [
    "Tensor", "no_grad", "concat", "stack", "matmul", "layer_norm",
    "depthwise_conv2d", "silu", "softplus", "sigmoid", "log_softmax",
    "bilinear_resize",
]


_recording = True


@contextmanager
def no_grad():
    """Scope in which operations record no graph; nests, and restores the
    previous state on exit, also by an exception."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Node:
    """What backward needs of one tensor; see the module docstring."""

    __slots__ = ("requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, requires_grad: bool, grad=None, parents: tuple = (),
                 backward_fn=None):
        self.requires_grad = requires_grad
        self.grad = grad
        self._parents = parents
        self._backward_fn = backward_fn


def _node_field(name: str) -> property:
    return property(lambda t: getattr(t._node, name),
                    lambda t, value: setattr(t._node, name, value))


class Tensor:
    """N-dimensional float64 array participating in the reverse-mode graph."""

    __slots__ = ("data", "_node", "_consumed")

    requires_grad = _node_field("requires_grad")
    grad = _node_field("grad")
    _parents = _node_field("_parents")
    _backward_fn = _node_field("_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = Node(bool(requires_grad),
                          np.zeros_like(self.data) if requires_grad else None)
        self._consumed = False

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"], backward_fn):
        out = Tensor.__new__(Tensor)
        out.data = data
        out._consumed = False
        nodes = tuple(p._node for p in parents)
        if _recording and any(n.requires_grad for n in nodes):
            out._node = Node(True, None, nodes, backward_fn)
        else:
            out._node = Node(False)
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise GraphError(
                "graph already consumed by a previous backward call; "
                "rebuild the forward pass before differentiating again")
        self._consumed = True
        root = self._node
        if not root.requires_grad:
            return

        # Iterative post-order DFS; recursion would overflow on long chains.
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        if root.grad is None:
            root.grad = np.zeros_like(self.data)
        root.grad = root.grad + np.ones_like(self.data)

        # Popping releases each node, with the arrays its closure captured,
        # once nothing else refers to it; a non-leaf's grad is dropped once
        # it has been used.
        while topo:
            node = topo.pop()
            fn = node._backward_fn
            if fn is None or node.grad is None:
                continue
            grads = fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                # Gradients are never updated in place, so the first
                # contribution can be shared rather than copied.
                parent.grad = g if parent.grad is None else parent.grad + g
            node._backward_fn = None
            node._parents = ()
            if node is not root:
                node.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _ensure(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._ensure(other)
        sa, sb = self.data.shape, other.data.shape
        return Tensor._from_op(
            self.data + other.data, (self, other),
            lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = Tensor._ensure(other)
        sa, sb = self.data.shape, other.data.shape
        return Tensor._from_op(
            self.data - other.data, (self, other),
            lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))

    def __rsub__(self, other):
        return Tensor._ensure(other) - self

    def __mul__(self, other):
        other = Tensor._ensure(other)
        a, b = self.data, other.data
        return Tensor._from_op(
            a * b, (self, other),
            lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._ensure(other)
        a, b = self.data, other.data
        return Tensor._from_op(
            a / b, (self, other),
            lambda g: (_unbroadcast(g / b, a.shape),
                       _unbroadcast(-g * a / (b * b), b.shape)))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- unary ops -------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._from_op(out_data, (self,), lambda g: (g * out_data,))

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, shape).copy(),)

        return Tensor._from_op(
            np.sum(self.data, axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- structural ops ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return Tensor._from_op(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def transpose(self, axes) -> "Tensor":
        """Permuted view of the axes; its gradient is a view too."""
        axes = tuple(axes)
        if sorted(axes) != list(range(self.ndim)):
            raise DimensionError(
                f"transpose axes {axes} are not a permutation of 0..{self.ndim - 1}")
        inv = tuple(np.argsort(axes))
        return Tensor._from_op(self.data.transpose(axes), (self,),
                               lambda g: (g.transpose(inv),))

    def flip(self, axis: int) -> "Tensor":
        """Reversed view along ``axis``; its gradient is a view too."""
        if not -self.ndim <= axis < self.ndim:
            raise DimensionError(
                f"flip axis {axis} out of range for shape {self.shape}")
        return Tensor._from_op(np.flip(self.data, axis=axis), (self,),
                               lambda g: (np.flip(g, axis=axis),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the two trailing axes."""
    a, b = Tensor._ensure(a), Tensor._ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} vs {b.shape}")

    ad, bd = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

    return Tensor._from_op(ad @ bd, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._ensure(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(sizes)))

    return Tensor._from_op(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """``np.stack`` as one node; each input's gradient is a view of g."""
    tensors = [Tensor._ensure(t) for t in tensors]
    return Tensor._from_op(
        np.stack([t.data for t in tensors], axis=axis), tensors,
        lambda g: tuple(np.moveaxis(g, axis, 0)))


def _stable_sigmoid(x: np.ndarray, e: np.ndarray | None = None,
                    overwrite: bool = False) -> np.ndarray:
    """sigmoid(x) = max(e, x >= 0) / (1 + e) from e = exp(-|x|), which is
    in (0, 1] and never overflows, so the numerator is 1 where x >= 0 and e
    elsewhere; a caller that has e already passes it.  With ``overwrite``,
    a caller done with the arrays x and e has 1 + e written over x and the
    result over e; otherwise the result is an array of its own."""
    if e is None:
        e = np.exp(-np.abs(x))
    mask = x >= 0
    den = np.add(e, 1.0, out=x if overwrite else None)
    num = np.maximum(e, mask, out=e if overwrite else None)
    return np.divide(num, den, out=num if overwrite else None)


def _softplus_e(x: np.ndarray, out: np.ndarray | None = None,
                e: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """softplus(x) = max(x, 0) + log1p(e) and e = exp(-|x|), from one exp.
    e also gives softplus's slope, ``_stable_sigmoid(x, e)``.  Written into
    ``out`` and ``e`` where the caller gives arrays of x's shape."""
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.log1p(e, out=out)
    out += np.maximum(x, 0.0)
    return out, e


def silu(x: Tensor) -> Tensor:
    x = Tensor._ensure(x)
    xd = x.data
    s = _stable_sigmoid(xd)
    return Tensor._from_op(
        xd * s, (x,), lambda g: (g * (s + xd * s * (1.0 - s)),))


def sigmoid(x: Tensor) -> Tensor:
    x = Tensor._ensure(x)
    s = _stable_sigmoid(x.data)
    return Tensor._from_op(s, (x,), lambda g: (g * s * (1.0 - s),))


def softplus(x: Tensor) -> Tensor:
    x = Tensor._ensure(x)
    out = _softplus_e(x.data)[0]
    # Backward reads only the output, which callers keep anyway (fusion's
    # scans keep delta): sigmoid(x) = 1 - exp(-softplus(x)), computed there.
    return Tensor._from_op(out, (x,), lambda g: (g * -np.expm1(-out),))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor._ensure(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    z = x.data - m
    ls = z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))
    p = np.exp(ls)
    return Tensor._from_op(
        ls, (x,), lambda g: (g - p * np.sum(g, axis=axis, keepdims=True),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the trailing axis, then scale and shift."""
    x, gamma, beta = map(Tensor._ensure, (x, gamma, beta))
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"trailing extent {d} of input {x.shape}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * istd
    gd = gamma.data

    def backward(g):
        gxhat = g * gd
        gx = istd * (gxhat
                     - np.mean(gxhat, axis=-1, keepdims=True)
                     - xhat * np.mean(gxhat * xhat, axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return gx, np.sum(g * xhat, axis=axes), np.sum(g, axis=axes)

    return Tensor._from_op(xhat * gd + beta.data, (x, gamma, beta), backward)


def depthwise_conv2d(x: Tensor, k: Tensor) -> Tensor:
    """Per-channel 2D correlation with zero 'same' padding.

    ``x`` is (..., H, W, C) and ``k`` is (C, kh, kw) with odd extents; there
    is no cross-channel mixing.
    """
    x, k = Tensor._ensure(x), Tensor._ensure(k)
    if k.ndim != 3:
        raise DimensionError(f"depthwise kernel must be (C, kh, kw), got {k.shape}")
    c, kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"depthwise kernel extents must be odd, got {kh}x{kw}")
    if x.ndim < 3 or x.shape[-1] != c:
        raise DimensionError(
            f"input {x.shape} does not carry {c} channels for kernel {k.shape}")
    ph, pw = kh // 2, kw // 2
    h, w = x.shape[-3], x.shape[-2]
    pad = [(0, 0)] * (x.ndim - 3) + [(ph, ph), (pw, pw), (0, 0)]
    xp = np.pad(x.data, pad)
    kd = k.data
    out = np.zeros_like(x.data)
    for dy in range(kh):
        for dx in range(kw):
            out += kd[:, dy, dx] * xp[..., dy:dy + h, dx:dx + w, :]

    def backward(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kd)
        spatial = tuple(range(g.ndim - 1))
        for dy in range(kh):
            for dx in range(kw):
                gxp[..., dy:dy + h, dx:dx + w, :] += kd[:, dy, dx] * g
                gk[:, dy, dx] = np.sum(
                    g * xp[..., dy:dy + h, dx:dx + w, :], axis=spatial)
        return gxp[..., ph:ph + h, pw:pw + w, :].copy(), gk

    return Tensor._from_op(out, (x, k), backward)


def _bilinear_weights(n_in: int, n_out: int) -> np.ndarray:
    """Interpolation matrix (n_out, n_in) with half-pixel-centered sampling."""
    w = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * n_in / n_out - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        frac = src - i0
        w[i, i0] += 1.0 - frac
        w[i, i1] += frac
    return w


def bilinear_resize(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Bilinear resampling of the two trailing axes."""
    x = Tensor._ensure(x)
    h, w = x.shape[-2], x.shape[-1]
    ho, wo = out_hw
    wh = _bilinear_weights(h, ho)
    ww = _bilinear_weights(w, wo)

    def backward(g):
        return (wh.T @ g @ ww,)

    return Tensor._from_op(wh @ x.data @ ww.T, (x,), backward)
