import numpy as np
import pytest

from scanseg import autodiff as ad
from scanseg.autodiff import (Tensor, bilinear_resize, concat, depthwise_conv2d,
                              layer_norm, log_softmax, matmul, sigmoid, silu,
                              softplus, split, stack)
from scanseg.errors import ConfigError, DimensionError, GraphError
from scanseg.gradcheck import check
from scanseg.rng import SplitMix64


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = rand((3, 3), seed=1)
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both():
    with pytest.raises(DimensionError) as e:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_matmul_grad_of_sum_is_rowsums_of_b():
    a = rand((3, 4), seed=2)
    b = rand((4, 5), seed=3)
    ta = Tensor(a, requires_grad=True)
    loss = matmul(ta, Tensor(b)).sum()
    loss.backward()
    expect = np.broadcast_to(b.sum(axis=1), (3, 4))
    assert np.allclose(ta.grad, expect, rtol=0, atol=1e-12)
    res = check("matmul-sum", lambda ts: matmul(ts[0], ts[1]).sum(),
                [a, b], step=1e-6)
    assert res.passed, res.line()


def test_matmul_broadcast_batched():
    a = rand((4, 2, 3, 5), seed=4)
    w = rand((4, 1, 5, 2), seed=5)
    out = matmul(Tensor(a), Tensor(w))
    assert out.shape == (4, 2, 3, 2)
    res = check("matmul-batched",
                lambda ts: (matmul(ts[0], ts[1]) * Tensor(rand((4, 2, 3, 2), 6))).sum(),
                [a, w])
    assert res.passed, res.line()


# ---------------------------------------------------------------- depthwise conv

def test_depthwise_identity_kernel():
    x = rand((5, 5, 2), seed=7)
    k = np.zeros((2, 3, 3))
    k[:, 1, 1] = 1.0
    out = depthwise_conv2d(Tensor(x), Tensor(k))
    assert np.array_equal(out.data, x)


def test_depthwise_ones_on_single_pixel():
    out = depthwise_conv2d(Tensor(np.full((1, 1, 1), 0.7)),
                           Tensor(np.ones((1, 3, 3))))
    assert np.allclose(out.data, 0.7)


def test_depthwise_tap_counts():
    out = depthwise_conv2d(Tensor(np.ones((3, 3, 1))), Tensor(np.ones((1, 3, 3))))
    assert out.data[1, 1, 0] == 9.0
    assert out.data[0, 0, 0] == 4.0
    assert out.data[0, 2, 0] == 4.0
    assert out.data[2, 0, 0] == 4.0
    assert out.data[2, 2, 0] == 4.0
    assert out.data[0, 1, 0] == 6.0


def test_depthwise_even_kernel_rejected():
    with pytest.raises(ConfigError):
        depthwise_conv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((1, 2, 2))))


def test_depthwise_gradients():
    x = rand((4, 5, 2), seed=8)
    k = rand((2, 3, 3), seed=9, lo=-0.5, hi=0.5)
    r = rand((4, 5, 2), seed=10)
    res = check("dwconv",
                lambda ts: (depthwise_conv2d(ts[0], ts[1]) * Tensor(r)).sum(),
                [x, k])
    assert res.passed, res.line()


# ---------------------------------------------------------------- layer norm

def test_layer_norm_constant_input_zeros():
    out = layer_norm(Tensor(np.full((4,), 3.3)), Tensor(np.ones(4)),
                     Tensor(np.zeros(4)), eps=1e-6)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point():
    out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)), eps=1e-300)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-12)


def test_layer_norm_beta_shift():
    out = layer_norm(Tensor(np.full((3, 5), 2.0)), Tensor(np.ones(5)),
                     Tensor(np.full(5, 0.25)), eps=1e-6)
    assert np.allclose(out.data, 0.25)


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_layer_norm_gradients():
    x = rand((3, 6), seed=11)
    g = rand((6,), seed=12, lo=0.5, hi=1.5)
    b = rand((6,), seed=13, lo=-0.5, hi=0.5)
    r = rand((3, 6), seed=14)
    res = check("layer_norm",
                lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * Tensor(r)).sum(),
                [x, g, b])
    assert res.passed, res.line()


# ---------------------------------------------------------------- activations

def test_silu_values():
    assert silu(Tensor(0.0)).item() == 0.0
    assert abs(silu(Tensor(1.0)).item() - 0.7310585786300049) < 1e-15


def test_structural_inverses_bitwise():
    a = rand((3, 4), seed=15)
    b = rand((2, 4), seed=16)
    ta, tb = Tensor(a), Tensor(b)
    back = split(concat([ta, tb], axis=0), [3, 2], axis=0)
    assert np.array_equal(back[0].data, a)
    assert np.array_equal(back[1].data, b)
    t = Tensor(a)
    assert np.array_equal(t.flip(0).flip(0).data, a)
    assert np.array_equal(t.transpose((1, 0)).transpose((1, 0)).data, a)


def test_flip_axis_out_of_range():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2))).flip(5)


# ---------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = Tensor(rand((3, 2), seed=19), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 2)))


def test_backward_square():
    data = rand((4,), seed=20)
    x = Tensor(data, requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2 * data, atol=1e-12)
    res = check("square", lambda ts: (ts[0] * ts[0]).sum(), [data])
    assert res.passed, res.line()


def test_backward_composite_chain():
    x = rand((4, 6), seed=21)
    g = rand((6,), seed=22, lo=0.5, hi=1.5)
    b = rand((6,), seed=23, lo=-0.5, hi=0.5)
    w = rand((6, 3), seed=24)

    def build(ts):
        return matmul(silu(layer_norm(ts[0], ts[1], ts[2])), ts[3]).sum()

    res = check("ln-silu-matmul", build, [x, g, b, w], step=1e-5)
    assert res.passed, res.line()


def test_backward_requires_scalar():
    x = Tensor(rand((2, 2), seed=25), requires_grad=True)
    with pytest.raises(GraphError):
        (x * 2.0).backward()


def test_double_backward_raises():
    x = Tensor(rand((3,), seed=26), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_grad_accumulates_across_consumers():
    x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    y = x * 2.0
    loss = (y + x * 3.0).sum()
    loss.backward()
    assert np.allclose(x.grad, [5.0, 5.0])


def test_forward_deterministic():
    x = rand((5, 5), seed=27)
    w = rand((5, 5), seed=28)
    a = matmul(silu(Tensor(x)), Tensor(w)).data
    b = matmul(silu(Tensor(x)), Tensor(w)).data
    assert np.array_equal(a, b)


# ------------------------------------------------- full per-op gradient sweep

OP_CASES = [
    ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)]),
    ("add-broadcast", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (4,)]),
    ("sub", lambda ts: (ts[0] - ts[1]).sum(), [(2, 5), (2, 5)]),
    ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(3, 4), (3, 4)]),
    ("div", lambda ts: (ts[0] / (ts[1] * ts[1] + 1.0)).sum(), [(3, 3), (3, 3)]),
    ("neg", lambda ts: (-ts[0] * ts[0]).sum(), [(4,)]),
    ("exp", lambda ts: ts[0].exp().sum(), [(3, 3)]),
    ("log", lambda ts: (ts[0] * ts[0] + 1.0).log().sum(), [(3, 3)]),
    ("sigmoid", lambda ts: (sigmoid(ts[0]) * ts[0]).sum(), [(4, 2)]),
    ("silu", lambda ts: silu(ts[0]).sum(), [(4, 3)]),
    ("softplus", lambda ts: softplus(ts[0]).sum(), [(4, 3)]),
    ("log_softmax", lambda ts: (log_softmax(ts[0], axis=-1) * ts[0]).sum(), [(3, 5)]),
    ("mean", lambda ts: (ts[0].mean(axis=1) * ts[0].mean()).sum(), [(3, 4)]),
    ("sum-axis", lambda ts: (ts[0].sum(axis=0, keepdims=True) * ts[0]).sum(), [(3, 4)]),
    ("reshape", lambda ts: (ts[0].reshape(6, 2) * ts[0].reshape(6, 2)).sum(), [(3, 4)]),
    ("transpose", lambda ts: (ts[0].transpose((1, 0)) * ts[0].transpose((1, 0))).sum(), [(3, 4)]),
    ("flip", lambda ts: (ts[0].flip(1) * ts[0]).sum(), [(3, 4)]),
    ("concat", lambda ts: (concat([ts[0], ts[1]], axis=1)
                           * concat([ts[1], ts[0]], axis=1)).sum(), [(2, 3), (2, 3)]),
    ("split", lambda ts: (split(ts[0], [2, 2], axis=0)[0]
                          * split(ts[0], [2, 2], axis=0)[1]).sum(), [(4, 3)]),
    ("stack", lambda ts: (stack([ts[0], ts[1]], axis=0)
                          * stack([ts[1], ts[0]], axis=0)).sum(), [(2, 2), (2, 2)]),
    ("bilinear", lambda ts: (bilinear_resize(ts[0], (5, 7))
                             * bilinear_resize(ts[0], (5, 7))).sum(), [(2, 3, 4)]),
]


@pytest.mark.parametrize("name,build,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients(name, build, shapes):
    arrays = [rand(s, seed=100 + i * 7 + len(name)) for i, s in enumerate(shapes)]
    res = check(name, build, arrays)
    assert res.passed, res.line()


def test_bilinear_2x2_to_4x4_hand_values():
    # Half-pixel-centered sampling: out[i] samples src (i+0.5)/2 - 0.5 in
    # {-0.25, 0.25, 0.75, 1.25} -> clamped weights {(1,0),(3/4,1/4),(1/4,3/4),(0,1)}.
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    out = bilinear_resize(Tensor(x), (4, 4)).data[0]
    row = np.array([1.0, 1.25, 1.75, 2.0])
    expect = np.stack([row, row + 0.5, row + 1.5, row + 2.0])
    assert np.allclose(out, expect, atol=1e-12)
