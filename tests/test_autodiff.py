import numpy as np
import pytest

from scanseg import autodiff as ad
from scanseg.autodiff import (Tensor, bilinear_resize, concat, depthwise_conv2d,
                              layer_norm, log_softmax, matmul, sigmoid, silu,
                              softplus, stack)
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

# The sigmoid under silu, sigmoid and softplus at its extremes: signed zeros
# and tiny values, exp overflow (709/710) and underflow (-745 is subnormal,
# -746 is 0) of the naive forms, infinities, nan.
SIGMOID_EXTREMES = np.array([0.0, -0.0, 1e-300, -1e-300, 709.0, 710.0, 800.0,
                             np.inf, -745.0, -746.0, -800.0, -np.inf, np.nan])


def test_silu_values():
    assert silu(Tensor(0.0)).item() == 0.0
    assert abs(silu(Tensor(1.0)).item() - 0.7310585786300049) < 1e-15
    expect = [0.5] * 4 + [1.0] * 4 + [np.exp(-745.0), 0.0, 0.0, 0.0, np.nan]
    assert np.array_equal(sigmoid(Tensor(SIGMOID_EXTREMES)).data, expect,
                          equal_nan=True)


def test_structural_inverses_bitwise():
    a = rand((3, 4), seed=15)
    b = rand((3, 4), seed=16)
    s = stack([Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)],
              axis=1)
    assert np.array_equal(s.data[:, 0], a)
    assert np.array_equal(s.data[:, 1], b)
    g = rand(s.shape, seed=17)
    back = s._backward_fn(g)
    assert all(np.array_equal(p, g[:, i]) for i, p in enumerate(back))
    assert all(np.shares_memory(p, g) for p in back)                # views
    t = Tensor(a)
    assert np.array_equal(t.flip(0).flip(0).data, a)
    assert np.array_equal(t.transpose((1, 0)).transpose((1, 0)).data, a)
    assert np.shares_memory(t.flip(0).data, a)                      # views
    assert np.shares_memory(t.transpose((1, 0)).data, a)


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


def test_backward_releases_non_leaf_grads_and_keeps_leaf_grads():
    # h feeds three consumers, so its gradient is a sum.  The leaf gradients
    # are pinned bitwise to the engine's values before non-leaf gradients
    # were released during the walk.
    x = Tensor(np.array([[0.5, -1.25, 2.0], [1.5, 0.25, -0.75]]),
               requires_grad=True)
    w = Tensor(np.array([[1.0, -0.5], [0.25, 2.0], [-1.5, 0.75]]),
               requires_grad=True)
    g = Tensor(np.array([1.0, 0.5]), requires_grad=True)
    h = silu(matmul(x, w))
    y = layer_norm(h, g, Tensor(np.zeros(2)))
    loss = (y * h + h).sum()
    loss.backward()
    assert h.grad is None and y.grad is None
    assert np.array_equal(loss.grad, 1.0)
    assert np.array_equal(x.grad, [
        [-0.1888740940170727, -0.04050283256026636, 0.28331114102560906],
        [2.159621625883325, 0.6826900548566989, -3.2394324388249878]])
    assert np.array_equal(w.grad, [
        [3.196180054887228, 0.10236932614155403],
        [0.7824219177372227, 0.012847787490101003],
        [-2.0195013731881444, -0.044073931483010385]])
    assert np.array_equal(g.grad, [2.356952832364775, 0.5280642160849296])


def _records_graph() -> bool:
    out = Tensor(np.ones(2), requires_grad=True) * 2.0
    return out.requires_grad and bool(out._parents)


def test_no_grad_records_nothing_and_restores_state():
    x = Tensor(rand((3,), seed=29), requires_grad=True)
    with ad.no_grad():
        out = silu(x * x).sum()
        with ad.no_grad():
            assert not _records_graph()
        assert not _records_graph()          # the inner exit keeps it off
    assert not out.requires_grad and out._parents == ()
    assert out._backward_fn is None and x.requires_grad
    assert _records_graph()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside the scope")
    assert _records_graph()


def test_backward_on_no_grad_scalar_is_a_no_op():
    x = Tensor(rand((3,), seed=30), requires_grad=True)
    with ad.no_grad():
        loss = (x * x).sum()
    loss.backward()
    assert np.array_equal(x.grad, np.zeros(3))


def _softplus_grad(xs):
    x = Tensor(xs, requires_grad=True)
    softplus(x).sum().backward()
    return x.grad


def test_softplus_sigmoid_only_in_backward(monkeypatch):
    # Forward does no sigmoid work: it calls neither _stable_sigmoid nor
    # expm1, which backward uses.
    calls = []
    real_sigmoid, real_expm1 = ad._stable_sigmoid, np.expm1
    monkeypatch.setattr(ad, "_stable_sigmoid",
                        lambda v: calls.append(v) or real_sigmoid(v))
    monkeypatch.setattr(np, "expm1", lambda v: calls.append(v) or real_expm1(v))
    x = Tensor(rand((4, 3), seed=31, lo=-40.0, hi=40.0), requires_grad=True)
    with ad.no_grad():
        plain = softplus(x).data
    y = softplus(x)
    assert calls == []
    # Bitwise against the one-exp form it computes; its 2-ulp bound against
    # np.logaddexp is test_softplus_one_exp_matches_logaddexp's.
    assert np.array_equal(plain, ad._softplus_e(x.data)[0])
    assert np.array_equal(y.data, plain)
    y.sum().backward()
    assert len(calls) == 1
    monkeypatch.undo()
    # The gradient, 1 - exp(-softplus(x)), is the sigmoid: bitwise at the
    # extremes, to rounding elsewhere.
    with np.errstate(invalid="ignore"):                 # logaddexp of nan
        grad = _softplus_grad(SIGMOID_EXTREMES)
    assert np.array_equal(grad, ad._stable_sigmoid(SIGMOID_EXTREMES),
                          equal_nan=True)
    xs = rand((20000,), seed=37, lo=-700.0, hi=700.0)
    s = ad._stable_sigmoid(xs)
    assert np.all(np.abs(_softplus_grad(xs) - s) <= 1e-15 * s)


def test_softplus_one_exp_matches_logaddexp():
    # One exp, e = exp(-|x|), gives softplus = max(x, 0) + log1p(e) within
    # 2 ulp of np.logaddexp(0, x), bitwise at the extremes, and the sigmoid
    # bitwise as _stable_sigmoid forms it on its own and as the textbook
    # where(x >= 0, 1, e) / (1 + e), also where both write into the
    # caller's arrays (the sigmoid over its own inputs).
    def written(v):
        out, e = np.empty_like(v), np.empty_like(v)
        got_out, got_e = ad._softplus_e(v, out, e)
        assert got_out is out and got_e is e
        s = ad._stable_sigmoid(v.copy(), e.copy(), overwrite=True)
        return out, e, s

    xs = np.concatenate([rand((20000,), seed=38, lo=-40.0, hi=40.0),
                         rand((20000,), seed=39, lo=-700.0, hi=700.0)])
    out, e = ad._softplus_e(xs)
    ref = np.logaddexp(0.0, xs)
    assert np.all(np.abs(out - ref) <= 2 * np.spacing(ref))
    assert np.array_equal(ad._stable_sigmoid(xs, e), ad._stable_sigmoid(xs))
    assert np.array_equal(ad._stable_sigmoid(xs),
                          np.where(xs >= 0, 1.0, e) / (1.0 + e))
    for u, v in zip(written(xs), (out, e, ad._stable_sigmoid(xs))):
        assert np.array_equal(u, v)
    with np.errstate(invalid="ignore"):
        out, e = ad._softplus_e(SIGMOID_EXTREMES)
        ref = np.logaddexp(0.0, SIGMOID_EXTREMES)
        got = written(SIGMOID_EXTREMES)
    assert np.array_equal(out, ref, equal_nan=True)
    assert np.array_equal(ad._stable_sigmoid(SIGMOID_EXTREMES, e),
                          ad._stable_sigmoid(SIGMOID_EXTREMES), equal_nan=True)
    assert np.array_equal(ad._stable_sigmoid(SIGMOID_EXTREMES),
                          np.where(SIGMOID_EXTREMES >= 0, 1.0, e) / (1.0 + e),
                          equal_nan=True)
    for u, v in zip(got, (out, e, ad._stable_sigmoid(SIGMOID_EXTREMES))):
        assert np.array_equal(u, v, equal_nan=True)


def test_softplus_frees_its_input_before_backward():
    # Backward reads only softplus's output, so its input is freed as soon
    # as the caller drops that tensor, while the loss still waits for
    # backward.
    import weakref
    x = Tensor(rand((3, 4), seed=35), requires_grad=True)
    w = Tensor(rand((4, 2), seed=36), requires_grad=True)
    h = matmul(x, w)
    freed = weakref.ref(h.data)
    s = ad._stable_sigmoid(h.data)
    loss = softplus(h).sum()
    del h
    assert freed() is None
    loss.backward()
    assert np.allclose(x.grad, s @ w.data.T, rtol=0, atol=1e-12)
    assert np.allclose(w.grad, x.data.T @ s, rtol=0, atol=1e-12)


def test_dropped_intermediate_freed_before_backward():
    # The add and the sum read only shapes, so the product's array is freed
    # as soon as the caller drops its tensor, while the loss still waits
    # for backward.
    import weakref
    x = Tensor(rand((3, 4), seed=32), requires_grad=True)
    w = Tensor(rand((4, 2), seed=33), requires_grad=True)
    b = Tensor(rand((2,), seed=34), requires_grad=True)
    h = matmul(x, w)
    freed = weakref.ref(h.data)
    loss = (h + b).sum()
    del h
    assert freed() is None
    loss.backward()
    assert np.allclose(x.grad, np.ones((3, 2)) @ w.data.T, rtol=0, atol=1e-12)
    assert np.allclose(w.grad, x.data.T @ np.ones((3, 2)), rtol=0, atol=1e-12)
    assert np.array_equal(b.grad, [3.0, 3.0])


def _node_count(root) -> int:
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def test_parent_links_reach_every_operand():
    # Benchmark traces count graph nodes by walking ``_parents``: the root
    # plus one node per distinct operand, constants included.  Here: x, w,
    # g, the zero shift, matmul, silu, layer_norm, stack, flip, the first
    # mul, 2.0, the second mul, 1.0, sub and sum, 15 in all.
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    g = Tensor(np.ones(2), requires_grad=True)
    h = silu(matmul(x, w))
    s = stack([layer_norm(h, g, Tensor(np.zeros(2))), h], axis=0)
    assert _node_count((s.flip(0) * s * 2.0 - 1.0).sum()) == 15


def test_assigned_backward_fn_is_the_one_backward_runs():
    # Timing wrappers and the gradcheck negative control replace an
    # output's closure after the op has recorded it.
    x = Tensor(rand((4,), seed=35), requires_grad=True)
    y = silu(x)
    orig = y._backward_fn
    y._backward_fn = lambda g: tuple(-gg for gg in orig(g))
    assert y._backward_fn is not orig
    y.sum().backward()
    s = 1.0 / (1.0 + np.exp(-x.data))
    assert np.allclose(x.grad, -(s + x.data * s * (1.0 - s)), rtol=0,
                       atol=1e-12)


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
