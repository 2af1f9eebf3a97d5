import math

import numpy as np
import pytest

from scanseg.autodiff import Tensor, _softplus_e
from scanseg.errors import DimensionError, DomainError
from scanseg.gradcheck import check
from scanseg.rng import SplitMix64
from scanseg.scan import (BLOCK, SSMParams, discretize, project,
                          scan_inputs, scan_sequential, selective_scan)


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


def random_op_case(seed, L, N, D):
    """Seeded (x, A, B, C, delta) with stable a_bar and bounded magnitudes."""
    r = SplitMix64(seed)
    x = -2.0 + 4.0 * r.uniform_array((L, D))
    a = -0.05 - 2.0 * r.uniform_array((D, N))
    b = -1.0 + 2.0 * r.uniform_array((L, N))
    delta = 0.01 + r.uniform_array((L, D))
    c = -1.0 + 2.0 * r.uniform_array((L, N))
    return x, a, b, c, delta


def random_scan_case(seed, L, N, D):
    """The same case discretized for the array oracle: (x, a_bar, b_bar, C)."""
    x, a, b, c, delta = random_op_case(seed, L, N, D)
    return (x, *discretize(a, b, delta), c)


def shared(x, a, b, c, delta):
    """The op's arguments for one scan's (x, A, B, C, delta), with way axes
    of extent 1, which both ways share: at -3 of x, of B, C and delta and
    of each projection array, at -4 of A (after L's, for a (D, N) A)."""
    def way(v):
        if isinstance(v, tuple):
            return tuple(map(way, v))
        return np.expand_dims(v, -3)

    a = np.expand_dims(a.reshape((1,) * (3 - a.ndim) + a.shape), -4)
    return (way(x), a) + tuple(map(way, (b, c, delta)))


def flip_l(v):
    return np.flip(v, -2)


def front_plus_back(oracle, x, a, b, c, delta):
    """Both ways' y by ``oracle``, which takes one scan's (x, A, B, C,
    delta) arrays: the oracle on them plus the oracle on them flipped
    along L (axis -3 of an A of rank 3 or more), flipped back."""
    back_a = np.flip(a, -3) if a.ndim >= 3 else a
    back = oracle(flip_l(x), back_a, *map(flip_l, (b, c, delta)))
    return oracle(x, a, b, c, delta) + flip_l(back)


# ---------------------------------------------------------------- params

def test_params_invariants():
    p = SSMParams(channels=3, state=4, rng=SplitMix64(1))
    a = scan_inputs(Tensor(np.zeros((1, 1, 3))), [p])[0]
    assert a.shape == (1, 1, 3, 4)
    a = a.data[0, 0]
    assert np.all(a < 0)
    assert np.allclose(a, -np.tile(np.arange(1, 5.0), (3, 1)))
    dt0 = np.logaddexp(0.0, p.delta_bias.data)
    assert np.all(dt0 >= 1e-3) and np.all(dt0 <= 1e-1)


# ---------------------------------------------------------------- input params

def test_input_params_zero_projection_constant_delta():
    p = SSMParams(channels=3, state=2, rng=SplitMix64(2))
    p.w_delta.data[:] = 0.0
    x = Tensor(rand((1, 5, 3), seed=3))
    delta = project(x, scan_inputs(x, [p])[3])
    expect = np.logaddexp(0.0, p.delta_bias.data)
    assert np.allclose(delta.data, np.broadcast_to(expect, (1, 5, 3)),
                       atol=1e-15)


def test_input_params_zero_input():
    p = SSMParams(channels=3, state=2, rng=SplitMix64(4))
    x = Tensor(np.zeros((1, 4, 3)))
    _, *projs = scan_inputs(x, [p])
    b, c, delta = (project(x, q) for q in projs)
    assert np.array_equal(b.data, np.zeros((1, 4, 2)))
    assert np.array_equal(c.data, np.zeros((1, 4, 2)))
    assert np.all(delta.data > 0)


def test_input_params_match_hand_projection():
    p = SSMParams(channels=3, state=2, rng=SplitMix64(5))
    x = rand((6, 3), seed=6)
    _, *projs = scan_inputs(Tensor(x[None]), [p])
    b, c, delta = (project(Tensor(x[None]), q) for q in projs)
    assert np.array_equal(b.data[0], x @ p.w_B.data)
    assert np.array_equal(c.data[0], x @ p.w_C.data)
    assert np.array_equal(delta.data[0],
                          _softplus_e(x @ p.w_delta.data + p.delta_bias.data)[0])


def test_scan_inputs_match_per_set_projections():
    # K = 2 distinct parameter sets, a leading batch axis and a separate
    # C source: each set's slice is its own plain projection, bitwise.  C
    # comes as an array, B and delta as projections of the sequences, and
    # A at the rank of the (..., L, D, N) maps it broadcasts to.
    ps = [SSMParams(channels=3, state=2, rng=SplitMix64(s)) for s in (50, 51)]
    seqs = rand((2, 2, 5, 3), seed=52)
    c_seqs = rand((2, 2, 5, 3), seed=53)
    a, b_proj, c, delta_proj = scan_inputs(Tensor(seqs), ps, Tensor(c_seqs))
    assert isinstance(c, Tensor) and len(b_proj) == 1 and len(delta_proj) == 2
    b, delta = (project(Tensor(seqs), q) for q in (b_proj, delta_proj))
    assert a.shape == (1, 2, 1, 3, 2)
    assert b.shape == c.shape == (2, 2, 5, 2) and delta.shape == seqs.shape
    for k, p in enumerate(ps):
        x = seqs[:, k]
        assert np.array_equal(a.data[0, k, 0], -np.exp(p.a_log.data))
        assert np.array_equal(b.data[:, k], x @ p.w_B.data)
        assert np.array_equal(c.data[:, k], c_seqs[:, k] @ p.w_C.data)
        assert np.array_equal(
            delta.data[:, k],
            _softplus_e(x @ p.w_delta.data + p.delta_bias.data)[0])


def test_input_params_channel_mismatch():
    p = SSMParams(channels=3, state=2, rng=SplitMix64(7))
    with pytest.raises(DimensionError):
        scan_inputs(Tensor(np.zeros((1, 4, 5))), [p])


# ---------------------------------------------------------------- discretization

def test_discretize_zero_delta_boundary():
    # Zero is the domain's limit: the state holds.
    a = rand((2, 3), seed=8, lo=-2.0, hi=-0.1)
    b = rand((4, 3), seed=9)
    a_bar, b_bar = discretize(a, b, np.zeros((4, 2)))
    assert np.allclose(a_bar, 1.0, atol=1e-12)
    assert np.allclose(b_bar, 0.0, atol=1e-12)


def test_discretize_closed_form_half():
    a_bar, _ = discretize(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[math.log(2.0)]]))
    assert abs(a_bar[0, 0, 0] - 0.5) < 1e-15


def test_discretize_first_order_b():
    _, b_bar = discretize(np.array([[-1.0]]), np.array([[3.0]]),
                          np.array([[1.0]]))
    assert b_bar[0, 0, 0] == 3.0


def test_discretize_rejects_negative_delta():
    with pytest.raises(DomainError):
        discretize(np.array([[-1.0]]), np.array([[1.0]]), np.array([[-0.5]]))
    with pytest.raises(DomainError):
        selective_scan(*map(Tensor, shared(
            np.ones((1, 1)), -np.ones((1, 1)), np.ones((1, 1)),
            np.ones((1, 1)), np.full((1, 1), -0.5))))


def test_discretize_stability_range():
    a = rand((3, 4), seed=10, lo=-3.0, hi=-0.01)
    b = rand((6, 4), seed=11)
    delta = rand((6, 3), seed=12, lo=1e-4, hi=2.0)
    a_bar, b_bar = discretize(a, b, delta)
    assert np.all(a_bar > 0) and np.all(a_bar <= 1.0)
    assert np.allclose(b_bar, delta[:, :, None] * b[:, None, :])


# ---------------------------------------------------------------- sequential oracle

def test_scan_single_step_formula():
    x, a_bar, b_bar, c = random_scan_case(13, L=1, N=3, D=2)
    y = scan_sequential(x, a_bar, b_bar, c)
    expect = np.einsum("n,dn,d->d", c[0], b_bar[0], x[0])
    assert np.allclose(y[0], expect, atol=1e-14)


def test_scan_zero_input():
    x, a_bar, b_bar, c = random_scan_case(14, L=5, N=2, D=3)
    y = scan_sequential(np.zeros_like(x), a_bar, b_bar, c)
    assert np.array_equal(y, np.zeros_like(x))


def test_scan_golden_hand_unrolled_table():
    # Fixed case L=4, N=2, D=1, unrolled by hand; table committed below.
    a = np.array([[-1.0, -0.5]])
    delta = np.array([[0.5], [1.0], [0.25], [2.0]])
    b = np.array([[1.0, 0.0], [0.5, 1.0], [1.0, 1.0], [0.0, 2.0]])
    c = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    x = np.array([[1.0], [-1.0], [2.0], [0.5]])
    golden = np.array([[0.5],
                       [-0.6321205588285577],
                       [-0.38249690258459546],
                       [-1.8249321199741362]])
    y = scan_sequential(x, *discretize(a, b, delta), c)
    assert np.allclose(y, golden, rtol=0, atol=1e-15)

    # Independent scalar re-derivation of the same table.
    h = [0.0, 0.0]
    for k in range(4):
        for n in range(2):
            h[n] = math.exp(delta[k, 0] * a[0, n]) * h[n] + delta[k, 0] * b[k, n] * x[k, 0]
        assert abs(c[k, 0] * h[0] + c[k, 1] * h[1] - golden[k, 0]) < 1e-15


# ---------------------------------------------------------------- adjoint

def test_zero_c_kills_state_path_gradients():
    x, a, b, c, delta = shared(*random_op_case(24, L=5, N=2, D=2))
    xt = Tensor(x, requires_grad=True)
    at = Tensor(a, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    dt = Tensor(delta, requires_grad=True)
    ct = Tensor(np.zeros_like(c), requires_grad=True)
    y = selective_scan(xt, at, bt, ct, dt)
    y.sum().backward()
    assert np.array_equal(at.grad, np.zeros_like(at.data))
    assert np.array_equal(bt.grad, np.zeros_like(bt.data))
    assert np.array_equal(dt.grad, np.zeros_like(dt.data))
    assert np.array_equal(xt.grad, np.zeros_like(xt.data))


def test_scan_finite_difference_sweep():
    L, N, D = 8, 4, 2
    r = SplitMix64(25)
    x = -1.0 + 2.0 * r.uniform_array((1, L, D))
    a = -0.1 - 1.5 * r.uniform_array((1, 1, D, N))
    b = -1.0 + 2.0 * r.uniform_array((1, L, N))
    delta_raw = -1.0 + 2.0 * r.uniform_array((1, L, D))
    r.uniform_array((D,))   # drawn so that ``weight`` keeps its values
    weight = -1.0 + 2.0 * r.uniform_array((L, D))

    def build(ts):
        xx, aa, bb, dd = ts
        from scanseg.autodiff import softplus
        # C tied to b keeps the case small while exercising the C gradient.
        y = selective_scan(xx, aa, bb, bb * 1.5, softplus(dd))
        return (y * Tensor(weight)).sum()

    res = check("selective-scan", build, [x, a, b, delta_raw], step=1e-5)
    assert res.passed, res.line()


def test_scan_gradcheck_via_input_params():
    L, N, D = 6, 3, 2
    p = SSMParams(channels=D, state=N, rng=SplitMix64(26))
    x = rand((1, L, D), seed=27, lo=-1.0, hi=1.0)
    weight = rand((1, L, D), seed=28)

    def build(ts):
        y = selective_scan(ts[0], *scan_inputs(ts[0], [p]))
        return (y * Tensor(weight)).sum()

    res = check("scan-input-grad", build, [x], step=1e-5)
    assert res.passed, res.line()


def test_zero_delta_holds_state_negative_delta_rejected():
    # Zero is softplus's underflow limit: a_bar = 1 and b_bar = 0, so the
    # state holds.  Only a negative delta is outside the domain.
    x, a, b, c, delta = shared(*random_op_case(33, L=9, N=3, D=2))
    delta[0, :, 0] = 0.0
    ts = [Tensor(v, requires_grad=True) for v in (x, a, b, c, delta)]
    y = selective_scan(*ts)
    assert np.array_equal(y.data[0, :, 0], np.zeros(9))
    y.sum().backward()
    assert all(np.all(np.isfinite(t.grad)) for t in ts)
    delta[0, 4, 1] = -1e-300
    with pytest.raises(DomainError):
        selective_scan(x, a, b, c, delta)


def test_selective_scan_rejects_shape_mismatch():
    # Every argument has its way axis, so each case fails on the named
    # extent alone: the same call with delta and C projected runs.
    x, a, b, c, delta = shared(*random_op_case(34, L=4, N=2, D=3))
    selective_scan(x, a, b, (np.zeros((1, 3, 2)),),
                   (np.zeros((1, 3, 3)), np.zeros((1, 1, 3))))
    bad = [
        (x, a, b, c, delta[..., :2]),                # delta D differs from x
        (x, np.zeros((1, 1, 3, 3)), b, c, delta),    # A's N differs from B's
        (x, a, b, c[:, :3], delta),                  # C's L differs
        (x, a, np.stack([b, b]), c, delta),          # B has its own lead dim
        (x, a, b, c, (np.zeros((1, 3, 2)),
                      np.zeros((1, 1, 3)))),          # w not (D, D)
        (x, a, b, c, (np.zeros((1, 3, 3)), np.zeros((1, 1, 2)))),  # bias not D
        (x, a, b, c, (np.zeros((2, 1, 3, 3)),
                      np.zeros((1, 1, 3)))),          # w adds a dim
        (x, a, (np.zeros((1, 2, 2)),), c, delta),    # B's w is not (D, N)
        (x, a, b, (np.zeros((1, 3, 3)),), delta),    # C's w gives N = 3
        (x, a, b, (np.zeros((1, 3, 2)), np.zeros((1, 1, 2))),
         delta),                                      # C biased
    ]
    for args in bad:
        with pytest.raises(DimensionError):
            selective_scan(*args)


def _op_oracle(x, a, b, c, delta):
    """scan_sequential on discretize inputs; ``a`` is (D, N) or a
    per-position (L, D, N), which is discretized as L length-1 sequences."""
    if a.ndim == 2:
        a_bar, b_bar = discretize(a, b, delta)
    else:
        a_bar, b_bar = discretize(a, b[..., None, :], delta[..., None, :])
        a_bar, b_bar = a_bar[..., 0, :, :], b_bar[..., 0, :, :]
    return scan_sequential(x, a_bar, b_bar, c)


def test_selective_scan_oracle_sweep():
    # L from 1 to 200, each crossed with leading dims and a shared or
    # per-position A.
    r = SplitMix64(35)
    worst, case = 0.0, 0
    for L in (1, 13, 64, 65, 100, 200):
        for lead in ((), (3,), (2, 2)):
            for per_position in (False, True):
                N, D = r.randint(1, 6), r.randint(1, 5)
                rr = SplitMix64(3500 + case)
                x = -2.0 + 4.0 * rr.uniform_array(lead + (L, D))
                a = -0.05 - 2.0 * rr.uniform_array(
                    ((L,) if per_position else ()) + (D, N))
                b = -1.0 + 2.0 * rr.uniform_array(lead + (L, N))
                delta = 0.01 + rr.uniform_array(lead + (L, D))
                c = -1.0 + 2.0 * rr.uniform_array(lead + (L, N))
                y = selective_scan(*shared(x, a, b, c, delta)).data
                y = y[..., 0, :, :]
                y_ref = front_plus_back(_op_oracle, x, a, b, c, delta)
                rel = np.max(np.abs(y - y_ref) / (np.abs(y_ref) + 1e-12))
                worst = max(worst, rel)
                case += 1
    assert worst <= 1e-10, worst


def test_selective_scan_projected_delta_matches_oracle():
    # K = 2 (w, bias) pairs, a batch axis and three blocks (two full, one
    # partial): the op's own delta = softplus(x @ w + bias) gives both
    # ways' array oracle's y, and the same y, bitwise, as that delta passed
    # in, formed with the op's softplus.
    lead, k, length, d, n = (3,), 2, 2 * BLOCK + 19, 4, 3
    r = SplitMix64(36)
    x = -2.0 + 4.0 * r.uniform_array(lead + (k, length, d))
    a = -0.05 - 2.0 * r.uniform_array((k, 1, d, n))
    b = -1.0 + 2.0 * r.uniform_array(lead + (k, length, n))
    c = -1.0 + 2.0 * r.uniform_array(lead + (k, length, n))
    w = (-1.0 + 2.0 * r.uniform_array((k, d, d))) / np.sqrt(d)
    bias = -4.0 + 3.0 * r.uniform_array((k, 1, d))
    delta = _softplus_e(x @ w + bias)[0]
    y = selective_scan(*shared(x, a, b, c, (w, bias))).data
    assert np.array_equal(y, selective_scan(*shared(x, a, b, c, delta)).data)
    y = y[..., 0, :, :]
    y_ref = front_plus_back(lambda x, a, b, c, delta: scan_sequential(
        x, *discretize(a[:, 0], b, delta), c), x, a, b, c, delta)
    # Relative to the largest |y|: entry by entry, y near 0 reads ~1e-12.
    rel = np.max(np.abs(y - y_ref)) / np.max(np.abs(y_ref))
    assert rel <= 1e-12, rel


def test_selective_scan_projected_bc_matches_oracle():
    # SS2D's call, with both ways sharing each set: K = 2 sets of (w_B,
    # w_C, w_delta, delta_bias), a batch axis and three blocks.  The op's
    # own B = x @ w_B and C = x @ w_C give both ways' array oracle's y, and
    # the same y, bitwise, as those B and C passed in, with A at the rank
    # of the maps it broadcasts to.
    lead, k, length, d, n = (3,), 2, 2 * BLOCK + 19, 4, 3
    r = SplitMix64(38)
    x = -2.0 + 4.0 * r.uniform_array(lead + (k, length, d))
    a = -0.05 - 2.0 * r.uniform_array((1, k, 1, d, n))
    w_b, w_c = ((-1.0 + 2.0 * r.uniform_array((k, d, n))) / np.sqrt(d)
                for _ in range(2))
    w = (-1.0 + 2.0 * r.uniform_array((k, d, d))) / np.sqrt(d)
    bias = -4.0 + 3.0 * r.uniform_array((k, 1, d))
    b, c, delta = x @ w_b, x @ w_c, np.logaddexp(0.0, x @ w + bias)
    y = selective_scan(*shared(x, a, (w_b,), (w_c,), (w, bias))).data
    assert np.array_equal(
        y, selective_scan(*shared(x, a, b, c, (w, bias))).data)
    y = y[..., 0, :, :]
    y_ref = front_plus_back(lambda x, a, b, c, delta: scan_sequential(
        x, *discretize(a[0, :, 0], b, delta), c), x, a, b, c, delta)
    rel = np.max(np.abs(y - y_ref)) / np.max(np.abs(y_ref))
    assert rel <= 1e-12, rel


def _two_way_case(source, seed):
    """x and each way's (A, B, C, delta) at batch 3 over three blocks (two
    full, one partial), without way axes.  ``given``: arrays and
    an A per position, (L, D, N), as fusion's.  ``proj``: K = 2 sequences,
    the projections (w_B,), (w_C,) and (w_delta, delta_bias) and one A per
    sequence at rank x.ndim + 1, as SS2D's.  The two ways' values differ,
    except in ``shared``, ``proj``'s arguments used by both ways."""
    length, d, n = 2 * BLOCK + 19, 4, 3
    r = SplitMix64(seed)

    def u(shape, lo=-1.0, hi=1.0):
        return lo + (hi - lo) * r.uniform_array(shape)

    if source == "given":
        x = u((3, length, d), -2.0, 2.0)
        ways = [(u((length, d, n), -2.05, -0.05), u((3, length, n)),
                 u((3, length, n)), u((3, length, d), 0.01, 1.01))
                for _ in range(2)]
    else:
        x = u((3, 2, length, d), -2.0, 2.0)
        ways = [(u((1, 2, 1, d, n), -2.05, -0.05),
                 (u((2, d, n)) / np.sqrt(d),), (u((2, d, n)) / np.sqrt(d),),
                 (u((2, d, d)) / np.sqrt(d), u((2, 1, d), -4.0, -1.0)))
                for _ in range(2)]
        if source == "shared":
            ways[1] = ways[0]
    return x, ways


def _on_way_axis(x, front, back):
    """The op's arguments: x with a way axis of extent 1, and
    each argument's two ways on its way axis, or one where they share it."""
    def join(u, v, axis):
        if u is v:
            return np.expand_dims(u, axis)
        return np.stack([u, v], axis)

    args = [join(front[0], back[0], -4)]
    for u, v in zip(front[1:], back[1:]):
        if isinstance(u, tuple):
            args.append(tuple(join(p, q, -3) for p, q in zip(u, v)))
        else:
            args.append(join(u, v, -3))
    return np.expand_dims(x, -3), args


def _flipped(source, a, b, c, delta):
    """A way's arguments for a scan over x flipped along L."""
    if source != "given":
        return a, b, c, delta
    return (np.flip(a, 0),) + tuple(np.flip(v, -2) for v in (b, c, delta))


def _tensors(v):
    """v as Tensors that take a gradient, a projection's arrays each."""
    if isinstance(v, tuple):
        return tuple(Tensor(w, requires_grad=True) for w in v)
    return Tensor(v, requires_grad=True)


def _grads(v):
    return [t.grad for t in (v if isinstance(v, tuple) else (v,))]


@pytest.mark.parametrize("source", ["given", "proj", "shared"])
def test_selective_scan_back_way_matches_flipped_call(source):
    # The back way is the front way of the call over x flipped along L with
    # the two ways' arguments swapped, given arrays flipped along L too:
    # that call returns y flipped, and x's and every argument's gradient
    # come back flipped along L where they have it, with their ways
    # swapped, bitwise.
    x, (front, back) = _two_way_case(source, 39)
    probe = SplitMix64(40).uniform_array(x.shape)

    def run(x, front, back, probe):
        """y and the gradients of x and of each argument's arrays."""
        xw, args = _on_way_axis(x, front, back)
        xt = Tensor(xw, requires_grad=True)
        ts = [_tensors(v) for v in args]
        y = selective_scan(xt, *ts)
        assert y.shape == xw.shape
        (y * Tensor(probe[..., None, :, :])).sum().backward()
        return y.data, xt.grad, [_grads(t) for t in ts]

    y, gx, grads = run(x, front, back, probe)
    y_f, gx_f, grads_f = run(flip_l(x), _flipped(source, *back),
                             _flipped(source, *front), flip_l(probe))
    assert np.array_equal(y_f, flip_l(y))
    assert np.array_equal(gx_f, flip_l(gx))
    for i, (got, want) in enumerate(zip(grads_f, grads)):
        way, pos = (-4, -3) if i == 0 else (-3, -2)
        for g_f, g in zip(got, want):
            g = np.flip(g, way)
            if source == "given":
                g = np.flip(g, pos)
            assert np.array_equal(g_f, g), (source, i)


@pytest.mark.parametrize("source", ["given", "proj"])
def test_selective_scan_back_way_matches_oracle(source):
    # y = the front scan plus the back scan, read back to front and put
    # back in position order, each through discretize + scan_sequential.
    x, ways = _two_way_case(source, 41)

    def arrays(a, b, c, delta, seqs):
        if source == "given":
            return a, b, c, delta
        (w_b,), (w_c,), (w, bias) = b, c, delta
        return (a[0, :, 0], seqs @ w_b, seqs @ w_c,
                np.logaddexp(0.0, seqs @ w + bias))

    def oracle(seqs, a, b, c, delta):
        if a.ndim == 3 and a.shape[0] == seqs.shape[-2]:
            return _op_oracle(seqs, a, b, c, delta)
        return scan_sequential(seqs, *discretize(a, b, delta), c)

    xw, args = _on_way_axis(x, *ways)
    y = selective_scan(xw, *args).data[..., 0, :, :]
    a, b, c, delta = arrays(*ways[1], x)
    if source == "given":
        a = np.flip(a, 0)
    y_back = oracle(np.flip(x, -2), a,
                    *(np.flip(v, -2) for v in (b, c, delta)))
    y_ref = oracle(x, *arrays(*ways[0], x)) + np.flip(y_back, -2)
    rel = np.max(np.abs(y - y_ref)) / np.max(np.abs(y_ref))
    assert rel <= 1e-12, rel


def test_selective_scan_rejects_malformed_ways():
    x, ways = _two_way_case("proj", 42)
    xw, (a, b, c, delta) = _on_way_axis(x, *ways)
    (w_b,), (w, bias) = b, delta
    xg, ways = _two_way_case("given", 43)
    xg, given = _on_way_axis(xg, *ways)

    def three(v, axis):
        """v with a third way on its way axis."""
        return np.concatenate([v, np.take(v, [0], axis)], axis)

    bad = [
        (x, a, b, c, delta),                     # x (..., 2, L, D)
        (np.concatenate([xg, xg], -3), *given),  # x (..., 2, L, D), given
        (x[0, 0], a, b, c, delta),               # x of rank 2
        (xw, three(a, -4), b, c, delta),         # A with three ways
        (xw, a, (three(w_b, -3),), c, delta),    # w_B with three ways
        (xw, a, b, three(xw @ c[0], -3), delta),  # an array with three
        (xw, a, b, c, (w, three(bias, -3))),     # a bias with three
        (xw, a, (np.zeros((2, 2, 4, 2)),), c, delta),  # B's w gives N = 2
        (xw, a[..., :2], b, c, delta),           # A's N differs from B's
        (xw, a, b, c, (w, bias[..., :2])),       # bias not D
    ]
    for args in bad:
        with pytest.raises(DimensionError) as err:
            selective_scan(*args)
        message = str(err.value)
        assert message and "\n" not in message, message


def _blocked_case(seed, lead, length, d, n, a_shape, extreme=False):
    """Seeded op inputs; ``extreme`` makes delta*|A| reach 0 (a_bar = 1) and
    1e6 (a_bar underflows to exactly 0) on alternate positions of channel 0."""
    r = SplitMix64(seed)
    x = -2.0 + 4.0 * r.uniform_array(lead + (length, d))
    a = -0.05 - 2.0 * r.uniform_array(a_shape)
    b = -1.0 + 2.0 * r.uniform_array(lead + (length, n))
    c = -1.0 + 2.0 * r.uniform_array(lead + (length, n))
    delta = 0.01 + r.uniform_array(lead + (length, d))
    if extreme:
        delta[..., 0::2, 0] = 0.0
        delta[..., 1::2, 0] = 1e6
    return x, a, b, c, delta


def _broadcast_oracle(x, a, b, c, delta):
    """scan_sequential with A broadcast to (..., L, D, N) as the op takes it."""
    a_bar = np.exp(delta[..., None] * a)
    b_bar = delta[..., None] * b[..., None, :]
    return scan_sequential(x, a_bar, b_bar, c)


# lead, D, N and the shape of a shared A of the blocked-scan tests.
LEAD, D, N, A_SHARED = (4, 4), 8, 4, (4, 1, 8, 4)


def test_blocked_scan_matches_oracle_across_blocks():
    from scanseg.scan import BLOCK
    worst, case = 0.0, 0
    for length in (1, BLOCK // 2 + 3, BLOCK, 2 * BLOCK + 19, 3 * BLOCK + 5):
        for per_position in (False, True):
            shape = (length, D, N) if per_position else A_SHARED
            args = _blocked_case(3600 + case, LEAD, length, D, N, shape)
            y = selective_scan(*shared(*args)).data[..., 0, :, :]
            y_ref = front_plus_back(_broadcast_oracle, *args)
            rel = np.max(np.abs(y - y_ref) / (np.abs(y_ref) + 1e-12))
            worst = max(worst, rel)
            case += 1
    assert worst <= 1e-10, worst


def test_blocked_scan_extreme_delta_a_matches_oracle():
    # a_bar is exactly 1 on even positions of channel 0 and underflows to
    # exactly 0 on odd ones; outputs and gradients stay finite.
    from scanseg.scan import BLOCK
    length = 2 * BLOCK + 19
    args = _blocked_case(37, LEAD, length, D, N, A_SHARED, extreme=True)
    a_bar = np.exp(args[4][..., None] * args[1])
    assert np.all(a_bar[..., 0::2, 0, :] == 1.0)
    assert np.all(a_bar[..., 1::2, 0, :] == 0.0)
    ts = [Tensor(v, requires_grad=True) for v in shared(*args)]
    y = selective_scan(*ts)
    y_ref = front_plus_back(_broadcast_oracle, *args)
    front = y.data[..., 0, :, :]
    rel = np.max(np.abs(front - y_ref) / (np.abs(y_ref) + 1e-12))
    assert rel <= 1e-10, rel
    y.sum().backward()
    assert all(np.all(np.isfinite(t.grad)) for t in ts)


def test_forward_graph_holds_less_than_one_full_state_array():
    # The op keeps one (..., W, D, N) state per block for backward, not the
    # (..., L, D, N) a_bar or states: what the forward leaves allocated,
    # beyond y, stays below one such array of one way (8 MiB here).
    import tracemalloc
    lead, length, d, n = (4, 4), 1024, 16, 4
    args = _blocked_case(40, lead, length, d, n, (4, 1, d, n))
    ts = [Tensor(v, requires_grad=True) for v in shared(*args)]
    full = int(np.prod(lead)) * length * d * n * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = selective_scan(*ts)
        held = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
    finally:
        tracemalloc.stop()
    assert held < full, (held, full)
    y.sum().backward()
    assert all(t.grad is not None for t in ts)


def _fwd_bwd(args):
    """y of a forward of the op, and its arguments as Tensors that take
    gradients, for the caller's backward."""
    ts = [_tensors(v) for v in args]
    return selective_scan(*ts), ts


def _outputs(y, ts):
    """y's array and every argument's gradient."""
    return [y.data] + [g for t in ts for g in _grads(t)]


def _two_way_args(source, seed):
    x, (front, back) = _two_way_case(source, seed)
    x2, args = _on_way_axis(x, front, back)
    return [x2] + args


def test_workspace_second_call_allocates_less_than_one_block_array():
    # The op's block temporaries live in a workspace that outlives the
    # call: once it has served a shape, a forward plus backward there
    # allocates less than one (T, ..., W, N, D) block array beyond y and
    # the gradients.  The first call, on an empty workspace, allocates
    # several.
    from scanseg import scan
    from scanseg.bench import MODEL_SHAPES, _beyond_outputs, _model_case
    lead, length, d, source = MODEL_SHAPES[0]
    args = _model_case(lead, length, d, source, seed=0)
    states = min(BLOCK, length) * 2 * math.prod(lead) * 4 * d
    assert states <= scan.KEPT
    block = states * 8 / 2**20                   # MiB

    def fwd_bwd():
        y, ts = _fwd_bwd(args)
        y.sum().backward()
        return y, [t for v in ts for t in (v if isinstance(v, tuple)
                                            else (v,))]

    saved = dict(scan._WORKSPACE)
    scan._WORKSPACE.clear()
    try:
        first, second = _beyond_outputs(fwd_bwd), _beyond_outputs(fwd_bwd)
    finally:
        scan._WORKSPACE.update(saved)
    assert first > 3 * block, (first, block)
    assert second < block, (second, block)


def test_warm_forward_allocates_less_than_half_of_y_beyond_y():
    # y starts at zero and each block's C . h, formed in a workspace slot,
    # is added in position order: a warm forward allocates no
    # array of both ways' outputs, so less than half of y's bytes beyond y.
    from scanseg.bench import MODEL_SHAPES, _beyond_outputs, _model_case
    rows = [row for row in MODEL_SHAPES if row[1] >= 4096]
    assert rows
    for i, (lead, length, d, source) in enumerate(rows):
        args = _model_case(lead, length, d, source, seed=i)

        def fwd():
            return selective_scan(*args), ()

        y = fwd()[0].data.nbytes / 2**20         # MiB; the warm-up call
        beyond = _beyond_outputs(fwd)
        assert beyond < y / 2, (lead, length, d, source, beyond, y)


def test_workspace_interleaved_calls_match_isolated_calls():
    # Calls share the workspace, so nothing a call keeps for its backward
    # may live there: forward A, forward B, backward B, backward A give y
    # and gradients bitwise equal to each call on its own.  A projects B,
    # C and delta and shares A along L; B passes arrays and an A per
    # position, so it takes BLOCK // 2 positions per block.
    cases = [_two_way_args("proj", 61), _two_way_args("given", 62)]
    alone = []
    for args in cases:
        y, ts = _fwd_bwd(args)
        y.sum().backward()
        alone.append(_outputs(y, ts))
    (ya, ta), (yb, tb) = (_fwd_bwd(args) for args in cases)
    yb.sum().backward()
    ya.sum().backward()
    for got, want in zip((_outputs(ya, ta), _outputs(yb, tb)), alone):
        assert len(got) == len(want)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))


def test_returned_arrays_share_no_memory():
    # y and every gradient are arrays of their own: none is a view of
    # another, of the inputs or of the workspace.
    from scanseg import scan
    for source in ("proj", "given"):
        args = _two_way_args(source, 63)
        y, ts = _fwd_bwd(args)
        y.sum().backward()
        outs = _outputs(y, ts)
        others = ([t.data for t in ts for t in (t if isinstance(t, tuple)
                                                 else (t,))]
                  + list(scan._WORKSPACE.values())
                  + list(scan._PASS.values()))
        for i, u in enumerate(outs):
            assert not any(np.shares_memory(u, v) for v in outs[i + 1:])
            assert not any(np.shares_memory(u, v) for v in others)


def test_wide_call_keeps_nothing_and_matches_kept_call(monkeypatch):
    # A call whose blocks hold more than KEPT states takes its slots from a
    # second pool, emptied at the end of each pass: it leaves the
    # workspace as the last kept call left it, and its y and gradients are
    # bitwise those of the same call through the workspace, as the blocks
    # are the same.
    from scanseg import scan
    monkeypatch.setattr(scan, "_WORKSPACE", {})
    monkeypatch.setattr(scan, "_PASS", {})
    cases = [_two_way_args("proj", 64), _two_way_args("proj", 65)]
    kept = []
    for args in cases:
        y, ts = _fwd_bwd(args)
        y.sum().backward()
        kept.append(_outputs(y, ts))
    held = {k: v.copy() for k, v in scan._WORKSPACE.items()}
    assert held and not scan._PASS
    monkeypatch.setattr(scan, "KEPT", 0)
    for args, want in zip(cases, kept):
        y, ts = _fwd_bwd(args)
        assert not scan._PASS
        y.sum().backward()
        assert not scan._PASS
        assert all(np.array_equal(u, v) for u, v in zip(_outputs(y, ts), want))
    assert scan._WORKSPACE.keys() == held.keys()
    assert all(np.array_equal(scan._WORKSPACE[k], v)
               for k, v in held.items())


def test_backward_does_not_keep_y():
    # The adjoint reads the inputs and the block states, never y: once the
    # caller drops the output tensor, its array is freed before backward.
    import weakref
    ts = [Tensor(v, requires_grad=True)
          for v in shared(*_blocked_case(41, (2,), 300, 4, 3, (4, 3)))]
    y = selective_scan(*ts)
    freed = weakref.ref(y.data)
    loss = y.sum()
    del y
    assert freed() is None
    loss.backward()
    assert all(np.all(np.isfinite(t.grad)) for t in ts)


# ---------------------------------------------------------------- properties

def test_stability_long_scan_no_nan():
    L, N, D = 100_000, 2, 2
    r = SplitMix64(29)
    x = -1.0 + 2.0 * r.uniform_array((L, D))
    a = -0.01 - 2.0 * r.uniform_array((D, N))
    b = -1.0 + 2.0 * r.uniform_array((L, N))
    delta = 0.001 + r.uniform_array((L, D))
    y = selective_scan(*shared(x, a, b, b, delta)).data
    assert np.all(np.isfinite(y))


def test_linearity_in_input_without_skip():
    x1, *abc = random_scan_case(30, L=16, N=4, D=3)
    x2 = random_scan_case(31, L=16, N=4, D=3)[0]
    alpha, beta = 0.7, -1.3
    y_mix = scan_sequential(alpha * x1 + beta * x2, *abc)
    y_sep = alpha * scan_sequential(x1, *abc) + beta * scan_sequential(x2, *abc)
    rel = np.max(np.abs(y_mix - y_sep) / (np.abs(y_sep) + 1e-12))
    assert rel < 1e-10


def test_causality_by_perturbation():
    x, *abc = random_scan_case(32, L=10, N=3, D=2)
    y0 = scan_sequential(x, *abc)
    x2 = x.copy()
    x2[7:] += 10.0
    y1 = scan_sequential(x2, *abc)
    assert np.array_equal(y0[:7], y1[:7])
    assert not np.allclose(y0[7:], y1[7:])
