import numpy as np
import pytest

from scanseg.autodiff import Tensor
from scanseg.errors import DimensionError
from scanseg.fusion import MMFFBlock, _joined_scan_inputs
from scanseg.gradcheck import check_params
from scanseg.rng import SplitMix64
from scanseg.scan import selective_scan


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


def both_ways(x, a, b, c, delta):
    """The block's scan: front to back and back to front with the same A,
    B, C and delta, each with a way axis of extent 1, in one call."""
    return selective_scan(x, a, b, c, delta, both_ways=True)


def tie_modalities(blk: MMFFBlock) -> None:
    blk.lin_b.weight.data[:] = blk.lin_a.weight.data
    blk.lin_b.bias.data[:] = blk.lin_a.bias.data
    blk.conv_b.weight.data[:] = blk.conv_a.weight.data
    blk.conv_b.bias.data[:] = blk.conv_a.bias.data
    for name in ("a_log", "w_B", "w_C", "w_delta", "delta_bias"):
        getattr(blk.gen_b, name).data[:] = getattr(blk.gen_a, name).data
    blk.scale_b.data[:] = blk.scale_a.data


def test_zero_inputs_zero_biases_give_zero():
    blk = MMFFBlock(channels=3, state=2, rng=SplitMix64(1))
    out = blk(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 2, 3))))
    assert np.array_equal(out.data, np.zeros((2, 2, 3)))


def test_zero_scales_expose_projection_bias():
    blk = MMFFBlock(channels=2, state=2, rng=SplitMix64(2))
    blk.scale_a.data[:] = 0.0
    blk.scale_b.data[:] = 0.0
    blk.proj.bias.data[:] = [0.25, -0.5]
    out = blk(Tensor(rand((3, 3, 2), seed=3)), Tensor(rand((3, 3, 2), seed=4)))
    assert np.allclose(out.data[..., 0], 0.25)
    assert np.allclose(out.data[..., 1], -0.5)


def test_shape_mismatch_rejected():
    blk = MMFFBlock(channels=2, state=2, rng=SplitMix64(5))
    with pytest.raises(DimensionError):
        blk(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 3, 2))))


def test_single_position_matches_hand_composed_two_step_scan():
    c_dim, n = 2, 3
    blk = MMFFBlock(channels=c_dim, state=n, rng=SplitMix64(8))
    f_a = rand((1, 1, c_dim), seed=9)
    f_b = rand((1, 1, c_dim), seed=10)
    out = blk(Tensor(f_a), Tensor(f_b)).data[0, 0, :]

    def preprocess(f, lin, conv):
        u = f[0, 0, :] @ lin.weight.data + lin.bias.data
        return u * conv.weight.data[:, 1, 1] + conv.bias.data

    u_a = preprocess(f_a, blk.lin_a, blk.conv_a)
    u_b = preprocess(f_b, blk.lin_b, blk.conv_b)

    def gen(u, g):
        b = u @ g.w_B.data
        c = u @ g.w_C.data
        delta = np.logaddexp(0.0, u @ g.w_delta.data + g.delta_bias.data)
        a = -np.exp(g.a_log.data)
        return b, c, delta, a

    b_a, c_a, d_a, a_a = gen(u_a, blk.gen_a)
    b_b, c_b, d_b, a_b = gen(u_b, blk.gen_b)

    def step(h, a, delta, b, x):
        h2 = np.exp(delta[:, None] * a) * h + delta[:, None] * b[None, :] * x[:, None]
        return h2

    # Forward over [u_a, u_b]: readout C crossed (first half reads c_b).
    h = step(np.zeros((c_dim, n)), a_a, d_a, b_a, u_a)
    y_fwd0 = h @ c_b
    h = step(h, a_b, d_b, b_b, u_b)
    y_fwd1 = h @ c_a
    # Reversed: sequence [u_b, u_a] with each position's own parameters.
    h = step(np.zeros((c_dim, n)), a_b, d_b, b_b, u_b)
    y_rev0 = h @ c_a
    h = step(h, a_a, d_a, b_a, u_a)
    y_rev1 = h @ c_b

    half_a = (y_fwd0 + y_rev1) * blk.scale_a.data
    half_b = (y_fwd1 + y_rev0) * blk.scale_b.data
    expect = np.concatenate([half_a, half_b]) @ blk.proj.weight.data \
        + blk.proj.bias.data
    assert np.allclose(out, expect, atol=1e-12)


def test_stub_identity_scan_doubles_joined_sequence(monkeypatch):
    # The block makes one two-way scan call over the joined sequence,
    # passing A, B, C and delta once, each with a way axis of extent 1: both
    # ways share them.  An identity scan each way sums to twice the joined
    # sequence, and the block's output is formed from that: halves side by
    # side, scaled, projected.
    import scanseg.fusion
    calls = []

    def stub(x, a, b, c, delta, both_ways=False):
        calls.append((x, (a, b, c, delta), both_ways))
        return x * 2.0

    monkeypatch.setattr(scanseg.fusion, "selective_scan", stub)
    blk = MMFFBlock(channels=2, state=2, rng=SplitMix64(11))
    f_a = rand((2, 2, 2), seed=12)
    f_b = rand((2, 2, 2), seed=13)
    out = blk(Tensor(f_a), Tensor(f_b)).data
    ((x, (a, *bcd), both),) = calls
    assert both is True and x.shape == (1, 8, 2) and a.shape[-4] == 1
    assert all(v.shape[-3] == 1 for v in bcd)
    seq_a = blk._preprocess(Tensor(f_a), blk.lin_a, blk.conv_a)
    seq_b = blk._preprocess(Tensor(f_b), blk.lin_b, blk.conv_b)
    joined = _joined_scan_inputs(blk, seq_a, seq_b)[0].data
    assert np.array_equal(x.data, joined)
    halves = (2.0 * joined).reshape(2, 4, 2).transpose(1, 0, 2).reshape(4, 4)
    scales = np.concatenate([blk.scale_a.data, blk.scale_b.data])
    expect = (halves * scales) @ blk.proj.weight.data + blk.proj.bias.data
    assert np.allclose(out, expect.reshape(2, 2, 2), atol=1e-15)


def test_bidirectional_scan_across_blocks_matches_oracle_and_copies():
    # Per-modality L = 266: the joined 2L spans more than two scan blocks.
    # The back-to-front pass is the op's back way over the caller's arrays,
    # which both ways share; it must agree with the oracle, with two scans
    # of copied inputs, and leave the arrays as they were.
    from scanseg.scan import BLOCK, scan_sequential
    lead, length, d, n = (2,), 2 * 266, 4, 3
    assert length > 2 * BLOCK
    r = SplitMix64(60)
    x = -2.0 + 4.0 * r.uniform_array(lead + (length, d))
    a = -0.05 - 2.0 * r.uniform_array((length, d, n))    # per position
    b = -1.0 + 2.0 * r.uniform_array(lead + (length, n))
    c = -1.0 + 2.0 * r.uniform_array(lead + (length, n))
    delta = 0.01 + r.uniform_array(lead + (length, d))
    probe = rand(lead + (length, d), seed=61)
    arrays = (x, a, b, c, delta)
    kept = [v.copy() for v in arrays]
    axes = (1, 0, 1, 1, 1)                              # each array's L axis

    ts = [Tensor(np.expand_dims(v, -4 if v is a else -3), requires_grad=True)
          for v in arrays]                              # way axes of 1
    y = both_ways(*ts)
    (y * Tensor(probe[:, None])).sum().backward()

    a_bar = np.exp(delta[..., None] * a)
    b_bar = delta[..., None] * b[..., None, :]
    flipped = [np.flip(v, 1).copy() for v in (x, a_bar, b_bar, c)]
    expect = (scan_sequential(x, a_bar, b_bar, c)
              + np.flip(scan_sequential(*flipped), 1))
    rel = np.max(np.abs(y.data[:, 0] - expect) / (np.abs(expect) + 1e-12))
    assert rel <= 1e-10, rel

    fwd = [Tensor(v.copy(), requires_grad=True) for v in arrays]
    rev = [Tensor(np.flip(v, ax).copy(), requires_grad=True)
           for v, ax in zip(arrays, axes)]
    (selective_scan(*fwd) * Tensor(probe)).sum().backward()
    (selective_scan(*rev) * Tensor(np.flip(probe, 1).copy())).sum().backward()
    for t, f, rv, ax in zip(ts, fwd, rev, axes):
        want = f.grad + np.flip(rv.grad, ax)
        got = t.grad.reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert all(np.array_equal(v, k) for v, k in zip(arrays, kept))


def test_underflowed_delta_matches_oracle():
    # A delta_bias of -1000 makes softplus return exactly 0 on channel 0 of
    # both generators: a_bar = 1 and b_bar = 0 there, so the state holds.
    from scanseg.scan import discretize, scan_sequential
    blk = MMFFBlock(channels=2, state=3, rng=SplitMix64(29))
    for gen in (blk.gen_a, blk.gen_b):
        gen.delta_bias.data[0] = -1000.0
    f_a = rand((2, 3, 2), seed=30)
    f_b = rand((2, 3, 2), seed=31)
    assert np.all(np.isfinite(blk(Tensor(f_a), Tensor(f_b)).data))

    seq_a = blk._preprocess(Tensor(f_a), blk.lin_a, blk.conv_a)
    seq_b = blk._preprocess(Tensor(f_b), blk.lin_b, blk.conv_b)
    inputs = _joined_scan_inputs(blk, seq_a, seq_b)
    y = both_ways(*inputs).data[0]
    x, _, b, c, delta = (t.data[0] for t in inputs)      # drop the way axis
    assert np.all(delta[:, 0] == 0.0) and np.all(delta[:, 1] > 0.0)
    halves = [discretize(-np.exp(gen.a_log.data), b[s], delta[s])
              for gen, s in ((blk.gen_a, slice(0, 6)),
                             (blk.gen_b, slice(6, 12)))]
    a_bar = np.concatenate([h[0] for h in halves])
    b_bar = np.concatenate([h[1] for h in halves])
    assert np.all(a_bar[:, 0] == 1.0) and np.all(b_bar[:, 0] == 0.0)
    fwd = scan_sequential(x, a_bar, b_bar, c)
    rev = scan_sequential(x[::-1], a_bar[::-1], b_bar[::-1], c[::-1])
    expect = fwd + rev[::-1]
    rel = np.max(np.abs(y - expect) / (np.abs(expect) + 1e-12))
    assert rel <= 1e-10, rel


def test_information_crossing_rgb_perturbation_reaches_x_half():
    blk = MMFFBlock(channels=2, state=2, rng=SplitMix64(14))
    f_a = rand((2, 2, 2), seed=15)
    f_b = rand((2, 2, 2), seed=16)

    def halves(fa, fb):
        seq_a = blk._preprocess(Tensor(fa), blk.lin_a, blk.conv_a)
        seq_b = blk._preprocess(Tensor(fb), blk.lin_b, blk.conv_b)
        y = both_ways(*_joined_scan_inputs(blk, seq_a, seq_b)).data[0]
        return y[:4], y[4:]

    _, xh0 = halves(f_a, f_b)
    _, xh1 = halves(f_a + 0.1, f_b)
    assert np.max(np.abs(xh1 - xh0)) > 0.0


def test_swap_invariance_with_tied_generators_and_scales():
    blk = MMFFBlock(channels=2, state=2, rng=SplitMix64(17))
    tie_modalities(blk)
    f = rand((3, 2, 2), seed=18)
    a = blk(Tensor(f), Tensor(f.copy())).data
    b = blk(Tensor(f.copy()), Tensor(f)).data
    assert np.array_equal(a, b)


def test_fusion_output_finite_random_sweep():
    blk = MMFFBlock(channels=3, state=2, rng=SplitMix64(24))
    for seed in range(4):
        out = blk(Tensor(rand((4, 5, 3), seed=30 + seed, lo=-3, hi=3)),
                  Tensor(rand((4, 5, 3), seed=40 + seed, lo=-3, hi=3)))
        assert out.shape == (4, 5, 3)
        assert np.all(np.isfinite(out.data))


def test_fusion_gradients_end_to_end():
    blk = MMFFBlock(channels=2, state=2, rng=SplitMix64(25))
    fa = Tensor(rand((2, 2, 2), seed=26), requires_grad=True)
    fb = Tensor(rand((2, 2, 2), seed=27), requires_grad=True)
    r = rand((2, 2, 2), seed=28)

    def loss_fn():
        return (blk(fa, fb) * Tensor(r)).sum()

    params = [("f_a", fa), ("f_b", fb)] + list(blk.named_parameters())
    res = check_params("mmff", loss_fn, params, step=1e-4)
    assert res.passed, res.line()
