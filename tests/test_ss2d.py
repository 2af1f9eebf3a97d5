import numpy as np
import pytest

from scanseg.autodiff import Tensor
from scanseg.errors import DimensionError
from scanseg.gradcheck import check
from scanseg.rng import SplitMix64
from scanseg.ss2d import SS2DBlock, cross_merge, cross_scan, ss2d_forward


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


def oracle_perms(h, w):
    """Row-major flat index of the pixel visited at each step of the four
    directions: row-major, its reversal, column-major, its reversal."""
    rows = np.arange(h * w)
    cols = rows.reshape(h, w).T.ravel()
    return [rows, rows[::-1], cols, cols[::-1]]


def traversals(seqs):
    """The four directions' step-ordered sequences from cross_scan's pair,
    (..., 2, L, C): each sequence, then it read back to front, as the
    scan's back way reads it."""
    rows, cols = seqs[..., 0, :, :], seqs[..., 1, :, :]
    return [rows, rows[..., ::-1, :], cols, cols[..., ::-1, :]]


def merged_layout(ys):
    """Per-direction outputs in step order, (4, L, C), in the (2, L, C)
    layout cross_merge takes: each back direction put back in position
    order and added to its sequence's front one, as the scan returns
    them."""
    return np.stack([ys[0] + ys[1][::-1], ys[2] + ys[3][::-1]])


def index_grid(h, w):
    """(H, W, 1) map whose pixels hold their row-major flat index."""
    return np.arange(float(h * w)).reshape(h, w, 1)


# ---------------------------------------------------------------- layout

def test_layout_roundtrip_exhaustive():
    for h in range(1, 7):
        for w in range(1, 7):
            seqs = cross_scan(Tensor(index_grid(h, w))).data
            assert seqs.shape == (2, h * w, 1)
            for d, perm in enumerate(oracle_perms(h, w)):
                assert np.array_equal(np.sort(perm), np.arange(h * w))
                assert np.array_equal(traversals(seqs)[d][:, 0], perm)
                # merging direction d alone puts step t back on pixel perm[t]
                ys = np.zeros((4, h * w, 1))
                ys[d, :, 0] = perm
                out = cross_merge(Tensor(merged_layout(ys)), h, w).data
                assert np.array_equal(out, index_grid(h, w))


def test_layout_reversal_pairs():
    # The cross-scan keeps the row- and column-major sequences only; the
    # reversed directions are those sequences read back to front.
    f = rand((3, 5, 2), seed=1)
    seqs = cross_scan(Tensor(f)).data
    assert seqs.shape == (2, 15, 2)
    perms = oracle_perms(3, 5)
    assert np.array_equal(perms[1], perms[0][::-1])
    assert np.array_equal(perms[3], perms[2][::-1])
    flat = f.reshape(15, 2)
    for d, seq in enumerate(traversals(seqs)):
        assert np.array_equal(seq, flat[perms[d]])


def test_layout_2x2_convention():
    perms = oracle_perms(2, 2)
    assert perms[0].tolist() == [0, 1, 2, 3]
    assert perms[1].tolist() == [3, 2, 1, 0]
    assert perms[2].tolist() == [0, 2, 1, 3]
    assert perms[3].tolist() == [3, 1, 2, 0]
    ys = np.stack([p.astype(float) for p in perms])[..., None]
    out = cross_merge(Tensor(merged_layout(ys)), 2, 2).data
    assert np.array_equal(out, 4.0 * index_grid(2, 2))


# ---------------------------------------------------------------- cross scan

def test_cross_scan_single_pixel():
    f = Tensor(rand((1, 1, 3), seed=1))
    seqs = cross_scan(f)
    assert seqs.shape == (2, 1, 3)
    for s in seqs.data:
        assert np.array_equal(s[0], f.data[0, 0, :])


def test_cross_scan_constant_map():
    f = Tensor(np.full((3, 4, 2), 0.7))
    seqs = cross_scan(f).data
    assert np.allclose(seqs, 0.7)
    assert np.array_equal(seqs[0], seqs[1])


def test_cross_scan_orders_pixels():
    # H=2, W=2 with pixel values equal to their row-major flat index.
    seqs = cross_scan(Tensor(index_grid(2, 2))).data
    assert seqs[0, :, 0].tolist() == [0, 1, 2, 3]
    assert seqs[1, :, 0].tolist() == [0, 2, 1, 3]
    orders = [seq[:, 0].tolist() for seq in traversals(seqs)]
    assert orders == [[0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3], [3, 1, 2, 0]]


def test_merge_of_scan_is_twice_input_bitwise():
    f = rand((4, 5, 3), seed=2)
    out = cross_merge(cross_scan(Tensor(f)), 4, 5)
    assert np.array_equal(out.data, 2.0 * f)


def test_merge_single_nonzero_sequence():
    y = rand((6, 2), seed=3)
    stacked = np.zeros((2, 6, 2))
    stacked[1] = y
    out = cross_merge(Tensor(stacked), 2, 3)
    inv = np.argsort(oracle_perms(2, 3)[2])
    expect = y[inv].reshape(2, 3, 2)  # back to row-major order
    assert np.array_equal(out.data, expect)


def test_merge_matches_gather_add_oracle():
    perms = oracle_perms(3, 3)
    ys = np.stack([rand((9, 2), seed=10 + i) for i in range(4)])
    out = cross_merge(Tensor(merged_layout(ys)), 3, 3).data
    oracle = np.zeros((3, 3, 2))
    for d in range(4):
        for t in range(9):
            flat = perms[d][t]
            oracle[flat // 3, flat % 3, :] += ys[d][t]
    assert np.allclose(out, oracle, atol=1e-12)


def test_cross_scan_gradients():
    f = rand((3, 3, 2), seed=4)
    r = rand((2, 9, 2), seed=5)
    res = check("cross-scan",
                lambda ts: (cross_scan(ts[0]) * Tensor(r)).sum(), [f])
    assert res.passed, res.line()
    r2 = rand((3, 3, 2), seed=6)
    res = check("cross-merge",
                lambda ts: (cross_merge(ts[0], 3, 3) * Tensor(r2)).sum(),
                [rand((2, 9, 2), seed=7)])
    assert res.passed, res.line()


@pytest.mark.parametrize("shape", [(1, 1, 2), (3, 3, 2), (2, 5, 3),
                                   (2, 4, 3, 2), (3, 1, 1, 2)])
def test_layout_pair_is_adjoint_and_one_node_each(shape):
    h, w = shape[-3], shape[-2]
    f = rand(shape, seed=8)
    y = rand(shape[:-3] + (2, h * w, shape[-1]), seed=9)
    lhs = np.sum(cross_scan(Tensor(f)).data * y)
    rhs = np.sum(f * cross_merge(Tensor(y), h, w).data)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    # Each op is one node on its input, and its backward under a probe is
    # the other op's forward of that probe.
    tf, ty = Tensor(f, requires_grad=True), Tensor(y, requires_grad=True)
    seqs, grid = cross_scan(tf), cross_merge(ty, h, w)
    assert seqs._parents == (tf._node,) and grid._parents == (ty._node,)
    (seqs * Tensor(y)).sum().backward()
    (grid * Tensor(f)).sum().backward()
    assert np.array_equal(tf.grad, cross_merge(Tensor(y), h, w).data)
    assert np.array_equal(ty.grad, cross_scan(Tensor(f)).data)


# ---------------------------------------------------------------- ss2d forward

def test_ss2d_zero_input():
    blk = SS2DBlock(channels=3, state=2, rng=SplitMix64(8))
    out = ss2d_forward(Tensor(np.zeros((4, 4, 3))), blk)
    assert np.array_equal(out.data, np.zeros((4, 4, 3)))


def test_ss2d_single_pixel_matches_one_step_formula():
    c_dim, n = 3, 2
    blk = SS2DBlock(channels=c_dim, state=n, rng=SplitMix64(9))
    f = rand((1, 1, c_dim), seed=10)
    out = ss2d_forward(Tensor(f), blk).data[0, 0, :]
    x = f[0, 0, :]
    expect = np.zeros(c_dim)
    for p in blk.directions:
        b = x @ p.w_B.data
        cvec = x @ p.w_C.data
        delta = np.logaddexp(0.0, x @ p.w_delta.data + p.delta_bias.data)
        for d in range(c_dim):
            expect[d] += sum(cvec[nn] * (delta[d] * b[nn]) * x[d]
                             for nn in range(n))
    # the block normalizes the merged output over channels
    expect = (expect - expect.mean()) / np.sqrt(expect.var() + 1e-6)
    assert np.allclose(out, expect, atol=1e-12)


def test_ss2d_c_source_default_equivalence():
    blk = SS2DBlock(channels=2, state=2, rng=SplitMix64(11))
    f = Tensor(rand((3, 4, 2), seed=12))
    a = ss2d_forward(f, blk)
    b = ss2d_forward(f, blk, c_source=Tensor(f.data.copy()))
    assert np.array_equal(a.data, b.data)


def test_ss2d_c_source_shape_mismatch():
    blk = SS2DBlock(channels=2, state=2, rng=SplitMix64(13))
    with pytest.raises(DimensionError):
        ss2d_forward(Tensor(np.zeros((3, 4, 2))), blk,
                     c_source=Tensor(np.zeros((4, 3, 2))))


def test_ss2d_reversal_symmetry_with_tied_parameters():
    # With direction 2's parameters tied to direction 1's, the grid-space
    # contribution of direction 2 equals: flip direction 1's sequence, scan
    # it with the shared parameters, flip the output back, and restore grid
    # order with direction 1's inverse permutation.  The permutations are
    # the test's own oracle tables.
    from scanseg.scan import (SSMParams, discretize, project, scan_inputs,
                              scan_sequential)
    params = SSMParams(channels=2, state=3, rng=SplitMix64(14))
    f = rand((3, 4, 2), seed=15)
    invs = [np.argsort(p) for p in oracle_perms(3, 4)]
    seqs = traversals(cross_scan(Tensor(f)).data)
    assert np.array_equal(seqs[1], seqs[0][::-1])

    def run(x):
        xt = Tensor(x[None])
        a, *projs = scan_inputs(xt, [params])
        b, c, delta = (project(xt, q).data[0] for q in projs)
        return scan_sequential(x, *discretize(a.data[0, 0], b, delta), c)

    y2 = run(seqs[1])
    grid_dir2 = np.take(y2, invs[1], axis=0)
    via_dir1 = np.take(np.flip(run(np.flip(seqs[0], 0).copy()), 0),
                       invs[0], axis=0)
    assert np.array_equal(grid_dir2, via_dir1)


def test_ss2d_underflowed_delta_matches_oracle():
    # A delta_bias of -1000 makes softplus return exactly 0 on channel 0 of
    # every direction: a_bar = 1 and b_bar = 0 there, so the state holds.
    from scanseg.scan import discretize, project, scan_inputs, scan_sequential
    blk = SS2DBlock(channels=2, state=3, rng=SplitMix64(23))
    for p in blk.directions:
        p.delta_bias.data[0] = -1000.0
    f = rand((3, 4, 2), seed=24)
    out = ss2d_forward(Tensor(f), blk).data
    assert np.all(np.isfinite(out))

    seqs = traversals(cross_scan(Tensor(f)).data)
    ys = []
    for seq, p in zip(seqs, blk.directions):
        st = Tensor(seq[None])
        a, *projs = scan_inputs(st, [p])
        b, c, delta = (project(st, q).data[0] for q in projs)
        assert np.all(delta[:, 0] == 0.0) and np.all(delta[:, 1] > 0.0)
        a_bar, b_bar = discretize(a.data[0, 0], b, delta)
        assert np.all(a_bar[:, 0] == 1.0) and np.all(b_bar[:, 0] == 0.0)
        ys.append(scan_sequential(seq, a_bar, b_bar, c))
    expect = blk.out_norm(cross_merge(Tensor(merged_layout(ys)), 3, 4)).data
    rel = np.max(np.abs(out - expect) / (np.abs(expect) + 1e-12))
    assert rel <= 1e-10, rel


def test_ss2d_finite_random_sweep():
    blk = SS2DBlock(channels=4, state=2, rng=SplitMix64(16))
    for seed in range(5):
        f = rand((5, 6, 4), seed=100 + seed, lo=-3.0, hi=3.0)
        out = ss2d_forward(Tensor(f), blk)
        assert out.shape == (5, 6, 4)
        assert np.all(np.isfinite(out.data))


def test_ss2d_batched_matches_single():
    blk = SS2DBlock(channels=2, state=2, rng=SplitMix64(17))
    f0 = rand((3, 3, 2), seed=18)
    f1 = rand((3, 3, 2), seed=19)
    batched = ss2d_forward(Tensor(np.stack([f0, f1])), blk).data
    single0 = ss2d_forward(Tensor(f0), blk).data
    single1 = ss2d_forward(Tensor(f1), blk).data
    assert np.allclose(batched[0], single0, atol=1e-13)
    assert np.allclose(batched[1], single1, atol=1e-13)


def test_ss2d_gradients():
    blk = SS2DBlock(channels=2, state=2, rng=SplitMix64(20))
    f = rand((2, 3, 2), seed=21)
    r = rand((2, 3, 2), seed=22)
    res = check("ss2d",
                lambda ts: (ss2d_forward(ts[0], blk) * Tensor(r)).sum(), [f])
    assert res.passed, res.line()
