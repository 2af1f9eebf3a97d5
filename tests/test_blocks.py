import numpy as np
import pytest

from scanseg.autodiff import Tensor
from scanseg.blocks import (Downsample, Encoder, EncoderBlock, PatchEmbed,
                            StageConfig)
from scanseg.errors import ConfigError
from scanseg.gradcheck import check_params
from scanseg.rng import SplitMix64


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


# ---------------------------------------------------------------- config

def test_stage_config_validation():
    with pytest.raises(ConfigError):
        StageConfig(patch=4, depths=(2,), channels=(16, 32))
    with pytest.raises(ConfigError):
        StageConfig(patch=4, depths=(2, 2), channels=(16, 48))
    cfg = StageConfig(patch=4, depths=(2, 2, 9, 2), channels=(64, 128, 256, 512))
    assert cfg.num_stages == 4


# ---------------------------------------------------------------- patch embed

def test_patch_embed_pointwise_case():
    pe = PatchEmbed(3, 5, patch=1, rng=SplitMix64(1))
    img = rand((3, 4, 4), seed=2)
    out = pe(Tensor(img))
    assert out.shape == (4, 4, 5)
    expect = np.einsum("chw,co->hwo", img, pe.proj.weight.data)
    assert np.allclose(out.data, expect, atol=1e-12)


def test_patch_embed_constant_image_zero_bias():
    pe = PatchEmbed(3, 4, patch=2, rng=SplitMix64(3))
    out = pe(Tensor(np.full((3, 4, 4), 0.5))).data
    for c in range(4):
        assert np.allclose(out[..., c], out[0, 0, c])


def test_patch_embed_hand_projection():
    pe = PatchEmbed(3, 2, patch=2, rng=SplitMix64(4))
    img = rand((3, 4, 4), seed=5)
    out = pe(Tensor(img)).data
    # Patch vector layout is channel-major then row-major within the patch.
    patch00 = img[:, 0:2, 0:2].reshape(-1)
    expect = patch00 @ pe.proj.weight.data + pe.proj.bias.data
    assert np.allclose(out[0, 0, :], expect, atol=1e-12)
    patch01 = img[:, 0:2, 2:4].reshape(-1)
    expect = patch01 @ pe.proj.weight.data + pe.proj.bias.data
    assert np.allclose(out[0, 1, :], expect, atol=1e-12)


def test_patch_embed_rejects_indivisible():
    pe = PatchEmbed(3, 4, patch=3, rng=SplitMix64(6))
    with pytest.raises(ConfigError):
        pe(Tensor(np.zeros((3, 4, 4))))


# ---------------------------------------------------------------- encoder block

def test_encoder_block_zero_preserving():
    blk = EncoderBlock(channels=4, state=2, rng=SplitMix64(7))
    out = blk(Tensor(np.zeros((4, 4, 4))))
    assert np.allclose(out.data, 0.0, atol=1e-15)


def test_encoder_block_shape_contract():
    for c, h, w in [(4, 4, 4), (8, 2, 6), (2, 3, 5)]:
        blk = EncoderBlock(channels=c, state=2, rng=SplitMix64(8))
        f = rand((h, w, c), seed=9)
        assert blk(Tensor(f)).shape == (h, w, c)


def test_encoder_block_residual_identity():
    blk = EncoderBlock(channels=3, state=2, rng=SplitMix64(10))
    blk.lin_out.weight.data[:] = 0.0
    blk.lin_out.bias.data[:] = 0.0
    f = rand((4, 4, 3), seed=11)
    out = blk(Tensor(f))
    assert np.array_equal(out.data, f)


def test_encoder_block_gradients():
    blk = EncoderBlock(channels=2, state=2, rng=SplitMix64(12))
    f = Tensor(rand((2, 2, 2), seed=13), requires_grad=True)
    r = rand((2, 2, 2), seed=14)

    def loss_fn():
        return (blk(f) * Tensor(r)).sum()

    params = [("input", f)] + list(blk.named_parameters())
    res = check_params("encoder-block", loss_fn, params, step=1e-4)
    assert res.passed, res.line()


# ---------------------------------------------------------------- downsample

def test_downsample_phase_gather_order():
    f = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    phases = Downsample.gather_phases(f)
    assert phases.shape == (1, 1, 4)
    assert phases.data[0, 0, :].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_downsample_projection_selects_phase():
    ds = Downsample(channels=1, rng=SplitMix64(15))
    ds.proj.weight.data[:] = 0.0
    ds.proj.bias.data[:] = 0.0
    ds.proj.weight.data[0, 0] = 1.0  # output ch 0 <- phase (0, 0)
    f = rand((4, 4, 1), seed=16)
    out = ds(Tensor(f))
    assert np.array_equal(out.data[..., 0], f[::2, ::2, 0])


def test_downsample_shape_contract():
    ds = Downsample(channels=8, rng=SplitMix64(17))
    out = ds(Tensor(rand((16, 16, 8), seed=18)))
    assert out.shape == (8, 8, 16)


def test_downsample_rejects_odd():
    ds = Downsample(channels=2, rng=SplitMix64(19))
    with pytest.raises(ConfigError):
        ds(Tensor(np.zeros((3, 4, 2))))


# ---------------------------------------------------------------- encoder
# One encoder serves both modality streams: the model calls it once per
# stream.

def test_dual_stream_equal_inputs_equal_pyramids():
    cfg = StageConfig(patch=2, depths=(1, 1), channels=(4, 8))
    enc = Encoder(cfg, state=2, rng=SplitMix64(20))
    img = rand((3, 8, 8), seed=21)
    pyr_rgb, pyr_x = enc(Tensor(img)), enc(Tensor(img.copy()))
    for a, b in zip(pyr_rgb, pyr_x):
        assert np.array_equal(a.data, b.data)


def test_dual_stream_pyramid_shapes():
    cfg = StageConfig(patch=4, depths=(1, 1, 1, 1), channels=(16, 32, 64, 128))
    enc = Encoder(cfg, state=2, rng=SplitMix64(22))
    pyr = enc(Tensor(rand((3, 64, 64), seed=23)))
    assert [p.shape for p in pyr] == [(16, 16, 16), (8, 8, 32), (4, 4, 64),
                                      (2, 2, 128)]


def test_dual_stream_single_channel_replication():
    cfg = StageConfig(patch=2, depths=(1, 1), channels=(4, 8))
    enc = Encoder(cfg, state=2, rng=SplitMix64(24))
    xm = rand((1, 8, 8), seed=25)
    pyr_a = enc(Tensor(xm))
    pyr_b = enc(Tensor(np.concatenate([xm] * 3, axis=0)))
    for a, b in zip(pyr_a, pyr_b):
        assert np.array_equal(a.data, b.data)


def test_dual_stream_shared_weights_accumulate_both_streams():
    cfg = StageConfig(patch=2, depths=(1, 1), channels=(2, 4))
    enc = Encoder(cfg, state=2, rng=SplitMix64(28))
    rgb = rand((3, 4, 4), seed=29)
    xm = rand((3, 4, 4), seed=30)
    r = [rand((2, 2, 2), seed=31), rand((1, 1, 4), seed=32)]

    def loss_fn():
        pa, pb = enc(Tensor(rgb)), enc(Tensor(xm))
        total = (pa[0] * Tensor(r[0])).sum() + (pb[0] * Tensor(r[0])).sum()
        return total + (pa[1] * Tensor(r[1])).sum() + (pb[1] * Tensor(r[1])).sum()

    res = check_params("dual-stream-shared", loss_fn,
                       list(enc.named_parameters()), entries_per_param=4,
                       step=1e-4, tolerance=1e-4)
    assert res.passed, res.line()
