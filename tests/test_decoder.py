import numpy as np
import pytest

from scanseg.autodiff import Tensor
from scanseg.decoder import (Decoder, DecoderStage, SegHead, UpsampleShuffle,
                             shuffle_upsample_rearrange)
from scanseg.errors import ConfigError, DimensionError
from scanseg.gradcheck import check_params
from scanseg.rng import SplitMix64


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


# ---------------------------------------------------------------- rearrange

def test_rearrange_fills_2x2_blocks():
    f = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4))
    out = shuffle_upsample_rearrange(f)
    assert out.shape == (2, 2, 1)
    assert np.array_equal(out.data[..., 0], [[1.0, 2.0], [3.0, 4.0]])


def test_rearrange_is_permutation():
    f = rand((3, 5, 8), seed=1)
    out = shuffle_upsample_rearrange(Tensor(f)).data
    assert out.shape == (6, 10, 2)
    assert np.array_equal(np.sort(out.ravel()), np.sort(f.ravel()))


def test_rearrange_rejects_indivisible_channels():
    with pytest.raises(ConfigError):
        shuffle_upsample_rearrange(Tensor(np.zeros((2, 2, 6))))


def test_upsample_shuffle_shape_contract():
    up = UpsampleShuffle(16, rng=SplitMix64(2))
    out = up(Tensor(rand((4, 4, 16), seed=3)))
    assert out.shape == (8, 8, 8)


# ---------------------------------------------------------------- stage

def test_stage_zero_higher_level_reduces_to_projection_bias():
    # f_high = 0 makes every C projection zero (the C generator carries no
    # bias), so the scan output vanishes and the stage reduces to the
    # projection of the residual 0 + 0, i.e. the projection bias.
    stage = DecoderStage(low_channels=8, state=2, rng=SplitMix64(4))
    stage.proj.bias.data[:] = 0.125
    f_low = rand((2, 2, 8), seed=5)
    out = stage(Tensor(f_low), Tensor(np.zeros((4, 4, 4))))
    assert np.allclose(out.data, 0.125, atol=1e-15)


def test_stage_shape_contract_and_alignment_error():
    stage = DecoderStage(low_channels=8, state=2, rng=SplitMix64(6))
    out = stage(Tensor(rand((2, 2, 8), seed=7)), Tensor(rand((4, 4, 4), seed=8)))
    assert out.shape == (4, 4, 4)
    with pytest.raises(DimensionError):
        stage(Tensor(rand((2, 2, 8), seed=9)), Tensor(rand((8, 8, 4), seed=10)))


def test_stage_gradients():
    stage = DecoderStage(low_channels=8, state=2, rng=SplitMix64(11))
    f_low = Tensor(rand((1, 1, 8), seed=12), requires_grad=True)
    f_high = Tensor(rand((2, 2, 4), seed=13), requires_grad=True)
    r = rand((2, 2, 4), seed=14)

    def loss_fn():
        return (stage(f_low, f_high) * Tensor(r)).sum()

    params = [("f_low", f_low), ("f_high", f_high)] + list(stage.named_parameters())
    res = check_params("decoder-stage", loss_fn, params, step=1e-4)
    assert res.passed, res.line()


# ---------------------------------------------------------------- head

def test_head_single_class_and_constant_feature():
    head = SegHead(channels=3, num_classes=1, rng=SplitMix64(15))
    out = head(Tensor(rand((2, 2, 3), seed=16)), (8, 8))
    assert out.shape == (1, 8, 8)
    const = head(Tensor(np.full((2, 2, 3), 0.5)), (4, 4))
    assert np.allclose(const.data, const.data[0, 0, 0])


def test_head_bilinear_matches_hand_interpolation():
    head = SegHead(channels=1, num_classes=1, rng=SplitMix64(17))
    head.proj.weight.data[:] = [[1.0]]
    head.proj.bias.data[:] = 0.0
    out = head(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)),
               (4, 4)).data[0]
    row = np.array([1.0, 1.25, 1.75, 2.0])
    expect = np.stack([row, row + 0.5, row + 1.5, row + 2.0])
    assert np.allclose(out, expect, atol=1e-12)


# ---------------------------------------------------------------- cascade

def test_decoder_cascade_touches_every_level_once():
    dec = Decoder(channels=(4, 8), state=2, num_classes=1, rng=SplitMix64(18))
    calls = []
    orig = DecoderStage.__call__

    def spy(self, f_low, f_high=None):
        calls.append((f_low.shape, None if f_high is None else f_high.shape))
        return orig(self, f_low, f_high)

    DecoderStage.__call__ = spy
    try:
        out = dec([Tensor(rand((4, 4, 4), seed=19)),
                   Tensor(rand((2, 2, 8), seed=20))], (16, 16))
    finally:
        DecoderStage.__call__ = orig
    assert out.shape == (1, 16, 16)
    # one merging stage per level pair, then the final non-merging stage
    assert calls == [((2, 2, 8), (4, 4, 4)), ((4, 4, 4), None)]


def test_decoder_level_count_mismatch():
    dec = Decoder(channels=(4, 8), state=2, num_classes=1, rng=SplitMix64(21))
    with pytest.raises(DimensionError):
        dec([Tensor(np.zeros((4, 4, 4)))], (16, 16))


def test_decoder_four_levels_resolution_doubles_per_stage():
    dec = Decoder(channels=(4, 8, 16, 32), state=2, num_classes=2,
                  rng=SplitMix64(22))
    pyr = [Tensor(rand((8, 8, 4), seed=23)), Tensor(rand((4, 4, 8), seed=24)),
           Tensor(rand((2, 2, 16), seed=25)), Tensor(rand((1, 1, 32), seed=26))]
    out = dec(pyr, (32, 32))
    assert out.shape == (2, 32, 32)


def test_final_stage_without_higher_level():
    stage = DecoderStage(low_channels=8, state=2, rng=SplitMix64(27))
    out = stage(Tensor(rand((2, 2, 8), seed=28)))
    assert out.shape == (4, 4, 4)
