import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scanseg.autodiff import Tensor
from scanseg.errors import ConfigError, DomainError, NumericalError
from scanseg.losses import loss_saliency, loss_semantic, soft_iou
from scanseg.model import TINY_CONFIG, TOY_CONFIG, Model
from scanseg.nn import param
from scanseg.optim import AdamW
from scanseg.rng import SplitMix64
from scanseg.train import (TrainConfig, make_synthetic_pairs, mean_soft_iou,
                           predict_prob, train_loop)


# ---------------------------------------------------------------- optimizer

def test_zero_grad_zero_decay_leaves_params():
    p = param(np.array([1.0, -2.0]))
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    p.zero_grad()
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_zero_grad_decoupled_decay_shrinks():
    p = param(np.array([1.0, -2.0]))
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
    p.zero_grad()
    opt.step()
    assert np.allclose(p.data, [1.0 * 0.999, -2.0 * 0.999], atol=1e-15)


def test_scalar_trajectory_matches_hand_unroll():
    lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
    g = 0.3
    p = param(np.array([1.0]))
    opt = AdamW([("p", p)], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    # Independent scalar unroll of the update rule.
    ref, m, v = 1.0, 0.0, 0.0
    for t in range(1, 11):
        p.grad = np.array([g])
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref *= (1 - lr * wd)
        ref -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        assert abs(p.data[0] - ref) < 1e-15, t


def test_gradient_negation_negates_displacement():
    for g in (0.7, -0.2, 1.5):
        p1 = param(np.array([0.5]))
        p2 = param(np.array([0.5]))
        o1 = AdamW([("p", p1)], lr=0.05, weight_decay=0.0)
        o2 = AdamW([("p", p2)], lr=0.05, weight_decay=0.0)
        p1.grad = np.array([g])
        p2.grad = np.array([-g])
        o1.step()
        o2.step()
        d1 = p1.data[0] - 0.5
        d2 = p2.data[0] - 0.5
        assert abs(d1 + d2) < 1e-15


def test_nan_gradient_aborts_with_name():
    p = param(np.array([1.0]))
    opt = AdamW([("layer.weight", p)], lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError, match="layer.weight"):
        opt.step()


def test_optimizer_validation():
    p = param(np.array([1.0]))
    with pytest.raises(ConfigError):
        AdamW([("p", p)], lr=-1.0)
    with pytest.raises(ConfigError):
        AdamW([("p", p)], betas=(1.0, 0.5))


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", float("nan")), ("weight_decay", float("inf")),
])
def test_non_finite_hyperparameters_rejected(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})
    with pytest.raises(ConfigError):
        AdamW([("p", param(np.array([1.0])))], **{field: value})


# ---------------------------------------------------------------- losses

def test_saliency_loss_saturates_to_zero():
    mask = Tensor(np.ones((1, 4, 4)))
    logits = Tensor(np.full((1, 4, 4), 50.0))
    total, bce, iou_loss = loss_saliency(logits, mask)
    assert total.item() < 1e-8


def test_bce_at_zero_logits_is_ln2():
    mask = np.zeros((1, 4, 4))
    mask[0, :2] = 1.0  # balanced
    total, bce, iou_loss = loss_saliency(Tensor(np.zeros((1, 4, 4))),
                                         Tensor(mask))
    assert abs(bce.item() - np.log(2.0)) < 1e-12


def test_soft_iou_perfect_hard_prediction():
    mask = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert soft_iou(Tensor(mask.data.copy()), mask).item() == 1.0


def test_semantic_loss_and_ignore():
    logits = Tensor(SplitMix64(1).normal_array((2, 3, 4, 4)))
    labels = SplitMix64(2).uniform_array((2, 4, 4))
    labels = (labels * 3).astype(np.int64)
    total, ce = loss_semantic(logits, labels)
    assert np.isfinite(total.item()) and total.item() > 0
    all_ignored = np.full((2, 4, 4), 255, dtype=np.int64)
    with pytest.warns(UserWarning, match="ignored"):
        total, _ = loss_semantic(logits, all_ignored)
    assert total.item() == 0.0


@pytest.mark.parametrize("label", [-1, 3, 254])
def test_semantic_loss_rejects_labels_outside_classes(label):
    logits = Tensor(SplitMix64(1).normal_array((1, 3, 2, 2)))
    labels = np.array([[[0, 1], [255, label]]], dtype=np.int64)
    with pytest.raises(DomainError, match=f"label {label} outside"):
        loss_semantic(logits, labels)


def test_semantic_loss_matches_manual_ce():
    logits = Tensor(SplitMix64(3).normal_array((1, 2, 2, 2)))
    labels = np.array([[[0, 1], [1, 0]]], dtype=np.int64)
    total, _ = loss_semantic(logits, labels)
    z = logits.data[0]
    manual = 0.0
    for i in range(2):
        for j in range(2):
            zz = z[:, i, j]
            manual -= (zz[labels[0, i, j]]
                       - np.log(np.sum(np.exp(zz - zz.max()))) - zz.max())
    assert abs(total.item() - manual / 4) < 1e-12


# ---------------------------------------------------------------- train loop

def small_pairs(n=4, seed=0):
    return make_synthetic_pairs(n, kappa=0.5, resolution=(8, 8), seed=seed)


def test_one_step_lr_zero_is_noop():
    pairs = small_pairs()
    model = Model(TINY_CONFIG, seed=1)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    cfg = TrainConfig(lr=0.0, weight_decay=0.01, batch=2, steps=1, seed=2)
    train_loop(model, pairs, cfg)
    for n, p in model.named_parameters():
        assert np.array_equal(p.data, before[n]), n


def test_training_reduces_loss_and_is_deterministic():
    pairs = small_pairs()
    cfg = TrainConfig(lr=3e-3, weight_decay=0.01, batch=2, steps=12, seed=3)
    model_a = Model(TINY_CONFIG, seed=4)
    res_a = train_loop(model_a, pairs, cfg)
    model_b = Model(TINY_CONFIG, seed=4)
    res_b = train_loop(model_b, pairs, cfg)
    assert len(res_a.rows) == 12
    for ra, rb in zip(res_a.rows, res_b.rows):
        assert ra[0] == rb[0]
        for va, vb in zip(ra[1:], rb[1:]):
            assert abs(va - vb) < 1e-12
    first, last = res_a.rows[0][1], res_a.rows[-1][1]
    assert last < first


def test_train_loop_takes_task_from_model():
    model = Model(replace(TINY_CONFIG, task="semantic", num_classes=2), seed=1)
    cfg = TrainConfig(lr=1e-3, batch=2, steps=2, seed=2)
    result = train_loop(model, small_pairs(), cfg)
    assert result.csv().split("\n")[0] == "step,loss,ce"
    assert all(len(row) == 3 for row in result.rows)


def test_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        train_loop(Model(TINY_CONFIG, seed=5), [], TrainConfig())


def test_augment_changes_stream_not_determinism():
    pairs = small_pairs()
    cfg = TrainConfig(lr=1e-3, batch=2, steps=3, seed=6, augment=True)
    a = train_loop(Model(TINY_CONFIG, seed=7), pairs, cfg)
    b = train_loop(Model(TINY_CONFIG, seed=7), pairs, cfg)
    assert a.rows == b.rows


def test_rgb_only_mode_runs():
    pairs = small_pairs()
    cfg = TrainConfig(lr=1e-3, batch=2, steps=2, seed=8, use_xmod=False)
    res = train_loop(Model(TINY_CONFIG, seed=9), pairs, cfg)
    assert len(res.rows) == 2


def test_loss_csv_schema():
    pairs = small_pairs()
    cfg = TrainConfig(lr=1e-3, batch=2, steps=2, seed=10)
    res = train_loop(Model(TINY_CONFIG, seed=11), pairs, cfg)
    lines = res.csv().strip().split("\n")
    assert lines[0] == "step,loss,bce,iou_loss"
    assert lines[1].startswith("1,")
    assert len(lines) == 3


def test_mean_soft_iou_bounds():
    pairs = small_pairs(2)
    model = Model(TINY_CONFIG, seed=12)
    v = mean_soft_iou(model, pairs)
    assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------- memory

def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_prob_records_no_graph_and_peaks_low():
    # Inference records no graph, so each intermediate is freed once its
    # consumer has run: a TOY_CONFIG prediction at 256x256 peaks near
    # 28 MiB.  Keeping the graph of that forward peaks near 266 MiB.
    model = Model(replace(TOY_CONFIG, resolution=(256, 256)), seed=0)
    pair = make_synthetic_pairs(1, kappa=0.5, resolution=(256, 256),
                                seed=3)[0]
    peak = _traced_peak(lambda: predict_prob(model, pair))
    assert peak < 64 * 2**20, peak / 2**20


def test_backward_releases_graph_as_it_walks():
    # Backward frees each node and each non-leaf gradient once used: one
    # TOY_CONFIG train step at 128x128, batch 4, peaks near 275 MiB.
    # Holding every node and gradient to the end of the walk peaks near
    # 408 MiB.
    model = Model(replace(TOY_CONFIG, resolution=(128, 128)), seed=0)
    pairs = make_synthetic_pairs(4, kappa=1.0, resolution=(128, 128), seed=3)
    cfg = TrainConfig(lr=0.0, batch=4, steps=1, seed=1)
    peak = _traced_peak(lambda: train_loop(model, pairs, cfg))
    assert peak < 340 * 2**20, peak / 2**20
