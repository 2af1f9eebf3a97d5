"""Training loop and the synthetic-data harnesses built on it.

The loop is deterministic for a fixed seed: sample order comes from a
SplitMix64 stream, and all arithmetic is double precision.  A NaN loss
aborts with the step index.  The only augmentation is an optional
horizontal flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad, sigmoid
from .errors import ConfigError, NumericalError
from .losses import loss_saliency, loss_semantic
from .metrics import binary_iou
from .model import Model
from .optim import AdamW
from .rng import SplitMix64, combine
from .synth import ModalityPair, SceneConfig, generate_scene

__all__ = ["TrainConfig", "TrainResult", "train_loop", "predict_logits",
           "predict_prob", "mean_soft_iou", "make_synthetic_pairs",
           "LOSS_CSV_HEADER"]

LOSS_CSV_HEADER = {"saliency": "step,loss,bce,iou_loss",
                   "semantic": "step,loss,ce"}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 6e-5
    weight_decay: float = 0.01
    batch: int = 4
    steps: int = 500
    seed: int = 0
    augment: bool = False
    use_xmod: bool = True

    def __post_init__(self):
        # lr = 0 is the degenerate no-op used by tests; NaN fails each bound.
        if not (0 <= self.lr < np.inf and 0 <= self.weight_decay < np.inf
                and self.batch >= 1 and self.steps >= 1):
            raise ConfigError(f"bad hyperparameter in {self}")


@dataclass
class TrainResult:
    rows: list = field(default_factory=list)   # (step, total, *components)
    header: str = LOSS_CSV_HEADER["saliency"]

    def csv(self) -> str:
        lines = [self.header]
        for row in self.rows:
            lines.append(",".join(f"{v:.12g}" if i else str(v)
                                  for i, v in enumerate(row)))
        return "\n".join(lines) + "\n"


def _batches(n: int, batch: int, steps: int, rng: SplitMix64):
    order: list[int] = []
    while len(order) < steps * batch:
        epoch = list(range(n))
        rng.shuffle(epoch)
        order.extend(epoch)
    for s in range(steps):
        yield order[s * batch:(s + 1) * batch]


def _assemble(pairs: list[ModalityPair], idxs, flip_draws):
    rgbs, xmods, masks = [], [], []
    for i, flip in zip(idxs, flip_draws):
        rgb, xmod, mask = pairs[i].rgb, pairs[i].xmod, pairs[i].mask
        if flip:
            rgb = rgb[:, :, ::-1].copy()
            xmod = xmod[:, :, ::-1].copy()
            mask = mask[:, ::-1].copy()
        rgbs.append(rgb)
        xmods.append(xmod)
        masks.append(mask.astype(np.float64))
    return (np.stack(rgbs), np.stack(xmods), np.stack(masks))


def train_loop(model: Model, pairs: list[ModalityPair],
               cfg: TrainConfig) -> TrainResult:
    if not pairs:
        raise ConfigError("training dataset is empty")
    optimizer = AdamW(list(model.named_parameters()), lr=cfg.lr,
                      weight_decay=cfg.weight_decay)
    rng = SplitMix64(combine(cfg.seed, 0x7EA1))
    result = TrainResult(header=LOSS_CSV_HEADER[model.cfg.task])

    for step, idxs in enumerate(_batches(len(pairs), cfg.batch,
                                         cfg.steps, rng), start=1):
        flips = [cfg.augment and rng.uniform() < 0.5 for _ in idxs]
        rgb, xmod, mask = _assemble(pairs, idxs, flips)
        logits = model(Tensor(rgb), Tensor(xmod) if cfg.use_xmod else None)
        if model.cfg.task == "saliency":
            total, bce, iou_loss = loss_saliency(logits, Tensor(mask[:, None]))
            components = (bce.item(), iou_loss.item())
        else:
            total, ce = loss_semantic(logits, mask.astype(np.int64))
            components = (ce.item(),)
        value = total.item()
        if not np.isfinite(value):
            raise NumericalError(f"loss diverged (non-finite) at step {step}")
        optimizer.zero_grad()
        total.backward()
        optimizer.step()
        result.rows.append((step, value) + components)
    return result


def predict_logits(model: Model, rgb: np.ndarray,
                   xmod: np.ndarray | None = None) -> Tensor:
    """Model logits for one input, recording no graph.  A NaN or infinite
    logit raises ``NumericalError``; numpy's overflow warnings on the way
    there are silenced, so that error is the one report of it."""
    with no_grad(), np.errstate(over="ignore", invalid="ignore",
                                divide="ignore"):
        logits = model(Tensor(rgb), None if xmod is None else Tensor(xmod))
    if bad := np.count_nonzero(~np.isfinite(logits.data)):
        raise NumericalError(f"prediction holds {bad} non-finite values")
    return logits


def predict_prob(model: Model, pair: ModalityPair,
                 use_xmod: bool = True) -> np.ndarray:
    """Foreground probability map (H, W) for one sample."""
    logits = predict_logits(model, pair.rgb, pair.xmod if use_xmod else None)
    return sigmoid(logits).data[0]


def mean_soft_iou(model: Model, pairs: list[ModalityPair],
                  use_xmod: bool = True) -> float:
    """Mean foreground IoU of predictions thresholded at 0.5 over a set."""
    scores = [binary_iou(predict_prob(model, p, use_xmod) >= 0.5, p.mask)
              for p in pairs]
    return float(np.mean(scores))


def make_synthetic_pairs(count: int, kappa: float, resolution, seed: int,
                         **kwargs) -> list[ModalityPair]:
    cfg = SceneConfig(resolution=tuple(resolution), kappa=kappa, seed=seed,
                      **kwargs)
    return [generate_scene(cfg, i) for i in range(count)]


# ------------------------------------------------------------- harnesses

def overfit_harness(steps: int = 500, lr: float = 2e-3,
                    weight_decay: float = 0.01, data_seed: int = 11,
                    model_seed: int = 0, train_seed: int = 5):
    """Memorize 8 half-camouflaged scenes at 32x32 with the toy model.

    Returns (mean probability-level soft IoU over the training set, the
    training result).  The committed configuration reaches > 0.95 within
    500 steps.
    """
    from .losses import soft_iou
    from .model import TOY_CONFIG, Model
    pairs = make_synthetic_pairs(8, kappa=0.5, resolution=(32, 32),
                                 seed=data_seed, occluder_density=0.0)
    model = Model(TOY_CONFIG, seed=model_seed)
    cfg = TrainConfig(lr=lr, weight_decay=weight_decay, batch=4, steps=steps,
                      seed=train_seed)
    result = train_loop(model, pairs, cfg)
    scores = [soft_iou(Tensor(predict_prob(model, p)),
                       Tensor(p.mask.astype(np.float64))).item()
              for p in pairs]
    return float(np.mean(scores)), result


def fusion_ablation(seeds=(0, 1, 2), steps: int = 120, lr: float = 2e-3,
                    data_seed: int = 21, count: int = 64,
                    holdout: int = 16):
    """Hidden-object fusion benefit at kappa = 1.

    Trains a dual-modality model and an RGB-only (self-fusion) model with
    identical budgets per seed and returns per-seed held-out foreground
    IoU pairs plus the median gap.
    """
    from .blocks import StageConfig
    from .model import Model, ModelConfig
    cfg64 = ModelConfig(
        stages=StageConfig(patch=4, depths=(2, 2), channels=(16, 32)),
        state=4, num_classes=1, task="saliency", resolution=(64, 64))
    pairs = make_synthetic_pairs(count, kappa=1.0, resolution=(64, 64),
                                 seed=data_seed)
    train_pairs, held = pairs[:-holdout], pairs[-holdout:]
    rows = []
    for seed in seeds:
        scores = {}
        for use_xmod in (True, False):
            model = Model(cfg64, seed=seed)
            tc = TrainConfig(lr=lr, weight_decay=0.01, batch=4, steps=steps,
                             seed=1000 + seed, use_xmod=use_xmod)
            train_loop(model, train_pairs, tc)
            scores[use_xmod] = mean_soft_iou(model, held, use_xmod=use_xmod)
        rows.append({"seed": seed, "dual": scores[True],
                     "rgb_only": scores[False],
                     "gap": scores[True] - scores[False]})
    median_gap = float(np.median([r["gap"] for r in rows]))
    return rows, median_gap
