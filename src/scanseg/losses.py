"""Training losses.

Saliency: binary cross-entropy with logits plus a soft-IoU term, equally
weighted.  The BCE uses the stable identity softplus(z) - z*t; the soft-IoU
loss is 1 - (sum(p*t) + eps) / (sum(p) + sum(t) - sum(p*t) + eps), which is
exactly zero for a perfect hard prediction.

Semantic: mean per-pixel cross-entropy over non-ignored pixels; when every
pixel is ignored the loss is defined as zero and a warning is emitted.  A
label outside [0, K) other than the ignore index is a ``DomainError``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import Tensor, log_softmax, sigmoid, softplus
from .errors import DimensionError, DomainError

__all__ = ["loss_saliency", "loss_semantic", "soft_iou"]

_IOU_EPS = 1e-8


def soft_iou(probs: Tensor, mask: Tensor) -> Tensor:
    """Differentiable intersection-over-union of a probability map."""
    inter = (probs * mask).sum()
    union = probs.sum() + mask.sum() - inter
    return (inter + _IOU_EPS) / (union + _IOU_EPS)


def loss_saliency(logits: Tensor, mask: Tensor):
    """Returns (total, bce, iou_loss); mask is {0,1} shaped like logits."""
    if logits.shape != mask.shape:
        raise DimensionError(
            f"logits {logits.shape} and mask {mask.shape} disagree")
    bce = (softplus(logits) - logits * mask).mean()
    iou_loss = 1.0 - soft_iou(sigmoid(logits), mask)
    return bce + iou_loss, bce, iou_loss


def loss_semantic(logits: Tensor, labels: np.ndarray,
                  ignore_index: int = 255):
    """Mean cross-entropy over labeled pixels.

    ``logits`` is (..., K, H, W); ``labels`` an integer map broadcastable to
    the non-class axes.  Returns (total, ce).
    """
    k = logits.shape[-3]
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-3] + logits.shape[-2:]:
        raise DimensionError(
            f"labels {labels.shape} do not match logits {logits.shape}")
    valid = labels != ignore_index
    bad = labels[valid & ((labels < 0) | (labels >= k))]
    if bad.size:
        raise DomainError(f"label {bad[0]} outside [0, {k}) and not {ignore_index}")
    n_valid = int(valid.sum())
    if n_valid == 0:
        warnings.warn("all pixels ignored; semantic loss defined as zero")
        zero = Tensor(0.0) * logits.sum()
        return zero, zero
    axis = logits.ndim - 3
    ls = log_softmax(logits, axis=axis)
    onehot = np.zeros(logits.shape)
    safe = np.where(valid, labels, 0)
    np.put_along_axis(onehot, np.expand_dims(safe, axis=axis), 1.0, axis=axis)
    onehot *= np.expand_dims(valid, axis=axis)
    ce = -(ls * Tensor(onehot)).sum() * (1.0 / n_valid)
    return ce, ce
