"""Concealed-object and segmentation evaluation metrics.

Saliency-style metrics follow their originating definitions:

* structure measure: S = alpha * S_object + (1 - alpha) * S_region with the
  region term computed on the four quadrants split at the ground-truth
  centroid (1-indexed, round-half-away, as in the reference code) and the
  object term from the foreground/background mean-and-spread score;
  degenerate ground truths fall back to 1 - mean(pred) (empty) or
  mean(pred) (full), and the final value is clamped to [0, 1].
* enhanced alignment: the prediction is binarized at min(2*mean, 1), both
  maps are mean-centered, and the per-pixel alignment
  2ab / (a^2 + b^2 + eps) is mapped through (1 + xi)^2 / 4 and averaged
  over pixels.  Degenerate ground truths score 1 - FM or FM directly.
* weighted F: errors |pred - gt| are propagated to the background from the
  nearest foreground pixel, smoothed with a 7x7 sigma-5 Gaussian (only
  reducing error on foreground pixels), and weighted on the background by
  2 - exp(ln(0.5)/5 * dist); beta^2 = 1.  Empty ground truth is defined as
  0 and flagged.

Ties in "nearest foreground pixel" are broken toward the smaller error
value, which keeps the measure exactly invariant under transposition; the
reference implementation leaves the choice to its distance transform.
Errors lie in [0, 1] and 2*dist^2 steps by 2 or more, so the choice is
nearest-first; ``nearest_foreground`` makes it exactly in a column pass
and a row pass blocked to 512 KiB of temporaries.

Segmentation metrics pool one confusion matrix over the dataset;
IoU_k = tp/(tp+fp+fn) and acc_k = tp/(tp+fn) are averaged over the classes
present in the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericalError

__all__ = [
    "SaliencyPair", "MetricsReport", "s_measure", "e_measure",
    "weighted_fbeta", "binary_iou", "confusion_matrix", "miou_macc",
    "evaluate_saliency", "evaluate_semantic",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SaliencyPair:
    """Real-valued prediction, clipped to [0, 1], with a binary ground truth;
    a NaN or infinite prediction raises ``NumericalError``."""
    pred: np.ndarray
    gt: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.pred, dtype=np.float64)
        if bad := np.count_nonzero(~np.isfinite(pred)):
            raise NumericalError(f"prediction holds {bad} non-finite values")
        pred = np.clip(pred, 0.0, 1.0)
        gt = np.asarray(self.gt) > 0.5
        if pred.shape != gt.shape or pred.ndim != 2:
            raise DimensionError(
                f"prediction {pred.shape} and ground truth {gt.shape} must "
                f"be equal 2-D maps")
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "gt", gt)


def _validate(pred, gt):
    pair = SaliencyPair(pred, gt)
    return pair.pred, pair.gt


# ------------------------------------------------------------ structure measure

def _object_score(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    x = float(values.mean())
    sigma = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)

def _s_object(pred: np.ndarray, gt: np.ndarray) -> float:
    o_fg = _object_score(pred[gt])
    o_bg = _object_score((1.0 - pred)[~gt])
    u = float(gt.mean())
    return u * o_fg + (1.0 - u) * o_bg


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5))


def _centroid(gt: np.ndarray) -> tuple[int, int]:
    """1-indexed (X=column, Y=row) mass centroid with reference rounding."""
    rows, cols = gt.shape
    total = gt.sum()
    if total == 0:
        return _round_half_away(cols / 2.0), _round_half_away(rows / 2.0)
    js = np.arange(1, cols + 1)
    is_ = np.arange(1, rows + 1)
    x = _round_half_away(float((gt.sum(axis=0) * js).sum()) / total)
    y = _round_half_away(float((gt.sum(axis=1) * is_).sum()) / total)
    return x, y


def _region_ssim(p: np.ndarray, g: np.ndarray) -> float:
    n = p.size
    if n == 0:
        return 0.0
    x, y = float(p.mean()), float(g.mean())
    if n > 1:
        sx = float(((p - x) ** 2).sum()) / (n - 1)
        sy = float(((g - y) ** 2).sum()) / (n - 1)
        sxy = float(((p - x) * (g - y)).sum()) / (n - 1)
    else:
        sx = sy = sxy = 0.0
    alpha = 4.0 * x * y * sxy
    beta = (x * x + y * y) * (sx + sy)
    if alpha != 0.0:
        return alpha / (beta + _EPS)
    return 1.0 if beta == 0.0 else 0.0


def _s_region(pred: np.ndarray, gt: np.ndarray) -> float:
    rows, cols = gt.shape
    x, y = _centroid(gt)
    area = rows * cols
    w1 = (x * y) / area
    w2 = ((cols - x) * y) / area
    w3 = (x * (rows - y)) / area
    w4 = 1.0 - w1 - w2 - w3
    quads = [
        (pred[0:y, 0:x], gt[0:y, 0:x], w1),
        (pred[0:y, x:], gt[0:y, x:], w2),
        (pred[y:, 0:x], gt[y:, 0:x], w3),
        (pred[y:, x:], gt[y:, x:], w4),
    ]
    return sum(w * _region_ssim(p, g.astype(np.float64))
               for p, g, w in quads if p.size)


def s_measure(pred, gt, alpha: float = 0.5) -> float:
    pred, gt = _validate(pred, gt)
    y = float(gt.mean())
    if y == 0.0:
        score = 1.0 - float(pred.mean())
    elif y == 1.0:
        score = float(pred.mean())
    else:
        score = alpha * _s_object(pred, gt) + (1.0 - alpha) * _s_region(pred, gt)
    return float(min(max(score, 0.0), 1.0))


# ------------------------------------------------------- enhanced alignment

def adaptive_binarize(pred: np.ndarray) -> np.ndarray:
    threshold = min(2.0 * float(pred.mean()), 1.0)
    return pred >= threshold


def e_measure(pred, gt) -> float:
    pred, gt = _validate(pred, gt)
    fm = adaptive_binarize(pred).astype(np.float64)
    dgt = gt.astype(np.float64)
    if gt.sum() == 0:
        enhanced = 1.0 - fm
    elif (~gt).sum() == 0:
        enhanced = fm
    else:
        a = dgt - dgt.mean()
        b = fm - fm.mean()
        align = 2.0 * a * b / (a * a + b * b + _EPS)
        enhanced = (align + 1.0) ** 2 / 4.0
    return float(enhanced.mean())


# ------------------------------------------------------------- weighted F

# The row pass's (rows, targets, sources) temporary holds at most this many
# int64 entries, 512 KiB, at any image up to 65,536 columns wide.
_ROW_PASS_ENTRIES = 1 << 16


def nearest_foreground(gt: np.ndarray, errors: np.ndarray):
    """Squared distance to, and error value at, the nearest foreground pixel.

    The source minimizes 2*dist^2 + error.  Errors lie in [0, 1] and 2*dist^2
    steps by 2 or more, so it is the nearest foreground pixel, on a distance
    tie the one with the smaller error (sources tying on both give the same
    outputs): the exact int64 key dist^2 * n + rank of the error.  The
    column pass keeps the smaller key of the nearest foreground row above
    and below each pixel (running max/min of row indices); the row pass
    takes argmin over x' of (x - x')^2 * n + column key[y, x'] in blocks of
    at most ``_ROW_PASS_ENTRIES`` entries.
    """
    rows, cols = gt.shape
    if not gt.any():
        raise DomainError("nearest foreground: the mask has no foreground")
    rank = np.zeros((rows, cols), dtype=np.int64)
    rank[gt] = np.unique(errors[gt], return_inverse=True)[1]
    n = gt.size
    ys, xs = np.arange(rows)[:, None], np.arange(cols)
    # A pixel with no foreground above (below) it in its column gets a source
    # this far outside the image, whose key, whatever rank ``% rows`` reads
    # for it, exceeds every real one.
    far = rows + cols
    above = np.maximum.accumulate(np.where(gt, ys, -far), axis=0)
    below = np.minimum.accumulate(np.where(gt, ys, rows + far)[::-1],
                                  axis=0)[::-1]
    key_above = (ys - above) ** 2 * n + rank[above % rows, xs]
    key_below = (below - ys) ** 2 * n + rank[below % rows, xs]
    src_row = np.where(key_below < key_above, below, above)
    key = np.minimum(key_above, key_below)

    src_col = np.empty((rows, cols), dtype=np.int64)
    bx = min(cols, max(1, _ROW_PASS_ENTRIES // cols))
    by = max(1, _ROW_PASS_ENTRIES // (bx * cols))
    for x0 in range(0, cols, bx):
        dx2 = (xs[x0:x0 + bx, None] - xs) ** 2 * n
        for y0 in range(0, rows, by):
            src_col[y0:y0 + by, x0:x0 + bx] = np.argmin(
                dx2 + key[y0:y0 + by, None, :], axis=-1)
    ry = src_row[ys, src_col]
    return (ys - ry) ** 2 + (xs - src_col) ** 2, errors[ry, src_col]


def _gaussian_kernel(size: int = 7, sigma: float = 5.0) -> np.ndarray:
    half = size // 2
    off = np.arange(-half, half + 1)
    g = np.exp(-(off[:, None] ** 2 + off[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _filter_same(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    h, w = img.shape
    padded = np.pad(img, ((ph, ph), (pw, pw)))
    out = np.zeros_like(img)
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[dy, dx] * padded[dy:dy + h, dx:dx + w]
    return out


def weighted_fbeta(pred, gt, beta2: float = 1.0) -> float:
    pred, gt = _validate(pred, gt)
    if gt.sum() == 0:
        return 0.0
    dgt = gt.astype(np.float64)
    e = np.abs(pred - dgt)
    d2, et_src = nearest_foreground(gt, e)
    et = np.where(gt, e, et_src)
    ea = _filter_same(et, _gaussian_kernel(7, 5.0))
    min_e_ea = e.copy()
    sel = gt & (ea < e)
    min_e_ea[sel] = ea[sel]
    b = np.ones_like(e)
    b[~gt] = 2.0 - np.exp(math.log(0.5) / 5.0 * np.sqrt(d2[~gt]))
    ew = min_e_ea * b
    tpw = dgt.sum() - ew[gt].sum()
    fpw = ew[~gt].sum()
    recall = 1.0 - float(ew[gt].mean())
    precision = tpw / (_EPS + tpw + fpw)
    return float((1.0 + beta2) * recall * precision
                 / (_EPS + recall + beta2 * precision))


# ------------------------------------------------------------ segmentation

def binary_iou(pred_binary, gt) -> float:
    pred = np.asarray(pred_binary) > 0.5
    gtb = np.asarray(gt) > 0.5
    union = np.logical_or(pred, gtb).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gtb).sum() / union)


def confusion_matrix(pred_labels, gt_labels, num_classes: int,
                     ignore_index: int | None = None) -> np.ndarray:
    pred = np.asarray(pred_labels).reshape(-1)
    gt = np.asarray(gt_labels).reshape(-1)
    if pred.shape != gt.shape:
        raise DimensionError(
            f"label maps disagree: {pred.shape} vs {gt.shape}")
    keep = np.ones(gt.shape, dtype=bool)
    if ignore_index is not None:
        keep = gt != ignore_index
    idx = gt[keep] * num_classes + pred[keep]
    counts = np.bincount(idx.astype(np.int64), minlength=num_classes ** 2)
    return counts.reshape(num_classes, num_classes)


def miou_macc(cm: np.ndarray):
    """(mIoU, mAcc, per-class IoU, per-class acc) over classes in the GT."""
    cm = np.asarray(cm, dtype=np.float64)
    if cm.sum() == 0:
        raise DomainError("confusion matrix is empty")
    tp = np.diag(cm)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    present = cm.sum(axis=1) > 0
    iou = np.full(cm.shape[0], np.nan)
    acc = np.full(cm.shape[0], np.nan)
    iou[present] = tp[present] / (tp[present] + fp[present] + fn[present])
    acc[present] = tp[present] / (tp[present] + fn[present])
    return (float(np.mean(iou[present])), float(np.mean(acc[present])),
            iou, acc)


# ------------------------------------------------------------ dataset reports

@dataclass
class MetricsReport:
    """Per-image and aggregate metric values."""
    task: str
    per_image: list = field(default_factory=list)
    means: dict = field(default_factory=dict)
    empty_gt_images: list = field(default_factory=list)
    confusion: np.ndarray | None = None

    def table(self) -> str:
        cols = list(self.means)
        head = " | ".join(f"{c:>10}" for c in ["n"] + cols)
        vals = " | ".join(f"{self.means[c]:>10.4f}" for c in cols)
        count = f"{len(self.per_image):>10}"
        return "\n".join([head, "-" * len(head), f"{count} | {vals}"])


def evaluate_saliency(pairs, ids=None) -> MetricsReport:
    report = MetricsReport(task="saliency")
    ids = ids if ids is not None else [str(i) for i in range(len(pairs))]
    for pid, pair in zip(ids, pairs):
        pred, gt = _validate(pair.pred, pair.gt)
        if gt.sum() == 0:
            report.empty_gt_images.append(pid)
        row = {
            "id": pid,
            "s_alpha": s_measure(pred, gt),
            "e_phi": e_measure(pred, gt),
            "f_beta_w": weighted_fbeta(pred, gt),
            "iou": binary_iou(pred >= 0.5, gt),
        }
        report.per_image.append(row)
    n = max(len(report.per_image), 1)
    for key in ("s_alpha", "e_phi", "f_beta_w", "iou"):
        report.means[key] = sum(r[key] for r in report.per_image) / n
    return report


def evaluate_semantic(pred_maps, gt_maps, num_classes: int,
                      ignore_index: int | None = None, ids=None) -> MetricsReport:
    report = MetricsReport(task="semantic")
    ids = ids if ids is not None else [str(i) for i in range(len(pred_maps))]
    pooled = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pid, pred, gt in zip(ids, pred_maps, gt_maps):
        cm = confusion_matrix(pred, gt, num_classes, ignore_index)
        pooled += cm
        try:
            miou, macc, _, _ = miou_macc(cm)
        except DomainError:
            miou, macc = float("nan"), float("nan")
        report.per_image.append({"id": pid, "miou": miou, "macc": macc})
    report.confusion = pooled
    miou, macc, _, _ = miou_macc(pooled)
    report.means["miou"] = miou
    report.means["macc"] = macc
    return report
