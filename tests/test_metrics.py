import math
import tracemalloc

import numpy as np
import pytest

from scanseg.errors import DimensionError, DomainError, NumericalError
from scanseg import metrics
from scanseg.metrics import (MetricsReport, SaliencyPair, binary_iou,
                             confusion_matrix, e_measure, evaluate_saliency,
                             evaluate_semantic, miou_macc, nearest_foreground,
                             s_measure, weighted_fbeta)
from scanseg.rng import SplitMix64

EPS = float(np.finfo(np.float64).eps)


def rand(shape, seed=0):
    return SplitMix64(seed).uniform_array(shape)


def random_blob_gt(h, w, seed):
    """Non-degenerate random binary mask."""
    r = SplitMix64(seed)
    while True:
        cy, cx = r.uniform(0, h), r.uniform(0, w)
        ry, rx = r.uniform(1, h / 2 + 1), r.uniform(1, w / 2 + 1)
        ys, xs = np.mgrid[0:h, 0:w]
        gt = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        if 0 < gt.sum() < h * w:
            return gt


# ------------------------------------------------- independent transcriptions

def s_measure_reference(pred, gt, alpha=0.5):
    """Loop-level walkthrough of the structure measure definition."""
    rows, cols = gt.shape
    y_mean = gt.sum() / (rows * cols)
    if y_mean == 0:
        return max(0.0, min(1.0, 1.0 - pred.mean()))
    if y_mean == 1:
        return max(0.0, min(1.0, pred.mean()))

    def object_term(vals):
        n = len(vals)
        if n == 0:
            return 0.0
        x = sum(vals) / n
        sig = math.sqrt(sum((v - x) ** 2 for v in vals) / (n - 1)) if n > 1 else 0.0
        return 2.0 * x / (x * x + 1.0 + sig + EPS)

    fg = [pred[i, j] for i in range(rows) for j in range(cols) if gt[i, j]]
    bg = [1.0 - pred[i, j] for i in range(rows) for j in range(cols)
          if not gt[i, j]]
    s_obj = y_mean * object_term(fg) + (1 - y_mean) * object_term(bg)

    total = gt.sum()
    x_c = math.floor(sum((j + 1) * gt[:, j].sum() for j in range(cols)) / total + 0.5)
    y_c = math.floor(sum((i + 1) * gt[i, :].sum() for i in range(rows)) / total + 0.5)
    area = rows * cols
    weights = [x_c * y_c / area, (cols - x_c) * y_c / area,
               x_c * (rows - y_c) / area, 0.0]
    weights[3] = 1.0 - weights[0] - weights[1] - weights[2]
    quads = [(slice(0, y_c), slice(0, x_c)), (slice(0, y_c), slice(x_c, cols)),
             (slice(y_c, rows), slice(0, x_c)), (slice(y_c, rows), slice(x_c, cols))]

    def ssim_term(p, g):
        n = p.size
        if n == 0:
            return 0.0
        x = p.mean()
        y = g.mean()
        if n > 1:
            sx = ((p - x) ** 2).sum() / (n - 1)
            sy = ((g - y) ** 2).sum() / (n - 1)
            sxy = ((p - x) * (g - y)).sum() / (n - 1)
        else:
            sx = sy = sxy = 0.0
        a4 = 4 * x * y * sxy
        b = (x * x + y * y) * (sx + sy)
        if a4 != 0:
            return a4 / (b + EPS)
        return 1.0 if b == 0 else 0.0

    s_reg = sum(w * ssim_term(pred[q], gt[q].astype(float))
                for w, q in zip(weights, quads))
    return max(0.0, min(1.0, alpha * s_obj + (1 - alpha) * s_reg))


def wfb_reference(pred, gt, beta2=1.0):
    """Straight-line weighted-F transcription with brute-force distances."""
    rows, cols = gt.shape
    if gt.sum() == 0:
        return 0.0
    e = np.abs(pred - gt.astype(float))
    fg = [(i, j) for i in range(rows) for j in range(cols) if gt[i, j]]
    d2 = np.zeros((rows, cols))
    et = e.copy()
    for i in range(rows):
        for j in range(cols):
            if gt[i, j]:
                continue
            best = min(fg, key=lambda s: 2 * ((i - s[0]) ** 2 + (j - s[1]) ** 2)
                       + e[s[0], s[1]])
            d2[i, j] = (i - best[0]) ** 2 + (j - best[1]) ** 2
            et[i, j] = e[best[0], best[1]]
    k = np.zeros((7, 7))
    for dy in range(-3, 4):
        for dx in range(-3, 4):
            k[dy + 3, dx + 3] = math.exp(-(dy * dy + dx * dx) / 50.0)
    k /= k.sum()
    ea = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for dy in range(-3, 4):
                for dx in range(-3, 4):
                    y, x = i + dy, j + dx
                    if 0 <= y < rows and 0 <= x < cols:
                        acc += k[dy + 3, dx + 3] * et[y, x]
            ea[i, j] = acc
    min_e_ea = e.copy()
    for i in range(rows):
        for j in range(cols):
            if gt[i, j] and ea[i, j] < e[i, j]:
                min_e_ea[i, j] = ea[i, j]
    b = np.ones((rows, cols))
    for i in range(rows):
        for j in range(cols):
            if not gt[i, j]:
                b[i, j] = 2.0 - math.exp(math.log(0.5) / 5.0 * math.sqrt(d2[i, j]))
    ew = min_e_ea * b
    tpw = gt.sum() - ew[gt].sum()
    fpw = ew[~gt].sum()
    recall = 1.0 - ew[gt].mean()
    precision = tpw / (EPS + tpw + fpw)
    return (1 + beta2) * recall * precision / (EPS + recall + beta2 * precision)


# ---------------------------------------------------------------- S-measure

def test_s_measure_perfect_binary():
    gt = random_blob_gt(8, 9, seed=1)
    assert abs(s_measure(gt.astype(float), gt) - 1.0) < 1e-9


def test_s_measure_empty_gt_fallback():
    gt = np.zeros((5, 5))
    assert s_measure(np.zeros((5, 5)), gt) == 1.0
    assert abs(s_measure(np.full((5, 5), 0.25), gt) - 0.75) < 1e-12


def test_s_measure_full_gt_fallback():
    gt = np.ones((4, 6))
    assert abs(s_measure(np.full((4, 6), 0.8), gt) - 0.8) < 1e-12


def test_s_measure_inverted_half_image_walkthrough():
    # 4x4, foreground = left half; prediction = 1 - GT.
    # S_object: masked foreground prediction is all zeros -> O_FG = 0; the
    # background term uses 1 - pred = 0 on background -> O_BG = 0; S_obj = 0.
    # Centroid (1-indexed): X = round((1*4 + 2*4)/8) = round(1.5) = 2,
    # Y = round((1+2+3+4)*2/8) = round(2.5) = 3.
    # Weights: w1 = 6/16, w2 = 6/16, w3 = 2/16, w4 = 2/16.  Every quadrant is
    # constant in both maps -> each regional ssim hits the alpha=0, beta=0
    # degenerate rule and scores 1 -> S_region = 1.
    # S = 0.5*0 + 0.5*1 = 0.5.
    gt = np.zeros((4, 4))
    gt[:, :2] = 1.0
    pred = 1.0 - gt
    assert abs(s_measure(pred, gt) - 0.5) < 1e-12
    assert abs(s_measure_reference(pred, gt > 0.5) - 0.5) < 1e-12


def test_s_measure_matches_reference_transcription():
    for seed in range(6):
        gt = random_blob_gt(7, 6, seed=10 + seed)
        pred = rand((7, 6), seed=20 + seed)
        got = s_measure(pred, gt)
        want = s_measure_reference(pred.copy(), gt.copy())
        assert abs(got - want) < 1e-12, (seed, got, want)


def test_s_measure_shape_mismatch():
    with pytest.raises(DimensionError):
        s_measure(np.zeros((3, 3)), np.zeros((3, 4)))


# ---------------------------------------------------------------- E-measure

def test_e_measure_perfect():
    gt = random_blob_gt(6, 8, seed=2)
    assert abs(e_measure(gt.astype(float), gt) - 1.0) < 1e-9


def test_e_measure_inverted_balanced_walkthrough():
    # GT is half foreground; pred = 1 - GT binarizes (mean 0.5 -> threshold
    # 1.0, >=) back to 1 - GT.  Centered maps are exact negations, so the
    # alignment is -1 everywhere and the enhanced value (1 + xi)^2/4 = 0.
    gt = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = 1.0 - gt
    assert e_measure(pred, gt) < 1e-12


def test_e_measure_all_ones():
    gt = np.ones((3, 3))
    assert abs(e_measure(np.ones((3, 3)), gt) - 1.0) < 1e-15


def test_e_measure_empty_gt():
    gt = np.zeros((3, 3))
    pred = np.zeros((3, 3))
    # threshold 0 binarizes everything to 1; degenerate rule scores 1 - FM.
    assert abs(e_measure(pred, gt) - 0.0) < 1e-15


# ---------------------------------------------------------------- weighted F

def test_wfb_perfect():
    gt = random_blob_gt(7, 7, seed=3)
    assert abs(weighted_fbeta(gt.astype(float), gt) - 1.0) < 1e-9


def test_wfb_all_zero_prediction():
    # Object kept >= 3 px from every border so the 7x7 smoothing window of
    # each foreground pixel stays inside the image; every propagated error
    # is then exactly 1 and the weighted recall is exactly 0.
    gt = np.zeros((12, 12), dtype=bool)
    gt[4:8, 4:8] = True
    assert weighted_fbeta(np.zeros((12, 12)), gt) == 0.0


def test_wfb_empty_gt_defined_zero():
    assert weighted_fbeta(rand((5, 5), seed=5), np.zeros((5, 5))) == 0.0


def test_wfb_far_false_positive_ordering_and_values():
    # 2x2 foreground block at the origin; one background pixel mispredicted,
    # either adjacent to the block or in the far corner.  The background
    # weight grows with distance (2 - exp(ln(.5)/5 * d)), so the far error
    # costs more.  Exact values from the straight-line transcription.
    gt = np.zeros((4, 4), dtype=bool)
    gt[:2, :2] = True
    near = gt.astype(float)
    near[0, 2] = 1.0
    far = gt.astype(float)
    far[3, 3] = 1.0
    f_near = weighted_fbeta(near, gt)
    f_far = weighted_fbeta(far, gt)
    assert abs(f_near - wfb_reference(near, gt)) < 1e-12
    assert abs(f_far - wfb_reference(far, gt)) < 1e-12
    assert f_far < f_near


def test_wfb_matches_reference_transcription():
    for seed in range(4):
        gt = random_blob_gt(6, 7, seed=30 + seed)
        pred = rand((6, 7), seed=40 + seed)
        got = weighted_fbeta(pred, gt)
        want = wfb_reference(pred.copy(), gt.copy())
        assert abs(got - want) < 1e-12, (seed, got, want)


def test_nearest_foreground_matches_brute_force():
    for seed in range(5):
        gt = random_blob_gt(6, 5, seed=50 + seed)
        e = rand((6, 5), seed=60 + seed)
        d2, et = nearest_foreground(gt, e)
        for i in range(6):
            for j in range(5):
                cands = [(2 * ((i - y) ** 2 + (j - x) ** 2) + e[y, x], y, x)
                         for y in range(6) for x in range(5) if gt[y, x]]
                c, y, x = min(cands)
                assert d2[i, j] == (i - y) ** 2 + (j - x) ** 2
                assert et[i, j] == e[y, x]


def nearest_foreground_oracle(gt, e):
    """Lexicographic minimum of (dist^2, error) over every foreground pixel."""
    fy, fx = np.nonzero(gt)
    ef = e[fy, fx]
    rows, cols = gt.shape
    d2 = np.empty((rows, cols), dtype=np.int64)
    et = np.empty((rows, cols))
    xs = np.arange(cols)[:, None]
    for i in range(rows):
        dist = (i - fy) ** 2 + (xs - fx) ** 2
        d2[i] = dist.min(axis=1)
        et[i] = np.where(dist == d2[i][:, None], ef, np.inf).min(axis=1)
    return d2, et


def _oracle_case(name, seed):
    r = SplitMix64(seed)
    shape = (64, 64) if name.startswith("64") else (40, 57)
    if name.startswith(("40", "64")):
        density = float(name.split("@")[1])
        gt = r.uniform_array(shape) < density
    else:
        gt = np.zeros(shape, dtype=bool)
        if name == "single-pixel":
            gt[17, 31] = True
        elif name == "border-row":
            gt[-1] = r.uniform_array(shape[1]) < 0.3
        elif name == "border-column":
            gt[:, 0] = r.uniform_array(shape[0]) < 0.3
        else:  # one foreground column
            gt[:, 20] = True
    e = r.uniform_array(shape)
    # About 30% of the errors share one value, so distance ties meet equal
    # errors as well as unequal ones.
    e[r.uniform_array(shape) < 0.3] = r.uniform()
    return gt, e


_ORACLE_CASES = ["40x57@0.01", "40x57@0.1", "40x57@0.5",
                 "64x64@0.01", "64x64@0.1", "64x64@0.5",
                 "single-pixel", "border-row", "border-column", "one-column"]


@pytest.mark.parametrize("name", _ORACLE_CASES)
def test_nearest_foreground_matches_oracle_with_ties(name, monkeypatch):
    gt, e = _oracle_case(name, seed=500 + _ORACLE_CASES.index(name))
    assert gt.any()
    want_d2, want_et = nearest_foreground_oracle(gt, e)
    # Row-pass blocks of one entry, of a few target columns of one row, and
    # of whole rows (the default).
    for entries in (1, 250, metrics._ROW_PASS_ENTRIES):
        monkeypatch.setattr(metrics, "_ROW_PASS_ENTRIES", entries)
        d2, et = nearest_foreground(gt, e)
        assert d2.dtype == np.int64
        assert np.array_equal(d2, want_d2), entries
        assert np.array_equal(et, want_et), entries


def test_nearest_foreground_rejects_mask_without_foreground():
    with pytest.raises(DomainError, match="no foreground"):
        nearest_foreground(np.zeros((4, 5), dtype=bool), rand((4, 5)))


def test_nearest_foreground_memory_bounded_at_full_resolution():
    # FULL_CONFIG's 480x640: an unblocked row pass would hold a
    # (480, 640, 640) int64 temporary, about 1.5 GiB.
    gt = SplitMix64(7).uniform_array((480, 640)) < 0.05
    e = rand((480, 640), seed=8)
    tracemalloc.start()
    try:
        d2, et = nearest_foreground(gt, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak / 2 ** 20
    assert d2[gt].max() == 0 and np.array_equal(et[gt], e[gt])


# ---------------------------------------------------------------- mIoU / mAcc

def test_miou_macc_perfect():
    for k in (2, 5):
        labels = np.arange(k).repeat(3)
        cm = confusion_matrix(labels, labels, k)
        miou, macc, _, _ = miou_macc(cm)
        assert miou == 1.0 and macc == 1.0


def test_miou_macc_hand_counted_case():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    cm = confusion_matrix(pred, gt, 2)
    miou, macc, iou, acc = miou_macc(cm)
    assert iou[0] == 0.5 and abs(iou[1] - 2 / 3) < 1e-15
    # mean([1/2, 2/3]) sits one rounding of the final mean from double(7/12)
    assert miou == pytest.approx(7 / 12, abs=1e-15)
    assert acc[0] == 0.5 and acc[1] == 1.0
    assert macc == 0.75


def test_miou_absent_class_excluded():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    cm = confusion_matrix(pred, gt, 3)  # class 2 never appears
    miou, macc, iou, acc = miou_macc(cm)
    assert miou == 1.0 and macc == 1.0
    assert np.isnan(iou[2])


def test_miou_ignore_index():
    gt = np.array([0, 255, 1, 1])
    pred = np.array([0, 0, 0, 1])
    cm = confusion_matrix(pred, gt, 2, ignore_index=255)
    assert cm.sum() == 3


def test_miou_empty_matrix_rejected():
    with pytest.raises(DomainError):
        miou_macc(np.zeros((2, 2)))


# ---------------------------------------------------------------- properties

def test_all_metrics_identity_is_one():
    gt = random_blob_gt(8, 8, seed=6)
    pred = gt.astype(float)
    assert abs(s_measure(pred, gt) - 1.0) < 1e-9
    assert abs(e_measure(pred, gt) - 1.0) < 1e-9
    assert abs(weighted_fbeta(pred, gt) - 1.0) < 1e-9
    assert binary_iou(pred, gt) == 1.0


def test_monotonicity_flipping_correct_pixels():
    gt = random_blob_gt(8, 8, seed=7)
    pred = gt.astype(float)
    fg = np.argwhere(gt)
    prev_f = weighted_fbeta(pred, gt)
    prev_iou = None
    cm = confusion_matrix((pred >= 0.5).astype(int), gt.astype(int), 2)
    prev_miou = miou_macc(cm)[0]
    for k in range(min(4, len(fg))):
        y, x = fg[k]
        pred[y, x] = 0.0
        f = weighted_fbeta(pred, gt)
        cm = confusion_matrix((pred >= 0.5).astype(int), gt.astype(int), 2)
        miou = miou_macc(cm)[0]
        assert f <= prev_f + 1e-12
        assert miou <= prev_miou + 1e-12
        prev_f, prev_miou = f, miou
    _ = prev_iou


def test_transpose_invariance():
    for seed in range(4):
        gt = random_blob_gt(6, 9, seed=70 + seed)
        pred = rand((6, 9), seed=80 + seed)
        assert s_measure(pred, gt) == s_measure(pred.T, gt.T)
        assert e_measure(pred, gt) == e_measure(pred.T, gt.T)
        assert weighted_fbeta(pred, gt) == weighted_fbeta(pred.T, gt.T)


def test_saliency_report_mean_equals_mean_of_per_image():
    pairs = [SaliencyPair(rand((6, 6), seed=90 + i), random_blob_gt(6, 6, seed=95 + i))
             for i in range(5)]
    rep = evaluate_saliency(pairs)
    for key in ("s_alpha", "e_phi", "f_beta_w"):
        manual = sum(r[key] for r in rep.per_image) / len(rep.per_image)
        assert abs(rep.means[key] - manual) < 1e-12


def test_semantic_report_pools_confusion():
    gt = [np.array([[0, 0], [1, 1]]), np.array([[1, 1], [0, 0]])]
    pred = [np.array([[0, 1], [1, 1]]), np.array([[1, 1], [0, 0]])]
    rep = evaluate_semantic(pred, gt, num_classes=2)
    pooled = confusion_matrix(pred[0], gt[0], 2) + confusion_matrix(pred[1], gt[1], 2)
    assert np.array_equal(rep.confusion, pooled)
    miou, macc, _, _ = miou_macc(pooled)
    assert abs(rep.means["miou"] - miou) < 1e-12
    assert abs(rep.means["macc"] - macc) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_prediction_rejected(bad):
    pred = rand((4, 4), seed=9)
    pred[2, 1] = bad
    gt = random_blob_gt(4, 4, seed=10)
    with pytest.raises(NumericalError, match="1 non-finite"):
        SaliencyPair(pred, gt)
    for metric in (s_measure, e_measure, weighted_fbeta):
        with pytest.raises(NumericalError):
            metric(pred, gt)


def test_empty_gt_flagged_in_report():
    pairs = [SaliencyPair(np.zeros((4, 4)), np.zeros((4, 4)))]
    rep = evaluate_saliency(pairs, ids=["im0"])
    assert rep.empty_gt_images == ["im0"]


def test_evaluators_score_a_one_pass_iterable_as_a_list():
    # scanseg eval hands both evaluators generators, one prediction at a time.
    ids = [f"im{i}" for i in range(4)]
    pairs = [SaliencyPair(rand((8, 8), seed=120 + i),
                          random_blob_gt(8, 8, seed=125 + i)) for i in range(3)]
    pairs.append(SaliencyPair(rand((8, 8), seed=124), np.zeros((8, 8))))
    listed = evaluate_saliency(pairs, ids=ids)
    once = evaluate_saliency((p for p in pairs), ids=ids)
    assert repr(once) == repr(listed)  # repr spells every float bitwise
    assert once.empty_gt_images == ["im3"]

    r = SplitMix64(130)
    preds = [np.floor(3 * r.uniform_array((8, 8))).astype(np.int64)
             for _ in ids]
    gts = [np.floor(3 * r.uniform_array((8, 8))).astype(np.int64)
           for _ in ids]
    listed = evaluate_semantic(preds, gts, num_classes=3, ids=ids)
    once = evaluate_semantic(iter(preds), (g for g in gts), num_classes=3,
                             ids=ids)
    assert repr(once) == repr(listed)
    assert [row["id"] for row in once.per_image] == ids
