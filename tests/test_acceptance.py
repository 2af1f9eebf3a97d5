"""Acceptance criteria, one test per criterion, each printing a PASS line.

Reproducing GPU-scale benchmark tables is out of scope at desk scale;
acceptance is property-based: oracle equivalence, gradient
consistency, exact discretization identities, permutation round-trips,
metric oracles, a deterministic overfit run, the fusion-benefit ablation,
the linear-time scaling of the scan, and bitwise round-trips.
"""

import math
import time

import numpy as np
import pytest

from scanseg.rng import SplitMix64


def report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


# ----------------------------------------------------------- 1: scan oracle

def test_criterion_1_scan_oracle_equivalence(monkeypatch):
    from scanseg import scan
    t0 = time.perf_counter()
    r = SplitMix64(1001)
    worst = 0.0
    for case in range(100):
        L = r.randint(1, 64)
        N = r.randint(1, 16)
        D = r.randint(1, 8)
        rr = SplitMix64(5000 + case)
        x = -2.0 + 4.0 * rr.uniform_array((L, D))
        a = -0.05 - 2.0 * rr.uniform_array((D, N))
        b = -1.0 + 2.0 * rr.uniform_array((L, N))
        delta = 0.01 + rr.uniform_array((L, D))
        c = -1.0 + 2.0 * rr.uniform_array((L, N))
        a_bar, b_bar = scan.discretize(a, b, delta)
        y_ref = scan.scan_sequential(x, a_bar, b_bar, c)
        for block in (1, 2, 3, 8, L):
            # Patched so that these short sequences cross block boundaries.
            monkeypatch.setattr(scan, "BLOCK", block)
            y = scan.selective_scan(x, a, b, c, delta).data
            rel = np.max(np.abs(y - y_ref) / (np.abs(y_ref) + 1e-12))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, worst
    assert elapsed < 10.0, elapsed
    report("criterion 1 (scan oracle equivalence)",
           f"100 cases, max rel err {worst:.2e} < 1e-10, {elapsed:.1f}s < 10s")


# --------------------------------------------------------- 2: gradient suite

def test_criterion_2_gradient_suite():
    from scanseg.gradcheck import run_scope
    t0 = time.perf_counter()
    results = run_scope("all")
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)
    model_res = [r for r in results if r.name == "model-tiny-8x8"]
    assert model_res and model_res[0].tolerance == 1e-3
    assert elapsed < 300.0, elapsed
    worst = max(r.max_rel_err for r in results)
    report("criterion 2 (gradient suite)",
           f"{len(results)} checks pass (ops/blocks tol 1e-4, model tol "
           f"1e-3, worst {worst:.2e}), {elapsed:.0f}s < 300s")


# ------------------------------------------------- 3: discretization identities

def test_criterion_3_discretization_identities():
    from scanseg.scan import discretize
    a = -0.05 - 2.0 * SplitMix64(3001).uniform_array((3, 4))
    b = -1.0 + 2.0 * SplitMix64(3002).uniform_array((5, 4))
    a_bar, b_bar = discretize(a, b, np.zeros((5, 3)))
    assert np.max(np.abs(a_bar - 1.0)) < 1e-12
    assert np.max(np.abs(b_bar)) < 1e-12
    tiny = np.full((5, 3), 1e-13)
    a_bar, b_bar = discretize(a, b, tiny)
    assert np.max(np.abs(a_bar - 1.0)) < 1e-12
    assert np.max(np.abs(b_bar)) < 1e-12
    a_bar, _ = discretize(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[math.log(2.0)]]))
    assert abs(a_bar[0, 0, 0] - 0.5) < 1e-15
    report("criterion 3 (discretization identities)",
           "delta->0 gives A_bar->1, B_bar->0 within 1e-12; "
           "A=-1, delta=ln2 gives A_bar=0.5 within 1e-15")


# ------------------------------------------------- 4: permutation round-trips

def test_criterion_4_permutation_roundtrip():
    from scanseg.autodiff import Tensor
    from scanseg.ss2d import cross_merge, cross_scan
    for h in range(1, 7):
        for w in range(1, 7):
            # Each direction's traversal order, read off the scan of a map
            # whose pixels hold their row-major flat index: the two
            # sequences, and each read back to front, as the scan's back
            # way reads it.
            grid = np.arange(float(h * w)).reshape(h, w, 1)
            seqs = cross_scan(Tensor(grid)).data[..., 0].astype(np.int64)
            assert seqs.shape == (2, h * w)
            perms = [seqs[0], seqs[0][::-1], seqs[1], seqs[1][::-1]]
            for perm in perms:
                inv = np.argsort(perm)
                assert np.array_equal(inv[perm], np.arange(h * w))
                assert np.array_equal(perm[inv], np.arange(h * w))
            f = SplitMix64(4000 + h * 7 + w).uniform_array((h, w, 3))
            out = cross_merge(cross_scan(Tensor(f)), h, w)
            assert np.array_equal(out.data, 2.0 * f)
    report("criterion 4 (permutation round-trip)",
           "all four traversal orders (each sequence and its reversal) "
           "invert exactly for (H,W) in [1,6]^2; merge(scan(f)) == 2f "
           "bitwise")


# --------------------------------------------------------- 5: metric oracles

def test_criterion_5_metric_oracles():
    from scanseg.metrics import (confusion_matrix, e_measure, miou_macc,
                                 s_measure, weighted_fbeta)
    gt = np.zeros((10, 12), dtype=bool)
    gt[3:7, 4:9] = True
    pred = gt.astype(float)
    assert abs(s_measure(pred, gt) - 1.0) < 1e-9
    assert abs(e_measure(pred, gt) - 1.0) < 1e-9
    assert abs(weighted_fbeta(pred, gt) - 1.0) < 1e-9
    cm = confusion_matrix(gt.astype(int), gt.astype(int), 2)
    miou, macc, _, _ = miou_macc(cm)
    assert abs(miou - 1.0) < 1e-9 and abs(macc - 1.0) < 1e-9

    cm = confusion_matrix(np.array([[0, 1], [1, 1]]),
                          np.array([[0, 0], [1, 1]]), 2)
    miou, macc, _, _ = miou_macc(cm)
    assert abs(miou - 7.0 / 12.0) < 1e-15
    assert macc == 0.75

    # degenerate ground-truth fallbacks per the originating definitions
    empty = np.zeros((6, 6))
    assert s_measure(np.zeros((6, 6)), empty) == 1.0
    assert abs(s_measure(np.full((6, 6), 0.3), empty) - 0.7) < 1e-12
    full = np.ones((6, 6))
    assert abs(s_measure(np.full((6, 6), 0.8), full) - 0.8) < 1e-12
    assert abs(e_measure(np.ones((6, 6)), full) - 1.0) < 1e-15
    assert weighted_fbeta(SplitMix64(5001).uniform_array((6, 6)), empty) == 0.0
    report("criterion 5 (metric oracles)",
           "perfect scores 1.0 +/- 1e-9; 2x2 case mIoU=7/12 (1e-15), "
           "mAcc=0.75 exact; degenerate fallbacks match")


# --------------------------------------------------------- 6: overfit harness

def test_criterion_6_overfit_harness():
    from scanseg.train import overfit_harness
    t0 = time.perf_counter()
    score, result = overfit_harness(steps=500)
    elapsed = time.perf_counter() - t0
    assert score >= 0.95, score
    assert elapsed < 600.0, elapsed
    lead = np.mean([r[1] for r in result.rows[:50]])
    trail = np.mean([r[1] for r in result.rows[-50:]])
    assert trail < lead
    report("criterion 6 (overfit harness)",
           f"train soft-IoU {score:.4f} >= 0.95 in 500 steps, "
           f"{elapsed:.0f}s < 600s; loss trail50 {trail:.3f} < lead50 "
           f"{lead:.3f}")


def test_criterion_6b_overfit_determinism():
    from scanseg.train import overfit_harness
    score_a, res_a = overfit_harness(steps=12)
    score_b, res_b = overfit_harness(steps=12)
    assert score_a == score_b
    assert res_a.rows == res_b.rows
    report("criterion 6b (overfit determinism)",
           "identical seeds give identical curves and scores")


# --------------------------------------------------------- 7: fusion benefit

def test_criterion_7_fusion_benefit():
    from scanseg.train import fusion_ablation
    t0 = time.perf_counter()
    rows, median_gap = fusion_ablation(seeds=(0, 1, 2), steps=120)
    elapsed = time.perf_counter() - t0
    assert median_gap >= 0.20, rows
    assert elapsed < 2700.0, elapsed
    detail = "; ".join(
        f"seed {r['seed']}: dual {r['dual']:.3f} vs rgb {r['rgb_only']:.3f}"
        for r in rows)
    report("criterion 7 (fusion benefit)",
           f"median held-out IoU gap {median_gap:.3f} >= 0.20 "
           f"({detail}), {elapsed:.0f}s < 2700s")


# --------------------------------------------------------- 8: linear scaling

def test_criterion_8_linear_time_scan():
    from scanseg.bench import fit_exponent, run_bench
    lengths = [1024, 2048, 4096, 8192, 16384, 32768, 65536]
    rows = run_bench(lengths, n=4, d=4, impls=("sequential",), seed=7)
    exponent = fit_exponent(rows, "sequential")
    assert 0.9 <= exponent <= 1.2, exponent
    report("criterion 8 (linear-time property)",
           f"sequential scan time ~ L^{exponent:.3f} in [0.9, 1.2] over "
           f"L in [1024, 65536]")


# ------------------------------------------------- 9: determinism/round-trips

def test_criterion_9_roundtrips_and_determinism(tmp_path):
    from scanseg.autodiff import Tensor
    from scanseg.model import TINY_CONFIG, Model
    from scanseg.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
    from scanseg.train import TrainConfig, make_synthetic_pairs, train_loop

    model = Model(TINY_CONFIG, seed=9)
    rgb = SplitMix64(9001).uniform_array((3, 8, 8))
    before = model(Tensor(rgb)).data
    path = str(tmp_path / "m.ckpt")
    model.save_checkpoint(path)
    other = Model(TINY_CONFIG, seed=77)
    other.load_checkpoint(path)
    assert np.array_equal(other(Tensor(rgb)).data, before)
    params_a = dict(model.named_parameters())
    params_b = dict(other.named_parameters())
    assert all(np.array_equal(params_a[k].data, params_b[k].data)
               for k in params_a)

    img = SplitMix64(9002).uniform_array((3, 6, 5))
    p1 = str(tmp_path / "a.ppm")
    write_ppm(p1, img)
    once = read_ppm(p1)
    write_ppm(p1, once)
    assert np.array_equal(read_ppm(p1), once)
    g1 = str(tmp_path / "a.pgm")
    write_pgm(g1, img[0], maxval=65535)
    gonce = read_pgm(g1)
    write_pgm(g1, gonce, maxval=65535)
    assert np.array_equal(read_pgm(g1), gonce)

    pairs = make_synthetic_pairs(4, kappa=0.5, resolution=(8, 8), seed=5)
    cfg = TrainConfig(lr=1e-3, batch=2, steps=6, seed=31)
    curve_a = train_loop(Model(TINY_CONFIG, seed=3), pairs, cfg).rows
    curve_b = train_loop(Model(TINY_CONFIG, seed=3), pairs, cfg).rows
    assert len(curve_a) == 6
    for ra, rb in zip(curve_a, curve_b):
        for va, vb in zip(ra, rb):
            assert abs(va - vb) < 1e-12
    report("criterion 9 (determinism and round-trips)",
           "checkpoint save/load bitwise; PPM/PGM read-write bitwise; "
           "loss curves identical to 1e-12")
