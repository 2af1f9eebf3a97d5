"""The benchmark's workloads: inputs, set-up, timed operations, the
correctness reference and the traced run.

Every workload goes through scanseg's user-facing entry points only:
``synth.generate_scene``, ``data.save_pair``/``load_dataset``,
``model.Model`` with ``save_checkpoint``/``from_checkpoint``,
``train.train_loop``, ``train.predict_prob`` and
``metrics.evaluate_saliency``.

Inputs come from the seed through ``input_set(seed) = seed % POOL``: the
correctness reference is recorded once per input set (``record.py``), so a
seed outside the pool maps onto a recorded set.

Training runs with ``lr = 0`` on a dataset of exactly one batch.  Every step
then does the full work of a training step (forward, loss, backward, the
AdamW update arithmetic) at the same weights on the same four images, so
each step's loss and gradients can be checked against one reference.  With
``lr > 0`` that is impossible: AdamW divides by sqrt(v) + 1e-8, which
amplifies rounding differences; a 1e-15 relative change of the initial
weights moved the loss by 1e-4 (relative) at step 5 and by 1e-2 at step 10
on train-32, so a recorded trajectory would reject any change that merely
reorders a floating-point sum.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import tracemalloc
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from scanseg import data, metrics, optim, synth, train
from scanseg import model as model_mod

from spans import Tracer, patched

POOL = 32
BATCH = 4
# Upper bound on train_loop's step count; a run stops at its deadline first.
# train_loop lays out the sample order for all steps up front, so this must
# stay modest.
MAX_STEPS = 4096
# Outputs must match the reference recorded at the seed commit to 1e-10,
# the output-match rule the roadmap sets for refactors: losses relative to
# themselves, metrics (all in [0, 1]) absolutely.  Random relative changes
# of 1e-15 to every weight move them by at most 1.3e-14 (loss) and 1e-14
# (metrics).  Over all 32 eval input sets no probability lies within 4.5e-9
# of 0.5 or within 4.6e-8 of an adaptive threshold 2*mean below its cap at
# 1, so such changes flip no binarized pixel.
TOLERANCE = 1e-10
# Gradients at these weights are far more sensitive to rounding than the
# loss: the same 1e-15 weight changes move the gradient fingerprint by up
# to 1.7e-11 relative to the sum of per-parameter gradient norms, 1e3 times
# the loss's drift.  1e-8 keeps the loss's margin; a wrong adjoint moves the
# fingerprint by far more.
GRAD_TOLERANCE = 1e-8
METRIC_KEYS = ("s_alpha", "e_phi", "f_beta_w", "iou")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "train" or "eval"
    resolution: int
    kappa: float
    occluder_density: float
    warmup_ops: int
    scenes: int = BATCH


WORKLOADS = {w.name: w for w in (
    # The overfit-acceptance shape: short scans (L 64/16), where per-op
    # Python cost, graph bookkeeping and the optimizer's per-parameter work
    # dominate.
    Workload("train-32", "train", 32, 0.5, 0.0, warmup_ops=2),
    # Large (..., L, D, N) tensors dominate time and peak memory.
    Workload("train-128", "train", 128, 1.0, 0.3, warmup_ops=1),
    # Forward only, long scans (L 4096, joined 8192), metrics, netpbm and
    # checkpoint I/O.
    # 24 distinct images, so the median op mixes many images' metric costs
    # (the exact distance transform's time depends on the mask), and one
    # pass over them takes about the 30 s a run measures.
    Workload("eval-256", "eval", 256, 0.5, 0.3, warmup_ops=1, scenes=24),
)}


def input_set(seed: int) -> int:
    return seed % POOL


def model_config(w: Workload):
    return replace(model_mod.TOY_CONFIG, resolution=(w.resolution, w.resolution))


def train_config(seed: int, steps: int = MAX_STEPS):
    return train.TrainConfig(lr=0.0, weight_decay=0.01, batch=BATCH,
                             steps=steps, seed=1000 + input_set(seed))


@dataclass
class Prepared:
    workload: Workload
    seed: int
    pairs: list
    checkpoint: str
    model: object


def setup(w: Workload, seed: int, workdir: str) -> Prepared:
    """Synthesize, write and load the dataset, build, save and load the
    model, and run the warm-up ops, so lazy caches fill here."""
    k = input_set(seed)
    scene_cfg = synth.SceneConfig(resolution=(w.resolution, w.resolution),
                                  kappa=w.kappa,
                                  occluder_density=w.occluder_density,
                                  seed=2000 + k)
    root = os.path.join(workdir, "data")
    for i in range(w.scenes):
        data.save_pair(root, synth.generate_scene(scene_cfg, i))
    pairs, report = data.load_dataset(root)
    if not report.ok() or len(pairs) != w.scenes:
        raise RuntimeError(f"dataset reload failed: {report.errors}")
    ckpt = os.path.join(workdir, "model.ckpt")
    model_mod.Model(model_config(w), seed=k).save_checkpoint(ckpt)
    prep = Prepared(w, seed, pairs, ckpt, model_mod.Model.from_checkpoint(ckpt))
    if w.kind == "train":
        train.train_loop(model_mod.Model.from_checkpoint(ckpt), pairs,
                         train_config(seed, steps=w.warmup_ops))
    else:
        for i in range(w.warmup_ops):
            eval_op(prep.model, pairs[i % len(pairs)])
    return prep


# ----------------------------------------------------------------- timed ops

@dataclass
class OpLog:
    """One entry in ``outputs`` per attempted op (None when it raised) and
    one latency per completed op."""
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.latencies)


class _Deadline(Exception):
    pass


def _probe_vectors(named_params) -> list:
    """A fixed unit vector per parameter, seeded by its name."""
    out = []
    for name, p in named_params:
        r = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(
            p.data.shape)
        out.append(r / np.linalg.norm(r))
    return out


def grad_fingerprint(named_params, probes) -> tuple:
    """(sum of per-parameter gradient norms, sum of projections onto the
    probe vectors): a scale-free summary of every parameter's gradient."""
    norms = proj = 0.0
    for (_, p), r in zip(named_params, probes):
        if p.grad is not None:
            norms += float(np.linalg.norm(p.grad))
            proj += float(np.vdot(p.grad, r))
    return norms, proj


def run_train(prep: Prepared, seconds: float) -> OpLog:
    """train_loop in a closed loop until ``seconds`` have passed.

    Two hooks mark op boundaries: the loss function (to read the loss) and
    AdamW.step (to end the op, fingerprint the gradients outside the op's
    time, and stop the loop at the deadline).
    """
    model = model_mod.Model.from_checkpoint(prep.checkpoint)
    named = list(model.named_parameters())
    probes = _probe_vectors(named)
    log, losses = OpLog(), []
    loss_fn, step_fn = train.loss_saliency, optim.AdamW.step

    def loss_hook(*args, **kwargs):
        out = loss_fn(*args, **kwargs)
        losses.append(float(out[0].item()))
        return out

    def step_hook(opt):
        step_fn(opt)
        end = perf_counter()
        log.latencies.append(end - start[0])
        log.outputs.append((losses[-1],) + grad_fingerprint(named, probes))
        if end - t0 >= seconds:
            raise _Deadline
        start[0] = perf_counter()

    with patched((train, "loss_saliency", loss_hook),
                 (optim.AdamW, "step", step_hook)):
        t0 = perf_counter()
        start = [t0]
        try:
            train.train_loop(model, prep.pairs, train_config(prep.seed))
        except _Deadline:
            pass
        except Exception as exc:  # the failed step ends the loop
            log.outputs.append(None)
            log.errors.append(f"{type(exc).__name__}: {exc}")
    return log


def eval_op(model, pair) -> dict:
    prob = train.predict_prob(model, pair)
    if not np.all(np.isfinite(prob)):
        raise FloatingPointError("non-finite probability")
    report = metrics.evaluate_saliency([metrics.SaliencyPair(prob, pair.mask)],
                                       ids=[pair.id])
    row = report.per_image[0]
    return {key: float(row[key]) for key in METRIC_KEYS}


def run_eval(prep: Prepared, seconds: float) -> OpLog:
    """predict_prob + evaluate_saliency per image, cycling through the
    dataset in a closed loop.  A run is whole passes over the dataset, so
    every image weighs the same; it ends at the pass boundary nearest to
    ``seconds`` (after at least one pass)."""
    log = OpLog()
    t0 = perf_counter()
    i = 0
    n = len(prep.pairs)
    while True:
        pair = prep.pairs[i % n]
        i += 1
        start = perf_counter()
        try:
            out = (pair.id, eval_op(prep.model, pair))
        except Exception as exc:  # counted as a failed op
            out = None
            log.errors.append(f"{pair.id}: {type(exc).__name__}: {exc}")
        end = perf_counter()
        log.latencies.append(end - start)
        log.outputs.append(out)
        if i % n == 0:
            passes = i // n
            # Another pass would end further from the deadline than this one.
            if (end - t0) * (1 + 0.5 / passes) >= seconds:
                return log


def run_ops(prep: Prepared, seconds: float) -> OpLog:
    return (run_train if prep.workload.kind == "train" else run_eval)(
        prep, seconds)


# ------------------------------------------------------------- correctness

def load_reference(w: Workload) -> dict:
    path = REFERENCE_DIR / f"{w.name}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)["inputs"]


def _close(value: float, ref: float, scale: float, tol: float = TOLERANCE) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * scale


def mismatches(w: Workload, seed: int, outputs: list, reference: dict) -> list:
    """Indices of ops whose output is missing or differs from the reference."""
    ref = reference.get(str(input_set(seed)))
    bad = []
    for i, out in enumerate(outputs):
        if out is None or ref is None:
            bad.append(i)
        elif w.kind == "train":
            loss, norms, proj = out
            scale = ref["grad_norm_sum"]
            if not (_close(loss, ref["loss"], abs(ref["loss"]))
                    and _close(norms, scale, scale, GRAD_TOLERANCE)
                    and _close(proj, ref["grad_projection"], scale,
                               GRAD_TOLERANCE)):
                bad.append(i)
        else:
            pid, values = out
            want = ref.get(pid)
            if want is None or not all(_close(values[k], want[k], 1.0)
                                       for k in METRIC_KEYS):
                bad.append(i)
    return bad


def reference_entry(w: Workload, prep: Prepared) -> dict:
    """The values ``mismatches`` compares against, computed with this tree."""
    if w.kind == "train":
        loss, norms, proj = run_train(prep, 0.0).outputs[0]
        return {"loss": loss, "grad_norm_sum": norms, "grad_projection": proj}
    return {pair.id: eval_op(prep.model, pair) for pair in prep.pairs}


# -------------------------------------------------------------- traced run

def graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through the autodiff parent links."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(getattr(node, "_parents", ()))
    return len(seen)


def memory_probe(prep: Prepared) -> dict:
    """One op under tracemalloc: memory still allocated when the model's
    forward returns, and the size of the graph the op differentiates (from
    the loss in training, from the model output in evaluation).  The model
    is loaded afresh: one built while spans were installed keeps traced
    scan functions."""
    found = {}
    forward, loss_fn = model_mod.Model.__call__, train.loss_saliency

    def forward_hook(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        found.setdefault("live", tracemalloc.get_traced_memory()[0])
        found.setdefault("nodes", graph_nodes(out))
        return out

    def loss_hook(*args, **kwargs):
        out = loss_fn(*args, **kwargs)
        found["nodes"] = graph_nodes(out[0])
        return out

    with patched((model_mod.Model, "__call__", forward_hook),
                 (train, "loss_saliency", loss_hook)):
        tracemalloc.start()
        try:
            model = model_mod.Model.from_checkpoint(prep.checkpoint)
            if prep.workload.kind == "train":
                train.train_loop(model, prep.pairs,
                                 train_config(prep.seed, steps=1))
            else:
                eval_op(model, prep.pairs[0])
        finally:
            tracemalloc.stop()
    return {"autodiff.graph_nodes": found.get("nodes", 0),
            "autodiff.live_mb_after_forward": found.get("live", 0) / 2**20}


# (metric, span, "incl" or "self"): seconds per op in the op window.
OP_SPANS = (
    ("autodiff.backward_s", "autodiff.backward", "incl"),
    ("scan.fwd_s", "scan.fwd", "incl"),
    ("scan.bwd_s", "scan.bwd", "incl"),
    ("ss2d.self_s", "ss2d", "self"),
    ("blocks.patch_embed_s", "blocks.patch_embed", "incl"),
    ("blocks.encoder_block.self_s", "blocks.encoder_block", "self"),
    ("blocks.downsample_s", "blocks.downsample", "incl"),
    ("fusion.mmff.self_s", "fusion.mmff", "self"),
    ("decoder.stage.self_s", "decoder.stage", "self"),
    ("decoder.head_s", "decoder.head", "incl"),
    ("losses.loss_s", "losses.loss", "incl"),
    ("optim.step_s", "optim.step", "incl"),
    ("model.forward_s", "model.forward", "incl"),
    ("metrics.weighted_fbeta_s", "metrics.weighted_fbeta", "incl"),
    ("metrics.s_measure_s", "metrics.s_measure", "incl"),
    ("metrics.e_measure_s", "metrics.e_measure", "incl"),
    ("metrics.iou_s", "metrics.iou", "incl"),
)
# Counts per op in the op window; the longest sequence is a maximum.
OP_COUNTS = ("scan.calls", "scan.elements", "scan.bytes_computed")
# Seconds and bytes of one traced set-up.
SETUP_SPANS = (
    ("synth.scene_s", "synth.scene", "incl"),
    ("netpbm.read_s", "netpbm.read", "incl"),
    ("netpbm.write_s", "netpbm.write", "incl"),
    ("data.load.self_s", "data.load", "self"),
    ("checkpoint.save_s", "checkpoint.save", "incl"),
    ("checkpoint.load_s", "checkpoint.load", "incl"),
)
SETUP_COUNTS = ("netpbm.bytes", "checkpoint.bytes")

UNITS = {"autodiff.graph_nodes": "count",
         "autodiff.live_mb_after_forward": "MiB",
         "scan.calls": "count/op", "scan.seq_len.max": "count",
         "scan.elements": "count/op", "scan.bytes_computed": "B/op",
         "netpbm.bytes": "B/setup", "checkpoint.bytes": "B/setup",
         "tracing.overhead_frac": "ratio"}
UNITS.update({m: "s/op" for m, _, _ in OP_SPANS})
UNITS.update({m: "s/setup" for m, _, _ in SETUP_SPANS})
PER_LAYER = tuple(m for m, _, _ in OP_SPANS) + OP_COUNTS + (
    "scan.seq_len.max", "autodiff.graph_nodes",
    "autodiff.live_mb_after_forward") + tuple(
    m for m, _, _ in SETUP_SPANS) + SETUP_COUNTS + ("tracing.overhead_frac",)


@dataclass
class TracedRun:
    log: OpLog
    layers: dict
    scan_shapes: dict
    absent: list
    spans: list


def _pick(table, incl, own, scale):
    return {m: (incl if kind == "incl" else own)[span] / scale
            for m, span, kind in table}


def traced_run(w: Workload, seed: int, workdir: str, seconds: float,
               untraced_p50: float) -> TracedRun:
    """Set up and run the workload with every span site wrapped, then one
    op under tracemalloc with the spans removed."""
    tracer = Tracer()
    tracer.install()
    try:
        prep = setup(w, seed, workdir)
        setup_end = len(tracer.spans)
        setup_counts = dict(tracer.counts)
        tracer.counts.clear()
        tracer.scan_shapes.clear()
        log = run_ops(prep, seconds)
    finally:
        tracer.uninstall()
    ops = max(len(log.latencies), 1)
    incl, own = tracer.totals(0, setup_end)
    layers = _pick(SETUP_SPANS, incl, own, 1)
    layers.update({m: setup_counts.get(m, 0) for m in SETUP_COUNTS})
    incl, own = tracer.totals(setup_end)
    layers.update(_pick(OP_SPANS, incl, own, ops))
    layers.update({m: tracer.counts[m] / ops for m in OP_COUNTS})
    layers["scan.seq_len.max"] = tracer.counts["scan.seq_len.max"]
    layers.update(memory_probe(prep))
    layers["tracing.overhead_frac"] = (
        statistics.median(log.latencies) / untraced_p50 - 1.0
        if log.latencies and untraced_p50 > 0 else 0.0)
    shapes = {k: v / ops for k, v in sorted(tracer.scan_shapes.items())}
    return TracedRun(log, {m: layers[m] for m in PER_LAYER}, shapes,
                     tracer.absent, tracer.spans)
