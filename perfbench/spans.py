"""Per-layer tracing of scanseg from outside the package.

A layer is timed by replacing one of its public callables with a wrapper
that records a span ``[name, start, end, parent]``.  Each wrapper goes in at
the name through which scanseg itself looks the callable up: ``ss2d_forward``
is imported by name into ``blocks`` and ``decoder``, ``selective_scan`` into
``ss2d`` and ``fusion`` (each ``MMFFBlock`` copies it into ``_scan_fn``
when built, so models must be built after ``install``), and
``evaluate_saliency`` finds the metric functions through the ``metrics``
module globals.  A site that a later refactor removes is
listed in ``Tracer.absent`` and its metrics read zero; the run goes on.

Spans stay in memory and are written by the caller when the run ends.  A
span's self time is its duration minus the durations of its direct
children; everything runs on one thread, so children nest inside parents.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from time import perf_counter

import numpy as np

# (span name, module, attribute path).  Methods are patched on the class
# that callers reach them through.
SITES = (
    ("model.forward", "scanseg.model", "Model.__call__"),
    ("blocks.patch_embed", "scanseg.blocks", "PatchEmbed.__call__"),
    ("blocks.encoder_block", "scanseg.blocks", "EncoderBlock.__call__"),
    ("blocks.downsample", "scanseg.blocks", "Downsample.__call__"),
    ("ss2d", "scanseg.blocks", "ss2d_forward"),
    ("ss2d", "scanseg.decoder", "ss2d_forward"),
    ("fusion.mmff", "scanseg.fusion", "MMFFBlock.__call__"),
    ("decoder.stage", "scanseg.decoder", "DecoderStage.__call__"),
    ("decoder.head", "scanseg.decoder", "SegHead.__call__"),
    ("losses.loss", "scanseg.train", "loss_saliency"),
    ("optim.step", "scanseg.optim", "AdamW.step"),
    ("autodiff.backward", "scanseg.autodiff", "Tensor.backward"),
    ("metrics.weighted_fbeta", "scanseg.metrics", "weighted_fbeta"),
    ("metrics.s_measure", "scanseg.metrics", "s_measure"),
    ("metrics.e_measure", "scanseg.metrics", "e_measure"),
    ("metrics.iou", "scanseg.metrics", "binary_iou"),
    ("synth.scene", "scanseg.synth", "generate_scene"),
    ("netpbm.write", "scanseg.data", "write_ppm"),
    ("netpbm.write", "scanseg.data", "write_pgm"),
    ("netpbm.read", "scanseg.data", "read_ppm"),
    ("netpbm.read", "scanseg.data", "read_pgm"),
    ("data.load", "scanseg.data", "load_dataset"),
    ("checkpoint.save", "scanseg.checkpoint", "save_params"),
    ("checkpoint.load", "scanseg.checkpoint", "load_params"),
)
SCAN_SITES = (("scanseg.ss2d", "selective_scan"),
              ("scanseg.fusion", "selective_scan"))

# Spans whose path argument names a file; its size is added to a byte count.
_FILE_ARG = {"netpbm.write": ("netpbm.bytes", 0), "netpbm.read": ("netpbm.bytes", 0),
             "checkpoint.save": ("checkpoint.bytes", 1)}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # A class attribute must come from the class's own MRO; otherwise
        # ``Cls.__call__`` would resolve to the metaclass's.
        if not any(attr in vars(k) for k in owner.__mro__):
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _arrays(obj):
    """The arrays an argument carries: a Tensor's data, an array, or the
    array fields of a dataclass such as the discretized parameters."""
    data = getattr(obj, "data", obj)
    if isinstance(data, np.ndarray):
        return [data]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [a for f in fields(obj) for a in _arrays(getattr(obj, f.name))]
    return []


def scan_shape(args) -> tuple:
    """(leading dims, L, D, N) of one selective-scan call.

    The sequence x comes first, (..., L, D); N is the last extent of the
    first later argument that carries an array of rank x.ndim + 1 (the
    (..., L, D, N) discretized maps) or else one of rank x.ndim with length
    L (the readout C).  N reads 0 when no argument matches.
    """
    x = _arrays(args[0])[0]
    lead, length, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    later = [a for arg in args[1:] for a in _arrays(arg)]
    n = next((a.shape[-1] for a in later if a.ndim == x.ndim + 1), None)
    if n is None:
        n = next((a.shape[-1] for a in later
                  if a.ndim == x.ndim and a.shape[-2] == length), 0)
    return tuple(lead), length, d, n


@contextmanager
def patched(*changes):
    """Set ``(owner, attr, value)`` triples for the body, then undo them."""
    undo = []
    try:
        for owner, attr, value in changes:
            undo.append(_set(owner, attr, value))
        yield
    finally:
        for entry in reversed(undo):
            _restore(*entry)


def _set(owner, attr, value):
    own = vars(owner)
    entry = (owner, attr, attr in own, own.get(attr))
    setattr(owner, attr, value)
    return entry


def _restore(owner, attr, had_own, old) -> None:
    if had_own:
        setattr(owner, attr, old)
    else:
        delattr(owner, attr)


class Tracer:
    """Installs span wrappers, records spans and counts, and undoes itself."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.scan_shapes: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = _FILE_ARG.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counted is not None:
                counts[counted[0]] += os.path.getsize(args[counted[1]])
            return out

        traced.perfbench_span = name
        return traced

    def wrap_scan(self, fn):
        timed = self.wrap("scan.fwd", fn)
        wrap = self.wrap

        def scan(*args, **kwargs):
            out = timed(*args, **kwargs)
            has_x = bool(args) and bool(_arrays(args[0]))
            lead, length, d, n = scan_shape(args) if has_x else ((), 0, 0, 0)
            elements = int(np.prod(lead, dtype=np.int64)) * length * d * n
            moved = sum(a.nbytes for arg in args + tuple(kwargs.values())
                        for a in _arrays(arg)) + sum(a.nbytes for a in _arrays(out))
            self.counts["scan.calls"] += 1
            self.counts["scan.elements"] += elements
            self.counts["scan.bytes_computed"] += moved
            self.counts["scan.seq_len.max"] = max(
                self.counts["scan.seq_len.max"], length)
            self.scan_shapes[f"lead={'x'.join(map(str, lead)) or '()'} "
                             f"L={length} D={d} N={n}"] += 1
            bwd = getattr(out, "_backward_fn", None)
            if bwd is not None:
                out._backward_fn = wrap("scan.bwd", bwd)
            return out

        scan.perfbench_span = "scan.fwd"
        return scan

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module, path in SITES:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self._undo.append(_set(owner, attr, self.wrap(name, fn)))
        for module, path in SCAN_SITES:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self._undo.append(_set(owner, attr, self.wrap_scan(fn)))

    def uninstall(self) -> None:
        while self._undo:
            _restore(*self._undo.pop())

    # -- summaries --------------------------------------------------------------

    def totals(self, start: int = 0, end: int | None = None):
        """Inclusive and self seconds per span name over spans[start:end]."""
        spans = self.spans[start:end]
        inclusive: Counter = Counter()
        child: Counter = Counter()
        for name, t0, t1, parent in spans:
            inclusive[name] += t1 - t0
            if parent >= start:
                child[parent] += t1 - t0
        own: Counter = Counter()
        for i, (name, t0, t1, _) in enumerate(spans, start=start):
            own[name] += (t1 - t0) - child[i]
        return inclusive, own
