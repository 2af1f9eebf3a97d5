"""Scan timing: wall time, throughput, and the time-vs-length slope.

Two rows per length: ``sequential``, the array oracle on inputs
discretized beforehand, one scan front to back, and ``op``, a
``selective_scan`` forward, which discretizes inside and scans both ways,
with way axes of extent 1 that both ways share.  Its elements per second
count both ways.  The recurrence is linear in sequence length, so the
fitted log-log slope of wall time against L should sit near 1; the bench
reports that exponent when at least two distinct lengths are measured.
Error columns compare each row against the oracle on the same inputs: the
op's against both ways', the oracle on the inputs plus the oracle on the
inputs flipped along L, flipped back.

``run_model_shapes`` times the op at the shapes the model runs
(``MODEL_SHAPES``): forward, and forward plus backward, each row with
its elements per step, 2 * prod(lead) * N * D, the width of both ways'
updates at one position, and the source of its B, C and delta as the
model passes them.  x's lead ends in the way axis of extent 1.  SS2D's
calls give the projections (w_B,), (w_C,) and (w_delta, delta_bias) of
x, which the op forms itself (``proj``), and A, one per sequence and way,
over its row- and column-major sequences; fusion's give B, C and delta
arrays (``given``) and an A per position, each with a way axis of extent
1, shared by both ways.  Narrow steps are bound by per-step overhead,
wide ones by the elementwise work.  A length-sweep row takes its best
over several rounds, a model-shape row its median over ``SHAPE_ROUNDS``
rounds, which one slow or one lucky round does not move.  A round times
every row once (model shapes: both rows of one shape), so a slow spell of
the host hits all rows alike.  A model-shape row also gives the MiB that
one warm call allocates at its peak beyond its outputs (y, and with the
backward every gradient), traced with ``tracemalloc`` in one more call
outside the timed rounds: a count, not a time, so it shows a change in
the op's temporaries exactly where the times cannot.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Tensor
from .blocks import check_extent
from .errors import ConfigError
from .rng import SplitMix64
from .scan import discretize, scan_sequential, selective_scan

__all__ = ["BenchRow", "run_bench", "fit_exponent", "format_table", "to_csv",
           "ShapeRow", "run_model_shapes", "format_shape_table"]

IMPLS = ("sequential", "op")

# (leading dims, L, D, source of B, C and delta) of the selective_scan
# calls one op of each benchmark workload makes (perfbench/baseline/seed.md);
# N is 4 throughout.  The last leading dim is x's way axis; before it,
# SS2D's are batch x sequence, or its 2 sequences alone for one eval image,
# and it passes projections; fusion's are the batch, or nothing at eval,
# and it passes arrays.
MODEL_SHAPES = (
    ((4, 2, 1), 64, 16, "proj"), ((4, 2, 1), 16, 32, "proj"),       # train-32
    ((4, 2, 1), 256, 8, "proj"),
    ((4, 1), 128, 16, "given"), ((4, 1), 32, 32, "given"),
    ((4, 2, 1), 1024, 16, "proj"), ((4, 2, 1), 256, 32, "proj"),    # train-128
    ((4, 2, 1), 4096, 8, "proj"),
    ((4, 1), 2048, 16, "given"), ((4, 1), 512, 32, "given"),
    ((2, 1), 4096, 16, "proj"), ((2, 1), 1024, 32, "proj"),         # eval-256
    ((2, 1), 16384, 8, "proj"),
    ((1,), 8192, 16, "given"), ((1,), 2048, 32, "given"),
)
MODEL_STATE = 4
SHAPE_ROUNDS = 7


@dataclass
class BenchRow:
    L: int
    N: int
    D: int
    impl: str
    wall_time: float
    elements_per_sec: float
    max_rel_err: float


@dataclass
class ShapeRow:
    lead: tuple
    L: int
    N: int
    D: int
    source: str                # of B, C and delta: "proj" (the op
                               # projects x) or "given"
    mode: str                  # "fwd" or "fwd+bwd"
    wall_time: float
    step_elements: int         # 2 * prod(lead) * N * D: both ways
    alloc_mib: float           # allocated beyond the outputs, traced

    @property
    def elements_per_sec(self) -> float:
        return self.step_elements * self.L / self.wall_time


def _case(length: int, n: int, d: int, seed: int, lead: tuple = ()):
    r = SplitMix64(seed)
    x = -1.0 + 2.0 * r.uniform_array(lead + (length, d))
    a = -0.05 - 2.0 * r.uniform_array((d, n))
    b = -1.0 + 2.0 * r.uniform_array(lead + (length, n))
    delta = 0.01 + r.uniform_array(lead + (length, d))
    c = -1.0 + 2.0 * r.uniform_array(lead + (length, n))
    return x, a, b, c, delta


def _model_case(lead: tuple, length: int, d: int, source: str, seed: int):
    """``selective_scan``'s arguments (x, A, B, C, delta) for one
    ``MODEL_SHAPES`` row, as the model passes them.  A ``given`` row passes
    A per position, (1, L, D, N), and B, C and delta arrays, each with a way
    axis of extent 1, shared by both ways.  A ``proj`` row passes one A,
    (w_B,), (w_C,) and (w_delta, delta_bias) per sequence, on the lead's
    second-last axis, and way, on the way axis of extent 2; A at rank
    x.ndim + 1.  Its delta = softplus(x @ w_delta + delta_bias) averages
    about 0.5, as a given delta does."""
    x, a, b, c, delta = _case(length, MODEL_STATE, d, seed, lead)
    r, n = SplitMix64(seed + 10_000), MODEL_STATE
    if source == "given":
        a = -0.05 - 2.0 * r.uniform_array((1, length, d, n))
        return x, a, b, c, delta
    ways = lead[-2:-1] + (2,)
    a = -0.05 - 2.0 * r.uniform_array(
        (1,) * (len(lead) - 2) + ways + (1, d, n))
    w_b, w_c, w_delta = ((-1.0 + 2.0 * r.uniform_array(ways + (d, m)))
                         / np.sqrt(d) for m in (n, n, d))
    bias = -1.5 + 2.0 * r.uniform_array(ways + (1, d))
    return x, a, (w_b,), (w_c,), (w_delta, bias)


def _with_grad(args):
    """Op arguments with each array a Tensor that takes a gradient."""
    return [tuple(Tensor(w, requires_grad=True) for w in v)
            if isinstance(v, tuple) else Tensor(v, requires_grad=True)
            for v in args]


def _beyond_outputs(fn) -> float:
    """MiB one call of ``fn`` allocates at its traced peak beyond the
    arrays it returns: y, and the Tensors whose gradients it took."""
    tracemalloc.start()
    try:
        y, ts = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = y.data.nbytes + sum(t.grad.nbytes for t in ts)
    return (peak - kept) / 2**20


def _round_robin(fns, rounds: int) -> list[list[float]]:
    """Each call's wall times over ``rounds`` rounds of calling each."""
    times = [[] for _ in fns]
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            times[i].append(time.perf_counter() - t0)
    return times


def run_bench(lengths, n: int, d: int, impls=IMPLS,
              seed: int = 0) -> list[BenchRow]:
    """Best of 5 rounds per (length, impl), after one warmup call each;
    the oracle's call is the sequential row's warmup."""
    for name, value in [("N", n), ("D", d)] + [("L", v) for v in lengths]:
        check_extent(name, value)
    if set(impls) - set(IMPLS):
        raise ConfigError(f"unknown implementation in {list(impls)}")
    cases, ways = [], {"sequential": 1, "op": 2}
    for i, length in enumerate(lengths):
        x, a, b, c, delta = _case(length, n, d, seed + i)
        a_bar, b_bar = discretize(a, b, delta)
        # The op's arguments with x's lead (1,), its way axis, and A's way
        # and position axes (1, 1): both ways share each of them.
        fns = {"sequential": partial(scan_sequential, x, a_bar, b_bar, c),
               "op": lambda xs=(x[None], a[None, None], b[None], c[None],
                                delta[None]): selective_scan(*xs).data[0]}
        oracle = fns["sequential"]()
        back = [np.flip(v, -2) for v in (x, b, delta, c)]
        both = oracle + np.flip(scan_sequential(
            back[0], *discretize(a, *back[1:3]), back[3]), -2)
        for impl in impls:
            out, ref = ((oracle, oracle) if impl == "sequential"
                        else (fns[impl](), both))
            err = float(np.max(np.abs(out - ref) / (np.abs(ref) + 1e-12)))
            cases.append((length, impl, fns[impl], err))
    walls = map(min, _round_robin([case[2] for case in cases], rounds=5))
    return [BenchRow(L=length, N=n, D=d, impl=impl, wall_time=wall,
                     elements_per_sec=ways[impl] * length * d / wall,
                     max_rel_err=err)
            for (length, impl, _, err), wall in zip(cases, walls)]


def run_model_shapes(seed: int = 0) -> list[ShapeRow]:
    """Median wall time over ``SHAPE_ROUNDS`` round-robin rounds of the
    op's forward, and of its forward plus backward, after a warmup call
    each, at each (lead, L, D, source) of ``MODEL_SHAPES``; then the MiB
    one more call of each allocates beyond its outputs.
    """
    rows, n = [], MODEL_STATE
    for i, (lead, length, d, source) in enumerate(MODEL_SHAPES):
        args = _model_case(lead, length, d, source, seed + i)

        def fwd():
            return selective_scan(*args), ()

        def fwd_bwd():
            ts = _with_grad(args)
            y = selective_scan(*ts)
            y.sum().backward()
            return y, [t for v in ts for t in
                       (v if isinstance(v, tuple) else (v,))]

        width = 2 * int(np.prod(lead, dtype=np.int64)) * n * d
        fwd()
        fwd_bwd()
        walls = list(map(np.median,
                         _round_robin((fwd, fwd_bwd), SHAPE_ROUNDS)))
        rows.extend(ShapeRow(lead=lead, L=length, N=n, D=d, source=source,
                             mode=mode, wall_time=float(wall),
                             step_elements=width,
                             alloc_mib=_beyond_outputs(fn))
                    for mode, wall, fn in zip(("fwd", "fwd+bwd"), walls,
                                              (fwd, fwd_bwd)))
    return rows


def fit_exponent(rows: list[BenchRow], impl: str) -> float | None:
    """The log-log slope of ``impl``'s wall time against L, or None unless
    its rows hold at least two distinct lengths."""
    pts = [(r.L, r.wall_time) for r in rows if r.impl == impl]
    if len({length for length, _ in pts}) < 2:
        return None
    logl = np.log([p[0] for p in pts])
    logt = np.log([p[1] for p in pts])
    slope = np.polyfit(logl, logt, 1)[0]
    return float(slope)


def format_table(rows: list[BenchRow], exponents: dict) -> str:
    head = (f"{'L':>8} {'N':>4} {'D':>4} {'impl':>12} {'wall[s]':>12} "
            f"{'elems/s':>14} {'max_rel_err':>12}")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(f"{r.L:>8} {r.N:>4} {r.D:>4} {r.impl:>12} "
                     f"{r.wall_time:>12.6f} {r.elements_per_sec:>14.3e} "
                     f"{r.max_rel_err:>12.3e}")
    for impl, e in exponents.items():
        if e is not None:
            lines.append(f"time ~ L^{e:.3f} for {impl}")
    return "\n".join(lines)


def to_csv(rows: list[BenchRow]) -> str:
    lines = ["L,N,D,impl,wall_time_s,elements_per_sec,max_rel_err"]
    for r in rows:
        lines.append(f"{r.L},{r.N},{r.D},{r.impl},{r.wall_time:.9g},"
                     f"{r.elements_per_sec:.9g},{r.max_rel_err:.9g}")
    return "\n".join(lines) + "\n"


def format_shape_table(rows: list[ShapeRow]) -> str:
    head = (f"{'lead':>6} {'L':>6} {'N':>3} {'D':>3} {'source':>6} "
            f"{'mode':>8} {'elems/step':>10} {'wall[s]':>10} {'elems/s':>10} "
            f"{'alloc[MiB]':>10}")
    lines = ["selective_scan at model shapes", head, "-" * len(head)]
    for r in rows:
        lead = "x".join(map(str, r.lead)) or "()"
        lines.append(f"{lead:>6} {r.L:>6} {r.N:>3} {r.D:>3} {r.source:>6} "
                     f"{r.mode:>8} {r.step_elements:>10} "
                     f"{r.wall_time:>10.6f} {r.elements_per_sec:>10.3e} "
                     f"{r.alloc_mib:>10.3f}")
    return "\n".join(lines)
