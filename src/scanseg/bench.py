"""Scan kernel timing: wall time, throughput, and the time-vs-length slope.

The recurrence is linear in sequence length, so the fitted log-log slope of
wall time against L should sit near 1 for the sequential kernel; the bench
reports that exponent when more than one length is measured.  Error columns
compare each implementation against the sequential oracle on the same
inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import SplitMix64
from .scan import DiscretizedParams, _discretize_arrays, scan_chunked, \
    scan_sequential

__all__ = ["BenchRow", "run_bench", "fit_exponent", "format_table", "to_csv"]

IMPLS = ("sequential", "chunked")


@dataclass
class BenchRow:
    L: int
    N: int
    D: int
    impl: str
    wall_time: float
    elements_per_sec: float
    max_rel_err: float


def _case(length: int, n: int, d: int, seed: int):
    r = SplitMix64(seed)
    x = -1.0 + 2.0 * r.uniform_array((length, d))
    a = -0.05 - 2.0 * r.uniform_array((d, n))
    b = -1.0 + 2.0 * r.uniform_array((length, n))
    delta = 0.01 + r.uniform_array((length, d))
    c = -1.0 + 2.0 * r.uniform_array((length, n))
    a_bar, b_bar = _discretize_arrays(a, b, delta)
    return x, DiscretizedParams(a_bar, b_bar), c


def _time_call(fn, reps: int = 3) -> tuple[float, np.ndarray]:
    out = fn()  # warmup; also the value used for the error column
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_bench(lengths, n: int, d: int, impls=IMPLS, chunk: int = 64,
              seed: int = 0) -> list[BenchRow]:
    rows = []
    for i, length in enumerate(lengths):
        x, dp, c = _case(length, n, d, seed + i)
        oracle = scan_sequential(x, dp, c)
        for impl in impls:
            if impl == "sequential":
                fn = lambda: scan_sequential(x, dp, c)
            elif impl == "chunked":
                fn = lambda: scan_chunked(x, dp, c, chunk=chunk)
            else:
                raise ConfigError(f"unknown implementation '{impl}'")
            wall, out = _time_call(fn)
            err = float(np.max(np.abs(out - oracle)
                               / (np.abs(oracle) + 1e-12)))
            rows.append(BenchRow(L=length, N=n, D=d, impl=impl,
                                 wall_time=wall,
                                 elements_per_sec=length * d / wall,
                                 max_rel_err=err))
    return rows


def fit_exponent(rows: list[BenchRow], impl: str) -> float | None:
    pts = [(r.L, r.wall_time) for r in rows if r.impl == impl]
    if len(pts) < 2:
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
