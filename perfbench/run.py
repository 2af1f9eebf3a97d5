"""scanseg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-32 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing needs installing.  One process serves
as a single caller in a closed loop: each op starts when the previous one
has returned.  The math library gets one thread.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  A traced run splits ``--seconds`` in
two: an untraced pass first, to compute the tracing overhead, then the
traced pass.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment header and the same figures for people.  The full result,
with the environment header, the model's scan-shape histogram and (traced)
the spans, is written to ``.perfbench_out/`` in the checkout.

Exit codes: 0 after a result, 2 when the checkout holds no scanseg source,
1 when set-up fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One math-library thread: within the 2 cores of the reference machine, and
# the closed loop has a single caller.
THREADS = "1"
SETUP_PROBES = 2
END_TO_END_UNITS = {"items_per_s": "1/s", "latency_s.p50": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once and print the set-up time")
    return p.parse_args(argv)


def import_package():
    """Import scanseg from this checkout's src/, or None if it has none."""
    src = ROOT / "src"
    if not (src / "scanseg" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import scanseg
    if Path(scanseg.__file__).resolve().parent != src / "scanseg":
        return None
    return scanseg


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256(pkg: Path) -> str:
    """Hash of the Python files under ``pkg``, for checkouts that are not
    git trees."""
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, input_set: int) -> dict:
    import numpy as np
    try:  # mode= arrived in numpy 1.25; the package allows 1.24
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        blas = {}
    return {"git_sha": git_sha(),
            "src_sha256": source_sha256(ROOT / "src" / "scanseg"),
            "bench_sha256": source_sha256(Path(__file__).resolve().parent),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "platform": platform.platform(),
            "seed": seed, "input_set": input_set}


def probe_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, imports included."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if import_package() is None:
        print(f"perfbench: no scanseg source under {ROOT / 'src'}; run from "
              "the root of a scanseg checkout", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        prep = wl.setup(w, args.seed, str(work / "setup"))
        setup_main = perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        setup_samples = [setup_main]
        if not args.trace:
            setup_samples += [probe_setup_s(w.name, args.seed)
                              for _ in range(SETUP_PROBES)]
        seconds = args.seconds / 2 if args.trace else args.seconds
        log = wl.run_ops(prep, seconds)
        del prep
        traced = None
        if args.trace:
            traced = wl.traced_run(w, args.seed, str(work / "traced"),
                                   seconds, statistics.median(log.latencies))
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {w.name} failed before a result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = wl.load_reference(w)
    logs = [log] + ([traced.log] if traced else [])
    attempted = sum(len(x.outputs) for x in logs)
    bad = sum(len(wl.mismatches(w, args.seed, x.outputs, reference))
              for x in logs)
    items = wl.BATCH if w.kind == "train" else 1
    lat = sorted(log.latencies)
    summary = {
        "ops": len(lat), "attempted": attempted, "failed": bad,
        "fail_ratio": bad / max(attempted, 1),
        "latency_samples": len(lat), "setup_samples_s": setup_samples,
        "errors": [e for x in logs for e in x.errors][:5],
    }
    # The 90th percentile needs ten samples beyond it.
    if len(lat) >= 100:
        summary["latency_s.p90"] = statistics.quantiles(lat, n=10)[-1]
    if traced:
        metrics = {m: {"value": v, "unit": wl.UNITS[m]}
                   for m, v in traced.layers.items()}
    else:
        metrics = {
            "items_per_s": items * len(lat) / log.elapsed,
            "latency_s.p50": statistics.median(lat),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_samples),
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]}
                   for m, v in metrics.items()}
    env = environment(args.seed, wl.input_set(args.seed))
    result = {"workload": w.name, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "summary": summary, "metrics": metrics}
    if traced:
        result.update(scan_shapes=traced.scan_shapes,
                      absent_layers=traced.absent, spans=traced.spans)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result))

    print(f"perfbench {w.name} seed={args.seed} input_set={env['input_set']} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"ops {len(lat)} completed, {attempted} attempted, {bad} failed "
          f"(fail_ratio {summary['fail_ratio']:g}); {items} item(s) per op")
    for e in summary["errors"]:
        print(f"  error: {e}")
    for name, m in metrics.items():
        print(f"  {name:32s} {_fmt(m['value']):>14s} {m['unit']}")
    if not traced:
        print(f"  {'latency_s.p90':32s} " + (
            f"{_fmt(summary['latency_s.p90']):>14s} s (n={len(lat)})"
            if "latency_s.p90" in summary
            else f"{'-':>14s}   not reported: n={len(lat)} < 100"))
    else:
        if traced.absent:
            print("  absent layers (read 0): " + ", ".join(traced.absent))
        print("  scan shapes per op: " + "; ".join(
            f"{k} x{v:g}" for k, v in traced.scan_shapes.items()))
    print(f"result file {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": bad == 0, "attempted": attempted,
                      "failed": bad, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
