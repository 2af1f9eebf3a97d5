"""Run every workload over several seeds and summarize, in one command.

    python3 perfbench/suite.py [--seeds 0-9] [--seconds 20] [--tag NAME]

Run from the root of a checkout.  Each workload runs once per seed with
tracing off, each run in a fresh process (``run.py``), then once traced on
the first seed.  The table gives, per workload, every end-to-end metric by
name and unit as the median and quartiles over the seeds, with the spread
(quartile distance over the median) next to the metric's bound from
``BENCHMARK.json``, the 90th percentile latency where a run has 100 ops,
and the fail ratio over all ops attempted.  With ``--tag NAME`` the summary,
with the traced per-layer metrics and scan-shape histogram, is written to
``perfbench/baseline/NAME.json``.  Runs whose environment header differs in
anything but the seed are refused, so results from different machines,
library versions, thread settings, source trees or benchmark versions are
never pooled silently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PER_RUN_KEYS = ("seed", "input_set")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own process; the result file it wrote."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"suite: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    out = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def stats(values: list) -> dict:
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def summarize(results: list) -> dict:
    envs = {json.dumps({k: v for k, v in r["environment"].items()
                        if k not in PER_RUN_KEYS}, sort_keys=True)
            for r in results}
    if len(envs) != 1:
        raise SystemExit("suite: results come from different "
                         "environments:\n" + "\n".join(sorted(envs)))
    out = {"environment": json.loads(envs.pop()), "workloads": {}}
    for name in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == name]
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        entry = {"seconds": runs[0]["seconds"],
                 "seeds": [r["environment"]["seed"] for r in plain],
                 "fail_ratio": (sum(r["summary"]["failed"] for r in runs)
                                / sum(r["summary"]["attempted"] for r in runs)),
                 "ops_per_run": stats([r["summary"]["ops"] for r in plain])}
        entry["end_to_end"] = {
            m: dict(stats([r["metrics"][m]["value"] for r in plain]),
                    unit=spec["unit"])
            for m, spec in plain[0]["metrics"].items()}
        p90 = [r["summary"]["latency_s.p90"] for r in plain
               if "latency_s.p90" in r["summary"]]
        if p90:
            entry["latency_s.p90"] = dict(stats(p90), unit="s")
        for r in traced:
            entry["traced_seed"] = r["environment"]["seed"]
            entry["per_layer"] = r["metrics"]
            entry["scan_shapes_per_op"] = r["scan_shapes"]
            entry["absent_layers"] = r["absent_layers"]
        out["workloads"][name] = entry
    return out


def print_table(summary: dict, bounds: dict) -> None:
    for name, entry in summary["workloads"].items():
        print(f"{name}: seeds {entry['seeds']}, {entry['seconds']:g} s per "
              f"run, ops per run {entry['ops_per_run']['median']:g}, "
              f"fail_ratio {entry['fail_ratio']:g}")
        rows = dict(entry["end_to_end"])
        if "latency_s.p90" in entry:
            rows["latency_s.p90"] = entry["latency_s.p90"]
        for m, s in rows.items():
            bound = bounds.get(m)
            print(f"  {m:16s} {s['unit']:4s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--workload", action="append",
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--tag", help="write perfbench/baseline/TAG.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            results.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in
                results[-1]["metrics"].items()), flush=True)
        results.append(run_once(name, args.seeds[0], seconds, 1))
    summary = summarize(results)
    print_table(summary, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    if args.tag:
        dest = HERE / "baseline" / f"{args.tag}.json"
        dest.parent.mkdir(exist_ok=True)
        dest.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
