"""Record the correctness reference of every workload and input set.

    python3 perfbench/record.py [--workload NAME] [--sets 0-31]

Run from the root of a checkout, at the commit whose outputs define
correctness, and commit ``perfbench/reference/*.json``.  A later commit
must reproduce these values within the tolerances in ``workloads``; re-recording
them is a change of the benchmark, not of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--sets", default=None, help="range a-b of input sets")
    args = p.parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = run.THREADS
    if run.import_package() is None:
        print("record: no scanseg source under src/", file=sys.stderr)
        return 2
    import workloads as wl
    lo, hi = (map(int, args.sets.split("-")) if args.sets
              else (0, wl.POOL - 1))
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        path = wl.REFERENCE_DIR / f"{name}.json"
        doc = (json.loads(path.read_text()) if path.is_file()
               else {"workload": name, "inputs": {}})
        doc["recorded_at"] = run.git_sha()
        for k in range(lo, hi + 1):
            work = run.ROOT / ".perfbench_work" / f"record-{name}-{k}"
            try:
                prep = wl.setup(w, k, str(work))
                doc["inputs"][str(k)] = wl.reference_entry(w, prep)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} input set {k}: {doc['inputs'][str(k)]}", flush=True)
        doc["inputs"] = dict(sorted(doc["inputs"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
