"""Store the reference outputs that ``run.py`` compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a vcselink checkout. Runs one untraced round of each
workload at ``run.DEFAULT_SEED``, checks its invariants, and writes every
CSV it produced to ``perfbench/reference/<workload>.json.gz``. Regenerate
only when a change to the outputs is intended and explained.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import time

import checks
import run
import workloads


def make(root: str, workload: str) -> None:
    work = os.path.join(root, ".perfbench", f"reference-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = run.write_plan(root, work, workload, run.DEFAULT_SEED, 0.0, False)
        result = run.run_worker(root, work, time.perf_counter() + run.RUN_LIMIT_S)
        if result is None:
            raise SystemExit(f"{workload}: worker failed")
        problems = [p for v in run.check_rounds(plan, result["rounds"][:1], None) for p in v]
        if problems:
            raise SystemExit(f"{workload}: outputs fail their invariants: {problems}")
        files = {}
        for inv in plan["invocations"]:
            out_dir = os.path.join(work, "out", "r000", inv["name"])
            files[inv["name"]] = {}
            for name in checks.expected_files(inv):
                with open(os.path.join(out_dir, name), newline="") as fh:
                    files[inv["name"]][name] = fh.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = checks.reference_path(run.BENCH_DIR, workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps({"seed": run.DEFAULT_SEED, "files": files},
                            sort_keys=True).encode())
    print(f"{workload}: {sum(len(f) for f in files.values())} files -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        make(os.getcwd(), name)
