"""vcselink benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vcselink checkout (the directory holding ``src/``).
The run

1. writes the workload's JSON configs, generated from ``--seed``;
2. with ``--trace 0``, times several fresh interpreters importing
   ``vcselink.cli`` (``setup_s``);
3. starts one fresh worker process (BLAS/OpenMP threads set to 1) that runs
   rounds of the workload's CLI invocations for about ``--seconds``, with
   ``--trace 0`` probing the machine's speed all through each round;
4. checks every invocation's outputs (``checks.py``);
5. prints each metric with its unit, then one JSON line: the end-to-end
   metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.

Scratch files go under ``.perfbench/`` in the checkout; the per-run output
directory is removed at the end, the run's result file and the traced run's
spans are kept. See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; built from the traced rounds in ``per_layer``
PER_LAYER = {
    "quadrature.integrate_disk.calls": "count",
    "quadrature.integrate_disk.s": "s",
    "quadrature.integrate_disk.self_s": "s",
    "quadrature.points": "count",
    "quadrature.points_per_s": "1/s",
    "quadrature.levels_mean": "count",
    "quadrature.level_max": "count",
    "quadrature.final_order_share": "ratio",
    "quadrature.failures": "count",
    "geometry.gmm_point_frame.calls": "count",
    "geometry.gmm_point_frame.s": "s",
    "channel.integrand.s": "s",
    "channel.integrand.self_s": "s",
    "channel.mimo_matrix.calls": "count",
    "channel.mimo_matrix.s": "s",
    "channel.mimo_matrix.self_s": "s",
    "channel.entries": "count",
    "channel.gain_gmm.calls": "count",
    "channel.gain_gmm.s": "s",
    "channel.pair_reuse": "ratio",
    "linkbudget.aggregate_rate.calls": "count",
    "linkbudget.aggregate_rate.s": "s",
    "linkbudget.write_rates_csv.s": "s",
    "channel.write_gains_csv.s": "s",
    "scenario.build_scenario.calls": "count",
    "scenario.build_scenario.s": "s",
    "scenario.load_config.s": "s",
    "scenario.run_scenario.self_s": "s",
    "presets.run_preset.self_s": "s",
    "oracle.ray_gain_mc.calls": "count",
    "oracle.ray_gain_mc.s": "s",
    "oracle.rays": "count",
    "oracle.rays_per_s": "1/s",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(raw: dict) -> dict:
    """The per-layer metrics from the worker's merged traced-round values."""
    get = lambda key: raw.get(key, 0)  # noqa: E731 - a missing layer reads as zero
    derived = {
        "quadrature.points_per_s": _ratio(get("quadrature.points"),
                                          get("quadrature.integrate_disk.s")),
        "quadrature.levels_mean": _ratio(get("quadrature.levels"),
                                         get("quadrature.converged")),
        "quadrature.final_order_share": _ratio(get("quadrature.final_order_points"),
                                               get("quadrature.points")),
        "channel.pair_reuse": (1.0 - _ratio(get("channel.gain_gmm.from_matrix"),
                                            get("channel.exact_entries"))
                               if get("channel.exact_entries") else 0.0),
        "oracle.rays_per_s": _ratio(get("oracle.rays"), get("oracle.ray_gain_mc.s")),
    }
    return {name: derived[name] if name in derived else get(name) for name in PER_LAYER}


def tail(samples: list) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100.0 * (n - 10) / n:.0f}", sorted(samples)[n - 11]


def provenance(root: str, versions: dict) -> dict:
    commit = None
    if os.path.exists(os.path.join(root, ".git")):  # never a repository above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit or "unknown", "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "cpu": cpu, **versions}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_times(root: str, n: int) -> list[float]:
    """Wall time of fresh interpreters that import vcselink.cli and exit.

    One untimed import first compiles the bytecode cache. The waits have no
    timeout: with one, ``subprocess`` polls in steps of up to 50 ms. The
    times are not scaled by the probe: an import is mostly file reads and
    loading, and in the baseline runs scaling widened their spread."""
    env = child_env(root)
    cmd = [sys.executable, "-c", "import vcselink.cli"]
    times = []
    for _ in range(n + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=root) as proc:
            code = proc.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"importing vcselink.cli exited with code {code}")
    return times[1:]


def write_plan(root: str, work: str, workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    invocations = workloads.invocations(workload, seed)
    for inv in invocations:
        if inv["command"] == "simulate":
            path = os.path.join(inputs, inv["argv"][1])
            with open(path, "w") as fh:
                json.dump(inv["config"], fh, indent=1)
            inv["argv"][1] = path
    plan = {"root": root, "work_dir": work, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "invocations": invocations}
    with open(os.path.join(work, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1)
    return plan


def check_rounds(plan: dict, rounds: list, reference: dict | None) -> list[list[str]]:
    """Problems per invocation of every round, in round order.

    Outputs byte-identical to the first round's share its verdict."""
    verdicts = []
    first: dict = {}
    for rnd in rounds:
        out_root = os.path.join(plan["work_dir"], "out", f"r{rnd['index']:03d}")
        for inv, code in zip(plan["invocations"], rnd["exit_codes"]):
            out_dir = os.path.join(out_root, inv["name"])
            if code != 0:
                verdicts.append([f"{inv['name']}: exit code {code}"])
                continue
            blob = b"".join(_read(os.path.join(out_dir, n)) for n in checks.expected_files(inv))
            if inv["name"] in first and first[inv["name"]][0] == blob:
                verdicts.append(first[inv["name"]][1])
                continue
            ref = None if reference is None else reference.get(inv["name"], {})
            problems = [f"{inv['name']}: {p}" for p in checks.check_invocation(inv, out_dir, ref)]
            first.setdefault(inv["name"], (blob, problems))
            verdicts.append(problems)
    return verdicts


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def run_worker(root: str, work: str, deadline: float) -> dict | None:
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           os.path.join(work, "plan.json"), result_path]
    with open(os.path.join(work, "worker.err"), "w") as err:
        proc = subprocess.Popen(cmd, env=child_env(root), cwd=root,
                                stdout=err, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("error: worker exceeded the run time limit", file=sys.stderr)
            return None
        except BaseException:  # interrupted or terminated: end the worker too
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        with open(os.path.join(work, "worker.err")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so the worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vcselink", "cli.py")):
        print(f"error: {root} holds no vcselink sources (src/vcselink/cli.py); "
              "run from the root of a vcselink checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    work = os.path.join(scratch, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = write_plan(root, work, args.workload, args.seed, args.seconds, bool(args.trace))
        setup = [] if args.trace else setup_times(root, SETUP_SAMPLES)
        result = run_worker(root, work, started + RUN_LIMIT_S)
        if result is None:
            return 1
        reference = checks.load_reference(BENCH_DIR, args.workload, args.seed)
        verdicts = check_rounds(plan, result["rounds"], reference)
    finally:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v)
    problems = sorted({p for v in verdicts for p in v})
    counters_repeat = result.get("counters_repeat", True)
    correct = failed == 0 and counters_repeat
    info = provenance(root, result["versions"])
    rounds = [r for r in result["rounds"] if not r["traced"]]
    raw_walls = [r["wall_s"] for r in rounds]
    walls = [probe.normalised(r["wall_s"], [r["probe_s"]]) if r["probe_s"] else r["wall_s"]
             for r in rounds]

    print(f"vcselink benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(result['rounds'])} rounds of "
          f"{len(plan['invocations'])} CLI invocations")
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    if args.trace:
        layers = per_layer(result["per_layer"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        wall = layers["trace.wall_s"]
        for name, unit in PER_LAYER.items():
            share = ""
            if unit == "s" and wall:
                share = f"  ({layers[name] / wall:6.1%} of traced wall_s)"
            print(f"  {name:34s} {layers[name]:>14.6g} {unit}{share}")
        print(f"  counters repeat across {result['per_layer']['trace.rounds']} traced rounds: "
              f"{counters_repeat}")
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, entry in metrics.items():
            print(f"  {name:12s} {entry['value']:.6g} {entry['unit']}")
        print(f"  wall_s is the median of {len(walls)} rounds; setup_s the median of "
              f"{len(setup)} fresh interpreters; wall_s at the reference machine speed")
        speed = statistics.median(probe.REFERENCE_S / r["probe_s"] for r in rounds)
        print(f"  as measured: wall_s {statistics.median(raw_walls):.6g} s; machine speed "
              f"{speed:.4g} x reference ({sum(r['probe_samples'] for r in rounds)} probe samples)")
        high = tail(walls)
        print(f"  wall_s tail: {high[0]} {high[1]:.6g} s over {len(walls)} rounds" if high else
              f"  wall_s tail: undefined, {len(walls)} rounds (a tail needs 11)")
    print(f"  failed_frac  {_ratio(failed, attempted):.6g} ({failed} of {attempted} invocations)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    if reference is not None:
        print(f"  outputs compared with the stored seed-{args.seed} reference")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": info, "round_wall_s": walls,
              "round_wall_measured_s": raw_walls,
              "round_probe_s": [r["probe_s"] for r in rounds],
              "setup_s": setup, "import_s": result["import_s"],
              "failed_frac": _ratio(failed, attempted), "problems": problems,
              "metrics": metrics}
    os.makedirs(os.path.join(scratch, "results"), exist_ok=True)
    with open(os.path.join(scratch, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
