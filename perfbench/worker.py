"""One benchmark run inside a fresh process: ``python3 worker.py PLAN RESULT``.

``run.py`` starts this process with BLAS/OpenMP threads set to 1 and the
checkout's ``src`` first on the import path. It times the import of
``vcselink.cli``, then runs rounds of the plan's CLI invocations through
``vcselink.cli.main`` until the plan's time budget is spent, and writes the
timings (and, for a traced run, the per-layer metrics) to RESULT as JSON.
Outputs are checked afterwards by ``run.py``, in another process, so the
checks do not add to this process's peak memory.

Before every invocation all ``functools`` caches of the package are
emptied: a CLI user starts a fresh process each time and pays every cache
fill (such as the quadrature node cache) on every call.

In an untraced run a probe samples the machine's speed all through each
round (``probe.py``); the time spent sampling is left out of the round's
invocation times. A traced run takes no probe samples: it alternates
untraced and traced rounds, and the untraced ones give the tracing
overhead and the CPU time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import probe


def _caches(package: str) -> list:
    caches = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and value not in caches:
                caches.append(value)
    return caches


class Runner:
    """Runs rounds of CLI invocations and records what each one cost."""

    def __init__(self, plan: dict, cli):
        self.plan = plan
        self.cli = cli
        self.caches = _caches("vcselink")
        self.sampler = None
        self.log = open(os.path.join(plan["work_dir"], "worker.log"), "a")

    def invoke(self, argv: list) -> tuple[int, float]:
        for cache in self.caches:
            cache.cache_clear()
        sink = io.StringIO()
        sampled = self.sampler.handler_s if self.sampler else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an invocation that crashes counts as failed; the run goes on
            code = -1
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if self.sampler:
            elapsed -= self.sampler.handler_s - sampled
        if code != 0:
            self.log.write(f"exit {code}: {' '.join(argv)}\n{sink.getvalue()}\n")
        return code, elapsed

    def round(self, index: int, traced: bool, sampled: bool = False) -> dict:
        """One round of the plan's invocations; with ``sampled`` the probe
        samples the machine's speed while it runs."""
        out_root = os.path.join(self.plan["work_dir"], "out", f"r{index:03d}")
        self.sampler = probe.Sampler() if sampled else None
        cpu = time.process_time()
        invocations = []
        if self.sampler:
            self.sampler.start()
        try:
            for inv in self.plan["invocations"]:
                argv = inv["argv"] + ["--out", os.path.join(out_root, inv["name"])]
                invocations.append(self.invoke(argv))
        finally:
            if self.sampler:
                self.sampler.stop()
        after = time.process_time()
        samples = self.sampler.samples if self.sampler else []
        if sampled and not samples:  # a round shorter than one probe period
            samples = [probe.probe()]
        return {
            "index": index,
            "traced": traced,
            "wall_s": sum(t for _, t in invocations),
            "probe_s": probe.interquartile_mean(samples) if samples else None,
            "probe_samples": len(samples),
            "cpu_s": after - cpu,
            "exit_codes": [code for code, _ in invocations],
            "invocation_s": [t for _, t in invocations],
        }


def _per_layer(rounds: list, tracer) -> tuple[dict, bool]:
    """Median of each traced-round metric; counts must repeat exactly."""
    per_round = tracer.round_metrics()
    keys = sorted(set().union(*(m.keys() for m in per_round.values())))
    merged, repeat = {}, True
    for key in keys:
        values = [per_round[r].get(key, 0) for r in sorted(per_round)]
        if key.endswith((".s", "_s")):
            merged[key] = statistics.median(values)
        else:
            merged[key] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    merged["trace.wall_s"] = statistics.median(traced)
    merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    merged["process.cpu_s"] = statistics.median(r["cpu_s"] for r in rounds if not r["traced"])
    merged["process.wall_s"] = statistics.median(untraced)
    merged["trace.rounds"] = len(traced)
    return merged, repeat


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import vcselink.cli as cli

    import_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"vcselink imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    runner = Runner(plan, cli)
    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
    budget = plan["seconds"]
    rounds: list[dict] = []
    begin = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds, untraced first
        rounds.append(runner.round(len(rounds), traced=False, sampled=tracer is None))
        if tracer is not None:
            with tracer.installed(len(rounds)):
                rounds.append(runner.round(len(rounds), traced=True))
        elapsed = time.perf_counter() - begin
        step = elapsed / (len(rounds) // (2 if tracer else 1))
        if elapsed + step > budget:
            break
    result = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["per_layer"], result["counters_repeat"] = _per_layer(rounds, tracer)
        spans = os.path.join(plan["root"], ".perfbench", "spans", f"{plan['workload']}.npz")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.save(spans)
        result["spans"] = os.path.relpath(spans, plan["root"])
    runner.log.close()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
