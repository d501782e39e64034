"""Benchmark for graphmoments: one workload per run, measured for a fixed time.

    python3 perfbench/run.py --workload fit-k2 --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, runs whole rounds of its
operations until --seconds have passed, checks every output against
values computed apart from the program, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, the same three on every workload; with --trace 1 the calls into each graphmoments
layer are wrapped in spans and the metrics are every per-layer one, 0 for
a layer the workload does not call. Each
run also writes perfbench/out/<workload>-seed<seed>-trace<0|1>.json with
the machine and library versions, and the traced run writes its spans to
perfbench/out/<workload>-seed<seed>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


class Run:
    """Operation accounting, correctness checks and the current unit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unit_seconds: list[float] = []

    def op(self, fn, *args, **kwargs):
        """Call one operation; returns (result or None if it raised, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            result = None
        return result, time.perf_counter() - t0

    @contextlib.contextmanager
    def unit(self):
        """One unit of the workload's work; its wall time is a unit_s sample."""
        if self.tracer is not None:
            self.tracer.unit = len(self.unit_seconds)
        t0 = time.perf_counter()
        yield
        self.unit_seconds.append(time.perf_counter() - t0)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def fresh_import_seconds(stmt: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", stmt], check=True)
    return time.perf_counter() - t0


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fit-k2", "dense-counts", "cli-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphmoments" / "__init__.py").is_file():
        print(f"perfbench: no graphmoments package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    try:
        # An untimed import first, so the timed ones find the package's and
        # numpy's files in the page cache, as a user's repeated runs do.
        fresh_import_seconds(wl.import_stmt)
        setup = []
        for _ in range(SETUP_REPEATS):
            t_import = fresh_import_seconds(wl.import_stmt)
            t0 = time.perf_counter()
            wl.setup()
            setup.append(t_import + time.perf_counter() - t0)

        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        run = Run(tracer)
        t0 = time.perf_counter()
        while True:
            wl.round(run)
            if time.perf_counter() - t0 >= args.seconds:
                break
        measured_s = time.perf_counter() - t0
        peak = peak_rss_mib()
        if tracer is not None:
            tracer.close()
        wl.check(run)
        end_to_end = {"setup_s": (statistics.median(setup), "s"),
                      "peak_rss_mib": (peak, "MiB"),
                      "unit_s": (statistics.median(run.unit_seconds), "s")}
        metrics = end_to_end
        if tracer is not None:
            metrics = tracing.per_layer(tracer.spans, wl.LAYERS, wl.work_counts())
    finally:
        wl.close()

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = None
    if tracer is not None:
        spans_path = OUT / f"{stem}.spans.jsonl"
        tracer.dump(spans_path)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, measured_s=measured_s, problems=run.problems,
                  samples={"setup_s": setup, "unit_s": run.unit_seconds, **wl.samples},
                  end_to_end={k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
                  spans=None if spans_path is None else str(spans_path.relative_to(ROOT)),
                  environment=environment())
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
