"""Spans around calls into graphmoments layers, with the peak memory of each.

The traced run replaces a fixed list of public graphmoments functions, in
every loaded graphmoments module that holds them, with wrappers that record
a span (id, name, start, end, parent, unit) and the peak resident memory
reached during the call. Nothing in the program is edited; the untraced
run installs nothing.

Peak memory per call: a sampler thread reads the resident set size from
/proc/self/statm every millisecond while any span is open, and the span
also compares the process high-water mark (VmHWM) before and after the
call; when the call raised the high-water mark that value is exact.
The span reports the peak minus the resident size at its start.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
MIB = 2**20


def _high_water_mark() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


class Tracer:
    """Collects spans in memory; `dump` writes them out as JSON lines."""

    def __init__(self, parent: str | None = None, unit: int | None = None):
        self.pid = os.getpid()
        self.parent = parent
        self.unit = unit
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ids = itertools.count()
        self._stop = threading.Event()
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * _PAGE

    def _sample(self) -> None:
        while not self._stop.wait(0.001):
            if self._open:
                rss = self._rss()
                for rec in list(self._open):
                    if rss > rec["_max"]:
                        rec["_max"] = rss

    def close(self) -> None:
        self._stop.set()
        self._sampler.join(timeout=5)
        os.close(self._fd)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its id so a child process can name it."""
        if self._stop.is_set() or os.getpid() != self.pid:  # closed, or a forked worker
            yield None
            return
        rss0, hwm0 = self._rss(), _high_water_mark()
        rec = {
            "id": f"{self.pid}.{next(self._ids)}",
            "name": name,
            "parent": self._open[-1]["id"] if self._open else self.parent,
            "unit": self.unit,
            "nested": any(r["name"] == name for r in self._open),
            "_max": rss0,
        }
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            hwm1 = _high_water_mark()
            peak = max(rec.pop("_max"), self._rss(), hwm1 if hwm1 > hwm0 else 0)
            rec["peak_mib"] = (peak - rss0) / MIB
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _hub_layer(g, spec, *args, **kwargs) -> str:
    if len(spec.ks) == 1:
        k, l = spec.ks[0], spec.ls[0]
        if k == 1 or l == 1:
            return "hubs.closed"
        if k == 2:
            return f"hubs.k2_l{l}"
    return "hubs.generic"


# (module, attribute, span name or a function of the call's arguments)
FUNCTIONS = [
    ("hubs", "wheel_counts_per_hub", _hub_layer),
    ("counting", "triangles_per_vertex", "counting.triangles"),
    ("counting", "triangle_count", "counting.triangles"),
    ("degrees", "m_degrees", lambda g, m, *a, **k: f"degrees.m{m}"),
    ("moments", "wheel_moment_estimates", "moments.estimates"),
    ("moments", "moment_table", "moments.table"),
    ("blockfit", "fit_block_model", "blockfit.fit"),
    ("blockfit", "atoms_from_moments", "blockfit.stages"),
    ("blockfit", "align_stages", "blockfit.stages"),
    ("blockfit", "recover_S", "blockfit.stages"),
    ("blockfit", "nls_refine", "blockfit.nls"),
    ("bootstrap", "bootstrap_variance", "bootstrap.replicates"),
    ("graph", "load_edge_list", "graph.load"),
    ("graph", "write_edge_list", "graph.write"),
    ("models", "sample_block_model", "models.sample"),
]
# (module, class, classmethod, span name)
CLASSMETHODS = [
    ("graph", "Graph", "from_edges", "graph.from_edges"),
    ("bootstrap", "HubCountCache", "build", "bootstrap.cache"),
]


def _wrap(tracer: Tracer, fn, name):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name(*args, **kwargs) if callable(name) else name):
            return fn(*args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever a graphmoments module binds it."""
    import graphmoments  # noqa: F401  (imports every module named below)

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "graphmoments"]
    for mod, attr, name in FUNCTIONS:
        original = getattr(sys.modules[f"graphmoments.{mod}"], attr)
        traced = _wrap(tracer, original, name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    for mod, cls_name, attr, name in CLASSMETHODS:
        cls = getattr(sys.modules[f"graphmoments.{mod}"], cls_name)
        func = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(_wrap(tracer, func, name)))


# Every per-layer metric, in the order of BENCHMARK.json: span times and
# per-call peaks, then work counts.
LAYER_METRICS = [
    "hubs.k2_l3_s", "hubs.k2_l3.peak_mib", "hubs.k2_l2_s", "hubs.k2_l2.peak_mib", "hubs.closed_s",
    "counting.triangles_s", "counting.triangles.peak_mib", "degrees.m3_s", "degrees.m3.peak_mib",
    "moments.estimates_s", "moments.table_s", "blockfit.stages_s", "blockfit.nls_s",
    "bootstrap.cache_s", "bootstrap.replicates_s", "graph.load_s", "graph.write_s",
    "graph.from_edges_s", "models.sample_s", "cli.import_s", "cli.gen_s", "cli.degrees_s",
    "cli.moments_s", "cli.bootstrap_s", "cli.sweep_s",
]
WORK_COUNTS = ["graph.edges", "hubs.paths2", "counting.triangles", "bootstrap.replicates",
               "cli.sweep_cells"]


def per_layer(spans: list[dict], expected: list[str], counts: dict) -> dict[str, tuple]:
    """Every per-layer metric as (value, unit).

    `<layer>_s`: median over units of the time in the layer's outermost
    spans; `<layer>.peak_mib`: the largest peak of any of its calls. A layer
    the workload does not call reads 0, as does a work count it does not
    give; a layer in `expected` without a span is an error.
    """
    out = {}
    for metric in LAYER_METRICS:
        layer = metric.removesuffix(".peak_mib").removesuffix("_s")
        own = [s for s in spans if s["name"] == layer and not s["nested"]]
        if not own and metric in expected:
            raise RuntimeError(f"no span recorded for layer {layer}")
        if metric.endswith(".peak_mib"):
            out[metric] = (max((s["peak_mib"] for s in own), default=0.0), "MiB")
            continue
        per_unit: dict = {}
        for s in own:
            per_unit[s["unit"]] = per_unit.get(s["unit"], 0.0) + s["end"] - s["start"]
        out[metric] = (statistics.median(per_unit.values()) if per_unit else 0.0, "s")
    unknown = counts.keys() - set(WORK_COUNTS)
    if unknown:
        raise ValueError(f"unknown work counts {sorted(unknown)}")
    for name in WORK_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    return out
