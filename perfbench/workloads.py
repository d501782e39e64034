"""The three workloads: inputs from the seed, one round of operations, the
checks on the outputs, and the work counts of the traced run.

A workload's unit is what `unit_s` takes the median over: one fit
(fit-k2), one count set (dense-counts), one CLI pipeline round
(cli-pipeline). Per-layer times are medians over the same units. LAYERS
names the per-layer times and peaks a workload's traced run must record;
every other layer reads 0 there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent

# criterion 11's two-block reference model
REF_PI = [0.5, 0.5]
REF_S = [[2.0, 0.5], [0.5, 1.0]]


def seed_of(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def canonical_truth() -> tuple[np.ndarray, np.ndarray]:
    """(pi, S) with blocks in ascending marginal intensity S @ pi."""
    pi, s = np.array(REF_PI), np.array(REF_S)
    order = np.argsort(s @ pi, kind="stable")
    return pi[order], s[np.ix_(order, order)]


def edge_array(g) -> np.ndarray:
    """(L, 2) edges u < v read straight from the graph's CSR arrays."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    keep = src < g.indices
    return np.column_stack([src[keep], g.indices[keep]])


def fresh_copy(g):
    """A new Graph over copied arrays, so no state cached on the object
    carries from one timed call to the next."""
    return type(g)(n=g.n, indptr=g.indptr.copy(), indices=g.indices.copy())


def sample_hubs(rng, eligible: np.ndarray, k: int = 3) -> list[int]:
    return sorted(int(h) for h in rng.choice(np.flatnonzero(eligible), size=k, replace=False))


def check_hub_counts(run, label, g, edges, hubs, per_hub: dict) -> None:
    """Compare the program's per-hub counts for keys (1,l), (2,1), (2,2) and
    (2,3) with the reference: closed forms from the degree sequence at every
    hub, enumeration of 2-path pairs and triples at `hubs`."""
    d = reference.degrees(g.n, edges)
    d2 = reference.two_paths(g.n, edges)
    indptr, indices = reference.adjacency_lists(g.n, edges)
    for (k, l), counts in per_hub.items():
        counts = [int(c) for c in counts]
        if k == 1:
            run.check(counts == reference.comb_column(d, l), f"{label}: per-hub ({k},{l}) != C(d,{l})")
        elif l == 1:
            run.check(counts == d2.tolist(), f"{label}: per-hub (2,1) != sum of (d_j - 1)")
        elif l == 2:
            for h in hubs:
                disjoint, overlapping = reference.hub_pair_counts(reference.hub_two_paths(indptr, indices, h))
                run.check(counts[h] == disjoint, f"{label}: (2,2) at hub {h}: {counts[h]} != {disjoint}")
                m = int(d2[h])
                run.check(m * (m - 1) - 2 * counts[h] == overlapping,
                          f"{label}: (D2)_2 - 2 n22 != overlapping pairs at hub {h}")
        else:
            for h in hubs:
                triples = reference.hub_disjoint_triples(reference.hub_two_paths(indptr, indices, h))
                run.check(counts[h] == triples, f"{label}: (2,3) at hub {h}: {counts[h]} != {triples}")


def check_repeats(run, label: str, values: list) -> None:
    run.check(all(v == values[0] for v in values), f"{label} differs between rounds")


class FitK2:
    """K=2 fits on criterion 11's reference model at n = 4000, lambda = 20."""

    import_stmt = "import graphmoments"
    N, LAM = 4000, 20.0
    SEEDED = 4  # graphs drawn from --seed
    FIXED = 5  # criterion 11's first graphs at n = 4000, the same in every run
    PI_BOUND, S_BOUND = 0.05, 0.15  # criterion 11
    LAYERS = ["hubs.k2_l3_s", "hubs.k2_l3.peak_mib", "hubs.k2_l2_s", "hubs.k2_l2.peak_mib",
              "hubs.closed_s", "counting.triangles_s", "counting.triangles.peak_mib",
              "moments.estimates_s", "blockfit.stages_s", "blockfit.nls_s"]

    def __init__(self, seed: int):
        self.seed = seed
        self.samples: dict = {}
        self.results: list[list] = [[] for _ in range(self.SEEDED + self.FIXED)]

    def setup(self) -> None:
        import graphmoments as gm

        model = gm.BlockModel(pi=np.array(REF_PI), S=np.array(REF_S), rho=self.LAM / (self.N - 1))
        seeds = [seed_of(self.seed, i) for i in range(self.SEEDED)]
        seeds += [seed_of(11, self.N, r) for r in range(self.FIXED)]
        self.graphs = [gm.sample_block_model(model, self.N, s).graph for s in seeds]
        self.cfg = gm.FitConfig(K=2, on_stage_error="fallback")

    def round(self, run) -> None:
        import graphmoments as gm

        for i, g in enumerate(self.graphs):
            h = fresh_copy(g)
            with run.unit():
                res, _ = run.op(gm.fit_block_model, h, self.cfg)
            if res is not None:
                self.results[i].append(res)

    def _errors(self, which) -> tuple[list[float], list[float]]:
        pi_c, s_c = canonical_truth()
        last = [self.results[i][-1] for i in which if self.results[i]]
        return ([float(np.max(np.abs(r.pi - pi_c))) for r in last],
                [float(np.max(np.abs(r.S - s_c))) for r in last])

    def close(self) -> None:
        pass

    def check(self, run) -> None:
        import graphmoments as gm

        pe, se = self._errors(range(len(self.graphs)))
        self.samples.update(pi_err=pe, S_err=se)
        run.check(bool(pe) and statistics.median(pe) <= self.PI_BOUND,
                  f"median pi error {statistics.median(pe) if pe else None} > {self.PI_BOUND}")
        run.check(bool(se) and statistics.median(se) <= self.S_BOUND,
                  f"median S error {statistics.median(se) if se else None} > {self.S_BOUND}")
        for i, rs in enumerate(self.results):
            check_repeats(run, f"fit of graph {i}", [(r.pi.tolist(), r.S.tolist()) for r in rs])
        g = self.graphs[0]
        edges = edge_array(g)
        keys = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        per_hub = {k: gm.wheel_counts_per_hub(g, gm.WheelSpec.simple(*k)) for k in keys}
        rng = np.random.default_rng(seed_of(self.seed, 99))
        hubs = sample_hubs(rng, reference.two_paths(g.n, edges) <= 500)
        check_hub_counts(run, "fit-k2 graph 0", g, edges, hubs, per_hub)

    def work_counts(self) -> dict:
        degs = [np.diff(g.indptr) for g in self.graphs]
        return {
            "graph.edges": statistics.median(g.edge_count for g in self.graphs),
            "hubs.paths2": statistics.median(int((d * (d - 1)).sum()) for d in degs),
            "counting.triangles": statistics.median(
                reference.triangle_count(g.n, edge_array(g)) for g in self.graphs),
        }


class DenseCounts:
    """The count set on one Erdos-Renyi graph, n = 5000, lambda = 100."""

    import_stmt = "import graphmoments"
    N, LAM = 5000, 100.0
    BOOT_B = 1000
    LAYERS = ["hubs.k2_l2_s", "hubs.k2_l2.peak_mib", "hubs.closed_s", "counting.triangles_s",
              "counting.triangles.peak_mib", "degrees.m3_s", "degrees.m3.peak_mib",
              "moments.table_s", "bootstrap.cache_s", "bootstrap.replicates_s"]

    def __init__(self, seed: int):
        self.seed = seed
        self.samples: dict = {}
        self.outputs: list[dict] = []
        self.triangles = None

    def setup(self) -> None:
        import graphmoments as gm

        model = gm.erdos_renyi_model(self.LAM / (self.N - 1))
        self.g = gm.sample_block_model(model, self.N, seed_of(self.seed)).graph
        w = gm.WheelSpec.simple
        self.table_items = [w(1, 2), w(2, 1), w(2, 2), gm.parse_pattern_name("edges:0-1,0-2,1-2")]
        self.cache_keys = [w(2, 1), w(2, 2)]

    def round(self, run) -> None:
        import graphmoments as gm

        h = fresh_copy(self.g)
        with run.unit():
            table, _ = run.op(gm.moment_table, h, self.table_items, mode="noninduced")
            profile, _ = run.op(gm.m_degrees, h, 3)
            cache, _ = run.op(gm.HubCountCache.build, h, self.cache_keys)
            boot, _ = run.op(gm.bootstrap_variance, h, cache, (2, 2), B=self.BOOT_B, seed=self.seed)
        self.outputs.append({"table": table, "profile": profile, "cache": cache, "boot": boot})

    def close(self) -> None:
        pass

    def check(self, run) -> None:
        complete = [o for o in self.outputs if None not in o.values()]
        if not complete:
            run.check(False, "no count set completed")
            return
        g, out = self.g, complete[-1]
        n = g.n
        edges = edge_array(g)
        d = reference.degrees(n, edges)
        d2 = reference.two_paths(n, edges)
        self.triangles = reference.triangle_count(n, edges)
        n22 = [int(c) for c in out["cache"].get((2, 2))]
        rows = {e.name: e.noninduced_count for e in out["table"].entries}
        expected = {
            "wheel:k=1,l=2": sum(reference.comb_column(d, 2)),
            "wheel:k=2,l=1": int(d2.sum()) // 2,
            "wheel:k=2,l=2": sum(n22),
            "edges:0-1,0-2,1-2": self.triangles,
        }
        for name, want in expected.items():
            run.check(rows.get(name) == want, f"moment_table {name}: {rows.get(name)} != {want}")
        counts = out["profile"].counts
        run.check(counts[:, 0].tolist() == d.tolist(), "D1 != bincount degrees")
        run.check(counts[:, 1].tolist() == d2.tolist(), "D2 != bincount sums")
        rng = np.random.default_rng(seed_of(self.seed, 99))
        hubs = sample_hubs(rng, np.ones(n, dtype=bool))
        indptr, indices = reference.adjacency_lists(n, edges)
        for hub in hubs:
            want = reference.hub_three_paths(indptr, indices, hub)
            run.check(int(counts[hub, 2]) == want, f"D3 at hub {hub}: {counts[hub, 2]} != {want}")
        per_hub = {(2, 1): out["cache"].get((2, 1)), (2, 2): n22}
        check_hub_counts(run, "dense-counts", g, edges, hubs, per_hub)
        rho = 2 * len(edges) / (n * (n - 1))
        rooted = math.factorial(5) // math.factorial(2)  # hub-rooted labelings of (2,2)
        want = sum(n22) / (math.comb(n, 5) * rooted) * rho**-4
        got = out["boot"].full_sample_value
        run.check(math.isclose(got, want, rel_tol=1e-12), f"bootstrap full-sample value {got} != {want}")
        check_repeats(run, "moment table", [[e.noninduced_count for e in o["table"].entries]
                                            for o in complete])
        check_repeats(run, "bootstrap", [o["boot"].sigma2_hat for o in complete])

    def work_counts(self) -> dict:
        return {"graph.edges": self.g.edge_count, "counting.triangles": self.triangles,
                "bootstrap.replicates": self.BOOT_B}


class CliPipeline:
    """graphmoments subprocesses on a reference-model graph, n = 20000, lambda = 30."""

    import_stmt = "import graphmoments.cli"
    N, LAM = 20000, 30.0
    BOOT_B = 2000
    SWEEP_REPLICATES = 8
    SWEEP_METRICS = ["rho_hat", "tau_check:k=2,l=1", "coupling:m=2"]
    FILES = ["g.txt", "deg.csv", "mom.json", "boot.json", "sweep.jsonl"]
    LAYERS = ["hubs.closed_s", "counting.triangles_s", "counting.triangles.peak_mib", "degrees.m3_s",
              "degrees.m3.peak_mib", "bootstrap.replicates_s", "graph.load_s", "graph.write_s",
              "graph.from_edges_s", "models.sample_s", "cli.import_s", "cli.gen_s", "cli.degrees_s",
              "cli.moments_s", "cli.bootstrap_s", "cli.sweep_s"]

    def __init__(self, seed: int):
        self.seed = seed
        self.samples = {"pipeline_s": [], "sweep_cells_per_s": []}
        self.digests: list[list[str]] = []
        self.threads = len(os.sched_getaffinity(0))
        self.work = None

    def setup(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        model = {"K": 2, "pi": REF_PI, "S": REF_S, "rho": self.LAM / (self.N - 1)}
        (self.work / "model.json").write_text(json.dumps(model))
        (self.work / "sweep.json").write_text(json.dumps(
            sweep_config(self.seed, self.N, self.LAM, self.SWEEP_REPLICATES, self.SWEEP_METRICS)))

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work)

    def commands(self) -> list[tuple[str, list[str]]]:
        s = str(self.seed)
        return [
            ("gen", ["gen", "model.json", "--n", str(self.N), "--seed", s, "--out", "g.txt"]),
            ("degrees", ["degrees", "g.txt", "--m", "3", "--out", "deg.csv", "--summary", "deg.json"]),
            ("moments", ["moments", "g.txt", "--estimator", "qcheck", "--pattern", "wheel:k=1,l=2",
                         "--pattern", "wheel:k=1,l=3", "--pattern", "wheel:k=2,l=1", "--out", "mom.json"]),
            ("bootstrap", ["bootstrap", "g.txt", "--key", "2,1", "--B", str(self.BOOT_B),
                           "--seed", s, "--out", "boot.json"]),
        ]

    def _cli(self, run, name: str, args: list[str]) -> float:
        spans = None
        with run.span(f"cli.{name}") as span_id:
            if run.tracer is None:
                cmd = [sys.executable, "-m", "graphmoments.cli", *args]
                env = None
            else:
                spans = self.work / "child.spans.jsonl"
                cmd = [sys.executable, str(HERE / "tracecli.py"), *args]
                env = dict(os.environ, PERFBENCH_SPANS=str(spans), PERFBENCH_PARENT=span_id,
                           PERFBENCH_UNIT=str(run.tracer.unit))
            _, dt = run.op(run_command, cmd, self.work, env)
        if spans is not None and spans.exists():
            run.tracer.spans.extend(json.loads(line) for line in spans.read_text().splitlines())
            spans.unlink()
        return dt

    def round(self, run) -> None:
        with run.unit():
            self.samples["pipeline_s"].append(sum(self._cli(run, name, args) for name, args in self.commands()))
            dt = self._cli(run, "sweep", ["sweep", "sweep.json", "--threads", str(self.threads),
                                          "--seed", str(self.seed), "--out", "sweep.jsonl"])
            self.samples["sweep_cells_per_s"].append(self.SWEEP_REPLICATES / dt)
            if run.tracer is not None:
                with run.span("cli.import"):
                    subprocess.run([sys.executable, "-c", self.import_stmt], check=True)
        self.digests.append([hashlib.sha256((self.work / f).read_bytes()).hexdigest()
                             if (self.work / f).exists() else None for f in self.FILES])

    def check(self, run) -> None:
        import graphmoments as gm

        self.edges = self.triangles = None
        if run.failed:  # the files of a failed command are missing or partial
            return
        check_repeats(run, "CLI outputs", self.digests)
        text = (self.work / "g.txt").read_text()
        header, body = text.split("\n", 1)
        run.check(header == f"# n={self.N}", f"edge file header {header!r}")
        n = self.N
        edges = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
        model = gm.BlockModel(pi=np.array(REF_PI), S=np.array(REF_S), rho=self.LAM / (n - 1))
        sampled = edge_array(gm.sample_block_model(model, n, self.seed).graph)
        run.check(np.array_equal(edges, sampled), "edge file differs from the graph sampled for the seed")
        d = reference.degrees(n, edges)
        d2 = reference.two_paths(n, edges)
        csv = np.loadtxt(self.work / "deg.csv", delimiter=",", skiprows=1, dtype=np.int64)
        run.check(csv[:, 0].tolist() == list(range(n)), "degree CSV vertex column")
        run.check(csv[:, 1].tolist() == d.tolist(), "degree CSV D1 != degrees parsed from the edge file")
        run.check(csv[:, 2].tolist() == d2.tolist(), "degree CSV D2 != bincount sums")
        mom = json.loads((self.work / "mom.json").read_text())
        rows = {e["pattern"]: e["raw_count"]["noninduced"] for e in mom["entries"]}
        for l in (2, 3):
            want = sum(reference.comb_column(d, l))
            run.check(rows.get(f"wheel:k=1,l={l}") == want, f"moments (1,{l}) count != sum C(d,{l})")
        run.check(rows.get("wheel:k=2,l=1") == int(d2.sum()) // 2, "moments (2,1) count != sum D2 / 2")
        boot = json.loads((self.work / "boot.json").read_text())
        rho = 2 * len(edges) / (n * (n - 1))
        want = int(d2.sum()) / (math.comb(n, 3) * 6) * rho**-2
        run.check(math.isclose(boot["full_sample_value"], want, rel_tol=1e-12),
                  f"bootstrap full-sample value {boot['full_sample_value']} != {want}")
        lines = [json.loads(x) for x in (self.work / "sweep.jsonl").read_text().splitlines()]
        run.check(len(lines) == self.SWEEP_REPLICATES, f"sweep wrote {len(lines)} lines")
        run.check(all(x["error"] is None and set(x["metrics"]) == set(self.SWEEP_METRICS)
                      for x in lines), "a sweep line carries an error or misses a metric")
        self.edges = len(edges)
        if run.tracer is not None:
            self.triangles = reference.triangle_count(n, edges)

    def work_counts(self) -> dict:
        return {"graph.edges": self.edges, "counting.triangles": self.triangles,
                "bootstrap.replicates": self.BOOT_B, "cli.sweep_cells": self.SWEEP_REPLICATES}


def sweep_config(seed: int, n: int, lam: float, replicates: int, metrics: list[str]) -> dict:
    return {
        "models": [{"name": "ref", "model": {"K": 2, "pi": REF_PI, "S": REF_S, "rho": lam / (n - 1)}}],
        "n": [n],
        "replicates": replicates,
        "lambda": {"kind": "fixed", "value": lam},
        "metrics": metrics,
        "seed": seed,
    }


def run_command(cmd: list[str], cwd: Path, env) -> None:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")


WORKLOADS = {"fit-k2": FitK2, "dense-counts": DenseCounts, "cli-pipeline": CliPipeline}
