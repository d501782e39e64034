"""Tests of the benchmark itself: the cli-pipeline sweep is byte-identical
across thread counts, and the reference computations agree with plain
enumeration on small graphs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_cli_pipeline_sweep_is_byte_identical_across_threads(tmp_path):
    w = workloads.CliPipeline
    config = workloads.sweep_config(7, w.N, w.LAM, w.SWEEP_REPLICATES, w.SWEEP_METRICS)
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    outputs = []
    for threads in (1, max(2, len(os.sched_getaffinity(0)))):
        out = tmp_path / f"sweep-{threads}.jsonl"
        subprocess.run([sys.executable, "-m", "graphmoments.cli", "sweep", "sweep.json",
                        "--threads", str(threads), "--out", out.name],
                       cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == w.SWEEP_REPLICATES


def _paths(adj, hub, k):
    """Every loopless k-edge path from hub, as vertex tuples without the hub."""
    out = [()]
    for _ in range(k):
        out = [p + (v,) for p in out for v in adj[p[-1] if p else hub]
               if v != hub and v not in p]
    return out


def _disjoint(*paths) -> bool:
    return all(not set(p) & set(q) for p, q in itertools.combinations(paths, 2))


def test_reference_matches_enumeration_on_small_graphs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 11
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        adj = {v: set() for v in range(n)}
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        assert reference.triangle_count(n, edges) == sum(
            1 for a, b, c in itertools.combinations(range(n), 3) if b in adj[a] and c in adj[a] and c in adj[b])
        d = reference.degrees(n, edges)
        assert reference.two_paths(n, edges).tolist() == [len(_paths(adj, h, 2)) for h in range(n)]
        assert reference.comb_column(d, 2) == [math.comb(len(adj[h]), 2) for h in range(n)]
        indptr, indices = reference.adjacency_lists(n, edges)
        for hub in range(n):
            two = _paths(adj, hub, 2)
            assert reference.hub_three_paths(indptr, indices, hub) == len(_paths(adj, hub, 3))
            paths = reference.hub_two_paths(indptr, indices, hub)
            assert sorted(map(tuple, paths.tolist())) == sorted(two)
            pairs2 = sum(1 for ps in itertools.combinations(two, 2) if _disjoint(*ps))
            overlapping = sum(1 for p in two for q in two if p != q and set(p) & set(q))
            assert reference.hub_pair_counts(paths) == (pairs2, overlapping)
            assert reference.hub_disjoint_triples(paths) == sum(
                1 for ps in itertools.combinations(two, 3) if _disjoint(*ps))


def test_manifest_names_every_metric_the_benchmark_prints():
    import tracing

    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["per_layer"]] == tracing.LAYER_METRICS + tracing.WORK_COUNTS
    assert [m["name"] for m in manifest["end_to_end"]] == ["setup_s", "peak_rss_mib", "unit_s"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    for wl in workloads.WORKLOADS.values():
        assert set(wl.LAYERS) <= set(tracing.LAYER_METRICS)
