"""Print, for each workload and metric, the ratio between two sets of results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by run.py or directories of them
(for example perfbench/out of two checkouts). Runs of one workload and
trace setting are reduced to the median of each metric before the ratio
NEW / OLD is taken. Compare results from the same machine only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict:
    """{(workload, trace): {metric: (median value, unit, runs)}}."""
    p = Path(path)
    files = sorted(p.glob("*-trace[01].json")) if p.is_dir() else [p]
    runs: dict = {}
    for f in files:
        rec = json.loads(f.read_text())
        group = runs.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            group.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {key: {name: (statistics.median(vals), unit, len(vals))
                  for name, (unit, vals) in group.items()}
            for key, group in runs.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    print(f"{'workload':14} {'trace':5} {'metric':28} {'unit':8} {'old':>12} {'new':>12} {'new/old':>8}")
    for key in sorted(old.keys() & new.keys()):
        for name in sorted(old[key].keys() & new[key].keys()):
            (a, unit, na), (b, _, nb) = old[key][name], new[key][name]
            ratio = f"{b / a:8.3f}" if a else "       -"
            print(f"{key[0]:14} {key[1]:<5} {name:28} {unit:8} {a:12.6g} {b:12.6g} {ratio}"
                  f"  ({na} vs {nb} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
