"""Run one graphmoments CLI command with layer spans recorded.

    PERFBENCH_SPANS=<out.jsonl> python3 perfbench/tracecli.py <command> [args...]

PERFBENCH_PARENT and PERFBENCH_UNIT name the benchmark span and the unit
the spans belong to. Exits with the command's own exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import graphmoments.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    unit = os.environ.get("PERFBENCH_UNIT")
    tracer = tracing.Tracer(parent=os.environ.get("PERFBENCH_PARENT"),
                            unit=None if unit is None else int(unit))
    tracing.install(tracer)
    try:
        return graphmoments.cli.main(sys.argv[1:])
    finally:
        tracer.close()
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
