"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload ira-walk --seed 42 --seconds 40 \
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics with the layer wrappers installed and
writes the spans of the first traced repetition under ``.perfbench/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
The exit code is 0 only when every repetition passed its output checks.
BENCHMARK.json describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree; refuse
    # to measure anything else (such as an installed copy).
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != \
            os.path.join(SRC, "repro"):
        print(f"imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from measure import measure_end_to_end, measure_layers
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        spans = os.path.join(ROOT, ".perfbench",
                             f"{workload.name}-seed{args.seed}.spans")
        metrics, check = measure_layers(workload, args.seed, args.seconds,
                                        spans_path=spans)
    else:
        metrics, check = measure_end_to_end(workload, args.seed,
                                            args.seconds)
    correct = check.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
