"""Record the deterministic counts of the workloads' histories in counts.json.

    python3 perfbench/record_counts.py --seeds 0-24
    python3 perfbench/record_counts.py --seeds 3-5 --workload rmw-chains

Counts are keyed by workload and history seed. Each history is checked once
by the traced pipeline, untimed; its verdict must be the expected one.
`run.py` prints its counts beside these and marks any difference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from worker import Tracer, traced_check, traced_counts
from workloads import WORKLOADS

COUNTS = Path(__file__).resolve().parent / "counts.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, as in 0-24")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    names = [args.workload] if args.workload else list(WORKLOADS)

    recorded = json.loads(COUNTS.read_text())
    for name in names:
        workload = WORKLOADS[name]
        for seed in seeds:
            case = workload.case(seed)
            verdict, layer = traced_check(case.data, Tracer())
            if (verdict.outcome == "violation") != (case.anomaly is not None) or \
                    verdict.classification != case.anomaly:
                print(f"{name} seed {seed}: unexpected verdict {verdict.outcome} "
                      f"{verdict.classification}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = traced_counts(layer)
            print(f"{name} seed {seed}: {json.dumps(traced_counts(layer))}", flush=True)
    COUNTS.write_text(dump(recorded))
    return 0


def dump(recorded: dict) -> str:
    """JSON with one line per history seed, seeds in numeric order."""
    blocks = []
    for name in sorted(recorded):
        seeds = sorted(recorded[name], key=int)
        rows = ",\n".join(f'  "{seed}": {json.dumps(recorded[name][seed])}' for seed in seeds)
        blocks.append(f' "{name}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
