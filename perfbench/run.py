"""sicheck benchmark: per-history check latency, committed throughput and per-layer spans.

Usage, from the repository root:

    python3 perfbench/run.py --workload hotspot-write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The parent process generates and serializes the workload's histories (the
timed set-up) and hands their bytes to `worker.py`, which checks them in a
process of its own. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run; `--workload all` runs every workload
in both modes. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported, so one slow repetition does not move it.
SETUP_REPEATS = 3
# A run must end within this many seconds, its set-up included.
RUN_LIMIT_S = 170.0


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup(workload, seed: int) -> tuple:
    """Generate the histories SETUP_REPEATS times; the bytes must match every time.

    Returns each repetition's time in reference seconds (see reference.py).
    """
    times, built = [], []
    for _ in range(SETUP_REPEATS):
        cases, _, ref_elapsed = timed(lambda: (workload.warmup_case(seed), workload.cases(seed)))
        built.append(cases)
        times.append(ref_elapsed)
    payloads = [[warmup.data] + [c.data for c in cases] for warmup, cases in built]
    warmup, cases = built[0]
    return warmup, cases, times, all(p == payloads[0] for p in payloads)


def run_worker(warmup, cases: list, seconds: float, trace: bool, limit_s: float) -> dict | None:
    header = {
        "warmup_bytes": len(warmup.data),
        "cases": [{"anomaly": c.anomaly, "committed": c.committed, "bytes": len(c.data)}
                  for c in cases],
        "seconds": seconds,
        "trace": trace,
        "deadline_s": max(1.0, limit_s - 15.0),
    }
    payload = json.dumps(header).encode() + b"\n" + warmup.data + b"".join(c.data for c in cases)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=payload,
                              stdout=subprocess.PIPE, timeout=limit_s, cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        print(f"worker: no result within {limit_s:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def compare_counts(workload_name: str, cases: list, counts: list) -> list[str]:
    """Lines comparing this run's deterministic counts with counts.json."""
    recorded = json.loads((HERE / "counts.json").read_text()).get(workload_name, {})
    lines = []
    for case, got in zip(cases, counts):
        want = recorded.get(str(case.seed))
        if got is None:
            lines.append(f"counts seed {case.seed}: none, not checked or failed")
        elif want is None:
            lines.append(f"counts seed {case.seed}: {json.dumps(got)} (not recorded)")
        else:
            diff = {k: [want[k], v] for k, v in got.items() if k in want and want[k] != v}
            state = "match recorded" if not diff else f"DIFFER from recorded [recorded, now] {diff}"
            lines.append(f"counts seed {case.seed}: {json.dumps(got)} {state}")
    return lines


def history_medians(out: dict, column: int) -> dict[int, float]:
    """Per history, the median of a column of its timed checks: 1 raw, 2 reference seconds."""
    per_history: dict[int, list[float]] = {}
    for entry in out["timed"]:
        per_history.setdefault(entry[0], []).append(entry[column])
    return {i: statistics.median(times) for i, times in per_history.items()}


def end_to_end(cases: list, setup_s: list[float], out: dict, failed: int) -> dict[str, float]:
    """Per-history medians of the timed checks in reference seconds, then the mean over them.

    The mean, not the median, over histories: one history's cost can differ
    from its neighbours' by a prune iteration, and the mean moves with the
    share of such histories rather than jumping between them.
    """
    medians = history_medians(out, 2)
    values = {
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(setup_s) + out["setup_scaled_s"],
        "verified_frac": 1.0 - failed / out["attempted"],
    }
    if medians:
        values["check_s"] = statistics.fmean(medians.values())
        values["committed_per_s"] = (sum(cases[i].committed for i in medians)
                                     / sum(medians.values()))
    return values


def run_one(workload, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    """One benchmark run; prints its report and returns the result record."""
    started = time.perf_counter()
    warmup, cases, setup_s, deterministic = setup(workload, seed)
    out = run_worker(warmup, cases, seconds, trace,
                     RUN_LIMIT_S - (time.perf_counter() - started))
    mode = "traced" if trace else "untraced"
    print(f"== {workload.name} seed {seed} ({mode}, {seconds:g} s)")
    print("params " + json.dumps(workload.params_record(), sort_keys=True))
    for case in cases:
        print("history " + json.dumps(case.describe()))
    print(f"setup: {SETUP_REPEATS} repeats " + " ".join(f"{t:.4f}" for t in setup_s) + " s")
    declared = bench["per_layer" if trace else "end_to_end"]
    if out is None:
        attempted = failed = len(cases)
        values = {m["name"]: 0.0 for m in declared}
        counts = [None] * len(cases)
    else:
        attempted = out["attempted"]
        failed = min(attempted, len(out["failures"]))
        counts = out["counts"]
        for failure in out["failures"]:
            print(f"FAILED history {failure['history']}: {failure['reason'].strip()}")
        if not deterministic:
            failed = attempted
            print("FAILED set-up: the same seed produced different bytes")
        print(f"worker start-up {out['startup_s']:.4f} s, warm-up check {out['warmup_s'] or 0:.4f} s,"
              f" peak RSS {out['peak_rss_mb']:.1f} MB")
        if trace:
            print(f"traced checks: {out['traced_checks']}")
            values = out["layers"]
        else:
            print(f"timed checks: {len(out['timed'])}, raw s / reference s")
            for i, case in enumerate(cases):
                times = " ".join(f"{raw:.4f}/{ref:.4f}"
                                 for j, raw, ref in out["timed"] if j == i)
                print(f"  history seed {case.seed}: {times}")
            raw = history_medians(out, 1)
            if raw:
                print(f"check_s in raw seconds = {statistics.fmean(raw.values()):.6g} s")
            values = end_to_end(cases, setup_s, out, failed)
    for line in compare_counts(workload.name, cases, counts):
        print(line)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} checks attempted)")
    return {
        "workload": workload.name, "trace": int(trace), "correct": failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "histories": [c.describe() for c in cases], "params": workload.params_record(),
        "setup_s": setup_s, "counts": counts, "worker": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record, spans included, as JSON")
    args = parser.parse_args()

    if not (SRC / "sicheck" / "__init__.py").is_file():
        print(f"sicheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload in WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    results = [run_one(WORKLOADS[name], args.seed, seconds, trace, bench)
               for name, trace in plan]
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "runs": results}, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
