"""Check worker: runs the checks of one benchmark run in a process of its own.

Input on stdin: one JSON header line, then the histories' bytes back to back.
Output on stdout: one JSON line. Keeping the checks in their own process
keeps generation memory out of the peak RSS and gives the traced run a fresh
RSS high-water mark.

Untraced checks call `check_si` with its defaults on freshly parsed bytes, as
`sicheck check` does. The traced check calls the layers' public functions in
`check_si`'s order and records one span around each call.
"""

from __future__ import annotations

import time

# Taken before the other imports, so the reported start-up time includes them.
_STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sicheck import check_si, completeness_gate, parse_history  # noqa: E402
from sicheck.encoding import encode  # noqa: E402
from sicheck.explain import EdgeUniverse, interpret  # noqa: E402
from sicheck.graphs import reach_masks  # noqa: E402
from sicheck.pipeline import SI_HOLDS, VIOLATION, Verdict  # noqa: E402
from sicheck.polygraph import build_polygraph, constraint_count  # noqa: E402
from sicheck.pruning import KnownIndex, prune_constraints  # noqa: E402
from sicheck.solving import SolveResult, Solver, verify_witness  # noqa: E402

from reference import scale_now, timed  # noqa: E402

# A check that takes longer than this counts as failed.
CHECK_BUDGET_S = 60.0
# Span names whose durations become `<name>_ms` per-layer metrics.
PIPELINE_SPANS = (
    "histories.parse", "histories.gate", "polygraph.build", "pruning.prune",
    "encoding.encode", "solving.init", "solving.search", "solving.verify",
    "explain.interpret",
)
STANDALONE_SPANS = ("pruning.index", "graphs.reach_masks", "explain.universe")


def rss_mb() -> float:
    """High-water resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans of the traced checks, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.check_id = 0

    @contextmanager
    def span(self, name: str, parent: str | None = "pipeline.check"):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append({"check": self.check_id, "name": name, "parent": parent,
                               "start": start, "end": time.perf_counter()})

    def durations_ms(self, check_id: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s["check"] == check_id:
                out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) * 1000
        return out


def traced_check(data: bytes, tracer: Tracer) -> tuple[Verdict, dict[str, float]]:
    """check_si's pipeline, one span per layer call; returns the verdict and layer values."""
    layer: dict[str, float] = {}
    span = tracer.span
    with span("pipeline.check", parent=None):
        with span("histories.parse"):
            history = parse_history(data)
        with span("histories.gate"):
            gate = completeness_gate(history)
        verdict = Verdict(outcome=SI_HOLDS, gate=gate)
        original = working = cycle = None
        if not gate.ok():
            verdict.outcome = VIOLATION
            verdict.classification = gate.classification()
        else:
            with span("polygraph.build"):
                original = build_polygraph(history)
                verdict.stats_before = constraint_count(original)
            layer["polygraph.rss_mb"] = rss_mb()
            with span("pruning.prune"):
                working = original.clone()
                pruned = prune_constraints(working)
                verdict.stats_after = constraint_count(working)
            layer["pruning.iterations"] = pruned.iterations
            layer["pruning.resolved"] = pruned.resolved_count
            if pruned.verdict == "immediate-violation":
                cycle = pruned.violation.cycle
            else:
                with span("encoding.encode"):
                    enc = encode(working)
                with span("solving.init"):
                    solver = Solver(working, enc)
                with span("solving.search"):
                    result = solver.solve()
                with span("solving.verify"):
                    witness_ok = verify_witness(result, working)
                if not witness_ok:
                    raise AssertionError("solver produced a witness that fails verification")
                verdict.decisions, verdict.conflicts = result.decisions, result.conflicts
                layer["encoding.pairs"] = enc.pair_count
                layer["encoding.induced_pairs"] = enc.induced_count
                if result.status == "unsat":
                    cycle = result.cycle
            if cycle is not None:
                verdict.outcome = VIOLATION
                verdict.cycle = cycle
                with span("explain.interpret"):
                    ce = interpret(history, original, cycle)
                verdict.counterexample = ce
                verdict.classification = ce.classification
                layer["explain.cluster_deps"] = ce.cluster.dependency_count()
                layer["explain.minimal"] = 1.0 if ce.minimal else 0.0

    # Standalone layer builds, outside the pipeline span so they do not count in its total.
    if working is not None:
        with span("pruning.index", parent=None):
            index = KnownIndex(working)
        with span("graphs.reach_masks", parent=None):
            reach_masks(index.n, index.k_adj)
    if cycle is not None:
        with span("explain.universe", parent=None):
            EdgeUniverse(original)

    ms = tracer.durations_ms(tracer.check_id)
    for name in PIPELINE_SPANS + STANDALONE_SPANS:
        layer[f"{name}_ms"] = ms.get(name, 0.0)
    layer["pipeline.total_ms"] = ms["pipeline.check"]
    layer["pipeline.other_ms"] = ms["pipeline.check"] - sum(ms.get(n, 0.0) for n in PIPELINE_SPANS)
    layer["histories.committed"] = sum(1 for _ in history.committed())
    layer["histories.ops"] = history.op_count()
    layer["polygraph.constraints"], layer["polygraph.unknown_deps"] = verdict.stats_before
    layer["polygraph.known_edges"] = len(original.known_edges) if original is not None else 0
    layer["pruning.constraints_after"] = verdict.stats_after[0]
    before = verdict.stats_before[0]
    layer["pruning.resolved_frac"] = layer.get("pruning.resolved", 0) / before if before else 0.0
    layer["solving.decisions"] = verdict.decisions
    layer["solving.conflicts"] = verdict.conflicts
    layer["solving.conflict_frac"] = verdict.conflicts / verdict.decisions if verdict.decisions else 0.0
    return verdict, layer


def witness_replays(data: bytes, verdict: Verdict) -> bool:
    """verify_witness on the verdict's cycle, against a freshly built and pruned graph."""
    if verdict.cycle is None:
        return False
    working = build_polygraph(parse_history(data))
    prune_constraints(working)
    return verify_witness(SolveResult("unsat", cycle=verdict.cycle), working)


class Run:
    """Checks of one run with their verdict checks; every failure is kept."""

    def __init__(self, cases: list[dict]):
        self.cases = cases
        self.attempted = 0
        self.failures: list[dict] = []
        self.records: list[str | None] = [None] * len(cases)
        self.counts: list[dict | None] = [None] * len(cases)

    def fail(self, i: int, reason: str) -> None:
        self.failures.append({"history": i, "reason": reason})

    def check(self, i: int) -> tuple[float, float] | None:
        """One untraced parse-and-check of history i.

        Returns its raw and reference seconds (see reference.py), or None if it failed.
        """
        self.attempted += 1
        data = self.cases[i]["data"]
        gc.collect()
        try:
            verdict, elapsed, ref_elapsed = timed(lambda: check_si(parse_history(data)))
        except Exception:  # a failing check is counted, never dropped
            self.fail(i, traceback.format_exc(limit=4))
            return None
        if elapsed > CHECK_BUDGET_S:
            self.fail(i, f"check took {elapsed:.1f} s, over the {CHECK_BUDGET_S:.0f} s budget")
            return None
        return (elapsed, ref_elapsed) if self.accept(i, verdict) else None

    def accept(self, i: int, verdict: Verdict) -> bool:
        """The first verdict of a history is checked in full; later ones must equal it."""
        record = json.dumps(verdict.to_json_dict(), sort_keys=True)
        if self.records[i] is not None:
            if record != self.records[i]:
                self.fail(i, "verdict record differs from the first check of this history")
                return False
            return True
        reason = self.verdict_problem(i, verdict)
        if reason is not None:
            self.fail(i, reason)
            return False
        self.records[i] = record
        return True

    def verdict_problem(self, i: int, verdict: Verdict) -> str | None:
        case = self.cases[i]
        anomaly = case["anomaly"]
        expected = SI_HOLDS if anomaly is None else VIOLATION
        if verdict.outcome != expected:
            return f"outcome {verdict.outcome}, expected {expected}"
        if verdict.classification != anomaly:
            return f"classification {verdict.classification}, expected {anomaly}"
        if expected == VIOLATION and not witness_replays(case["data"], verdict):
            return "verify_witness rejects the witness cycle"
        return None

    def note_counts(self, i: int, counts: dict) -> None:
        if self.counts[i] is None:
            self.counts[i] = counts
        elif self.counts[i] != counts:
            self.fail(i, f"counts {counts} differ from the first check's {self.counts[i]}")


def record_counts(record: dict, committed: int) -> dict:
    """Deterministic counts carried by a verdict's JSON record."""
    return {
        "committed": committed,
        "constraints_before": record["constraints"]["before"]["count"],
        "constraints_after": record["constraints"]["after"]["count"],
        "decisions": record["solver"]["decisions"],
        "conflicts": record["solver"]["conflicts"],
    }


def traced_counts(layer: dict) -> dict:
    return {
        "committed": layer["histories.committed"],
        "constraints_before": layer["polygraph.constraints"],
        "constraints_after": layer["pruning.constraints_after"],
        "prune_iterations": layer.get("pruning.iterations", 0),
        "decisions": layer["solving.decisions"],
        "conflicts": layer["solving.conflicts"],
    }


def run_untraced(run: Run, seconds: float, deadline: float) -> dict:
    """Timed checks round-robin for `seconds`; every history is timed at least once.

    Each entry of `timed` is (history, raw seconds, reference seconds).
    """
    checks: list[tuple[int, float, float]] = []
    started = time.perf_counter()
    k = 0
    while k < len(run.cases) or time.perf_counter() - started < seconds:
        if time.perf_counter() > deadline:
            break
        i = k % len(run.cases)
        checked = run.check(i)
        if checked is not None:
            checks.append((i, *checked))
        k += 1
    for i, case in enumerate(run.cases):
        if run.records[i] is not None:
            run.note_counts(i, record_counts(json.loads(run.records[i]), case["committed"]))
    return {"timed": checks}


def run_traced(run: Run, seconds: float, deadline: float) -> dict:
    """One traced and one untraced check per step, round-robin, for `seconds`.

    Unlike the timed run, a traced run may end before every history is
    checked; the untraced runs check them all.
    """
    tracer = Tracer()
    layers: list[dict] = []
    untraced: list[float] = []
    started = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - started < seconds:
        if time.perf_counter() > deadline:
            break
        i = k % len(run.cases)
        k += 1
        tracer.check_id = k
        run.attempted += 1
        gc.collect()
        try:
            verdict, layer = traced_check(run.cases[i]["data"], tracer)
        except Exception:  # a failing check is counted, never dropped
            run.fail(i, traceback.format_exc(limit=4))
            continue
        checked = run.check(i)
        if checked is None:
            continue
        untraced.append(checked[0])
        record = json.dumps(verdict.to_json_dict(), sort_keys=True)
        if record != run.records[i]:
            run.fail(i, "traced verdict differs from check_si's record")
            continue
        run.note_counts(i, traced_counts(layer))
        layers.append(layer)
    return {"layers": layers, "untraced_s": untraced, "spans": tracer.spans}


def summarize_layers(layers: list[dict], untraced_s: list[float]) -> dict[str, float]:
    """Median of each per-check layer value over the run's traced checks."""
    if not layers:
        return {}
    names = sorted({name for layer in layers for name in layer} - {"explain.minimal"})
    out = {name: statistics.median(layer.get(name, 0.0) for layer in layers) for name in names}
    # The high-water mark only means "after construct" in the first check of a fresh process.
    out["polygraph.rss_mb"] = layers[0].get("polygraph.rss_mb", 0.0)
    interpreted = [layer["explain.minimal"] for layer in layers if "explain.minimal" in layer]
    out["explain.minimal_frac"] = statistics.fmean(interpreted) if interpreted else 0.0
    total_ms = statistics.median(layer["pipeline.total_ms"] for layer in layers)
    out["trace_overhead_frac"] = total_ms / (statistics.median(untraced_s) * 1000) - 1
    return out


def main() -> int:
    stream = sys.stdin.buffer
    header = json.loads(stream.readline())
    warm = Run([{"anomaly": None, "committed": 0, "data": stream.read(header["warmup_bytes"])}])
    cases = header["cases"]
    for case in cases:
        case["data"] = stream.read(case["bytes"])
    deadline = time.perf_counter() + header["deadline_s"]
    startup_s = time.perf_counter() - _STARTED
    setup = scale_now(startup_s)
    # Warm-up, outside the timed checks, on a small clean history of the workload's shape:
    # imports done, the interpreter's specialized code in place, and the allocator's arenas in use.
    warmed = warm.check(0)
    warmup_s = None
    if warmed is not None:
        warmup_s = warmed[0]
        setup += warmed[1]
    run = Run(cases)
    run.attempted = warm.attempted
    run.failures = [dict(f, history="warm-up") for f in warm.failures]
    if header["trace"]:
        traced = run_traced(run, header["seconds"], deadline)
        out = {"layers": summarize_layers(traced["layers"], traced["untraced_s"]),
               "traced_checks": len(traced["layers"]), "spans": traced["spans"]}
    else:
        out = run_untraced(run, header["seconds"], deadline)
    out.update(startup_s=startup_s, warmup_s=warmup_s, setup_scaled_s=setup,
               attempted=run.attempted, failures=run.failures, counts=run.counts,
               peak_rss_mb=rss_mb())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
