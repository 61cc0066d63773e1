"""End-to-end check: gate, construct, prune, solve, explain.

A check holds one polygraph: prune resolves writer pairs in it in place,
the solver and the witness check read it as prune left it, and the
explainer reopens the resolved pairs itself. The Boolean encoding is built
only when it is to be written out; the solver searches the polygraph and
the known-graph index directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import SicheckError
from .explain import Counterexample, interpret
from .gcpause import collector_paused
from .histories import History, completeness_gate, CompletenessReport, walk_ops
from .polygraph import build_polygraph, constraint_count
from .pruning import KnownIndex, PruneOutcome, prune_constraints
from .solving import SolveResult, solve, verify_witness
from .witness import WitnessCycle

SI_HOLDS = "si-holds"
VIOLATION = "violation"


@dataclass(slots=True)
class Verdict:
    outcome: str
    classification: str | None = None
    gate: CompletenessReport | None = None
    cycle: WitnessCycle | None = None
    counterexample: Counterexample | None = None
    stats_before: tuple[int, int] = (0, 0)
    stats_after: tuple[int, int] = (0, 0)
    timings_ms: dict[str, float] = field(default_factory=dict)
    decisions: int = 0
    conflicts: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if self.outcome == SI_HOLDS else 1

    def to_json_dict(self) -> dict:
        """Stable machine-readable record; by design carries no wall-clock
        timings so identical inputs produce byte-identical output."""
        gate = self.gate or CompletenessReport()
        record = {
            "verdict": self.outcome,
            "classification": self.classification,
            "gate": {
                "int_violations": len(gate.int_violations),
                "aborted_reads": len(gate.aborted_reads),
                "intermediate_reads": len(gate.intermediate_reads),
            },
            "constraints": {
                "before": {"count": self.stats_before[0], "unknown_deps": self.stats_before[1]},
                "after": {"count": self.stats_after[0], "unknown_deps": self.stats_after[1]},
            },
            "solver": {"decisions": self.decisions, "conflicts": self.conflicts},
            "witness_cycle": None,
            "counterexample": None,
        }
        if self.cycle is not None:
            record["witness_cycle"] = [
                {
                    "from": list(e[0]),
                    "to": list(e[1]),
                    "label": e[2],
                    "key": e[3],
                    "origin": origin[0],
                }
                for e, origin in self.cycle.deps
            ]
        if self.counterexample is not None:
            ce = self.counterexample
            record["counterexample"] = {
                "classification": ce.classification,
                "minimal": ce.minimal,
                "dependency_count": ce.cluster.dependency_count(),
                "recovered_transactions": [list(t) for t in ce.recovered_txns],
            }
        return record


@collector_paused
def check_si(
    history: History,
    no_prune: bool = False,
    budget_ms: int | None = None,
    explain: bool = True,
    emit_encoding_path: str | None = None,
) -> Verdict:
    """Run the full checking pipeline on a parsed history."""
    verdict = Verdict(outcome=SI_HOLDS)
    started = time.monotonic()
    deadline = None if budget_ms is None else started + budget_ms / 1000.0

    def remaining_ms() -> int | None:
        if deadline is None:
            return None
        return max(1, int((deadline - time.monotonic()) * 1000))

    t0 = time.monotonic()
    walk = walk_ops(history)  # one walk of the ops, for the gate and construction
    gate = completeness_gate(history, walk)
    verdict.gate = gate
    if not gate.ok():
        verdict.outcome = VIOLATION
        verdict.classification = gate.classification()
        verdict.timings_ms["gate"] = (time.monotonic() - t0) * 1000
        verdict.timings_ms["total"] = (time.monotonic() - started) * 1000
        return verdict
    verdict.timings_ms["gate"] = (time.monotonic() - t0) * 1000

    t0 = time.monotonic()
    graph = build_polygraph(history, walk)
    del walk  # not held through prune and solve
    verdict.stats_before = constraint_count(graph)
    verdict.timings_ms["construct"] = (time.monotonic() - t0) * 1000

    t0 = time.monotonic()
    cycle: WitnessCycle | None = None
    index: KnownIndex | None = None
    if no_prune:
        verdict.stats_after = verdict.stats_before
        verdict.timings_ms["prune"] = 0.0
    else:
        outcome: PruneOutcome = prune_constraints(graph, budget_ms=remaining_ms())
        verdict.stats_after = constraint_count(graph)
        verdict.timings_ms["prune"] = (time.monotonic() - t0) * 1000
        if outcome.verdict == "immediate-violation":
            assert outcome.violation is not None
            cycle = outcome.violation.cycle
        index = outcome.index  # None after an immediate violation
        del outcome
        if index is not None:  # only prune reads the closure
            index.reach, index.starts = None, []

    if emit_encoding_path:
        # The graph as prune left it, whatever the verdict. Imported here: a
        # check that writes no encoding never loads the encoder.
        from .encoding import encode, export_encoding

        t0 = time.monotonic()
        enc = encode(graph)
        verdict.timings_ms["encode"] = (time.monotonic() - t0) * 1000
        with open(emit_encoding_path, "wb") as sink:
            export_encoding(enc, sink)
        del enc

    if cycle is None:
        t0 = time.monotonic()
        result: SolveResult = solve(graph, budget_ms=remaining_ms(), index=index)
        # Verification and the explainer build their own views of the graph;
        # do not hold the index while they do.
        index = None
        verdict.decisions = result.decisions
        verdict.conflicts = result.conflicts
        verdict.timings_ms["solve"] = (time.monotonic() - t0) * 1000
        t0 = time.monotonic()
        if not verify_witness(result, graph):
            raise SicheckError("solver produced a witness that fails verification")
        verdict.timings_ms["verify"] = (time.monotonic() - t0) * 1000
        if result.status == "sat":
            verdict.timings_ms["total"] = (time.monotonic() - started) * 1000
            return verdict
        cycle = result.cycle

    verdict.outcome = VIOLATION
    verdict.cycle = cycle
    if explain and cycle is not None:
        t0 = time.monotonic()
        ce = interpret(history, graph, cycle, budget_ms=remaining_ms())
        verdict.counterexample = ce
        verdict.classification = ce.classification
        verdict.timings_ms["interpret"] = (time.monotonic() - t0) * 1000
    verdict.timings_ms["total"] = (time.monotonic() - started) * 1000
    return verdict


@collector_paused
def pruning_stats(history: History) -> tuple[tuple[int, int], tuple[int, int]]:
    """(constraints, unknown deps) before and after pruning, for reporting."""
    walk = walk_ops(history)
    if not completeness_gate(history, walk).ok():
        raise SicheckError("history fails the completeness gate; no constraint stats")
    graph = build_polygraph(history, walk)
    del walk
    before = constraint_count(graph)
    prune_constraints(graph)
    after = constraint_count(graph)
    return before, after
