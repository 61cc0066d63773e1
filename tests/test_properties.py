"""Differential property suites tying the modules together.

Each suite runs over seeded random histories; on failure the offending seed's
history is persisted under tests/corpus/<suite>/ for regression. The
acceptance module re-runs the headline suites at their full spec sizes; the
copies here are sized for quick feedback.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from sicheck.errors import LimitExceededError
from harness import (
    HistoryBounds,
    known_edges,
    minimal_counterexample_size,
    random_small_history,
    record_failure,
)
from sicheck.histories import completeness_gate
from sicheck.oracle import oracle_check
from sicheck.pipeline import check_si
from sicheck.polygraph import SO, build_polygraph
from sicheck.pruning import prune_constraints
from sicheck.solving import solve, verify_witness
from sicheck.explain import EdgeUniverse
import reference_frontend as ref
from sicheck.witness import has_adjacent_rw

CORPUS = Path(__file__).parent / "corpus"


def _check_with_full_session_order(history) -> str:
    """Same pipeline but with every transitive session-order edge materialized."""
    graph = build_polygraph(history)
    for session in history.sessions:
        ids = [t.id for t in session if t.committed]
        for i in range(len(ids)):
            for j in range(i + 2, len(ids)):
                graph.known_edges.append((ids[i], ids[j], SO, None))
    outcome = prune_constraints(graph)
    if outcome.verdict == "immediate-violation":
        return "violation"
    result = solve(graph)
    return "violation" if result.status == "unsat" else "si-holds"


class TestOracleEquivalence:
    def test_checker_matches_oracle(self):
        for seed in range(150):
            history = random_small_history(seed)
            expected = oracle_check(history).satisfiable
            got = check_si(history).outcome == "si-holds"
            if got != expected:
                record_failure("oracle-equivalence", seed, history, CORPUS)
                pytest.fail(f"seed {seed}: checker disagrees with oracle")


class TestPruningPreservesVerdicts:
    def test_prune_vs_no_prune(self):
        for seed in range(150):
            history = random_small_history(seed)
            a = check_si(history).outcome
            b = check_si(history, no_prune=True).outcome
            if a != b:
                record_failure("prune-differential", seed, history, CORPUS)
                pytest.fail(f"seed {seed}: pruning changed the verdict {b} -> {a}")

    def test_violation_cycles_replay_against_original_constraints(self):
        replayed = 0
        for seed in range(150):
            history = random_small_history(seed)
            verdict = check_si(history)
            if verdict.outcome != "violation" or verdict.cycle is None:
                continue
            original = build_polygraph(history)
            universe, known = EdgeUniverse(original), known_edges(original)
            used: dict = {}
            for edge, _ in verdict.cycle.deps:
                origin = universe.origin_of(edge)
                if origin[0] == "known":
                    assert edge in known, (seed, edge)
                else:
                    used.setdefault(origin[1], set()).add(origin[2])
            for cid, branches in used.items():
                assert len(branches) == 1, (seed, cid)
            replayed += 1
        assert replayed >= 30


class TestSessionOrderReduction:
    def test_consecutive_pairs_equal_full_relation(self):
        # Materializing only consecutive session-order edges is a transitive
        # reduction; verdicts must match a full-relation build.
        compared = 0
        for seed in range(100):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            reduced = check_si(history).outcome
            full = _check_with_full_session_order(history)
            if reduced != full:
                record_failure("session-order-reduction", seed, history, CORPUS)
                pytest.fail(f"seed {seed}: {reduced} != {full}")
            compared += 1
        assert compared >= 50


class TestWitnesses:
    def test_every_witness_passes_verification(self):
        for seed in range(150):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            outcome = prune_constraints(graph)
            if outcome.verdict == "immediate-violation":
                # Immediate-violation cycles carry their own witness pair.
                for cycle in (outcome.violation.either_cycle, outcome.violation.or_cycle):
                    assert cycle.closed(), seed
                    assert not has_adjacent_rw(cycle.edges()), seed
                continue
            result = solve(graph)
            assert verify_witness(result, graph), seed


class TestSolverAgainstBranchEnumeration:
    @staticmethod
    def _acyclic(edges) -> bool:
        from graphlib import CycleError, TopologicalSorter

        graph: dict = {}
        for src, dst, _ in edges:
            if src == dst:
                return False
            graph.setdefault(dst, set()).add(src)
        try:
            tuple(TopologicalSorter(graph).static_order())
        except CycleError:
            return False
        return True

    def test_solver_matches_direct_enumeration(self):
        # Third route, independent of both the solver's search and the
        # version-order oracle: try every branch assignment outright and test
        # the composed graph for cycles.
        import itertools

        from sicheck.oracle import induced_graph
        from sicheck.polygraph import EITHER, OR, branch_edges, branch_ends

        compared = 0
        for seed in range(250):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            constraints = sorted(graph.constraints)
            if len(constraints) > 12:
                continue
            known = ref.known_edges(history)  # the forced edges too, which construct lists nowhere
            expected = any(
                self._acyclic(
                    induced_graph(
                        known
                        + [e for cid, b in zip(constraints, combo)
                           for e in branch_edges(graph, *branch_ends(cid, b))]
                    )
                )
                for combo in itertools.product((EITHER, OR), repeat=len(constraints))
            )
            got = solve(graph).status == "sat"
            if got != expected:
                record_failure("branch-enumeration", seed, history, CORPUS)
                pytest.fail(f"seed {seed}: solver {got} vs enumeration {expected}")
            compared += 1
        assert compared >= 100


class TestMinimality:
    def test_interpreter_matches_enumerator(self):
        checked = 0
        for seed in range(80):
            history = random_small_history(seed)
            verdict = check_si(history)
            if verdict.outcome != "violation" or verdict.counterexample is None:
                continue
            if verdict.cycle is None or not verdict.counterexample.minimal:
                continue
            graph = build_polygraph(history)
            try:
                minimum = minimal_counterexample_size(graph, tuple(verdict.cycle.edges()))
            except LimitExceededError:
                continue
            if verdict.counterexample.cluster.dependency_count() != minimum:
                record_failure("minimality", seed, history, CORPUS)
                pytest.fail(f"seed {seed}: cluster size != enumerated minimum")
            checked += 1
        assert checked >= 25
