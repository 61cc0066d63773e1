import re
from pathlib import Path

import pytest

from sicheck.errors import MissingSupportError
from sicheck.explain import (
    CERTAIN,
    UNCERTAIN,
    EdgeUniverse,
    TaggedDependency,
    _certain_cycle_exists,
    _first_gap,
    classify,
    find_cluster,
    finalize,
    interpret,
    render_dot,
    resolve_uncertain,
    restore_rw_context,
    undesired_cycles,
)
from harness import minimal_counterexample_size, random_small_history
from sicheck.histories import INIT_TXN, completeness_gate, parse_history
from sicheck.pipeline import check_si
from sicheck.polygraph import (
    RW, SO, WR, WW, branch_edges, branch_ends, build_polygraph, resolved_edges,
)
from sicheck.pruning import prune_constraints
from sicheck.witness import KNOWN_ORIGIN

from conftest import (
    T0, T1, T2, T3, T4, T5, committed, immediate_violation_history, injected_histories,
    mk_history, workload_seed_1_histories,
)
import reference_frontend as ref
from reference_closures import eager_edge_universe

A, B, C = (0, 0), (1, 0), (2, 0)


@pytest.fixture
def lost_update_run(lost_update):
    verdict = check_si(lost_update)
    assert verdict.outcome == "violation"
    return lost_update, build_polygraph(lost_update), verdict


class TestInterpret:
    def test_lost_update_stages(self, lost_update_run):
        history, graph, verdict = lost_update_run
        ce = verdict.counterexample
        assert ce.classification == "lost-update"
        assert ce.minimal
        # The writer of the overwritten value is recovered as a participant.
        assert ce.recovered_txns == (A,)
        stages = ce.stages
        assert set(stages) == {"original", "participants", "recovered", "final"}
        assert {d.edge for d in stages["original"]} <= {d.edge for d in stages["participants"]}
        # Every finalized dependency is certain.
        assert all(d.tag == CERTAIN for d in stages["final"])
        final_edges = {d.edge for d in stages["final"]}
        # Both overwriters' reads of the common ancestor survive to the end.
        assert (A, B, WR, "k") in final_edges
        assert (A, C, WR, "k") in final_edges

    def test_lost_update_cluster_is_minimal(self, lost_update_run):
        history, graph, verdict = lost_update_run
        ce = verdict.counterexample
        count = ce.cluster.dependency_count()
        assert count == minimal_counterexample_size(graph, tuple(verdict.cycle.edges()))
        assert count == 5

    def test_no_dependency_is_dispensable(self, lost_update_run):
        history, graph, verdict = lost_update_run
        ce = verdict.counterexample
        deps = ce.cluster.dependencies()
        # Every dependency carries some cycle of the cluster, and because the
        # cluster matches the enumerated minimum, no proper subset of its
        # dependencies can host a complete cluster containing the witness.
        for dep in deps:
            assert any(dep in cycle for cycle in ce.cluster.cycles)
        minimum = minimal_counterexample_size(graph, tuple(verdict.cycle.edges()))
        assert len(deps) == minimum

    def test_causality_cluster_is_the_cycle_itself(self, causality_violation):
        verdict = check_si(causality_violation)
        ce = verdict.counterexample
        assert ce.classification == "causality-violation"
        assert ce.minimal
        assert ce.cluster.complete
        assert ce.cluster.cycles == [tuple(verdict.cycle.edges())]
        assert ce.cluster.dependency_count() == len(verdict.cycle.deps)

    def test_budget_exhaustion_falls_back(self, lost_update):
        verdict = check_si(lost_update, budget_ms=None)
        graph = build_polygraph(lost_update)
        ce = interpret(lost_update, graph, verdict.cycle, budget_ms=0)
        assert not ce.minimal
        full = interpret(lost_update, graph, verdict.cycle)
        assert full.minimal
        assert ce.cluster.dependency_count() >= len(verdict.cycle.deps)


class TestFindCluster:
    def test_known_only_cycle_is_already_complete(self, causality_violation):
        graph = build_polygraph(causality_violation)
        universe = EdgeUniverse(graph)
        cycle = (
            (T0, T5, SO, None),  # placeholder vertices; rebuilt below
        )
        verdict = check_si(causality_violation)
        cycle = tuple(verdict.cycle.edges())
        cluster, exhaustive = find_cluster(universe, cycle)
        assert cluster.complete and exhaustive
        assert cluster.cycles == [cycle]


class TestRestore:
    def test_supports_added(self, lost_update):
        graph = build_polygraph(lost_update)
        rw = (C, B, RW, "k")
        scenario = {rw: TaggedDependency(rw, ("branch", ("k", B, C), "either"), UNCERTAIN)}
        restore_rw_context(scenario, EdgeUniverse(graph))
        assert (A, B, WW, "k") in scenario
        assert (A, C, WR, "k") in scenario
        assert scenario[(A, C, WR, "k")].tag == CERTAIN  # known writer-reader edge
        assert scenario[(A, B, WW, "k")].tag == UNCERTAIN  # still a guess here
        assert scenario[(A, B, WW, "k")].support

    def test_initial_writer_support(self, causality_violation):
        graph = build_polygraph(causality_violation)
        rw = ((1, 0), (0, 0), RW, "x")
        scenario = {rw: TaggedDependency(rw, ("known",), CERTAIN)}
        restore_rw_context(scenario, EdgeUniverse(graph))
        assert (INIT_TXN, (0, 0), WW, "x") in scenario
        assert (INIT_TXN, (1, 0), WR, "x") in scenario
        assert all(d.tag == CERTAIN for d in scenario.values())

    def test_no_rw_edges_unchanged(self, lost_update):
        graph = build_polygraph(lost_update)
        edge = (A, B, WR, "k")
        scenario = {edge: TaggedDependency(edge, ("known",), CERTAIN)}
        assert restore_rw_context(dict(scenario), EdgeUniverse(graph)) == scenario

    def test_missing_support_raises(self, lost_update):
        graph = build_polygraph(lost_update)
        bogus = ((0, 0), (1, 0), RW, "nope")
        scenario = {bogus: TaggedDependency(bogus, ("known",), UNCERTAIN)}
        with pytest.raises(MissingSupportError):
            restore_rw_context(scenario, EdgeUniverse(graph))


D, E = (3, 0), (4, 0)
RING = [(A, B, WW, "x"), (B, C, WW, "x"), (C, D, WW, "x"), (D, A, WW, "x")]


def _succ(edges):
    succ = {}
    for edge in sorted(edges):
        succ.setdefault(edge[0], []).append(edge)
    return lambda vertex: succ.get(vertex, ())


class TestUndesiredCycles:
    def test_length_bound(self):
        succ = _succ(RING)
        assert undesired_cycles(succ, RING[0], 4, 10) == ([tuple(RING)], False)
        assert undesired_cycles(succ, RING[0], 3, 10) == ([], True)

    def test_count_cap(self):
        chord = (B, A, WR, "y")
        succ = _succ(RING + [chord])
        both = [(RING[0], chord), tuple(RING)]
        assert undesired_cycles(succ, RING[0], 10, 2) == (both, False)
        assert undesired_cycles(succ, RING[0], 10, 1) == (both[:1], True)

    def test_count_cap_needs_a_further_cycle(self):
        # A->B, B->C, B->D, C->A: the one cycle is all there is.
        edges = [(A, B, WW, "x"), (B, C, WW, "x"), (B, D, WW, "x"), (C, A, WW, "x")]
        cycle = (edges[0], edges[1], edges[3])
        assert undesired_cycles(_succ(edges), edges[0], 10, 1) == ([cycle], False)
        assert undesired_cycles(_succ(edges), edges[0], 2, 1) == ([], True)

    def test_adjacent_rw_cycle_left_out(self):
        edge, back = (A, B, RW, "x"), (B, A, RW, "y")
        assert undesired_cycles(_succ([edge, back]), edge, 10, 10) == ([], False)

    def test_certain_cycle_of_five_edges(self):
        ring = [(A, B, WW, "x"), (B, C, WW, "x"), (C, D, WW, "x"), (D, E, WW, "x"),
                (E, A, WW, "x")]
        scenario = {e: TaggedDependency(e, ("known",), CERTAIN) for e in ring[1:]}
        assert _certain_cycle_exists(ring[0], scenario)
        scenario[ring[2]].tag = UNCERTAIN
        assert not _certain_cycle_exists(ring[0], scenario)


class TestResolve:
    def test_branch_dies_against_known_cycle(self, lost_update):
        # B -WW-> A closes a cycle with the known A -WR-> B, so the opposite
        # branch becomes certain and the dead branch leaves the scenario.
        graph = build_polygraph(lost_update)
        cid = ("k", A, B)
        assert cid in graph.constraints
        scenario = {}
        for branch in ("either", "or"):
            for edge in branch_edges(graph, *branch_ends(cid, branch)):
                scenario[edge] = TaggedDependency(edge, ("branch", cid, branch), UNCERTAIN)
        known = (A, B, WR, "k")
        scenario[known] = TaggedDependency(known, ("known",), CERTAIN)
        resolve_uncertain(scenario)
        assert (B, A, WW, "k") not in scenario
        assert scenario[(A, B, WW, "k")].tag == CERTAIN
        assert scenario[(C, B, RW, "k")].tag == CERTAIN

    def test_all_certain_unchanged(self):
        edge = (A, B, WR, "k")
        scenario = {edge: TaggedDependency(edge, ("known",), CERTAIN)}
        assert resolve_uncertain(dict(scenario)) == scenario

    def test_two_independent_constraints_stay_uncertain(self):
        history = mk_history(
            [
                [committed([("w", "x", 1)])],
                [committed([("w", "x", 2)])],
                [committed([("w", "y", 3)])],
                [committed([("w", "y", 4)])],
            ]
        )
        graph = build_polygraph(history)
        scenario = {}
        for cid in graph.constraints:
            edge = branch_edges(graph, *branch_ends(cid, "either"))[0]
            scenario[edge] = TaggedDependency(edge, ("branch", cid, "either"), UNCERTAIN)
        resolve_uncertain(scenario)
        assert all(d.tag == UNCERTAIN for d in scenario.values())
        # Finalize then removes both.
        assert finalize(scenario) == {}


class TestClassify:
    def test_lost_update_requires_common_source(self, lost_update_run):
        history, graph, verdict = lost_update_run
        edges = verdict.counterexample.stage_edges("participants")
        assert classify(verdict.cycle, edges, graph) == "lost-update"

    def test_long_fork(self, long_fork):
        verdict = check_si(long_fork)
        assert verdict.classification == "long-fork"

    def test_causality(self, causality_violation):
        verdict = check_si(causality_violation)
        assert verdict.classification == "causality-violation"


class TestRenderDot:
    def test_final_stage_lost_update(self, lost_update_run):
        history, graph, verdict = lost_update_run
        dot = render_dot(verdict.counterexample, "final")
        assert dot.startswith("digraph counterexample {")
        assert dot.endswith("}\n")
        assert '"T(0,0)"' in dot and "color=green" in dot  # recovered writer
        assert "style=solid" in dot
        assert render_dot(verdict.counterexample, "final") == dot

    def test_participants_stage_has_uncertain_edges(self, lost_update_run):
        history, graph, verdict = lost_update_run
        dot = render_dot(verdict.counterexample, "participants")
        assert "style=dashed" in dot

    def test_initial_writer_rendered_as_init(self, causality_violation):
        verdict = check_si(causality_violation)
        dot = render_dot(verdict.counterexample, "participants")
        assert '"init"' in dot

    def test_keys_escaped_in_labels(self):
        # A two-transaction lost update on a key that holds a quote and a backslash.
        key = 'a"b\\'
        history = mk_history([[committed([("r", key, 0), ("w", key, 1)])],
                              [committed([("r", key, 0), ("w", key, 2)])]])
        verdict = check_si(history)
        assert verdict.classification == "lost-update"
        edge_line = re.compile(r'  "[^"]*" -> "[^"]*" \[label="((?:[^"\\]|\\.)*)", style=\w+\];')
        for stage in ("final", "participants"):
            edges = [line for line in render_dot(verdict.counterexample, stage).splitlines()
                     if " -> " in line]
            labels = [edge_line.fullmatch(line) for line in edges]
            assert all(labels), edges
            texts = {re.sub(r"\\(.)", r"\1", m[1]) for m in labels}
            assert texts == {f"{kind}({key})" for kind in (WR, WW, RW)}, texts

    def test_unknown_stage_rejected(self, lost_update_run):
        history, graph, verdict = lost_update_run
        with pytest.raises(ValueError):
            render_dot(verdict.counterexample, "bogus")


class TestLazyUniverseMatchesEager:
    """Per-vertex successor lists and computed owners equal the eager build,
    on each polygraph and on what prune leaves of it; the eager build takes
    its known edges, but the initial writer's, from the reference
    construction, which lists the forced ones, and after prune those of the
    resolved branches too."""

    @staticmethod
    def check(history):
        graph = build_polygraph(history)
        known = ref.known_edges(history)
        for _ in range(2):
            succ, owner = eager_edge_universe(graph, known + resolved_edges(graph))
            universe = EdgeUniverse(graph)
            assert set(succ) <= set(graph.vertices)
            for vertex in graph.vertices:
                assert universe.successors(vertex) == succ.get(vertex, [])
            for edges in succ.values():
                for edge in edges:
                    expected = ("branch", *owner[edge]) if edge in owner else KNOWN_ORIGIN
                    assert universe.origin_of(edge) == expected
            prune_constraints(graph)

    def test_random_histories(self):
        checked = 0
        for seed in range(1200):
            history = random_small_history(seed)
            if completeness_gate(history).ok():
                self.check(history)
                checked += 1
        assert checked > 500

    def test_injected_anomalies(self, long_fork, lost_update, causality_violation):
        fixtures = [long_fork, lost_update, causality_violation, immediate_violation_history()]
        for history in fixtures + list(injected_histories()):
            self.check(history)

    def test_rmw_run_seeds_and_workload_histories(self):
        # The rmw-runs corpus and the workloads with RMW runs; uniform-10k has none.
        corpus = Path(__file__).parent / "corpus" / "rmw-runs"
        for path in sorted(corpus.glob("*.json")):
            self.check(parse_history(path.read_bytes()))
        for history in workload_seed_1_histories(
                "zipf-anomaly", "hotspot-write", "rmw-chains").values():
            self.check(history)
