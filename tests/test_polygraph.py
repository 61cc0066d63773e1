import dataclasses
from collections import Counter
from pathlib import Path

import pytest

import reference_frontend as ref
from sicheck.errors import SicheckError
from sicheck.histories import COMMITTED, INIT_TXN, History, Operation, Transaction, parse_history
from sicheck.polygraph import (
    EITHER,
    OR,
    RW,
    SO,
    WR,
    WW,
    branch_edges,
    branch_ends,
    build_polygraph,
    constraint_count,
    create_known_graph,
    forced_edges,
    generate_constraints,
    owning_branch,
    record_initial,
    rmw_runs,
)
from sicheck.encoding import creation_order
from sicheck.explain import EdgeUniverse
from harness import HistoryBounds, random_small_history
from sicheck.pipeline import check_si
from sicheck.pruning import KnownIndex, prune_constraints
from sicheck.solving import solve, verify_witness
from sicheck.histories import completeness_gate, effective_reads_writes
from sicheck.witness import KNOWN_ORIGIN
from sicheck.workload import WorkloadParams, generate

from conftest import (
    T0, T1, T2, T3, T4, T5, committed, index_labels, injected_histories, mk_history,
    with_closure,
)


def initial_edges(graph):
    """The initial writer's edges, which no list holds, as the export derives them."""
    return [edge for edge in creation_order(graph) if edge[0] == INIT_TXN]


class TestKnownGraph:
    def test_long_fork_edges(self, long_fork):
        graph = create_known_graph(long_fork)
        assert set(graph.vertices) == {INIT_TXN, T0, T1, T2, T3, T4, T5}
        edges = set(graph.known_edges)
        assert (T0, T5, SO, None) in edges
        assert (T1, T3, WR, "x") in edges
        assert (T0, T3, WR, "y") in edges
        assert (T2, T4, WR, "y") in edges
        assert (T0, T4, WR, "x") in edges
        assert sum(1 for e in edges if e[2] == SO) == 1
        assert sum(1 for e in edges if e[2] == WR) == 4

    def test_single_transaction(self):
        history = mk_history([[committed([("w", "x", 1)])]])
        graph = create_known_graph(history)
        assert set(graph.vertices) == {INIT_TXN, (0, 0)}
        assert graph.known_edges == []

    def test_initial_read_edge(self):
        history = mk_history([[committed([("w", "x", 1)])], [committed([("r", "y", 0)])]])
        graph = create_known_graph(history)
        # Derived, never listed.
        assert list(initial_edges(graph)) == [
            (INIT_TXN, (1, 0), WR, "y"), (INIT_TXN, (0, 0), WW, "x")]
        assert graph.known_edges == []

    def test_only_initial_writer_order_edges_before_pruning(self, long_fork):
        # The long fork has no RMW run, so before pruning the only WW edges
        # are the initial writer's, which are derived, not listed, and the
        # only RW edges come from reads of the initial value.
        graph = build_polygraph(long_fork)
        assert any(label == WW for _, _, label, _ in initial_edges(graph))
        for src, dst, label, key in graph.known_edges:
            assert label != WW
            if label == RW:
                assert graph.read_from[(key, src)] == INIT_TXN

    @staticmethod
    def gated_histories(long_fork, lost_update):
        # Session 5 is listed before session 2, so file order is not id order.
        listed_out_of_order = History.build([
            (5, [Transaction((5, 0), COMMITTED, (Operation("w", "x", 1), Operation("r", "y", 0))),
                 Transaction((5, 3), COMMITTED, (Operation("r", "x", 2), Operation("w", "y", 4)))]),
            (2, [Transaction((2, 1), COMMITTED, (Operation("r", "x", 0), Operation("w", "x", 2))),
                 Transaction((2, 2), COMMITTED, (Operation("r", "x", 2), Operation("r", "y", 0)))]),
        ])
        histories = [long_fork, lost_update, listed_out_of_order]
        histories += [random_small_history(seed) for seed in range(60)]
        histories += [generate(WorkloadParams(sessions=5, txns_per_session=30, ops_per_txn=4,
                                              keys=4, dist="zipfian", seed=seed))
                      for seed in range(3)]
        return [history for history in histories if completeness_gate(history).ok()]

    def test_reader_and_writer_tuples_sorted(self, long_fork, lost_update):
        histories = self.gated_histories(long_fork, lost_update)
        for history in histories:
            graph = create_known_graph(history)
            for tids in (*graph.readers.values(), *graph.writers.values()):
                assert list(tids) == sorted(tids)
        assert len(histories) > 30

    def test_writer_keys_iterate_sorted(self, long_fork, lost_update):
        # Constraint generation and the explainer's edge universe follow this order.
        for history in self.gated_histories(long_fork, lost_update):
            graph = create_known_graph(history)
            assert list(graph.writers) == sorted(graph.writers)

    def test_wr_source_effectively_writes_value(self, long_fork):
        graph = create_known_graph(long_fork)
        by_id = {t.id: t for t in long_fork.committed()}
        for src, dst, label, key in graph.known_edges:
            if label != WR or src == INIT_TXN:
                continue
            reads, _ = effective_reads_writes(by_id[dst])
            _, writes = effective_reads_writes(by_id[src])
            assert writes[key] == reads[key]


class TestConstraints:
    def test_single_generalized_constraint_shape(self):
        # Two writers of x, each with one reader of its value.
        history = mk_history(
            [
                [committed([("w", "x", 1)])],
                [committed([("w", "x", 2)])],
                [committed([("r", "x", 1)])],
                [committed([("r", "x", 2)])],
            ]
        )
        graph = build_polygraph(history)
        t, s, t_reader, s_reader = (0, 0), (1, 0), (2, 0), (3, 0)
        assert len(graph.constraints) == 1
        cid = next(iter(graph.constraints))
        assert set(branch_edges(graph, *branch_ends(cid, EITHER))) == {
            (t, s, WW, "x"), (t_reader, s, RW, "x")}
        assert set(branch_edges(graph, *branch_ends(cid, OR))) == {
            (s, t, WW, "x"), (s_reader, t, RW, "x")}

    def test_constraint_is_its_id(self, long_fork):
        cid = ("x", T0, T1)
        assert branch_ends(cid, EITHER) == cid and branch_ends(cid, OR) == ("x", T1, T0)
        graph = build_polygraph(long_fork)
        # An insertion-ordered set of ids, made in id order.
        assert cid in graph.constraints and set(graph.constraints.values()) == {None}
        assert list(graph.constraints) == sorted(graph.constraints)
        # T4 read T0's x and T3 read T1's.
        assert branch_edges(graph, *branch_ends(cid, EITHER)) == [
            (T0, T1, WW, "x"), (T4, T1, RW, "x")]
        assert branch_edges(graph, *branch_ends(cid, OR)) == [
            (T1, T0, WW, "x"), (T3, T0, RW, "x")]
        prune_constraints(graph)
        assert graph.resolved
        assert all(type(cid) is tuple for cid in (*graph.resolved, *graph.constraints))

    def test_long_fork_constraint_counts(self, long_fork):
        graph = build_polygraph(long_fork)
        by_key = {}
        for key, a, b in graph.constraints:
            by_key.setdefault(key, set()).add((a, b))
        assert by_key["x"] == {(T0, T5), (T0, T1), (T5, T1)}  # pairs sorted by id
        assert by_key["y"] == {(T0, T2)}
        assert constraint_count(graph)[0] == 4

    def test_single_writer_no_constraints(self):
        history = mk_history([[committed([("w", "x", 1)])], [committed([("r", "x", 1)])]])
        graph = build_polygraph(history)
        assert constraint_count(graph) == (0, 0)

    def test_constraint_count_unknown_deps(self, long_fork):
        # Each branch counts its write-order edge plus one read-overwrite
        # edge per reader of the earlier writer (never the later writer).
        assert constraint_count(build_polygraph(long_fork)) == (4, 14)

    def test_writer_pair_count_formula(self):
        for seed in range(40):
            history = random_small_history(seed, HistoryBounds(max_writers_per_key=4))
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            # Every writer pair but those inside one RMW run, which construct orders.
            in_runs = sum(len(ref.rmw_run_pairs(graph, key)) for key in graph.writers)
            expected = sum(
                len(ws) * (len(ws) - 1) // 2 for ws in graph.writers.values()
            ) - in_runs
            assert len(graph.constraints) == expected
            assert list(graph.constraints) == sorted(graph.constraints)
            assert set(graph.constraints.values()) <= {None}
            # The unknown-dependency count is the branch edge lists' total,
            # also on what prune leaves.
            for _ in range(2):
                total = sum(len(branch_edges(graph, *branch_ends(cid, branch)))
                            for cid in graph.constraints for branch in (EITHER, OR))
                assert constraint_count(graph) == (len(graph.constraints), total)
                prune_constraints(graph)

    def test_count_matches_the_per_pair_loop(self):
        """The count equals a loop over the open pairs after construct, after
        prune, whatever its verdict, and with all but a third of the pairs it
        resolved open again: construct's graph counts per key, the others
        pair by pair."""
        counts = Counter()
        for seed in range(3000):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            assert constraint_count(graph) == constraint_count_per_pair(graph), seed
            verdict = prune_constraints(graph).verdict
            assert constraint_count(graph) == constraint_count_per_pair(graph), seed
            counts[verdict, bool(graph.rmw_keys), bool(graph.resolved)] += 1
            for cid in list(graph.resolved)[len(graph.resolved) // 3:]:
                graph.constraints[cid] = None
                del graph.resolved[cid]
            assert constraint_count(graph) == constraint_count_per_pair(graph), seed
            counts["more open than resolved"] += len(graph.constraints) > len(graph.resolved) > 0
        assert counts["immediate-violation", True, True] > 20
        assert counts["more open than resolved"] > 300
        assert min(counts["ok", runs, resolved]
                   for runs in (False, True) for resolved in (False, True)) > 50, counts

    def test_initial_writer_resolved_immediately(self):
        history = mk_history(
            [[committed([("w", "x", 1)])], [committed([("r", "x", 0), ("w", "y", 2)])]]
        )
        graph = build_polygraph(history)
        # The initial writer precedes the real writers of x and y, which its
        # derived edges say, and the reader of the initial value is
        # overwritten by the writer of x, which is derived too.
        assert list(initial_edges(graph)) == [
            (INIT_TXN, (1, 0), WR, "x"), (INIT_TXN, (0, 0), WW, "x"), (INIT_TXN, (1, 0), WW, "y")]
        assert graph.known_edges == []
        assert forced_edges(graph, "x") == [((1, 0), (0, 0), RW, "x")]
        assert forced_edges(graph, "y") == []
        # No constraint mentions the initial writer.
        assert all(INIT_TXN not in (a, b) for _, a, b in graph.constraints)


def constraint_count_per_pair(graph):
    """`constraint_count` as a loop over the open pairs: each branch's WW
    edge plus an RW edge per reader of its source writer but the other one."""
    unknown = 0
    for key, first, second in graph.constraints:
        first_readers = graph.readers.get((key, first), ())
        second_readers = graph.readers.get((key, second), ())
        unknown += 2 + len(first_readers) + len(second_readers)
        unknown -= (second in first_readers) + (first in second_readers)
    return len(graph.constraints), unknown


class TestExpansionEquivalence:
    @staticmethod
    def plain_constraints(history):
        """Def-style plain constraints: one per (writer-reader pair, other writer)."""
        graph = create_known_graph(history)
        out = set()
        for (key, writer), readers in graph.readers.items():
            if writer == INIT_TXN:
                continue
            for reader in readers:
                for other in graph.writers[key]:
                    if other != writer and other != reader:
                        out.add(((other, writer, WW, key), (reader, other, RW, key)))
        return out

    @staticmethod
    def expanded(graph):
        """Expand each generalized constraint into its plain constraints."""
        out = set()
        for key, low, high in graph.constraints:
            for first, second in ((low, high), (high, low)):
                for reader in graph.readers.get((key, first), ()):
                    if reader != second:
                        out.add(((second, first, WW, key), (reader, second, RW, key)))
        return out

    def test_matches_plain_construction(self):
        """Open constraints expand to the plain ones of every writer pair
        outside the RMW runs; each plain constraint of a pair inside one has
        one of its two edges known."""
        checked = in_runs = 0
        bounds = HistoryBounds(max_writers_per_key=6, max_txns=8, max_ops_per_txn=4)
        for seed in range(120):
            history = random_small_history(seed, bounds)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            runs = {(key, *pair) for key in graph.writers for pair in ref.rmw_run_pairs(graph, key)}

            def in_run(plain):
                other, writer, _, key = plain[0]
                return (key, min(other, writer), max(other, writer)) in runs

            plain = self.plain_constraints(history)
            assert self.expanded(graph) == {c for c in plain if not in_run(c)}
            known = {edge for key in graph.writers for edge in forced_edges(graph, key)}
            for ww, rw in filter(in_run, plain):
                assert ww in known or rw in known
                in_runs += 1
            checked += 1
        assert checked > 50 and in_runs > 20


class TestConstraintLookup:
    def test_branch_edges_owned_by_their_branch(self, long_fork):
        graph = build_polygraph(long_fork)
        universe = EdgeUniverse(graph)
        for cid in graph.constraints:
            for branch in (EITHER, OR):
                for edge in branch_edges(graph, *branch_ends(cid, branch)):
                    assert universe.origin_of(edge) == ("branch", cid, branch)

    def test_known_edges_have_no_constraint(self, long_fork):
        universe = EdgeUniverse(build_polygraph(long_fork))
        assert universe.origin_of((T0, T5, SO, None)) == KNOWN_ORIGIN
        assert universe.origin_of((T1, T3, WR, "x")) == KNOWN_ORIGIN


RMW_RUNS = Path(__file__).parent / "corpus" / "rmw-runs"


class TestRmwRuns:
    """The histories of `tests/corpus/rmw-runs/`: the RMW runs, constraints
    and ordered pair edges construct gives each, and the check's verdict,
    pruned and not. Transactions: A = T(0,0), B = T(1,0), C = T(2,0),
    D = T(3,0); key x."""

    A, B, C, D = (0, 0), (1, 0), (2, 0), (3, 0)

    @staticmethod
    def case(name, verdict):
        history = parse_history((RMW_RUNS / f"{name}.json").read_bytes())
        for no_prune in (False, True):
            checked = check_si(history, no_prune=no_prune)
            assert (checked.outcome, checked.classification) == verdict
        graph = build_polygraph(history)
        # Construct lists no WW or RW edge; of the forced edges it derives,
        # those of its run order are the only branch edges.
        assert {edge[2] for edge in graph.known_edges} <= {SO, WR}
        ordered = [edge for edge in forced_edges(graph, "x") if owning_branch(graph, edge) is not None]
        assert graph.runs == ({"x": rmw_runs(graph, "x")} if rmw_runs(graph, "x") else {})
        return graph, sorted(graph.constraints), ordered

    def test_head_read_initial_value(self):
        # A read x from the initial writer, B from A, C from B; D only reads A's x.
        A, B, C, D = self.A, self.B, self.C, self.D
        graph, constraints, ordered = self.case("head-read-init", ("si-holds", None))
        assert rmw_runs(graph, "x") == [(A, B, C)]
        assert constraints == []
        assert ordered == [
            (A, B, WW, "x"), (D, B, RW, "x"),
            (A, C, WW, "x"), (B, C, RW, "x"), (D, C, RW, "x"),
            (B, C, WW, "x"),
        ]

    def test_fork_at_committed_writer(self):
        # B overwrites A's x; C and D both overwrite B's: the run A, B ends
        # there, and C and D each head a run of one.
        A, B, C, D = self.A, self.B, self.C, self.D
        graph, constraints, ordered = self.case("fork-at-committed-writer",
                                                ("violation", "lost-update"))
        assert rmw_runs(graph, "x") == [(A, B)]
        assert constraints == [("x", A, C), ("x", A, D), ("x", B, C), ("x", B, D), ("x", C, D)]
        assert ordered == [(A, B, WW, "x")]

    def test_two_writer_read_cycle(self):
        # A and B each overwrite the other's x: no head, so no run.
        A, B = self.A, self.B
        graph, constraints, ordered = self.case("two-writer-read-cycle",
                                                ("violation", "unclassified"))
        assert rmw_runs(graph, "x") == []
        assert constraints == [("x", A, B)]
        assert ordered == []

    def test_run_broken_by_aborted_writer(self):
        # The aborted T(0,1) overwrote A's x; B writes blind and C overwrites
        # B's x. Only committed transactions link a run: A is alone.
        A, B, C = self.A, self.B, self.C
        graph, constraints, ordered = self.case("broken-by-aborted-writer", ("si-holds", None))
        assert rmw_runs(graph, "x") == [(B, C)]
        assert constraints == [("x", A, B), ("x", A, C)]
        assert ordered == [(B, C, WW, "x")]

    def test_run_against_session_order(self):
        # The run T(0,1), B, A puts A last, but A precedes T(0,1) in session 0.
        A, A2, B = self.A, (0, 1), self.B
        graph, constraints, ordered = self.case("contradicts-session-order",
                                                ("violation", "causality-violation"))
        assert rmw_runs(graph, "x") == [(A2, B, A)]
        assert constraints == []
        assert ordered == [(A2, A, WW, "x"), (B, A, RW, "x"), (B, A, WW, "x"), (A2, B, WW, "x")]

    def test_initial_reader_that_writes_the_key(self):
        # A reads the initial x and overwrites it, B writes x blind and C
        # reads the initial x and D's y. No run: A and B stay a pair, and
        # each initial reader is overwritten by every writer but itself.
        A, B, C = self.A, self.B, self.C
        graph, constraints, ordered = self.case("initial-reader-writes-key", ("si-holds", None))
        assert rmw_runs(graph, "x") == []
        assert constraints == [("x", A, B)]
        assert ordered == []
        assert forced_edges(graph, "x") == [(C, A, RW, "x"), (A, B, RW, "x"), (C, B, RW, "x")]

    def test_run_member_read_by_a_reader_only(self):
        # Run A, B, C; D reads B's x and T(4,0)'s y and writes nothing, so
        # only C, the member after B, overwrites D's read.
        A, B, C, D = self.A, self.B, self.C, self.D
        graph, constraints, ordered = self.case("member-read-by-reader-only", ("si-holds", None))
        assert rmw_runs(graph, "x") == [(A, B, C)]
        assert constraints == []
        assert ordered == [(A, B, WW, "x"), (A, C, WW, "x"), (B, C, RW, "x"),
                           (B, C, WW, "x"), (D, C, RW, "x")]

    def test_two_runs_on_one_key(self):
        # Runs A, B and C, D on x: each is ordered, the pairs across them are open.
        A, B, C, D = self.A, self.B, self.C, self.D
        graph, constraints, ordered = self.case("two-runs-on-one-key", ("si-holds", None))
        assert rmw_runs(graph, "x") == [(A, B), (C, D)]
        assert constraints == [("x", A, C), ("x", A, D), ("x", B, C), ("x", B, D)]
        assert ordered == [(A, B, WW, "x"), (C, D, WW, "x")]


class TestRmwRunDifferential:
    """Construct with RMW runs against the reference construction without
    them (`reference_frontend.build_polygraph(history, rmw_runs=False)`)."""

    INDEX_FIELDS = ("a_adj", "b_adj", "a_pred", "k_adj", "reach")

    @staticmethod
    def outcome(graph, no_prune):
        """sat or unsat; every solver witness must pass verification."""
        index = None
        if not no_prune:
            pruned = prune_constraints(graph)
            if pruned.verdict != "ok":
                return "unsat", None
            index = pruned.index
        result = solve(graph, index=index)
        assert verify_witness(result, graph)
        return result.status, index

    def test_random_histories(self):
        counts = Counter()
        for seed in range(3000):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            # The initial writer's edges are those the reference lists.
            plain, initial, plain_forced = ref.split_unlisted_edges(
                ref.build_polygraph(history, rmw_runs=False))
            assert list(initial_edges(graph)) == sorted(initial, key=lambda e: e[2] == WW)
            # Each pair inside a run: no constraint, its forced branch's
            # edges known once each, and nothing else differs.
            assert graph.known_edges == plain.known_edges and plain.runs == {}
            known = Counter(edge for key in graph.writers for edge in forced_edges(graph, key))
            ordered, in_runs = Counter(), set()
            for key, runs in graph.runs.items():
                assert runs == rmw_runs(graph, key)
                for run in runs:
                    for at, writer in enumerate(run):
                        for other in run[at + 1:]:
                            cid = (key, min(writer, other), max(writer, other))
                            in_runs.add(cid)
                            ordered.update(branch_edges(
                                graph, *branch_ends(cid, EITHER if writer < other else OR)))
            assert all(known[edge] == 1 for edge in ordered)
            assert known == Counter(plain_forced) + ordered
            assert in_runs <= plain.constraints.keys()
            assert graph.constraints == dict.fromkeys(
                cid for cid in plain.constraints if cid not in in_runs)
            counts["pairs"] += len(in_runs)

            for no_prune in (False, True):
                status, index = self.outcome(graph.clone(), no_prune)
                plain_status, plain_index = self.outcome(plain.clone(), no_prune)
                assert status == plain_status, (seed, no_prune)
                counts[status, bool(ordered)] += 1
            if status == "sat":
                # A clean history reaches prune's fixpoint of the reference.
                pruned, plain_pruned = graph.clone(), plain.clone()
                index = with_closure(prune_constraints(pruned).index)
                plain_index = with_closure(prune_constraints(plain_pruned).index)
                for name in self.INDEX_FIELDS:
                    assert getattr(index, name) == getattr(plain_index, name), (seed, name)
                # Construct lists a run pair's edges that prune resolves in the
                # reference; either way they label their pairs.
                assert index_labels(index) == index_labels(plain_index), seed
                # The reference generates the run pairs as constraints, so only
                # the loop over its open pairs counts them as constraint_count would.
                assert constraint_count(pruned) == constraint_count_per_pair(plain_pruned)
                assert pruned.constraints == plain_pruned.constraints
        assert counts["pairs"] > 1000
        assert min(counts[status, runs] for status in ("sat", "unsat")
                   for runs in (False, True)) > 200, counts


def scanned_initial_rows(graph) -> tuple:
    """The initial writer's rows found by a scan of every reader row and a
    union of every writer tuple, as the index and the witness check once
    found them: the reader row of the initial value of each written key,
    and every committed writer and reader of an initial value, in vertex
    order."""
    initial = {key: row for (key, writer), row in graph.readers.items()
               if writer == INIT_TXN and key in graph.writers}
    targets = set().union(*graph.writers.values(), *(
        row for (_, writer), row in graph.readers.items() if writer == INIT_TXN))
    return initial, tuple(v for v in graph.vertices if v in targets)


class TestInitialRecords:
    """Construct records the initial writer's rows in its loops; they equal
    the scans of the finished reader rows and writers."""

    def test_records_equal_the_scans(self):
        counts = Counter()
        histories = [random_small_history(seed) for seed in range(3000)]
        for history in histories + list(injected_histories()):
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            initial, targets = scanned_initial_rows(graph)
            assert graph.initial_readers == initial and graph.initial_targets == targets
            copy = graph.clone()
            assert (copy.initial_readers, copy.initial_targets) == (initial, targets)
            prune_constraints(graph)
            assert (graph.initial_readers, graph.initial_targets) == (initial, targets)
            counts["read"] += bool(initial)
            counts["unread"] += len(targets) < len(graph.vertices) - 1
        assert min(counts.values()) > 300, counts

    def test_a_graph_without_records_is_refused(self):
        """Dropped records raise rather than read as an empty row; recorded
        again through `record_initial`, the graph is as construct built it."""
        history = mk_history([[committed([("r", "x", 0), ("w", "y", 1)])],
                              [committed([("r", "y", 1), ("w", "x", 2)])]])
        graph = build_polygraph(history)
        sat = solve(graph)
        assert sat.status == "sat" and verify_witness(sat, graph)
        for missing in ({"initial_readers": None}, {"initial_targets": None}):
            bare = dataclasses.replace(graph, **missing)
            with pytest.raises(SicheckError, match="initial writer's rows"):
                KnownIndex(bare)
            with pytest.raises(SicheckError, match="initial writer's rows"):
                verify_witness(sat, bare)
        bare = dataclasses.replace(graph, initial_readers=None, initial_targets=None)
        initial, targets = scanned_initial_rows(bare)
        assert record_initial(bare, initial, targets) == graph
