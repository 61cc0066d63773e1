import pytest

from sicheck.histories import COMMITTED, INIT_TXN, History, Operation, Transaction
from sicheck.polygraph import (
    EITHER,
    OR,
    RW,
    SO,
    WR,
    WW,
    Constraint,
    build_polygraph,
    constraint_count,
    create_known_graph,
    generate_constraints,
)
from sicheck.explain import EdgeUniverse
from sicheck.harness import HistoryBounds, random_small_history
from sicheck.pruning import prune_constraints
from sicheck.histories import completeness_gate, effective_reads_writes
from sicheck.witness import KNOWN_ORIGIN
from sicheck.workload import WorkloadParams, generate

from conftest import T0, T1, T2, T3, T4, T5, committed, mk_history


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
        assert (INIT_TXN, (1, 0), WR, "y") in graph.known_edges

    def test_only_initial_writer_order_edges_before_pruning(self, long_fork):
        # Before pruning, the only WW edges are the initial writer's axioms
        # and the only RW edges come from reads of the initial value.
        graph = build_polygraph(long_fork)
        for src, dst, label, key in graph.known_edges:
            if label == WW:
                assert src == INIT_TXN
            elif label == RW:
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
        cons = next(iter(graph.constraints.values()))
        assert set(cons.edges(graph, EITHER)) == {(t, s, WW, "x"), (t_reader, s, RW, "x")}
        assert set(cons.edges(graph, OR)) == {(s, t, WW, "x"), (s_reader, t, RW, "x")}

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
            expected = sum(
                len(ws) * (len(ws) - 1) // 2 for ws in graph.writers.values()
            )
            assert len(graph.constraints) == expected
            # The unknown-dependency count is the branch edge lists' total,
            # also on what prune leaves.
            for _ in range(2):
                total = sum(len(cons.edges(graph, branch))
                            for cons in graph.constraints.values() for branch in (EITHER, OR))
                assert constraint_count(graph) == (len(graph.constraints), total)
                prune_constraints(graph)

    def test_initial_writer_resolved_immediately(self):
        history = mk_history(
            [[committed([("w", "x", 1)])], [committed([("r", "x", 0), ("w", "y", 2)])]]
        )
        graph = build_polygraph(history)
        # The initial writer precedes the real writer of x, and the reader of
        # the initial value is overwritten by that writer.
        assert (INIT_TXN, (0, 0), WW, "x") in graph.known_edges
        assert ((1, 0), (0, 0), RW, "x") in graph.known_edges
        # No constraint mentions the initial writer.
        assert all(INIT_TXN not in (a, b) for _, a, b in graph.constraints)


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
        for cons in graph.constraints.values():
            for first, second in ((cons.first, cons.second), (cons.second, cons.first)):
                for reader in graph.readers.get((cons.key, first), ()):
                    if reader != second:
                        out.add(
                            ((second, first, WW, cons.key), (reader, second, RW, cons.key))
                        )
        return out

    def test_matches_plain_construction(self):
        checked = 0
        bounds = HistoryBounds(max_writers_per_key=6, max_txns=8, max_ops_per_txn=4)
        for seed in range(120):
            history = random_small_history(seed, bounds)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            assert self.expanded(graph) == self.plain_constraints(history)
            checked += 1
        assert checked > 50


class TestConstraintLookup:
    def test_branch_edges_owned_by_their_branch(self, long_fork):
        graph = build_polygraph(long_fork)
        universe = EdgeUniverse(graph)
        for cid, cons in graph.constraints.items():
            for branch in (EITHER, OR):
                for edge in cons.edges(graph, branch):
                    assert universe.origin_of(edge) == ("branch", cid, branch)

    def test_known_edges_have_no_constraint(self, long_fork):
        universe = EdgeUniverse(build_polygraph(long_fork))
        assert universe.origin_of((T0, T5, SO, None)) == KNOWN_ORIGIN
        assert universe.origin_of((T1, T3, WR, "x")) == KNOWN_ORIGIN
