import dataclasses
import gc
import json
import random
import types
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from sicheck import pipeline, pruning
from sicheck.errors import BudgetExceededError
from sicheck.explain import EdgeUniverse
from sicheck.graphs import chain_starts, extend_reach, iter_bits, reach_masks
from harness import random_small_history
from sicheck.polygraph import (
    EITHER, OR, RW, SO, WR, WW, Polygraph, branch_edges, branch_ends, build_polygraph,
    resolved_edges,
)
from sicheck.pruning import (
    BlockedEdge,
    KnownIndex,
    prune_constraints,
    rw_branch_blocked,
    ww_branch_blocked,
)
from sicheck.histories import INIT_TXN, completeness_gate
from sicheck.solving import Solver
from sicheck.witness import has_adjacent_rw, k_middle, known_origin, path_deps
from sicheck.workload import DISTRIBUTIONS, PROFILES, WorkloadParams, generate, inject

from conftest import (
    T0, T1, T2, T3, T4, T5, committed, immediate_violation_history, index_labels,
    injected_histories, mk_history, patch_branch_edges, prune_first_pass, rmw_run_history,
    with_closure, workload_history, workload_seed_1_histories,
)
from reference_closures import bfs_reach, floyd_warshall_reach, resolve_pass_per_pair
import reference_frontend as ref


def _sat_history():
    return mk_history([[committed([("w", "x", 1)])], [committed([("r", "x", 1), ("w", "x", 2)])]])


def test_k_middle_prefers_the_direct_pair_then_the_lowest_middle():
    # A: 0->1, 0->2, 0->3; B: 1->3, 2->3.
    a_rows, b_rows = [0b1110, 0, 0, 0], [0, 0b1000, 0b1000, 0]
    assert k_middle(a_rows, b_rows, 0, 3) is None
    a_rows[0] = 0b0110
    assert k_middle(a_rows, b_rows, 0, 3) == 1
    b_rows[1] = 0
    assert k_middle(a_rows, b_rows, 0, 3) == 2
    with pytest.raises(AssertionError):
        k_middle(a_rows, b_rows, 1, 3)


class TestBranchTests:
    def test_ww_blocked_by_session_order(self, long_fork):
        # Ordering T5 before T0 closes a cycle with T0 -SO-> T5.
        graph = build_polygraph(long_fork)
        index = KnownIndex(graph).with_reach()
        t0, t5 = index.vindex[T0], index.vindex[T5]
        assert ww_branch_blocked(t5, t0, index.reach)
        assert not ww_branch_blocked(t0, t5, index.reach)

    def test_ww_isolated_pair_not_blocked(self):
        history = mk_history([[committed([("w", "x", 1)])], [committed([("w", "x", 2)])]])
        graph = build_polygraph(history)
        index = KnownIndex(graph).with_reach()
        a, b = index.vindex[(0, 0)], index.vindex[(1, 0)]
        assert not ww_branch_blocked(a, b, index.reach)
        assert not ww_branch_blocked(b, a, index.reach)

    def test_rw_blocked_via_predecessor_self(self, long_fork):
        # T3 -RW(x)-> T0 composes with T0 -WR(y)-> T3 into a self-loop.
        graph = build_polygraph(long_fork)
        index = KnownIndex(graph).with_reach()
        t3, t0 = index.vindex[T3], index.vindex[T0]
        assert rw_branch_blocked(t3, t0, index.a_pred, index.reach)

    def test_rw_blocked_via_reachable_predecessor(self):
        # p -WR(a)-> f, path t ~> p; the candidate f -RW-> t composes with
        # p -> f into p -> t, closing a cycle through the path.
        history = mk_history(
            [
                [committed([("w", "a", 1), ("w", "d", 4)])],  # p
                [committed([("r", "a", 1), ("w", "b", 2)])],  # f (writes b)
                [committed([("w", "b", 3), ("w", "c", 5)])],  # t (other writer of b)
                [committed([("r", "c", 5), ("r", "d", 4)])],
            ]
        )
        graph = build_polygraph(history)
        index = KnownIndex(graph).with_reach()
        p, f, t = index.vindex[(0, 0)], index.vindex[(1, 0)], index.vindex[(2, 0)]
        # No path t ~> p here, so not blocked.
        assert not rw_branch_blocked(f, t, index.a_pred, index.reach)
        # Add a read making t's value visible to p's session successor: build
        # an explicit path t ~> p instead via a fresh history.
        history2 = mk_history(
            [
                [committed([("r", "c", 5)]), committed([("w", "a", 1)])],  # m then p
                [committed([("r", "a", 1), ("w", "b", 2)])],  # f
                [committed([("w", "b", 3), ("w", "c", 5)])],  # t
            ]
        )
        graph2 = build_polygraph(history2)
        index2 = KnownIndex(graph2).with_reach()
        f2, t2 = index2.vindex[(1, 0)], index2.vindex[(2, 0)]
        # t -WR(c)-> m -SO-> p -WR(a)-> f: predecessor p of f is reachable from t.
        assert rw_branch_blocked(f2, t2, index2.a_pred, index2.reach)

    def test_rw_not_blocked_when_target_reaches_source_but_no_predecessor(self):
        # reach(to, from) holds through a composed edge, yet no A-predecessor
        # of the source is reachable: candidate RW edges are not themselves
        # part of the known induced graph, so this must not block. The
        # history is valid, which the unpruned pipeline confirms.
        history = mk_history(
            [
                [committed([("w", "a", 1)])],                                # P
                [committed([("w", "e", 5)])],                                # W2
                [committed([("r", "a", 1), ("r", "e", 5), ("w", "d", 6)])],  # F
                [committed([("w", "e", 7), ("w", "c", 4)])],                 # T
                [committed([("r", "c", 4), ("r", "d", 0)])],                 # m
            ]
        )
        f, t = (2, 0), (3, 0)
        graph = build_polygraph(history)
        index = KnownIndex(graph).with_reach()
        fi, ti = index.vindex[f], index.vindex[t]
        # T reaches F: T -WR(c)-> m composed with m -RW(d)-> F.
        assert (index.reach[ti] >> fi) & 1
        assert not rw_branch_blocked(fi, ti, index.a_pred, index.reach)
        from sicheck.pipeline import check_si

        assert check_si(history, no_prune=True).outcome == "si-holds"
        assert check_si(history).outcome == "si-holds"

    def test_rw_not_blocked_without_predecessor(self):
        # The RW source has no A-predecessor at all: never blocked, whatever
        # the reachability looks like.
        n = 4
        full = [(1 << n) - 1] * n
        assert not rw_branch_blocked(2, 3, [0] * n, full)


class TestLongForkPruning:
    def test_first_iteration_resolutions(self, long_fork):
        graph = build_polygraph(long_fork)
        assert prune_first_pass(graph) is None
        assert len(graph.resolved) == 3
        # {T1, T5} on x is the only surviving constraint after one round.
        assert sorted(graph.constraints) == [("x", T5, T1)]  # pair sorted by id
        known = {*graph.known_edges, *resolved_edges(graph)}
        # T5 -WW-> T0 was impossible; T0's order and T4's overwrite became known.
        assert (T0, T5, WW, "x") in known
        assert (T4, T5, RW, "x") in known
        # T1 -WW-> T0 was impossible; the reverse became known.
        assert (T0, T1, WW, "x") in known
        assert (T4, T1, RW, "x") in known
        # Same for T2 -WW-> T0 on y.
        assert (T0, T2, WW, "y") in known
        assert (T3, T2, RW, "y") in known

    def test_fixpoint_resolves_everything(self, long_fork):
        graph = build_polygraph(long_fork)
        outcome = prune_constraints(graph)
        assert outcome.verdict == "ok"
        assert graph.constraints == {}
        assert outcome.resolved_count == 4
        assert outcome.iterations <= 4 + 1

    def test_resolved_origin_recorded(self, long_fork):
        graph = build_polygraph(long_fork)
        prune_constraints(graph)
        assert known_origin(graph, (T0, T5, WW, "x")) == ("resolved", ("x", T0, T5), EITHER)
        assert known_origin(graph, (T0, T1, WW, "x")) == ("resolved", ("x", T0, T1), EITHER)


class TestImmediateViolation:
    def test_both_branches_blocked(self):
        # Either write order closes a cycle with known edges alone.
        graph = build_polygraph(immediate_violation_history())
        outcome = prune_constraints(graph)
        assert outcome.verdict == "immediate-violation"
        violation = outcome.violation
        assert violation.constraint == ("x", (0, 0), (0, 1))
        for cycle in (violation.either_cycle, violation.or_cycle):
            assert cycle.closed()
            assert not has_adjacent_rw(cycle.edges())
        labels = {e[2] for e in violation.either_cycle.edges()}
        assert WW in labels
        assert len(violation.cycle.deps) == min(
            len(violation.either_cycle.deps), len(violation.or_cycle.deps)
        )

    def test_dead_branch_cycles_have_no_self_loop(self):
        """The other writer of a pair is no reader of its branch, so no dead
        branch's witness holds a self-loop r -RW-> r."""
        checked = 0
        for seed in range(8000):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            violation = prune_constraints(build_polygraph(history)).violation
            if violation is not None:
                for cycle in (violation.either_cycle, violation.or_cycle):
                    assert all(edge[0] != edge[1] for edge in cycle.edges()), seed
                checked += 1
        assert checked > 1000

    def test_blocked_rw_edge_follows_its_lowest_blocking_predecessor(self):
        """On `random_small_history` seed 1371 the or branch's RW edge
        (2, 2) -> (0, 0) is blocked through its A-predecessors (2, 1) and
        (2, 3). The lowest, (2, 1), closes a 3-edge cycle; (2, 3) would
        close one that visits (2, 2) twice."""
        violation = prune_constraints(build_polygraph(random_small_history(1371))).violation
        assert [edge[:3] for edge in violation.or_cycle.edges()] == [
            ((0, 0), (2, 1), WR), ((2, 1), (2, 2), SO), ((2, 2), (0, 0), RW)]

    def test_lost_update_not_pruned_but_left_to_solver(self, lost_update):
        # Both orders of the two overwriters are impossible, but only through
        # composition with read-overwrite edges resolved during pruning, which
        # the reachability-based branch tests do not inspect. The constraint
        # survives pruning; the solver rejects the history.
        graph = build_polygraph(lost_update)
        outcome = prune_constraints(graph)
        assert outcome.verdict == "ok"
        assert sorted(graph.constraints) == [("k", (1, 0), (2, 0))]


class TestPruneProperties:
    def test_iteration_bound_and_monotonicity(self):
        from harness import random_small_history

        for seed in range(60):
            history = random_small_history(seed)
            from sicheck.histories import completeness_gate

            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            total = len(graph.constraints)
            outcome = prune_constraints(graph)
            assert outcome.iterations <= total + 1
            assert outcome.resolved_count <= total
            assert sum(outcome.resolved_per_iteration) == outcome.resolved_count

    def test_reachability_oracles_agree(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 12)
            adj = [0] * n
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.25:
                        adj[i] |= 1 << j
            assert reach_masks(n, adj) == floyd_warshall_reach(n, adj) == bfs_reach(n, adj)

    def test_reachability_on_known_graphs(self, long_fork):
        graph = build_polygraph(long_fork)
        index = KnownIndex(graph).with_reach()
        assert index.reach == floyd_warshall_reach(index.n, index.k_adj)
        assert index.reach == bfs_reach(index.n, index.k_adj)


class TestKnownIndexDecomposition:
    def test_composed_edge_decomposes(self, long_fork):
        graph = build_polygraph(long_fork)
        prune_constraints(graph)
        index = KnownIndex(graph)
        t1, t2 = index.vindex[T1], index.vindex[T2]
        # T1 -> T2 in the known induced graph only via WR(x)∘RW(y) through T3.
        assert (index.k_adj[t1] >> t2) & 1
        universe = EdgeUniverse(graph)

        def known_dep(i, j, rw):
            return universe.known_dep(index.vertices[i], index.vertices[j], rw)

        deps = path_deps(index.a_adj, index.b_adj, [t1, t2], known_dep)
        assert [edge for edge, _ in deps] == [(T1, T3, WR, "x"), (T3, T2, RW, "y")]

    def test_label_is_lowest_rank_then_key_whatever_the_order(self):
        a, b = (0, 0), (1, 0)
        graph = Polygraph(vertices=(a, b), known_edges=[
            (a, b, WW, "z"), (a, b, WW, "y"), (b, a, RW, "y"), (b, a, RW, "x"),
        ])

        def label(u, v, rw):
            """The universe's label of (u, v), every pair's checked first."""
            assert index_labels(KnownIndex(graph)) == _reference_labels(graph)
            return EdgeUniverse(graph).known_dep(u, v, rw)[0]

        assert label(a, b, False) == (a, b, WW, "y")
        assert label(b, a, True) == (b, a, RW, "x")
        graph.known_edges += [(a, b, WR, "z"), (a, b, WR, "x"), (a, b, WW, "w")]
        assert label(a, b, False) == (a, b, WR, "x")
        graph.known_edges.append((a, b, SO, None))
        assert label(a, b, False) == (a, b, SO, None)


def test_reader_rows_filled_on_demand_equal_the_eager_conversion(long_fork, lost_update):
    histories = [long_fork, lost_update, *injected_histories()]
    histories += [random_small_history(seed) for seed in range(300)]
    rows = 0
    for history in histories:
        if not completeness_gate(history).ok():
            continue
        graph = build_polygraph(history)
        index = KnownIndex(graph)
        assert index.readers == {}
        eager = {kw: tuple(index.vindex[r] for r in rs) for kw, rs in graph.readers.items()}
        for cid in graph.constraints:
            key, first, second = cid
            for branch, (src, dst) in ((EITHER, (first, second)), (OR, (second, first))):
                expected = (index.vindex[src], index.vindex[dst], eager.get((key, src), ()))
                assert index.branch(cid, branch) == expected
                if (key, src) in graph.readers:  # filled once, then reused
                    assert index.branch(cid, branch)[2] is index.readers[(key, src)]
        asked = {(key, w) for key, first, second in graph.constraints for w in (first, second)}
        assert index.readers.keys() == asked & graph.readers.keys()
        rows += len(asked)
    assert rows > 1000


def _index_fields(index: KnownIndex) -> tuple:
    return (index.a_adj, index.b_adj, index.a_pred, index_labels(index), index.k_adj, index.reach)


_RANK = {SO: 0, WR: 1, WW: 2, RW: 3}


def _reference_edges(graph, unlisted=()) -> list:
    """The edges the graph does not list, the listed ones, then those of the
    resolved branches, each branch's as `branch_edges` gives them."""
    resolved = [edge for cid, branch in graph.resolved.items()
                for edge in branch_edges(graph, *branch_ends(cid, branch))]
    return [*unlisted, *graph.known_edges, *resolved]


def _reference_labels(graph, unlisted=()) -> dict:
    """Each pair's lowest (rank, key) edge, keyed (i, j, is RW), over the
    unlisted, listed and resolved edges; the initial writer labels no pair."""
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    init = vindex.get(INIT_TXN)
    labels: dict = {}
    for edge in _reference_edges(graph, unlisted):
        i, j = vindex[edge[0]], vindex[edge[1]]
        if i != init:
            pair = (i, j, edge[2] == RW)
            labels[pair] = min(labels.get(pair, edge), edge,
                               key=lambda e: (_RANK[e[2]], e[3] or ""))
    return labels


def _reference_fields(graph, unlisted=()) -> tuple:
    """The index fields computed directly from the known edges, sharing no code with it.

    The rows are `_reference_rows`'; each pair's label is its lowest
    (rank, key) edge, the closure Floyd–Warshall's.
    """
    a_adj, b_adj, a_pred, k_adj = _reference_rows(graph, unlisted)
    return (a_adj, b_adj, a_pred, _reference_labels(graph, unlisted), k_adj,
            floyd_warshall_reach(len(k_adj), k_adj))


def _reference_rows(graph, unlisted=()) -> tuple:
    """The A, B, A-predecessor and K rows folded from the known edges one by one.

    `unlisted` are the edges the graph does not list, the initial writer's
    and those of the writer pairs construct orders; the caller takes them
    from the reference construction. The initial writer's are the
    exception: its A row and its K row are both the set of their targets
    and it is no vertex's A-predecessor. Every other edge, unlisted, listed
    or of a resolved branch, sets its layer's bit and an A edge its
    predecessor bit; K is A plus A∘B.
    """
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    n = len(vindex)
    a_adj, b_adj, a_pred = [0] * n, [0] * n, [0] * n
    init = vindex.get(INIT_TXN)
    for edge in _reference_edges(graph, unlisted):
        i, j = vindex[edge[0]], vindex[edge[1]]
        if i == init:
            a_adj[i] |= 1 << j
            continue
        adj = b_adj if edge[2] == RW else a_adj
        adj[i] |= 1 << j
        if edge[2] != RW:
            a_pred[j] |= 1 << i
    k_adj = list(a_adj)
    for i in range(n):
        rest = 0 if i == init else a_adj[i]
        while rest:
            low = rest & -rest
            k_adj[i] |= b_adj[low.bit_length() - 1]
            rest ^= low
    return a_adj, b_adj, a_pred, k_adj


@contextmanager
def audited_updates():
    """Check every KnownIndex build, fold (`add_branches`) and `with_reach`
    call while active.

    After each the index must equal a fresh build over the graph's known
    edges and resolved branches and the directly computed reference over
    those and the edges the graph does not list, `audit["unlisted"]` of the
    graph being pruned; before its closure is computed
    the closure field is left out of both. Its chains must equal the fresh
    build's. The folds a build makes are checked with it, not one by one.
    The set a fold returns must name exactly the vertices whose reach or
    A-predecessor row changed. Counts prune updates (folds into an index
    with its closure) and those that close a cycle, i.e. give some vertex
    its own reach bit.
    """
    build, close, fold = KnownIndex.__init__, KnownIndex.with_reach, KnownIndex.add_branches
    audit = {"updates": 0, "cycle_closing": 0, "unlisted": []}
    building = False

    def assert_matches_reference(index):
        nonlocal building
        building = True
        try:
            fresh = KnownIndex(index.graph)
            if index.reach is not None:
                fresh.with_reach()
        finally:
            building = False
        fields = len(_index_fields(index)) - (index.reach is None)
        assert (_index_fields(index)[:fields] == _index_fields(fresh)[:fields]
                == _reference_fields(index.graph, audit["unlisted"])[:fields])
        assert index.starts == fresh.starts

    def checked_build(self, graph):
        nonlocal building
        outer, building = building, True
        try:
            build(self, graph)
        finally:
            building = outer
        if not building:
            assert_matches_reference(self)

    def checked_fold(self, batch):
        if building:
            return fold(self, batch)
        reach = None if self.reach is None else list(self.reach)
        a_pred = list(self.a_pred)
        changed = fold(self, batch)
        assert_matches_reference(self)
        if reach is None:
            assert changed == {v for v in range(self.n) if self.a_pred[v] != a_pred[v]}
            return changed
        assert changed == {
            v for v in range(self.n)
            if self.reach[v] != reach[v] or self.a_pred[v] != a_pred[v]
        }
        audit["updates"] += 1
        if any((self.reach[v] >> v) & 1 and not (reach[v] >> v) & 1 for v in range(self.n)):
            audit["cycle_closing"] += 1
        return changed

    def checked_close(self):
        result = close(self)
        if not building:
            assert_matches_reference(self)
        return result

    KnownIndex.__init__, KnownIndex.with_reach, KnownIndex.add_branches = (
        checked_build, checked_close, checked_fold)
    try:
        yield audit
    finally:
        KnownIndex.__init__, KnownIndex.with_reach, KnownIndex.add_branches = build, close, fold


def _reference_initial_edges(history) -> list:
    """The initial writer's edges as the reference construction lists them."""
    return ref.split_unlisted_edges(ref.build_polygraph(history))[1]


def _reference_unlisted_edges(history) -> list:
    """The edges the reference construction lists and construct does not:
    the initial writer's, then those of the writer pairs it orders."""
    _, initial, forced = ref.split_unlisted_edges(ref.build_polygraph(history))
    return initial + forced


class TestForcedBranchRows:
    """The index derives construct's forced branches from the runs and reader
    rows; its A, B, A-predecessor and K rows, before and after prune, equal
    those folded edge by edge from the reference construction, which lists
    the forced edges."""

    @staticmethod
    def check(history) -> bool:
        graph = build_polygraph(history)
        unlisted = _reference_unlisted_edges(history)
        index = KnownIndex(graph)
        assert _rows(index) == _reference_rows(graph, unlisted)
        outcome = prune_constraints(graph)
        if outcome.index is not None:
            assert _rows(outcome.index) == _reference_rows(graph, unlisted)
        return bool(graph.runs)

    def test_random_histories(self):
        histories = map(random_small_history, range(1500))
        runs = [self.check(history) for history in histories if completeness_gate(history).ok()]
        assert sum(runs) > 300, sum(runs)

    def test_workload_histories(self):
        for name, history in workload_seed_1_histories().items():
            self.check(history)


def _rows(index: KnownIndex) -> tuple:
    return index.a_adj, index.b_adj, index.a_pred, index.k_adj


def _prune_audited(history, audit) -> None:
    if not completeness_gate(history).ok():
        return
    graph = build_polygraph(history)
    audit["unlisted"] = _reference_unlisted_edges(history)
    listed = list(graph.known_edges)
    outcome = prune_constraints(graph)
    assert graph.known_edges == listed  # prune lists nothing
    assert not any(edge[0] == INIT_TXN for edge in graph.known_edges)
    if outcome.verdict == "ok":
        assert (_index_fields(with_closure(outcome.index))
                == _index_fields(KnownIndex(graph).with_reach())
                == _reference_fields(graph, audit["unlisted"]))


@st.composite
def workload_histories(draw):
    """Mock-store histories of small random shapes, some with an injected anomaly."""
    params = WorkloadParams(
        sessions=draw(st.integers(5, 8)),
        txns_per_session=draw(st.integers(1, 10)),
        ops_per_txn=draw(st.integers(1, 5)),
        keys=draw(st.integers(1, 8)),
        dist=draw(st.sampled_from(DISTRIBUTIONS)),
        profile=draw(st.sampled_from(PROFILES)),
        seed=draw(st.integers(0, 2**16)),
    )
    history = generate(params)
    kind = draw(st.sampled_from((None, "long-fork", "lost-update", "causality-violation")))
    return history if kind is None else inject(history, kind, params.seed)


def _initial_writer_row(graph) -> int:
    """Every committed writer plus every reader of an initial value, as a row."""
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    targets = {w for writers in graph.writers.values() for w in writers}
    targets |= {reader for (_, reader), writer in graph.read_from.items() if writer == INIT_TXN}
    return sum(1 << vindex[v] for v in targets)


def _gated_graphs(seeds: int):
    """Built polygraphs of the random and injected histories that pass the gate."""
    histories = [random_small_history(seed) for seed in range(seeds)]
    for history in histories + list(injected_histories()):
        if completeness_gate(history).ok():
            yield history, build_polygraph(history)


def _listing_initial_edges(history):
    """The reference construction, which lists the initial writer's edges,
    with `rmw_keys` and `runs` as construct records them."""
    graph = ref.build_polygraph(history)
    current = ref.split_unlisted_edges(graph)[0]
    return dataclasses.replace(graph, rmw_keys=current.rmw_keys, runs=current.runs)


class TestInitialWriterRow:
    """The initial writer lies on no cycle: the index sets its A and K rows
    to one mask, where folding its edges, which the reference construction
    lists, would give the same check."""

    def test_nothing_reaches_it(self):
        for _, graph in _gated_graphs(600):
            assert INIT_TXN == graph.vertices[0]
            index = KnownIndex(graph).with_reach()
            outcome = prune_constraints(graph)
            # Prune computes no closure when no writer pair is open.
            for reach in (index.reach, (outcome.index and outcome.index.reach) or []):
                assert not any(row & 1 for row in reach)

    def test_row_is_the_writer_and_initial_reader_mask(self):
        for history, graph in _gated_graphs(600):
            index = KnownIndex(graph)
            mask = _initial_writer_row(graph)
            folded = sum({1 << index.vindex[e[1]] for e in _reference_initial_edges(history)})
            assert index.a_adj[0] == index.k_adj[0] == mask == folded
            assert not any(row & 1 for row in index.a_pred)
            universe = EdgeUniverse(graph)
            assert all(universe.known_dep(INIT_TXN, index.vertices[j], False) is None
                       for j in iter_bits(index.a_adj[0]))

    def test_prune_and_check_as_when_folded(self, monkeypatch):
        def outcomes(history, graph):
            pruned = graph.clone()
            outcome = prune_constraints(pruned)
            violation = outcome.violation
            cycles = violation and (violation.either_cycle, violation.or_cycle)
            return (outcome.resolved_per_iteration, sorted(pruned.constraints), cycles,
                    outcome.index and outcome.index.reach,
                    json.dumps(pipeline.check_si(history).to_json_dict(), sort_keys=True),
                    json.dumps(pipeline.check_si(history, no_prune=True).to_json_dict(),
                               sort_keys=True))

        cases = list(_gated_graphs(600))
        expected = [outcomes(history, graph) for history, graph in cases]
        # The reference construction lists the initial writer's edges; with
        # no vertex taken for the initial writer, the index folds them like
        # any other edge.
        monkeypatch.setattr(pruning, "INIT_TXN", object())
        monkeypatch.setattr(pipeline, "build_polygraph",
                            lambda history, walk: _listing_initial_edges(history))
        cases = [(history, _listing_initial_edges(history)) for history, _ in cases]
        assert sum(any(row & 1 for row in KnownIndex(graph).a_pred) for _, graph in cases) > 500
        folded = [outcomes(history, graph) for history, graph in cases]
        assert folded == expected
        assert sum(1 for e in expected if e[2]) > 10


class TestNoClosureWithoutAnOpenPair:
    """Prune computes K's closure only for its branch tests: with no open
    writer pair, as when construct orders every pair in RMW runs, its index
    keeps `reach` None, and prune's counts and rows are those of a prune
    whose index computed the closure."""

    def test_every_pair_ordered_at_construct(self, monkeypatch):
        build = KnownIndex.__init__

        def closed_build(self, graph):
            build(self, graph)
            self.with_reach()

        histories = [workload_history("rmw-chains", seed) for seed in (1, 2, 3)]
        for history in [*histories, rmw_run_history(12)]:
            graph = build_polygraph(history)
            assert not graph.constraints and graph.runs
            closed = graph.clone()
            outcome = prune_constraints(graph)
            index = outcome.index
            assert index.reach is None and index.starts == []
            with monkeypatch.context() as patched:
                patched.setattr(KnownIndex, "__init__", closed_build)
                reference = prune_constraints(closed)
            assert reference.index.reach is not None
            assert ((outcome.iterations, outcome.resolved_per_iteration, outcome.resolved_count)
                    == (reference.iterations, reference.resolved_per_iteration,
                        reference.resolved_count) == (1, [0], 0))
            assert graph.resolved == closed.resolved == {}
            assert _rows(index) == _rows(reference.index)
            assert index_labels(index) == index_labels(reference.index)

    def test_closure_exactly_with_an_open_pair(self):
        counts = Counter()
        for _, graph in _gated_graphs(600):
            open_pairs = bool(graph.constraints)
            outcome = prune_constraints(graph)
            if outcome.index is not None:
                assert (outcome.index.reach is not None) == open_pairs
                counts[open_pairs] += 1
        assert min(counts[True], counts[False]) > 50, counts


class TestIncrementalIndex:
    def test_updates_match_fresh_builds_on_random_histories(self):
        with audited_updates() as audit:
            for seed in range(1200):
                _prune_audited(random_small_history(seed), audit)
        assert audit["updates"] > 0
        # Seeds 323, 735 and 1005 promote edges that together close a cycle.
        assert audit["cycle_closing"] >= 3

    def test_updates_match_fresh_builds_with_injected_anomalies(self):
        with audited_updates() as audit:
            for history in injected_histories():
                _prune_audited(history, audit)
        # An injected long fork's promotions always close its cycle.
        assert audit["cycle_closing"] >= 6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(workload_histories())
    def test_updates_match_fresh_builds_on_generated_histories(self, history):
        with audited_updates() as audit:
            _prune_audited(history, audit)


def _reference_prune(graph, unlisted) -> tuple:
    """Prune as it ran when it listed the edges it promoted: every open
    constraint tested against the closure of the listed and promoted edges
    as the iteration starts, each edge of a branch on its own, and the
    surviving branch's edges appended. Returns the appended edges, the
    resolved count of each iteration and whether both branches of some
    constraint were impossible."""
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    open_ = dict(graph.constraints)
    promoted: list = []
    per_iteration: list = []
    while True:
        current = dataclasses.replace(graph, known_edges=[*graph.known_edges, *promoted],
                                      resolved={})
        _, _, a_pred, _, _, reach = _reference_fields(current, unlisted)

        def impossible(edge):
            i, j = vindex[edge[0]], vindex[edge[1]]
            if edge[2] == WW:
                return bool((reach[j] >> i) & 1)
            return bool(a_pred[i] & (reach[j] | 1 << j))

        resolved = 0
        for cid in sorted(open_):
            dead = [any(map(impossible, branch_edges(graph, *branch_ends(cid, branch))))
                    for branch in (EITHER, OR)]
            if all(dead):
                return promoted, per_iteration + [resolved], True
            if any(dead):
                del open_[cid]
                promoted += branch_edges(graph, *branch_ends(cid, OR if dead[0] else EITHER))
                resolved += 1
        per_iteration.append(resolved)
        if not resolved:
            return promoted, per_iteration, False


class TestResolvedBranches:
    """Prune lists no edge of the branches it keeps: it records the pairs in
    `graph.resolved`, the index folds them as branch records, the edge
    universe weighs them with the listed labels, and `resolved_edges`
    derives them."""

    def test_resolved_edges_are_what_prune_once_appended(self):
        compared = Counter()
        for history in [random_small_history(seed) for seed in range(600)] + list(
                injected_histories()):
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            expected = _reference_prune(graph, _reference_unlisted_edges(history))
            listed = list(graph.known_edges)
            outcome = prune_constraints(graph)
            assert graph.known_edges == listed
            got = (list(resolved_edges(graph)), outcome.resolved_per_iteration,
                   outcome.verdict != "ok")
            assert got == expected
            compared[bool(graph.resolved), got[2]] += 1
        assert min(compared.values()) > 10, compared

    def test_labels_after_every_iteration(self, monkeypatch):
        """After the index is built and after every fold of prune, the edge
        universe's label of every A and B pair is the reference's, the lowest
        (rank, key) over the listed, the forced and the resolved edges, which
        the reference construction lists but the first; the initial writer,
        whose edges all leave it, labels no pair. Counts the pairs whose
        label is not the lowest over the listed and forced edges alone."""
        fold, build = KnownIndex.add_branches, KnownIndex.__init__
        audit = Counter()
        unlisted, before = [], {}

        def check(index):
            labels = index_labels(index)
            assert labels == _reference_labels(index.graph, unlisted)
            universe = EdgeUniverse(index.graph)
            assert all(universe.known_dep(INIT_TXN, index.vertices[j], False) is None
                       for j in iter_bits(index.a_adj[0]))
            audit["checks"] += 1
            audit["from_branches"] += sum(label != before.get(pair) for pair, label in labels.items())

        def checked_fold(self, records):
            changed = fold(self, records)
            check(self)
            return changed

        def checked_build(self, graph):
            build(self, graph)
            check(self)

        monkeypatch.setattr(KnownIndex, "add_branches", checked_fold)
        monkeypatch.setattr(KnownIndex, "__init__", checked_build)
        for history in [random_small_history(seed) for seed in range(3000)] + list(
                injected_histories()):
            if completeness_gate(history).ok():
                graph = build_polygraph(history)
                unlisted[:] = _reference_unlisted_edges(history)
                before = _reference_labels(graph, unlisted)
                prune_constraints(graph)
        assert audit["checks"] > 3000 and audit["from_branches"] > 10000, audit

    def test_fresh_index_of_a_pruned_graph_is_prunes_final_index(self):
        names = ("a_adj", "b_adj", "a_pred", "k_adj", "reach", "starts")
        compared = 0
        for _, graph in _gated_graphs(3000):
            outcome = prune_constraints(graph)
            if outcome.index is None:
                continue
            fresh, final = KnownIndex(graph).with_reach(), with_closure(outcome.index)
            for name in names:
                assert getattr(fresh, name) == getattr(final, name), name
            assert index_labels(fresh) == index_labels(final)
            compared += bool(graph.resolved)
        assert compared > 800, compared


def _assert_rows_are_the_known_pairs(universe, vertices, a_rows, b_rows) -> int:
    """Each pair with no initial-writer endpoint is in `a_rows` (`b_rows`)
    exactly when `universe.known_dep` finds a non-RW (RW) edge on it.
    Returns how many pairs the rows hold."""
    held = 0
    for i, u in enumerate(vertices):
        if u == INIT_TXN:
            continue
        for j, v in enumerate(vertices):
            if v == INIT_TXN:
                continue
            for rw, rows in ((False, a_rows), (True, b_rows)):
                bit = (rows[i] >> j) & 1
                assert bit == (universe.known_dep(u, v, rw) is not None), (u, v, rw)
                held += bit
    return held


class TestIndexRowsAreTheUniversesKnownPairs:
    """The index keeps rows and the edge universe keeps edges: a pair with no
    initial-writer endpoint is in the index's A (B) rows exactly when the
    universe over the index's graph has a non-RW (RW) edge on it that no
    open constraint owns. So every pair a witness path takes is labeled,
    and a label names no pair the rows lack."""

    def test_fresh_builds_and_every_fold(self, monkeypatch):
        fold = KnownIndex.add_branches
        held = Counter()

        def check(index, label):
            held[label] += _assert_rows_are_the_known_pairs(
                EdgeUniverse(index.graph), index.vertices, index.a_adj, index.b_adj)

        def checked_fold(self, records):
            changed = fold(self, records)
            check(self, "fold")
            return changed

        monkeypatch.setattr(KnownIndex, "add_branches", checked_fold)
        for _, graph in _gated_graphs(1500):
            check(KnownIndex(graph), "fresh")
            prune_constraints(graph)
            check(KnownIndex(graph), "fresh")
        assert held["fresh"] > 20000 and held["fold"] > 5000, held

    def test_immediate_violations(self, monkeypatch):
        """The universe that labels an immediate violation's cycles is of the
        graph the index is of, though the pass resolved pairs before it."""
        blocked_cycle = pruning._blocked_cycle
        checked = []

        def checked_cycle(index, universe, cid, branch):
            _assert_rows_are_the_known_pairs(universe, index.vertices, index.a_adj, index.b_adj)
            checked.append(len(index.graph.resolved) > len(universe.graph.resolved))
            return blocked_cycle(index, universe, cid, branch)

        monkeypatch.setattr(pruning, "_blocked_cycle", checked_cycle)
        for _, graph in _gated_graphs(1500):
            prune_constraints(graph)
        assert len(checked) > 500 and sum(checked) > 100, (len(checked), sum(checked))

    def test_solver_level_zero(self):
        checked = 0
        for _, graph in _gated_graphs(1500):
            pruned = graph.clone()
            cases = [(graph, KnownIndex(graph)), (pruned, prune_constraints(pruned).index)]
            for searched, index in cases:
                if index is None:
                    continue
                solver = Solver(searched, index=index)
                checked += bool(_assert_rows_are_the_known_pairs(
                    EdgeUniverse(searched), index.vertices, solver.a_rows, solver.b_rows))
        assert checked > 1000, checked


@pytest.fixture
def every_update_walks(monkeypatch):
    """The walk-or-rebuild rule always walks, so no update rebuilds the closure.

    Counts the updates that walk.
    """
    walks = []
    monkeypatch.setattr(pruning, "_walk_pays", lambda *args: walks.append(args) or True)
    return walks


def _interleaved_updates(seed: int) -> None:
    """Random batches of resolved branches on a polygraph whose vertex order
    interleaves three sessions, so that every chain of K is one vertex long.

    Every transaction writes keys x and y, and random ones read each from
    another by a listed WR edge. A branch that would give K a pair
    i -> i+1 is left out.
    """
    rng = random.Random(seed)
    vertices = tuple((s, t) for t in range(4) for s in range(3))
    n = len(vertices)
    so = [((s, t), (s, t + 1), SO, None) for s in range(3) for t in range(3)]
    graph = Polygraph(vertices=vertices, known_edges=so,
                      writers={key: tuple(sorted(vertices)) for key in "xy"})
    for key in "xy":
        readers = rng.sample(vertices, rng.randint(0, 3))
        for r in readers:
            w = rng.choice([v for v in vertices if v != r])
            edge = (w, r, WR, key)
            trial = dataclasses.replace(graph, known_edges=graph.known_edges + [edge])
            if not any((_reference_rows(trial)[3][i] >> (i + 1)) & 1 for i in range(n - 1)):
                graph.known_edges.append(edge)
                graph.readers[key, w] = tuple(sorted((*graph.readers.get((key, w), ()), r)))
                graph.read_from[key, r] = w
    index = KnownIndex(graph).with_reach()
    for _ in range(6):
        batch = {}
        for _ in range(rng.randint(1, 4)):
            s, d = rng.sample(vertices, 2)
            cid, branch = (rng.choice("xy"), *sorted((s, d))), EITHER if s < d else OR
            if cid in graph.resolved or cid in batch:
                continue
            trial = dataclasses.replace(graph, resolved={**graph.resolved, **batch, cid: branch})
            if not any((_reference_rows(trial)[3][i] >> (i + 1)) & 1 for i in range(n - 1)):
                batch[cid] = branch
        graph.resolved.update(batch)
        index.fold_branches(branch_ends(cid, branch) for cid, branch in batch.items())
        assert index.starts == list(range(n))


class TestChainWalk:
    """Closure updates by the chain walk alone equal `reach_masks` and name
    exactly the rows that changed (the audit of `audited_updates`)."""

    def test_random_histories(self, every_update_walks):
        with audited_updates() as audit:
            for seed in range(1200):
                _prune_audited(random_small_history(seed), audit)
        assert audit["cycle_closing"] >= 3
        assert len(every_update_walks) >= audit["cycle_closing"]

    def test_injected_anomalies(self, every_update_walks):
        with audited_updates() as audit:
            for history in injected_histories():
                _prune_audited(history, audit)
        assert audit["cycle_closing"] >= 6
        assert len(every_update_walks) >= audit["cycle_closing"]

    def test_interleaved_sessions_leave_no_chain_links(self, every_update_walks):
        with audited_updates() as audit:
            for seed in range(150):
                _interleaved_updates(seed)
        assert audit["cycle_closing"] > 0
        assert len(every_update_walks) >= audit["cycle_closing"]

    def test_batch_that_links_two_chains(self, every_update_walks):
        # Chains [0..7], [8, 9] and [10]; one batch adds 7 -> 8 and 8 -> 10,
        # so source 8 lies in the second half of the chain that 7 -> 8 makes.
        vertices = (*((0, t) for t in range(8)), (1, 0), (1, 1), (2, 0))
        so = [(u, v, SO, None) for u, v in zip(vertices, vertices[1:]) if u[0] == v[0]]
        graph = Polygraph(vertices=vertices, known_edges=so,
                          writers={"x": ((0, 7), (1, 0)), "y": ((1, 0), (2, 0))})
        with audited_updates() as audit:
            index = KnownIndex(graph).with_reach()
            assert index.starts == [0, 8, 10]
            batch = {("x", (0, 7), (1, 0)): EITHER, ("y", (1, 0), (2, 0)): EITHER}
            graph.resolved.update(batch)
            index.fold_branches(branch_ends(cid, branch) for cid, branch in batch.items())
        assert audit["updates"] == len(every_update_walks) == 1
        assert index.reach == reach_masks(index.n, index.k_adj)
        assert index.starts == [0, 10]

    def test_extend_reach_on_random_batches(self):
        # Graphs of up to 40 vertices in random chains; each batch may link
        # chains, close cycles, and names its sources in random order.
        rng = random.Random(10)
        linking = 0
        for _ in range(400):
            n = rng.randint(2, 40)
            adj = [0] * n
            for v in range(n - 1):
                if rng.random() < 0.7:
                    adj[v] |= 1 << (v + 1)
            for _ in range(rng.randint(0, n // 2)):
                u, v = rng.sample(range(n), 2)
                adj[u] |= 1 << v
            for _ in range(3):
                before, starts = reach_masks(n, adj), chain_starts(n, adj)
                batch = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
                batch += [(v, v + 1) for v in rng.sample(range(n - 1), min(2, n - 1))]
                for u, v in batch:
                    adj[u] |= 1 << v
                sources = list({u for u, _ in batch})
                rng.shuffle(sources)
                reach = list(before)
                changed = extend_reach(reach, adj, sources, starts)
                assert reach == reach_masks(n, adj)
                assert changed == {v for v in range(n) if reach[v] != before[v]}
                linking += chain_starts(n, adj) != starts
        assert linking > 500

    def test_rule_rebuilds_for_large_batches(self):
        # 542 vertices in 20 chains, as on hotspot-write: its first batches
        # have 467 and 210 source rows, its later ones 36 and fewer.
        assert not pruning._walk_pays(467, 20, 542)
        assert not pruning._walk_pays(210, 20, 542)
        assert pruning._walk_pays(36, 20, 542)
        assert pruning._walk_pays(379, 20, 10174)


def branch_blocked_per_predecessor(index, graph, cid, branch):
    """Reference branch test: each RW edge's A-predecessors tried one by one."""
    for edge in branch_edges(graph, *branch_ends(cid, branch)):
        src, dst = index.vindex[edge[0]], index.vindex[edge[1]]
        if edge[2] == WW:
            if (index.reach[dst] >> src) & 1:
                return BlockedEdge(edge, None)
        else:
            for p in iter_bits(index.a_pred[src]):
                if p == dst or (index.reach[dst] >> p) & 1:
                    return BlockedEdge(edge, p)
    return None


@pytest.fixture
def audited_branch_tests(monkeypatch):
    """Check every branch test prune makes against the reference: the tests
    of both branches of each pair, key by key, and the first blocked edge a
    witness is built from; count the branches whose first blocked edge is an
    RW edge.

    An iteration's tests show in what `_resolve_pass` leaves: a pair with
    one impossible branch is resolved to the other, the pair it returns has
    two, and a pair before that which stays open has none. A pair it skips,
    as no row its test reads changed, must have none either.
    """
    resolve_pass, blocked = pruning._resolve_pass, pruning._branch_blocked
    audit = {"rw_blocked": 0}

    def checked_pair(index, changed, deadline, records):
        graph = index.graph
        cids = sorted(graph.constraints)
        violating = resolve_pass(index, changed, deadline, records)
        tested = cids if violating is None else cids[:cids.index(violating) + 1]
        for cid in tested:
            expected = [branch_blocked_per_predecessor(index, graph, cid, branch)
                        for branch in (EITHER, OR)]
            survivor = graph.resolved.get(cid)
            result = (cid == violating or survivor == OR, cid == violating or survivor == EITHER)
            assert result == tuple(e is not None for e in expected)
            audit["rw_blocked"] += sum(e is not None and e.predecessor is not None
                                       for e in expected)
        return violating

    def checked(index, cid, branch):
        result = blocked(index, cid, branch)
        assert result == branch_blocked_per_predecessor(index, index.graph, cid, branch)
        return result

    monkeypatch.setattr(pruning, "_resolve_pass", checked_pair)
    monkeypatch.setattr(pruning, "_branch_blocked", checked)
    return audit


class TestBranchTestsMatchReference:
    def test_random_histories(self, audited_branch_tests):
        for seed in range(1200):
            history = random_small_history(seed)
            if completeness_gate(history).ok():
                prune_constraints(build_polygraph(history))
        assert audited_branch_tests["rw_blocked"] > 0

    def test_injected_anomalies(self, audited_branch_tests, long_fork, lost_update,
                                causality_violation):
        fixtures = [long_fork, lost_update, causality_violation, immediate_violation_history()]
        for history in fixtures + list(injected_histories()):
            prune_constraints(build_polygraph(history))
        assert audited_branch_tests["rw_blocked"] > 0

    def test_the_other_writer_is_no_reader_of_the_branch(self, audited_branch_tests):
        # Seeds where one writer of a pair read the key from the other and a
        # branch test's outcome hangs on leaving it out of the readers (3 in
        # seeds 0-19999).
        for seed in (3049, 9993, 10007):
            prune_constraints(build_polygraph(random_small_history(seed)))


def _pass_log(monkeypatch, history, resolve_pass) -> tuple:
    """Prune a fresh polygraph of the history with `resolve_pass` as the
    branch pass: per iteration, the pairs it resolved in order with their
    branches, its records with their targets in order, and the pair it
    returned; then the pairs resolved per iteration, the verdict and the
    final index rows."""
    log = []

    def logged(index, changed, deadline, records):
        before = len(index.graph.resolved)
        violating = resolve_pass(index, changed, deadline, records)
        resolved = list(index.graph.resolved.items())[before:]
        log.append((resolved, [(key, s, row, list(found)) for key, s, row, found in records],
                    violating))
        return violating

    monkeypatch.setattr(pruning, "_resolve_pass", logged)
    outcome = prune_constraints(build_polygraph(history))
    rows = None if outcome.index is None else (_rows(outcome.index), outcome.index.reach)
    return log, outcome.resolved_per_iteration, outcome.verdict, rows


def test_grouped_pass_matches_the_per_pair_reference(monkeypatch):
    """The pass grouped by first writer does what the per-pair reference
    does, iteration by iteration: the same pairs resolved in the same order,
    the same branch records and targets, the same violating pair, and the
    same final index, on random histories and injected anomalies, and on
    the seeds where a writer that read the key from the other decides a
    test (see `test_the_other_writer_is_no_reader_of_the_branch`)."""
    resolve_pass = pruning._resolve_pass
    seeds = [*range(3000), 3049, 9993, 10007]
    histories = [random_small_history(seed) for seed in seeds] + list(injected_histories())
    violations = resolved = 0
    for history in histories:
        if not completeness_gate(history).ok():
            continue
        got = _pass_log(monkeypatch, history, resolve_pass)
        assert got == _pass_log(monkeypatch, history, resolve_pass_per_pair)
        violations += got[2] != "ok"
        resolved += sum(got[1])
    assert violations > 100 and resolved > 1000, (violations, resolved)


def test_open_pairs_stay_in_id_order(monkeypatch):
    """The pass walks `graph.constraints` as it iterates, not sorted, so the
    open pairs must iterate in sorted id order: construct adds them so and
    prune only deletes. Checked after construct and after every pass, on
    random histories and the first history of each workload shape."""
    resolve_pass = pruning._resolve_pass
    passes = Counter()

    def checked(index, changed, deadline, records):
        violating = resolve_pass(index, changed, deadline, records)
        open_pairs = list(index.graph.constraints)
        assert open_pairs == sorted(open_pairs)
        passes[bool(open_pairs)] += 1
        return violating

    monkeypatch.setattr(pruning, "_resolve_pass", checked)
    histories = [random_small_history(seed) for seed in range(3000)]
    for history in histories + list(workload_seed_1_histories().values()):
        if not completeness_gate(history).ok():
            continue
        graph = build_polygraph(history)
        open_pairs = list(graph.constraints)
        assert open_pairs == sorted(open_pairs)
        prune_constraints(graph)
    assert min(passes.values()) > 500, passes


def test_budget_runs_out_inside_a_key(monkeypatch):
    """With a budget, prune reads the clock before each pair it tests, so a
    clock that runs out after N readings stops it inside a key with more
    than N pairs."""
    # One session writes x ten times: 45 pairs, each resolved by session order.
    history = mk_history([[committed([("w", "x", v)]) for v in range(1, 11)]])
    graph = build_polygraph(history)
    assert len(graph.constraints) == 45 and list(graph.writers) == ["x"]
    readings = 10
    read = []

    def monotonic():
        read.append(None)
        return 0.0 if len(read) <= readings else 1e9

    monkeypatch.setattr(pruning, "time", types.SimpleNamespace(monotonic=monotonic))
    with pytest.raises(BudgetExceededError):
        prune_constraints(graph, budget_ms=1)
    # The deadline takes the first reading; each pair resolved took one more.
    assert len(read) == readings + 1
    assert len(graph.resolved) == readings - 1
    assert len(graph.constraints) == 45 - (readings - 1)


def _pruned(history) -> tuple:
    graph = build_polygraph(history)
    outcome = prune_constraints(graph)
    violation = outcome.violation
    return (outcome.resolved_per_iteration, graph.resolved,
            violation and (violation.either_cycle, violation.or_cycle))


def _guarded_histories() -> list:
    histories = [random_small_history(seed) for seed in range(300)] + list(injected_histories())
    return [h for h in histories if completeness_gate(h).ok()]


def test_branch_tests_build_no_edge_lists(monkeypatch):
    """`polygraph.branch_edges` raises inside `_resolve_pass`; prune runs unchanged."""
    resolve_pass = pruning._resolve_pass
    inside = [False]

    def guarded(edges, *args):
        if inside[0]:
            raise AssertionError("branch_edges called by a branch test")
        return edges(*args)

    def flagged(*args):
        inside[0] = True
        try:
            return resolve_pass(*args)
        finally:
            inside[0] = False

    histories = _guarded_histories()
    expected = [_pruned(history) for history in histories]
    patch_branch_edges(monkeypatch, guarded)
    monkeypatch.setattr(pruning, "_resolve_pass", flagged)
    assert [_pruned(history) for history in histories] == expected


def test_prune_lists_branch_edges_only_for_witnesses(monkeypatch):
    """`polygraph.branch_edges` raises anywhere in prune but while a witness
    cycle is built; prune resolves the same pairs and finds the same
    violations."""
    blocked_cycle = pruning._blocked_cycle
    inside = [False]

    def guarded(edges, *args):
        if not inside[0]:
            raise AssertionError("branch_edges called by prune")
        return edges(*args)

    def flagged(*args):
        inside[0] = True
        try:
            return blocked_cycle(*args)
        finally:
            inside[0] = False

    histories = _guarded_histories()
    expected = [_pruned(history) for history in histories]
    assert sum(1 for e in expected if e[2]) > 10
    patch_branch_edges(monkeypatch, guarded)
    monkeypatch.setattr(pruning, "_blocked_cycle", flagged)
    assert [_pruned(history) for history in histories] == expected


@pytest.fixture
def index_builds(monkeypatch):
    """Weak references to every KnownIndex built while the test runs."""
    built: list[weakref.ref] = []
    init = KnownIndex.__init__

    def counted(self, graph):
        init(self, graph)
        built.append(weakref.ref(self))

    monkeypatch.setattr(KnownIndex, "__init__", counted)
    return built


class TestIndexLifetime:
    def test_built_once_per_check(self, index_builds, long_fork, lost_update):
        for history in (long_fork, lost_update, immediate_violation_history(), _sat_history()):
            index_builds.clear()
            pipeline.check_si(history)
            assert len(index_builds) == 1
        # Without pruning the solver builds the only index.
        index_builds.clear()
        assert pipeline.check_si(lost_update, no_prune=True).outcome == "violation"
        assert len(index_builds) == 1

    def test_closure_computed_only_for_pruning(self, monkeypatch, lost_update):
        calls = []
        closure = pruning.reach_masks
        monkeypatch.setattr(pruning, "reach_masks", lambda *a: calls.append(1) or closure(*a))
        assert pipeline.check_si(lost_update, no_prune=True).outcome == "violation"
        assert not calls
        assert pipeline.check_si(lost_update).outcome == "violation"
        assert calls

    def test_released_before_verification_and_explainer(
        self, monkeypatch, index_builds, long_fork, lost_update
    ):
        entered = []

        def no_live_index(name, fn):
            def wrapped(*args, **kwargs):
                gc.collect()
                assert all(ref() is None for ref in index_builds), f"index alive in {name}"
                entered.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(pipeline, "verify_witness",
                            no_live_index("verify", pipeline.verify_witness))
        monkeypatch.setattr(pipeline, "interpret", no_live_index("interpret", pipeline.interpret))
        # Solver-unsat, immediate violation and sat, in that order.
        for history in (lost_update, immediate_violation_history(), _sat_history()):
            pipeline.check_si(history)
        assert entered == ["verify", "interpret", "interpret", "verify"]
