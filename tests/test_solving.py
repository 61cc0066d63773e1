import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from sicheck.errors import BudgetExceededError
from sicheck.explain import EdgeUniverse
from sicheck.graphs import iter_bits, transpose
from harness import HistoryBounds, random_small_history
from sicheck.histories import INIT_TXN, completeness_gate, parse_history
from sicheck.oracle import induced_graph, oracle_check
from sicheck.polygraph import (
    EITHER, OR, RW, SO, WR, WW, Polygraph, branch_edges, branch_ends, build_polygraph,
)
from sicheck.pruning import KnownIndex, prune_constraints
from sicheck.solving import SolveResult, Solver, solve, verify_witness
from sicheck.witness import WitnessCycle, has_adjacent_rw
from sicheck.workload import WorkloadParams, generate, inject

from conftest import T1, T2, T3, T4, committed, index_labels, mk_history, patch_branch_edges
from test_pruning import _reference_labels, _reference_unlisted_edges
import reference_frontend as ref
from reference_closures import pk_check_per_successor

DATA = Path(__file__).parent / "data"


def pipeline(history, no_prune=False):
    graph = build_polygraph(history)
    if not no_prune:
        outcome = prune_constraints(graph)
        assert outcome.verdict == "ok"
    return graph, solve(graph)


class TestSolve:
    def test_long_fork_unsat_with_exact_cycle(self, long_fork):
        graph, result = pipeline(long_fork)
        assert result.status == "unsat"
        edges = result.cycle.edges()
        assert edges == [
            (T1, T3, WR, "x"),
            (T3, T2, RW, "y"),
            (T2, T4, WR, "y"),
            (T4, T1, RW, "x"),
        ]
        assert result.cycle.rw_count() == 2
        assert result.cycle.has_nonadjacent_rw_pair()
        assert not has_adjacent_rw(result.cycle.edges())

    def test_causality_template_unsat(self, causality_violation):
        graph, result = pipeline(causality_violation)
        assert result.status == "unsat"
        labels = [e[2] for e in result.cycle.edges()]
        assert "SO" in labels and "RW" in labels

    def test_zero_constraints_acyclic_sat_immediately(self):
        history = mk_history(
            [[committed([("w", "x", 1)])], [committed([("r", "x", 1), ("w", "y", 2)])]]
        )
        graph, result = pipeline(history)
        assert result.status == "sat"
        assert result.decisions == 0

    def test_lost_update_unsat_through_decisions(self, lost_update):
        graph, result = pipeline(lost_update)
        assert result.status == "unsat"
        assert result.conflicts >= 1
        labels = sorted(e[2] for e in result.cycle.edges())
        assert labels == ["RW", "WW"]

    def test_determinism(self, long_fork, lost_update):
        for history in (long_fork, lost_update):
            graph = build_polygraph(history)
            prune_constraints(graph)
            first = solve(graph)
            second = solve(graph)
            assert first.status == second.status
            assert first.cycle.deps == second.cycle.deps
            assert (first.decisions, first.conflicts) == (second.decisions, second.conflicts)

    def test_budget_exhaustion_is_not_a_verdict(self, lost_update):
        graph = build_polygraph(lost_update)
        prune_constraints(graph)
        with pytest.raises(BudgetExceededError):
            solve(graph, budget_ms=0)

    def test_no_prune_agrees(self, long_fork, lost_update, causality_violation):
        for history in (long_fork, lost_update, causality_violation):
            _, pruned = pipeline(history)
            _, raw = pipeline(history, no_prune=True)
            assert pruned.status == raw.status

    def test_supplied_index_gives_the_same_result(self, long_fork, lost_update, causality_violation):
        sat = mk_history([[committed([("w", "x", 1)])], [committed([("r", "x", 1), ("w", "x", 2)])]])
        for history in (long_fork, lost_update, causality_violation, sat):
            for no_prune in (False, True):
                graph = build_polygraph(history)
                if no_prune:
                    index = KnownIndex(graph)
                else:
                    index = prune_constraints(graph).index
                own = solve(graph)
                rows = (index.a_adj, index.b_adj, index.a_pred, index.k_adj)
                before = ([list(r) for r in rows], index_labels(index))
                reach = index.reach and list(index.reach)
                assert solve(graph, index=index) == own
                # The solver only reads the index it is given.
                after = ([list(r) for r in rows], index_labels(index))
                assert after == before and index.reach == reach
                assert own.status == ("sat" if history is sat else "unsat")


# (status, decisions, conflicts, witness deps) of searches with conflicts.
# Status and deps were recorded before the solver stopped reading the Boolean
# encoding; the counts are those of dynamic backtracking, and the no-prune
# counts those of a polygraph whose RMW-run pairs construct orders. History key:
# (generator seed, keys, injected anomaly) over 5 sessions x 4 txns x 3 ops.
_LOST = "inj0a"  # the injected lost-update key
_RW = ((1, 4), (2, 4), RW, _LOST)
_WW = ((2, 4), (1, 4), WW, _LOST)
SEARCH_PINS = {
    ((0, 6, "lost-update"), False): ("unsat", 2, 2, [
        (_RW, ("resolved", (_LOST, (0, 4), (2, 4)), "either")),
        (_WW, ("branch", (_LOST, (1, 4), (2, 4)), "or")),
    ]),
    ((0, 6, "lost-update"), True): ("unsat", 6, 4, [
        (_RW, ("branch", (_LOST, (0, 4), (2, 4)), "either")),
        (_WW, ("branch", (_LOST, (1, 4), (2, 4)), "or")),
    ]),
    ((35, 4, None), False): ("sat", 36, 12, None),
    ((35, 4, None), True): ("sat", 55, 13, None),
    ((88, 3, None), False): ("sat", 24, 7, None),
    ((88, 3, None), True): ("sat", 33, 10, None),
    ((123, 4, None), False): ("sat", 18, 5, None),
    ((123, 4, None), True): ("sat", 38, 12, None),
}


def pinned_history(case):
    seed, keys, anomaly = case
    params = WorkloadParams(sessions=5, txns_per_session=4, ops_per_txn=3, keys=keys, seed=seed)
    history = generate(params)
    return history if anomaly is None else inject(history, anomaly, seed)


@pytest.mark.parametrize("case, no_prune", sorted(SEARCH_PINS, key=repr))
def test_search_pinned(case, no_prune):
    graph, result = pipeline(pinned_history(case), no_prune=no_prune)
    deps = None if result.cycle is None else result.cycle.deps
    assert (result.status, result.decisions, result.conflicts, deps) == SEARCH_PINS[case, no_prune]
    assert verify_witness(result, graph)


@pytest.mark.parametrize("case, no_prune", sorted(SEARCH_PINS, key=repr))
def test_search_builds_no_edge_lists(monkeypatch, case, no_prune):
    """`polygraph.branch_edges` raises while the solver is built and
    searches; the results are the pinned ones."""
    graph = build_polygraph(pinned_history(case))
    index = KnownIndex(graph) if no_prune else prune_constraints(graph).index

    def guarded(*args):
        raise AssertionError("branch_edges called by the search")

    with monkeypatch.context() as patch:
        patch_branch_edges(patch, guarded)
        result = Solver(graph, index=index).solve()
    deps = None if result.cycle is None else result.cycle.deps
    assert (result.status, result.decisions, result.conflicts, deps) == SEARCH_PINS[case, no_prune]
    assert verify_witness(result, graph)



def test_conflict_cycles_name_known_edges_first():
    """A cycle dep comes from a branch only when its pair has no known edge
    in its layer, listed or forced; a known dep is the pair's lowest (rank,
    key) known edge, as the reference labels it."""
    unsat = 0
    for seed in range(500):
        history = random_small_history(seed)
        if not completeness_gate(history).ok():
            continue
        graph = build_polygraph(history)
        index = KnownIndex(graph)
        result = solve(graph, index=index)
        if result.status != "unsat":
            continue
        unsat += 1
        universe = EdgeUniverse(graph)
        labels = _reference_labels(graph, _reference_unlisted_edges(history))
        for edge, origin in result.cycle.deps:
            pair = (index.vindex[edge[0]], index.vindex[edge[1]], edge[2] == RW)
            if origin[0] == "branch":
                assert universe.known_dep(edge[0], edge[1], edge[2] == RW) is None, seed
                assert pair not in labels, seed
            else:
                assert labels[pair] == edge, seed
    assert unsat


def _search_state(solver: Solver) -> tuple:
    return (solver.a_rows, solver.b_rows, solver.a_pred, solver.b_pred, solver.ind_rows,
            solver.a_edges, solver.b_edges)


@pytest.mark.parametrize(
    "case, no_prune", [k for k in sorted(SEARCH_PINS, key=repr) if SEARCH_PINS[k][0] == "sat"]
)
def test_search_state_is_the_index_rows_plus_the_assignment(case, no_prune):
    """Retracting assigned constraints in any order leaves the state a fresh
    assignment of the rest would build; retracting all leaves the index."""
    seed, keys, _ = case
    params = WorkloadParams(sessions=5, txns_per_session=4, ops_per_txn=3, keys=keys, seed=seed)
    graph = build_polygraph(generate(params))
    index = KnownIndex(graph) if no_prune else prune_constraints(graph).index
    solver = Solver(graph, index=index)
    result = solver.solve()
    assert result.status == "sat" and result.conflicts
    a_rows, b_rows = list(index.a_adj), list(index.b_adj)
    for cid, branch in result.assignment.items():
        for src, dst, kind, _ in branch_edges(graph, *branch_ends(cid, branch)):
            rows = b_rows if kind == RW else a_rows
            rows[index.vindex[src]] |= 1 << index.vindex[dst]
    assert (solver.a_rows, solver.b_rows) == (a_rows, b_rows)
    stamp_order = sorted(range(len(solver.constraints)), key=solver.stamp.__getitem__)
    assigned = set(range(len(solver.constraints)))
    rng = random.Random(seed)
    for k in rng.sample(sorted(assigned), len(assigned)):
        solver._retract(k)
        assigned.remove(k)
        fresh = Solver(graph, index=index)
        assert fresh.check_known_acyclic() is None
        for j in stamp_order:
            if j in assigned:
                assert fresh._try_branch(j, result.assignment[solver.constraints[j]]) is None
        assert _search_state(solver) == _search_state(fresh)
    assert (solver.a_rows, solver.b_rows) == (index.a_adj, index.b_adj)
    assert (solver.a_pred, solver.ind_rows) == (index.a_pred, index.k_adj)
    assert solver.b_pred == [0] * len(index.b_adj)
    assert not (solver.a_edges or solver.b_edges)


def test_pk_order_stays_topological():
    """Acyclic insertions mixed with removals in any order keep `ord` a
    topological order of the induced rows and `at` its inverse, however far
    back each insertion reaches. Bits are set and cleared directly, and each
    new one is repaired with `_pk_check`, as `_add_pair` does."""
    n = 40
    graph = Polygraph(vertices=tuple((i, 0) for i in range(n)))
    rng = random.Random(7)
    for _ in range(20):
        rank = rng.sample(range(n), n)  # every inserted edge follows this order
        solver = Solver(graph)
        assert solver.check_known_acyclic() is None
        present: list[tuple[int, int]] = []
        for _ in range(200):
            if present and rng.random() < 0.4:
                u, v = present.pop(rng.randrange(len(present)))
                if (u, v) not in present:
                    solver.ind_rows[u] &= ~(1 << v)
            else:
                u, v = sorted(rng.sample(range(n), 2), key=rank.__getitem__)
                if not (solver.ind_rows[u] >> v) & 1:
                    solver.ind_rows[u] |= 1 << v
                    assert solver._pk_check(u, v) is None
                present.append((u, v))
            assert [solver.at[solver.ord[x]] for x in range(n)] == list(range(n))
            for x in range(n):
                assert all(solver.ord[x] < solver.ord[y] for y in iter_bits(solver.ind_rows[x]))
            assert solver.ind_rows == [
                sum(1 << v for u, v in set(present) if u == x) for x in range(n)
            ]


def test_pk_check_matches_the_per_successor_reference():
    """Random insertions, many against the order and some closing a cycle
    or a self-loop, mixed with removals: `_pk_check` returns the cycle the
    per-successor reference returns and repairs `ord` and `at` as it does,
    a returned cycle runs along the rows and leaves the order as it was,
    and the order stays topological once a cycle's pair is removed, as a
    conflict's retraction removes it."""
    n = 30
    graph = Polygraph(vertices=tuple((i, 0) for i in range(n)))
    rng = random.Random(11)
    outcomes = Counter()
    for _ in range(30):
        solver = Solver(graph)
        assert solver.check_known_acyclic() is None
        rows, ord_, at = solver.ind_rows, list(solver.ord), list(solver.at)
        present: list[tuple[int, int]] = []
        for _ in range(120):
            if present and rng.random() < 0.2:
                u, v = present.pop(rng.randrange(len(present)))
                rows[u] &= ~(1 << v)
                continue
            u, v = rng.randrange(n), rng.randrange(n)
            if (rows[u] >> v) & 1 or (u == v and rng.random() < 0.9):
                continue
            rows[u] |= 1 << v
            before = (list(solver.ord), list(solver.at))
            got = solver._pk_check(u, v)
            assert got == pk_check_per_successor(rows, ord_, at, u, v)
            assert (solver.ord, solver.at) == (ord_, at)
            if got is None:
                outcomes["repaired" if before[0][u] > before[0][v] else "in order"] += 1
                present.append((u, v))
            else:
                outcomes["cycle"] += 1
                assert (solver.ord, solver.at) == before
                assert got[:2] == [u, v] or got == [u]
                assert all((rows[x] >> y) & 1 for x, y in zip(got, got[1:] + got[:1]))
                rows[u] &= ~(1 << v)
            assert [solver.at[solver.ord[x]] for x in range(n)] == list(range(n))
            for x in range(n):
                assert all(solver.ord[x] < solver.ord[y] for y in iter_bits(rows[x]))
    assert min(outcomes["repaired"], outcomes["in order"], outcomes["cycle"]) > 50, outcomes


# Six sessions over at most two keys with up to four writers each: without
# pruning, 6 of seeds 0-399 retract a culprit that a later-stamped
# assignment outlives (`test_induced_rows_follow_the_support_rule` counts them).
_CONTENDED = HistoryBounds(max_sessions=6, max_txns=10, max_keys=2, max_writers_per_key=4,
                           max_ops_per_txn=3, abort_pct=0, corruption_pct=0)
# Wider shapes whose searches retract a pair that only an assigned A pair
# composed with a B pair still supports: of seeds 0-1499, these three (665
# without pruning, 1212 pruned, 1405 both); the contended seeds have none.
_WIDE = HistoryBounds(max_sessions=6, max_txns=12, max_keys=4, max_writers_per_key=6,
                      max_ops_per_txn=5, abort_pct=0, corruption_pct=0)
_KEPT_BY_ASSIGNED_A_SEEDS = (665, 1212, 1405)


@pytest.mark.parametrize("bounds", [None, _CONTENDED], ids=["default", "contended"])
def test_search_matches_the_oracle(bounds):
    """The search's verdict is the brute-force oracle's on small random
    histories, pruned and not, and every witness verifies."""
    searched = 0
    for seed in range(400):
        history = random_small_history(seed, bounds)
        if not completeness_gate(history).ok():
            continue
        expected = "sat" if oracle_check(history).satisfiable else "unsat"
        for no_prune in (False, True):
            graph = build_polygraph(history)
            if not no_prune and prune_constraints(graph).verdict != "ok":
                assert expected == "unsat", seed
                continue
            result = solve(graph)
            assert result.status == expected, (seed, no_prune)
            assert verify_witness(result, graph), (seed, no_prune)
            searched += result.conflicts > 0
    assert searched


class _AuditedSolver(Solver):
    """A solver that recomputes its induced rows from scratch after every
    branch it tries and every retraction, and counts the retractions of a
    culprit that some later-stamped assignment outlives, and the induced
    pairs a retraction tests and keeps only by an assigned A pair (u, m)
    with B(m, v): neither the index's K row nor A holds them, and no
    assigned B pair composes into them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trying: int | None = None
        self.audits = self.out_of_order = self.kept_by_assigned_a = 0
        self.tested: set | None = None  # the pairs the running retraction tests

    def _supported_by(self, i, j, rw):
        pairs = super()._supported_by(i, j, rw)
        if self.tested is not None:
            self.tested.update(pairs)
        return pairs

    def _try_branch(self, k, branch):
        self.trying = k
        why = super()._try_branch(k, branch)
        self.trying = None
        self.audit()
        return why

    def _retract(self, k):
        if k != self.trying and any(
            self.assigned[j] is not None and self.stamp[j] > self.stamp[k]
            for j in range(len(self.constraints))
        ):
            self.out_of_order += 1
        self.tested = set()
        super()._retract(k)
        known_k, a_rows = self.known.k_adj, self.a_rows
        self.kept_by_assigned_a += sum(
            1 for u, v in self.tested
            if (self.ind_rows[u] >> v) & 1 and not ((known_k[u] | a_rows[u]) >> v) & 1
            and not a_rows[u] & self.b_pred[v])
        self.tested = None
        self.audit()

    def audit(self):
        for i, a_row in enumerate(self.a_rows):
            expected = a_row
            for m in iter_bits(a_row):
                expected |= self.b_rows[m]
            assert self.ind_rows[i] == expected, i
        assigned = [row & ~known for row, known in zip(self.b_rows, self.known.b_adj)]
        assert self.b_pred == transpose(assigned)
        self.audits += 1


@pytest.mark.parametrize("no_prune", [False, True], ids=["pruned", "no-prune"])
def test_induced_rows_follow_the_support_rule(no_prune):
    """After every branch tried and every retraction, each induced row is
    its A row plus the B rows of its A successors, and `b_pred` is the
    transpose of the assigned B pairs outside the index, also across
    out-of-order retractions and pairs kept only by an assigned A pair."""
    audits = out_of_order = kept = 0
    cases = [(seed, _CONTENDED) for seed in range(400)]
    cases += [(seed, _WIDE) for seed in _KEPT_BY_ASSIGNED_A_SEEDS]
    for seed, bounds in cases:
        history = random_small_history(seed, bounds)
        if not completeness_gate(history).ok():
            continue
        graph = build_polygraph(history)
        if not no_prune and prune_constraints(graph).verdict != "ok":
            continue
        solver = _AuditedSolver(graph)
        result = solver.solve()
        assert verify_witness(result, graph), seed
        audits += solver.audits
        out_of_order += solver.out_of_order
        kept += solver.kept_by_assigned_a
    assert audits > 200 and (out_of_order > 0 or not no_prune), (audits, out_of_order)
    assert kept > 0


def test_retraction_takes_the_assigned_b_rows_per_cleared_pair():
    """Retracting branch s -> d on x clears its A pair (s, d), then its B
    pairs (r1, d) and (r2, d) of s's readers, in reader order. Each cleared
    pair ORs the B rows of u's assigned A successors afresh: here s's OR is
    first taken for the A pair's (s, w), while B(r1, d) still holds, and
    (s, d) is tested against it again only after (r2, d), when r1's B row
    has lost d; a stale OR would keep (s, d). Hand-built: r1 reads x from s
    with no WR edge listed, so s -> r1 can be an assigned A pair (its WW
    on y). On construct's graphs the OR cannot go stale: s's readers are
    its known A successors, never assigned ones, and any other u takes its
    OR for (u, d) only once none of its assigned A successors keeps an
    assigned B pair to d, so none is left to lose."""
    s, d, r1, r2, w = (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)
    cids = [("x", s, d), ("y", s, r1)]
    graph = Polygraph(
        vertices=(s, d, r1, r2, w), known_edges=[(s, r2, WR, "x"), (d, w, RW, "z")],
        constraints=dict.fromkeys(cids),
        readers={("x", s): (r1, r2)}, read_from={("x", r1): s, ("x", r2): s},
        writers={"x": (s, d), "y": (s, r1)})
    solver = _AuditedSolver(graph)
    assert solver.check_known_acyclic() is None
    assert solver._try_branch(1, EITHER) is None  # s -WW(y)-> r1
    assert solver._try_branch(0, EITHER) is None  # s -WW(x)-> d, r1 -RW-> d, r2 -RW-> d
    assert solver.ind_rows[0] == sum(1 << v for v in (1, 2, 3, 4))
    solver._retract(0)  # audited
    assert solver.ind_rows[0] == 1 << 2 | 1 << 3
    assert solver.audits == 3


def test_hotspot_decisions_stay_near_the_constraints_left():
    """On write-heavy hotspot histories a backjump keeps unrelated
    decisions, so the search decides about once per constraint."""
    for seed in range(6):
        params = WorkloadParams(sessions=20, txns_per_session=25, ops_per_txn=10, keys=1_000,
                                dist="hotspot", profile="write-heavy", seed=seed)
        graph = build_polygraph(generate(params))
        index = prune_constraints(graph).index
        result = solve(graph, index=index)
        assert result.status == "sat" and verify_witness(result, graph)
        assert result.decisions <= 2 * len(graph.constraints), seed


def test_import_leaves_the_encoder_unloaded():
    """Neither the solver nor a check that writes no encoding loads the encoder."""
    code = (
        "import sys, sicheck.solving\n"
        "assert 'sicheck.encoding' not in sys.modules, 'import'\n"
        "from sicheck import check_si, parse_history\n"
        f"check_si(parse_history(open({str(DATA / 'long_fork.json')!r}, 'rb').read()))\n"
        "assert 'sicheck.encoding' not in sys.modules, 'check'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestVerifyWitness:
    def test_sat_witness_verifies(self):
        history = mk_history(
            [
                [committed([("w", "x", 1)])],
                [committed([("r", "x", 1), ("w", "x", 2)])],
                [committed([("r", "x", 2), ("w", "y", 3)])],
            ]
        )
        graph, result = pipeline(history)
        assert result.status == "sat"
        assert verify_witness(result, graph)

    def test_sat_order_must_follow_the_induced_graph(self):
        graph, result = pipeline(pinned_history((35, 4, None)))
        assert result.status == "sat" and verify_witness(result, graph)
        assert sorted(result.order) == sorted(graph.vertices)
        wrong = SolveResult("sat", assignment=result.assignment, order=result.order[::-1])
        assert not verify_witness(wrong, graph)
        # One swapped pair of neighbours joined by a known edge is enough.
        position = {v: p for p, v in enumerate(result.order)}
        src, dst = next((e[0], e[1]) for e in graph.known_edges
                        if e[2] != RW and position[e[1]] == position[e[0]] + 1)
        swapped = list(result.order)
        swapped[position[src]], swapped[position[dst]] = dst, src
        assert not verify_witness(SolveResult("sat", assignment=result.assignment,
                                              order=swapped), graph)

    def test_sat_order_must_follow_a_listed_rw_composition(self):
        """A listed RW edge composes with the non-RW edges into its source:
        a -SO-> b -RW-> c puts a before c. Construct lists no RW edge, so
        only a hand-built graph has one."""
        a, b, c = (0, 0), (1, 0), (2, 0)
        graph = Polygraph(vertices=(a, b, c), known_edges=[(a, b, SO, None), (b, c, RW, "x")])
        assert verify_witness(SolveResult("sat", assignment={}, order=[a, b, c]), graph)
        assert not verify_witness(SolveResult("sat", assignment={}, order=[c, a, b]), graph)

    def test_sat_order_must_hold_every_vertex_once(self):
        graph, result = pipeline(pinned_history((35, 4, None)))
        order = result.order
        for broken in (None, [], order[:-1], order[1:], order[:-1] + order[:1],
                       order + order[-1:], order + [(99, 99)]):
            forged = SolveResult("sat", assignment=result.assignment, order=broken)
            assert not verify_witness(forged, graph), broken

    def test_sat_check_accepts_exactly_the_acyclic_assignments(self):
        """A random full assignment verifies with a topological order of the
        oracle's induced graph when that graph is acyclic, and with no order
        tried when it is not."""
        rng = random.Random(3)
        outcomes = set()
        for seed in range(150):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            # The reference construction lists the initial writer's edges too.
            constructed = ref.build_polygraph(history).known_edges
            for _ in range(3):
                assignment = {cid: rng.choice((EITHER, OR)) for cid in sorted(graph.constraints)}
                edges = list(constructed)
                for cid, branch in assignment.items():
                    edges += branch_edges(graph, *branch_ends(cid, branch))
                sorter = TopologicalSorter({v: set() for v in graph.vertices})
                for src, dst, _ in induced_graph(edges):
                    sorter.add(dst, src)
                try:
                    orders = [list(sorter.static_order())]
                    acyclic = True
                except CycleError:
                    orders = [list(graph.vertices), rng.sample(graph.vertices, len(graph.vertices))]
                    acyclic = False
                for order in orders:
                    forged = SolveResult("sat", assignment=assignment, order=order)
                    assert verify_witness(forged, graph) == acyclic, seed
                outcomes.add(acyclic)
        assert outcomes == {True, False}

    def test_sat_order_must_put_init_before_its_targets(self):
        """The initial writer's edges are derived, not listed, yet a sat order
        that puts init after one committed writer, or after one reader of an
        initial value, fails; one that puts init first verifies."""
        moved = {"writer": 0, "reader": 0}
        for seed in range(300):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            if prune_constraints(graph).verdict != "ok":
                continue
            result = solve(graph)
            if result.status != "sat":
                continue
            rest = [v for v in result.order if v != INIT_TXN]
            first = SolveResult("sat", assignment=result.assignment, order=[INIT_TXN, *rest])
            assert verify_witness(first, graph), seed
            writers = {w for ws in graph.writers.values() for w in ws}
            readers = {r for (_, r), w in graph.read_from.items() if w == INIT_TXN}
            for kind, targets in (("writer", writers - readers), ("reader", readers - writers)):
                for target in sorted(targets)[:2]:
                    order = list(rest)
                    order.insert(order.index(target) + 1, INIT_TXN)
                    forged = SolveResult("sat", assignment=result.assignment, order=order)
                    assert not verify_witness(forged, graph), (seed, kind, target)
                    moved[kind] += 1
        assert min(moved.values()) > 40, moved

    def test_unsat_cycle_verifies(self, long_fork):
        graph, result = pipeline(long_fork)
        assert result.status == "unsat"
        assert verify_witness(result, graph)

    def test_corrupted_witness_rejected(self, long_fork):
        graph, result = pipeline(long_fork)
        deps = list(result.cycle.deps)
        edge, origin = deps[0]
        deps[0] = ((edge[1], edge[0], edge[2], edge[3]), origin)  # flip one edge
        corrupted = SolveResult("unsat", cycle=WitnessCycle(deps))
        assert not verify_witness(corrupted, graph)

    def test_resolved_dep_needs_a_closed_constraint_and_its_branch(self, causality_violation):
        params = WorkloadParams(sessions=5, txns_per_session=4, ops_per_txn=3, keys=6, seed=0)
        graph, result = pipeline(inject(generate(params), "lost-update", 0))
        assert verify_witness(result, graph)
        (rw, resolved), (ww, branch) = result.cycle.deps
        assert resolved[0] == "resolved" and branch[0] == "branch"
        for forged in (
            [(rw, ("resolved", resolved[1], "or")), (ww, branch)],  # the dead branch
            [(rw, resolved), (ww, ("resolved",) + branch[1:])],  # an open constraint
        ):
            assert not verify_witness(SolveResult("unsat", cycle=WitnessCycle(forged)), graph)
        # A known edge from a read of the initial value, claimed as promoted
        # from a constraint with the initial writer, which is never generated.
        graph, result = pipeline(causality_violation)
        assert verify_witness(result, graph)
        deps = list(result.cycle.deps)
        k = next(k for k, (edge, _) in enumerate(deps) if edge[2] == RW)
        edge = deps[k][0]
        deps[k] = (edge, ("resolved", (edge[3], INIT_TXN, edge[1]), "either"))
        assert not verify_witness(SolveResult("unsat", cycle=WitnessCycle(deps)), graph)

    def test_corrupted_sat_assignment_rejected(self, lost_update):
        graph = build_polygraph(lost_update)
        # Claim sat with an arbitrary branch per constraint: the lost-update
        # polygraph has no acyclic resolution, so any full assignment fails.
        assignment = {cid: "either" for cid in graph.constraints}
        fake = SolveResult("sat", assignment=assignment, order=list(graph.vertices))
        assert not verify_witness(fake, graph)

    def test_sat_assignment_missing_a_constraint_rejected(self):
        history = mk_history(
            [
                [committed([("w", "x", 1)])],
                [committed([("r", "x", 1), ("w", "x", 2)])],
                [committed([("w", "x", 3)])],
            ]
        )
        graph, result = pipeline(history, no_prune=True)
        assert result.status == "sat" and len(result.assignment) > 1
        assert verify_witness(result, graph)
        for cid in result.assignment:
            partial = {k: b for k, b in result.assignment.items() if k != cid}
            forged = SolveResult("sat", assignment=partial, order=result.order)
            assert not verify_witness(forged, graph)

    def test_empty_sat_assignment_rejected_on_violating_history(self):
        params = WorkloadParams(seed=3, sessions=5, txns_per_session=20)
        graph = build_polygraph(inject(generate(params), "lost-update", 3))
        assert graph.constraints
        assert solve(graph).status == "unsat"
        forged = SolveResult("sat", assignment={}, order=list(graph.vertices))
        assert not verify_witness(forged, graph)

    def test_adjacent_rw_cycle_rejected(self, long_fork):
        graph, result = pipeline(long_fork)
        deps = result.cycle.deps
        doubled = WitnessCycle(
            [
                ((T1, T3, RW, "x"), ("known",)),
                ((T3, T1, RW, "x"), ("known",)),
            ]
        )
        assert not verify_witness(SolveResult("unsat", cycle=doubled), graph)


RMW_RUNS = Path(__file__).parent / "corpus" / "rmw-runs"
A, B, C, D = (0, 0), (1, 0), (2, 0), (3, 0)  # the transactions of the rmw-runs seeds


class TestForcedEdgeControls:
    """Negative controls for the edges of the pairs construct orders, which
    `verify_witness` reads off the runs and reader rows, not off a list.

    A forged sat order keeps the solver's assignment and is rejected only
    by a forced edge; the order it is forged from verifies."""

    @staticmethod
    def graph(name):
        return build_polygraph(parse_history((RMW_RUNS / f"{name}.json").read_bytes()))

    @staticmethod
    def orders(graph, valid, forged):
        result = solve(graph)
        assert result.status == "sat" and verify_witness(result, graph)
        for order, verifies in ((valid, True), (forged, False)):
            claim = SolveResult("sat", assignment=result.assignment, order=[INIT_TXN, *order])
            assert verify_witness(claim, graph) == verifies, order

    def test_swapped_run_members_rejected(self):
        # Runs A, B and C, D. Without the listed WR edges A -> B and C -> D
        # only the runs order their members.
        graph = dataclasses.replace(self.graph("two-runs-on-one-key"), known_edges=[])
        valid = solve(graph).order[1:]
        for first, second in ((A, B), (C, D)):
            forged = list(valid)
            at, to = forged.index(first), forged.index(second)
            forged[at], forged[to] = second, first
            self.orders(graph, valid, forged)

    def test_writer_before_an_initial_reader_rejected(self):
        # C reads the initial x and D's y; A reads the initial x and writes
        # x; B writes x. D -WR-> C composes with C's forced RW edges to A
        # and B: no writer of x may come before D.
        graph = self.graph("initial-reader-writes-key")
        self.orders(graph, [D, C, A, B], [A, D, C, B])
        # A lone RW edge orders nothing: C may follow the writers it read before.
        self.orders(graph, [D, A, B, C], [A, D, C, B])

    def test_member_reader_after_a_later_member_rejected(self):
        # Run A, B, C; D reads B's x and E's y. E -WR-> D composes with D's
        # forced RW edge to C, so C after B but before E, and so before D, fails.
        E = (4, 0)
        graph = self.graph("member-read-by-reader-only")
        self.orders(graph, [A, B, E, D, C], [A, B, C, E, D])

    def test_resolved_edge_across_two_runs_rejected(self):
        # Runs A, B and C, D; a listed edge D -> A closes A -> C -> D -> A.
        graph = self.graph("two-runs-on-one-key")
        graph.known_edges.append((D, A, SO, None))
        cross, run = (A, C, WW, "x"), (C, D, WW, "x")

        def cycle(cross_origin):
            return SolveResult("unsat", cycle=WitnessCycle([
                (cross, cross_origin), (run, ("resolved", ("x", C, D), EITHER)),
                ((D, A, SO, None), ("known",))]))

        assert ("x", A, C) in graph.constraints
        assert verify_witness(cycle(("branch", ("x", A, C), EITHER)), graph)
        assert not verify_witness(cycle(("resolved", ("x", A, C), EITHER)), graph)
        assert not verify_witness(cycle(("known",)), graph)
