"""Shared builders and canonical fixture histories."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from sicheck.explain import EdgeUniverse
from sicheck.graphs import iter_bits
from sicheck.histories import (
    ABORTED, COMMITTED, INIT_TXN, History, Operation, Transaction, parse_history,
)
from sicheck.pruning import KnownIndex, _resolve_pass
from sicheck.workload import WorkloadParams, generate, inject


def mk_history(sessions: list[list[tuple[str, list[tuple[str, str, int]]]]]) -> History:
    """Build a history from [[(status, [(kind, key, value), ...]), ...], ...]."""
    out = []
    for sid, txns in enumerate(sessions):
        session = []
        for index, (status, ops) in enumerate(txns):
            session.append(
                Transaction(
                    (sid, index),
                    status,
                    tuple(Operation(kind, key, value) for kind, key, value in ops),
                )
            )
        out.append((sid, session))
    return History.build(out)


def committed(ops: list[tuple[str, str, int]]) -> tuple[str, list[tuple[str, str, int]]]:
    return (COMMITTED, ops)


def aborted(ops: list[tuple[str, str, int]]) -> tuple[str, list[tuple[str, str, int]]]:
    return (ABORTED, ops)


@pytest.fixture
def long_fork() -> History:
    """The canonical six-transaction long-fork history.

    T0 writes x and y; T1 and T2 concurrently overwrite x and y; T3 sees
    T1's x but T0's y while T4 sees T2's y but T0's x; T5 follows T0 in the
    same session and overwrites x.
    """
    return mk_history(
        [
            [committed([("w", "x", 1), ("w", "y", 2)]), committed([("w", "x", 5)])],
            [committed([("w", "x", 3)])],
            [committed([("w", "y", 4)])],
            [committed([("r", "x", 3), ("r", "y", 2)])],
            [committed([("r", "y", 4), ("r", "x", 1)])],
        ]
    )


def immediate_violation_history() -> History:
    """Both branches of one constraint are dead before any search.

    T1 reads y from its session successor T2, and both write x.
    """
    return mk_history(
        [[committed([("w", "x", 1), ("r", "y", 7)]), committed([("w", "x", 2), ("w", "y", 7)])]]
    )


def injected_histories():
    """Small uniform mock-store histories, each with one injected anomaly."""
    for seed in range(6):
        params = WorkloadParams(sessions=6, txns_per_session=12, ops_per_txn=4,
                                keys=6, dist="uniform", seed=seed)
        for kind in ("long-fork", "lost-update", "causality-violation"):
            yield inject(generate(params), kind, seed)


def _workloads() -> dict:
    """The benchmark workloads (`perfbench/workloads.py`), by name."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.append(root)
    from perfbench.workloads import WORKLOADS

    return WORKLOADS


def workload_history(name: str, seed: int) -> History:
    """The history of the named benchmark workload generated from `seed`."""
    return parse_history(_workloads()[name].case(seed).data)


def workload_seed_1_histories(*names: str) -> dict[str, History]:
    """The first history of run seed 1 of each benchmark workload
    (`perfbench/workloads.py`) named, of every one when none is, by name."""
    return {name: workload_history(name, 1) for name in _workloads() if name in names or not names}


def rmw_run_history(length: int) -> History:
    """One key x and one RMW run of `length` writers, writer i reading the
    value of writer i - 1; each writer's value also has a reader that writes
    nothing. Every transaction is alone in its session."""
    txns = [((0, 0), (Operation("w", "x", 1),))]
    for i in range(1, length):
        txns.append(((i, 0), (Operation("r", "x", i), Operation("w", "x", i + 1))))
    txns += [((length + i, 0), (Operation("r", "x", i + 1),)) for i in range(length)]
    return History.build([(tid[0], [Transaction(tid, COMMITTED, ops)]) for tid, ops in txns])


# Transaction ids of the long-fork fixture, paper-style names.
T0, T5 = (0, 0), (0, 1)
T1, T2, T3, T4 = (1, 0), (2, 0), (3, 0), (4, 0)


@pytest.fixture
def lost_update() -> History:
    """Three sessions: one write, two concurrent read-modify-writes of it."""
    return mk_history(
        [
            [committed([("w", "k", 1)])],
            [committed([("r", "k", 1), ("w", "k", 2)])],
            [committed([("r", "k", 1), ("w", "k", 3)])],
        ]
    )


@pytest.fixture
def causality_violation() -> History:
    """T1 then T2 in one session; T3 sees T2's write but not T1's."""
    return mk_history(
        [
            [committed([("w", "x", 1)]), committed([("w", "y", 2)])],
            [committed([("r", "y", 2), ("r", "x", 0)])],
        ]
    )


def index_labels(index) -> dict:
    """The edge `EdgeUniverse.known_dep` labels every A and every B pair of
    an index by, None where it finds none, keyed (i, j, is RW), but for the
    initial writer's pairs, which witnesses never name."""
    universe, vertices = EdgeUniverse(index.graph), index.vertices
    init = index.vindex.get(INIT_TXN)
    labels = {}
    for rw, rows in ((False, index.a_adj), (True, index.b_adj)):
        for i, row in enumerate(rows):
            if i != init:
                for j in iter_bits(row):
                    dep = universe.known_dep(vertices[i], vertices[j], rw)
                    labels[i, j, rw] = dep and dep[0]
    return labels


def with_closure(index):
    """A final index of prune with its closure, for comparison with a fresh
    `with_reach()` index: prune computes the closure only while some writer
    pair is open, so an index of a graph with none gets it here."""
    if index.reach is None:
        assert not index.graph.constraints
        index.with_reach()
    return index


def prune_first_pass(graph):
    """Prune's first pass alone, against a fresh index with its closure:
    resolves in `graph` each open pair one of whose branches is impossible,
    and returns the first pair with both impossible, or None."""
    return _resolve_pass(KnownIndex(graph).with_reach(), None, None, [])


def patch_branch_edges(monkeypatch, replacement) -> None:
    """Put `replacement` in place of `polygraph.branch_edges` in every
    sicheck module that holds a reference to it; `replacement` is given
    the original as its first argument, then (graph, key, src, dst)."""
    from sicheck import polygraph

    original = polygraph.branch_edges
    for name, module in list(sys.modules.items()):
        if name.startswith("sicheck") and getattr(module, "branch_edges", None) is original:
            monkeypatch.setattr(module, "branch_edges",
                                lambda *args: replacement(original, *args))
