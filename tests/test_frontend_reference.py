"""The front end against its per-op, many-walk reference (`reference_frontend.py`).

Parse must return the same `History`, or raise the same exception class with
the same message; the gate must give the same three report lists, entry for
entry, or the same `DanglingReadError`; construction must give the same
`Polygraph`, field for field and in the same order, once the reference's
listed initial-writer edges are taken out, and its listed edges merged with
the derived ones in creation order must be the reference's known edges.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_frontend as ref
from sicheck.errors import SicheckError
from harness import random_small_history
from sicheck.histories import (
    INT64_MAX,
    INT64_MIN,
    History,
    Operation,
    Transaction,
    completeness_gate,
    parse_history,
    serialize_history,
)
from sicheck.encoding import creation_order
from sicheck.polygraph import Polygraph, build_polygraph, rmw_runs

from conftest import committed, injected_histories, mk_history


def outcome(fn, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except SicheckError as exc:
        return type(exc), str(exc)


# ----- parse -----------------------------------------------------------------

VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 2**70]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="0w", max_size=2),
    st.none(),
)
KINDS = st.sampled_from(["r", "w", "W", "", 0, None])
KEYS = st.one_of(st.sampled_from(["x", "y"]), st.integers(0, 1), st.none())


@st.composite
def raw_ops(draw):
    """An op object, well formed or not: any field may be off, missing or extra."""
    op = {"t": draw(st.sampled_from(["r", "w"])), "k": draw(st.sampled_from(["x", "y"])),
          "v": draw(st.integers(0, 12))}
    field = draw(st.sampled_from(["t", "k", "v", "v", None, None, None, None, None, None]))
    if field is not None:
        op[field] = draw({"t": KINDS, "k": KEYS, "v": VALUES}[field])
    shape = draw(st.integers(0, 19))
    if shape == 0:
        del op[draw(st.sampled_from(sorted(op)))]
    elif shape == 1:
        op[draw(st.sampled_from(["x", "t2", "ops"]))] = 1
    elif shape == 2:
        return draw(st.one_of(st.integers(), st.lists(st.integers(), max_size=3), st.text(),
                              st.none()))
    return op


@st.composite
def documents(draw):
    sessions = []
    for sid in range(draw(st.integers(1, 3))):
        txns = [{"index": index, "status": draw(st.sampled_from(["committed", "aborted"])),
                 "ops": draw(st.lists(raw_ops(), min_size=1, max_size=4))}
                for index in range(draw(st.integers(0, 3)))]
        sessions.append({"id": sid, "transactions": txns})
    return json.dumps({"sessions": sessions})


class TestParseFastPath:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(documents())
    def test_drawn_documents(self, data):
        assert outcome(parse_history, data) == outcome(ref.parse_history, data)

    @pytest.mark.parametrize("raw", [
        {"t": "w", "k": "x", "v": True},
        {"t": "r", "k": "x", "v": False},
        {"t": "w", "k": "x", "v": 1.0},
        {"t": "r", "k": "x", "v": 0.0},
        {"t": "w", "k": "x", "v": "1"},
        {"t": "w", "k": "x", "v": INT64_MAX},
        {"t": "w", "k": "x", "v": INT64_MIN},
        {"t": "w", "k": "x", "v": INT64_MAX + 1},
        {"t": "r", "k": "x", "v": INT64_MIN - 1},
        {"t": "w", "k": "x", "v": 0},
        {"t": "r", "k": "x", "v": 0},
        {"t": "u", "k": "x", "v": 1},
        {"t": "w", "k": 1, "v": 1},
        {"t": "w", "k": "x", "v": 1, "extra": 1},
        {"t": "w", "k": "x"},
        {"k": "x", "v": 1},
        # Three fields, one misnamed: the fast path's read by name fails.
        {"t": "w", "k": "x", "val": 1},
        {"type": "w", "k": "x", "v": 1},
        {"t": "r", "key": "x", "v": 0},
        {},
        [["t", "w"], ["k", "x"], ["v", 1]],
        "w x 1",
        None,
    ])
    def test_each_kind_of_op(self, raw):
        data = json.dumps({"sessions": [{"id": 0, "transactions": [
            {"index": 0, "status": "committed", "ops": [{"t": "r", "k": "y", "v": 0}, raw]},
        ]}]})
        assert outcome(parse_history, data) == outcome(ref.parse_history, data)

    @pytest.mark.parametrize("txns", [
        # A duplicate write inside one transaction, then across transactions.
        [[("w", "x", 1), ("w", "x", 1)]],
        [[("w", "x", 1)], [("r", "x", 1), ("w", "x", 1)]],
        # Two duplicates in one transaction: the first is reported.
        [[("w", "x", 1), ("w", "y", 2)], [("w", "y", 2), ("w", "x", 1)]],
        # The same value on two keys is no duplicate.
        [[("w", "x", 1)], [("w", "y", 1)]],
        # A malformed op after a duplicate: the format error comes first.
        [[("w", "x", 1)], [("w", "x", 1), ("w", "x", 0)]],
        [[("w", "x", 1), ("w", "x", 1), ("t", "x", 2)]],
    ])
    def test_duplicate_writes(self, txns):
        data = json.dumps({"sessions": [{"id": 0, "transactions": [
            {"index": i, "status": "committed",
             "ops": [{"t": t, "k": k, "v": v} for t, k, v in ops]}
            for i, ops in enumerate(txns)
        ]}]})
        assert outcome(parse_history, data) == outcome(ref.parse_history, data)

    @pytest.mark.parametrize("txns", [
        # A duplicate in an aborted transaction, of a committed write and of its own.
        [("committed", [("w", "x", 1)]), ("aborted", [("w", "x", 1)])],
        [("aborted", [("w", "x", 1), ("r", "y", 0), ("w", "x", 1)])],
        # A duplicate, then a valid op, then a malformed one: the format error wins.
        [("committed", [("w", "x", 1)]),
         ("committed", [("w", "x", 1), ("w", "y", 2), ("w", "x", 0)])],
        [("committed", [("w", "x", 1)]),
         ("aborted", [("w", "x", 1), ("r", "x", 1), {"t": "w", "k": "x", "val": 3}])],
    ])
    def test_duplicate_writes_by_status(self, txns):
        data = json.dumps({"sessions": [{"id": 0, "transactions": [
            {"index": i, "status": status,
             "ops": [op if isinstance(op, dict) else dict(zip("tkv", op)) for op in ops]}
            for i, (status, ops) in enumerate(txns)
        ]}]})
        got = outcome(parse_history, data)
        assert isinstance(got, tuple) and got == outcome(ref.parse_history, data)

    def test_serialized_random_histories(self):
        for seed in range(300):
            data = serialize_history(random_small_history(seed))
            assert outcome(parse_history, data) == outcome(ref.parse_history, data)

    def test_fields_read_by_name(self):
        history = parse_history(json.dumps({"sessions": [{"id": 0, "transactions": [
            {"index": 0, "status": "committed", "ops": [{"v": 5, "k": "x", "t": "w"}]},
        ]}]}))
        op = history.sessions[0][0].ops[0]
        assert (op.kind, op.key, op.value) == ("w", "x", 5)
        assert op == Operation("w", "x", 5)


# ----- gate and construction -------------------------------------------------

def with_dangling_read(history: History, rng: random.Random) -> History:
    """The history with one committed read's value replaced by one no one wrote."""
    reads = [(si, ti, oi) for si, session in enumerate(history.sessions)
             for ti, txn in enumerate(session) if txn.committed
             for oi, op in enumerate(txn.ops) if op.kind == "r"]
    if not reads:
        return history
    si, ti, oi = rng.choice(reads)
    txn = history.sessions[si][ti]
    ops = list(txn.ops)
    ops[oi] = Operation("r", ops[oi].key, 10**9 + rng.randrange(1000))
    session = list(history.sessions[si])
    session[ti] = Transaction(txn.id, txn.status, tuple(ops))
    sessions = list(history.sessions)
    sessions[si] = tuple(session)
    return History(tuple(sessions), history.session_ids)


def gate_fields(history: History, gate) -> object:
    report = outcome(gate, history)
    if isinstance(report, tuple):
        return report
    return report.int_violations, report.aborted_reads, report.intermediate_reads


def graph_fields(graph: Polygraph | tuple) -> object:
    if isinstance(graph, tuple):
        return graph
    return (graph.vertices, graph.known_edges, list(graph.constraints.items()),
            graph.readers, graph.read_from, list(graph.writers.items()), graph.rmw_keys,
            graph.runs, graph)


def assert_front_end_matches(history: History) -> tuple:
    gate = gate_fields(history, completeness_gate)
    assert gate == gate_fields(history, ref.completeness_gate)
    graph, expected = outcome(build_polygraph, history), outcome(ref.build_polygraph, history)
    if isinstance(expected, Polygraph):
        assert graph_fields(graph) == graph_fields(ref.split_unlisted_edges(expected)[0])
        assert list(creation_order(graph)) == expected.known_edges
    else:
        assert graph_fields(graph) == graph_fields(expected)
    return gate


class TestGateAndConstruction:
    def test_random_histories(self):
        kinds = {"passed": 0, "failed": 0, "dangling": 0}
        rng = random.Random(0)
        for seed in range(3000):
            history = random_small_history(seed)
            variants = [history, with_dangling_read(history, rng)] if seed % 10 == 0 else [history]
            for history in variants:
                gate = assert_front_end_matches(history)
                if isinstance(gate[0], type):
                    kinds["dangling"] += 1
                else:
                    kinds["failed" if any(gate) else "passed"] += 1
        assert min(kinds.values()) > 200, kinds

    def test_injected_histories(self, long_fork, lost_update, causality_violation):
        histories = [long_fork, lost_update, causality_violation, *injected_histories()]
        for history in histories:
            assert_front_end_matches(history)
        for seed, history in enumerate(histories):
            assert_front_end_matches(with_dangling_read(history, random.Random(seed)))

    def test_run_of_three_among_outside_writers(self):
        """One key x: the run C, A, B (A reads C's x, B reads A's), which is
        not in id order, and the writers D, blind, and E, which reads the
        initial x; F reads A's x and writes nothing. Construct drops the
        run's three pairs and keeps the other seven open, in id order."""
        A, D, B, E, C, F = (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)
        history = mk_history([
            [committed([("r", "x", 1), ("w", "x", 2)])],  # A
            [committed([("w", "x", 4)])],  # D
            [committed([("r", "x", 2), ("w", "x", 3)])],  # B
            [committed([("r", "x", 0), ("w", "x", 5)])],  # E
            [committed([("w", "x", 1)])],  # C
            [committed([("r", "x", 2)])],  # F
        ])
        assert_front_end_matches(history)
        graph = build_polygraph(history)
        assert rmw_runs(graph, "x") == [(C, A, B)] and graph.readers["x", A] == (B, F)
        assert list(graph.constraints) == [
            ("x", A, D), ("x", A, E), ("x", D, B), ("x", D, E), ("x", D, C), ("x", B, E),
            ("x", E, C)]
