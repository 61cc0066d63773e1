import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sicheck.errors import (
    DanglingReadError,
    FormatError,
    ReservedValueError,
    SicheckError,
    UniqueValueError,
)
from sicheck.histories import (
    History,
    completeness_gate,
    effective_reads_writes,
    parse_history,
    serialize_history,
    txn_label,
)
from sicheck.workload import WorkloadParams, generate

from conftest import aborted, committed, mk_history


def doc(sessions):
    return json.dumps({"sessions": sessions})


def session(sid, txns):
    return {"id": sid, "transactions": txns}


def txn(index, ops, status="committed"):
    return {"index": index, "status": status, "ops": ops}


def op(t, k, v):
    return {"t": t, "k": k, "v": v}


# Nesting deeper than the JSON decoder recurses.
DEEP = "[" * 200_000
# An integer of more digits than `int` converts by default.
LONG_INTEGER = '{"sessions": [' + "9" * 5_000 + "]}"


class TestParse:
    def test_long_fork_file(self):
        payload = doc(
            [
                session(0, [txn(0, [op("w", "x", 1), op("w", "y", 2)]), txn(1, [op("w", "x", 5)])]),
                session(1, [txn(0, [op("w", "x", 3)])]),
                session(2, [txn(0, [op("w", "y", 4)])]),
                session(3, [txn(0, [op("r", "x", 3), op("r", "y", 2)])]),
                session(4, [txn(0, [op("r", "y", 4), op("r", "x", 1)])]),
            ]
        )
        history = parse_history(payload)
        assert len(history.sessions) == 5
        assert history.txn_count() == 6
        assert all(t.committed for t in history.transactions())

    def test_empty_sessions(self):
        history = parse_history(doc([]))
        assert history.sessions == ()
        assert history.txn_count() == 0

    def test_duplicate_write_value_rejected(self):
        payload = doc(
            [
                session(0, [txn(0, [op("w", "x", 7)])]),
                session(1, [txn(0, [op("w", "x", 7)])]),
            ]
        )
        with pytest.raises(UniqueValueError):
            parse_history(payload)

    def test_duplicate_value_other_key_fine(self):
        payload = doc(
            [
                session(0, [txn(0, [op("w", "x", 7)])]),
                session(1, [txn(0, [op("w", "y", 7)])]),
            ]
        )
        assert parse_history(payload).txn_count() == 2

    def test_write_of_zero_rejected(self):
        with pytest.raises(ReservedValueError):
            parse_history(doc([session(0, [txn(0, [op("w", "x", 0)])])]))

    def test_unknown_fields_rejected(self):
        payload = json.dumps({"sessions": [], "extra": 1})
        with pytest.raises(FormatError):
            parse_history(payload)
        payload = doc([session(0, [{"index": 0, "status": "committed", "ops": [op("r", "x", 0)], "x": 1}])])
        with pytest.raises(FormatError):
            parse_history(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            json.dumps([1, 2]),
            doc([{"id": 0}]),
            doc([session(0, [txn(0, [])])]),
            doc([session(0, [txn(0, [op("q", "x", 1)])])]),
            doc([session(0, [txn(0, [op("r", 5, 1)])])]),
            doc([session(0, [txn(0, [op("r", "x", 2**63)])])]),
            doc([session(0, [txn(0, [op("r", "x", 1)], status="maybe")])]),
            doc([session(0, []), session(0, [])]),
            doc([session(0, [txn(1, [op("r", "x", 0)]), txn(0, [op("r", "x", 0)])])]),
            doc([session(-1, [txn(0, [op("r", "x", 0)])])]),
            doc([session(0, [txn(-1, [op("r", "x", 0)])])]),
            pytest.param(LONG_INTEGER, id="long-integer"),
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(FormatError):
            parse_history(payload)

    @pytest.mark.parametrize(
        "payload, error, message",
        [
            (b"\xff", FormatError,
             "history is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
             " in position 0: invalid start byte"),
            ("[", FormatError,
             "history is not valid JSON: Expecting value: line 1 column 2 (char 1)"),
            pytest.param(DEEP, FormatError, "history is nested too deeply", id="deep"),
            (json.dumps([1]), FormatError, "top level must be an object"),
            (json.dumps({"sessions": [], "x": 1}), FormatError,
             "unknown fields ['x'] in top level"),
            (json.dumps({}), FormatError, "missing fields ['sessions'] in top level"),
            (json.dumps({"sessions": 1}), FormatError, "sessions must be an array"),
            (doc([1]), FormatError, "session #0 must be an object"),
            (doc([{"id": 0}]), FormatError, "missing fields ['transactions'] in session #0"),
            (doc([session(True, [])]), FormatError, "session #0 id must be an integer"),
            (doc([session(-1, [])]), FormatError, "session #0 id must be non-negative"),
            (doc([session(4, []), session(4, [])]), FormatError, "duplicate session id 4"),
            (doc([session(4, {})]), FormatError, "session 4 transactions must be an array"),
            (doc([session(3, [txn(0, [op("r", "x", 0)]), 5])]), FormatError,
             "session 3 transaction #1 must be an object"),
            (doc([session(3, [{"index": 0, "ops": [], "y": 1}])]), FormatError,
             "unknown fields ['y'] in session 3 transaction #0"),
            (doc([session(3, [{"index": 0, "ops": []}])]), FormatError,
             "missing fields ['status'] in session 3 transaction #0"),
            (doc([session(3, [txn("0", [op("r", "x", 0)])])]), FormatError,
             "session 3 transaction #0 index must be an integer"),
            (doc([session(3, [txn(-2, [op("r", "x", 0)])])]), FormatError,
             "session 3 transaction #0 index must be non-negative"),
            (doc([session(3, [txn(2, [op("r", "x", 0)]), txn(2, [op("r", "x", 0)])])]),
             FormatError, "session 3 transaction #1 index must increase within the session"),
            (doc([session(3, [txn(0, [op("r", "x", 0)], status="maybe")])]), FormatError,
             "session 3 transaction #0 status must be committed or aborted"),
            (doc([session(3, [txn(0, [])])]), FormatError,
             "session 3 transaction #0 ops must be a non-empty array"),
            (doc([session(3, [txn(0, [op("r", "x", 0)]), txn(1, [op("r", "x", 0), 7])])]),
             FormatError, "operation must be an object in session 3 transaction #1 op #1"),
            (doc([session(3, [txn(0, [op("r", "x", 0)]), txn(1, [op("r", "x", 0), {"t": "r"}])])]),
             FormatError, "missing fields ['k', 'v'] in session 3 transaction #1 op #1"),
            (doc([session(3, [txn(0, [op("r", "x", 0), {"t": "r", "k": "x", "v": 0, "z": 1}])])]),
             FormatError, "unknown fields ['z'] in session 3 transaction #0 op #1"),
            (doc([session(3, [txn(0, [op("r", "x", 0)]), txn(2, [op("r", "x", 0), op("q", "x", 1)])])]),
             FormatError, "operation type must be 'r' or 'w' in session 3 transaction #1 op #1"),
            (doc([session(3, [txn(0, [op("r", 5, 1)])])]), FormatError,
             "key must be a string in session 3 transaction #0 op #0"),
            (doc([session(3, [txn(0, [op("r", "x", True)])])]), FormatError,
             "value must be an integer in session 3 transaction #0 op #0"),
            (doc([session(3, [txn(0, [op("r", "x", -(2**63) - 1)])])]), FormatError,
             "value out of int64 range in session 3 transaction #0 op #0"),
            (doc([session(3, [txn(0, [op("r", "x", 0)]), txn(1, [op("r", "x", 0), op("w", "x", 0)])])]),
             ReservedValueError,
             "write of reserved value 0 in session 3 transaction #1 op #1"),
            (doc([session(3, [txn(0, [op("w", "x", 7)])]), session(5, [txn(4, [op("w", "x", 7)])])]),
             UniqueValueError, "writes in T(3,0) and T(5,4) both assign 7 to key 'x'"),
        ],
    )
    def test_error_messages(self, payload, error, message):
        """Every rejection names what is wrong and where, down to the op."""
        with pytest.raises(error) as caught:
            parse_history(payload)
        assert str(caught.value) == message

    def test_round_trip_identity(self, long_fork):
        data = serialize_history(long_fork)
        again = parse_history(data)
        assert again == long_fork
        assert serialize_history(again) == data

    def test_round_trip_with_empty_session_and_aborts(self):
        history = mk_history(
            [
                [committed([("w", "x", 1)]), aborted([("w", "x", 2)])],
                [],
            ]
        )
        assert parse_history(serialize_history(history)) == history

    def test_txn_label(self):
        assert txn_label((1, 4)) == "T(1,4)"
        assert txn_label((-1, -1)) == "init"


_FIELDS = ("sessions", "id", "transactions", "index", "status", "ops", "t", "k", "v")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["r", "w", "committed", "aborted"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=20,
)
_VALID = json.loads(serialize_history(generate(WorkloadParams(
    sessions=2, txns_per_session=2, ops_per_txn=2, keys=3, seed=1))))


def _paths(node, path=()):
    """The path of every entry of every object and array in a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for at, child in items:
        yield path + (at,)
        yield from _paths(child, path + (at,))


@st.composite
def _one_field_replaced(draw):
    """The valid history `_VALID` with the value at one path replaced."""
    doc = copy.deepcopy(_VALID)
    *parents, last = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for at in parents:
        node = node[at]
    node[last] = draw(_json_values)
    return json.dumps(doc)


def _parses_or_rejects(payload):
    try:
        assert isinstance(parse_history(payload), History)
    except SicheckError:
        pass


class TestParseFuzz:
    """Any input gives a `History` or a `SicheckError`, never another exception."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.binary(max_size=64))
    @example(DEEP.encode())
    @example(LONG_INTEGER.encode())
    def test_arbitrary_bytes(self, payload):
        _parses_or_rejects(payload)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_json_values.map(json.dumps))
    def test_json_over_the_field_names(self, payload):
        _parses_or_rejects(payload)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_one_field_replaced())
    def test_valid_history_with_one_field_replaced(self, payload):
        _parses_or_rejects(payload)


class TestInternalConsistency:
    def test_read_own_write_ok(self):
        history = mk_history([[committed([("w", "x", 1), ("r", "x", 1)])]])
        assert completeness_gate(history).int_violations == []

    def test_two_reads_disagree(self):
        history = mk_history([[committed([("r", "x", 1), ("r", "x", 2)])], [committed([("w", "x", 1), ("w", "x", 2)])]])
        report = completeness_gate(history)
        assert report.int_violations == [((0, 0), 1, None)]

    def test_read_after_two_writes(self):
        history = mk_history([[committed([("w", "x", 1), ("w", "x", 2), ("r", "x", 1)])]])
        report = completeness_gate(history)
        assert report.int_violations == [((0, 0), 2, None)]

    def test_aborted_transactions_not_gated(self):
        history = mk_history([[aborted([("r", "x", 1), ("r", "x", 2)])], [committed([("w", "x", 1), ("w", "x", 2)])]])
        assert completeness_gate(history).int_violations == []


class TestAbortedAndIntermediateReads:
    def test_aborted_read(self):
        history = mk_history(
            [[aborted([("w", "x", 9)])], [committed([("r", "x", 9)])]]
        )
        report = completeness_gate(history)
        assert report.aborted_reads == [((1, 0), 0, (0, 0))]
        assert report.intermediate_reads == []

    def test_intermediate_read(self):
        history = mk_history(
            [[committed([("w", "x", 1), ("w", "x", 2)])], [committed([("r", "x", 1)])]]
        )
        report = completeness_gate(history)
        assert report.intermediate_reads == [((1, 0), 0, (0, 0))]
        assert report.aborted_reads == []

    def test_clean_history_empty_report(self, long_fork):
        report = completeness_gate(long_fork)
        assert report.ok()

    def test_dangling_read(self):
        history = mk_history([[committed([("r", "x", 42)])]])
        with pytest.raises(DanglingReadError):
            completeness_gate(history)

    def test_gate_matches_empty_lists(self, lost_update):
        # The gate passes exactly when all three lists are empty; a violating
        # but complete history still passes it.
        report = completeness_gate(lost_update)
        assert report.ok()
        assert report.classification() is None


class TestEffectiveReadsWrites:
    def test_read_then_overwrites(self):
        history = mk_history([[committed([("r", "x", 1), ("w", "x", 2), ("w", "x", 3)])], [committed([("w", "x", 1)])]])
        reads, writes = effective_reads_writes(history.sessions[0][0])
        assert reads == {"x": 1}
        assert writes == {"x": 3}

    def test_read_after_own_write_is_internal(self):
        history = mk_history([[committed([("w", "x", 2), ("r", "x", 2)])]])
        reads, writes = effective_reads_writes(history.sessions[0][0])
        assert reads == {}
        assert writes == {"x": 2}

    def test_initial_value_read(self):
        history = mk_history([[committed([("r", "y", 0)])]])
        reads, writes = effective_reads_writes(history.sessions[0][0])
        assert reads == {"y": 0}
        assert writes == {}
