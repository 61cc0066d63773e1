"""History data model, canonical JSON (de)serialization, and completeness checks.

A history is a list of sessions, each an ordered list of transactions over
string keys and int64 values. Value 0 is reserved: every key conceptually
starts at 0, written by a virtual initial transaction that precedes all real
writers of every key. Writes of 0 are therefore rejected, and for each key no
two writes anywhere in the history may carry the same value (the unique-value
assumption that makes writer-reader edges inferable from reads).

Parsing walks each transaction's ops in one loop. An op of three fields,
read by name, with valid values takes a fast path; any other goes through
the field-by-field checks, so a malformed op gets their error. The same loop
notes the first write whose (key, value) an earlier write has, and the
duplicate is reported only once every op of the transaction is well formed,
so a format error in the transaction comes first. `walk_ops` walks each
transaction's ops once, for the completeness gate and for graph
construction alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, NamedTuple

from .errors import (
    DanglingReadError,
    FormatError,
    ReservedValueError,
    UniqueValueError,
)
from .gcpause import collector_paused

# Transaction id: (session id, index within session).
TxnId = tuple[int, int]

# Virtual initial transaction: writes 0 to every key, first in every version
# order. Sorts before every real transaction id.
INIT_TXN: TxnId = (-1, -1)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

COMMITTED = "committed"
ABORTED = "aborted"


def txn_label(tid: TxnId) -> str:
    """Human-readable transaction name; the virtual writer renders as init."""
    if tid == INIT_TXN:
        return "init"
    return f"T({tid[0]},{tid[1]})"


class Operation(NamedTuple):
    kind: str  # "r" or "w"
    key: str
    value: int


@dataclass(frozen=True, slots=True)
class Transaction:
    id: TxnId
    status: str  # COMMITTED or ABORTED
    ops: tuple[Operation, ...]

    @property
    def committed(self) -> bool:
        return self.status == COMMITTED


@dataclass(frozen=True, slots=True)
class History:
    """Sessions of transactions; per-session order is the session order."""

    sessions: tuple[tuple[Transaction, ...], ...]
    session_ids: tuple[int, ...]

    @staticmethod
    def build(sessions: list[tuple[int, list[Transaction]]]) -> "History":
        return History(
            sessions=tuple(tuple(txns) for _, txns in sessions),
            session_ids=tuple(sid for sid, _ in sessions),
        )

    def transactions(self) -> Iterator[Transaction]:
        for session in self.sessions:
            yield from session

    def committed(self) -> Iterator[Transaction]:
        for txn in self.transactions():
            if txn.committed:
                yield txn

    def txn_count(self) -> int:
        return sum(len(s) for s in self.sessions)

    def op_count(self) -> int:
        return sum(len(t.ops) for t in self.transactions())


@dataclass(slots=True)
class CompletenessReport:
    """Non-cycle anomaly findings; each entry is (reader id, op index, writer id or None)."""

    int_violations: list[tuple[TxnId, int, TxnId | None]] = field(default_factory=list)
    aborted_reads: list[tuple[TxnId, int, TxnId | None]] = field(default_factory=list)
    intermediate_reads: list[tuple[TxnId, int, TxnId | None]] = field(default_factory=list)

    def ok(self) -> bool:
        return not (self.int_violations or self.aborted_reads or self.intermediate_reads)

    def classification(self) -> str | None:
        if self.aborted_reads:
            return "aborted-read"
        if self.intermediate_reads:
            return "intermediate-read"
        if self.int_violations:
            return "unclassified"
        return None


_TXN_FIELDS = frozenset({"index", "status", "ops"})
_OP_FIELDS = frozenset({"t", "k", "v"})


# Locations for error messages, formatted only when one is raised.
def _txn_at(sid: int, ti: int) -> str:
    return f"session {sid} transaction #{ti}"


def _op_at(sid: int, ti: int, oi: int) -> str:
    return f"{_txn_at(sid, ti)} op #{oi}"


def _require_keys(obj: dict, allowed: set[str] | frozenset[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"unknown fields {sorted(unknown)} in {where}")
    missing = allowed - set(obj)
    if missing:
        raise FormatError(f"missing fields {sorted(missing)} in {where}")


def _parse_op(raw: object, sid: int, ti: int, oi: int) -> Operation:
    if not isinstance(raw, dict):
        raise FormatError(f"operation must be an object in {_op_at(sid, ti, oi)}")
    if raw.keys() != _OP_FIELDS:
        _require_keys(raw, _OP_FIELDS, _op_at(sid, ti, oi))
    kind, key, value = raw["t"], raw["k"], raw["v"]
    if kind not in ("r", "w"):
        raise FormatError(f"operation type must be 'r' or 'w' in {_op_at(sid, ti, oi)}")
    if not isinstance(key, str):
        raise FormatError(f"key must be a string in {_op_at(sid, ti, oi)}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"value must be an integer in {_op_at(sid, ti, oi)}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise FormatError(f"value out of int64 range in {_op_at(sid, ti, oi)}")
    if kind == "w" and value == 0:
        raise ReservedValueError(f"write of reserved value 0 in {_op_at(sid, ti, oi)}")
    return Operation(kind, key, value)


@collector_paused
def parse_history(data: bytes | str) -> History:
    """Parse the canonical JSON history format.

    Rejects malformed records, duplicate write values per key, and writes of
    the reserved value 0. Unknown fields are rejected.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"history is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise FormatError(f"history is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("history is nested too deeply") from exc

    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    _require_keys(doc, {"sessions"}, "top level")
    if not isinstance(doc["sessions"], list):
        raise FormatError("sessions must be an array")

    sessions: list[tuple[Transaction, ...]] = []
    session_ids: list[int] = []
    seen_session_ids: set[int] = set()
    seen_writes: dict[tuple[str, int], TxnId] = {}

    for si, raw_session in enumerate(doc["sessions"]):
        if not isinstance(raw_session, dict):
            raise FormatError(f"session #{si} must be an object")
        _require_keys(raw_session, {"id", "transactions"}, f"session #{si}")
        sid = raw_session["id"]
        if not isinstance(sid, int) or isinstance(sid, bool):
            raise FormatError(f"session #{si} id must be an integer")
        if sid < 0:
            raise FormatError(f"session #{si} id must be non-negative")
        if sid in seen_session_ids:
            raise FormatError(f"duplicate session id {sid}")
        seen_session_ids.add(sid)
        session_ids.append(sid)
        if not isinstance(raw_session["transactions"], list):
            raise FormatError(f"session {sid} transactions must be an array")

        txns: list[Transaction] = []
        last_index: int | None = None
        for ti, raw_txn in enumerate(raw_session["transactions"]):
            if not isinstance(raw_txn, dict):
                raise FormatError(f"{_txn_at(sid, ti)} must be an object")
            if raw_txn.keys() != _TXN_FIELDS:
                _require_keys(raw_txn, _TXN_FIELDS, _txn_at(sid, ti))
            index = raw_txn["index"]
            if not isinstance(index, int) or isinstance(index, bool):
                raise FormatError(f"{_txn_at(sid, ti)} index must be an integer")
            if index < 0:
                raise FormatError(f"{_txn_at(sid, ti)} index must be non-negative")
            if last_index is not None and index <= last_index:
                raise FormatError(f"{_txn_at(sid, ti)} index must increase within the session")
            last_index = index
            status = raw_txn["status"]
            if status not in (COMMITTED, ABORTED):
                raise FormatError(f"{_txn_at(sid, ti)} status must be committed or aborted")
            raw_ops = raw_txn["ops"]
            if not isinstance(raw_ops, list) or not raw_ops:
                raise FormatError(f"{_txn_at(sid, ti)} ops must be a non-empty array")
            tid: TxnId = (sid, index)
            ops = []
            repeated = None  # the first written (key, value) some earlier write has
            for raw in raw_ops:
                # Fast path for a well-formed op: three fields, read by name.
                # Any other op goes through `_parse_op`, which raises the error
                # its checks find first; `len(ops)` is the op's index.
                kind = None
                if type(raw) is dict and len(raw) == 3:
                    try:
                        kind, key, value = raw["t"], raw["k"], raw["v"]
                    except KeyError:  # a misnamed field
                        pass
                if not ((kind == "r" or kind == "w" and value != 0) and type(key) is str
                        and type(value) is int and INT64_MIN <= value <= INT64_MAX):
                    kind, key, value = _parse_op(raw, sid, ti, len(ops))
                ops.append((kind, key, value))
                if kind == "w":
                    if (key, value) not in seen_writes:
                        seen_writes[key, value] = tid
                    elif repeated is None:
                        repeated = key, value
            # A duplicate write is reported only once every op is well formed.
            if repeated is not None:
                key, value = repeated
                raise UniqueValueError(
                    f"writes in {txn_label(seen_writes[repeated])} and {txn_label(tid)} "
                    f"both assign {value} to key {key!r}"
                )
            # `tuple.__new__` makes each an Operation without a Python frame.
            # The list gives `tuple` the length: a tuple grown from an
            # iterator is resized, so it cannot reuse a freed tuple's memory.
            operations = tuple(list(map(tuple.__new__, repeat(Operation), ops)))
            txns.append(Transaction(tid, status, operations))
        sessions.append(tuple(txns))

    return History(tuple(sessions), tuple(session_ids))


def serialize_history(history: History) -> bytes:
    """Canonical byte serialization; parse(serialize(h)) == h."""
    doc = {
        "sessions": [
            {
                "id": sid,
                "transactions": [
                    {
                        "index": txn.id[1],
                        "status": txn.status,
                        "ops": [{"t": op.kind, "k": op.key, "v": op.value} for op in txn.ops],
                    }
                    for txn in session
                ],
            }
            for sid, session in zip(history.session_ids, history.sessions)
        ]
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def effective_reads_writes(txn: Transaction) -> tuple[dict[str, int], dict[str, int]]:
    """External reads and writes of a transaction.

    Writes map each written key to the last value written. Reads map each key
    that is read before any own write to the value of the first such read;
    later reads of the same key are internal and governed by the INT check.
    """
    reads: dict[str, int] = {}
    writes: dict[str, int] = {}
    for op in txn.ops:
        if op.kind == "w":
            writes[op.key] = op.value
        elif op.key not in writes and op.key not in reads:
            reads[op.key] = op.value
    return reads, writes


class OpsWalk(NamedTuple):
    """What `walk_ops` finds: the INT violations; each committed transaction's
    effective reads and writes (as `effective_reads_writes` gives them), in
    history order; the writer of every written (key, value), committed or
    not; and the committed reads of nonzero values, as (reader, op index, key, value)."""

    int_violations: list[tuple[TxnId, int, TxnId | None]]
    effective: dict[TxnId, tuple[dict[str, int], dict[str, int]]]
    writer: dict[tuple[str, int], TxnId]
    reads: list[tuple[TxnId, int, str, int]]


def walk_ops(history: History) -> OpsWalk:
    """Walk each transaction's ops once. A committed read that disagrees with
    the latest preceding access of its key in the transaction is an INT violation."""
    walk = OpsWalk([], {}, {}, [])
    violations, effective, writer, reads = walk
    for txn in history.transactions():
        tid = txn.id
        if txn.status != COMMITTED:
            for kind, key, value in txn.ops:
                if kind == "w":
                    writer[key, value] = tid
            continue
        last: dict[str, int] = {}
        txn_reads: dict[str, int] = {}
        txn_writes: dict[str, int] = {}
        for oi, (kind, key, value) in enumerate(txn.ops):
            if kind == "w":
                writer[key, value] = tid
                txn_writes[key] = value
            else:
                if key not in last:
                    txn_reads[key] = value
                elif last[key] != value:
                    violations.append((tid, oi, None))
                if value:
                    reads.append((tid, oi, key, value))
            last[key] = value
        effective[tid] = (txn_reads, txn_writes)
    return walk


def completeness_gate(history: History, walk: OpsWalk | None = None) -> CompletenessReport:
    """Run all non-cycle checks; the history may proceed to graph construction iff ok().

    Besides the INT violations, flags committed reads of aborted and of
    overwritten writes; a nonzero read that no write matches raises
    DanglingReadError. `walk` is the history's `walk_ops`, if the caller has it.
    """
    walk = walk_ops(history) if walk is None else walk
    report = CompletenessReport(int_violations=walk.int_violations)
    for reader, oi, key, value in walk.reads:
        writer = walk.writer.get((key, value))
        if writer is None:
            raise DanglingReadError(
                f"{txn_label(reader)} reads {value} from key {key!r}, which no transaction wrote"
            )
        if writer == reader:
            continue  # own write, internal consistency covers it
        effective = walk.effective.get(writer)
        if effective is None:
            report.aborted_reads.append((reader, oi, writer))
        elif effective[1][key] != value:
            report.intermediate_reads.append((reader, oi, writer))
    return report
