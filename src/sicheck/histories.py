"""History data model, canonical JSON (de)serialization, and completeness checks.

A history is a list of sessions, each an ordered list of transactions over
string keys and int64 values. Value 0 is reserved: every key conceptually
starts at 0, written by a virtual initial transaction that precedes all real
writers of every key. Writes of 0 are therefore rejected, and for each key no
two writes anywhere in the history may carry the same value (the unique-value
assumption that makes writer-reader edges inferable from reads).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

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


@dataclass(frozen=True, slots=True)
class Operation:
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
    except json.JSONDecodeError as exc:
        raise FormatError(f"history is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    _require_keys(doc, {"sessions"}, "top level")
    if not isinstance(doc["sessions"], list):
        raise FormatError("sessions must be an array")

    sessions: list[tuple[Transaction, ...]] = []
    session_ids: list[int] = []
    seen_session_ids: set[int] = set()
    seen_writes: dict[str, dict[int, TxnId]] = {}

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
            ops = tuple([_parse_op(op, sid, ti, oi) for oi, op in enumerate(raw_ops)])
            for op in ops:
                if op.kind != "w":
                    continue
                writers = seen_writes.setdefault(op.key, {})
                if op.value in writers:
                    raise UniqueValueError(
                        f"writes in {txn_label(writers[op.value])} and {txn_label(tid)} "
                        f"both assign {op.value} to key {op.key!r}"
                    )
                writers[op.value] = tid
            txns.append(Transaction(tid, status, ops))
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


def check_internal_consistency(history: History) -> CompletenessReport:
    """Flag reads that disagree with the latest preceding access of the same key.

    Within a committed transaction, a read must return the value of the most
    recent earlier write to or read from that key, if any.
    """
    report = CompletenessReport()
    for txn in history.committed():
        last_seen: dict[str, int] = {}
        for oi, op in enumerate(txn.ops):
            if op.kind == "r":
                if op.key in last_seen and last_seen[op.key] != op.value:
                    report.int_violations.append((txn.id, oi, None))
            last_seen[op.key] = op.value
    return report


def _write_index(history: History) -> dict[tuple[str, int], tuple[TxnId, bool, bool]]:
    """Map (key, value) -> (writer id, writer committed, value is writer's final write)."""
    index: dict[tuple[str, int], tuple[TxnId, bool, bool]] = {}
    for txn in history.transactions():
        last_value: dict[str, int] = {}
        for op in txn.ops:
            if op.kind == "w":
                last_value[op.key] = op.value
        for op in txn.ops:
            if op.kind == "w":
                final = last_value[op.key] == op.value
                index[(op.key, op.value)] = (txn.id, txn.committed, final)
    return index


def check_aborted_and_intermediate_reads(history: History) -> CompletenessReport:
    """Flag committed reads of aborted writes and of non-final (overwritten) writes.

    Raises DanglingReadError when a committed read returns a nonzero value
    that matches no write in the history.
    """
    report = CompletenessReport()
    index = _write_index(history)
    for txn in history.committed():
        for oi, op in enumerate(txn.ops):
            if op.kind != "r" or op.value == 0:
                continue
            entry = index.get((op.key, op.value))
            if entry is None:
                raise DanglingReadError(
                    f"{txn_label(txn.id)} reads {op.value} from key {op.key!r}, "
                    "which no transaction wrote"
                )
            writer, committed, final = entry
            if writer == txn.id:
                continue  # own write, internal consistency covers it
            if not committed:
                report.aborted_reads.append((txn.id, oi, writer))
            elif not final:
                report.intermediate_reads.append((txn.id, oi, writer))
    return report


def completeness_gate(history: History) -> CompletenessReport:
    """Run all non-cycle checks; the history may proceed to graph construction iff ok()."""
    report = check_internal_consistency(history)
    rest = check_aborted_and_intermediate_reads(history)
    report.aborted_reads = rest.aborted_reads
    report.intermediate_reads = rest.intermediate_reads
    return report
