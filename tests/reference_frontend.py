"""The front end as it stood before parse gained a fast path and before the
gate and construction shared one walk of each transaction's ops, kept as the
reference that `test_frontend_reference.py` compares the current code with.

Each op is validated on its own by `_parse_op`; the gate walks the history
once for the INT check and again for the aborted and intermediate reads,
over a write index of its own; construction derives each transaction's
effective reads and writes and a committed writer index once more.
Construction orders the writer pairs inside read-modify-write runs by a
rule written apart from `polygraph.rmw_runs` (`rmw_run_pairs`);
`rmw_runs=False` leaves them to constraints, the construction without runs
that `test_polygraph.py`'s differential test compares with.

Construction here records the initial writer's rows (`record_initial`)
from scans of its finished reader rows and effective writes, not in its
loops.

Construction here still lists the initial writer's edges among the known
edges, as it did before they were derived, and the edges of the writer
pairs it orders, as it did before construction recorded its RMW runs;
`split_unlisted_edges` takes them out, so the current construction can be
compared with this one and tests can take those edges from here rather
than from the code under test.
"""

from __future__ import annotations

import dataclasses
import json

from sicheck.errors import (
    DanglingReadError,
    FormatError,
    ReservedValueError,
    SicheckError,
    UniqueValueError,
)
from sicheck.histories import (
    ABORTED,
    COMMITTED,
    INIT_TXN,
    INT64_MAX,
    INT64_MIN,
    CompletenessReport,
    History,
    Operation,
    Transaction,
    TxnId,
    txn_label,
)
from sicheck.polygraph import (
    EITHER, OR, RW, SO, WR, WW, Edge, Polygraph, branch_edges, branch_ends, record_initial,
)

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


def create_known_graph(history: History) -> Polygraph:
    """Build vertices, session-order edges, and writer-to-reader edges.

    The history must have passed the completeness gate: every committed read
    of a nonzero value then maps to exactly one committed writer whose final
    write on that key produced the value.
    """
    graph = Polygraph()
    committed = sorted(t.id for t in history.committed())
    graph.vertices = (INIT_TXN, *committed)

    effective: dict[TxnId, tuple[dict[str, int], dict[str, int]]] = {}
    for txn in history.committed():
        effective[txn.id] = effective_reads_writes(txn)

    value_writer: dict[tuple[str, int], TxnId] = {}
    writers_by_key: dict[str, list[TxnId]] = {}
    for tid in committed:
        _, writes = effective[tid]
        for key, value in writes.items():
            value_writer[(key, value)] = tid
            writers_by_key.setdefault(key, []).append(tid)
    # Keys in sorted order, each list already sorted: appended in ascending id order.
    graph.writers = {k: tuple(writers_by_key[k]) for k in sorted(writers_by_key)}

    readers: dict[tuple[str, TxnId], list[TxnId]] = {}
    for session in history.sessions:
        prev: TxnId | None = None
        for txn in session:
            if not txn.committed:
                continue
            if prev is not None:
                graph.known_edges.append((prev, txn.id, SO, None))
            prev = txn.id

    for tid in committed:
        reads, _ = effective[tid]
        for key in sorted(reads):
            value = reads[key]
            if value == 0:
                writer = INIT_TXN
            else:
                writer = value_writer.get((key, value))
                if writer is None:
                    raise SicheckError(
                        f"{txn_label(tid)} reads unmatched value {value} on {key!r}; "
                        "run the completeness gate first"
                    )
            graph.known_edges.append((writer, tid, WR, key))
            readers.setdefault((key, writer), []).append(tid)
            graph.read_from[(key, tid)] = writer

    graph.readers = {k: tuple(v) for k, v in readers.items()}
    # The initial writer's rows, found by scanning what the loops built.
    initial_keys = [key for key in graph.writers if (key, INIT_TXN) in graph.readers]
    targets = [tid for tid in committed if effective[tid][1] or 0 in effective[tid][0].values()]
    return record_initial(graph, initial_keys, targets)


def rmw_run_pairs(graph: Polygraph, key: str) -> dict[tuple[TxnId, TxnId], TxnId]:
    """The writer pairs of `key` inside one read-modify-write run, each
    (lower id, higher id) mapped to the writer the run puts first.

    A writer's run predecessor is the writer it read the key from, when that
    is a real writer whose value no other writer of the key read. Walking
    predecessors back from a writer lists the writers before it in its run;
    a walk that comes back to its start is a cycle, and such writers are in
    no run.
    """
    writers = graph.writers[key]

    def predecessor(writer: TxnId) -> TxnId | None:
        source = graph.read_from.get((key, writer))
        if source is None or source == INIT_TXN:
            return None
        overwriting = [r for r in graph.readers[(key, source)] if r in writers]
        return source if overwriting == [writer] else None

    pairs: dict[tuple[TxnId, TxnId], TxnId] = {}
    for later in writers:
        earlier: list[TxnId] = []
        walk = predecessor(later)
        while walk is not None and walk != later and walk not in earlier:
            earlier.append(walk)
            walk = predecessor(walk)
        if walk is None:
            for writer in earlier:
                pairs[min(writer, later), max(writer, later)] = writer
    return pairs


def generate_constraints(history: History, graph: Polygraph, rmw_runs: bool = True) -> Polygraph:
    """Add one constraint per unordered pair of distinct writers of each key.

    Constraints involving the virtual initial writer are resolved on the spot:
    it precedes every real writer, so the corresponding write-order and
    read-overwrite edges go straight into the known graph. With `rmw_runs`,
    so are the pairs inside one read-modify-write run, in run order.
    """
    for key, writers in graph.writers.items():
        init_readers = graph.readers.get((key, INIT_TXN), ())
        for writer in writers:
            edge: Edge = (INIT_TXN, writer, WW, key)
            graph.known_edges.append(edge)
            for reader in init_readers:
                if reader != writer:
                    graph.known_edges.append((reader, writer, RW, key))
        forced = rmw_run_pairs(graph, key) if rmw_runs else {}
        for i, first in enumerate(writers):
            for second in writers[i + 1 :]:
                cid = (key, first, second)
                earlier = forced.get((first, second))
                if earlier is None:
                    graph.constraints[cid] = None
                else:
                    branch = EITHER if earlier == first else OR
                    graph.known_edges.extend(branch_edges(graph, *branch_ends(cid, branch)))
    return graph


def build_polygraph(history: History, rmw_runs: bool = True) -> Polygraph:
    return generate_constraints(history, create_known_graph(history), rmw_runs)


def split_unlisted_edges(graph: Polygraph) -> tuple[Polygraph, list[Edge], list[Edge]]:
    """A graph built here in the current layout, and the edges it dropped:
    the initial writer's, then the WW and RW edges of the pairs
    construction ordered, each list in the order the edges were listed.

    The layout lists only session-order and writer-to-reader edges, names
    in `rmw_keys` the keys some writer read from another real writer and
    records in `runs` the RMW runs of each key that has one, by head, each
    in run order: the writers of the pairs `rmw_run_pairs` orders that the
    graph left out of its constraints, each run led by the writer the most
    of them put first.
    """
    initial = [edge for edge in graph.known_edges if edge[0] == INIT_TXN]
    forced = [edge for edge in graph.known_edges if edge[0] != INIT_TXN and edge[2] in (WW, RW)]
    rest = [edge for edge in graph.known_edges if edge[2] in (SO, WR) and edge[0] != INIT_TXN]
    rmw_keys = {key for (key, reader), writer in graph.read_from.items()
                if writer != INIT_TXN and reader in graph.writers.get(key, ())}
    runs: dict[str, list[tuple[TxnId, ...]]] = {}
    for key in graph.writers:
        later: dict[TxnId, set[TxnId]] = {}  # run member -> the members after it
        for (low, high), earlier in rmw_run_pairs(graph, key).items():
            if (key, low, high) not in graph.constraints:
                later.setdefault(earlier, set()).add(high if earlier == low else low)
                later.setdefault(high if earlier == low else low, set())
        heads = [w for w in later if not any(w in after for after in later.values())]
        if heads:
            runs[key] = sorted(tuple(sorted((head, *later[head]), key=lambda w: -len(later[w])))
                               for head in heads)
    current = dataclasses.replace(graph, known_edges=rest, rmw_keys=rmw_keys, runs=runs)
    return current, initial, forced


def known_edges(history: History) -> list[Edge]:
    """The known edges construction lists here, but the initial writer's:
    the listed ones of the current layout, then the ordered pairs'."""
    current, _, forced = split_unlisted_edges(build_polygraph(history))
    return current.known_edges + forced
