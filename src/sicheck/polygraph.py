"""Dependency polygraph construction: known edges plus write-order constraints.

The known graph holds session-order and writer-to-reader edges between
committed transactions. Every unordered pair of writers of a key contributes
one constraint with two branches: the "either" branch orders the pair one
way and carries the read-overwrite edges that ordering forces, the "or"
branch is symmetric. Exactly one branch of each constraint must hold in any
explanation of the history. A constraint is held as its id alone, the key
and the two writers; its branches' edges follow from the reader rows
(`branch_edges`).

The virtual initial writer writes every key and precedes every real writer.
Its own edges, init -WR-> each reader of an initial value and init -WW->
each committed writer, follow from `read_from` and `writers` and are never
listed in `known_edges`: it has no incoming edge, so it lies on no cycle,
and only the encoding export derives them (`encoding.creation_order`).

The initial writer's pairs and those inside one read-modify-write run are
ordered at construction, not generated (see `generate_constraints`), and
their edges are not listed either: construct records each key's runs in
`runs`, and the read-overwrite edges the initial writer's pairs force, from
each reader of an initial value to each other writer of the key, follow
from `readers` and `writers`. `known_edges` holds only session-order and
writer-to-reader edges. The known-graph index folds the forced edges as
rows, the witness check reads them off the runs and reader rows, and
`forced_edges` lists them for the encoding export and the explainer.

Construct also records, in the loop over each transaction's reads, the
initial writer's rows that the index and the witness check read
(`record_initial`): `initial_readers`, the reader row of the initial
value of each key some committed transaction writes, and
`initial_targets`, every committed writer and every reader of an initial
value. A graph with the initial writer as a vertex but without them is
refused (`initial_records`), so no hand-built graph gets an empty row.

Prune does not list the edges of the branches it keeps either: it records
each writer pair it resolves, with its surviving branch, in `resolved`. The
known-graph index folds those branches from their writers and reader rows,
the witness check reads their edges off the same rows, and `resolved_edges`
derives them in resolution order for the encoding export, the one consumer
that needs a list.

Construction reads each transaction's effective reads and writes and the
(key, value) -> writer index from the history's `walk_ops`, which the
completeness gate reads too.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import combinations, repeat
from dataclasses import dataclass, field

from .errors import SicheckError
from .histories import INIT_TXN, History, OpsWalk, TxnId, txn_label, walk_ops

SO = "SO"
WR = "WR"
WW = "WW"
RW = "RW"

EITHER = "either"
OR = "or"

# (src, dst, label, key); key is None for SO edges.
Edge = tuple[TxnId, TxnId, str, str | None]

# A constraint is its id: (key, first writer, second writer), first < second.
# Its branches follow from the id and the reader rows (`branch_edges`).
ConstraintKey = tuple[str, TxnId, TxnId]


def branch_ends(cid: ConstraintKey, branch: str) -> tuple[str, TxnId, TxnId]:
    """(key, source writer, target writer) of a branch: the either branch
    orders the pair's first writer before its second."""
    key, first, second = cid
    return (key, first, second) if branch == EITHER else (key, second, first)


def branch_edges(graph: "Polygraph", key: str, src: TxnId, dst: TxnId) -> list[Edge]:
    """The edges of the branch ordering src before dst on key: src -WW-> dst,
    then r -RW-> dst for every reader r of src's value but dst."""
    out: list[Edge] = [(src, dst, WW, key)]
    out.extend([(r, dst, RW, key) for r in graph.readers.get((key, src), ()) if r != dst])
    return out


def owning_branch(graph: "Polygraph", edge: Edge) -> tuple[ConstraintKey, str] | None:
    """The constraint branch an edge belongs to, when it can belong to one.

    The branch ordering writer w before d holds w -WW-> d and r -RW-> d for
    every reader r of w's value; it is `either` when w sorts first. Edges of
    other labels, and those of the initial writer, belong to no branch.
    """
    src, dst, label, key = edge
    if label == WW:
        writer = src
    elif label == RW:
        writer = graph.read_from.get((key, src))
    else:
        return None
    if writer in (None, INIT_TXN):
        return None
    return ((key, writer, dst), EITHER) if writer < dst else ((key, dst, writer), OR)


@dataclass(slots=True)
class Polygraph:
    """Known labeled graph over committed transactions plus open constraints."""

    vertices: tuple[TxnId, ...] = ()
    known_edges: list[Edge] = field(default_factory=list)
    # The open writer pairs, an insertion-ordered set of ids (values None);
    # construct adds them in id order and prune only deletes, so they
    # iterate in sorted id order, which prune's branch pass relies on.
    constraints: dict[ConstraintKey, None] = field(default_factory=dict)
    # Committed effective readers of each writer's final value, per key, sorted;
    # only looked up, so its keys are in no particular order.
    readers: dict[tuple[str, TxnId], tuple[TxnId, ...]] = field(default_factory=dict)
    # Reverse of readers: (key, reader) -> writer whose value the reader saw.
    read_from: dict[tuple[str, TxnId], TxnId] = field(default_factory=dict)
    # Committed effective writers per key, sorted; the keys iterate in sorted
    # order, which constraint generation and the explainer's edge universe follow.
    writers: dict[str, tuple[TxnId, ...]] = field(default_factory=dict)
    # Keys some writer read from a real writer: the only keys `rmw_runs` can
    # find a run on.
    rmw_keys: set[str] = field(default_factory=set)
    # Per key with an RMW run, its runs (`rmw_runs`), each writer in run order.
    runs: dict[str, list[tuple[TxnId, ...]]] = field(default_factory=dict)
    # Writer pairs prune resolved, in resolution order, with their surviving branch.
    resolved: dict[ConstraintKey, str] = field(default_factory=dict)
    # The initial writer's rows (`record_initial`): per key some committed
    # transaction writes and someone read the initial value of, that reader
    # row; and every committed writer and reader of an initial value, in
    # vertex order. None until recorded.
    initial_readers: dict[str, tuple[TxnId, ...]] | None = None
    initial_targets: tuple[TxnId, ...] | None = None

    def clone(self) -> "Polygraph":
        """A copy whose edge list, open pairs and resolved pairs are its own.
        A check prunes its one graph in place; only the benchmark's traced
        run and tests still clone one."""
        return Polygraph(
            vertices=self.vertices,
            known_edges=list(self.known_edges),
            constraints=dict(self.constraints),
            readers=self.readers,
            read_from=self.read_from,
            writers=self.writers,
            rmw_keys=self.rmw_keys,
            runs=self.runs,
            resolved=dict(self.resolved),
            initial_readers=self.initial_readers,
            initial_targets=self.initial_targets,
        )


def create_known_graph(history: History, walk: OpsWalk | None = None) -> Polygraph:
    """Build vertices, session-order edges, and writer-to-reader edges, but
    for the initial writer's (see the module docstring).

    The history must have passed the completeness gate: every committed read
    of a nonzero value then maps to exactly one committed writer whose final
    write on that key produced the value. `walk` is as for the gate.
    """
    walk = walk_ops(history) if walk is None else walk
    effective = walk.effective
    graph = Polygraph()
    committed = sorted(effective)
    graph.vertices = (INIT_TXN, *committed)

    writers_by_key: dict[str, list[TxnId]] = {}
    for tid in committed:
        for key in effective[tid][1]:
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

    initial_keys: dict[str, None] = {}  # written keys read from the initial writer
    targets: list[TxnId] = []  # the initial writer's, in vertex order
    for tid in committed:
        reads, writes = effective[tid]
        target = bool(writes)
        for key in sorted(reads):
            value = reads[key]
            if value:
                writer = walk.writer.get((key, value))
                # Only a committed writer's final write on the key counts.
                if writer not in effective or effective[writer][1][key] != value:
                    raise SicheckError(
                        f"{txn_label(tid)} reads unmatched value {value} on {key!r}; "
                        "run the completeness gate first"
                    )
                graph.known_edges.append((writer, tid, WR, key))
                if key in writes:
                    graph.rmw_keys.add(key)
            else:
                writer, target = INIT_TXN, True
                if key in writers_by_key:
                    initial_keys[key] = None
            readers.setdefault((key, writer), []).append(tid)
            graph.read_from[(key, tid)] = writer
        if target:
            targets.append(tid)

    graph.readers = {k: tuple(v) for k, v in readers.items()}
    return record_initial(graph, initial_keys, targets)


def record_initial(graph: Polygraph, keys: Iterable[str], targets: Iterable[TxnId]) -> Polygraph:
    """Record the initial writer's rows on a graph whose `readers` are
    whole: the reader row of the initial value of each of `keys`, each a
    key some committed transaction writes, and `targets`, every committed
    writer and every reader of an initial value, in vertex order."""
    readers = graph.readers
    graph.initial_readers = {key: readers[(key, INIT_TXN)] for key in keys}
    graph.initial_targets = tuple(targets)
    return graph


def initial_records(graph: Polygraph) -> tuple[dict[str, tuple[TxnId, ...]], tuple[TxnId, ...]]:
    """The initial writer's rows construct recorded (`record_initial`), for
    a graph that has the initial writer as a vertex; raises if it has none."""
    if graph.initial_readers is None or graph.initial_targets is None:
        raise SicheckError("the polygraph has no record of the initial writer's rows; "
                           "build it with create_known_graph or record_initial")
    return graph.initial_readers, graph.initial_targets


def resolved_edges(graph: Polygraph) -> list[Edge]:
    """The edges of each resolved writer pair's surviving branch, which no
    list holds: pair by pair in resolution order, each as `branch_edges`
    gives them."""
    edges: list[Edge] = []
    for cid, branch in graph.resolved.items():
        edges += branch_edges(graph, *branch_ends(cid, branch))
    return edges


def forced_edges(graph: Polygraph, key: str) -> list[Edge]:
    """The edges of the writer pairs construct orders on `key`, which no
    list holds, in the order construct once listed them: r -RW-> w for each
    writer w and each reader r of the initial value but w, the initial
    writer's branches but their init -WW-> w; then the branch of each pair
    inside one RMW run that puts the earlier member first, pairs in id
    order, each as `branch_edges` gives it."""
    init_readers = graph.readers.get((key, INIT_TXN), ())
    edges = [(r, w, RW, key) for w in graph.writers[key] for r in init_readers if r != w]
    runs = graph.runs.get(key, ())
    position = {writer: at for run in runs for at, writer in enumerate(run)}
    for pair in sorted(pair for run in runs for pair in combinations(sorted(run), 2)):
        edges += branch_edges(graph, key, *sorted(pair, key=position.__getitem__))
    return edges


def rmw_runs(graph: Polygraph, key: str) -> list[tuple[TxnId, ...]]:
    """The RMW runs of two or more writers of `key`, by head, each in run order.

    Writer w is the RMW successor of writer s when w read the key from s and
    no other writer of the key did. A run is a maximal path of successors
    from a head, a writer that is no one's successor: a fork ends the run,
    and writers on a cycle of successors join none.
    """
    following: dict[TxnId, TxnId | None] = {}  # writer -> successor; None after a fork
    for writer in graph.writers[key]:
        source = graph.read_from.get((key, writer), INIT_TXN)
        if source != INIT_TXN:
            following[source] = None if source in following else writer
    successors = set(following.values())
    runs: list[tuple[TxnId, ...]] = []
    for head in sorted(s for s, w in following.items() if w is not None and s not in successors):
        run, writer = [head], following[head]
        while writer is not None:
            run.append(writer)
            writer = following.get(writer)
        runs.append(tuple(run))
    return runs


def generate_constraints(graph: Polygraph) -> Polygraph:
    """Add one constraint, its id, per unordered pair of distinct writers of
    each key, in id order, but for the pairs of the virtual initial writer,
    which precedes every real writer, and those inside one RMW run
    (`rmw_runs`), which come in run order: s precedes its successor w, else
    WR s->w and WW w->s close a cycle, and no x sits between them, as WW
    x->w and the RW w->x of s-before-x compose to a self-loop at x. Such a
    pair's branch is known but not listed: each key's runs go to
    `graph.runs`, and the initial writer's branches follow from the key's
    writers and readers (see the module docstring).

    A key's pair ids are built at C speed, all of them, and those inside its
    runs deleted after; a deletion keeps the order of the rest, so the open
    pairs stay in sorted id order, which prune's branch pass relies on.
    """
    constraints = graph.constraints
    for key, writers in graph.writers.items():
        if len(writers) < 2:  # no pair, and a run has two writers or more
            continue
        runs = rmw_runs(graph, key) if key in graph.rmw_keys else ()
        if runs:
            graph.runs[key] = runs
            if len(runs[0]) == len(writers):  # its one run orders every pair
                continue
        # Each pair's id, (key, first, second), built by tuple concatenation.
        with_key = (key,).__add__
        constraints.update(zip(map(with_key, combinations(writers, 2)), repeat(None)))
        for run in runs:  # a zero-length deque drains the map: each deletion at C speed
            deque(map(constraints.__delitem__, map(with_key, combinations(sorted(run), 2))), 0)
    return graph


def build_polygraph(history: History, walk: OpsWalk | None = None) -> Polygraph:
    return generate_constraints(create_known_graph(history, walk))


def constraint_count(graph: Polygraph) -> tuple[int, int]:
    """(number of constraints, total edges across all constraint branches).

    A branch holds its WW edge plus one RW edge per reader of its source
    writer, except the other writer when that is one of them. While most of
    the pairs construct generated are open they are counted per key, from
    the key's writers, their reader rows and its RMW runs, less the pairs
    prune resolved; once most are resolved, pair by pair.
    """
    if len(graph.constraints) <= len(graph.resolved):
        return len(graph.constraints), sum(_pair_edges(graph, *cid) for cid in graph.constraints)
    readers, read_from, rmw_keys = graph.readers, graph.read_from, graph.rmw_keys
    count = unknown = 0
    for key, writers in graph.writers.items():
        w = len(writers)
        if w < 2:
            continue
        # Each pair counts 2 plus the readers of both writers; a writer's
        # readers count once per other writer it is paired with.
        read = 0
        for writer in writers:
            row = readers.get((key, writer))
            if row:
                read += len(row)
        pairs, unknown_here = w * (w - 1) // 2, (w - 1) * read
        if key in rmw_keys:
            # Pairs inside one run are not generated: a run member is paired
            # with no other member of its run.
            head: dict[TxnId, TxnId] = {}
            for run in graph.runs.get(key, ()):
                size, read_in_run = len(run), 0
                for writer in run:
                    head[writer] = run[0]
                    read_in_run += len(readers.get((key, writer), ()))
                pairs -= size * (size - 1) // 2
                unknown_here -= (size - 1) * read_in_run
            # A writer that read the key from a writer outside its run is the
            # RW edge its pair's branch leaves out; a writer in no run heads its own.
            for writer in writers:
                source = read_from.get((key, writer), INIT_TXN)
                if source not in (INIT_TXN, writer) and (
                        head.get(source, source) != head.get(writer, writer)):
                    unknown_here -= 1
        count += pairs
        unknown += 2 * pairs + unknown_here
    resolved = graph.resolved
    return count - len(resolved), unknown - sum(_pair_edges(graph, *cid) for cid in resolved)


def _pair_edges(graph: Polygraph, key: str, first: TxnId, second: TxnId) -> int:
    """How many edges the two branches of one writer pair hold."""
    readers, read_from = graph.readers, graph.read_from
    return (2 + len(readers.get((key, first), ())) + len(readers.get((key, second), ()))
            - (read_from.get((key, second)) == first) - (read_from.get((key, first)) == second))
