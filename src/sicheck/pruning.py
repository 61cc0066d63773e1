"""Constraint pruning against the currently known part of the induced graph.

The pruner keeps one index of the known edges for the whole check: the
pair-level induced graph K = A ∪ (A ∘ B), where A holds session-order,
writer-reader, and forced and resolved write-order edges and B holds
forced and resolved read-overwrite edges, together with K's transitive
closure, which only the pruner computes. A constraint branch is impossible
when adding one of its edges would close a cycle in K; the constraint is
then resolved: prune records it with its surviving branch in
`graph.resolved` and lists none of its edges.
Branch tests within one iteration all read the iteration-start index, in
vertex-index space, key by key and, within a key, grouped by first writer
(`_resolve_pass`): a branch s -> d with reader row R is impossible when d
reaches s, or when d is or reaches an A-predecessor of a reader in R but
d. Each writer of the key has `reach` plus itself and the OR of its
readers' A-predecessor rows plus itself computed once, so a pair costs
two ANDs, unless one writer read the key from the other. Only a
constraint whose two branches are both impossible has its blocked edges
found one by one, for its witnesses.
The resolved pairs are recorded per source writer and key, with the targets
of their surviving branches, and folded into the index after the loop, one
A/K row update per source (`KnownIndex.add_branches`), to take effect in
the next iteration. That re-tests only constraints whose reachability or
predecessor rows changed, and the final index is handed on to the solver.

The closure is computed whole (`graphs.reach_masks`) once, before the
first iteration, and only when some writer pair is open: with none, as
when construct orders every pair in RMW runs, no branch test reads it,
and the final index keeps `reach` None. An update then walks K's chains,
the runs of vertices i, i+1, … that K links one to the next
(`graphs.extend_reach`); a session's committed transactions are
consecutive vertices linked by session order, so there are about as many
chains as sessions. The closure is rebuilt instead only when the batch's
source rows times the chains exceed twice the vertices.

The virtual initial writer has no incoming edge, so it lies on no cycle and
no `reach` row holds its bit. Its edges are derived, never listed (see
`polygraph`): the index gives its A and K rows the one row they would
build, every committed writer plus every reader of an initial value, and
it is no vertex's A-predecessor and on no witness. That row, and the
readers of each written key's initial value, are the ones construct
recorded (`polygraph.initial_records`); the index scans no reader row for
them. The edges of the writer pairs construct orders are not listed
either: the index derives their B rows from the initial readers and the
RMW runs, next to those of the listed RW edges, then their A and K rows
against those, in O(L) row updates for a run of L writers, and then the
listed A edges' rows (`KnownIndex.__init__`).

If both branches of some constraint are impossible the history is violating
and the outcome carries a witness cycle for each dead branch, split into
pairs by `witness.path_deps` as the solver's cycles are. The index keeps
rows and closure only: a pair is in its rows exactly when the explainer's
`EdgeUniverse` has a known edge on it, and the lowest one labels the pair.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import islice

from .errors import BudgetExceededError
from .explain import EdgeUniverse
from .graphs import bfs_path, chain_starts, extend_reach, iter_bits, reach_masks
from .histories import INIT_TXN, TxnId
from .polygraph import (
    EITHER, OR, RW, WW, ConstraintKey, Edge, Polygraph, branch_ends, initial_records,
)
from .witness import Origin, WitnessCycle, path_deps

# A closure rebuild costs a few steps per vertex; a walk, a binary search per
# (source row, chain) pair plus the rows it changes. On the benchmark's shapes
# the two cost the same near 3.5 such pairs per vertex. The bound sits below
# that as a margin: the rows a walk changes are not known before it runs, and
# a batch that changes many of them costs more per pair than those measured.
# Both values send the measured batches the same way: uniform-10k's 379-row
# batch (0.75 pairs per vertex) walks, hotspot-write's 210-row one (7.7) rebuilds.
_WALKS_PER_VERTEX = 2


def _walk_pays(sources: int, chains: int, n: int) -> bool:
    """Should a closure update walk the chains rather than rebuild the closure?"""
    return sources * chains <= _WALKS_PER_VERTEX * n


class KnownIndex:
    """Pair-level bitmask view of a polygraph's known edges.

    Built once from `graph.known_edges` and construct's forced branches (the
    initial writer's against each writer, from the rows construct recorded
    for it, and those inside each RMW run, see `polygraph`), B rows first,
    then A, A-predecessor and K rows against them, and then the branches of
    `graph.resolved`; only `add_branches` folds them, or later branch
    records, in place. After every fold the index equals a fresh build over
    the graph's known edges, forced and resolved branches, field by field.
    It holds rows, not edges: the explainer's `EdgeUniverse` labels a pair
    the rows hold.
    The closure `reach` is None until `with_reach` computes it, which prune
    does only while some writer pair is open; from then on a fold keeps it,
    and the chain starts `starts` with it, by walking the chains for a
    small batch and by a rebuild for a large one. `readers` holds the
    reader rows `reader_row` was asked for, of writers that have readers.
    """

    def __init__(self, graph: Polygraph):
        self.graph = graph
        self.vertices = graph.vertices
        self.vindex = vindex = {v: i for i, v in enumerate(self.vertices)}
        n = self.n = len(self.vertices)
        a_adj, b_adj, a_pred, k_adj = self.a_adj, self.b_adj, self.a_pred, self.k_adj = (
            [0] * n, [0] * n, [0] * n, [0] * n)
        self.reach: list[int] | None = None
        # First vertex of each chain of K (see `graphs.chain_starts`), kept with `reach`.
        self.starts: list[int] = []
        # Rows of graph.readers in vertex-index space, filled by `reader_row`.
        self.readers: dict[tuple[str, TxnId], tuple[int, ...]] = {}
        readers, writers = graph.readers, graph.writers
        # The initial writer's row (see the module docstring); each reader of
        # an initial value is overwritten by every other writer of the key.
        init = vindex.get(INIT_TXN)
        if init is not None:
            initial, targets = initial_records(graph)
            for key, row in initial.items():
                mask = 0
                for w in writers[key]:
                    mask |= 1 << vindex[w]
                for r in row:
                    i = vindex[r]
                    b_adj[i] |= mask & ~(1 << i)
            a_adj[init] = k_adj[init] = _row(map(vindex.__getitem__, targets))
        # A run member's readers are overwritten by each later member. One
        # walk from the run's end builds the run's mask: `later` holds the
        # members after the one at hand, and the walk keeps it per member.
        runs = []
        for key, keyed in graph.runs.items():
            for run in keyed:
                later, walked = 0, []
                for writer in reversed(run):
                    m = vindex[writer]
                    if later:
                        for r in readers.get((key, writer), ()):
                            i = vindex[r]
                            b_adj[i] |= later & ~(1 << i)
                    walked.append((m, later))
                    later |= 1 << m
                runs.append((walked, later))
        for src, dst, kind, _ in graph.known_edges:
            if kind == RW:
                b_adj[vindex[src]] |= 1 << vindex[dst]
        # The B rows are whole now. A run member's A row is the members after
        # it, its A-predecessor row the run's mask less those and itself, its
        # K row its A row and the B rows of the members after it; a listed A
        # pair's K row gains its target and the target's B row.
        for walked, mask in runs:
            composed = 0
            for m, later in walked:
                a_pred[m] |= mask ^ later ^ (1 << m)
                if later:
                    a_adj[m] |= later
                    k_adj[m] |= later | composed
                composed |= b_adj[m]
        for src, dst, kind, _ in graph.known_edges:
            if kind != RW:
                i, j = vindex[src], vindex[dst]
                if not (a_adj[i] >> j) & 1:  # a run member's reader may be the next one
                    a_adj[i] |= 1 << j
                    a_pred[j] |= 1 << i
                    k_adj[i] |= 1 << j | b_adj[j]
        if graph.resolved:
            self.fold_branches(branch_ends(cid, branch) for cid, branch in graph.resolved.items())

    def with_reach(self) -> "KnownIndex":
        """Compute K's transitive closure, for the branch tests; returns self."""
        self.reach = reach_masks(self.n, self.k_adj)
        self.starts = chain_starts(self.n, self.k_adj)
        return self

    def fold_branches(self, branches: Iterable[tuple[str, TxnId, TxnId]]) -> set[int]:
        """Fold branches given as (key, source writer, target writer), one
        record per source and key (`add_branches`), and return what it returns."""
        vindex = self.vindex
        groups: dict[tuple[str, TxnId], list[int]] = {}
        for key, src, dst in branches:
            groups.setdefault((key, src), []).append(vindex[dst])
        return self.add_branches([(key, vindex[src], self.reader_row(key, src), targets)
                                  for (key, src), targets in groups.items()])

    def add_branches(self, records: list[tuple[str, int, tuple[int, ...], list[int]]]) -> set[int]:
        """Fold branch records (key, s, reader row of s, targets), at most one
        per source s and key: the pairs of the edges s -WW-> d and r -RW-> d
        of each target d, for every reader r but d, with no edge tuple and
        no label. Returns the vertices whose A-predecessor row changed and,
        once the closure is computed, those whose reach changed."""
        a_adj, b_adj, a_pred, k_adj = self.a_adj, self.b_adj, self.a_pred, self.k_adj
        new_a: list[tuple[int, list[int]]] = []  # per source, its new A targets
        middles: set[int] = set()
        for key, s, row, targets in records:
            mask = 1 << targets[0]
            for d in targets[1:]:
                mask |= 1 << d
            for r in row:
                b_adj[r] |= mask ^ (1 << r) if r in targets else mask
            middles.update(row)
            # One A and one K row update per source; the A-predecessor bits
            # follow the B rows' composition, which takes those of before.
            known = mask & a_adj[s]
            fresh = mask ^ known if known else mask
            if fresh:
                a_adj[s] |= fresh
                k_adj[s] |= fresh
                new_a.append((s, [d for d in targets if fresh >> d & 1] if known else targets))
        # A middle's B row composes with its A-predecessors of before the batch
        # (old pairs too); a new A pair then composes with every B pair.
        grown: set[int] = set()
        for m in middles:
            b_row = b_adj[m]
            for p in iter_bits(a_pred[m]):
                k_adj[p] |= b_row
                grown.add(p)
        changed: set[int] = set()
        for s, targets in new_a:
            bit, k_row = 1 << s, k_adj[s]
            for d in targets:
                a_pred[d] |= bit
                k_row |= b_adj[d]
            k_adj[s] = k_row
            grown.add(s)
            changed.update(targets)
        return self._fold(grown, changed)

    def _fold(self, grown: set[int], changed: set[int]) -> set[int]:
        """Keep the closure once a batch is in A, B and K; `grown` holds the
        K rows that may have grown, `changed` the vertices whose A-predecessor
        row changed. Returns `changed` with the vertices whose reach changed."""
        k_adj = self.k_adj
        reach = self.reach
        if reach is None:
            return changed
        # The closure stands unless some new K bit is not already reachable.
        # The walk takes the chains of before the batch, whose rows `reach`
        # nests; a link the batch adds is not in `reach` yet.
        starts = self.starts
        sources = [p for p in grown if k_adj[p] & ~reach[p]]
        if sources and _walk_pays(len(sources), len(starts), self.n):
            changed |= extend_reach(reach, k_adj, sources, starts)
        elif sources:
            self.reach = reach_masks(self.n, k_adj)
            changed.update(v for v, row in enumerate(self.reach) if row != reach[v])
        # A new K pair p -> p+1 joins the chain of p to the next one.
        links = {p + 1 for p in grown if (k_adj[p] >> (p + 1)) & 1}
        if links:
            self.starts = [v for v in starts if v not in links]
        return changed

    def branch(self, cid: ConstraintKey, branch: str) -> tuple[int, int, tuple[int, ...]]:
        """A constraint branch in vertex-index space: its write-order pair
        (s, d) and the reader row of its source writer s. The branch's edges
        are s -WW-> d and r -RW-> d for every reader r but d, in that order."""
        key, src, dst = branch_ends(cid, branch)
        return self.vindex[src], self.vindex[dst], self.reader_row(key, src)

    def reader_row(self, key: str, writer: TxnId) -> tuple[int, ...]:
        """A writer's reader row on key in vertex-index space, converted on the
        first request and kept; a writer no one read keeps no entry."""
        pair = (key, writer)
        readers = self.graph.readers.get(pair)
        if readers is None:
            return ()
        row = self.readers.get(pair)
        if row is None:
            row = self.readers[pair] = tuple(map(self.vindex.__getitem__, readers))
        return row


def _row(vertices: Iterable[int]) -> int:
    """The row of the given vertices."""
    row = 0
    for v in vertices:
        row |= 1 << v
    return row


def ww_branch_blocked(src: int, dst: int, reach: list[int]) -> bool:
    """Would the write-order edge src->dst close a cycle in K?"""
    return bool((reach[dst] >> src) & 1)


def rw_branch_blocked(src: int, dst: int, a_pred: list[int], reach: list[int]) -> int:
    """Would the read-overwrite edge src->dst compose into a K cycle?

    The candidate edge composes with every known A-edge p->src into a K edge
    p->dst, so a cycle arises when dst already reaches some predecessor p, or
    when a predecessor is dst itself (the composition is then a self-loop).
    Returns the mask of such predecessors, nonzero exactly when blocked.
    """
    return a_pred[src] & (reach[dst] | 1 << dst)


@dataclass(slots=True)
class BlockedEdge:
    edge: Edge
    predecessor: int | None  # A-predecessor index for the RW case, else None


@dataclass(slots=True)
class ImmediateViolation:
    constraint: ConstraintKey
    either_cycle: WitnessCycle
    or_cycle: WitnessCycle

    @property
    def cycle(self) -> WitnessCycle:
        """The shorter branch cycle, handed to the explainer."""
        if len(self.either_cycle.deps) <= len(self.or_cycle.deps):
            return self.either_cycle
        return self.or_cycle


@dataclass(slots=True)
class PruneOutcome:
    resolved_count: int = 0
    iterations: int = 0
    verdict: str = "ok"  # "ok" | "immediate-violation"
    violation: ImmediateViolation | None = None
    resolved_per_iteration: list[int] = field(default_factory=list)
    # The known-graph index after the last promotion; None after an immediate violation.
    index: KnownIndex | None = None


def _preds(a_pred: list[int], row: tuple[int, ...], but: int) -> int:
    """The OR of the A-predecessor rows of the readers in `row` but `but`."""
    preds = 0
    for r in row:
        if r != but:
            preds |= a_pred[r]
    return preds


def _resolve_pass(index: KnownIndex, changed: set[int] | None, deadline: float | None,
                  records: list[tuple[str, int, tuple[int, ...], list[int]]]) -> ConstraintKey | None:
    """One iteration's tests: the open writer pairs, key by key and, within
    a key, grouped by first writer, against the index; resolve each pair
    with one impossible branch and append its target to the branch record
    of its source writer and key in `records`. Returns the first pair whose
    two branches are both impossible, and stops there. The pairs are walked
    as `graph.constraints` holds them, unsorted: construct adds them in id
    order and prune only deletes, so they come in sorted id order.

    A branch s -> d is impossible when d reaches s, or when d is or reaches
    an A-predecessor of a reader of s but d: when (reach[d] | 1 << d) and
    (P | 1 << s) meet, P the OR of the A-predecessor rows of those readers.
    Both rows are computed once per writer of the key; a pair where one
    writer read the key from the other ORs P again without it. With
    `changed`, a pair is tested only when a row its test reads changed. The
    clock is read per pair when there is a deadline.
    """
    graph = index.graph
    constraints, resolved, a_pred = graph.constraints, graph.resolved, index.a_pred
    vindex, reader_row, reach = index.vindex, index.reader_row, index.reach

    def tested(key: str, writer: TxnId) -> tuple:
        """What a branch test reads of a writer of key: (its vertex s, its
        reader row, whether s or a reader is in `changed` (always, when that
        is None), its branch record's empty target list, reach[s] | 1 << s,
        P | 1 << s), P the OR of its readers' A-predecessor rows."""
        s = vindex[writer]
        row = reader_row(key, writer)
        bit = 1 << s
        preds = bit
        for r in row:
            preds |= a_pred[r]
        return (s, row, changed is None or s in changed or not changed.isdisjoint(row), [],
                reach[s] | bit, preds)

    key = first = None
    writers: dict[TxnId, tuple] = {}  # `tested` of each writer of `key` asked for
    for cid in list(constraints):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("pruning budget exhausted")
        if cid[0] != key:
            key, writers, first = cid[0], {}, None
        # Sorted ids put the pairs of one first writer in a run; unpack it once.
        if cid[1] is not first:
            first = cid[1]
            info = writers.get(first)
            if info is None:
                info = writers[first] = tested(key, first)
            a, row_a, dirty_a, found_a, reach_a, preds_first = info
        info = writers.get(cid[2])
        if info is None:
            info = writers[cid[2]] = tested(key, cid[2])
        b, row_b, dirty_b, found_b, reach_b, preds_b = info
        if not (dirty_a or dirty_b):
            continue
        # A writer that read key from the other is no reader of its branch.
        preds_a = _preds(a_pred, row_a, b) | 1 << a if b in row_a else preds_first
        if a in row_b:
            preds_b = _preds(a_pred, row_b, a) | 1 << b
        either_blocked, or_blocked = reach_b & preds_a, preds_b & reach_a
        if not (either_blocked or or_blocked):
            continue
        if either_blocked and or_blocked:
            return cid
        del constraints[cid]
        if either_blocked:
            resolved[cid], s, row, found, d = OR, b, row_b, found_b, a
        else:
            resolved[cid], s, row, found, d = EITHER, a, row_a, found_a, b
        if not found:
            records.append((key, s, row, found))
        found.append(d)
    return None


def _branch_blocked(index: KnownIndex, cid: ConstraintKey, branch: str) -> BlockedEdge | None:
    """First impossible edge of the branch, in WW-then-readers order, for a
    witness cycle.

    The branch's edges are those `polygraph.branch_edges` gives, tested
    without building them; a blocked RW edge names its lowest blocking
    A-predecessor.
    """
    s, d, readers = index.branch(cid, branch)
    vertices, key = index.vertices, cid[0]
    if ww_branch_blocked(s, d, index.reach):
        return BlockedEdge((vertices[s], vertices[d], WW, key), None)
    for r in readers:
        if r != d:
            blockers = rw_branch_blocked(r, d, index.a_pred, index.reach)
            if blockers:
                edge = (vertices[r], vertices[d], RW, key)
                return BlockedEdge(edge, (blockers & -blockers).bit_length() - 1)
    return None


def _blocked_cycle(index: KnownIndex, universe: EdgeUniverse, cid: ConstraintKey,
                   branch: str) -> WitnessCycle:
    """The K cycle that makes an impossible branch impossible: the blocked
    edge, after its A-predecessor p when it is RW, then K's shortest path
    back; `universe` labels the known pairs."""
    blocked = _branch_blocked(index, cid, branch)
    assert blocked is not None
    edge, p = blocked.edge, blocked.predecessor
    vertices = index.vertices

    def known_dep(i: int, j: int, rw: bool) -> tuple[Edge, Origin]:
        return universe.known_dep(vertices[i], vertices[j], rw)

    src, dst = index.vindex[edge[0]], index.vindex[edge[1]]
    deps = [] if p is None else [known_dep(p, src, False)]
    deps.append((edge, ("branch", cid, branch)))
    back_to = src if p is None else p
    path = bfs_path(index.k_adj, dst, back_to)
    assert path is not None, f"no path {dst}->{back_to} in the known induced graph"
    deps += path_deps(index.a_adj, index.b_adj, path, known_dep)
    return WitnessCycle(deps).canonical()


def prune_constraints(
    graph: Polygraph,
    max_iterations: int | None = None,
    budget_ms: int | None = None,
) -> PruneOutcome:
    """Iterate branch elimination to a fixpoint; mutates the given polygraph."""
    outcome = PruneOutcome()
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    index = KnownIndex(graph)
    if graph.constraints:  # with no open pair, no branch test reads the closure
        index.with_reach()
    changed: set[int] | None = None  # None: test every constraint

    while max_iterations is None or outcome.iterations < max_iterations:
        records: list[tuple[str, int, tuple[int, ...], list[int]]] = []
        before = len(graph.resolved)
        violating = _resolve_pass(index, changed, deadline, records)
        count = len(graph.resolved) - before
        outcome.resolved_count += count
        outcome.resolved_per_iteration.append(count)
        outcome.iterations += 1
        if violating is not None:
            # The index holds the pairs resolved before this pass, not those
            # it resolved: the labels are of the graph the index is of.
            universe = EdgeUniverse(replace(graph, resolved=dict(islice(
                graph.resolved.items(), before))))
            outcome.verdict = "immediate-violation"
            outcome.violation = ImmediateViolation(
                constraint=violating,
                either_cycle=_blocked_cycle(index, universe, violating, EITHER),
                or_cycle=_blocked_cycle(index, universe, violating, OR),
            )
            return outcome
        if not count:
            break
        changed = index.add_branches(records)
    outcome.index = index
    return outcome
