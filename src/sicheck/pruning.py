"""Constraint pruning against the currently known part of the induced graph.

The pruner keeps one index of the known edges for the whole check: the
pair-level induced graph K = A ∪ (A ∘ B), where A holds session-order,
writer-reader, and resolved write-order edges and B holds resolved
read-overwrite edges, together with K's transitive closure, which only the
pruner computes. A constraint branch is impossible when adding one of its
edges would close a cycle in K; the constraint is then resolved: prune
records it with its surviving branch in `graph.resolved` and lists none of
its edges.
Branch tests within one iteration all read the iteration-start index, in
vertex-index space: a branch s -> d with reader row R is impossible when d
reaches s, or when d is or reaches an A-predecessor of a reader in R but d,
so each test is one bit test plus one AND against the OR of the readers'
A-predecessor rows, which the index keeps per writer while the pairs of one
key are tested (`KnownIndex.source`). Only a constraint whose two branches
are both impossible has its blocked edges found one by one, to build the
witness cycles.
The branches an iteration resolves are folded into the index in place after
its constraint loop, straight from their (s, d, reader row), so they take
effect in the next iteration. The next iteration re-tests only constraints
whose reachability or predecessor rows that update changed, and the final
index is handed on to the solver.

The closure is computed whole (`graphs.reach_masks`) once, before the first
iteration. An update then walks K's chains, the runs of vertices i, i+1, …
that K links one to the next (`graphs.extend_reach`); a session's committed
transactions are consecutive vertices linked by session order, so there are
about as many chains as sessions. The closure is rebuilt instead only when
the batch's source rows times the chains exceed twice the vertices.

The virtual initial writer has no incoming edge, so it lies on no cycle and
no `reach` row holds its bit. Its edges are derived, never listed (see
`polygraph`): the index gives its A and K rows the one row they would
build, every committed writer plus every reader of an initial value, and
it is no vertex's A-predecessor and labels no pair.

If both branches of some constraint are impossible the history is violating
and the outcome carries a witness cycle for each dead branch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .graphs import bfs_path, chain_starts, extend_reach, iter_bits, reach_masks
from .histories import INIT_TXN, TxnId
from .polygraph import (
    EITHER, OR, RW, SO, WR, WW, Constraint, Edge, Polygraph, branch_ends, owning_branch,
)
from .witness import KNOWN_ORIGIN, Origin, WitnessCycle

_LABEL_RANK = {SO: 0, WR: 1, WW: 2, RW: 3}
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

    Built once from `graph.known_edges` and the branches of `graph.resolved`;
    `add_edges` folds in listed edges, `add_branches` branch records, in
    place. After every update the index equals a fresh build over the
    graph's known edges and resolved branches, field by field. The closure
    `reach` is None until `with_reach` computes it; from then on a fold
    keeps it, and the chain starts `starts` with it, by walking the chains
    for a small batch and by a rebuild for a large one. `readers` holds the
    reader rows `reader_row` has been asked for, of writers that have readers.
    """

    def __init__(self, graph: Polygraph):
        self.graph = graph
        self.vertices = graph.vertices
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        self.n = n
        self.a_adj = [0] * n
        self.b_adj = [0] * n
        self.a_pred = [0] * n
        # One representative listed edge per pair, lowest (rank, key) first;
        # `label` also weighs the folded branches.
        self.a_label: dict[tuple[int, int], Edge] = {}
        self.b_label: dict[tuple[int, int], Edge] = {}
        # The branch records folded without listing their edges, by target vertex.
        self.folded: dict[int, list[tuple[str, int, int, tuple[int, ...]]]] = {}
        self.k_adj = [0] * n
        self.reach: list[int] | None = None
        # First vertex of each chain of K (see `graphs.chain_starts`), kept with `reach`.
        self.starts: list[int] = []
        # Rows of graph.readers in vertex-index space, filled by `reader_row`.
        self.readers: dict[tuple[str, TxnId], tuple[int, ...]] = {}
        # `source` of the writers of one key asked for since A last changed.
        self.sources: dict[TxnId, tuple[int, tuple[int, ...], int]] = {}
        self._sources_key: str | None = None
        # The initial writer's row (see the module docstring).
        init = self.vindex.get(INIT_TXN)
        if init is not None:
            init_readers = (rs for (_, writer), rs in graph.readers.items() if writer == INIT_TXN)
            targets = set().union(*graph.writers.values(), *init_readers)
            self.a_adj[init] = self.k_adj[init] = sum(1 << self.vindex[v] for v in targets)
        self.add_edges(graph.known_edges)
        if graph.resolved:
            self.add_branches([self.record(*branch_ends(cid, branch))
                               for cid, branch in graph.resolved.items()])

    def with_reach(self) -> "KnownIndex":
        """Compute K's transitive closure, for the branch tests; returns self."""
        self.reach = reach_masks(self.n, self.k_adj)
        self.starts = chain_starts(self.n, self.k_adj)
        return self

    def add_edges(self, edges: list[Edge]) -> set[int]:
        """Fold listed edges into the index; return the vertices whose reach or
        A-predecessor row changed (reach only once it is computed)."""
        vindex, a_adj, b_adj = self.vindex, self.a_adj, self.b_adj
        new_a: list[int] = []  # i, j of each new A pair (i, j), flat
        middles: set[int] = set()  # the middle vertex i of each new B pair (i, j)
        for edge in edges:
            i, j = vindex[edge[0]], vindex[edge[1]]
            pair = (i, j)
            rw = edge[2] == RW
            labels = self.b_label if rw else self.a_label
            old = labels.get(pair)
            if old is not None:
                # The lowest (rank, key) labels the pair; the key only breaks a tie.
                rank, old_rank = _LABEL_RANK[edge[2]], _LABEL_RANK[old[2]]
                if rank > old_rank or rank == old_rank and (edge[3] or "") >= (old[3] or ""):
                    continue
            labels[pair] = edge
            if old is not None:
                continue
            if rw:
                b_adj[i] |= 1 << j
                middles.add(i)
            elif not (a_adj[i] >> j) & 1:
                new_a.append(i)
                new_a.append(j)
        return self._fold(new_a, middles)

    def add_branches(self, records: list[tuple[str, int, int, tuple[int, ...]]]) -> set[int]:
        """Fold branch records (key, s, d, reader row of s) into the index, as
        `add_edges` folds a branch's edges s -WW-> d and r -RW-> d for every
        reader r but d, but with no edge tuple and no label; returns as it does."""
        a_adj, b_adj, folded = self.a_adj, self.b_adj, self.folded
        new_a: list[int] = []
        # Per source (key, s) with readers: its row, the mask of its branches'
        # targets, and whether a target is one of the readers.
        spread: dict[tuple[str, int], list] = {}
        for record in records:
            key, s, d, row = record
            folded.setdefault(d, []).append(record)
            if not (a_adj[s] >> d) & 1:
                new_a.append(s)
                new_a.append(d)
            if row:
                entry = spread.get((key, s))
                if entry is None:
                    spread[(key, s)] = [row, 1 << d, d in row]
                else:
                    entry[1] |= 1 << d
                    entry[2] = entry[2] or d in row
        middles: set[int] = set()
        for row, targets, reads in spread.values():
            for r in row:
                b_adj[r] |= targets & ~(1 << r) if reads else targets
                middles.add(r)
        return self._fold(new_a, middles)

    def _fold(self, new_a: list[int], middles: set[int]) -> set[int]:
        """Set K's new pairs and keep the closure, once the new B bits are set.

        The B row of a middle vertex m that gained a pair composes with m's
        A-predecessors of before the batch (old pairs again, which K holds);
        a new A pair composes with every B pair, old or new.
        """
        a_adj, b_adj, a_pred, k_adj = self.a_adj, self.b_adj, self.a_pred, self.k_adj
        grown: set[int] = set()  # the K rows that may have grown
        for m in middles:
            row = b_adj[m]
            for p in iter_bits(a_pred[m]):
                k_adj[p] |= row
                grown.add(p)
        changed: set[int] = set()
        pairs = iter(new_a)
        for i, j in zip(pairs, pairs):
            a_adj[i] |= 1 << j
            a_pred[j] |= 1 << i
            k_adj[i] |= 1 << j | b_adj[j]
            grown.add(i)
            changed.add(j)
        if new_a:
            self.sources.clear()

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

    def source(self, key: str, writer: TxnId) -> tuple[int, tuple[int, ...], int]:
        """A writer of key as the source of a branch, in vertex-index space: its
        vertex, its reader row and the OR of its readers' A-predecessor rows,
        the vertices that an RW edge r -> d of the branch composes with into
        p -> d. Kept in `sources` until a fold changes A or another key is asked for."""
        if key != self._sources_key:
            self.sources.clear()
            self._sources_key = key
        info = self.sources.get(writer)
        if info is None:
            row = self.reader_row(key, writer)
            preds = self.a_pred[row[0]] if len(row) == 1 else self.preds_of(row, None)
            info = self.sources[writer] = (self.vindex[writer], row, preds)
        return info

    def preds_of(self, row: tuple[int, ...], but: int | None) -> int:
        """The OR of the A-predecessor rows of the readers in `row` but `but`."""
        preds = 0
        for r in row:
            if r != but:
                preds |= self.a_pred[r]
        return preds

    def label(self, i: int, j: int, rw: bool) -> Edge | None:
        """The lowest (rank, key) known edge on pair (i, j) of the B layer when
        `rw`, else of the A layer: the listed label, or an edge of a branch
        folded into j. None when neither holds the pair."""
        best = (self.b_label if rw else self.a_label).get((i, j))
        kind = RW if rw else WW
        for key, s, _, row in self.folded.get(j, ()):
            if not (i in row if rw else s == i):
                continue
            if best is None or (_LABEL_RANK[kind], key) < (_LABEL_RANK[best[2]], best[3] or ""):
                best = (self.vertices[i], self.vertices[j], kind, key)
        return best

    def b_pred_rows(self) -> list[int]:
        """A new list of B-predecessor rows: bit i of row j is set when B holds (i, j).

        A folded branch into d adds its reader row, but d, as a mask; the
        mask of a row several readers share is built once.
        """
        b_pred = [0] * self.n
        for i, j in self.b_label:
            b_pred[j] |= 1 << i
        masks: dict[int, int] = {}  # id of a shared reader row -> its mask
        for d, records in self.folded.items():
            col = b_pred[d]
            for _, _, _, row in records:
                if len(row) == 1:
                    if row[0] != d:
                        col |= 1 << row[0]
                elif row:
                    mask = masks.get(id(row))
                    if mask is None:
                        mask = masks[id(row)] = sum(1 << r for r in row)
                    col |= mask & ~(1 << d) if d in row else mask
            b_pred[d] = col
        return b_pred

    def branch(self, cons: Constraint, branch: str) -> tuple[int, int, tuple[int, ...]]:
        """A constraint branch in vertex-index space: its write-order pair
        (s, d) and the reader row of its source writer s. The branch's edges
        are s -WW-> d and r -RW-> d for every reader r but d, in that order."""
        src, dst = (cons.first, cons.second) if branch == EITHER else (cons.second, cons.first)
        return self.vindex[src], self.vindex[dst], self.reader_row(cons.key, src)

    def record(self, key: str, src: TxnId, dst: TxnId) -> tuple[str, int, int, tuple[int, ...]]:
        """The branch record (key, s, d, reader row of s) of the branch
        ordering src before dst on key, as `add_branches` folds it."""
        return key, self.vindex[src], self.vindex[dst], self.reader_row(key, src)

    def reader_row(self, key: str, writer: TxnId) -> tuple[int, ...]:
        """A writer's reader row on key in vertex-index space, converted on the
        first request and kept; a writer no one read keeps no entry."""
        row = self.readers.get((key, writer))
        if row is not None:
            return row
        readers = self.graph.readers.get((key, writer))
        if readers is None:
            return ()
        row = self.readers[(key, writer)] = tuple(map(self.vindex.__getitem__, readers))
        return row

    def decompose(self, u: int, v: int) -> list[Edge]:
        """Underlying labeled dependencies of a K edge (direct or composed)."""
        m = k_middle(self.a_adj, self.b_adj, u, v)
        if m is None:
            return [self.label(u, v, False)]
        return [self.label(u, m, False), self.label(m, v, True)]

    def path_deps(self, src: int, dst: int) -> list[Edge]:
        path = bfs_path(self.k_adj, src, dst)
        if path is None:
            raise AssertionError(f"no path {src}->{dst} in the known induced graph")
        deps: list[Edge] = []
        for a, b in zip(path, path[1:]):
            deps.extend(self.decompose(a, b))
        return deps


def k_middle(a_rows: list[int], b_rows: list[int], u: int, v: int) -> int | None:
    """How the induced graph holds pair (u, v): None when A holds it directly,
    else the lowest middle vertex m with A(u, m) and B(m, v)."""
    if (a_rows[u] >> v) & 1:
        return None
    for m in iter_bits(a_rows[u]):
        if (b_rows[m] >> v) & 1:
            return m
    raise AssertionError(f"({u},{v}) is not an edge of the induced graph")


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
    constraint: Constraint
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
    graph: Polygraph
    resolved_count: int = 0
    iterations: int = 0
    verdict: str = "ok"  # "ok" | "immediate-violation"
    violation: ImmediateViolation | None = None
    resolved_per_iteration: list[int] = field(default_factory=list)
    # The known-graph index after the last promotion; None after an immediate violation.
    index: KnownIndex | None = None


def _pair_blocked(index: KnownIndex, cons: Constraint) -> tuple[bool, bool]:
    """Are the either and the or branch of a writer pair impossible?

    A branch s -> d is impossible when d reaches s, or when d is or reaches
    an A-predecessor of a reader of s but d (`KnownIndex.source`).
    """
    reach = index.reach
    a, row_a, preds_a = index.source(cons.key, cons.first)
    b, row_b, preds_b = index.source(cons.key, cons.second)
    if b in row_a:
        preds_a = index.preds_of(row_a, b)
    if a in row_b:
        preds_b = index.preds_of(row_b, a)
    return (bool((reach[b] >> a) & 1 or (preds_a >> b) & 1 or preds_a & reach[b]),
            bool((reach[a] >> b) & 1 or (preds_b >> a) & 1 or preds_b & reach[a]))


def _branch_blocked(index: KnownIndex, cons: Constraint, branch: str) -> BlockedEdge | None:
    """First impossible edge of the branch, in WW-then-readers order, for a
    witness cycle.

    The branch's edges are those of `cons.edges`, tested without building
    them; a blocked RW edge names its lowest blocking A-predecessor.
    """
    s, d, readers = index.branch(cons, branch)
    vertices = index.vertices
    if ww_branch_blocked(s, d, index.reach):
        return BlockedEdge((vertices[s], vertices[d], WW, cons.key), None)
    for r in readers:
        if r != d:
            blockers = rw_branch_blocked(r, d, index.a_pred, index.reach)
            if blockers:
                edge = (vertices[r], vertices[d], RW, cons.key)
                return BlockedEdge(edge, (blockers & -blockers).bit_length() - 1)
    return None


def _blocked_cycle(index: KnownIndex, graph: Polygraph, cons: Constraint,
                   branch: str) -> WitnessCycle:
    """Reconstruct the K cycle that makes an impossible branch impossible."""
    blocked = _branch_blocked(index, cons, branch)
    assert blocked is not None
    edge = blocked.edge
    src, dst = index.vindex[edge[0]], index.vindex[edge[1]]
    branch_dep = (edge, ("branch", cons.id, branch))
    deps: list[tuple[Edge, Origin]] = []
    if edge[2] == WW:
        deps.append(branch_dep)
        for known in index.path_deps(dst, src):
            deps.append((known, known_origin(graph, known)))
    else:
        p = blocked.predecessor
        assert p is not None
        pred_edge = index.label(p, src, False)
        deps.append((pred_edge, known_origin(graph, pred_edge)))
        deps.append(branch_dep)
        if p != dst:
            for known in index.path_deps(dst, p):
                deps.append((known, known_origin(graph, known)))
    return WitnessCycle(deps).canonical()


def known_origin(graph: Polygraph, edge: Edge) -> Origin:
    """Origin of a known edge: resolved from a writer pair's branch (by
    prune, or by construct's RMW-run order), or known from the start."""
    owner = owning_branch(graph, edge)
    return KNOWN_ORIGIN if owner is None else ("resolved", *owner)


def prune_constraints(
    graph: Polygraph,
    max_iterations: int | None = None,
    budget_ms: int | None = None,
) -> PruneOutcome:
    """Iterate branch elimination to a fixpoint; mutates the given polygraph."""
    outcome = PruneOutcome(graph=graph)
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    index = KnownIndex(graph).with_reach()
    changed: set[int] | None = None  # None: test every constraint

    while max_iterations is None or outcome.iterations < max_iterations:
        resolved: list[tuple[str, int, int, tuple[int, ...]]] = []
        for cid in sorted(graph.constraints):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceededError("pruning budget exhausted")
            cons = graph.constraints[cid]
            if changed is not None and not _inputs_changed(index, cons, changed):
                continue
            either_blocked, or_blocked = _pair_blocked(index, cons)
            if either_blocked and or_blocked:
                outcome.verdict = "immediate-violation"
                outcome.violation = ImmediateViolation(
                    constraint=cons,
                    either_cycle=_blocked_cycle(index, graph, cons, EITHER),
                    or_cycle=_blocked_cycle(index, graph, cons, OR),
                )
                outcome.resolved_count += len(resolved)
                outcome.resolved_per_iteration.append(len(resolved))
                outcome.iterations += 1
                return outcome
            if either_blocked or or_blocked:
                survivor = OR if either_blocked else EITHER
                del graph.constraints[cid]
                graph.resolved[cid] = survivor
                key, src, dst = branch_ends(cid, survivor)
                s, row, _ = index.source(key, src)
                resolved.append((key, s, index.vindex[dst], row))
        outcome.resolved_count += len(resolved)
        outcome.resolved_per_iteration.append(len(resolved))
        outcome.iterations += 1
        if not resolved:
            break
        changed = index.add_branches(resolved)
    outcome.index = index
    return outcome


def _inputs_changed(index: KnownIndex, cons: Constraint, changed: set[int]) -> bool:
    """True when any reachability or predecessor row a branch test reads changed."""
    for writer in (cons.first, cons.second):
        s, readers, _ = index.source(cons.key, writer)
        if s in changed or not changed.isdisjoint(readers):
            return True
    return False
