"""Reference graph kernels over bitmask rows, for cross-checking
`sicheck.graphs.tarjan_scc`, `sicheck.graphs.reach_masks` and the pruner's
incrementally kept closure; the solver's order repair and prune's branch
pass a pair or a successor at a time, for cross-checking
`sicheck.solving.Solver._pk_check` and `sicheck.pruning._resolve_pass`;
and the eager build of the explainer's edge universe, for cross-checking
`sicheck.explain.EdgeUniverse`.

The closures are deliberately naive and independent of the SCC-based path;
the Tarjan reference walks one edge per step, as the row-at-a-time kernel
must reproduce exactly, and so do the order repair and the branch pass.
"""

from __future__ import annotations

import time
from typing import Iterator

from sicheck.errors import BudgetExceededError
from sicheck.graphs import iter_bits
from sicheck.histories import TxnId
from sicheck.polygraph import EITHER, OR, ConstraintKey, Edge, Polygraph, branch_edges, branch_ends


def tarjan_scc_per_edge(n: int, adj: list[int]) -> list[list[int]]:
    """Iterative Tarjan visiting one successor edge per step, in ascending order."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work: list[tuple[int, Iterator[int]]] = [(root, iter_bits(adj[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter_bits(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def floyd_warshall_reach(n: int, adj: list[int]) -> list[int]:
    """Reference transitive closure; O(n^2) word ops."""
    reach = list(adj)
    for k in range(n):
        bit = 1 << k
        row_k = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row_k
    return reach


def bfs_reach(n: int, adj: list[int]) -> list[int]:
    """Per-source BFS transitive closure."""
    out = []
    for src in range(n):
        seen = 0
        frontier = adj[src]
        while frontier:
            seen |= frontier
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
        out.append(seen)
    return out


def pk_check_per_successor(rows: list[int], ord_: list[int], at: list[int],
                           u: int, v: int) -> list[int] | None:
    """Pearce–Kelly repair for a new pair u -> v, already set in `rows`, of
    the topological order `ord_` (slot per vertex) and its inverse `at`,
    both repaired in place: the forward search from v tests each successor
    against the visited set and the bound ord[u]. A cycle the pair closes is
    returned as its vertices, u first, and the order is left as it was."""
    if u == v:
        return [u]
    if ord_[u] < ord_[v]:
        return None
    bound = ord_[u]
    parent = {v: -1}
    stack = [v]
    forward = [v]
    while stack:
        x = stack.pop()
        for w in iter_bits(rows[x]):
            if w in parent or ord_[w] > bound:
                continue
            parent[w] = x
            if w == u:
                path = [w]
                while x != -1:
                    path.append(x)
                    x = parent[x]
                path.reverse()  # v .. u
                return [u] + path[:-1]
            forward.append(w)
            stack.append(w)
    back = [u]
    back_mask = 1 << u
    for slot in range(bound - 1, ord_[v] - 1, -1):
        x = at[slot]
        if rows[x] & back_mask:
            back.append(x)
            back_mask |= 1 << x
    back.reverse()
    nodes = back + sorted(forward, key=lambda x: ord_[x])
    slots = sorted(ord_[x] for x in nodes)
    for node, slot in zip(nodes, slots):
        ord_[node] = slot
        at[slot] = node
    return None


def resolve_pass_per_pair(index, changed: set[int] | None, deadline: float | None,
                          records: list) -> ConstraintKey | None:
    """Prune's branch pass (`sicheck.pruning._resolve_pass`, same arguments
    and effects) with each pair's test written out: either branch a -> b is
    impossible when b reaches a, or when b is or reaches an A-predecessor of
    a reader of a but b, and the or branch likewise. The readers'
    A-predecessor rows are ORed per pair; only each writer's vertex, reader
    row, `changed` test and branch record are kept per key."""
    graph = index.graph
    constraints, resolved, reach, a_pred = (
        graph.constraints, graph.resolved, index.reach, index.a_pred)
    key = None
    writers: dict[TxnId, list] = {}
    for cid in sorted(constraints):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("pruning budget exhausted")
        if cid[0] != key:
            key, writers = cid[0], {}
        for writer in cid[1:]:
            if writer not in writers:
                s, row = index.vindex[writer], index.reader_row(key, writer)
                dirty = changed is None or s in changed or not changed.isdisjoint(row)
                writers[writer] = [s, row, dirty, []]
        a, row_a, dirty_a, found_a = writers[cid[1]]
        b, row_b, dirty_b, found_b = writers[cid[2]]
        if not (dirty_a or dirty_b):
            continue
        preds_a = preds_b = 0
        for r in row_a:
            if r != b:
                preds_a |= a_pred[r]
        for r in row_b:
            if r != a:
                preds_b |= a_pred[r]
        either_blocked = (reach[b] >> a) & 1 or (preds_a >> b) & 1 or preds_a & reach[b]
        or_blocked = (reach[a] >> b) & 1 or (preds_b >> a) & 1 or preds_b & reach[a]
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


def eager_edge_universe(
    graph: Polygraph, known_edges: list[Edge] | None = None,
) -> tuple[dict[TxnId, list[Edge]], dict[Edge, tuple[ConstraintKey, str]]]:
    """Every realizable edge up front: sorted successor lists and branch owners.

    Known edges first, `known_edges` when given, else the graph's listed
    ones; then each constraint's branch edges in sorted constraint order,
    an edge going to the first branch that lists it.
    """
    owner: dict[Edge, tuple[ConstraintKey, str]] = {}
    succ: dict[TxnId, list[Edge]] = {}
    known: set[Edge] = set()
    for edge in graph.known_edges if known_edges is None else known_edges:
        if edge in known:
            continue
        known.add(edge)
        succ.setdefault(edge[0], []).append(edge)
    for cid in sorted(graph.constraints):
        for branch in (EITHER, OR):
            for edge in branch_edges(graph, *branch_ends(cid, branch)):
                if edge in owner or edge in known:
                    continue
                owner[edge] = (cid, branch)
                succ.setdefault(edge[0], []).append(edge)
    return {src: sorted(edges) for src, edges in succ.items()}, owner
