"""Reference graph kernels over bitmask rows, for cross-checking
`sicheck.graphs.tarjan_scc`, `sicheck.graphs.reach_masks` and the pruner's
incrementally kept closure, and the eager build of the explainer's edge
universe, for cross-checking `sicheck.explain.EdgeUniverse`.

The closures are deliberately naive and independent of the SCC-based path;
the Tarjan reference walks one edge per step, as the row-at-a-time kernel
must reproduce exactly.
"""

from __future__ import annotations

from typing import Iterator

from sicheck.graphs import iter_bits
from sicheck.histories import TxnId
from sicheck.polygraph import EITHER, OR, ConstraintKey, Edge, Polygraph


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
        cons = graph.constraints[cid]
        for branch in (EITHER, OR):
            for edge in cons.edges(graph, branch):
                if edge in owner or edge in known:
                    continue
                owner[edge] = (cid, branch)
                succ.setdefault(edge[0], []).append(edge)
    return {src: sorted(edges) for src, edges in succ.items()}, owner
