"""Small dense-graph helpers over bitmask adjacency rows.

Vertices are 0..n-1 and each adjacency row is an int whose bit j marks an
edge to vertex j. Python ints make union/closure operations cheap at the few
thousand vertices this checker works with.
"""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tarjan_scc(n: int, adj: list[int]) -> list[list[int]]:
    """Strongly connected components in reverse topological order.

    Iterative Tarjan; each emitted component precedes, in the returned list,
    every component that can reach it.
    """
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


def reach_masks(n: int, adj: list[int]) -> list[int]:
    """Transitive closure R+ as bitmask rows.

    A vertex reaches itself only through an actual cycle (its component has
    more than one vertex or a self-loop).
    """
    sccs = tarjan_scc(n, adj)
    scc_of = [0] * n
    for ci, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = ci
    scc_reach = [0] * len(sccs)
    for ci, comp in enumerate(sccs):
        succ = 0
        cyclic = len(comp) > 1
        for v in comp:
            row = adj[v]
            succ |= row
            if (row >> v) & 1:
                cyclic = True
        out = succ
        for s in iter_bits(succ):
            si = scc_of[s]
            if si != ci:
                out |= scc_reach[si]
        if cyclic:
            mask = 0
            for v in comp:
                mask |= 1 << v
            out |= mask
        scc_reach[ci] = out
    return [scc_reach[scc_of[v]] for v in range(n)]


def bfs_path(adj: list[int], src: int, dst: int) -> list[int] | None:
    """Shortest vertex path src..dst, expanding neighbors in ascending order."""
    if src == dst:
        return [src]
    parent: dict[int, int] = {src: -1}
    frontier = [src]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in iter_bits(adj[u]):
                if v in parent:
                    continue
                parent[v] = u
                if v == dst:
                    path = [v]
                    while u != -1:
                        path.append(u)
                        u = parent[u]
                    path.reverse()
                    return path
                nxt.append(v)
        frontier = nxt
    return None


def find_cycle(n: int, adj: list[int]) -> list[int] | None:
    """First cycle found by DFS in ascending vertex order, as a vertex list.

    The returned list holds the cycle's vertices in edge order; a self-loop
    yields a single-element list. Deterministic for a given graph.
    """
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for root in range(n):
        if color[root] != 0:
            continue
        stack: list[tuple[int, Iterator[int]]] = [(root, iter_bits(adj[root]))]
        color[root] = 1
        path = [root]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == v:
                    return [v]
                if color[w] == 1:
                    return path[path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    stack.append((w, iter_bits(adj[w])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[v] = 2
    return None
