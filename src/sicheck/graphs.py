"""Small dense-graph helpers over bitmask adjacency rows.

Vertices are 0..n-1 and each adjacency row is an int whose bit j marks an
edge to vertex j. Python ints make union/closure operations cheap at the few
thousand vertices this checker works with.

The kernels handle a whole row per Python-level step rather than one edge:
sets of vertices (unvisited, on the DFS stack, still to fold) are masks too,
`row & mask` selects the successors that matter, and `mask & -mask` picks
the lowest of them, which keeps the ascending visit order of a per-edge
walk. Known induced graphs are close to transitively closed, so most of a
row's edges need no step of their own.
"""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: list[int]) -> list[int]:
    """The reversed graph's rows: bit i of row j is set when bit j of row i is."""
    columns = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in iter_bits(row):
            columns[j] |= bit
    return columns


def tarjan_scc(n: int, adj: list[int]) -> list[list[int]]:
    """Strongly connected components in reverse topological order.

    Iterative Tarjan; each emitted component precedes, in the returned list,
    every component that can reach it. The DFS descends into the lowest
    unvisited successor first, and `low[v]` is folded once over the
    successors still on the stack when `v` finishes: a successor on the
    stack when first seen stays there until `v` finishes, so the DFS tree,
    the components and their order are those of the edge-by-edge version.
    """
    index_of = [0] * n
    low = [0] * n
    unvisited = (1 << n) - 1
    on_stack = 0
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    while unvisited:
        work: list[int] = []
        fresh = unvisited  # the next root is its lowest bit
        while True:
            if fresh:
                bit = fresh & -fresh
                v = bit.bit_length() - 1
                unvisited ^= bit
                on_stack |= bit
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                work.append(v)
            else:
                v = work.pop()
                low_v = low[v]
                for w in iter_bits(adj[v] & on_stack):
                    if index_of[w] < low_v:
                        low_v = index_of[w]
                if work and low_v < low[work[-1]]:
                    low[work[-1]] = low_v
                if low_v == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack ^= 1 << w
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(sorted(comp))
                if not work:
                    break
            fresh = adj[work[-1]] & unvisited
    return sccs


def reach_masks(n: int, adj: list[int]) -> list[int]:
    """Transitive closure R+ as bitmask rows.

    A vertex reaches itself only through an actual cycle: every vertex of a
    component with more than one vertex, or with a self-loop, is a successor
    of the component's own rows. Components are closed in reverse
    topological order, so every successor outside a component already has
    its row; folding the lowest pending successor's row also clears from the
    pending mask every vertex that row covers, since their rows are subsets.
    """
    reach = [0] * n
    for comp in tarjan_scc(n, adj):
        out = 0
        comp_mask = 0
        for v in comp:
            out |= adj[v]
            comp_mask |= 1 << v
        pending = out & ~comp_mask
        while pending:
            bit = pending & -pending
            row = reach[bit.bit_length() - 1]
            out |= row
            pending &= ~(row | bit)
        for v in comp:
            reach[v] = out
    return reach


def chain_starts(n: int, adj: list[int]) -> list[int]:
    """First vertex of every chain, ascending.

    A chain is a maximal run i, i+1, …, j whose every vertex but the last
    has an edge to the next. Edges are only ever added to a graph whose
    closure is kept, so a chain never splits; it can only merge with the
    next one.
    """
    return [i for i in range(n) if i == 0 or not (adj[i - 1] >> i) & 1]


def extend_reach(reach: list[int], adj: list[int], sources: list[int],
                 starts: list[int]) -> set[int]:
    """Fold new edges into a closure in place; return the rows that changed.

    `reach` is R+ of `adj` without its new edges, all of which leave
    `sources`; `starts` are the chains of that older graph, not of `adj`,
    since a new edge i -> i+1 is not in `reach` until its source is
    folded in. Each source p adds delta = the union of {q} and reach[q]
    over its new successors q to p and to every vertex that reaches p,
    one source after the other. Along an old chain the rows are nested (a
    vertex reaches all its chain successors and whatever they reach), and
    stay so as each source is folded in, so the vertices of a chain that
    reach p, or are p, form a prefix of it: a binary search finds the
    prefix's last vertex, and the walk down from there stops at the first
    row that already holds delta, as all rows before it do.
    """
    ends = [*starts[1:], len(reach)]
    changed: set[int] = set()
    for p in sources:
        new = adj[p] & ~reach[p]
        # Folding the lowest pending successor's row covers every vertex in it.
        delta = pending = new
        while pending:
            low = pending & -pending
            row = reach[low.bit_length() - 1]
            delta |= row
            pending &= ~(row | low)
        if not delta:
            continue
        bit = 1 << p
        for first, end in zip(starts, ends):
            if first != p and not reach[first] & bit:
                continue
            last = first
            while end - last > 1:
                mid = (last + end) // 2
                if mid == p or reach[mid] & bit:
                    last = mid
                else:
                    end = mid
            for v in range(last, first - 1, -1):
                row = reach[v]
                grown = row | delta
                if grown == row:
                    break
                reach[v] = grown
                changed.add(v)
    return changed


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
