"""Reference transitive closures over bitmask rows, for cross-checking
`sicheck.graphs.reach_masks` and the pruner's incrementally kept closure.

Both are deliberately naive and independent of the SCC-based path.
"""

from __future__ import annotations

from sicheck.graphs import iter_bits


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
