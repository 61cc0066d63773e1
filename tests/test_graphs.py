import random

from sicheck.graphs import bfs_path, find_cycle, iter_bits, reach_masks, tarjan_scc

from reference_closures import bfs_reach, floyd_warshall_reach


def adj_from_edges(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
    return rows


class TestBits:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


class TestScc:
    def test_reverse_topological_order(self):
        adj = adj_from_edges(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
        sccs = tarjan_scc(4, adj)
        assert [sorted(c) for c in sccs][0] == [3]
        assert [1, 2] in [sorted(c) for c in sccs]
        # Components appear before any component that reaches them.
        position = {v: i for i, comp in enumerate(sccs) for v in comp}
        assert position[3] < position[1] < position[0]


class TestReach:
    def test_self_reach_only_through_cycles(self):
        chain = adj_from_edges(3, [(0, 1), (1, 2)])
        reach = reach_masks(3, chain)
        assert not any((reach[v] >> v) & 1 for v in range(3))
        loop = adj_from_edges(3, [(0, 1), (1, 0), (2, 2)])
        reach = reach_masks(3, loop)
        assert (reach[0] >> 0) & 1 and (reach[1] >> 1) & 1 and (reach[2] >> 2) & 1

    def test_three_implementations_agree(self):
        rng = random.Random(123)
        for _ in range(40):
            n = rng.randint(1, 10)
            adj = [sum(1 << j for j in range(n) if rng.random() < 0.3) for _ in range(n)]
            assert reach_masks(n, adj) == floyd_warshall_reach(n, adj) == bfs_reach(n, adj)


class TestPathsAndCycles:
    def test_bfs_path_shortest(self):
        adj = adj_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
        assert bfs_path(adj, 0, 3) == [0, 4, 3]
        assert bfs_path(adj, 3, 0) is None

    def test_find_cycle_none_on_dag(self):
        adj = adj_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert find_cycle(4, adj) is None

    def test_find_cycle_self_loop(self):
        adj = adj_from_edges(2, [(0, 1), (1, 1)])
        assert find_cycle(2, adj) == [1]

    def test_find_cycle_deterministic(self):
        adj = adj_from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert find_cycle(4, adj) == find_cycle(4, adj) == [0, 1]
