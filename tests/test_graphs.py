import dataclasses
import random

from hypothesis import given, settings, strategies as st

from sicheck.graphs import bfs_path, find_cycle, iter_bits, reach_masks, tarjan_scc, transpose
from sicheck.histories import completeness_gate
from sicheck.polygraph import build_polygraph
from sicheck.pruning import KnownIndex, prune_constraints
from sicheck.workload import WorkloadParams, generate, inject

from reference_closures import bfs_reach, floyd_warshall_reach, tarjan_scc_per_edge


def adj_from_edges(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
    return rows


class TestBits:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


class TestTranspose:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 40).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    def test_reverses_every_edge(self, rows):
        columns = transpose(rows)
        n = len(rows)
        assert all((columns[j] >> i) & 1 == (rows[i] >> j) & 1
                   for i in range(n) for j in range(n))
        assert transpose(columns) == rows


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


def random_graph(rng: random.Random, n: int) -> list[int]:
    """A graph with planted cycles, self-loops and isolated vertices.

    Densities run from a few edges to half of all pairs; some graphs are DAGs
    under a random vertex order, and some are closed and then thinned, like
    the near-closed known induced graphs the pruner builds.
    """
    full = (1 << n) - 1
    words = rng.randint(1, 6)
    adj = []
    for i in range(n):
        row = full
        for _ in range(words):
            row &= rng.getrandbits(n)
        adj.append(row)
    shape = rng.choice(("plain", "dag", "closed"))
    if shape == "dag":
        order = list(range(n))
        rng.shuffle(order)
        dag = [0] * n
        for i in range(n):
            for j in iter_bits(adj[i] & ~((2 << i) - 1)):
                dag[order[i]] |= 1 << order[j]
        adj = dag
    for _ in range(rng.randint(0, 3)):
        cycle = rng.sample(range(n), rng.randint(1, min(n, 6)))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            adj[a] |= 1 << b
    if shape == "closed":
        adj = floyd_warshall_reach(n, adj)
        for _ in range(rng.randint(0, n)):
            adj[rng.randrange(n)] &= ~(1 << rng.randrange(n))
    for v in rng.sample(range(n), rng.randint(0, n // 4)):
        adj[v] = 0
        for u in range(n):
            adj[u] &= ~(1 << v)
    return adj


def assert_kernels_match_references(n: int, adj: list[int]) -> None:
    assert tarjan_scc(n, adj) == tarjan_scc_per_edge(n, adj)
    assert reach_masks(n, adj) == floyd_warshall_reach(n, adj)


@st.composite
def drawn_graphs(draw):
    n = draw(st.integers(1, 150))
    vertex = st.integers(0, n - 1)
    adj = [0] * n
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n)):
        adj[u] |= 1 << v
    for cycle in draw(st.lists(st.lists(vertex, min_size=1, max_size=8, unique=True),
                               max_size=4)):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            adj[a] |= 1 << b
    return n, adj


# Small histories of the benchmark's four shapes.
BENCHMARK_SHAPES = {
    "zipf-anomaly": WorkloadParams(sessions=6, txns_per_session=15, ops_per_txn=8, keys=300,
                                   dist="zipfian", profile="general"),
    "uniform": WorkloadParams(sessions=6, txns_per_session=40, ops_per_txn=4, keys=5_000,
                              dist="uniform", profile="general"),
    "hotspot-write": WorkloadParams(sessions=6, txns_per_session=15, ops_per_txn=6, keys=200,
                                    dist="hotspot", profile="write-heavy"),
    "rmw-chains": WorkloadParams(sessions=8, txns_per_session=15, ops_per_txn=3, keys=100,
                                 dist="zipfian", profile="rmw"),
}
INJECTED = ("long-fork", "lost-update", "causality-violation")


class TestKernelsMatchReferences:
    def test_seeded_random_graphs(self):
        rng = random.Random(2023)
        for _ in range(250):
            n = rng.randint(1, 150)
            assert_kernels_match_references(n, random_graph(rng, n))

    def test_isolated_vertices_and_self_loops(self):
        adj = adj_from_edges(5, [(1, 1), (3, 4), (4, 3)])
        assert tarjan_scc(5, adj) == [[0], [1], [2], [3, 4]]
        assert reach_masks(5, adj) == [0, 0b10, 0, 0b11000, 0b11000]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(drawn_graphs())
    def test_drawn_graphs(self, graph):
        assert_kernels_match_references(*graph)

    def test_known_graphs_before_and_after_pruning(self):
        for shape, params in BENCHMARK_SHAPES.items():
            for seed in range(3):
                history = generate(dataclasses.replace(params, seed=seed))
                if shape == "zipf-anomaly":
                    history = inject(history, INJECTED[seed], seed)
                assert completeness_gate(history).ok()
                graph = build_polygraph(history)
                # RMW runs cover every writer of rmw-chains, so construct
                # leaves prune nothing to resolve there; elsewhere prune grows K.
                covered = all([tuple(sorted(run)) for run in graph.runs.get(key, ())] == [writers]
                              for key, writers in graph.writers.items() if len(writers) > 1)
                assert covered == (shape == "rmw-chains")
                before = KnownIndex(graph)
                assert_kernels_match_references(before.n, before.k_adj)
                if covered:
                    assert not graph.constraints
                outcome = prune_constraints(graph)
                after = outcome.index or KnownIndex(graph)
                assert (after.k_adj == before.k_adj) == covered
                assert_kernels_match_references(after.n, after.k_adj)


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
