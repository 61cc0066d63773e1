"""Test-support machinery: tiny random histories and a minimality oracle.

The random generator produces arbitrary histories, valid or not, within the
given bounds; reads draw from the values actually written somewhere in the
history (or 0), biased toward keys with several writers so that write-order
uncertainty is exercised. A corruption rate deliberately plants internal
inconsistencies, aborted reads, and intermediate reads.

The minimality oracle independently enumerates every complete cycle cluster
containing a given cycle by exhaustive expansion and returns the smallest
dependency count, as a cross-check for the explainer's branch-and-bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from sicheck.errors import LimitExceededError
from sicheck.histories import ABORTED, COMMITTED, History, Operation, Transaction, serialize_history
from sicheck.polygraph import Edge, Polygraph, branch_edges, branch_ends, forced_edges
from sicheck.explain import EdgeUniverse, _first_gap
from sicheck.witness import has_adjacent_rw


@dataclass(frozen=True, slots=True)
class HistoryBounds:
    max_sessions: int = 3
    max_txns: int = 8
    max_keys: int = 4
    max_writers_per_key: int = 4
    max_ops_per_txn: int = 4
    abort_pct: int = 10
    corruption_pct: int = 8


def known_edges(graph: Polygraph) -> set[Edge]:
    """The known edges of a graph but the initial writer's own: the listed
    ones and those of the pairs construct ordered (`forced_edges`)."""
    return {*graph.known_edges, *(edge for key in graph.writers
                                  for edge in forced_edges(graph, key))}


def random_small_history(seed: int, bounds: HistoryBounds | None = None) -> History:
    """Arbitrary (not necessarily valid) history, deterministic per seed."""
    bounds = bounds or HistoryBounds()
    rng = random.Random(seed)
    n_sessions = rng.randint(1, bounds.max_sessions)
    n_txns = rng.randint(2, bounds.max_txns)
    n_keys = rng.randint(1, bounds.max_keys)
    keys = [f"k{i}" for i in range(n_keys)]

    session_of = [rng.randrange(n_sessions) for _ in range(n_txns)]
    statuses = [
        ABORTED if rng.randrange(100) < bounds.abort_pct else COMMITTED for _ in range(n_txns)
    ]

    # Phase 1: op skeletons; writes get concrete unique values immediately.
    value_counter = 0
    writers_per_key: dict[str, set[int]] = {k: set() for k in keys}
    skeletons: list[list[tuple[str, str, int | None]]] = []
    writes_by_key: dict[str, list[tuple[int, int, bool]]] = {k: [] for k in keys}
    for t in range(n_txns):
        ops: list[tuple[str, str, int | None]] = []
        for _ in range(rng.randint(1, bounds.max_ops_per_txn)):
            write_keys = [
                k for k in keys
                if t in writers_per_key[k] or len(writers_per_key[k]) < bounds.max_writers_per_key
            ]
            if rng.random() < 0.55 and write_keys:
                # Bias toward keys that already have writers.
                contested = [k for k in write_keys if writers_per_key[k]]
                pool = contested if contested and rng.random() < 0.7 else write_keys
                key = pool[rng.randrange(len(pool))]
                value_counter += 1
                ops.append(("w", key, value_counter))
                writers_per_key[key].add(t)
            else:
                ops.append(("r", keys[rng.randrange(n_keys)], None))
        skeletons.append(ops)

    for t, ops in enumerate(skeletons):
        last: dict[str, int] = {}
        for kind, key, value in ops:
            if kind == "w":
                last[key] = value  # type: ignore[assignment]
        for kind, key, value in ops:
            if kind == "w":
                writes_by_key[key].append((t, value, value == last[key]))  # type: ignore[arg-type]

    # Phase 2: fill read values, internally consistent unless corrupted.
    txns: list[list[Transaction]] = [[] for _ in range(n_sessions)]
    for t, ops in enumerate(skeletons):
        seen: dict[str, int] = {}
        final_ops: list[Operation] = []
        for kind, key, value in ops:
            if kind == "w":
                final_ops.append(Operation("w", key, value))  # type: ignore[arg-type]
                seen[key] = value  # type: ignore[assignment]
                continue
            corrupt = rng.randrange(100) < bounds.corruption_pct
            if key in seen and not corrupt:
                read_value = seen[key]
            else:
                others = [(v, fin, statuses[w]) for (w, v, fin) in writes_by_key[key] if w != t]
                clean = [v for v, fin, status in others if fin and status == COMMITTED]
                dirty = [v for v, fin, status in others if not fin or status != COMMITTED]
                pool = [0] + (dirty if corrupt and dirty else clean)
                if not corrupt and clean and rng.random() < 0.85:
                    read_value = clean[rng.randrange(len(clean))]
                else:
                    read_value = pool[rng.randrange(len(pool))]
                seen.setdefault(key, read_value)
            final_ops.append(Operation("r", key, read_value))
        sid = session_of[t]
        txns[sid].append(Transaction((sid, len(txns[sid])), statuses[t], tuple(final_ops)))

    return History.build([(sid, session) for sid, session in enumerate(txns)])


def minimal_counterexample_size(
    graph: Polygraph,
    cycle_edges: tuple[Edge, ...],
    max_cycles: int = 20_000,
    max_states: int = 200_000,
) -> int:
    """Smallest dependency count over complete cycle clusters containing the cycle.

    Exhaustive expansion over the full undesired-cycle universe of the graph;
    independent of the explainer's bounded branch-and-bound search.
    """
    universe = EdgeUniverse(graph)
    all_cycles = _all_undesired_cycles(universe, max_cycles)

    start = frozenset(cycle_edges)
    best: int | None = None
    seen: set[frozenset[Edge]] = {start}
    frontier: list[frozenset[Edge]] = [start]
    states = 0
    while frontier:
        deps = frontier.pop()
        states += 1
        if states > max_states:
            raise LimitExceededError("cluster state space too large")
        if best is not None and len(deps) >= best:
            continue
        gap = _first_gap(universe, set(deps))
        if gap is None:
            best = len(deps)
            continue
        cid, missing = gap
        missing_edges = set(branch_edges(universe.graph, *branch_ends(cid, missing)))
        for cyc in all_cycles:
            if not missing_edges.intersection(cyc):
                continue
            new = deps | set(cyc)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    if best is None:
        raise LimitExceededError("no complete cluster found within caps")
    return best


def _all_undesired_cycles(universe: EdgeUniverse, max_cycles: int) -> list[tuple[Edge, ...]]:
    """All simple undesired cycles of the full edge universe.

    Each cycle is found once, rooted at its smallest vertex; cycles may mix
    edges from both branches of one constraint (the cluster completeness rule
    relies on such two-edge write-order cycles).
    """
    cycles: list[tuple[Edge, ...]] = []
    for root in sorted(universe.graph.vertices):
        stack: list[tuple[object, tuple[Edge, ...], frozenset]] = [(root, (), frozenset((root,)))]
        while stack:
            vertex, path, visited = stack.pop()
            for edge in reversed(universe.successors(vertex)):
                dst = edge[1]
                if dst == root:
                    cycle = path + (edge,)
                    if not has_adjacent_rw(cycle):
                        cycles.append(cycle)
                        if len(cycles) > max_cycles:
                            raise LimitExceededError("cycle universe too large")
                    continue
                if dst < root or dst in visited:
                    continue
                stack.append((dst, path + (edge,), visited | {dst}))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def record_failure(suite: str, seed: int, history: History,
                   base: Path | str = Path(__file__).parent / "corpus") -> Path:
    """Persist a failing seed's history for regression under tests/corpus/<suite>/."""
    directory = Path(base) / suite
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{seed}.json"
    path.write_bytes(serialize_history(history))
    return path
