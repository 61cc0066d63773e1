"""Dependency-cycle witnesses shared by the pruner, solver, and explainer;
the pruner and the solver label their induced-graph paths by `path_deps`."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .graphs import iter_bits
from .histories import txn_label
from .polygraph import RW, Edge, Polygraph, owning_branch

# Where a dependency edge comes from:
#   ("known",)                    original session-order / writer-reader edge,
#                                 or a read-overwrite edge of an initial read
#   ("resolved", cid, branch)     known from the branch of writer pair cid that
#                                 prune kept, or that construct ordered in an
#                                 RMW run
#   ("branch", cid, branch)       taken from a still-open constraint branch
Origin = tuple


KNOWN_ORIGIN: Origin = ("known",)


def known_origin(graph: Polygraph, edge: Edge) -> Origin:
    """Origin of a known edge: resolved from a writer pair's branch (by
    prune, or by construct's RMW-run order), or known from the start."""
    owner = owning_branch(graph, edge)
    return KNOWN_ORIGIN if owner is None else ("resolved", *owner)


def k_middle(a_rows: list[int], b_rows: list[int], u: int, v: int) -> int | None:
    """How the induced graph holds pair (u, v): None when A holds it directly,
    else the lowest middle vertex m with A(u, m) and B(m, v)."""
    if (a_rows[u] >> v) & 1:
        return None
    for m in iter_bits(a_rows[u]):
        if (b_rows[m] >> v) & 1:
            return m
    raise AssertionError(f"({u},{v}) is not an edge of the induced graph")


def path_deps(a_rows: list[int], b_rows: list[int], path: Sequence[int],
              dep: Callable[[int, int, bool], tuple[Edge, Origin]]) -> list[tuple[Edge, Origin]]:
    """A vertex path of the induced graph as labeled dependencies: per pair
    (u, v), `dep(u, v, False)` when A holds it, else `dep(u, m, False)` and
    `dep(m, v, True)` for its lowest middle m (`k_middle`); True labels B."""
    deps = []
    for u, v in zip(path, path[1:]):
        m = k_middle(a_rows, b_rows, u, v)
        if m is None:
            deps.append(dep(u, v, False))
        else:
            deps += [dep(u, m, False), dep(m, v, True)]
    return deps


def has_adjacent_rw(cycle: Sequence[Edge]) -> bool:
    """Two RW dependencies in cyclically consecutive positions of a cycle."""
    n = len(cycle)
    if n < 2:
        return False
    return any(cycle[i][2] == RW and cycle[(i + 1) % n][2] == RW for i in range(n))


@dataclass(slots=True)
class WitnessCycle:
    """A closed sequence of labeled dependencies demonstrating a violation."""

    deps: list[tuple[Edge, Origin]]

    def edges(self) -> list[Edge]:
        return [d[0] for d in self.deps]

    def closed(self) -> bool:
        if not self.deps:
            return False
        edges = self.edges()
        return all(edges[i][1] == edges[(i + 1) % len(edges)][0] for i in range(len(edges)))

    def rw_count(self) -> int:
        return sum(1 for e in self.edges() if e[2] == RW)

    def has_nonadjacent_rw_pair(self) -> bool:
        edges = self.edges()
        positions = [i for i, e in enumerate(edges) if e[2] == RW]
        n = len(edges)
        for ai in range(len(positions)):
            for bi in range(ai + 1, len(positions)):
                a, b = positions[ai], positions[bi]
                if (b - a) % n != 1 and (a - b) % n != 1:
                    return True
        return False

    def canonical(self) -> "WitnessCycle":
        """Rotate so the lexicographically smallest dependency leads."""
        if not self.deps:
            return self
        start = min(range(len(self.deps)), key=lambda i: self.deps[i][0])
        return WitnessCycle(self.deps[start:] + self.deps[:start])

    def label(self) -> str:
        parts = []
        for (src, dst, label, key), _ in self.deps:
            tag = label if key is None else f"{label}({key})"
            parts.append(f"{txn_label(src)} -{tag}->")
        parts.append(txn_label(self.deps[0][0][0]))
        return " ".join(parts)
