"""Boolean encoding of a pruned polygraph.

Edge variables live at pair granularity in two layers: the polygraph layer
(an edge of any label between two transactions) and the induced layer (an
edge of the composed graph whose acyclicity decides the verdict). Both are
read off one known-graph index, that of the polygraph with both branches of
every open constraint folded in as branch records, as prune folds a resolved
one: its A and B rows together are the polygraph layer, its K rows the
induced layer. Known edges, listed and derived (`creation_order`),
contribute unit clauses; every
surviving constraint contributes one exactly-one-branch clause; each
supported induced pair gets a definitional clause tying it to a direct
A-layer edge or to the A-then-RW compositions through the middles
`a_adj[i] & b_pred[j]`, where `b_pred` is the transpose of the index's B rows.

Variables are created only for pairs that can carry an edge. Unsupported
induced variables would be identically false, so they are never created;
at ten thousand transactions the dense pair square would be a hundred
million variables, almost all of them dead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import IO

from .graphs import iter_bits, transpose
from .histories import INIT_TXN
from .polygraph import (
    EITHER, OR, SO, WR, WW, ConstraintKey, Edge, Polygraph, branch_ends, forced_edges,
    resolved_edges,
)
from .pruning import KnownIndex

Pair = tuple[int, int]


@dataclass(slots=True)
class Encoding:
    # The polygraph's index with both branches of every open constraint folded in.
    index: KnownIndex
    # The polygraph's known edges, the derived ones of the initial writer and
    # of the resolved branches too, unit-true, in creation order (`creation_order`).
    known_edges: list[Edge]
    # Per open constraint, in id order: the pairs of its either and its or branch.
    clauses: list[tuple[list[Pair], list[Pair]]]
    pair_count: int
    induced_count: int
    b_pred: list[int] | None = None  # B transposed, built by the first `induced_definition`

    def induced_definition(self, i: int, j: int) -> tuple[bool, list[int]]:
        """(has direct A-layer support, middle vertices of A∘RW compositions)."""
        if self.b_pred is None:
            self.b_pred = transpose(self.index.b_adj)
        a_row = self.index.a_adj[i]
        return bool((a_row >> j) & 1), list(iter_bits(a_row & self.b_pred[j]))


def _branch_pairs(index: KnownIndex, cid: ConstraintKey, branch: str) -> list[Pair]:
    s, d, readers = index.branch(cid, branch)
    return [(s, d), *((r, d) for r in readers if r != d)]


def creation_order(graph: Polygraph) -> list[Edge]:
    """The known edges with the derived ones merged back in where construct
    and prune once listed them: the session-order edges; the WR edges in
    `read_from` order, the initial writer's among them; per key, each
    writer's init -WW-> edge followed by the RW edges from the key's
    initial readers to it, then the key's run edges (`forced_edges`); then
    the edges of the branches prune resolved, in resolution order
    (`resolved_edges`).
    """
    listed = iter(graph.known_edges)
    sessions = next((i for i, e in enumerate(graph.known_edges) if e[2] != SO),
                    len(graph.known_edges))
    edges = list(islice(listed, sessions))
    for (key, reader), writer in graph.read_from.items():
        edges.append((INIT_TXN, reader, WR, key) if writer == INIT_TXN else next(listed))
    for key, writers in graph.writers.items():
        forced = iter(forced_edges(graph, key))
        init_readers = graph.readers.get((key, INIT_TXN), ())
        for writer in writers:
            edges.append((INIT_TXN, writer, WW, key))
            edges += islice(forced, len(init_readers) - (writer in init_readers))
        edges += forced
    return edges + resolved_edges(graph)


def encode(graph: Polygraph) -> Encoding:
    """Build the Boolean views of a (typically pruned) polygraph."""
    constraints = sorted(graph.constraints)
    index = KnownIndex(graph)
    index.fold_branches(branch_ends(cid, branch) for cid in constraints for branch in (EITHER, OR))
    return Encoding(
        index=index,
        known_edges=creation_order(graph),
        clauses=[(_branch_pairs(index, cid, EITHER), _branch_pairs(index, cid, OR))
                 for cid in constraints],
        pair_count=sum((a | b).bit_count() for a, b in zip(index.a_adj, index.b_adj)),
        induced_count=sum(row.bit_count() for row in index.k_adj),
    )


def _pairs(rows: Iterable[int]) -> Iterator[Pair]:
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            yield i, j


def _atom(layer: str, i: int, j: int) -> str:
    name = "p" if layer == "polygraph" else "I"
    return f"({name} {i} {j})"


def branch_clause_text(clause: tuple[list[Pair], list[Pair]]) -> str:
    """(⋀ either ∧ ⋀ ¬or) ∨ (⋀ or ∧ ⋀ ¬either) in prefix notation."""

    def side(pos: list[Pair], neg: list[Pair]) -> str:
        terms = [_atom("polygraph", i, j) for i, j in pos]
        terms += [f"(not {_atom('polygraph', i, j)})" for i, j in neg]
        return "(and " + " ".join(terms) + ")"

    either, or_ = clause
    return f"(or {side(either, or_)} {side(or_, either)})"


def induced_definition_text(enc: Encoding, i: int, j: int) -> str:
    direct, comps = enc.induced_definition(i, j)
    terms = []
    if direct:
        terms.append(_atom("polygraph", i, j))
    for m in comps:
        terms.append(f"(and {_atom('polygraph', i, m)} {_atom('polygraph', m, j)})")
    body = terms[0] if len(terms) == 1 else "(or " + " ".join(terms) + ")"
    return f"(= {_atom('induced', i, j)} {body})"


def export_encoding(enc: Encoding, sink: IO[bytes]) -> None:
    """Deterministic text dump of the variables, clauses, and the acyclicity goal.

    Layout: header; variables sorted by (layer, i, j); one `e` line per known
    labeled edge in creation order (unit truth of its pair), the initial
    writer's derived edges included (`creation_order`); one `c` line per
    constraint; one `d` line per supported induced pair; a trailer declaring
    the acyclicity obligation over the induced layer.
    """

    def out(line: str) -> None:
        sink.write((line + "\n").encode("utf-8"))

    index = enc.index
    out("si-encoding 1")
    for i, j in _pairs(a | b for a, b in zip(index.a_adj, index.b_adj)):
        out(f"v polygraph {i} {j}")
    for i, j in _pairs(index.k_adj):
        out(f"v induced {i} {j}")
    for src, dst, label, key in enc.known_edges:
        out(f"e {index.vindex[src]} {index.vindex[dst]} {label} {key if key is not None else '-'}")
    for clause in enc.clauses:
        out(f"c {branch_clause_text(clause)}")
    for i, j in _pairs(index.k_adj):
        out(f"d {induced_definition_text(enc, i, j)}")
    out("a induced")
