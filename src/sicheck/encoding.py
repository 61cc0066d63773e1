"""Boolean encoding of a pruned polygraph.

Edge variables live at pair granularity in two layers: the polygraph layer
(an edge of any label between two transactions) and the induced layer (an
edge of the composed graph whose acyclicity decides the verdict). Known
edges contribute unit clauses; every surviving constraint contributes one
exactly-one-branch clause; each supported induced pair gets a definitional
clause tying it to a direct A-layer edge or an A-then-RW composition.

Variables are created only for pairs that can carry an edge. Unsupported
induced variables would be identically false, so they are never created;
at ten thousand transactions the dense pair square would be a hundred
million variables, almost all of them dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterator, NamedTuple

from .graphs import iter_bits
from .histories import TxnId
from .polygraph import EITHER, OR, RW, Edge, Polygraph


class EdgeVar(NamedTuple):
    layer: str  # "polygraph" | "induced"
    i: int
    j: int


@dataclass(slots=True)
class EncodedConstraint:
    either_edges: list[Edge]
    or_edges: list[Edge]
    either_pairs: list[tuple[int, int]]
    or_pairs: list[tuple[int, int]]


@dataclass(slots=True)
class Encoding:
    vindex: dict[TxnId, int]
    n: int
    # Known plus potential (constraint-branch) edges per layer, as bitmask rows.
    a_adj: list[int]
    b_adj: list[int]
    # Known pairs are unit-true.
    known_a_pairs: set[tuple[int, int]]
    known_edges: list[Edge]
    constraints: list[EncodedConstraint]
    pair_count: int = 0
    induced_count: int = 0
    _induced_rows: list[int] = field(default_factory=list)

    def pair_of(self, edge: Edge) -> tuple[int, int]:
        return (self.vindex[edge[0]], self.vindex[edge[1]])

    def polygraph_pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in iter_bits(self.a_adj[i] | self.b_adj[i]):
                yield (i, j)

    def induced_pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in iter_bits(self._induced_rows[i]):
                yield (i, j)

    def induced_definition(self, i: int, j: int) -> tuple[bool, list[int]]:
        """(has direct A-layer support, middle vertices of A∘RW compositions)."""
        direct = bool((self.a_adj[i] >> j) & 1)
        comps = [m for m in iter_bits(self.a_adj[i]) if (self.b_adj[m] >> j) & 1]
        return direct, comps

    def edge_vars(self) -> Iterator[EdgeVar]:
        """All variables, ordered by (layer, i, j) with the polygraph layer first."""
        for i, j in self.polygraph_pairs():
            yield EdgeVar("polygraph", i, j)
        for i, j in self.induced_pairs():
            yield EdgeVar("induced", i, j)


def encode(graph: Polygraph) -> Encoding:
    """Build the Boolean views of a (typically pruned) polygraph."""
    vertices = graph.vertices
    vindex = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    enc = Encoding(
        vindex=vindex,
        n=n,
        a_adj=[0] * n,
        b_adj=[0] * n,
        known_a_pairs=set(),
        known_edges=list(graph.known_edges),
        constraints=[],
    )

    def add(edge: Edge, known: bool) -> None:
        i, j = vindex[edge[0]], vindex[edge[1]]
        if edge[2] == RW:
            enc.b_adj[i] |= 1 << j
        else:
            enc.a_adj[i] |= 1 << j
            if known:
                enc.known_a_pairs.add((i, j))

    for edge in graph.known_edges:
        add(edge, known=True)

    for cid in sorted(graph.constraints):
        cons = graph.constraints[cid]
        either_edges = cons.edges(graph, EITHER)
        or_edges = cons.edges(graph, OR)
        for edge in either_edges + or_edges:
            add(edge, known=False)
        enc.constraints.append(
            EncodedConstraint(
                either_edges=either_edges,
                or_edges=or_edges,
                either_pairs=[(vindex[e[0]], vindex[e[1]]) for e in either_edges],
                or_pairs=[(vindex[e[0]], vindex[e[1]]) for e in or_edges],
            )
        )

    rows = []
    pair_count = 0
    induced_count = 0
    for i in range(n):
        row = enc.a_adj[i]
        for m in iter_bits(enc.a_adj[i]):
            row |= enc.b_adj[m]
        rows.append(row)
        pair_count += (enc.a_adj[i] | enc.b_adj[i]).bit_count()
        induced_count += row.bit_count()
    enc._induced_rows = rows
    enc.pair_count = pair_count
    enc.induced_count = induced_count
    return enc


def _atom(layer: str, i: int, j: int) -> str:
    name = "p" if layer == "polygraph" else "I"
    return f"({name} {i} {j})"


def branch_clause_text(ec: EncodedConstraint) -> str:
    """(⋀ either ∧ ⋀ ¬or) ∨ (⋀ or ∧ ⋀ ¬either) in prefix notation."""

    def side(pos: list[tuple[int, int]], neg: list[tuple[int, int]]) -> str:
        terms = [_atom("polygraph", i, j) for i, j in pos]
        terms += [f"(not {_atom('polygraph', i, j)})" for i, j in neg]
        return "(and " + " ".join(terms) + ")"

    return f"(or {side(ec.either_pairs, ec.or_pairs)} {side(ec.or_pairs, ec.either_pairs)})"


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
    labeled edge in creation order (unit truth of its pair); one `c` line per
    constraint; one `d` line per supported induced pair; a trailer declaring
    the acyclicity obligation over the induced layer.
    """

    def out(line: str) -> None:
        sink.write((line + "\n").encode("utf-8"))

    out("si-encoding 1")
    for var in enc.edge_vars():
        out(f"v {var.layer} {var.i} {var.j}")
    for edge in enc.known_edges:
        i, j = enc.pair_of(edge)
        out(f"e {i} {j} {edge[2]} {edge[3] if edge[3] is not None else '-'}")
    for ec in enc.constraints:
        out(f"c {branch_clause_text(ec)}")
    for i, j in enc.induced_pairs():
        out(f"d {induced_definition_text(enc, i, j)}")
    out("a induced")
