"""Turn a raw witness cycle into an understandable minimal counterexample.

Stages, each kept as a snapshot:

  original      the dependencies of the witness cycle itself;
  participants  the cycle extended to a minimal complete cycle cluster plus,
                for every read-overwrite edge, the supporting writer with its
                write-order and writer-reader context (missing transactions
                appear here);
  recovered     uncertainty resolved: whenever one branch of a constraint
                would close an undesired cycle with already-certain
                dependencies, that branch's dependencies are dropped and the
                opposite branch's become certain, to a fixpoint;
  final         all still-uncertain dependencies removed.

A cycle cluster is a set of undesired cycles linked through opposite branches
of shared constraints; it is complete when every constraint it touches
contributes edges from both branches or from neither. The search extends the
witness cycle with the fewest possible dependencies, so within budget the
returned cluster is a smallest complete one containing the cycle.
The edge universe the cluster search walks is the one labeled view of a
polygraph's edges: the pruner and the solver label their witnesses' known
pairs from it too (`EdgeUniverse.known_dep`).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import BudgetExceededError, MissingSupportError
from .histories import INIT_TXN, TxnId, txn_label
from .polygraph import (
    EITHER, OR, RW, SO, WR, WW, ConstraintKey, Edge, Polygraph, branch_edges, branch_ends,
    forced_edges, owning_branch,
)
from .witness import KNOWN_ORIGIN, Origin, WitnessCycle, has_adjacent_rw, known_origin

CERTAIN = "certain"
UNCERTAIN = "uncertain"

STAGES = ("original", "participants", "recovered", "final")

# Exhaustiveness caps for cycle enumeration on large graphs; when a search
# hits one of them the minimality flag is withdrawn but the result stands.
DEFAULT_MAX_CYCLE_LEN = 10
DEFAULT_MAX_CYCLES_PER_DEP = 128


@dataclass(slots=True)
class TaggedDependency:
    edge: Edge
    origin: Origin  # ("known",) or ("branch", constraint id, branch)
    tag: str = UNCERTAIN
    support: bool = False  # True for read-overwrite context added afterwards

    def copy(self) -> "TaggedDependency":
        return replace(self)


Scenario = dict[Edge, TaggedDependency]


@dataclass(slots=True)
class CycleCluster:
    cycles: list[tuple[Edge, ...]]
    complete: bool

    def dependencies(self) -> set[Edge]:
        return {e for cycle in self.cycles for e in cycle}

    def dependency_count(self) -> int:
        return len(self.dependencies())


@dataclass(slots=True)
class Counterexample:
    classification: str
    minimal: bool
    cluster: CycleCluster
    cycle: WitnessCycle
    stages: dict[str, list[TaggedDependency]]
    recovered_txns: tuple[TxnId, ...]

    def stage_edges(self, stage: str) -> set[Edge]:
        return {dep.edge for dep in self.stages[stage]}


class EdgeUniverse:
    """Every labeled edge the polygraph can realize, with ownership.

    Each open constraint's branch edges belong to that branch alone, and no
    known edge coincides with one, so ownership is computed from the edge.
    A vertex's sorted successor list is built the first time it is asked
    for: most of the universe is never read by the cluster search. The
    same lists label the known pairs of the pruner's and the solver's
    witness cycles (`known_dep`).
    """

    def __init__(self, graph: Polygraph, reopened: bool = False):
        self.graph = graph
        # With `reopened`, the writer pairs prune resolved read as open, so
        # the universe is that of the graph construct built (see `interpret`).
        self.reopened = reopened
        self._known_out: dict[TxnId, list[Edge]] = {}
        for edge in graph.known_edges:
            self._known_out.setdefault(edge[0], []).append(edge)
        # Per vertex, the (key, source writer, label) of its branch edges:
        # WW from each key it writes, RW from each key it reads.
        self._sources: dict[TxnId, list[tuple[str, TxnId, str]]] = {}
        for key, writers in graph.writers.items():
            for writer in writers:
                self._sources.setdefault(writer, []).append((key, writer, WW))
        for (key, reader), writer in graph.read_from.items():
            self._sources.setdefault(reader, []).append((key, writer, RW))
        # The (run, position) of each RMW run member, keyed (key, member).
        self._run_at = {(key, writer): (run, at) for key, runs in graph.runs.items()
                        for run in runs for at, writer in enumerate(run)}
        self._succ: dict[TxnId, list[Edge]] = {}

    @cached_property
    def known(self) -> set[Edge]:
        """The known edges but the initial writer's own: the listed ones and
        those of the pairs construct ordered (`forced_edges`)."""
        graph = self.graph
        return {*graph.known_edges, *(edge for key in graph.writers
                                      for edge in forced_edges(graph, key))}

    def successors(self, vertex: TxnId) -> list[Edge]:
        """Sorted out-edges of `vertex`, built on first request: its listed
        edges, a WW edge to every other writer of each key it writes and an
        RW edge to every writer but its source of each key it reads, where
        the constraint of those two writers is open or puts the source
        first: construct ordered them (the source is the initial writer, or
        the other writer follows it in one RMW run), or prune resolved them
        so; a resolved pair of a reopened universe counts as open."""
        succ = self._succ.get(vertex)
        if succ is None:
            graph, run_at, reopened = self.graph, self._run_at, self.reopened
            constraints, resolved = graph.constraints, graph.resolved
            edges = set(self._known_out.get(vertex, ()))  # a graph may list a forced edge
            for key, source, label in self._sources.get(vertex, ()):
                initial, ahead = source == INIT_TXN, run_at.get((key, source))
                for other in graph.writers.get(key, ()):
                    # No self-loop; other == source is neither an open pair
                    # nor an ordered one.
                    if other != vertex and (
                            initial or (cid := _constraint_of(key, source, other)) in constraints
                            or (kept := resolved.get(cid)) is not None and (
                                reopened or kept == (EITHER if source < other else OR))
                            or ahead is not None and _follows(ahead, run_at.get((key, other)))):
                        edges.add((vertex, other, label, key))
            succ = self._succ[vertex] = sorted(edges)
        return succ

    def known_dep(self, u: TxnId, v: TxnId, rw: bool) -> tuple[Edge, Origin] | None:
        """The lowest known edge on pair (u, v), RW when `rw` and of another
        label otherwise, with its origin, or None when there is none. The
        successor order puts SO before WR before WW, and keys in ascending
        order within a label; a known edge is one no open constraint owns."""
        succ = self.successors(u)
        for at in range(bisect_left(succ, (u, v)), len(succ)):
            edge = succ[at]
            if edge[1] != v:
                break
            if (edge[2] == RW) == rw and self.origin_of(edge) == KNOWN_ORIGIN:
                return edge, known_origin(self.graph, edge)
        return None

    def origin_of(self, edge: Edge) -> Origin:
        """The owning branch of a branch edge of an open pair, else the
        known origin."""
        graph = self.graph
        owner = owning_branch(graph, edge)
        if owner is None or owner[0] not in graph.constraints and not (
                self.reopened and owner[0] in graph.resolved):
            return KNOWN_ORIGIN
        return ("branch", *owner)

    def tagged(self, edge: Edge, support: bool = False) -> TaggedDependency:
        """The edge with its origin, certain exactly when it is known."""
        origin = self.origin_of(edge)
        tag = CERTAIN if origin == KNOWN_ORIGIN else UNCERTAIN
        return TaggedDependency(edge, origin, tag, support)


def _constraint_of(key: str, a: TxnId, b: TxnId) -> ConstraintKey:
    return (key, a, b) if a < b else (key, b, a)


def _follows(ahead: tuple, behind: tuple | None) -> bool:
    """Is the run member at (run, position) `behind` later in the same run
    than the one at `ahead`?"""
    return behind is not None and behind[0] is ahead[0] and ahead[1] < behind[1]


def undesired_cycles(
    successors: Callable[[TxnId], Sequence[Edge]],
    edge: Edge,
    max_len: int,
    max_count: int,
) -> tuple[list[tuple[Edge, ...]], bool]:
    """Undesired simple cycles starting with `edge` over sorted successor lists.

    Iterative DFS over simple paths edge.dst -> edge.src, lowest successor
    first; cycles are collected until an expansion brings their count to
    `max_count`. Returns (cycles, capped); capped is True when a further
    cycle exists or a path longer than `max_len` was left unexplored. Past
    the count the search goes on, collecting nothing, until either shows.
    """
    cycles: list[tuple[Edge, ...]] = []
    capped = False
    target = edge[0]
    stack: list[tuple[TxnId, tuple[Edge, ...], frozenset[TxnId]]] = [
        (edge[1], (edge,), frozenset((edge[0], edge[1])))
    ]
    while stack:
        vertex, path, visited = stack.pop()
        full = len(cycles) >= max_count
        if full and capped:
            break
        for nxt in reversed(successors(vertex)):
            dst = nxt[1]
            if dst == target:
                cycle = path + (nxt,)
                if not has_adjacent_rw(cycle):
                    if full:
                        return cycles, True
                    cycles.append(cycle)
                continue
            if dst in visited:
                continue
            if len(path) + 1 >= max_len:
                capped = True
                continue
            stack.append((dst, path + (nxt,), visited | {dst}))
    return cycles, capped


def _first_gap(universe: EdgeUniverse, deps: set[Edge]) -> tuple[ConstraintKey, str] | None:
    """The lowest constraint covered on one side only, with its missing branch."""
    cover: dict[ConstraintKey, set[str]] = {}
    for edge in deps:
        origin = universe.origin_of(edge)
        if origin[0] == "branch":
            cover.setdefault(origin[1], set()).add(origin[2])
    for cid in sorted(cover):
        branches = cover[cid]
        if len(branches) == 1:
            present = next(iter(branches))
            return cid, (OR if present == EITHER else EITHER)
    return None


def find_cluster(
    universe: EdgeUniverse,
    cycle_edges: tuple[Edge, ...],
    deadline: float | None = None,
    max_len: int = DEFAULT_MAX_CYCLE_LEN,
    max_cycles_per_dep: int = DEFAULT_MAX_CYCLES_PER_DEP,
) -> tuple[CycleCluster, bool]:
    """Smallest complete cycle cluster containing the given cycle.

    Branch-and-bound: repeatedly pick the first constraint covered on one
    side only and try every undesired cycle through each missing-branch
    dependency, keeping the completion that adds the fewest dependencies.
    Returns (cluster, exhaustive); exhaustive is False when an enumeration
    cap was hit. Raises BudgetExceededError when out of time with no
    complete cluster found; if some complete cluster was found by then, the
    best one so far is returned instead.
    """
    graph = universe.graph
    best: list[tuple[Edge, ...]] | None = None
    best_count: int | None = None
    seen: set[frozenset[Edge]] = set()
    out_of_time = False
    capped = False

    def search(cycles: list[tuple[Edge, ...]], deps: frozenset[Edge]) -> None:
        nonlocal best, best_count, out_of_time, capped
        if out_of_time:
            return
        if deadline is not None and time.monotonic() > deadline:
            out_of_time = True
            return
        if best_count is not None and len(deps) >= best_count:
            return
        gap = _first_gap(universe, deps)
        if gap is None:
            best, best_count = list(cycles), len(deps)
            return
        cid, missing = gap
        for dep in branch_edges(graph, *branch_ends(cid, missing)):
            through, dep_capped = undesired_cycles(
                universe.successors, dep, max_len, max_cycles_per_dep
            )
            capped |= dep_capped
            for cyc in sorted(through, key=lambda c: (len(c), c)):
                new = deps | set(cyc)
                key = frozenset(new)
                if key in seen:
                    continue
                seen.add(key)
                cycles.append(cyc)
                search(cycles, frozenset(new))
                cycles.pop()

    try:
        search([cycle_edges], frozenset(cycle_edges))
    finally:
        # `search` reaches itself through its closure cell; emptying the cell
        # leaves no reference cycle, so the universe and graph it holds are
        # freed by reference counting when the call returns.
        del search
    if best is None:
        if out_of_time:
            raise BudgetExceededError("cluster search budget exhausted")
        # No completion exists within the caps; fall back to the bare cycle.
        return CycleCluster([cycle_edges], complete=False), False
    exhaustive = not (capped or out_of_time)
    return CycleCluster(best, complete=True), exhaustive


def restore_rw_context(scenario: Scenario, universe: EdgeUniverse) -> Scenario:
    """Add, for each read-overwrite edge, its supporting writer's edges.

    An edge reader -RW(k)-> overwriter exists because some writer w gave the
    reader its value of k and w precedes the overwriter in the version order;
    the w -WW(k)-> overwriter and w -WR(k)-> reader dependencies (and w
    itself) are brought in when missing.
    """
    graph = universe.graph
    for edge in sorted(e for e in scenario if e[2] == RW):
        reader, overwriter, _, key = edge
        writer = graph.read_from.get((key, reader))
        if writer is None:
            raise MissingSupportError(
                f"{txn_label(reader)} has no read of {key!r} to support an RW edge"
            )
        ww: Edge = (writer, overwriter, WW, key)
        wr: Edge = (writer, reader, WR, key)
        for support in (ww, wr):
            if support not in scenario:
                scenario[support] = universe.tagged(support, support=True)
    return scenario


def _certain_cycle_exists(edge: Edge, scenario: Scenario, max_len: int = 12) -> bool:
    """Does `edge` close an undesired cycle whose other deps are all certain?"""
    succ: dict[TxnId, list[Edge]] = {}
    for e, dep in scenario.items():
        if dep.tag == CERTAIN:
            succ.setdefault(e[0], []).append(e)
    for edges in succ.values():
        edges.sort()
    cycles, _ = undesired_cycles(lambda v: succ.get(v, ()), edge, max_len, 1)
    return bool(cycles)


def resolve_uncertain(scenario: Scenario) -> Scenario:
    """Eliminate impossible branches and certify their opposites, to a fixpoint.

    When an uncertain dependency would close an undesired cycle together with
    certain dependencies alone, its branch cannot hold: the branch's
    dependencies leave the scenario and the opposite branch's become certain.
    """
    changed = True
    while changed:
        changed = False
        for edge in sorted(scenario):
            dep = scenario[edge]
            if dep.tag != UNCERTAIN or dep.origin[0] != "branch":
                continue
            if not _certain_cycle_exists(edge, scenario):
                continue
            cid, dead_branch = dep.origin[1], dep.origin[2]
            for other_edge in sorted(scenario):
                other = scenario[other_edge]
                if other.origin[0] == "branch" and other.origin[1] == cid:
                    if other.origin[2] == dead_branch:
                        del scenario[other_edge]
                    else:
                        other.tag = CERTAIN
            changed = True
            break
    return scenario


def finalize(scenario: Scenario) -> Scenario:
    """Drop every remaining uncertain dependency."""
    return {e: d for e, d in scenario.items() if d.tag == CERTAIN}


def classify(cycle: WitnessCycle, participant_edges: set[Edge], graph: Polygraph) -> str:
    """Deterministic anomaly label; the verdict never depends on it.

    Lost update: some pair is ordered by a write-order edge yet the later
    writer's read is overwritten by the earlier one, both having read the
    same predecessor's value of the key. Long fork: the witness cycle has
    two non-adjacent read-overwrite edges. Causality violation: the witness
    cycle needs a session-order edge.
    """
    for edge in sorted(participant_edges):
        x, y, label, key = edge
        if label != WW or x == INIT_TXN:
            continue
        if (y, x, RW, key) in participant_edges:
            source_x = graph.read_from.get((key, x))
            source_y = graph.read_from.get((key, y))
            if source_x is not None and source_x == source_y:
                return "lost-update"
    if cycle.rw_count() >= 2 and cycle.has_nonadjacent_rw_pair():
        return "long-fork"
    if any(e[2] == SO for e in cycle.edges()):
        return "causality-violation"
    return "unclassified"


def interpret(
    history,  # History; unused, kept for the benchmark's traced run, as Solver's _encoding is
    graph: Polygraph,
    cycle: WitnessCycle,
    budget_ms: int | None = None,
) -> Counterexample:
    """Build the four-stage counterexample for a violation cycle.

    `graph` may be the polygraph at any stage: its edge universe reads the
    writer pairs prune resolved as open (`EdgeUniverse(reopened=True)`), so
    the explanation is over the unpruned graph (prune lists no edge, so that
    is the graph construct built), and origins recorded by the pruner or the
    solver are re-derived here.
    """
    universe = EdgeUniverse(graph, reopened=True)
    max_len = max(DEFAULT_MAX_CYCLE_LEN, min(len(graph.vertices), 16))
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0

    cycle_edges = tuple(cycle.edges())
    original = {e: universe.tagged(e) for e in cycle_edges}

    minimal = True
    try:
        cluster, exhaustive = find_cluster(
            universe, cycle_edges, deadline, max_len, DEFAULT_MAX_CYCLES_PER_DEP
        )
        minimal = cluster.complete and exhaustive
    except BudgetExceededError:
        cluster = CycleCluster([cycle_edges], complete=False)
        minimal = False

    scenario: Scenario = {}
    for cyc in cluster.cycles:
        for e in cyc:
            if e not in scenario:
                scenario[e] = universe.tagged(e)
    restore_rw_context(scenario, universe)
    participants = _snapshot(scenario)
    participant_edges = set(scenario)

    resolve_uncertain(scenario)
    recovered = _snapshot(scenario)

    final_scenario = finalize(scenario)
    final = _snapshot(final_scenario)

    cycle_txns = {t for e in cycle_edges for t in (e[0], e[1])}
    participant_txns = {t for e in participant_edges for t in (e[0], e[1])}
    recovered_txns = tuple(sorted(participant_txns - cycle_txns))

    return Counterexample(
        classification=classify(cycle, participant_edges, graph),
        minimal=minimal,
        cluster=cluster,
        cycle=cycle,
        stages={
            "original": _snapshot(original),
            "participants": participants,
            "recovered": recovered,
            "final": final,
        },
        recovered_txns=recovered_txns,
    )


def _snapshot(scenario: Scenario) -> list[TaggedDependency]:
    return [scenario[e].copy() for e in sorted(scenario)]


def render_dot(ce: Counterexample, stage: str = "final") -> str:
    """Deterministic Graphviz text for one stage of the counterexample."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    deps = ce.stages[stage]
    recovered = set(ce.recovered_txns)
    nodes = sorted({t for dep in deps for t in (dep.edge[0], dep.edge[1])})
    lines = ["digraph counterexample {"]
    for node in nodes:
        attrs = ['shape=box']
        if node in recovered:
            attrs.append("color=green")
        lines.append(f'  "{txn_label(node)}" [{", ".join(attrs)}];')
    for dep in deps:
        src, dst, label, key = dep.edge
        text = label if key is None else f"{label}({key})"
        text = text.replace("\\", "\\\\").replace('"', '\\"')  # a key may hold either
        style = "solid" if dep.tag == CERTAIN else "dashed"
        lines.append(
            f'  "{txn_label(src)}" -> "{txn_label(dst)}" [label="{text}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
