"""Acyclicity-aware search over constraint branches.

Each open constraint is one binary decision: take its either branch or its
or branch. The search state is the known-graph index's rows, which assigned
branch edges extend and an undo trail restores: an incrementally maintained
induced graph (direct non-RW edges plus non-RW∘RW compositions, at pair
granularity) whose topological order is repaired on every insertion; a
failed repair is a conflict, analyzed into the set of contributing
decisions for backjumping.
The search is exhaustive: unsat is only reported once every branch
combination is covered by recorded conflicts, never on budget exhaustion,
which raises instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .graphs import find_cycle, iter_bits, tarjan_scc
from .polygraph import EITHER, OR, RW, ConstraintKey, Edge, Polygraph
from .pruning import KnownIndex, k_middle, known_origin
from .witness import Origin, WitnessCycle, has_adjacent_rw


@dataclass(slots=True)
class SolveResult:
    status: str  # "sat" | "unsat"
    assignment: dict[ConstraintKey, str] | None = None
    cycle: WitnessCycle | None = None
    decisions: int = 0
    conflicts: int = 0


class _Conflict(Exception):
    def __init__(self, cycle: WitnessCycle, culprit_decisions: set[ConstraintKey]):
        self.cycle = cycle
        self.culprits = culprit_decisions


@dataclass(slots=True)
class _Frame:
    cid: ConstraintKey
    branches_left: list[str]
    branch: str | None = None
    trail_mark: int = 0
    conflict_union: set[ConstraintKey] = field(default_factory=set)


class Solver:
    def __init__(
        self,
        graph: Polygraph,
        _encoding: object = None,
        budget_ms: int | None = None,
        max_decisions: int | None = None,
        index: KnownIndex | None = None,
    ):
        # The second parameter is ignored: the benchmark's traced run still
        # passes an encoding here. It goes with the next change to the
        # benchmark, as `interpret`'s `history` does.
        self.graph = graph
        # The known-graph index is only read here, so a supplied one (the
        # pruner's final index of this graph) is used as it is.
        self.known = KnownIndex(graph) if index is None else index
        self.n = self.known.n
        self.vindex = self.known.vindex
        # Decision order is the sorted constraint ids; each branch's edges
        # are built once, not once per decision.
        self.constraints = [graph.constraints[cid] for cid in sorted(graph.constraints)]
        self.branch_edges = [
            {EITHER: cons.edges(graph, EITHER), OR: cons.edges(graph, OR)}
            for cons in self.constraints
        ]
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.max_decisions = max_decisions
        self.decisions = 0
        self.conflicts = 0

        # Search state: the index's level-0 rows, extended by the assigned
        # branch edges. Only the lists are copied; the index is not modified.
        self.a_rows = list(self.known.a_adj)
        self.b_rows = list(self.known.b_adj)
        self.a_pred = list(self.known.a_pred)
        # Induced graph rows (known ∪ assigned), plus a maintained
        # topological order: ord[v] is v's slot, at[slot] the vertex in it.
        self.ind_rows = list(self.known.k_adj)
        # Branch edges on each pair, in assignment order; a pair's stack length
        # counts its contributions, so overlapping ones undo cleanly.
        self.a_edges: dict[tuple[int, int], list[tuple[Edge, ConstraintKey, str]]] = {}
        self.b_edges: dict[tuple[int, int], list[tuple[Edge, ConstraintKey, str]]] = {}
        # Contributions to each induced pair that K does not already hold.
        self.ind_count: dict[tuple[int, int], int] = {}
        self.ord = list(range(self.n))
        self.at = list(range(self.n))
        # Trail of undoable actions: ("a"|"b", pair) edge pushes and
        # ("ind", pair) insertions.
        self.trail: list[tuple[str, tuple[int, int]]] = []
        self.first_conflict_cycle: WitnessCycle | None = None

    # ----- initial known graph ---------------------------------------------

    def check_known_acyclic(self) -> WitnessCycle | None:
        """Order K topologically; report a cycle if one exists."""
        sccs = tarjan_scc(self.n, self.ind_rows)
        cyclic = [
            comp
            for comp in sccs
            if len(comp) > 1 or (self.ind_rows[comp[0]] >> comp[0]) & 1
        ]
        if cyclic:
            comp = min(cyclic, key=lambda c: c[0])
            mask = 0
            for v in comp:
                mask |= 1 << v
            restricted = [self.ind_rows[v] & mask if v in comp else 0 for v in range(self.n)]
            vcycle = find_cycle(self.n, restricted)
            assert vcycle is not None
            return self._cycle_from_vertices(vcycle)
        order = len(sccs) - 1
        for comp in sccs:
            self.ord[comp[0]] = order
            self.at[order] = comp[0]
            order -= 1
        return None

    # ----- provenance -------------------------------------------------------

    def _pair_dep(self, i: int, j: int, layer: str) -> tuple[Edge, Origin]:
        """A labeled edge supporting pair (i, j) in the given layer: its known
        label, else the first branch edge assigned to it."""
        a = layer == "a"
        edge = (self.known.a_label if a else self.known.b_label).get((i, j))
        if edge is not None:
            return edge, known_origin(self.graph, edge)
        edge, cid, branch = (self.a_edges if a else self.b_edges)[(i, j)][0]
        return edge, ("branch", cid, branch)

    def _cycle_from_vertices(self, vcycle: list[int]) -> WitnessCycle:
        deps: list[tuple[Edge, Origin]] = []
        for k, u in enumerate(vcycle):
            v = vcycle[(k + 1) % len(vcycle)]
            m = k_middle(self.a_rows, self.b_rows, u, v)
            if m is None:
                deps.append(self._pair_dep(u, v, "a"))
            else:
                deps += [self._pair_dep(u, m, "a"), self._pair_dep(m, v, "b")]
        return WitnessCycle(deps).canonical()

    # ----- incremental induced-graph maintenance ----------------------------

    def _insert_induced(self, i: int, j: int) -> None:
        """Make pair (i, j) present in the induced graph, repairing the order."""
        if (self.known.k_adj[i] >> j) & 1:
            return
        count = self.ind_count.get((i, j), 0)
        self.ind_count[(i, j)] = count + 1
        self.trail.append(("ind", (i, j)))
        if count:
            return
        self.ind_rows[i] |= 1 << j
        self._pk_check(i, j)

    def _pk_check(self, u: int, v: int) -> None:
        if u == v:
            raise _Conflict(*self._analyze([u]))
        if self.ord[u] < self.ord[v]:
            return
        # Forward search from v bounded by ord[u]; reaching u closes a cycle.
        bound = self.ord[u]
        parent = {v: -1}
        stack = [v]
        forward = [v]
        while stack:
            x = stack.pop()
            for w in iter_bits(self.ind_rows[x]):
                if w in parent or self.ord[w] > bound:
                    continue
                parent[w] = x
                if w == u:
                    path = [w]
                    while x != -1:
                        path.append(x)
                        x = parent[x]
                    path.reverse()  # v .. u
                    raise _Conflict(*self._analyze([u] + path[:-1]))
                forward.append(w)
                stack.append(w)
        # No cycle: shift the affected region to restore topological order.
        # The vertices that reach u within slots ord[v]..ord[u] are found by
        # sweeping those slots downward: every edge but u->v runs to a
        # higher slot, so a vertex's successors on such a path come first.
        back = [u]
        back_mask = 1 << u
        for slot in range(bound - 1, self.ord[v] - 1, -1):
            x = self.at[slot]
            if self.ind_rows[x] & back_mask:
                back.append(x)
                back_mask |= 1 << x
        back.reverse()
        nodes = back + sorted(forward, key=lambda x: self.ord[x])
        slots = sorted(self.ord[x] for x in nodes)
        for node, slot in zip(nodes, slots):
            self.ord[node] = slot
            self.at[slot] = node

    def _analyze(self, vcycle: list[int]) -> tuple[WitnessCycle, set[ConstraintKey]]:
        cycle = self._cycle_from_vertices(vcycle)
        culprits = {origin[1] for _, origin in cycle.deps if origin[0] == "branch"}
        if self.first_conflict_cycle is None:
            self.first_conflict_cycle = cycle
        return cycle, culprits

    def _add_edge(self, edge: Edge, cid: ConstraintKey, branch: str) -> None:
        i, j = self.vindex[edge[0]], self.vindex[edge[1]]
        pair = (i, j)
        if edge[2] == RW:
            self.b_edges.setdefault(pair, []).append((edge, cid, branch))
            self.trail.append(("b", pair))
            if not (self.b_rows[i] >> j) & 1:
                self.b_rows[i] |= 1 << j
                # New compositions: every present A-predecessor of i now reaches j.
                for p in iter_bits(self.a_pred[i]):
                    self._insert_induced(p, j)
        else:
            self.a_edges.setdefault(pair, []).append((edge, cid, branch))
            self.trail.append(("a", pair))
            if not (self.a_rows[i] >> j) & 1:
                self.a_rows[i] |= 1 << j
                self.a_pred[j] |= 1 << i
                self._insert_induced(i, j)
                for w in iter_bits(self.b_rows[j]):
                    self._insert_induced(i, w)

    def _undo_to(self, mark: int) -> None:
        """Pop the trail to `mark`; a row bit is cleared only when its pair
        has no known label and no branch edge left."""
        while len(self.trail) > mark:
            kind, pair = self.trail.pop()
            i, j = pair
            if kind == "ind":
                left = self.ind_count[pair] - 1
                if left:
                    self.ind_count[pair] = left
                else:
                    del self.ind_count[pair]
                    self.ind_rows[i] &= ~(1 << j)
            elif kind == "a":
                stack = self.a_edges[pair]
                stack.pop()
                if not stack:
                    del self.a_edges[pair]
                    if pair not in self.known.a_label:
                        self.a_rows[i] &= ~(1 << j)
                        self.a_pred[j] &= ~(1 << i)
            else:
                stack = self.b_edges[pair]
                stack.pop()
                if not stack:
                    del self.b_edges[pair]
                    if pair not in self.known.b_label:
                        self.b_rows[i] &= ~(1 << j)

    # ----- search -----------------------------------------------------------

    def _check_budget(self) -> None:
        if self.max_decisions is not None and self.decisions > self.max_decisions:
            raise BudgetExceededError(f"decision budget {self.max_decisions} exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("solve time budget exhausted")

    def _preferred_branches(self, k: int) -> list[str]:
        """Try the branch whose write-order edge follows the current order."""
        cons = self.constraints[k]
        if self.ord[self.vindex[cons.first]] < self.ord[self.vindex[cons.second]]:
            return [EITHER, OR]
        return [OR, EITHER]

    def _try_branch(self, frame: _Frame, k: int) -> bool:
        """Assign a branch; on conflict, undo and record its culprits."""
        branch = frame.branches_left.pop(0)
        frame.branch = branch
        frame.trail_mark = len(self.trail)
        self.decisions += 1
        self._check_budget()
        try:
            for edge in self.branch_edges[k][branch]:
                self._add_edge(edge, frame.cid, branch)
        except _Conflict as conflict:
            self.conflicts += 1
            self._undo_to(frame.trail_mark)
            frame.branch = None
            frame.conflict_union |= conflict.culprits - {frame.cid}
            return False
        return True

    def solve(self) -> SolveResult:
        known_cycle = self.check_known_acyclic()
        if known_cycle is not None:
            return SolveResult("unsat", cycle=known_cycle, decisions=0, conflicts=0)

        order = {cons.id: k for k, cons in enumerate(self.constraints)}
        frames: list[_Frame] = []
        next_idx = 0
        while True:
            if next_idx == len(self.constraints):
                assignment = {f.cid: f.branch for f in frames}
                return SolveResult(
                    "sat",
                    assignment=assignment,
                    decisions=self.decisions,
                    conflicts=self.conflicts,
                )
            frame = _Frame(
                cid=self.constraints[next_idx].id,
                branches_left=self._preferred_branches(next_idx),
            )
            frames.append(frame)
            while True:
                if frame.branches_left and self._try_branch(frame, next_idx):
                    next_idx += 1
                    break
                if frame.branches_left:
                    continue
                # Both branches failed: backjump to the deepest responsible frame.
                culprits = frame.conflict_union
                frames.pop()
                if not culprits:
                    assert self.first_conflict_cycle is not None
                    return SolveResult(
                        "unsat",
                        cycle=self.first_conflict_cycle,
                        decisions=self.decisions,
                        conflicts=self.conflicts,
                    )
                target = max(culprits, key=lambda cid: order[cid])
                # Every culprit is an assigned frame below the failed one; the
                # undo to its mark also undoes every frame above it.
                while frames and frames[-1].cid != target:
                    frames.pop()
                assert frames, f"backjump target {target} has no frame"
                frame = frames[-1]
                self._undo_to(frame.trail_mark)
                frame.branch = None
                frame.conflict_union |= culprits - {frame.cid}
                next_idx = order[frame.cid]


def solve(
    graph: Polygraph,
    budget_ms: int | None = None,
    max_decisions: int | None = None,
    index: KnownIndex | None = None,
) -> SolveResult:
    """Decide whether some branch resolution yields an acyclic induced graph.

    `index` may pass the pruner's final known-graph index of `graph`, which
    saves building it again; it is not modified.
    """
    return Solver(graph, budget_ms=budget_ms, max_decisions=max_decisions, index=index).solve()


def verify_witness(result: SolveResult, graph: Polygraph) -> bool:
    """Independent certificate check for either outcome.

    A sat witness must assign a branch to every constraint, and no other
    constraint, and re-derive to an acyclic induced graph; an unsat cycle must
    be closed, undesired, and justified edge by edge by its claimed
    provenance without drawing on both branches of any constraint.
    """
    if result.status == "sat":
        assignment = result.assignment
        if assignment is None or assignment.keys() != graph.constraints.keys():
            return False
        edges = list(graph.known_edges)
        for cid, branch in assignment.items():
            if branch not in (EITHER, OR):
                return False
            edges.extend(graph.constraints[cid].edges(graph, branch))
        # Induced graph over vertex indices: non-RW edges and non-RW∘RW
        # compositions. Kahn's algorithm orders every vertex only if it is
        # acyclic; a self-loop keeps its vertex from ever becoming ready.
        vindex = {v: i for i, v in enumerate(graph.vertices)}
        n = len(vindex)
        rw_succ: list[set[int]] = [set() for _ in range(n)]
        for src, dst, kind, _ in edges:
            if kind == RW:
                rw_succ[vindex[src]].add(vindex[dst])
        induced: list[set[int]] = [set() for _ in range(n)]
        for src, dst, kind, _ in edges:
            if kind != RW:
                row = induced[vindex[src]]
                row.add(vindex[dst])
                row |= rw_succ[vindex[dst]]
        indegree = [0] * n
        for row in induced:
            for j in row:
                indegree[j] += 1
        ready = [i for i in range(n) if not indegree[i]]
        ordered = 0
        while ready:
            i = ready.pop()
            ordered += 1
            for j in induced[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    ready.append(j)
        return ordered == n

    cycle = result.cycle
    if cycle is None or not cycle.deps or not cycle.closed():
        return False
    if has_adjacent_rw(cycle.edges()):
        return False
    known = set(graph.known_edges)
    used_branches: dict[ConstraintKey, set[str]] = {}
    for edge, origin in cycle.deps:
        if origin[0] == "known":
            if edge not in known:
                return False
        elif origin[0] == "resolved":
            if edge not in known or graph.resolved_origin.get(edge) != (origin[1], origin[2]):
                return False
        elif origin[0] == "branch":
            cons = graph.constraints.get(origin[1])
            if cons is None or edge not in cons.edges(graph, origin[2]):
                return False
            used_branches.setdefault(origin[1], set()).add(origin[2])
        else:
            return False
    return all(len(branches) == 1 for branches in used_branches.values())
