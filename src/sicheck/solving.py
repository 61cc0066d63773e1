"""Acyclicity-aware search over constraint branches.

Each open constraint is one binary decision: take its either branch or its
or branch. The search state is the known-graph index's rows, which assigned
branch edges extend and retraction, in any order, restores: an
incrementally maintained induced graph (direct non-RW edges plus non-RW∘RW
compositions, at pair granularity) whose topological order is repaired on
every insertion; a failed repair is a conflict, analyzed into the set of
contributing decisions for dynamic backtracking. An A pair (i, j) inserts
only the induced pairs row i lacks of j and B(j), j first. The repair
(Pearce–Kelly) searches forward from the new pair's target through the
mask of the slots it may reorder, so each row it visits costs one AND.
Retraction keeps a pair (i, j) while the index's K row holds it (its A and
A∘B pairs), A holds it, or it composes through an assigned pair:
`a_rows[i] & b_pred[j]` is not 0, where `b_pred` holds only the assigned B
pairs outside the index, or an assigned A successor m of i has B(m, j),
tested against the OR of those B rows, taken once per i and retracted pair.
A conflict's culprits are the first constraints assigned to the pairs of
its cycle that the index's rows lack. Only the first conflict's cycle is
kept; its known pairs are labeled (`EdgeUniverse`) when it is reported.
The search is exhaustive: unsat is only reported once every branch
combination is covered by recorded conflicts, never on budget exhaustion,
which raises instead.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import accumulate, chain

from .errors import BudgetExceededError
from .graphs import find_cycle, iter_bits, tarjan_scc
from .histories import INIT_TXN, TxnId
from .polygraph import (
    EITHER, OR, RW, WW, ConstraintKey, Edge, Polygraph, branch_edges, branch_ends,
    initial_records, owning_branch,
)
from .explain import EdgeUniverse
from .pruning import KnownIndex
from .witness import WitnessCycle, has_adjacent_rw, path_deps


@dataclass(slots=True)
class SolveResult:
    status: str  # "sat" | "unsat"
    assignment: dict[ConstraintKey, str] | None = None
    # Sat only: every vertex, in a topological order of the assignment's induced graph.
    order: list[TxnId] | None = None
    cycle: WitnessCycle | None = None
    decisions: int = 0
    conflicts: int = 0


class _Conflict(Exception):
    def __init__(self, culprits: frozenset[int]):
        self.culprits = culprits


class Solver:
    """The search over a polygraph's open writer pairs (`solve`).

    Its one budget is time: `budget_ms`, counted from construction and read
    once per decision (`_check_budget`). `index` may pass the pruner's final
    known-graph index of the graph; it is only read, so it is used as it is.
    """

    def __init__(
        self,
        graph: Polygraph,
        _encoding: object = None,
        budget_ms: int | None = None,
        index: KnownIndex | None = None,
    ):
        # The second parameter is ignored: the benchmark's traced run still
        # passes an encoding here. It goes with the next change to the
        # benchmark, as `interpret`'s `history` does.
        self.graph = graph
        self.known = KnownIndex(graph) if index is None else index
        self.n = self.known.n
        # Decision order is the sorted constraint ids.
        self.constraints = sorted(graph.constraints)
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.decisions = 0
        self.conflicts = 0

        # Search state: the index's level-0 rows, extended by the assigned
        # branch edges. Only the lists are copied; the index is not modified.
        self.a_rows = list(self.known.a_adj)
        self.b_rows = list(self.known.b_adj)
        self.a_pred = list(self.known.a_pred)
        # The transpose of the assigned B pairs that are not in the index.
        self.b_pred = [0] * self.n
        # Induced graph rows (known ∪ assigned), plus a maintained
        # topological order: ord[v] is v's slot, at[slot] the vertex in it.
        self.ind_rows = list(self.known.k_adj)
        # The constraints with a branch edge on each pair, in assignment
        # order; a row bit outside the index is set exactly while its pair's
        # list is not empty. A branch puts at most one entry on a pair.
        self.a_edges: dict[tuple[int, int], list[int]] = {}
        self.b_edges: dict[tuple[int, int], list[int]] = {}
        self.ord = list(range(self.n))
        self.at = list(range(self.n))
        # Per constraint: its branch while assigned, when it was assigned,
        # and the pairs it put an entry on, (is RW, pair).
        self.assigned: list[str | None] = [None] * len(self.constraints)
        self.stamp = [0] * len(self.constraints)
        self.pushed: list[list[tuple[bool, tuple[int, int]]]] = [[] for _ in self.constraints]
        # The first conflict's cycle, its known pairs not labeled yet (`_witness`).
        self.first_conflict: list[tuple] | None = None

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
            return self._witness(self._cycle_deps(vcycle)[0])
        order = len(sccs) - 1
        for comp in sccs:
            self.ord[comp[0]] = order
            self.at[order] = comp[0]
            order -= 1
        return None

    # ----- provenance -------------------------------------------------------

    def _cycle_deps(self, vcycle: list[int]) -> tuple[list[tuple], frozenset[int]]:
        """The cycle's dependencies, and the constraints whose branch edges it
        uses: a pair the index holds is known, and left as ((its two
        vertices, is RW), None) for `_witness` to label; any other is labeled
        by the branch edge of the first constraint assigned to it, which
        joins the culprits."""
        culprits: set[int] = set()
        vertices, known_a, known_b = self.known.vertices, self.known.a_adj, self.known.b_adj

        def dep(i: int, j: int, rw: bool) -> tuple:
            if ((known_b if rw else known_a)[i] >> j) & 1:
                return (vertices[i], vertices[j], rw), None
            k = (self.b_edges if rw else self.a_edges)[(i, j)][0]
            culprits.add(k)
            cid = self.constraints[k]
            edge = (vertices[i], vertices[j], RW if rw else WW, cid[0])
            return edge, ("branch", cid, self.assigned[k])

        return path_deps(self.a_rows, self.b_rows, vcycle + vcycle[:1], dep), frozenset(culprits)

    def _witness(self, deps: list[tuple]) -> WitnessCycle:
        """`_cycle_deps`' dependencies as a witness: each known pair labeled
        by its lowest known edge (`EdgeUniverse.known_dep`)."""
        universe = EdgeUniverse(self.graph)
        return WitnessCycle([universe.known_dep(*dep) if origin is None else (dep, origin)
                             for dep, origin in deps]).canonical()

    # ----- incremental induced-graph maintenance ----------------------------

    def _pk_check(self, u: int, v: int) -> list[int] | None:
        """Repair the order for a new pair u -> v; a cycle it closes is
        returned as its vertices, and the order is then left as it was."""
        if u == v:
            return [u]
        ord_, at, rows = self.ord, self.at, self.ind_rows
        low, bound = ord_[v], ord_[u]
        if bound < low:
            return None
        # Forward search from v bounded by ord[u]; reaching u closes a cycle.
        # Every edge but u->v runs to a higher slot, so the search stays in
        # slots ord[v]..ord[u], and `region` holds the vertices of those
        # slots it has not reached yet: each row is searched through it.
        region = sum(map((1).__lshift__, at[low + 1:bound + 1]))
        parent = {v: -1}
        stack = [v]
        forward = [v]
        while stack:
            x = stack.pop()
            hits = rows[x] & region
            if not hits:
                continue
            if (hits >> u) & 1:
                path = []  # x .. v
                while x != -1:
                    path.append(x)
                    x = parent[x]
                return [u] + path[::-1]
            region ^= hits
            for w in iter_bits(hits):
                parent[w] = x
                forward.append(w)
                stack.append(w)
        # No cycle: shift the affected region to restore topological order.
        # The vertices that reach u within slots ord[v]..ord[u] are found by
        # sweeping those slots downward: every edge but u->v runs to a
        # higher slot, so a vertex's successors on such a path come first.
        back = [u]
        back_mask = 1 << u
        for slot in range(bound - 1, low - 1, -1):
            x = at[slot]
            if rows[x] & back_mask:
                back.append(x)
                back_mask |= 1 << x
        back.reverse()
        nodes = back + sorted(forward, key=ord_.__getitem__)
        slots = sorted(ord_[x] for x in nodes)
        for node, slot in zip(nodes, slots):
            ord_[node] = slot
            at[slot] = node
        return None

    def _analyze(self, vcycle: list[int]) -> frozenset[int]:
        """The conflict's culprits; the first conflict's cycle is kept."""
        deps, culprits = self._cycle_deps(vcycle)
        if self.first_conflict is None:
            self.first_conflict = deps
        return culprits

    def _supported_by(self, i: int, j: int, rw: bool) -> list[tuple[int, int]]:
        """The induced pairs (i, j) can support, in visit order; `rw` as in `_add_pair`."""
        if rw:
            return [(p, j) for p in iter_bits(self.a_pred[i])]
        return [(i, j), *((i, w) for w in iter_bits(self.b_rows[j]))]

    def _add_pair(self, i: int, j: int, rw: bool, k: int) -> None:
        """Put constraint k's branch edge on pair (i, j) of the B layer when
        `rw`, else of the A layer; each induced pair it newly supports is set
        and its order repaired, and the first that closes a cycle is a conflict."""
        pair = (i, j)
        (self.b_edges if rw else self.a_edges).setdefault(pair, []).append(k)
        self.pushed[k].append((rw, pair))
        rows, preds = (self.b_rows, self.b_pred) if rw else (self.a_rows, self.a_pred)
        if (rows[i] >> j) & 1:
            return
        rows[i] |= 1 << j
        preds[j] |= 1 << i
        ind_rows = self.ind_rows
        if rw:
            pairs = [(p, j) for p in iter_bits(self.a_pred[i]) if not (ind_rows[p] >> j) & 1]
        else:
            # The targets of row i this pair supports that it lacks, j first.
            new = ((1 << j) | self.b_rows[j]) & ~ind_rows[i]
            pairs = [(i, w) for w in iter_bits(new & ~(1 << j))]
            if (new >> j) & 1:
                pairs.insert(0, pair)
        for u, v in pairs:
            ind_rows[u] |= 1 << v
            vcycle = self._pk_check(u, v)
            if vcycle is not None:
                raise _Conflict(self._analyze(vcycle))

    def _retract(self, k: int) -> None:
        """Remove constraint k's branch edges, whenever it was assigned: a row
        bit is cleared when its pair is not in the index and has no branch edge
        left, then each induced pair it supported that no A or A∘B pair still
        holds: the index's K row holds the index's own A∘B pairs, and the rest
        use an assigned B pair (`b_pred`) or an assigned A pair (u, m), whose
        B rows are ORed once per u and cleared pair."""
        known_a, known_k, a_rows, b_rows, b_pred, ind_rows = (
            self.known.a_adj, self.known.k_adj, self.a_rows, self.b_rows, self.b_pred,
            self.ind_rows)
        for rw, pair in self.pushed[k]:
            stacks = self.b_edges if rw else self.a_edges
            stack = stacks[pair]
            stack.remove(k)
            if stack:
                continue
            del stacks[pair]
            i, j = pair
            if ((self.known.b_adj if rw else known_a)[i] >> j) & 1:
                continue
            rows, preds = (b_rows, b_pred) if rw else (a_rows, self.a_pred)
            rows[i] &= ~(1 << j)
            preds[j] &= ~(1 << i)
            held = -1  # the u whose assigned A successors' B rows `composed` ORs
            for u, v in self._supported_by(i, j, rw):
                a_row = a_rows[u]
                if ((known_k[u] | a_row) >> v) & 1 or a_row & b_pred[v]:
                    continue
                if u != held:
                    held, composed = u, 0
                    for m in iter_bits(a_row ^ known_a[u]):
                        composed |= b_rows[m]
                if not (composed >> v) & 1:
                    ind_rows[u] &= ~(1 << v)
        self.pushed[k] = []
        self.assigned[k] = None

    # ----- search -----------------------------------------------------------

    def _check_budget(self) -> None:
        """The time budget, read once per decision: past the deadline the
        search raises rather than report a verdict."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("solve time budget exhausted")

    def _preferred_branches(self, k: int) -> list[str]:
        """Try the branch whose write-order edge follows the current order."""
        s, d, _ = self.known.branch(self.constraints[k], EITHER)
        if self.ord[s] < self.ord[d]:
            return [EITHER, OR]
        return [OR, EITHER]

    def _try_branch(self, k: int, branch: str) -> frozenset[int] | None:
        """Assign a branch; on conflict, retract it and return its culprits."""
        self.decisions += 1
        self._check_budget()
        self.assigned[k] = branch
        s, d, readers = self.known.branch(self.constraints[k], branch)
        try:
            self._add_pair(s, d, False, k)
            for r in readers:
                if r != d:
                    self._add_pair(r, d, True, k)
        except _Conflict as conflict:
            self.conflicts += 1
            self._retract(k)
            return conflict.culprits - {k}
        return None

    def solve(self) -> SolveResult:
        """Dynamic backtracking: decide the lowest unassigned constraint; a
        branch that fails is eliminated, explained by its culprits. When both
        branches of a constraint are eliminated, only the latest-assigned
        culprit is retracted, and its branch eliminated in turn."""
        known_cycle = self.check_known_acyclic()
        if known_cycle is not None:
            return SolveResult("unsat", cycle=known_cycle, decisions=0, conflicts=0)

        count = len(self.constraints)
        eliminated: list[dict[str, frozenset[int]]] = [{} for _ in range(count)]
        # culprit -> the eliminations whose explanation names it, some stale.
        naming: dict[int, list[tuple[int, str, frozenset[int]]]] = {}

        def eliminate(k: int, branch: str, why: frozenset[int]) -> None:
            eliminated[k][branch] = why
            for c in why:
                naming.setdefault(c, []).append((k, branch, why))

        unassigned = list(range(count))  # a heap
        while unassigned:
            k = unassigned[0]
            for branch in self._preferred_branches(k):
                if branch in eliminated[k]:
                    continue
                why = self._try_branch(k, branch)
                if why is None:
                    self.stamp[k] = self.decisions
                    heapq.heappop(unassigned)
                    break
                eliminate(k, branch, why)
            else:
                union = eliminated[k][EITHER] | eliminated[k][OR]
                if not union:
                    assert self.first_conflict is not None
                    return SolveResult(
                        "unsat",
                        cycle=self._witness(self.first_conflict),
                        decisions=self.decisions,
                        conflicts=self.conflicts,
                    )
                culprit = max(union, key=self.stamp.__getitem__)
                branch = self.assigned[culprit]
                assert branch is not None, f"culprit {culprit} is not assigned"
                self._retract(culprit)
                heapq.heappush(unassigned, culprit)
                # Explanations hold only assigned constraints.
                for j, dropped, why in naming.pop(culprit, ()):
                    if eliminated[j].get(dropped) is why:
                        del eliminated[j][dropped]
                eliminate(culprit, branch, union - {culprit})
        assignment = dict(zip(self.constraints, self.assigned))
        order = [self.known.vertices[v] for v in self.at]
        return SolveResult("sat", assignment=assignment, order=order,
                           decisions=self.decisions, conflicts=self.conflicts)


def solve(
    graph: Polygraph,
    budget_ms: int | None = None,
    index: KnownIndex | None = None,
) -> SolveResult:
    """Decide whether some branch resolution yields an acyclic induced graph.

    `index` may pass the pruner's final known-graph index of `graph`, which
    saves building it again; it is not modified.
    """
    return Solver(graph, budget_ms=budget_ms, index=index).solve()


def verify_witness(result: SolveResult, graph: Polygraph) -> bool:
    """Independent certificate check for either outcome.

    A sat witness must assign a branch to every constraint, and no other
    constraint, and order the vertices so that every edge of the induced
    graph it re-derives runs forward: the listed edges; the initial
    writer's derived ones, checked once per target (every committed writer
    and every reader of an initial value, as construct recorded them); those
    of construct's forced pairs, read off the recorded initial readers of
    each written key, the reader rows and the RMW runs: each reader of an
    initial value is overwritten by every other writer of the key, and each
    run member, and each reader of one, by the members after it; and the
    edges of every resolved and every assigned branch s -> d, s -WW-> d and
    r -RW-> d for each reader r of s but d, read off the reader rows
    without building them. An unsat cycle must be closed, undesired, and
    justified edge by edge by its claimed provenance without drawing on
    both branches of any constraint; a known edge is a listed one, one of a
    forced pair or one of a resolved branch, and any other origin must name
    a writer pair and one of its two branches, else the cycle is rejected.
    """
    readers, read_from, runs = graph.readers, graph.read_from, graph.runs
    if result.status == "sat":
        assignment, order = result.assignment, result.order or []
        if assignment is None or assignment.keys() != graph.constraints.keys():
            return False
        position = {v: p for p, v in enumerate(order)}
        n = len(order)
        if n != len(graph.vertices) or position.keys() != set(graph.vertices):
            return False
        branches = []  # (key, s, d) of each resolved and each assigned branch
        for cid, branch in chain(graph.resolved.items(), assignment.items()):
            if branch not in (EITHER, OR):
                return False
            branches.append(branch_ends(cid, branch))
        # The induced graph holds each non-RW edge src -> dst and its
        # composition with every RW edge dst -> w, so src must come before
        # the lowest position among dst and its RW successors. A self-loop
        # cannot come before itself.
        lowest = dict(position)
        for src, dst, kind, _ in graph.known_edges:
            if kind == RW and position[dst] < lowest[src]:
                lowest[src] = position[dst]
        for key, s, d in branches:
            row = readers.get((key, s))
            if row:
                at = position[d]
                for r in row:
                    if r != d and at < lowest[r]:
                        lowest[r] = at
        # The initial writer's targets; its readers precede every other writer.
        initial, targets = initial_records(graph) if INIT_TXN in position else ({}, ())
        for key, row in initial.items():
            for w in graph.writers[key]:
                at = position[w]
                for r in row:
                    if r != w and at < lowest[r]:
                        lowest[r] = at
        for key, keyed in runs.items():
            for run in keyed:
                # after[i]: the lowest position among the members from the i-th
                # on; of a run, only the next member reads a member's value.
                after = [*accumulate([position[m] for m in reversed(run)], min)][::-1] + [n, n]
                for i, member in enumerate(run[:-1]):
                    for r in readers.get((key, member), ()):
                        lowest[r] = min(lowest[r], after[i + 2 if r == run[i + 1] else i + 1])
        for keyed in runs.values():
            for run in keyed:
                bound = n  # the lowest `lowest` of the members after `member`
                for member in reversed(run):
                    if position[member] >= bound:
                        return False
                    bound = min(bound, lowest[member])
        return (all(position[src] < lowest[dst]
                    for src, dst, kind, _ in graph.known_edges if kind != RW)
                and all(position[s] < lowest[d] for _, s, d in branches)
                and all(position[INIT_TXN] < lowest[dst] for dst in targets))

    cycle = result.cycle
    if cycle is None or not cycle.deps or not cycle.closed():
        return False
    if has_adjacent_rw(cycle.edges()):
        return False
    listed = set(graph.known_edges)

    def known(edge: Edge) -> bool:
        if edge in listed:
            return True
        src, dst, kind, key = edge
        writer = src if kind == WW else read_from.get((key, src)) if kind == RW else None
        if writer is None or src == dst:
            return False
        if writer == INIT_TXN:
            return kind == RW and dst in graph.writers.get(key, ())
        if any(writer in run and dst in run[run.index(writer) + 1:] for run in runs.get(key, ())):
            return True
        owner = owning_branch(graph, edge)
        return (owner is not None and graph.resolved.get(owner[0]) == owner[1]
                and edge in branch_edges(graph, *branch_ends(*owner)))

    used_branches: dict[ConstraintKey, set[str]] = {}
    for edge, origin in cycle.deps:
        kind = origin[0] if origin else None
        if kind == "known":
            if not known(edge):
                return False
            continue
        # Any other origin names a writer pair, (key, first, second), and
        # one of its two branches, and the edge is in that branch.
        if kind not in ("resolved", "branch") or len(origin) != 3:
            return False
        cid, branch = origin[1], origin[2]
        if not (isinstance(cid, tuple) and len(cid) == 3) or branch not in (EITHER, OR):
            return False
        if edge not in branch_edges(graph, *branch_ends(cid, branch)):
            return False
        if kind == "resolved":
            # Prune or construct closed the pair, two writers of the key.
            key, first, second = cid
            writers = graph.writers.get(key, ())
            if not known(edge) or cid in graph.constraints:
                return False
            if not (first < second and first in writers and second in writers):
                return False
        elif cid in graph.constraints:
            used_branches.setdefault(cid, set()).add(branch)
        else:
            return False
    return all(len(branches) == 1 for branches in used_branches.values())
