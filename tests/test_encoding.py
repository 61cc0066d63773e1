import hashlib
import io
import random

import pytest

import reference_frontend as ref
from reference_frontend import known_edges as reference_known_edges
from sicheck.encoding import branch_clause_text, creation_order, encode, export_encoding
from sicheck.graphs import iter_bits
from harness import HistoryBounds, random_small_history
from sicheck.histories import INIT_TXN, completeness_gate
from sicheck.oracle import induced_graph
from sicheck.polygraph import (
    EITHER, OR, RW, branch_edges, branch_ends, build_polygraph, resolved_edges,
)
from sicheck.pruning import KnownIndex, prune_constraints

from conftest import T0, T1, T2, T3, T4, T5, committed, injected_histories, mk_history


def paper_stage_encoding(long_fork):
    """Encoding of the long-fork polygraph pruned for one iteration: the
    {T5, T1} write-order constraint is the only one left open."""
    graph = build_polygraph(long_fork)
    prune_constraints(graph, max_iterations=1)
    return graph, encode(graph)


def row_pairs(rows):
    return {(i, j) for i, row in enumerate(rows) for j in iter_bits(row)}


def polygraph_pairs(enc):
    return row_pairs(a | b for a, b in zip(enc.index.a_adj, enc.index.b_adj))


def induced_pairs(enc):
    return row_pairs(enc.index.k_adj)


class TestBranchClauses:
    def test_long_fork_residual_clause(self, long_fork):
        graph, enc = paper_stage_encoding(long_fork)
        assert len(enc.clauses) == 1
        either_pairs, or_pairs = enc.clauses[0]

        def pair(edge):
            return (enc.index.vindex[edge[0]], enc.index.vindex[edge[1]])

        # One branch orders T5 before T1 (T5 has no readers); the other
        # orders T1 before T5 and forces T3, T1's reader, before T5.
        assert set(either_pairs) == {pair((T5, T1, "WW", "x"))}
        assert set(or_pairs) == {pair((T1, T5, "WW", "x")), pair((T3, T5, "RW", "x"))}
        text = branch_clause_text(enc.clauses[0])
        i15 = pair((T1, T5, "WW", "x"))
        i35 = pair((T3, T5, "RW", "x"))
        i51 = pair((T5, T1, "WW", "x"))
        assert f"(p {i15[0]} {i15[1]}) (p {i35[0]} {i35[1]}) (not (p {i51[0]} {i51[1]}))" in text
        assert text.startswith("(or (and ") and text.count("(and ") == 2

    def test_zero_constraint_encoding(self):
        history = mk_history([[committed([("w", "x", 1)])], [committed([("r", "x", 1)])]])
        graph = build_polygraph(history)
        enc = encode(graph)
        assert enc.clauses == []
        known_a_pairs = row_pairs(KnownIndex(graph).a_adj)
        assert known_a_pairs  # WR edge plus initial-writer axioms
        assert all((i, j) in known_a_pairs for i, j in polygraph_pairs(enc))


class TestInducedDefinitions:
    def test_long_fork_compositions(self, long_fork):
        graph, enc = paper_stage_encoding(long_fork)
        idx = enc.index.vindex
        # T2 -WR(y)-> T4 -RW(x)-> T5 is the only support of the T2 -> T5 pair.
        assert enc.induced_definition(idx[T2], idx[T5]) == (False, [idx[T4]])
        # T1 -WR(x)-> T3 -RW(y)-> T2, and T2 -WR(y)-> T4 -RW(x)-> T1.
        assert enc.induced_definition(idx[T1], idx[T2]) == (False, [idx[T3]])
        assert enc.induced_definition(idx[T2], idx[T1]) == (False, [idx[T4]])
        # T1 -> T5 has both the potential direct write-order edge and the
        # composition through T3's potential read-overwrite edge.
        direct, comps = enc.induced_definition(idx[T1], idx[T5])
        assert direct and comps == [idx[T3]]

    @pytest.mark.parametrize("no_prune", [False, True])
    def test_definitions_match_the_middle_scan(self, no_prune):
        """Every induced pair's definition is the one a scan of all of i's
        A-successors for a B edge to j gives, and is not empty."""
        pairs = 0
        for seed in range(300):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            if not no_prune:
                prune_constraints(graph)
            enc = encode(graph)
            a_adj, b_adj = enc.index.a_adj, enc.index.b_adj
            for i, j in induced_pairs(enc):
                scanned = [m for m in iter_bits(a_adj[i]) if (b_adj[m] >> j) & 1]
                direct, comps = enc.induced_definition(i, j)
                assert (direct, comps) == (bool((a_adj[i] >> j) & 1), scanned), (seed, i, j)
                assert direct or comps
                pairs += 1
        assert pairs > 2000, pairs

    def test_variable_economy(self, long_fork):
        graph, enc = paper_stage_encoding(long_fork)
        # Induced variables exist exactly for supported pairs.
        supported = set()
        pg_pairs = polygraph_pairs(enc)
        a_pairs = {
            (i, j) for (i, j) in pg_pairs if (enc.index.a_adj[i] >> j) & 1
        }
        b_pairs = {
            (i, j) for (i, j) in pg_pairs if (enc.index.b_adj[i] >> j) & 1
        }
        for i, j in a_pairs:
            supported.add((i, j))
            for k, l in b_pairs:
                if k == j:
                    supported.add((i, l))
        assert induced_pairs(enc) == supported
        assert enc.induced_count == len(supported)
        assert enc.induced_count <= enc.index.n * enc.index.n


class TestModelCorrespondence:
    def test_random_assignments_match_reference_induced_graph(self):
        rng = random.Random(5)
        checked = 0
        for seed in range(60):
            history = random_small_history(seed)
            if not completeness_gate(history).ok():
                continue
            graph = build_polygraph(history)
            enc = encode(graph)
            if not enc.clauses:
                continue
            vindex = enc.index.vindex
            known = reference_known_edges(history)
            for _ in range(4):
                chosen = list(known)
                for cid in sorted(graph.constraints):
                    branch = EITHER if rng.random() < 0.5 else OR
                    chosen.extend(branch_edges(graph, *branch_ends(cid, branch)))
                # Pair projection of the chosen compatible graph.
                pairs = {(vindex[e[0]], vindex[e[1]]) for e in chosen}
                assert pairs <= polygraph_pairs(enc)
                # Reference induced graph from the oracle module.
                ref = {
                    (vindex[a], vindex[b])
                    for a, b, _ in induced_graph(chosen)
                }
                derived = set()
                a_pairs = {
                    (vindex[e[0]], vindex[e[1]]) for e in chosen if e[2] != RW
                }
                b_pairs = {
                    (vindex[e[0]], vindex[e[1]]) for e in chosen if e[2] == RW
                }
                for i, j in a_pairs:
                    derived.add((i, j))
                    for k, l in b_pairs:
                        if k == j:
                            derived.add((i, l))
                assert derived == ref
                # Every induced pair the assignment realizes has a variable.
                assert derived <= induced_pairs(enc)
                checked += 1
        assert checked >= 20


class TestExport:
    def test_empty_polygraph(self):
        history = mk_history([])
        graph = build_polygraph(history)
        enc = encode(graph)
        sink = io.BytesIO()
        export_encoding(enc, sink)
        lines = sink.getvalue().decode().splitlines()
        assert lines[0] == "si-encoding 1"
        assert lines[-1] == "a induced"
        assert not any(line.startswith("v ") for line in lines)

    def test_long_fork_has_four_writer_reader_units(self, long_fork):
        graph, enc = paper_stage_encoding(long_fork)
        sink = io.BytesIO()
        export_encoding(enc, sink)
        lines = sink.getvalue().decode().splitlines()
        wr_units = [line for line in lines if line.startswith("e ") and " WR " in line]
        assert len(wr_units) == 4

    def test_byte_identical_across_runs(self, long_fork):
        def dump():
            graph = build_polygraph(long_fork)
            prune_constraints(graph, max_iterations=1)
            sink = io.BytesIO()
            export_encoding(encode(graph), sink)
            return sink.getvalue()

        assert dump() == dump()

    def test_variables_sorted_and_layers_present(self, long_fork):
        graph, enc = paper_stage_encoding(long_fork)
        sink = io.BytesIO()
        export_encoding(enc, sink)
        lines = sink.getvalue().decode().splitlines()
        vars_ = [line.split() for line in lines if line.startswith("v ")]
        poly = [(int(a), int(b)) for layer, a, b in (v[1:] for v in vars_) if layer == "polygraph"]
        induced = [(int(a), int(b)) for layer, a, b in (v[1:] for v in vars_) if layer == "induced"]
        assert poly == sorted(poly)
        assert induced == sorted(induced)
        assert len(poly) == enc.pair_count
        assert len(induced) == enc.induced_count


class TestCreationOrder:
    """The listed edges merged with the initial writer's derived ones, after
    construct and after prune, are the reference construction's known edges
    followed by the edges of the branches prune resolved, which it lists
    nowhere (`resolved_edges`)."""

    @staticmethod
    def check(history, counts):
        if not completeness_gate(history).ok():
            return
        graph = build_polygraph(history)
        constructed = ref.build_polygraph(history).known_edges
        assert list(creation_order(graph)) == constructed
        listed = list(graph.known_edges)
        prune_constraints(graph)
        assert graph.known_edges == listed
        assert not any(edge[0] == INIT_TXN for edge in graph.known_edges)
        assert list(creation_order(graph)) == constructed + list(resolved_edges(graph))
        counts["promoted"] += bool(graph.resolved)
        counts["runs"] += bool(graph.rmw_keys)

    def test_random_histories(self):
        counts = {"promoted": 0, "runs": 0}
        for seed in range(3000):
            self.check(random_small_history(seed), counts)
        assert min(counts.values()) > 500, counts

    def test_injected_histories(self, long_fork, lost_update, causality_violation):
        counts = {"promoted": 0, "runs": 0}
        for history in [long_fork, lost_update, causality_violation, *injected_histories()]:
            self.check(history, counts)
        assert counts["promoted"] > 0


def _export(history, iterations):
    """Export bytes and variable counts; iterations 0 skips pruning, None prunes to the fixpoint."""
    graph = build_polygraph(history)
    if iterations != 0:
        prune_constraints(graph, max_iterations=iterations)
    enc = encode(graph)
    sink = io.BytesIO()
    export_encoding(enc, sink)
    return sink.getvalue(), enc.pair_count, enc.induced_count


# SHA-256 of the export, pair_count and induced_count, recorded from the
# encoder that built its own A/B and induced rows; prune iterations as in `_export`.
LONG_FORK_EXPORT_PINS = {
    0: ("cb7bce8b58ae870a111b80d03af9652d90d56f63b91562b177b7d57b3e882b5e", 22, 20),
    1: ("d9ea8e52d54648676f01f68913334ac296fae3647fb4a0918afc1eb3af6df276", 17, 16),
    None: ("7b279a803a6355f0a3fc141e9742ddc0e2d6aaab2d3998274ce56223e048ea8a", 16, 15),
}
# no_prune -> (histories of seeds 0-199 that pass the gate, SHA-256 over each
# one's "seed pair_count induced_count length" line and export bytes).
# Recorded since construct orders the writer pairs inside RMW runs.
RANDOM_EXPORT_PINS = {
    False: (159, "f4930aa3bd80e5edbc01cb4929b209aad482ec526b9c2ec23b9f0235ca5339ca"),
    True: (159, "0b1a317ecb0eba3407a6c5a72ced656ac4b06c649dbd301c8249d58d70f4190d"),
}


@pytest.mark.parametrize("iterations", [0, 1, None])
def test_long_fork_export_pinned(long_fork, iterations):
    data, pairs, induced = _export(long_fork, iterations)
    assert (hashlib.sha256(data).hexdigest(), pairs, induced) == LONG_FORK_EXPORT_PINS[iterations]


@pytest.mark.parametrize("no_prune", [False, True])
def test_random_export_pinned(no_prune):
    digest = hashlib.sha256()
    exported = 0
    for seed in range(200):
        history = random_small_history(seed)
        if not completeness_gate(history).ok():
            continue
        data, pairs, induced = _export(history, 0 if no_prune else None)
        digest.update(f"{seed} {pairs} {induced} {len(data)}\n".encode())
        digest.update(data)
        exported += 1
    assert (exported, digest.hexdigest()) == RANDOM_EXPORT_PINS[no_prune]
