"""Layer micro-benchmarks for the front end, the known-graph kernels and the explainer.

Times `parse_history` on the first history of run seed 1 of each of the
benchmark's workload shapes; `completeness_gate` on the first
`uniform-10k` history, where it is a large share of a check (the gate
walks the ops, as it does when called alone), and `encode` plus
`export_encoding` of its pruned polygraph; `generate_constraints` and
`prune_constraints` on the first `zipf-anomaly` history, where prune
resolves most writer pairs, and the rows of prune's first fold there
(`KnownIndex.add_branches` with no closure); `prune_constraints` on the
first `rmw-chains` history, where construct leaves it none; the
solver's conflict analysis (`Solver._cycle_deps`) of every conflict of
the search on the first `hotspot-write` history; the labels of the cycle
the search reports on the first `zipf-anomaly` history (`Solver._witness`,
which builds the edge universe of the pruned polygraph); and, on the
first history of run seed 1 of each of the benchmark's workload shapes
(`perfbench/workloads.py`): `build_polygraph` (on `rmw-chains` the RMW runs
order every writer pair), `tarjan_scc`, `reach_masks`, the `KnownIndex`
build, each fold of the branch records a prune iteration makes
(`KnownIndex.add_branches`, one record per source writer and key, with its
closure update), the first iteration's branch tests (`_resolve_pass`, key
by key and grouped by first writer), the `KnownIndex` build of the pruned
polygraph, the solver's set-up on the pruner's final index and its
search, its Pearce–Kelly order repair (`Solver._pk_check`, which searches
the rows through the mask of the affected region), one out-of-order
retraction, and `graphs.transpose` of the B rows of the encoder's index;
and the explainer's `EdgeUniverse` build and `find_cluster` on the same
histories (these two only where the check finds a violation). Two probes
measure memory, not time, each reported in `extra_info` and printed (run
with `-s` to see it): the tracemalloc peak of `build_polygraph` plus
`prune_constraints` on the first `uniform-10k` history, and that of one
whole `check_si` of each shape's first history. A scale probe times
construct plus prune, and takes their tracemalloc peak, on the
`uniform-10k` shape at 1x, 2x and 4x its transactions per session.
The file name keeps it out of the default test run; run it from the
repository root with

    PYTHONPATH=src:. python -m pytest tests/microbench/bench_kernels.py

(pytest-benchmark options such as `--benchmark-columns=min,median` apply).
"""

from __future__ import annotations

import copy
import io
import timeit
import tracemalloc
from dataclasses import replace

import pytest

from perfbench.workloads import WORKLOADS
from sicheck.encoding import encode, export_encoding
from sicheck.explain import (
    DEFAULT_MAX_CYCLE_LEN, DEFAULT_MAX_CYCLES_PER_DEP, EdgeUniverse, find_cluster,
)
from sicheck.gcpause import collector_paused
from sicheck.graphs import reach_masks, tarjan_scc, transpose
from sicheck.histories import completeness_gate, parse_history
from sicheck.pipeline import check_si
from sicheck.polygraph import (
    branch_ends, build_polygraph, create_known_graph, generate_constraints,
)
from sicheck.pruning import KnownIndex, _resolve_pass, prune_constraints
from sicheck.solving import Solver
from sicheck.workload import generate

from conftest import rmw_run_history

SEED = 1


@pytest.fixture(scope="module")
def front_end():
    """Bytes and parsed history of the first `uniform-10k` history."""
    data = WORKLOADS["uniform-10k"].case(SEED).data
    return data, parse_history(data)


@pytest.mark.parametrize("shape", sorted(WORKLOADS))
def test_parse_history(benchmark, shape):
    """Parse of the workload's first history, `json.loads` included."""
    benchmark(parse_history, WORKLOADS[shape].case(SEED).data)


def test_completeness_gate(benchmark, front_end):
    """The gate with its own walk of the ops, the collector paused as `check_si` runs it."""
    benchmark(collector_paused(completeness_gate), front_end[1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def history(request):
    """The workload's first history, parsed."""
    return parse_history(WORKLOADS[request.param].case(SEED).data)


def test_build_polygraph(benchmark, history):
    """Known graph, then constraints, with the collector paused as `check_si`
    runs it; on `rmw-chains` RMW runs cover every writer, so construct
    records the runs and generates no constraint."""
    benchmark(collector_paused(build_polygraph), history)


def test_construct_and_prune_peak_memory(benchmark, front_end):
    """tracemalloc peak, in MB, of construct plus prune, the collector paused."""

    @collector_paused
    def probe():
        tracemalloc.start()
        try:
            prune_constraints(build_polygraph(front_end[1]))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_mb = round(benchmark.pedantic(probe, rounds=1, iterations=1) / 2**20, 1)
    benchmark.extra_info["peak_mb"] = peak_mb
    print(f"construct + prune tracemalloc peak: {peak_mb} MB")


def test_check_peak_memory(benchmark, history):
    """tracemalloc peak, in MB, of one whole `check_si` (which pauses the
    collector itself) of the workload's first history, the explainer included."""

    def probe():
        tracemalloc.start()
        try:
            check_si(history)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_mb = round(benchmark.pedantic(probe, rounds=1, iterations=1) / 2**20, 2)
    benchmark.extra_info["peak_mb"] = peak_mb
    print(f"check_si tracemalloc peak: {peak_mb} MB")


# Multiples of the `uniform-10k` shape's transactions per session (510) the scale probe checks.
SCALES = (1, 2, 4)


def test_construct_and_prune_scale(benchmark):
    """Construct plus prune on the `uniform-10k` shape at 1x, 2x and 4x its
    transactions per session (510, 1,020 and 2,040), history seed 1, the
    collector paused: per size, the wall time (min of 3) and the
    tracemalloc peak of one more run, in `extra_info` and printed, with
    their ratios per doubling. The benchmark times the 1x size."""
    shape = WORKLOADS["uniform-10k"].params
    histories = {scale: generate(replace(shape, seed=SEED,
                                         txns_per_session=scale * shape.txns_per_session))
                 for scale in SCALES}

    @collector_paused
    def check(scale):
        prune_constraints(build_polygraph(histories[scale]))

    @collector_paused
    def peak(scale):
        tracemalloc.start()
        try:
            prune_constraints(build_polygraph(histories[scale]))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    seconds = {scale: min(timeit.repeat(lambda: check(scale), number=1, repeat=3))
               for scale in SCALES}
    peaks = {scale: peak(scale) for scale in SCALES}
    for scale in SCALES:
        committed = sum(1 for _ in histories[scale].committed())
        benchmark.extra_info[f"x{scale}"] = {
            "committed": committed, "ms": round(seconds[scale] * 1000, 1),
            "peak_mb": round(peaks[scale], 1)}
        print(f"uniform-10k x{scale} ({committed} committed): construct + prune "
              f"{seconds[scale] * 1000:.1f} ms, tracemalloc peak {peaks[scale]:.1f} MB")
    for low, high in zip(SCALES, SCALES[1:]):
        benchmark.extra_info[f"x{low}->x{high}"] = {
            "time": round(seconds[high] / seconds[low], 2),
            "peak": round(peaks[high] / peaks[low], 2)}
    benchmark.pedantic(check, args=(1,), rounds=3)


def test_rmw_run_scale(benchmark):
    """Construct plus the `KnownIndex` build on one RMW run of 100, 200 and
    400 writers (`rmw_run_history`), min of 5 each; prints the time per
    length and its ratio per doubling, which stays near 2 when both are
    linear in the run's length. The benchmark times the 400-writer run."""
    runs = {length: rmw_run_history(length) for length in (100, 200, 400)}

    def check(length):
        return KnownIndex(build_polygraph(runs[length]))

    best = {length: min(timeit.repeat(collector_paused(lambda: check(length)),
                                      number=1, repeat=5))
            for length in runs}
    ratios = {f"{length}->{2 * length}": round(best[2 * length] / best[length], 2)
              for length in (100, 200)}
    benchmark.extra_info.update({f"ms_{length}": round(t * 1000, 2) for length, t in best.items()})
    benchmark.extra_info.update(ratios)
    print("rmw run construct + index:",
          ", ".join(f"L={length} {t * 1000:.2f} ms" for length, t in best.items()),
          "; ratio per doubling", ratios)
    benchmark.pedantic(collector_paused(check), args=(400,), rounds=5)


def test_prune_zipf_anomaly(benchmark):
    """Prune to its fixpoint on the first `zipf-anomaly` history, from a fresh
    polygraph each round, the collector paused as `check_si` runs it."""
    history = parse_history(WORKLOADS["zipf-anomaly"].case(SEED).data)
    benchmark.pedantic(collector_paused(prune_constraints),
                       setup=lambda: ((build_polygraph(history),), {}), rounds=7)


def test_generate_constraints(benchmark):
    """The writer pairs of the first `zipf-anomaly` history, on a fresh known
    graph each round: every pair id of a key at C speed, less the pairs
    inside its RMW runs."""
    history = parse_history(WORKLOADS["zipf-anomaly"].case(SEED).data)
    benchmark.pedantic(collector_paused(generate_constraints),
                       setup=lambda: ((create_known_graph(history),), {}), rounds=20)


def test_prune_rmw_chains(benchmark):
    """Prune on the first `rmw-chains` history, from a fresh polygraph each
    round, the collector paused: construct orders every writer pair in RMW
    runs, so prune builds the index and passes over no open pair, and
    computes no closure."""
    history = parse_history(WORKLOADS["rmw-chains"].case(SEED).data)
    benchmark.pedantic(collector_paused(prune_constraints),
                       setup=lambda: ((build_polygraph(history),), {}), rounds=20)


def test_export_encoding(benchmark, front_end):
    """`encode` plus `export_encoding` into memory of the pruned polygraph,
    where most `d` lines are the initial writer's induced pairs."""
    graph = build_polygraph(front_end[1])
    prune_constraints(graph)
    benchmark.pedantic(lambda: export_encoding(encode(graph), io.BytesIO()), rounds=3)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def graphs(request):
    """The workload's polygraph, its index before pruning, its final K and
    the pruned polygraph that K indexes."""
    history = parse_history(WORKLOADS[request.param].case(SEED).data)
    initial = build_polygraph(history)
    index = KnownIndex(initial).with_reach()
    pruned = build_polygraph(history)
    final = prune_constraints(pruned).index or KnownIndex(pruned)
    return initial, index, final, pruned


def test_tarjan_scc(benchmark, graphs):
    final = graphs[2]
    benchmark(tarjan_scc, final.n, final.k_adj)


def test_reach_masks(benchmark, graphs):
    final = graphs[2]
    benchmark(reach_masks, final.n, final.k_adj)


def _copy_index(index: KnownIndex) -> KnownIndex:
    """An index that a fold can update without touching the original."""
    fresh = copy.copy(index)
    for name in ("a_adj", "b_adj", "a_pred", "k_adj", "reach", "starts"):
        rows = getattr(index, name)
        setattr(fresh, name, None if rows is None else list(rows))
    fresh.readers = dict(index.readers)
    return fresh


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def closure_updates(request):
    """Every fold of the workload's prune: the index as it stood before the
    fold, and the branch records it folds in."""
    history = parse_history(WORKLOADS[request.param].case(SEED).data)
    updates = []
    fold = KnownIndex.add_branches

    def recorded(index, records):
        if index.reach is not None:
            updates.append((_copy_index(index), records))
        return fold(index, records)

    KnownIndex.add_branches = recorded
    try:
        prune_constraints(build_polygraph(history))
    finally:
        KnownIndex.add_branches = fold
    return updates


@pytest.mark.parametrize("number", range(5))
def test_closure_update(benchmark, closure_updates, number):
    """One `add_branches` of prune, by its number in the run: the fold and
    the chain walk, or the closure rebuild where the batch is too large to walk."""
    if number >= len(closure_updates):
        pytest.skip("prune makes fewer updates")
    before, records = closure_updates[number]

    def setup():
        return (_copy_index(before), records), {}

    benchmark.pedantic(KnownIndex.add_branches, setup=setup, rounds=10)


def test_first_fold_rows(benchmark):
    """The first fold of prune on the first `zipf-anomaly` history, on a copy
    of the index before it with no closure, so only the A, B and K rows
    fold: one record per source writer and key, the targets a source
    already has left out by a bit test."""
    history = parse_history(WORKLOADS["zipf-anomaly"].case(SEED).data)
    fold, folds = KnownIndex.add_branches, []

    def recorded(index, records):
        folds.append((_copy_index(index), records))
        return fold(index, records)

    KnownIndex.add_branches = recorded
    try:
        prune_constraints(build_polygraph(history))
    finally:
        KnownIndex.add_branches = fold
    before, records = folds[0]
    before.reach = None

    def setup():
        return (_copy_index(before), records), {}

    benchmark.pedantic(KnownIndex.add_branches, setup=setup, rounds=20)


def test_known_index_build(benchmark, graphs):
    benchmark(KnownIndex, graphs[0])


def test_resolve_pass(benchmark, graphs):
    """Prune's first iteration of branch tests, key by key, against the
    pre-prune index, on a fresh copy of the polygraph each round (the pass
    resolves pairs in it); the fold of its records is not timed."""
    graph, index = graphs[0], graphs[1]

    def setup():
        fresh = copy.copy(index)
        fresh.graph = graph.clone()
        return (fresh, None, None, []), {}

    benchmark.pedantic(_resolve_pass, setup=setup, rounds=10)


def test_pruned_index_build(benchmark, graphs):
    """The index of a pruned polygraph, folding its resolved pairs per source."""
    benchmark(KnownIndex, graphs[3])


def test_solver_setup(benchmark, graphs):
    """The solver's search state from the pruner's final index: copies of its
    rows and an all-zero `b_pred`."""
    final, pruned = graphs[2], graphs[3]
    benchmark(Solver, pruned, index=final)


def test_transpose(benchmark, graphs):
    """The B rows of the encoder's index transposed, as the export's first
    induced definition builds them."""
    benchmark(transpose, encode(graphs[3]).index.b_adj)


def test_solver_search(benchmark, graphs):
    """Search over the constraints prune leaves, on the pruner's final index."""
    final, pruned = graphs[2], graphs[3]
    benchmark(lambda: Solver(pruned, index=final).solve())


def test_pk_check(benchmark, graphs):
    """Pearce–Kelly order repair alone: the write-order pair of each assigned
    branch of the search's sat assignment, inserted in decision order into
    the level-0 state. The pairs are acyclic together, so no conflict arises."""
    final, pruned = graphs[2], graphs[3]
    result = Solver(pruned, index=final).solve()
    if result.status != "sat" or not result.assignment:
        pytest.skip("no sat assignment with constraints to insert")
    pairs = []
    for cid in sorted(result.assignment):
        _, src, dst = branch_ends(cid, result.assignment[cid])
        u, v = final.vindex[src], final.vindex[dst]
        if not (final.k_adj[u] >> v) & 1:
            pairs.append((u, v))

    def level_zero():
        solver = Solver(pruned, index=final)
        assert solver.check_known_acyclic() is None
        return (solver,), {}

    def insert_all(solver):
        for u, v in pairs:
            solver.ind_rows[u] |= 1 << v
            solver._pk_check(u, v)

    benchmark.pedantic(insert_all, setup=level_zero, rounds=20)


def test_retract(benchmark, graphs):
    """Retraction of the first-assigned constraint from the state of a sat
    search: its branch edges leave the middle of the pair lists, and every
    later decision stays."""
    final, pruned = graphs[2], graphs[3]
    if Solver(pruned, index=final).solve().status != "sat" or not pruned.constraints:
        pytest.skip("no sat assignment with constraints to retract")

    def solved():
        solver = Solver(pruned, index=final)
        solver.solve()
        return (solver, min(range(len(solver.stamp)), key=solver.stamp.__getitem__)), {}

    benchmark.pedantic(lambda solver, k: solver._retract(k), setup=solved, rounds=20)


@pytest.fixture(scope="module")
def conflicts():
    """Each conflict of the search on the first `hotspot-write` history,
    pruned: a copy of the solver state it arose in, and its vertex cycle."""
    graph = build_polygraph(parse_history(WORKLOADS["hotspot-write"].case(SEED).data))
    final = prune_constraints(graph).index
    recorded = []
    analyze = Solver._analyze

    def recording(solver, vcycle):
        state = copy.copy(solver)
        state.a_rows, state.b_rows = list(solver.a_rows), list(solver.b_rows)
        state.a_edges = {pair: list(ks) for pair, ks in solver.a_edges.items()}
        state.b_edges = {pair: list(ks) for pair, ks in solver.b_edges.items()}
        state.assigned = list(solver.assigned)
        recorded.append((state, list(vcycle)))
        return analyze(solver, vcycle)

    Solver._analyze = recording
    try:
        Solver(graph, index=final).solve()
    finally:
        Solver._analyze = analyze
    return recorded


def test_conflict_analysis(benchmark, conflicts):
    """The culprits and the dependencies of every conflict of the search,
    each from the state it arose in, its known pairs left unlabeled; a
    round's time over `extra_info["conflicts"]` is the cost of one
    conflict. Only a reported cycle is labeled (`test_witness_labels`)."""
    benchmark.extra_info["conflicts"] = len(conflicts)

    def analyze_all():
        for state, vcycle in conflicts:
            state._cycle_deps(vcycle)

    benchmark(analyze_all)


def test_witness_labels(benchmark):
    """The labels of the first conflict's cycle, which the search reports
    on the first `zipf-anomaly` history, pruned: the edge universe of the
    pruned polygraph and the lowest known edge of each known pair."""
    graph = build_polygraph(parse_history(WORKLOADS["zipf-anomaly"].case(SEED).data))
    solver = Solver(graph, index=prune_constraints(graph).index)
    if solver.solve().status != "unsat" or solver.first_conflict is None:
        pytest.skip("the search reports no conflict's cycle")
    benchmark(solver._witness, solver.first_conflict)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def violation(request):
    """The workload's original polygraph and the witness cycle of its check."""
    history = parse_history(WORKLOADS[request.param].case(SEED).data)
    cycle = check_si(history, explain=False).cycle
    if cycle is None:
        pytest.skip("the check finds no violation")
    return build_polygraph(history), tuple(cycle.edges())


def test_edge_universe_build(benchmark, violation):
    """The constructor plus the successor lists the cluster search reads."""
    graph, cycle_edges = violation
    max_len = max(DEFAULT_MAX_CYCLE_LEN, min(len(graph.vertices), 16))
    probe = EdgeUniverse(graph)
    read: list = []
    successors = probe.successors
    probe.successors = lambda vertex: read.append(vertex) or successors(vertex)
    find_cluster(probe, cycle_edges, None, max_len, DEFAULT_MAX_CYCLES_PER_DEP)
    vertices = sorted(set(read))

    def build():
        universe = EdgeUniverse(graph)
        for vertex in vertices:
            universe.successors(vertex)

    benchmark(build)


def test_find_cluster(benchmark, violation):
    """Cluster search from the witness cycle, with `interpret`'s caps."""
    graph, cycle_edges = violation
    universe = EdgeUniverse(graph)
    max_len = max(DEFAULT_MAX_CYCLE_LEN, min(len(graph.vertices), 16))
    benchmark(find_cluster, universe, cycle_edges, None, max_len, DEFAULT_MAX_CYCLES_PER_DEP)
