"""Acceptance suite: one test per release criterion, with its stated bound.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import time
from pathlib import Path

import pytest

from sicheck.cli import main
from sicheck.explain import EdgeUniverse
from harness import known_edges, minimal_counterexample_size, random_small_history, record_failure
from sicheck.histories import parse_history, serialize_history
from sicheck.oracle import oracle_check
from sicheck.pipeline import check_si
from sicheck.polygraph import build_polygraph
from sicheck.pruning import prune_constraints
from sicheck.solving import SolveResult, solve, verify_witness
from sicheck.witness import WitnessCycle, has_adjacent_rw
from sicheck.workload import ANOMALIES, WorkloadParams, generate, inject

DATA = Path(__file__).parent / "data"
CORPUS = Path(__file__).parent / "corpus"

T1, T2, T3, T4 = (1, 0), (2, 0), (3, 0), (4, 0)


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


def test_criterion_1_long_fork_reproduction():
    history = parse_history((DATA / "long_fork.json").read_bytes())
    started = time.monotonic()
    verdict = check_si(history)
    elapsed = time.monotonic() - started
    assert verdict.outcome == "violation"
    cycle = verdict.cycle
    assert [(e[0], e[1], e[2]) for e in cycle.edges()] == [
        (T1, T3, "WR"),
        (T3, T2, "RW"),
        (T2, T4, "WR"),
        (T4, T1, "RW"),
    ]
    assert cycle.rw_count() == 2
    assert cycle.has_nonadjacent_rw_pair() and not has_adjacent_rw(cycle.edges())
    assert elapsed < 1.0
    _ok("1 long-fork", f"exact 4-edge witness cycle in {elapsed*1000:.0f} ms")


def test_criterion_2_known_anomaly_patterns():
    host = generate(
        WorkloadParams(sessions=6, txns_per_session=10, ops_per_txn=5, keys=40,
                       dist="uniform", seed=3)
    )
    assert check_si(host).outcome == "si-holds"
    for kind in ANOMALIES:
        verdict = check_si(inject(host, kind, seed=11))
        assert verdict.outcome == "violation", kind
        assert verdict.classification == kind, (kind, verdict.classification)
    _ok("2 anomaly patterns", f"all {len(ANOMALIES)} kinds rejected with matching labels")


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    disagreements = 0
    for seed in range(500):
        history = random_small_history(seed)
        expected = oracle_check(history).satisfiable
        got = check_si(history).outcome == "si-holds"
        if got != expected:
            record_failure("oracle-equivalence", seed, history, CORPUS)
            disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert elapsed < 300.0
    _ok("3 oracle equivalence", f"500 histories, 0 disagreements, {elapsed:.1f} s")


def test_criterion_4_pruning_correctness():
    disagreements = 0
    replayed = 0
    for seed in range(500):
        history = random_small_history(seed)
        pruned = check_si(history)
        raw = check_si(history, no_prune=True)
        if pruned.outcome != raw.outcome:
            record_failure("prune-differential", seed, history, CORPUS)
            disagreements += 1
            continue
        if pruned.outcome != "violation" or pruned.cycle is None:
            continue
        original = build_polygraph(history)
        universe, known = EdgeUniverse(original), known_edges(original)
        used: dict = {}
        for edge, _ in pruned.cycle.deps:
            origin = universe.origin_of(edge)
            if origin[0] == "known":
                assert edge in known, seed
            else:
                used.setdefault(origin[1], set()).add(origin[2])
        assert all(len(branches) == 1 for branches in used.values()), seed
        replayed += 1
    assert disagreements == 0
    assert replayed >= 100
    _ok("4 pruning correctness", f"0 verdict changes; {replayed} cycles replayed consistently")


def test_criterion_5_pruning_power_rmw():
    params = WorkloadParams(
        sessions=10, txns_per_session=100, ops_per_txn=15, keys=200,
        dist="zipfian", profile="rmw", seed=5,
    )
    history = generate(params)
    assert history.txn_count() == 1000
    verdict = check_si(history)
    assert verdict.gate.ok()
    before, after = verdict.stats_before, verdict.stats_after
    assert after == (0, 0)
    _ok("5 pruning power", f"rmw 1k txns: {before[0]} constraints -> 0, {before[1]} unknown deps -> 0")


def test_criterion_6_desk_scale_throughput():
    params = WorkloadParams(seed=11)  # 20 sessions x 100 txns x 15 ops, zipfian, 50% reads
    history = generate(params)
    assert history.txn_count() == 2000
    assert history.op_count() == 30_000
    started = time.monotonic()
    verdict = check_si(history)
    elapsed = time.monotonic() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert verdict.outcome == "si-holds"
    assert elapsed <= 120.0
    assert peak_gb <= 2.0
    _ok("6 desk-scale", f"2k txns / 30k ops in {elapsed:.1f} s, peak {peak_gb:.2f} GB")


def test_criterion_7_minimality():
    kinds = ("lost-update", "long-fork", "causality-violation")
    hosts = {
        "lost-update": WorkloadParams(sessions=3, txns_per_session=1, ops_per_txn=2,
                                      keys=3, dist="uniform"),
        "long-fork": WorkloadParams(sessions=5, txns_per_session=0, ops_per_txn=2,
                                    keys=3, dist="uniform"),
        "causality-violation": WorkloadParams(sessions=2, txns_per_session=1, ops_per_txn=2,
                                              keys=3, dist="uniform"),
    }
    mismatches = 0
    for seed in range(100):
        kind = kinds[seed % 3]
        host = generate(dataclasses.replace(hosts[kind], seed=seed))
        history = inject(host, kind, seed)
        assert history.txn_count() <= 8
        verdict = check_si(history)
        assert verdict.outcome == "violation", (seed, kind)
        ce = verdict.counterexample
        assert ce is not None and ce.minimal, (seed, kind)
        graph = build_polygraph(history)
        minimum = minimal_counterexample_size(graph, tuple(verdict.cycle.edges()))
        if ce.cluster.dependency_count() != minimum:
            record_failure("minimality", seed, history, CORPUS)
            mismatches += 1
    assert mismatches == 0
    _ok("7 minimality", "100 injected histories, interpreter matches exhaustive minimum")


def test_criterion_8_witness_verification():
    from sicheck.histories import completeness_gate

    sat_checked = unsat_checked = 0
    for seed in range(600):
        history = random_small_history(seed)
        if not completeness_gate(history).ok():
            continue
        graph = build_polygraph(history)
        outcome = prune_constraints(graph)
        if outcome.verdict == "immediate-violation":
            # The pruner's branch cycles are witnesses in their own right.
            for cycle in (outcome.violation.either_cycle, outcome.violation.or_cycle):
                assert cycle.closed() and not has_adjacent_rw(cycle.edges()), seed
            unsat_checked += 1
            continue
        result = solve(graph)
        assert verify_witness(result, graph), seed
        if result.status == "sat":
            sat_checked += 1
        else:
            unsat_checked += 1
    assert sat_checked >= 50 and unsat_checked >= 50
    # Negative control: a corrupted witness must fail verification.
    history = parse_history((DATA / "long_fork.json").read_bytes())
    graph = build_polygraph(history)
    prune_constraints(graph)
    result = solve(graph)
    deps = list(result.cycle.deps)
    edge, origin = deps[0]
    deps[0] = ((edge[1], edge[0], edge[2], edge[3]), origin)
    assert not verify_witness(SolveResult("unsat", cycle=WitnessCycle(deps)), graph)
    # Malformed origins are rejected, not raised on: a bogus branch label on
    # a branch dep (the unpruned search's witness has one) and on a resolved
    # dep (the pruned one's), and an origin too short or with no triple.
    unpruned = build_polygraph(history)
    malformed = 0
    for searched in (unpruned, graph):
        witness = solve(searched).cycle.deps
        for at, (edge, origin) in enumerate(witness):
            if origin[0] not in ("branch", "resolved"):
                continue
            kind, cid, branch = origin
            for bad in ((kind, cid, "bogus"), (kind, cid), (kind,), (kind, cid[:2], branch),
                        (kind, cid + cid[2:], branch), (kind, "x", branch)):
                deps = [*witness[:at], (edge, bad), *witness[at + 1:]]
                assert not verify_witness(SolveResult("unsat", cycle=WitnessCycle(deps)),
                                          searched), bad
                malformed += 1
    assert {o[0] for _, o in solve(unpruned).cycle.deps} >= {"branch"}
    assert {o[0] for _, o in result.cycle.deps} >= {"resolved"}
    _ok("8 witness verification",
        f"{sat_checked} sat + {unsat_checked} unsat witnesses verified; corrupted control "
        f"and {malformed} malformed origins rejected")


def test_criterion_9_determinism(tmp_path, capsys):
    # Byte-identical generated histories.
    argv = ["generate", "--sessions", "4", "--txns", "5", "--ops", "4", "--keys", "8",
            "--dist", "zipfian", "--seed", "77", "--anomaly", "lost-update", "-o"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(argv + [str(a)])
    main(argv + [str(b)])
    assert a.read_bytes() == b.read_bytes()
    # Byte-identical JSON verdicts across two consecutive runs.
    main(["check", str(a), "--json"])
    first = capsys.readouterr().out
    main(["check", str(a), "--json"])
    second = capsys.readouterr().out
    assert first == second and first.strip()
    json.loads(first)  # stays parseable
    # Byte-identical DOT output.
    d1, d2 = tmp_path / "1.dot", tmp_path / "2.dot"
    main(["explain", str(a), "--stage", "recovered", "--dot", str(d1)])
    main(["explain", str(a), "--stage", "recovered", "--dot", str(d2)])
    capsys.readouterr()
    assert d1.read_bytes() == d2.read_bytes()
    _ok("9 determinism", "histories, JSON verdicts, and DOT output byte-identical across runs")
