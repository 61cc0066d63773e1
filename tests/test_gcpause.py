"""The cyclic collector is paused across parse and check, and restored after.

A paused collector only costs no memory if a check builds no reference
cycles; the first test holds the pipeline to that.
"""

import gc
import itertools
import json
import sys
import threading
import types
from pathlib import Path

import pytest

from sicheck import histories, pipeline, pruning
from sicheck.cli import main
from sicheck.errors import BudgetExceededError, FormatError
from sicheck.gcpause import collector_paused
from harness import random_small_history
from sicheck.histories import parse_history, serialize_history
from sicheck.pipeline import check_si
from sicheck.workload import WorkloadParams, generate

from conftest import aborted, committed, immediate_violation_history, mk_history

TESTS = Path(__file__).parent
FILES = sorted((TESTS / "data").glob("*.json")) + sorted((TESTS / "corpus").rglob("*.json"))


@pytest.fixture
def collector_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_checks_leave_no_cyclic_garbage(collector_disabled):
    cases = [(path.name, parse_history(path.read_bytes())) for path in FILES]
    cases += [(f"seed {seed}", random_small_history(seed)) for seed in range(300)]
    explained = 0
    for name, history in cases:
        for no_prune in (False, True):
            verdict = check_si(history, no_prune=no_prune)
            explained += verdict.counterexample is not None
            # The collector has not run since the last call, so the young
            # generation holds exactly what this check allocated and kept.
            assert gc.collect(0) == 0, f"{name}, no_prune={no_prune}"
    assert explained > 100


def _sat_data() -> bytes:
    return serialize_history(generate(WorkloadParams(sessions=3, txns_per_session=8, seed=1)))


@pytest.fixture
def pruning_out_of_time(monkeypatch):
    """Prune's clock advances a second per reading: any budget runs out."""
    clock = itertools.count(step=1.0)
    monkeypatch.setattr(pruning, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))


class TestRestored:
    def test_paused_while_running_and_enabled_after(self, monkeypatch):
        seen = []

        def probe(fn):
            def probed(*args):
                seen.append(gc.isenabled())
                return fn(*args)
            return probed

        data = _sat_data()
        monkeypatch.setattr(histories, "json", types.SimpleNamespace(
            loads=probe(json.loads), JSONDecodeError=json.JSONDecodeError))
        monkeypatch.setattr(pipeline, "completeness_gate", probe(pipeline.completeness_gate))
        assert gc.isenabled()
        history = parse_history(data)
        assert gc.isenabled()
        assert check_si(history).outcome == "si-holds"
        assert check_si(immediate_violation_history()).outcome == "violation"
        assert gc.isenabled()
        assert seen == [False, False, False]

    def test_enabled_after_a_raise(self, pruning_out_of_time):
        with pytest.raises(FormatError):
            parse_history(b'{"sessions": [{"id": 0, "transactions": [1]}]}')
        assert gc.isenabled()
        history = parse_history(_sat_data())
        with pytest.raises(BudgetExceededError):
            check_si(history, budget_ms=0)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, collector_disabled, pruning_out_of_time):
        history = parse_history(_sat_data())
        assert not gc.isenabled()
        check_si(history)
        assert not gc.isenabled()
        with pytest.raises(FormatError):
            parse_history(b"[]")
        with pytest.raises(BudgetExceededError):
            check_si(history, budget_ms=0)
        assert not gc.isenabled()

    def test_stats_paused_while_running_and_enabled_after(self, monkeypatch, tmp_path, capsys):
        seen, walked = [], []
        gate = pipeline.completeness_gate

        def probed(history, walk=None):
            seen.append(gc.isenabled())
            walked.append(walk is not None)
            return gate(history, walk)

        monkeypatch.setattr(pipeline, "completeness_gate", probed)
        path = tmp_path / "sat.json"
        path.write_bytes(_sat_data())
        # An aborted write read by a committed transaction fails the gate.
        failing = mk_history([[aborted([("w", "x", 9)])], [committed([("r", "x", 9)])]])
        failing_path = tmp_path / "gate.json"
        failing_path.write_bytes(serialize_history(failing))
        assert gc.isenabled()
        assert main(["stats", str(path)]) == 0
        assert gc.isenabled()
        assert main(["stats", str(failing_path)]) == 2
        assert gc.isenabled()
        assert not pipeline.check_si(failing).gate.ok()
        assert gc.isenabled()
        assert seen == [False, False, False]
        # The gate reads the walk that construction reads too.
        assert walked == [True, True, True]
        capsys.readouterr()

    def test_nested_calls_restore_once(self):
        states = []

        @collector_paused
        def inner():
            states.append(gc.isenabled())

        @collector_paused
        def outer():
            inner()
            states.append(gc.isenabled())

        outer()
        assert states == [False, False]
        assert gc.isenabled()

    def test_overlapping_threads_leave_it_enabled(self):
        cases = [random_small_history(seed) for seed in range(40)]
        errors = []

        def worker(offset):
            try:
                for i in range(len(cases)):
                    check_si(cases[(i + offset) % len(cases)])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k * 10,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()
