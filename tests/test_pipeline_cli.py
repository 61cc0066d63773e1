import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sicheck import cli, encoding, explain
from sicheck.cli import main
from sicheck.encoding import encode, export_encoding
from sicheck.histories import parse_history, serialize_history
from sicheck.explain import interpret
from sicheck.pipeline import check_si
from sicheck.polygraph import Polygraph, build_polygraph
from sicheck.pruning import prune_constraints
from sicheck.workload import WorkloadParams, generate

from conftest import immediate_violation_history, injected_histories, workload_history
from harness import random_small_history

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# One committed read of 7 on x, which no transaction wrote.
DANGLING = json.dumps({"sessions": [{"id": 0, "transactions": [
    {"index": 0, "status": "committed", "ops": [{"t": "r", "k": "x", "v": 7}]}]}]})


@pytest.fixture
def long_fork_file() -> str:
    return str(DATA / "long_fork.json")


class TestCheckSi:
    def test_gate_short_circuits_graph_work(self):
        payload = json.dumps(
            {
                "sessions": [
                    {
                        "id": 0,
                        "transactions": [
                            {
                                "index": 0,
                                "status": "committed",
                                "ops": [{"t": "r", "k": "x", "v": 1}, {"t": "r", "k": "x", "v": 2}],
                            }
                        ],
                    },
                    {
                        "id": 1,
                        "transactions": [
                            {
                                "index": 0,
                                "status": "committed",
                                "ops": [{"t": "w", "k": "x", "v": 1}, {"t": "w", "k": "x", "v": 2}],
                            }
                        ],
                    },
                ]
            }
        )
        verdict = check_si(parse_history(payload))
        assert verdict.outcome == "violation"
        assert verdict.gate.int_violations
        assert verdict.stats_before == (0, 0)
        assert "construct" not in verdict.timings_ms

    def test_phase_timings_reported(self, long_fork, tmp_path, capsys):
        verdict = check_si(long_fork)
        for phase in ("gate", "construct", "prune", "solve", "interpret", "total"):
            assert phase in verdict.timings_ms
        assert "encode" not in verdict.timings_ms
        # The CLI times the parse on its own; the JSON record stays without timings.
        assert "parse" not in verdict.timings_ms
        path = str(DATA / "long_fork.json")
        assert main(["check", path, "--json"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"{path}: phases: parse ") and ", total " in err
        assert "phases" not in out and json.loads(out)["verdict"] == "violation"
        verdict = check_si(long_fork, emit_encoding_path=str(tmp_path / "enc.txt"))
        for phase in ("gate", "construct", "prune", "encode", "solve", "interpret", "total"):
            assert phase in verdict.timings_ms
        # The witness check is timed on its own whenever the solver ran.
        sat = generate(WorkloadParams(sessions=5, txns_per_session=4, ops_per_txn=3, keys=4, seed=35))
        solved = 0
        for history in (long_fork, sat, immediate_violation_history()):
            for no_prune in (False, True):
                timings = check_si(history, no_prune=no_prune).timings_ms
                assert ("verify" in timings) == ("solve" in timings)
                solved += "solve" in timings
        assert solved == 5

    def test_no_encoding_built_without_emit_path(self, long_fork, lost_update, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the check built an encoding")

        monkeypatch.setattr(encoding, "encode", boom)
        monkeypatch.setattr(encoding, "Encoding", boom)
        sat = generate(WorkloadParams(sessions=5, txns_per_session=4, ops_per_txn=3, keys=4, seed=35))
        for history in (long_fork, lost_update, sat):
            for no_prune in (False, True):
                check_si(history, no_prune=no_prune)

    def test_emitted_encoding_is_that_of_the_solved_graph(self, long_fork, tmp_path):
        sat = generate(WorkloadParams(sessions=5, txns_per_session=4, ops_per_txn=3, keys=4, seed=35))
        for history in (long_fork, sat):
            for no_prune in (False, True):
                target = tmp_path / "enc.txt"
                check_si(history, no_prune=no_prune, emit_encoding_path=str(target))
                graph = build_polygraph(history)
                if not no_prune:
                    graph = graph.clone()
                    assert prune_constraints(graph).verdict == "ok"
                expected = io.BytesIO()
                export_encoding(encode(graph), expected)
                assert target.read_bytes() == expected.getvalue()

    def test_encoding_emitted_after_an_immediate_violation(self, tmp_path):
        target = tmp_path / "enc.txt"
        verdict = check_si(immediate_violation_history(), emit_encoding_path=str(target))
        assert verdict.outcome == "violation" and verdict.decisions == 0
        graph = build_polygraph(immediate_violation_history())
        assert prune_constraints(graph).verdict == "immediate-violation"
        expected = io.BytesIO()
        export_encoding(encode(graph), expected)
        assert target.read_bytes() == expected.getvalue()

    def test_no_prune_same_verdict_more_solving(self, long_fork):
        pruned = check_si(long_fork, explain=False)
        raw = check_si(long_fork, no_prune=True, explain=False)
        assert pruned.outcome == raw.outcome == "violation"
        assert raw.stats_after == raw.stats_before
        assert raw.decisions >= pruned.decisions

    def test_json_record_stable_fields(self, long_fork):
        record = check_si(long_fork).to_json_dict()
        assert record["verdict"] == "violation"
        assert record["classification"] == "long-fork"
        assert record["constraints"]["before"] == {"count": 4, "unknown_deps": 14}
        assert [d["label"] for d in record["witness_cycle"]] == ["WR", "RW", "WR", "RW"]


def _contract_histories() -> list:
    """The histories of `tests/data`, the injected ones and a seed bank."""
    return [*(parse_history(path.read_bytes()) for path in sorted(DATA.glob("*.json"))),
            *injected_histories(), *(random_small_history(seed) for seed in range(600))]


class TestOneGraphPerCheck:
    """A check prunes its one polygraph in place, and the explainer reopens
    the pairs prune resolved."""

    def test_check_never_clones(self, monkeypatch):
        def refused(self):
            raise AssertionError("Polygraph.clone called by check_si")

        monkeypatch.setattr(Polygraph, "clone", refused)
        outcomes = Counter()
        for history in _contract_histories():
            for no_prune in (False, True):
                outcomes[check_si(history, no_prune=no_prune).outcome, no_prune] += 1
        assert min(outcomes.values()) > 100, outcomes

    def test_interpret_reopens_resolved_pairs(self, monkeypatch):
        """`interpret` of the pruned graph equals that of the unpruned one;
        it explains over one universe of the pruned graph itself, which
        reads as the universe of the unpruned graph, edge for edge and
        origin for origin, and it leaves the pruned graph as it was."""
        universe_of = explain.EdgeUniverse
        explained = []

        def recorded(graph, **options):
            explained.append(universe_of(graph, **options))
            return explained[-1]

        monkeypatch.setattr(explain, "EdgeUniverse", recorded)
        reopened = 0
        for history in [*_contract_histories(), workload_history("zipf-anomaly", 1)]:
            cycle = check_si(history, explain=False).cycle
            if cycle is None:
                continue
            original, pruned = build_polygraph(history), build_polygraph(history)
            prune_constraints(pruned)
            kept = (list(pruned.constraints), dict(pruned.resolved))
            expected = interpret(history, original, cycle)
            explained.clear()
            assert interpret(history, pruned, cycle) == expected
            [universe] = explained
            assert universe.graph is pruned and universe.reopened
            unpruned = universe_of(original)
            for vertex in original.vertices:
                edges = universe.successors(vertex)
                assert edges == unpruned.successors(vertex)
                assert list(map(universe.origin_of, edges)) == list(
                    map(unpruned.origin_of, edges))
            assert (list(pruned.constraints), pruned.resolved) == kept
            reopened += bool(pruned.resolved)
        assert reopened > 100, reopened


class TestCli:
    def test_check_exit_codes(self, long_fork_file, tmp_path, capsys):
        assert main(["check", long_fork_file]) == 1
        assert main(["check", str(DATA / "valid_small.json")]) == 0
        assert main(["check", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["check", str(bad)]) == 2
        capsys.readouterr()

    def test_check_json_matches_golden(self, long_fork_file, capsys):
        assert main(["check", long_fork_file, "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        golden = json.loads((GOLDEN / "long_fork_verdict.jsonl").read_text())
        out.pop("file")
        golden.pop("file")
        assert out == golden

    def test_check_json_deterministic(self, long_fork_file, capsys):
        main(["check", long_fork_file, "--json"])
        first = capsys.readouterr().out
        main(["check", long_fork_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_check_multiple_files_worst_exit(self, long_fork_file, capsys):
        code = main(["check", str(DATA / "valid_small.json"), long_fork_file])
        assert code == 1
        out = capsys.readouterr().out
        assert "ok (snapshot isolation holds)" in out
        assert "violation (long-fork)" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_file_hides_no_verdict(self, long_fork_file, tmp_path, capsys, jobs):
        good = str(DATA / "valid_small.json")
        # Bad JSON, a read of a value no one wrote, nesting deeper than the
        # decoder recurses, and an integer longer than int() converts.
        errors = {
            "bad.json": ("{", "history is not valid JSON"),
            "dangling.json": (DANGLING, "T(0,0) reads 7 from key 'x', which no transaction wrote"),
            "deep.json": ("[" * 200_000, "history is nested too deeply"),
            "digits.json": ('{"sessions": [' + "9" * 5_000 + "]}", "history is not valid JSON"),
        }
        bad = []
        for name, (text, _) in errors.items():
            (tmp_path / name).write_text(text)
            bad.append(str(tmp_path / name))
        files = [good, *bad, long_fork_file]
        assert main(["check", *files, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert f"{good}: ok (snapshot isolation holds)" in captured.out
        assert f"{long_fork_file}: violation (long-fork)" in captured.out
        for path, (_, message) in zip(bad, errors.values()):
            assert f"sicheck: error: {path}: {message}" in captured.err
        assert main(["check", *files, "--json", "--jobs", jobs]) == 2
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["file"] for r in records] == files
        assert [r.get("verdict") for r in records] == ["si-holds", *[None] * 4, "violation"]
        for path, record in zip(bad, records[1:]):
            assert record["exit_code"] == 2 and record["error"].startswith(f"{path}: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_budget_overrun_is_the_worst_code(self, tmp_path, capsys, jobs):
        slow = tmp_path / "w.json"
        main(["generate", "--sessions", "10", "--txns", "40", "--ops", "8",
              "--keys", "12", "--dist", "zipfian", "--profile", "write-heavy",
              "--seed", "2", "-o", str(slow)])
        missing = str(tmp_path / "missing.json")
        capsys.readouterr()
        args = ["check", missing, str(slow), "--budget-ms", "0", "--jobs", jobs]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert f"sicheck: error: {missing}: " in err
        assert f"sicheck: budget exceeded: {slow}: " in err
        assert main([*args, "--json"]) == 3
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["file"], r["exit_code"]) for r in records] == [(missing, 2), (str(slow), 3)]

    @pytest.mark.parametrize("args", [
        ["check", "--budget-ms", "-5"],
        ["check", "--jobs", "0"],
        ["check", "--jobs", "-3"],
        ["explain", "--budget-ms", "-1"],
    ], ids=" ".join)
    def test_negative_budget_and_too_few_jobs_are_usage_errors(self, capsys, args):
        command, option, value = args
        with pytest.raises(SystemExit) as exit_:
            main([command, str(DATA / "valid_small.json"), option, value])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {option}: must be at least" in err

    def test_emit_encoding(self, long_fork_file, tmp_path, capsys):
        target = tmp_path / "encoding.txt"
        main(["check", long_fork_file, "--emit-encoding", str(target)])
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert lines[0] == "si-encoding 1"
        assert lines[-1] == "a induced"

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["sequential", "jobs"])
    def test_emit_encoding_refuses_several_files(self, long_fork_file, tmp_path, capsys, jobs):
        target = tmp_path / "encoding.txt"
        args = ["check", long_fork_file, str(DATA / "valid_small.json"), "--emit-encoding",
                str(target), *jobs]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--emit-encoding takes one history file" in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["check", str(DATA / "long_fork.json"), "--emit-encoding"],
        ["explain", str(DATA / "long_fork.json"), "--dot"],
        ["generate", "--sessions", "2", "--txns", "2", "-o"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out"
        assert main([*argv, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"sicheck: error: {target}: No such file or directory"]

    def test_unwritable_encoding_path_is_found_before_the_check(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_check(*args, **kwargs):
            raise AssertionError("check_si ran for an encoding path that cannot be written")

        monkeypatch.setattr(cli, "check_si", no_check)
        target = tmp_path / "missing" / "out"
        for json_args in ([], ["--json"]):
            args = ["check", str(DATA / "long_fork.json"), "--emit-encoding", str(target)]
            assert main([*args, *json_args]) == 2
            out, err = capsys.readouterr()
            message = f"{target}: No such file or directory"
            if json_args:
                assert json.loads(out)["error"] == message and err == ""
            else:
                assert out == "" and err.splitlines() == [f"sicheck: error: {message}"]
        assert not target.parent.exists()

    def test_budget_overrun_leaves_no_encoding_file(self, tmp_path, capsys):
        slow, target = tmp_path / "w.json", tmp_path / "encoding.txt"
        main(["generate", "--sessions", "10", "--txns", "40", "--ops", "8",
              "--keys", "12", "--dist", "zipfian", "--profile", "write-heavy",
              "--seed", "2", "-o", str(slow)])
        capsys.readouterr()
        args = ["check", str(slow), "--budget-ms", "0", "--emit-encoding", str(target)]
        assert main(args) == 3
        assert "budget exceeded" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [slow]

    def test_generate_and_check_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main([
            "generate", "--sessions", "3", "--txns", "4", "--ops", "4",
            "--keys", "8", "--dist", "uniform", "--seed", "5", "-o", str(out),
        ]) == 0
        assert main(["check", str(out)]) == 0
        capsys.readouterr()

    def test_generate_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--sessions", "2", "--txns", "3", "--ops", "3",
                "--keys", "5", "--seed", "9", "-o"]
        main(argv + [str(a)])
        main(argv + [str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_generate_env_seed_override(self, tmp_path, capsys, monkeypatch):
        argv = ["generate", "--sessions", "2", "--txns", "3", "--ops", "3",
                "--keys", "5", "--seed", "1", "-o"]
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        main(argv + [str(a)])
        monkeypatch.setenv("SI_SENTINEL_SEED", "1234")
        main(argv + [str(b)])
        monkeypatch.delenv("SI_SENTINEL_SEED")
        main(["generate", "--sessions", "2", "--txns", "3", "--ops", "3",
              "--keys", "5", "--seed", "1234", "-o", str(c)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_generate_anomaly_fails_check(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        main(["generate", "--sessions", "5", "--txns", "3", "--ops", "4", "--keys", "10",
              "--dist", "uniform", "--seed", "3", "--anomaly", "long-fork", "-o", str(out)])
        assert main(["check", str(out)]) == 1
        assert "long-fork" in capsys.readouterr().out

    def test_explain_writes_dot(self, long_fork_file, tmp_path, capsys):
        dot = tmp_path / "ce.dot"
        code = main(["explain", long_fork_file, "--stage", "final", "--dot", str(dot)])
        assert code == 1
        assert dot.read_text() == (GOLDEN / "long_fork_final.dot").read_text()
        out = capsys.readouterr().out
        assert "classification: long-fork" in out

    def test_explain_valid_history(self, capsys):
        assert main(["explain", str(DATA / "valid_small.json")]) == 0
        assert "no violation" in capsys.readouterr().out

    def test_oracle_subcommand(self, long_fork_file, capsys):
        assert main(["oracle", long_fork_file]) == 1
        assert main(["oracle", str(DATA / "valid_small.json")]) == 0
        assert main(["oracle", long_fork_file, "--max-txns", "2"]) == 2
        capsys.readouterr()

    def test_stats_subcommand(self, long_fork_file, capsys):
        assert main(["stats", long_fork_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["phase", "constraints", "unknown_deps"]
        assert out[1].split() == ["before", "4", "14"]
        assert out[2].split() == ["after", "0", "0"]

    def test_stats_requires_gate_passing_history(self, tmp_path, capsys):
        payload = {
            "sessions": [
                {"id": 0, "transactions": [
                    {"index": 0, "status": "aborted",
                     "ops": [{"t": "w", "k": "x", "v": 9}]}]},
                {"id": 1, "transactions": [
                    {"index": 0, "status": "committed",
                     "ops": [{"t": "r", "k": "x", "v": 9}]}]},
            ]
        }
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(payload))
        assert main(["stats", str(path)]) == 2
        capsys.readouterr()

    def test_outputs_survive_hash_randomization(self, long_fork_file):
        # String hashing must never leak into any serialized output; run the
        # CLI in fresh interpreters with different hash seeds and compare.
        outputs = []
        for hash_seed in ("1", "42"):
            proc = subprocess.run(
                [sys.executable, "-m", "sicheck", "check", long_fork_file, "--json"],
                capture_output=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 1
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_check_jobs_parallel(self, long_fork_file, capsys):
        files = [str(DATA / "valid_small.json"), long_fork_file]
        sequential = None
        for jobs in ("1", "2"):
            code = main(["check", *files, "--json", "--jobs", jobs])
            assert code == 1
            out = capsys.readouterr().out
            if sequential is None:
                sequential = out
            else:
                assert out == sequential  # same order and bytes regardless of jobs

    def test_explain_gate_violation(self, tmp_path, capsys):
        payload = {
            "sessions": [
                {"id": 0, "transactions": [
                    {"index": 0, "status": "aborted",
                     "ops": [{"t": "w", "k": "x", "v": 9}]}]},
                {"id": 1, "transactions": [
                    {"index": 0, "status": "committed",
                     "ops": [{"t": "r", "k": "x", "v": 9}]}]},
            ]
        }
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(payload))
        dot = tmp_path / "gate.dot"
        assert main(["explain", str(path), "--dot", str(dot)]) == 1
        out = capsys.readouterr().out
        assert "classification: aborted-read" in out
        assert dot.read_text() == "digraph counterexample {\n}\n"

    def test_budget_exit_code(self, tmp_path, capsys):
        # A contended workload with a 0 ms budget cannot finish pruning.
        out = tmp_path / "w.json"
        main(["generate", "--sessions", "10", "--txns", "40", "--ops", "8",
              "--keys", "12", "--dist", "zipfian", "--profile", "write-heavy",
              "--seed", "2", "-o", str(out)])
        capsys.readouterr()
        code = main(["check", str(out), "--budget-ms", "0"])
        capsys.readouterr()
        assert code == 3


class TestCheckFuzz:
    """`sicheck check --json` on a random history, whole or with a byte slice
    replaced, exits 0, 1 or 2 with one JSON record naming the file, and
    prints no traceback."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2999),
           st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 8), st.binary(max_size=8)))
    def test_damaged_histories(self, seed, damage):
        data = serialize_history(random_small_history(seed))
        if damage is not None:
            at, length, replacement = damage
            at %= len(data) + 1
            data = data[:at] + replacement + data[at + length:]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "history.json")
            Path(path).write_bytes(data)
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["check", "--json", path])
        lines = out.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert len(lines) == 1 and json.loads(lines[0])["file"] == path
        assert "Traceback" not in err.getvalue()
