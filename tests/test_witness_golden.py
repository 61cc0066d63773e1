"""Witness cycles pinned against `tests/golden/witnesses.jsonl`.

Each record is the sorted-key `check_si(...).to_json_dict()` of one history,
pruned or with `no_prune`: the immediate-violation, long-fork, lost-update
and causality-violation fixtures, the `tests/corpus/rmw-runs` seeds, the
first 60 `random_small_history` seeds below 400 whose pruned check reports a
violation with a witness cycle, and every other such seed whose check,
pruned or not, has solver conflicts. Prune's dead-branch witnesses and the
solver's conflict witnesses are both built from the known-graph index's
rows, so the file pins the labeling of both.
"""

import json
from pathlib import Path

import pytest

from harness import random_small_history
from sicheck.histories import parse_history
from sicheck.pipeline import check_si
from sicheck.polygraph import build_polygraph
from sicheck.pruning import prune_constraints

from conftest import immediate_violation_history

TESTS = Path(__file__).parent
RECORDS = [json.loads(line) for line in (TESTS / "golden" / "witnesses.jsonl").read_text().splitlines()]


@pytest.fixture
def history(request):
    def load(case):
        kind, _, name = case.partition("/")
        if kind == "random":
            return random_small_history(int(name))
        if kind == "rmw-runs":
            return parse_history((TESTS / "corpus" / "rmw-runs" / name).read_bytes())
        if kind == "immediate-violation":
            return immediate_violation_history()
        return request.getfixturevalue(kind.replace("-", "_"))
    return load


def test_verdicts_match_the_golden_records(history):
    from_prune = from_conflicts = 0
    for record in RECORDS:
        h = history(record["case"])
        got = json.dumps(check_si(h, no_prune=record["no_prune"]).to_json_dict(), sort_keys=True)
        assert got == json.dumps(record["verdict"], sort_keys=True), (record["case"], record["no_prune"])
        if record["verdict"]["witness_cycle"] is None:
            continue
        if record["verdict"]["solver"]["conflicts"]:
            from_conflicts += 1
        elif not record["no_prune"] and prune_constraints(build_polygraph(h)).violation is not None:
            from_prune += 1
    assert from_prune >= 10 and from_conflicts >= 10, (from_prune, from_conflicts)
