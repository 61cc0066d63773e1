import pytest

from sicheck.errors import UnsupportedShapeError
from sicheck.histories import parse_history, serialize_history
from sicheck.oracle import OracleLimits, oracle_check
from sicheck.pipeline import check_si
from sicheck.workload import (
    ANOMALIES,
    MockStore,
    WorkloadParams,
    abort_rate,
    generate,
    inject,
)


class TestMockStore:
    def test_snapshot_read_sees_committed_prefix(self):
        store = MockStore()
        snap0 = store.begin()
        assert store.try_commit(snap0, {"x": 1})
        snap1 = store.begin()
        assert store.try_commit(snap1, {"x": 2})
        snap2 = store.begin()
        assert store.read("x", snap0, {}) == 0
        assert store.read("x", snap1, {}) == 1
        assert store.read("x", snap2, {}) == 2

    def test_pending_writes_visible_to_self(self):
        store = MockStore()
        snap = store.begin()
        assert store.read("x", snap, {"x": 9}) == 9

    def test_first_committer_wins(self):
        store = MockStore()
        snap_a = store.begin()
        snap_b = store.begin()
        assert store.try_commit(snap_a, {"x": 1})
        assert not store.try_commit(snap_b, {"x": 2})  # concurrent writer lost
        assert store.try_commit(store.begin(), {"x": 3})

    def test_disjoint_write_sets_both_commit(self):
        store = MockStore()
        snap_a = store.begin()
        snap_b = store.begin()
        assert store.try_commit(snap_a, {"x": 1})
        assert store.try_commit(snap_b, {"y": 2})


class TestGenerate:
    def test_shape_and_validity(self):
        params = WorkloadParams(
            sessions=4, txns_per_session=6, ops_per_txn=5, keys=12, dist="uniform", seed=9
        )
        history = generate(params)
        assert len(history.sessions) == 4
        assert history.txn_count() == 24
        assert history.op_count() == 120
        assert check_si(history).outcome == "si-holds"

    def test_small_generated_pass_oracle(self):
        for seed in range(6):
            params = WorkloadParams(
                sessions=3, txns_per_session=3, ops_per_txn=3, keys=4, dist="uniform", seed=seed
            )
            history = generate(params)
            assert oracle_check(history, OracleLimits(max_txns=20, max_writers_per_key=9)).satisfiable

    def test_deterministic_bytes(self):
        params = WorkloadParams(sessions=3, txns_per_session=4, ops_per_txn=4, keys=6, seed=123)
        assert serialize_history(generate(params)) == serialize_history(generate(params))

    def test_round_trips_through_parser(self):
        params = WorkloadParams(sessions=3, txns_per_session=4, ops_per_txn=4, keys=6, seed=7)
        history = generate(params)
        assert parse_history(serialize_history(history)) == history

    def test_single_session_is_serial(self):
        params = WorkloadParams(sessions=1, txns_per_session=10, ops_per_txn=4, keys=5, seed=2)
        history = generate(params)
        assert abort_rate(history) == 0.0
        assert check_si(history).outcome == "si-holds"

    def test_contended_write_heavy_aborts(self):
        params = WorkloadParams(
            sessions=8, txns_per_session=15, ops_per_txn=8, keys=20,
            dist="zipfian", profile="write-heavy", seed=1,
        )
        assert abort_rate(generate(params)) > 0.0

    def test_rmw_profile_prunes_to_nothing(self):
        params = WorkloadParams(
            sessions=5, txns_per_session=20, ops_per_txn=6, keys=30,
            dist="uniform", profile="rmw", seed=4,
        )
        history = generate(params)
        verdict = check_si(history)
        assert verdict.gate.ok()
        before, after = verdict.stats_before, verdict.stats_after
        assert after == (0, 0)

    def test_profiles_shift_read_share(self):
        def read_share(profile):
            params = WorkloadParams(
                sessions=2, txns_per_session=10, ops_per_txn=10, keys=10,
                profile=profile, seed=3,
            )
            history = generate(params)
            reads = sum(1 for t in history.transactions() for op in t.ops if op.kind == "r")
            return reads / history.op_count()

        assert read_share("read-heavy") > 0.85
        assert 0.3 < read_share("medium") < 0.7
        assert read_share("write-heavy") < 0.5

    def test_long_txn_mix(self):
        params = WorkloadParams(
            sessions=2, txns_per_session=20, ops_per_txn=4, keys=10,
            seed=6, long_txn_pct=50,
        )
        history = generate(params)
        sizes = {len(t.ops) for t in history.transactions()}
        assert sizes == {4, 40}

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            generate(WorkloadParams(dist="pareto"))
        with pytest.raises(ValueError):
            generate(WorkloadParams(read_pct=101))


class TestInject:
    @pytest.fixture
    def host(self):
        return generate(
            WorkloadParams(sessions=6, txns_per_session=8, ops_per_txn=5, keys=40,
                           dist="uniform", seed=3)
        )

    @pytest.mark.parametrize("kind", ANOMALIES)
    def test_each_template_fails_with_matching_label(self, host, kind):
        injected = inject(host, kind, seed=11)
        verdict = check_si(injected)
        assert verdict.outcome == "violation"
        assert verdict.classification == kind

    def test_injection_deterministic(self, host):
        a = serialize_history(inject(host, "lost-update", seed=5))
        b = serialize_history(inject(host, "lost-update", seed=5))
        assert a == b

    def test_long_fork_witness_has_nonadjacent_rw(self, host):
        verdict = check_si(inject(host, "long-fork", seed=2))
        assert verdict.cycle.rw_count() == 2
        assert verdict.cycle.has_nonadjacent_rw_pair()

    def test_aborted_read_caught_at_gate(self, host):
        verdict = check_si(inject(host, "aborted-read", seed=2))
        assert verdict.gate.aborted_reads
        assert verdict.cycle is None
        assert verdict.stats_before == (0, 0)  # no graph work happened

    def test_too_few_sessions(self):
        tiny = generate(WorkloadParams(sessions=2, txns_per_session=2, ops_per_txn=3, keys=5, seed=0))
        with pytest.raises(UnsupportedShapeError):
            inject(tiny, "long-fork", seed=0)

    def test_unknown_kind(self, host):
        with pytest.raises(ValueError):
            inject(host, "write-skew", seed=0)

    def test_templates_only_touch_fresh_keys(self, host):
        injected = inject(host, "long-fork", seed=9)
        host_keys = {op.key for t in host.transactions() for op in t.ops}
        new_ops = [
            op
            for session, old in zip(injected.sessions, list(host.sessions) + [()] * 9)
            for t in session[len(old):]
            for op in t.ops
        ]
        assert new_ops
        assert all(op.key not in host_keys for op in new_ops)
