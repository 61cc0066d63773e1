"""Benchmark workloads: each maps a seed to serialized histories and expected verdicts.

A workload is a fixed `WorkloadParams` shape and a number of histories.
History i of a run with seed s is generated from seed s + i, so neighbouring
run seeds share histories and one unusual seed moves a run's median little.
An injected anomaly kind is chosen by the history's own seed, so the same
history seed always yields the same bytes and the recorded counts
(`counts.json`) can be keyed by history seed alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from sicheck import WorkloadParams, generate, inject, serialize_history
from sicheck.workload import abort_rate

# Injected kinds cycle with the history seed; three consecutive seeds hold one of each.
ANOMALY_CYCLE = ("long-fork", "lost-update", "causality-violation")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: WorkloadParams
    histories: int
    # Inject a kind from ANOMALY_CYCLE into every history.
    injected: bool = False
    min_committed: int = 0

    def case(self, seed: int) -> "Case":
        return self._case(replace(self.params, seed=seed), self.injected)

    def warmup_case(self, seed: int) -> "Case":
        """A clean history of the same shape with a tenth of the transactions."""
        txns = max(1, self.params.txns_per_session // 10)
        return self._case(replace(self.params, seed=seed, txns_per_session=txns), False)

    def _case(self, params: WorkloadParams, injected: bool) -> "Case":
        seed = params.seed
        history = generate(params)
        generated = history.txn_count()
        rate = abort_rate(history)
        anomaly = ANOMALY_CYCLE[seed % len(ANOMALY_CYCLE)] if injected else None
        if anomaly is not None:
            history = inject(history, anomaly, seed)
        committed = sum(1 for _ in history.committed())
        return Case(seed, anomaly, serialize_history(history), generated, committed,
                    history.op_count(), rate)

    def cases(self, seed: int) -> list["Case"]:
        """The run's histories: history i comes from seed + i."""
        cases = [self.case(seed + i) for i in range(self.histories)]
        for case in cases:
            if case.committed < self.min_committed:
                raise ValueError(f"{self.name} seed {case.seed}: {case.committed} committed, "
                                 f"below the workload's floor of {self.min_committed}")
        return cases

    def params_record(self) -> dict:
        record = asdict(self.params)
        del record["seed"]
        return record


@dataclass(frozen=True)
class Case:
    """One history as the checker receives it, with what the check must return."""

    seed: int
    anomaly: str | None
    data: bytes
    generated: int
    committed: int
    ops: int
    abort_rate: float

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "anomaly": self.anomaly,
            "bytes": len(self.data),
            "generated_txns": self.generated,
            "committed_txns": self.committed,
            "ops": self.ops,
            "abort_rate": round(self.abort_rate, 6),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-anomaly",
            "high-contention zipfian shape with injected anomalies: prune writer pairs and the explainer",
            WorkloadParams(sessions=20, txns_per_session=100, ops_per_txn=15, keys=10_000,
                           dist="zipfian", profile="general"),
            histories=6,
            injected=True,
        ),
        Workload(
            "uniform-10k",
            "low contention, at least 10k committed transactions: per-vertex parse, gate and index costs",
            WorkloadParams(sessions=20, txns_per_session=510, ops_per_txn=8, keys=100_000,
                           dist="uniform", profile="general"),
            histories=4,
            min_committed=10_000,
        ),
        Workload(
            "hotspot-write",
            "write-heavy hotspot keys leave constraints after prune: solver search is a large share",
            WorkloadParams(sessions=20, txns_per_session=50, ops_per_txn=10, keys=2_000,
                           dist="hotspot", profile="write-heavy"),
            histories=8,
        ),
        Workload(
            "rmw-chains",
            "read-modify-write chains: many writer pairs, all resolved by prune, solver set-up only",
            WorkloadParams(sessions=30, txns_per_session=50, ops_per_txn=4, keys=1_000,
                           dist="zipfian", profile="rmw"),
            histories=4,
        ),
    )
}
