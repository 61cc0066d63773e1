"""Command-line interface: check, generate, explain, oracle, stats.

Exit codes: 0 the history satisfies snapshot isolation, 1 a violation was
found, 2 input or usage error, 3 time or work budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .errors import BudgetExceededError, LimitExceededError, SicheckError
from .explain import STAGES, render_dot
from .histories import parse_history, serialize_history, txn_label
from .oracle import OracleLimits, oracle_check
from .pipeline import Verdict, check_si, pruning_stats
from .workload import ANOMALIES, DISTRIBUTIONS, PROFILES, WorkloadParams, generate, inject

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _os_error(path: str, exc: OSError) -> str:
    """A file that cannot be read or written, as a message naming it."""
    return f"{path}: {exc.strerror or exc}"


def _load(path: str):
    """Read and parse a history file; an error names the file."""
    try:
        with open(path, "rb") as fh:
            return parse_history(fh.read())
    except OSError as exc:
        raise SicheckError(_os_error(path, exc)) from exc
    except SicheckError as exc:
        raise SicheckError(f"{path}: {exc}") from exc


def _write(path: str, data: bytes) -> None:
    """Write an output file; an error names the file."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise SicheckError(_os_error(path, exc)) from exc


def _probe_output(path: str) -> None:
    """Raise the OSError that writing `path` would raise, before any work is
    done for it: open it for appending, which changes no file, and remove
    it again if the open made it."""
    existed = os.path.lexists(path)
    with open(path, "ab"):
        pass
    if not existed:
        os.remove(path)


def _at_least(least: int):
    """An argparse type: an int no smaller than `least`."""
    def count(text: str) -> int:  # argparse says "invalid count value" for a non-number
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value
    return count


def _print_verdict(path: str, verdict: Verdict, as_json: bool) -> None:
    if as_json:
        record = {"file": path, **verdict.to_json_dict()}
        print(json.dumps(record, sort_keys=True))
        # Wall-clock phase times are kept out of the JSON record so that
        # reruns are byte-identical; report them on stderr instead.
        print(_timing_line(path, verdict), file=sys.stderr)
        return
    if verdict.outcome == "si-holds":
        print(f"{path}: ok (snapshot isolation holds)")
    else:
        label = verdict.classification or "unclassified"
        print(f"{path}: violation ({label})")
        if verdict.cycle is not None:
            print(f"  witness: {verdict.cycle.label()}")
        if verdict.counterexample is not None:
            ce = verdict.counterexample
            print(
                f"  counterexample: {ce.cluster.dependency_count()} dependencies,"
                f" minimal={'yes' if ce.minimal else 'no'}"
            )
        gate = verdict.gate
        if gate is not None and not gate.ok():
            for kind, entries in (
                ("internal-consistency", gate.int_violations),
                ("aborted-read", gate.aborted_reads),
                ("intermediate-read", gate.intermediate_reads),
            ):
                for reader, op_index, writer in entries:
                    tail = f" (writer {txn_label(writer)})" if writer is not None else ""
                    print(f"  {kind}: {txn_label(reader)} op #{op_index}{tail}")
    before, after = verdict.stats_before, verdict.stats_after
    print(f"  constraints: {before[0]} -> {after[0]}, unknown deps: {before[1]} -> {after[1]}")
    print(f"  {_timing_line(path, verdict, bare=True)}")


def _timing_line(path: str, verdict: Verdict, bare: bool = False) -> str:
    parts = [f"{name} {ms:.1f}ms" for name, ms in verdict.timings_ms.items()]
    prefix = "phases: " if bare else f"{path}: phases: "
    return prefix + ", ".join(parts)


def _check_one(args_tuple) -> tuple[str, Verdict | tuple[int, str]]:
    """Check one file. An input or budget error comes back as (exit code,
    message naming the file), so that it hides no other file's verdict."""
    path, no_prune, budget_ms, emit_encoding = args_tuple
    if emit_encoding:
        try:
            _probe_output(emit_encoding)
        except OSError as exc:
            return path, (EXIT_INPUT_ERROR, _os_error(emit_encoding, exc))
    started = time.monotonic()
    try:
        history = _load(path)
    except SicheckError as exc:
        return path, (EXIT_INPUT_ERROR, str(exc))
    parse_ms = (time.monotonic() - started) * 1000
    try:
        verdict = check_si(
            history,
            no_prune=no_prune,
            budget_ms=budget_ms,
            emit_encoding_path=emit_encoding,
        )
    except BudgetExceededError as exc:
        return path, (EXIT_BUDGET, f"{path}: {exc}")
    except SicheckError as exc:  # a dangling read, say
        return path, (EXIT_INPUT_ERROR, f"{path}: {exc}")
    except OSError as exc:  # the encoding file cannot be written
        return path, (EXIT_INPUT_ERROR, _os_error(emit_encoding, exc))
    verdict.timings_ms = {"parse": parse_ms, **verdict.timings_ms}  # `total` stays the check's
    return path, verdict


def _cmd_check(args: argparse.Namespace) -> int:
    if args.emit_encoding and len(args.history) > 1:
        raise SicheckError(f"--emit-encoding takes one history file, not {len(args.history)}")
    jobs = [(path, args.no_prune, args.budget_ms, args.emit_encoding) for path in args.history]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_check_one, jobs))
    else:
        results = [_check_one(job) for job in jobs]
    worst = EXIT_OK
    for path, verdict in results:
        if isinstance(verdict, Verdict):
            _print_verdict(path, verdict, args.json)
            worst = max(worst, verdict.exit_code)
            continue
        code, message = verdict
        if args.json:
            print(json.dumps({"file": path, "error": message, "exit_code": code}, sort_keys=True))
        else:
            kind = "budget exceeded" if code == EXIT_BUDGET else "error"
            print(f"sicheck: {kind}: {message}", file=sys.stderr)
        worst = max(worst, code)
    return worst


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed
    env_seed = os.environ.get("SI_SENTINEL_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    params = WorkloadParams(
        sessions=args.sessions,
        txns_per_session=args.txns,
        ops_per_txn=args.ops,
        read_pct=args.read_pct,
        keys=args.keys,
        dist=args.dist,
        profile=args.profile,
        seed=seed,
        long_txn_pct=args.long_txn_pct,
    )
    history = generate(params)
    if args.anomaly != "none":
        history = inject(history, args.anomaly, seed)
    payload = serialize_history(history)
    if args.output == "-":
        sys.stdout.buffer.write(payload)
    else:
        _write(args.output, payload)
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    history = _load(args.history)
    verdict = check_si(history, budget_ms=args.budget_ms)
    if verdict.outcome == "si-holds":
        print(f"{args.history}: no violation to explain")
        return EXIT_OK
    print(f"classification: {verdict.classification or 'unclassified'}")
    ce = verdict.counterexample
    if ce is None:
        gate = verdict.gate
        if gate is not None:
            _print_verdict(args.history, verdict, as_json=False)
        if args.dot:
            _write(args.dot, b"digraph counterexample {\n}\n")
        return EXIT_VIOLATION
    print(f"minimal: {'yes' if ce.minimal else 'no'}")
    deps = ce.stages[args.stage]
    print(f"stage {args.stage}: {len(deps)} dependencies")
    for dep in deps:
        src, dst, label, key = dep.edge
        text = label if key is None else f"{label}({key})"
        flags = [dep.tag]
        if dep.support:
            flags.append("context")
        print(f"  {txn_label(src)} -{text}-> {txn_label(dst)} [{', '.join(flags)}]")
    if args.dot:
        _write(args.dot, render_dot(ce, args.stage).encode("utf-8"))
    return EXIT_VIOLATION


def _cmd_oracle(args: argparse.Namespace) -> int:
    history = _load(args.history)
    limits = OracleLimits(max_txns=args.max_txns, max_writers_per_key=args.max_writers)
    verdict = oracle_check(history, limits)
    if verdict.satisfiable:
        print(f"{args.history}: ok (snapshot isolation holds)")
        return EXIT_OK
    print(f"{args.history}: violation")
    return EXIT_VIOLATION


def _cmd_stats(args: argparse.Namespace) -> int:
    history = _load(args.history)
    before, after = pruning_stats(history)
    rows = [("before", before), ("after", after)]
    print(f"{'phase':<8} {'constraints':>12} {'unknown_deps':>13}")
    for name, (cons, unknown) in rows:
        print(f"{name:<8} {cons:>12} {unknown:>13}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicheck",
        description="Black-box snapshot isolation checker for transactional histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide whether histories satisfy snapshot isolation")
    p_check.add_argument("history", nargs="+", help="history file(s), canonical JSON")
    p_check.add_argument("--json", action="store_true", help="machine-readable verdict per file")
    p_check.add_argument("--no-prune", action="store_true", help="skip constraint pruning")
    p_check.add_argument("--budget-ms", type=_at_least(0), default=None,
                         help="time budget for the check")
    p_check.add_argument("--emit-encoding", metavar="PATH", default=None,
                         help="dump the Boolean encoding to PATH (one history file only)")
    p_check.add_argument("--jobs", type=_at_least(1), default=1, help="check files concurrently")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("generate", help="generate a workload history via the mock MVCC store")
    p_gen.add_argument("--sessions", type=int, default=20)
    p_gen.add_argument("--txns", type=int, default=100, help="transactions per session")
    p_gen.add_argument("--ops", type=int, default=15, help="operations per transaction")
    p_gen.add_argument("--read-pct", type=int, default=50)
    p_gen.add_argument("--keys", type=int, default=10_000)
    p_gen.add_argument("--dist", choices=DISTRIBUTIONS, default="zipfian")
    p_gen.add_argument("--profile", choices=PROFILES, default="general")
    p_gen.add_argument("--long-txn-pct", type=int, default=0,
                       help="percent of transactions 10x the configured size")
    p_gen.add_argument("--anomaly", choices=("none",) + ANOMALIES, default="none")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="RNG seed (SI_SENTINEL_SEED overrides)")
    p_gen.add_argument("-o", "--output", default="-", help="output path, - for stdout")
    p_gen.set_defaults(func=_cmd_generate)

    p_explain = sub.add_parser("explain", help="interpret a violation as a counterexample")
    p_explain.add_argument("history")
    p_explain.add_argument("--stage", choices=STAGES, default="final")
    p_explain.add_argument("--dot", metavar="PATH", default=None, help="write Graphviz output")
    p_explain.add_argument("--budget-ms", type=_at_least(0), default=None)
    p_explain.set_defaults(func=_cmd_explain)

    p_oracle = sub.add_parser("oracle", help="brute-force decision for small histories")
    p_oracle.add_argument("history")
    p_oracle.add_argument("--max-txns", type=int, default=10)
    p_oracle.add_argument("--max-writers", type=int, default=5)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_stats = sub.add_parser("stats", help="constraint statistics before and after pruning")
    p_stats.add_argument("history")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"sicheck: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SicheckError, LimitExceededError, ValueError) as exc:
        print(f"sicheck: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
