"""Run the standing mutant bank against the tier-1 suite.

Each entry of `mutants.json` names a file under `src/`, an exact text in it,
the text that replaces it, and the CHANGES.md line the mutant comes from.
For each mutant the runner copies `src/`, `tests/`, `perfbench/` (whose
workloads some tests read) and `pyproject.toml` to a temporary directory,
applies that one replacement there and runs tier-1 in the copy with `-x`,
one mutant at a time, so nothing in the repository changes, not even the
failure seeds the suite records under `tests/corpus/`.

Before any mutant, tier-1 runs once on an unmutated copy; if it fails there,
the runner stops, since every mutant would then count as killed.

A mutant is *killed* when the suite fails or runs past `TIMEOUT_S`,
*survived* when it passes, and *stale* when its old text does not occur
exactly once in the file: a stale mutant is reported, never skipped. An
entry may carry an `equivalent` field that argues why it changes no
behaviour; its survival is expected.

    python tests/mutants/run_mutants.py [ID ...]

Prints one line per mutant and the counts; exits 1 when a mutant is stale or
survives without being recorded as equivalent, 2 when the unmutated copy
fails tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BANK = Path(__file__).resolve().parent / "mutants.json"
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
# Seconds before a tier-1 run counts as a kill.
TIMEOUT_S = 900
_IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def run_tier1(mutant: dict | None) -> tuple[str, str]:
    """(status, detail) of tier-1 on a copy with `mutant` applied, or on a
    plain copy when `mutant` is None."""
    with tempfile.TemporaryDirectory(prefix="sicheck-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, work / name, ignore=_IGNORED)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            target = work / "src" / mutant["file"]
            text = target.read_text()
            found = text.count(mutant["old"])
            if found != 1:
                return "stale", f"old text found {found} times in src/{mutant['file']}"
            target.write_text(text.replace(mutant["old"], mutant["new"]))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run([sys.executable, *TIER1], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"tier-1 ran past {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", "tier-1 passed"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit code {done.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    bank = json.loads(BANK.read_text())
    unknown = set(args.ids) - {mutant["id"] for mutant in bank}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [mutant for mutant in bank if not args.ids or mutant["id"] in args.ids]
    started = time.monotonic()
    status, detail = run_tier1(None)
    print(f"{'baseline':<9} {'(unmutated)':<40} {time.monotonic() - started:6.1f} s  {detail}",
          flush=True)
    if status != "survived":
        print("tier-1 fails on the unmutated copy; no mutant was run", file=sys.stderr)
        return 2
    counts = {"killed": 0, "survived": 0, "stale": 0}
    unexpected = 0
    for mutant in chosen:
        t0 = time.monotonic()
        status, detail = run_tier1(mutant)
        counts[status] += 1
        if status == "stale" or (status == "survived" and "equivalent" not in mutant):
            unexpected += 1
        print(f"{status:<9} {mutant['id']:<40} {time.monotonic() - t0:6.1f} s  {detail}",
              flush=True)
    wall = time.monotonic() - started
    print(f"{len(chosen)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['stale']} stale, in {wall:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
