"""Smoke test of the benchmark, kept out of the package's test suite.

    python3 perfbench/smoke.py

Runs every workload for a single operation (``--seconds 0``), untraced
and traced, and checks that the last output line carries exactly the
metric names and units BENCHMARK.json declares, that every correctness
check passed, and that a directory holding only BENCHMARK.json and this
directory makes the benchmark fail without printing a result.  Takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                       "--trace", trace)
            label = "%s --trace %s" % (workload, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s: metric names or units differ: missing %s, extra %s" % (
                    label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: %d of %d checks failed" % (
                    label, result["failed"], result["attempted"]))
            print("ran " + label, flush=True)

    (HERE / ".runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".runs") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__", ".runs"))
        proc = run(bare, "--workload", "cover_r6", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the package source the benchmark exited %d and printed %r"
                            % (proc.returncode, proc.stdout[-200:]))

    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
