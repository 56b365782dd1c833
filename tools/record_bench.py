"""Record alternating before/after benchmark runs into one JSON file.

    python3 tools/record_bench.py --before ../parent --after . \
        --pairs 10 --first-seed 81 --out BENCH.json [--workload control_algebra]

Each pair runs ``python3 perfbench/run.py --workload W --seed N
--seconds 20`` (W is ``--workload``, default ``all``) once in the
``--before`` checkout and once in the
``--after`` checkout, with the same seed N (``--first-seed`` plus the
pair's index); the order within a pair alternates, so slow drifts of the
machine hit both sides alike.  Every run keeps the bench's ``env:`` line
and its final JSON line.  The output file holds all runs and, per
metric, the median and quartiles of each side.  Stdlib only; runs one
benchmark process at a time.

A workload run alone reads its own ``peak_rss_mb``; under ``all`` that
metric is the process high-water mark, which the workloads before it may
already have set.

``--trace-seconds S`` adds, after the pairs, one traced run per side
(``--trace 1 --seconds S``, seed ``--first-seed``) under ``trace``: its
per-layer span counts and self times show where the time went.  A short S
makes both sides trace the same number of operations (the traced half
repeats what the untraced half managed), so their counts compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [ln[len("env: "):] for ln in lines if ln.startswith("env: ")]
    if not env:
        raise RuntimeError("bench printed no result in %s (exit %d):\n%s"
                           % (checkout, proc.returncode, proc.stderr[-2000:]))
    return {"seed": seed, "exit": proc.returncode,
            "env": json.loads(env[-1]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    out = {}
    for side in ("before", "after"):
        values: dict[str, list[float]] = {}
        for run in runs:
            for name, m in run[side]["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            out.setdefault(name, {})[side] = quartiles(vals)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout before the change")
    parser.add_argument("--after", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=81)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", default="all", help="perfbench workload name, or all")
    parser.add_argument("--trace-seconds", type=float,
                        help="seconds of one traced run per side after the pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    runs, trace = [], {}

    def write():
        # after every run, so an interrupted recording keeps what it has
        args.out.write_text(json.dumps({
            "command": "perfbench/run.py --workload %s --seconds %g" % (args.workload,
                                                                      args.seconds),
            "pairs": runs, "summary": summary(runs),
            **({"trace": trace} if trace else {})}, indent=1) + "\n")

    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = bench(getattr(args, side), args.workload, seed, args.seconds)
            print("pair %d %s: %s" % (i, side, json.dumps(
                {k: round(v["value"], 4) for k, v in pair[side]["result"]["metrics"].items()
                 if k.endswith("ops_per_s")})), flush=True)
        runs.append(pair)
        write()
    if args.trace_seconds:
        trace = {"seconds": args.trace_seconds, "seed": args.first_seed,
                 **{side: bench(getattr(args, side), args.workload, args.first_seed,
                                args.trace_seconds, trace=1) for side in ("before", "after")}}
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
