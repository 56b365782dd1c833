"""Benchmark of the modecascade package: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload cover_r6 --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` of them, one after the other, in this
process), checks every output against the independent references in
reference.py, and prints one line per figure with its unit and sample
count.  ``--trace 0`` measures the end-to-end metrics with nothing
patched.  ``--trace 1`` measures the same operations twice, first
untraced and then with spans around each layer's entry points, and
reports the per-layer metrics together with the tracing overhead (the
difference of the two wall times); it also runs the kernel ladder and
one coverage scan through the command-line entry point.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--seconds 0`` runs a
single operation per workload, which is what smoke.py uses.

The package is imported from ``src/`` next to this directory, never
from an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# pinned before numpy loads, so no workload starts more threads than nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cover_r6", "euler_r24", "control_algebra", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "modecascade"
    if not (package / "__init__.py").is_file():
        print("error: package source not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import modecascade
    if Path(modecascade.__file__).resolve().parent != package.resolve():
        print("error: modecascade imported from %s, not from %s" % (modecascade.__file__, SRC),
              file=sys.stderr)
        return 2
    import harness
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
