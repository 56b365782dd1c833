"""List the lines of ``modecascade`` that no traffic outside the tests runs.

    python3 tools/traffic_coverage.py

The traffic is ``OPS`` operations of each benchmark workload, run
through ``harness.measure`` and checked by the workload's ``checks``;
every script in ``demos/``; and the runs of ``tools/output_digest.py``.  ``line_coverage.LineTracer`` records the
lines from before the package is imported, and the report has the form
of ``line_coverage``'s: per module, the executable lines never reached,
as ranges.  A public name whose body is listed is reached only by tests.

``perfbench/`` is imported read-only, with no bytecode written, so the
one run of the traced benchmark that writes there, the command-line
coverage scan of ``harness.cli_cover_overhead``, is left out.  Failed
workload checks are printed after the report.  Stdlib plus what the
traffic imports; tracing slows the traffic several times over.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1                  # perfbench/run.py's default
OPS = 2                   # operations of each workload


def run_traffic() -> list[str]:
    """Runs the traffic; returns the labels of failed workload checks."""
    import harness
    import output_digest
    import workloads
    failed = []
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(SEED)
        ctx = wl.setup()
        outputs, _, _ = harness.measure(wl, ctx, count=OPS)
        failed += ["%s: %s" % (name, label) for label, ok in wl.checks(ctx, outputs) if not ok]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    output_digest.main(["--src", str(ROOT / "src")])
    return failed


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import line_coverage
    tracer = line_coverage.LineTracer(
        Path(importlib.util.find_spec("modecascade").origin).parent)
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            failed = run_traffic()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(tracer.report()))
    for label in failed:
        print("FAILED " + label)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
