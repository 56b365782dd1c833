"""Pytest plugin listing the statements of ``modecascade`` that no test ran.

    PYTHONPATH=src:tools python -m pytest -p line_coverage

Stdlib only.  From ``pytest_configure`` on, a ``sys.settrace`` (and
``threading.settrace``) hook records every line executed in a frame
whose code lives in the package directory; frames elsewhere are not
traced line by line.  The executable lines of a module are the line
numbers of the bytecode of its compiled source, nested code objects
included.  At the end of the session the plugin prints, per module, the
executable lines never reached, as ranges of consecutive line numbers.
Tracing slows the suite several times over.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from collections import defaultdict
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the bytecode of the file's code objects carries."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


class LineTracer:
    """Lines executed per file of one package directory."""

    def __init__(self, package: Path):
        self.package = package
        self.prefix = str(package)
        self.hits: dict[str, set[int]] = defaultdict(set)

    def trace(self, frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(self.prefix):
            return None
        lines = self.hits[frame.f_code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        terminalreporter.section("modecascade lines no test ran")
        for path in sorted(self.package.glob("*.py")):
            lines = executable_lines(path)
            missed = sorted(lines - self.hits[str(path)])
            terminalreporter.write_line("%s: %d of %d unexecuted%s" % (
                path.name, len(missed), len(lines), ": " + _ranges(missed) if missed else ""))


def pytest_configure(config):
    if "modecascade" in sys.modules:
        print("line_coverage: modecascade was imported before tracing began; "
              "its module-level lines read as unexecuted", file=sys.stderr)
    tracer = LineTracer(Path(importlib.util.find_spec("modecascade").origin).parent)
    config.pluginmanager.register(tracer, "line_coverage_tracer")
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)
