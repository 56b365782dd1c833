"""Spans around the package's layer entry points, installed from outside.

The traced run replaces each entry point listed in SPANS by a wrapper
that times it, in every ``modecascade`` module that holds it, and puts
the originals back afterwards.  Nothing under ``src/`` changes, and the
untraced run patches nothing.  Spans are aggregated in memory per name:
calls, inclusive seconds and self seconds (inclusive minus the time of
the spans it directly encloses).  The self times of all spans, plus the
self time of the root span around the measured loop, add up to the
root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path, the attribute returns the callable to time)
SPANS = (
    ("spectral.nonlinear", "modecascade.spectral", "_Tables.nonlinear", False),
    ("integrator.integrate", "modecascade.integrator", "integrate", False),
    ("integrator.rk4", "modecascade.integrator", "_lawson_rk4", False),
    ("integrator.blowup_guard", "modecascade.integrator", "_check_finite", False),
    ("forcing.segment_eval", "modecascade.integrator", "_segment_evaluator", True),
    ("forcing.channel_primitive", "modecascade.forcing", "ForcingProgram.channel_primitive", False),
    ("forcing.chattering", "modecascade.forcing", "chattering_approximation", False),
    ("forcing.relaxation_distance", "modecascade.forcing", "relaxation_distance", False),
    ("lattice.saturation_chain", "modecascade.lattice", "saturation_chain", False),
    ("lattice.next_level", "modecascade.lattice", "next_level", False),
    ("lattice.find_generating_pair", "modecascade.lattice", "find_generating_pair", False),
    ("steering.steer", "modecascade.steering", "steer_to_target", False),
    ("steering.synthesis", "modecascade.steering", "_synthesize_main", False),
    ("steering.cascade", "modecascade.steering", "cascade_program", False),
    ("steering.tail_growth", "modecascade.steering", "_tail_growth", False),
    ("steering.coverage", "modecascade.steering", "coverage_check", False),
    ("cli.main", "modecascade.cli", "main", False),
)


class Tracer:
    """Per-name span aggregates: calls, inclusive and self seconds."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[float] = []     # child seconds of each open span

    def wrap(self, name: str, fn):
        open_spans, calls, total, self_time = self._open, self.calls, self.total, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of its own, e.g. the root span of a loop."""
        return self.wrap(name, fn)(*args, **kwargs)

    def self_sum(self) -> float:
        return sum(self.self_time.values())


def _owner(path: str, module):
    """The object holding the attribute and the attribute name, or None."""
    *parents, attr = path.split(".")
    owner = module
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return (owner, attr) if attr in vars(owner) else (None, attr)


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry point of SPANS for the duration of the block.

    A function imported by name into other package modules is replaced
    there too.  An entry point the package no longer has is skipped and
    listed in ``tracer.missing``; its metrics then read zero.
    """
    undo = []
    try:
        for name, modname, path, returns_callable in SPANS:
            owner, attr = _owner(path, importlib.import_module(modname))
            if owner is None:
                tracer.missing.append(name)
                continue
            original = vars(owner)[attr]
            if returns_callable:
                def patched(*args, _make=original, _name=name, **kwargs):
                    return tracer.wrap(_name, _make(*args, **kwargs))
                patched = functools.wraps(original)(patched)
            else:
                patched = tracer.wrap(name, original)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(mod, key) for mod in package_modules()
                           for key, value in list(vars(mod).items()) if value is original]
            for holder, key in holders:
                setattr(holder, key, patched)
                undo.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def package_modules():
    return [mod for modname, mod in list(sys.modules.items())
            if mod is not None and (modname == "modecascade" or modname.startswith("modecascade."))]
