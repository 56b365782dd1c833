"""Scalar closed forms of forcing programs, one segment and one mode at a
time with ``cmath``: the reference the compiled primitive read is tested
against, directly and, through the forcing, by quadrature and differences.
Reads only the ``segments`` view and ``starts`` of a program.

A ``Constant`` segment holds its values; a component ``(k, h, c)`` of an
``Oscillatory`` segment contributes c i h w exp(i h w t) to the forcing
of mode k and c (exp(i h w t) - 1) to its primitive on the segment-local
clock; a ``Zero`` segment contributes nothing.
"""

import bisect
import cmath

import numpy as np

from modecascade.forcing import Constant, Oscillatory
from modecascade.lattice import unfold_conjugate


def segment_value(seg, rep, tloc):
    if isinstance(seg, Constant):
        return seg.values.get(rep, 0j)
    if isinstance(seg, Oscillatory):
        w = seg.omega
        return sum((c * 1j * h * w * cmath.exp(1j * h * w * tloc)
                    for k, h, c in seg.components if k == rep), 0j)
    return 0j


def segment_primitive(seg, rep, tloc):
    if isinstance(seg, Constant):
        return seg.values.get(rep, 0j) * tloc
    if isinstance(seg, Oscillatory):
        w = seg.omega
        return sum((c * (cmath.exp(1j * h * w * tloc) - 1.0)
                    for k, h, c in seg.components if k == rep), 0j)
    return 0j


def segment_reps(seg):
    if isinstance(seg, Constant):
        return set(seg.values)
    if isinstance(seg, Oscillatory):
        return {k for k, _, _ in seg.components}
    return set()


def locate(program, t):
    """Segment and local time of t: left-closed, t == T in the last one."""
    starts = [float(s) for s in program.starts]
    T = starts[-1]
    if t < -1e-12 or t > T + max(1e-12, 1e-12 * T):
        raise ValueError("time out of range: t=%g not in [0, %g]" % (t, T))
    t = min(max(t, 0.0), T)
    i = min(bisect.bisect_right(starts, t) - 1, len(program.segments) - 1)
    return i, t - starts[i]


def evaluate(program, t):
    """Forcing at t over the full support; exactly-zero entries left out."""
    i, tloc = locate(program, t)
    seg = program.segments[i]
    values = {r: segment_value(seg, r, tloc) for r in sorted(segment_reps(seg))}
    return unfold_conjugate({r: v for r, v in values.items() if v != 0})


def primitive(program, t):
    """Primitive at t: the segment integrals before t, then the partial one."""
    i, tloc = locate(program, t)
    out = {}
    for seg in program.segments[:i]:
        for r in segment_reps(seg):
            out[r] = out.get(r, 0j) + segment_primitive(seg, r, seg.duration)
    seg = program.segments[i]
    for r in segment_reps(seg):
        out[r] = out.get(r, 0j) + segment_primitive(seg, r, tloc)
    return unfold_conjugate({r: v for r, v in out.items() if v != 0})


def channels(values, cmap):
    """Channel vector of a mode map: Re, Im of each of ``cmap.reps``."""
    return cmap.complex_to_vector(np.array([values.get(r, 0j) for r in cmap.reps]))
