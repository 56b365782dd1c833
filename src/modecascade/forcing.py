"""Degenerate forcing programs and their control-theoretic metrics.

A program is a finite sequence of timed segments over a symmetric
support set of modes: constant vectors, zero stretches, or packets of
fast harmonic oscillations.  Controls are identified with real vectors
through a :class:`ChannelMap`: each {k, -k} pair of the support
contributes two real channels, the real and imaginary parts of v_k.

Oscillatory segments are stored through their primitives.  A component
``(k, h, c)`` contributes ``c * (exp(i h w t) - 1)`` to the primitive
V_k on the segment-local clock (so primitives start at zero at every
segment start) and ``c * i h w * exp(i h w t)`` to the forcing itself.
Plain cosine bundles (:meth:`Oscillatory.from_cos_pairs`) and the
counter-rotating two-harmonic packets of the cascade are both special
cases.

Why two-harmonic packets exist: forcing a mode pair (m, n) with equal
plain cosines pumps, through the quadratic term, not only the sum mode
m+n but also the difference mode m-n with a mean drive of the same
magnitude and opposite sign (a product of standing waves carries both
sum and difference harmonics).  Counter-rotating packets with the
harmonic pattern {+1, +2} on m and {-1, -2} on n have zero-mean
primitives, start and end at zero, drive the sum mode with a constant
(time-independent) rate, and leave the difference mode with no mean
drive at all.  See :func:`cascade_packet`.

Array form: a program's state is arrays over its sorted support reps
(durations, constant values, primitive offsets at segment starts, flat
oscillatory components; see :class:`ForcingProgram`).  A program is read
only through its primitive, as the method sees a control: one compiled
read, ``ForcingProgram._read_at`` (segment index and local time per row),
is the only code that computes it.  ``channel_primitive``, the metrics
and chattering go through it, the integrator's per-segment evaluator is
a view of it, and the cascade reads the arrays.  The segment classes are
builders and a view: JSON, the CLI and the demos read ``segments``;
chattering output is built from arrays, its ``segments`` made only when
read.  The scalar ``cmath`` closed forms, one segment and mode at a time,
live in the tests (``tests/forcing_oracle.py``) as the oracle of the
compiled read.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import (Mode, canonical_rep, check_complex, check_count, check_mode, check_real,
                      coeff_from_json, coeffs_from_json, coeffs_to_json, fold_conjugate,
                      norm_sq, rep_modes, symmetrize, unfold_conjugate, wedge)

__all__ = [
    "ChannelMap", "Constant", "Oscillatory", "Zero", "ForcingProgram",
    "zero_program", "constant_program",
    "relaxation_distance",
    "cascade_packet", "chattering_approximation",
    "program_to_json", "program_from_json",
]

class ChannelMap:
    """Ordered identification of a symmetric mode set with R^kappa.

    Representatives are sorted lexicographically; each contributes the
    channel pair (Re v_k, Im v_k) in that order, so kappa equals the
    number of modes in the set.
    """

    def __init__(self, support: Iterable[Mode]):
        self.support = symmetrize(support)
        self.reps: tuple[Mode, ...] = rep_modes(self.support)
        self.size = 2 * len(self.reps)
        self._rep_pos = {r: i for i, r in enumerate(self.reps)}

    def channel(self, index: int) -> tuple[Mode, str]:
        rep = self.reps[check_count("channel index", index, 0) // 2]
        return rep, ("re" if index % 2 == 0 else "im")

    def index(self, rep: Mode, part: str) -> int:
        if part not in ("re", "im"):
            raise ValueError("channel part must be 're' or 'im', not %r" % (part,))
        rep = check_mode(rep)
        if canonical_rep(rep) != rep:
            raise ValueError("channel addressing uses canonical representatives only")
        if rep not in self._rep_pos:
            raise ValueError("mode %s outside the channel support" % (rep,))
        return 2 * self._rep_pos[rep] + (part == "im")

    def vector_to_rep_coeffs(self, vec: np.ndarray) -> dict[Mode, complex]:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValueError("channel vector must have length %d" % self.size)
        return {r: complex(vec[2 * i], vec[2 * i + 1])
                for i, r in enumerate(self.reps)
                if vec[2 * i] != 0 or vec[2 * i + 1] != 0}

    def complex_to_vector(self, arr: np.ndarray) -> np.ndarray:
        """Channels (Re, Im interleaved) of rep values along the last axis."""
        return np.stack([arr.real, arr.imag], axis=-1).reshape(*arr.shape[:-1], -1)


# ---------------------------------------------------------------------------
# segments


class Constant:
    """Constant conjugate-symmetric forcing vector held for a duration."""

    __slots__ = ("duration", "values")

    def __init__(self, duration: float, values: Mapping[Mode, complex]):
        self.duration = check_real("segment duration", duration)
        self.values = fold_conjugate(values, 1e-9, "forcing values")

    def __repr__(self):
        return "Constant(duration=%g, modes=%s)" % (self.duration, sorted(self.values))


class Oscillatory:
    """Harmonic packet: per representative mode a set of harmonics of a
    shared base frequency, parameterized by the primitive coefficients."""

    __slots__ = ("duration", "omega", "components")

    def __init__(self, duration: float, omega: float,
                 components: Iterable[tuple[Mode, int, complex]]):
        self.duration = check_real("segment duration", duration)
        self.omega = check_real("oscillation frequency", omega)
        merged: dict[tuple[Mode, int], complex] = {}
        for k, h, c in components:
            k = check_mode(k)
            h = check_count("harmonic index", h, None)
            if h == 0:
                raise ValueError("harmonic index must be nonzero")
            c = check_complex("oscillation coefficients", c)
            if canonical_rep(k) != k:
                k, h, c = canonical_rep(k), -h, c.conjugate()
            merged[(k, h)] = merged.get((k, h), 0j) + c
        self.components = tuple(sorted(
            ((k, h, c) for (k, h), c in merged.items() if c != 0),
            key=lambda item: (item[0], item[1])))

    @classmethod
    def from_cos_pairs(cls, duration: float, omega: float,
                       pairs: Sequence[tuple[Mode, float]],
                       phase: float = 0.0) -> "Oscillatory":
        """Plain cosine bundle: v_k(t) = A * omega * cos(omega t
        + phase) on each listed mode and its conjugate partner."""
        comps = []
        phase = check_real("phase", phase, None)
        for k, amp in pairs:
            c_plus = check_complex("oscillation coefficients", amp) / 2j * cmath.exp(1j * phase)
            comps.append((k, +1, c_plus))
            comps.append((k, -1, c_plus.conjugate()))
        return cls(duration, omega, comps)

    def __repr__(self):
        return "Oscillatory(duration=%g, omega=%g, components=%d)" % (
            self.duration, self.omega, len(self.components))


class Zero:
    __slots__ = ("duration",)

    def __init__(self, duration: float):
        self.duration = check_real("segment duration", duration)

    def __repr__(self):
        return "Zero(duration=%g)" % self.duration


Segment = Constant | Oscillatory | Zero


# ---------------------------------------------------------------------------
# programs


class ForcingProgram:
    """Piecewise-in-time forcing over a symmetric support mode set.

    Its state is arrays over the sorted support reps ``reps``: segment
    ``durations`` and ``starts`` (n_seg + 1), constant values ``const``
    (n_seg, n_rep), the primitive at each segment start ``offsets``
    (n_seg + 1, n_rep), and the oscillatory components sorted by segment:
    ``comp_seg``, ``comp_col`` (rep column), ``freq`` (h w) and ``coef`` (c).
    ``segments`` is a view of the segments, for JSON, the CLI and the demos.
    """

    def __init__(self, support: Iterable[Mode], segments: Sequence[Segment]):
        support = symmetrize(support)
        self.segments = tuple(segments)
        if not self.segments:
            raise ValueError("a program needs at least one segment")
        reps = rep_modes(support)
        col = {r: j for j, r in enumerate(reps)}
        const = np.zeros((len(self.segments), len(reps)), dtype=np.complex128)
        osc = []
        for i, seg in enumerate(self.segments):
            comps = getattr(seg, "components", ())
            modes = seg.values if isinstance(seg, Constant) else [k for k, _, _ in comps]
            escaped = set(modes) - col.keys()
            if escaped:
                raise ValueError("segment modes %s escape the program support" % sorted(escaped))
            if isinstance(seg, Constant):
                for r, v in seg.values.items():
                    const[i, col[r]] = v
            else:
                osc += [(i, col[k], h * seg.omega, c) for k, h, c in comps]
        osc = np.array(osc, dtype=[("seg", np.intp), ("col", np.intp),
                                   ("freq", float), ("coef", np.complex128)])
        self._set_arrays(support, reps, np.array([s.duration for s in self.segments]), const,
                         *(np.ascontiguousarray(osc[f]) for f in osc.dtype.names))

    @classmethod
    def _of_arrays(cls, support: frozenset[Mode], durations: np.ndarray,
                   const: np.ndarray) -> "ForcingProgram":
        """Constant-valued program from durations and rep values (n_seg, n_rep)."""
        prog = object.__new__(cls)
        no_osc = np.zeros(0, dtype=np.intp)
        prog._set_arrays(support, rep_modes(support), durations, const, no_osc, no_osc,
                         np.zeros(0), np.zeros(0, np.complex128))
        return prog

    def _set_arrays(self, support, reps, durations, const, comp_seg, comp_col, freq, coef):
        self.support, self.reps, self.durations, self.const = support, reps, durations, const
        self.comp_seg, self.comp_col, self.freq, self.coef = comp_seg, comp_col, freq, coef
        self.starts = np.concatenate([[0.0], np.cumsum(durations)])
        integral = const * durations[:, None]
        np.add.at(integral, (comp_seg, comp_col),
                  coef * (np.exp(1j * freq * durations[comp_seg]) - 1.0))
        self.offsets = np.zeros((len(durations) + 1, len(reps)), dtype=np.complex128)
        np.cumsum(integral, axis=0, out=self.offsets[1:])

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """Segment view of an array-built program (``__init__`` sets it)."""
        return tuple(Constant(d, {self.reps[j]: v for j, v in enumerate(row) if v})
                     if any(row) else Zero(d)
                     for d, row in zip(self.durations.tolist(), self.const.tolist()))

    @property
    def total_duration(self) -> float:
        return float(self.starts[-1])

    def _locate(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segment (left-closed; t == T lands in the last) and local time of
        each time."""
        times = np.asarray(times, dtype=float)
        T = self.total_duration
        lo, hi = (times.min(), times.max()) if times.size else (0.0, 0.0)
        if not (lo >= -1e-12 and hi <= T + max(1e-12, 1e-12 * T)):    # NaN fails too
            raise ValueError("time out of range: t=%.17g not in [0, %.17g]"
                             % (lo if lo < -1e-12 else hi, T))
        clipped = np.minimum(np.maximum(times, 0.0), T)
        idx = np.searchsorted(self.starts[1:-1], clipped, side="right")
        return idx, clipped - self.starts[idx]

    def _read_at(self, idx: np.ndarray, tloc: np.ndarray) -> np.ndarray:
        """Primitive at segment idx[r] and local time tloc[r] of each row r,
        complex (len(idx), n_rep): the closed form of the program, read by
        every caller."""
        seg, col, freq, coef = self.comp_seg, self.comp_col, self.freq, self.coef
        out = self.offsets[idx] + self.const[idx] * tloc[:, None]
        # rows grouped by segment; each component, in stored order, adds its
        # term to its segment's rows, so every row sums its terms in order
        order = np.argsort(idx, kind="stable")
        lo, hi = np.searchsorted(idx[order], [seg, seg + 1])
        for c in np.flatnonzero(hi > lo).tolist():
            rows = order[lo[c]:hi[c]]
            out[rows, col[c]] += coef[c] * (np.exp(1j * freq[c] * tloc[rows]) - 1.0)
        return out

    def _rep_matrix(self, times: np.ndarray, cmap: ChannelMap) -> np.ndarray:
        """Complex (len(times), len(cmap.reps)) matrix of primitive values."""
        read = self._read_at(*self._locate(times))
        if cmap.reps == self.reps:
            return read
        out = np.zeros((read.shape[0], len(cmap.reps)), dtype=np.complex128)
        out[:, [cmap.reps.index(r) for r in self.reps]] = read
        return out

    def channel_primitive(self, times: np.ndarray, cmap: ChannelMap) -> np.ndarray:
        return cmap.complex_to_vector(self._rep_matrix(times, cmap))

    def is_piecewise_constant(self) -> bool:
        """No oscillatory component (a packet of zero coefficients is zero)."""
        return not self.comp_seg.size

    def value_l1_bound(self) -> float:
        """Bound on sup_t of the channel-space l1 norm of the forcing."""
        packets = np.bincount(self.comp_seg, np.abs(self.coef) * np.abs(self.freq),
                              len(self.const))
        return float(max((np.abs(self.const.real) + np.abs(self.const.imag)).sum(axis=1).max(),
                         math.sqrt(2.0) * packets.max()))

    def __repr__(self):
        return "ForcingProgram(support=%d modes, segments=%d, T=%g)" % (
            len(self.support), len(self.durations), self.total_duration)


def zero_program(duration: float, support: Iterable[Mode] = ()) -> ForcingProgram:
    return ForcingProgram(support, [Zero(duration)])


def constant_program(support: Iterable[Mode], values: Mapping[Mode, complex],
                     duration: float) -> ForcingProgram:
    return ForcingProgram(support, [Constant(duration, values)])


# ---------------------------------------------------------------------------
# metrics


def _boundary_and_extremum_times(program: ForcingProgram) -> np.ndarray:
    """Segment starts, then per oscillatory component the half-period
    ladders where Re and Im of c*(exp(i h w t) - 1) peak."""
    cands = [program.starts]
    for i, w_eff, phi in zip(program.comp_seg.tolist(), np.abs(program.freq),
                             np.angle(program.coef)):
        t0, duration = program.starts[i], program.durations[i]
        n_half = int(w_eff * duration / math.pi) + 2
        steps = np.arange(-1, n_half + 1) * math.pi / w_eff
        for fam in (0.5 * math.pi, 0.0):
            t = (fam - phi) / w_eff + steps
            cands.append(t0 + t[(t >= 0.0) & (t <= duration)])
    return np.concatenate(cands)


def relaxation_distance(f: ForcingProgram, g: ForcingProgram) -> float:
    """Relaxation pseudometric: max over time of the Euclidean channel
    norm of the difference of control primitives.

    Primitives are exact; the time search uses a uniform 4096-interval
    grid enriched with segment boundaries and per-channel oscillation
    extrema.  The brackets (neighbours) of the 8 best candidates are then
    zoomed at once: 33 samples each per batched read, narrowed to the best
    sample's neighbours until below 1e-13 max(1, T), to machine accuracy.
    """
    if abs(f.total_duration - g.total_duration) > 1e-9 * max(1.0, f.total_duration):
        raise ValueError("duration mismatch: %g vs %g" % (f.total_duration, g.total_duration))
    T = min(f.total_duration, g.total_duration)      # neither is read past its end
    cmap = ChannelMap(f.support | g.support)

    def dist_many(ts: np.ndarray) -> np.ndarray:
        diff = f.channel_primitive(ts, cmap) - g.channel_primitive(ts, cmap)
        return np.sqrt((diff * diff).sum(axis=1))

    if f.is_piecewise_constant() and g.is_piecewise_constant():
        # primitives are piecewise linear and the norm is convex on each
        # piece, so the breakpoint maximum is exact
        cands = np.unique(np.clip(np.concatenate([f.starts, g.starts]), 0, T))
        return float(dist_many(cands).max())

    cands = np.linspace(0.0, T, 4096 + 1)
    cands = np.concatenate([cands,
                            np.clip(_boundary_and_extremum_times(f), 0, T),
                            np.clip(_boundary_and_extremum_times(g), 0, T)])
    cands = np.unique(cands)
    vals = dist_many(cands)
    best = float(vals.max())
    top = np.argsort(vals)[::-1][:8]
    lo = cands[np.maximum(top - 1, 0)]
    hi = cands[np.minimum(top + 1, len(cands) - 1)]
    rows, sample = np.arange(lo.size), np.linspace(0.0, 1.0, 33)
    while (hi - lo).max() > 1e-13 * max(1.0, T):
        ts = lo[:, None] + (hi - lo)[:, None] * sample
        d = dist_many(ts.ravel()).reshape(ts.shape)
        best = max(best, float(d.max()))
        j = d.argmax(axis=1)
        lo, hi = ts[rows, np.maximum(j - 1, 0)], ts[rows, np.minimum(j + 1, sample.size - 1)]
    return best


# ---------------------------------------------------------------------------
# cascade packets


def _interaction_coeff(m: Mode, n: Mode) -> float:
    return wedge(m, n) * (1.0 / norm_sq(m) - 1.0 / norm_sq(n))


def snap_omega(omega: float, duration: float) -> float:
    """Smallest frequency >= omega that fits a positive whole number of
    cycles in the segment (so primitives close up)."""
    duration = check_real("segment duration", duration)
    omega = check_real("oscillation frequency", omega)
    cycles = max(1, math.ceil(omega * duration / (2.0 * math.pi) - 1e-9))
    return 2.0 * math.pi * cycles / duration


def cascade_packet(k: Mode, m: Mode, n: Mode, target: complex, omega: float,
                   duration: float) -> Segment:
    """Counter-rotating two-harmonic packet on the pair (m, n) whose mean
    quadratic drive on mode k = m+n equals ``target``.

    Primitives are V_m = a (e^{iwt} - e^{2iwt}) and V_n = a (e^{-iwt} -
    e^{-2iwt}); the packet drives mode m+n at constant rate
    2 * coeff * a^2 while the difference mode m-n sees only zero-mean
    harmonics.  The base frequency is snapped up so whole cycles fit the
    segment and the primitives return exactly to zero.
    """
    k = check_mode(k)
    if (m[0] + n[0], m[1] + n[1]) != k:
        raise ValueError("pair does not sum to the target mode")
    coeff = _interaction_coeff(m, n)
    if coeff == 0.0:
        raise ValueError("inadmissible pair: collinear or equal-length modes")
    w = snap_omega(omega, duration)
    z = check_complex("target", target) / (2.0 * coeff)
    if z == 0:          # a zero target, or one so small that its drive underflows
        return Zero(duration)
    a = math.sqrt(abs(z)) * cmath.exp(1j * cmath.phase(z) / 2.0)
    return Oscillatory(duration, w, [
        (m, +1, a), (m, +2, -a),
        (n, -1, a), (n, -2, -a),
    ])


# ---------------------------------------------------------------------------
# chattering


def chattering_approximation(program: ForcingProgram, amplitude: float,
                             windows: int, slack_channel: int = 0
                             ) -> ForcingProgram:
    """Approximate a convex-body-valued program by an extreme-valued
    piecewise-constant one, close in the relaxation metric.

    The horizon is cut into ``windows`` equal windows.  Each window
    average (computed exactly from the primitives) is decomposed as a
    convex combination of the signed axis vectors, channels in
    ascending order, and idle time is spent as an equal +-A pair on
    ``slack_channel`` so the window's primitive increment is preserved
    exactly.  The relaxation distance to the input is at most
    2 * A * sqrt(kappa) * T / windows.
    """
    check_count("window count", windows)
    cmap = ChannelMap(program.support)
    if cmap.size == 0:
        raise ValueError("cannot chatter a program with empty support")
    amplitude = check_real("extreme amplitude", amplitude)
    if check_count("slack channel", slack_channel, 0) >= cmap.size:
        raise ValueError("slack channel out of range")
    bound = program.value_l1_bound()
    if bound > amplitude * (1 + 1e-9):
        raise ValueError("value outside convex hull: l1 bound %g exceeds %g"
                         % (bound, amplitude))
    T = program.total_duration
    edges = np.linspace(0.0, T, windows + 1)
    t_w = np.diff(edges)[:, None]
    vbar = np.diff(program.channel_primitive(edges, cmap), axis=0) / t_w
    dur = np.abs(vbar) / amplitude * t_w
    dur[dur <= 1e-15 * max(1.0, T)] = 0.0
    slack = t_w - dur.sum(axis=1, keepdims=True)
    half = np.where(slack > 1e-14 * max(1.0, T), slack / 2.0, 0.0)
    # pieces of each window, in order: the channels ascending, then the
    # slack pair; a piece's key is +-(channel + 1) by the sign of its value
    slack_key = np.full_like(half, slack_channel + 1)
    key = np.hstack([np.sign(vbar) * np.arange(1, cmap.size + 1), slack_key, -slack_key])
    dur = np.hstack([dur, half, half]).ravel()
    key = key.ravel()[dur > 0].astype(int)
    dur = dur[dur > 0]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])    # runs of one value
    channel = np.abs(key[first]) - 1
    value = np.copysign(amplitude, key[first])
    const = np.zeros((first.size, len(cmap.reps)), dtype=np.complex128)
    const[np.arange(first.size), channel // 2] = np.where(channel % 2, 1j * value, value)
    return ForcingProgram._of_arrays(program.support, np.add.reduceat(dur, first), const)


# ---------------------------------------------------------------------------
# serialization


def program_to_json(program: ForcingProgram, indent: int | None = None) -> str:
    segs = []
    for seg in program.segments:
        segs.append({"kind": type(seg).__name__.lower(), "duration": seg.duration})
        if isinstance(seg, Constant):
            segs[-1]["values"] = coeffs_to_json(
                unfold_conjugate(dict(sorted(seg.values.items()))).items())
        elif isinstance(seg, Oscillatory):
            segs[-1].update(omega=seg.omega, components=[
                {"mode": list(k), "harmonic": h, "coeff": [c.real, c.imag]}
                for k, h, c in seg.components])
    return json.dumps({"support": [list(k) for k in sorted(program.support)],
                       "segments": segs}, indent=indent)


def program_from_json(text: str) -> ForcingProgram:
    data = json.loads(text)
    if not isinstance(data, dict) or not {"support", "segments"} <= data.keys():
        raise ValueError("a program must be a JSON object with 'support' and 'segments' keys")
    support = frozenset(tuple(k) for k in data["support"])
    segments = []
    for i, entry in enumerate(data["segments"]):
        if not isinstance(entry, dict):
            raise ValueError("program segment %d is not a JSON object" % i)
        try:
            segments.append(_segment_from_dict(entry))
        except KeyError as exc:
            raise ValueError("program segment %d (%s) has no %r key"
                             % (i, entry.get("kind"), exc.args[0])) from None
    return ForcingProgram(support, segments)


def _segment_from_dict(entry: dict) -> Segment:
    kind = entry["kind"]
    dur = entry["duration"]
    if kind == "zero":
        return Zero(dur)
    if kind == "constant":
        return Constant(dur, coeffs_from_json("forcing values", entry["values"]))
    if kind == "oscillatory":
        comps = [(tuple(c["mode"]), c["harmonic"],
                  coeff_from_json("oscillation coefficients", c["coeff"]))
                 for c in entry["components"]]
        return Oscillatory(dur, entry["omega"], comps)
    raise ValueError("unknown segment kind %r" % kind)
