"""Time integration of the truncated vorticity system under forcing programs.

The scheme steps in the interaction picture of the control: with V the
primitive of the forcing on the segment-local clock (zero at each segment
start), q = p + V(t) and dp/dt = N(p + V) - nu |k|^2 p - nu |k|^2 V
carries no forcing term, so the fast forcing of a packet drops out and
only its bounded primitive is left inside the quadratic term (Agrachev
and Sarychev's change of variables by the control's primitive).  p is
advanced by integrating-factor (Lawson) RK4: exp(-nu |k|^2 t) propagates
-nu |k|^2 p exactly and -nu |k|^2 V is a known stage term; for nu = 0
the factors are 1 and this is plain RK4, and a segment that forces
nothing reads V = 0.  On oscillatory segments a step is at most a period
of the fastest harmonic over ``OSCILLATION_RESOLUTION``; steps never
cross segment boundaries.  Recorded states and the blow-up guard see q.

V is read, never recomputed, here: a segment's evaluator is a view of
the program's compiled read (``ForcingProgram._read_at``) that positions
the modes the segment forces in the state's layout.  ``integrate``
advances through one stepper that tabulates V for a run of equal steps
in blocks of at most _BLOCK steps: one array read of the segment's
evaluator gives V at the start, midpoint and end of every step in the
block, so the RK4 step itself only adds rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .forcing import ForcingProgram
from .spectral import SimParams, SpectralState, _tables, energies, sobolev_norms

__all__ = ["IntegratorConfig", "Trajectory", "BlowUpError", "StepBudgetError",
           "integrate"]

BLOWUP_LIMIT = 1e12
MAX_STEPS = 2_000_000    # step budget of one integration; guards runaway frequencies
_BLOCK = 64        # steps whose stage primitives one evaluator read tabulates
# steps per period of the fastest harmonic; 8 keeps the seed-7 cover_r6 main
# intervals within 1e-8 of a 320-steps-per-period run
OSCILLATION_RESOLUTION = 8


class BlowUpError(RuntimeError):
    """Raised when a coefficient leaves the finite range; carries the time."""

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__("non-finite state at t=%.9g (blow-up or user error)" % time)


class StepBudgetError(RuntimeError):
    """Raised before integrating when a program needs more steps than
    ``MAX_STEPS`` allows."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt_base: float = 1e-3
    record_stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt_base < math.inf:
            raise ValueError("dt_base must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


class Trajectory:
    """Recorded samples of one integration run: the record times and one
    read-only (n_records, n_reps) array of coefficient rows at ``radius``."""

    def __init__(self, radius: int, times: Sequence[float], data: np.ndarray):
        self.radius = radius
        self.times = np.asarray(times, dtype=float)
        self.data = np.asarray(data, dtype=np.complex128).view()
        self.data.flags.writeable = False
        if self.data.shape != (len(self.times), _tables(radius).n_reps):
            raise ValueError("times and states must align")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def states(self) -> list[SpectralState]:
        """The records as states viewing the rows."""
        return [SpectralState(self.radius, row, _copy=False) for row in self.data]

    @property
    def final(self) -> SpectralState:
        """The last record, copied so it does not hold the whole array."""
        return SpectralState(self.radius, self.data[-1])

    def rows_at(self, times: Sequence[float]) -> np.ndarray:
        """The rows recorded at the given times, each to a relative 1e-9."""
        t = np.asarray(times, dtype=float)
        i = np.abs(self.times - t[:, None]).argmin(axis=1)
        missed = np.abs(self.times[i] - t) > 1e-9 * np.maximum(1.0, np.abs(t))
        if missed.any():
            raise KeyError("no state recorded at t=%g" % t[missed][0])
        return self.data[i]

    def summary(self) -> np.ndarray:
        """Rows (t, energy, enstrophy, h1, h2)."""
        h0, h1, h2 = (sobolev_norms(self.radius, self.data, order) for order in range(3))
        return np.column_stack([self.times, energies(self.radius, self.data),
                                h0 * h0, h1, h2])


# ---------------------------------------------------------------------------
# forcing evaluation in representative space


def _segment_evaluator(program: ForcingProgram, i: int, tab
                       ) -> Callable[[np.ndarray], np.ndarray]:
    """Primitive of segment i, zero at its start, as a function of local
    time, folded onto the stored representatives of the state's
    resolution: a view of the program's compiled read.  Only the modes the
    segment forces are positioned.  A 1-D array of times gives one
    (len(times), n_reps) row per time; a segment forcing none reads zero
    rows."""
    lo, hi = np.searchsorted(program.comp_seg, [i, i + 1])
    cols = np.union1d(np.flatnonzero(program.const[i]), program.comp_col[lo:hi])
    pos = tab.positions(program.reps[j] for j in cols)
    start = program.offsets[i, cols]

    def ev(times: np.ndarray) -> np.ndarray:
        out = np.zeros((times.size, tab.n_reps), dtype=np.complex128)
        if cols.size:
            rows = program._read_at(np.full(times.size, i), times)
            out[:, pos] = rows[:, cols] - start
        return out

    return ev


def _segment_dts(program: ForcingProgram, config: IntegratorConfig) -> np.ndarray:
    """Step size of each segment: dt_base, capped to OSCILLATION_RESOLUTION
    steps per period of the segment's fastest harmonic."""
    fastest = np.zeros(len(program.durations))
    np.maximum.at(fastest, program.comp_seg, np.abs(program.freq))
    with np.errstate(divide="ignore"):
        return np.minimum(config.dt_base,
                          2.0 * math.pi / fastest / OSCILLATION_RESOLUTION)


def _integrating_factors(nu: float, tab, h: float):
    """The step's factors per rep, E = exp(-nu |k|^2 h / 2): exp(-nu |k|^2 h),
    E, 2 E and h E; and -nu |k|^2.  Complex so the step multiplies without
    a cast; ones, ones, twos, h and zeros at nu = 0."""
    lap = -nu * tab.norm_sq
    half_decay = np.exp(lap * h / 2.0).astype(np.complex128)
    return ((np.exp(lap * h).astype(np.complex128), half_decay,
             2.0 * half_decay, h * half_decay), lap.astype(np.complex128))


def _lawson_rk4(q: np.ndarray, h: float, decay: np.ndarray, half_decay: np.ndarray,
                two_half_decay: np.ndarray, h_half_decay: np.ndarray, nl,
                v0: np.ndarray, vm: np.ndarray, v1: np.ndarray, lv0: np.ndarray,
                lvm: np.ndarray, lv1: np.ndarray) -> np.ndarray:
    """One step of q = p + V from the primitive rows at its start (v0),
    midpoint (vm, the V of stages 2 and 3) and end (v1), and their
    products lv0, lvm, lv1 with -nu |k|^2.  A stage is dp/dt less
    -nu |k|^2 p: N(u + V) - nu |k|^2 V."""
    p = q - v0
    dp = decay * p
    k1 = nl(p + v0) + lv0
    k2 = nl(half_decay * (p + 0.5 * h * k1) + vm) + lvm
    k3 = nl(half_decay * p + 0.5 * h * k2 + vm) + lvm
    k4 = nl(dp + h_half_decay * k3 + v1) + lv1
    return dp + (h / 6.0) * (decay * k1 + two_half_decay * (k2 + k3) + k4) + v1


def _steps(q: np.ndarray, ev, factors, nl, a: float, h: float, n: int):
    """n Lawson steps of size h from local time a, yielding each new state;
    one evaluator call reads V at the start, midpoint and end of up to
    _BLOCK steps, and one product gives -nu |k|^2 V on all those rows."""
    step_factors, lap = factors
    for j in range(0, n, _BLOCK):
        starts = a + np.arange(j, min(j + _BLOCK, n)) * h
        v = ev(np.concatenate([starts, starts + 0.5 * h, starts + h]))
        for rows in zip(*np.split(v, 3), *np.split(lap * v, 3)):
            q = _lawson_rk4(q, h, *step_factors, nl, *rows)
            yield q


def _check_finite(q: np.ndarray, t: float):
    # one reduction: NaN fails every comparison and inf exceeds the limit
    m = np.maximum.reduce(np.abs(q))
    if not m <= BLOWUP_LIMIT:
        raise BlowUpError(t)


def integrate(state0: SpectralState, params: SimParams, program: ForcingProgram,
              config: IntegratorConfig = IntegratorConfig(),
              sample_times: Sequence[float] | None = None) -> Trajectory:
    """Advance over all segments of the program, splitting steps at segment
    boundaries and at any requested sample times.

    Records the initial state, every ``record_stride``-th step, all
    boundary/sample instants and the final state.  Deterministic for a
    fixed configuration.
    """
    tab = _tables(state0.radius)
    T = program.total_duration
    samples = np.array([] if sample_times is None
                       else sorted(set(float(s) for s in sample_times)))
    if samples.size and (samples.min() < 0 or samples.max() > T * (1 + 1e-12)):
        raise ValueError("sample times escape the program horizon")

    durations = program.durations.tolist()
    dts = _segment_dts(program, config)
    planned = int(np.ceil(program.durations / dts - 1e-9).sum())
    if planned > MAX_STEPS:
        raise StepBudgetError("step budget exceeded: %d steps planned, %d allowed "
                              "(reduce the horizon or oscillation frequencies)"
                              % (planned, MAX_STEPS))

    times = [0.0]
    rows = [state0.data]
    q = state0.data
    step_count = 0
    for i, duration in enumerate(durations):
        t0 = float(program.starts[i])
        t1 = float(program.starts[i + 1])
        ev = _segment_evaluator(program, i, tab)
        dt_seg = float(dts[i])
        inner = samples[(samples > t0 + 1e-15) & (samples < t1 - 1e-15)] - t0
        brk = np.unique(np.concatenate([[0.0, duration], inner]))
        for a, b in zip(brk[:-1].tolist(), brk[1:].tolist()):
            span = b - a
            n = max(1, math.ceil(span / dt_seg - 1e-9))
            h = span / n
            factors = _integrating_factors(params.nu, tab, h)
            for j, q in enumerate(_steps(q, ev, factors, tab.nonlinear, a, h, n)):
                t_now = t0 + (b if j == n - 1 else a + j * h + h)
                _check_finite(q, t_now)
                step_count += 1
                if ((j == n - 1 or step_count % config.record_stride == 0)
                        and t_now > times[-1]):
                    times.append(t_now)
                    rows.append(q)
    return Trajectory(state0.radius, times, np.stack(rows))

