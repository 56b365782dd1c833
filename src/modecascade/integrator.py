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
nothing reads V = 0.  Steps never cross segment boundaries or sample
times, and recorded states and the blow-up guard see q.

The step rule: each piece between those instants is cut into equal
steps of at most min(dt_base, cap), cap being a period of the segment's
fastest harmonic over ``OSCILLATION_RESOLUTION``.  Given a local error
tolerance, a step on a segment with no oscillation grows from there in
whole multiples of it, never below, up to the piece: there V = v t is
exact and only the slow quadratic dynamics limit the step.  Its size
comes from the free first-same-as-last estimate of the Lawson step
(Hochbruck and Ostermann, Exponential integrators, Acta Numerica 2010),
which cannot see the time-only part of a packet's stages, so packet
steps stay fixed.  Steering sets the tolerance, fp_tol times
``LOCAL_TOL_PER_FP_TOL``; every other run keeps the fixed steps.

V is read, never recomputed, here: a segment's evaluator is a view of
the program's compiled read (``ForcingProgram._read_at``) that positions
the modes the segment forces in the state's layout.  ``integrate``
advances through one stepper that tabulates V for a run of equal steps
in blocks of at most _BLOCK steps: one array read of the segment's
evaluator gives V at the start, midpoint and end of every step in the
block, so the RK4 step itself only adds rows.  A grown step reads its own.
"""

from __future__ import annotations

import math
import numbers
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
_GROW = 5.0        # most a step may grow, or shrink, over the one before
_SAFETY = 0.9      # fraction of the step the error estimate allows that is taken
# steps per period of the fastest harmonic; 8 keeps the seed-7 cover_r6 main
# intervals within 1e-8 of a 320-steps-per-period run
OSCILLATION_RESOLUTION = 8
# local error tolerance of a steering run's steps, per unit of its fp_tol
LOCAL_TOL_PER_FP_TOL = 1e-8


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
        _check_count(self, "record_stride")


def _check_count(config, name: str):
    """A count field must be an int (not a bool or a float) of at least 1."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, not %r" % (name, value))
    if value < 1:
        raise ValueError("%s must be >= 1" % name)


class Trajectory:
    """Recorded samples of one integration run: the record times and one
    read-only (n_records, n_reps) array of coefficient rows at ``radius``;
    and the run's count of RK4 steps taken and its smallest and largest
    step (NaN when not given)."""

    def __init__(self, radius: int, times: Sequence[float], data: np.ndarray,
                 steps: int = 0, h_min: float = math.nan, h_max: float = math.nan):
        self.radius = radius
        self.steps, self.h_min, self.h_max = steps, h_min, h_max
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


def _segment_caps(program: ForcingProgram) -> np.ndarray:
    """Longest step of each segment: a period of its fastest harmonic over
    OSCILLATION_RESOLUTION, inf on a segment with no oscillation."""
    fastest = np.zeros(len(program.durations))
    np.maximum.at(fastest, program.comp_seg, np.abs(program.freq))
    with np.errstate(divide="ignore"):
        return 2.0 * math.pi / fastest / OSCILLATION_RESOLUTION


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
                lvm: np.ndarray, lv1: np.ndarray, k1: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """One step of q = p + V from the primitive rows at its start (v0),
    midpoint (vm, the V of stages 2 and 3) and end (v1), and their
    products lv0, lvm, lv1 with -nu |k|^2.  A stage is dp/dt less
    -nu |k|^2 p: N(u + V) - nu |k|^2 V.  A first stage k1 already known
    is not recomputed.  Returns the new state and the last stage k4."""
    p = q - v0
    dp = decay * p
    if k1 is None:
        k1 = nl(p + v0) + lv0
    k2 = nl(half_decay * (p + 0.5 * h * k1) + vm) + lvm
    k3 = nl(half_decay * p + 0.5 * h * k2 + vm) + lvm
    k4 = nl(dp + h_half_decay * k3 + v1) + lv1
    return dp + (h / 6.0) * (decay * k1 + two_half_decay * (k2 + k3) + k4) + v1, k4


def _steps(q: np.ndarray, ev, tab, nu: float, a: float, b: float, n: int,
           most: int = 1, tol: float | None = None):
    """Lawson steps over the local times [a, b] in units of u = (b - a) / n,
    yielding each new state with its local end time and step size.

    At most = 1 every step is one unit, and one evaluator call reads V at
    the start, midpoint and end of up to _BLOCK steps.  Otherwise a step is
    m <= most units, read one at a time: the first is one unit, and each
    next m comes from the local error estimate of the step before against
    tol (Hairer, Norsett and Wanner, Solving ODEs I, II.4): (h/6) max
    |k4 - k5|, where k5 = N(q_new) - nu |k|^2 V(end) is the next step's
    first stage, so the estimate costs no extra kernel call; plus
    Simpson's error bound on the known stage term -nu |k|^2 V, which
    k4 - k5 cannot see, with V linear in t: most > 1 only on a segment
    with no oscillation.  A step over tol is taken again with fewer
    units, down to one, from the same first stage; the last step, which
    has no next stage, is not estimated."""
    nl, u, lam = tab.nonlinear, (b - a) / n, nu * tab.norm_sq
    factors: dict[int, tuple] = {}
    done, m, k1 = 0, 1, None
    while done < n:
        m = min(m, n - done)
        count = min(_BLOCK, n - done) if most == 1 else 1
        h = m * u
        starts = a + np.arange(done, done + count * m, m) * u
        v = ev(np.concatenate([starts, starts + 0.5 * h, starts + h]))
        if m not in factors:
            factors[m] = _integrating_factors(nu, tab, h)
        step_factors, lap = factors[m]
        for start, *rows in zip(starts.tolist(), *np.split(v, 3), *np.split(lap * v, 3)):
            q_new, k4 = _lawson_rk4(q, h, *step_factors, nl, *rows, k1)
            grow = 1.0
            if most > 1 and done + m < n:
                k5 = nl(q_new) + rows[5]
                size, rise = np.abs(rows[2]), np.abs(rows[2] - rows[0])
                err = float(h / 6.0 * np.abs(k4 - k5).max() + h ** 4 / 2880.0 * (
                    lam ** 4 * (h * lam * size + 4.0 * rise)).max())
                grow = min(_GROW, max(1.0 / _GROW, _SAFETY * (tol / err) ** 0.25)
                           if err else _GROW)
                if err > tol and m > 1:
                    m = max(1, min(m - 1, int(m * grow)))
                    break
                k1 = k5
            done += m
            q = q_new
            yield q, (b if done == n else start + h), h
            m = max(1, min(most, int(m * grow)))


def _check_finite(q: np.ndarray, t: float):
    # one reduction: NaN fails every comparison and inf exceeds the limit
    m = np.maximum.reduce(np.abs(q))
    if not m <= BLOWUP_LIMIT:
        raise BlowUpError(t)


def integrate(state0: SpectralState, params: SimParams, program: ForcingProgram,
              config: IntegratorConfig = IntegratorConfig(),
              sample_times: Sequence[float] | None = None,
              tol: float | None = None) -> Trajectory:
    """Advance over all segments of the program, splitting steps at segment
    boundaries and at any requested sample times.

    Steps follow the module's step rule: fixed without ``tol``, grown
    against the local error tolerance ``tol`` with it.

    Records the initial state, every ``record_stride``-th step, all
    boundary/sample instants and the final state.  Deterministic for a
    fixed configuration.
    """
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError("tol must be positive")
    tab = _tables(state0.radius)
    T = program.total_duration
    samples = np.array([] if sample_times is None
                       else sorted(set(float(s) for s in sample_times)))
    if samples.size and (samples.min() < 0 or samples.max() > T * (1 + 1e-12)):
        raise ValueError("sample times escape the program horizon")

    durations = program.durations.tolist()
    caps = _segment_caps(program)
    dts = np.minimum(config.dt_base, caps)
    planned = int(np.ceil(program.durations / dts - 1e-9).sum())
    if planned > MAX_STEPS:
        raise StepBudgetError("step budget exceeded: %d steps planned, %d allowed "
                              "(reduce the horizon or oscillation frequencies)"
                              % (planned, MAX_STEPS))

    times = [0.0]
    rows = [state0.data]
    q = state0.data
    step_count, h_min, h_max = 0, math.inf, 0.0
    for i, duration in enumerate(durations):
        t0 = float(program.starts[i])
        t1 = float(program.starts[i + 1])
        ev = _segment_evaluator(program, i, tab)
        dt_seg = float(dts[i])
        inner = samples[(samples > t0 + 1e-15) & (samples < t1 - 1e-15)] - t0
        brk = np.unique(np.concatenate([[0.0, duration], inner]))
        for a, b in zip(brk[:-1].tolist(), brk[1:].tolist()):
            n = max(1, math.ceil((b - a) / dt_seg - 1e-9))
            most = n if tol is not None and math.isinf(caps[i]) else 1
            for q, t_local, h in _steps(q, ev, tab, params.nu, a, b, n, most, tol):
                t_now = t0 + t_local
                _check_finite(q, t_now)
                step_count += 1
                h_min, h_max = min(h_min, h), max(h_max, h)
                if ((t_local == b or step_count % config.record_stride == 0)
                        and t_now > times[-1]):
                    times.append(t_now)
                    rows.append(q)
    return Trajectory(state0.radius, times, np.stack(rows), step_count, h_min, h_max)
