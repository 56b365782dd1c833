"""The integrating-factor RK4 that steps q itself, with the forcing as a
stage term: the reference the interaction-picture integrator is tested
against, as ``forcing_oracle`` keeps the scalar closed forms.

A step of size h from q solves dq/dt = N(q) - nu |k|^2 q + f(t) by Lawson
RK4 on q, reading the forcing f at the step's start, midpoint and end
from the program's arrays (the package reads only primitives).  A segment
with no oscillation is stepped instead as the interaction picture steps
it at a fixed step: Lawson RK4 on p = q - V, V(t) = P(t0 + t) - P(t0) the
running primitive P of the program less its value at the segment start
t0 (at nu = 0 this is the stage-forcing step in other arithmetic).
``integrate`` splits the horizon as the package's integrator does (steps
never cross segment boundaries; dt_base capped to ``resolution`` steps per
period of a segment's fastest harmonic) and returns only the final state.

``convergence_order`` estimates the package integrator's order of
accuracy from its own runs over a dt ladder.
"""

import math
from dataclasses import replace

import numpy as np

from modecascade.integrator import IntegratorConfig, integrate as package_integrate
from modecascade.spectral import SpectralState, _tables, sobolev_norm


def segment_forcing(program, i, tab):
    """Forcing of segment i at local times, in the state's layout: const[i]
    plus 1j*freq*coef*exp(1j*freq*t) over the segment's components."""
    comps = np.flatnonzero(program.comp_seg == i).tolist()
    cols = sorted(set(np.flatnonzero(program.const[i]).tolist()
                      + program.comp_col[comps].tolist()))
    pos = tab.positions(program.reps[j] for j in cols)

    def ev(times):
        times = np.asarray(times, dtype=float).reshape(-1)
        rows = np.tile(program.const[i], (times.size, 1))
        for c in comps:
            w = program.freq[c]
            rows[:, program.comp_col[c]] += 1j * w * program.coef[c] * np.exp(1j * w * times)
        out = np.zeros((times.size, tab.n_reps), dtype=np.complex128)
        out[:, pos] = rows[:, cols]
        return out

    return ev


def lawson_rk4(q, h, nu, tab, f0, fm, f1):
    nl = tab.nonlinear
    k1 = nl(q) + f0
    if not nu:
        k2 = nl(q + 0.5 * h * k1) + fm
        k3 = nl(q + 0.5 * h * k2) + fm
        k4 = nl(q + h * k3) + f1
        return q + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    decay = np.exp(-nu * tab.norm_sq * h).astype(np.complex128)
    half = np.exp(-nu * tab.norm_sq * h / 2.0).astype(np.complex128)
    dq = decay * q
    k2 = nl(half * (q + 0.5 * h * k1)) + fm
    k3 = nl(half * q + 0.5 * h * k2) + fm
    k4 = nl(dq + h * half * k3) + f1
    return dq + (h / 6.0) * (decay * k1 + 2.0 * half * (k2 + k3) + k4)


def interaction_rk4(q, h, nu, tab, v0, vm, v1):
    """Lawson RK4 on p = q - V from V at the step's start, midpoint and end;
    a stage is N(u + V) - nu |k|^2 V."""
    nl, lap = tab.nonlinear, (-nu * tab.norm_sq).astype(np.complex128)
    decay = np.exp(-nu * tab.norm_sq * h).astype(np.complex128)
    half = np.exp(-nu * tab.norm_sq * h / 2.0).astype(np.complex128)
    p = q - v0
    dp = decay * p
    k1 = nl(p + v0) + lap * v0
    k2 = nl(half * (p + 0.5 * h * k1) + vm) + lap * vm
    k3 = nl(half * p + 0.5 * h * k2 + vm) + lap * vm
    k4 = nl(dp + h * half * k3 + v1) + lap * v1
    return dp + (h / 6.0) * (decay * k1 + 2.0 * half * (k2 + k3) + k4) + v1


def integrate(state0, params, program, dt_base, resolution):
    """Final state of the run over the whole program."""
    tab = _tables(state0.radius)
    q = state0.data
    start = np.zeros(len(program.reps), dtype=np.complex128)    # P(t0)
    for i, duration in enumerate(program.durations.tolist()):
        comps = program.comp_seg == i
        freq = np.abs(program.freq[comps])
        dt = dt_base if not freq.size else min(
            dt_base, 2.0 * math.pi / freq.max() / resolution)
        n = max(1, math.ceil(duration / dt - 1e-9))
        h = duration / n
        starts = np.arange(n) * h
        if freq.size:
            ev = segment_forcing(program, i, tab)
            f0, fm, f1 = ev(starts), ev(starts + 0.5 * h), ev(starts + h)
            for j in range(n):
                q = lawson_rk4(q, h, params.nu, tab, f0[j], fm[j], f1[j])
        else:
            forced = np.flatnonzero(program.const[i])
            at = tab.positions(program.reps[c] for c in forced)
            for j in range(n):
                v = np.zeros((3, tab.n_reps), dtype=np.complex128)
                for row, t in enumerate((starts[j], starts[j] + 0.5 * h, starts[j] + h)):
                    v[row, at] = (start + program.const[i] * t)[forced] - start[forced]
                q = interaction_rk4(q, h, params.nu, tab, *v)
        integral = program.const[i] * duration
        for c in np.flatnonzero(comps):
            integral[program.comp_col[c]] += program.coef[c] * (
                np.exp(1j * program.freq[c] * duration) - 1.0)
        start = start + integral
    return SpectralState(state0.radius, q)


def convergence_order(state0, params, program, dts, config=IntegratorConfig()):
    """Self-convergence estimate of ``modecascade.integrator.integrate``:
    least-squares slope of log error against log dt, errors measured in the
    H0 norm of the final state against a reference run at a quarter of the
    finest dt.

    Returns (order, errors); the order is NaN when every error sits at
    round-off, i.e. the problem is integrated exactly (linear-only runs).
    """
    dts = [float(d) for d in dts]
    if len(dts) < 3 or any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("insufficient dt ladder: need >= 3 strictly decreasing steps")

    def run(dt):
        cfg = replace(config, dt_base=dt, record_stride=10 ** 9)
        return package_integrate(state0, params, program, cfg).final

    ref = run(dts[-1] / 4.0)
    errs = np.array([sobolev_norm(run(dt) - ref, 0) for dt in dts])
    scale = 1.0 + sobolev_norm(ref, 0)
    if errs.max() <= 1e-13 * scale:
        return float("nan"), errs
    slope = np.polyfit(np.log(dts), np.log(np.maximum(errs, 1e-300)), 1)[0]
    return float(slope), errs
