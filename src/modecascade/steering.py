"""Endpoint steering of the vorticity system through low-mode forcing.

The synthesis follows the inductive mode-cascade recipe: pretend every
observed channel is directly forced and steer with one short constant
ramp; approximate that ramp by a rapidly switching extreme-valued
program (chattering); replace each switching segment that actuates a
not-actually-controlled mode by a fast oscillation packet on a
generating pair one saturation level down, whose averaged quadratic
interaction reproduces the missing drive; finally settle the directly
controlled channels with a terminal correction ramp.  The ramp is aimed
past its own viscous decay and first-order quadratic drift, and a
fixed-point refinement of the pretended target absorbs what that
prediction leaves of the O(tau) endpoint error of the synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .forcing import (ChannelMap, Constant, ForcingProgram, Zero,
                      cascade_packet, chattering_approximation,
                      constant_program, zero_program)
from .integrator import (LOCAL_TOL_PER_FP_TOL, BlowUpError, IntegratorConfig,
                         StepBudgetError, Trajectory, integrate)
from .lattice import (Mode, SaturationChain, check_count, check_mode, check_real,
                      find_generating_pair, norm_sq, symmetrize)
from .spectral import (SimParams, SpectralState, _rep_mask, _tables, inner0,
                       resize, resize_rows, sobolev_norm, sobolev_norms)

__all__ = [
    "SteeringConfig", "Observation",
    "EndpointReport", "ConvergenceError",
    "base_step_program", "cascade_program",
    "steer_to_target", "near_identity_gap",
    "averaging_experiment", "subspace_setup", "steer_in_projection",
    "coverage_grid", "coverage_check", "CoverageResult",
    "report_to_dict",
]

LEVEL_OMEGA_RATIO = 25.0    # base frequency multiplier per additional cascade level


@dataclass(frozen=True)
class SteeringConfig:
    """Knobs of the synthesis.

    tau is the main actuation interval, gamma > 1 the chattering
    amplitude margin, omega the base oscillation frequency of the
    cascade (multiplied by LEVEL_OMEGA_RATIO for each additional cascade
    level).  The terminal correction ramp lasts tau/10.
    """

    tau: float = 0.02
    gamma: float = 1.1
    omega: float = 400.0
    max_fp_iters: int = 20
    fp_tol: float = 1e-3
    chatter_windows: int = 4
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
        for name in ("tau", "fp_tol", "omega"):
            check_real(name, getattr(self, name))
        check_real("gamma", self.gamma, 1.0)
        for name in ("max_fp_iters", "chatter_windows"):
            check_count(name, getattr(self, name))


@dataclass(frozen=True, eq=False)
class Observation:
    """H0 projection onto a finite-dimensional subspace, in coordinates.

    Row i of the complex weight matrix, laid out at ``radius``, is the
    state e_i of the i-th coordinate, and the coordinate of a state q is
    inner0(q, e_i) = 2 Re sum_k q_k conj(e_ik).  The coordinate channel
    (k, "re") or (k, "im") is the weight 0.5 or 0.5j at k's slot, a
    subspace coordinate its orthonormal basis vector.  A state at another
    radius is read in this ball: the weights vanish outside it.
    """

    radius: int
    weights: np.ndarray

    def __post_init__(self):
        # only the weighted columns are read, so a coefficient elsewhere,
        # even a non-finite one, does not reach the coordinates
        cols = np.flatnonzero(np.any(self.weights != 0, axis=0))
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_conj", np.conj(self.weights[:, cols]))

    @classmethod
    def of_modes(cls, modes: Iterable[Mode]) -> "Observation":
        """The channels (Re, Im interleaved) of ``ChannelMap(modes)``."""
        reps = ChannelMap(modes).reps
        if not reps:
            raise ValueError("observed mode set is empty")
        tab = _tables(math.ceil(math.sqrt(max(map(norm_sq, reps)))))
        weights = np.zeros((len(reps), 2, tab.n_reps), dtype=np.complex128)
        weights[np.arange(len(reps)), :, tab.positions(reps)] = [0.5, 0.5j]
        return cls(tab.radius, weights.reshape(2 * len(reps), -1))

    @classmethod
    def of_basis(cls, basis: Sequence[SpectralState]) -> "Observation":
        """The coordinates in an H0-orthonormal basis."""
        if not basis:
            raise ValueError("empty basis")
        radius = max(e.radius for e in basis)
        weights = np.array([resize(e, radius).data for e in basis])
        if np.abs(2.0 * (weights @ weights.conj().T).real - np.eye(len(basis))).max() > 1e-10:
            raise ValueError("basis is not orthonormal in the H0 inner product")
        return cls(radius, weights)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def observe(self, state: SpectralState) -> np.ndarray:
        q = resize_rows(state.data, state.radius, self.radius)[self._cols]
        return 2.0 * np.sum(q * self._conj, axis=-1).real


@dataclass(eq=False)
class EndpointReport:
    """Outcome of one steering task."""

    target: np.ndarray
    achieved: np.ndarray
    error_norm: float
    iterations: int
    program: ForcingProgram
    q_tail_growth: float
    final_state: SpectralState
    converged: bool = True
    tail_samples: int = 0        # recorded states q_tail_growth was read from


class ConvergenceError(RuntimeError):
    """Fixed-point refinement ran out of iterations; carries the best report."""

    def __init__(self, report: EndpointReport):
        self.report = report
        super().__init__("did not converge: best error %.3g after %d iterations"
                         % (report.error_norm, report.iterations))


def report_to_dict(report: EndpointReport, program_ref: str | None = None) -> dict:
    return {
        "target": [float(x) for x in report.target],
        "achieved": [float(x) for x in report.achieved],
        "error": float(report.error_norm),
        "iterations": int(report.iterations),
        "tail_growth": float(report.q_tail_growth),
        "tail_samples": int(report.tail_samples),
        "converged": bool(report.converged),
        "program_ref": program_ref,
    }


# ---------------------------------------------------------------------------
# program builders


def base_step_program(support: Iterable[Mode], p: np.ndarray, tau: float
                      ) -> ForcingProgram:
    """Constant ramp v = p / tau on the support channels; its primitive at
    tau equals p, so from rest the observed endpoint is p up to O(tau)."""
    tau = check_real("tau", tau)
    support = symmetrize(support)
    cmap = ChannelMap(support)
    values = cmap.vector_to_rep_coeffs(np.asarray(p, dtype=float) / tau)
    if not values:
        return zero_program(tau, support)
    return ForcingProgram(support, [Constant(tau, values)])


def cascade_program(extended: ForcingProgram, k_prev: Iterable[Mode],
                    omega: float) -> ForcingProgram:
    """Transfer an extreme-valued piecewise-constant program one saturation
    level down.

    Segments actuating a channel whose mode pair already lies in k_prev
    are copied verbatim; segments actuating a new mode k are replaced by
    a counter-rotating packet (:func:`cascade_packet`) on the generating
    pair of k in k_prev, whose averaged quadratic interaction reproduces
    the segment's drive.
    """
    k_prev = symmetrize(k_prev)
    if not extended.is_piecewise_constant():
        raise ValueError("segment not extreme-valued: chatter oscillatory "
                         "payloads before cascading")
    cmap = ChannelMap(extended.support)
    out = []
    for duration, vec in zip(extended.durations.tolist(),
                             cmap.complex_to_vector(extended.const)):
        scale = float(np.abs(vec).max(initial=0.0))
        active = np.nonzero(np.abs(vec) > 1e-13 * max(1.0, scale))[0]
        if active.size == 0:
            out.append(Zero(duration))
            continue
        if active.size > 1:
            raise ValueError("segment not extreme-valued: %d active channels"
                             % active.size)
        channel = int(active[0])
        rep, part = cmap.channel(channel)
        value = float(vec[channel]) if part == "re" else 1j * float(vec[channel])
        if rep in k_prev:
            out.append(Constant(duration, {rep: value}))
            continue
        m, n = find_generating_pair(rep, k_prev)
        out.append(cascade_packet(rep, m, n, value, omega, duration))
    return ForcingProgram(k_prev, out)


# ---------------------------------------------------------------------------
# synthesis


def _synthesize_main(p: np.ndarray, chain: SaturationChain,
                     obs: frozenset[Mode], config: SteeringConfig
                     ) -> tuple[ForcingProgram, int]:
    """Program on the main interval [0, tau] plus the cascade level used."""
    level = chain.level_containing(obs)
    prog = base_step_program(obs, p, config.tau)
    if float(np.abs(np.asarray(p)).sum()) < 1e-14:
        return prog, level
    for depth, j in enumerate(range(level, 0, -1)):
        k_prev = symmetrize(chain.levels[j - 1])
        amplitude = config.gamma * max(prog.value_l1_bound(), 1e-9)
        cmap = ChannelMap(prog.support)
        slack = next((i for i in range(cmap.size)
                      if cmap.channel(i)[0] in k_prev), 0)
        windows = config.chatter_windows
        fastest = np.abs(prog.freq).max(initial=0.0)
        if fastest > 0:
            # window averages must resolve oscillations already injected by
            # the previous cascade level, or they average to nothing
            windows = max(windows, math.ceil(
                4.0 * fastest * prog.total_duration / (2.0 * math.pi)))
        prog = chattering_approximation(prog, amplitude, windows, slack)
        omega_j = config.omega * LEVEL_OMEGA_RATIO ** depth
        prog = cascade_program(prog, k_prev, omega_j)
    return prog, level


def _ramp_displacement(aim: np.ndarray, obs: frozenset[Mode],
                       state0: SpectralState, params: SimParams, tau: float
                       ) -> np.ndarray:
    """Displacement p whose ramp p / tau on every observed channel lands the
    pretended system from state0 on ``aim`` at tau: exact in the viscous
    decay lambda = nu |k|^2, and to first order in the quadratic drift,
    taken along the straight ramp by Simpson's rule (exact for a quadratic)."""
    tab, cmap = _tables(state0.radius), ChannelMap(obs)
    at = tab.positions(cmap.reps)
    lam_tau = params.nu * tau * np.repeat(tab.norm_sq[at], 2)
    gain = np.divide(lam_tau, -np.expm1(-lam_tau), out=np.ones_like(lam_tau),
                     where=lam_tau > 0)
    d0 = gain * (aim - np.exp(-lam_tau) * cmap.complex_to_vector(state0.data[at]))
    step = tab.vector(cmap.vector_to_rep_coeffs(d0))
    n0, n1, n2 = (tab.nonlinear(state0.data + s * step)[at] for s in (0.0, 0.5, 1.0))
    return d0 - gain * cmap.complex_to_vector(tau / 6.0 * (n0 + 4.0 * n1 + n2))


def _synthesize_pieces(aim: np.ndarray, chain: SaturationChain,
                       obs: frozenset[Mode], state0: SpectralState,
                       params: SimParams, config: SteeringConfig):
    """Full program with terminal correction, plus its trajectories: the
    main ramp is aimed by :func:`_ramp_displacement` and the correction
    ramp ends the K1 channels at ``aim``.  Steps grow where the local error
    allows, against fp_tol times LOCAL_TOL_PER_FP_TOL."""
    tol = config.fp_tol * LOCAL_TOL_PER_FP_TOL
    p = _ramp_displacement(aim, obs, state0, params, config.tau)
    main, level = _synthesize_main(p, chain, obs, config)
    traj_main = integrate(state0, params, main, config.integrator, tol=tol)
    k1_obs = symmetrize(chain.levels[0]) & obs
    if level == 0 or not k1_obs:
        return main, [traj_main]
    k1 = np.repeat([r in k1_obs for r in ChannelMap(obs).reps], 2)
    have = Observation.of_modes(obs).observe(traj_main.final)
    corr = base_step_program(k1_obs, aim[k1] - have[k1], config.tau / 10.0)
    traj_corr = integrate(traj_main.final, params, corr, config.integrator, tol=tol)
    full = ForcingProgram(main.support | k1_obs,
                          main.segments + corr.segments)
    return full, [traj_main, traj_corr]


def _tail_growth(trajs: Sequence[Trajectory], obs: frozenset[Mode],
                 state0: SpectralState) -> tuple[float, int]:
    """Unobserved H0 norm growth over the recorded states (the first is
    state0), and their count."""
    observed = _rep_mask(_tables(state0.radius), obs)
    tails = [sobolev_norms(t.radius, np.where(observed, 0.0, t.data)) for t in trajs]
    return float(max(n.max() for n in tails) - tails[0][0]), sum(map(len, trajs))


def steer_to_target(target: np.ndarray, chain: SaturationChain, k_obs,
                    state0: SpectralState, params: SimParams,
                    config: SteeringConfig) -> EndpointReport:
    """Reach a target vector of observed channels by fixed-point refinement
    aim <- aim + (target - achieved(aim)) around the cascade synthesis,
    starting from aim = target.  The main ramp is aimed at aim past its
    predicted viscous decay and quadratic drift, and the terminal
    correction at aim, so the refinement absorbs only what the prediction
    leaves, the correction ramp's own defect included.

    Raises :class:`ConvergenceError` (with the best report attached) when
    the refinement does not reach fp_tol within max_fp_iters.
    """
    obs = symmetrize(k_obs)
    proj = Observation.of_modes(obs)
    if proj.radius > state0.radius:
        raise ValueError("observed modes exceed the state resolution radius")
    target = np.asarray(target, dtype=float)
    if target.shape != (proj.dimension,):
        raise ValueError("target must have one entry per observed channel (%d)"
                         % proj.dimension)
    check_real("target", np.abs(target).max(initial=0.0), -math.inf)    # NaN propagates
    aim = target
    best: EndpointReport | None = None
    for it in range(1, config.max_fp_iters + 1):
        program, trajs = _synthesize_pieces(aim, chain, obs, state0, params, config)
        final = trajs[-1].final
        achieved = proj.observe(final)
        err = float(np.linalg.norm(target - achieved))
        growth, samples = _tail_growth(trajs, obs, state0)
        report = EndpointReport(
            target=target.copy(), achieved=achieved, error_norm=err,
            iterations=it, program=program, q_tail_growth=growth,
            final_state=final, tail_samples=samples)
        if best is None or err < best.error_norm:
            best = report
        if err <= config.fp_tol:
            return report
        aim = aim + (target - achieved)
    best.converged = False
    raise ConvergenceError(best)


def near_identity_gap(support: Iterable[Mode], targets: Sequence[np.ndarray],
                      tau: float, state0: SpectralState, params: SimParams,
                      config: IntegratorConfig = IntegratorConfig()) -> float:
    """Measured sup over the targets of |observed endpoint - (start + p)|
    for the plain constant ramp; the O(tau) defect of the base step."""
    proj = Observation.of_modes(support)
    origin = proj.observe(state0)
    worst = 0.0
    for p in targets:
        prog = base_step_program(support, p, tau)
        achieved = proj.observe(integrate(state0, params, prog, config).final)
        worst = max(worst, float(np.linalg.norm(achieved - origin - p)))
    return worst


# ---------------------------------------------------------------------------
# averaging experiment


def averaging_experiment(k: Mode, pair: tuple[Mode, Mode], amplitude: float,
                         omegas: Sequence[float], duration: float,
                         state0: SpectralState, params: SimParams,
                         config: IntegratorConfig = IntegratorConfig()
                         ) -> tuple[list[float], list[float]]:
    """Deviations between the run oscillating the pair with
    :func:`cascade_packet` and the reference run under the emulated
    constant drive, one per omega, off and on the oscillated modes.

    Each is the sup over 101 equally spaced t of the H0 norm of the
    difference projected off (or onto) the pair modes.  The off-pair
    deviation D(omega) should fall as omega grows.  The on-pair mismatch
    stays O(1) (the oscillation rides there) and is what the terminal
    correction of the synthesis settles; it is returned as a diagnostic.
    """
    amplitude = check_real("amplitude", amplitude, -math.inf)
    m, n = pair
    k = check_mode(k)
    if (m[0] + n[0], m[1] + n[1]) != k:
        raise ValueError("pair does not sum to the target mode")
    pair_modes = symmetrize({m, n})
    on_pair = _rep_mask(_tables(state0.radius), pair_modes)
    samples = np.linspace(0.0, duration, 101)
    packets = [cascade_packet(k, m, n, amplitude, w, duration) for w in omegas]
    ref_prog = constant_program(symmetrize({k}), {k: amplitude}, duration)
    ref = integrate(state0, params, ref_prog, config, samples).rows_at(samples)
    devs = np.empty((2, len(packets)))
    for i, packet in enumerate(packets):
        prog = ForcingProgram(pair_modes, [packet])
        diff = integrate(state0, params, prog, config, samples).rows_at(samples) - ref
        devs[:, i] = sobolev_norms(state0.radius, np.stack(
            [np.where(on_pair, 0.0, diff), np.where(on_pair, diff, 0.0)])).max(axis=1)
    off, on = devs.tolist()
    return off, on


# ---------------------------------------------------------------------------
# finite-dimensional projections


def subspace_setup(basis_raw: Sequence[SpectralState], epsilon: float
                   ) -> tuple[Observation, frozenset[Mode]]:
    """Orthonormalize a raw basis in the H0 inner product and truncate each
    vector to a symmetric coordinate mode set within epsilon.

    Returns the observation of the subspace (on the exact orthonormal
    basis) and the coordinate set S; the truncated vectors stay within
    (len(basis)+1) * epsilon of their projection onto the subspace.
    """
    epsilon = check_real("epsilon", epsilon)
    radius = max((s.radius for s in basis_raw), default=1)   # of_basis rejects []
    basis: list[SpectralState] = []
    for v in (resize(s, radius) for s in basis_raw):
        e = v
        for prev in basis:
            e = e - inner0(e, prev) * prev
        nrm = sobolev_norm(e, 0)
        if nrm <= 1e-10 * max(1.0, sobolev_norm(v, 0)):
            raise ValueError("dependent basis")
        basis.append((1.0 / nrm) * e)
    proj = Observation.of_basis(basis)
    S: set[Mode] = set()
    for e in proj.weights:
        # the heaviest modes, until the H0 norm left out is within epsilon;
        # as tail sums, that norm is exactly 0 after the last weighted mode
        w = 2.0 * np.abs(e) ** 2
        order = np.argsort(w, kind="stable")[::-1]
        left = np.sqrt(np.r_[np.cumsum(w[order][::-1])[::-1], 0.0])
        S.update(_tables(radius).reps[i] for i in order[left[:-1] > epsilon])
    if not S:
        raise ValueError("epsilon %g keeps no coordinate mode: the basis vectors "
                         "have unit norm, so epsilon must be below 1" % epsilon)
    S_sym = symmetrize(S)
    truncated = np.where(_rep_mask(_tables(radius), S_sym), proj.weights, 0.0)
    # each truncated vector's projection onto the subspace, less the vector:
    # at most epsilon in exact arithmetic, so the bound only adds rounding room
    defects = sobolev_norms(radius, 2.0 * (truncated @ proj.weights.conj().T).real
                            @ proj.weights - truncated)
    if defects.max() > (len(basis) + 1) * (epsilon + 16 * np.finfo(float).eps):
        raise RuntimeError("truncation defect %.3g exceeds the (l+1)*eps bound"
                           % defects.max())
    return proj, S_sym


def steer_in_projection(proj: Observation, S: frozenset[Mode],
                        target: np.ndarray, chain: SaturationChain,
                        state0: SpectralState, params: SimParams,
                        config: SteeringConfig) -> EndpointReport:
    """Steer the projection of the state onto a finite-dimensional subspace,
    given the observation and coordinate set S of :func:`subspace_setup`.

    The target (subspace coordinates) is lifted through the truncated
    basis into coordinate channels over S, steered there, and the
    achieved subspace coordinates are read back from the end state.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (proj.dimension,):
        raise ValueError("target must have one coordinate per basis vector")
    truncated = np.where(_rep_mask(_tables(state0.radius), S),
                         resize_rows(proj.weights, proj.radius, state0.radius), 0.0)
    w_star = SpectralState(state0.radius, target @ truncated, _copy=False)
    try:
        inner = steer_to_target(Observation.of_modes(S).observe(w_star), chain,
                                S, state0, params, config)
    except ConvergenceError as exc:
        inner = exc.report
    achieved = proj.observe(inner.final_state)
    report = replace(inner, target=target.copy(), achieved=achieved,
                     error_norm=float(np.linalg.norm(target - achieved)))
    if not report.converged:
        raise ConvergenceError(report)
    return report


# ---------------------------------------------------------------------------
# coverage


@dataclass(eq=False)
class CoverageResult:
    """Per target: the best report (None when the run failed) and why the
    target missed: "blowup", "step_budget", "not_converged", or "" for a hit."""
    fraction: float
    targets: np.ndarray
    reports: list[EndpointReport | None]
    misses: list[str]


def coverage_grid(dimension: int, radius: float, density: int) -> np.ndarray:
    """Targets filling the l1 ball of the observed space: the center plus
    axis ladders of density-1 magnitudes in both signs per channel.

    density=2 gives the 2*kappa ball vertices plus the center.
    """
    check_count("grid density", density, 2)
    if check_real("grid radius", radius, -math.inf) < 0:
        raise ValueError("grid radius must be non-negative")
    points = [np.zeros(check_count("dimension", dimension, 0))]
    if radius > 0:
        for mag in np.linspace(radius / (density - 1), radius, density - 1):
            for c in range(dimension):
                for sign in (1.0, -1.0):
                    p = np.zeros(dimension)
                    p[c] = sign * mag
                    points.append(p)
    return np.array(points)


def coverage_check(chain: SaturationChain, k_obs, radius: float,
                   grid_density: int, state0: SpectralState, params: SimParams,
                   config: SteeringConfig) -> CoverageResult:
    """Run steer_to_target over a grid filling the target ball and report
    the fraction reaching fp_tol.  A target whose run blows up or exceeds
    the step budget counts as missed; any other error propagates."""
    obs = symmetrize(k_obs)
    dim = ChannelMap(obs).size
    targets = coverage_grid(dim, radius, grid_density)
    reports: list[EndpointReport | None] = []
    misses: list[str] = []
    for t in targets:
        rep, miss = None, ""
        try:
            rep = steer_to_target(t, chain, obs, state0, params, config)
        except ConvergenceError as exc:
            rep, miss = exc.report, "not_converged"
        except BlowUpError:
            miss = "blowup"
        except StepBudgetError:
            miss = "step_budget"
        reports.append(rep)
        misses.append(miss)
    return CoverageResult(fraction=misses.count("") / len(targets), targets=targets,
                          reports=reports, misses=misses)
