"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers; each test prints a single line with its verdict.
"""

import math
import time

import numpy as np
import pytest

from modecascade.forcing import (ChannelMap, Constant, ForcingProgram,
                                 Oscillatory, chattering_approximation,
                                 constant_program, relaxation_distance,
                                 zero_program)
from modecascade.integrator import IntegratorConfig, integrate
from modecascade.lattice import (is_saturating_symmetric, saturation_chain,
                                 symmetrize)
from modecascade.spectral import (SimParams, SpectralState, _tables, energy,
                                  enstrophy, inner0, nonlinear_term,
                                  random_decaying_state, sobolev_norm)
from modecascade.steering import (SteeringConfig, averaging_experiment,
                                  coverage_check, coverage_grid,
                                  near_identity_gap, steer_in_projection,
                                  steer_to_target, subspace_setup)

FOUR_MODES = symmetrize({(1, 0), (1, 1)})
UNIT_MODES = symmetrize({(1, 0), (0, 1)})
CHAIN = saturation_chain(FOUR_MODES, radius=3, max_levels=10)
K2 = CHAIN.levels[1]


def _report(num, label, detail):
    print("ACCEPTANCE %02d %s: PASS (%s)" % (num, label, detail))


def test_criterion_01_four_mode_set_saturates():
    t0 = time.time()
    chain = saturation_chain(FOUR_MODES, radius=10, max_levels=20)
    elapsed = time.time() - t0
    assert chain.status == "covered"
    assert len(chain.levels) <= 20
    assert is_saturating_symmetric(FOUR_MODES) is True
    assert elapsed < 1.0
    _report(1, "saturating-4-mode-set", "%d levels, %.2fs" % (len(chain.levels),
                                                              elapsed))


def test_criterion_02_unit_length_modes_do_not_saturate():
    t0 = time.time()
    chain = saturation_chain(UNIT_MODES, radius=2, max_levels=10)
    elapsed = time.time() - t0
    assert chain.status == "stationary"
    assert chain.top == UNIT_MODES          # the chain never grows
    assert len(chain.levels) == 1
    assert is_saturating_symmetric(UNIT_MODES) is False
    assert elapsed < 1.0
    _report(2, "non-saturating-controls", "stationary at level 1, %.2fs" % elapsed)


def test_criterion_03_conservation_and_triad_identities():
    rng = np.random.default_rng(2026)
    s0 = random_decaying_state(5, amplitude=0.3, decay=3.0, rng=rng)
    traj = integrate(s0, SimParams(nu=0.0), zero_program(1.0),
                     IntegratorConfig(dt_base=1e-3, record_stride=100))
    e_drift = abs(energy(traj.final) - energy(s0)) / energy(s0)
    z_drift = abs(enstrophy(traj.final) - enstrophy(s0)) / enstrophy(s0)
    assert e_drift <= 1e-8
    assert z_drift <= 1e-8
    worst = 0.0
    tab = _tables(5)
    for _ in range(100):
        s = random_decaying_state(5, amplitude=0.5, decay=2.0, rng=rng)
        n = nonlinear_term(s)
        inv_lap = SpectralState(5, s.data / tab.norm_sq)
        scale = sobolev_norm(n, 0) * sobolev_norm(s, 0) + 1e-30
        worst = max(worst, abs(inner0(n, s)) / scale,
                    abs(inner0(n, inv_lap)) / scale)
    assert worst <= 1e-12
    _report(3, "conservation", "drift e=%.1e z=%.1e, identities %.1e"
            % (e_drift, z_drift, worst))


def test_criterion_04_exact_linear_decay():
    s0 = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    traj = integrate(s0, SimParams(nu=1.0), zero_program(1.0),
                     IntegratorConfig(dt_base=1e-3, record_stride=1000))
    err = abs(traj.final.coeff((1, 0)) - math.exp(-1.0))
    assert err <= 1e-12
    _report(4, "exact-linear-decay", "error %.2e" % err)


def test_criterion_05_relaxation_norm_law():
    single = symmetrize({(1, 0)})
    worst = 0.0
    for omega in (1e2, 1e3, 1e4):
        seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), omega ** -0.5)])
        rx = relaxation_distance(ForcingProgram(single, [seg]),
                                 zero_program(1.0, single))
        worst = max(worst, abs(rx - omega ** -0.5))
    assert worst <= 1e-6
    _report(5, "relaxation-norm-law", "worst deviation %.2e" % worst)


def test_criterion_06_chattering_bound():
    rng = np.random.default_rng(616)
    support = symmetrize({(1, 0), (1, 1), (2, 1), (0, 1)})   # kappa = 8
    cmap = ChannelMap(support)
    amp, horizon = 1.0, 1.0
    kappa = cmap.size
    assert kappa == 8
    worst_ratio = 0.0
    for _ in range(50):
        fracs = rng.dirichlet(np.ones(rng.integers(1, 6)))
        segs = []
        for fr in fracs:
            v = rng.uniform(-1, 1, kappa)
            v *= rng.uniform(0, 1) / np.abs(v).sum()         # keep l1 <= amp
            segs.append(Constant(fr * horizon, cmap.vector_to_rep_coeffs(v)))
        prog = ForcingProgram(support, segs)
        prev = math.inf
        for windows in (5, 20, 100):
            out = chattering_approximation(prog, amp, windows)
            rx = relaxation_distance(out, prog)
            bound = 2 * amp * math.sqrt(kappa) * horizon / windows
            assert rx <= bound
            assert rx <= prev + 1e-12                        # decreasing in L
            worst_ratio = max(worst_ratio, rx / bound)
            prev = rx
    _report(6, "chattering-bound", "worst rx/bound %.3f over 50 programs"
            % worst_ratio)


def test_criterion_07_averaging_cascade():
    s0 = SpectralState.zeros(6)
    icfg = IntegratorConfig(dt_base=1e-3, record_stride=10)
    omegas = [50, 100, 200, 400]
    details = []
    for nu in (0.0, 0.01):
        params = SimParams(nu=nu)
        devs, _ = averaging_experiment((2, 1), ((1, 0), (1, 1)), 1.0, omegas, 0.5,
                                       s0, params, icfg)
        assert all(a > b for a, b in zip(devs, devs[1:]))    # strictly decreasing
        ref = integrate(s0, params,
                        constant_program(symmetrize({(2, 1)}), {(2, 1): 1.0}, 0.5),
                        icfg)
        sup_ref = max(sobolev_norm(s, 0) for s in ref.states)
        assert devs[-1] <= 0.05 * sup_ref
        details.append("nu=%g D(400)/sup=%.4f" % (nu, devs[-1] / sup_ref))
    _report(7, "averaging-cascade", "; ".join(details))


def test_criterion_08_steering_m1():
    # viscosity 0.01 so the base-step defect is first order in tau and the
    # halving law is observable
    params = SimParams(nu=0.01)
    s0 = SpectralState.zeros(4)
    cfg = SteeringConfig(tau=0.02, fp_tol=1e-3, max_fp_iters=10,
                         integrator=IntegratorConfig(dt_base=5e-4,
                                                     record_stride=10))
    targets = coverage_grid(4, 0.5, 2)
    assert len(targets) == 9
    worst_err, worst_iters = 0.0, 0
    for target in targets:
        rep = steer_to_target(target, CHAIN, FOUR_MODES, s0, params, cfg)
        worst_err = max(worst_err, rep.error_norm)
        worst_iters = max(worst_iters, rep.iterations)
    assert worst_err <= 1e-3
    assert worst_iters <= 10
    gaps = [near_identity_gap(FOUR_MODES, targets, tau, s0, params,
                              cfg.integrator)
            for tau in (0.04, 0.02, 0.01)]
    for a, b in zip(gaps, gaps[1:]):
        assert 1.5 <= a / b <= 2.5                           # halves within 25%
    _report(8, "steering-m1", "err<=%.1e iters<=%d gaps %s"
            % (worst_err, worst_iters, ["%.1e" % g for g in gaps]))


def test_criterion_09_steering_m2_coverage():
    s0 = SpectralState.zeros(6)
    cfg = SteeringConfig(tau=1.0, omega=400.0, fp_tol=1e-2, max_fp_iters=20,
                         chatter_windows=1, gamma=1.1,
                         integrator=IntegratorConfig(dt_base=1e-3,
                                                     record_stride=20))
    details = []
    for nu in (0.0, 0.01):
        res = coverage_check(CHAIN, K2, 0.25, 2, s0, SimParams(nu=nu), cfg)
        assert res.fraction >= 0.95
        details.append("nu=%g fraction=%.3f" % (nu, res.fraction))
    _report(9, "steering-m2-coverage", "; ".join(details))


def test_criterion_10_projection_steering():
    epsilon = 0.05
    s0 = SpectralState.zeros(6)
    params = SimParams(nu=0.01)
    cfg = SteeringConfig(tau=1.0, omega=400.0, fp_tol=1e-2, max_fp_iters=20,
                         chatter_windows=1, gamma=1.1,
                         integrator=IntegratorConfig(dt_base=1e-3,
                                                     record_stride=20))
    # 2-dimensional non-coordinate subspace mixing modes of radius <= 3
    raw = [SpectralState.from_coeffs({(1, 0): 0.8, (2, 1): 0.6 + 0.2j}, 6),
           SpectralState.from_coeffs({(0, 1): 0.7j, (1, 1): -0.5}, 6)]
    proj, S = subspace_setup(raw, epsilon)
    worst_err = worst_tail = 0.0
    for target in coverage_grid(2, 0.3, 2):
        rep = steer_in_projection(proj, S, target, CHAIN, s0, params, cfg)
        worst_err = max(worst_err, rep.error_norm)
        worst_tail = max(worst_tail, rep.q_tail_growth)
    assert worst_err <= 5e-2
    assert worst_tail <= 3.5 * epsilon
    _report(10, "projection-steering", "err<=%.2e tail<=%.3f (3.5 eps=%.3f)"
            % (worst_err, worst_tail, 3.5 * epsilon))


def test_criterion_11_rx_continuity_probe():
    rng = np.random.default_rng(1111)
    s0 = random_decaying_state(4, amplitude=0.3, rng=rng)
    single = symmetrize({(1, 0)})
    horizon = 1.0
    sample = np.linspace(0.0, horizon, 41)
    details = []
    for nu in (0.0, 0.01):
        params = SimParams(nu=nu)
        icfg = IntegratorConfig(dt_base=1e-3, record_stride=50)
        base = integrate(s0, params, zero_program(horizon, single), icfg, sample)
        devs = []
        for delta in (0.1, 0.05, 0.025):
            omega = 1.0 / delta ** 2                     # frequency scaling
            seg = Oscillatory.from_cos_pairs(horizon, omega, [((1, 0), delta)])
            prog = ForcingProgram(single, [seg])
            rx = relaxation_distance(prog, zero_program(horizon, single))
            assert rx == pytest.approx(delta, rel=1e-9)
            traj = integrate(s0, params, prog, icfg, sample)
            diffs = traj.rows_at(sample) - base.rows_at(sample)
            devs.append(max(sobolev_norm(SpectralState(s0.radius, d), 0) for d in diffs))
        assert all(a >= b for a, b in zip(devs, devs[1:]))   # nonincreasing
        details.append("nu=%g devs=%s" % (nu, ["%.3f" % d for d in devs]))
    _report(11, "rx-continuity", "; ".join(details))
