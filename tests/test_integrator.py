"""Integrator: exact viscous decay, conservation, convergence order,
determinism, blow-up detection, trajectory records."""

import cmath
import math

import numpy as np
import pytest

from modecascade.forcing import (ForcingProgram, Oscillatory, constant_program,
                                 zero_program)
from modecascade.integrator import (BlowUpError, IntegratorConfig, Trajectory,
                                    integrate)
from modecascade import integrator
from modecascade.integrator import BLOWUP_LIMIT, StepBudgetError, _check_finite
from modecascade.integrator import (_integrating_factors, _lawson_rk4,
                                    _segment_evaluator)
from modecascade.forcing import Constant, Zero, cascade_packet
from modecascade.lattice import symmetrize
from modecascade.spectral import (SimParams, SpectralState, _tables, energy,
                                  enstrophy, random_decaying_state, sobolev_norm)
from hypothesis import given, settings
from hypothesis import strategies as st

import forcing_oracle as oracle
import integrator_oracle
from integrator_oracle import convergence_order

SINGLE = symmetrize({(1, 0)})


@pytest.mark.parametrize("dt_base", [0.0, -1e-3, float("nan"), float("inf")])
def test_integrator_config_rejects_a_bad_dt_base(dt_base):
    with pytest.raises(ValueError, match="dt_base"):
        IntegratorConfig(dt_base=dt_base)


@pytest.mark.parametrize("call,message", [
    (lambda: IntegratorConfig(record_stride=0), "record_stride must be >= 1"),
    (lambda: integrate(SpectralState.zeros(3), SimParams(nu=0.0), zero_program(1.0),
                       sample_times=[0.5, 1.5]), "sample times escape the program horizon"),
    (lambda: integrate(SpectralState.zeros(3), SimParams(nu=0.0), zero_program(1.0),
                       tol=0.0), "tol must be positive"),
    # a NaN sample failed no range test and was dropped
    (lambda: integrate(SpectralState.zeros(3), SimParams(nu=0.0), zero_program(1.0),
                       sample_times=[0.5, math.nan]), "sample times escape the program horizon"),
    # True stepped at 1, and a string tolerance failed as a TypeError
    (lambda: IntegratorConfig(dt_base=True), "dt_base must be a real number, not True"),
    (lambda: integrate(SpectralState.zeros(3), SimParams(nu=0.0), zero_program(1.0),
                       tol="1e-8"), "tol must be a real number, not '1e-8'"),
    # float() parsed the string and read True as 1
    (lambda: integrate(SpectralState.zeros(3), SimParams(nu=0.0), zero_program(1.0),
                       sample_times=["0.5"]), "sample time must be a real number, not '0.5'"),
], ids=["record_stride", "sample_times", "tol", "nan_sample_time", "bool_dt_base",
        "string_tol", "string_sample_time"])
def test_integrator_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("stride", [2.5, 2.0, True, "2"])
def test_record_stride_must_be_an_integer(stride):
    # 2.5 recorded every 5th step and True every step
    with pytest.raises(ValueError, match="record_stride must be an integer"):
        IntegratorConfig(record_stride=stride)


def test_record_stride_takes_numpy_integers():
    assert IntegratorConfig(record_stride=np.int64(3)).record_stride == 3


def test_single_step_linear_decay_exact():
    s = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    traj = integrate(s, SimParams(nu=1.0), zero_program(0.1), IntegratorConfig(dt_base=0.1))
    assert len(traj) == 2
    assert traj.final.coeff((1, 0)) == pytest.approx(math.exp(-0.1), abs=1e-15)


def test_full_run_linear_decay_exact():
    s = SpectralState.from_coeffs({(1, 0): 0.7 + 0.2j}, 3)
    traj = integrate(s, SimParams(nu=1.0), zero_program(1.0),
                     IntegratorConfig(dt_base=1e-3, record_stride=1000))
    assert abs(traj.final.coeff((1, 0)) - math.exp(-1.0) * (0.7 + 0.2j)) <= 1e-12


def test_constant_forcing_from_rest():
    c, dt = 0.4 - 0.3j, 0.05
    prog = constant_program(SINGLE, {(1, 0): c}, dt)
    traj = integrate(SpectralState.zeros(3), SimParams(), prog, IntegratorConfig(dt_base=dt))
    assert len(traj) == 2
    # forcing is constant and the nonlinearity is third-order small
    assert traj.final.coeff((1, 0)) == pytest.approx(c * dt, abs=1e-8)


def test_euler_conservation_drift():
    rng = np.random.default_rng(10)
    s0 = random_decaying_state(4, amplitude=0.4, rng=rng)
    traj = integrate(s0, SimParams(nu=0.0), zero_program(0.5),
                     IntegratorConfig(dt_base=2e-3, record_stride=50))
    for s in traj.states:
        assert abs(enstrophy(s) - enstrophy(s0)) <= 1e-9 * enstrophy(s0)
        assert abs(energy(s) - energy(s0)) <= 1e-9 * energy(s0)


def test_viscous_enstrophy_monotone():
    rng = np.random.default_rng(12)
    s0 = random_decaying_state(4, amplitude=0.4, rng=rng)
    traj = integrate(s0, SimParams(nu=0.05), zero_program(1.0),
                     IntegratorConfig(dt_base=2e-3, record_stride=20))
    zs = [enstrophy(s) for s in traj.states]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(zs, zs[1:]))


def test_conjugate_symmetry_at_recorded_states():
    rng = np.random.default_rng(13)
    s0 = random_decaying_state(4, amplitude=0.4, rng=rng)
    seg = Oscillatory.from_cos_pairs(0.3, 120.0, [((1, 0), 0.5)])
    traj = integrate(s0, SimParams(nu=0.01), ForcingProgram(SINGLE, [seg]),
                     IntegratorConfig(dt_base=1e-3, record_stride=10))
    s = traj.final
    for k, v in list(s.full_items())[:20]:
        assert s.coeff((-k[0], -k[1])) == np.conj(v)


def test_convergence_order_euler():
    rng = np.random.default_rng(14)
    s0 = random_decaying_state(3, amplitude=0.5, decay=1.5, rng=rng)
    order, errs = convergence_order(s0, SimParams(), zero_program(0.5),
                                    [4e-3, 2e-3, 1e-3])
    assert 3.5 <= order <= 4.5
    assert errs[0] > errs[-1]


def test_convergence_order_linear_only_flags_roundoff():
    s0 = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    order, errs = convergence_order(s0, SimParams(nu=1.0), zero_program(0.5),
                                    [4e-3, 2e-3, 1e-3])
    assert math.isnan(order)
    assert errs.max() < 1e-12


def test_convergence_order_oscillatory():
    seg = Oscillatory.from_cos_pairs(0.5, 200.0, [((1, 0), 2.0), ((1, 1), 2.0)])
    prog = ForcingProgram(symmetrize({(1, 0), (1, 1)}), [seg])
    s0 = SpectralState.zeros(4)
    order, _ = convergence_order(s0, SimParams(), prog, [4e-4, 2e-4, 1e-4])
    assert 3.5 <= order <= 4.5


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_convergence_order_of_a_forced_packet_from_a_random_state(monkeypatch, nu):
    # the ladder sets the step (one step per period caps nothing here)
    monkeypatch.setattr(integrator, "OSCILLATION_RESOLUTION", 1)
    s0 = random_decaying_state(4, amplitude=0.3, rng=np.random.default_rng(8))
    prog = ForcingProgram(symmetrize({(1, 0), (1, 1)}),
                          [cascade_packet((2, 1), (1, 0), (1, 1), 0.5, 200.0, 0.3)])
    order, errs = convergence_order(s0, SimParams(nu=nu), prog, [4e-3, 2e-3, 1e-3])
    assert 3.5 <= order <= 4.5
    assert errs[-1] < 1e-7


@pytest.mark.parametrize("radius", [5, 12])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_zero_program_steps_as_the_stage_forcing_scheme_bitwise(radius, nu):
    # a segment that forces nothing has V = 0: the step is the plain
    # integrating-factor RK4 of the stage-forcing scheme, bit for bit
    s0 = random_decaying_state(radius, rng=np.random.default_rng(7))
    prog = ForcingProgram(SINGLE, [Zero(0.03), Zero(0.02)])
    got = integrate(s0, SimParams(nu=nu), prog, IntegratorConfig(dt_base=2e-3)).final
    want = integrator_oracle.integrate(s0, SimParams(nu=nu), prog, 2e-3, 8)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("radius", [5, 12])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_constant_program_steps_as_the_oracle_bitwise(radius, nu):
    # at a fixed step a constant segment is the Lawson step on p = q - V,
    # V the running primitive less its value at the segment start
    s0 = random_decaying_state(radius, rng=np.random.default_rng(7))
    prog = ForcingProgram(EVAL_SUPPORT, [
        Constant(0.031, {(1, 0): 0.4 - 0.2j}), Zero(0.02),
        Constant(0.047, {(1, 1): -0.3j, (2, 1): 0.25}), Constant(0.01, {(1, 0): 0.1})])
    got = integrate(s0, SimParams(nu=nu), prog, IntegratorConfig(dt_base=2e-3)).final
    want = integrator_oracle.integrate(s0, SimParams(nu=nu), prog, 2e-3, 8)
    assert got.data.tobytes() == want.data.tobytes()


def test_convergence_order_needs_ladder():
    s0 = SpectralState.zeros(3)
    with pytest.raises(ValueError, match="insufficient dt ladder"):
        convergence_order(s0, SimParams(), zero_program(0.1), [1e-3, 2e-3, 4e-3])


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    s0 = random_decaying_state(4, amplitude=0.4, rng=rng)
    seg = Oscillatory.from_cos_pairs(0.4, 150.0, [((1, 0), 1.0)])
    prog = ForcingProgram(SINGLE, [seg])
    t1 = integrate(s0, SimParams(nu=0.01), prog, IntegratorConfig(dt_base=5e-4))
    t2 = integrate(s0, SimParams(nu=0.01), prog, IntegratorConfig(dt_base=5e-4))
    assert np.array_equal(t1.times, t2.times)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(t1.states, t2.states))


def test_blow_up_detection_carries_time():
    s0 = SpectralState.from_coeffs({(1, 0): 1e8, (1, 1): 1e8}, 3)
    with pytest.raises(BlowUpError) as info:
        integrate(s0, SimParams(), zero_program(1.0),
                  IntegratorConfig(dt_base=1e-3))
    assert 0 < info.value.time <= 1.0


def test_oscillation_resolution_caps_dt(monkeypatch):
    # 40 steps per period of the fastest harmonic
    monkeypatch.setattr(integrator, "OSCILLATION_RESOLUTION", 40)
    seg = Oscillatory.from_cos_pairs(0.1, 500.0, [((1, 0), 0.5)])
    prog = ForcingProgram(SINGLE, [seg])
    traj = integrate(SpectralState.zeros(3), SimParams(), prog,
                     IntegratorConfig(dt_base=1e-2, record_stride=1))
    expected_dt = (2 * math.pi / 500.0) / 40.0
    assert np.diff(traj.times).max() <= expected_dt * (1 + 1e-9)


def test_default_resolution_is_eight_steps_per_period():
    # the fastest harmonic is 2 * 500: 8 steps per 2 pi / 1000
    seg = Oscillatory(0.1, 500.0, [((1, 0), 1, 0.2), ((1, 0), 2, -0.2)])
    traj = integrate(SpectralState.zeros(3), SimParams(), ForcingProgram(SINGLE, [seg]),
                     IntegratorConfig(dt_base=1e-2))
    assert integrator.OSCILLATION_RESOLUTION == 8
    assert len(traj) - 1 == math.ceil(0.1 / (2 * math.pi / 1000.0 / 8))


def test_sample_times_recorded_exactly():
    samples = [0.123, 0.5, 0.75]
    traj = integrate(SpectralState.zeros(3), SimParams(), zero_program(1.0),
                     IntegratorConfig(dt_base=1e-2), sample_times=samples)
    traj.rows_at(samples)     # raises KeyError if one is missing


def test_boundary_instants_recorded():
    prog = ForcingProgram(SINGLE, [zero_program(0.3, SINGLE).segments[0],
                                   zero_program(0.7, SINGLE).segments[0]])
    traj = integrate(SpectralState.zeros(3), SimParams(), prog,
                     IntegratorConfig(dt_base=7e-3, record_stride=10 ** 9))
    traj.rows_at([0.3])       # raises KeyError if missing
    assert traj.times[-1] == pytest.approx(1.0)


def test_equiboundedness_over_frequency_family():
    # family of oscillations with a fixed primitive bound: one common
    # H0 bound holds across all frequencies (frozen regression constant,
    # measured 2.37 on this configuration)
    rng = np.random.default_rng(5)
    s0 = random_decaying_state(5, amplitude=0.3, rng=rng)
    supp = symmetrize({(1, 0), (1, 1)})
    for omega in (50, 100, 200, 400, 800):
        seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), 1.0), ((1, 1), 1.0)])
        traj = integrate(s0, SimParams(), ForcingProgram(supp, [seg]),
                         IntegratorConfig(dt_base=1e-3, record_stride=5))
        assert max(sobolev_norm(s, 0) for s in traj.states) <= 3.0


def test_trajectory_validation():
    s = SpectralState.zeros(3)
    with pytest.raises(ValueError, match="start at t = 0"):
        Trajectory(3, [0.5], [s.data])
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(3, [0.0, 0.0], [s.data, s.data])
    with pytest.raises(ValueError, match="align"):
        Trajectory(3, [0.0, 0.1], [s.data])
    traj = integrate(s, SimParams(), zero_program(0.1),
                     IntegratorConfig(dt_base=5e-2))
    with pytest.raises(KeyError):
        traj.rows_at([0.123456])


def test_trajectory_is_one_read_only_array():
    # states view the rows; final copies the last row, so a kept report
    # does not hold the whole run
    s0 = random_decaying_state(4, amplitude=0.4, rng=np.random.default_rng(8))
    traj = integrate(s0, SimParams(nu=0.01), zero_program(0.1),
                     IntegratorConfig(dt_base=1e-2))
    assert traj.data.shape == (len(traj), _tables(4).n_reps)
    assert not traj.data.flags.writeable
    assert np.array_equal(traj.data[0], s0.data)
    assert all(np.shares_memory(s.data, traj.data) for s in traj.states)
    assert not np.shares_memory(traj.final.data, traj.data)
    assert np.array_equal(traj.final.data, traj.data[-1])
    assert np.array_equal(traj.rows_at(traj.times[3:4]), traj.data[3:4])
    with pytest.raises(KeyError, match="no state recorded"):
        traj.rows_at([0.0, 0.0123])


def test_rows_at_rejects_a_nan_time():
    # NaN passed the missed-record test and read the t = 0 record
    traj = integrate(SpectralState.zeros(3), SimParams(), zero_program(0.1),
                     IntegratorConfig(dt_base=1e-2))
    with pytest.raises(KeyError, match="no state recorded at t=nan"):
        traj.rows_at([0.05, math.nan])


def test_summary_rows_match_the_per_state_norms_bitwise():
    s0 = random_decaying_state(5, amplitude=0.4, rng=np.random.default_rng(9))
    seg = Oscillatory.from_cos_pairs(0.2, 90.0, [((1, 0), 0.5)])
    traj = integrate(s0, SimParams(nu=0.01), ForcingProgram(SINGLE, [seg]),
                     IntegratorConfig(dt_base=2e-3, record_stride=5))
    want = [(t, energy(s), enstrophy(s), sobolev_norm(s, 1), sobolev_norm(s, 2))
            for t, s in zip(traj.times, traj.states)]
    assert traj.summary().tolist() == [list(row) for row in want]


def test_public_step_through_oscillatory_segment():
    seg = Oscillatory.from_cos_pairs(0.5, 80.0, [((1, 0), 1.0)])
    prog = ForcingProgram(SINGLE, [zero_program(0.5, SINGLE).segments[0], seg])
    traj = integrate(SpectralState.zeros(3), SimParams(), prog, sample_times=[0.6])
    # at rest through the zero segment, then driven by v ~ A*omega*cos(omega*(t-0.5))
    rest, driven = (SpectralState(3, row).coeff((1, 0)) for row in traj.rows_at([0.5, 0.6]))
    assert rest == 0
    assert abs(driven) > 0


def test_step_budget_guard():
    seg = Oscillatory.from_cos_pairs(2.0, 1e7, [((1, 0), 1.0)])
    prog = ForcingProgram(SINGLE, [seg])
    with pytest.raises(RuntimeError, match="step budget"):
        integrate(SpectralState.zeros(3), SimParams(), prog,
                  IntegratorConfig(dt_base=1e-3))


def test_euler_drift_across_resolutions():
    rng = np.random.default_rng(99)
    for radius in (3, 4, 5, 6):
        s0 = random_decaying_state(radius, amplitude=0.4, rng=rng)
        final = integrate(s0, SimParams(), zero_program(0.25),
                          IntegratorConfig(dt_base=1e-3,
                                           record_stride=10 ** 9)).final
        assert abs(enstrophy(final) - enstrophy(s0)) <= 1e-9 * enstrophy(s0)
        assert abs(energy(final) - energy(s0)) <= 1e-9 * energy(s0)


def test_step_budget_error_is_typed():
    seg = Oscillatory.from_cos_pairs(2.0, 1e7, [((1, 0), 1.0)])
    with pytest.raises(StepBudgetError, match="step budget"):
        integrate(SpectralState.zeros(3), SimParams(), ForcingProgram(SINGLE, [seg]),
                  IntegratorConfig(dt_base=1e-3))


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, float("nan")),
                                 float("inf"), -float("inf"), complex(0.0, -float("inf")),
                                 2.0 * BLOWUP_LIMIT, -2.0j * BLOWUP_LIMIT],
                         ids=["nan", "nan-imag", "inf", "-inf", "-inf-imag",
                              "large", "large-imag"])
def test_blowup_guard_rejects_nan_inf_and_large(bad):
    q = np.full(7, 0.5 + 0.5j)
    q[3] = bad
    with pytest.raises(BlowUpError) as info:
        _check_finite(q, 0.25)
    assert info.value.time == 0.25


def test_blowup_guard_accepts_the_limit():
    _check_finite(np.array([BLOWUP_LIMIT, -BLOWUP_LIMIT, 0.0], dtype=complex), 0.0)


# ---------------------------------------------------------------------------
# per-stage primitive evaluator against the scalar closed form

EVAL_SUPPORT = symmetrize({(1, 0), (1, 1), (2, 1), (0, 2)})
unit = st.floats(-1.0, 1.0)


@st.composite
def evaluator_segments(draw):
    duration = draw(st.floats(0.05, 1.0))
    omega = draw(st.floats(1.0, 1e3))
    modes = st.lists(st.sampled_from(sorted(EVAL_SUPPORT)), min_size=1, max_size=4)
    kind = draw(st.sampled_from(["constant", "harmonics", "packet"]))
    if kind == "constant":
        values = {}
        for k in draw(modes):
            v = complex(draw(unit), draw(unit))
            values[k], values[(-k[0], -k[1])] = v, v.conjugate()
        return Constant(duration, values)
    if kind == "harmonics":
        return Oscillatory(duration, omega, [
            (k, draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), complex(draw(unit), draw(unit)))
            for k in draw(modes)])
    return cascade_packet((2, 1), (1, 0), (1, 1), complex(draw(unit), draw(unit)),
                          omega, duration)


@given(evaluator_segments(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.sampled_from([3, 5]))
@settings(max_examples=100, deadline=None)
def test_segment_evaluator_matches_scalar_evaluate(seg, fractions, radius):
    tab = _tables(radius)
    prog = ForcingProgram(EVAL_SUPPORT, [seg])
    ev = _segment_evaluator(prog, 0, tab)
    for frac in fractions:
        tloc = frac * seg.duration
        want = np.zeros(tab.n_reps, dtype=complex)
        for k in oracle.segment_reps(seg):
            want[tab.rep_index[k]] = oracle.segment_primitive(seg, k, tloc)
        scale = max(1.0, np.abs(want).max())
        np.testing.assert_allclose(ev(np.array([tloc]))[0], want,
                                   rtol=0, atol=1e-12 * scale)


@given(evaluator_segments(), st.lists(st.floats(0.0, 1.0), max_size=8),
       st.sampled_from([3, 5]))
@settings(max_examples=100, deadline=None)
def test_segment_evaluator_rows_match_scalar_calls_bitwise(seg, fractions, radius):
    tab = _tables(radius)
    ev = _segment_evaluator(ForcingProgram(EVAL_SUPPORT, [seg]), 0, tab)
    times = np.array(fractions) * seg.duration
    want = np.array([ev(np.array([t]))[0] for t in times],
                    dtype=complex).reshape(len(times), tab.n_reps)
    got = ev(times)
    assert got.shape == (len(times), tab.n_reps)
    assert got.tobytes() == want.tobytes()
    assert ev(np.array([])).shape == (0, tab.n_reps)


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_blocked_integrate_matches_scalar_step_loop(nu):
    # 150 steps: two full forcing blocks and a partial one
    n = 150
    seg = Oscillatory(0.15, 10.0, [((1, 0), 1, 0.3 - 0.1j), ((1, 0), 2, 0.2j),
                                   ((1, 1), -1, -0.25), ((2, 1), 3, 0.1 + 0.05j)])
    prog = ForcingProgram(EVAL_SUPPORT, [seg])
    params = SimParams(nu=nu)
    state0 = random_decaying_state(4, rng=np.random.default_rng(5))
    traj = integrate(state0, params, prog, IntegratorConfig(dt_base=1e-3))
    assert len(traj) == n + 1
    tab = _tables(4)
    ev = _segment_evaluator(prog, 0, tab)
    h = 0.15 / n
    factors, lap = _integrating_factors(nu, tab, h)
    q = state0.data
    for j in range(n):
        tloc = 0.0 + j * h
        v = ev(np.array([tloc, tloc + 0.5 * h, tloc + h]))
        q, _ = _lawson_rk4(q, h, *factors, tab.nonlinear, *v, *(lap * v))
    assert traj.final.data.tobytes() == q.tobytes()


def test_segment_evaluator_rejects_modes_outside_the_radius():
    seg = Oscillatory.from_cos_pairs(1.0, 10.0, [((2, 1), 1.0)])
    with pytest.raises(ValueError, match="outside resolution radius"):
        _segment_evaluator(ForcingProgram(symmetrize({(2, 1)}), [seg]), 0, _tables(2))


@pytest.mark.parametrize("forced", [
    Constant(0.1, {(1, 0): 1.0 - 0.5j}),
    Oscillatory.from_cos_pairs(0.1, 50.0, [((1, 0), 0.2)]),
])
def test_unforced_support_mode_outside_the_radius_integrates(forced):
    # (2, 1) lies outside R = 2; only the segment that forces it may fail
    prog = ForcingProgram(symmetrize({(1, 0), (2, 1)}), [forced, Zero(0.1)])
    traj = integrate(SpectralState.zeros(2), SimParams(nu=0.01), prog,
                     IntegratorConfig(dt_base=1e-2))
    assert traj.final.coeff((1, 0)) != 0
    assert not _segment_evaluator(prog, 1, _tables(2))(np.array([0.0, 0.05])).any()
    bad = ForcingProgram(prog.support, [forced, Constant(0.1, {(2, 1): 1.0})])
    with pytest.raises(ValueError, match="outside resolution radius"):
        integrate(SpectralState.zeros(2), SimParams(nu=0.01), bad,
                  IntegratorConfig(dt_base=1e-2))


def test_convergence_order_keeps_the_step_budget(monkeypatch):
    # every run of the dt ladder honours the step budget
    monkeypatch.setattr(integrator, "MAX_STEPS", 5)
    with pytest.raises(StepBudgetError, match="step budget"):
        convergence_order(SpectralState.zeros(3), SimParams(), zero_program(0.1),
                          [1e-2, 5e-3, 2.5e-3])


# ---------------------------------------------------------------------------
# steps grown against a local error tolerance

TOL = 1e-11


def test_trajectory_reports_the_steps_and_their_range():
    # a 1 s constant segment at R = 6, nu = 0.01: 1,000 fixed steps, 152 grown
    s0 = random_decaying_state(6, amplitude=0.3, rng=np.random.default_rng(4))
    prog = constant_program(EVAL_SUPPORT, {(1, 0): 0.3 - 0.1j, (2, 1): 0.2j}, 1.0)
    params, cfg = SimParams(nu=0.01), IntegratorConfig(dt_base=1e-3)
    fixed = integrate(s0, params, prog, cfg)
    grown = integrate(s0, params, prog, cfg, tol=TOL)
    assert (fixed.steps, fixed.h_min, fixed.h_max) == (1000, 1e-3, 1e-3)
    assert grown.steps == len(grown) - 1 < 200
    assert grown.h_min == 1e-3 and grown.h_max >= 5e-3
    assert sobolev_norm(grown.final - fixed.final, 0) <= 1e-10
    assert math.isnan(Trajectory(3, [0.0], [SpectralState.zeros(3).data]).h_min)


@st.composite
def constant_runs(draw):
    """A start state and a program of zero and constant segments on
    EVAL_SUPPORT, at R = 4 to 6."""
    radius = draw(st.integers(4, 6))
    s0 = random_decaying_state(radius, amplitude=draw(st.floats(0.0, 0.3)),
                               rng=np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        duration = draw(st.floats(0.02, 0.2))
        values = {k: complex(draw(unit), draw(unit))
                  for k in draw(st.lists(st.sampled_from([(1, 0), (1, 1), (2, 1), (0, 2)]),
                                         max_size=3))}
        segments.append(Constant(duration, {k: v for k, v in values.items() if v})
                        if any(values.values()) else Zero(duration))
    return s0, SimParams(nu=draw(st.sampled_from([0.0, 0.01]))), ForcingProgram(
        EVAL_SUPPORT, segments)


@given(constant_runs())
@settings(max_examples=15, deadline=None)
def test_grown_steps_stay_near_a_fixed_step_run_at_a_tenth_of_dt(run):
    # each step's local error is held to TOL: the end state stays within
    # 1e-10 of fixed steps at dt / 10 (at most 9e-12 over 150 draws)
    s0, params, prog = run
    grown = integrate(s0, params, prog, IntegratorConfig(dt_base=2e-3), tol=TOL).final
    fine = integrate(s0, params, prog, IntegratorConfig(dt_base=2e-4)).final
    assert sobolev_norm(grown - fine, 0) <= 1e-10


@given(constant_runs())
@settings(max_examples=25, deadline=None)
def test_grown_steps_are_whole_multiples_of_the_fixed_step(run):
    # every grown step ends on a step end of the fixed rule, so none is shorter
    s0, params, prog = run
    cfg = IntegratorConfig(dt_base=2e-3)
    fixed = integrate(s0, params, prog, cfg)
    grown = integrate(s0, params, prog, cfg, tol=TOL)
    assert grown.h_min >= fixed.h_min and grown.steps <= fixed.steps
    gap = np.abs(grown.times[:, None] - fixed.times[None, :]).min(axis=1)
    assert gap.max() <= 1e-12


def fine_final(s0, params, prog):
    """End state at dt_base = 1e-4 and 32 steps per period of the fastest
    harmonic, four times the fixed rule's."""
    saved = integrator.OSCILLATION_RESOLUTION
    integrator.OSCILLATION_RESOLUTION = 32
    try:
        return integrate(s0, params, prog, IntegratorConfig(dt_base=1e-4)).final
    finally:
        integrator.OSCILLATION_RESOLUTION = saved


@pytest.mark.parametrize("nu", [0.0, 0.01])
@pytest.mark.parametrize("omega", [400.0, 10.0])
def test_packet_steps_the_same_with_a_tolerance(nu, omega):
    # omega 10 snaps to one cycle over 0.1 s, which is not probed: its steps
    # stay fixed byte for byte under any tolerance (grown to its 6.25 ms cap
    # on the first-same-as-last estimate against 1e-8 they landed 3.7e-7
    # from the fixed steps).  omega 400 snaps to seven cycles, which are
    # probed, and at a tolerance no step meets the probe keeps n_hi = 16
    # steps per period, the fixed steps up to the round-off of their ends,
    # plus the probe's 8.
    s0 = random_decaying_state(5, amplitude=0.3, rng=np.random.default_rng(6))
    prog = ForcingProgram(EVAL_SUPPORT, [
        cascade_packet((2, 1), (1, 0), (1, 1), 0.4 - 0.3j, omega, 0.1)])
    cap = 2 * math.pi / np.abs(prog.freq).max() / integrator.OSCILLATION_RESOLUTION
    assert (cap < 1e-3) == (omega == 400.0)
    cfg = IntegratorConfig(dt_base=1e-3)
    fixed = integrate(s0, SimParams(nu=nu), prog, cfg)
    if omega == 10.0:
        grown = integrate(s0, SimParams(nu=nu), prog, cfg, tol=1e-3)
        assert grown.times.tobytes() == fixed.times.tobytes()
        assert grown.data.tobytes() == fixed.data.tobytes()
        assert grown.steps == fixed.steps
    else:
        grown = integrate(s0, SimParams(nu=nu), prog, cfg, tol=1e-16)
        assert (fixed.steps, grown.steps) == (7 * 16, 7 * 16 + 8)
        assert grown.h_max == pytest.approx(2 * fixed.h_max, rel=1e-12)
        assert sobolev_norm(grown.final - fixed.final, 0) <= 1e-13


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_probed_packet_lands_within_a_thousandth_of_fp_tol_of_a_fine_run(nu):
    # the steering contract: at tol = fp_tol * LOCAL_TOL_PER_FP_TOL the end
    # state lies within 1e-3 fp_tol of a fine run; seven periods of a strong
    # packet all at the floor, n_hi / 2 per period with no probe, miss it
    fp_tol = 1e-3
    s0 = random_decaying_state(5, amplitude=0.3, rng=np.random.default_rng(6))
    prog = ForcingProgram(EVAL_SUPPORT, [
        cascade_packet((2, 1), (1, 0), (1, 1), 2.0, 400.0, 0.1)])
    grown = integrate(s0, SimParams(nu=nu), prog, IntegratorConfig(),
                      tol=fp_tol * integrator.LOCAL_TOL_PER_FP_TOL)
    assert sobolev_norm(grown.final - fine_final(s0, SimParams(nu=nu), prog), 0) <= 1e-3 * fp_tol


def test_packet_cut_by_a_sample_time_keeps_the_fixed_steps():
    # the probe needs whole periods from the segment's start, so a packet
    # with a sample time inside steps as without a tolerance, byte for byte
    s0 = random_decaying_state(5, amplitude=0.3, rng=np.random.default_rng(6))
    prog = ForcingProgram(EVAL_SUPPORT, [
        cascade_packet((2, 1), (1, 0), (1, 1), 2.0, 400.0, 0.1)])
    fixed = integrate(s0, SimParams(nu=0.01), prog, IntegratorConfig(), [0.05])
    grown = integrate(s0, SimParams(nu=0.01), prog, IntegratorConfig(), [0.05], tol=1e-3)
    assert grown.data.tobytes() == fixed.data.tobytes() and grown.steps == fixed.steps


@st.composite
def packet_runs(draw):
    """A start state at R = 4 or 5 and a cascade packet of two to four
    cycles on EVAL_SUPPORT, with its base period."""
    s0 = random_decaying_state(draw(st.integers(4, 5)), amplitude=draw(st.floats(0.0, 0.4)),
                               rng=np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    omega = draw(st.floats(200.0, 1000.0))
    target = draw(st.floats(0.2, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    duration = draw(st.integers(2, 4)) * 2 * math.pi / omega
    prog = ForcingProgram(EVAL_SUPPORT, [
        cascade_packet((2, 1), (1, 0), (1, 1), target, omega, duration)])
    return s0, SimParams(nu=draw(st.sampled_from([0.0, 0.01]))), prog, \
        2 * math.pi / np.abs(prog.freq).min()


@given(packet_runs(), st.floats(-12.0, -7.0))
@settings(max_examples=25, deadline=None)
def test_packet_probe_estimates_its_period_s_error(run, log_tol):
    # the Richardson estimate |y_hi - y_lo| / 15 of the first period at n_hi
    # steps lies within a factor 3 of its distance to 32 steps per fastest
    # period (0.83 to 1.11 over 150 draws), and the steps per period stay in
    # [n_hi / 2, n_hi], where the error still falls as the fourth power
    s0, params, prog, w = run
    chosen, real = [], integrator._steps_per_period

    def recorded(err, n_hi, tol):
        chosen.append((err, n_hi, real(err, n_hi, tol)))
        return chosen[-1][2]

    integrator._steps_per_period = recorded
    try:
        integrate(s0, params, prog, IntegratorConfig(), tol=10.0 ** log_tol)
    finally:
        integrator._steps_per_period = real
    (err, n_hi, m), = chosen
    assert n_hi == 16 and n_hi // 2 <= m <= n_hi
    wide = IntegratorConfig(dt_base=1.0)
    y_hi = integrate(s0, params, prog, wide, [w]).rows_at([w])[0]
    saved, integrator.OSCILLATION_RESOLUTION = integrator.OSCILLATION_RESOLUTION, 32
    try:
        y_ref = integrate(s0, params, prog, wide, [w]).rows_at([w])[0]
    finally:
        integrator.OSCILLATION_RESOLUTION = saved
    dist = np.abs(y_hi - y_ref).max()
    assert dist / 3 <= err <= 3 * dist


@pytest.mark.parametrize("radius", [4, 5, 6])
def test_grown_steps_keep_the_euler_invariants(radius):
    s0 = random_decaying_state(radius, amplitude=0.4, rng=np.random.default_rng(radius))
    traj = integrate(s0, SimParams(nu=0.0), zero_program(1.0),
                     IntegratorConfig(dt_base=2e-3), tol=TOL)
    assert traj.steps < 500 and traj.h_max > 2e-3
    for s in traj.states:
        assert abs(enstrophy(s) - enstrophy(s0)) <= 1e-9 * enstrophy(s0)
        assert abs(energy(s) - energy(s0)) <= 1e-9 * energy(s0)


def test_a_tolerance_below_the_fixed_step_s_error_keeps_the_fixed_steps():
    # a one-unit step is never taken again, and the estimate never lets it grow
    s0 = random_decaying_state(5, amplitude=0.4, rng=np.random.default_rng(2))
    cfg = IntegratorConfig(dt_base=2e-3)
    fixed = integrate(s0, SimParams(nu=0.01), zero_program(0.1), cfg)
    tight = integrate(s0, SimParams(nu=0.01), zero_program(0.1), cfg, tol=1e-30)
    assert tight.steps == fixed.steps and tight.h_max == fixed.h_max
    assert sobolev_norm(tight.final - fixed.final, 0) <= 1e-13


def test_a_step_over_the_tolerance_is_taken_again_shorter(monkeypatch):
    # from rest the state first moves as t^2, so the step grows fivefold
    # per step until a trial overshoots the tolerance and is taken again
    # from the same first stage (one retake; 1.4e-11 from dt / 10 measured)
    s0, params = SpectralState.zeros(5), SimParams(nu=0.01)
    prog = constant_program(EVAL_SUPPORT, {(1, 0): 1.0, (1, 1): 1.0j}, 1.0)
    real, calls = integrator._lawson_rk4, []
    monkeypatch.setattr(integrator, "_lawson_rk4",
                        lambda *args: calls.append(args[1]) or real(*args))
    grown = integrate(s0, params, prog, IntegratorConfig(dt_base=2e-3), tol=TOL)
    monkeypatch.undo()
    assert len(calls) > grown.steps
    fine = integrate(s0, params, prog, IntegratorConfig(dt_base=2e-4))
    assert sobolev_norm(grown.final - fine.final, 0) <= 1e-10
