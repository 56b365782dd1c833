"""Steering: program builders, cascade structure, fixed-point refinement,
projections, coverage, averaging."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecascade.forcing import (ChannelMap, Constant, ForcingProgram,
                                 Oscillatory, Zero, chattering_approximation,
                                 constant_program, program_to_json,
                                 zero_program)
from modecascade.integrator import IntegratorConfig, integrate
from modecascade.lattice import saturation_chain, symmetrize
from modecascade.spectral import (SimParams, SpectralState, _tables, enstrophy,
                                  inner0, project, project_complement,
                                  random_decaying_state, resize, sobolev_norm)
from modecascade.steering import (ConvergenceError, Observation,
                                  SteeringConfig, averaging_experiment,
                                  base_step_program, cascade_program,
                                  coverage_check, coverage_grid,
                                  near_identity_gap,
                                  steer_in_projection, steer_to_target,
                                  subspace_setup)
import modecascade.integrator as integrator_module
import modecascade.steering as steering_module
import integrator_oracle
from modecascade.integrator import BlowUpError, StepBudgetError

K1 = symmetrize({(1, 0), (1, 1)})
CHAIN = saturation_chain(K1, radius=3, max_levels=10)
K2 = CHAIN.levels[1]
FAST = IntegratorConfig(dt_base=1e-3, record_stride=20)


def quick_config(**kw):
    base = dict(tau=1.0, omega=400.0, fp_tol=1e-2, max_fp_iters=20,
                chatter_windows=1, gamma=1.1, integrator=FAST)
    base.update(kw)
    return SteeringConfig(**base)


# ---------------------------------------------------------------------------
# projections


def test_coordinate_projection_channels():
    proj = Observation.of_modes(K1)
    s = SpectralState.from_coeffs({(1, 0): 0.5 - 0.25j, (1, 1): 2.0}, 3)
    vec = proj.observe(s)
    assert proj.dimension == 4
    assert list(vec) == [0.5, -0.25, 2.0, 0.0]


def test_subspace_projection_matches_coordinates_up_to_isometry():
    # an H0-normalized single-mode basis vector reports sqrt(2) times the
    # channel value (channels are plain Re/Im parts, the basis is unit norm)
    e = SpectralState.from_coeffs({(1, 0): 0.5}, 3)
    e = (1.0 / sobolev_norm(e, 0)) * e
    proj = Observation.of_basis([e])
    s = SpectralState.from_coeffs({(1, 0): 0.3}, 3)
    assert proj.observe(s)[0] == pytest.approx(np.sqrt(2) * 0.3)


def test_subspace_projection_requires_orthonormal_basis():
    e = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    with pytest.raises(ValueError, match="orthonormal"):
        Observation.of_basis([e])


def test_observation_reads_only_the_weighted_columns():
    # a non-finite coefficient outside the observed modes stays out of the read
    s = SpectralState(3, _tables(3).vector({(1, 0): 0.5, (2, 2): math.inf}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(Observation.of_modes({(1, 0)}).observe(s)) == [0.5, 0.0]


@pytest.mark.parametrize("radius", [3, 7, 12, 24])
def test_observation_is_inner0_against_its_weight_rows_bitwise(radius):
    # a coordinate channel reads the Re or Im part itself, a subspace
    # coordinate the H0 inner product with its basis vector
    s = random_decaying_state(radius, rng=np.random.default_rng(radius))
    modes = symmetrize({(1, 0), (2, 1), (0, 3)})
    got = Observation.of_modes(modes).observe(s)
    want = [part for r in ChannelMap(modes).reps
            for part in (s.coeff(r).real, s.coeff(r).imag)]
    assert got.tolist() == want
    raw = random_decaying_state(radius, rng=np.random.default_rng(radius + 1))
    e = (1.0 / sobolev_norm(raw, 0)) * raw
    assert Observation.of_basis([e]).observe(s).tolist() == [inner0(s, e)]


def test_observation_lifts_a_state_at_another_radius():
    proj = Observation.of_modes(K2)               # laid out at radius 3
    small = SpectralState.from_coeffs({(1, 0): 0.5, (1, 1): -0.25j}, 2)
    assert proj.observe(small)[ChannelMap(K2).index((2, 1), "re")] == 0.0
    assert proj.observe(small)[ChannelMap(K2).index((1, 1), "im")] == -0.25
    big = random_decaying_state(6, rng=np.random.default_rng(4))
    assert proj.observe(big)[ChannelMap(K2).index((2, 1), "im")] == big.coeff((2, 1)).imag
    e = SpectralState.from_coeffs({(1, 0): 0.6, (1, 1): 0.8j}, 2)
    e = (1.0 / sobolev_norm(e, 0)) * e
    assert Observation.of_basis([e]).observe(big)[0] == inner0(big, resize(e, 6))


def test_observation_rejects_an_empty_mode_set_or_basis():
    with pytest.raises(ValueError, match="empty"):
        Observation.of_modes(set())
    with pytest.raises(ValueError, match="empty basis"):
        Observation.of_basis([])


# ---------------------------------------------------------------------------
# program builders


def test_base_step_primitive_reaches_p():
    cmap = ChannelMap(K1)
    p = np.array([0.5, -0.2, 0.1, 0.3])
    prog = base_step_program(K1, p, 0.01)
    assert prog.total_duration == pytest.approx(0.01)
    end = prog.channel_primitive(np.array([0.01]), cmap)[0]
    assert np.allclose(end, p)


def test_base_step_zero_vector():
    prog = base_step_program(K1, np.zeros(4), 0.5)
    assert isinstance(prog.segments[0], Zero)


@pytest.mark.parametrize("tau", [0.0, math.nan, math.inf])
def test_base_step_rejects_a_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau must be positive"):
        base_step_program(K1, np.zeros(4), tau)


def test_correction_program_structure():
    # the terminal correction ramp is the base step over end - start
    prog = base_step_program(K1, np.array([1.0, 0, 0, 0]) - np.zeros(4), 0.01)
    assert isinstance(prog.segments[0], Constant)
    assert prog.segments[0].values[(1, 0)] == pytest.approx(100.0)
    trivial = base_step_program(K1, np.ones(4) - np.ones(4), 0.01)
    assert isinstance(trivial.segments[0], Zero)


# ---------------------------------------------------------------------------
# cascade structure


def test_cascade_copies_first_kind_segments():
    cmap = ChannelMap(K2)
    prog = constant_program(K2, {(1, 0): 2.0}, 0.5)
    out = cascade_program(prog, K1, omega=100.0)
    assert len(out.segments) == 1
    assert isinstance(out.segments[0], Constant)
    assert out.segments[0].values[(1, 0)] == 2.0
    assert out.support == K1


def test_cascade_replaces_second_kind_with_packet():
    prog = constant_program(K2, {(2, 1): 1.5}, 0.5)
    out = cascade_program(prog, K1, omega=100.0)
    seg = out.segments[0]
    assert isinstance(seg, Oscillatory)
    assert {k for k, _, _ in seg.components} == {(1, 0), (1, 1)}


def test_cascade_mixed_program_preserves_durations():
    segs = [Constant(0.25, {(1, 0): 1.0}), Constant(0.5, {(2, 1): 1.0j}),
            Zero(0.25)]
    prog = ForcingProgram(K2, segs)
    out = cascade_program(prog, K1, omega=100.0)
    assert [s.duration for s in out.segments] == [0.25, 0.5, 0.25]
    assert isinstance(out.segments[0], Constant)
    assert isinstance(out.segments[1], Oscillatory)
    assert isinstance(out.segments[2], Zero)


def test_cascade_empty_support_program_is_zero():
    out = cascade_program(zero_program(1.0), K1, omega=100.0)
    assert out.support == K1
    assert [(type(s), s.duration) for s in out.segments] == [(Zero, 1.0)]


def test_cascade_rejects_non_extreme_segments():
    prog = constant_program(K2, {(2, 1): 1.0, (0, 1): 1.0}, 0.5)
    with pytest.raises(ValueError, match="not extreme-valued"):
        cascade_program(prog, K1, omega=100.0)


def test_cascade_rejects_unreachable_modes():
    supp = symmetrize({(1, 0), (3, 0)})
    prog = constant_program(supp, {(3, 0): 1.0}, 0.5)
    with pytest.raises(ValueError, match="no generating pair"):
        cascade_program(prog, symmetrize({(1, 0)}), omega=100.0)


BASIS = [SpectralState.from_coeffs({(1, 0): 0.8, (2, 1): 0.6 + 0.2j}, 6),
         SpectralState.from_coeffs({(0, 1): 0.7j, (1, 1): -0.5}, 6)]


@pytest.mark.parametrize("call,message", [
    (lambda: cascade_program(ForcingProgram(K2, [Oscillatory(0.5, 10.0, [((1, 0), 1, 0.5)])]),
                             K1, omega=100.0), "not extreme-valued: chatter oscillatory"),
    (lambda: steer_to_target(np.zeros(3), CHAIN, K1, SpectralState.zeros(3),
                             SimParams(nu=0.01), quick_config()),
     r"target must have one entry per observed channel \(4\)"),
    (lambda: averaging_experiment((2, 1), ((1, 0), (1, 0)), 1.0, [50.0], 1.0,
                                  SpectralState.zeros(3), SimParams(nu=0.01)),
     "pair does not sum to the target mode"),
    (lambda: steer_in_projection(*subspace_setup(BASIS, epsilon=0.05), np.zeros(3), CHAIN,
                                 SpectralState.zeros(6), SimParams(nu=0.01), quick_config()),
     "target must have one coordinate per basis vector"),
    # a float density failed in linspace; a bool dimension read as 1
    (lambda: coverage_grid(2, 0.3, 2.5), "grid density must be an integer, not 2.5"),
    (lambda: coverage_grid(True, 0.3, 2), "dimension must be an integer, not True"),
    # True ran as tau = 1; a NaN target failed as non-finite forcing values;
    # a string radius failed as a TypeError
    (lambda: SteeringConfig(tau=True), "tau must be a real number, not True"),
    (lambda: steer_to_target(np.array([0.1, math.nan, 0.0, 0.0]), CHAIN, K1,
                             SpectralState.zeros(3), SimParams(nu=0.01), quick_config()),
     "target must be finite"),
    (lambda: coverage_grid(2, "0.3", 2), "grid radius must be a real number, not '0.3'"),
    (lambda: subspace_setup(BASIS, epsilon=True), "epsilon must be a real number, not True"),
], ids=["cascade_oscillatory", "steer_target", "averaging_pair", "projection_target",
        "float_grid_density", "bool_grid_dimension", "bool_tau", "nan_target",
        "string_grid_radius", "bool_epsilon"])
def test_steering_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@st.composite
def k2_programs(draw):
    """Piecewise-constant programs on K2."""
    cmap = ChannelMap(K2)
    segs = []
    for _ in range(draw(st.integers(1, 4))):
        values = {}
        for rep in draw(st.lists(st.sampled_from(cmap.reps), max_size=4, unique=True)):
            values[rep] = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        values = {r: v for r, v in values.items() if v}
        duration = draw(st.floats(0.05, 0.5))
        segs.append(Constant(duration, values) if values else Zero(duration))
    return ForcingProgram(K2, segs)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cascade_of_chattering_needs_no_run_merge(data):
    prog = data.draw(k2_programs())
    cmap = ChannelMap(K2)
    slack = next(i for i in range(cmap.size) if cmap.channel(i)[0] in K1)
    amplitude = 1.1 * max(prog.value_l1_bound(), 1e-9)
    chattered = chattering_approximation(prog, amplitude, data.draw(st.integers(1, 6)), slack)
    out = cascade_program(chattered, K1, omega=100.0)
    # one segment per chattering run, each of the run's duration
    np.testing.assert_array_equal(out.durations, chattered.durations)
    plain = np.bincount(out.comp_seg, minlength=len(out.durations)) == 0
    for i in np.flatnonzero(plain[:-1] & plain[1:]):
        assert (out.const[i] != out.const[i + 1]).any()


def test_synthesize_m1_is_single_ramp():
    cfg = quick_config(tau=0.02)
    prog = steering_module._synthesize_pieces(np.array([0.5, 0, 0, 0]), CHAIN, K1,
                                              SpectralState.zeros(4), SimParams(), cfg)[0]
    assert len(prog.segments) == 1
    assert isinstance(prog.segments[0], Constant)
    assert prog.total_duration == pytest.approx(0.02)


def test_synthesize_recursion_reaches_depth_two():
    # structural smoke test: a target two saturation levels above the
    # controlled set cascades twice and still lands on a well-formed
    # program supported in the controlled modes (accuracy at this depth
    # is beyond desk scale and not asserted)
    chain3 = saturation_chain(K1, radius=4, max_levels=10)
    obs = symmetrize({(3, 2)})
    assert chain3.level_containing(obs) == 2
    cfg = quick_config(tau=0.01, omega=200.0,
                       integrator=IntegratorConfig(dt_base=1e-3,
                                                   record_stride=50))
    target = np.array([0.05, 0.0])
    prog = steering_module._synthesize_pieces(target, chain3, obs, SpectralState.zeros(6),
                                              SimParams(), cfg)[0]
    assert prog.support <= symmetrize(chain3.levels[0]) | obs
    # no controlled channel is observed here, so no terminal correction
    assert prog.total_duration == pytest.approx(cfg.tau)
    assert any(isinstance(s, Oscillatory) for s in prog.segments)


def test_synthesize_m2_contains_packets_and_correction():
    cfg = quick_config()
    target = np.zeros(8)
    target[ChannelMap(K2).index((2, 1), "re")] = 0.25
    prog = steering_module._synthesize_pieces(target, CHAIN, K2, SpectralState.zeros(6),
                                              SimParams(), cfg)[0]
    kinds = [type(s).__name__ for s in prog.segments]
    assert "Oscillatory" in kinds
    assert prog.support <= K1 | K2
    assert prog.total_duration == pytest.approx(cfg.tau + cfg.tau / 10.0)


# ---------------------------------------------------------------------------
# endpoint maps


def test_endpoint_map_conserves_unforced_euler():
    rng = np.random.default_rng(2)
    s0 = random_decaying_state(4, amplitude=0.3, rng=rng)
    out = integrate(s0, SimParams(), zero_program(0.5), FAST).final
    assert enstrophy(out) == pytest.approx(enstrophy(s0), rel=1e-9)


def test_observed_endpoint_of_base_ramp():
    proj = Observation.of_modes(K1)
    p = np.array([0.4, 0.0, -0.2, 0.1])
    prog = base_step_program(K1, p, 0.02)
    got = proj.observe(integrate(SpectralState.zeros(4), SimParams(), prog, FAST).final)
    assert np.linalg.norm(got - p) <= 5e-3


def test_observed_endpoint_with_subspace_projection():
    e = SpectralState.from_coeffs({(1, 0): 0.5}, 4)
    e = (1.0 / sobolev_norm(e, 0)) * e
    sub = Observation.of_basis([e])
    prog = base_step_program(K1, np.array([0.3, 0.0, 0.0, 0.0]), 0.02)
    got = sub.observe(integrate(SpectralState.zeros(4), SimParams(), prog, FAST).final)
    assert got[0] == pytest.approx(np.sqrt(2) * 0.3, abs=5e-3)


def test_steering_config_validation():
    with pytest.raises(ValueError):
        SteeringConfig(tau=-1.0)
    with pytest.raises(ValueError):
        SteeringConfig(gamma=0.5)
    with pytest.raises(ValueError):
        SteeringConfig(fp_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("max_fp_iters", 0), ("chatter_windows", 0), ("omega", 0.0), ("omega", -400.0),
    ("tau", float("inf")), ("tau", float("nan")), ("omega", float("nan")),
    ("omega", float("inf")), ("fp_tol", float("nan")), ("gamma", float("nan")),
    ("gamma", float("inf")),
    # a float count failed later in range(); True counted as 1
    ("max_fp_iters", 2.5), ("max_fp_iters", True), ("chatter_windows", 2.5),
    ("chatter_windows", True),
    # True ran as 1, a string failed as a TypeError
    ("tau", True), ("gamma", "1.5"), ("omega", None), ("fp_tol", 1e-3 + 0j),
])
def test_steering_config_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        SteeringConfig(**{field: value})


def test_steer_rejects_observed_beyond_resolution():
    cfg = quick_config()
    with pytest.raises(ValueError, match="resolution"):
        steer_to_target(np.zeros(8), CHAIN, K2, SpectralState.zeros(2),
                        SimParams(), cfg)


def test_state_arithmetic_radius_mismatch():
    with pytest.raises(ValueError, match="radius"):
        SpectralState.zeros(3) + SpectralState.zeros(4)


# ---------------------------------------------------------------------------
# steering


def test_steer_trivial_target_zero():
    cfg = quick_config(tau=0.02, fp_tol=1e-6)
    rep = steer_to_target(np.zeros(4), CHAIN, K1, SpectralState.zeros(4),
                          SimParams(), cfg)
    assert rep.error_norm <= 1e-6
    assert rep.iterations <= 2


def test_steer_m1_reaches_tolerance():
    cfg = quick_config(tau=0.02, fp_tol=1e-3, max_fp_iters=10)
    target = np.array([0.5, 0.0, 0.0, 0.0])
    rep = steer_to_target(target, CHAIN, K1, SpectralState.zeros(4),
                          SimParams(nu=0.01), cfg)
    assert rep.error_norm <= 1e-3
    assert rep.iterations <= 10
    assert rep.converged


def test_steer_error_sequence_monotone_m1():
    # run with an unreachable tolerance to observe the full error sequence
    cfg = quick_config(tau=0.02, fp_tol=1e-16, max_fp_iters=4)
    target = np.array([0.4, -0.2, 0.3, 0.1])
    errors = []
    orig = Observation.of_modes(K1)
    try:
        steer_to_target(target, CHAIN, K1, SpectralState.zeros(4),
                        SimParams(nu=0.05), cfg)
    except ConvergenceError as exc:
        pass
    # re-run manually to capture the sequence
    p = target.copy()
    s0 = SpectralState.zeros(4)
    for _ in range(4):
        prog = steering_module._synthesize_pieces(p, CHAIN, K1, s0, SimParams(nu=0.05),
                                                  cfg)[0]
        achieved = orig.observe(integrate(s0, SimParams(nu=0.05), prog, FAST).final)
        errors.append(np.linalg.norm(target - achieved))
        p = p + (target - achieved)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errors[1:], errors[2:]))


def test_steer_m2_single_target():
    cfg = quick_config()
    target = np.zeros(8)
    target[ChannelMap(K2).index((0, 1), "im")] = 0.2
    rep = steer_to_target(target, CHAIN, K2, SpectralState.zeros(6),
                          SimParams(nu=0.01), cfg)
    assert rep.error_norm <= cfg.fp_tol
    assert rep.q_tail_growth < 0.05


def test_steer_nonconvergence_carries_best_report():
    # a cascade channel: the first pass misses it (a K1 ramp is exact)
    cfg = quick_config(tau=0.02, fp_tol=1e-16, max_fp_iters=2)
    target = np.zeros(8)
    target[ChannelMap(K2).index((0, 1), "re")] = 0.5
    with pytest.raises(ConvergenceError) as info:
        steer_to_target(target, CHAIN, K2,
                        SpectralState.zeros(4), SimParams(nu=0.05), cfg)
    assert info.value.report.converged is False
    assert info.value.report.error_norm < 0.1


def test_steer_rejects_shallow_chain():
    cfg = quick_config()
    shallow = saturation_chain(K1, radius=1, max_levels=1)
    far = symmetrize({(3, 2)})
    with pytest.raises(ValueError, match="chain too shallow"):
        steer_to_target(np.zeros(2), shallow, far, SpectralState.zeros(4),
                        SimParams(), cfg)


def test_near_identity_gap_shrinks_with_tau():
    targets = coverage_grid(4, 0.5, 2)
    s0 = SpectralState.zeros(4)
    gaps = [near_identity_gap(K1, targets, tau, s0, SimParams(nu=0.01),
                              IntegratorConfig(dt_base=5e-4))
            for tau in (0.04, 0.02)]
    assert gaps[1] < gaps[0]


def test_steer_m2_from_random_initial_states():
    # the steering contract quantifies over initial data: sample it
    cfg = quick_config()
    cmap = ChannelMap(K2)
    target = np.zeros(8)
    target[cmap.index((2, 1), "re")] = 0.2
    target[cmap.index((0, 1), "im")] = -0.15
    for seed in (1, 2):
        s0 = random_decaying_state(6, amplitude=0.2, decay=3.0,
                                   rng=np.random.default_rng(seed))
        for nu in (0.0, 0.01):
            rep = steer_to_target(target, CHAIN, K2, s0, SimParams(nu=nu), cfg)
            assert rep.error_norm <= cfg.fp_tol
            assert rep.iterations <= 3


def ball_target(rng):
    """A target on the l1 sphere of radius 0.25 of the K2 channels, half
    its mass on the directly forced K1 channels and half on the ones the
    cascade reaches (the targets of the cover_r6 benchmark workload)."""
    cmap = ChannelMap(K2)
    direct = np.array([cmap.channel(c)[0] in K1 for c in range(cmap.size)])
    x = rng.exponential(size=direct.size) * rng.choice([-1.0, 1.0], size=direct.size)
    return 0.125 * np.where(direct, x / np.abs(x[direct]).sum(), x / np.abs(x[~direct]).sum())


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_steer_closes_the_fixed_point_through_the_correction(nu):
    # the correction ramp aims at the target plus the summed residual, so
    # its own O(tau / 10) defect is fed back and the error keeps shrinking
    # instead of stalling near 2e-4
    cfg = quick_config(fp_tol=1e-6, max_fp_iters=5)
    for i in range(2):
        target = ball_target(np.random.default_rng([7, i]))
        rep = steer_to_target(target, CHAIN, K2, SpectralState.zeros(6), SimParams(nu=nu), cfg)
        assert rep.error_norm <= 1e-6
        assert rep.iterations <= 5


@given(seed=st.integers(0, 2 ** 32 - 1), nu=st.sampled_from([0.0, 0.01]))
@settings(max_examples=6, deadline=None)
def test_steer_reaches_tight_tolerance_over_the_ball(seed, nu):
    cfg = quick_config(fp_tol=1e-6, max_fp_iters=5)
    target = ball_target(np.random.default_rng(seed))
    rep = steer_to_target(target, CHAIN, K2, SpectralState.zeros(6), SimParams(nu=nu), cfg)
    assert rep.error_norm <= 1e-6


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_synthesize_is_the_first_refinement_pass(nu):
    # from a state not at rest the main interval displaces the observed
    # channels by target - start, as the first pass of steer_to_target does
    cfg = quick_config(max_fp_iters=1, fp_tol=1.0)
    s0 = random_decaying_state(6, amplitude=0.2, rng=np.random.default_rng(3))
    target = ball_target(np.random.default_rng([7, 1]))
    prog = steering_module._synthesize_pieces(target, CHAIN, K2, s0, SimParams(nu=nu),
                                              cfg)[0]
    rep = steer_to_target(target, CHAIN, K2, s0, SimParams(nu=nu), cfg)
    assert rep.iterations == 1
    assert program_to_json(prog) == program_to_json(rep.program)


def test_steering_grows_steps_to_the_fixed_rule_s_end_state(monkeypatch):
    # steps sized against fp_tol * LOCAL_TOL_PER_FP_TOL = 1e-10: under half
    # the fixed steps, the same passes, and an end state within 1e-3 fp_tol
    # of the returned program run finely, the steering contract, which every
    # packet period at the floor, n_hi / 2 with no probe, misses
    cfg, real, steps = quick_config(fp_tol=1e-4), steering_module.integrate, []

    def counted(*args, **kwargs):
        traj = real(*args, **kwargs)
        steps.append(traj.steps)
        return traj

    def steer(integrate_as):
        monkeypatch.setattr(steering_module, "integrate", integrate_as)
        steps.clear()
        rep = steer_to_target(ball_target(np.random.default_rng([7, 0])), CHAIN, K2,
                              SpectralState.zeros(6), SimParams(nu=0.01), cfg)
        return rep, sum(steps)

    (grown, n_grown), (fixed, n_fixed) = steer(counted), steer(
        lambda *args, tol=None, **kwargs: counted(*args, **kwargs))
    assert grown.iterations == fixed.iterations == 2
    assert 2 * n_grown < n_fixed
    monkeypatch.setattr(integrator_module, "OSCILLATION_RESOLUTION", 32)
    fine = integrate(SpectralState.zeros(6), SimParams(nu=0.01), grown.program,
                     IntegratorConfig(dt_base=1e-4, record_stride=10 ** 9)).final
    assert sobolev_norm(grown.final_state - fine, 0) <= 1e-3 * cfg.fp_tol


def test_tail_samples_count_the_recorded_states():
    cfg = quick_config()
    target = ball_target(np.random.default_rng([7, 0]))
    rep = steer_to_target(target, CHAIN, K2, SpectralState.zeros(6), SimParams(nu=0.01), cfg)
    program, trajs = steering_module._synthesize_pieces(
        target, CHAIN, K2, SpectralState.zeros(6), SimParams(nu=0.01), cfg)
    assert rep.iterations == 1
    assert rep.tail_samples == sum(len(t) for t in trajs) > 2
    assert steering_module.report_to_dict(rep)["tail_samples"] == rep.tail_samples


def test_tail_growth_is_the_per_state_maximum_bitwise():
    s0 = random_decaying_state(6, amplitude=0.2, rng=np.random.default_rng(5))
    _, trajs = steering_module._synthesize_pieces(
        ball_target(np.random.default_rng([7, 2])), CHAIN, K2, s0,
        SimParams(nu=0.01), quick_config())
    base = sobolev_norm(project_complement(s0, K2), 0)
    worst = max(sobolev_norm(project_complement(s, K2), 0)
                for t in trajs for s in t.states)
    assert steering_module._tail_growth(trajs, K2, s0) == (
        worst - base, sum(len(t) for t in trajs))


# ---------------------------------------------------------------------------
# contraction of one refinement pass


ONE_PASS = quick_config(max_fp_iters=1, fp_tol=1.0)
# sup over aims a != b of |(A(a) - A(b)) - (a - b)| / |a - b|, with A(a) the
# observed end of one pass aiming at a: measured at most 0.054 over 120 draws
# of K2 aims in the l1 ball of radius 0.25, half from rest and half from a
# perturbed start (0.020 over 16 draws of the projection case below)
CONTRACTION = 0.1


def l1_ball_aim(rng, dim, radius):
    x = rng.exponential(size=dim) * rng.choice([-1.0, 1.0], size=dim)
    return radius * rng.uniform() * x / np.abs(x).sum()


@given(seed=st.integers(0, 2 ** 32 - 1), nu=st.sampled_from([0.0, 0.01]),
       perturbed=st.booleans())
@settings(max_examples=8, deadline=None)
def test_one_refinement_pass_is_the_identity_up_to_a_contraction(seed, nu, perturbed):
    # the fixed point aim <- aim + (target - A(aim)) converges, and the
    # observed channels are solidly controllable, because A - id is
    # Lipschitz with a constant below 1
    rng = np.random.default_rng(seed)
    s0 = (random_decaying_state(6, amplitude=0.2, rng=rng) if perturbed
          else SpectralState.zeros(6))
    a, b = l1_ball_aim(rng, 8, 0.25), l1_ball_aim(rng, 8, 0.25)

    def one_pass(aim):
        return steer_to_target(aim, CHAIN, K2, s0, SimParams(nu=nu), ONE_PASS).achieved

    gap = (one_pass(a) - one_pass(b)) - (a - b)
    assert np.linalg.norm(gap) <= CONTRACTION * np.linalg.norm(a - b)


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_one_projection_pass_is_the_identity_up_to_a_contraction(nu):
    # subspace coordinates read through the observation subspace_setup
    # returns: the truncation to S moves them by O(epsilon^2) only
    proj, S = subspace_setup(BASIS, epsilon=0.05)
    rng = np.random.default_rng([16, int(nu * 100)])
    s0 = random_decaying_state(6, amplitude=0.2, rng=rng)
    a, b = l1_ball_aim(rng, 2, 0.3), l1_ball_aim(rng, 2, 0.3)

    def one_pass(aim):
        return steer_in_projection(proj, S, aim, CHAIN, s0, SimParams(nu=nu),
                                   ONE_PASS).achieved

    gap = (one_pass(a) - one_pass(b)) - (a - b)
    assert np.linalg.norm(gap) <= CONTRACTION * np.linalg.norm(a - b)


def test_projection_steering_that_does_not_converge_raises_its_report():
    # the report carries the subspace coordinates, not the inner ones over S
    proj, S = subspace_setup(BASIS, epsilon=0.05)
    target = np.array([0.2, -0.1])
    with pytest.raises(ConvergenceError) as info:
        steer_in_projection(proj, S, target, CHAIN, SpectralState.zeros(6),
                            SimParams(nu=0.01), quick_config(max_fp_iters=1, fp_tol=1e-12))
    rep = info.value.report
    assert not rep.converged and rep.iterations == 1
    assert np.array_equal(rep.target, target)
    assert np.array_equal(rep.achieved, proj.observe(rep.final_state))
    assert rep.error_norm == float(np.linalg.norm(target - rep.achieved))
    assert 1e-4 < rep.error_norm < 1e-2          # 1.3e-3 measured


@pytest.mark.parametrize("mode", [(1, 0), (1, 1)])
def test_first_pass_steers_one_k1_mode_exactly(mode, monkeypatch):
    # one mode has no quadratic self-interaction, so its ramp only decays,
    # and the displacement undoes the decay exactly (at fixed steps)
    real = steering_module.integrate
    monkeypatch.setattr(steering_module, "integrate",
                        lambda *args, tol=None, **kwargs: real(*args, **kwargs))
    rep = steer_to_target(np.array([0.3, -0.2]), CHAIN, symmetrize({mode}),
                          SpectralState.zeros(4), SimParams(nu=0.05), ONE_PASS)
    assert rep.error_norm <= 1e-12


@pytest.mark.parametrize("mode", [(1, 0), (1, 1)])
def test_first_pass_on_grown_steps_leaves_the_step_tolerance_s_error(mode):
    # the same run with steps grown against fp_tol * LOCAL_TOL_PER_FP_TOL:
    # what is left is the integration's error, within the steering contract
    # of 1e-3 fp_tol.  At fp_tol 1e-4 even steps as long as the pieces stay
    # inside it; at 1e-7 a multiplier of 1e-3 misses it on (1, 1), and one of
    # 1e-2 on both modes
    cfg = quick_config(max_fp_iters=1, fp_tol=1e-7)
    rep = steer_to_target(np.array([0.3, -0.2]), CHAIN, symmetrize({mode}),
                          SpectralState.zeros(4), SimParams(nu=0.05), cfg)
    assert rep.error_norm <= 1e-3 * cfg.fp_tol


def cover_start(perturbed):
    return (random_decaying_state(6, amplitude=0.05, rng=np.random.default_rng(7))
            if perturbed else SpectralState.zeros(6))


@pytest.mark.parametrize("nu", [0.0, 0.01])
@pytest.mark.parametrize("perturbed", [False, True])
def test_ramp_displacement_lands_the_pretended_system_on_the_aim(nu, perturbed):
    # the ramp on every K2 channel, the system the synthesis steers, misses
    # by at most 1.3e-4 over these six targets (6.7e-4 to 4.3e-3 when it is
    # aimed at aim - origin)
    s0, proj = cover_start(perturbed), Observation.of_modes(K2)
    for i in range(6):
        aim = ball_target(np.random.default_rng([7, i]))
        p = steering_module._ramp_displacement(aim, K2, s0, SimParams(nu=nu), 1.0)
        end = integrate(s0, SimParams(nu=nu), base_step_program(K2, p, 1.0), FAST).final
        assert np.linalg.norm(proj.observe(end) - aim) <= 2e-4


@pytest.mark.parametrize("nu", [0.0, 0.01])
@pytest.mark.parametrize("perturbed", [False, True])
def test_first_pass_meets_cover_r6_targets_within_fp_tol(nu, perturbed):
    # what one pass leaves is mostly the cascade's own error on the channels
    # it reaches: at most 7.6e-4 over these three targets (1.9e-3 with the
    # ramp aimed at aim - origin); over targets 3 to 5 the worst is 1.07e-3,
    # target 5 from the perturbed start at nu = 0.01, which a second pass meets
    s0 = cover_start(perturbed)
    for i in range(3):
        target = ball_target(np.random.default_rng([7, i]))
        rep = steer_to_target(target, CHAIN, K2, s0, SimParams(nu=nu), ONE_PASS)
        assert rep.error_norm <= 1e-3


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_main_intervals_agree_with_a_finely_stepped_stage_forcing_run(nu):
    # the default of 8 steps per period of the fastest harmonic against the
    # stage-forcing scheme at 320, on the cover_r6 main-interval programs
    cfg = quick_config()
    proj = Observation.of_modes(K2)
    for i in range(3):
        target = ball_target(np.random.default_rng([7, i]))
        main, _ = steering_module._synthesize_main(target, CHAIN, K2, cfg)
        assert main.freq.size
        got = integrate(SpectralState.zeros(6), SimParams(nu=nu), main, FAST).final
        want = integrator_oracle.integrate(SpectralState.zeros(6), SimParams(nu=nu), main,
                                           FAST.dt_base, 320)
        assert np.abs(proj.observe(got) - proj.observe(want)).max() <= 1e-7


def test_correction_ramp_tail_disturbance_is_linear_in_tau():
    # settling the controlled channels over a short ramp perturbs the
    # complement by an amount proportional to the ramp length
    s0 = random_decaying_state(5, amplitude=0.3, rng=np.random.default_rng(7))
    icfg = IntegratorConfig(dt_base=2e-4, record_stride=2)
    proj = Observation.of_modes(K1)
    start = proj.observe(s0)
    end = start + np.array([0.5, -0.3, 0.2, 0.4])
    q0 = project_complement(s0, K1)
    disturbances = []
    for tau in (0.02, 0.01):
        prog = base_step_program(K1, end - start, tau)
        traj = integrate(s0, SimParams(nu=0.01), prog, icfg)
        disturbances.append(max(sobolev_norm(project_complement(s, K1) - q0, 0)
                                for s in traj.states))
        assert disturbances[-1] <= 0.5 * tau      # measured constant ~0.19
    assert 1.5 <= disturbances[0] / disturbances[1] <= 2.5


# ---------------------------------------------------------------------------
# averaging


def test_averaging_zero_amplitude():
    off, on = averaging_experiment((2, 1), ((1, 0), (1, 1)), 0.0, [50, 100], 0.2,
                                   SpectralState.zeros(4), SimParams(), FAST)
    assert off == on == [0.0, 0.0]


def test_averaging_zero_amplitude_still_rejects_an_inadmissible_pair():
    # (1, 0) and (0, 1) have equal length, so they cannot drive (1, 1)
    with pytest.raises(ValueError, match="inadmissible pair"):
        averaging_experiment((1, 1), ((1, 0), (0, 1)), 0.0, [50.0], 0.05,
                             SpectralState.zeros(3), SimParams(), FAST)


def test_averaging_deviations_are_the_per_sample_maxima_bitwise():
    s0 = random_decaying_state(4, amplitude=0.2, rng=np.random.default_rng(6))
    k, pair, params = (2, 1), ((1, 0), (1, 1)), SimParams(nu=0.01)
    devs, on_pair = averaging_experiment(k, pair, 1.0, [60.0], 0.1, s0, params, FAST)
    samples = np.linspace(0.0, 0.1, 101)
    ref = integrate(s0, params, constant_program(symmetrize({k}), {k: 1.0}, 0.1),
                    FAST, samples)
    packet = ForcingProgram(symmetrize(pair),
                            [steering_module.cascade_packet(k, *pair, 1.0, 60.0, 0.1)])
    traj = integrate(s0, params, packet, FAST, samples)
    diffs = [SpectralState(4, a - b)
             for a, b in zip(traj.rows_at(samples), ref.rows_at(samples))]
    assert devs == [max(sobolev_norm(project_complement(d, symmetrize(pair)), 0)
                        for d in diffs)]
    assert on_pair == [max(sobolev_norm(project(d, symmetrize(pair)), 0) for d in diffs)]


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_averaging_experiment_rejects_a_non_finite_amplitude(monkeypatch, amplitude):
    def never(*args, **kwargs):
        raise AssertionError("integrated before validating the amplitude")
    monkeypatch.setattr(steering_module, "integrate", never)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        averaging_experiment((2, 1), ((1, 0), (1, 1)), amplitude, [50.0], 0.2,
                             SpectralState.zeros(4), SimParams())


@pytest.mark.parametrize("pair, omegas, match", [
    (((1, 0), (0, 1)), [50.0], "inadmissible pair"),
    (((1, 0), (1, 1)), [50.0, -5.0], "oscillation frequency must be positive"),
])
def test_averaging_experiment_checks_pair_and_omegas_before_integrating(
        monkeypatch, pair, omegas, match):
    def never(*args, **kwargs):
        raise AssertionError("integrated before validating the packets")
    monkeypatch.setattr(steering_module, "integrate", never)
    k = (pair[0][0] + pair[1][0], pair[0][1] + pair[1][1])
    with pytest.raises(ValueError, match=match):
        averaging_experiment(k, pair, 1.0, omegas, 0.2, SpectralState.zeros(4), SimParams())


def test_averaging_deviation_decreases():
    devs, _ = averaging_experiment((2, 1), ((1, 0), (1, 1)), 1.0, [50, 200], 0.25,
                                   SpectralState.zeros(5), SimParams(), FAST)
    assert devs[1] < devs[0]


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_setup_coordinate_basis_trivial():
    e = SpectralState.from_coeffs({(1, 0): 0.5}, 4)
    e = (1.0 / sobolev_norm(e, 0)) * e
    proj, S = subspace_setup([e], epsilon=0.1)
    assert S == symmetrize({(1, 0)})
    assert proj.dimension == 1


def test_subspace_setup_mixed_vector():
    raw = SpectralState.from_coeffs({(1, 0): 0.8, (3, 2): 0.6}, 4)
    proj, S = subspace_setup([raw], epsilon=0.1)
    assert symmetrize({(1, 0), (3, 2)}) <= S
    e = SpectralState(proj.radius, proj.weights[0])
    assert inner0(e, e) == pytest.approx(1.0)


@pytest.mark.parametrize("epsilon", [1e-9, 1e-12])
def test_subspace_setup_keeps_every_weighted_mode_at_a_tiny_epsilon(epsilon):
    # a dense basis: S is every mode of nonzero weight, after which the
    # norm left out is exactly 0, not a rounding error above epsilon
    rng = np.random.default_rng(0)
    basis = [random_decaying_state(6, 0.3, 1.0, rng=rng) for _ in range(3)]
    proj, S = subspace_setup(basis, epsilon)
    weighted = np.flatnonzero(np.abs(proj.weights).max(axis=0))
    assert S == symmetrize(_tables(6).reps[i] for i in weighted)
    es = [SpectralState(6, row) for row in proj.weights]
    for e in es:
        t = project(e, S)
        onto = sum((inner0(t, f) * f for f in es[1:]), inner0(t, es[0]) * es[0])
        assert sobolev_norm(onto - t, 0) <= (len(es) + 1) * epsilon


@pytest.mark.parametrize("epsilon", [1e-16, 1e-17])
@pytest.mark.parametrize("radius,count", [(6, 300), (24, 20)])
def test_subspace_setup_self_check_allows_rounding(radius, count, epsilon):
    # below float64 resolution every weighted mode is kept, and the
    # truncation defect is a few ulps of a unit vector, not a fault; each
    # entry rounds relative to its own size, so the defect does not grow
    # with the 56 modes of R=6 or the 896 of R=24
    rng = np.random.default_rng(0)
    for _ in range(count):
        basis = [random_decaying_state(radius, 0.3, 1.0, rng=rng) for _ in range(3)]
        proj, S = subspace_setup(basis, epsilon)
        weighted = np.flatnonzero(np.abs(proj.weights).max(axis=0))
        assert S == symmetrize(_tables(radius).reps[i] for i in weighted)


def test_subspace_setup_dependent_basis():
    a = SpectralState.from_coeffs({(1, 0): 1.0}, 4)
    with pytest.raises(ValueError, match="dependent basis"):
        subspace_setup([a, 2.0 * a], epsilon=0.1)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_subspace_setup_rejects_epsilon_outside_the_positive_reals(epsilon):
    e = SpectralState.from_coeffs({(1, 0): 1.0}, 4)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        subspace_setup([e], epsilon)


@pytest.mark.parametrize("epsilon", [1.5, 2.0])
def test_subspace_setup_rejects_an_epsilon_that_keeps_no_mode(epsilon):
    # unit basis vectors: an epsilon of at least 1 leaves S empty
    e = SpectralState.from_coeffs({(1, 0): 1.0}, 4)
    with pytest.raises(ValueError, match="epsilon"):
        subspace_setup([e], epsilon)


def test_steer_in_projection_single_mode_reduces_to_coordinate():
    cfg = quick_config()
    e = SpectralState.from_coeffs({(2, 1): 0.5}, 6)
    e = (1.0 / sobolev_norm(e, 0)) * e
    proj, S = subspace_setup([e], epsilon=0.05)
    rep = steer_in_projection(proj, S, np.array([0.2]), CHAIN,
                              SpectralState.zeros(6), SimParams(), cfg)
    assert rep.error_norm <= 2 * cfg.fp_tol
    assert rep.converged


# ---------------------------------------------------------------------------
# coverage


def test_coverage_grid_shapes():
    g = coverage_grid(4, 0.5, 2)
    assert g.shape == (9, 4)                      # center + 2*kappa vertices
    assert np.abs(g).sum(axis=1).max() == pytest.approx(0.5)
    g3 = coverage_grid(2, 0.3, 3)
    assert g3.shape == (9, 2)
    with pytest.raises(ValueError):
        coverage_grid(2, 0.3, 1)


@pytest.mark.parametrize("radius", [-0.1, math.nan, math.inf])
def test_coverage_grid_rejects_radius_outside_the_half_line(radius):
    with pytest.raises(ValueError, match="grid radius"):
        coverage_grid(2, radius, 2)


def test_coverage_single_origin_target():
    cfg = quick_config(tau=0.02)
    res = coverage_check(CHAIN, K1, 0.0, 2, SpectralState.zeros(4),
                         SimParams(), cfg)
    assert res.fraction == 1.0
    assert len(res.targets) == 1


def test_coverage_m1_grid():
    cfg = quick_config(tau=0.02, fp_tol=1e-3)
    res = coverage_check(CHAIN, K1, 0.5, 2, SpectralState.zeros(4),
                         SimParams(nu=0.01), cfg)
    assert res.fraction == 1.0


@pytest.mark.parametrize("failure", [BlowUpError(0.5), StepBudgetError("step budget exceeded")])
def test_coverage_counts_numerical_failures_as_misses(monkeypatch, failure):
    def failing(*args, **kwargs):
        raise failure
    monkeypatch.setattr(steering_module, "steer_to_target", failing)
    res = coverage_check(CHAIN, K1, 0.5, 2, SpectralState.zeros(4),
                         SimParams(nu=0.01), quick_config())
    assert res.fraction == 0.0
    assert res.reports == [None] * len(res.targets)


def test_coverage_propagates_other_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a defect, not a missed target")
    monkeypatch.setattr(steering_module, "steer_to_target", broken)
    with pytest.raises(ZeroDivisionError):
        coverage_check(CHAIN, K1, 0.5, 2, SpectralState.zeros(4),
                       SimParams(nu=0.01), quick_config())


@pytest.mark.parametrize("failure,reason", [
    (BlowUpError(0.5), "blowup"),
    (StepBudgetError("step budget exceeded"), "step_budget")])
def test_coverage_names_why_each_target_missed(monkeypatch, failure, reason):
    def failing(*args, **kwargs):
        raise failure
    monkeypatch.setattr(steering_module, "steer_to_target", failing)
    res = coverage_check(CHAIN, K1, 0.5, 2, SpectralState.zeros(4),
                         SimParams(nu=0.01), quick_config())
    assert res.misses == [reason] * len(res.targets)


def test_coverage_marks_hits_and_unconverged_targets():
    res = coverage_check(CHAIN, K1, 0.0, 2, SpectralState.zeros(4),
                         SimParams(), quick_config(tau=0.02))
    assert res.misses == [""]
    assert res.reports[0].error_norm == 0.0 and res.reports[0].converged
    res = coverage_check(CHAIN, K2, 0.5, 2, SpectralState.zeros(4),
                         SimParams(nu=0.01), quick_config(max_fp_iters=1, fp_tol=1e-12))
    # the center is met exactly from rest; every other target runs out of
    # iterations (over K2 the first pass chatters and cascades, and misses)
    assert res.misses == [""] + ["not_converged"] * (len(res.targets) - 1)
    assert res.fraction == 1 / len(res.targets)
    assert all(not rep.converged for rep in res.reports[1:])
