"""Spectral states, the quadratic term against a brute-force oracle, norms,
velocity recovery and projections."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modecascade.lattice import norm_sq, wedge
from modecascade.spectral import (SimParams, SpectralState, energy, enstrophy,
                                  inner0, nonlinear_term, project,
                                  project_complement, random_decaying_state,
                                  resize, sobolev_norm, sobolev_norms,
                                  state_from_json, state_to_json,
                                  velocity_from_vorticity, _tables)
from modecascade.forcing import zero_program
from modecascade.integrator import IntegratorConfig, integrate
from modecascade.spectral import FFT_RADIUS, quadratic_kernel


def naive_double_sum(state):
    """Independent oracle: dq_k = sum over ordered pairs m+n=k of
    wedge(m,n) |m|^-2 q_m q_n, everything inside the resolution ball."""
    coeffs = dict(state.full_items())
    out = {}
    for k in coeffs:
        acc = 0j
        for m, qm in coeffs.items():
            n = (k[0] - m[0], k[1] - m[1])
            if n == (0, 0) or n not in coeffs:
                continue
            acc += wedge(m, n) / norm_sq(m) * qm * coeffs[n]
        out[k] = acc
    return out


# ---------------------------------------------------------------------------
# state basics


def test_conjugate_symmetry_is_structural():
    s = SpectralState.from_coeffs({(1, 0): 1 + 2j, (-1, -1): 0.5j}, 3)
    assert s.coeff((-1, 0)) == (1 + 2j).conjugate()
    assert s.coeff((1, 1)) == -0.5j
    assert s.coeff((3, 0)) == 0          # representable, unset
    assert s.coeff((5, 5)) == 0          # outside the ball


def test_state_repr_names_the_radius_and_h0_norm():
    s = SpectralState.from_coeffs({(1, 0): 0.5}, 2)
    assert repr(s) == "SpectralState(radius=2, modes=12, |w|_0=0.707)"


def test_conflicting_conjugate_entries_rejected():
    with pytest.raises(ValueError, match="conjugate"):
        SpectralState.from_coeffs({(1, 0): 1.0, (-1, 0): 2.0}, 3)


def test_out_of_ball_coefficients_rejected():
    with pytest.raises(ValueError, match="outside"):
        SpectralState.from_coeffs({(4, 0): 1.0}, 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_from_coeffs_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="must be finite"):
        SpectralState.from_coeffs({(1, 0): 0.5, (2, 1): value}, 3)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_state_readers_reject_non_finite_coefficients(value):
    text = state_to_json(SpectralState.from_coeffs({(1, 0): 0.25}, 3))
    with pytest.raises(ValueError, match="must be finite"):
        state_from_json(text.replace("0.25", value))


@pytest.mark.parametrize("call,message", [
    (lambda: SpectralState.zeros(0), "resolution radius must be >= 1"),
    (lambda: SpectralState(3, np.zeros(2)), "wrong length for radius 3"),
    (lambda: sobolev_norms(3, np.zeros(14), order=3), "Sobolev order must be 0, 1 or 2"),
    (lambda: inner0(SpectralState.zeros(3), SpectralState.zeros(4)),
     "states must share a resolution radius"),
    (lambda: state_from_json("[1, 2]"), "must be a JSON object with 'radius'"),
    (lambda: state_from_json('{"coeffs": {}}'), "must be a JSON object with 'radius'"),
], ids=["radius", "vector_length", "sobolev_order", "inner0_radii", "json_not_object",
        "json_missing_key"])
def test_spectral_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_random_state_without_a_generator_draws_from_seed_0():
    want = random_decaying_state(3, rng=np.random.default_rng(0))
    assert np.array_equal(random_decaying_state(3).data, want.data)


def test_states_are_immutable():
    s = SpectralState.zeros(3)
    with pytest.raises((AttributeError, ValueError)):
        s.data[0] = 1.0
    with pytest.raises(AttributeError, match="SpectralState is immutable"):
        s.radius = 4


# ---------------------------------------------------------------------------
# norms


def test_norms_unit_pair():
    s = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    assert enstrophy(s) == pytest.approx(2.0, abs=1e-14)
    assert sobolev_norm(s, 1) ** 2 == pytest.approx(2.0, abs=1e-14)
    assert sobolev_norm(s, 2) ** 2 == pytest.approx(2.0, abs=1e-14)
    assert energy(s) == pytest.approx(2.0, abs=1e-14)


def test_norms_mode_21():
    s = SpectralState.from_coeffs({(2, 1): 1.0}, 3)
    assert sobolev_norm(s, 1) ** 2 == pytest.approx(10.0, rel=1e-14)
    assert energy(s) == pytest.approx(0.4, rel=1e-14)


def test_norms_zero_state():
    s = SpectralState.zeros(4)
    assert enstrophy(s) == 0 and energy(s) == 0 and sobolev_norm(s, 2) == 0


# ---------------------------------------------------------------------------
# quadratic term


def test_nonlinear_hand_example():
    s = SpectralState.from_coeffs({(1, 0): 1.0, (1, 1): 1.0}, 3)
    n = nonlinear_term(s)
    assert n.coeff((2, 1)) == pytest.approx(0.5)
    assert n.coeff((0, -1)) == pytest.approx(-0.5)
    # conjugate symmetry forces N(-k) = conj(N(k))
    assert n.coeff((-2, -1)) == pytest.approx(np.conj(n.coeff((2, 1))))


def test_nonlinear_equal_norm_pair_vanishes():
    s = SpectralState.from_coeffs({(1, 0): 1.0, (0, 1): 1.0}, 3)
    assert max(abs(v) for _, v in nonlinear_term(s).items()) == 0.0


def test_rearranged_sum_equals_double_sum_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(100):
        radius = 3 + trial % 4           # resolutions 3..6
        s = random_decaying_state(radius, amplitude=0.7, decay=1.5, rng=rng)
        got = nonlinear_term(s)
        want = naive_double_sum(s)
        scale = max(max(abs(v) for v in want.values()), 1e-30)
        for k, v in want.items():
            assert abs(got.coeff(k) - v) <= 1e-12 * scale
        checked += 1
    assert checked == 100


def test_nonlinear_term_vanishes_on_one_mode_pair():
    # a mode pair {k, -k} has no triad: wedge(k, k) = 0 and 0 is not in the ball
    s = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    assert not nonlinear_term(s).data.any()


def test_nonlinear_term_zero_state():
    assert enstrophy(nonlinear_term(SpectralState.zeros(3))) == 0.0


def test_triad_conservation_identities():
    rng = np.random.default_rng(77)
    for _ in range(100):
        s = random_decaying_state(5, amplitude=0.5, decay=2.0, rng=rng)
        n = nonlinear_term(s)
        tab = _tables(5)
        inv_lap = SpectralState(5, s.data / tab.norm_sq)
        scale = sobolev_norm(n, 0) * sobolev_norm(s, 0) + 1e-30
        assert abs(inner0(n, s)) <= 1e-12 * scale
        assert abs(inner0(n, inv_lap)) <= 1e-12 * scale


def test_enstrophy_dissipation_identity():
    rng = np.random.default_rng(8)
    s = random_decaying_state(4, amplitude=0.4, rng=rng)
    nu = 0.3
    # the quadratic term conserves enstrophy, so only the viscous term is left
    f = nonlinear_term(s) - nu * SpectralState(4, _tables(4).norm_sq * s.data)
    assert inner0(f, s) == pytest.approx(-nu * sobolev_norm(s, 1) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# both kernels of the quadratic term


def test_kernel_switches_at_the_crossover_radius():
    assert quadratic_kernel(FFT_RADIUS - 1) == "triad"
    assert quadratic_kernel(FFT_RADIUS) == "fft"
    assert _tables(FFT_RADIUS - 1).kernel == "triad"
    assert _tables(FFT_RADIUS).kernel == "fft"
    assert not hasattr(_tables(FFT_RADIUS), "tri_k")     # no triad table built


NO_SCIPY = """
import sys
import modecascade, modecascade.cli
from modecascade.forcing import constant_program, relaxation_distance, zero_program
from modecascade.integrator import IntegratorConfig, integrate
from modecascade.lattice import saturation_chain
from modecascade.spectral import (FFT_RADIUS, SimParams, SpectralState, _tables,
                                  nonlinear_term, random_decaying_state)
nonlinear_term(SpectralState.from_coeffs({(1, 0): 1.0, (1, 1): 0.5j}, FFT_RADIUS - 1))
assert not hasattr(_tables(FFT_RADIUS - 1), "grid_at"), "grid built below FFT_RADIUS"
nonlinear_term(random_decaying_state(24))
support = {(1, 0), (-1, 0), (1, 1), (-1, -1)}
program = constant_program(support, {(1, 0): 0.5}, 0.01)
integrate(random_decaying_state(FFT_RADIUS), SimParams(0.01), program,
          IntegratorConfig(dt_base=1e-3))
saturation_chain(support, 6)
assert relaxation_distance(program, zero_program(0.01, support)) > 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, "scipy modules loaded: %s" % loaded[:5]
"""


def test_no_run_loads_scipy():
    # a fresh interpreter: this test process has long since loaded scipy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# R = 21: M = 64 = 3R + 1, the tightest alias margin; R = 24: M = 75, an odd
# grid with no Nyquist column
@pytest.mark.parametrize("radius", [*range(FFT_RADIUS - 2, FFT_RADIUS + 6), 21, 24])
def test_both_kernels_match_double_sum_oracle(radius):
    rng = np.random.default_rng([2024, radius])
    s = random_decaying_state(radius, amplitude=0.7, decay=1.5, rng=rng)
    got = nonlinear_term(s)
    want = naive_double_sum(s)
    scale = max(abs(v) for v in want.values())
    for k, v in want.items():
        assert abs(got.coeff(k) - v) <= 1e-12 * scale


@given(radius=st.integers(1, FFT_RADIUS + 2), seed=st.integers(0, 2 ** 32 - 1),
       decay=st.floats(0.0, 3.0))
@example(radius=1, seed=0, decay=1.5)     # no triads: padding rows only
@example(radius=2, seed=0, decay=1.5)     # some representatives without triads
@settings(max_examples=40, deadline=None)
def test_kernel_matches_double_sum_oracle_at_random_radii(radius, seed, decay):
    s = random_decaying_state(radius, amplitude=0.7, decay=decay,
                              rng=np.random.default_rng(seed))
    got = nonlinear_term(s)
    want = naive_double_sum(s)
    scale = max(abs(v) for v in want.values())
    for k, v in want.items():
        assert abs(got.coeff(k) - v) <= 1e-12 * scale


@given(radius=st.integers(1, FFT_RADIUS + 6), seed=st.integers(0, 2 ** 32 - 1),
       decay=st.floats(0.0, 3.0))
@example(radius=1, seed=0, decay=1.5)
@example(radius=2, seed=0, decay=1.5)
@settings(max_examples=60, deadline=None)
def test_truncated_euler_conservation_at_random_radii(radius, seed, decay):
    # sum conj(q) N = 0 (enstrophy) and sum conj(q) N / |k|^2 = 0 (energy)
    s = random_decaying_state(radius, amplitude=0.5, decay=decay,
                              rng=np.random.default_rng(seed))
    n = nonlinear_term(s)
    inv_lap = SpectralState(radius, s.data / _tables(radius).norm_sq)
    scale = sobolev_norm(n, 0) * sobolev_norm(s, 0)
    assert abs(inner0(n, s)) <= 1e-12 * scale
    assert abs(inner0(n, inv_lap)) <= 1e-12 * scale


@pytest.mark.parametrize("radius", (FFT_RADIUS, 12, 16, 21, 24))
def test_fft_kernel_conservation_identities(radius):
    rng = np.random.default_rng(radius)
    tab = _tables(radius)
    for _ in range(10):
        s = random_decaying_state(radius, amplitude=0.5, decay=1.5, rng=rng)
        n = nonlinear_term(s)
        inv_lap = SpectralState(radius, s.data / tab.norm_sq)
        scale = sobolev_norm(n, 0) * sobolev_norm(s, 0)
        assert abs(inner0(n, s)) <= 1e-12 * scale
        assert abs(inner0(n, inv_lap)) <= 1e-12 * scale


def test_fft_kernel_euler_conserves_energy_and_enstrophy():
    s0 = random_decaying_state(12, amplitude=0.4, decay=2.0,
                               rng=np.random.default_rng(31))
    final = integrate(s0, SimParams(), zero_program(0.1),
                      IntegratorConfig(dt_base=1e-3, record_stride=10 ** 9)).final
    assert sobolev_norm(final - s0, 0) > 1e-6 * sobolev_norm(s0, 0)   # it moved
    assert abs(energy(final) - energy(s0)) <= 1e-8 * energy(s0)
    assert abs(enstrophy(final) - enstrophy(s0)) <= 1e-8 * enstrophy(s0)


# ---------------------------------------------------------------------------
# velocity recovery


def test_velocity_cosine_column():
    s = SpectralState.from_coeffs({(1, 0): 1.0}, 3)   # w = 2 cos x1
    u1, u2 = velocity_from_vorticity(s)
    assert u1[(1, 0)] == 0
    assert u2[(1, 0)] == pytest.approx(-1j)
    assert u2[(-1, 0)] == pytest.approx(1j)


def test_velocity_identities_random():
    rng = np.random.default_rng(21)
    s = random_decaying_state(5, amplitude=0.8, decay=1.0, rng=rng)
    u1, u2 = velocity_from_vorticity(s)
    for k, q in s.full_items():
        curl = 1j * k[0] * u2[k] - 1j * k[1] * u1[k]
        div = 1j * k[0] * u1[k] + 1j * k[1] * u2[k]
        assert curl == pytest.approx(q, rel=1e-13, abs=1e-15)
        assert abs(div) <= 1e-15


def test_velocity_zero_state():
    u1, u2 = velocity_from_vorticity(SpectralState.zeros(3))
    assert all(v == 0 for v in u1.values())


# ---------------------------------------------------------------------------
# projections


def test_projection_identity_and_partition():
    rng = np.random.default_rng(3)
    s = random_decaying_state(4, amplitude=0.5, rng=rng)
    full = frozenset(k for k, _ in s.full_items())
    assert sobolev_norm(project(s, full) - s, 0) == 0
    sub = frozenset({(1, 0), (-1, 0), (2, 1), (-2, -1)})
    back = project(s, sub) + project_complement(s, sub)
    assert sobolev_norm(back - s, 0) == 0
    # idempotent
    assert sobolev_norm(project(project(s, sub), sub) - project(s, sub), 0) == 0


def test_projection_disjoint_support():
    s = SpectralState.from_coeffs({(1, 0): 1.0}, 3)
    p = project(s, {(1, 1), (-1, -1)})
    assert enstrophy(p) == 0.0


def test_projection_asymmetric_set_rejected():
    s = SpectralState.zeros(3)
    with pytest.raises(ValueError, match="asymmetric"):
        project(s, {(1, 0)})


def test_resize_round_trip():
    s = SpectralState.from_coeffs({(1, 0): 1 + 1j, (2, 1): 0.25}, 3)
    up = resize(s, 6)
    assert up.coeff((2, 1)) == 0.25
    down = resize(up, 3)
    assert sobolev_norm(down - s, 0) == 0


@pytest.mark.parametrize("field", ["amplitude", "decay"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_random_state_rejects_a_non_finite_amplitude_or_decay(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        random_decaying_state(4, **{field: value})


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = SpectralState.from_coeffs({(1, 0): 1 - 2j, (1, 2): 0.125j}, 4)
    back = state_from_json(state_to_json(s))
    assert back.radius == 4
    assert sobolev_norm(back - s, 0) == 0


coefficient_parts = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def states(draw):
    """A state at a random radius; many coefficients zero, the rest any
    finite double."""
    radius = draw(st.integers(1, 8))
    n = _tables(radius).n_reps
    data = np.empty(n, dtype=np.complex128)
    data.real = draw(st.lists(coefficient_parts, min_size=n, max_size=n))
    data.imag = draw(st.lists(coefficient_parts, min_size=n, max_size=n))
    return SpectralState(radius, data)


@given(states())
@settings(max_examples=100, deadline=None)
def test_state_json_round_trip_property(s):
    back = state_from_json(state_to_json(s))
    assert back.radius == s.radius
    np.testing.assert_array_equal(back.data, s.data)


@pytest.mark.parametrize("nu", [-0.01, float("nan"), float("inf"), -float("inf")])
def test_sim_params_reject_negative_and_non_finite_viscosity(nu):
    with pytest.raises(ValueError, match="viscosity"):
        SimParams(nu=nu)
