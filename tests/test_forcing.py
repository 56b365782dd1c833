"""Forcing programs: primitives against quadrature, the relaxation metric,
cascade packets and their averaging, chattering."""

import json
import math

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import quad

from modecascade.forcing import (ChannelMap, Constant, ForcingProgram,
                                 Oscillatory, Zero,
                                 _boundary_and_extremum_times,
                                 cascade_packet, chattering_approximation,
                                 constant_program,
                                 program_from_json, program_to_json,
                                 relaxation_distance, zero_program)
from modecascade.lattice import (admissible_pair, norm_sq, symmetrize,
                                 unfold_conjugate, wedge)

import forcing_oracle as oracle

PAIR_SUPPORT = symmetrize({(1, 0), (1, 1)})
SINGLE = symmetrize({(1, 0)})


def single_channel_program(value, duration, support=SINGLE, mode=(1, 0)):
    return constant_program(support, {mode: value}, duration)


def primitive_at(prog, t, cmap=ChannelMap(SINGLE)):
    """The program's primitive at one time, as a channel vector."""
    return prog.channel_primitive(np.array([t]), cmap)[0]


# ---------------------------------------------------------------------------
# primitive


def test_relaxation_distance_within_the_duration_tolerance():
    # durations 1 and 1 + 1e-10 agree to the 1e-9 tolerance; the sliver
    # past the shorter horizon is not read
    a = single_channel_program(1.0, 1.0)
    b = single_channel_program(1.0, 1.0 + 1e-10)
    assert relaxation_distance(a, b) == 0.0
    assert relaxation_distance(b, a) == 0.0
    with pytest.raises(ValueError, match="duration mismatch"):
        relaxation_distance(a, single_channel_program(1.0, 1.0 + 1e-6))


def test_relaxation_distance_of_empty_supports_is_zero():
    # no channel, so the breakpoint maximum reads an empty norm
    split = ForcingProgram((), [Zero(0.4), Zero(0.6)])
    assert relaxation_distance(split, zero_program(1.0)) == 0.0


def test_out_of_range_message_shows_the_gap():
    prog = single_channel_program(1.0, 1.0)
    with pytest.raises(ValueError, match=r"t=1\.000000001\d* not in \[0, 1\]"):
        primitive_at(prog, 1.0 + 1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                   complex(1.0, math.inf)])
def test_constant_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="forcing values must be finite"):
        Constant(1.0, {(1, 0): value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                   complex(1.0, math.inf)])
def test_oscillatory_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="oscillation coefficients must be finite"):
        Oscillatory(1.0, 10.0, [((1, 0), 1, value)])


@pytest.mark.parametrize("amp,phase", [(math.nan, 0.0), (math.inf, 0.0),
                                       (-math.inf, 0.0), (0.5, math.nan)])
def test_cos_pairs_reject_non_finite_amplitude_and_phase(amp, phase):
    with pytest.raises(ValueError, match="oscillation coefficients must be finite"):
        Oscillatory.from_cos_pairs(1.0, 10.0, [((1, 0), amp)], phase=phase)


def test_evaluate_out_of_range():
    prog = single_channel_program(1.0, 1.0)
    with pytest.raises(ValueError, match="time out of range"):
        primitive_at(prog, 1.5)


def test_primitive_of_base_ramp_reaches_p():
    # constant v = p / tau integrates to exactly p at tau
    tau, p = 0.01, 0.375 - 0.5j
    prog = single_channel_program(p / tau, tau)
    assert primitive_at(prog, tau) == pytest.approx([p.real, p.imag])


def test_primitive_oscillatory_closed_form_and_bound():
    omega, amp = 37.0, 1.5
    seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), amp)])
    prog = ForcingProgram(SINGLE, [seg])
    for t in (0.0, 0.1, 0.31, 1.0):
        v = primitive_at(prog, t)
        assert v == pytest.approx([amp * math.sin(omega * t), 0.0])
        assert np.linalg.norm(v) <= amp + 1e-12


def test_primitive_zero_program():
    prog = zero_program(1.0, SINGLE)
    assert not primitive_at(prog, 0.6).any()


def test_primitive_matches_quadrature():
    rng = np.random.default_rng(4)
    segs = [
        Constant(0.3, {(1, 0): 0.7 - 0.2j, (1, 1): 0.1j}),
        Oscillatory.from_cos_pairs(0.45, 21.0, [((1, 0), 0.8), ((1, 1), -0.3)],
                                   phase=0.4),
        Zero(0.25),
    ]
    prog = ForcingProgram(PAIR_SUPPORT, segs)
    cmap = ChannelMap(PAIR_SUPPORT)
    # the forcing the segments describe, integrated, is the compiled primitive
    for t in rng.uniform(0, 1.0, 5):
        brk = [float(b) for b in prog.starts if 0 < b < t]
        want = [quad(lambda s: oracle.channels(oracle.evaluate(prog, s), cmap)[j], 0, t,
                     limit=400, epsabs=1e-10, points=brk)[0] for j in range(cmap.size)]
        assert primitive_at(prog, t, cmap) == pytest.approx(want, abs=1e-8)


def test_primitive_continuous_across_segments():
    segs = [Constant(0.5, {(1, 0): 1.0}),
            Oscillatory.from_cos_pairs(0.5, 30.0, [((1, 0), 0.5)])]
    prog = ForcingProgram(SINGLE, segs)
    below = primitive_at(prog, 0.5 - 1e-9)
    above = primitive_at(prog, 0.5 + 1e-9)
    assert np.linalg.norm(above - below) < 1e-6


# ---------------------------------------------------------------------------
# relaxation metric


def test_relaxation_fast_oscillation_law():
    # v = omega^(1/2) cos(omega t): rx norm is exactly omega^(-1/2) once a
    # quarter period fits the horizon
    for omega in (1e2, 1e3, 1e4):
        seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), omega ** -0.5)])
        f = ForcingProgram(SINGLE, [seg])
        assert relaxation_distance(f, zero_program(1.0, SINGLE)) == pytest.approx(
            omega ** -0.5, abs=1e-9)


def test_relaxation_identical_programs():
    f = single_channel_program(0.3 + 0.1j, 1.0)
    assert relaxation_distance(f, f) == 0.0


def test_relaxation_constant_vs_zero():
    c, T = 0.75, 2.0
    f = single_channel_program(c, T)
    assert relaxation_distance(f, zero_program(T, SINGLE)) == pytest.approx(c * T)


def test_relaxation_duration_mismatch():
    with pytest.raises(ValueError, match="duration mismatch"):
        relaxation_distance(single_channel_program(1.0, 1.0),
                            zero_program(2.0, SINGLE))


def test_relaxation_below_l1_distance():
    rng = np.random.default_rng(17)
    cmap = ChannelMap(PAIR_SUPPORT)
    for _ in range(20):
        def random_pwc():
            fracs = rng.dirichlet(np.ones(rng.integers(1, 5)))
            segs = [Constant(fr, cmap.vector_to_rep_coeffs(rng.uniform(-1, 1, 4)))
                    for fr in fracs]
            return ForcingProgram(PAIR_SUPPORT, segs)

        f, g = random_pwc(), random_pwc()
        rx = relaxation_distance(f, g)
        edges = np.unique(np.concatenate([f.starts, g.starts]))
        # f - g is constant between edges: its norm there times the length
        # is the norm of the primitive's increment
        gap = f.channel_primitive(edges, cmap) - g.channel_primitive(edges, cmap)
        l1 = np.linalg.norm(np.diff(gap, axis=0), axis=1).sum()
        assert rx <= l1 + 1e-12


def test_fast_oscillation_rx_decay_uniform_in_omega():
    amp = 0.8
    prev = math.inf
    for omega in (10, 20, 40, 80, 160):
        seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), amp)])
        rx = relaxation_distance(ForcingProgram(SINGLE, [seg]),
                                 zero_program(1.0, SINGLE))
        assert rx <= amp + 1e-12
        assert rx <= prev + 1e-12
        prev = rx


# ---------------------------------------------------------------------------
# cascade packets


def test_cascade_packet_rejects_an_inadmissible_pair():
    # (1, 0) and (0, 1) have equal length: no mean drive on (1, 1) at all
    for target in (1.0, 0.0):
        with pytest.raises(ValueError, match="inadmissible"):
            cascade_packet((1, 1), (1, 0), (0, 1), target, 100.0, 0.5)


def packet_mean_drives(seg, m, n, duration, points=200001):
    """Quadrature oracle for the averaged quadratic drive of a packet."""
    ts = np.linspace(0, duration, points)

    def prim(rep):
        out = np.zeros_like(ts, dtype=complex)
        for k, h, c in seg.components:
            if k == rep:
                out += c * (np.exp(1j * h * seg.omega * ts) - 1)
        return out

    vm, vn = prim(m), prim(n)
    coeff = wedge(m, n) * (1 / norm_sq(m) - 1 / norm_sq(n))
    on_sum = coeff * np.trapezoid(vm * vn, ts) / duration
    on_diff = -coeff * np.trapezoid(vm * np.conj(vn), ts) / duration
    return on_sum, on_diff, vm, vn


@pytest.mark.parametrize("target", [1.0, -0.6, 0.8j, 0.3 - 0.4j])
def test_cascade_packet_drives_sum_mode_only(target):
    m, n = (1, 0), (1, 1)
    seg = cascade_packet((2, 1), m, n, target, 150.0, 0.5)
    on_sum, on_diff, vm, vn = packet_mean_drives(seg, m, n, 0.5)
    assert on_sum == pytest.approx(target, abs=1e-8)
    assert abs(on_diff) < 1e-8                       # no difference-mode drive
    assert abs(vm[-1]) < 1e-10 and abs(vn[-1]) < 1e-10   # primitives close up
    ts = np.linspace(0, 0.5, len(vm))
    assert abs(np.trapezoid(vm, ts)) < 1e-8          # zero-mean primitives


def test_plain_cos_pair_has_difference_byproduct():
    # equal cosines (A_m A_n coeff = 2 for a unit drive on (2, 1)) drive
    # the difference pair with the opposite mean rate; this is why the
    # two-harmonic packets exist.  48 pi fits 12 whole cycles in 0.5.
    m, n = (1, 0), (1, 1)
    seg = Oscillatory.from_cos_pairs(0.5, 48.0 * math.pi, [(m, 2.0), (n, 2.0)])
    on_sum, on_diff, _, _ = packet_mean_drives(seg, m, n, 0.5)
    assert on_sum == pytest.approx(1.0, abs=1e-6)
    assert on_diff == pytest.approx(-1.0, abs=1e-6)


def test_cascade_packet_zero_target_is_zero_segment():
    assert isinstance(cascade_packet((2, 1), (1, 0), (1, 1), 0.0, 100.0, 0.5), Zero)


@pytest.mark.parametrize("omega, duration, match", [
    (-5.0, 0.5, "oscillation frequency must be positive"),
    (0.0, 0.5, "oscillation frequency must be positive"),
    (math.inf, 0.5, "oscillation frequency must be positive"),
    (math.nan, 0.5, "oscillation frequency must be positive"),
    (100.0, 0.0, "segment duration must be positive"),
])
@pytest.mark.parametrize("target", [0.5, 0.0])
def test_cascade_packet_rejects_a_frequency_that_is_not_positive(omega, duration, match,
                                                                 target):
    # not snapped to one cycle per segment, nor an OverflowError from ceil or
    # a ZeroDivisionError, whether or not the packet is zero
    with pytest.raises(ValueError, match=match):
        cascade_packet((2, 1), (1, 0), (1, 1), target, omega, duration)


# ---------------------------------------------------------------------------
# chattering


def test_chattering_extreme_input_unchanged():
    cmap = ChannelMap(PAIR_SUPPORT)
    prog = constant_program(PAIR_SUPPORT, {(1, 0): 1.0}, 1.0)
    out = chattering_approximation(prog, 1.0, 7)
    assert len(out.segments) == 1
    assert relaxation_distance(out, prog) <= 1e-12
    assert out.total_duration == pytest.approx(1.0)


def test_chattering_zero_program_half_segments():
    prog = constant_program(PAIR_SUPPORT, {}, 1.0)
    L = 4
    out = chattering_approximation(prog, 1.0, L)
    assert len(out.segments) == 2 * L
    rx = relaxation_distance(out, prog)
    assert rx <= 1.0 * 1.0 / (2 * L) + 1e-12


def test_chattering_bound_and_window_endpoints():
    rng = np.random.default_rng(42)
    cmap = ChannelMap(PAIR_SUPPORT)
    kappa, T, A = 4, 1.0, 1.0
    for _ in range(10):
        fracs = rng.dirichlet(np.ones(rng.integers(1, 5)))
        segs = []
        for fr in fracs:
            v = rng.uniform(-1, 1, kappa)
            v *= rng.uniform(0, 1) / np.abs(v).sum()
            segs.append(Constant(fr * T, cmap.vector_to_rep_coeffs(v)))
        prog = ForcingProgram(PAIR_SUPPORT, segs)
        last = math.inf
        for L in (5, 20, 100):
            out = chattering_approximation(prog, A, L)
            rx = relaxation_distance(out, prog)
            assert rx <= 2 * A * math.sqrt(kappa) * T / L + 1e-12
            assert rx <= last + 1e-12
            last = rx
            edges = np.linspace(0, T, L + 1)
            gap = np.abs(out.channel_primitive(edges, cmap)
                         - prog.channel_primitive(edges, cmap)).max()
            assert gap <= 1e-12


def test_chattering_rejects_values_outside_hull():
    prog = constant_program(PAIR_SUPPORT, {(1, 0): 2.0}, 1.0)
    with pytest.raises(ValueError, match="outside convex hull"):
        chattering_approximation(prog, 1.0, 4)


def test_chattering_slack_channel_is_respected():
    prog = constant_program(PAIR_SUPPORT, {}, 1.0)
    out = chattering_approximation(prog, 1.0, 1, slack_channel=2)
    cmap = ChannelMap(PAIR_SUPPORT)
    rep, part = cmap.channel(2)
    assert all(set(seg.values) == {rep} for seg in out.segments)


# ---------------------------------------------------------------------------
# serialization


def test_program_json_round_trip_all_kinds():
    segs = [
        Constant(0.25, {(1, 0): 1 - 1j}),
        Oscillatory.from_cos_pairs(0.25, 50.0, [((1, 0), 2.0), ((1, 1), -1.0)],
                                   phase=0.3),
        cascade_packet((2, 1), (1, 0), (1, 1), 0.5j, 80.0, 0.25),
        Zero(0.25),
    ]
    prog = ForcingProgram(symmetrize({(1, 0), (1, 1), (2, 1)}), segs)
    text = program_to_json(prog)
    back = program_from_json(text)
    assert program_to_json(back) == text
    cmap = ChannelMap(prog.support)
    ts = np.linspace(0, 1.0, 301)
    assert np.abs(back.channel_primitive(ts, cmap)
                  - prog.channel_primitive(ts, cmap)).max() < 1e-12


def test_pairs_form_file_is_rejected():
    # packets are read only in the components form the writer emits
    text = json.dumps({"support": [[1, 0], [-1, 0]], "segments": [
        {"kind": "oscillatory", "duration": 1.0, "omega": 10.0, "phase": 0.1,
         "pairs": [{"mode": [1, 0], "amp": 2.0}]}]})
    with pytest.raises(ValueError,
                       match=r"program segment 0 \(oscillatory\) has no 'components' key"):
        program_from_json(text)


def test_constant_segment_requires_conjugate_symmetry():
    with pytest.raises(ValueError, match="asymmetric forcing"):
        Constant(1.0, {(1, 0): 1.0, (-1, 0): 2.0})


def test_channel_map_round_trip():
    cmap = ChannelMap(PAIR_SUPPORT)
    vec = np.array([0.5, -0.25, 1.5, 2.0])
    coeffs = unfold_conjugate(cmap.vector_to_rep_coeffs(vec))
    assert coeffs[(1, 0)] == 0.5 - 0.25j
    assert coeffs[(-1, 0)] == 0.5 + 0.25j


def test_channel_index_validates_mode_and_part():
    cmap = ChannelMap(PAIR_SUPPORT)
    assert [cmap.index((1, 0), "re"), cmap.index((1, 1), "im")] == [0, 3]
    with pytest.raises(ValueError, match="'imag'"):
        cmap.index((1, 1), "imag")
    with pytest.raises(ValueError, match=r"mode \(2, 1\) outside the channel support"):
        cmap.index((2, 1), "re")
    with pytest.raises(ValueError, match="canonical"):
        cmap.index((-1, 0), "re")


def test_program_json_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown segment kind"):
        program_from_json(json.dumps({"support": [[1, 0], [-1, 0]],
                                      "segments": [{"kind": "wavelet",
                                                    "duration": 1.0}]}))


ONE_CONSTANT = constant_program(SINGLE, {(1, 0): 0.5}, 1.0)


@pytest.mark.parametrize("call,message", [
    (lambda: ChannelMap(SINGLE).vector_to_rep_coeffs(np.zeros(3)),
     "channel vector must have length 2"),
    (lambda: Oscillatory(1.0, 10.0, [((1, 0), 0, 1.0)]), "harmonic index must be nonzero"),
    (lambda: ForcingProgram(SINGLE, []), "a program needs at least one segment"),
    (lambda: ForcingProgram(SINGLE, [Constant(1.0, {(2, 0): 1.0})]),
     "escape the program support"),
    (lambda: cascade_packet((2, 1), (1, 0), (1, 0), 1.0, 10.0, 1.0),
     "pair does not sum to the target mode"),
    (lambda: chattering_approximation(ONE_CONSTANT, 1.0, 0), "window count must be >= 1"),
    (lambda: chattering_approximation(zero_program(1.0), 1.0, 4),
     "cannot chatter a program with empty support"),
    (lambda: chattering_approximation(ONE_CONSTANT, 1.0, 4, slack_channel=2),
     "slack channel out of range"),
    (lambda: program_from_json("[1, 2]"), "must be a JSON object with 'support'"),
    (lambda: program_from_json('{"segments": []}'), "must be a JSON object with 'support'"),
    (lambda: program_from_json('{"support": [], "segments": [[1, 2]]}'),
     "program segment 0 is not a JSON object"),
], ids=["vector_length", "harmonic", "no_segments", "segment_support",
        "packet_pair", "windows", "empty_support", "slack_channel", "json_not_object",
        "json_missing_key", "json_segment_not_object"])
def test_forcing_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_extreme_set_validation():
    prog = constant_program(PAIR_SUPPORT, {(1, 0): 0.5}, 1.0)
    with pytest.raises(ValueError, match="extreme amplitude must be positive"):
        chattering_approximation(prog, -1.0, 4)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_non_finite_segment_inputs_rejected(bad):
    with pytest.raises(ValueError, match="segment duration must be positive"):
        zero_program(bad)
    with pytest.raises(ValueError, match="segment duration must be positive"):
        Constant(bad, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="segment duration must be positive"):
        Oscillatory(bad, 1.0, [((1, 0), 1, 0.5)])
    with pytest.raises(ValueError, match="oscillation frequency must be positive"):
        Oscillatory(1.0, bad, [((1, 0), 1, 0.5)])
    prog = constant_program(PAIR_SUPPORT, {(1, 0): 0.5}, 1.0)
    with pytest.raises(ValueError, match="extreme amplitude must be positive"):
        chattering_approximation(prog, bad, 4)


def test_program_json_literal():
    """Constant values in sorted rep order whatever the input order; an
    empty Constant stays a constant and a cancelled packet a packet."""
    prog = ForcingProgram({(1, 0), (1, 1), (2, 1)}, [
        Constant(0.25, {(1, 1): 0.5j, (1, 0): 1.0 - 2.0j}),
        Constant(0.5, {}),
        Zero(0.125),
        Oscillatory(0.5, 8.0, [((1, 0), 1, 0.25), ((1, 0), 1, -0.25)]),
        cascade_packet((2, 1), (1, 0), (1, 1), 0.25, 40.0, 0.5),
    ])
    assert program_to_json(prog) == (
        '{"support": [[-2, -1], [-1, -1], [-1, 0], [1, 0], [1, 1], [2, 1]], "segments": ['
        '{"kind": "constant", "duration": 0.25, "values": {"1,0": [1.0, -2.0], '
        '"-1,0": [1.0, 2.0], "1,1": [0.0, 0.5], "-1,-1": [0.0, -0.5]}}, '
        '{"kind": "constant", "duration": 0.5, "values": {}}, '
        '{"kind": "zero", "duration": 0.125}, '
        '{"kind": "oscillatory", "duration": 0.5, "omega": 8.0, "components": []}, '
        '{"kind": "oscillatory", "duration": 0.5, "omega": 50.26548245743669, "components": ['
        '{"mode": [1, 0], "harmonic": 1, "coeff": [0.5, 0.0]}, '
        '{"mode": [1, 0], "harmonic": 2, "coeff": [-0.5, 0.0]}, '
        '{"mode": [1, 1], "harmonic": -2, "coeff": [-0.5, 0.0]}, '
        '{"mode": [1, 1], "harmonic": -1, "coeff": [0.5, 0.0]}]}]}')


# ---------------------------------------------------------------------------
# compiled array form against the scalar closed forms

MIXED_SUPPORT = symmetrize({(1, 0), (1, 1), (2, 1), (0, 1)})
MIXED_MODES = sorted(MIXED_SUPPORT)
unit = st.floats(-1.0, 1.0)


@st.composite
def segments(draw):
    """One Constant, Zero, cosine bundle, general harmonic packet or
    cascade packet on MIXED_SUPPORT; modes may be given as -k."""
    duration = draw(st.floats(0.05, 1.0))
    omega = draw(st.floats(1.0, 300.0))
    kind = draw(st.sampled_from(["constant", "zero", "cos", "harmonics", "packet"]))
    modes = st.lists(st.sampled_from(MIXED_MODES), min_size=1, max_size=4)
    if kind == "constant":
        values = {}
        for k in draw(modes):
            v = complex(draw(unit), draw(unit))
            values[k], values[(-k[0], -k[1])] = v, v.conjugate()
        return Constant(duration, values)
    if kind == "zero":
        return Zero(duration)
    if kind == "cos":
        return Oscillatory.from_cos_pairs(duration, omega,
                                          [(k, draw(unit)) for k in draw(modes)],
                                          phase=draw(st.floats(-3.0, 3.0)))
    if kind == "harmonics":
        return Oscillatory(duration, omega, [
            (k, draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), complex(draw(unit), draw(unit)))
            for k in draw(modes)])
    return cascade_packet((2, 1), (1, 0), (1, 1), complex(draw(unit), draw(unit)),
                          omega, duration)


programs = st.lists(segments(), min_size=1, max_size=6).map(
    lambda segs: ForcingProgram(MIXED_SUPPORT, segs))


@given(programs, st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_channel_primitive_matches_scalar_primitive(prog, fractions):
    cmap = ChannelMap(MIXED_SUPPORT)
    times = np.concatenate([prog.starts, np.array(fractions) * prog.total_duration])
    got = prog.channel_primitive(times, cmap)
    want = np.array([oracle.channels(oracle.primitive(prog, t), cmap) for t in times])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@given(programs)
@settings(max_examples=50, deadline=None)
def test_channel_primitive_on_a_wider_channel_map(prog):
    wide = ChannelMap(MIXED_SUPPORT | symmetrize({(3, 1)}))
    got = prog.channel_primitive(prog.starts, wide)
    want = np.array([oracle.channels(oracle.primitive(prog, t), wide) for t in prog.starts])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@given(programs, st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_evaluate_and_primitive_match_the_oracle(prog, fractions):
    # one-time reads of the primitive inside each segment, and their central
    # difference against the forcing the segments describe: the difference
    # errs by at most h^2/6 sup|V'''| on a channel, plus rounding
    cmap, h = ChannelMap(MIXED_SUPPORT), 1e-5
    third = np.bincount(prog.comp_seg, np.abs(prog.coef) * np.abs(prog.freq) ** 3,
                        len(prog.durations))
    for i, (t0, duration) in enumerate(zip(prog.starts.tolist(), prog.durations.tolist())):
        for t in (t0 + f * duration for f in fractions):
            np.testing.assert_allclose(primitive_at(prog, t, cmap),
                                       oracle.channels(oracle.primitive(prog, t), cmap),
                                       rtol=0, atol=1e-12)
            slope = (primitive_at(prog, t + h, cmap) - primitive_at(prog, t - h, cmap)) / (2 * h)
            np.testing.assert_allclose(slope, oracle.channels(oracle.evaluate(prog, t), cmap),
                                       rtol=0, atol=h * h / 6 * third[i] + 1e-7)


def test_multi_segment_reads_match_one_time_reads_in_any_row_order():
    # the read groups its rows by segment: a row grouped under the wrong
    # segment, or given its terms in another order, changes its bits
    prog = ForcingProgram(MIXED_SUPPORT, [
        Constant(0.2, {(1, 0): 0.8 - 0.3j, (1, 1): 0.5j}),
        Zero(0.1),
        Oscillatory.from_cos_pairs(0.3, 150.0, [((1, 0), 0.4), ((1, 1), -0.3)], phase=0.3),
        Oscillatory(0.25, 120.0, [((1, 0), 1, 0.2 - 0.1j), ((1, 0), 2, 0.1j),
                                  ((1, 0), -3, 0.05), ((0, 1), -1, 0.15 + 0.05j),
                                  ((2, 1), 2, -0.1 + 0.2j)]),
        Oscillatory.from_cos_pairs(0.15, 90.0, [((2, 1), 0.7), ((1, 0), -0.2)]),
    ])
    times = np.concatenate([prog.starts, np.linspace(0.0, prog.total_duration, 41)[1:-1]])
    np.random.default_rng(3).shuffle(times)
    assert set(prog._locate(times)[0].tolist()) == set(range(5))
    rows = prog._read_at(*prog._locate(times))
    for t, row in zip(times.tolist(), rows):
        assert row.tobytes() == prog._read_at(*prog._locate(np.array([t])))[0].tobytes(), t


def loop_extremum_times(program):
    """Plain-loop enumeration of the candidate times, one at a time."""
    cands = list(program.starts)
    for i, seg in enumerate(program.segments):
        if not isinstance(seg, Oscillatory):
            continue
        for _, h, c in seg.components:
            w_eff = abs(h) * seg.omega
            n_half = int(w_eff * seg.duration / math.pi) + 2
            for fam in (0.5 * math.pi, 0.0):
                base = (fam - cmath.phase(c)) / w_eff
                for j in range(-1, n_half + 1):
                    t = base + j * math.pi / w_eff
                    if 0.0 <= t <= seg.duration:
                        cands.append(float(program.starts[i]) + t)
    return cands


@pytest.mark.parametrize("omega", [1e2, 1e3, 1e4])
def test_extremum_candidates_match_plain_loop(omega):
    prog = ForcingProgram(MIXED_SUPPORT, [
        Constant(0.3, {(1, 0): 0.5}),
        cascade_packet((2, 1), (1, 0), (1, 1), 0.4 - 0.7j, omega, 0.6),
        Oscillatory.from_cos_pairs(0.4, omega, [((0, 1), 0.2), ((2, 1), -0.1)], phase=0.3),
    ])
    got = np.sort(_boundary_and_extremum_times(prog))
    np.testing.assert_array_equal(got, np.sort(loop_extremum_times(prog)))


@st.composite
def hull_programs(draw):
    """Programs whose values stay in the l1 ball of radius A: constant and
    zero segments, plus slow cosine bundles scaled into the ball."""
    amplitude = draw(st.floats(0.5, 2.0))
    cmap = ChannelMap(PAIR_SUPPORT)
    segs = []
    for _ in range(draw(st.integers(1, 5))):
        duration = draw(st.floats(0.05, 1.0))
        kind = draw(st.sampled_from(["constant", "zero", "cos"]))
        if kind == "constant":
            vec = np.array([draw(unit) for _ in range(cmap.size)])
            scale = draw(st.floats(0.0, 1.0)) * amplitude / max(np.abs(vec).sum(), 1e-12)
            segs.append(Constant(duration, cmap.vector_to_rep_coeffs(vec * scale)))
        elif kind == "zero":
            segs.append(Zero(duration))
        else:
            omega = draw(st.floats(1.0, 30.0))
            # the hull check bounds this bundle by 2 sqrt(2) amp w
            amp = draw(st.floats(0.0, 1.0)) * amplitude / (2.0 * math.sqrt(2.0) * omega)
            segs.append(Oscillatory.from_cos_pairs(duration, omega,
                                                   [((1, 0), amp), ((1, 1), -amp)]))
    return ForcingProgram(PAIR_SUPPORT, segs), amplitude


@given(hull_programs(), st.integers(1, 60), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_chattering_bound_on_random_programs(drawn, windows, slack):
    prog, amplitude = drawn
    out = chattering_approximation(prog, amplitude, windows, slack)
    assert out.is_piecewise_constant()
    bound = 2.0 * amplitude * math.sqrt(len(PAIR_SUPPORT)) * prog.total_duration / windows
    assert relaxation_distance(out, prog) <= bound + 1e-12
    # each window's primitive increment is kept exactly
    cmap = ChannelMap(PAIR_SUPPORT)
    edges = np.linspace(0.0, prog.total_duration, windows + 1)
    np.testing.assert_allclose(out.channel_primitive(edges, cmap),
                               prog.channel_primitive(edges, cmap), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# array-built chattering and the batched refinement against the
# segment-at-a-time oracles they replaced


def segment_built_chattering(program, amplitude, windows, slack_channel=0):
    """Chattering emitted one Constant per run through ForcingProgram, as
    it was before programs were built from arrays."""
    cmap = ChannelMap(program.support)
    T = program.total_duration
    edges = np.linspace(0.0, T, windows + 1)
    t_w = np.diff(edges)[:, None]
    vbar = np.diff(program.channel_primitive(edges, cmap), axis=0) / t_w
    dur = np.abs(vbar) / amplitude * t_w
    dur[dur <= 1e-15 * max(1.0, T)] = 0.0
    slack = t_w - dur.sum(axis=1, keepdims=True)
    half = np.where(slack > 1e-14 * max(1.0, T), slack / 2.0, 0.0)
    slack_key = np.full_like(half, slack_channel + 1)
    key = np.hstack([np.sign(vbar) * np.arange(1, cmap.size + 1), slack_key, -slack_key])
    dur = np.hstack([dur, half, half]).ravel()
    key = key.ravel()[dur > 0].astype(int)
    dur = dur[dur > 0]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    segments = []
    for k, d in zip(key[first].tolist(), np.add.reduceat(dur, first).tolist()):
        rep, part = cmap.channel(abs(k) - 1)
        value = math.copysign(amplitude, k)
        segments.append(Constant(d, {rep: complex(value) if part == "re" else 1j * value}))
    return ForcingProgram(program.support, segments)


def segment_bits(program):
    """Kind, duration and values of every segment, signed zeros included."""
    return [(type(s).__name__, s.duration.hex(),
             sorted((k, v.real.hex(), v.imag.hex()) for k, v in getattr(s, "values", {}).items()))
            for s in program.segments]


@given(programs, st.integers(1, 60), st.integers(0, 7), st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=120, deadline=None)
def test_array_built_chattering_matches_segment_oracle(prog, windows, slack, fractions):
    amplitude = max(prog.value_l1_bound(), 0.5)
    got = chattering_approximation(prog, amplitude, windows, slack)
    want = segment_built_chattering(prog, amplitude, windows, slack)
    assert got.is_piecewise_constant()
    assert "segments" not in vars(got)          # the check reads the arrays only
    np.testing.assert_array_equal(got.starts, want.starts)
    cmap = ChannelMap(MIXED_SUPPORT)
    times = np.concatenate([want.starts, np.array(fractions) * prog.total_duration])
    np.testing.assert_array_equal(got.channel_primitive(times, cmap),
                                  want.channel_primitive(times, cmap))
    assert segment_bits(got) == segment_bits(want)


def bounded_search_distance(f, g, grid=4096):
    """The relaxation distance with one bounded scalar search per
    candidate bracket, as it was before the batched zoom."""
    T = f.total_duration
    cmap = ChannelMap(f.support | g.support)

    def dist_many(ts):
        diff = f.channel_primitive(ts, cmap) - g.channel_primitive(ts, cmap)
        return np.sqrt((diff * diff).sum(axis=1))

    cands = np.unique(np.concatenate([np.linspace(0.0, T, grid + 1),
                                      np.clip(_boundary_and_extremum_times(f), 0, T),
                                      np.clip(_boundary_and_extremum_times(g), 0, T)]))
    vals = dist_many(cands)
    best = float(vals.max())
    for i in np.argsort(vals)[::-1][:8]:
        lo, hi = cands[max(i - 1, 0)], cands[min(i + 1, len(cands) - 1)]
        if hi - lo <= 1e-14 * max(1.0, T):
            continue
        res = optimize.minimize_scalar(lambda t: -dist_many(np.array([t]))[0],
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-13 * max(1.0, T)})
        best = max(best, float(-res.fun))
    return best


small_modes = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda k: k != (0, 0))
generating_pairs = st.tuples(small_modes, small_modes).filter(lambda p: admissible_pair(*p))


@st.composite
def fast_packets(draw):
    """One cosine bundle or cascade packet with base frequency in [1e2, 1e4]."""
    omega = draw(st.floats(1e2, 1e4))
    duration = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        m, n = draw(generating_pairs)
        seg = cascade_packet((m[0] + n[0], m[1] + n[1]), m, n,
                             complex(draw(unit), draw(unit)), omega, duration)
        return ForcingProgram(symmetrize({m, n}), [seg])
    modes = draw(st.lists(st.sampled_from(MIXED_MODES), min_size=1, max_size=3))
    seg = Oscillatory.from_cos_pairs(duration, omega, [(k, draw(unit)) for k in modes],
                                     phase=draw(st.floats(-3.0, 3.0)))
    return ForcingProgram(MIXED_SUPPORT, [seg])


@given(fast_packets())
@settings(max_examples=40, deadline=None)
def test_batched_refinement_matches_bounded_search_on_packets(prog):
    zero = zero_program(prog.total_duration, prog.support)
    got, want = relaxation_distance(prog, zero), bounded_search_distance(prog, zero)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("omega", [1e2, 1e3, 1e4])
def test_batched_refinement_matches_bounded_search_on_closed_forms(omega):
    m, n, target = (1, 0), (1, 1), 0.3 - 0.4j
    cases = [
        (Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), omega ** -0.5)]), SINGLE,
         omega ** -0.5),
        (cascade_packet((2, 1), m, n, target, omega, 1.0), symmetrize({m, n}),
         2.0 * math.sqrt(2.0) * math.sqrt(abs(target) / (2.0 * abs(
             wedge(m, n) * (1.0 / norm_sq(m) - 1.0 / norm_sq(n)))))),
    ]
    for seg, support, closed in cases:
        f, zero = ForcingProgram(support, [seg]), zero_program(1.0, support)
        got, want = relaxation_distance(f, zero), bounded_search_distance(f, zero)
        assert abs(got - want) <= 1e-12 * want
        assert got == pytest.approx(closed, rel=1e-9)


@given(programs, unit, unit)
@settings(max_examples=30, deadline=None)
def test_batched_refinement_never_below_bounded_search(prog, re, im):
    # mixed programs: the zoom keeps its bracket's best sample, so it
    # finds at least the bounded search's local maximum
    other = constant_program(MIXED_SUPPORT, {(1, 0): complex(re, im)}, prog.total_duration)
    assert relaxation_distance(prog, other) >= bounded_search_distance(prog, other) * (1 - 1e-14)


@given(generating_pairs, unit, unit, st.floats(1.0, 1e4), st.floats(0.05, 2.0))
@example(((0, 1), (2, 0)), 0.0, 5e-324, 1.0, 1.0)     # the drive underflows to zero
@settings(max_examples=100, deadline=None)
def test_cascade_packet_primitives_close_at_segment_end(pair, re, im, omega, duration):
    m, n = pair
    seg = cascade_packet((m[0] + n[0], m[1] + n[1]), m, n, complex(re, im), omega, duration)
    prog = ForcingProgram(symmetrize(pair), [seg])
    end = prog.channel_primitive(np.array([duration]), ChannelMap(prog.support))
    if isinstance(seg, Zero):
        assert not end.any()
        return
    # the snapped phase 2 w T is a whole number of turns up to its rounding
    amp = max(abs(c) for _, _, c in seg.components)
    tol = 8 * np.finfo(float).eps * 2 * seg.omega * duration * amp
    assert np.abs(end).max() <= tol


@given(programs, st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_program_json_round_trip_property(prog, windows):
    text = program_to_json(prog)
    back = program_from_json(text)
    assert program_to_json(back) == text            # a loaded program saves unchanged
    assert back.support == prog.support
    assert [(type(s), s.duration, getattr(s, "omega", None)) for s in back.segments] == \
        [(type(s), s.duration, getattr(s, "omega", None)) for s in prog.segments]
    cmap = ChannelMap(MIXED_SUPPORT)
    ts = np.linspace(0.0, prog.total_duration, 257)
    # every packet is written as its components, so the reads are exact
    np.testing.assert_array_equal(back.channel_primitive(ts, cmap),
                                  prog.channel_primitive(ts, cmap))
    chattered = chattering_approximation(prog, max(prog.value_l1_bound(), 0.5), windows)
    text = program_to_json(chattered)
    again = program_from_json(text)
    assert program_to_json(again) == text
    assert segment_bits(again) == segment_bits(chattered)
