"""Conjugate folding of real-field mode maps: one fold, two callers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecascade.forcing import Constant, ForcingProgram
from modecascade.integrator import _segment_evaluator
from modecascade.lattice import (ball, fold_conjugate, neg, rep_modes, symmetrize,
                                unfold_conjugate)
from modecascade.spectral import SpectralState, _tables

RADIUS = 4
REPS = rep_modes(ball(RADIUS))

coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                           allow_infinity=False).filter(lambda v: v != 0)


@st.composite
def rep_maps(draw):
    reps = draw(st.lists(st.sampled_from(REPS), min_size=1, max_size=8, unique=True))
    return {r: draw(coeff) for r in reps}


@st.composite
def mixed_maps(draw):
    """A rep map and the same map with each entry on k or -k at random."""
    values = draw(rep_maps())
    mixed = {}
    for r, v in values.items():
        if draw(st.booleans()):
            mixed[r] = v
        else:
            mixed[neg(r)] = v.conjugate()
    return values, mixed


def via_state(values):
    return SpectralState.from_coeffs(values, RADIUS).data


def via_constant(values):
    # the primitive of a unit-duration constant segment at its end is its value
    program = ForcingProgram(symmetrize(values), [Constant(1.0, values)])
    return _segment_evaluator(program, 0, _tables(RADIUS))(np.array([1.0]))[0]


@given(rep_maps())
@settings(max_examples=100, deadline=None)
def test_fold_inverts_unfold(values):
    assert fold_conjugate(unfold_conjugate(values), 1e-12, "state") == values


@given(mixed_maps())
@settings(max_examples=50, deadline=None)
def test_state_forcing_and_constant_fold_alike(maps):
    values, mixed = maps
    tab = _tables(RADIUS)
    want = np.zeros(tab.n_reps, dtype=complex)
    for r, v in values.items():
        want[tab.rep_index[r]] = v
    for build in (via_state, via_constant):
        np.testing.assert_array_equal(build(mixed), want)


@given(rep_maps(), st.data())
@settings(max_examples=50, deadline=None)
def test_asymmetric_pair_raises_everywhere(values, data):
    r = data.draw(st.sampled_from(sorted(values)))
    bad = dict(values)
    bad[neg(r)] = values[r].conjugate() + 1e-6 * max(1.0, abs(values[r])) * 1j
    with pytest.raises(ValueError, match="conjugate"):
        via_state(bad)
    with pytest.raises(ValueError, match="asymmetric forcing"):
        via_constant(bad)
