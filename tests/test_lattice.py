"""Lattice mode algebra: wedge products, level iteration, saturation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecascade.lattice import (admissible_pair, ball, chain_to_json, check_mode,
                                 find_generating_pair,
                                 is_saturating_symmetric, is_symmetric,
                                 next_level, norm_sq, parse_mode_set,
                                 saturation_chain, symmetrize, wedge)

FOUR_MODES = frozenset({(1, 0), (-1, 0), (1, 1), (-1, -1)})
UNIT_MODES = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})


def brute_next_level(modes):
    """Independent enumeration over all ordered pairs."""
    out = set(modes)
    for m in modes:
        for n in modes:
            if m == n:
                continue
            if norm_sq(m) != norm_sq(n) and wedge(m, n) != 0:
                s = (m[0] + n[0], m[1] + n[1])
                if s != (0, 0):
                    out.add(s)
    return frozenset(out)


# ---------------------------------------------------------------------------
# wedge / admissibility


def test_wedge_hand_values():
    assert wedge((1, 0), (1, 1)) == 1
    assert wedge((1, 0), (2, 0)) == 0
    assert wedge((2, 1), (1, 2)) == 3


def test_wedge_antisymmetric():
    assert wedge((3, -2), (1, 4)) == -wedge((1, 4), (3, -2))


def test_admissible_pairs():
    assert admissible_pair((1, 0), (1, 1))
    assert not admissible_pair((1, 0), (0, 1))      # equal lengths
    assert not admissible_pair((1, 1), (2, 2))      # collinear


def test_zero_mode_rejected():
    with pytest.raises(ValueError):
        check_mode((0, 0))


# ---------------------------------------------------------------------------
# level iteration


def test_next_level_four_modes():
    expected = FOUR_MODES | {(2, 1), (-2, -1), (0, 1), (0, -1)}
    assert next_level(FOUR_MODES) == expected
    assert next_level(FOUR_MODES) == brute_next_level(FOUR_MODES)


def test_next_level_collinear_fixed_point():
    k = frozenset({(1, 0), (-1, 0)})
    assert next_level(k) == k


def test_next_level_empty():
    assert next_level(frozenset()) == frozenset()


def test_saturation_chain_four_modes_radius3():
    chain = saturation_chain(FOUR_MODES, radius=3, max_levels=10)
    assert chain.status == "covered"
    assert chain.covered_radius == 3
    assert ball(3) <= chain.top


def test_saturation_chain_collinear_stationary():
    chain = saturation_chain({(1, 0), (-1, 0)}, radius=2, max_levels=10)
    assert chain.status == "stationary"
    assert chain.covered_radius == 0
    assert len(chain.levels) == 1


def test_saturation_chain_unit_lengths_stationary():
    chain = saturation_chain(UNIT_MODES, radius=2, max_levels=10)
    assert chain.status == "stationary"
    assert chain.top == UNIT_MODES


def test_saturation_chain_budget():
    chain = saturation_chain(FOUR_MODES, radius=10, max_levels=2)
    assert chain.status == "budget"


def test_is_saturating_symmetric():
    assert is_saturating_symmetric(FOUR_MODES) is True
    assert is_saturating_symmetric(UNIT_MODES) is False
    with pytest.raises(ValueError, match="asymmetric"):
        is_saturating_symmetric({(1, 0), (1, 1)})


def test_saturation_requires_full_integer_span():
    # non-collinear pair of different lengths, but the chain stays inside
    # the even-x sublattice and can never reach (1, 0)
    sub = symmetrize({(0, 1), (2, 0)})
    assert is_saturating_symmetric(sub) is False
    chain = saturation_chain(sub, radius=3, max_levels=64)
    assert chain.status == "stationary"
    assert (1, 0) not in chain.top


def test_find_generating_pair():
    assert find_generating_pair((2, 1), FOUR_MODES) == ((1, 0), (1, 1))
    assert find_generating_pair((0, 1), FOUR_MODES) == ((-1, 0), (1, 1))
    with pytest.raises(ValueError, match="no generating pair"):
        find_generating_pair((3, 0), FOUR_MODES)


# ---------------------------------------------------------------------------
# properties

modes_strategy = st.frozensets(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda k: k != (0, 0)),
    min_size=1, max_size=8)


@given(modes_strategy)
@settings(max_examples=100, deadline=None)
def test_next_level_monotone(k):
    assert k <= next_level(k)


@given(modes_strategy)
@settings(max_examples=100, deadline=None)
def test_next_level_matches_brute_force(k):
    assert next_level(k) == brute_next_level(k)


@given(modes_strategy)
@settings(max_examples=100, deadline=None)
def test_symmetry_preserved(k):
    sym = symmetrize(k)
    assert is_symmetric(next_level(sym))


@given(modes_strategy)
@settings(max_examples=50, deadline=None)
def test_generating_pair_postconditions(k):
    grown = next_level(k)
    for new in sorted(grown - k):
        m, n = find_generating_pair(new, k)
        assert (m[0] + n[0], m[1] + n[1]) == new
        assert admissible_pair(m, n)
        assert m in k and n in k


@given(modes_strategy)
@settings(max_examples=25, deadline=None)
def test_saturating_sets_cover_balls(k):
    sym = symmetrize(k)
    if is_saturating_symmetric(sym):
        for radius in (3, 6):
            chain = saturation_chain(sym, radius=radius, max_levels=64)
            assert chain.status == "covered"


def test_prop_consistency_radius_ten():
    # saturating symmetric seeds must cover every ball up to radius 10
    for seed in (FOUR_MODES, symmetrize({(1, 0), (2, 1)})):
        assert is_saturating_symmetric(seed)
        chain = saturation_chain(seed, radius=10, max_levels=64)
        assert chain.status == "covered"


# ---------------------------------------------------------------------------
# serialization


def test_mode_set_text_round_trip():
    text = "".join("%d %d\n" % k for k in sorted(FOUR_MODES))
    assert parse_mode_set(text) == FOUR_MODES
    with_comments = "# controlled modes\n1 0\n-1 0  # opposite\n\n1 1\n-1 -1\n"
    assert parse_mode_set(with_comments) == FOUR_MODES


def test_mode_set_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_mode_set("1\n")
    with pytest.raises(ValueError):
        parse_mode_set("0 0\n")


@pytest.mark.parametrize("call,message", [
    (lambda: saturation_chain(FOUR_MODES, radius=0), "radius must be >= 1"),
    (lambda: saturation_chain(FOUR_MODES, radius=3, max_levels=0), "max_levels must be >= 1"),
    (lambda: parse_mode_set("1 x\n"), "line 1: non-integer component in '1 x'"),
], ids=["radius", "max_levels", "component"])
def test_lattice_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_chain_json_schema_and_round_trip():
    chain = saturation_chain(FOUR_MODES, radius=3, max_levels=10)
    data = json.loads(chain_to_json(chain))
    assert set(data) == {"levels", "covered_radius", "status"}
    assert (data["status"], data["covered_radius"]) == ("covered", 3)
    assert data["levels"] == [sorted(map(list, level)) for level in chain.levels]


# the single vectorized path on sets larger than the strategy above draws
large_modes = st.frozensets(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(lambda k: k != (0, 0)),
    min_size=49, max_size=200)


@given(large_modes, st.sampled_from(["asymmetric", "symmetric", "far mode"]))
@settings(max_examples=30, deadline=None)
def test_next_level_matches_brute_force_on_large_sets(k, shape):
    if shape == "symmetric":
        k = symmetrize(k)          # holds k and -k, whose sum is zero
    elif shape == "far mode":
        k = k | {(10 ** 6, 3)}
    assert next_level(k) == brute_next_level(k)


def test_next_level_exact_at_the_largest_components():
    big = 2 ** 29 - 1
    k = frozenset({(big, 1), (-big, 2), (3, -big), (1, 1), (-1, -1)})
    assert next_level(k) == brute_next_level(k)
    with pytest.raises(ValueError, match="below 2"):
        next_level(k | {(2 ** 29, 0)})


# ---------------------------------------------------------------------------
# compact chains


def plain_chain(seed, radius, max_levels):
    """saturation_chain as plain next_level frozensets: (levels, status,
    covered_radius)."""
    extent = max((norm_sq(k) for k in seed), default=1)
    clip = ball(2 * max(radius, int(extent ** 0.5) + 1)) | seed
    levels, status = [frozenset(seed)], "budget"
    while not ball(radius) <= levels[-1]:
        if len(levels) > max_levels:
            break
        grown = next_level(levels[-1]) & clip
        if grown == levels[-1]:
            status = "stationary"
            break
        levels.append(grown)
    else:
        status = "covered"
    covered = max(r for r in range(radius + 1) if ball(r) <= levels[-1])
    return levels, status, covered


def assert_compact_chain_matches_plain_iteration(k, radius, max_levels):
    chain = saturation_chain(k, radius=radius, max_levels=max_levels)
    levels, status, covered = plain_chain(k, radius, max_levels)
    assert chain.levels == tuple(levels)
    assert (chain.status, chain.covered_radius) == (status, covered)
    assert chain.top == levels[-1]
    for j, level in enumerate(levels):
        assert chain.level_containing(level) == j
    fresh = [sorted(level - prev) for prev, level in zip([frozenset()] + levels, levels)]
    modes = np.array([k for new in fresh for k in new]).reshape(-1, 2)
    first = np.repeat(np.arange(len(fresh)), [len(new) for new in fresh])
    assert (chain.modes.dtype, chain.first_level.dtype) == (np.int32, np.uint8)
    assert np.array_equal(chain.modes, modes)
    assert np.array_equal(chain.first_level, first)


@given(modes_strategy, st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_compact_chain_matches_plain_iteration(k, radius, max_levels):
    assert_compact_chain_matches_plain_iteration(k, radius, max_levels)


# the seed pairs of the seed-7 control_algebra bench rounds 0 and 1: index 1
# pairs cover the ball, index 2 pairs stop growing on a sublattice
BENCH_PAIRS = [((-1, 0), (-1, -1)), ((1, -1), (0, -2)), ((1, -1), (1, 0)),
               ((0, 2), (-1, 0)), ((0, 1), (1, 2)), ((0, 1), (2, 0)),
               ((0, -1), (1, -2)), ((-2, 2), (2, -1)), ((1, -2), (-1, 1)),
               ((-2, -2), (0, -1)), ((0, 1), (-1, 1)), ((1, 2), (-1, 0))]


@pytest.mark.parametrize("radius", [4, 6, 8])
def test_compact_chain_matches_plain_iteration_on_bench_pairs(radius):
    statuses = set()
    for pair in BENCH_PAIRS:
        assert_compact_chain_matches_plain_iteration(symmetrize(pair), radius, 32)
        statuses.add(saturation_chain(symmetrize(pair), radius, 32).status)
    assert statuses == {"covered", "stationary"}
