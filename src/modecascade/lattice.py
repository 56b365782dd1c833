"""Integer-lattice mode algebra for the forced vorticity system.

Modes are points of Z^2 \\ {0}, addressed as plain ``(kx, ky)`` tuples.
This module provides the wedge product, the admissible-pair test, the
level iteration K -> next_level(K), saturation decisions for symmetric
sets, and the generating-pair lookup used by the mode-cascade control
synthesis.  All norm comparisons are exact integer arithmetic on
``kx^2 + ky^2``; no floating point is involved anywhere here.

``next_level`` encodes modes as int64 keys kx*B + ky with B = 4 max|k| + 1:
keys add like modes and sums decode exactly, so one np.unique dedups.
``saturation_chain`` does not call it: it holds its levels on a boolean
grid over the working ball and sums only the pairs with a mode fresh at
the previous level, which gives the same levels; ``next_level`` stays as
their one-step definition, against which the tests check the chain.

Vorticity and forcing are real fields on T^2, so every coefficient map
obeys v(-k) = conj(v(k)) and is stored on the canonical representative
of each {k, -k} pair (``canonical_rep``).  ``fold_conjugate`` is the one
place a map given on either member is checked and folded onto the
representatives; ``unfold_conjugate`` expands it back to both members.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

Mode = tuple[int, int]


def check_mode(k: Mode) -> Mode:
    """Validate a lattice mode: integer components, not the zero mode."""
    kx, ky = k
    if kx == 0 and ky == 0:
        raise ValueError("zero mode is not a valid forcing/vorticity mode")
    return (int(kx), int(ky))


def norm_sq(k: Mode) -> int:
    return k[0] * k[0] + k[1] * k[1]


def wedge(m: Mode, n: Mode) -> int:
    """External product m1*n2 - m2*n1; antisymmetric in its arguments."""
    return m[0] * n[1] - m[1] * n[0]


def admissible_pair(m: Mode, n: Mode) -> bool:
    """True iff m, n are non-collinear and have different Euclidean lengths.

    These are exactly the pairs whose quadratic interaction coefficient
    wedge(m, n) * (|m|^-2 - |n|^-2) is nonzero, so only they can feed a
    new mode m+n through the nonlinearity.
    """
    return norm_sq(m) != norm_sq(n) and wedge(m, n) != 0


def neg(k: Mode) -> Mode:
    return (-k[0], -k[1])


def is_symmetric(modes: Iterable[Mode]) -> bool:
    s = frozenset(modes)
    return all(neg(k) in s for k in s)


def symmetrize(modes: Iterable[Mode]) -> frozenset[Mode]:
    s = set()
    for k in modes:
        k = check_mode(k)
        s.add(k)
        s.add(neg(k))
    return frozenset(s)


def canonical_rep(k: Mode) -> Mode:
    """Canonical representative of the pair {k, -k}: upper half-plane,
    positive x-axis included."""
    kx, ky = check_mode(k)
    if ky > 0 or (ky == 0 and kx > 0):
        return (kx, ky)
    return (-kx, -ky)


def rep_modes(modes: Iterable[Mode]) -> tuple[Mode, ...]:
    """Sorted canonical representatives of a symmetric mode set."""
    return tuple(sorted({canonical_rep(k) for k in modes}))


def fold_conjugate(values: Mapping[Mode, complex], rtol: float,
                   what: str) -> dict[Mode, complex]:
    """Fold a map v(k) of a real field onto canonical representatives.

    An entry on -k is conjugated onto k.  A pair given on both members
    must satisfy |v(k) - conj(v(-k))| <= rtol * max(1, |v|), else
    ValueError names ``what``.  Zero values are dropped.
    """
    out: dict[Mode, complex] = {}
    for k, v in values.items():
        k = check_mode(k)
        r = canonical_rep(k)
        val = complex(v) if k == r else complex(v).conjugate()
        if r not in out:
            out[r] = val
        elif abs(out[r] - val) > rtol * max(1.0, abs(val)):
            raise ValueError("asymmetric %s: v(-k) is not the conjugate of v(k) at %s"
                             % (what, k))
    return {r: v for r, v in out.items() if v != 0}


def unfold_conjugate(values: Mapping[Mode, complex]) -> dict[Mode, complex]:
    """Expand a representative map to both members: v(-k) = conj(v(k))."""
    out: dict[Mode, complex] = {}
    for r, v in values.items():
        out[r] = v
        out[neg(r)] = v.conjugate()
    return out


@lru_cache(maxsize=None)
def ball(radius: int) -> frozenset[Mode]:
    """All modes k with 1 <= |k|^2 <= radius^2; cached, so users share tuples."""
    if radius < 1:
        return frozenset()
    r2 = radius * radius
    out = set()
    for kx in range(-radius, radius + 1):
        for ky in range(-radius, radius + 1):
            if 0 < kx * kx + ky * ky <= r2:
                out.add((kx, ky))
    return frozenset(out)


def next_level(modes: Iterable[Mode]) -> frozenset[Mode]:
    """One step of the level iteration.

    Returns K together with every nonzero sum m+n over admissible pairs
    m, n in K.  The result always contains K, so iterating is monotone.
    """
    k_set = frozenset(check_mode(k) for k in modes)
    extent = max((max(abs(kx), abs(ky)) for kx, ky in k_set), default=0)
    if extent >= 2 ** 29:       # keeps every key, norm and wedge inside int64
        raise ValueError("mode components must stay below 2**29")
    arr = np.array(list(k_set), dtype=np.int64).reshape(-1, 2)
    kx, ky = arr[:, 0], arr[:, 1]
    norms = kx * kx + ky * ky
    i, j = np.triu_indices(len(arr), 1)
    ok = (norms[i] != norms[j]) & (kx[i] * ky[j] != ky[i] * kx[j])
    # sums have components in [-2 extent, 2 extent], so base 4 extent + 1
    # decodes them exactly; an admissible pair never sums to zero (n = -m
    # is collinear)
    base = 4 * extent + 1
    keys = kx * base + ky
    sums = np.unique(keys[i[ok]] + keys[j[ok]]) + 2 * extent
    sx, sy = np.divmod(sums, base)
    return k_set | frozenset(zip(sx.tolist(), (sy - 2 * extent).tolist()))


class SaturationChain:
    """Monotone sequence of mode-set levels with a termination status.

    ``levels[0]`` is the seed set of controlled modes; each further
    entry is ``next_level`` of the previous one.  ``status`` is one of
    "covered" (every mode of the requested ball reached), "stationary"
    (the iteration stopped growing before covering the ball, which is
    definitive within that ball) or "budget" (level budget exhausted,
    inconclusive).  ``covered_radius`` is the largest integer r not
    exceeding the requested radius with ball(r) inside the top level.

    Built by ``saturation_chain`` from ``modes`` (n, 2), the top level with
    each level's fresh modes in lexicographic order, level after level, and
    ``counts``, the number each level adds.  ``first_level`` holds each
    mode's level; ``levels`` rebuilds the nested frozensets.
    """

    __slots__ = ("modes", "first_level", "depth", "status", "covered_radius")

    def __init__(self, modes: np.ndarray, counts: list[int], status: str,
                 covered_radius: int):
        # int32 holds any mode: saturation_chain allocates a (2W+1)^2 grid holding |k| <= W
        self.modes = modes.astype(np.int32)
        self.first_level = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))),
                                     counts)
        self.depth, self.status, self.covered_radius = len(counts), status, covered_radius

    @property
    def levels(self) -> tuple[frozenset[Mode], ...]:
        modes = list(map(tuple, self.modes.tolist()))
        ends = np.searchsorted(self.first_level, np.arange(self.depth), side="right")
        return tuple(frozenset(modes[:e]) for e in ends.tolist())

    @property
    def top(self) -> frozenset[Mode]:
        return frozenset(map(tuple, self.modes.tolist()))

    def level_containing(self, modes: Iterable[Mode]) -> int:
        """Index of the first level containing every given mode."""
        need = frozenset(check_mode(k) for k in modes)
        for j, level in enumerate(self.levels):
            if need <= level:
                return j
        raise ValueError("chain too shallow: modes %s not covered by any level"
                         % sorted(need - self.top))


def saturation_chain(k1: Iterable[Mode], radius: int, max_levels: int = 32) -> SaturationChain:
    """Iterate next_level until the radius ball is covered, the chain is
    stationary, or the level budget runs out.

    The iteration is restricted to a working ball of radius
    W = 2 * max(radius, floor(max |k| over the seed) + 1): new sums outside
    it are discarded, which keeps runtimes bounded.  A "covered" verdict
    is always sound; "stationary" means no further progress is possible
    using modes inside the working ball.

    The levels live on a boolean grid over |kx|, |ky| <= W, which holds
    the seed.  A level adds the in-ball sums of the admissible pairs with
    at least one mode fresh at the previous level; a sum of two older
    modes is already held or lies outside the ball, so this is next_level
    exactly.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    seed = frozenset(check_mode(k) for k in k1)
    extent = max((norm_sq(k) for k in seed), default=1)
    w = 2 * max(radius, int(extent ** 0.5) + 1)
    axis = np.arange(-w, w + 1)
    r2 = axis[:, None] ** 2 + axis ** 2
    in_ball = (r2 <= w * w) & (r2 > 0)
    in_target = (r2 <= radius * radius) & (r2 > 0)
    fresh = np.array(sorted(seed), dtype=np.int64).reshape(-1, 2)
    held = np.zeros(in_ball.shape, dtype=bool)
    held[fresh[:, 0] + w, fresh[:, 1] + w] = True
    modes, counts = [fresh], [len(fresh)]
    status = "budget"
    for _ in range(max_levels):
        if not (in_target & ~held).any():
            status = "covered"
            break
        every = np.concatenate(modes)
        fx, fy, ax, ay = fresh[:, :1], fresh[:, 1:], every[:, 0], every[:, 1]
        sx, sy = fx + ax, fy + ay
        ok = ((fx * fx + fy * fy != ax * ax + ay * ay) & (fx * ay != fy * ax)
              & (np.abs(sx) <= w) & (np.abs(sy) <= w))
        reached = np.zeros_like(held)
        reached[sx[ok] + w, sy[ok] + w] = True
        new = reached & in_ball & ~held
        if not new.any():
            status = "stationary"
            break
        held |= new
        fresh = np.stack(np.nonzero(new), axis=1) - w     # lexicographic, like sorted()
        modes.append(fresh)
        counts.append(len(fresh))
    missing = r2[in_target & ~held]
    if not missing.size:
        status = "covered"
    covered = math.isqrt(int(missing.min(initial=radius * radius + 1)) - 1)
    return SaturationChain(np.concatenate(modes), counts, status, covered)


def _generates_full_lattice(members: list[Mode]) -> bool:
    """Whether the integer span of the set is all of Z^2: the gcd of all
    pairwise wedge products must be 1 (Smith-form index of the sublattice)."""
    g = 0
    for i, m in enumerate(members):
        for n in members[i + 1:]:
            g = math.gcd(g, abs(wedge(m, n)))
            if g == 1:
                return True
    return g == 1


def is_saturating_symmetric(k1: Iterable[Mode]) -> bool:
    """Saturation test for symmetric sets.

    True iff the set contains two non-collinear members of different
    lengths and its integer span is all of Z^2.  The span condition is
    necessary: every sum the iteration can form stays inside the
    sublattice generated by the seed, so e.g. {(0,1),(0,-1),(2,0),(-2,0)}
    never reaches odd first components despite holding a non-collinear
    pair of different lengths.

    Only valid for symmetric sets (k in K implies -k in K); asymmetric
    input raises ValueError.
    """
    s = frozenset(check_mode(k) for k in k1)
    if not is_symmetric(s):
        raise ValueError("asymmetric set: saturation test requires k in K => -k in K")
    members = sorted(s)
    has_pair = any(admissible_pair(m, n)
                   for i, m in enumerate(members) for n in members[i + 1:])
    return has_pair and _generates_full_lattice(members)


def find_generating_pair(k: Mode, modes: Iterable[Mode]) -> tuple[Mode, Mode]:
    """Deterministic admissible decomposition k = m + n with m, n in the
    given set; smallest m in lexicographic order wins."""
    k = check_mode(k)
    k_set = frozenset(check_mode(j) for j in modes)
    for m in sorted(k_set):
        n = (k[0] - m[0], k[1] - m[1])
        if n == (0, 0) or n not in k_set:
            continue
        if admissible_pair(m, n):
            return m, n
    raise ValueError("no generating pair: %s is not an admissible sum over the set" % (k,))


# ---------------------------------------------------------------------------
# text / JSON formats

def parse_mode_set(text: str) -> frozenset[Mode]:
    """Parse the one-mode-per-line "kx ky" format; '#' starts a comment."""
    out = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("line %d: expected 'kx ky', got %r" % (lineno, raw))
        try:
            k = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError("line %d: non-integer component in %r" % (lineno, raw)) from exc
        try:
            out.add(check_mode(k))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return frozenset(out)


def chain_to_json(chain: SaturationChain, indent: int | None = None) -> str:
    return json.dumps({
        "levels": [[list(k) for k in sorted(level)] for level in chain.levels],
        "covered_radius": chain.covered_radius,
        "status": chain.status,
    }, indent=indent)
