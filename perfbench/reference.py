"""Independent references the benchmark checks the package against.

Nothing here imports modecascade.  The mode enumeration, the quadratic
term and the saturation-chain checks are written out from their
definitions, so a defect shared with the package cannot hide, and any
future backend of the quadratic term is gated by the same naive sum.
"""

from __future__ import annotations

import numpy as np


def canonical_reps(radius: int) -> np.ndarray:
    """(n, 2) array of one mode per {k, -k} pair of 1 <= |k|^2 <= R^2:
    ky > 0, or ky == 0 and kx > 0."""
    r = np.arange(-radius, radius + 1)
    kx, ky = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    n2 = kx * kx + ky * ky
    keep = (n2 >= 1) & (n2 <= radius * radius) & ((ky > 0) | ((ky == 0) & (kx > 0)))
    return np.stack([kx[keep], ky[keep]], axis=1)


class _Lookup:
    """Dense grid from lattice point to its position in a mode list (-1 if absent)."""

    def __init__(self, modes: np.ndarray):
        self.extent = int(np.abs(modes).max()) if len(modes) else 0
        width = 2 * self.extent + 1
        self.grid = np.full((width, width), -1, dtype=np.int64)
        self.grid[modes[:, 0] + self.extent, modes[:, 1] + self.extent] = np.arange(len(modes))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        inside = (np.abs(points) <= self.extent).all(axis=-1)
        out = np.full(points.shape[:-1], -1, dtype=np.int64)
        p = points[inside]
        out[inside] = self.grid[p[:, 0] + self.extent, p[:, 1] + self.extent]
        return out


def _pairs(reps: np.ndarray, rows: int = 64):
    """Per block of representatives k: every m of the full ball with its
    partner n = k - m, where the partner's position is -1 outside the ball."""
    modes = np.concatenate([reps, -reps])
    where = _Lookup(modes)
    for lo in range(0, len(reps), rows):
        k = reps[lo:lo + rows]
        n = k[:, None, :] - modes[None, :, :]
        yield lo, modes, n, where(n)


def _wedge(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    return m[..., 0] * n[..., 1] - m[..., 1] * n[..., 0]


def quadratic_term(reps, data: np.ndarray) -> np.ndarray:
    """N_k = sum over m + n = k of wedge(m, n) |m|^-2 q_m q_n for every
    stored representative k: the naive double sum over the whole ball,
    not the package's rearranged single sum."""
    reps = np.asarray(reps, dtype=np.int64).reshape(-1, 2)
    data = np.asarray(data, dtype=np.complex128)
    q = np.concatenate([data, np.conj(data)])
    out = np.zeros(len(reps), dtype=np.complex128)
    for lo, modes, n, pos in _pairs(reps):
        weight = _wedge(modes[None, :, :], n) / (modes ** 2).sum(axis=1)[None, :]
        term = np.where(pos >= 0, weight * q[None, :] * q[np.maximum(pos, 0)], 0.0)
        out[lo:lo + len(term)] = term.sum(axis=1)
    return out


def kernel_error(reps, data: np.ndarray, computed: np.ndarray) -> float:
    """Relative distance of a computed quadratic term from the naive sum."""
    want = quadratic_term(reps, data)
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(np.asarray(computed) - want)) / max(scale, 1e-300)


def triad_count(radius: int) -> int:
    """Interacting unordered pairs {m, n} with m + n = k over the stored
    representatives k: wedge(m, n) != 0 and |m| != |n|."""
    reps = canonical_reps(radius)
    total = 0
    for _, modes, n, pos in _pairs(reps):
        m = np.broadcast_to(modes[None, :, :], n.shape)
        live = (pos >= 0) & (_wedge(m, n) != 0) & ((m ** 2).sum(-1) < (n ** 2).sum(-1))
        total += int(live.sum())
    return total


def check_chain(levels, radius: int, m, n) -> str | None:
    """Verify a saturation chain grown from the symmetric closure of {m, n}.

    Returns None when the chain is sound, else the reason it is not:
    levels must be nested, every new mode must be an admissible sum of two
    modes of the level before, and the verdict must match the lattice the
    seed spans.  With |wedge(m, n)| == 1 the seed spans Z^2 and the chain
    must cover the radius ball; otherwise every mode stays in the sublattice
    spanned by m and n, which misses part of the ball, so the chain must
    stop short of it.
    """
    arrays = [np.array(sorted(level), dtype=np.int64).reshape(-1, 2) for level in levels]
    for j, (prev, cur) in enumerate(zip(arrays, arrays[1:]), start=1):
        have = _Lookup(cur)
        if (have(prev) < 0).any():
            return "level %d drops a mode of level %d" % (j, j - 1)
        fresh = cur[_Lookup(prev)(cur) < 0]
        if len(fresh) and not _admissible_sums(prev, fresh).all():
            return "level %d holds a mode that is no admissible sum" % j
    top = arrays[-1]
    det = int(m[0] * n[1] - m[1] * n[0])
    if abs(det) == 1:
        ball = np.concatenate([canonical_reps(radius), -canonical_reps(radius)])
        return None if (_Lookup(top)(ball) >= 0).all() else "ball not covered"
    a = top[:, 0] * n[1] - top[:, 1] * n[0]
    b = m[0] * top[:, 1] - m[1] * top[:, 0]
    if (a % det).any() or (b % det).any():
        return "mode outside the sublattice of the seed"
    return None


def _admissible_sums(level: np.ndarray, targets: np.ndarray, rows: int = 128) -> np.ndarray:
    """For each target s: is s = a + b for a, b in level, non-collinear and of
    different lengths?"""
    where = _Lookup(level)
    norms = (level ** 2).sum(axis=1)
    ok = np.zeros(len(targets), dtype=bool)
    for lo in range(0, len(targets), rows):
        s = targets[lo:lo + rows]
        b = s[:, None, :] - level[None, :, :]
        pos = where(b)
        a = np.broadcast_to(level[None, :, :], b.shape)
        good = (pos >= 0) & (_wedge(a, b) != 0) & (norms[None, :] != (b ** 2).sum(-1))
        ok[lo:lo + len(s)] = good.any(axis=1)
    return ok
