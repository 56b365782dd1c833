"""Galerkin vorticity states and their quadratic term on the torus.

A state holds the Fourier coefficients q_k of a real scalar vorticity
field over the symmetric ball 1 <= |k|^2 <= R^2.  Realness means
q_{-k} = conj(q_k), so only one canonical representative of each
{k, -k} pair is stored; the conjugate half is implicit and the
symmetry invariant is structural rather than checked.  Maps given on
either member are folded by ``lattice.fold_conjugate``; the sorted
representatives of a radius hold fixed slots, and ``_Tables.positions``
is the one lookup from representatives to slots, which also rejects
modes outside the ball.

The quadratic term is the truncated convolution

    N_k = sum over m+n=k, m and n in the ball, of wedge(m,n) |m|^-2 q_m q_n,

evaluated at every k of the ball by one of two kernels, chosen by the
resolution radius alone (both agree to round-off):

* Below ``FFT_RADIUS`` the rearranged single sum

      N_k = sum over m+n=k, |m| < |n| of  wedge(m,n) (|m|^-2 - |n|^-2) q_m q_n,

  which makes the vanishing of equal-length interactions explicit, runs
  over a triad table built once per radius, its rows sorted by output
  representative: a few numpy gathers and one ``np.add.reduceat`` over
  the row groups per call.  The table holds O(R^4) triads.
* From ``FFT_RADIUS`` on, a dealiased pseudo-spectral product.  With
  psi = Delta^-1 w, the sum equals N = d_y(w d_x psi) - d_x(w d_y psi),
  i.e. N_k = i (k_y a_k - k_x b_k) with a = w d_x psi and b = w d_y psi.
  q, d_x psi and d_y psi are scattered into the ky = 0..R columns of
  the half spectrum of an M x M grid, M the smallest 5-smooth integer
  >= 3R+1.  numpy.fft brings them to the grid by a batched inverse FFT
  over kx on those R+1 columns only and an inverse real FFT over ky
  that zero-pads the rest; the pointwise products go back by a forward
  real FFT over y, cut to the first R+1 columns, and a forward FFT over
  x.  N is gathered on the representatives.  The cost is O(R^2 log R)
  per call and no triad table is built.

The grid product is exact, not an approximation.  Every input mode has
|k_x|, |k_y| <= R, so a product mode p has components in [-2R, 2R]; on
M points it also lands on p - M and p + M.  For M >= 3R+1 those aliases
of |p| <= 2R stay outside [-R, R] in each component, so the coefficients
read back on the ball are the exact truncated convolution (Orszag 1971,
J. Atmos. Sci. 28; Canuto et al., Spectral Methods in Fluid Dynamics).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .lattice import (Mode, ball, canonical_rep, check_mode, fold_conjugate,
                      is_symmetric, neg, norm_sq, rep_modes, unfold_conjugate, wedge)

__all__ = [
    "SimParams", "SpectralState", "nonlinear_term",
    "quadratic_kernel",
    "energy", "energies", "enstrophy", "sobolev_norm", "sobolev_norms", "inner0",
    "velocity_from_vorticity", "project", "project_complement",
    "random_decaying_state", "resize", "resize_rows",
    "state_to_json", "state_from_json",
]


@dataclass(frozen=True)
class SimParams:
    """Physical parameters: nu >= 0 is the viscosity, nu == 0 the ideal case."""
    nu: float = 0.0

    def __post_init__(self):
        if not 0 <= self.nu < np.inf:
            raise ValueError("viscosity must be nonnegative")


# Smallest radius at which the quadratic term runs on the dealiased grid.
# Median per-call times on a 2-core x86 VM, one thread, interleaved by
# tools/kernel_crossover.py, triad sum against grid product: 41 / 77 us at
# R = 9, 129 / 139 at R = 11 (within 10% over repeated runs, and the grid
# skips a 0.04 s table build), 178 / 136 at R = 12, 356 / 147 at R = 14,
# 628 / 160 at R = 16.
FFT_RADIUS = 11


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, a size pocketfft transforms fast."""
    while 30 ** n % n:          # n is 5-smooth iff it divides 30^n
        n += 1
    return n


def quadratic_kernel(radius: int) -> str:
    """Name of the quadratic-term kernel run at a resolution radius:
    "triad" below FFT_RADIUS, "fft" from it on."""
    return "fft" if radius >= FFT_RADIUS else "triad"


class _Tables:
    """Per-resolution mode bookkeeping, with the triad interaction table
    below FFT_RADIUS and the dealiasing grid's index arrays from it on."""

    def __init__(self, radius: int):
        self.radius = radius
        self.reps: tuple[Mode, ...] = rep_modes(ball(radius))
        self.n_reps = len(self.reps)
        self.rep_index = {k: i for i, k in enumerate(self.reps)}
        self.norm_sq = np.array([norm_sq(k) for k in self.reps], dtype=np.float64)
        self.kx = np.array([k[0] for k in self.reps], dtype=np.float64)
        self.ky = np.array([k[1] for k in self.reps], dtype=np.float64)
        self.kernel = quadratic_kernel(radius)
        if self.kernel == "fft":
            self._build_grid()
        else:
            self._build_triads()

    def _build_grid(self):
        m = _fast_len(3 * self.radius + 1)
        width = self.radius + 1                  # the ky >= 0 columns the ball fills
        kx = self.kx.astype(np.intp)
        ky = self.ky.astype(np.intp)
        self.grid_shape = (m, width)
        self.grid_at = (kx % m) * width + ky     # every rep has ky >= 0
        # the conjugate partners -k of the ky = 0 reps also sit in column 0
        self.grid_axis = np.flatnonzero(ky == 0)
        self.grid_axis_at = (-kx[self.grid_axis] % m) * width
        # q, d_x psi, d_y psi per rep, psi = Delta^-1 w
        self.grid_factors = np.stack([np.ones(self.n_reps),
                                      -1j * self.kx / self.norm_sq,
                                      -1j * self.ky / self.norm_sq])

    def _build_triads(self):
        # full layout: reps first, then their negatives
        full_modes = self.reps + tuple(neg(k) for k in self.reps)
        full = {k: i for i, k in enumerate(full_modes)}
        rows = []
        for k in self.reps:
            ki = self.rep_index[k]
            for m in full_modes:
                n = (k[0] - m[0], k[1] - m[1])
                if n == (0, 0) or n not in full:
                    continue
                nm, nn = norm_sq(m), norm_sq(n)
                if nm >= nn:          # one representative per unordered pair
                    continue
                w = wedge(m, n)
                if w == 0:
                    continue
                rows.append((ki, full[m], full[n], w * (1.0 / nm - 1.0 / nn)))
        # reduceat needs a row in every group, so a rep without triads (all
        # of them at R = 1, some at R = 2) gets one zero-weight row
        have = {row[0] for row in rows}
        rows += [(ki, 0, 0, 0.0) for ki in range(self.n_reps) if ki not in have]
        rows.sort(key=lambda row: row[0])       # stable: one run per output rep
        k, m, n, c = zip(*rows)
        self.tri_k = np.array(k, dtype=np.intp)
        self.tri_m = np.array(m, dtype=np.intp)
        self.tri_n = np.array(n, dtype=np.intp)
        self.tri_c = np.array(c, dtype=np.complex128)     # complex: no cast per call
        self.tri_start = np.flatnonzero(np.diff(self.tri_k, prepend=-1))

    def positions(self, reps: Iterable[Mode]) -> np.ndarray:
        """Slots of canonical representatives in the stored layout."""
        try:
            return np.array([self.rep_index[r] for r in reps], dtype=np.intp)
        except KeyError as exc:
            raise ValueError("mode %s outside resolution radius %d"
                             % (exc.args[0], self.radius)) from None

    def vector(self, values: Mapping[Mode, complex]) -> np.ndarray:
        """Stored-layout vector of a representative map (see fold_conjugate)."""
        vec = np.zeros(self.n_reps, dtype=np.complex128)
        vec[self.positions(values)] = list(values.values())
        return vec

    def nonlinear(self, data: np.ndarray) -> np.ndarray:
        """Quadratic term over the stored representatives."""
        if self.kernel == "fft":
            m, width = self.grid_shape
            fields = self.grid_factors * data
            spec = np.zeros((3, m * width), dtype=np.complex128)
            spec[:, self.grid_at] = fields
            spec[:, self.grid_axis_at] = np.conj(fields[:, self.grid_axis])
            cols = np.fft.ifft(spec.reshape(3, m, width), axis=1, norm="forward")
            grid = np.fft.irfft(cols, n=m, norm="forward")
            ab = np.fft.rfft(grid[0] * grid[1:], norm="forward")[..., :width]
            a, b = np.fft.fft(ab, axis=1, norm="forward").reshape(2, -1)[:, self.grid_at]
            return 1j * (self.ky * a - self.kx * b)
        f = np.concatenate([data, np.conj(data)])     # the full triad layout
        return np.add.reduceat(self.tri_c * f[self.tri_m] * f[self.tri_n],
                               self.tri_start)


@lru_cache(maxsize=None)
def _tables(radius: int) -> _Tables:
    if radius < 1:
        raise ValueError("resolution radius must be >= 1")
    return _Tables(radius)


class SpectralState:
    """Immutable vorticity state at a fixed resolution radius."""

    __slots__ = ("radius", "data")

    def __init__(self, radius: int, data: np.ndarray | None = None, _copy: bool = True):
        tab = _tables(radius)
        object.__setattr__(self, "radius", radius)
        if data is None:
            arr = np.zeros(tab.n_reps, dtype=np.complex128)
        else:
            arr = np.asarray(data, dtype=np.complex128)
            if arr.shape != (tab.n_reps,):
                raise ValueError("coefficient vector has wrong length for radius %d" % radius)
            if _copy:
                arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralState is immutable")

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, radius: int) -> "SpectralState":
        return cls(radius)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[Mode, complex], radius: int) -> "SpectralState":
        """Build a state from a mode -> coefficient map.

        Entries may be given on either member of a {k, -k} pair, or on
        both if v(-k) = conj(v(k)) to within 1e-12 * max(1, |v|), and
        must be finite.
        """
        values = fold_conjugate(coeffs, 1e-12, "state")
        data = _tables(radius).vector(values)
        if not np.isfinite(data).all():
            raise ValueError("state coefficients must be finite")
        return cls(radius, data, _copy=False)

    # -- access -------------------------------------------------------------

    @property
    def reps(self) -> tuple[Mode, ...]:
        return _tables(self.radius).reps

    def coeff(self, k: Mode) -> complex:
        """Coefficient q_k for any mode in the ball (0 outside)."""
        k = check_mode(k)
        tab = _tables(self.radius)
        r = canonical_rep(k)
        i = tab.rep_index.get(r)
        if i is None:
            return 0.0 + 0.0j
        v = self.data[i]
        return complex(v) if k == r else complex(np.conj(v))

    def items(self):
        """Iterate (rep mode, coefficient) over stored representatives."""
        return zip(self.reps, self.data)

    def full_items(self):
        """Iterate (mode, coefficient) over the whole symmetric ball."""
        return unfold_conjugate({k: complex(v) for k, v in self.items()}).items()

    # -- arithmetic (pointwise on coefficients) ------------------------------

    def _binary(self, other: "SpectralState", op) -> "SpectralState":
        if not isinstance(other, SpectralState) or other.radius != self.radius:
            raise ValueError("states must share a resolution radius")
        return SpectralState(self.radius, op(self.data, other.data), _copy=False)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralState(self.radius, self.data * float(scalar), _copy=False)

    __rmul__ = __mul__

    def __repr__(self):
        return "SpectralState(radius=%d, modes=%d, |w|_0=%.3g)" % (
            self.radius, 2 * len(self.data), sobolev_norm(self, 0))


# ---------------------------------------------------------------------------
# operations


def nonlinear_term(state: SpectralState) -> SpectralState:
    """Quadratic advection term of the vorticity equation, as a state-shaped
    derivative."""
    tab = _tables(state.radius)
    return SpectralState(state.radius, tab.nonlinear(state.data), _copy=False)


def sobolev_norm(state: SpectralState, order: int = 0) -> float:
    """Norm sqrt(sum_k |k|^(2*order) |q_k|^2) over the full symmetric ball."""
    return float(sobolev_norms(state.radius, state.data, order))


def sobolev_norms(radius: int, rows: np.ndarray, order: int = 0) -> np.ndarray:
    """``sobolev_norm`` of each coefficient row (last axis) at a radius."""
    if order not in (0, 1, 2):
        raise ValueError("Sobolev order must be 0, 1 or 2")
    w = _tables(radius).norm_sq ** order
    return np.sqrt(2.0 * np.sum(w * np.abs(rows) ** 2, axis=-1))


def enstrophy(state: SpectralState) -> float:
    """Squared H0 norm of the vorticity."""
    norm = sobolev_norm(state, 0)
    return norm * norm


def energy(state: SpectralState) -> float:
    """Energy sum_k |k|^-2 |q_k|^2 of the velocity field recovered from w."""
    return float(energies(state.radius, state.data))


def energies(radius: int, rows: np.ndarray) -> np.ndarray:
    """``energy`` of each coefficient row (last axis) at a radius."""
    return 2.0 * np.sum(np.abs(rows) ** 2 / _tables(radius).norm_sq, axis=-1)


def inner0(a: SpectralState, b: SpectralState) -> float:
    """H0 inner product sum_k a_k conj(b_k); real for real fields."""
    if a.radius != b.radius:
        raise ValueError("states must share a resolution radius")
    return float(2.0 * np.sum(a.data * np.conj(b.data)).real)


def velocity_from_vorticity(state: SpectralState) -> tuple[dict[Mode, complex],
                                                           dict[Mode, complex]]:
    """Spectra of the divergence-free velocity (u1, u2) with curl w.

    Per mode: u1_k = q_k * i k2 / |k|^2 and u2_k = -q_k * i k1 / |k|^2,
    so i k1 u2_k - i k2 u1_k = q_k and k . u_k = 0 hold exactly.
    """
    u1: dict[Mode, complex] = {}
    u2: dict[Mode, complex] = {}
    for k, q in state.full_items():
        n2 = norm_sq(k)
        u1[k] = q * 1j * k[1] / n2
        u2[k] = -q * 1j * k[0] / n2
    return u1, u2


def _rep_mask(tab: _Tables, modes: Iterable[Mode]) -> np.ndarray:
    mode_set = frozenset(check_mode(k) for k in modes)
    if not is_symmetric(mode_set):
        raise ValueError("asymmetric target set: projection requires k in S => -k in S")
    mask = np.zeros(tab.n_reps, dtype=bool)
    for k in mode_set:
        i = tab.rep_index.get(canonical_rep(k))
        if i is not None:
            mask[i] = True
    return mask


def project(state: SpectralState, modes: Iterable[Mode]) -> SpectralState:
    """Zero every coefficient outside the given symmetric mode set."""
    tab = _tables(state.radius)
    mask = _rep_mask(tab, modes)
    return SpectralState(state.radius, np.where(mask, state.data, 0.0), _copy=False)


def project_complement(state: SpectralState, modes: Iterable[Mode]) -> SpectralState:
    """Zero every coefficient inside the given symmetric mode set."""
    tab = _tables(state.radius)
    mask = _rep_mask(tab, modes)
    return SpectralState(state.radius, np.where(mask, 0.0, state.data), _copy=False)


def resize(state: SpectralState, radius: int) -> SpectralState:
    """Re-embed a state at another resolution (coefficients outside the
    new ball are dropped)."""
    return SpectralState(radius, resize_rows(state.data, state.radius, radius), _copy=False)


def resize_rows(rows: np.ndarray, radius: int, new_radius: int) -> np.ndarray:
    """``resize`` of each coefficient row (last axis)."""
    src, dst = _tables(radius), _tables(new_radius)
    keep = [i for i, k in enumerate(src.reps) if k in dst.rep_index]
    out = np.zeros(rows.shape[:-1] + (dst.n_reps,), dtype=np.complex128)
    out[..., dst.positions(src.reps[i] for i in keep)] = rows[..., keep]
    return out


def random_decaying_state(radius: int, amplitude: float = 0.3, decay: float = 3.0,
                          rng: np.random.Generator | None = None) -> SpectralState:
    """Random smooth state with |q_k| = amplitude * |k|^-decay and uniform
    random phases; the seed is the caller's responsibility to record."""
    if not np.isfinite([amplitude, decay]).all():
        raise ValueError("amplitude and decay must be finite")
    if rng is None:
        rng = np.random.default_rng(0)
    tab = _tables(radius)
    phases = rng.uniform(0.0, 2.0 * np.pi, tab.n_reps)
    mags = amplitude * tab.norm_sq ** (-decay / 2.0)
    return SpectralState(radius, mags * np.exp(1j * phases), _copy=False)


# ---------------------------------------------------------------------------
# serialization


def state_to_json(state: SpectralState) -> str:
    return json.dumps({
        "radius": state.radius,
        "coeffs": {"%d,%d" % k: [float(v.real), float(v.imag)]
                   for k, v in state.items() if v != 0},
    })


def state_from_json(text: str) -> SpectralState:
    data = json.loads(text)
    if not isinstance(data, dict) or not {"radius", "coeffs"} <= data.keys():
        raise ValueError("a state must be a JSON object with 'radius' and 'coeffs' keys")
    coeffs = {}
    for key, (re, im) in data["coeffs"].items():
        kx, ky = key.split(",")
        coeffs[(int(kx), int(ky))] = float(re) + 1j * float(im)
    return SpectralState.from_coeffs(coeffs, int(data["radius"]))
