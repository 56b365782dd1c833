"""Why fast wiggles are small controls, and how to approximate with bang-bang.

The relaxation pseudometric measures controls by the sup norm of their
primitives.  A fast oscillation with a huge pointwise norm has a tiny
primitive, so it is almost the zero control in this metric, and the
endpoint map of the flow is continuous with respect to it.  That is the
loophole the whole control construction walks through.

The second half shows the chattering approximation: any control taking
values in the convex hull of the signed axis vectors {+-A e_j} is
replaced by a rapidly switching extreme-valued control that matches its
primitive at every window boundary and stays within 2 A sqrt(kappa) T/L
of it in the relaxation metric.
"""

import math

import numpy as np

import modecascade as mc
from modecascade.forcing import ChannelMap, Constant, ForcingProgram, Oscillatory

SINGLE = mc.symmetrize({(1, 0)})

print("=== fast oscillations are small in the relaxation metric ===")
print("v(t) = sqrt(omega) cos(omega t): L1 norm grows, rx norm shrinks")
for omega in (10, 100, 1000, 10000):
    amp = omega ** -0.5
    seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), amp)])
    prog = ForcingProgram(SINGLE, [seg])
    rx = mc.relaxation_distance(prog, mc.zero_program(1.0, SINGLE))
    l1 = amp * omega * 2 / math.pi          # mean |cos| = 2/pi
    print("omega=%6d   L1 ~ %7.2f   rx = %.4f (= omega^-1/2)" % (omega, l1, rx))

print()
print("=== and the flow barely feels them ===")
rng = np.random.default_rng(3)
s0 = mc.random_decaying_state(4, amplitude=0.3, rng=rng)
samples = np.linspace(0, 1, 21)
base = mc.integrate(s0, mc.SimParams(), mc.zero_program(1.0, SINGLE),
                    mc.IntegratorConfig(dt_base=1e-3), sample_times=samples)
for omega in (100, 400, 1600):
    amp = omega ** -0.5
    seg = Oscillatory.from_cos_pairs(1.0, omega, [((1, 0), amp)])
    traj = mc.integrate(s0, mc.SimParams(), ForcingProgram(SINGLE, [seg]),
                        mc.IntegratorConfig(dt_base=1e-3), sample_times=samples)
    diffs = traj.rows_at(samples) - base.rows_at(samples)
    dev = max(mc.sobolev_norm(mc.SpectralState(s0.radius, d), 0) for d in diffs)
    print("omega=%5d  sup_t |w - w_unforced|_0 = %.4f" % (omega, dev))

print()
print("=== chattering approximation ===")
support = mc.symmetrize({(1, 0), (1, 1)})
cmap = ChannelMap(support)
v = np.array([0.35, -0.15, 0.2, 0.1])        # l1 = 0.8 <= A = 1
prog = ForcingProgram(support, [Constant(1.0, cmap.vector_to_rep_coeffs(v))])
print("input: constant vector with l1 norm %.2f over %d channels"
      % (np.abs(v).sum(), cmap.size))
for windows in (2, 5, 20, 100):
    out = mc.chattering_approximation(prog, 1.0, windows)
    rx = mc.relaxation_distance(out, prog)
    bound = 2 * 1.0 * math.sqrt(cmap.size) * 1.0 / windows
    print("L=%4d: %4d bang-bang segments, rx=%.4f  (bound %.4f)"
          % (windows, len(out.segments), rx, bound))
print("primitives agree exactly at window boundaries, so the endpoint of")
print("the integrated control is preserved window by window.")
