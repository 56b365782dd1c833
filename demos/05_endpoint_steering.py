"""Steering observed spectral components to prescribed values.

Directly controlled case first: with every observed mode forced, a short
constant ramp v = p/tau lands the observed component on p up to O(tau),
and a fixed-point refinement of p polishes the residue away.

Then the real thing: the observed set is one saturation level above the
controlled set, so targets on the extra modes are reached indirectly.
The synthesis chatters the fictitious ramp into bang-bang segments,
replaces every segment that actuates an uncontrolled mode by a fast
oscillation packet on its generating pair, and settles the directly
controlled channels with a terminal correction ramp.
"""

import numpy as np

import modecascade as mc

K1 = mc.symmetrize({(1, 0), (1, 1)})
CHAIN = mc.saturation_chain(K1, radius=3, max_levels=10)
K2 = CHAIN.levels[1]
params = mc.SimParams(nu=0.01)

print("controlled modes:", sorted(K1))
print("observed modes (one level up):", sorted(K2))
print()

print("=== directly controlled steering (observed = controlled) ===")
cfg1 = mc.SteeringConfig(tau=0.02, fp_tol=1e-4, max_fp_iters=10,
                         integrator=mc.IntegratorConfig(dt_base=5e-4,
                                                        record_stride=5))
s0 = mc.SpectralState.zeros(4)
for tau in (0.04, 0.02, 0.01):
    gap = mc.near_identity_gap(K1, mc.coverage_grid(4, 0.5, 2), tau, s0,
                               params, cfg1.integrator)
    print("tau=%.3f: sup |endpoint - target| over the grid = %.2e" % (tau, gap))
target = np.array([0.4, -0.1, 0.2, 0.3])
rep = mc.steer_to_target(target, CHAIN, K1, s0, params, cfg1)
print("steer to %s: error %.2e in %d iteration(s)"
      % (target, rep.error_norm, rep.iterations))
print()

print("=== cascade steering (observed one level above controlled) ===")
cfg2 = mc.SteeringConfig(tau=1.0, omega=400.0, fp_tol=1e-2, max_fp_iters=20,
                         chatter_windows=1, gamma=1.1,
                         integrator=mc.IntegratorConfig(dt_base=1e-3,
                                                        record_stride=20))
s0 = mc.SpectralState.zeros(6)
cmap = mc.ChannelMap(K2)
target = np.zeros(8)
target[cmap.index((2, 1), "re")] = 0.2
target[cmap.index((0, 1), "im")] = -0.15
rep = mc.steer_to_target(target, CHAIN, K2, s0, params, cfg2)
prog = rep.program
print("synthesized program: %d segments over T=%.2f, support %s"
      % (len(prog.segments), prog.total_duration, sorted(prog.support)))
for seg in prog.segments[:6]:
    print("   ", seg)
print("achieved:", np.round(rep.achieved, 4))
print("error %.2e in %d iteration(s), off-observed tail growth %.3g"
      % (rep.error_norm, rep.iterations, rep.q_tail_growth))
print()

print("=== coverage of a target ball in the 8 observed channels ===")
res = mc.coverage_check(CHAIN, K2, 0.25, 2, s0, params, cfg2)
print("fraction of %d grid targets reached at tolerance %.0e: %.3f"
      % (len(res.targets), cfg2.fp_tol, res.fraction))
