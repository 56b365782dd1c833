"""The benchmark's three workloads.

Each workload draws its inputs from the seed alone, prepares what the
package needs (``setup``), and then runs one closed-loop operation at a
time: the next call starts after the previous one returns.  The inputs
of operation i depend only on the seed and i, so a second pass over the
same operations repeats the same work.  ``checks`` compares every output
with the independent references in ``reference.py``.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np

import modecascade as mc
import reference

KERNEL_TOL = 1e-12          # relative, quadratic term against the naive sum


def l1_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform point of the unit l1 sphere in R^dim."""
    x = rng.exponential(size=dim) * rng.choice([-1.0, 1.0], size=dim)
    return x / np.abs(x).sum()


def kernel_check(state) -> tuple[str, bool]:
    err = reference.kernel_error(state.reps, state.data, mc.nonlinear_term(state).data)
    return "quadratic term matches the naive sum at R=%d (%.1e)" % (state.radius, err), \
        err <= KERNEL_TOL


class CoverR6:
    """Cascade steering of K2 at R = 6, nu = 0.01, in the style of criterion 09.

    One operation is one ``steer_to_target`` call.  Every target lies on
    the boundary of the l1 ball of radius 0.25 with half its l1 mass on
    the directly forced channels of K1 and half on the channels the
    cascade must reach, with seed-drawn directions and signs.  Boundary
    targets are the hardest the coverage claim allows and almost all of
    them need a second fixed-point iteration; the even split gives every
    target the same share of oscillation packets, so the cost per target
    is nearly uniform and runs with different seeds compare.
    """

    name = "cover_r6"
    op_unit = "target"
    RADIUS = 6
    BALL = 0.25
    FP_TOL = 1e-3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        chain = mc.saturation_chain(mc.symmetrize({(1, 0), (1, 1)}), radius=3, max_levels=10)
        observed = chain.levels[1]
        state0 = mc.SpectralState.zeros(self.RADIUS)
        mc.nonlinear_term(state0)
        cmap = mc.ChannelMap(observed)
        direct = np.array([cmap.channel(c)[0] in chain.levels[0] for c in range(cmap.size)])
        config = mc.SteeringConfig(
            tau=1.0, omega=400.0, fp_tol=self.FP_TOL, max_fp_iters=20, chatter_windows=1,
            gamma=1.1, integrator=mc.IntegratorConfig(dt_base=1e-3, record_stride=20))
        return SimpleNamespace(chain=chain, observed=observed, state0=state0, direct=direct,
                               params=mc.SimParams(nu=0.01), config=config)

    def restart(self, ctx):
        pass

    def inputs(self, ctx, i: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, i])
        d = ctx.direct
        x = l1_sphere(rng, d.size)
        return self.BALL / 2 * np.where(d, x / np.abs(x[d]).sum(), x / np.abs(x[~d]).sum())

    def op(self, ctx, target):
        try:
            return mc.steer_to_target(target, ctx.chain, ctx.observed, ctx.state0,
                                      ctx.params, ctx.config)
        except mc.ConvergenceError as exc:
            return exc.report
        except mc.BlowUpError:
            return None

    def checks(self, ctx, outputs):
        out = []
        for report in outputs:
            ok = report is not None and report.converged and report.error_norm <= self.FP_TOL
            out.append(("target reached within fp_tol", ok))
            if report is not None:
                out.append(kernel_check(report.final_state))
        return out

    def metrics(self, ctx, outputs, latencies, elapsed):
        return {
            "targets_per_s": (len(outputs) / elapsed, "1/s", len(outputs)),
            "steer_p50_s": (float(np.median(latencies)), "s", len(latencies)),
        }

    def counts(self, outputs):
        done = [r for r in outputs if r is not None]
        return {
            "steering.fp_iterations": sum(r.iterations for r in done),
            "steering.converged_ratio": sum(r.converged for r in done) / max(len(outputs), 1),
        }


class EulerR24:
    """Free decay of truncated Euler at R = 24 (nu = 0, zero program).

    One operation is one ``integrate`` call advancing STEPS steps of
    dt = 1e-3 from where the previous call stopped; the initial state is
    a ``random_decaying_state`` with phases drawn from the seed.
    """

    name = "euler_r24"
    op_unit = "integrate call of 10 steps"
    RADIUS = 24
    DT = 1e-3
    STEPS = 10
    DRIFT_TOL = 1e-8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        state0 = mc.random_decaying_state(self.RADIUS, rng=np.random.default_rng(self.seed))
        mc.nonlinear_term(state0)
        return SimpleNamespace(
            state0=state0, state=state0, params=mc.SimParams(nu=0.0),
            program=mc.zero_program(self.STEPS * self.DT),
            config=mc.IntegratorConfig(dt_base=self.DT, record_stride=self.STEPS))

    def restart(self, ctx):
        ctx.state = ctx.state0

    def inputs(self, ctx, i: int):
        return None

    def op(self, ctx, _):
        ctx.state = mc.integrate(ctx.state, ctx.params, ctx.program, ctx.config).final
        return ctx.state

    def checks(self, ctx, outputs):
        final = outputs[-1]
        out = []
        for label, invariant in (("energy", mc.energy), ("enstrophy", mc.enstrophy)):
            drift = abs(invariant(final) - invariant(ctx.state0)) / invariant(ctx.state0)
            out.append(("%s drift %.1e" % (label, drift), drift <= self.DRIFT_TOL))
        out.append(kernel_check(ctx.state0))
        out.append(kernel_check(final))
        return out

    def metrics(self, ctx, outputs, latencies, elapsed):
        steps = self.STEPS * len(outputs)
        return {"steps_per_s": (steps / elapsed, "1/s", steps)}

    def counts(self, outputs):
        return {}


# Both verdicts in every round: |wedge| = 1 seeds span Z^2 and cover the
# ball, |wedge| = 2 seeds span an index-2 sublattice and stop short of it.
CHAIN_RADII = (4, 6, 8)
CHAIN_INDICES = (1, 2)
CHATTER_SUPPORT = ((1, 0), (1, 1), (2, 1), (0, 1))     # kappa = 8, as in criterion 06
CHATTER_PROGRAMS = 30
CHATTER_WINDOWS = (5, 20, 100)
PACKETS = 10


class ControlAlgebra:
    """Mode algebra and control metrics, no time integration.

    One operation is one round: saturation chains from seed-drawn seed
    pairs at every radius of CHAIN_RADII and both lattice indices, the
    chattering approximation of seed-drawn piecewise-constant programs
    with its relaxation distance at each window count (criterion 06),
    and relaxation distances of seed-drawn oscillatory packets with
    base frequencies up to 1e4.  Every round has the same composition,
    so round costs compare across seeds.
    """

    name = "control_algebra"
    op_unit = "round"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        support = mc.symmetrize(CHATTER_SUPPORT)
        return SimpleNamespace(support=support, cmap=mc.ChannelMap(support))

    def restart(self, ctx):
        pass

    @staticmethod
    def _pair(rng, index: int, span: int = 2):
        """Non-collinear modes of different lengths with |wedge| == index."""
        while True:
            m = tuple(int(v) for v in rng.integers(-span, span + 1, size=2))
            n = tuple(int(v) for v in rng.integers(-span, span + 1, size=2))
            if m != (0, 0) and n != (0, 0) and m[0] ** 2 + m[1] ** 2 != n[0] ** 2 + n[1] ** 2 \
                    and abs(m[0] * n[1] - m[1] * n[0]) == index:
                return m, n

    def inputs(self, ctx, i: int):
        rng = np.random.default_rng([self.seed, i])
        chains = [(radius, self._pair(rng, index)) for radius in CHAIN_RADII
                  for index in CHAIN_INDICES]
        programs = []
        for _ in range(CHATTER_PROGRAMS):
            fracs = rng.dirichlet(np.ones(rng.integers(1, 6)))
            segs = []
            for frac in fracs:
                v = rng.uniform(-1.0, 1.0, ctx.cmap.size)
                segs.append((float(frac), v * rng.uniform(0.0, 1.0) / np.abs(v).sum()))
            programs.append(segs)
        packets = []
        for j in range(PACKETS):
            omega = float(10.0 ** rng.uniform(2.0, 4.0))
            if j % 2:
                target = complex(*rng.uniform(-1.0, 1.0, 2))
                packets.append(("cascade", self._pair(rng, 1, span=3), target, omega))
            else:
                packets.append(("cosine", self._pair(rng, 1)[0], None, omega))
        return SimpleNamespace(chains=chains, programs=programs, packets=packets)

    def op(self, ctx, inp):
        clock = time.perf_counter
        t0 = clock()
        chains = [mc.saturation_chain(mc.symmetrize(pair), radius=radius, max_levels=32)
                  for radius, pair in inp.chains]
        t1 = clock()
        chatter = []
        for segs in inp.programs:
            prog = mc.ForcingProgram(ctx.support, [
                mc.Constant(frac, ctx.cmap.vector_to_rep_coeffs(v)) for frac, v in segs])
            for windows in CHATTER_WINDOWS:
                out = mc.chattering_approximation(prog, 1.0, windows)
                chatter.append((windows, mc.relaxation_distance(out, prog)))
        packets = []
        for kind, modes, target, omega in inp.packets:
            if kind == "cascade":
                m, n = modes
                seg = mc.cascade_packet((m[0] + n[0], m[1] + n[1]), m, n, target, omega, 1.0)
                support = mc.symmetrize(modes)
            else:
                seg = mc.Oscillatory.from_cos_pairs(1.0, omega, [(modes, omega ** -0.5)])
                support = mc.symmetrize({modes})
            packets.append(mc.relaxation_distance(mc.ForcingProgram(support, [seg]),
                                                  mc.zero_program(1.0, support)))
        t2 = clock()
        return SimpleNamespace(inputs=inp, chains=chains, chatter=chatter, packets=packets,
                               chain_s=t1 - t0, rx_s=t2 - t1)

    def checks(self, ctx, outputs):
        out = []
        kappa = len(ctx.support)
        for res in outputs:
            for (radius, (m, n)), chain in zip(res.inputs.chains, res.chains):
                want = "covered" if abs(m[0] * n[1] - m[1] * n[0]) == 1 else "stationary"
                fault = reference.check_chain(chain.levels, radius, m, n)
                out.append(("chain %s %s at R=%d: %s" % (m, n, radius, fault or chain.status),
                            fault is None and chain.status == want))
            for windows, rx in res.chatter:
                out.append(("chattering distance within its bound",
                            rx <= 2.0 * math.sqrt(kappa) / windows))
            for (kind, modes, target, omega), rx in zip(res.inputs.packets, res.packets):
                if kind == "cascade":
                    m, n = modes
                    coeff = (m[0] * n[1] - m[1] * n[0]) * (1.0 / (m[0] ** 2 + m[1] ** 2)
                                                           - 1.0 / (n[0] ** 2 + n[1] ** 2))
                    want = 2.0 * math.sqrt(2.0) * math.sqrt(abs(target) / (2.0 * abs(coeff)))
                else:
                    want = omega ** -0.5
                out.append(("%s packet distance at omega=%.0f" % (kind, omega),
                            abs(rx - want) <= 1e-9 * want))
        return out

    def metrics(self, ctx, outputs, latencies, elapsed):
        chains = sum(len(r.chains) for r in outputs)
        rx = sum(len(r.chatter) + len(r.packets) for r in outputs)
        return {
            "chains_per_s": (chains / sum(r.chain_s for r in outputs), "1/s", chains),
            "rx_per_s": (rx / sum(r.rx_s for r in outputs), "1/s", rx),
        }

    def counts(self, outputs):
        return {}


WORKLOADS = {cls.name: cls for cls in (CoverR6, EulerR24, ControlAlgebra)}
