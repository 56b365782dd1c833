"""Accuracy and cost of steering's grown steps on the cover_r6 targets.

    python3 tools/step_accuracy.py                 # seeds 1, 7 and 42, ops 0-7
    python3 tools/step_accuracy.py --seeds 7 --ops 6

Imports ``modecascade`` from ``src/`` and the ``cover_r6`` workload from
``perfbench/`` next to this directory (read only), and steers each
target twice: as the package does, with steps grown against fp_tol times
``LOCAL_TOL_PER_FP_TOL``, and with the fixed steps of plain ``integrate``
(the tolerance dropped).  Each run's full program is then integrated
again from rest at dt_base = 1e-4 with 32 steps per period of the
fastest harmonic, as a reference.  One line per target gives the RK4
steps and fixed-point passes of both runs, the error against fp_tol, the
H0 distances of the final states (grown to fixed, grown to its
reference, fixed to its reference) and the reports' tail growth of both
runs, which is read at the recorded states and so at the grown steps.
The last line gives the totals, the largest distances, the most by which
a grown run ends farther from its reference than the fixed run from its
own, and the largest difference of the tail growths.  Exits 1 if a pass count
differs or a target misses fp_tol.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_DT = 1e-4
REF_RESOLUTION = 32


def steer(steering, wl, ctx, target, fixed: bool):
    """The workload's operation, with the RK4 steps of its integrations."""
    real, steps = steering.integrate, [0]

    def counted(*args, tol=None, **kwargs):
        traj = real(*args, tol=None if fixed else tol, **kwargs)
        steps[0] += traj.steps
        return traj

    steering.integrate = counted
    try:
        return wl.op(ctx, target), steps[0]
    finally:
        steering.integrate = real


def reference(mc, ctx, program):
    """Final state of the program from the workload's start, finely stepped."""
    integrator, saved = mc.integrator, mc.integrator.OSCILLATION_RESOLUTION
    integrator.OSCILLATION_RESOLUTION = REF_RESOLUTION
    try:
        return mc.integrate(ctx.state0, ctx.params, program,
                            mc.IntegratorConfig(dt_base=REF_DT, record_stride=10 ** 9)).final
    finally:
        integrator.OSCILLATION_RESOLUTION = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 42])
    parser.add_argument("--ops", type=int, default=8, help="operations per seed")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import modecascade as mc
    from modecascade import steering
    import workloads

    def h0(a, b):
        return mc.sobolev_norm(a - b, 0)

    print("seed op | steps grown fixed | passes grown fixed | error | "
          "H0 grown-fixed grown-ref fixed-ref | tail growth grown fixed")
    totals, worst, ok, farther, tail = [0, 0], [0.0, 0.0, 0.0], True, 0.0, 0.0
    for seed in args.seeds:
        wl = workloads.CoverR6(seed)
        ctx = wl.setup()
        for i in range(args.ops):
            target = wl.inputs(ctx, i)
            (grown, n_grown), (fixed, n_fixed) = (steer(steering, wl, ctx, target, f)
                                                  for f in (False, True))
            if grown is None or fixed is None:
                print("%4d %2d | blow-up" % (seed, i))
                ok = False
                continue
            dists = (h0(grown.final_state, fixed.final_state),
                     h0(grown.final_state, reference(mc, ctx, grown.program)),
                     h0(fixed.final_state, reference(mc, ctx, fixed.program)))
            totals = [totals[0] + n_grown, totals[1] + n_fixed]
            worst = [max(w, d) for w, d in zip(worst, dists)]
            ok &= grown.iterations == fixed.iterations and grown.error_norm <= wl.FP_TOL
            farther = max(farther, dists[1] - dists[2])
            tail = max(tail, abs(grown.q_tail_growth - fixed.q_tail_growth))
            print("%4d %2d | %6d %6d | %d %d | %.2e | %.1e %.4e %.4e | %.6e %.6e"
                  % (seed, i, n_grown, n_fixed, grown.iterations, fixed.iterations,
                     grown.error_norm, *dists, grown.q_tail_growth,
                     fixed.q_tail_growth), flush=True)
    print("total   | %6d %6d | largest H0 distances %.1e %.4e %.4e; grown at most "
          "%.1e farther from its reference than fixed; tail growths at most %.1e "
          "apart" % (*totals, *worst, farther, tail))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
