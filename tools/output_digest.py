"""SHA-256 digests of reference outputs, for "bitwise unchanged" checks.

    python3 tools/output_digest.py --src ../parent/src > before.txt
    python3 tools/output_digest.py --src src > after.txt
    diff before.txt after.txt

Imports ``modecascade`` from ``--src`` and the seed-7 inputs of the
benchmark workloads from ``perfbench/`` next to this directory, so two
checkouts are compared on the same inputs.  It prints one digest per
line:

- each of the six seed-7 ``cover_r6`` steering operations: achieved
  vector, final state, program JSON and fixed-point iteration count;
- each of the six seed-7 ``control_algebra`` rounds: the chattering
  outputs (segment kinds, durations and value bits, signed zeros
  included), their program JSON, and the relaxation distances
  (chattering and packets);
- the state after each of six seed-7 ``euler_r24`` operations (nu = 0,
  zero program, FFT kernel);
- ``integrate`` with sample times (record times and states) and a chained
  ``step()`` over one program mixing the four segment kinds (constant,
  zero, cosine bundle, multi-harmonic packet), at R = 5 (triad kernel) and
  R = 12 (FFT kernel), each at nu = 0 and nu = 0.01, and that program's
  JSON;
- the ``BlowUpError.time`` of that ``integrate`` run at R = 5 from a
  state large enough to blow up inside the forced first segment, at
  nu = 0 and nu = 0.01;

then one digest over all of them.  Last come the command-line runs,
made through ``modecascade.cli.main`` in a temporary directory with
relative paths so that two checkouts write the same manifests: a fixed
``saturate``, ``simulate`` (random state, the mixed program), ``chatter``,
``steer``, ``project`` (a two-vector basis mixing four mode pairs) and
``cover`` (with a ``tau_ladder``, so the near-identity gap too) run, one
line for each exit code and one for each file the run wrote
(``manifest.json`` included).  Then comes the program JSON of
``synthesize`` from rest for the first seed-7 ``cover_r6`` target, and
last, in the same form as the command-line runs above, an ``average``
run (rest state, two omegas) and an ``rxprobe`` run in trajectory mode
(random state), whose deviations reduce recorded trajectories.  Last of
all comes one line for each of the six seed-7 ``control_algebra`` rounds
over its saturation chains: the ``chain_to_json`` text of each and the
bytes and dtypes of its compact ``modes`` and ``first_level`` arrays (these
lines come after the others so that those keep their places).
Stdlib plus the package under test (and the numpy it needs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
OPERATIONS = 6
BLOWUP_AMPLITUDE = 160.0     # blows the R = 5 mixed-program run up at t = 0.026


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def floats(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def segment_bits(program) -> list:
    return [(type(s).__name__, s.duration.hex(),
             sorted((k, v.real.hex(), v.imag.hex()) for k, v in getattr(s, "values", {}).items()))
            for s in program.segments]


def cover_lines(mc, workloads):
    wl = workloads.CoverR6(SEED)
    ctx = wl.setup()
    for i in range(OPERATIONS):
        report = wl.op(ctx, wl.inputs(ctx, i))
        if report is None:
            yield "cover_r6 op %d blow-up" % i, digest("blow-up")
            continue
        yield "cover_r6 op %d achieved" % i, digest(floats(report.achieved))
        yield "cover_r6 op %d final_state" % i, digest(floats(report.final_state.data))
        yield "cover_r6 op %d program_json" % i, digest(mc.program_to_json(report.program))
        yield "cover_r6 op %d iterations" % i, digest(report.iterations)


def control_algebra_lines(mc, workloads):
    wl = workloads.ControlAlgebra(SEED)
    ctx = wl.setup()
    for i in range(OPERATIONS):
        inp = wl.inputs(ctx, i)
        outputs, texts = [], []
        for segs in inp.programs:
            prog = mc.ForcingProgram(ctx.support, [
                mc.Constant(frac, ctx.cmap.vector_to_rep_coeffs(v)) for frac, v in segs])
            for windows in workloads.CHATTER_WINDOWS:
                out = mc.chattering_approximation(prog, 1.0, windows)
                outputs.append(segment_bits(out))
                texts.append(mc.program_to_json(out))
        res = wl.op(ctx, inp)
        yield "control_algebra round %d chattering" % i, digest(outputs)
        yield "control_algebra round %d program_json" % i, digest(texts)
        yield "control_algebra round %d distances" % i, digest(
            [rx.hex() for _, rx in res.chatter], [rx.hex() for rx in res.packets])


def chain_lines(mc, workloads):
    wl = workloads.ControlAlgebra(SEED)
    ctx = wl.setup()
    for i in range(OPERATIONS):
        res = wl.op(ctx, wl.inputs(ctx, i))
        yield "control_algebra round %d chains" % i, digest(
            [(mc.lattice.chain_to_json(c), c.modes.dtype.str, c.modes.tobytes(),
              c.first_level.dtype.str, c.first_level.tobytes()) for c in res.chains])


def euler_lines(mc, workloads):
    wl = workloads.EulerR24(SEED)
    ctx = wl.setup()
    for i in range(OPERATIONS):
        state = wl.op(ctx, wl.inputs(ctx, i))
        yield "euler_r24 op %d state" % i, digest(floats(state.data))


def mixed_program(mc):
    """Constant, zero, cosine-bundle and multi-harmonic-packet segments."""
    return mc.ForcingProgram({(1, 0), (1, 1), (2, 1), (0, 2)}, [
        mc.Constant(0.05, {(1, 0): 0.8 - 0.3j, (1, 1): 0.5j}),
        mc.Zero(0.03),
        mc.Oscillatory.from_cos_pairs(0.06, 150.0, [((1, 0), 0.4), ((1, 1), -0.3)],
                                      phase=0.3),
        mc.Oscillatory(0.04, 120.0, [((1, 0), 1, 0.2 - 0.1j), ((1, 0), 2, 0.1j),
                                     ((1, 0), -3, 0.05), ((0, 2), -1, 0.15 + 0.05j),
                                     ((2, 1), 2, -0.1 + 0.2j)]),
    ])


def integrator_lines(mc):
    program = mixed_program(mc)
    yield "mixed_program program_json", digest(mc.program_to_json(program))
    samples = [0.01, 0.05, 0.0625, 0.1, 0.1234, 0.17]
    config = mc.IntegratorConfig(dt_base=2e-3, record_stride=7)
    for radius in (5, 12):
        state0 = mc.random_decaying_state(radius, rng=np.random.default_rng(SEED))
        for nu in (0.0, 0.01):
            params = mc.SimParams(nu=nu)
            traj = mc.integrate(state0, params, program, config, sample_times=samples)
            yield "integrate R=%d nu=%g" % (radius, nu), digest(
                floats(traj.times), [floats(s.data) for s in traj.states])
            state = state0
            for t0, duration in zip(program.starts.tolist(), program.durations.tolist()):
                h = duration / 10
                for j in range(10):
                    state = mc.step(state, t0 + j * h, h, params, program)
            yield "step chain R=%d nu=%g" % (radius, nu), digest(floats(state.data))
    state0 = mc.random_decaying_state(5, BLOWUP_AMPLITUDE, rng=np.random.default_rng(SEED))
    blowups = []
    for nu in (0.0, 0.01):
        try:
            mc.integrate(state0, mc.SimParams(nu=nu), program, config, sample_times=samples)
            blowups.append("no blow-up")
        except mc.BlowUpError as exc:
            blowups.append(exc.time.hex())
    yield "integrate blow-up R=5 time", digest(blowups)


CLI_RUNS = {
    "saturate": {"mode_set": "k1.txt", "radius": 5, "max_levels": 16, "seed": SEED},
    "simulate": {"radius": 4, "nu": 0.01, "program": "mixed.json", "dt_base": 2e-3,
                 "record_stride": 10, "state": "random", "seed": SEED},
    "chatter": {"program": "constant.json", "amplitude": 1.0, "windows": 6,
                "slack_channel": 1, "seed": SEED},
    "steer": {"mode_set": "k1.txt", "radius": 4, "nu": 0.01,
              "target": [0.3, 0.0, -0.1, 0.05], "tau": 0.02, "fp_tol": 1e-3,
              "dt_base": 1e-3, "state": "rest", "seed": SEED},
    "project": {"mode_set": "k1.txt", "basis": "basis.json", "epsilon": 0.05,
                "radius": 6, "nu": 0.01, "target": [0.2, -0.1], "tau": 1.0,
                "omega": 400.0, "fp_tol": 1e-2, "chatter_windows": 1,
                "dt_base": 1e-3, "record_stride": 20, "state": "rest", "seed": SEED},
    "cover": {"mode_set": "k1.txt", "radius": 4, "nu": 0.01, "target_radius": 0.2,
              "grid_density": 2, "tau": 0.02, "tau_ladder": [0.04, 0.02],
              "fp_tol": 1e-3, "dt_base": 1e-3, "state": "rest", "seed": SEED},
}
DEVIATION_RUNS = {
    "average": {"k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [50.0, 100.0],
                "amplitude": 1.0, "duration": 0.2, "radius": 4, "nu": 0.01,
                "dt_base": 1e-3, "record_stride": 10, "state": "rest", "seed": SEED},
    "rxprobe": {"mode": "trajectory", "deltas": [0.1, 0.05], "duration": 0.3,
                "radius": 4, "nu": 0.01, "dt_base": 1e-3, "state": "random",
                "seed": SEED},
}


def basis_json(mc) -> str:
    raw = [mc.SpectralState.from_coeffs({(1, 0): 0.8, (2, 1): 0.6 + 0.2j}, 6),
           mc.SpectralState.from_coeffs({(0, 1): 0.7j, (1, 1): -0.5}, 6)]
    return json.dumps([json.loads(mc.spectral.state_to_json(s)) for s in raw])


def cli_lines(mc, runs):
    inputs = {
        "k1.txt": "1 0\n-1 0\n1 1\n-1 -1\n",
        "mixed.json": mc.program_to_json(mixed_program(mc)),
        "constant.json": mc.program_to_json(mc.constant_program(
            {(1, 0), (1, 1)}, {(1, 0): 0.3 - 0.2j, (1, 1): 0.25j}, 1.0)),
        "basis.json": basis_json(mc),
    }
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in inputs.items():
                Path(name).write_text(text)
            for command, cfg in runs.items():
                Path(command + ".json").write_text(json.dumps(dict(cfg, output_dir=command)))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = mc.cli.main([command, "--config", command + ".json"])
                yield "cli %s exit" % command, digest(code)
                for path in sorted(Path(command).iterdir()):
                    yield "cli %s %s" % (command, path.name), digest(path.read_bytes())
        finally:
            os.chdir(home)


def synthesize_lines(mc, workloads):
    wl = workloads.CoverR6(SEED)
    ctx = wl.setup()
    program = mc.synthesize(wl.inputs(ctx, 0), ctx.chain, ctx.observed, ctx.state0,
                            ctx.params, ctx.config)
    yield "synthesize cover_r6 target 0 program_json", digest(mc.program_to_json(program))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="source directory holding the modecascade package")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "modecascade" / "__init__.py").is_file():
        print("error: no modecascade package under %s" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import modecascade as mc
    import modecascade.cli
    import workloads
    total = hashlib.sha256()
    for lines in (cover_lines(mc, workloads), control_algebra_lines(mc, workloads),
                  euler_lines(mc, workloads), integrator_lines(mc)):
        for name, value in lines:
            print("%s %s" % (value, name), flush=True)
            total.update(value.encode())
    print("%s all" % total.hexdigest())
    for lines in (cli_lines(mc, CLI_RUNS), synthesize_lines(mc, workloads),
                  cli_lines(mc, DEVIATION_RUNS), chain_lines(mc, workloads)):
        for name, value in lines:
            print("%s %s" % (value, name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
