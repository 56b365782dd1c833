"""Batch experiment runner.

One JSON config document drives each run.  A subcommand's long-form
flags are exactly the top-level fields it reads, plus ``--seed`` and
``--output-dir`` (flag name equals field name; a list-valued flag takes
JSON text); a flag overrides the field, and a field the subcommand does
not read is an error.  Every run emits its artifacts plus a
``manifest.json``, written by ``main`` once the subcommand returns,
echoing the fully resolved configuration and the tool version;
re-running from a manifest reproduces the outputs bit for bit.

Exit codes: 0 success, 1 usage error (unknown flag, missing
``--config``) or configuration/validation error (an unknown, missing or
unconvertible field is named in the message; an integer field given a
non-integral number or a bool, a real field or a coefficient part of a
state or program file given a bool or a string, and a list field given
a non-list, is unconvertible, never truncated or parsed), 2 numerical
failure: blow-up or non-convergence with partial results still written,
or a forcing program that needs more integration steps than the budget
allows.  ``main`` turns the last two, raised by any subcommand, into
``failure.json`` plus the manifest.  The manifest of a run that
integrates also names the quadratic-term kernel ("triad" or "fft") its
resolution radius selects.

The runner owns the file formats.  A state file, read or written, is
the JSON of ``state_to_json``.  Every CSV goes through
``_Emitter.write_csv``: a ``# seed=N`` line, the header, one line per
row, each ending in a line feed; a float cell is its ``repr``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .forcing import (ForcingProgram, Oscillatory, chattering_approximation,
                      program_from_json, program_to_json, relaxation_distance,
                      zero_program)
from .integrator import (BlowUpError, IntegratorConfig, StepBudgetError,
                         integrate)
from .lattice import (chain_to_json, check_count, check_mode, check_real, norm_sq,
                      parse_mode_set, saturation_chain, symmetrize)
from .spectral import (SimParams, SpectralState, quadratic_kernel,
                       random_decaying_state, resize, sobolev_norms,
                       state_from_json, state_to_json)
from .steering import (ConvergenceError, SteeringConfig, averaging_experiment,
                       coverage_check, near_identity_gap, report_to_dict,
                       steer_in_projection, steer_to_target, subspace_setup)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing

REQUIRED = object()


def _get(cfg: dict, field: str, convert, default=REQUIRED):
    """``convert(cfg[field])``; a missing or null field reads ``default``
    as given, or fails when the field is required.  Every failure names
    the field."""
    value = cfg.get(field)
    if value is None:
        if default is REQUIRED:
            raise ConfigError("missing required field '%s'" % field)
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("field '%s': %s" % (field, exc)) from None


# the library checks the bounds
_int = partial(check_count, "value", least=None)
_real = partial(check_real, "value", above=None)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError("value must be a list, not %r" % (value,))
    return value


def _reals(values, above: float | None = None) -> list[float]:
    return [check_real("value", x, above) for x in _list(values)]


def _mode(value) -> tuple[int, int]:
    return check_mode(_list(value))


def _pair(value) -> tuple[tuple[int, int], tuple[int, int]]:
    m, n = _list(value)
    return _mode(m), _mode(n)


def _load_config(path: str, command: str) -> dict:
    data = _parsed({"config": path}, "config", json.loads)
    if "config" in data and "command" in data:        # manifest round-trip
        if data["command"] != command:
            raise ConfigError("manifest was produced by '%s', not '%s'"
                              % (data["command"], command))
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _existing_path(cfg: dict, field: str) -> Path:
    p = Path(_get(cfg, field, str))
    if not p.exists():
        raise ConfigError("field '%s': file not found: %s" % (field, p))
    return p


def _parsed(cfg: dict, field: str, parse):
    """``parse`` of the file a field names; a file that cannot be read or
    is malformed fails naming the field."""
    path = _existing_path(cfg, field)
    try:
        return parse(path.read_text())
    except (OSError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError("field '%s': %s" % (field, exc)) from None


def _rng(cfg: dict) -> np.random.Generator:
    return np.random.default_rng(cfg["seed"])


def _load_state(cfg: dict, radius: int) -> SpectralState:
    source = _get(cfg, "state", str, "rest")
    if source == "rest":
        return SpectralState.zeros(radius)
    if source == "random":
        given = _given(cfg, {"state_amplitude": _real, "decay": _real})
        return random_decaying_state(radius, rng=_rng(cfg), **{
            name.removeprefix("state_"): value for name, value in given.items()})
    state = _parsed(cfg, "state", state_from_json)
    if state.radius < radius:
        state = resize(state, radius)
    return state


def _initial(cfg: dict, em: _Emitter, radius: int) -> tuple[SpectralState, SimParams]:
    """Initial state and parameters of a run that integrates; the emitter
    records the state's resolution for the manifest."""
    state0 = _load_state(cfg, radius)
    em.radius = state0.radius
    return state0, SimParams(**_given(cfg, {"nu": _real}))


_INTEGRATOR_FIELDS = {"dt_base": _real, "record_stride": _int}
_STEERING_FIELDS = {"tau": _real, "gamma": _real, "omega": _real,
                    "max_fp_iters": _int, "fp_tol": _real, "chatter_windows": _int}


def _given(cfg: dict, fields: dict) -> dict:
    """The fields set in cfg, converted; the library's defaults fill the rest."""
    return {name: _get(cfg, name, convert) for name, convert in fields.items()
            if cfg.get(name) is not None}


def _integrator_config(cfg: dict) -> IntegratorConfig:
    return IntegratorConfig(**_given(cfg, _INTEGRATOR_FIELDS))


def _steering_config(cfg: dict) -> SteeringConfig:
    return SteeringConfig(integrator=_integrator_config(cfg),
                          **_given(cfg, _STEERING_FIELDS))


def _chain_for(cfg: dict, observed: frozenset):
    k1 = symmetrize(_parsed(cfg, "mode_set", parse_mode_set))
    need = max(1, int(np.ceil(np.sqrt(max(norm_sq(k) for k in observed)))))
    return saturation_chain(k1, radius=need, **_given(cfg, {"max_levels": _int}))


class _Emitter:
    """Atomic output writing plus the closing manifest; ``radius`` is the
    resolution the run integrates at (set by the runner), None when it
    integrates nothing.  The output directory is made on the first write."""

    def __init__(self, cfg: dict, command: str):
        self.cfg = cfg
        self.command = command
        self.radius: int | None = None
        self.out_dir = Path(_get(cfg, "output_dir", str, "out"))
        self.written: list[str] = []

    def write(self, name: str, text: str):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        self.written.append(name)

    def write_json(self, name: str, payload: dict):
        payload = dict(payload)
        payload.setdefault("seed", self.cfg["seed"])
        self.write(name, json.dumps(payload, indent=2) + "\n")

    def write_csv(self, name: str, header: Sequence[str], rows):
        """``# seed=N``, the header and the rows, each line ending in a line
        feed; a float cell is written as its repr, any other as its str."""
        lines = ["# seed=%d" % self.cfg["seed"], ",".join(header)]
        lines += [",".join(repr(float(x)) if isinstance(x, float) else str(x)
                           for x in row) for row in rows]
        self.write(name, "\n".join(lines) + "\n")

    def failure(self, exc: BlowUpError | StepBudgetError) -> int:
        """failure.json, manifest and stderr line of a failed run; exit 2."""
        payload = {"error": str(exc)}
        if isinstance(exc, BlowUpError):
            payload["time"] = exc.time
            print("%s: blow-up at t=%g" % (self.command, exc.time), file=sys.stderr)
        else:
            print("error: %s" % exc, file=sys.stderr)
        self.write_json("failure.json", payload)
        self.manifest()
        return 2

    def manifest(self):
        body = {"command": self.command, "version": __version__,
                "config": self.cfg, "outputs": sorted(self.written)}
        if self.radius is not None:
            body["quadratic_term"] = quadratic_kernel(self.radius)
        self.write("manifest.json", json.dumps(body, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _run_saturate(cfg: dict, em: _Emitter) -> int:
    chain = saturation_chain(_parsed(cfg, "mode_set", parse_mode_set),
                             radius=_get(cfg, "radius", _int),
                             **_given(cfg, {"max_levels": _int}))
    em.write("chain.json", chain_to_json(chain, indent=2) + "\n")
    print("saturate: status=%s covered_radius=%d levels=%d"
          % (chain.status, chain.covered_radius, len(chain.levels)))
    return 0


def _run_simulate(cfg: dict, em: _Emitter) -> int:
    state0, params = _initial(cfg, em, _get(cfg, "radius", _int))
    if cfg.get("program"):
        program = _parsed(cfg, "program", program_from_json)
    else:
        program = zero_program(_get(cfg, "duration", _real))
    traj = integrate(state0, params, program, _integrator_config(cfg))
    em.write_csv("trajectory.csv", ["t", "kx", "ky", "re", "im"],
                 ((t, kx, ky, v.real, v.imag) for t, s in zip(traj.times, traj.states)
                  for (kx, ky), v in s.items()))
    summary = traj.summary()
    em.write_csv("summary.csv", ["t", "energy", "enstrophy", "h1", "h2"], summary)
    em.write("final_state.json", state_to_json(traj.final) + "\n")
    print("simulate: %d records, final enstrophy %.6g" % (len(traj), summary[-1, 2]))
    return 0


def _observed_set(cfg: dict) -> frozenset:
    field = "mode_set" if cfg.get("observed") is None else "observed"
    observed = symmetrize(_parsed(cfg, field, parse_mode_set))
    if not observed:
        raise ConfigError("field '%s': the file lists no mode" % field)
    return observed


def _steer_and_report(em: _Emitter, run):
    """``run()``'s steering report (the best one on non-convergence, exit
    2) written as ``program.json`` plus ``report.json``."""
    try:
        report, code = run(), 0
    except ConvergenceError as exc:
        report, code = exc.report, 2
    em.write("program.json", program_to_json(report.program, indent=2) + "\n")
    em.write_json("report.json", report_to_dict(report, program_ref="program.json"))
    return report, code


def _run_steer(cfg: dict, em: _Emitter) -> int:
    observed = _observed_set(cfg)
    chain = _chain_for(cfg, observed)
    state0, params = _initial(cfg, em, _get(cfg, "radius", _int))
    target = _get(cfg, "target", _reals)
    scfg = _steering_config(cfg)
    report, code = _steer_and_report(em, lambda: steer_to_target(
        target, chain, observed, state0, params, scfg))
    print("steer: error=%.3g iterations=%d converged=%s"
          % (report.error_norm, report.iterations, report.converged))
    return code


def _run_average(cfg: dict, em: _Emitter) -> int:
    k = _get(cfg, "k", _mode)
    pair = _get(cfg, "pair", _pair)
    omegas = _get(cfg, "omegas", _reals)
    state0, params = _initial(cfg, em, _get(cfg, "radius", _int))
    devs, _ = averaging_experiment(
        k, pair, _get(cfg, "amplitude", _real, 1.0), omegas,
        _get(cfg, "duration", _real), state0, params, _integrator_config(cfg))
    em.write_csv("deviations.csv", ["omega", "deviation"], zip(omegas, devs))
    print("average: " + ", ".join("D(%g)=%.4g" % (w, d)
                                  for w, d in zip(omegas, devs)))
    return 0


def _run_chatter(cfg: dict, em: _Emitter) -> int:
    program = _parsed(cfg, "program", program_from_json)
    amplitude = _get(cfg, "amplitude", _real)
    windows = _get(cfg, "windows", _int)
    out = chattering_approximation(program, amplitude, windows,
                                   **_given(cfg, {"slack_channel": _int}))
    rx = relaxation_distance(out, program)
    # kappa real channels = number of support modes
    bound = 2.0 * amplitude * np.sqrt(len(program.support)) \
        * program.total_duration / windows
    em.write("chattered.json", program_to_json(out, indent=2) + "\n")
    em.write_json("chatter_report.json", {
        "rx_distance": rx, "bound": float(bound), "windows": windows,
        "amplitude": amplitude, "segments": len(out.durations)})
    print("chatter: rx=%.4g bound=%.4g segments=%d" % (rx, bound, len(out.durations)))
    return 0


def _run_cover(cfg: dict, em: _Emitter) -> int:
    observed = _observed_set(cfg)
    chain = _chain_for(cfg, observed)
    state0, params = _initial(cfg, em, _get(cfg, "radius", _int))
    scfg = _steering_config(cfg)
    target_radius = _get(cfg, "target_radius", _real)
    grid_density = _get(cfg, "grid_density", _int, 2)
    result = coverage_check(chain, observed, target_radius, grid_density,
                            state0, params, scfg)
    dim = result.targets.shape[1]
    em.write_csv("coverage.csv",
                 ["target_%d" % c for c in range(dim)] + ["miss", "error", "converged"],
                 ((*t, miss, float("inf") if rep is None else rep.error_norm,
                   rep is not None and rep.converged)
                  for t, rep, miss in zip(result.targets, result.reports, result.misses)))
    em.write_json("coverage.json", {"fraction": result.fraction,
                                    "targets": int(len(result.targets))})
    ladder = _get(cfg, "tau_ladder", _reals, [])
    if ladder:
        em.write_csv("near_identity.csv", ["tau", "near_identity_gap"],
                     [(tau, near_identity_gap(observed, result.targets, tau, state0,
                                              params, scfg.integrator))
                      for tau in ladder])
    print("cover: fraction=%.3f over %d targets" % (result.fraction,
                                                    len(result.targets)))
    return 0


def _run_rxprobe(cfg: dict, em: _Emitter) -> int:
    """Relaxation-metric probes.

    mode "law": rx distance of v = sqrt(omega) cos(omega t) to zero for a
    frequency ladder, against the omega^(-1/2) law.  mode "trajectory":
    oscillatory forcings at prescribed rx distances (frequency scaling),
    reporting the sup-in-time H0 deviation of the driven trajectory from
    the unforced one.
    """
    mode = _get(cfg, "mode", str, "trajectory")
    duration = _get(cfg, "duration", _real, 1.0)
    single = symmetrize({(1, 0)})
    if mode == "law":
        rows = []
        for omega in _get(cfg, "omegas", partial(_reals, above=0.0), [1e2, 1e3, 1e4]):
            seg = Oscillatory.from_cos_pairs(duration, omega,
                                             [((1, 0), omega ** -0.5)])
            rx = relaxation_distance(ForcingProgram(single, [seg]),
                                     zero_program(duration, single))
            rows.append((omega, rx, omega ** -0.5))
        em.write_csv("rxprobe.csv", ["omega", "rx", "expected"], rows)
        print("rxprobe law: %r,%r,%r" % rows[-1])
        return 0
    if mode != "trajectory":
        raise ConfigError("field 'mode': expected 'law' or 'trajectory', got %r"
                          % mode)
    state0, params = _initial(cfg, em, _get(cfg, "radius", _int))
    icfg = _integrator_config(cfg)
    sample = np.linspace(0.0, duration, 41)
    base = integrate(state0, params, zero_program(duration, single), icfg, sample).rows_at(sample)
    rows = []
    for delta in _get(cfg, "deltas", partial(_reals, above=0.0), [0.1, 0.05, 0.025]):
        omega = 1.0 / delta ** 2
        seg = Oscillatory.from_cos_pairs(duration, omega, [((1, 0), delta)])
        prog = ForcingProgram(single, [seg])
        rx = relaxation_distance(prog, zero_program(duration, single))
        traj = integrate(state0, params, prog, icfg, sample)
        dev = float(sobolev_norms(state0.radius, traj.rows_at(sample) - base).max())
        rows.append((delta, rx, dev))
    em.write_csv("rxprobe.csv", ["delta", "rx", "sup_deviation"], rows)
    print("rxprobe trajectory: %d deltas" % len(rows))
    return 0


def _run_project(cfg: dict, em: _Emitter) -> int:
    basis = _parsed(cfg, "basis", lambda text: [state_from_json(json.dumps(e))
                                                for e in _list(json.loads(text))])
    if not basis:
        raise ConfigError("field 'basis': the file lists no basis vector")
    observed_radius = max(s.radius for s in basis)
    state0, params = _initial(cfg, em, _get(cfg, "radius", _int, max(observed_radius, 4)))
    proj, S = subspace_setup(basis, _get(cfg, "epsilon", _real))
    chain = _chain_for(cfg, S)
    target = _get(cfg, "target", _reals)
    scfg = _steering_config(cfg)
    report, code = _steer_and_report(em, lambda: steer_in_projection(
        proj, S, target, chain, state0, params, scfg))
    print("project: error=%.3g tail_growth=%.3g converged=%s"
          % (report.error_norm, report.q_tail_growth, report.converged))
    return code


# A subcommand's fields, and so its flags, are exactly the fields it
# reads, plus seed and output_dir; any other field is rejected.
_STATE = ("radius", "nu", "state", "state_amplitude", "decay", *_INTEGRATOR_FIELDS)
_STEERING = ("mode_set", "max_levels", *_STEERING_FIELDS)
_COMMANDS = {
    "saturate": (_run_saturate, ("mode_set", "radius", "max_levels")),
    "simulate": (_run_simulate, _STATE + ("duration", "program")),
    "steer": (_run_steer, _STATE + _STEERING + ("observed", "target")),
    "average": (_run_average, _STATE + ("amplitude", "duration", "k", "pair", "omegas")),
    "chatter": (_run_chatter, ("program", "amplitude", "windows", "slack_channel")),
    "cover": (_run_cover, _STATE + _STEERING + ("observed", "target_radius",
                                               "grid_density", "tau_ladder")),
    "project": (_run_project, _STATE + _STEERING + ("basis", "epsilon", "target")),
    "rxprobe": (_run_rxprobe, _STATE + ("mode", "duration", "omegas", "deltas")),
}


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modecascade",
        description="Spectral vorticity simulation and low-mode steering experiments")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, fields) in _COMMANDS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config (or manifest)")
        for fieldname in fields + ("seed", "output_dir"):
            sp.add_argument("--" + fieldname.replace("_", "-"), dest=fieldname,
                            default=None, metavar="V")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:         # usage errors are config errors
        return 1 if exc.code else 0
    command, path = flags.pop("command"), flags.pop("config")
    try:
        cfg = _load_config(path, command)
        cfg.update((f, _coerce(v)) for f, v in flags.items() if v is not None)
        unknown = sorted(set(cfg) - {"seed", "output_dir", *_COMMANDS[command][1]})
        if unknown:
            raise ConfigError("unknown field '%s' for '%s'"
                              % ("', '".join(unknown), command))
        cfg["seed"] = _get(cfg, "seed", partial(check_count, "value", least=0), 0)
        em = _Emitter(cfg, command)
        code = _COMMANDS[command][0](cfg, em)
    except (BlowUpError, StepBudgetError) as exc:
        return em.failure(exc)
    except (ConfigError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    em.manifest()
    return code
