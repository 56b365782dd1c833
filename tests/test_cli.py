"""Command-line front end: subcommands, exit codes, manifest reproducibility."""

import json
import runpy
import sys

import numpy as np
import pytest

from modecascade import __version__
from modecascade.cli import (_COMMANDS, _integrator_config, _steering_config, build_parser,
                             main)
from modecascade.forcing import (chattering_approximation, constant_program,
                                 program_from_json, program_to_json, zero_program)
from modecascade.lattice import symmetrize
from modecascade.spectral import (SimParams, SpectralState, random_decaying_state,
                                  resize, state_to_json)
from modecascade.forcing import ForcingProgram, Oscillatory
from modecascade.spectral import FFT_RADIUS, _tables
from modecascade import steering as steering_module
from modecascade.integrator import (BlowUpError, IntegratorConfig, StepBudgetError,
                                    integrate)
from modecascade.steering import SteeringConfig, averaging_experiment

FOUR_MODES = symmetrize({(1, 0), (1, 1)})


def mode_lines(modes) -> str:
    """A mode-set file: one "kx ky" line per mode."""
    return "".join("%d %d\n" % k for k in sorted(modes))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def mode_file(tmp_path):
    path = tmp_path / "k1.txt"
    path.write_text(mode_lines(FOUR_MODES))
    return str(path)


def test_saturate_roundtrip_and_reproducibility(tmp_path, mode_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 5, "max_levels": 16,
        "output_dir": str(out), "seed": 7})
    assert main(["saturate", "--config", cfg]) == 0
    chain = json.loads((out / "chain.json").read_text())
    assert chain["status"] == "covered"
    assert chain["covered_radius"] == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "saturate"
    assert "chain.json" in manifest["outputs"]
    first = (out / "chain.json").read_bytes()
    # re-run from the manifest itself: bit-identical outputs
    out2 = tmp_path / "out2"
    assert main(["saturate", "--config", str(out / "manifest.json"),
                 "--output-dir", str(out2)]) == 0
    assert (out2 / "chain.json").read_bytes() == first


def test_saturate_flag_override(tmp_path, mode_file):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 2, "output_dir": str(out)})
    assert main(["saturate", "--config", cfg, "--radius", "4"]) == 0
    chain = json.loads((out / "chain.json").read_text())
    assert chain["covered_radius"] == 4


def test_simulate_unforced_euler(tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 4, "nu": 0.0, "duration": 0.5, "dt_base": 2e-3,
        "record_stride": 50, "state": "random", "state_amplitude": 0.3,
        "seed": 3, "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=3")
    header = lines[1].split(",")
    assert header == ["t", "energy", "enstrophy", "h1", "h2"]
    rows = [line.split(",") for line in lines[2:]]
    z0, z1 = float(rows[0][2]), float(rows[-1][2])
    assert abs(z1 - z0) <= 1e-9 * z0
    assert (out / "trajectory.csv").exists()
    assert (out / "final_state.json").exists()


def test_simulate_csv_headers_and_row_counts(tmp_path):
    # one trajectory row per record and stored representative, one summary row per record
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "nu": 0.1, "duration": 0.1, "dt_base": 2e-2, "state": "random",
        "state_amplitude": 0.2, "seed": 6, "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 0
    traj = integrate(random_decaying_state(3, 0.2, rng=np.random.default_rng(6)),
                     SimParams(nu=0.1), zero_program(0.1), IntegratorConfig(dt_base=2e-2))
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,kx,ky,re,im"
    assert len(lines) == 2 + len(traj) * _tables(3).n_reps
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1] == "t,energy,enstrophy,h1,h2"
    assert len(lines) == 2 + len(traj)


def test_simulate_continues_from_its_final_state_file(tmp_path):
    # the end state of one run, read back as the next run's start, bit for bit
    first, second = tmp_path / "first", tmp_path / "second"
    common = {"radius": 4, "nu": 0.01, "duration": 0.05, "dt_base": 5e-3}
    assert main(["simulate", "--config", write_config(tmp_path, "a.json", dict(
        common, state="random", seed=2, output_dir=str(first)))]) == 0
    assert main(["simulate", "--config", write_config(tmp_path, "b.json", dict(
        common, state=str(first / "final_state.json"), output_dir=str(second)))]) == 0
    n = _tables(4).n_reps
    last = [line.split(",")[1:] for line in
            (first / "trajectory.csv").read_text().splitlines()[-n:]]
    start = [line.split(",") for line in
             (second / "trajectory.csv").read_text().splitlines()[2:2 + n]]
    assert {row[0] for row in start} == {"0.0"}
    assert [row[1:] for row in start] == last


def test_simulate_manifest_reproduces_bitwise(tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "nu": 0.01, "duration": 0.2, "dt_base": 5e-3,
        "state": "random", "seed": 11, "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 0
    blob = (out / "trajectory.csv").read_bytes()
    out2 = tmp_path / "sim2"
    assert main(["simulate", "--config", str(out / "manifest.json"),
                 "--output-dir", str(out2)]) == 0
    assert (out2 / "trajectory.csv").read_bytes() == blob


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_oscillatory_program_exits_1(tmp_path, capsys, value):
    # rejected while the program loads, not as a blow-up (exit 2) later
    prog = tmp_path / "prog.json"
    prog.write_text(program_to_json(ForcingProgram(FOUR_MODES, [
        Oscillatory(0.1, 10.0, [((1, 0), 1, 0.25)])])).replace("0.25", value))
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "program": str(prog), "state": "rest", "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_pairs_form_program_exits_1_naming_the_segment(tmp_path, capsys):
    # the old pairs form of a packet; the writer emits components only
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps({"support": [[1, 0], [-1, 0]], "segments": [
        {"kind": "zero", "duration": 0.05},
        {"kind": "oscillatory", "duration": 0.1, "omega": 10.0, "phase": 0.1,
         "pairs": [{"mode": [1, 0], "amp": 2.0}]}]}))
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "program": str(prog), "state": "rest", "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: field 'program': program segment 1 (oscillatory) has no 'components' key\n")
    assert not out.exists()


NOT_A_PROGRAM = "a program must be a JSON object with 'support' and 'segments' keys"


@pytest.mark.parametrize("text,message", [
    ('{"support": [[1, 0], [-1, 0]]}', NOT_A_PROGRAM),
    ('{"support": [[1, 0], [-1, 0]], "segments": [[1, 2]]}',
     "program segment 0 is not a JSON object"),
    ("[1, 2]", NOT_A_PROGRAM),
    ('{"support": [[1, 0], [-1, 0]], "segments": 5}', "'int' object is not iterable")])
def test_malformed_program_file_exits_1_naming_the_field(tmp_path, capsys, text, message):
    prog = tmp_path / "prog.json"
    prog.write_text(text)
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "program": str(prog), "state": "rest", "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field 'program': %s\n" % message
    assert not (out / "manifest.json").exists()


NOT_A_STATE = "a state must be a JSON object with 'radius' and 'coeffs' keys"


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", NOT_A_STATE), ('{"radius": 3}', NOT_A_STATE),
    ('{"radius": 3, "coeffs": [1]}', "'list' object has no attribute 'items'")])
def test_malformed_state_file_exits_1_naming_the_field(tmp_path, capsys, text, message):
    state = tmp_path / "state.json"
    state.write_text(text)
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "duration": 0.01, "state": str(state), "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field 'state': %s\n" % message
    assert not (out / "manifest.json").exists()


def test_malformed_basis_file_exits_1_naming_the_field(tmp_path, mode_file, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text("[1, 2]")
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "basis": str(basis), "epsilon": 0.05, "target": [0.2],
        "output_dir": str(out)})
    assert main(["project", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field 'basis': %s\n" % NOT_A_STATE
    assert not (out / "manifest.json").exists()


def test_empty_basis_file_exits_1_naming_the_field(tmp_path, mode_file, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text("[]")
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "basis": str(basis), "epsilon": 0.05, "target": [0.2],
        "output_dir": str(out)})
    assert main(["project", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field 'basis': the file lists no basis vector\n"
    assert not (out / "manifest.json").exists()


def test_basis_file_of_one_state_object_exits_1_naming_the_field(tmp_path, mode_file, capsys):
    # the object's keys were read as the basis, each failing as not a state
    basis = tmp_path / "basis.json"
    basis.write_text(state_to_json(SpectralState.from_coeffs({(1, 0): 0.5}, 3)))
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "basis": str(basis), "epsilon": 0.05, "target": [0.2],
        "output_dir": str(out)})
    assert main(["project", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        "error: field 'basis': value must be a list, not {'radius': 3")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("field", ["observed", "mode_set"])
@pytest.mark.parametrize("command,fields", [("steer", {"target": [0.1]}),
                                            ("cover", {"target_radius": 0.1})])
def test_empty_mode_set_file_exits_1_naming_the_field(tmp_path, mode_file, capsys,
                                                      field, command, fields):
    # without 'observed', the observed modes are those of 'mode_set'
    empty = tmp_path / "empty.txt"
    empty.write_text("# no modes\n")
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "output_dir": str(out), **fields,
        field: str(empty)})
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field '%s': the file lists no mode\n" % field
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("line,message", [
    ("foo bar", "line 2: non-integer component in 'foo bar'"),
    ("0 0", "line 2: zero mode is not a valid forcing/vorticity mode")],
    ids=["component", "zero"])
@pytest.mark.parametrize("command,field,fields", [("saturate", "mode_set", {}),
                                                  ("steer", "mode_set", {"target": [0.1]}),
                                                  ("cover", "observed", {"target_radius": 0.1})],
                         ids=["saturate", "steer", "cover"])
def test_malformed_mode_set_file_exits_1_naming_the_field(tmp_path, mode_file, capsys, line,
                                                          message, command, field, fields):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n%s\n" % line)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "output_dir": str(out), **fields,
        field: str(bad)})
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field '%s': %s\n" % (field, message)
    assert not (out / "manifest.json").exists()


def test_project_at_epsilon_1e_16_exits_without_a_traceback(tmp_path, mode_file):
    # the truncation defect of this basis is a few ulps, above (l+1) * 1e-16
    rng = np.random.default_rng(0)
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([json.loads(state_to_json(random_decaying_state(
        6, 0.3, 1.0, rng=rng))) for _ in range(3)]))
    out = tmp_path / "proj"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "basis": str(basis), "epsilon": 1e-16, "radius": 6,
        "nu": 0.01, "target": [0.0, 0.0, 0.0], "tau": 0.01, "fp_tol": 1.0,
        "max_fp_iters": 1, "chatter_windows": 1, "dt_base": 1e-2, "state": "rest",
        "output_dir": str(out)})
    assert main(["project", "--config", cfg]) == 0
    assert (out / "report.json").exists() and (out / "manifest.json").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_state_file_exits_1(tmp_path, capsys, value):
    # rejected while the state loads, not as a blow-up (exit 2) at the first step
    state = tmp_path / "state.json"
    state.write_text('{"radius": 3, "coeffs": {"1,0": [%s, 0.0]}}' % value)
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "duration": 0.01, "state": str(state), "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: field 'state': state coefficients must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize("coeff,shown", [("[0.5, true]", "True"), ('["0.5", 0.0]', "'0.5'")],
                         ids=["bool", "string"])
def test_state_file_with_a_non_real_part_exits_1(tmp_path, capsys, coeff, shown):
    # float() read true as 1 and integrated q(1,0) = 0.5+1j
    state = tmp_path / "state.json"
    state.write_text('{"radius": 3, "coeffs": {"1,0": %s}}' % coeff)
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "duration": 0.01, "state": str(state), "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: field 'state': state coefficients must be a real number, not %s\n" % shown)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_raises_a_smaller_state_file_to_the_run_radius(tmp_path, capsys, fmt):
    # a state file is JSON; a CSV one (the old "# radius=R" format) is refused
    state = random_decaying_state(3, 0.3, rng=np.random.default_rng(5))
    path = tmp_path / ("state." + fmt)
    path.write_text("# radius=3\nkx,ky,re,im\n1,0,0.25,0.0\n" if fmt == "csv"
                    else state_to_json(state))
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 5, "nu": 0.01, "duration": 0.01, "state": str(path),
        "output_dir": str(out)})
    if fmt == "csv":
        assert main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: field 'state': ")
        assert not out.exists()
        return
    assert main(["simulate", "--config", cfg]) == 0
    rows = [line for line in (out / "trajectory.csv").read_text().splitlines()[2:]
            if line.startswith("0.0,")]
    want = resize(state, 5)
    assert rows == ["0.0,%d,%d,%r,%r" % (k[0], k[1], float(v.real), float(v.imag))
                    for k, v in want.items()]


@pytest.mark.parametrize("command,document,flags,message", [
    ("simulate", None, [], "error: field 'config': file not found: "),
    ("simulate", {"command": "saturate", "config": {"radius": 3}}, [],
     "error: manifest was produced by 'saturate', not 'simulate'\n"),
    ("simulate", [{"radius": 3}], [], "error: config must be a JSON object\n"),
    ("rxprobe", {"radius": 3}, ["--mode", "bogus"],
     "error: field 'mode': expected 'law' or 'trajectory', got 'bogus'\n"),
])
def test_bad_config_document_exits_1_without_output(tmp_path, capsys, command, document,
                                                    flags, message):
    # a None document is a config file that does not exist
    cfg = (str(tmp_path / "cfg.json") if document is None
           else write_config(tmp_path, "cfg.json", document))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--output-dir", str(out)] + flags) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_missing_file_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": str(tmp_path / "nope.txt"), "radius": 3,
        "output_dir": str(tmp_path / "o")})
    assert main(["saturate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "mode_set" in err


def test_missing_state_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "duration": 0.01, "state": str(missing),
        "output_dir": str(tmp_path / "o")})
    assert main(["simulate", "--config", cfg]) == 1
    assert "field 'state': file not found: %s" % missing in capsys.readouterr().err


def test_missing_observed_file_exits_1(tmp_path, mode_file, capsys):
    missing = tmp_path / "nope.txt"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "observed": str(missing), "radius": 4,
        "target": [0.3, 0.0, 0.0, 0.0], "output_dir": str(tmp_path / "o")})
    assert main(["steer", "--config", cfg]) == 1
    assert "field 'observed': file not found: %s" % missing in capsys.readouterr().err


def test_missing_required_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"output_dir": str(tmp_path / "o")})
    assert main(["simulate", "--config", cfg]) == 1
    assert "radius" in capsys.readouterr().err


def test_steer_m1_run(tmp_path, mode_file):
    out = tmp_path / "steer"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "nu": 0.01,
        "target": [0.3, 0.0, 0.0, 0.0], "tau": 0.02, "fp_tol": 1e-3,
        "dt_base": 1e-3, "state": "rest", "output_dir": str(out)})
    assert main(["steer", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["error"] <= 1e-3
    assert report["converged"] is True
    assert (out / "program.json").exists()
    assert report["program_ref"] == "program.json"
    # t = 0 and steps of 1, 5 and 14 ms: one forced mode has no quadratic
    # term, so the error estimate stays far below fp_tol * 1e-8 and each
    # step grows five-fold
    assert report["tail_samples"] == 4


def test_steer_nonconvergence_exit_2_with_partial_report(tmp_path, mode_file):
    # observed: the second saturation level, whose cascade channel (0, 1)
    # the first pass misses (a directly forced K1 ramp is exact)
    observed = tmp_path / "k2.txt"
    observed.write_text(mode_lines(symmetrize({(0, 1), (1, 0), (1, 1), (2, 1)})))
    out = tmp_path / "steer2"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "observed": str(observed), "radius": 4, "nu": 0.05,
        "target": [0.3] + [0.0] * 7, "tau": 0.02, "fp_tol": 1e-15,
        "max_fp_iters": 2, "dt_base": 1e-3, "state": "rest",
        "output_dir": str(out)})
    assert main(["steer", "--config", cfg]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert (out / "manifest.json").exists()


def test_average_subcommand(tmp_path):
    out = tmp_path / "avg"
    cfg = write_config(tmp_path, "cfg.json", {
        "k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40, 80],
        "amplitude": 1.0, "duration": 0.2, "nu": 0.0, "radius": 4,
        "dt_base": 1e-3, "state": "rest", "output_dir": str(out)})
    assert main(["average", "--config", cfg]) == 0
    lines = (out / "deviations.csv").read_text().splitlines()
    assert lines[1] == "omega,deviation"
    devs = [float(line.split(",")[1]) for line in lines[2:]]
    assert devs[1] < devs[0]


def test_chatter_subcommand(tmp_path):
    support = FOUR_MODES
    prog = constant_program(support, {(1, 0): 0.5, (1, 1): 0.25j}, 1.0)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(prog))
    out = tmp_path / "chat"
    cfg = write_config(tmp_path, "cfg.json", {
        "program": str(prog_path), "amplitude": 1.0, "windows": 10,
        "output_dir": str(out)})
    assert main(["chatter", "--config", cfg]) == 0
    report = json.loads((out / "chatter_report.json").read_text())
    assert report["rx_distance"] <= report["bound"]
    assert (out / "chattered.json").exists()


def test_cover_subcommand_m1(tmp_path, mode_file):
    out = tmp_path / "cov"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "nu": 0.0,
        "target_radius": 0.2, "grid_density": 2, "tau": 0.02,
        "fp_tol": 1e-3, "dt_base": 1e-3, "state": "rest",
        "output_dir": str(out)})
    assert main(["cover", "--config", cfg]) == 0
    data = json.loads((out / "coverage.json").read_text())
    assert data["fraction"] == 1.0
    lines = (out / "coverage.csv").read_text().splitlines()
    assert lines[1].endswith("error,converged")


def cover_config(tmp_path, mode_file, target_radius):
    return write_config(tmp_path, "cover.json", {
        "mode_set": mode_file, "radius": 4, "nu": 0.01, "target_radius": target_radius,
        "grid_density": 2, "tau": 0.02, "max_fp_iters": 1, "dt_base": 1e-3,
        "output_dir": str(tmp_path / "cov")})


@pytest.mark.parametrize("failure,reason", [
    (BlowUpError(0.5), "blowup"),
    (StepBudgetError("step budget exceeded"), "step_budget")])
def test_cover_rows_name_why_each_target_missed(tmp_path, mode_file, monkeypatch,
                                                failure, reason):
    def failing(*args, **kwargs):
        raise failure
    monkeypatch.setattr(steering_module, "steer_to_target", failing)
    assert main(["cover", "--config", cover_config(tmp_path, mode_file, 0.5)]) == 0
    lines = (tmp_path / "cov" / "coverage.csv").read_text().splitlines()
    assert lines[1].endswith(",miss,error,converged")
    assert len(lines) == 2 + 9                    # the center and 2 * 4 vertices
    assert all(line.endswith(",%s,inf,False" % reason) for line in lines[2:])


def test_cover_row_of_a_hit(tmp_path, mode_file):
    # the center target is met exactly from rest
    assert main(["cover", "--config", cover_config(tmp_path, mode_file, 0.0)]) == 0
    lines = (tmp_path / "cov" / "coverage.csv").read_text().splitlines()
    assert lines[2:] == ["0.0,0.0,0.0,0.0,,0.0,True"]


def test_rxprobe_law(tmp_path):
    out = tmp_path / "rx"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode": "law", "omegas": [100, 1000], "duration": 1.0,
        "output_dir": str(out)})
    assert main(["rxprobe", "--config", cfg]) == 0
    lines = (out / "rxprobe.csv").read_text().splitlines()
    assert lines[1] == "omega,rx,expected"
    for line in lines[2:]:
        _, rx, expected = (float(x) for x in line.split(","))
        assert abs(rx - expected) <= 1e-6


def test_rxprobe_trajectory(tmp_path):
    out = tmp_path / "rxt"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode": "trajectory", "deltas": [0.1, 0.05], "duration": 0.5,
        "radius": 3, "nu": 0.0, "dt_base": 1e-3, "state": "random",
        "seed": 4, "output_dir": str(out)})
    assert main(["rxprobe", "--config", cfg]) == 0
    lines = (out / "rxprobe.csv").read_text().splitlines()[2:]
    devs = [float(line.split(",")[2]) for line in lines]
    assert devs[1] <= devs[0]


def test_cover_tau_ladder(tmp_path, mode_file):
    out = tmp_path / "covt"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "nu": 0.01,
        "target_radius": 0.2, "grid_density": 2, "tau": 0.02,
        "tau_ladder": [0.04, 0.02], "fp_tol": 1e-3, "dt_base": 1e-3,
        "state": "rest", "output_dir": str(out)})
    assert main(["cover", "--config", cfg]) == 0
    lines = (out / "near_identity.csv").read_text().splitlines()[2:]
    gaps = [float(line.split(",")[1]) for line in lines]
    assert gaps[1] < gaps[0]


def test_project_subcommand(tmp_path, mode_file):
    e = SpectralState.from_coeffs({(2, 1): 0.5}, 6)
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps([json.loads(state_to_json(e))]))
    out = tmp_path / "proj"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "basis": str(basis_path), "epsilon": 0.05,
        "radius": 6, "nu": 0.0, "target": [0.2], "tau": 1.0, "omega": 400.0,
        "fp_tol": 1e-2, "chatter_windows": 1, "dt_base": 1e-3,
        "state": "rest", "output_dir": str(out)})
    assert main(["project", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["error"] <= 2e-2


def test_project_nonconvergence_exit_2_with_report(tmp_path, mode_file):
    raw = [SpectralState.from_coeffs({(1, 0): 0.8, (2, 1): 0.6 + 0.2j}, 6),
           SpectralState.from_coeffs({(0, 1): 0.7j, (1, 1): -0.5}, 6)]
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps([json.loads(state_to_json(e)) for e in raw]))
    out = tmp_path / "proj"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "basis": str(basis_path), "epsilon": 0.05,
        "radius": 6, "nu": 0.01, "target": [0.2, -0.1], "tau": 1.0, "omega": 400.0,
        "fp_tol": 1e-12, "max_fp_iters": 1, "chatter_windows": 1, "dt_base": 1e-3,
        "record_stride": 20, "state": "rest", "output_dir": str(out)})
    assert main(["project", "--config", cfg]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 1
    assert len(report["achieved"]) == 2
    assert (out / "program.json").exists() and (out / "manifest.json").exists()


def test_step_budget_exit_2_with_error_line(tmp_path, capsys):
    single = symmetrize({(1, 0)})
    seg = Oscillatory.from_cos_pairs(2.0, 1e7, [((1, 0), 1.0)])
    program = tmp_path / "fast.json"
    program.write_text(program_to_json(ForcingProgram(single, [seg])))
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "program": str(program), "dt_base": 1e-3,
        "output_dir": str(tmp_path / "o")})
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step budget" in err


@pytest.mark.parametrize("radius,kernel", [(3, "triad"), (FFT_RADIUS, "fft")])
def test_manifest_names_kernel_and_reruns_bitwise(tmp_path, radius, kernel):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": radius, "nu": 0.01, "duration": 0.02, "dt_base": 5e-3,
        "state": "random", "seed": 4, "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["quadratic_term"] == kernel
    out2 = tmp_path / "sim2"
    assert main(["simulate", "--config", str(out / "manifest.json"),
                 "--output-dir", str(out2)]) == 0
    assert (out2 / "trajectory.csv").read_bytes() == (out / "trajectory.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["quadratic_term"] == kernel


def test_manifest_without_integration_names_no_kernel(tmp_path):
    out = tmp_path / "rx"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode": "law", "omegas": [100.0], "output_dir": str(out)})
    assert main(["rxprobe", "--config", cfg]) == 0
    assert "quadratic_term" not in json.loads((out / "manifest.json").read_text())


def test_step_budget_writes_failure_record(tmp_path):
    single = symmetrize({(1, 0)})
    seg = Oscillatory.from_cos_pairs(2.0, 1e7, [((1, 0), 1.0)])
    program = tmp_path / "fast.json"
    program.write_text(program_to_json(ForcingProgram(single, [seg])))
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "program": str(program), "dt_base": 1e-3,
        "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert "step budget" in failure["error"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["failure.json"]


BLOWUP_STATE = {"state": "random", "state_amplitude": 1e5, "decay": 0.0, "dt_base": 0.05}


def test_rxprobe_blowup_writes_failure_record(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(
        BLOWUP_STATE, mode="trajectory", radius=4, deltas=[0.1], output_dir=str(out)))
    assert main(["rxprobe", "--config", cfg]) == 2
    assert "time" in json.loads((out / "failure.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["failure.json"]
    assert manifest["quadratic_term"] == "triad"


def test_cover_tau_ladder_blowup_keeps_coverage(tmp_path, mode_file):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(
        BLOWUP_STATE, mode_set=mode_file, radius=4, target_radius=0.2,
        grid_density=2, tau=0.02, max_fp_iters=1, tau_ladder=[0.02],
        output_dir=str(out)))
    assert main(["cover", "--config", cfg]) == 2
    assert (out / "coverage.csv").exists()
    assert "time" in json.loads((out / "failure.json").read_text())
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert "coverage.csv" in outputs and "failure.json" in outputs


def test_rxprobe_step_budget_writes_failure_record(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode": "trajectory", "radius": 4, "deltas": [0.1], "duration": 10000,
        "output_dir": str(out)})
    assert main(["rxprobe", "--config", cfg]) == 2
    assert "step budget" in json.loads((out / "failure.json").read_text())["error"]
    assert (out / "manifest.json").exists()


def test_empty_config_takes_the_dataclass_defaults():
    assert _integrator_config({}) == IntegratorConfig()
    assert _steering_config({}) == SteeringConfig()
    # given keys are converted; a null one keeps the default
    scfg = _steering_config({"tau": 1, "omega": None, "dt_base": 5e-3})
    assert scfg.tau == 1.0 and scfg.omega == SteeringConfig().omega
    assert scfg.integrator == IntegratorConfig(dt_base=5e-3)


def test_random_state_run_takes_the_library_defaults(tmp_path):
    # no state_amplitude, decay or nu: random_decaying_state's and SimParams' defaults
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 4, "duration": 0.02, "dt_base": 5e-3, "state": "random",
        "seed": 5, "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 0
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[2:]]
    want = random_decaying_state(4, rng=np.random.default_rng(5))
    assert [row[1:] for row in rows if row[0] == "0.0"] == [
        [str(k[0]), str(k[1]), repr(float(v.real)), repr(float(v.imag))]
        for k, v in want.items()]
    final = integrate(want, SimParams(), zero_program(0.02), IntegratorConfig(dt_base=5e-3))
    assert (out / "final_state.json").read_text() == state_to_json(final.final) + "\n"


def test_chatter_takes_the_library_slack_channel(tmp_path):
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(
        constant_program(FOUR_MODES, {(1, 0): 0.5, (1, 1): -0.25j}, 1.0)))
    out = tmp_path / "chat"
    cfg = write_config(tmp_path, "cfg.json", {
        "program": str(prog_path), "amplitude": 1.0, "windows": 7, "output_dir": str(out)})
    assert main(["chatter", "--config", cfg]) == 0
    want = chattering_approximation(program_from_json(prog_path.read_text()), 1.0, 7)
    assert (out / "chattered.json").read_text() == program_to_json(want, indent=2) + "\n"


def test_unknown_construction_exits_1(tmp_path, capsys):
    # the cascade has one construction, so a config asking for another fails
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40], "duration": 0.02,
        "radius": 4, "construction": "plain", "output_dir": str(out)})
    assert main(["average", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: unknown field 'construction' for 'average'\n"
    assert not out.exists()


@pytest.mark.parametrize("omega", ["-5.0", "Infinity"])
def test_average_rejects_a_frequency_that_is_not_positive(tmp_path, capsys, omega):
    # -5 was measured at 2 pi / duration, Infinity died in math.ceil
    out = tmp_path / "o"
    (tmp_path / "cfg.json").write_text(
        '{"k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [%s], "duration": 0.05, '
        '"radius": 4, "output_dir": "%s"}' % (omega, out))
    assert main(["average", "--config", str(tmp_path / "cfg.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: oscillation frequency must be positive\n"
    assert captured.out == ""
    assert not out.exists()


def test_oscillation_resolution_field_exits_1(tmp_path, capsys):
    # the steps-per-period cap is a constant of the integrator, not a field
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "duration": 0.02, "oscillation_resolution": 8, "output_dir": str(out)})
    assert main(["simulate", "--config", cfg]) == 1
    assert (capsys.readouterr().err
            == "error: unknown field 'oscillation_resolution' for 'simulate'\n")
    assert not out.exists()


def test_misspelt_field_exits_1_without_manifest(tmp_path, mode_file, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "target": [0.0] * 4, "fp_tl": 1e-12,
        "output_dir": str(out)})
    assert main(["steer", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: unknown field 'fp_tl' for 'steer'\n"
    assert not out.exists()


def test_list_field_flag_takes_json_text(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40], "duration": 0.02,
        "radius": 4, "output_dir": str(out)})
    assert main(["average", "--config", cfg, "--omegas", "[40, 80]"]) == 0
    rows = (out / "deviations.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[2:]] == ["40.0", "80.0"]
    assert json.loads((out / "manifest.json").read_text())["config"]["omegas"] == [40, 80]


def test_steer_and_cover_take_one_mode_of_each_pair(tmp_path):
    # the mode set lists (1, 0) and (1, 1) without their negatives
    half = tmp_path / "half.txt"
    half.write_text("1 0\n1 1\n")
    common = {"mode_set": str(half), "radius": 4, "nu": 0.01, "tau": 0.02,
              "fp_tol": 1e-3, "dt_base": 1e-3, "state": "rest",
              "output_dir": str(tmp_path / "o")}
    steer = write_config(tmp_path, "steer.json",
                         dict(common, target=[0.3, 0.0, 0.0, 0.0]))
    assert main(["steer", "--config", steer]) == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["converged"] is True
    cover = write_config(tmp_path, "cover.json",
                         dict(common, target_radius=0.2, grid_density=2))
    assert main(["cover", "--config", cover]) == 0


@pytest.mark.parametrize("flag", ["--nu", "--dt-base", "--tau", "--fp-tol"])
def test_non_finite_value_exits_1_naming_the_field(tmp_path, mode_file, capsys, flag):
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "target": [0.0] * 4,
        "output_dir": str(tmp_path / "o")})
    assert main(["steer", "--config", cfg, flag, "NaN"]) == 1
    err = capsys.readouterr().err
    field = "viscosity" if flag == "--nu" else flag[2:].replace("-", "_")
    assert err.startswith("error: ") and field in err


def test_steer_zero_fixed_point_iterations_exits_1(tmp_path, mode_file, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "mode_set": mode_file, "radius": 4, "target": [0.0] * 4,
        "output_dir": str(tmp_path / "o")})
    assert main(["steer", "--config", cfg, "--max-fp-iters", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_fp_iters" in err


@pytest.mark.parametrize("command,flag,value,field", [
    ("saturate", "--radius", "Infinity", "radius"),
    ("saturate", "--seed", "Infinity", "seed"),
    ("simulate", "--record-stride", "NaN", "record_stride"),
    ("chatter", "--windows", "NaN", "windows"),
    ("simulate", "--duration", "NaN", "duration"),
])
def test_bad_value_exits_1_naming_the_field(tmp_path, mode_file, capsys,
                                            command, flag, value, field):
    program = tmp_path / "prog.json"
    program.write_text(program_to_json(constant_program(FOUR_MODES, {(1, 0): 0.5}, 1.0)))
    payload = {"saturate": {"mode_set": mode_file, "radius": 3},
               "simulate": {"radius": 3, "duration": 0.02},
               "chatter": {"program": str(program), "amplitude": 1.0, "windows": 4}}
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(payload[command], output_dir=str(out)))
    assert main([command, "--config", cfg, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (out / "manifest.json").exists()


AVERAGE = {"k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40], "duration": 0.02,
           "radius": 4}
STEER = {"mode_set": "K1", "radius": 4, "target": [0.0] * 4}
SATURATE = {"mode_set": "K1", "radius": 3}
CHATTER = {"program": "PROG", "amplitude": 1.0, "windows": 4}
# each integer field, a command reading it and a config valid apart from it;
# "K1" names the mode-set file and "PROG" a program file
INTEGER_FIELD_RUNS = {
    "record_stride": ("simulate", {"radius": 3, "duration": 0.02}),
    "max_fp_iters": ("steer", STEER), "chatter_windows": ("steer", STEER),
    "radius": ("saturate", SATURATE), "seed": ("saturate", SATURATE),
    "max_levels": ("saturate", SATURATE),
    "windows": ("chatter", CHATTER), "slack_channel": ("chatter", CHATTER),
    "grid_density": ("cover", {"mode_set": "K1", "radius": 4, "target_radius": 0.2}),
    "k": ("average", AVERAGE), "pair": ("average", AVERAGE),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", list(INTEGER_FIELD_RUNS))
def test_integer_field_given_a_non_integer_exits_1_naming_it(tmp_path, mode_file, capsys,
                                                              field, value):
    # int() ran 2.5 as 2 and true as 1 while the manifest recorded 2.5 and true
    command, fields = INTEGER_FIELD_RUNS[field]
    program = tmp_path / "prog.json"
    program.write_text(program_to_json(constant_program(FOUR_MODES, {(1, 0): 0.5}, 1.0)))
    files = {"K1": mode_file, "PROG": str(program)}
    payload = {f: files[v] if isinstance(v, str) else v for f, v in fields.items()}
    payload[field] = {"k": [value, 1], "pair": [[value, 0], [1, 1]]}.get(field, value)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(payload, output_dir=str(out)))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field '%s': " % field) and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_steer_with_non_integral_counts_exits_1_without_manifest(tmp_path, mode_file,
                                                                  capsys):
    # ran 2 iterations, 1 window and stride 2, and the manifest recorded 2.5, true, 2.5
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(
        STEER, mode_set=mode_file, max_fp_iters=2.5, chatter_windows=True,
        record_stride=2.5, output_dir=str(out)))
    assert main(["steer", "--config", cfg]) == 1
    assert capsys.readouterr().err == \
        "error: field 'record_stride': value must be an integer, not 2.5\n"
    assert not (out / "manifest.json").exists()


# a config of each command, valid as it stands, that reads every real field
# (a random state reads state_amplitude and decay); "BASIS" names a basis file
RANDOM = {"radius": 4, "state": "random"}
REAL_FIELD_CONFIGS = {
    "simulate": dict(RANDOM, duration=0.02),
    "steer": dict(STEER, state="random"),
    "average": dict(AVERAGE, state="random"),
    "chatter": CHATTER,
    "cover": dict(RANDOM, mode_set="K1", target_radius=0.2),
    "project": dict(RANDOM, mode_set="K1", basis="BASIS", epsilon=0.05, target=[0.2]),
    "rxprobe": dict(RANDOM, duration=0.02),
}
NOT_REAL = {"radius", "record_stride", "max_fp_iters", "chatter_windows", "max_levels",
            "windows", "slack_channel", "grid_density", "k", "pair", "mode_set", "observed",
            "state", "program", "basis", "mode"}
REAL_FIELDS = [(command, field) for command, (_, fields) in _COMMANDS.items()
               for field in fields if field not in NOT_REAL]


def real_field_config(tmp_path, mode_file, command):
    """``REAL_FIELD_CONFIGS[command]`` with its file names written and filled in."""
    program = tmp_path / "prog.json"
    program.write_text(program_to_json(constant_program(FOUR_MODES, {(1, 0): 0.5}, 1.0)))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([json.loads(state_to_json(
        SpectralState.from_coeffs({(2, 1): 0.5}, 4)))]))
    files = {"K1": mode_file, "PROG": str(program), "BASIS": str(basis)}
    return {f: files.get(v, v) if isinstance(v, str) else v
            for f, v in REAL_FIELD_CONFIGS[command].items()}


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize("command,field", REAL_FIELDS,
                         ids=["%s-%s" % run for run in REAL_FIELDS])
def test_real_field_given_a_bool_or_a_string_exits_1_naming_it(tmp_path, mode_file, capsys,
                                                               command, field, value):
    # float() ran true as 1 and parsed "0.5", and the manifest echoed both
    payload = real_field_config(tmp_path, mode_file, command)
    list_field = field in ("target", "omegas", "tau_ladder", "deltas")
    payload[field] = [value] if list_field else value
    if field == "omegas" and command == "rxprobe":
        payload["mode"] = "law"
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(payload, output_dir=str(out)))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field '%s': " % field) and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


LIST_FIELDS = [("steer", "target"), ("project", "target"), ("average", "omegas"),
               ("rxprobe", "omegas"), ("rxprobe", "deltas"), ("cover", "tau_ladder"),
               ("average", "k"), ("average", "pair")]


@pytest.mark.parametrize("command,field", LIST_FIELDS, ids=["%s-%s" % run for run in LIST_FIELDS])
def test_list_field_given_a_string_exits_1_naming_it(tmp_path, mode_file, capsys,
                                                     command, field):
    # the string was read one character at a time, so "21" failed naming '2'
    payload = dict(real_field_config(tmp_path, mode_file, command), **{field: "21"})
    if field == "omegas" and command == "rxprobe":
        payload["mode"] = "law"
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(payload, output_dir=str(out)))
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field '%s': value must be a list, not '21'\n" % field
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("field,value", [("deltas", [0]), ("omegas", [0]), ("omegas", [-1])])
def test_rxprobe_rejects_a_frequency_or_delta_that_is_not_positive(tmp_path, capsys,
                                                                   field, value):
    # 0 died in a ZeroDivisionError traceback; -1 was read as a complex amplitude
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "mode": "law" if field == "omegas" else "trajectory", "duration": 0.02,
        "radius": 3, field: value, "output_dir": str(out)})
    assert main(["rxprobe", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field '%s': value must be positive\n" % field
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, command):
    # numpy rejected it without naming the field, and saturate ran with it
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {"seed": -1, "output_dir": str(out)})
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: field 'seed': value must be >= 0\n"
    assert not out.exists()


def run_module_main(monkeypatch, argv) -> int:
    """Exit code of ``python -m modecascade`` with these arguments, run in-process."""
    monkeypatch.setattr(sys, "argv", ["modecascade", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("modecascade", run_name="__main__")
    return exc.value.code


def test_module_entry_prints_the_version(monkeypatch, capsys):
    assert run_module_main(monkeypatch, ["--version"]) == 0
    assert capsys.readouterr().out == __version__ + "\n"


def test_module_entry_exits_1_on_a_failing_config(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {"radius": 2.5, "duration": 0.02,
                                              "output_dir": str(out)})
    assert run_module_main(monkeypatch, ["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: field 'radius': ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "cfg.json", "--bogus", "1"],
    ["saturate", "--config", "cfg.json", "--nu", "0.1"],
    ["simulate"],
    ["teleport", "--config", "cfg.json"],
])
def test_usage_errors_exit_1(capsys, argv):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["steer", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    assert main(argv) == 0


@pytest.mark.parametrize("command,flag", [
    ("average", "--decay"), ("steer", "--max-levels"), ("cover", "--max-levels"),
    ("project", "--max-levels"), ("steer", "--record-stride"),
    ("average", "--record-stride"), ("cover", "--record-stride"),
    ("rxprobe", "--record-stride"), ("project", "--record-stride")])
def test_every_scalar_field_read_has_a_flag(command, flag):
    args = build_parser().parse_args([command, "--config", "cfg.json", flag, "3"])
    assert getattr(args, flag[2:].replace("-", "_")) == "3"


@pytest.mark.parametrize("field,value", [("pair", [[1, 0]]), ("k", [2, 1, 0]),
                                         ("omegas", 40)])
def test_malformed_list_field_exits_1_naming_it(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, "cfg.json", {
        "k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40], "duration": 0.02,
        "radius": 4, field: value, "output_dir": str(tmp_path / "o")})
    assert main(["average", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: field '%s': " % field)


@pytest.mark.parametrize("command,flag,value", [
    ("project", "--epsilon", "NaN"), ("project", "--epsilon", "Infinity"),
    ("cover", "--target-radius", "NaN"), ("cover", "--target-radius", "-0.1"),
    ("simulate", "--decay", "Infinity"), ("simulate", "--state-amplitude", "NaN")])
def test_out_of_range_library_input_exits_1_without_manifest(
        tmp_path, mode_file, capsys, command, flag, value):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([json.loads(state_to_json(
        SpectralState.from_coeffs({(2, 1): 0.5}, 6)))]))
    payload = {"project": {"mode_set": mode_file, "basis": str(basis), "epsilon": 0.05,
                           "target": [0.2]},
               "cover": {"mode_set": mode_file, "radius": 4, "target_radius": 0.2},
               "simulate": {"radius": 3, "duration": 0.02, "state": "random"}}
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(payload[command], output_dir=str(out)))
    assert main([command, "--config", cfg, flag, value]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("project", "--epsilon", "2"), ("average", "--amplitude", "NaN"),
    ("average", "--amplitude", "-Infinity")])
def test_rejected_library_input_is_named_and_writes_no_manifest(
        tmp_path, mode_file, capsys, command, flag, value):
    # an epsilon that keeps no coordinate mode, a non-finite drive amplitude
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([json.loads(state_to_json(
        SpectralState.from_coeffs({(2, 1): 0.5}, 6)))]))
    payload = {"project": {"mode_set": mode_file, "basis": str(basis), "target": [0.2]},
               "average": {"k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40],
                           "duration": 0.02, "radius": 4}}
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(payload[command], output_dir=str(out)))
    assert main([command, "--config", cfg, flag, value]) == 1
    assert flag[2:] in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_average_random_state_amplitude_is_not_the_drive(tmp_path):
    out = tmp_path / "avg"
    cfg = write_config(tmp_path, "cfg.json", {
        "k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40, 80], "amplitude": 0.7,
        "state": "random", "state_amplitude": 0.2, "duration": 0.05, "radius": 4,
        "dt_base": 1e-3, "seed": 8, "output_dir": str(out)})
    assert main(["average", "--config", cfg]) == 0
    devs, _ = averaging_experiment(
        (2, 1), ((1, 0), (1, 1)), 0.7, [40.0, 80.0], 0.05,
        random_decaying_state(4, 0.2, rng=np.random.default_rng(8)), SimParams(),
        IntegratorConfig(dt_base=1e-3))
    assert (out / "deviations.csv").read_text().splitlines()[2:] == [
        "40.0,%r" % devs[0], "80.0,%r" % devs[1]]


@pytest.mark.parametrize("command", ["simulate", "steer", "cover", "project", "rxprobe"])
def test_random_state_amplitude_field_is_state_amplitude(tmp_path, capsys, command):
    # a config written for the old shared name fails instead of changing meaning
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", {
        "radius": 3, "state": "random", "amplitude": 0.3, "output_dir": str(out)})
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: unknown field 'amplitude' for '%s'\n" % command
    assert not out.exists()


UNREADABLE_RUNS = {
    "state": ("simulate", {"radius": 3, "duration": 0.01}),
    "program": ("simulate", {"radius": 3}),
    "basis": ("project", {"mode_set": "K1", "epsilon": 0.05, "target": [0.1]}),
    "mode_set": ("saturate", {"radius": 3}),
    "observed": ("steer", {"mode_set": "K1", "radius": 3, "target": [0.1] * 4}),
    "config": ("simulate", {"radius": 3, "duration": 0.01}),
}


@pytest.mark.parametrize("field", list(UNREADABLE_RUNS))
def test_unreadable_input_path_exits_1_naming_the_field(tmp_path, mode_file, capsys, field):
    # a directory where a file is expected
    adir = tmp_path / "adir"
    adir.mkdir()
    command, fields = UNREADABLE_RUNS[field]
    fields = {f: mode_file if v == "K1" else v for f, v in fields.items()}
    if field != "config":
        fields[field] = str(adir)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg.json", dict(fields, output_dir=str(out)))
    assert main([command, "--config", str(adir) if field == "config" else cfg]) == 1
    assert capsys.readouterr().err.startswith("error: field '%s': " % field)
    assert not out.exists()


def test_config_that_is_not_json_exits_1_naming_the_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{radius: 3}")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: field 'config': Expecting property name enclosed in double quotes")


CSV_RUNS = {
    "simulate": {"radius": 3, "duration": 0.02, "dt_base": 1e-2, "state": "random"},
    "cover": {"mode_set": "K1", "radius": 4, "target_radius": 0.0, "tau": 0.02,
              "tau_ladder": [0.02], "dt_base": 1e-3},
    "average": {"k": [2, 1], "pair": [[1, 0], [1, 1]], "omegas": [40], "duration": 0.02,
                "radius": 4, "dt_base": 1e-3},
    "law": {"mode": "law", "omegas": [100]},
    "trajectory": {"mode": "trajectory", "deltas": [0.1], "duration": 0.02, "radius": 3,
                   "dt_base": 1e-3},
}


@pytest.mark.parametrize("run,name,header", [
    ("simulate", "trajectory.csv", "t,kx,ky,re,im"),
    ("simulate", "summary.csv", "t,energy,enstrophy,h1,h2"),
    ("cover", "coverage.csv", "target_0,target_1,target_2,target_3,miss,error,converged"),
    ("cover", "near_identity.csv", "tau,near_identity_gap"),
    ("average", "deviations.csv", "omega,deviation"),
    ("law", "rxprobe.csv", "omega,rx,expected"),
    ("trajectory", "rxprobe.csv", "delta,rx,sup_deviation")],
    ids=["trajectory", "summary", "coverage", "near_identity", "deviations",
         "rxprobe_law", "rxprobe_trajectory"])
def test_every_csv_has_a_seed_line_a_header_and_line_feeds(tmp_path, mode_file,
                                                           run, name, header):
    out = tmp_path / "o"
    fields = {f: mode_file if v == "K1" else v for f, v in CSV_RUNS[run].items()}
    cfg = write_config(tmp_path, "cfg.json", dict(fields, seed=9, output_dir=str(out)))
    command = "rxprobe" if run in ("law", "trajectory") else run
    assert main([command, "--config", cfg]) == 0
    text = (out / name).read_bytes().decode()
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[:2] == ["# seed=9", header]
    assert len(lines) > 3 and lines[-1] == ""
