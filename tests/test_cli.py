"""Command-line surface: flag handling, config merging, formats, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import cavityherald
from cavityherald.cli import main
from cavityherald.core import CavityParams
from cavityherald.protocol import false_reflection_fidelity
from conftest import run_cli

_MAIN = "from cavityherald.cli import main; main()"  # the CLI as a process
_TESTS = str(pathlib.Path(__file__).parent)  # where conftest.py lives


# ------------------------------------------------------------------- response

def test_response_single_row_exact_bytes():
    res = run_cli("response", "--x", "1", "--n", "1")
    assert res.exit_code == 0
    assert res.output == "x,N,R,T,lambda\n1.0,1,0.64,0.04,0.32\n"


def test_response_default_grid():
    res = run_cli("response")
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,N,R,T,lambda"
    assert len(lines) == 1 + 40 * 3  # default grid, N in {0, 1, 2}


def test_response_empty_cavity_row():
    res = run_cli("response", "--x", "2.5", "--n", "0")
    assert res.output.splitlines()[1] == "2.5,0,0.0,1.0,0.0"


def test_response_json_mirrors_csv_fields():
    res = run_cli("response", "--x", "1", "--n", "1",
                  "--format", "json")
    rows = json.loads(res.output)
    assert rows == [{"x": 1.0, "N": 1, "R": 0.6400000000000001,
                     "T": 0.04000000000000001, "lambda": 0.32}]


def test_response_rejects_empty_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x_grid": []}')
    res = run_cli("response", "--config", str(cfg))
    assert res.exit_code == 2


def test_response_rejects_fractional_atom_count(tmp_path):
    # only reachable through a config file; the flag is typed int
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_values": [1.5]}')
    res = run_cli("response", "--config", str(cfg), "--x", "1")
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ("response", "--x", "-1"),
    ("response", "--x", "1", "--n", "-1"),
    ("spectrum", "--x", "1", "--n", "-1"),
])
def test_negative_cooperativity_or_atom_count_is_a_usage_error(args):
    # the library's own range checks, turned into exit 2
    res = run_cli(*args)
    assert res.exit_code == 2
    assert res.stdout == ""


@pytest.mark.parametrize("config", [
    '{"n_values": [Infinity], "x_grid": [1.0]}',
    '{"n_values": [NaN], "x_grid": [1.0]}',
    '{"n_values": [1%s], "x_grid": [1e10]}' % ("0" * 300),
], ids=["infinite", "nan", "overflowing-4Nx"])
def test_response_rejects_atom_counts_it_cannot_model(tmp_path, config):
    # an infinite count used to end in an OverflowError traceback (exit 1),
    # and 4 N x = 4e310 in a table of R = nan (exit 0); the type rule now
    # rejects the two floats, and the library the integer 10^300
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = run_cli("response", "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""


@pytest.mark.parametrize("n_atoms", ["Infinity", "1" + "0" * 300],
                         ids=["Infinity", "1e300"])
def test_spectrum_rejects_atom_counts_it_cannot_model(tmp_path, n_atoms):
    # N g^2 = 1e310 made every amplitude nan; 10^300 is a JSON integer, so
    # the type rule lets it through to the library
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"x": 1e10, "n_atoms": {n_atoms}}}')
    res = run_cli("spectrum", "--config", str(cfg), "--omega", "0")
    assert res.exit_code == 2
    assert res.stdout == ""


def test_spectrum_rejects_a_coupling_whose_square_overflows(tmp_path):
    # g ** 2 = 1e400 ended in an OverflowError traceback (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1e200, "kappa_a": 0.5, "kappa_b": 0.5,'
                   ' "gamma": 1.0}')
    res = run_cli("spectrum", "--config", str(cfg), "--omega", "0")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "overflow" in res.output


# ------------------------------------------------------------------- spectrum

def test_spectrum_header_and_resonant_row():
    res = run_cli("spectrum", "--x", "1", "--n", "1", "--omega", "0")
    lines = res.output.splitlines()
    assert lines[0] == "omega,re_r,im_r,re_t,im_t,R,T,lambda"
    assert lines[1] == "0.0,0.8,0.0,-0.2,0.0,0.64,0.04,0.32"


def test_spectrum_empty_cavity_transmits_on_resonance():
    res = run_cli("spectrum", "--x", "1", "--n", "0", "--omega", "0",
                  "--format", "json")
    row = json.loads(res.output)[0]
    assert row["T"] == 1.0
    assert row["R"] == 0.0


def test_spectrum_far_detuned_reflects():
    res = run_cli("spectrum", "--x", "1", "--n", "1",
                  "--omega", "1e5", "--format", "json")
    row = json.loads(res.output)[0]
    assert row["R"] > 0.99999


def test_spectrum_default_window():
    res = run_cli("spectrum", "--x", "1", "--n", "1")
    assert len(res.output.strip().splitlines()) == 1 + 201


# ------------------------------------------------------------------- protocol

def test_protocol_requires_scheme_parameters():
    assert run_cli("protocol", "--scheme", "fock-single",
                   "--x", "1").exit_code == 2  # no phi
    assert run_cli("protocol", "--scheme", "coherent-double",
                   "--x", "1").exit_code == 2  # no n-max
    assert run_cli("protocol", "--x", "1").exit_code == 2  # no scheme
    res = run_cli("protocol", "--scheme", "fock-double")  # no x
    assert res.exit_code == 2
    assert "cooperativity required" in res.output
    # out-of-range values are usage errors, not tracebacks
    assert run_cli("protocol", "--scheme", "fock-single",
                   "--x", "1", "--phi", "3").exit_code == 2
    for n_max in ("0", "-1"):
        assert run_cli("protocol", "--scheme", "coherent-double",
                       "--x", "1", "--n-max", n_max).exit_code == 2


def test_protocol_fock_double_row():
    res = run_cli("protocol", "--scheme", "fock-double", "--x", "1")
    lines = res.output.splitlines()
    assert lines[0].startswith("scheme,p_success,fidelity,status")
    assert lines[1].startswith("fock-double,0.2048,1.0,ok")


def test_protocol_undefined_outcome_is_explicit():
    res = run_cli("protocol", "--scheme", "fock-single",
                  "--x", "0", "--phi", "0.5", "--format", "json")
    assert res.exit_code == 0
    row = json.loads(res.output)[0]
    assert row["status"] == "undefined"
    assert row["fidelity"] is None


def test_fock_double_without_reflection_is_undefined():
    # R1 = 0 at x = 0; the row used to read "ok" with F = 1 at P_s = 0
    res = run_cli("protocol", "--scheme", "fock-double", "--x", "0")
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "fock-double,0.0,,undefined,,,"
    res = run_cli("optimize", "--scheme", "fock-double", "--x", "0",
                  "--f-target", "0.9")
    assert res.exit_code == 1  # no row is feasible
    assert res.output.splitlines()[1] == \
        "0.0,fock-double,1.0,0.9,,,0.0,,infeasible"


def test_optimize_without_a_detector_is_infeasible():
    # at eta = 0 no click can occur
    res = run_cli("optimize", "--scheme", "fock-single", "--x", "1",
                  "--eta", "0", "--f-target", "0.9")
    assert res.exit_code == 1
    assert res.output.splitlines()[1] == \
        "1.0,fock-single,0.0,0.9,,,0.0,,infeasible"


@pytest.mark.parametrize("scheme", ["fock-single", "coherent-single",
                                    "coherent-double"])
def test_protocol_rejects_a_spurious_reflection_it_does_not_model(scheme):
    # only fock-double models f
    res = run_cli("protocol", "--scheme", scheme, "--x", "1",
                  *_SCHEME_FLAGS[scheme], "--f-spurious", "0.05")
    assert res.exit_code == 2
    assert "f = 0.05" in res.output
    assert "Traceback" not in res.output


def test_protocol_coherent_double_reports_uncorrected_comparison():
    res = run_cli("protocol", "--scheme", "coherent-double",
                  "--x", "1", "--n-max", "2", "--format", "json")
    row = json.loads(res.output)[0]
    assert math.isclose(row["p_success"], 0.1830374774833587, rel_tol=1e-12)
    assert math.isclose(row["fidelity"], 0.8471709597659821, rel_tol=1e-12)
    assert row["uncorrected_fidelity"] > 1.0


def test_protocol_coherent_double_undefined_row_has_no_nan():
    args = ("protocol", "--scheme", "coherent-double", "--x", "0",
            "--n-max", "2")
    res = run_cli(*args)
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "coherent-double,0.0,,undefined,,,"
    row = json.loads(run_cli(*args, "--format", "json").output)[0]
    assert row["uncorrected_fidelity"] is None


def test_protocol_f_spurious_flag_wins_over_config(tmp_path):
    params = CavityParams.from_cooperativity(1.0)
    args = ("protocol", "--scheme", "fock-double", "--x", "1",
            "--format", "json")
    res = run_cli(*args, "--f-spurious", "0.05")
    assert res.exit_code == 0
    want = false_reflection_fidelity(params, 0.05)
    assert json.loads(res.output)[0]["fidelity"] == want < 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"f": 0.2}')
    res = run_cli(*args, "--config", str(cfg))
    assert (json.loads(res.output)[0]["fidelity"]
            == false_reflection_fidelity(params, 0.2))
    res = run_cli(*args, "--config", str(cfg), "--f-spurious", "0.05")
    assert json.loads(res.output)[0]["fidelity"] == want


# the scheme parameters each scheme takes, and nothing else
_SCHEME_FLAGS = {"fock-single": ["--phi", "0.6"], "fock-double": [],
                 "coherent-single": ["--phi", "0.6", "--n-max", "1.5"],
                 "coherent-double": ["--n-max", "1.5"]}


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("scheme, name", [
    ("fock-single", "n_max"), ("fock-double", "phi"),
    ("fock-double", "n_max"), ("coherent-double", "phi")])
def test_protocol_rejects_a_parameter_the_scheme_does_not_take(
        tmp_path, route, scheme, name):
    value = {"phi": 0.6, "n_max": 1.5}[name]
    args = ["protocol", "--scheme", scheme, "--x", "0.7",
            *_SCHEME_FLAGS[scheme]]
    if route == "flag":
        args += ["--" + name.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        args += ["--config", str(cfg)]
    res = run_cli(*args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "takes no" in res.output and name in res.output


def test_protocol_eta_flag():
    res = run_cli("protocol", "--scheme", "fock-double", "--x", "1",
                  "--eta", "0.5", "--format", "json")
    row = json.loads(res.output)[0]
    assert math.isclose(row["p_success"], 0.2048 / 4, rel_tol=1e-12)


# ------------------------------------------------------------ non-finite input

@pytest.mark.parametrize("args", [
    ("response", "--x", "nan"),
    ("response", "--x", "inf"),
    ("spectrum", "--x", "1", "--omega", "nan"),
    ("spectrum", "--x", "1", "--omega-stop", "inf"),
    ("protocol", "--scheme", "fock-double", "--x", "inf"),
    ("protocol", "--scheme", "coherent-double", "--x", "1", "--n-max", "nan"),
    ("protocol", "--scheme", "coherent-single", "--x", "1", "--phi", "0.5",
     "--n-max", "inf"),
    ("optimize", "--scheme", "fock-double", "--x", "inf", "--f-target", "0.9"),
    ("optimize", "--scheme", "fock-single", "--x", "1", "--x", "inf",
     "--f-target", "0.9"),
])
def test_non_finite_input_is_a_usage_error(args):
    res = run_cli(*args)
    assert res.exit_code == 2
    assert res.stdout == ""  # no row, NaN or otherwise


@pytest.mark.parametrize("args", [
    ("response", "--x", "1e200", "--n", "1"),
    ("protocol", "--scheme", "fock-single", "--x", "1e200", "--phi", "0.5"),
    ("protocol", "--scheme", "coherent-double", "--x", "1e200",
     "--n-max", "1"),
    ("optimize", "--scheme", "coherent-single", "--x", "1e200",
     "--f-target", "0.9"),
])
def test_cooperativity_above_x_max_is_a_usage_error(args):
    # (1 + 4 N x)^2 would overflow near x = 3e153
    res = run_cli(*args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "X_MAX" in res.output


def test_cooperativity_at_x_max_is_accepted():
    res = run_cli("response", "--x", "1e100", "--n", "2")
    assert res.exit_code == 0
    assert res.stdout == "x,N,R,T,lambda\n1e+100,2,1.0,1.5625e-202,2.5e-101\n"


# -------------------------------------------------------------------- parsing

def test_a_flag_takes_its_value_after_an_equals_sign():
    res = run_cli("response", "--x=1", "--n=1")
    assert res.exit_code == 0
    assert res.stdout == "x,N,R,T,lambda\n1.0,1,0.64,0.04,0.32\n"


def test_a_negative_number_is_a_value_not_a_flag():
    res = run_cli("spectrum", "--x", "1", "--omega-start", "-1e3",
                  "--omega-stop", "1e3", "--omega-points", "2")
    assert res.exit_code == 0
    assert res.stdout == (
        "omega,re_r,im_r,re_t,im_t,R,T,lambda\n"
        "-1000.0,0.999999749999,0.000500000375,-2.50000687501e-07,"
        "0.000500000375,0.999999749999,2.500004375e-07,4.99895978597e-13\n"
        "1000.0,0.999999749999,-0.000500000375,-2.50000687501e-07,"
        "-0.000500000375,0.999999749999,2.500004375e-07,4.99895978597e-13\n")


def test_negative_infinity_reaches_the_library_check():
    res = run_cli("response", "--x", "-inf")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.endswith("\nError: cooperativity must lie in "
                               "[0, X_MAX = 1e+100], got -inf\n")


def test_a_repeated_single_flag_keeps_its_last_value():
    res = run_cli("protocol", "--scheme", "fock-single", "--x", "1", "--x",
                  "0.5", "--phi", "0.6", "--phi", "0.4")
    assert res.exit_code == 0
    assert res.stdout == run_cli("protocol", "--scheme", "fock-single",
                                 "--x", "0.5", "--phi", "0.4").stdout


def test_a_repeatable_flag_keeps_its_order():
    res = run_cli("response", "--x", "2", "--n", "2", "--x", "0.5",
                  "--n", "1")
    assert res.exit_code == 0
    rows = [line.split(",")[:2] for line in res.stdout.splitlines()[1:]]
    assert rows == [["2.0", "2"], ["2.0", "1"], ["0.5", "2"], ["0.5", "1"]]


_COMMAND_USAGE = ("Usage: cavityherald response [OPTIONS]\n"
                  "Try 'cavityherald response --help' for help.\n\n")
_PROGRAM_USAGE = ("Usage: cavityherald [OPTIONS] COMMAND [ARGS]...\n"
                  "Try 'cavityherald --help' for help.\n\n")


@pytest.mark.parametrize("args, usage, error", [
    (["response", "--x"], _COMMAND_USAGE,
     "Option '--x' requires an argument."),
    (["response", "--bogus", "1"], _COMMAND_USAGE,
     "No such option '--bogus'."),
    (["response", "--x", "1", "extra"], _COMMAND_USAGE,
     "Got unexpected extra argument (extra)"),
    (["bogus"], _PROGRAM_USAGE, "No such command 'bogus'."),
    (["--x", "1", "response"], _PROGRAM_USAGE, "No such option '--x'."),
    ([], _PROGRAM_USAGE, "Missing command."),
    (["response", "--n", "1.5"], _COMMAND_USAGE,
     "Invalid value for '--n': '1.5' is not a valid integer."),
    (["response", "--x", "abc"], _COMMAND_USAGE,
     "Invalid value for '--x': 'abc' is not a valid float."),
], ids=["missing-value", "unknown-option", "extra-argument",
        "unknown-command", "option-before-command", "bare", "fractional-n",
        "text-x"])
def test_a_bad_command_line_is_a_usage_error(args, usage, error):
    res = run_cli(*args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"{usage}Error: {error}\n"


@pytest.mark.parametrize("route", ["missing", "directory"])
def test_config_flag_needs_an_existing_file(tmp_path, route):
    path = tmp_path / "missing.json" if route == "missing" else tmp_path
    res = run_cli("response", "--config", str(path))
    assert res.exit_code == 2
    assert res.stdout == ""
    why = "does not exist" if route == "missing" else "is a directory"
    assert f"Error: Invalid value for '--config': File '{path}' {why}." \
        in res.stderr


def test_program_help_lists_the_commands():
    res = run_cli("--help")
    assert res.exit_code == 0
    assert res.stderr == ""
    head, commands = res.stdout.split("\nCommands:\n")
    assert head.startswith("Usage: cavityherald [OPTIONS] COMMAND")
    assert [line.split()[0] for line in commands.splitlines()
            if not line.startswith("    ")] == list(main.commands) == [
        "response", "spectrum", "protocol", "optimize", "verify"]


# --------------------------------------------------------------------- config

@pytest.mark.parametrize("args, config", [
    (("response",), '{"x_grid": ["a"]}'),
    (("spectrum", "--x", "1"), '{"omega_points": 2.5}'),
    (("spectrum", "--x", "1"), '{"n_atoms": "1"}'),
    (("protocol", "--scheme", "fock-double"), '{"x": "1"}'),
    (("protocol", "--scheme", "fock-double", "--x", "1"), '{"eta": true}'),
    (("optimize", "--scheme", "fock-double", "--f-target", "0.9"),
     '{"x_grid": [1, "2"]}'),
    # an int flag takes a JSON integer, as --n rejects 2.0
    (("spectrum", "--x", "1"), '{"n_atoms": 2.0}'),
    (("response", "--x", "1"), '{"n_values": [1.0]}'),
    (("verify",), '{"seed": true}'),
], ids=["response-grid", "spectrum-count", "spectrum-atoms", "protocol-x",
        "protocol-bool", "optimize-grid", "spectrum-integral-float",
        "response-integral-float", "verify-bool"])
def test_config_value_of_wrong_type_is_a_usage_error(tmp_path, args, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = run_cli(*args, "--config", str(cfg))
    assert res.exit_code == 2
    assert "wrong type" in res.output


@pytest.mark.parametrize("args", [
    ("response", "--x", "1", "--n", "1"),
    ("spectrum", "--x", "1"),
    ("protocol", "--scheme", "fock-double", "--x", "1"),
    ("optimize", "--scheme", "fock-double", "--f-target", "0.9"),
], ids=["response", "spectrum", "protocol", "optimize"])
def test_config_unknown_format_is_a_usage_error(tmp_path, args):
    # the same rule as the --format flag, which accepts only csv and json
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "xml"}')
    res = run_cli(*args, "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "csv or json" in res.output


@pytest.mark.parametrize("args, config", [
    (("response", "--x", "1"), '{"n_values": []}'),
    (("spectrum", "--x", "1"), '{"omega_grid": []}'),
    (("optimize", "--scheme", "fock-double", "--f-target", "0.9"),
     '{"x_grid": []}'),
], ids=["response-n", "spectrum-omega", "optimize-x"])
def test_config_empty_grid_is_a_usage_error(tmp_path, args, config):
    # like an empty response x_grid, no empty grid falls back to a default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = run_cli(*args, "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "is empty" in res.output


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": 1.0, "scheme": "fock-double"}')
    base = run_cli("protocol", "--config", str(cfg), "--format",
                   "json")
    assert json.loads(base.output)[0]["p_success"] == 0.2048000000000001
    over = run_cli("protocol", "--config", str(cfg), "--x", "0.25",
                   "--format", "json")
    # R_1(0.25) = 1/4, so the double-click probability drops to 1/32
    assert json.loads(over.output)[0]["p_success"] == 0.03125


def test_config_unknown_scheme_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": 1.0, "scheme": "bogus"}')
    res = run_cli("protocol", "--config", str(cfg))
    assert res.exit_code == 2
    assert "bogus" in res.output


@pytest.mark.parametrize("args", [
    ("protocol", "--x", "1"),
    ("optimize", "--f-target", "0.9"),
], ids=["protocol", "optimize"])
def test_config_unknown_scheme_names_the_choices(tmp_path, args):
    # the rule of the --scheme flag, whose choices the message lists
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scheme": "bogus"}')
    res = run_cli(*args, "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert ("config scheme must be fock-single, fock-double, coherent-single"
            " or coherent-double, got 'bogus'") in res.output


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": 1.0, "bogus": 2}')
    res = run_cli("response", "--config", str(cfg))
    assert res.exit_code == 2
    assert "bogus" in res.output


def test_config_raw_rates_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"g": 2.0, "kappa_a": 1.0, "kappa_b": 1.0, "gamma": 2.0}')
    res = run_cli("protocol", "--config", str(cfg),
                  "--scheme", "fock-double", "--format", "json")
    assert json.loads(res.output)[0]["p_success"] == 0.2048000000000001


def test_config_inconsistent_units_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1.0, "kappa_a": 0.5, "kappa_b": 0.5,'
                   ' "gamma": 1.0, "x": 3.0}')
    res = run_cli("protocol", "--config", str(cfg),
                  "--scheme", "fock-double")
    assert res.exit_code == 2


def test_config_consistent_units_agree_to_relative_precision(tmp_path):
    # g^2/(kappa gamma) = 1e13 to 2e-16 relative, which is 0.002 absolute
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 3162277.6601683795, "kappa_a": 0.5,'
                   ' "kappa_b": 0.5, "gamma": 1.0, "x": 1e13}')
    res = run_cli("protocol", "--config", str(cfg),
                  "--scheme", "fock-double", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.stdout)[0]["status"] == "ok"


def test_config_inconsistent_small_units_rejected(tmp_path):
    # the raw rates give x = 1e-12, which is 5e-10 less than the x given
    # but 500 times smaller
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1e-6, "kappa_a": 0.5, "kappa_b": 0.5,'
                   ' "gamma": 1.0, "x": 5e-10}')
    res = run_cli("protocol", "--config", str(cfg),
                  "--scheme", "fock-double")
    assert res.exit_code == 2
    assert "inconsistent parameters" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("config", [
    '{"g": 1.0, "kappa_a": 0.2, "kappa_b": 0.8, "gamma": 1.0}',
    '{"g": 1.0, "kappa_a": 0.5, "kappa_b": 0.5, "gamma": 1.0, "delta": 2.0}',
    '{"x": 1.0, "delta": 2.0}',
], ids=["asymmetric", "detuned-raw", "detuned-x"])
@pytest.mark.parametrize("scheme", ["fock-single", "fock-double",
                                    "coherent-single", "coherent-double"])
def test_protocol_rejects_asymmetric_or_detuned_cavity(tmp_path,
                                                        config, scheme):
    # the schemes model symmetric mirrors on resonance only; `spectrum`
    # models the rest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = run_cli("protocol", "--config", str(cfg), "--scheme",
                  scheme, *_SCHEME_FLAGS[scheme])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "symmetric mirrors on resonance" in res.output
    assert run_cli("spectrum", "--config", str(cfg), "--omega",
                   "0").exit_code == 0


@pytest.mark.parametrize("text", [b'{"x": 1.0', b'[1.0]', b'\xff\xfe{}'],
                         ids=["invalid-json", "array", "not-utf8"])
def test_config_that_is_not_a_json_object_is_a_usage_error(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    res = run_cli("response", "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""


@pytest.mark.parametrize("route", ["response", "verify", "config-directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, route):
    missing = str(tmp_path / "missing" / "out.csv")
    if route == "response":
        args = ["response", "--x", "1", "--out", missing]
    elif route == "verify":
        args = ["verify", "--samples", "10000", "--out", missing]
    else:  # the --out flag refuses a directory; a config's out did not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path)}))
        args = ["response", "--x", "1", "--config", str(cfg)]
    res = run_cli(*args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "cannot write output" in res.output


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a file whose writes all fail")
@pytest.mark.parametrize("args", [
    ["response", "--x", "1", "--n", "1"],
    ["verify", "--samples", "10000"],
], ids=["response", "verify"])
def test_failing_write_to_out_is_a_usage_error(args):
    # the file opens, and its buffered text fails to flush on close; that
    # close used to raise an OSError traceback over the usage error (exit 1)
    proc = _run_python(_MAIN, *args, "--out", "/dev/full")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "cannot write output" in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_cannot_write(returncode, stderr):
    assert returncode == 2, stderr
    assert "cannot write output" in stderr
    assert "Traceback" not in stderr
    # the interpreter's own flush of stdout at exit must not fail again
    assert "Exception ignored" not in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a file whose writes all fail")
@pytest.mark.parametrize("args", [
    ["response", "--x", "1", "--n", "1"],
    ["spectrum", "--x", "1"],
    ["protocol", "--scheme", "fock-double", "--x", "1"],
    ["optimize", "--scheme", "fock-double", "--x", "1", "--f-target", "0.9"],
    ["verify", "--samples", "10000"],
], ids=["response", "spectrum", "protocol", "optimize", "verify"])
def test_failing_write_to_stdout_is_a_usage_error(args):
    # it used to end in an OSError traceback and exit 1
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", _MAIN, *args],
                              env=_env(), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    _assert_cannot_write(proc.returncode, proc.stderr)


def test_closed_pipe_is_a_usage_error():
    # the reader is gone before the table is written, as in `| head`; that
    # used to exit 1 with no message. 200,000 rows overflow any pipe buffer
    with subprocess.Popen([sys.executable, "-c", _MAIN, "spectrum", "--x",
                           "1", "--omega-points", "200000"], env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        _assert_cannot_write(proc.wait(timeout=60), stderr)


def test_config_raw_rates_the_params_reject_are_a_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1, "kappa_a": 0, "kappa_b": 1, "gamma": 1}')
    res = run_cli("protocol", "--config", str(cfg),
                  "--scheme", "fock-double")
    assert res.exit_code == 2
    assert "mirror decay rates must be positive" in res.output


def test_partial_raw_rates_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1.0, "kappa_a": 0.5}')
    res = run_cli("protocol", "--config", str(cfg),
                  "--scheme", "fock-double")
    assert res.exit_code == 2


# ------------------------------------------------------------------- optimize

def test_optimize_single_point():
    res = run_cli("optimize", "--scheme", "fock-single", "--x", "1",
                  "--f-target", "0.9")
    lines = res.output.splitlines()
    assert lines[0] == ("x,scheme,eta,F_target,phi_opt,n_max_opt,"
                        "P_s,F_achieved,status")
    assert lines[1].endswith(",ok")
    assert res.exit_code == 0


def test_optimize_matches_protocol_at_returned_point():
    res = run_cli("optimize", "--scheme", "coherent-single",
                  "--x", "1", "--f-target", "0.9", "--format", "json")
    row = json.loads(res.output)[0]
    back = run_cli("protocol", "--scheme", "coherent-single",
                   "--x", "1", "--phi", repr(row["phi_opt"]),
                   "--n-max", repr(row["n_max_opt"]), "--format", "json")
    prow = json.loads(back.output)[0]
    assert math.isclose(prow["p_success"], row["P_s"], rel_tol=1e-12)
    assert math.isclose(prow["fidelity"], row["F_achieved"], rel_tol=1e-12)


@pytest.mark.parametrize("args, missing", [
    (("--f-target", "0.9"), "--scheme"),
    (("--scheme", "fock-single"), "--f-target"),
])
def test_optimize_needs_scheme_and_target(args, missing):
    res = run_cli("optimize", "--x", "1", *args)
    assert res.exit_code == 2
    assert f"{missing} is required" in res.output


def test_optimize_all_rows_infeasible_exits_nonzero():
    # an uncoupled cavity never heralds, so every row comes back infeasible
    res = run_cli("optimize", "--scheme", "fock-single", "--x", "0",
                  "--f-target", "0.9")
    assert res.exit_code == 1
    assert "infeasible" in res.output


def test_optimize_mixed_rows_exit_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scheme": "fock-single", "f_target": 0.9, "x_grid": [0.0, 1.0],
    }))
    res = run_cli("optimize", "--config", str(cfg))
    lines = res.output.splitlines()
    assert res.exit_code == 0  # one feasible row is enough for success
    statuses = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
    assert statuses == ["infeasible", "ok"]


def test_optimize_writes_file_not_stdout(tmp_path):
    out = tmp_path / "rows.csv"
    res = run_cli("optimize", "--scheme", "fock-single", "--x", "1",
                  "--f-target", "0.9", "--out", str(out))
    assert res.exit_code == 0
    assert res.output == ""
    assert out.read_text().startswith("x,scheme,eta,F_target")


# (scheme, F_target, x grid, config): a config may hold every parameter key
# but x, and each row is then the library's sweep row over that base
_BASE_CONFIGS = {
    "f": ("fock-double", 0.8, (1.0,), {"f": 0.1}),
    "ring": ("fock-double", 0.8, (1.0,), {"g_tilde": 1, "kappa_tilde": 1}),
    "ring-coherent": ("coherent-single", 0.8, (0.3, 1.0, 2.0),
                      {"g_tilde": 0.5, "kappa_tilde": 2.0, "eta": 0.9}),
    "eta": ("coherent-double", 0.85, (0.3, 1.2), {"eta": 0.8}),
}


@pytest.mark.parametrize("scheme, f_target, grid, config",
                         _BASE_CONFIGS.values(), ids=_BASE_CONFIGS)
def test_optimize_config_takes_every_parameter_key(tmp_path, scheme,
                                                   f_target, grid, config):
    from cavityherald.optimize import Scheme, SweepSpec, sweep
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = run_cli("optimize", "--scheme", scheme, "--f-target",
                  str(f_target), *(a for x in grid for a in ("--x", str(x))),
                  "--config", str(cfg), "--format", "json")
    assert res.exit_code == 0, res.output
    base = CavityParams.from_cooperativity(1.0, **config)
    rows = sweep(SweepSpec(grid, base.eta, f_target, Scheme(scheme), base))
    assert json.loads(res.output) == [
        {"x": r.x, "scheme": r.scheme.value, "eta": r.eta,
         "F_target": r.f_target, "phi_opt": r.phi_opt,
         "n_max_opt": r.n_max_opt, "P_s": r.p_success,
         "F_achieved": r.fidelity_achieved, "status": r.status}
        for r in rows]
    # the base's parameters reach the rows
    plain = sweep(SweepSpec(grid, base.eta, f_target, Scheme(scheme)))
    assert (rows == plain) == (set(config) == {"eta"})


@pytest.mark.parametrize("config, message", [
    ({"g": 1.0, "kappa_a": 0.5, "kappa_b": 0.5, "gamma": 1.0}, "raw rates"),
    ({"gamma": 1.0}, "raw rates"),
    ({"x": 1.0}, "unknown config keys: x"),
    # sets that the schemes do not model, rejected by the library
    ({"delta": 0.5}, "symmetric mirrors on resonance"),
    ({"f": 0.1, "scheme": "coherent-single"}, "only fock-double models"),
], ids=["raw-rates", "gamma", "x", "detuned", "f-coherent"])
def test_optimize_config_usage_errors(tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "fock-double", **config}))
    res = run_cli("optimize", "--f-target", "0.8", "--x", "1", "--config",
                  str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert message in res.stderr


# --------------------------------------------------------------------- verify

def _env():
    # the environment of a fresh interpreter that imports this checkout
    src = str(pathlib.Path(cavityherald.__file__).parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_scipy_unloaded():
    # numpy loads with the oracle on first use, which only `verify` makes
    probe = ("import sys, cavityherald, cavityherald.cli\n"
             "assert not [m for m in sys.modules\n"
             "            if m.split('.')[0] in ('numpy', 'scipy')]\n"
             "assert (cavityherald.run_verification_suite\n"
             "        is cavityherald.oracle.run_verification_suite)\n")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr


def test_oracle_import_loads_neither_dataclasses_nor_future():
    # numpy itself loads `inspect`, `ast`, `dis` and `tokenize`, but neither
    # of these two
    probe = ("import sys, cavityherald.oracle\n"
             "assert not {'dataclasses', '__future__'} & set(sys.modules)\n")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr


def test_oracle_import_loads_no_scipy():
    probe = ("import sys, cavityherald.oracle\n"
             "assert 'numpy' in sys.modules\n"
             "assert not [m for m in sys.modules\n"
             "            if m.split('.')[0] == 'scipy']\n")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr


_NUMPY_FREE_COMMANDS = [
    ["response"],
    ["spectrum", "--x", "0.7", "--n", "2", "--omega-start", "-3",
     "--omega-stop", "5", "--omega-points", "41"],
    *(["protocol", "--scheme", scheme, "--x", "0.7", "--eta", "0.9", *flags]
      for scheme, flags in _SCHEME_FLAGS.items()),
    ["optimize", "--scheme", "coherent-single", "--f-target", "0.9"],
    ["optimize", "--scheme", "coherent-double", "--x", "0.3", "--x", "1.2",
     "--eta", "0.8", "--f-target", "0.85", "--format", "json"],
]


def test_commands_but_verify_run_without_numpy():
    # a None entry in sys.modules makes every numpy import raise ImportError
    probe = ("import json, sys\n"
             "sys.modules['numpy'] = None\n"
             "sys.path.insert(0, sys.argv[2])\n"
             "from conftest import run_cli\n"
             "results = [run_cli(*args) for args in json.loads(sys.argv[1])]\n"
             "print(json.dumps([[r.exit_code, r.output] for r in results]))\n")
    proc = _run_python(probe, json.dumps(_NUMPY_FREE_COMMANDS), _TESTS)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    for args, (code, output) in zip(_NUMPY_FREE_COMMANDS, blocked, strict=True):
        assert code == 0, (args, output)
        assert output == run_cli(*args).output, args


_NO_NUMPY_HINT = ("the oracle needs numpy: "
                  "pip install 'cavityherald[verify]'")


@pytest.mark.parametrize("flags", [[], ["--samples", "5"]])
def test_verify_without_numpy_names_the_extra(flags):
    # numpy is the optional extra `verify`: with none, the command is a
    # usage error (exit 2) whose one line says what to install, and it
    # writes no stdout; its own checks wait for the oracle
    probe = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "from cavityherald.cli import main\n"
             "main(['verify', *sys.argv[1:]])\n")
    proc = _run_python(probe, *flags)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"Error: {_NO_NUMPY_HINT}\n")


def test_oracle_import_without_numpy_names_the_extra():
    probe = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "try:\n"
             "    import cavityherald.oracle\n"
             "except ImportError as exc:\n"
             "    print(type(exc).__name__, exc, sep=': ')\n")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ImportError: {_NO_NUMPY_HINT}\n"


# ----------------------------------------------------- what each command loads

_BASE = ["cavityherald", "cavityherald.cli", "cavityherald.core"]
_PROTOCOL = [*_BASE, "cavityherald.protocol"]

# the benchmark's cold command lines, and the package modules each loads
_COLD_COMMANDS = [
    (["response", "--x", "0.7", "--n", "1", "--n", "2"], _BASE),
    (["spectrum", "--x", "0.7", "--n", "1", "--omega-points", "41"], _BASE),
    *((["protocol", "--scheme", scheme, "--x", "0.7", "--eta", "0.9",
        *flags], _PROTOCOL) for scheme, flags in _SCHEME_FLAGS.items()),
    (["optimize", "--scheme", "fock-double", "--eta", "0.9", "--f-target",
      "0.8"], sorted([*_PROTOCOL, "cavityherald.optimize"])),
]
_COLD_IDS = ["response", "spectrum", *_SCHEME_FLAGS, "optimize"]


@pytest.mark.parametrize("args, loaded", _COLD_COMMANDS, ids=_COLD_IDS)
def test_cold_command_loads_only_the_modules_it_runs(args, loaded):
    # each in a fresh interpreter; a CSV run without --config loads no json
    # either, and no command loads click, nor `dataclasses` and the modules
    # only it would bring (`inspect`, `ast`, `dis`, `tokenize`), nor
    # `__future__`
    probe = ("import sys\n"
             "from cavityherald.cli import main\n"
             "try:\n"
             "    main(sys.argv[1:])\n"
             "finally:\n"
             "    print(*sorted(m for m in sys.modules if m.split('.')[0]\n"
             "                  in ('cavityherald', 'json', 'click',\n"
             "                      'dataclasses', 'inspect', 'ast', 'dis',\n"
             "                      'tokenize', '__future__')),\n"
             "          file=sys.stderr)\n")
    proc = _run_python(probe, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == loaded


@pytest.mark.parametrize("args", [c[0] for c in _COLD_COMMANDS],
                         ids=_COLD_IDS)
def test_cold_command_runs_with_click_blocked(args):
    # as `python -m cavityherald.cli` runs it; a None entry in sys.modules
    # makes every click import raise ImportError
    probe = ("import runpy, sys\n"
             "sys.modules['click'] = None\n"
             "sys.argv = ['cavityherald', *sys.argv[1:]]\n"
             "runpy.run_module('cavityherald.cli', run_name='__main__',\n"
             "                 alter_sys=True)\n")
    proc = _run_python(probe, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*args).stdout


@pytest.mark.parametrize("first", ["import", "from"])
def test_package_optimize_is_the_module_in_either_import_order(first):
    # the submodule binds itself on the package as any submodule does, and
    # nothing at the root shadows it; an ImportWarning would be an error here
    probe = ("import sys, types, warnings\n"
             "warnings.simplefilter('error')\n"
             "import cavityherald\n"
             "def by_import():\n"
             "    import cavityherald.optimize as m\n"
             "    return m\n"
             "def by_from():\n"
             "    from cavityherald import optimize\n"
             "    return optimize\n"
             "loads = [by_import, by_from]\n"
             "if sys.argv[1] == 'from':\n"
             "    loads.reverse()\n"
             "found = []\n"
             "for load in loads:\n"
             "    m = load()\n"
             "    assert type(m) is types.ModuleType, m\n"
             "    assert m.__name__ == 'cavityherald.optimize', m\n"
             "    assert cavityherald.optimize is m\n"
             "    found.append(m)\n"
             "assert found[0] is found[1]\n"
             "assert isinstance(m.optimize, types.FunctionType), m.optimize\n"
             "assert 'optimize' not in cavityherald.__all__\n"
             "assert type(cavityherald) is types.ModuleType\n")
    proc = _run_python(probe, first)
    assert proc.returncode == 0, proc.stderr


def test_package_names_resolve_lazily_to_their_modules():
    probe = ("import sys, cavityherald\n"
             "assert [m for m in sys.modules\n"
             "        if m.startswith('cavityherald')] == ['cavityherald']\n"
             "names = set(cavityherald.__all__) - {'__version__'}\n"
             "for name in names:\n"
             "    obj = getattr(cavityherald, name)\n"
             "    assert obj.__module__.startswith('cavityherald.'), name\n"
             "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
             "assert set(cavityherald.__all__) <= set(dir(cavityherald))\n"
             "assert not hasattr(cavityherald, 'no_such_name')\n")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr


def test_scheme_choices_are_the_scheme_table():
    from cavityherald.protocol import Scheme
    for command in ("protocol", "optimize"):
        [option] = [o for o in main.commands[command].options
                    if o.key == "scheme"]
        assert list(option.kind) == [s.value for s in Scheme]


def test_each_scheme_loads_its_optimizer_on_first_use():
    probe = ("import sys\n"
             "from cavityherald.protocol import Scheme\n"
             "assert 'cavityherald.optimize' not in sys.modules\n"
             "found = [s.optimizer for s in Scheme]\n"
             "import cavityherald.optimize as opt\n"
             "assert opt.Scheme is Scheme\n"
             "assert found == [opt.optimize_fock_single, opt.optimize_fock_double,\n"
             "                 opt.optimize_coherent_single,\n"
             "                 opt.optimize_coherent_double]\n"
             "assert all(s.optimizer is f for s, f in zip(Scheme, found))\n")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr


def test_verify_passes_and_reports_json():
    res = run_cli("verify", "--samples", "20000")
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["passed"] is True
    assert report["samples"] == 20000


def test_verify_sample_floor():
    assert run_cli("verify", "--samples", "10").exit_code == 2


@pytest.mark.parametrize("route", ["flag", "config"])
def test_verify_negative_seed_is_a_usage_error(tmp_path, route):
    if route == "flag":
        args = ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        args = ["--config", str(cfg)]
    res = run_cli("verify", "--samples", "20000", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "seed" in res.output


def test_verify_checks_its_output_path_before_running_the_suite(
        tmp_path, monkeypatch):
    def suite(**kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr("cavityherald.oracle.run_verification_suite", suite)
    res = run_cli("verify", "--samples", "20000", "--out",
                  str(tmp_path / "missing" / "report.json"))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "cannot write output" in res.output


def test_verify_writes_its_report_to_out(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("stale")
    res = run_cli("verify", "--samples", "20000", "--out", str(out))
    assert res.exit_code == 0
    assert res.stdout == ""
    assert json.loads(out.read_text())["passed"] is True


def test_verify_failure_exit_code(monkeypatch):
    # a wrong closed form for the suite to compare against makes it fail
    from cavityherald.core import reflection_probability
    monkeypatch.setattr("cavityherald.oracle.reflection_probability",
                        lambda x, n: 2.0 * reflection_probability(x, n))
    res = run_cli("verify", "--samples", "20000")
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["passed"] is False
    assert report["n_failed"] > 0
