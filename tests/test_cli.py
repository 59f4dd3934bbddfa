"""Command-line surface: flag handling, config merging, formats, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import cavityherald
from cavityherald.cli import main
from cavityherald.core import CavityParams
from cavityherald.protocol import false_reflection_fidelity


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ------------------------------------------------------------------- response

def test_response_single_row_exact_bytes(runner):
    res = invoke(runner, "response", "--x", "1", "--n", "1")
    assert res.exit_code == 0
    assert res.output == "x,N,R,T,lambda\n1.0,1,0.64,0.04,0.32\n"


def test_response_default_grid(runner):
    res = invoke(runner, "response")
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,N,R,T,lambda"
    assert len(lines) == 1 + 40 * 3  # default grid, N in {0, 1, 2}


def test_response_empty_cavity_row(runner):
    res = invoke(runner, "response", "--x", "2.5", "--n", "0")
    assert res.output.splitlines()[1] == "2.5,0,0.0,1.0,0.0"


def test_response_json_mirrors_csv_fields(runner):
    res = invoke(runner, "response", "--x", "1", "--n", "1",
                 "--format", "json")
    rows = json.loads(res.output)
    assert rows == [{"x": 1.0, "N": 1, "R": 0.6400000000000001,
                     "T": 0.04000000000000001, "lambda": 0.32}]


def test_response_rejects_empty_grid(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x_grid": []}')
    res = invoke(runner, "response", "--config", str(cfg))
    assert res.exit_code == 2


def test_response_rejects_fractional_atom_count(runner, tmp_path):
    # only reachable through a config file; the flag is typed int
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_values": [1.5]}')
    res = invoke(runner, "response", "--config", str(cfg), "--x", "1")
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ("response", "--x", "-1"),
    ("response", "--x", "1", "--n", "-1"),
    ("spectrum", "--x", "1", "--n", "-1"),
])
def test_negative_cooperativity_or_atom_count_is_a_usage_error(runner, args):
    # the library's own range checks, turned into exit 2
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""


@pytest.mark.parametrize("config", [
    '{"n_values": [Infinity], "x_grid": [1.0]}',
    '{"n_values": [NaN], "x_grid": [1.0]}',
    '{"n_values": [1e300], "x_grid": [1e10]}',
], ids=["infinite", "nan", "overflowing-4Nx"])
def test_response_rejects_atom_counts_it_cannot_model(runner, tmp_path,
                                                      config):
    # an infinite count used to end in an OverflowError traceback (exit 1),
    # and 4 N x = 4e310 in a table of R = nan (exit 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = invoke(runner, "response", "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""


@pytest.mark.parametrize("n_atoms", ["Infinity", "1e300"])
def test_spectrum_rejects_atom_counts_it_cannot_model(runner, tmp_path,
                                                      n_atoms):
    # N g^2 = 1e310 made every amplitude nan
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"x": 1e10, "n_atoms": {n_atoms}}}')
    res = invoke(runner, "spectrum", "--config", str(cfg), "--omega", "0")
    assert res.exit_code == 2
    assert res.stdout == ""


def test_spectrum_rejects_a_coupling_whose_square_overflows(runner,
                                                            tmp_path):
    # g ** 2 = 1e400 ended in an OverflowError traceback (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1e200, "kappa_a": 0.5, "kappa_b": 0.5,'
                   ' "gamma": 1.0}')
    res = invoke(runner, "spectrum", "--config", str(cfg), "--omega", "0")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "overflow" in res.output


# ------------------------------------------------------------------- spectrum

def test_spectrum_header_and_resonant_row(runner):
    res = invoke(runner, "spectrum", "--x", "1", "--n", "1", "--omega", "0")
    lines = res.output.splitlines()
    assert lines[0] == "omega,re_r,im_r,re_t,im_t,R,T,lambda"
    assert lines[1] == "0.0,0.8,0.0,-0.2,0.0,0.64,0.04,0.32"


def test_spectrum_empty_cavity_transmits_on_resonance(runner):
    res = invoke(runner, "spectrum", "--x", "1", "--n", "0", "--omega", "0",
                 "--format", "json")
    row = json.loads(res.output)[0]
    assert row["T"] == 1.0
    assert row["R"] == 0.0


def test_spectrum_far_detuned_reflects(runner):
    res = invoke(runner, "spectrum", "--x", "1", "--n", "1",
                 "--omega", "1e5", "--format", "json")
    row = json.loads(res.output)[0]
    assert row["R"] > 0.99999


def test_spectrum_default_window(runner):
    res = invoke(runner, "spectrum", "--x", "1", "--n", "1")
    assert len(res.output.strip().splitlines()) == 1 + 201


# ------------------------------------------------------------------- protocol

def test_protocol_requires_scheme_parameters(runner):
    assert invoke(runner, "protocol", "--scheme", "fock-single",
                  "--x", "1").exit_code == 2  # no phi
    assert invoke(runner, "protocol", "--scheme", "coherent-double",
                  "--x", "1").exit_code == 2  # no n-max
    assert invoke(runner, "protocol", "--x", "1").exit_code == 2  # no scheme
    res = invoke(runner, "protocol", "--scheme", "fock-double")  # no x
    assert res.exit_code == 2
    assert "cooperativity required" in res.output
    # out-of-range values are usage errors, not tracebacks
    assert invoke(runner, "protocol", "--scheme", "fock-single",
                  "--x", "1", "--phi", "3").exit_code == 2
    for n_max in ("0", "-1"):
        assert invoke(runner, "protocol", "--scheme", "coherent-double",
                      "--x", "1", "--n-max", n_max).exit_code == 2


def test_protocol_fock_double_row(runner):
    res = invoke(runner, "protocol", "--scheme", "fock-double", "--x", "1")
    lines = res.output.splitlines()
    assert lines[0].startswith("scheme,p_success,fidelity,status")
    assert lines[1].startswith("fock-double,0.2048,1.0,ok")


def test_protocol_undefined_outcome_is_explicit(runner):
    res = invoke(runner, "protocol", "--scheme", "fock-single",
                 "--x", "0", "--phi", "0.5", "--format", "json")
    assert res.exit_code == 0
    row = json.loads(res.output)[0]
    assert row["status"] == "undefined"
    assert row["fidelity"] is None


def test_protocol_coherent_double_reports_uncorrected_comparison(runner):
    res = invoke(runner, "protocol", "--scheme", "coherent-double",
                 "--x", "1", "--n-max", "2", "--format", "json")
    row = json.loads(res.output)[0]
    assert math.isclose(row["p_success"], 0.1830374774833587, rel_tol=1e-12)
    assert math.isclose(row["fidelity"], 0.8471709597659821, rel_tol=1e-12)
    assert row["uncorrected_fidelity"] > 1.0


def test_protocol_coherent_double_undefined_row_has_no_nan(runner):
    args = ("protocol", "--scheme", "coherent-double", "--x", "0",
            "--n-max", "2")
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "coherent-double,0.0,,undefined,,,"
    row = json.loads(invoke(runner, *args, "--format", "json").output)[0]
    assert row["uncorrected_fidelity"] is None


def test_protocol_f_spurious_flag_wins_over_config(runner, tmp_path):
    params = CavityParams.from_cooperativity(1.0)
    args = ("protocol", "--scheme", "fock-double", "--x", "1",
            "--format", "json")
    res = invoke(runner, *args, "--f-spurious", "0.05")
    assert res.exit_code == 0
    want = false_reflection_fidelity(params, 0.05)
    assert json.loads(res.output)[0]["fidelity"] == want < 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"f": 0.2}')
    res = invoke(runner, *args, "--config", str(cfg))
    assert (json.loads(res.output)[0]["fidelity"]
            == false_reflection_fidelity(params, 0.2))
    res = invoke(runner, *args, "--config", str(cfg), "--f-spurious", "0.05")
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
        runner, tmp_path, route, scheme, name):
    value = {"phi": 0.6, "n_max": 1.5}[name]
    args = ["protocol", "--scheme", scheme, "--x", "0.7",
            *_SCHEME_FLAGS[scheme]]
    if route == "flag":
        args += ["--" + name.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        args += ["--config", str(cfg)]
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "takes no" in res.output and name in res.output


def test_protocol_eta_flag(runner):
    res = invoke(runner, "protocol", "--scheme", "fock-double", "--x", "1",
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
def test_non_finite_input_is_a_usage_error(runner, args):
    res = invoke(runner, *args)
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
def test_cooperativity_above_x_max_is_a_usage_error(runner, args):
    # (1 + 4 N x)^2 would overflow near x = 3e153
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "X_MAX" in res.output


def test_cooperativity_at_x_max_is_accepted(runner):
    res = invoke(runner, "response", "--x", "1e100", "--n", "2")
    assert res.exit_code == 0
    assert res.stdout == "x,N,R,T,lambda\n1e+100,2,1.0,1.5625e-202,2.5e-101\n"


# --------------------------------------------------------------------- config

@pytest.mark.parametrize("args, config", [
    (("response",), '{"x_grid": ["a"]}'),
    (("spectrum", "--x", "1"), '{"omega_points": 2.5}'),
    (("spectrum", "--x", "1"), '{"n_atoms": "1"}'),
    (("protocol", "--scheme", "fock-double"), '{"x": "1"}'),
    (("protocol", "--scheme", "fock-double", "--x", "1"), '{"eta": true}'),
    (("optimize", "--scheme", "fock-double", "--f-target", "0.9"),
     '{"x_grid": [1, "2"]}'),
], ids=["response-grid", "spectrum-count", "spectrum-atoms", "protocol-x",
        "protocol-bool", "optimize-grid"])
def test_config_value_of_wrong_type_is_a_usage_error(runner, tmp_path, args,
                                                      config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = invoke(runner, *args, "--config", str(cfg))
    assert res.exit_code == 2
    assert "wrong type" in res.output


@pytest.mark.parametrize("args", [
    ("response", "--x", "1", "--n", "1"),
    ("spectrum", "--x", "1"),
    ("protocol", "--scheme", "fock-double", "--x", "1"),
    ("optimize", "--scheme", "fock-double", "--f-target", "0.9"),
], ids=["response", "spectrum", "protocol", "optimize"])
def test_config_unknown_format_is_a_usage_error(runner, tmp_path, args):
    # the same rule as the --format flag, which accepts only csv and json
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "xml"}')
    res = invoke(runner, *args, "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "csv or json" in res.output


@pytest.mark.parametrize("args, config", [
    (("response", "--x", "1"), '{"n_values": []}'),
    (("spectrum", "--x", "1"), '{"omega_grid": []}'),
    (("optimize", "--scheme", "fock-double", "--f-target", "0.9"),
     '{"x_grid": []}'),
], ids=["response-n", "spectrum-omega", "optimize-x"])
def test_config_empty_grid_is_a_usage_error(runner, tmp_path, args, config):
    # like an empty response x_grid, no empty grid falls back to a default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = invoke(runner, *args, "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "is empty" in res.output


def test_config_file_supplies_defaults_and_flags_win(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": 1.0, "scheme": "fock-double"}')
    base = invoke(runner, "protocol", "--config", str(cfg), "--format",
                  "json")
    assert json.loads(base.output)[0]["p_success"] == 0.2048000000000001
    over = invoke(runner, "protocol", "--config", str(cfg), "--x", "0.25",
                  "--format", "json")
    # R_1(0.25) = 1/4, so the double-click probability drops to 1/32
    assert json.loads(over.output)[0]["p_success"] == 0.03125


def test_config_unknown_scheme_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": 1.0, "scheme": "bogus"}')
    res = invoke(runner, "protocol", "--config", str(cfg))
    assert res.exit_code == 2
    assert "bogus" in res.output


def test_config_unknown_key_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": 1.0, "bogus": 2}')
    res = invoke(runner, "response", "--config", str(cfg))
    assert res.exit_code == 2
    assert "bogus" in res.output


def test_config_raw_rates_accepted(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"g": 2.0, "kappa_a": 1.0, "kappa_b": 1.0, "gamma": 2.0}')
    res = invoke(runner, "protocol", "--config", str(cfg),
                 "--scheme", "fock-double", "--format", "json")
    assert json.loads(res.output)[0]["p_success"] == 0.2048000000000001


def test_config_inconsistent_units_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1.0, "kappa_a": 0.5, "kappa_b": 0.5,'
                   ' "gamma": 1.0, "x": 3.0}')
    res = invoke(runner, "protocol", "--config", str(cfg),
                 "--scheme", "fock-double")
    assert res.exit_code == 2


@pytest.mark.parametrize("config", [
    '{"g": 1.0, "kappa_a": 0.2, "kappa_b": 0.8, "gamma": 1.0}',
    '{"g": 1.0, "kappa_a": 0.5, "kappa_b": 0.5, "gamma": 1.0, "delta": 2.0}',
    '{"x": 1.0, "delta": 2.0}',
], ids=["asymmetric", "detuned-raw", "detuned-x"])
@pytest.mark.parametrize("scheme", ["fock-single", "fock-double",
                                    "coherent-single", "coherent-double"])
def test_protocol_rejects_asymmetric_or_detuned_cavity(runner, tmp_path,
                                                        config, scheme):
    # the schemes model symmetric mirrors on resonance only; `spectrum`
    # models the rest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    res = invoke(runner, "protocol", "--config", str(cfg), "--scheme",
                 scheme, *_SCHEME_FLAGS[scheme])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "symmetric mirrors on resonance" in res.output
    assert invoke(runner, "spectrum", "--config", str(cfg), "--omega",
                  "0").exit_code == 0


@pytest.mark.parametrize("text", [b'{"x": 1.0', b'[1.0]', b'\xff\xfe{}'],
                         ids=["invalid-json", "array", "not-utf8"])
def test_config_that_is_not_a_json_object_is_a_usage_error(runner, tmp_path,
                                                            text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    res = invoke(runner, "response", "--config", str(cfg))
    assert res.exit_code == 2
    assert res.stdout == ""


@pytest.mark.parametrize("route", ["response", "verify", "config-directory"])
def test_unwritable_output_is_a_usage_error(runner, tmp_path, route):
    missing = str(tmp_path / "missing" / "out.csv")
    if route == "response":
        args = ["response", "--x", "1", "--out", missing]
    elif route == "verify":
        args = ["verify", "--samples", "10000", "--out", missing]
    else:  # the --out flag refuses a directory; a config's out did not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path)}))
        args = ["response", "--x", "1", "--config", str(cfg)]
    res = invoke(runner, *args)
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
    proc = _run_python("from cavityherald.cli import main; main()",
                       *args, "--out", "/dev/full")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "cannot write output" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_raw_rates_the_params_reject_are_a_usage_error(runner,
                                                              tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1, "kappa_a": 0, "kappa_b": 1, "gamma": 1}')
    res = invoke(runner, "protocol", "--config", str(cfg),
                 "--scheme", "fock-double")
    assert res.exit_code == 2
    assert "mirror decay rates must be positive" in res.output


def test_partial_raw_rates_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 1.0, "kappa_a": 0.5}')
    res = invoke(runner, "protocol", "--config", str(cfg),
                 "--scheme", "fock-double")
    assert res.exit_code == 2


# ------------------------------------------------------------------- optimize

def test_optimize_single_point(runner):
    res = invoke(runner, "optimize", "--scheme", "fock-single", "--x", "1",
                 "--f-target", "0.9")
    lines = res.output.splitlines()
    assert lines[0] == ("x,scheme,eta,F_target,phi_opt,n_max_opt,"
                        "P_s,F_achieved,status")
    assert lines[1].endswith(",ok")
    assert res.exit_code == 0


def test_optimize_matches_protocol_at_returned_point(runner):
    res = invoke(runner, "optimize", "--scheme", "coherent-single",
                 "--x", "1", "--f-target", "0.9", "--format", "json")
    row = json.loads(res.output)[0]
    back = invoke(runner, "protocol", "--scheme", "coherent-single",
                  "--x", "1", "--phi", repr(row["phi_opt"]),
                  "--n-max", repr(row["n_max_opt"]), "--format", "json")
    prow = json.loads(back.output)[0]
    assert math.isclose(prow["p_success"], row["P_s"], rel_tol=1e-12)
    assert math.isclose(prow["fidelity"], row["F_achieved"], rel_tol=1e-12)


@pytest.mark.parametrize("args, missing", [
    (("--f-target", "0.9"), "--scheme"),
    (("--scheme", "fock-single"), "--f-target"),
])
def test_optimize_needs_scheme_and_target(runner, args, missing):
    res = invoke(runner, "optimize", "--x", "1", *args)
    assert res.exit_code == 2
    assert f"{missing} is required" in res.output


def test_optimize_all_rows_infeasible_exits_nonzero(runner):
    # an uncoupled cavity never heralds, so every row comes back infeasible
    res = invoke(runner, "optimize", "--scheme", "fock-single", "--x", "0",
                 "--f-target", "0.9")
    assert res.exit_code == 1
    assert "infeasible" in res.output


def test_optimize_mixed_rows_exit_zero(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scheme": "fock-single", "f_target": 0.9, "x_grid": [0.0, 1.0],
    }))
    res = invoke(runner, "optimize", "--config", str(cfg))
    lines = res.output.splitlines()
    assert res.exit_code == 0  # one feasible row is enough for success
    statuses = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
    assert statuses == ["infeasible", "ok"]


def test_optimize_writes_file_not_stdout(runner, tmp_path):
    out = tmp_path / "rows.csv"
    res = invoke(runner, "optimize", "--scheme", "fock-single", "--x", "1",
                 "--f-target", "0.9", "--out", str(out))
    assert res.exit_code == 0
    assert res.output == ""
    assert out.read_text().startswith("x,scheme,eta,F_target")


# --------------------------------------------------------------------- verify

def _run_python(code, *args):
    src = str(pathlib.Path(cavityherald.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
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


def test_commands_but_verify_run_without_numpy(runner):
    # a None entry in sys.modules makes every numpy import raise ImportError
    probe = ("import json, sys\n"
             "sys.modules['numpy'] = None\n"
             "from click.testing import CliRunner\n"
             "from cavityherald.cli import main\n"
             "results = [CliRunner().invoke(main, args)\n"
             "           for args in json.loads(sys.argv[1])]\n"
             "print(json.dumps([[r.exit_code, r.output] for r in results]))\n")
    proc = _run_python(probe, json.dumps(_NUMPY_FREE_COMMANDS))
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    for args, (code, output) in zip(_NUMPY_FREE_COMMANDS, blocked, strict=True):
        assert code == 0, (args, output)
        assert output == invoke(runner, *args).output, args


def test_verify_passes_and_reports_json(runner):
    res = invoke(runner, "verify", "--samples", "20000")
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["passed"] is True
    assert report["samples"] == 20000


def test_verify_sample_floor(runner):
    assert invoke(runner, "verify", "--samples", "10").exit_code == 2


@pytest.mark.parametrize("route", ["flag", "config"])
def test_verify_negative_seed_is_a_usage_error(runner, tmp_path, route):
    if route == "flag":
        args = ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        args = ["--config", str(cfg)]
    res = invoke(runner, "verify", "--samples", "20000", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "seed" in res.output


def test_verify_checks_its_output_path_before_running_the_suite(
        runner, tmp_path, monkeypatch):
    def suite(**kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr("cavityherald.oracle.run_verification_suite", suite)
    res = invoke(runner, "verify", "--samples", "20000", "--out",
                 str(tmp_path / "missing" / "report.json"))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "cannot write output" in res.output


def test_verify_writes_its_report_to_out(runner, tmp_path):
    out = tmp_path / "report.json"
    out.write_text("stale")
    res = invoke(runner, "verify", "--samples", "20000", "--out", str(out))
    assert res.exit_code == 0
    assert res.stdout == ""
    assert json.loads(out.read_text())["passed"] is True


def test_verify_failure_exit_code(runner, monkeypatch):
    # a wrong closed form for the suite to compare against makes it fail
    from cavityherald.core import reflection_probability
    monkeypatch.setattr("cavityherald.oracle.reflection_probability",
                        lambda x, n: 2.0 * reflection_probability(x, n))
    res = invoke(runner, "verify", "--samples", "20000")
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["passed"] is False
    assert report["n_failed"] > 0
