"""The CLI's output pinned byte for byte against `cli_golden.json`.

Each case records a command line, the config file it reads (if any), its
exit code, stdout and stderr. `verify` is left out, because its digits
depend on the BLAS build. The optimizer rows the `optimize` cases print are
also pinned by their diagnostics, `n_evals` and `budget_capped`, which the
CLI does not print.

Regenerate the golden file, after a change that is meant to alter output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib

import pytest

from cavityherald.optimize import Scheme, SweepSpec, sweep
from conftest import run_cli

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

_SCHEME_NAMES = ("fock-single", "fock-double", "coherent-single",
                 "coherent-double")
_OPT_X = ("--x", "0.3", "--x", "1", "--x", "2")

# (id, arguments, config); "{config}" in the arguments is the config path
CASES = [
    *[(f"{cmd}-help", [cmd, "--help"], None)
      for cmd in ("response", "spectrum", "protocol", "optimize", "verify")],
    ("response", ["response", "--x", "1", "--x", "0.25", "--n", "0",
                  "--n", "2"], None),
    ("response-json", ["response", "--x", "1", "--n", "1", "--format",
                       "json"], None),
    ("spectrum-range", ["spectrum", "--x", "1", "--n", "2", "--omega-start",
                        "-2", "--omega-stop", "3", "--omega-points", "6"],
     None),
    ("spectrum-omega", ["spectrum", "--x", "0.7", "--omega", "0", "--omega",
                        "0.5", "--format", "json"], None),
    ("protocol-fock-single", ["protocol", "--scheme", "fock-single", "--x",
                              "0.7", "--phi", "0.6", "--eta", "0.9"], None),
    ("protocol-fock-double", ["protocol", "--scheme", "fock-double", "--x",
                              "0.7", "--f-spurious", "0.05"], None),
    ("protocol-coherent-single", ["protocol", "--scheme", "coherent-single",
                                  "--x", "0.7", "--phi", "0.6", "--n-max",
                                  "1.5"], None),
    ("protocol-coherent-double", ["protocol", "--scheme", "coherent-double",
                                  "--x", "0.7", "--n-max", "2", "--format",
                                  "json"], None),
    *[(f"optimize-{s}-{fmt}", ["optimize", "--scheme", s, *_OPT_X,
                               "--eta", "0.9", "--f-target", "0.9",
                               "--format", fmt], None)
      for s in _SCHEME_NAMES for fmt in ("csv", "json")],
    ("config-response-x_grid", ["response", "--config", "{config}"],
     {"x_grid": [0.5, 2.0], "n_values": [1], "format": "json"}),
    ("config-spectrum-omega_grid", ["spectrum", "--config", "{config}"],
     {"x": 1.5, "n_atoms": 1, "omega_grid": [-1.0, 0.0, 0.25]}),
    ("config-protocol-f", ["protocol", "--config", "{config}"],
     {"scheme": "fock-double", "x": 0.7, "f": 0.05, "format": "json"}),
    ("config-optimize-x_grid", ["optimize", "--config", "{config}",
                                "--format", "csv"],
     {"scheme": "coherent-double", "x_grid": [0.5, 1.0], "f_target": 0.95,
      "format": "json"}),
    ("usage-protocol-needs", ["protocol", "--scheme", "coherent-single",
                              "--x", "1", "--phi", "0.5"], None),
    ("usage-bad-format", ["response", "--x", "1", "--format", "xml"], None),
]

# the sweeps behind the optimize cases, for their diagnostics
SWEEPS = [(s, (0.3, 1.0, 2.0), 0.9, 0.9) for s in _SCHEME_NAMES]
SWEEPS.append(("coherent-double", (0.5, 1.0), 1.0, 0.95))


def _run(args, config, tmp_path) -> dict:
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = [str(path) if a == "{config}" else a for a in args]
    res = run_cli(*args)
    return {"exit_code": res.exit_code, "stdout": res.stdout,
            "stderr": res.stderr}


def _diagnostics(scheme, x_grid, eta, f_target) -> dict:
    rows = sweep(SweepSpec(x_grid=x_grid, eta=eta, f_target=f_target,
                           scheme=Scheme(scheme)))
    return {"n_evals": [r.n_evals for r in rows],
            "budget_capped": [r.budget_capped for r in rows]}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id, args, config", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, case_id, args, config):
    assert _run(args, config, tmp_path) == _golden()["cases"][case_id]


@pytest.mark.parametrize("spec", SWEEPS, ids=lambda s: f"{s[0]}-{s[3]}")
def test_optimizer_diagnostics_match_golden(spec):
    key = json.dumps(spec)
    assert _diagnostics(*spec) == _golden()["diagnostics"][key]


def test_golden_file_covers_exactly_the_cases():
    golden = _golden()
    assert list(golden["cases"]) == [c[0] for c in CASES]
    assert list(golden["diagnostics"]) == [json.dumps(s) for s in SWEEPS]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {cid: _run(args, cfg, pathlib.Path(tmp))
                 for cid, args, cfg in CASES}
    diagnostics = {json.dumps(s): _diagnostics(*s) for s in SWEEPS}
    GOLDEN.write_text(json.dumps({"cases": cases, "diagnostics": diagnostics},
                                 indent=1) + "\n")
