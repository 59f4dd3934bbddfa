"""Command-line front end.

Subcommands: response | spectrum | protocol | optimize | verify. Every
option stores its value under its config key, so each command hands its
flags unchanged to `_settings`, which reads a JSON config file with the same
keys and lets every given flag win. A key is the flag's own name, except
that a repeatable --x stores x_grid, --n stores n_values or n_atoms, --omega
stores omega_grid and --f-spurious stores f. A config value takes its
flag's type. Each command validates its settings before computing anything
and writes its rows through `_emit` as CSV or JSON with 12-significant-digit
floats. Identical config and seed give byte-identical output.

Exit codes: 0 success, 1 verification/optimization failure, 2 usage error.
Every command is a `_Command`, so a ValueError, the library's rejection of
an input, is a usage error, and so is an output that cannot be written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys

import click

# `protocol`, `optimize` and json load only in the commands that use them
from .core import (
    CavityParams,
    _linspace,
    default_x_grid,
    reflection_probability,
    scattering_amplitudes,
    scattering_loss,
    transmission_probability,
)

_PARAM_KEYS = frozenset(
    ["x", *(f.name for f in dataclasses.fields(CavityParams))])
_RAW_KEYS = {"g", "kappa_a", "kappa_b", "gamma"}
# the JSON type of a config value whose flag has this click type; a path
# takes a string
_JSON_TYPES = {click.INT: int, click.FLOAT: (int, float)}


def _fmt_float(value: float) -> str:
    out = f"{value:.12g}"
    # integral floats keep a decimal point so they stay recognizably floats
    if out.lstrip("+-").isdigit():
        out += ".0"
    return out


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _fmt_float(float(value))


def _jsonable(value):
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    value = float(value)
    return None if math.isnan(value) else value


def _emit(rows: list[dict], cfg: dict) -> None:
    """Write the rows as JSON, or as CSV with columns in the rows' key
    order."""
    if cfg.get("format") == "json":
        import json
        clean = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
        text = json.dumps(clean, indent=2) + "\n"
    else:
        lines = [",".join(rows[0])]
        lines += [",".join(map(_fmt_cell, row.values())) for row in rows]
        text = "\n".join(lines) + "\n"
    with _output(cfg) as write:
        write(text)


@contextlib.contextmanager
def _output(cfg: dict):
    """A function that writes text to the `out` file, opened on entry, or to
    stdout when there is none; the sink is flushed on exit. Any OSError, from
    a full disk to a closed pipe, is a usage error."""
    out = cfg.get("out")
    try:
        with open(out, "w") if out else contextlib.nullcontext(
                sys.stdout) as sink:
            yield sink.write
            sink.flush()
    except OSError as exc:
        if not out:  # so that the interpreter's flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise click.UsageError(f"cannot write output: {exc}")


def _settings(config: str | None, keys: frozenset[str] = frozenset(),
              **flags) -> dict:
    """A command's settings: the JSON config file, which may hold `keys` and
    the flags' own names, overridden by every flag given. Repeatable flags
    become lists. A config value must have the type of the command's option
    of that name (`_check_type`), and a repeatable one must not be empty."""
    cfg = {}
    if config is not None:
        import json
        try:
            with open(config) as file:
                cfg = json.load(file)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise click.UsageError(f"cannot read config: {exc}")
        if not isinstance(cfg, dict):
            raise click.UsageError("config must be a JSON object")
    unknown = set(cfg) - keys - set(flags)
    if unknown:
        raise click.UsageError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    options = {p.name: p for p in click.get_current_context().command.params}
    for key, value in cfg.items():
        _check_type(key, value, options.get(key))
    for key, value in flags.items():
        if isinstance(value, tuple):  # a repeatable flag
            value = list(value) or None
        if value is not None:
            cfg[key] = value
    for option in options.values():
        if option.multiple and cfg.get(option.name) == []:
            raise click.UsageError(f"{option.name} is empty")
    return cfg


def _check_type(key: str, value, option: click.Parameter | None) -> None:
    # a config value takes its flag's type: a list for a repeatable flag, one
    # of the choices of a choice flag, else the `_JSON_TYPES` entry of the
    # flag's click type; a key without a flag takes a number, and a bool is
    # never a number
    kind = option.type if option else click.FLOAT
    if isinstance(kind, click.Choice):
        if value not in kind.choices:
            *rest, last = kind.choices
            raise click.UsageError(f"config {key} must be {', '.join(rest)} "
                                   f"or {last}, got {value!r}")
        return
    want = _JSON_TYPES.get(kind, str)
    items = value if isinstance(value, list) else [value]
    if (isinstance(value, list) != (option is not None and option.multiple)
            or not all(isinstance(v, want) and not isinstance(v, bool)
                       for v in items)):
        raise click.UsageError(
            f"config value of {key} has the wrong type: {value!r}")


def _build_params(cfg: dict) -> CavityParams:
    """Cavity parameters from the reduced cooperativity, raw rates, or both
    (both must agree)."""
    have_raw = _RAW_KEYS & set(cfg)
    extras = {k: cfg[k] for k in _PARAM_KEYS - _RAW_KEYS - {"x"} if k in cfg}
    x = cfg.get("x")
    if have_raw:
        missing = _RAW_KEYS - set(cfg)
        if missing:
            raise click.UsageError(
                f"raw rates need all of g, kappa_a, kappa_b, gamma "
                f"(missing: {', '.join(sorted(missing))})")
        params = CavityParams.from_raw_rates(
            cfg["g"], cfg["kappa_a"], cfg["kappa_b"], cfg["gamma"], **extras)
        if x is not None and not math.isclose(params.cooperativity, x,
                                              rel_tol=1e-9):
            raise click.UsageError(
                f"inconsistent parameters: x={x} but raw rates give "
                f"g^2/(kappa gamma)={params.cooperativity!r}")
        return params
    if x is None:
        raise click.UsageError(
            "cooperativity required: give --x or raw rates in the config")
    return CavityParams.from_cooperativity(x, **extras)


_format_option = click.option("--format", type=click.Choice(["csv", "json"]),
                              default=None, help="Output format.")
_out_option = click.option("--out", type=click.Path(dir_okay=False),
                           default=None, help="Write to this file.")
_config_option = click.option("--config", type=click.Path(exists=True,
                                                          dir_okay=False),
                              default=None, help="JSON config file.")


class _Command(click.Command):
    """A command whose ValueErrors, the library's rejections of an input,
    are usage errors."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Heralded two-atom entanglement via cavity photodetection."""


@main.command("response")
@_config_option
@click.option("--x", "x_grid", type=float, multiple=True,
              help="Cooperativity grid point (repeatable).")
@click.option("--n", "n_values", type=int, multiple=True,
              help="Atom count (repeatable).")
@_format_option
@_out_option
def cmd_response(config, **flags) -> None:
    """Resonant reflection/transmission/loss table over (x, N)."""
    cfg = _settings(config, **flags)
    rows = [_response_row(x, n)
            for x in cfg.get("x_grid") or default_x_grid()
            for n in cfg.get("n_values", [0, 1, 2])]
    _emit(rows, cfg)


def _response_row(x: float, n: int) -> dict:
    r = reflection_probability(x, n)  # validates (x, n) before int(n)
    return {"x": float(x), "N": int(n), "R": r,
            "T": transmission_probability(x, n),
            "lambda": scattering_loss(x, n)}


@main.command("spectrum")
@_config_option
@click.option("--x", type=float, default=None, help="Cooperativity.")
@click.option("--n", "n_atoms", type=int, default=None, help="Atom count.")
@click.option("--omega", "omega_grid", type=float, multiple=True,
              help="Probe frequency (repeatable; overrides the range).")
@click.option("--omega-start", type=float, default=None)
@click.option("--omega-stop", type=float, default=None)
@click.option("--omega-points", type=int, default=None)
@_format_option
@_out_option
def cmd_spectrum(config, **flags) -> None:
    """Complex reflection/transmission spectrum at fixed (params, N)."""
    cfg = _settings(config, _PARAM_KEYS, **flags)
    params = _build_params(cfg)
    omegas = cfg.get("omega_grid")
    if omegas is None:
        start = cfg.get("omega_start", -10.0)
        stop = cfg.get("omega_stop", 10.0)
        points = cfg.get("omega_points", 201)
        if points < 1 or not -math.inf < start <= stop < math.inf:
            raise click.UsageError("invalid omega range")
        omegas = _linspace(start, stop, points)

    rows = []
    for omega in omegas:
        point = scattering_amplitudes(params, omega, cfg.get("n_atoms", 1))
        rows.append({"omega": float(omega),
                     "re_r": point.r.real, "im_r": point.r.imag,
                     "re_t": point.t.real, "im_t": point.t.imag,
                     "R": point.R, "T": point.T, "lambda": point.loss})
    _emit(rows, cfg)


# the values of `protocol.Scheme`, as a literal so that no command line
# loads the closed forms to parse its options
_SCHEMES = ["fock-single", "fock-double", "coherent-single", "coherent-double"]


@main.command("protocol")
@_config_option
@click.option("--scheme", type=click.Choice(_SCHEMES), default=None)
@click.option("--x", type=float, default=None, help="Cooperativity.")
@click.option("--eta", type=float, default=None, help="Detector efficiency.")
@click.option("--phi", type=float, default=None, help="Preparation angle.")
@click.option("--n-max", type=float, default=None, help="Photon budget.")
@click.option("--f-spurious", "f", type=float, default=None,
              help="Spurious-reflection fraction.")
@_format_option
@_out_option
def cmd_protocol(config, **flags) -> None:
    """Success probability and fidelity of one heralding scheme."""
    cfg = _settings(config, _PARAM_KEYS, **flags)
    if "scheme" not in cfg:
        raise click.UsageError("--scheme is required")
    params = _build_params(cfg)

    from .protocol import Scheme, coherent_double_fidelity_uncorrected
    scheme = Scheme(cfg["scheme"])
    if any(name not in cfg for name in scheme.needs):
        needed = " and ".join("--" + name.replace("_", "-")
                              for name in scheme.needs)
        raise click.UsageError(f"{scheme.value} needs {needed}")
    extra = {name for s in Scheme for name in s.needs
             if name in cfg and name not in scheme.needs}
    if extra:
        raise click.UsageError(
            f"{scheme.value} takes no {' or '.join(sorted(extra))}")
    outcome = scheme.evaluate(params, *(cfg[name] for name in scheme.needs))
    uncorrected = None
    if scheme is Scheme.COHERENT_DOUBLE:
        uncorrected = coherent_double_fidelity_uncorrected(params,
                                                           cfg["n_max"])

    row = {"scheme": scheme.value,
           "p_success": outcome.p_success,
           "fidelity": outcome.fidelity,
           "status": outcome.status,
           "p1_conditional": outcome.p1_conditional,
           "re_coherence": outcome.re_coherence,
           "uncorrected_fidelity": uncorrected}
    _emit([row], cfg)


@main.command("optimize")
@_config_option
@click.option("--scheme", type=click.Choice(_SCHEMES), default=None)
@click.option("--x", "x_grid", type=float, multiple=True,
              help="Cooperativity grid point (repeatable).")
@click.option("--eta", type=float, default=None, help="Detector efficiency.")
@click.option("--f-target", type=float, default=None, help="Fidelity floor.")
@_format_option
@_out_option
@click.pass_context
def cmd_optimize(ctx, config, **flags) -> None:
    """Maximize success probability at a fidelity floor over an x grid."""
    cfg = _settings(config, **flags)
    if "scheme" not in cfg:
        raise click.UsageError("--scheme is required")
    if "f_target" not in cfg:
        raise click.UsageError("--f-target is required")
    from .optimize import STATUS_OK, Scheme, SweepSpec, sweep
    results = sweep(SweepSpec(
        x_grid=tuple(cfg.get("x_grid") or default_x_grid()),
        eta=cfg.get("eta", 1.0), f_target=cfg["f_target"],
        scheme=Scheme(cfg["scheme"])))

    rows = [{"x": r.x, "scheme": r.scheme.value, "eta": r.eta,
             "F_target": r.f_target, "phi_opt": r.phi_opt,
             "n_max_opt": r.n_max_opt, "P_s": r.p_success,
             "F_achieved": r.fidelity_achieved, "status": r.status}
            for r in results]
    _emit(rows, cfg)
    if not any(r.status == STATUS_OK for r in results):
        ctx.exit(1)


@main.command("verify")
@_config_option
@click.option("--seed", type=int, default=None, help="Monte Carlo seed.")
@click.option("--samples", type=int, default=None,
              help="Monte Carlo sample count.")
@_out_option
@click.pass_context
def cmd_verify(ctx, config, **flags) -> None:
    """Run every oracle-vs-closed-form comparison; JSON report, exit 0 iff
    all checks pass."""
    cfg = _settings(config, **flags)
    # numpy loads only here, so a thread count set now still reaches BLAS;
    # the oracle's small dense products stall on two threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import json

    from . import oracle
    given = {k: cfg[k] for k in ("seed", "samples") if k in cfg}
    if given.get("samples", oracle.MIN_SAMPLES) < oracle.MIN_SAMPLES:
        raise click.UsageError(f"need at least {oracle.MIN_SAMPLES} samples")
    if given.get("seed", 0) < 0:
        raise click.UsageError("the seed must be nonnegative")
    with _output(cfg) as write:  # opened first, so a bad path fails fast
        report = oracle.run_verification_suite(**given)
        write(json.dumps(report, indent=2) + "\n")
    if not report["passed"]:
        ctx.exit(1)


if __name__ == "__main__":
    main()
