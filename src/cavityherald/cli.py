"""Command-line front end.

Subcommands: response | spectrum | protocol | optimize | verify. Each one
reads its settings through `_settings`, from a JSON config file keyed by the
flags' own names (x_grid, n_values, n_atoms, omega_grid and f name the
flags --x, --n, --omega and --f-spurious) with every given flag winning,
validates them before computing anything, and writes its rows through
`_emit` as CSV or JSON with 12-significant-digit floats. Identical config
and seed give byte-identical output.

Exit codes: 0 success, 1 verification/optimization failure, 2 usage error.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib

import click

from .core import (
    CavityParams,
    reflection_probability,
    scattering_amplitudes,
    scattering_loss,
    transmission_probability,
)
from .optimize import (SCHEMES, Scheme, SweepSpec, _linspace, default_x_grid,
                       sweep)
from .protocol import STATUS_OK, coherent_double_fidelity_uncorrected

_PARAM_KEYS = frozenset({"x", "g", "kappa_a", "kappa_b", "gamma", "delta",
                         "eta", "f", "g_tilde", "kappa_tilde"})
_RAW_KEYS = {"g", "kappa_a", "kappa_b", "gamma"}
# the JSON type each config key must have; every other key is one number
_TEXT_KEYS = {"scheme", "format", "out"}
_GRID_KEYS = ("x_grid", "n_values", "omega_grid")  # checked in this order
_COUNT_KEYS = {"omega_points", "seed", "samples"}


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
        clean = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
        text = json.dumps(clean, indent=2) + "\n"
    else:
        lines = [",".join(rows[0])]
        lines += [",".join(map(_fmt_cell, row.values())) for row in rows]
        text = "\n".join(lines) + "\n"
    with _output(cfg) as sink:
        _write(text, sink)


def _output(cfg: dict):
    """The `out` file opened for writing, or a null context for stdout; an
    unwritable path is a usage error."""
    if not cfg.get("out"):
        return contextlib.nullcontext()
    try:
        return open(cfg["out"], "w")
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}")


def _write(text: str, sink) -> None:
    # sink: what `_output` entered, None for stdout
    if sink is None:
        return click.echo(text, nl=False)
    try:
        sink.write(text)
        sink.flush()  # so that a failing flush is a usage error too
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}")


def _settings(config: str | None, keys: frozenset[str] = frozenset(),
              **flags) -> dict:
    """A command's settings: the JSON config file, which may hold `keys` and
    the flags' own names, overridden by every flag given. Repeatable flags
    become lists. A config value of the wrong type, or an empty grid, is a
    usage error."""
    cfg = {}
    if config is not None:
        try:
            cfg = json.loads(pathlib.Path(config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise click.UsageError(f"cannot read config: {exc}")
        if not isinstance(cfg, dict):
            raise click.UsageError("config must be a JSON object")
    unknown = set(cfg) - keys - set(flags)
    if unknown:
        raise click.UsageError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in cfg.items():
        if key in _TEXT_KEYS:
            ok = isinstance(value, str)
        elif key in _GRID_KEYS:
            ok = isinstance(value, list) and all(map(_is_number, value))
        elif key in _COUNT_KEYS:
            ok = _is_number(value) and isinstance(value, int)
        else:
            ok = _is_number(value)
        if not ok:
            raise click.UsageError(
                f"config value of {key} has the wrong type: {value!r}")
    if cfg.get("format", "csv") not in ("csv", "json"):
        raise click.UsageError(
            f"config format must be csv or json, got {cfg['format']!r}")
    for key, value in flags.items():
        if isinstance(value, tuple):  # a repeatable flag
            value = list(value) or None
        if value is not None:
            cfg[key] = value
    for key in _GRID_KEYS:
        if cfg.get(key) == []:
            raise click.UsageError(f"{key} is empty")
    return cfg


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build_params(cfg: dict) -> CavityParams:
    """Cavity parameters from the reduced cooperativity, raw rates, or both
    (both must agree)."""
    have_raw = _RAW_KEYS & set(cfg)
    extras = {k: cfg[k] for k in ("delta", "eta", "f", "g_tilde", "kappa_tilde")
              if k in cfg}
    x = cfg.get("x")
    if have_raw:
        missing = _RAW_KEYS - set(cfg)
        if missing:
            raise click.UsageError(
                f"raw rates need all of g, kappa_a, kappa_b, gamma "
                f"(missing: {', '.join(sorted(missing))})")
        try:
            params = CavityParams.from_raw_rates(
                cfg["g"], cfg["kappa_a"], cfg["kappa_b"], cfg["gamma"],
                **extras)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        if x is not None and abs(params.cooperativity - x) > 1e-9:
            raise click.UsageError(
                f"inconsistent parameters: x={x} but raw rates give "
                f"g^2/(kappa gamma)={params.cooperativity!r}")
        return params
    if x is None:
        raise click.UsageError(
            "cooperativity required: give --x or raw rates in the config")
    try:
        return CavityParams.from_cooperativity(x, **extras)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc))


_format_option = click.option("--format", "fmt",
                              type=click.Choice(["csv", "json"]),
                              default=None, help="Output format.")
_out_option = click.option("--out", type=click.Path(dir_okay=False),
                           default=None, help="Write to this file.")
_config_option = click.option("--config", type=click.Path(exists=True,
                                                          dir_okay=False),
                              default=None, help="JSON config file.")


@click.group()
def main() -> None:
    """Heralded two-atom entanglement via cavity photodetection."""


@main.command("response")
@_config_option
@click.option("--x", "x_values", type=float, multiple=True,
              help="Cooperativity grid point (repeatable).")
@click.option("--n", "n_values", type=int, multiple=True,
              help="Atom count (repeatable).")
@_format_option
@_out_option
def cmd_response(config, x_values, n_values, fmt, out) -> None:
    """Resonant reflection/transmission/loss table over (x, N)."""
    cfg = _settings(config, x_grid=x_values, n_values=n_values, format=fmt,
                    out=out)
    try:  # the library rejects negative or too large x and bad atom counts
        rows = [_response_row(x, n)
                for x in cfg.get("x_grid") or default_x_grid()
                for n in cfg.get("n_values", [0, 1, 2])]
    except ValueError as exc:
        raise click.UsageError(str(exc))
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
@click.option("--omega", "omega_values", type=float, multiple=True,
              help="Probe frequency (repeatable; overrides the range).")
@click.option("--omega-start", type=float, default=None)
@click.option("--omega-stop", type=float, default=None)
@click.option("--omega-points", type=int, default=None)
@_format_option
@_out_option
def cmd_spectrum(config, x, n_atoms, omega_values, omega_start, omega_stop,
                 omega_points, fmt, out) -> None:
    """Complex reflection/transmission spectrum at fixed (params, N)."""
    cfg = _settings(config, _PARAM_KEYS, x=x, n_atoms=n_atoms,
                    omega_grid=omega_values, omega_start=omega_start,
                    omega_stop=omega_stop, omega_points=omega_points,
                    format=fmt, out=out)
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
    try:  # the library rejects a bad atom count and a non-finite omega
        for omega in omegas:
            point = scattering_amplitudes(params, omega, cfg.get("n_atoms", 1))
            rows.append({"omega": float(omega),
                         "re_r": point.r.real, "im_r": point.r.imag,
                         "re_t": point.t.real, "im_t": point.t.imag,
                         "R": point.R, "T": point.T, "lambda": point.loss})
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(rows, cfg)


_SCHEMES = [s.value for s in Scheme]
_SCHEME_ARGS = frozenset(name for e in SCHEMES.values() for name in e.needs)


@main.command("protocol")
@_config_option
@click.option("--scheme", type=click.Choice(_SCHEMES), default=None)
@click.option("--x", type=float, default=None, help="Cooperativity.")
@click.option("--eta", type=float, default=None, help="Detector efficiency.")
@click.option("--phi", type=float, default=None, help="Preparation angle.")
@click.option("--n-max", type=float, default=None, help="Photon budget.")
@click.option("--f-spurious", type=float, default=None,
              help="Spurious-reflection fraction.")
@_format_option
@_out_option
def cmd_protocol(config, scheme, x, eta, phi, n_max, f_spurious, fmt,
                 out) -> None:
    """Success probability and fidelity of one heralding scheme."""
    cfg = _settings(config, _PARAM_KEYS, scheme=scheme, x=x, eta=eta, phi=phi,
                    n_max=n_max, f=f_spurious, format=fmt, out=out)
    if "scheme" not in cfg:
        raise click.UsageError("--scheme is required")
    params = _build_params(cfg)

    uncorrected = None
    try:
        scheme_v = Scheme(cfg["scheme"])  # a config file may name any scheme
        entry = SCHEMES[scheme_v]
        if any(name not in cfg for name in entry.needs):
            flags = " and ".join("--" + name.replace("_", "-")
                                 for name in entry.needs)
            raise click.UsageError(f"{scheme_v.value} needs {flags}")
        extra = _SCHEME_ARGS.intersection(cfg).difference(entry.needs)
        if extra:
            raise click.UsageError(
                f"{scheme_v.value} takes no {' or '.join(sorted(extra))}")
        outcome = entry.evaluate(params, *(cfg[name] for name in entry.needs))
        if scheme_v is Scheme.COHERENT_DOUBLE:
            uncorrected = coherent_double_fidelity_uncorrected(
                params, cfg["n_max"])
    except ValueError as exc:
        raise click.UsageError(str(exc))

    row = {"scheme": scheme_v.value,
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
@click.option("--x", "x_values", type=float, multiple=True,
              help="Cooperativity grid point (repeatable).")
@click.option("--eta", type=float, default=None, help="Detector efficiency.")
@click.option("--f-target", type=float, default=None, help="Fidelity floor.")
@_format_option
@_out_option
@click.pass_context
def cmd_optimize(ctx, config, scheme, x_values, eta, f_target, fmt,
                 out) -> None:
    """Maximize success probability at a fidelity floor over an x grid."""
    cfg = _settings(config, scheme=scheme, x_grid=x_values, eta=eta,
                    f_target=f_target, format=fmt, out=out)
    if "scheme" not in cfg:
        raise click.UsageError("--scheme is required")
    if "f_target" not in cfg:
        raise click.UsageError("--f-target is required")
    try:
        spec = SweepSpec(x_grid=tuple(cfg.get("x_grid") or default_x_grid()),
                         eta=cfg.get("eta", 1.0),
                         f_target=cfg["f_target"],
                         scheme=Scheme(cfg["scheme"]))
        results = sweep(spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))

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
def cmd_verify(ctx, config, seed, samples, out) -> None:
    """Run every oracle-vs-closed-form comparison; JSON report, exit 0 iff
    all checks pass."""
    cfg = _settings(config, seed=seed, samples=samples, out=out)
    # numpy loads only here, so a thread count set now still reaches BLAS;
    # the oracle's small dense products stall on two threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import oracle
    given = {k: cfg[k] for k in ("seed", "samples") if k in cfg}
    if given.get("samples", oracle.MIN_SAMPLES) < oracle.MIN_SAMPLES:
        raise click.UsageError(f"need at least {oracle.MIN_SAMPLES} samples")
    if given.get("seed", 0) < 0:
        raise click.UsageError("the seed must be nonnegative")
    with _output(cfg) as sink:  # opened first, so a bad path fails fast
        report = oracle.run_verification_suite(**given)
        _write(json.dumps(report, indent=2) + "\n", sink)
    if not report["passed"]:
        ctx.exit(1)


if __name__ == "__main__":
    main()
