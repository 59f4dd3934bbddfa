"""Command-line front end.

Subcommands: response | spectrum | protocol | optimize | verify. Every
subcommand accepts a JSON config file plus flags (flags win), validates its
inputs before computing anything, and emits CSV or JSON with 12-significant-
digit floats. Identical config and seed give byte-identical output.

Exit codes: 0 success, 1 verification/optimization failure, 2 usage error.
"""

from __future__ import annotations

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

_PARAM_KEYS = {"x", "g", "kappa_a", "kappa_b", "gamma", "delta", "eta", "f",
               "g_tilde", "kappa_tilde"}
_RAW_KEYS = {"g", "kappa_a", "kappa_b", "gamma"}
# the JSON type each config key must have; every other key is one number
_TEXT_KEYS = {"scheme", "format", "out"}
_GRID_KEYS = {"x_grid", "n_values", "omega_grid"}
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return _fmt_float(float(value))


def _jsonable(value):
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    value = float(value)
    return None if math.isnan(value) else value


def _render(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        clean = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
        return json.dumps(clean, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        pathlib.Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _load_config(path: str | None, allowed: set[str]) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config: {exc}")
    if not isinstance(config, dict):
        raise click.UsageError("config must be a JSON object")
    unknown = set(config) - allowed
    if unknown:
        raise click.UsageError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in config.items():
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
    if config.get("format", "csv") not in ("csv", "json"):
        raise click.UsageError(
            f"config format must be csv or json, got {config['format']!r}")
    return config


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merged(config: dict, **flags) -> dict:
    merged = dict(config)
    for key, value in flags.items():
        if value is not None and value != ():
            merged[key] = value
    return merged


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
    cfg = _load_config(config, {"x_grid", "n_values", "format", "out"})
    cfg = _merged(cfg, x_grid=list(x_values) if x_values else None,
                  n_values=list(n_values) if n_values else None,
                  format=fmt, out=out)
    if "x_grid" in cfg and len(cfg["x_grid"]) == 0:
        raise click.UsageError("x_grid is empty")
    grid = cfg.get("x_grid") or list(default_x_grid())
    ns = cfg.get("n_values") or [0, 1, 2]
    if any(x < 0 for x in grid):
        raise click.UsageError("cooperativities must be nonnegative")
    if any(n < 0 for n in ns):
        raise click.UsageError("atom counts must be nonnegative")

    try:
        rows = [{"x": float(x), "N": int(n),
                 "R": reflection_probability(x, n),
                 "T": transmission_probability(x, n),
                 "lambda": scattering_loss(x, n)}
                for x in grid for n in ns]
    except ValueError as exc:  # x above X_MAX, or a fractional atom count
        raise click.UsageError(str(exc))
    _write(_render(rows, ["x", "N", "R", "T", "lambda"],
                   cfg.get("format", "csv")), cfg.get("out"))


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
    allowed = (_PARAM_KEYS | {"n_atoms", "omega_grid", "omega_start",
                              "omega_stop", "omega_points", "format", "out"})
    cfg = _load_config(config, allowed)
    cfg = _merged(cfg,
                  x=x, n_atoms=n_atoms,
                  omega_grid=list(omega_values) if omega_values else None,
                  omega_start=omega_start, omega_stop=omega_stop,
                  omega_points=omega_points, format=fmt, out=out)
    params = _build_params(cfg)
    n = cfg.get("n_atoms", 1)
    if n < 0:
        raise click.UsageError("atom count must be nonnegative")
    if "omega_grid" in cfg and len(cfg["omega_grid"]) == 0:
        raise click.UsageError("omega_grid is empty")
    omegas = cfg.get("omega_grid")
    if not omegas:
        start = cfg.get("omega_start", -10.0)
        stop = cfg.get("omega_stop", 10.0)
        points = cfg.get("omega_points", 201)
        if points < 1 or not -math.inf < start <= stop < math.inf:
            raise click.UsageError("invalid omega range")
        omegas = _linspace(start, stop, points)
    elif not all(map(math.isfinite, omegas)):
        raise click.UsageError("omega values must be finite")

    rows = []
    try:
        for omega in omegas:
            point = scattering_amplitudes(params, omega, n)
            rows.append({"omega": float(omega),
                         "re_r": point.r.real, "im_r": point.r.imag,
                         "re_t": point.t.real, "im_t": point.t.imag,
                         "R": point.R, "T": point.T, "lambda": point.loss})
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write(_render(rows, ["omega", "re_r", "im_r", "re_t", "im_t",
                          "R", "T", "lambda"],
                   cfg.get("format", "csv")), cfg.get("out"))


_SCHEMES = [s.value for s in Scheme]


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
    allowed = _PARAM_KEYS | {"scheme", "phi", "n_max", "format", "out"}
    cfg = _load_config(config, allowed)
    if f_spurious is not None:
        cfg["f"] = f_spurious
    cfg = _merged(cfg, scheme=scheme, x=x, eta=eta, phi=phi, n_max=n_max,
                  format=fmt, out=out)
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
    _write(_render([row], list(row.keys()), cfg.get("format", "csv")),
           cfg.get("out"))


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
    cfg = _load_config(config, {"scheme", "x_grid", "eta", "f_target",
                                "format", "out"})
    cfg = _merged(cfg, scheme=scheme,
                  x_grid=list(x_values) if x_values else None,
                  eta=eta, f_target=f_target, format=fmt, out=out)
    if "scheme" not in cfg:
        raise click.UsageError("--scheme is required")
    if "f_target" not in cfg:
        raise click.UsageError("--f-target is required")
    if "x_grid" in cfg and len(cfg["x_grid"]) == 0:
        raise click.UsageError("x_grid is empty")
    grid = cfg.get("x_grid") or list(default_x_grid())
    try:
        spec = SweepSpec(x_grid=tuple(grid), eta=cfg.get("eta", 1.0),
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
    _write(_render(rows, ["x", "scheme", "eta", "F_target", "phi_opt",
                          "n_max_opt", "P_s", "F_achieved", "status"],
                   cfg.get("format", "csv")), cfg.get("out"))
    if not any(r.status == STATUS_OK for r in results):
        ctx.exit(1)


@main.command("verify")
@_config_option
@click.option("--seed", type=int, default=None, help="Monte Carlo seed.")
@click.option("--samples", type=int, default=None,
              help="Monte Carlo sample count.")
@click.option("--tolerance-scale", type=float, default=None, hidden=True,
              help="Multiply every tolerance; a failure-path test hook.")
@_out_option
@click.pass_context
def cmd_verify(ctx, config, seed, samples, tolerance_scale, out) -> None:
    """Run every oracle-vs-closed-form comparison; JSON report, exit 0 iff
    all checks pass."""
    cfg = _load_config(config, {"seed", "samples", "tolerance_scale", "out"})
    cfg = _merged(cfg, seed=seed, samples=samples,
                  tolerance_scale=tolerance_scale, out=out)
    if cfg.get("samples", 1_000_000) < 10_000:
        raise click.UsageError("need at least 1e4 samples")
    # numpy and scipy load only here, so a thread count set now still
    # reaches BLAS; the oracle's small dense products stall on two threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .oracle import run_verification_suite
    report = run_verification_suite(
        seed=cfg.get("seed", 20240817),
        samples=cfg.get("samples", 1_000_000),
        tolerance_scale=cfg.get("tolerance_scale", 1.0))
    _write(json.dumps(report, indent=2) + "\n", cfg.get("out"))
    if not report["passed"]:
        ctx.exit(1)


if __name__ == "__main__":
    main()
