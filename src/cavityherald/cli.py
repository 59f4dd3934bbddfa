"""Command-line front end, on the standard library alone.

Subcommands: response | spectrum | protocol | optimize | verify. Each
command's options are one table of `_Option`s, which drives argv parsing,
the type rule for config values, --help and usage errors. Every option takes
exactly one value, given as `--flag value` or `--flag=value`, so
`--omega-start -1e3` is a value and not a flag. Every option stores its value
under its config key, and `_settings` reads a JSON config file with the same
keys and lets every given flag win. A key is the flag's own name, except
that a repeatable --x stores x_grid, --n stores n_values or n_atoms, --omega
stores omega_grid and --f-spurious stores f. A repeated single flag keeps
its last value, and a repeatable one collects its values in order. A config
value takes its flag's type. Each command validates its settings before
computing anything and writes its rows through `_emit` as CSV or JSON with
12-significant-digit floats. Identical config and seed give byte-identical
output.

Exit codes: 0 success, 1 verification/optimization failure, 2 usage error.
Every usage error is a ValueError, the type of the library's rejection of an
input, so one handler in `_Program.main` reports both, and an output that
cannot be written too.
"""

import contextlib
import math
import os
import sys

# `protocol`, `optimize` and json load only in the commands that use them
from .core import (
    CavityParams,
    _linspace,
    default_x_grid,
    fields,
    reflection_probability,
    scattering_amplitudes,
    scattering_loss,
    transmission_probability,
)

_PARAM_KEYS = frozenset(["x", *fields(CavityParams)])
_RAW_KEYS = {"g", "kappa_a", "kappa_b", "gamma"}
# the JSON type of a config value whose flag has this kind; a path takes a
# string
_JSON_TYPES = {int: int, float: (int, float)}
_METAVARS = {int: "INTEGER", float: "FLOAT"}
# help pages keep the layout that tests/cli_golden.json pins: lines of at
# most 80 columns, a two-column indent, and a first column of at most 30
_WIDTH = 80
_FIRST_COLUMN_MAX = 30


class _Option:
    """One flag of a command. It takes exactly one value of its `kind`:
    int, float, a tuple of choices, "file" (any path) or "existing file". The
    value is stored under `key`, and a repeatable flag collects its values
    in a list."""

    def __init__(self, flag: str, kind, key: str | None = None,
                 repeat: bool = False, text: str = "") -> None:
        self.flag, self.kind, self.repeat, self.text = flag, kind, repeat, text
        self.key = key or flag[2:].replace("-", "_")

    def metavar(self) -> str:
        if isinstance(self.kind, tuple):
            return f"[{'|'.join(self.kind)}]"
        return _METAVARS.get(self.kind, "FILE")

    def convert(self, text: str):
        """The value that `text` gives this flag; a ValueError names the
        flag."""
        kind = self.kind
        if isinstance(kind, tuple):
            if text in kind:
                return text
            why = f"{text!r} is not one of {', '.join(map(repr, kind))}."
        elif kind is int or kind is float:
            try:
                return kind(text)
            except ValueError:
                why = f"{text!r} is not a valid {_METAVARS[kind].lower()}."
        elif kind == "existing file" and not os.path.exists(text):
            why = f"File {text!r} does not exist."
        elif kind == "existing file" and os.path.isdir(text):
            why = f"File {text!r} is a directory."
        else:
            return text
        raise ValueError(f"Invalid value for {self.flag!r}: {why}")


_CONFIG = _Option("--config", "existing file", text="JSON config file.")
_FORMAT = _Option("--format", ("csv", "json"), text="Output format.")
_OUT = _Option("--out", "file", text="Write to this file.")
# the values of `protocol.Scheme`, as a literal so that no command line
# loads the closed forms to parse its options
_SCHEME = _Option("--scheme", ("fock-single", "fock-double", "coherent-single",
                               "coherent-double"))
_HELP_ROW = ("--help", "Show this message and exit.")


class _Command:
    """A subcommand: the function that runs it on its settings and returns
    an exit status or None, its option table, and the config keys it takes
    beyond its flags' own."""

    def __init__(self, name: str, run, options: tuple[_Option, ...],
                 keys: frozenset[str]) -> None:
        self.name, self.run, self.options, self.keys = name, run, options, keys
        self.doc = run.__doc__

    def parse(self, args: list[str]) -> dict | None:
        """The flags given in `args` by config key, or None for --help."""
        by_flag = {option.flag: option for option in self.options}
        flags = {}
        args = iter(args)
        for arg in args:
            if arg == "--help":
                return None
            flag, eq, text = arg.partition("=")
            option = by_flag.get(flag) if flag.startswith("--") else None
            if option is None:
                if arg.startswith("-") and arg != "-":
                    raise ValueError(f"No such option {flag!r}.")
                raise ValueError(f"Got unexpected extra argument ({arg})")
            if not eq:
                text = next(args, None)
                if text is None:
                    raise ValueError(f"Option {flag!r} requires an argument.")
            value = option.convert(text)
            if option.repeat:
                flags.setdefault(option.key, []).append(value)
            else:
                flags[option.key] = value
        return flags

    def help_page(self) -> str:
        rows = [(f"{o.flag} {o.metavar()}", o.text) for o in self.options]
        return _help_page(f"cavityherald {self.name} [OPTIONS]", self.doc,
                          ("Options", [*rows, _HELP_ROW]))


class _Program:
    """The `cavityherald` command: a table of subcommands. `main` runs a
    command line, `sys.argv[1:]` by default, and exits with its status, or
    returns the status when `standalone_mode` is False."""

    doc = "Heralded two-atom entanglement via cavity photodetection."

    def __init__(self) -> None:
        self.commands: dict[str, _Command] = {}

    def main(self, args: list[str] | None = None,
             standalone_mode: bool = True) -> int:
        status = self._run(sys.argv[1:] if args is None else list(args))
        if standalone_mode:
            sys.exit(status)
        return status

    __call__ = main

    def _run(self, args: list[str]) -> int:
        command = None
        try:
            if not args:
                raise ValueError("Missing command.")
            command = self.commands.get(args[0])
            if command is None:
                if args[0] == "--help":
                    return _write_page(self.help_page())
                if args[0].startswith("-"):
                    raise ValueError(f"No such option {args[0]!r}.")
                raise ValueError(f"No such command {args[0]!r}.")
            flags = command.parse(args[1:])
            if flags is None:
                return _write_page(command.help_page())
            return command.run(_settings(command, flags)) or 0
        except ValueError as exc:
            name = "cavityherald" + (f" {command.name}" if command else "")
            usage = "[OPTIONS]" if command else "[OPTIONS] COMMAND [ARGS]..."
            sys.stderr.write(f"Usage: {name} {usage}\nTry '{name} --help' for "
                             f"help.\n\nError: {exc}\n")
            return 2

    def help_page(self) -> str:
        rows = [(name, c.doc) for name, c in self.commands.items()]
        return _help_page("cavityherald [OPTIONS] COMMAND [ARGS]...",
                          self.doc, ("Options", [_HELP_ROW]),
                          ("Commands", rows))


def _help_page(usage: str, doc: str, *sections) -> str:
    import textwrap
    text = textwrap.fill(" ".join(doc.split()), _WIDTH, initial_indent="  ",
                         subsequent_indent="  ")
    page = f"Usage: {usage}\n\n{text}\n"
    for title, rows in sections:
        page += f"\n{title}:\n"
        # the second column starts 2 after the widest first cell, or after
        # _FIRST_COLUMN_MAX; a wider cell puts its text on the next line
        col = min(max(len(first) for first, _ in rows), _FIRST_COLUMN_MAX) + 2
        for first, second in rows:
            page += "  " + first
            if second:
                pad = col - len(first)
                page += " " * pad if pad >= 2 else "\n" + " " * (col + 2)
                page += ("\n" + " " * (col + 2)).join(
                    textwrap.wrap(second, _WIDTH - col - 2))
            page += "\n"
    return page


def _write_page(page: str) -> int:
    with _output({}) as write:
        write(page)
    return 0


main = _Program()


def _command(name: str, *options: _Option,
             keys: frozenset[str] = frozenset()):
    """Register the decorated function as subcommand `name`, with --config
    and `options`."""
    def register(run):
        main.commands[name] = _Command(name, run, (_CONFIG, *options), keys)
        return run
    return register


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
        raise ValueError(f"cannot write output: {exc}")


def _settings(command: _Command, flags: dict) -> dict:
    """A command's settings: the JSON config file of --config, which may
    hold the command's `keys` and its flags' own, overridden by every flag
    given. A config value must have the type of the command's option of
    that name (`_check_type`), and a repeatable one must not be empty."""
    cfg = {}
    config = flags.pop("config", None)
    if config is not None:
        import json
        try:
            with open(config) as file:
                cfg = json.load(file)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise ValueError(f"cannot read config: {exc}")
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    options = {o.key: o for o in command.options if o is not _CONFIG}
    unknown = set(cfg) - command.keys - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in cfg.items():
        _check_type(key, value, options.get(key))
    cfg.update(flags)
    for option in options.values():
        if option.repeat and cfg.get(option.key) == []:
            raise ValueError(f"{option.key} is empty")
    return cfg


def _check_type(key: str, value, option: _Option | None) -> None:
    # a config value takes its flag's type: a list for a repeatable flag, one
    # of the choices of a choice flag, else the `_JSON_TYPES` entry of the
    # flag's kind; a key without a flag takes a number, and a bool is never
    # a number
    kind = option.kind if option else float
    if isinstance(kind, tuple):
        if value not in kind:
            *rest, last = kind
            raise ValueError(f"config {key} must be {', '.join(rest)} "
                             f"or {last}, got {value!r}")
        return
    want = _JSON_TYPES.get(kind, str)
    items = value if isinstance(value, list) else [value]
    if (isinstance(value, list) != (option is not None and option.repeat)
            or not all(isinstance(v, want) and not isinstance(v, bool)
                       for v in items)):
        raise ValueError(f"config value of {key} has the wrong type: "
                         f"{value!r}")


def _build_params(cfg: dict) -> CavityParams:
    """Cavity parameters from the reduced cooperativity, raw rates, or both
    (both must agree)."""
    have_raw = _RAW_KEYS & set(cfg)
    extras = {k: cfg[k] for k in _PARAM_KEYS - _RAW_KEYS - {"x"} if k in cfg}
    x = cfg.get("x")
    if have_raw:
        missing = _RAW_KEYS - set(cfg)
        if missing:
            raise ValueError(
                f"raw rates need all of g, kappa_a, kappa_b, gamma "
                f"(missing: {', '.join(sorted(missing))})")
        params = CavityParams.from_raw_rates(
            cfg["g"], cfg["kappa_a"], cfg["kappa_b"], cfg["gamma"], **extras)
        if x is not None and not math.isclose(params.cooperativity, x,
                                              rel_tol=1e-9):
            raise ValueError(
                f"inconsistent parameters: x={x} but raw rates give "
                f"g^2/(kappa gamma)={params.cooperativity!r}")
        return params
    if x is None:
        raise ValueError(
            "cooperativity required: give --x or raw rates in the config")
    return CavityParams.from_cooperativity(x, **extras)


@_command("response",
          _Option("--x", float, "x_grid", repeat=True,
                  text="Cooperativity grid point (repeatable)."),
          _Option("--n", int, "n_values", repeat=True,
                  text="Atom count (repeatable)."),
          _FORMAT, _OUT)
def cmd_response(cfg: dict) -> None:
    """Resonant reflection/transmission/loss table over (x, N)."""
    rows = [_response_row(x, n)
            for x in cfg.get("x_grid") or default_x_grid()
            for n in cfg.get("n_values", [0, 1, 2])]
    _emit(rows, cfg)


def _response_row(x: float, n: int) -> dict:
    r = reflection_probability(x, n)  # validates (x, n) before int(n)
    return {"x": float(x), "N": int(n), "R": r,
            "T": transmission_probability(x, n),
            "lambda": scattering_loss(x, n)}


@_command("spectrum",
          _Option("--x", float, text="Cooperativity."),
          _Option("--n", int, "n_atoms", text="Atom count."),
          _Option("--omega", float, "omega_grid", repeat=True,
                  text="Probe frequency (repeatable; overrides the range)."),
          _Option("--omega-start", float),
          _Option("--omega-stop", float),
          _Option("--omega-points", int),
          _FORMAT, _OUT, keys=_PARAM_KEYS)
def cmd_spectrum(cfg: dict) -> None:
    """Complex reflection/transmission spectrum at fixed (params, N)."""
    params = _build_params(cfg)
    omegas = cfg.get("omega_grid")
    if omegas is None:
        start = cfg.get("omega_start", -10.0)
        stop = cfg.get("omega_stop", 10.0)
        points = cfg.get("omega_points", 201)
        if points < 1 or not -math.inf < start <= stop < math.inf:
            raise ValueError("invalid omega range")
        omegas = _linspace(start, stop, points)

    rows = []
    for omega in omegas:
        point = scattering_amplitudes(params, omega, cfg.get("n_atoms", 1))
        rows.append({"omega": float(omega),
                     "re_r": point.r.real, "im_r": point.r.imag,
                     "re_t": point.t.real, "im_t": point.t.imag,
                     "R": point.R, "T": point.T, "lambda": point.loss})
    _emit(rows, cfg)


@_command("protocol", _SCHEME,
          _Option("--x", float, text="Cooperativity."),
          _Option("--eta", float, text="Detector efficiency."),
          _Option("--phi", float, text="Preparation angle."),
          _Option("--n-max", float, text="Photon budget."),
          _Option("--f-spurious", float, "f",
                  text="Spurious-reflection fraction."),
          _FORMAT, _OUT, keys=_PARAM_KEYS)
def cmd_protocol(cfg: dict) -> None:
    """Success probability and fidelity of one heralding scheme."""
    if "scheme" not in cfg:
        raise ValueError("--scheme is required")
    params = _build_params(cfg)

    from .protocol import Scheme, coherent_double_fidelity_uncorrected
    scheme = Scheme(cfg["scheme"])
    if any(name not in cfg for name in scheme.needs):
        needed = " and ".join("--" + name.replace("_", "-")
                              for name in scheme.needs)
        raise ValueError(f"{scheme.value} needs {needed}")
    extra = {name for s in Scheme for name in s.needs
             if name in cfg and name not in scheme.needs}
    if extra:
        raise ValueError(
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


@_command("optimize", _SCHEME,
          _Option("--x", float, "x_grid", repeat=True,
                  text="Cooperativity grid point (repeatable)."),
          _Option("--eta", float, text="Detector efficiency."),
          _Option("--f-target", float, text="Fidelity floor."),
          _FORMAT, _OUT, keys=_PARAM_KEYS - {"x"})
def cmd_optimize(cfg: dict) -> int | None:
    """Maximize success probability at a fidelity floor over an x grid."""
    if "scheme" not in cfg:
        raise ValueError("--scheme is required")
    if "f_target" not in cfg:
        raise ValueError("--f-target is required")
    if _RAW_KEYS & set(cfg):
        raise ValueError("optimize takes no raw rates (g, kappa_a, kappa_b, "
                         "gamma): the x grid sets g")
    # every parameter key but x, at x = 0: each row rescales g to its own x
    base = _build_params({**cfg, "x": 0.0})
    from .optimize import STATUS_OK, Scheme, SweepSpec, sweep
    results = sweep(SweepSpec(
        x_grid=tuple(cfg.get("x_grid") or default_x_grid()),
        eta=base.eta, f_target=cfg["f_target"],
        scheme=Scheme(cfg["scheme"]), base=base))

    rows = [{"x": r.x, "scheme": r.scheme.value, "eta": r.eta,
             "F_target": r.f_target, "phi_opt": r.phi_opt,
             "n_max_opt": r.n_max_opt, "P_s": r.p_success,
             "F_achieved": r.fidelity_achieved, "status": r.status}
            for r in results]
    _emit(rows, cfg)
    return None if any(r.status == STATUS_OK for r in results) else 1


@_command("verify",
          _Option("--seed", int, text="Monte Carlo seed."),
          _Option("--samples", int, text="Monte Carlo sample count."),
          _OUT)
def cmd_verify(cfg: dict) -> int | None:
    """Run every oracle-vs-closed-form comparison; JSON report, exit 0 iff
    all checks pass."""
    # numpy loads only here, so a thread count set now still reaches BLAS;
    # the oracle's small dense products stall on two threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import json

    try:
        from . import oracle
    except ImportError as exc:  # numpy is the optional extra `verify`
        sys.stderr.write(f"Error: {exc}\n")
        return 2
    given = {k: cfg[k] for k in ("seed", "samples") if k in cfg}
    if given.get("samples", oracle.MIN_SAMPLES) < oracle.MIN_SAMPLES:
        raise ValueError(f"need at least {oracle.MIN_SAMPLES} samples")
    if given.get("seed", 0) < 0:
        raise ValueError("the seed must be nonnegative")
    with _output(cfg) as write:  # opened first, so a bad path fails fast
        report = oracle.run_verification_suite(**given)
        write(json.dumps(report, indent=2) + "\n")
    return None if report["passed"] else 1


if __name__ == "__main__":
    main()
