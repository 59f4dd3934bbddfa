"""Traced run: per-layer spans and counts, recorded from the benchmark's own
code around the program's public functions.

Spans are kept in memory as (calls, total, self) per name. A layer's self
time is its span's duration minus the time of the spans it caused. Calls
into `protocol` are counted against the nearest enclosing span outside
`protocol`, so that "protocol calls per optimizer row" and "protocol calls
inside quadrature integrands" are exact counts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import statistics
import sys
import time
from collections import defaultdict

import clock
import workloads as wl

ORACLE_STAGES = ("build_system", "steady_state_density_matrix",
                 "steady_state_rt", "coherence_decay_rate",
                 "quadrature_single", "monte_carlo_double")
FIGURE_POINT = [(1.0, 1.0, 0.9)]  # (x, eta, F_target)
SCAN_CURVES = ("protocol.fock_single", "protocol.coherent_single",
               "protocol.coherent_double", "core.scattering_amplitudes")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.into: dict[str, int] = defaultdict(int)  # protocol calls by caller
        self.into_s: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        for d in (self.calls, self.total, self.self_time, self.into,
                  self.into_s):
            d.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self._close(name, dt, frame[1])

    def _close(self, name: str, dt: float, children: float) -> None:
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - children
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            if name.startswith("protocol.") and not parent[0].startswith(
                    "protocol."):
                self.into[parent[0]] += 1
                self.into_s[parent[0]] += dt

    def wrap(self, fn, name: str, flat: bool = False):
        """A traced stand-in for fn. With `flat`, a call made from inside
        another span of the same layer runs untraced, which keeps helper
        calls inside `protocol` from paying for spans nobody reads."""
        stack, close = self.stack, self._close
        perf = time.perf_counter
        layer = name.split(".", 1)[0] + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flat and stack and stack[-1][0].startswith(layer):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                close(name, dt, frame[1])
        return traced


def public_functions(mod) -> tuple[str, ...]:
    """Names of the functions a module defines without a leading underscore,
    so that a function added to `protocol` later is counted too."""
    return tuple(n for n, v in vars(mod).items()
                 if inspect.isfunction(v) and v.__module__ == mod.__name__
                 and not n.startswith("_"))


@contextlib.contextmanager
def installed(tracer: Tracer, prog: dict):
    """Replace the module attributes that the layers call through with
    traced wrappers, and restore them afterwards."""
    saved = []
    for mod, names, flat in (
            (prog["protocol"], public_functions(prog["protocol"]), True),
            (prog["oracle"], ORACLE_STAGES, False)):
        layer = mod.__name__.rsplit(".", 1)[-1]
        for n in names:
            fn = getattr(mod, n)
            saved.append((mod, n, fn))
            setattr(mod, n, tracer.wrap(fn, f"{layer}.{n}", flat))
    try:
        yield
    finally:
        for mod, n, fn in saved:
            setattr(mod, n, fn)


class LayerPass:
    """One pass over every layer at fixed inputs: an optimizer row at x = 1,
    eta = 1, F = 0.9; a point-scan op; the verification suite; and the CLI
    subcommands run in-process through `main`."""

    PARTS = ("figure", "scan", "verify", "cli")

    def __init__(self, seed: int, prog: dict, env: dict, cwd: str) -> None:
        self.prog = prog
        self.figure = wl.FigureSweep(seed, prog, FIGURE_POINT)
        self.scan = wl.PointScan(seed, prog)
        self.verify = wl.Verify(seed, prog)
        self.cli = wl.CliCold(seed, env, cwd)
        self.figure.prepare()
        self.scan.prepare()

    def run_cli(self, tracer: Tracer | None) -> list[str]:
        main = self.prog["cli"].main
        bad = []
        for k, command in enumerate(self.cli.commands):
            buf = io.StringIO()
            span = (tracer.span(f"cli.{command[0]}") if tracer
                    else contextlib.nullcontext())
            with span, contextlib.redirect_stdout(buf):
                code = main.main(args=list(command), standalone_mode=False)
            if code not in (None, 0):
                bad.append(f"cli {command[0]}: exit code {code}")
            bad += self.cli.check(k, buf.getvalue().encode())
        return bad

    def run_scan(self, tracer: Tracer | None) -> list[str]:
        params, phi = self.scan.params(0)
        out = []
        # one span per curve of 250 calls: a span per call would cost more
        # than the 10 us calls it times
        for call, name in zip(self.scan.curve_calls(params, phi,
                                                    self.scan.functions()),
                              SCAN_CURVES):
            span = (tracer.span(name + ".batch") if tracer
                    else contextlib.nullcontext())
            with span:
                out.append(call())
        return self.scan.check(0, tuple(out))

    def run(self, part: str, tracer: Tracer | None) -> list[str]:
        if part == "figure":
            opt = self.prog["optimize"]
            x, eta, f_target = FIGURE_POINT[0]
            params = self.prog["core"].CavityParams.from_cooperativity(
                x, eta=eta)
            rows = []
            for s in wl.SCHEMES:
                span = (tracer.span(f"optimize.{s}") if tracer
                        else contextlib.nullcontext())
                with span:
                    rows.append(opt.optimize(params, s, f_target))
            return self.figure.check(0, rows)
        if part == "scan":
            return self.run_scan(tracer)
        if part == "verify":
            return self.verify.check(0, self.prog["oracle"]
                                     .run_verification_suite())
        return self.run_cli(tracer)


IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import cavityherald.cli\n"
    "dt = time.perf_counter() - t0\n"
    "mods = list(sys.modules)\n"
    "print(dt, len(mods), sum(m == 'scipy' or m.startswith('scipy.')"
    " for m in mods))\n"
)


def traced_run(seed: int, prog: dict, env: dict, cwd: str, seconds: float,
               log):
    """Alternate traced and untraced passes in whole rounds for `seconds`;
    return (metrics, attempted, failed, problems, record of the spans)."""
    lp = LayerPass(seed, prog, env, cwd)
    tracer = Tracer()
    parts = LayerPass.PARTS
    traced = {p: [] for p in parts}
    plain = {p: [] for p in parts}
    per_round: list[dict] = []
    refs = {"interp": [], "array": []}
    problems: list[str] = []
    attempted = failed = 0
    for p in parts:  # warm-up
        lp.run(p, None)
    t_end = time.perf_counter() + seconds
    rnd = 0
    while True:
        refs["interp"].append(clock.time_call(clock.interp_kernel))
        refs["array"].append(clock.time_call(clock.array_kernel))
        order = (False, True) if rnd % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.reset()
            for p in parts:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    if not with_trace:
                        bad = lp.run(p, None)
                    elif p == "scan":  # curve spans only; calls run bare
                        bad = lp.run(p, tracer)
                    else:
                        with installed(tracer, prog):
                            bad = lp.run(p, tracer)
                except Exception as exc:  # an op that raises counts as failed
                    failed += 1
                    log(f"op failed: {p}: {exc!r}")
                    continue
                dt = time.perf_counter() - t0
                problems += bad
                (traced if with_trace else plain)[p].append(dt)
            if with_trace:
                per_round.append(snapshot(tracer))
        rnd += 1
        if time.perf_counter() >= t_end:
            break

    interp = clock.INTERP_NOMINAL_S / statistics.median(refs["interp"])
    array = clock.ARRAY_NOMINAL_S / statistics.median(refs["array"])
    metrics = layer_metrics(per_round, interp, array)
    for p in parts:
        if traced[p] and plain[p]:
            metrics[f"trace.overhead.{p}"] = (
                statistics.median(traced[p]) / statistics.median(plain[p]),
                "ratio")
    metrics.update(import_probe(env, cwd))
    log(f"traced rounds {rnd}; reference kernels: interp "
        f"{statistics.median(refs['interp']) * 1e3:.3f} ms (nominal "
        f"{clock.INTERP_NOMINAL_S * 1e3:.1f}), array "
        f"{statistics.median(refs['array']) * 1e3:.3f} ms (nominal "
        f"{clock.ARRAY_NOMINAL_S * 1e3:.1f})")
    record = {"rounds": per_round, "references_s": refs,
              "traced_s": traced, "untraced_s": plain}
    return metrics, attempted, failed, problems, record


def snapshot(t: Tracer) -> dict:
    return {"calls": dict(t.calls), "total": dict(t.total),
            "self": dict(t.self_time), "into": dict(t.into),
            "into_s": dict(t.into_s)}


def layer_metrics(rounds: list[dict], interp: float, array: float) -> dict:
    """Medians over traced rounds, scaled to reference seconds: the
    interpreter kernel for the optimizer, scan and CLI layers, the array
    kernel for the oracle stages."""
    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    m = {}
    for s in wl.SCHEMES:
        name = f"optimize.{s}"
        m[f"{name}.ms"] = (med(lambda r: r["total"][name]) * interp * 1e3,
                           "ms")
    for s in ("coherent-single", "coherent-double"):
        m[f"protocol.evals.{s}"] = (
            med(lambda r: r["into"].get(f"optimize.{s}", 0)), "count")
    opt_spans = [f"optimize.{s}" for s in wl.SCHEMES]
    m["protocol.eval_us"] = (med(
        lambda r: sum(r["into_s"].get(n, 0.0) for n in opt_spans)
        / max(1, sum(r["into"].get(n, 0) for n in opt_spans)))
        * interp * 1e6, "us")
    calls = len(wl.PointScan.N_MAX)  # every curve has 250 points
    for name in SCAN_CURVES:
        m[f"{name}.us"] = (med(lambda r: r["total"][name + ".batch"])
                           / calls * interp * 1e6, "us")
    for stage in ORACLE_STAGES:
        name = f"oracle.{stage}"
        m[f"{name}.ms"] = (med(lambda r: r["self"][name] / r["calls"][name])
                           * array * 1e3, "ms")
    m["protocol.evals.quadrature"] = (
        med(lambda r: r["into"].get("oracle.quadrature_single", 0)), "count")
    for sub in ("response", "spectrum", "optimize"):
        m[f"cli.{sub}.ms"] = (med(lambda r: r["total"][f"cli.{sub}"])
                              * interp * 1e3, "ms")
    m["cli.protocol.ms"] = (med(lambda r: r["total"]["cli.protocol"]
                                / r["calls"]["cli.protocol"])
                            * interp * 1e3, "ms")
    return m


def import_probe(env: dict, cwd: str, runs: int = 2) -> dict:
    """Import `cavityherald.cli` in fresh processes; raw seconds."""
    results = []
    for _ in range(runs):
        child = clock.run_child([sys.executable, "-c", IMPORT_PROBE], env, cwd)
        if child.returncode != 0:
            raise RuntimeError("import probe failed:\n"
                               + child.stderr.decode(errors="replace"))
        dt, n_mods, n_scipy = child.stdout.split()
        results.append((float(dt), int(n_mods), int(n_scipy)))
    return {
        "cli.import_s": (statistics.median(r[0] for r in results), "s"),
        "cli.modules_loaded": (results[-1][1], "count"),
        "cli.modules_scipy": (results[-1][2], "count"),
    }
