"""Benchmark of cavityherald: one workload, one seed, one process.

    python3 bench/run.py --workload figure-sweep --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. With `--trace 0` it times the workload's ops in whole rounds for
`--seconds` and prints the end-to-end metrics; with `--trace 1` it runs the
traced layer pass (see layers.py) and prints the per-layer metrics. Every op
output is checked against the closed forms in closed_forms.py. Info lines
come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import clock
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"  # raw samples and spans of the last run per argument set
WORKLOADS = ("figure-sweep", "point-scan", "verify", "cli-cold")
# the layers each in-process op calls; the package __init__ loads the rest
MODULES = {"figure-sweep": ("core", "optimize"),
           "point-scan": ("core", "protocol"),
           "verify": ("oracle",),
           "cli-cold": ()}
SETUP_REPEATS = 3
MAX_REPORTED_PROBLEMS = 10


def log(msg: str) -> None:
    print(msg, flush=True)


def parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_program(names) -> dict:
    """Import the layers from this checkout's src/ and nowhere else."""
    if not (SRC / "cavityherald" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'cavityherald'}")
    if not names:
        return {}
    sys.path.insert(0, str(SRC))
    # importlib: the package's `optimize` function shadows the submodule
    prog = {n: importlib.import_module(f"cavityherald.{n}") for n in names}
    import cavityherald
    where = Path(cavityherald.__file__).resolve().parent
    if where != SRC / "cavityherald":
        raise SystemExit(f"error: cavityherald imported from {where}, "
                         f"not from {SRC}")
    return prog


def make_workload(name: str, seed: int, prog: dict, env: dict):
    if name == "figure-sweep":
        return wl.FigureSweep(seed, prog)
    if name == "point-scan":
        return wl.PointScan(seed, prog)
    if name == "verify":
        return wl.Verify(seed, prog)
    return wl.CliCold(seed, env, str(ROOT))


def reference_process(env: dict) -> float:
    child = clock.run_child(clock.REFERENCE_PROCESS, env, str(ROOT))
    if child.returncode != 0:
        raise SystemExit("error: the reference process failed:\n"
                         + child.stderr.decode(errors="replace"))
    return child.seconds


def measure_setup(args, workload, env: dict):
    """Time SETUP_REPEATS fresh processes that import the package and run
    one warm-up op, each between two reference processes; returns
    ((raw seconds, index of the reference before) per process, references,
    peak RSS in MB, problems found in their output)."""
    if args.workload == "cli-cold":
        argv = workload.argv(0)
    else:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--seconds", "0",
                "--setup-child"]
    refs = [reference_process(env)]
    ops = []
    peak = 0.0
    problems = []
    for _ in range(SETUP_REPEATS):
        child = clock.run_child(argv, env, str(ROOT))
        if child.returncode != 0:
            raise SystemExit("error: set-up process failed:\n"
                             + child.stderr.decode(errors="replace"))
        if args.workload == "cli-cold":
            problems += workload.check(0, child.stdout)
        peak = max(peak, child.peak_rss_mb)
        ops.append((child.seconds, len(refs) - 1))
        refs.append(reference_process(env))
    return ops, refs, peak, problems


def measure(workload, seconds: float):
    """Whole rounds of ops until `seconds` have passed, with one reference
    after every `workload.ref_every` ops and a last one after the last op;
    returns ((raw seconds, index of the reference before) per op that did
    not fail, references, attempted, failed, problems, rounds)."""
    refs = [workload.ref()]
    ops = []
    attempted = failed = rounds = 0
    problems: list[str] = []
    t_end = time.perf_counter() + seconds
    while True:
        for i in range(workload.round_size):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.op(i)
                ops.append((time.perf_counter() - t0, len(refs) - 1))
                problems += workload.check(i, out)
            except Exception as exc:  # an op that raises counts as failed
                failed += 1
                log(f"op {i} failed: {exc!r}")
            if attempted % workload.ref_every == 0:
                refs.append(workload.ref())
        rounds += 1
        if time.perf_counter() >= t_end:
            break
    if attempted % workload.ref_every:
        refs.append(workload.ref())
    return ops, refs, attempted, failed, problems, rounds


def timing_line(name: str, value: float, raw: float, ref: float,
                nominal: float) -> str:
    return (f"{name}: {value:.6g} s in reference seconds (raw "
            f"{raw:.6g} s; reference {ref * 1e3:.4g} ms against nominal "
            f"{nominal * 1e3:.4g} ms)")


def end_to_end(args, prog: dict, env: dict):
    workload = make_workload(args.workload, args.seed, prog, env)
    log(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
    setup_ops, setup_refs, setup_rss, problems = measure_setup(args, workload,
                                                               env)
    setup = clock.normalised(setup_ops, setup_refs, clock.PROCESS_NOMINAL_S)

    workload.prepare()
    warm = workload.op(0)  # untimed warm-up, checked like any op
    problems += workload.check(0, warm)
    ops, refs, attempted, failed, bad, rounds = measure(workload, args.seconds)
    problems += bad
    norm = clock.normalised(ops, refs, workload.nominal)
    if not norm:
        raise SystemExit("error: every op failed")

    if args.workload == "cli-cold":
        rss = max(workload.peak_rss_mb, setup_rss)
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss = max(own, setup_rss)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(norm), "s"),
        "ops_per_s": (len(norm) / sum(norm), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = [op[0] for op in ops]
    log(f"{len(norm)} ops in {rounds} rounds of {workload.round_size}")
    log(timing_line("setup_s", metrics["setup_s"][0],
                    statistics.median(op[0] for op in setup_ops),
                    statistics.median(setup_refs), clock.PROCESS_NOMINAL_S))
    log(timing_line("op_p50_s", metrics["op_p50_s"][0],
                    statistics.median(raw), statistics.median(refs),
                    workload.nominal))
    log(f"ops_per_s: {metrics['ops_per_s'][0]:.6g} per reference second "
        f"(raw {len(raw) / sum(raw):.6g} per second)")
    if len(norm) >= 40:
        pct = int(100 * (len(norm) - 10) / len(norm))
        tail = statistics.quantiles(norm, n=100, method="inclusive")[pct - 1]
        log(f"tail p{pct} (ten or more ops beyond it; not gated): "
            f"{tail:.6g} s")
    log(f"peak_rss_mb: {rss:.6g} MB")
    record = {"nominal_s": workload.nominal,
              "process_nominal_s": clock.PROCESS_NOMINAL_S,
              "setup_s": setup_ops, "setup_references_s": setup_refs,
              "ops_s": ops, "references_s": refs}
    return metrics, attempted, failed, problems, record


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    env = child_env()
    needed = (("core", "protocol", "optimize", "oracle", "cli") if args.trace
              else MODULES[args.workload])
    prog = load_program(needed)
    if args.setup_child:
        make_workload(args.workload, args.seed, prog, env).op(0)
        return 0
    if args.trace:
        import layers
        metrics, attempted, failed, problems, record = layers.traced_run(
            args.seed, prog, env, str(ROOT), args.seconds, log)
    else:
        metrics, attempted, failed, problems, record = end_to_end(args, prog,
                                                                  env)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        log(f"WRONG: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
