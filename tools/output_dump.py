"""Print every public closed form and optimizer over a fixed corpus.

    python tools/output_dump.py [SRC] > dump.txt

imports the package from SRC, by default the `src/` directory of the
checkout that holds this script, and prints one line per call: the call's
inputs and its outputs as hex floats, or the type and message of the
exception it raised. The corpus is drawn from a fixed seed, so two runs of
one tree print the same bytes, and a claim that a change keeps every
output bit for bit is a `cmp` of a run on each tree:

    python tools/output_dump.py > new.txt
    python tools/output_dump.py /path/to/parent/src > old.txt
    cmp old.txt new.txt

It covers the functions of `core`, `protocol` and `optimize` (with the
hidden `n_evals` and `budget_capped` of each row) on 4,000 parameter sets,
30% of them ring sets, plus asymmetric, detuned and f > 0 sets that the
schemes reject, angles and photon budgets at their edges (-0.0, 5e-324,
pi/2, 1e300) and a few sweeps. It imports only the package and the
standard library, so it leaves out the oracle, which needs numpy.
"""

import importlib
import math
import pathlib
import random
import sys

SEED = 20260
N_SETS = 4000
HALF_PI = math.pi / 2
ANGLE_EDGES = (-0.0, 0.0, 5e-324, 1e-300, HALF_PI,
               math.nextafter(HALF_PI, 4.0), 1e300)
BUDGET_EDGES = (-0.0, 0.0, 5e-324, 1e-300, 1e-9, 1e3, 1e300, math.inf)
TARGET_EDGES = (0.5, math.nextafter(0.5, 1.0), 0.51, 0.999, 1.0 - 1e-9,
                1.0 - 1e-12, math.nextafter(1.0, 0.0), 1.0)


def fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    if isinstance(value, str):  # a status, or a Scheme member by its name
        return str.__str__(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(fmt, value)) + ")"
    # a record: every field, hidden ones too
    return type(value).__name__ + "(" + ",".join(
        f"{name}={fmt(getattr(value, name))}" for name in value._fields) + ")"


def call(tag: str, function, *args) -> None:
    # the set's params, printed once on the set's first line, shows as "p"
    try:
        out = fmt(function(*args))
    except Exception as error:  # the rejection is part of the output
        out = f"! {type(error).__name__}: {error}"
    shown = ",".join("p" if type(arg).__name__ == "CavityParams"
                     else fmt(arg) for arg in args)
    print(f"{tag} {function.__name__}({shown}) = {out}")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw_x(rng: random.Random, x_max: float) -> float:
    u = rng.random()
    if u < 0.55:
        return log_uniform(rng, 1e-3, 1e2)
    if u < 0.7:
        return log_uniform(rng, 1e-300, 1e-150)
    if u < 0.8:
        return log_uniform(rng, 1e50, x_max)
    if u < 0.9:
        return log_uniform(rng, 1e-320, x_max)
    return rng.choice((0.0, 5e-324, 1e-154, 3e-163, 0.25, 1.0, x_max))


def draw_params(rng: random.Random, core, index: int):
    # (kwargs of CavityParams, or of from_cooperativity with an "x")
    x = draw_x(rng, core.X_MAX)
    u = rng.random()
    eta = (rng.choice((0.0, 5e-324, 1e-300, 1.0)) if u < 0.1
           else rng.uniform(0.01, 1.0))
    u = rng.random()
    if u < 0.8:
        f = 0.0
    elif u < 0.85:
        f = rng.choice((5e-324, 1e-170, 0.5, math.nextafter(1.0, 0.0)))
    else:
        f = rng.random()
    kwargs = {"eta": eta, "f": f}
    if index % 10 < 3:  # a ring set
        kwargs["g_tilde"] = log_uniform(rng, 1e-3, 1e3)
        kwargs["kappa_tilde"] = log_uniform(rng, 1e-3, 1e3)
    u = rng.random()
    if u < 0.05:  # asymmetric mirrors, which the schemes reject
        return core.CavityParams, {"g": math.sqrt(min(x, 1e300)),
                                   "kappa_a": rng.uniform(0.1, 2.0),
                                   "kappa_b": rng.uniform(0.1, 2.0), **kwargs}
    if u < 0.1:  # a detuned cavity, which the schemes reject too
        kwargs["delta"] = rng.uniform(-5.0, 5.0)
    return core.CavityParams.from_cooperativity, {"x": x, **kwargs}


def main(src: pathlib.Path) -> None:
    sys.path.insert(0, str(src))
    core = importlib.import_module("cavityherald.core")
    found = pathlib.Path(core.__file__).resolve().parents[1]
    if found != src.resolve():
        sys.exit(f"cavityherald came from {found}, not from {src}")
    protocol = importlib.import_module("cavityherald.protocol")
    optimize = importlib.import_module("cavityherald.optimize")
    rng = random.Random(SEED)
    for index in range(N_SETS):
        build, kwargs = draw_params(rng, core, index)
        angles = (rng.uniform(0.0, HALF_PI), rng.choice(ANGLE_EDGES))
        budgets = (log_uniform(rng, 1e-9, 1e3), rng.choice(BUDGET_EDGES))
        f_target = (rng.choice(TARGET_EDGES) if rng.random() < 0.2
                    else rng.uniform(0.5, 1.0))
        f_other = rng.random()
        omega = rng.uniform(-10.0, 10.0)
        tag = str(index)
        args = ", ".join(f"{k}={fmt(v)}" for k, v in kwargs.items())
        try:
            params = build(**kwargs)
        except Exception as error:
            print(f"{tag} {build.__name__}({args}) = "
                  f"! {type(error).__name__}: {error}")
            continue
        print(f"{tag} params {fmt(params)}")
        call(tag, core.effective_cooperativity_ring, params)
        x = params.cooperativity
        for n in (0, 1, 2, 7):
            for function in (core.reflection_probability,
                             core.transmission_probability,
                             core.scattering_loss):
                call(tag, function, x, n)
        for n in (1, 2):
            for w in (0.0, omega):
                call(tag, core.scattering_amplitudes, params, w, n)
        call(tag, protocol.fock_double, params)
        for f in (params.f, f_other):
            call(tag, protocol.false_reflection_fidelity, params, f)
        for phi in angles:
            call(tag, protocol.initial_populations, phi)
            call(tag, protocol.fock_single, params, phi)
            for nm in budgets:
                call(tag, protocol.coherent_single, params, phi, nm)
                for function in (protocol.coherent_conditional_population,
                                 protocol.coherent_conditional_fidelity,
                                 protocol.first_click_density):
                    call(tag, function, params, phi, nm)
        for nm in budgets:
            call(tag, protocol.coherent_double, params, nm)
            call(tag, protocol.coherent_double_fidelity_uncorrected,
                 params, nm)
        for scheme in protocol.Scheme:
            call(tag, optimize.optimize, params, scheme, f_target)
    grid = core.default_x_grid()
    bases = (None, core.CavityParams.from_cooperativity(
        0.0, eta=0.9, g_tilde=0.6, kappa_tilde=1.1),
        core.CavityParams.from_cooperativity(0.0, eta=0.9, f=0.05))
    for base in bases:
        for scheme in protocol.Scheme:
            call("sweep", optimize.sweep,
                 optimize.SweepSpec(grid, 0.9, 0.9, scheme, base))


if __name__ == "__main__":
    here = pathlib.Path(__file__).resolve().parents[1] / "src"
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here)
