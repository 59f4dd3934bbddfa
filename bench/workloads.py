"""The four workloads: inputs drawn from the seed, one op each, and the
independent checks of every op's output.

A workload runs in whole rounds of `round_size` ops, so every run attempts
the same operations in the same proportions whatever its length.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import numpy as np

import clock
import closed_forms as cf

SCHEMES = ("fock-single", "fock-double", "coherent-single", "coherent-double")
REL_TOL = 1e-12  # closed forms evaluated in float64 on both sides
CSV_REL_TOL = 1e-11  # the CLI prints 12 significant digits
F_FLOOR_TOL = 1e-9  # the optimizers' documented constraint tolerance
BRUTE_REL_TOL = 1e-6  # optimizer answer vs the best point of a finite grid


def default_x_grid() -> np.ndarray:
    """The paper's 40-point cooperativity grid, 0.05 to 2, log-spaced."""
    return np.logspace(math.log10(0.05), math.log10(2.0), 40)


class Workload:
    """Inputs drawn from the seed, one op and its check, and the reference
    that scales the op's times (`ref`, whose nominal time is `nominal`)."""

    round_size = 1
    ref_every = 1  # ops between two references
    nominal = clock.INTERP_NOMINAL_S

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def ref(self) -> float:
        return clock.time_call(clock.interp_kernel)

    def prepare(self) -> None:
        """Compute the expected outputs; done once, before timing."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError


def stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """n draws from [lo, hi), one in each of n equal strata, in random order,
    so that every seed covers the range alike."""
    return (lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n).tolist()


class FigureSweep(Workload):
    """One op optimizes all four schemes at one x of the 40-point grid, with
    its own (eta, F_target) drawn from the seed."""

    def __init__(self, seed: int, prog: dict, points=None) -> None:
        super().__init__(seed)
        self.prog = prog
        if points is None:
            grid = default_x_grid().tolist()
            points = list(zip(grid,
                              stratified(self.rng, 0.5, 1.0, len(grid)),
                              stratified(self.rng, 0.75, 0.95, len(grid))))
        self.points = points  # (x, eta, F_target) per op of a round
        self.round_size = len(points)
        self.brute: list[tuple[float, float]] = []

    def describe(self) -> str:
        return ("(x, eta, F_target) = " + ", ".join(
            f"({x:.4g}, {e:.4g}, {f:.4g})" for x, e, f in self.points))

    def prepare(self) -> None:
        phis = np.linspace(1e-3, math.pi / 2 - 1e-3, 241)
        n_grid = np.logspace(-4, 3, 400)
        self.brute = [
            (cf.brute_force_coherent_single(x, eta, ft, phis, n_grid),
             cf.brute_force_coherent_double(x, eta, ft,
                                            np.logspace(-6, 3, 2001)))
            for x, eta, ft in self.points]

    def op(self, i: int):
        x, eta, ft = self.points[i % self.round_size]
        core, opt = self.prog["core"], self.prog["optimize"]
        params = core.CavityParams.from_cooperativity(x, eta=eta)
        return [opt.optimize(params, s, ft) for s in SCHEMES]

    def check(self, i: int, out) -> list[str]:
        k = i % self.round_size
        x, eta, ft = self.points[k]
        bf_single, bf_double = self.brute[k]
        bad = []
        for row in out:
            scheme = str(getattr(row.scheme, "value", row.scheme))
            tag = f"{scheme} x={x:.6g}"
            if cf.relative_error(row.x, x) > REL_TOL:
                bad.append(f"{tag}: row x {row.x!r}")
            if row.status != "ok":
                if scheme == "coherent-single" and bf_single == 0.0:
                    continue
                if scheme == "coherent-double" and bf_double == 0.0:
                    continue
                bad.append(f"{tag}: status {row.status} at a feasible point")
                continue
            if row.fidelity_achieved < ft - F_FLOOR_TOL:
                bad.append(f"{tag}: F {row.fidelity_achieved!r} below floor")
            if scheme == "fock-single":
                phi, ps = cf.fock_single_optimum(x, eta, ft)
                if (cf.relative_error(row.phi_opt, phi) > REL_TOL
                        or cf.relative_error(row.p_success, ps) > REL_TOL):
                    bad.append(f"{tag}: off the closed-form optimum")
            elif scheme == "fock-double":
                ps, fid = cf.fock_double(x, eta)
                if (cf.relative_error(row.p_success, ps) > REL_TOL
                        or row.fidelity_achieved != fid
                        or row.phi_opt != math.pi / 4):
                    bad.append(f"{tag}: P_s or F off the closed form")
            else:
                if scheme == "coherent-single":
                    ps, fid = cf.coherent_single(x, eta, row.phi_opt,
                                                 row.n_max_opt)
                    best = bf_single
                else:
                    ps, fid = cf.coherent_double(x, eta, row.n_max_opt)
                    best = bf_double
                if (cf.relative_error(row.p_success, ps) > REL_TOL
                        or cf.relative_error(row.fidelity_achieved, fid)
                        > REL_TOL):
                    bad.append(f"{tag}: reported point disagrees with the "
                               f"closed form at (phi, n_max)")
                if row.p_success < best * (1.0 - BRUTE_REL_TOL):
                    bad.append(f"{tag}: P_s {row.p_success!r} below the "
                               f"brute-force grid's {best!r}")
        return bad


class PointScan(Workload):
    """One op evaluates four curves through the scalar public API at one
    seed-drawn (x, eta, phi): about 1,000 calls."""

    N_POINTS = 8

    PHI = np.linspace(0.01, math.pi / 2 - 0.01, 250)
    N_MAX = np.logspace(-2, 2, 250)
    OMEGA = np.linspace(-10.0, 10.0, 125)

    def __init__(self, seed: int, prog: dict) -> None:
        super().__init__(seed)
        self.prog = prog
        n, r = self.N_POINTS, self.rng
        self.points = list(zip(
            [10 ** v for v in stratified(r, math.log10(0.05), math.log10(2.0),
                                         n)],
            stratified(r, 0.5, 1.0, n), stratified(r, 0.2, 1.3, n)))
        self.round_size = self.N_POINTS
        self.phi_list = self.PHI.tolist()
        self.n_list = self.N_MAX.tolist()
        self.omega_list = self.OMEGA.tolist()
        self.expected: list[dict] = []

    def describe(self) -> str:
        return "(x, eta, phi) = " + ", ".join(
            f"({x:.4g}, {e:.4g}, {p:.4g})" for x, e, p in self.points)

    def prepare(self) -> None:
        for x, eta, phi in self.points:
            params = self.prog["core"].CavityParams.from_cooperativity(
                x, eta=eta)
            amp = {n: cf.amplitudes(params.g, params.kappa_a, params.kappa_b,
                                    params.gamma, params.delta, self.OMEGA, n)
                   for n in (1, 2)}
            self.expected.append({
                "fock": cf.fock_single(x, eta, self.PHI),
                "cs": cf.coherent_single(x, eta, phi, self.N_MAX),
                "cd": cf.coherent_double(x, eta, self.N_MAX),
                "amp": amp,
            })

    def functions(self):
        p, c = self.prog["protocol"], self.prog["core"]
        return (p.fock_single, p.coherent_single, p.coherent_double,
                c.scattering_amplitudes)

    def curve_calls(self, params, phi, fns):
        """The op's four curves as zero-argument calls, in order."""
        fock, cs, cd, amp = fns
        return (
            lambda: [fock(params, p) for p in self.phi_list],
            lambda: [cs(params, phi, n) for n in self.n_list],
            lambda: [cd(params, n) for n in self.n_list],
            lambda: [amp(params, w, n) for n in (1, 2)
                     for w in self.omega_list],
        )

    def params(self, i: int):
        x, eta, phi = self.points[i % self.N_POINTS]
        return (self.prog["core"].CavityParams.from_cooperativity(x, eta=eta),
                phi)

    def op(self, i: int):
        params, phi = self.params(i)
        return tuple(call() for call in
                     self.curve_calls(params, phi, self.functions()))

    def check(self, i: int, out) -> list[str]:
        want = self.expected[i % self.N_POINTS]
        fock, cs, cd, amp = out
        bad = []
        for label, got, (ps, fid) in (("fock_single", fock, want["fock"]),
                                      ("coherent_single", cs, want["cs"]),
                                      ("coherent_double", cd, want["cd"])):
            if any(o.status != "ok" for o in got):
                bad.append(f"{label}: undefined outcome on the scan")
                continue
            got_ps = np.array([o.p_success for o in got])
            got_f = np.array([o.fidelity for o in got])
            if (cf.relative_error(got_ps, ps) > REL_TOL
                    or cf.relative_error(got_f, fid) > REL_TOL):
                bad.append(f"{label}: disagrees with the closed form")
            if label != "fock_single" and not (
                    np.all(np.diff(got_ps) >= 0.0) and got_ps[-1] > got_ps[0]):
                bad.append(f"{label}: P_s does not rise with n_max")
        n = len(self.omega_list)
        for k, atoms in ((0, 1), (1, 2)):
            pts = amp[k * n:(k + 1) * n]
            r = np.array([s.r for s in pts])
            t = np.array([s.t for s in pts])
            want_r, want_t = want["amp"][atoms]
            if (cf.relative_error(r, want_r) > REL_TOL
                    or cf.relative_error(t, want_t) > REL_TOL):
                bad.append(f"scattering_amplitudes N={atoms}: disagrees with "
                           "the Heisenberg-Langevin solve")
            total = np.array([s.R + s.T + s.loss for s in pts])
            if np.max(np.abs(total - 1.0)) > REL_TOL:
                bad.append(f"scattering_amplitudes N={atoms}: R+T+loss != 1")
        return bad


class Verify(Workload):
    """One op is the whole verification suite at its default seed and
    1e6 Monte Carlo samples."""

    nominal = clock.ARRAY_NOMINAL_S
    SAMPLES = 1_000_000
    MC_CHECK = "coherent double detection: Monte Carlo vs closed form, P_s"

    def __init__(self, seed: int, prog: dict) -> None:
        super().__init__(seed)
        self.prog = prog

    def describe(self) -> str:
        return "run_verification_suite() at its default seed"

    def ref(self) -> float:
        return clock.time_call(clock.array_kernel)

    def op(self, i: int):
        return self.prog["oracle"].run_verification_suite()

    def check(self, i: int, out) -> list[str]:
        bad = []
        checks = out.get("checks", [])
        if not checks or out.get("n_checks") != len(checks):
            bad.append("report lists no checks or miscounts them")
        failing = [c["name"] for c in checks if not c["passed"]]
        if failing or not out.get("passed") or out.get("n_failed") != 0:
            bad.append(f"failed checks: {failing}")
        if out.get("samples") != self.SAMPLES:
            bad.append(f"samples {out.get('samples')!r}")
        mc = [c for c in checks if c["name"] == self.MC_CHECK]
        if len(mc) != 1:
            return bad + ["no Monte Carlo P_s check in the report"]
        # P_s of the coherent double scheme at x = 1, eta = 1, n_max = 2
        want = float(cf.coherent_double(1.0, 1.0, 2.0)[0])
        sigma = math.sqrt(want * (1.0 - want) / self.SAMPLES)
        if abs(mc[0]["observed"] - want) > 4.0 * sigma:
            bad.append(f"Monte Carlo P_s {mc[0]['observed']!r} is more than "
                       f"4 sigma from the Erlang-2 value {want!r}")
        if cf.relative_error(mc[0]["expected"], want) > REL_TOL:
            bad.append("closed-form P_s in the report disagrees with Erlang-2")
        return bad


class CliCold(Workload):
    """One op is a fresh `python -m cavityherald.cli` process; a round runs
    each of seven subcommand lines once."""

    nominal = clock.PROCESS_NOMINAL_S
    ref_every = 2  # a reference process costs as much as an op

    def __init__(self, seed: int, env: dict, cwd: str) -> None:
        super().__init__(seed)
        self.env, self.cwd = env, cwd
        r = self.rng
        self.x = float(10 ** r.uniform(math.log10(0.05), math.log10(2.0)))
        self.eta = float(r.uniform(0.5, 1.0))
        self.phi = float(r.uniform(0.2, 1.3))
        self.n_max = float(10 ** r.uniform(-1.0, 1.0))
        self.f_target = float(r.uniform(0.6, 0.95))
        x, e = repr(self.x), repr(self.eta)
        self.commands = [
            ["response", "--x", x, "--n", "1", "--n", "2"],
            ["spectrum", "--x", x, "--n", "1", "--omega-points", "41"],
            ["protocol", "--scheme", "fock-single", "--x", x, "--eta", e,
             "--phi", repr(self.phi)],
            ["protocol", "--scheme", "fock-double", "--x", x, "--eta", e],
            ["protocol", "--scheme", "coherent-single", "--x", x, "--eta", e,
             "--phi", repr(self.phi), "--n-max", repr(self.n_max)],
            ["protocol", "--scheme", "coherent-double", "--x", x, "--eta", e,
             "--n-max", repr(self.n_max)],
            ["optimize", "--scheme", "fock-double", "--eta", e,
             "--f-target", repr(self.f_target)],
        ]
        self.round_size = len(self.commands)
        self.first_output: dict[int, bytes] = {}
        self.peak_rss_mb = 0.0

    def describe(self) -> str:
        return (f"x={self.x:.6g} eta={self.eta:.6g} phi={self.phi:.6g} "
                f"n_max={self.n_max:.6g} F_target={self.f_target:.6g}")

    def argv(self, i: int) -> list[str]:
        return [sys.executable, "-m", "cavityherald.cli",
                *self.commands[i % self.round_size]]

    def ref(self) -> float:
        child = clock.run_child(clock.REFERENCE_PROCESS, self.env, self.cwd)
        if child.returncode != 0:
            raise RuntimeError("the reference process failed:\n"
                               + child.stderr.decode(errors="replace"))
        return child.seconds

    def op(self, i: int):
        child = clock.run_child(self.argv(i), self.env, self.cwd)
        self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
        if child.returncode != 0:
            raise RuntimeError(f"exit code {child.returncode}: "
                               + child.stderr.decode(errors="replace")[-400:])
        return child.stdout

    def check(self, i: int, out: bytes) -> list[str]:
        k = i % self.round_size
        seen = self.first_output.setdefault(k, out)
        bad = [] if seen == out else [f"command {k}: output not byte-identical"]
        return bad + check_csv(self.commands[k], out.decode(), self)


def check_csv(command: list[str], text: str, wl: CliCold) -> list[str]:
    """Parse one CLI table and compare every number with the closed forms."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return [f"{command[0]}: no rows"]
    x, eta = wl.x, wl.eta

    def num(row, key):
        return float(row[key])

    def off(got, want):
        return cf.relative_error(got, want) > CSV_REL_TOL

    sub = command[0]
    if sub == "response":
        want = [(n, cf.reflection(x, n), cf.transmission(x, n), cf.loss(x, n))
                for n in (1, 2)]
        if len(rows) != 2 or any(
                int(row["N"]) != n or off(num(row, "x"), x)
                or off(num(row, "R"), r) or off(num(row, "T"), t)
                or off(num(row, "lambda"), lam)
                for row, (n, r, t, lam) in zip(rows, want)):
            return ["response: table disagrees with R_N, T_N, lambda_N"]
    elif sub == "spectrum":
        omega = np.linspace(-10.0, 10.0, 41)
        g = math.sqrt(x)
        r, t = cf.amplitudes(g, 0.5, 0.5, 1.0, 0.0, omega, 1)
        got = {k: np.array([num(row, k) for row in rows])
               for k in ("omega", "re_r", "im_r", "re_t", "im_t", "R", "T",
                         "lambda")}
        scale = np.maximum(np.abs(r), 1e-3)
        if (len(rows) != 41
                or np.max(np.abs(got["omega"] - omega)) > 1e-10
                or np.max(np.abs(got["re_r"] + 1j * got["im_r"] - r) / scale)
                > CSV_REL_TOL
                or np.max(np.abs(got["re_t"] + 1j * got["im_t"] - t)
                          / np.abs(t)) > CSV_REL_TOL
                or np.max(np.abs(got["R"] + got["T"] + got["lambda"] - 1.0))
                > 1e-11):
            return ["spectrum: table disagrees with the linear solve"]
    elif sub == "protocol":
        scheme = command[2]
        row = rows[0]
        if scheme == "fock-single":
            ps, fid = cf.fock_single(x, eta, wl.phi)
        elif scheme == "fock-double":
            ps, fid = cf.fock_double(x, eta)
        elif scheme == "coherent-single":
            ps, fid = cf.coherent_single(x, eta, wl.phi, wl.n_max)
        else:
            ps, fid = cf.coherent_double(x, eta, wl.n_max)
            if off(num(row, "uncorrected_fidelity"), 2.0 * fid - 0.5):
                return ["protocol coherent-double: uncorrected F is off"]
        if (len(rows) != 1 or row["status"] != "ok"
                or off(num(row, "p_success"), ps)
                or off(num(row, "fidelity"), fid)):
            return [f"protocol {scheme}: P_s or F disagrees"]
    elif sub == "optimize":
        grid = default_x_grid()
        ps, _ = cf.fock_double(grid, eta)
        if len(rows) != len(grid) or any(
                row["status"] != "ok" or off(num(row, "x"), xg)
                or off(num(row, "P_s"), p) or num(row, "F_achieved") != 1.0
                or off(num(row, "phi_opt"), math.pi / 4)
                for row, xg, p in zip(rows, grid, ps)):
            return ["optimize fock-double: rows disagree with eta^2 R1^2 / 2"]
    return []
