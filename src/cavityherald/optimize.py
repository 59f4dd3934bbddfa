"""Maximize heralding success probability at a fixed fidelity floor.

The fidelity constraint is monotone in each search variable for every scheme,
which the optimizers exploit: the constraint is inverted in closed form (Fock
single) or by bisection on the feasible side (coherent schemes), and the one
remaining free angle is line-searched by golden section seeded from a coarse
grid. Everything is derivative-free and deterministic: fixed iteration counts,
no RNG, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .core import CavityParams, with_cooperativity
from .protocol import STATUS_OK

N_MAX_CEILING = 1e3  # photon-budget search cap; all exponentials saturate below it
_CONSTRAINT_TOL = 1e-9
# the computed coherent-single F is within 3.4e-16 of a 40-digit reference
# wherever F >= 0.5, and the exact F is nonincreasing in n_max, so a point
# that clears or misses the target by this margin fixes the outcome of every
# point on its side (see `_certified_bracket`)
_CERT_MARGIN = 1e-13
_SEARCH_STEPS = 20  # false-position probes per certified bracket, at most
_GOLDEN_STEPS = 80
_COARSE_POINTS = 121

STATUS_INFEASIBLE = "infeasible"


class Scheme(str, enum.Enum):
    FOCK_SINGLE = "fock-single"
    FOCK_DOUBLE = "fock-double"
    COHERENT_SINGLE = "coherent-single"
    COHERENT_DOUBLE = "coherent-double"


@dataclass(frozen=True)
class OptimizationResult:
    """One optimizer answer; `n_max_opt` is None for the Fock schemes and
    `status` is "infeasible" when no point satisfies the fidelity floor.
    `n_evals` counts the closed-form evaluations the row took; it is left
    out of repr() and equality, so results compare and print by value."""

    x: float
    scheme: Scheme
    eta: float
    f_target: float
    phi_opt: float | None
    n_max_opt: float | None
    p_success: float
    fidelity_achieved: float | None
    status: str = STATUS_OK
    n_evals: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepSpec:
    """Grid request for figure-style data series."""

    x_grid: tuple[float, ...]
    eta: float
    f_target: float
    scheme: Scheme

    def __post_init__(self) -> None:
        if len(self.x_grid) == 0:
            raise ValueError("x_grid must be nonempty")
        if any(b <= a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise ValueError("x_grid must be strictly increasing")
        if not all(0.0 <= x < math.inf for x in self.x_grid):
            raise ValueError("x_grid must hold finite nonnegative values")


def default_x_grid(n_points: int = 40) -> tuple[float, ...]:
    """Log-spaced cooperativity grid covering the regime of interest."""
    return tuple(np.logspace(math.log10(0.05), math.log10(2.0), n_points))


def _check_target(f_target: float) -> None:
    if not 0.5 < f_target < 1.0:
        raise ValueError("f_target must lie in (0.5, 1)")


def _infeasible(params: CavityParams, scheme: Scheme, f_target: float,
                n_evals: int) -> OptimizationResult:
    return OptimizationResult(
        x=params.cooperativity, scheme=scheme, eta=params.eta,
        f_target=f_target, phi_opt=None, n_max_opt=None, p_success=0.0,
        fidelity_achieved=None, status=STATUS_INFEASIBLE, n_evals=n_evals)


def optimize_fock_single(params: CavityParams,
                         f_target: float) -> OptimizationResult:
    """Best preparation angle for the single-click Fock scheme.

    F = 1 / (1 + tan^2(phi) R2 / (2 R1)) is strictly decreasing in phi while
    P_s grows with p1, so the optimum sits exactly on the constraint:
    tan^2(phi) = 2 (R1/R2) (1 - F) / F and P_s = eta p1 R1 / F.
    """
    _check_target(f_target)
    out0 = protocol.fock_single(params, math.pi / 4)
    if out0.status != protocol.STATUS_OK:
        return _infeasible(params, Scheme.FOCK_SINGLE, f_target, 1)
    r1, r2, _ = protocol._rates(params)
    tan2 = 2.0 * (r1 / r2) * (1.0 - f_target) / f_target
    phi = math.atan(math.sqrt(tan2))
    check = protocol.fock_single(params, phi)
    if check.fidelity is None or abs(check.fidelity - f_target) > 1e-10:
        raise RuntimeError(
            f"constraint inversion failed: wanted F={f_target}, "
            f"got {check.fidelity}")
    return OptimizationResult(
        x=params.cooperativity, scheme=Scheme.FOCK_SINGLE, eta=params.eta,
        f_target=f_target, phi_opt=phi, n_max_opt=None,
        p_success=check.p_success, fidelity_achieved=check.fidelity,
        n_evals=2)


def optimize_fock_double(params: CavityParams,
                         f_target: float) -> OptimizationResult:
    """Double-click Fock scheme: phi is pinned to pi/4 and the heralded state
    is pure (F = 1 at f = 0), so the constraint never binds; infeasible only
    when the mirror fidelity itself falls below target."""
    _check_target(f_target)
    out = protocol.fock_double(params)
    if out.fidelity is None or out.fidelity < f_target - _CONSTRAINT_TOL:
        return _infeasible(params, Scheme.FOCK_DOUBLE, f_target, 1)
    return OptimizationResult(
        x=params.cooperativity, scheme=Scheme.FOCK_DOUBLE, eta=params.eta,
        f_target=f_target, phi_opt=math.pi / 4, n_max_opt=None,
        p_success=out.p_success, fidelity_achieved=out.fidelity, n_evals=1)


def _largest_feasible(fid: Callable[[float], float], f_target: float,
                      rel_tol: float, certify: bool = False,
                      guess: float | None = None) -> float | None:
    """Largest n_max in [1e-9, N_MAX_CEILING] with fid(n_max) >= f_target,
    fid nonincreasing; None when 1e-9 already misses. Bisects to float
    resolution or until hi - lo < rel_tol * max(1, lo).

    With `certify`, midpoints outside a bracket certified by
    `_certified_bracket` (whose search starts at `guess`) take their known
    outcome without calling fid; the midpoints, decisions and answer are
    those of the plain bisection.
    """
    lo, hi = 1e-9, N_MAX_CEILING
    f_lo = fid(lo)
    if f_lo < f_target:
        return None
    f_hi = fid(hi)
    if f_hi >= f_target:
        return hi
    below, above = lo, hi  # no midpoint reaches either: fid decides all
    if certify:
        below, above = _certified_bracket(fid, f_target, f_lo, f_hi, guess)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= below or (mid < above and fid(mid) >= f_target):
            lo = mid
        else:
            hi = mid
        if hi - lo < rel_tol * max(1.0, lo):
            break
    return lo  # feasible endpoint, so achieved F >= target


def _certified_bracket(fid: Callable[[float], float], f_target: float,
                       f_lo: float, f_hi: float,
                       guess: float | None) -> tuple[float, float]:
    """(below, above) with fid(below) >= f_target + _CERT_MARGIN and
    fid(above) <= f_target - _CERT_MARGIN, both evaluated, so a fid that is
    nonincreasing up to bumps below the margin is feasible at every point
    <= below and infeasible at every point >= above.

    Illinois false position in u = log(n_max) (Dowell & Jarratt, BIT 11,
    168 (1971)) from the endpoint values, probing `guess` first, then one
    probe on each side of the root estimate. A poor guess costs evaluations
    only: points that miss the margin just do not tighten the bracket.
    """
    below, above = 1e-9, N_MAX_CEILING

    def probe(u: float) -> float:
        nonlocal below, above
        n = math.exp(u)
        g = fid(n) - f_target
        if g >= _CERT_MARGIN:
            below = max(below, n)
        elif g <= -_CERT_MARGIN:
            above = min(above, n)
        return g

    # (u, g) on each side of the root; w scales a side's g in the false
    # position, halved while the other side keeps moving (Illinois)
    u_min, u_max = math.log(below), math.log(above)
    ua, ga, wa = u_min, f_lo - f_target, 1.0
    ub, gb, wb = u_max, f_hi - f_target, 1.0
    u = None
    if guess is not None and below < guess < above:
        u = math.log(guess)
    last = None  # whether the previous probe was feasible
    for _ in range(_SEARCH_STEPS):
        if u is None:
            u = (ua * wb * gb - ub * wa * ga) / (wb * gb - wa * ga)
            if not ua < u < ub:
                break
        g = probe(u)
        if g >= 0.0:
            ua, ga, wa = u, g, 1.0
            if last:
                wb *= 0.5
        else:
            ub, gb, wb = u, g, 1.0
            if last is False:
                wa *= 0.5
        last = g >= 0.0
        if abs(g) < _CERT_MARGIN:
            break
        u = None
    # the secant root of the bracket, and points about 2 margins off it
    root = ua - ga * (ub - ua) / (gb - ga)
    step = 2.0 * _CERT_MARGIN * (ub - ua) / (ga - gb)
    for u in (root - step, root + step):
        probe(min(max(u, u_min), u_max))
    return below, above


def optimize_coherent_single(params: CavityParams,
                             f_target: float) -> OptimizationResult:
    """Best (phi, n_max) for the single-click coherent scheme.

    Inner variable: at fixed phi the fidelity is nonincreasing and P_s
    nondecreasing in n_max, so the best budget is the largest feasible one
    (bisection, to 1e-13 relative, with certified steps warm-started from the
    previous phi's budget). Outer variable: coarse grid over phi plus
    golden-section refinement between the grid neighbors of the best point.
    """
    _check_target(f_target)
    # the rates are fixed for the row and the populations for each phi, so
    # the bisection evaluates only the closed form itself
    r1, r2, lam = protocol._rates(params)
    a, b = params.eta * r1, params.eta * r2
    n_evals = 0
    guess = None

    def budget(phi: float) -> tuple[float | None, Callable[[float], tuple]]:
        # largest n_max with F >= f_target at phi, and the closed form there
        nonlocal guess
        prep = protocol.initial_populations(phi)
        terms = functools.partial(protocol._coherent_single_terms,
                                  prep.p1, prep.p2, a, b, lam)

        def fid(nm: float) -> float:
            nonlocal n_evals
            n_evals += 1
            f = terms(nm)[1]
            return -1.0 if f is None else f

        # F(n_max) is nonincreasing, F(0+) = p1c(0)
        nm = _largest_feasible(fid, f_target, 1e-13, True, guess)
        if nm is not None:
            guess = nm
        return nm, terms

    def ps_at(phi: float) -> float:
        nonlocal n_evals
        nm, terms = budget(phi)
        if nm is None:
            return -1.0
        n_evals += 1
        return terms(nm)[0]

    phis = np.linspace(1e-4, math.pi / 2 - 1e-4, _COARSE_POINTS)
    values = [ps_at(p) for p in phis]
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return _infeasible(params, Scheme.COHERENT_SINGLE, f_target, n_evals)

    lo = phis[max(0, best - 1)]
    hi = phis[min(len(phis) - 1, best + 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - inv * (hi - lo)
    c2 = lo + inv * (hi - lo)
    f1, f2 = ps_at(c1), ps_at(c2)
    for _ in range(_GOLDEN_STEPS):
        if f1 < f2:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + inv * (hi - lo)
            f2 = ps_at(c2)
        else:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - inv * (hi - lo)
            f1 = ps_at(c1)
        if hi - lo < 1e-10:
            break
    phi = float(0.5 * (lo + hi))
    nm, _ = budget(phi)
    if nm is None:  # golden section cannot leave the feasible bracket
        return _infeasible(params, Scheme.COHERENT_SINGLE, f_target, n_evals)
    out = protocol.coherent_single(params, phi, nm)
    return OptimizationResult(
        x=params.cooperativity, scheme=Scheme.COHERENT_SINGLE,
        eta=params.eta, f_target=f_target, phi_opt=phi, n_max_opt=nm,
        p_success=out.p_success, fidelity_achieved=out.fidelity,
        n_evals=n_evals + 1)


def optimize_coherent_double(params: CavityParams,
                             f_target: float) -> OptimizationResult:
    """Best photon budget for the double-click coherent scheme (phi = pi/4).

    F(n_max) falls monotonically from 1 toward its infinite-budget limit;
    monotonicity is asserted on a coarse grid before bisecting, per contract.
    When the limit still clears the target the budget cap is returned and
    P_s sits on its 1/2 plateau.
    """
    _check_target(f_target)
    r1, _, lam = protocol._rates(params)
    a = params.eta * r1
    n_evals = 0

    def fid(nm: float) -> float:
        nonlocal n_evals
        n_evals += 1
        f = protocol._double_click_terms(a, lam, nm)[1]
        return -1.0 if f is None else f

    if fid(1e-9) < 0.0:
        return _infeasible(params, Scheme.COHERENT_DOUBLE, f_target, n_evals)

    probe = np.logspace(-6, math.log10(N_MAX_CEILING), 60)
    fvals = [fid(nm) for nm in probe]
    if any(b > a + 1e-9 for a, b in zip(fvals, fvals[1:])):
        raise RuntimeError(
            "fidelity is not monotone in n_max on the probe grid; "
            "bisection would be unsound for these parameters")

    nm = _largest_feasible(fid, f_target, 0.0)
    if nm is None:
        return _infeasible(params, Scheme.COHERENT_DOUBLE, f_target, n_evals)
    out = protocol.coherent_double(params, nm)
    return OptimizationResult(
        x=params.cooperativity, scheme=Scheme.COHERENT_DOUBLE,
        eta=params.eta, f_target=f_target, phi_opt=math.pi / 4,
        n_max_opt=nm, p_success=out.p_success,
        fidelity_achieved=out.fidelity, n_evals=n_evals + 1)


# evaluate(params, *(values of the arguments named in needs)) is the closed
# form; optimizer(params, f_target) maximizes its P_s at a fidelity floor
SchemeEntry = namedtuple("SchemeEntry", "evaluate needs optimizer")

SCHEMES = {
    Scheme.FOCK_SINGLE: SchemeEntry(
        protocol.fock_single, ("phi",), optimize_fock_single),
    Scheme.FOCK_DOUBLE: SchemeEntry(
        protocol.fock_double, (), optimize_fock_double),
    Scheme.COHERENT_SINGLE: SchemeEntry(
        protocol.coherent_single, ("phi", "n_max"), optimize_coherent_single),
    Scheme.COHERENT_DOUBLE: SchemeEntry(
        protocol.coherent_double, ("n_max",), optimize_coherent_double),
}


def optimize(params: CavityParams, scheme: Scheme,
             f_target: float) -> OptimizationResult:
    """Dispatch to the per-scheme optimizer."""
    return SCHEMES[Scheme(scheme)].optimizer(params, f_target)


def sweep(spec: SweepSpec) -> list[OptimizationResult]:
    """One optimization per grid point, row-ordered by x.

    Infeasible points are recorded in-row with status "infeasible"; the sweep
    never aborts. Rows are independent, so the output does not depend on
    evaluation order.
    """
    base = CavityParams.from_cooperativity(1.0, eta=spec.eta)
    rows = []
    for x in spec.x_grid:
        params = with_cooperativity(base, x)
        row = optimize(params, spec.scheme, spec.f_target)
        rows.append(dataclasses.replace(row, x=float(x)))
    return rows
