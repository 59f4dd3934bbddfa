"""Maximize heralding success probability at a fixed fidelity floor.

In every scheme the fidelity falls as the success probability rises, so the
optimum sits on the floor. The optimizers solve for it exactly:
- Fock single: the floor fixes the angle in closed form;
- Fock double: the angle is pinned and only feasibility is checked;
- coherent double: the largest feasible photon budget, found where
  F - F_target changes sign;
- coherent single: the floor fixes the angle in closed form at every budget,
  and the success probability on the floor is maximized over the budget
  from a coarse grid and a search on the sign of its derivative.
Each budget search (`_search`) runs capped regula falsi on the signed value
and then bisects, to float adjacency. Every search is deterministic, with
no RNG, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from . import protocol
from .core import X_MAX, CavityParams, with_cooperativity
from .protocol import STATUS_OK

N_MAX_CEILING = 1e3  # photon-budget search cap; all exponentials saturate below it
_CONSTRAINT_TOL = 1e-9
_FALSI_STEPS = 20  # regula falsi steps of a budget search before it bisects
_ZERO_STEP = 1 / 256  # share of the bracket a search steps past a zero

STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class OptimizationResult:
    """One optimizer answer; `n_max_opt` is None for the Fock schemes and
    `status` is "infeasible" when no point satisfies the fidelity floor.
    `n_evals` counts the closed-form evaluations the row took, and
    `budget_capped` says whether a coherent row's budget is N_MAX_CEILING
    (None for the Fock schemes, False for an infeasible coherent row). Both
    are left out of repr() and equality, so results compare and print by
    value."""

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
    budget_capped: bool | None = field(default=None, compare=False,
                                       repr=False)


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
        if not all(0.0 <= x <= X_MAX for x in self.x_grid):
            raise ValueError(f"x_grid values must lie in [0, X_MAX = {X_MAX:g}]")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced floats from start to stop inclusive, by the
    arithmetic of np.linspace, so the two agree bit for bit."""
    start, stop = float(start), float(stop)
    delta = stop - start
    if num < 2:
        return [0.0 * delta + start] * num
    step = delta / (num - 1)
    if step == 0.0:  # the step underflowed: scale by k / (num - 1) instead
        return [k / (num - 1) * delta + start for k in range(num - 1)] + [stop]
    return [k * step + start for k in range(num - 1)] + [stop]


def default_x_grid(n_points: int = 40) -> tuple[float, ...]:
    """Log-spaced cooperativity grid covering the regime of interest, as
    Python floats (not np.float64) within one ulp of np.logspace."""
    return tuple(10.0 ** y for y in _linspace(math.log10(0.05),
                                              math.log10(2.0), n_points))


# coherent-single budgets: 121 log-spaced, 10 per decade, exact endpoints
_COARSE_GRID = (1e-9, *[10.0 ** y for y in _linspace(
    -9.0, math.log10(N_MAX_CEILING), 121)[1:-1]], N_MAX_CEILING)


def _check_target(f_target: float) -> None:
    if not 0.5 < f_target < 1.0:
        raise ValueError("f_target must lie in (0.5, 1)")


def _result(params: CavityParams, scheme: Scheme, f_target: float,
            n_evals: int, out: protocol.SchemeOutcome | None = None,
            phi: float | None = None,
            n_max: float | None = None) -> OptimizationResult:
    # the row for outcome `out` at (phi, n_max); infeasible when out is None
    return OptimizationResult(
        x=params.cooperativity, scheme=scheme, eta=params.eta,
        f_target=f_target, phi_opt=phi, n_max_opt=n_max,
        p_success=0.0 if out is None else out.p_success,
        fidelity_achieved=None if out is None else out.fidelity,
        status=STATUS_INFEASIBLE if out is None else STATUS_OK,
        n_evals=n_evals,
        budget_capped=(n_max == N_MAX_CEILING if "n_max" in scheme.needs
                       else None))


def _search(value: Callable[[float], float], lo: float, hi: float,
            v_lo: float, v_hi: float) -> float:
    """The last float lo with value(lo) >= 0 once [lo, hi] is narrowed to
    float adjacency, given v_lo = value(lo) >= 0 and not v_hi = value(hi) >= 0.

    The first _FALSI_STEPS steps are regula falsi with the Illinois
    modification (Dowell & Jarratt, BIT 11, 168, 1971): each goes to the
    secant root of the two ends, and an end kept for a second step in a row
    has its value halved. A value of exactly 0 at lo puts the crossing
    within rounding above lo but gives the secant no scale, so the step
    goes _ZERO_STEP of the bracket past lo instead. A step bisects when the
    secant is not finite or not strictly inside the bracket, as with a -inf
    end; later steps all bisect. Only the sign of value decides which end
    moves, so where value >= 0 is monotone in the budget the result is the
    one a plain bisection finds.
    """
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    for step in itertools.count():
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        x = mid
        if step < _FALSI_STEPS:
            w = v_lo / (v_lo - v_hi) if v_lo > 0.0 else _ZERO_STEP
            x = lo + (hi - lo) * w
            if not lo < x < hi:
                x = mid
        v = value(x)
        if v >= 0.0:
            if moved > 0:
                v_hi *= 0.5
            lo, v_lo, moved = x, v, 1
        else:
            if moved < 0:
                v_lo *= 0.5
            hi, v_hi, moved = x, v, -1


def optimize_fock_single(params: CavityParams,
                         f_target: float) -> OptimizationResult:
    """Best preparation angle for the single-click Fock scheme.

    F = 1 / (1 + tan^2(phi) R2 / (2 R1)) is strictly decreasing in phi while
    P_s grows with p1, so the optimum sits exactly on the constraint:
    tan^2(phi) = 2 (R1/R2) (1 - F) / F and P_s = eta p1 R1 / F.

    The row reports `protocol.fock_single`'s P_s at that angle, and F in the
    scale-free form above: the scheme's own F = p1 R1 / (p1 R1 + p2 R2)
    rounds to 1 where p2 R2 underflows (x ~ 1e-154 at F = 1 - 1e-9).

    A subnormal R1 (x below about 3.7e-155) keeps too few digits for that
    inversion; such a row is infeasible, like R1 = 0.
    """
    _check_target(f_target)
    out0 = protocol.fock_single(params, math.pi / 4)
    r1, r2, _ = protocol._rates(params)
    if out0.status != protocol.STATUS_OK or r1 < sys.float_info.min:
        return _result(params, Scheme.FOCK_SINGLE, f_target, 1)
    tan2 = 2.0 * (r1 / r2) * (1.0 - f_target) / f_target
    phi = math.atan(math.sqrt(tan2))
    fid = 1.0 / (1.0 + math.tan(phi) ** 2 * r2 / (2.0 * r1))
    ps = protocol.fock_single(params, phi).p_success
    return _result(params, Scheme.FOCK_SINGLE, f_target, 2,
                   protocol._outcome(ps, fid), phi)


def optimize_fock_double(params: CavityParams,
                         f_target: float) -> OptimizationResult:
    """Double-click Fock scheme: phi is pinned to pi/4 and the heralded state
    is pure (F = 1 at f = 0), so the constraint never binds; infeasible only
    when the mirror fidelity itself falls below target."""
    _check_target(f_target)
    out = protocol.fock_double(params)
    if out.fidelity is None or out.fidelity < f_target - _CONSTRAINT_TOL:
        return _result(params, Scheme.FOCK_DOUBLE, f_target, 1)
    return _result(params, Scheme.FOCK_DOUBLE, f_target, 1, out, math.pi / 4)


def optimize_coherent_single(params: CavityParams,
                             f_target: float) -> OptimizationResult:
    """Best (phi, n_max) for the single-click coherent scheme.

    At every budget n_max the fidelity falls and P_s rises in t = tan^2(phi),
    so the best angle puts F exactly on the floor, at the closed-form
    t*(n_max) of `protocol._coherent_single_floor`. That leaves one variable:
    P_s on the floor, P*(n_max), is evaluated with its closed-form slope on
    a coarse log grid. Every grid cell where the slope turns negative is
    searched to float adjacency on the slope's sign (`_search`), with the
    grid's slopes as the values at the cell's ends. The best of these local
    maxima, the ceiling N_MAX_CEILING when P* still rises there, and the
    best grid point wins.
    """
    _check_target(f_target)
    # the rates are fixed for the row, so each step evaluates only the
    # closed form itself
    r1, r2, lam = protocol._rates(params)
    floor = functools.partial(protocol._coherent_single_floor,
                              params.eta * r1, params.eta * r2, lam, f_target)
    grid = _COARSE_GRID
    coarse = [floor(nm) for nm in grid]
    n_evals = len(grid)
    p_star = [ps for _, ps, _ in coarse]
    best = p_star.index(max(p_star))  # the first of equals
    if p_star[best] <= 0.0:  # no budget admits an angle on the floor
        return _result(params, Scheme.COHERENT_SINGLE, f_target, n_evals)

    def rise(nm: float) -> float:
        # P*'s slope where P* > 0, else -inf: >= 0 exactly where P* rises
        nonlocal n_evals
        n_evals += 1
        _, ps, slope = floor(nm)
        return slope if ps > 0.0 else -math.inf

    # P* rises where it is positive with slope >= 0, so each grid cell where
    # that stops holds a local maximum, and so does the ceiling if P* still
    # rises there. P* can have two, a peak and then a plateau approached
    # from below, so all of them compete, with the best grid point. The
    # grid's values are the ends of each cell's search.
    rises = [slope if ps > 0.0 else -math.inf for _, ps, slope in coarse]
    peaks = [_search(rise, grid[k], grid[k + 1], rises[k], rises[k + 1])
             for k in range(len(grid) - 1)
             if rises[k] >= 0.0 and not rises[k + 1] >= 0.0]
    n_evals += len(peaks)  # each peak is evaluated once more, for its P*
    found = [(nm, floor(nm)) for nm in peaks]
    if rises[-1] >= 0.0:
        found.append((grid[-1], coarse[-1]))
    found.append((grid[best], coarse[best]))
    nm, (t, _, _) = max(found, key=lambda c: c[1][1])  # first of equals
    phi = math.atan(math.sqrt(t))
    return _result(params, Scheme.COHERENT_SINGLE, f_target, n_evals + 1,
                   protocol.coherent_single(params, phi, nm), phi, nm)


def optimize_coherent_double(params: CavityParams,
                             f_target: float) -> OptimizationResult:
    """Best photon budget for the double-click coherent scheme (phi = pi/4).

    F(n_max) = 1/2 + 1/2 E[e^{-lambda S} | S <= n_max], with S the Erlang-2
    photon total, falls from 1 toward its infinite-budget limit: a larger
    budget adds only mass at S > n_max, where e^{-lambda S} lies below every
    value already averaged. So the best budget is the largest feasible one,
    the last float where F - f_target >= 0, found by `_search`. When the
    limit still clears the target the budget cap is returned and P_s sits
    on its 1/2 plateau.
    """
    _check_target(f_target)
    r1, _, lam = protocol._rates(params)
    a = params.eta * r1
    n_evals = 0

    def margin(nm: float) -> float:
        # F - f_target, whose sign is exact, or -inf where F is undefined
        nonlocal n_evals
        n_evals += 1
        f = protocol._double_click_terms(a, lam, nm)[1]
        return -math.inf if f is None else f - f_target

    lo, hi = 1e-9, N_MAX_CEILING
    v_lo = margin(lo)
    if not v_lo >= 0.0:
        return _result(params, Scheme.COHERENT_DOUBLE, f_target, n_evals)
    v_hi = margin(hi)
    nm = hi if v_hi >= 0.0 else _search(margin, lo, hi, v_lo, v_hi)
    return _result(params, Scheme.COHERENT_DOUBLE, f_target, n_evals + 1,
                   protocol.coherent_double(params, nm), math.pi / 4, nm)


class Scheme(str, enum.Enum):
    """The scheme table. Each member's value is the scheme's name, and it
    carries `evaluate(params, *args)`, the scheme's closed form; `needs`, the
    names of those args after params; and `optimizer(params, f_target)`,
    which maximizes the closed form's P_s at a fidelity floor."""

    def __new__(cls, name, evaluate, needs, optimizer):
        member = str.__new__(cls, name)
        member._value_ = name
        member.evaluate, member.needs = evaluate, needs
        member.optimizer = optimizer
        return member

    FOCK_SINGLE = ("fock-single", protocol.fock_single, ("phi",),
                   optimize_fock_single)
    FOCK_DOUBLE = ("fock-double", protocol.fock_double, (),
                   optimize_fock_double)
    COHERENT_SINGLE = ("coherent-single", protocol.coherent_single,
                       ("phi", "n_max"), optimize_coherent_single)
    COHERENT_DOUBLE = ("coherent-double", protocol.coherent_double,
                       ("n_max",), optimize_coherent_double)


def optimize(params: CavityParams, scheme: Scheme,
             f_target: float) -> OptimizationResult:
    """Dispatch to the per-scheme optimizer."""
    return Scheme(scheme).optimizer(params, f_target)


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
